//! `iroram-lint`: an offline, dependency-free static-analysis engine that
//! enforces the simulator's determinism, panic-freedom and scheduling
//! contracts (see `DESIGN.md` § "Static guarantees"). Obliviousness is
//! checked by behaviour instead: `tests/obliviousness.rs` and the KV
//! shard's server-view tests observe the memory trace directly.
//!
//! Four passes run over the workspace:
//!
//! 1. **determinism** — no `HashMap`/`HashSet`/`Instant`/`SystemTime`/env
//!    reads in report-affecting crates outside test code, unless annotated.
//! 2. **panic** — panic-capable sites in designated hot-path modules are
//!    ratcheted by `lint-ratchet.toml`: counts can only go down.
//! 3. **panic-reach** — a cross-crate call-graph walk from the per-slot
//!    entry points budgets transitively reachable panic sites.
//! 4. **thread-order** — parallelism primitives stay confined to the
//!    sanctioned scoped-worker/merge sites.
//!
//! Findings are machine-readable lines (`file:line rule message`) or a
//! JSON document (`--format json`, see [`json`]). Inline exemptions:
//! `// lint: allow(<rule>, <reason>)` on the flagged line, the line above
//! it, or covering the statement that starts there; the reason is
//! mandatory, and allows that no longer suppress anything are themselves
//! findings.

pub mod determinism;
pub mod json;
pub mod lexer;
pub mod panics;
pub mod parser;
pub mod ratchet;
pub mod reach;
pub mod source;
pub mod threads;

use std::fmt;
use std::path::{Path, PathBuf};

use source::SourceFile;

/// One lint finding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Repo-relative file path, `/`-separated.
    pub file: String,
    /// 1-based line.
    pub line: u32,
    /// Rule name (one of [`source::RULES`], `panic-reach` or `annotation`).
    pub rule: String,
    /// Human-readable description.
    pub message: String,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{} {} {}",
            self.file, self.line, self.rule, self.message
        )
    }
}

/// Crates whose sources feed reported numbers: nondeterminism anywhere in
/// them can break twin-run byte-identity. (`bench` — timing harnesses and
/// figure binaries' wall-clock — and `lint` itself are exempt.)
pub const REPORT_AFFECTING_CRATES: [&str; 8] = [
    "cache-sim",
    "dram-sim",
    "experiments",
    "kv",
    "oram-ctrl",
    "oram-protocol",
    "sim-engine",
    "trace-gen",
];

/// The designated hot-path modules the panic ratchet covers: code on the
/// per-access / per-slot path of a sweep, where a panic kills the batch.
pub const HOT_PATH_FILES: [&str; 8] = [
    "crates/cache-sim/src/cache.rs",
    "crates/dram-sim/src/system.rs",
    "crates/kv/src/store.rs",
    "crates/oram-ctrl/src/controller.rs",
    "crates/oram-ctrl/src/dwb.rs",
    "crates/oram-ctrl/src/rho.rs",
    "crates/oram-protocol/src/controller.rs",
    "crates/oram-protocol/src/stash.rs",
];

/// Path (from the workspace root) of the panic ratchet.
pub const RATCHET_FILE: &str = "lint-ratchet.toml";

/// The outcome of a lint run.
#[derive(Debug)]
pub struct Outcome {
    /// All findings, sorted by (file, line, rule).
    pub findings: Vec<Finding>,
    /// Files lexed and analyzed.
    pub files_scanned: usize,
}

/// Runs every pass over the workspace at `root`.
///
/// With `fix_ratchet`, `lint-ratchet.toml` is rewritten from the current
/// hot-path counts (and the panic pass is then green by construction).
///
/// # Errors
///
/// Returns a message for I/O-level problems (unreadable root, missing
/// hot-path files, unwritable ratchet) — everything else is a finding.
pub fn run(root: &Path, fix_ratchet: bool) -> Result<Outcome, String> {
    let mut files: Vec<SourceFile> = Vec::new();
    for krate in REPORT_AFFECTING_CRATES {
        let dir = root.join("crates").join(krate).join("src");
        for path in rust_files(&dir)? {
            let rel = rel_path(root, &path);
            let src = std::fs::read_to_string(&path)
                .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
            files.push(SourceFile::new(rel, &src));
        }
    }
    let mut findings: Vec<Finding> = Vec::new();

    // Annotation hygiene everywhere first: a malformed allow must never
    // silently disable another pass.
    for f in &files {
        findings.extend(source::annotation_findings(f));
    }

    // Pass 1: determinism.
    for f in &files {
        findings.extend(determinism::check(f));
    }

    // Pass 2: panic-freedom ratchet over the hot-path files, and pass 3:
    // panic reachability from the per-slot entry points through helper
    // crates. Both budget against `lint-ratchet.toml` (reach counts under
    // `reach:`-prefixed sections), so --fix-ratchet rewrites one combined
    // inventory.
    let mut counted = ratchet::Ratchet::new();
    for hot in HOT_PATH_FILES {
        let Some(f) = files.iter().find(|f| f.rel_path == hot) else {
            return Err(format!(
                "hot-path file {hot} not found under {}",
                root.display()
            ));
        };
        counted.insert(hot.to_owned(), panics::count(f));
    }
    let reach_analysis = reach::analyze(&files);
    findings.extend(reach_analysis.findings);
    let mut combined = counted.clone();
    for (file, sites) in &reach_analysis.sites {
        combined.insert(
            format!("{}{file}", reach::REACH_PREFIX),
            reach::counts_of(sites),
        );
    }
    let ratchet_path = root.join(RATCHET_FILE);
    if fix_ratchet {
        std::fs::write(&ratchet_path, ratchet::to_string(&combined))
            .map_err(|e| format!("cannot write {}: {e}", ratchet_path.display()))?;
    }
    let budget_text = std::fs::read_to_string(&ratchet_path).unwrap_or_default();
    match ratchet::parse(&budget_text) {
        Ok(budget) => {
            let mut budget_hot = ratchet::Ratchet::new();
            let mut budget_reach = ratchet::Ratchet::new();
            for (file, cats) in budget {
                match file.strip_prefix(reach::REACH_PREFIX) {
                    Some(rest) => budget_reach.insert(rest.to_owned(), cats),
                    None => budget_hot.insert(file, cats),
                };
            }
            findings.extend(panics::check_against_ratchet(
                &counted,
                &budget_hot,
                RATCHET_FILE,
            ));
            findings.extend(reach::check(
                &reach_analysis.sites,
                &budget_reach,
                RATCHET_FILE,
            ));
        }
        Err(e) => findings.push(Finding {
            file: RATCHET_FILE.to_owned(),
            line: 1,
            rule: "panic".to_owned(),
            message: format!("ratchet file unreadable: {e}"),
        }),
    }

    // Pass 4: thread-order.
    for f in &files {
        findings.extend(threads::check(f));
    }

    // Annotation hygiene, part two — after every pass has consulted the
    // allows: any reasoned allow that suppressed nothing is stale.
    for f in &files {
        findings.extend(source::unused_allow_findings(f));
    }

    findings.sort_by(|a, b| {
        (&a.file, a.line, &a.rule, &a.message).cmp(&(&b.file, b.line, &b.rule, &b.message))
    });
    Ok(Outcome {
        findings,
        files_scanned: files.len(),
    })
}

/// All `.rs` files under `dir`, recursively, sorted for deterministic
/// finding order.
fn rust_files(dir: &Path) -> Result<Vec<PathBuf>, String> {
    let mut out = Vec::new();
    let mut stack = vec![dir.to_path_buf()];
    while let Some(d) = stack.pop() {
        let entries =
            std::fs::read_dir(&d).map_err(|e| format!("cannot read {}: {e}", d.display()))?;
        for entry in entries {
            let entry = entry.map_err(|e| format!("readdir {}: {e}", d.display()))?;
            let path = entry.path();
            if path.is_dir() {
                stack.push(path);
            } else if path.extension().is_some_and(|e| e == "rs") {
                out.push(path);
            }
        }
    }
    out.sort();
    Ok(out)
}

/// `path` relative to `root`, `/`-separated.
fn rel_path(root: &Path, path: &Path) -> String {
    path.strip_prefix(root)
        .unwrap_or(path)
        .components()
        .map(|c| c.as_os_str().to_string_lossy())
        .collect::<Vec<_>>()
        .join("/")
}

/// Locates the workspace root: walks up from `start` until a directory
/// containing both `Cargo.toml` and `crates/` is found.
pub fn find_root(start: &Path) -> Option<PathBuf> {
    let mut dir = start.to_path_buf();
    loop {
        if dir.join("Cargo.toml").is_file() && dir.join("crates").is_dir() {
            return Some(dir);
        }
        if !dir.pop() {
            return None;
        }
    }
}
