//! The thread-order pass: intra-run parallelism must stay confined to the
//! sanctioned scoped-worker/merge sites, so scheduling can never reorder
//! anything that feeds a report.
//!
//! The sweep fan-out (`par_map` in `experiments/src/runner.rs`) and the KV
//! shard workers (`flush` in `kv/src/service.rs`) are the two places
//! allowed to spawn and share state: both join inside the call and merge
//! results in a deterministic order, so reports stay byte-identical at any
//! `--jobs` / shard worker count. Everywhere else — the DRAM scheduler
//! included, which runs each batch serially — this pass flags:
//!
//! * `std::thread::spawn` — unscoped threads outlive the call that made
//!   them and are flagged even in the sanctioned files;
//! * `thread::scope` / `.spawn(..)` — scoped parallelism outside the
//!   sanctioned files;
//! * shared-state primitives (`Mutex`, `RwLock`, `Condvar`, `OnceLock`,
//!   `Atomic*`, `mpsc`, `Barrier`) and `static mut` outside the
//!   sanctioned files.
//!
//! `use` declarations are not usage; test code is exempt; sanctioned
//! exceptions elsewhere carry
//! `// lint: allow(thread-order, <why ordering cannot reach a report>)`.

use crate::lexer::TokKind;
use crate::source::SourceFile;
use crate::Finding;

/// Files whose scoped-worker/merge structure is the audited, sanctioned
/// home of intra-run parallelism.
pub const SANCTIONED_FILES: [&str; 2] = [
    "crates/experiments/src/runner.rs",
    "crates/kv/src/service.rs",
];

/// Shared-state primitive type names (and the `mpsc` module) flagged
/// outside the sanctioned files.
const SYNC_IDENTS: [&str; 13] = [
    "Mutex",
    "RwLock",
    "Condvar",
    "OnceLock",
    "Barrier",
    "mpsc",
    "AtomicBool",
    "AtomicU8",
    "AtomicU32",
    "AtomicU64",
    "AtomicUsize",
    "AtomicI64",
    "AtomicIsize",
];

/// Runs the thread-order pass over one file of a report-affecting crate.
pub fn check(file: &SourceFile) -> Vec<Finding> {
    let sanctioned = SANCTIONED_FILES.contains(&file.rel_path.as_str());
    let toks = &file.tokens;
    let use_spans = use_decl_spans(file);
    let mut out: Vec<Finding> = Vec::new();
    let mut push = |file: &SourceFile, line: u32, what: &str, detail: &str| {
        if file.allowed(line, "thread-order") {
            return;
        }
        let message = format!(
            "{what} outside the sanctioned parallel sites ({}) — {detail}; move it into the scoped-worker/merge path or annotate it with lint: allow(thread-order, <why ordering cannot reach a report>)",
            SANCTIONED_FILES.join(", ")
        );
        if out
            .iter()
            .any(|f: &Finding| f.line == line && f.message == message)
        {
            return;
        }
        out.push(Finding {
            file: file.rel_path.clone(),
            line,
            rule: "thread-order".to_owned(),
            message,
        });
    };
    for (i, t) in toks.iter().enumerate() {
        if file.in_test(i) || use_spans.iter().any(|&(a, b)| a <= i && i < b) {
            continue;
        }
        match &t.kind {
            TokKind::Ident(s) if s == "spawn" => {
                let after_thread_path = i >= 2
                    && toks[i - 1].is_punct(b':')
                    && toks.get(i.wrapping_sub(3)).and_then(|t| t.ident()) == Some("thread");
                let is_call = toks.get(i + 1).is_some_and(|n| n.is_punct(b'('));
                if after_thread_path && is_call {
                    // `thread::spawn` is unscoped: flagged everywhere.
                    push(
                        file,
                        t.line,
                        "`thread::spawn`",
                        "unscoped threads outlive the call and make joins order-dependent; use std::thread::scope",
                    );
                } else if is_call
                    && !sanctioned
                    && toks
                        .get(i.wrapping_sub(1))
                        .is_some_and(|p| p.is_punct(b'.'))
                {
                    push(
                        file,
                        t.line,
                        "a scoped `.spawn(..)`",
                        "intra-run parallelism is confined to the audited scoped-worker sites",
                    );
                }
            }
            TokKind::Ident(s) if s == "scope" && !sanctioned => {
                let after_thread_path = i >= 2
                    && toks[i - 1].is_punct(b':')
                    && toks.get(i.wrapping_sub(3)).and_then(|t| t.ident()) == Some("thread");
                if after_thread_path {
                    push(
                        file,
                        t.line,
                        "`thread::scope`",
                        "intra-run parallelism is confined to the audited scoped-worker sites",
                    );
                }
            }
            TokKind::Ident(s) if !sanctioned && SYNC_IDENTS.contains(&s.as_str()) => {
                push(
                    file,
                    t.line,
                    &format!("shared-state primitive `{s}`"),
                    "cross-thread state merged in nondeterministic order can leak into reports",
                );
            }
            TokKind::Ident(s)
                if s == "static"
                    && !sanctioned
                    && toks.get(i + 1).and_then(|t| t.ident()) == Some("mut") =>
            {
                push(
                    file,
                    t.line,
                    "`static mut`",
                    "unsynchronized global mutable state is order-dependent by construction",
                );
            }
            _ => {}
        }
    }
    out
}

/// Half-open token ranges of `use ...;` declarations: imports are not
/// usage, so `use std::sync::Mutex;` does not by itself trip the pass.
fn use_decl_spans(file: &SourceFile) -> Vec<(usize, usize)> {
    let toks = &file.tokens;
    let mut spans = Vec::new();
    let mut i = 0usize;
    while i < toks.len() {
        if toks[i].ident() == Some("use") {
            let start = i;
            while i < toks.len() && !toks[i].is_punct(b';') {
                i += 1;
            }
            spans.push((start, i + 1));
        }
        i += 1;
    }
    spans
}

#[cfg(test)]
mod tests {
    use super::*;

    fn findings(path: &str, src: &str) -> Vec<Finding> {
        check(&SourceFile::new(path.to_owned(), src))
    }

    #[test]
    fn unscoped_spawn_is_flagged_even_in_sanctioned_files() {
        let f = findings(
            "crates/experiments/src/runner.rs",
            "fn f() {\n    std::thread::spawn(|| work());\n}\n",
        );
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].line, 2);
        assert!(f[0].message.contains("`thread::spawn`"));
    }

    #[test]
    fn scoped_workers_in_sanctioned_file_are_clean() {
        let f = findings(
            "crates/experiments/src/runner.rs",
            "use std::sync::Mutex;\nfn par_map() {\n    let m = Mutex::new(Vec::new());\n    std::thread::scope(|s| { s.spawn(|| {}); });\n}\n",
        );
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn mutex_outside_sanctioned_files_is_flagged() {
        let f = findings(
            "crates/experiments/src/journal.rs",
            "use std::sync::Mutex;\nstatic LOCK: Mutex<()> = Mutex::new(());\n",
        );
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].line, 2);
        assert!(f[0].message.contains("`Mutex`"));
    }

    #[test]
    fn use_declaration_alone_is_not_usage() {
        let f = findings(
            "crates/sim-engine/src/lib.rs",
            "use std::sync::atomic::AtomicU64;\n",
        );
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn scoped_spawn_outside_sanctioned_files_is_flagged() {
        let f = findings(
            "crates/oram-ctrl/src/controller.rs",
            "fn f() {\n    std::thread::scope(|s| {\n        s.spawn(|| {});\n    });\n}\n",
        );
        assert_eq!(f.len(), 2, "{f:?}");
        assert!(f[0].message.contains("`thread::scope`"));
        assert!(f[1].message.contains("scoped `.spawn(..)`"));
    }

    #[test]
    fn dram_scheduler_is_not_a_sanctioned_site() {
        let f = findings(
            "crates/dram-sim/src/system.rs",
            "fn run_batch() {\n    static CORES: OnceLock<usize> = OnceLock::new();\n    std::thread::scope(|s| {});\n}\n",
        );
        assert!(f.iter().any(|f| f.message.contains("`OnceLock`")), "{f:?}");
        assert!(
            f.iter().any(|f| f.message.contains("`thread::scope`")),
            "{f:?}"
        );
    }

    #[test]
    fn static_mut_is_flagged() {
        let f = findings(
            "crates/cache-sim/src/cache.rs",
            "static mut HITS: u64 = 0;\n",
        );
        assert_eq!(f.len(), 1, "{f:?}");
        assert!(f[0].message.contains("`static mut`"));
    }

    #[test]
    fn allow_with_reason_silences() {
        let f = findings(
            "crates/experiments/src/journal.rs",
            "// lint: allow(thread-order, append-only log; entries are order-independent records)\nstatic LOG: Mutex<Vec<u8>> = Mutex::new(Vec::new());\n",
        );
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn test_code_is_exempt() {
        let f = findings(
            "crates/sim-engine/src/lib.rs",
            "#[cfg(test)]\nmod tests {\n    use std::sync::Mutex;\n    #[test]\n    fn t() { let _ = Mutex::new(0); }\n}\n",
        );
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn refcell_and_thread_locals_are_not_flagged() {
        let f = findings(
            "crates/sim-engine/src/lib.rs",
            "use std::cell::RefCell;\nfn f() { let c = RefCell::new(0); c.borrow_mut(); }\n",
        );
        assert!(f.is_empty(), "{f:?}");
    }
}
