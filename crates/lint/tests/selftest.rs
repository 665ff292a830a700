//! End-to-end self-tests: run the full lint over the seeded fixture
//! workspace (`tests/fixtures/ws`) and over the real repository.
//!
//! The fixture plants exactly one violation per rule:
//! * determinism — a `HashMap` construction in `sim-engine/src/lib.rs:4`;
//! * panic — one `unwrap` in `oram-protocol/src/stash.rs` against a
//!   zero budget;
//! * panic-reach — an `unwrap` in `sim-engine/src/reach_helper.rs:4`
//!   reachable from `process_slot` against a zero `reach:` budget;
//! * thread-order — a `std::thread::spawn` in
//!   `experiments/src/workers.rs:4`;
//! * annotation — a stale `lint: allow(determinism)` in
//!   `cache-sim/src/cache.rs:9` that suppresses nothing.

use std::path::{Path, PathBuf};

use iroram_lint::{run, Finding};

fn fixture_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/ws")
}

fn by_rule<'a>(findings: &'a [Finding], rule: &str) -> Vec<&'a Finding> {
    findings.iter().filter(|f| f.rule == rule).collect()
}

#[test]
fn fixture_reports_each_seeded_violation_at_its_line() {
    let out = run(&fixture_root(), false).expect("fixture lint runs");

    let det = by_rule(&out.findings, "determinism");
    assert_eq!(det.len(), 1, "{det:?}");
    assert_eq!(det[0].file, "crates/sim-engine/src/lib.rs");
    assert_eq!(det[0].line, 4);
    assert!(det[0].message.contains("HashMap"));

    let panics = by_rule(&out.findings, "panic");
    assert_eq!(panics.len(), 1, "{panics:?}");
    assert_eq!(panics[0].file, "crates/oram-protocol/src/stash.rs");
    assert!(panics[0].message.contains("1 unannotated `unwrap`"));
    assert!(panics[0].message.contains("ratchet allows 0"));

    let reach = by_rule(&out.findings, "panic-reach");
    assert_eq!(reach.len(), 1, "{reach:?}");
    assert_eq!(reach[0].file, "crates/sim-engine/src/reach_helper.rs");
    assert_eq!(reach[0].line, 4);
    assert!(reach[0].message.contains("1 `unwrap` site(s) reachable"));
    assert!(reach[0].message.contains("ratchet allows 0"));

    let threads = by_rule(&out.findings, "thread-order");
    assert_eq!(threads.len(), 1, "{threads:?}");
    assert_eq!(threads[0].file, "crates/experiments/src/workers.rs");
    assert_eq!(threads[0].line, 4);
    assert!(threads[0].message.contains("`thread::spawn`"));

    let notes = by_rule(&out.findings, "annotation");
    assert_eq!(notes.len(), 1, "{notes:?}");
    assert_eq!(notes[0].file, "crates/cache-sim/src/cache.rs");
    assert_eq!(notes[0].line, 9);
    assert!(notes[0].message.contains("no longer suppresses anything"));

    // Nothing else: the annotated index in dram-sim/system.rs, the
    // `unwrap_or` in cache-sim and the clean `process_slot` chain in rho
    // are all clean.
    assert_eq!(out.findings.len(), 5, "{:#?}", out.findings);
}

#[test]
fn fixture_findings_are_machine_readable_and_sorted() {
    let out = run(&fixture_root(), false).expect("fixture lint runs");
    let mut sorted = out.findings.clone();
    sorted.sort_by(|a, b| (&a.file, a.line, &a.rule).cmp(&(&b.file, b.line, &b.rule)));
    assert_eq!(out.findings, sorted, "findings must come out sorted");
    for f in &out.findings {
        let line = f.to_string();
        // `file:line rule message`
        let (loc, rest) = line.split_once(' ').expect("has a location field");
        let (file, ln) = loc.rsplit_once(':').expect("location is file:line");
        assert_eq!(file, f.file);
        assert_eq!(ln.parse::<u32>().unwrap(), f.line);
        assert!(rest.starts_with(&f.rule));
    }
}

#[test]
fn json_output_lists_every_finding_in_order() {
    let out = run(&fixture_root(), false).expect("fixture lint runs");
    let doc = iroram_lint::json::to_json(&out);
    assert!(
        doc.contains(&format!("\"files_scanned\": {},", out.files_scanned)),
        "{doc}"
    );
    // One object line per finding, in the outcome's order.
    let objects: Vec<&str> = doc.lines().filter(|l| l.starts_with("    {")).collect();
    assert_eq!(objects.len(), out.findings.len(), "{doc}");
    for (line, f) in objects.iter().zip(&out.findings) {
        let head = format!(
            "{{\"file\": \"{}\", \"line\": {}, \"rule\": \"{}\", ",
            f.file, f.line, f.rule
        );
        assert!(line.trim_start().starts_with(&head), "{line}");
    }
}

#[test]
fn fix_ratchet_locks_in_the_seeded_regressions() {
    // Copy the fixture so --fix-ratchet can rewrite its ratchet file.
    let dst = std::env::temp_dir().join(format!("iroram-lint-fix-{}", std::process::id()));
    copy_tree(&fixture_root(), &dst);
    let out = run(&dst, true).expect("fixture lint runs with --fix-ratchet");
    assert!(
        by_rule(&out.findings, "panic").is_empty(),
        "panic pass must be green after --fix-ratchet: {:#?}",
        out.findings
    );
    assert!(
        by_rule(&out.findings, "panic-reach").is_empty(),
        "panic-reach pass must be green after --fix-ratchet: {:#?}",
        out.findings
    );
    // The other passes are untouched by the ratchet rewrite.
    assert_eq!(by_rule(&out.findings, "determinism").len(), 1);
    assert_eq!(by_rule(&out.findings, "thread-order").len(), 1);
    let locked = std::fs::read_to_string(dst.join("lint-ratchet.toml")).unwrap();
    assert!(locked.contains("unwrap = 1"), "{locked}");
    assert!(
        locked.contains("[\"reach:crates/sim-engine/src/reach_helper.rs\"]"),
        "{locked}"
    );
    std::fs::remove_dir_all(&dst).ok();
}

#[test]
fn the_real_tree_is_clean() {
    let repo_root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(Path::parent)
        .expect("crates/lint has a workspace root two levels up")
        .to_path_buf();
    let out = run(&repo_root, false).expect("repo lint runs");
    assert!(
        out.findings.is_empty(),
        "the repository must lint clean:\n{}",
        out.findings
            .iter()
            .map(ToString::to_string)
            .collect::<Vec<_>>()
            .join("\n")
    );
    assert!(out.files_scanned > 40, "scanned {}", out.files_scanned);
}

fn copy_tree(src: &Path, dst: &Path) {
    std::fs::create_dir_all(dst).unwrap();
    for entry in std::fs::read_dir(src).unwrap() {
        let entry = entry.unwrap();
        let to = dst.join(entry.file_name());
        if entry.path().is_dir() {
            copy_tree(&entry.path(), &to);
        } else {
            std::fs::copy(entry.path(), &to).unwrap();
        }
    }
}
