//! The determinism pass: flags iteration-order and wall-clock/environment
//! nondeterminism hazards in report-affecting crates.
//!
//! Rules (all carried by rule name `determinism` in allow annotations):
//!
//! * `std::collections::HashMap` / `HashSet` anywhere outside test code —
//!   their iteration order is randomized per process, so any report-affecting
//!   iteration breaks twin-run byte-identity. Use `BTreeMap`/`BTreeSet` or
//!   annotate lookup-only maps.
//! * `Instant` / `SystemTime` — wall-clock reads have no place in a
//!   deterministic simulator outside `crates/bench`.
//! * `env::var` / `env::var_os` / `env::vars` — environment reads make the
//!   result depend on invisible ambient state; sanctioned knobs must be
//!   annotated with the contract that documents them.

use crate::source::SourceFile;
use crate::Finding;

/// Identifier tokens flagged wherever they appear (type position, `use`,
/// construction, turbofish — all count: presence is the hazard).
const BANNED_TYPES: [(&str, &str); 4] = [
    (
        "HashMap",
        "std HashMap iteration order is nondeterministic; use BTreeMap or annotate a lookup-only map",
    ),
    (
        "HashSet",
        "std HashSet iteration order is nondeterministic; use BTreeSet or annotate a lookup-only set",
    ),
    (
        "Instant",
        "wall-clock reads (Instant) are nondeterministic; derive all timing from simulated cycles",
    ),
    (
        "SystemTime",
        "wall-clock reads (SystemTime) are nondeterministic; derive all timing from simulated cycles",
    ),
];

/// `env::<read>` method names flagged after an `env ::` path prefix.
const ENV_READS: [&str; 4] = ["var", "var_os", "vars", "vars_os"];

/// Runs the determinism pass over one file of a report-affecting crate.
pub fn check(file: &SourceFile) -> Vec<Finding> {
    let mut out: Vec<Finding> = Vec::new();
    let flag = |line: u32, message: String, out: &mut Vec<Finding>| {
        if file.allowed(line, "determinism") {
            return;
        }
        // One finding per (line, message): a declaration plus construction
        // on one line is one hazard to fix, not two.
        if out
            .iter()
            .any(|f: &Finding| f.line == line && f.message == message)
        {
            return;
        }
        out.push(Finding {
            file: file.rel_path.clone(),
            line,
            rule: "determinism".to_owned(),
            message,
        });
    };
    let toks = &file.tokens;
    for (i, t) in toks.iter().enumerate() {
        let Some(name) = t.ident() else { continue };
        if file.in_test(i) {
            continue;
        }
        if let Some((_, why)) = BANNED_TYPES.iter().find(|(n, _)| *n == name) {
            flag(t.line, format!("{name}: {why}"), &mut out);
            continue;
        }
        // env :: var / var_os / vars / vars_os
        if name == "env"
            && toks.get(i + 1).is_some_and(|t| t.is_punct(b':'))
            && toks.get(i + 2).is_some_and(|t| t.is_punct(b':'))
        {
            if let Some(read) = toks.get(i + 3).and_then(|t| t.ident()) {
                if ENV_READS.contains(&read) {
                    flag(
                        t.line,
                        format!(
                            "env::{read}: environment reads are ambient nondeterminism; annotate sanctioned knobs with their documented contract"
                        ),
                        &mut out,
                    );
                }
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn findings(src: &str) -> Vec<Finding> {
        check(&SourceFile::new("f.rs".into(), src))
    }

    #[test]
    fn flags_hashmap_and_hashset_outside_tests() {
        let f = findings("use std::collections::HashMap;\nfn x() { let s = std::collections::HashSet::<u8>::new(); }\n");
        assert_eq!(f.len(), 2);
        assert_eq!(f[0].line, 1);
        assert_eq!(f[1].line, 2);
    }

    #[test]
    fn test_code_is_exempt() {
        let f = findings("#[cfg(test)]\nmod tests {\n use std::collections::HashMap;\n #[test]\n fn t() { let _m: HashMap<u8,u8> = HashMap::new(); }\n}\n");
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn annotation_silences_with_reason_only() {
        let f =
            findings("let m = HashMap::new(); // lint: allow(determinism, lookup-only oracle)\n");
        assert!(f.is_empty());
        let f = findings("let m = HashMap::new(); // lint: allow(determinism)\n");
        assert_eq!(f.len(), 1, "reasonless annotation must not silence");
    }

    #[test]
    fn flags_clock_and_env_reads() {
        let f = findings("let t = std::time::Instant::now();\nlet v = std::env::var(\"X\");\n");
        assert_eq!(f.len(), 2);
        assert!(f[0].message.contains("Instant"));
        assert!(f[1].message.contains("env::var"));
    }

    #[test]
    fn env_args_is_not_an_env_read() {
        assert!(findings("let a: Vec<String> = std::env::args().collect();\n").is_empty());
    }

    #[test]
    fn hashmap_in_string_or_comment_is_not_flagged() {
        assert!(findings("// a HashMap would be wrong here\nlet s = \"HashMap\";\n").is_empty());
    }

    #[test]
    fn one_finding_per_line_per_hazard() {
        let f = findings("let m: HashMap<u8,u8> = HashMap::new();\n");
        assert_eq!(f.len(), 1);
    }
}
