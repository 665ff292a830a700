//! A dependency-free JSON writer for lint outcomes: the `--format json`
//! output that CI keeps as an artifact. Nothing reads it back; the tests
//! pin the exact document, escapes included.
//!
//! The emitted document is stable and sorted (findings come pre-sorted
//! from [`crate::run`]):
//!
//! ```json
//! {
//!   "files_scanned": 61,
//!   "findings": [
//!     {"file": "crates/x/src/y.rs", "line": 7, "rule": "panic", "message": "..."}
//!   ]
//! }
//! ```

use crate::Outcome;

/// Serializes an outcome as a stable, human-diffable JSON document.
pub fn to_json(outcome: &Outcome) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str(&format!(
        "  \"files_scanned\": {},\n",
        outcome.files_scanned
    ));
    out.push_str("  \"findings\": [");
    for (i, f) in outcome.findings.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("\n    {");
        out.push_str(&format!("\"file\": {}, ", quote(&f.file)));
        out.push_str(&format!("\"line\": {}, ", f.line));
        out.push_str(&format!("\"rule\": {}, ", quote(&f.rule)));
        out.push_str(&format!("\"message\": {}", quote(&f.message)));
        out.push('}');
    }
    if !outcome.findings.is_empty() {
        out.push_str("\n  ");
    }
    out.push_str("]\n}\n");
    out
}

/// JSON string quoting: escapes `"`, `\` and control characters.
fn quote(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Finding;

    fn outcome(findings: Vec<Finding>) -> Outcome {
        Outcome {
            findings,
            files_scanned: 3,
        }
    }

    #[test]
    fn empty_outcome_matches_its_golden_document() {
        assert_eq!(
            to_json(&outcome(vec![])),
            "{\n  \"files_scanned\": 3,\n  \"findings\": []\n}\n"
        );
    }

    #[test]
    fn findings_match_their_golden_document_with_escapes() {
        let f = vec![
            Finding {
                file: "crates/a/src/x.rs".into(),
                line: 42,
                rule: "determinism".into(),
                message: "`HashMap` in `run` — \"quoted\"\nand a newline \\ backslash\r\t\u{1}"
                    .into(),
            },
            Finding {
                file: "b.rs".into(),
                line: 1,
                rule: "panic".into(),
                message: "plain".into(),
            },
        ];
        let golden = r#"{
  "files_scanned": 3,
  "findings": [
    {"file": "crates/a/src/x.rs", "line": 42, "rule": "determinism", "message": "`HashMap` in `run` — \"quoted\"\nand a newline \\ backslash\r\t\u0001"},
    {"file": "b.rs", "line": 1, "rule": "panic", "message": "plain"}
  ]
}
"#;
        assert_eq!(to_json(&outcome(f)), golden);
    }
}
