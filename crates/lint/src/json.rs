//! A dependency-free JSON codec for lint outcomes: `--format json` output
//! for CI artifacts, plus a minimal parser so the round trip is testable
//! without pulling in serde.
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

use crate::{Finding, Outcome};

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

/// Parses a document produced by [`to_json`] back into findings — the
/// round-trip half used by the self-tests and available to CI consumers.
///
/// # Errors
///
/// Returns a description of the first structural problem (this is a
/// purpose-built reader for the emitted shape, not a general JSON parser,
/// but it is whitespace-insensitive and escape-correct).
pub fn parse_findings(text: &str) -> Result<Vec<Finding>, String> {
    let mut p = Parser {
        b: text.as_bytes(),
        i: 0,
    };
    p.expect(b'{')?;
    let mut findings = Vec::new();
    loop {
        let key = p.string()?;
        p.expect(b':')?;
        match key.as_str() {
            "files_scanned" => {
                p.number()?;
            }
            "findings" => {
                p.expect(b'[')?;
                if p.peek()? == b']' {
                    p.expect(b']')?;
                } else {
                    loop {
                        findings.push(p.finding()?);
                        match p.next_tok()? {
                            b',' => {}
                            b']' => break,
                            c => {
                                return Err(format!(
                                    "expected , or ] after finding, got {}",
                                    c as char
                                ))
                            }
                        }
                    }
                }
            }
            other => return Err(format!("unknown key `{other}`")),
        }
        match p.next_tok()? {
            b',' => {}
            b'}' => break,
            c => return Err(format!("expected , or }} at top level, got {}", c as char)),
        }
    }
    Ok(findings)
}

struct Parser<'a> {
    b: &'a [u8],
    i: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while self.i < self.b.len() && self.b[self.i].is_ascii_whitespace() {
            self.i += 1;
        }
    }

    fn peek(&mut self) -> Result<u8, String> {
        self.skip_ws();
        self.b
            .get(self.i)
            .copied()
            .ok_or_else(|| "unexpected end of input".to_owned())
    }

    fn next_tok(&mut self) -> Result<u8, String> {
        let c = self.peek()?;
        self.i += 1;
        Ok(c)
    }

    fn expect(&mut self, want: u8) -> Result<(), String> {
        let got = self.next_tok()?;
        if got != want {
            return Err(format!("expected {}, got {}", want as char, got as char));
        }
        Ok(())
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let c = *self
                .b
                .get(self.i)
                .ok_or_else(|| "unterminated string".to_owned())?;
            self.i += 1;
            match c {
                b'"' => return Ok(out),
                b'\\' => {
                    let e = *self
                        .b
                        .get(self.i)
                        .ok_or_else(|| "unterminated escape".to_owned())?;
                    self.i += 1;
                    match e {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => {
                            let hex = self
                                .b
                                .get(self.i..self.i + 4)
                                .ok_or_else(|| "truncated \\u escape".to_owned())?;
                            let hex = std::str::from_utf8(hex)
                                .map_err(|_| "non-utf8 \\u escape".to_owned())?;
                            let v = u32::from_str_radix(hex, 16)
                                .map_err(|_| format!("bad \\u escape `{hex}`"))?;
                            out.push(
                                char::from_u32(v)
                                    .ok_or_else(|| format!("invalid codepoint {v}"))?,
                            );
                            self.i += 4;
                        }
                        other => return Err(format!("unknown escape \\{}", other as char)),
                    }
                }
                c if c < 0x80 => out.push(c as char),
                _ => {
                    // Multi-byte UTF-8: find the char boundary and push it.
                    let start = self.i - 1;
                    let mut end = self.i;
                    while end < self.b.len() && self.b[end] & 0xC0 == 0x80 {
                        end += 1;
                    }
                    let s = std::str::from_utf8(&self.b[start..end])
                        .map_err(|_| "invalid utf-8 in string".to_owned())?;
                    out.push_str(s);
                    self.i = end;
                }
            }
        }
    }

    fn number(&mut self) -> Result<u64, String> {
        self.skip_ws();
        let start = self.i;
        while self.i < self.b.len() && self.b[self.i].is_ascii_digit() {
            self.i += 1;
        }
        if start == self.i {
            return Err("expected a number".to_owned());
        }
        std::str::from_utf8(&self.b[start..self.i])
            .map_err(|_| "bad number".to_owned())?
            .parse()
            .map_err(|_| "number out of range".to_owned())
    }

    fn finding(&mut self) -> Result<Finding, String> {
        self.expect(b'{')?;
        let mut f = Finding {
            file: String::new(),
            line: 0,
            rule: String::new(),
            message: String::new(),
        };
        loop {
            let key = self.string()?;
            self.expect(b':')?;
            match key.as_str() {
                "file" => f.file = self.string()?,
                "line" => {
                    f.line = u32::try_from(self.number()?).map_err(|_| "line out of range")?
                }
                "rule" => f.rule = self.string()?,
                "message" => f.message = self.string()?,
                other => return Err(format!("unknown finding key `{other}`")),
            }
            match self.next_tok()? {
                b',' => {}
                b'}' => return Ok(f),
                c => return Err(format!("expected , or }} in finding, got {}", c as char)),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn outcome(findings: Vec<Finding>) -> Outcome {
        Outcome {
            findings,
            files_scanned: 3,
        }
    }

    #[test]
    fn empty_outcome_round_trips() {
        let text = to_json(&outcome(vec![]));
        assert!(text.contains("\"files_scanned\": 3"));
        assert_eq!(parse_findings(&text).unwrap(), vec![]);
    }

    #[test]
    fn findings_round_trip_with_escapes() {
        let f = vec![
            Finding {
                file: "crates/a/src/x.rs".into(),
                line: 42,
                rule: "determinism".into(),
                message: "`HashMap` in `run` — \"quoted\"\nand a newline \\ backslash".into(),
            },
            Finding {
                file: "b.rs".into(),
                line: 1,
                rule: "panic".into(),
                message: "plain".into(),
            },
        ];
        let text = to_json(&outcome(f.clone()));
        assert_eq!(parse_findings(&text).unwrap(), f);
    }

    #[test]
    fn parser_rejects_garbage() {
        assert!(parse_findings("not json").is_err());
        assert!(parse_findings("{\"findings\": [{]}").is_err());
        assert!(parse_findings("{\"unknown\": 1}").is_err());
    }
}
