//! The config-drift pass: every `SystemConfig` field must participate in
//! the resume-journal cell fingerprint, be reachable from the CLI override
//! table, and be documented in `DESIGN.md`.
//!
//! Rationale: the resume journal answers cells by fingerprint. A config
//! knob that the fingerprint ignores makes two *different* cells alias the
//! same journal line, silently replaying stale results; a knob the CLI
//! cannot name cannot be swept; a knob `DESIGN.md` does not mention is
//! invisible to reviewers. A field can opt out with
//! `// lint: allow(config, <reason>)` on its declaration line.

use crate::lexer::TokKind;
use crate::source::SourceFile;
use crate::Finding;

/// One parsed struct field.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Field {
    /// Field name.
    pub name: String,
    /// Declaration line in the config source file.
    pub line: u32,
}

/// Extracts the named struct's fields from its source file. Returns `None`
/// when the struct is not found.
pub fn struct_fields(file: &SourceFile, struct_name: &str) -> Option<Vec<Field>> {
    let toks = &file.tokens;
    let mut i = 0usize;
    // Find `struct <name> ... {`.
    let mut body = None;
    while i + 1 < toks.len() {
        if toks[i].ident() == Some("struct") && toks[i + 1].ident() == Some(struct_name) {
            let mut j = i + 2;
            while j < toks.len() && !toks[j].is_punct(b'{') {
                j += 1;
            }
            body = Some(j + 1);
            break;
        }
        i += 1;
    }
    let mut i = body?;
    let mut fields = Vec::new();
    // Parse `pub? name : <type> ,` at depth 0 of the struct body, skipping
    // attributes; a `}` at depth 0 ends the struct.
    loop {
        // Skip comments and attributes.
        loop {
            match toks.get(i)?.kind {
                TokKind::LineComment(_) => i += 1,
                TokKind::Punct(b'#') => {
                    // Skip to matching `]`.
                    let mut d = 0i32;
                    i += 1;
                    while i < toks.len() {
                        match toks[i].kind {
                            TokKind::Punct(b'[') => d += 1,
                            TokKind::Punct(b']') => {
                                d -= 1;
                                if d == 0 {
                                    i += 1;
                                    break;
                                }
                            }
                            _ => {}
                        }
                        i += 1;
                    }
                }
                _ => break,
            }
        }
        if toks.get(i)?.is_punct(b'}') {
            return Some(fields);
        }
        if toks.get(i)?.ident() == Some("pub") {
            i += 1;
        }
        let name_tok = toks.get(i)?;
        let name = name_tok.ident()?.to_owned();
        let line = name_tok.line;
        i += 1;
        if !toks.get(i)?.is_punct(b':') {
            return Some(fields); // not a field list (e.g. tuple struct)
        }
        // Skip the type up to a `,` at depth 0 or the closing `}`.
        let mut depth = 0i32;
        loop {
            let t = toks.get(i)?;
            match t.kind {
                TokKind::Punct(b'(')
                | TokKind::Punct(b'[')
                | TokKind::Punct(b'{')
                | TokKind::Punct(b'<') => depth += 1,
                TokKind::Punct(b')') | TokKind::Punct(b']') | TokKind::Punct(b'>') => depth -= 1,
                TokKind::Punct(b'}') => {
                    if depth == 0 {
                        fields.push(Field { name, line });
                        return Some(fields);
                    }
                    depth -= 1;
                }
                TokKind::Punct(b',') if depth <= 0 => {
                    i += 1;
                    break;
                }
                _ => {}
            }
            i += 1;
        }
        fields.push(Field { name, line });
    }
}

/// Identifiers appearing inside `fn <name>(...) { ... }` in `file`.
pub fn fn_idents(file: &SourceFile, fn_name: &str) -> Option<Vec<String>> {
    let toks = &file.tokens;
    let mut i = 0usize;
    while i + 1 < toks.len() {
        if toks[i].ident() == Some("fn") && toks[i + 1].ident() == Some(fn_name) {
            // Find the body's `{` then its matching `}`.
            let mut j = i + 2;
            while j < toks.len() && !toks[j].is_punct(b'{') {
                j += 1;
            }
            let mut depth = 0i32;
            let mut idents = Vec::new();
            while j < toks.len() {
                match &toks[j].kind {
                    TokKind::Punct(b'{') => depth += 1,
                    TokKind::Punct(b'}') => {
                        depth -= 1;
                        if depth == 0 {
                            return Some(idents);
                        }
                    }
                    TokKind::Ident(s) => idents.push(s.clone()),
                    _ => {}
                }
                j += 1;
            }
            return Some(idents);
        }
        i += 1;
    }
    None
}

/// Inputs the config-drift pass compares against.
pub struct ConfigInputs<'a> {
    /// The file declaring `SystemConfig` (also holds the CLI override
    /// table, `SystemConfig::set_field`).
    pub config: &'a SourceFile,
    /// The file holding `fn fingerprint` (resume-journal cell identity).
    pub journal: &'a SourceFile,
    /// The CLI parsing layer (its string literals also count as CLI
    /// references).
    pub runner: &'a SourceFile,
    /// Full text of `DESIGN.md`.
    pub design: &'a str,
    /// Display path of the design doc for messages.
    pub design_path: &'a str,
}

/// Runs the config-drift pass.
pub fn check(inputs: &ConfigInputs<'_>) -> Vec<Finding> {
    let mut out = Vec::new();
    let Some(fields) = struct_fields(inputs.config, "SystemConfig") else {
        return vec![Finding {
            file: inputs.config.rel_path.clone(),
            line: 1,
            rule: "config".to_owned(),
            message: "struct SystemConfig not found — config-drift pass cannot run".to_owned(),
        }];
    };
    let Some(fp_idents) = fn_idents(inputs.journal, "fingerprint") else {
        return vec![Finding {
            file: inputs.journal.rel_path.clone(),
            line: 1,
            rule: "config".to_owned(),
            message: "fn fingerprint not found — config-drift pass cannot run".to_owned(),
        }];
    };
    let cli_strings: Vec<&str> = inputs
        .config
        .strings()
        .chain(inputs.runner.strings())
        .collect();
    for f in fields {
        if inputs.config.allowed(f.line, "config") {
            continue;
        }
        if !fp_idents.iter().any(|s| s == &f.name) {
            out.push(Finding {
                file: inputs.config.rel_path.clone(),
                line: f.line,
                rule: "config".to_owned(),
                message: format!(
                    "SystemConfig::{} is not referenced in fn fingerprint ({}) — two configs differing only in it would alias the same resume-journal cell",
                    f.name, inputs.journal.rel_path
                ),
            });
        }
        if !cli_strings.iter().any(|s| *s == f.name) {
            out.push(Finding {
                file: inputs.config.rel_path.clone(),
                line: f.line,
                rule: "config".to_owned(),
                message: format!(
                    "SystemConfig::{} has no CLI reference — add a \"{}\" arm to SystemConfig::set_field (the --set override table) or an explicit not-settable arm",
                    f.name, f.name
                ),
            });
        }
        if !inputs.design.contains(&format!("`{}`", f.name)) {
            out.push(Finding {
                file: inputs.config.rel_path.clone(),
                line: f.line,
                rule: "config".to_owned(),
                message: format!(
                    "SystemConfig::{} is not documented in {} (expected `{}` in backticks)",
                    f.name, inputs.design_path, f.name
                ),
            });
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg_file(src: &str) -> SourceFile {
        SourceFile::new("config.rs".into(), src)
    }

    const CFG: &str = "pub struct SystemConfig {\n    /// doc\n    pub scheme: Scheme,\n    #[serde(default)]\n    pub seed: u64,\n    pub knobs: Vec<(String, String)>,\n}\nimpl SystemConfig {\n    pub fn set_field(&mut self, k: &str) { match k { \"scheme\" => {}, \"seed\" => {}, \"knobs\" => {}, _ => {} } }\n}\n";

    #[test]
    fn parses_fields_with_attrs_and_generics() {
        let f = struct_fields(&cfg_file(CFG), "SystemConfig").unwrap();
        let names: Vec<&str> = f.iter().map(|x| x.name.as_str()).collect();
        assert_eq!(names, ["scheme", "seed", "knobs"]);
        assert_eq!(f[0].line, 3);
        assert_eq!(f[1].line, 5);
    }

    #[test]
    fn clean_when_everything_is_referenced() {
        let config = cfg_file(CFG);
        let journal = SourceFile::new(
            "journal.rs".into(),
            "pub fn fingerprint(c: &SystemConfig) -> u64 {\n let SystemConfig { scheme, seed, knobs } = c;\n 0\n}\n",
        );
        let runner = SourceFile::new("runner.rs".into(), "");
        let f = check(&ConfigInputs {
            config: &config,
            journal: &journal,
            runner: &runner,
            design: "fields: `scheme`, `seed`, `knobs`",
            design_path: "DESIGN.md",
        });
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn each_drift_direction_is_reported_with_field_line() {
        let config = cfg_file(CFG);
        let journal = SourceFile::new(
            "journal.rs".into(),
            "pub fn fingerprint(c: &SystemConfig) -> u64 { let _ = (c.scheme, c.seed); 0 }\n",
        );
        let runner = SourceFile::new("runner.rs".into(), "");
        let f = check(&ConfigInputs {
            config: &config,
            journal: &journal,
            runner: &runner,
            design: "documented: `scheme` and `seed`",
            design_path: "DESIGN.md",
        });
        // knobs: missing from fingerprint AND design (CLI arm exists).
        assert_eq!(f.len(), 2, "{f:?}");
        assert!(f.iter().all(|x| x.line == 6));
        assert!(f.iter().any(|x| x.message.contains("fingerprint")));
        assert!(f.iter().any(|x| x.message.contains("DESIGN.md")));
    }

    #[test]
    fn allow_on_declaration_line_exempts_field() {
        let src = CFG.replace(
            "pub knobs: Vec<(String, String)>,",
            "pub knobs: Vec<(String, String)>, // lint: allow(config, derived at run time)",
        );
        let config = cfg_file(&src);
        let journal = SourceFile::new(
            "journal.rs".into(),
            "pub fn fingerprint(c: &SystemConfig) -> u64 { let _ = (c.scheme, c.seed); 0 }\n",
        );
        let runner = SourceFile::new("runner.rs".into(), "");
        let f = check(&ConfigInputs {
            config: &config,
            journal: &journal,
            runner: &runner,
            design: "`scheme` `seed`",
            design_path: "DESIGN.md",
        });
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn missing_struct_or_fingerprint_is_its_own_finding() {
        let config = cfg_file("pub struct Other { pub a: u8 }\n");
        let journal = SourceFile::new("journal.rs".into(), "fn fingerprint() {}\n");
        let runner = SourceFile::new("runner.rs".into(), "");
        let f = check(&ConfigInputs {
            config: &config,
            journal: &journal,
            runner: &runner,
            design: "",
            design_path: "DESIGN.md",
        });
        assert_eq!(f.len(), 1);
        assert!(f[0].message.contains("SystemConfig not found"));
    }

    #[test]
    fn fn_idents_scopes_to_the_named_fn() {
        let f = SourceFile::new(
            "j.rs".into(),
            "fn other() { let not_me = 1; }\nfn fingerprint() { let scheme = 2; }\n",
        );
        let ids = fn_idents(&f, "fingerprint").unwrap();
        assert!(ids.contains(&"scheme".to_owned()));
        assert!(!ids.contains(&"not_me".to_owned()));
    }
}
