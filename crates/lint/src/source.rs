//! Per-file analysis state: lexed tokens, parsed items, test-item spans,
//! statement line spans, and `// lint: allow(rule, reason)` annotations.

use std::cell::RefCell;
use std::collections::BTreeMap;

use crate::lexer::{lex, TokKind, Token};
use crate::parser::{self, ParsedFile};

/// A lint-rule name an annotation can reference. (`panic-reach` findings
/// are exempted at the *site* level with `allow(panic, ...)` — a declared
/// can't-panic invariant means the same thing wherever the site is — so it
/// is not a valid annotation rule.)
pub const RULES: [&str; 3] = ["determinism", "panic", "thread-order"];

/// One parsed `lint: allow` annotation.
#[derive(Debug, Clone)]
pub struct Allow {
    /// The rule being allowed (one of [`RULES`]).
    pub rule: String,
    /// The justification after the comma (may be empty — the annotation
    /// pass reports empty reasons).
    pub reason: String,
    /// Line the comment sits on.
    pub line: u32,
}

/// A lexed source file plus the derived structures the passes share.
#[derive(Debug)]
pub struct SourceFile {
    /// Repo-relative path, `/`-separated.
    pub rel_path: String,
    /// The token stream.
    pub tokens: Vec<Token>,
    /// Item-level parse of the token stream (fns, structs, method owners).
    pub parsed: ParsedFile,
    /// Parsed `lint: allow` annotations, keyed by comment line.
    pub allows: Vec<Allow>,
    /// Token-index ranges (half-open) lexically inside `#[test]` /
    /// `#[cfg(test)]` / `#[bench]` items. Determinism and panic findings
    /// inside these are skipped: test code does not affect reports.
    pub test_spans: Vec<(usize, usize)>,
    /// Statement line extents `(first, last)`: runs of non-comment tokens
    /// between `;` / `{` / `}` boundaries. An allow annotation attaches to
    /// the statement starting on its own or the following line, so one
    /// annotation covers a multi-line expression.
    pub stmt_spans: Vec<(u32, u32)>,
    /// Which allows suppressed at least one would-be finding (indices into
    /// `allows`), recorded as the passes consult [`SourceFile::allowed`].
    used_allows: RefCell<Vec<bool>>,
}

impl SourceFile {
    /// Lexes and parses `src`, deriving annotations, test spans and
    /// statement spans.
    pub fn new(rel_path: String, src: &str) -> Self {
        let tokens = lex(src);
        let parsed = parser::parse(&tokens);
        let allows = parse_allows(&tokens);
        let test_spans = find_test_spans(&tokens);
        let stmt_spans = find_stmt_spans(&tokens);
        let used = RefCell::new(vec![false; allows.len()]);
        SourceFile {
            rel_path,
            tokens,
            parsed,
            allows,
            test_spans,
            stmt_spans,
            used_allows: used,
        }
    }

    /// Whether token index `i` lies inside a test item.
    pub fn in_test(&self, i: usize) -> bool {
        self.test_spans.iter().any(|&(a, b)| a <= i && i < b)
    }

    /// Whether `rule` is allowed on `line`. An annotation covers:
    ///
    /// * its own line and the line directly below it (so it can trail the
    ///   flagged code or sit on its own line above it), and
    /// * the full extent of the *statement* that starts on its own line
    ///   (a trailing comment on the statement's first line) or on the line
    ///   directly below it (an annotation on its own line above a
    ///   multi-line statement).
    ///
    /// Consulting this records the annotation as used; `lint: allow`s that
    /// never suppress anything are themselves reported by the annotation
    /// hygiene pass.
    pub fn allowed(&self, line: u32, rule: &str) -> bool {
        let mut hit = false;
        for (idx, a) in self.allows.iter().enumerate() {
            if a.rule != rule || a.reason.is_empty() {
                continue;
            }
            let direct = a.line == line || a.line + 1 == line;
            let via_stmt = self
                .stmt_spans
                .iter()
                .any(|&(s, e)| (s == a.line || s == a.line + 1) && s <= line && line <= e);
            if direct || via_stmt {
                self.used_allows.borrow_mut()[idx] = true;
                hit = true;
            }
        }
        hit
    }

    /// Allows (well-formed: known rule, non-empty reason) that never
    /// suppressed a finding. Only meaningful after every pass has run.
    pub fn unused_allows(&self) -> Vec<&Allow> {
        let used = self.used_allows.borrow();
        self.allows
            .iter()
            .enumerate()
            .filter(|(i, a)| !used[*i] && RULES.contains(&a.rule.as_str()) && !a.reason.is_empty())
            .map(|(_, a)| a)
            .collect()
    }
}

/// Parses `lint: allow(rule, reason)` out of every line comment. The
/// marker may appear anywhere in the comment (`// lint: allow(...)` or
/// `//! ...` both work); one comment may carry one annotation.
fn parse_allows(tokens: &[Token]) -> Vec<Allow> {
    let mut out = Vec::new();
    for t in tokens {
        let TokKind::LineComment(text) = &t.kind else {
            continue;
        };
        let Some(at) = text.find("lint: allow(") else {
            continue;
        };
        let body = &text[at + "lint: allow(".len()..];
        let Some(end) = body.rfind(')') else {
            // Unclosed annotation: record with empty rule so the
            // annotation pass reports it as malformed.
            out.push(Allow {
                rule: String::new(),
                reason: String::new(),
                line: t.line,
            });
            continue;
        };
        let body = &body[..end];
        let (rule, reason) = match body.split_once(',') {
            Some((r, why)) => (r.trim().to_owned(), why.trim().to_owned()),
            None => (body.trim().to_owned(), String::new()),
        };
        out.push(Allow {
            rule,
            reason,
            line: t.line,
        });
    }
    out
}

/// Computes statement line extents: consecutive non-comment tokens between
/// `;` / `{` / `}` boundaries form one statement; its extent is the min and
/// max token line. Comments neither extend nor break a statement, so an
/// annotation above a statement attaches to the whole expression even when
/// it spans lines.
fn find_stmt_spans(tokens: &[Token]) -> Vec<(u32, u32)> {
    let mut spans = Vec::new();
    let mut cur: Option<(u32, u32)> = None;
    for t in tokens {
        match &t.kind {
            TokKind::LineComment(_) => {}
            TokKind::Punct(b';') | TokKind::Punct(b'{') | TokKind::Punct(b'}') => {
                if let Some((s, e)) = cur.take() {
                    spans.push((s, e.max(t.line)));
                }
            }
            _ => {
                cur = Some(match cur {
                    Some((s, e)) => (s.min(t.line), e.max(t.line)),
                    None => (t.line, t.line),
                });
            }
        }
    }
    if let Some(span) = cur {
        spans.push(span);
    }
    spans
}

/// Finds half-open token ranges of items marked `#[test]`, `#[cfg(test)]`
/// or `#[bench]`: from the attribute's `#` through the item's closing `}`
/// (or `;` for bodyless items like `use`).
fn find_test_spans(tokens: &[Token]) -> Vec<(usize, usize)> {
    let mut spans = Vec::new();
    let mut i = 0usize;
    while i < tokens.len() {
        if tokens[i].is_punct(b'#') && tokens.get(i + 1).is_some_and(|t| t.is_punct(b'[')) {
            let attr_start = i;
            // Scan the attribute content to its matching `]`.
            let mut depth = 0i32;
            let mut j = i + 1;
            let mut is_test_attr = false;
            while j < tokens.len() {
                match &tokens[j].kind {
                    TokKind::Punct(b'[') => depth += 1,
                    TokKind::Punct(b']') => {
                        depth -= 1;
                        if depth == 0 {
                            j += 1;
                            break;
                        }
                    }
                    TokKind::Ident(s) if s == "test" || s == "bench" => is_test_attr = true,
                    _ => {}
                }
                j += 1;
            }
            if !is_test_attr {
                i = j;
                continue;
            }
            // Skip any further attributes (and doc comments) before the item.
            while j < tokens.len() {
                if tokens[j].is_punct(b'#') && tokens.get(j + 1).is_some_and(|t| t.is_punct(b'[')) {
                    let mut d = 0i32;
                    j += 1;
                    while j < tokens.len() {
                        match tokens[j].kind {
                            TokKind::Punct(b'[') => d += 1,
                            TokKind::Punct(b']') => {
                                d -= 1;
                                if d == 0 {
                                    j += 1;
                                    break;
                                }
                            }
                            _ => {}
                        }
                        j += 1;
                    }
                } else if matches!(tokens[j].kind, TokKind::LineComment(_)) {
                    j += 1;
                } else {
                    break;
                }
            }
            // Consume the item: a `;` at bracket depth 0 ends a bodyless
            // item; a `{` at depth 0 opens the body (find its match).
            let mut depth = 0i32;
            while j < tokens.len() {
                match tokens[j].kind {
                    TokKind::Punct(b'(') | TokKind::Punct(b'[') => depth += 1,
                    TokKind::Punct(b')') | TokKind::Punct(b']') => depth -= 1,
                    TokKind::Punct(b';') if depth == 0 => {
                        j += 1;
                        break;
                    }
                    TokKind::Punct(b'{') if depth == 0 => {
                        let mut braces = 0i32;
                        while j < tokens.len() {
                            match tokens[j].kind {
                                TokKind::Punct(b'{') => braces += 1,
                                TokKind::Punct(b'}') => {
                                    braces -= 1;
                                    if braces == 0 {
                                        break;
                                    }
                                }
                                _ => {}
                            }
                            j += 1;
                        }
                        j += 1;
                        break;
                    }
                    _ => {}
                }
                j += 1;
            }
            spans.push((attr_start, j));
            i = j;
        } else {
            i += 1;
        }
    }
    spans
}

/// Annotation hygiene findings, part one (run before the other passes):
/// every `lint: allow` must name a known rule and carry a non-empty reason.
pub fn annotation_findings(file: &SourceFile) -> Vec<crate::Finding> {
    let mut out = Vec::new();
    for a in &file.allows {
        if !RULES.contains(&a.rule.as_str()) {
            out.push(crate::Finding {
                file: file.rel_path.clone(),
                line: a.line,
                rule: "annotation".to_owned(),
                message: format!(
                    "unknown lint rule `{}` in allow annotation (known: {})",
                    a.rule,
                    RULES.join(", ")
                ),
            });
        } else if a.reason.is_empty() {
            out.push(crate::Finding {
                file: file.rel_path.clone(),
                line: a.line,
                rule: "annotation".to_owned(),
                message: format!(
                    "lint: allow({}) without a reason — annotations must justify the exemption",
                    a.rule
                ),
            });
        }
    }
    out
}

/// Annotation hygiene findings, part two (run after every other pass):
/// well-formed allows that suppressed nothing are stale and must be
/// removed, so the annotation inventory stays an honest map of the
/// sanctioned exemptions.
pub fn unused_allow_findings(file: &SourceFile) -> Vec<crate::Finding> {
    file.unused_allows()
        .into_iter()
        .map(|a| crate::Finding {
            file: file.rel_path.clone(),
            line: a.line,
            rule: "annotation".to_owned(),
            message: format!(
                "lint: allow({}) no longer suppresses anything — remove the stale exemption",
                a.rule
            ),
        })
        .collect()
}

/// Map from file line to allow annotations (diagnostic helper for tests).
pub fn allows_by_line(file: &SourceFile) -> BTreeMap<u32, Vec<String>> {
    let mut m: BTreeMap<u32, Vec<String>> = BTreeMap::new();
    for a in &file.allows {
        m.entry(a.line).or_default().push(a.rule.clone());
    }
    m
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cfg_test_module_is_a_test_span() {
        let src = "pub fn real() {}\n#[cfg(test)]\nmod tests {\n    use std::collections::HashMap;\n    #[test]\n    fn t() { let m: HashMap<u8, u8> = HashMap::new(); }\n}\n";
        let f = SourceFile::new("x.rs".into(), src);
        // Every HashMap identifier token is inside a test span.
        for (i, t) in f.tokens.iter().enumerate() {
            if t.ident() == Some("HashMap") {
                assert!(f.in_test(i), "token at line {} not in test span", t.line);
            }
            if t.ident() == Some("real") {
                assert!(!f.in_test(i));
            }
        }
    }

    #[test]
    fn test_fn_span_covers_body_only() {
        let src = "#[test]\nfn t() { x.unwrap(); }\nfn real() { y.unwrap(); }\n";
        let f = SourceFile::new("x.rs".into(), src);
        let unwraps: Vec<(usize, u32)> = f
            .tokens
            .iter()
            .enumerate()
            .filter(|(_, t)| t.ident() == Some("unwrap"))
            .map(|(i, t)| (i, t.line))
            .collect();
        assert_eq!(unwraps.len(), 2);
        assert!(f.in_test(unwraps[0].0));
        assert!(!f.in_test(unwraps[1].0));
    }

    #[test]
    fn bodyless_cfg_test_item_ends_at_semicolon() {
        let src = "#[cfg(test)]\nuse std::collections::HashMap;\nfn real(m: HashMap<u8,u8>) {}\n";
        let f = SourceFile::new("x.rs".into(), src);
        let hm: Vec<(usize, u32)> = f
            .tokens
            .iter()
            .enumerate()
            .filter(|(_, t)| t.ident() == Some("HashMap"))
            .map(|(i, t)| (i, t.line))
            .collect();
        assert_eq!(hm.len(), 2);
        assert!(f.in_test(hm[0].0));
        assert!(!f.in_test(hm[1].0));
    }

    #[test]
    fn allow_parses_rule_and_reason() {
        let src = "let m = HashMap::new(); // lint: allow(determinism, lookup only)\n";
        let f = SourceFile::new("x.rs".into(), src);
        assert_eq!(f.allows.len(), 1);
        assert_eq!(f.allows[0].rule, "determinism");
        assert_eq!(f.allows[0].reason, "lookup only");
        assert!(f.allowed(1, "determinism"));
        assert!(!f.allowed(1, "panic"));
    }

    #[test]
    fn allow_covers_own_line_and_next() {
        let src = "// lint: allow(panic, invariant holds)\nx.unwrap();\ny.unwrap();\n";
        let f = SourceFile::new("x.rs".into(), src);
        assert!(f.allowed(1, "panic"));
        assert!(f.allowed(2, "panic"));
        assert!(!f.allowed(3, "panic"));
    }

    #[test]
    fn allow_covers_the_full_multiline_statement() {
        // The allow sits above a statement spanning three lines: every
        // line of that statement is covered, the next statement is not.
        let src = "// lint: allow(panic, fixture)\nlet slot = table[occupancy]\n    .get(degraded)\n        .unwrap();\nlet other = 1;\n";
        let f = SourceFile::new("x.rs".into(), src);
        assert!(f.allowed(2, "panic"));
        assert!(f.allowed(3, "panic"));
        assert!(f.allowed(4, "panic"));
        assert!(!f.allowed(5, "panic"));
    }

    #[test]
    fn trailing_allow_covers_the_statement_it_starts() {
        let src =
            "let x = first() // lint: allow(thread-order, fixture)\n    .second();\nlet y = 2;\n";
        let f = SourceFile::new("x.rs".into(), src);
        assert!(f.allowed(1, "thread-order"));
        assert!(f.allowed(2, "thread-order"));
        assert!(!f.allowed(3, "thread-order"));
    }

    #[test]
    fn allow_above_one_struct_field_does_not_leak_to_the_next() {
        // Field declarations are separated by commas, not semicolons, but
        // the statement-span rule only extends an allow to a statement that
        // *starts* adjacent to it — the field list started earlier, so only
        // the direct-line rule applies.
        let src = "struct S {\n    a: u64,\n    // lint: allow(determinism, keyed by a fixed seed)\n    b: HashMap<u64, u64>,\n    c: HashMap<u64, u64>,\n}\n";
        let f = SourceFile::new("x.rs".into(), src);
        assert!(f.allowed(4, "determinism"));
        assert!(!f.allowed(5, "determinism"), "must not cover field c");
        assert!(!f.allowed(2, "determinism"), "must not cover field a");
    }

    #[test]
    fn missing_reason_is_reported() {
        let src = "x.unwrap(); // lint: allow(panic)\n";
        let f = SourceFile::new("x.rs".into(), src);
        let findings = annotation_findings(&f);
        assert_eq!(findings.len(), 1);
        assert!(findings[0].message.contains("without a reason"));
        // ...and the annotation does NOT silence the rule.
        assert!(!f.allowed(1, "panic"));
    }

    #[test]
    fn unknown_rule_is_reported() {
        let src = "// lint: allow(speed, because)\n";
        let f = SourceFile::new("x.rs".into(), src);
        let findings = annotation_findings(&f);
        assert_eq!(findings.len(), 1);
        assert!(findings[0].message.contains("unknown lint rule"));
    }

    #[test]
    fn unused_allows_are_reported_after_the_passes_ran() {
        let src = "// lint: allow(panic, nothing here panics anymore)\nlet a = 1;\nx.unwrap(); // lint: allow(panic, covered by the is_some above)\n";
        let f = SourceFile::new("x.rs".into(), src);
        // Simulate the panic pass consulting line 3 only.
        assert!(f.allowed(3, "panic"));
        let unused = unused_allow_findings(&f);
        assert_eq!(unused.len(), 1, "{unused:?}");
        assert_eq!(unused[0].line, 1);
        assert!(unused[0].message.contains("no longer suppresses"));
    }

    #[test]
    fn malformed_allows_are_not_double_reported_as_unused() {
        let src = "// lint: allow(panic)\n// lint: allow(bogus, reason)\n";
        let f = SourceFile::new("x.rs".into(), src);
        assert!(unused_allow_findings(&f).is_empty());
    }

    #[test]
    fn reason_may_contain_commas_and_parens() {
        let src = "x.unwrap(); // lint: allow(panic, guarded by is_some() above, see docs)\n";
        let f = SourceFile::new("x.rs".into(), src);
        assert_eq!(f.allows[0].reason, "guarded by is_some() above, see docs");
        assert!(f.allowed(1, "panic"));
    }
}
