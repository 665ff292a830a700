//! The panic-freedom pass: inventories panic-capable sites in the
//! designated hot-path modules and compares the counts against the
//! checked-in ratchet (`lint-ratchet.toml`).
//!
//! Counted categories: `.unwrap(`, `.expect(`, `panic!`, `unreachable!`,
//! and slice-indexing expressions (`expr[...]`). Sites inside test code or
//! carrying a reasoned `// lint: allow(panic, <invariant>)` are exempt —
//! an annotated site is a *declared* invariant, not an open hazard. The
//! ratchet only moves down: a count above budget is a regression; a count
//! below budget must be locked in with `--fix-ratchet`.

use std::collections::BTreeMap;

use crate::lexer::TokKind;
use crate::ratchet::Ratchet;
use crate::source::SourceFile;
use crate::Finding;

/// Counts panic-capable sites per category for one file.
/// Rust keywords that can directly precede `[` in real code (type syntax,
/// array literals after control flow) without forming an index expression.
fn is_keyword(s: &str) -> bool {
    matches!(
        s,
        "mut" | "dyn" | "in" | "as" | "return" | "break" | "else" | "match" | "if" | "while"
    )
}

pub fn count(file: &SourceFile) -> BTreeMap<String, u64> {
    let mut counts: BTreeMap<String, u64> = crate::ratchet::CATEGORIES
        .iter()
        .map(|c| ((*c).to_owned(), 0))
        .collect();
    for (cat, _) in sites(file, (0, file.tokens.len())) {
        *counts.get_mut(cat).expect("all categories pre-seeded") += 1;
    }
    counts
}

/// Enumerates unexempted panic-capable sites within a half-open token
/// range as `(category, line)` pairs, in token order. Sites in test code
/// or covered by `lint: allow(panic, ...)` are skipped — shared by the
/// whole-file ratchet count and the panic-reachability pass.
pub fn sites(file: &SourceFile, range: (usize, usize)) -> Vec<(&'static str, u32)> {
    let toks = &file.tokens;
    let mut out = Vec::new();
    for i in range.0..range.1.min(toks.len()) {
        let t = &toks[i];
        if file.in_test(i) || file.allowed(t.line, "panic") {
            continue;
        }
        let cat: Option<&'static str> = match &t.kind {
            TokKind::Ident(s) if s == "unwrap" || s == "expect" => toks
                .get(i + 1)
                .filter(|n| n.is_punct(b'('))
                .map(|_| if s == "unwrap" { "unwrap" } else { "expect" }),
            TokKind::Ident(s) if s == "panic" || s == "unreachable" => toks
                .get(i + 1)
                .filter(|n| n.is_punct(b'!'))
                .map(|_| if s == "panic" { "panic" } else { "unreachable" }),
            // An indexing expression: `[` directly after a value-producing
            // token (identifier, `)`, or `]`). Attribute `#[`, macro
            // `vec![`, types `: [u8; 4]`, and slice patterns follow other
            // token kinds and are not counted. Keywords lex as identifiers
            // but never end a value expression (`&mut [T]`, `return [..]`),
            // so they don't open an index either.
            TokKind::Punct(b'[') if i > 0 => match &toks[i - 1].kind {
                TokKind::Ident(s) if !is_keyword(s) => Some("index"),
                TokKind::Punct(b')') | TokKind::Punct(b']') => Some("index"),
                _ => None,
            },
            _ => None,
        };
        if let Some(cat) = cat {
            out.push((cat, t.line));
        }
    }
    out
}

/// Compares counted hot-path files against the ratchet.
pub fn check_against_ratchet(
    counted: &Ratchet,
    budget: &Ratchet,
    ratchet_path: &str,
) -> Vec<Finding> {
    let mut out = Vec::new();
    for (file, cats) in counted {
        let Some(allowed) = budget.get(file) else {
            out.push(Finding {
                file: file.clone(),
                line: 1,
                rule: "panic".to_owned(),
                message: format!(
                    "hot-path file missing from {ratchet_path}; run --fix-ratchet to budget it"
                ),
            });
            continue;
        };
        for (cat, &have) in cats {
            let want = allowed.get(cat).copied().unwrap_or(0);
            if have > want {
                out.push(Finding {
                    file: file.clone(),
                    line: 1,
                    rule: "panic".to_owned(),
                    message: format!(
                        "{have} unannotated `{cat}` site(s), ratchet allows {want} — remove the new site or annotate its invariant with lint: allow(panic, ...)"
                    ),
                });
            } else if have < want {
                out.push(Finding {
                    file: file.clone(),
                    line: 1,
                    rule: "panic".to_owned(),
                    message: format!(
                        "only {have} `{cat}` site(s) but ratchet still allows {want} — run --fix-ratchet to lock the improvement in"
                    ),
                });
            }
        }
    }
    // Stale ratchet entries for files we no longer count.
    for file in budget.keys() {
        if !counted.contains_key(file) {
            out.push(Finding {
                file: file.clone(),
                line: 1,
                rule: "panic".to_owned(),
                message: format!(
                    "stale entry in {ratchet_path}: file is not a designated hot-path module; run --fix-ratchet"
                ),
            });
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn counts(src: &str) -> BTreeMap<String, u64> {
        count(&SourceFile::new("f.rs".into(), src))
    }

    #[test]
    fn counts_each_category() {
        let c = counts(
            "fn f(v: &[u64], i: usize) -> u64 {\n  let x = v.get(i).unwrap();\n  let y = o.expect(\"msg\");\n  if bad { panic!(\"boom\") }\n  match z { _ => unreachable!() }\n  v[i] + w[j][k]\n}\n",
        );
        assert_eq!(c["unwrap"], 1);
        assert_eq!(c["expect"], 1);
        assert_eq!(c["panic"], 1);
        assert_eq!(c["unreachable"], 1);
        assert_eq!(c["index"], 3); // v[i], w[j], [k]
    }

    #[test]
    fn non_panicking_lookalikes_do_not_count() {
        let c = counts(
            "let a = x.unwrap_or(0);\nlet b = y.unwrap_or_else(|| 0);\nlet t: [u8; 4] = [0; 4];\n#[derive(Debug)]\nstruct S;\nlet v = vec![1, 2];\nlet w = matches!(q, Some(_));\n",
        );
        assert_eq!(c.values().sum::<u64>(), 0, "{c:?}");
    }

    #[test]
    fn keyword_before_bracket_is_not_an_index() {
        let c = counts(
            "fn f(q: &mut [u64], d: &dyn T) -> [u8; 2] {\n  for x in [1, 2] {}\n  if cond { return [0, 0] } else [9, 9]\n  q[0]\n}\n",
        );
        assert_eq!(c["index"], 1, "{c:?}"); // only q[0]
    }

    #[test]
    fn annotated_and_test_sites_are_exempt() {
        let c = counts(
            "let a = x.unwrap(); // lint: allow(panic, x seeded two lines up)\n#[test]\nfn t() { y.unwrap(); v[0]; }\n",
        );
        assert_eq!(c.values().sum::<u64>(), 0, "{c:?}");
    }

    #[test]
    fn ratchet_comparison_flags_both_directions() {
        let mut counted = Ratchet::new();
        counted.insert("a.rs".into(), counts("x.unwrap();\nv[i];\n"));
        let budget = crate::ratchet::parse("[\"a.rs\"]\nunwrap = 0\nindex = 2\n").unwrap();
        let f = check_against_ratchet(&counted, &budget, "lint-ratchet.toml");
        assert_eq!(f.len(), 2, "{f:?}");
        assert!(f.iter().any(|x| x.message.contains("ratchet allows 0")));
        assert!(f
            .iter()
            .any(|x| x.message.contains("lock the improvement in")));
    }

    #[test]
    fn missing_and_stale_entries_are_flagged() {
        let mut counted = Ratchet::new();
        counted.insert("new.rs".into(), counts(""));
        let budget = crate::ratchet::parse("[\"old.rs\"]\nunwrap = 1\n").unwrap();
        let f = check_against_ratchet(&counted, &budget, "lint-ratchet.toml");
        assert!(f
            .iter()
            .any(|x| x.file == "new.rs" && x.message.contains("missing")));
        assert!(f
            .iter()
            .any(|x| x.file == "old.rs" && x.message.contains("stale")));
    }

    #[test]
    fn exact_match_is_clean() {
        let mut counted = Ratchet::new();
        counted.insert("a.rs".into(), counts("x.unwrap(); y[0];"));
        let budget = crate::ratchet::parse("[\"a.rs\"]\nunwrap = 1\nindex = 1\n").unwrap();
        assert!(check_against_ratchet(&counted, &budget, "r.toml").is_empty());
    }
}
