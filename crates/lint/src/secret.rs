//! The secret-flow pass: intraprocedural taint tracking from secret-typed
//! sources to control flow and indexing.
//!
//! Path ORAM's security argument (Stefanov et al.) requires the DRAM
//! command stream to depend only on uniformly random leaves revealed at
//! access time — never on block *contents*, on *where* the position map
//! currently points, or on how full the stash happens to be. A branch or a
//! data-dependent index on any of those is an access-pattern side channel
//! (or, in this simulator, a place where a refactor can silently make the
//! modeled timing workload-dependent).
//!
//! Sources of taint:
//!
//! * `.payload` / `.leaf` field accesses (block contents and assigned
//!   positions), plus any identifier named `payload` by convention;
//! * calls returning position-map leaves: `.leaf_of(..)`, `.remap(..)`;
//! * calls returning stash metadata: `.stash_len()`, `.max_occupancy()`,
//!   `.over_capacity()`.
//!
//! Taint propagates through `let` / `if let` / `while let` / `for`
//! bindings inside one function (to a fixpoint). `if` / `while` / `match`
//! conditions and index expressions containing a source or a tainted local
//! are flagged. Sanctioned sites — the revealed-leaf path address
//! computation, the documented stash-pressure throttle — carry
//! `// lint: allow(secret-flow, <why the DRAM stream stays oblivious>)`.

use std::collections::BTreeSet;

use crate::lexer::TokKind;
use crate::source::SourceFile;
use crate::Finding;

/// Struct fields whose values are secret wherever they flow.
const SECRET_FIELDS: [&str; 2] = ["payload", "leaf"];

/// Method names whose return value is secret.
const SECRET_CALLS: [&str; 5] = [
    "leaf_of",
    "remap",
    "stash_len",
    "max_occupancy",
    "over_capacity",
];

/// Identifier names treated as secret by convention wherever they are
/// bound or used (a local called `payload` holds a payload).
const SECRET_NAMES: [&str; 1] = ["payload"];

/// Runs the secret-flow pass over one file of a report-affecting crate.
pub fn check(file: &SourceFile) -> Vec<Finding> {
    let mut out: Vec<Finding> = Vec::new();
    for f in &file.parsed.fns {
        let Some(body) = f.body else { continue };
        check_fn(file, body, &mut out);
    }
    out
}

/// Why a token is considered secret (for the finding message).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Why {
    Field,
    Call,
    Tainted,
}

fn check_fn(file: &SourceFile, body: (usize, usize), out: &mut Vec<Finding>) {
    let tainted = tainted_locals(file, body);
    let toks = &file.tokens;
    let mut i = body.0;
    while i < body.1 {
        let t = &toks[i];
        match &t.kind {
            TokKind::Ident(kw) if kw == "if" || kw == "while" || kw == "match" => {
                let span = skip_let_pattern(file, cond_span(file, i + 1, body.1));
                flag_span(file, span, &tainted, "branch condition", out);
                i += 1;
            }
            // An indexing expression: `[` directly after a value-producing
            // token (same shape the panic pass counts).
            TokKind::Punct(b'[') if i > body.0 => {
                let opens_index = match &toks[i - 1].kind {
                    TokKind::Ident(s) => !is_keyword(s),
                    TokKind::Punct(b')') | TokKind::Punct(b']') => true,
                    _ => false,
                };
                if opens_index {
                    let end = matching_bracket(file, i).unwrap_or(body.1);
                    flag_span(file, (i + 1, end), &tainted, "index expression", out);
                }
                i += 1;
            }
            _ => i += 1,
        }
    }
}

/// Rust keywords that can precede `[` without forming an index expression.
fn is_keyword(s: &str) -> bool {
    matches!(
        s,
        "mut" | "dyn" | "in" | "as" | "return" | "break" | "else" | "match" | "if" | "while"
    )
}

/// Token index of the `]` matching the `[` at `open`.
fn matching_bracket(file: &SourceFile, open: usize) -> Option<usize> {
    let mut depth = 0i32;
    for (i, t) in file.tokens.iter().enumerate().skip(open) {
        match t.kind {
            TokKind::Punct(b'[') => depth += 1,
            TokKind::Punct(b']') => {
                depth -= 1;
                if depth == 0 {
                    return Some(i);
                }
            }
            _ => {}
        }
    }
    None
}

/// The half-open token span of a branch condition starting at `from`: runs
/// to the block's `{` at bracket depth 0, or to a `;` / `=>` terminator
/// (match guards), or to `end`.
fn cond_span(file: &SourceFile, from: usize, end: usize) -> (usize, usize) {
    let toks = &file.tokens;
    let mut depth = 0i32;
    let mut i = from;
    while i < end {
        match toks[i].kind {
            TokKind::Punct(b'(') | TokKind::Punct(b'[') => depth += 1,
            TokKind::Punct(b')') | TokKind::Punct(b']') => depth -= 1,
            TokKind::Punct(b'{') if depth <= 0 => return (from, i),
            TokKind::Punct(b'{') => depth += 1,
            TokKind::Punct(b'}') => depth -= 1,
            TokKind::Punct(b';') if depth <= 0 => return (from, i),
            TokKind::Punct(b'>')
                if depth <= 0
                // `=>` terminates a match-guard condition.
                && toks.get(i.wrapping_sub(1)).is_some_and(|p| p.is_punct(b'=')) =>
            {
                return (from, i);
            }
            _ => {}
        }
        i += 1;
    }
    (from, end)
}

/// Narrows an `if let` / `while let` condition span to its scrutinee: the
/// idents between `let` and the top-level `=` are fresh pattern bindings,
/// not uses, so only the right-hand side can carry taint into the branch.
fn skip_let_pattern(file: &SourceFile, span: (usize, usize)) -> (usize, usize) {
    let toks = &file.tokens;
    if toks.get(span.0).and_then(|t| t.ident()) != Some("let") {
        return span;
    }
    let mut depth = 0i32;
    for (i, t) in toks.iter().enumerate().take(span.1).skip(span.0 + 1) {
        match t.kind {
            TokKind::Punct(b'(') | TokKind::Punct(b'[') | TokKind::Punct(b'<') => depth += 1,
            TokKind::Punct(b')') | TokKind::Punct(b']') | TokKind::Punct(b'>') => depth -= 1,
            TokKind::Punct(b'=') if depth <= 0 => return (i + 1, span.1),
            _ => {}
        }
    }
    span
}

/// Collects the names of locals tainted by secret sources within one fn
/// body: `let` / `if let` / `while let` / `for` patterns whose initializer
/// contains a source or an already-tainted name, iterated to a fixpoint.
fn tainted_locals(file: &SourceFile, body: (usize, usize)) -> BTreeSet<String> {
    let toks = &file.tokens;
    // (pattern idents, rhs token span) per binding.
    let mut bindings: Vec<(Vec<String>, (usize, usize))> = Vec::new();
    let mut i = body.0;
    while i < body.1 {
        match toks[i].ident() {
            Some("let") => {
                // Pattern until `=` at depth 0 (stop early on `;` / `{`).
                let mut depth = 0i32;
                let mut j = i + 1;
                let mut pat = Vec::new();
                while j < body.1 {
                    match &toks[j].kind {
                        TokKind::Punct(b'(') | TokKind::Punct(b'[') | TokKind::Punct(b'<') => {
                            depth += 1;
                        }
                        TokKind::Punct(b')') | TokKind::Punct(b']') | TokKind::Punct(b'>') => {
                            depth -= 1;
                        }
                        TokKind::Punct(b'=') if depth <= 0 => break,
                        TokKind::Punct(b';') | TokKind::Punct(b'{') if depth <= 0 => break,
                        TokKind::Ident(s) if is_binding_ident(s) => pat.push(s.clone()),
                        _ => {}
                    }
                    j += 1;
                }
                if j < body.1 && toks[j].is_punct(b'=') {
                    let rhs_end = rhs_end(file, j + 1, body.1);
                    bindings.push((pat, (j + 1, rhs_end)));
                    i = rhs_end;
                    continue;
                }
                i = j;
            }
            Some("for") => {
                // Pattern until `in` at depth 0, then the iterated
                // expression until the loop `{`.
                let mut j = i + 1;
                let mut pat = Vec::new();
                while j < body.1 {
                    match toks[j].ident() {
                        Some("in") => break,
                        Some(s) if is_binding_ident(s) => pat.push(s.to_owned()),
                        _ => {}
                    }
                    if toks[j].is_punct(b'{') {
                        break;
                    }
                    j += 1;
                }
                if toks.get(j).and_then(|t| t.ident()) == Some("in") {
                    let span = cond_span(file, j + 1, body.1);
                    bindings.push((pat, span));
                    i = span.1;
                    continue;
                }
                i = j;
            }
            _ => i += 1,
        }
    }

    let mut tainted: BTreeSet<String> = BTreeSet::new();
    loop {
        let before = tainted.len();
        for (pat, rhs) in &bindings {
            if span_hits(file, *rhs, &tainted).is_some() {
                tainted.extend(pat.iter().cloned());
            }
        }
        if tainted.len() == before {
            return tainted;
        }
    }
}

/// Whether a pattern identifier introduces a binding (lowercase-initial,
/// not a pattern keyword).
fn is_binding_ident(s: &str) -> bool {
    !matches!(s, "mut" | "ref" | "box" | "_" | "let" | "else" | "move")
        && s.chars()
            .next()
            .is_some_and(|c| c.is_ascii_lowercase() || c == '_')
}

/// End of a `let` initializer starting at `from`: the `;`, a `{` (an
/// `if let`/`while let` body opener — stopping there slightly
/// under-approximates struct-literal initializers, which is the safe
/// direction), or a `let-else`'s `else`, all at bracket depth 0.
fn rhs_end(file: &SourceFile, from: usize, end: usize) -> usize {
    let toks = &file.tokens;
    let mut depth = 0i32;
    let mut i = from;
    while i < end {
        match &toks[i].kind {
            TokKind::Punct(b'(') | TokKind::Punct(b'[') => depth += 1,
            TokKind::Punct(b')') | TokKind::Punct(b']') => depth -= 1,
            TokKind::Punct(b';') | TokKind::Punct(b'{') if depth <= 0 => return i,
            TokKind::Ident(s) if s == "else" && depth <= 0 => return i,
            _ => {}
        }
        i += 1;
    }
    end
}

/// First secret hit inside a token span: `(token index, name, why)`.
fn span_hits(
    file: &SourceFile,
    span: (usize, usize),
    tainted: &BTreeSet<String>,
) -> Option<(usize, String, Why)> {
    let toks = &file.tokens;
    for i in span.0..span.1.min(toks.len()) {
        let Some(name) = toks[i].ident() else {
            continue;
        };
        let after_dot = i > 0 && toks[i - 1].is_punct(b'.');
        let before_call = toks.get(i + 1).is_some_and(|t| t.is_punct(b'('));
        let before_colon = toks.get(i + 1).is_some_and(|t| t.is_punct(b':'));
        if after_dot && SECRET_FIELDS.contains(&name) && !before_call {
            return Some((i, name.to_owned(), Why::Field));
        }
        if after_dot && SECRET_CALLS.contains(&name) && before_call {
            return Some((i, name.to_owned(), Why::Call));
        }
        if !after_dot
            && !before_call
            && !before_colon
            && (tainted.contains(name) || SECRET_NAMES.contains(&name))
        {
            return Some((i, name.to_owned(), Why::Tainted));
        }
    }
    None
}

/// Flags a branch/index span whose tokens carry secret taint.
fn flag_span(
    file: &SourceFile,
    span: (usize, usize),
    tainted: &BTreeSet<String>,
    site: &str,
    out: &mut Vec<Finding>,
) {
    let Some((idx, name, why)) = span_hits(file, span, tainted) else {
        return;
    };
    let line = file.tokens[idx].line;
    if file.in_test(idx) || file.allowed(line, "secret-flow") {
        return;
    }
    let source = match why {
        Why::Field => format!("secret field `.{name}`"),
        Why::Call => format!("secret-returning call `.{name}(..)`"),
        Why::Tainted => format!("tainted value `{name}`"),
    };
    let message = format!(
        "secret-dependent {site} on {source} — the DRAM command stream must depend only on revealed leaves; make the site data-independent or annotate it with lint: allow(secret-flow, <why the access pattern stays oblivious>)"
    );
    if out
        .iter()
        .any(|f| f.line == line && f.message == message && f.file == file.rel_path)
    {
        return;
    }
    out.push(Finding {
        file: file.rel_path.clone(),
        line,
        rule: "secret-flow".to_owned(),
        message,
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    fn findings(src: &str) -> Vec<Finding> {
        check(&SourceFile::new("f.rs".into(), src))
    }

    #[test]
    fn direct_branch_on_secret_field_is_flagged() {
        let f = findings("fn f(b: &Blk) -> u64 {\n    if b.payload == 0 { 1 } else { 0 }\n}\n");
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].line, 2);
        assert!(f[0].message.contains("`.payload`"));
        assert!(f[0].message.contains("branch condition"));
    }

    #[test]
    fn taint_propagates_through_let_bindings() {
        let f = findings(
            "fn f(s: &Stash) -> u64 {\n    let occ = s.stash_len();\n    let derived = occ + 1;\n    if derived > 10 { 1 } else { 0 }\n}\n",
        );
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].line, 4);
        assert!(f[0].message.contains("`derived`"));
    }

    #[test]
    fn secret_dependent_index_is_flagged() {
        let f = findings(
            "fn f(m: &PosMap, a: BlockAddr, t: &[u64]) -> u64 {\n    let leaf = m.leaf_of(a);\n    t[leaf as usize]\n}\n",
        );
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].line, 3);
        assert!(f[0].message.contains("index expression"));
    }

    #[test]
    fn match_on_tainted_scrutinee_is_flagged() {
        let f = findings(
            "fn f(b: &Blk) -> u64 {\n    match b.payload {\n        0 => 1,\n        _ => 2,\n    }\n}\n",
        );
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].line, 2);
    }

    #[test]
    fn public_control_flow_is_clean() {
        let f = findings(
            "fn f(addr: u64, n: u64, v: &[u64]) -> u64 {\n    let idx = addr % n;\n    if idx > 4 { return v[idx as usize]; }\n    for leaf in 0..n { let _ = v[leaf as usize]; }\n    0\n}\n",
        );
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn allow_with_reason_silences() {
        let f = findings(
            "fn f(s: &Stash) -> u64 {\n    // lint: allow(secret-flow, documented stash-pressure throttle; timing protection restores the fixed schedule)\n    if s.over_capacity() { 1 } else { 0 }\n}\n",
        );
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn allow_covers_a_multiline_condition() {
        let f = findings(
            "fn f(s: &Stash, d: bool) -> bool {\n    // lint: allow(secret-flow, degraded admission gate, see DESIGN.md)\n    let throttle = s.over_capacity()\n        || (d && s.max_occupancy() > 4);\n    throttle\n}\n",
        );
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn test_code_is_exempt() {
        let f =
            findings("#[cfg(test)]\nmod tests {\n    fn t(b: &Blk) { if b.payload == 0 {} }\n}\n");
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn payload_named_binding_is_secret_by_convention() {
        let f = findings(
            "fn f(c: &Ctl, a: u64) -> u64 {\n    if let Some((served, payload)) = c.front_access(a) {\n        if payload > 0 { 1 } else { 0 }\n    } else { 0 }\n}\n",
        );
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].line, 3);
        assert!(f[0].message.contains("tainted value `payload`"), "{f:?}");
    }

    #[test]
    fn if_let_pattern_bindings_are_not_condition_uses() {
        // The pattern idents of `if let` are fresh bindings; only the
        // scrutinee (here secret-free) can taint the branch.
        let f = findings(
            "fn f(c: &Ctl, a: u64) -> bool {\n    if let Some((served, payload)) = c.front_access(a) { served } else { false }\n}\n",
        );
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn struct_literal_field_names_are_not_taint_uses() {
        let f = findings(
            "fn f(x: u64) -> Blk {\n    if x > 2 { Blk { payload: 0 } } else { Blk { payload: 1 } }\n}\n",
        );
        assert!(f.is_empty(), "{f:?}");
    }
}
