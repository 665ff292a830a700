//! A lightweight item/expression parser on top of the hand-rolled lexer:
//! recovers `fn` items (with body token ranges) and `impl`/`trait` block
//! extents — just enough structure for the panic-reachability pass to
//! reason about *which function* a token is in and *which type* a method
//! belongs to.
//!
//! Like the lexer, this is deliberately not a full Rust grammar: it tracks
//! bracket depth and a handful of item keywords, and it degrades gracefully
//! (an unparseable construct yields no item, never an error). All ranges
//! are half-open token-index ranges into [`crate::source::SourceFile::tokens`].

use crate::lexer::{TokKind, Token};

/// One `fn` item (free function, method, or trait default method).
#[derive(Debug, Clone)]
pub struct FnDef {
    /// Function name.
    pub name: String,
    /// 1-based line of the name token.
    pub line: u32,
    /// Half-open token range of the body *including* its braces; `None`
    /// for bodyless declarations (trait method signatures).
    pub body: Option<(usize, usize)>,
    /// The `impl`'d type this method belongs to, when declared inside an
    /// inherent or trait `impl` block. `None` for free functions and for
    /// default methods in `trait` declarations.
    pub owner: Option<String>,
}

/// The parsed shape of one source file.
#[derive(Debug, Default)]
pub struct ParsedFile {
    /// Every `fn` item found, in source order (including nested items and
    /// methods).
    pub fns: Vec<FnDef>,
}

/// Extent of one `impl` block and the type it targets (used internally to
/// attribute method ownership).
struct ImplSpan {
    type_name: String,
    /// Half-open token range of the impl body including braces.
    body: (usize, usize),
}

/// Parses the token stream of one file.
pub fn parse(tokens: &[Token]) -> ParsedFile {
    let mut out = ParsedFile::default();
    let mut impls: Vec<ImplSpan> = Vec::new();

    // First sweep: impl block extents, so method ownership can be resolved
    // for fns found in the second sweep regardless of nesting order.
    let mut i = 0usize;
    while i < tokens.len() {
        if tokens[i].ident() == Some("impl") {
            if let Some(span) = parse_impl_header(tokens, i) {
                i = span.body.0; // descend into the body (nested impls are rare but legal)
                impls.push(span);
                continue;
            }
        }
        i += 1;
    }

    // Second sweep: fn items.
    let mut i = 0usize;
    while i < tokens.len() {
        if tokens[i].ident() == Some("fn") {
            if let Some((def, next)) = parse_fn(tokens, i, &impls) {
                // Descend into the body so nested fns/items are found too.
                i = def.body.map_or(next, |(start, _)| start + 1);
                out.fns.push(def);
                continue;
            }
        }
        i += 1;
    }
    out
}

/// Parses an `impl` header starting at the `impl` token; returns its span.
fn parse_impl_header(tokens: &[Token], at: usize) -> Option<ImplSpan> {
    // Header runs from after `impl` to the body `{` at bracket depth 0.
    let mut i = at + 1;
    let mut depth = 0i32;
    let mut header_idents: Vec<(usize, String)> = Vec::new();
    let body_open = loop {
        let t = tokens.get(i)?;
        match &t.kind {
            TokKind::Punct(b'(') | TokKind::Punct(b'[') | TokKind::Punct(b'<') => depth += 1,
            TokKind::Punct(b')') | TokKind::Punct(b']') => depth -= 1,
            TokKind::Punct(b'>')
                // `->` in an fn-pointer type keeps depth; a bare `>` closes
                // a generic bracket.
                if !tokens.get(i.wrapping_sub(1)).is_some_and(|p| p.is_punct(b'-')) => {
                    depth -= 1;
                }
            TokKind::Punct(b'{') if depth <= 0 => break i,
            TokKind::Punct(b';') if depth <= 0 => return None, // `impl Trait for Type;` — not a block
            TokKind::Ident(s) if depth <= 0 => header_idents.push((i, s.clone())),
            _ => {}
        }
        i += 1;
    };
    // The self type: the last path segment before the body, or — when a
    // `for` is present (`impl Trait for Type`) — the last segment after it.
    let after_for = header_idents
        .iter()
        .position(|(_, s)| s == "for")
        .map(|p| p + 1)
        .unwrap_or(0);
    let type_name = header_idents[after_for..]
        .iter()
        .rfind(|(_, s)| s != "where" && s != "for")
        .map(|(_, s)| s.clone())?;
    let close = matching_brace(tokens, body_open)?;
    Some(ImplSpan {
        type_name,
        body: (body_open, close + 1),
    })
}

/// Parses a `fn` item starting at the `fn` token. Returns the def and the
/// token index to resume scanning at (just past the signature, so callers
/// may descend into the body themselves).
fn parse_fn(tokens: &[Token], at: usize, impls: &[ImplSpan]) -> Option<(FnDef, usize)> {
    let name_tok = tokens.get(at + 1)?;
    let name = name_tok.ident()?.to_owned();
    let line = name_tok.line;
    // Signature runs to a `{` (body) or `;` (bodyless) at bracket depth 0.
    let mut i = at + 2;
    let mut depth = 0i32;
    let body = loop {
        let t = tokens.get(i)?;
        match t.kind {
            TokKind::Punct(b'(') | TokKind::Punct(b'[') | TokKind::Punct(b'<') => depth += 1,
            TokKind::Punct(b')') | TokKind::Punct(b']') => depth -= 1,
            TokKind::Punct(b'>')
                if !tokens
                    .get(i.wrapping_sub(1))
                    .is_some_and(|p| p.is_punct(b'-')) =>
            {
                depth -= 1;
            }
            TokKind::Punct(b'{') if depth <= 0 => {
                let close = matching_brace(tokens, i)?;
                break Some((i, close + 1));
            }
            TokKind::Punct(b';') if depth <= 0 => break None,
            _ => {}
        }
        i += 1;
    };
    let owner = impls
        .iter()
        .filter(|imp| imp.body.0 <= at && at < imp.body.1)
        .min_by_key(|imp| imp.body.1 - imp.body.0) // innermost impl wins
        .map(|imp| imp.type_name.clone());
    let next = body.map_or(i + 1, |(start, _)| start);
    Some((
        FnDef {
            name,
            line,
            body,
            owner,
        },
        next,
    ))
}

/// Index of the `}` matching the `{` at `open`.
pub fn matching_brace(tokens: &[Token], open: usize) -> Option<usize> {
    let mut depth = 0i32;
    for (i, t) in tokens.iter().enumerate().skip(open) {
        match t.kind {
            TokKind::Punct(b'{') => depth += 1,
            TokKind::Punct(b'}') => {
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    #[test]
    fn free_fns_and_methods_are_attributed() {
        let src = "fn free() { inner(); }\nstruct S { pub a: u64 }\nimpl S {\n    pub fn m(&self) -> u64 { self.a }\n}\nimpl Clone for S {\n    fn clone(&self) -> S { S { a: self.a } }\n}\n";
        let toks = lex(src);
        let p = parse(&toks);
        let names: Vec<(&str, Option<&str>)> = p
            .fns
            .iter()
            .map(|f| (f.name.as_str(), f.owner.as_deref()))
            .collect();
        assert_eq!(
            names,
            [("free", None), ("m", Some("S")), ("clone", Some("S"))]
        );
    }

    #[test]
    fn impl_with_generics_and_traits_resolves_self_type() {
        let src = "impl<'a, T: Ord> TreeTopStore for FlatTreeTop<T> {\n    fn save_state(&self) {}\n}\nimpl<const N: usize> Ring<N> {\n    fn advance(&mut self) {}\n}\n";
        let p = parse(&lex(src));
        assert_eq!(p.fns[0].owner.as_deref(), Some("FlatTreeTop"));
        assert_eq!(p.fns[1].owner.as_deref(), Some("Ring"));
    }

    #[test]
    fn trait_method_signatures_are_bodyless() {
        let src = "pub trait Store {\n    fn save_state(&self, w: &mut W);\n    fn tag(&self) -> u32 { 0 }\n}\n";
        let p = parse(&lex(src));
        let save = p.fns.iter().find(|f| f.name == "save_state").unwrap();
        assert!(save.body.is_none());
        let tag = p.fns.iter().find(|f| f.name == "tag").unwrap();
        assert!(tag.body.is_some());
        assert_eq!(tag.owner, None, "trait default methods have no impl owner");
    }

    #[test]
    fn fn_body_range_covers_exactly_the_braces() {
        let src = "fn a() -> Result<(), E> { x(); }\nfn b() { y(); }\n";
        let toks = lex(src);
        let p = parse(&toks);
        let idents = |f: &FnDef| -> Vec<&str> {
            let (start, end) = f.body.unwrap();
            toks[start..end].iter().filter_map(Token::ident).collect()
        };
        assert_eq!(idents(&p.fns[0]), ["x"]);
        assert_eq!(idents(&p.fns[1]), ["y"]);
    }

    #[test]
    fn nested_fns_are_found() {
        let src = "fn outer() {\n    fn inner() { z(); }\n    inner();\n}\n";
        let p = parse(&lex(src));
        let names: Vec<&str> = p.fns.iter().map(|f| f.name.as_str()).collect();
        assert_eq!(names, ["outer", "inner"]);
    }

    #[test]
    fn methods_of_groups_across_impl_blocks() {
        let src = "struct S { a: u64 }\nimpl S { fn save_state(&self) { self.a; } }\nimpl S { fn restore_state(&mut self) { self.a = 0; } }\n";
        let p = parse(&lex(src));
        let m: Vec<&str> = p
            .fns
            .iter()
            .filter(|f| f.owner.as_deref() == Some("S"))
            .map(|f| f.name.as_str())
            .collect();
        assert_eq!(m, ["save_state", "restore_state"]);
    }
}
