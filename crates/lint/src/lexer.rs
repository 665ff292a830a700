//! A small hand-rolled Rust lexer — just enough structure for the lint
//! passes: identifiers, punctuation, string/char literals, line comments
//! (kept, so `// lint: allow(...)` annotations survive), block comments
//! (skipped), raw strings, lifetimes, and numbers, each tagged with its
//! 1-based source line.
//!
//! This is deliberately not a full Rust grammar. The passes only need to
//! recognize token *shapes* (`HashMap` as an identifier, `.unwrap(`,
//! `ident[`), and a lexer — unlike a regex over raw text — cannot be fooled
//! by occurrences inside strings, comments, or doc text.

/// One lexed token.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Token {
    /// What kind of token this is.
    pub kind: TokKind,
    /// 1-based line the token starts on.
    pub line: u32,
}

/// Token kinds the lint passes distinguish.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TokKind {
    /// Identifier or keyword (`HashMap`, `fn`, `unwrap`, ...).
    Ident(String),
    /// A string literal's decoded-enough content (escapes left verbatim).
    Str(String),
    /// A character literal (content irrelevant to the passes).
    Char,
    /// A lifetime (`'a`, `'static`).
    Lifetime,
    /// A numeric literal.
    Num,
    /// One punctuation byte (`#`, `[`, `(`, `!`, `.`, ...).
    Punct(u8),
    /// A `//` line comment, full text after the slashes, untrimmed.
    LineComment(String),
}

impl Token {
    /// The identifier text, if this token is an identifier.
    pub fn ident(&self) -> Option<&str> {
        match &self.kind {
            TokKind::Ident(s) => Some(s),
            _ => None,
        }
    }

    /// True when this token is the punctuation byte `c`.
    pub fn is_punct(&self, c: u8) -> bool {
        self.kind == TokKind::Punct(c)
    }
}

/// Lexes `src` into tokens. Unrecognized bytes are skipped (the passes only
/// care about the shapes above), so lexing never fails.
pub fn lex(src: &str) -> Vec<Token> {
    let b = src.as_bytes();
    let mut toks = Vec::new();
    let mut i = 0usize;
    let mut line: u32 = 1;
    while i < b.len() {
        let c = b[i];
        match c {
            b'\n' => {
                line += 1;
                i += 1;
            }
            c if c.is_ascii_whitespace() => i += 1,
            b'/' if b.get(i + 1) == Some(&b'/') => {
                let start = i + 2;
                while i < b.len() && b[i] != b'\n' {
                    i += 1;
                }
                toks.push(Token {
                    kind: TokKind::LineComment(src[start..i].to_owned()),
                    line,
                });
            }
            b'/' if b.get(i + 1) == Some(&b'*') => {
                // Block comment, nested per Rust rules. Skipped entirely:
                // annotations must be `//` line comments.
                let mut depth = 1;
                i += 2;
                while i < b.len() && depth > 0 {
                    if b[i] == b'\n' {
                        line += 1;
                        i += 1;
                    } else if b[i] == b'/' && b.get(i + 1) == Some(&b'*') {
                        depth += 1;
                        i += 2;
                    } else if b[i] == b'*' && b.get(i + 1) == Some(&b'/') {
                        depth -= 1;
                        i += 2;
                    } else {
                        i += 1;
                    }
                }
            }
            b'"' => {
                let tok_line = line;
                let (s, ni, nl) = lex_string(src, i + 1, line);
                toks.push(Token {
                    kind: TokKind::Str(s),
                    line: tok_line,
                });
                i = ni;
                line = nl;
            }
            b'r' | b'b' if is_raw_string_start(b, i) => {
                let tok_line = line;
                let (s, ni, nl) = lex_raw_string(src, i, line);
                toks.push(Token {
                    kind: TokKind::Str(s),
                    line: tok_line,
                });
                i = ni;
                line = nl;
            }
            b'b' if b.get(i + 1) == Some(&b'"') => {
                let tok_line = line;
                let (s, ni, nl) = lex_string(src, i + 2, line);
                toks.push(Token {
                    kind: TokKind::Str(s),
                    line: tok_line,
                });
                i = ni;
                line = nl;
            }
            b'b' if b.get(i + 1) == Some(&b'\'') => {
                toks.push(Token {
                    kind: TokKind::Char,
                    line,
                });
                i = lex_char(b, i + 2);
            }
            b'\'' => {
                // Lifetime vs char literal: a lifetime is `'` + ident NOT
                // followed by a closing `'` (so `'a'` is a char, `'a` a
                // lifetime, `'\n'` a char).
                let mut j = i + 1;
                while j < b.len() && (b[j].is_ascii_alphanumeric() || b[j] == b'_') {
                    j += 1;
                }
                if j > i + 1 && b.get(j) != Some(&b'\'') {
                    toks.push(Token {
                        kind: TokKind::Lifetime,
                        line,
                    });
                    i = j;
                } else {
                    toks.push(Token {
                        kind: TokKind::Char,
                        line,
                    });
                    i = lex_char(b, i + 1);
                }
            }
            c if c.is_ascii_alphabetic() || c == b'_' => {
                let start = i;
                while i < b.len() && (b[i].is_ascii_alphanumeric() || b[i] == b'_') {
                    i += 1;
                }
                toks.push(Token {
                    kind: TokKind::Ident(src[start..i].to_owned()),
                    line,
                });
            }
            c if c.is_ascii_digit() => {
                while i < b.len() && (b[i].is_ascii_alphanumeric() || b[i] == b'_' || b[i] == b'.')
                {
                    // `0..10` range: do not swallow the second dot.
                    if b[i] == b'.' && b.get(i + 1) == Some(&b'.') {
                        break;
                    }
                    i += 1;
                }
                toks.push(Token {
                    kind: TokKind::Num,
                    line,
                });
            }
            c => {
                toks.push(Token {
                    kind: TokKind::Punct(c),
                    line,
                });
                i += 1;
            }
        }
    }
    toks
}

/// True when position `i` starts a raw string (`r"`, `r#`, `br"`, `br#`).
fn is_raw_string_start(b: &[u8], i: usize) -> bool {
    let j = if b[i] == b'b' { i + 1 } else { i };
    if b.get(j) != Some(&b'r') {
        return false;
    }
    matches!(b.get(j + 1), Some(&b'"') | Some(&b'#'))
}

/// Lexes a normal string body starting just after the opening quote.
/// Returns (content, next index, next line).
fn lex_string(src: &str, mut i: usize, mut line: u32) -> (String, usize, u32) {
    let b = src.as_bytes();
    let start = i;
    while i < b.len() {
        match b[i] {
            b'"' => return (src[start..i].to_owned(), i + 1, line),
            b'\\' => {
                // A line-continuation escape (`\` before a newline) still
                // ends a source line: count it or every token after the
                // string reports a too-small line number.
                if b.get(i + 1) == Some(&b'\n') {
                    line += 1;
                }
                i += 2;
            }
            b'\n' => {
                line += 1;
                i += 1;
            }
            _ => i += 1,
        }
    }
    (src[start..i.min(src.len())].to_owned(), i, line)
}

/// Lexes a raw string starting at its `r`/`br`. Returns (content, next
/// index, next line).
fn lex_raw_string(src: &str, mut i: usize, mut line: u32) -> (String, usize, u32) {
    let b = src.as_bytes();
    if b[i] == b'b' {
        i += 1;
    }
    i += 1; // the `r`
    let mut hashes = 0usize;
    while b.get(i) == Some(&b'#') {
        hashes += 1;
        i += 1;
    }
    i += 1; // opening quote
    let start = i;
    while i < b.len() {
        if b[i] == b'\n' {
            line += 1;
            i += 1;
            continue;
        }
        if b[i] == b'"' {
            let mut ok = true;
            for k in 0..hashes {
                if b.get(i + 1 + k) != Some(&b'#') {
                    ok = false;
                    break;
                }
            }
            if ok {
                return (src[start..i].to_owned(), i + 1 + hashes, line);
            }
        }
        i += 1;
    }
    (src[start..i.min(src.len())].to_owned(), i, line)
}

/// Skips a char-literal body starting just after the opening quote,
/// returning the index after the closing quote.
fn lex_char(b: &[u8], mut i: usize) -> usize {
    if b.get(i) == Some(&b'\\') {
        // Past the escape introducer; the scan below absorbs the rest
        // (including `\u{...}` bodies) up to the closing quote.
        i += 2;
    } else {
        // One (possibly multi-byte) character.
        i += 1;
    }
    while i < b.len() && b[i] != b'\'' {
        i += 1;
    }
    i + 1
}

#[cfg(test)]
mod tests {
    use super::*;

    fn idents(src: &str) -> Vec<String> {
        lex(src)
            .into_iter()
            .filter_map(|t| t.ident().map(str::to_owned))
            .collect()
    }

    #[test]
    fn identifiers_and_lines() {
        let toks = lex("fn main() {\n  let x = 1;\n}");
        let main = toks.iter().find(|t| t.ident() == Some("main")).unwrap();
        assert_eq!(main.line, 1);
        let x = toks.iter().find(|t| t.ident() == Some("x")).unwrap();
        assert_eq!(x.line, 2);
    }

    #[test]
    fn strings_do_not_leak_identifiers() {
        assert_eq!(idents(r#"let s = "HashMap in a string";"#), ["let", "s"]);
        assert_eq!(idents("let s = r#\"HashMap raw\"#;"), ["let", "s"]);
        assert_eq!(idents(r#"let s = b"HashMap bytes";"#), ["let", "s"]);
        assert_eq!(
            idents("let s = \"escaped \\\" quote HashMap\";"),
            ["let", "s"]
        );
    }

    #[test]
    fn comments_do_not_leak_identifiers() {
        assert_eq!(idents("// HashMap here\nlet x = 1;"), ["let", "x"]);
        assert_eq!(
            idents("/* HashMap /* nested */ still */ let x = 1;"),
            ["let", "x"]
        );
    }

    #[test]
    fn line_comments_are_kept_with_text() {
        let toks = lex("let x = 1; // lint: allow(panic, why)\n");
        let c = toks
            .iter()
            .find_map(|t| match &t.kind {
                TokKind::LineComment(s) => Some(s.clone()),
                _ => None,
            })
            .unwrap();
        assert!(c.contains("lint: allow(panic, why)"));
    }

    #[test]
    fn lifetimes_are_not_char_literals() {
        let toks = lex("fn f<'a>(x: &'a str, c: char) { let y = 'z'; let n = '\\n'; }");
        let lifetimes = toks.iter().filter(|t| t.kind == TokKind::Lifetime).count();
        let chars = toks.iter().filter(|t| t.kind == TokKind::Char).count();
        assert_eq!(lifetimes, 2);
        assert_eq!(chars, 2);
        // 'static too
        let toks = lex("x: &'static str");
        assert!(toks.iter().any(|t| t.kind == TokKind::Lifetime));
    }

    #[test]
    fn multiline_string_advances_line_numbers() {
        let toks = lex("let s = \"a\nb\nc\";\nlet y = 2;");
        let y = toks.iter().find(|t| t.ident() == Some("y")).unwrap();
        assert_eq!(y.line, 4);
    }

    #[test]
    fn numbers_including_ranges() {
        let toks = lex("for i in 0..10 { a[i] = 1.5; }");
        let nums = toks.iter().filter(|t| t.kind == TokKind::Num).count();
        assert_eq!(nums, 3); // 0, 10, 1.5
    }

    #[test]
    fn string_literal_content_is_captured() {
        let toks = lex(r#"m.insert("t_interval", 1);"#);
        assert!(toks
            .iter()
            .any(|t| matches!(&t.kind, TokKind::Str(s) if s == "t_interval")));
    }

    #[test]
    fn line_continuation_escape_counts_the_newline() {
        let toks = lex("let s = \"a\\\nb\";\nlet x = 1;\n");
        let x = toks.iter().find(|t| t.ident() == Some("x")).unwrap();
        assert_eq!(x.line, 3);
    }
}
