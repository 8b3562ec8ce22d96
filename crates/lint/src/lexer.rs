//! A comment- and string-aware Rust lexer.
//!
//! `habit-lint` does not parse Rust — it scans token streams. The one
//! property every lint depends on is that *comments and string literals
//! are real tokens*, never mistaken for code: a `HashMap` mentioned in
//! a doc comment or an error message must not trip the determinism
//! lints, and a `// habit-lint: allow(…)` comment must be visible to
//! the suppression audit. This module produces exactly that stream:
//! identifiers, numbers, punctuation, string/char literals, lifetimes,
//! and comments, each carrying its 1-based line and column.
//!
//! The lexer is intentionally forgiving: unterminated literals lex as
//! running to end-of-file instead of erroring, because the linter must
//! degrade gracefully on code that `rustc` itself would reject.

/// What a token is. Lints typically scan [`TokenKind::Ident`] /
/// [`TokenKind::Punct`] sequences and consult comments separately.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TokenKind {
    /// An identifier or keyword (`let`, `unsafe`, `HashMap`, …).
    Ident,
    /// A numeric literal (`42`, `2.0`, `0x3f`).
    Number,
    /// A string literal of any flavor (`"…"`, `r#"…"#`, `b"…"`),
    /// with its quotes/hashes stripped.
    Str,
    /// A character or byte literal (`'a'`, `b'\n'`).
    Char,
    /// A lifetime (`'a`, `'static`), without the leading quote.
    Lifetime,
    /// A single punctuation character (`.`, `:`, `{`, …).
    Punct,
    /// A `// …` comment, text after the slashes, trimmed.
    LineComment,
    /// A `/* … */` comment (nesting-aware), delimiters stripped.
    BlockComment,
}

/// One lexed token with its source position.
#[derive(Debug, Clone)]
pub struct Token {
    /// Classification of the token.
    pub kind: TokenKind,
    /// The token's text (delimiters stripped for literals/comments).
    pub text: String,
    /// 1-based source line.
    pub line: u32,
    /// 1-based column (in characters) of the token's first character.
    pub col: u32,
}

impl Token {
    /// `true` for comment tokens (which code-pattern scans skip).
    pub fn is_comment(&self) -> bool {
        matches!(self.kind, TokenKind::LineComment | TokenKind::BlockComment)
    }
}

/// Lexes `src` into a token stream. Never fails; malformed input
/// degrades to best-effort tokens.
pub fn lex(src: &str) -> Vec<Token> {
    Lexer::new(src).run()
}

struct Lexer<'a> {
    chars: Vec<char>,
    pos: usize,
    line: u32,
    col: u32,
    out: Vec<Token>,
    _src: &'a str,
}

impl<'a> Lexer<'a> {
    fn new(src: &'a str) -> Self {
        Self {
            chars: src.chars().collect(),
            pos: 0,
            line: 1,
            col: 1,
            out: Vec::new(),
            _src: src,
        }
    }

    fn peek(&self, ahead: usize) -> Option<char> {
        self.chars.get(self.pos + ahead).copied()
    }

    fn bump(&mut self) -> Option<char> {
        let c = self.chars.get(self.pos).copied()?;
        self.pos += 1;
        if c == '\n' {
            self.line += 1;
            self.col = 1;
        } else {
            self.col += 1;
        }
        Some(c)
    }

    fn push(&mut self, kind: TokenKind, text: String, line: u32, col: u32) {
        self.out.push(Token {
            kind,
            text,
            line,
            col,
        });
    }

    fn run(mut self) -> Vec<Token> {
        while let Some(c) = self.peek(0) {
            let (line, col) = (self.line, self.col);
            match c {
                c if c.is_whitespace() => {
                    self.bump();
                }
                '/' if self.peek(1) == Some('/') => self.line_comment(line, col),
                '/' if self.peek(1) == Some('*') => self.block_comment(line, col),
                '"' => self.string(line, col),
                'r' if self.is_raw_string_start(0) => self.raw_string(line, col),
                'b' if self.peek(1) == Some('"') => {
                    self.bump();
                    self.string(line, col);
                }
                'b' if self.peek(1) == Some('r') && self.is_raw_string_start(1) => {
                    self.bump();
                    self.raw_string(line, col);
                }
                'b' if self.peek(1) == Some('\'') => {
                    self.bump();
                    self.char_literal(line, col);
                }
                '\'' => self.quote(line, col),
                c if c.is_alphabetic() || c == '_' => self.ident(line, col),
                c if c.is_ascii_digit() => self.number(line, col),
                _ => {
                    self.bump();
                    self.push(TokenKind::Punct, c.to_string(), line, col);
                }
            }
        }
        self.out
    }

    fn line_comment(&mut self, line: u32, col: u32) {
        self.bump();
        self.bump();
        let mut text = String::new();
        while let Some(c) = self.peek(0) {
            if c == '\n' {
                break;
            }
            text.push(c);
            self.bump();
        }
        self.push(TokenKind::LineComment, text.trim().to_string(), line, col);
    }

    fn block_comment(&mut self, line: u32, col: u32) {
        self.bump();
        self.bump();
        let mut depth = 1usize;
        let mut text = String::new();
        while let Some(c) = self.peek(0) {
            if c == '/' && self.peek(1) == Some('*') {
                depth += 1;
                self.bump();
                self.bump();
                text.push_str("/*");
            } else if c == '*' && self.peek(1) == Some('/') {
                depth -= 1;
                self.bump();
                self.bump();
                if depth == 0 {
                    break;
                }
                text.push_str("*/");
            } else {
                text.push(c);
                self.bump();
            }
        }
        self.push(TokenKind::BlockComment, text.trim().to_string(), line, col);
    }

    fn string(&mut self, line: u32, col: u32) {
        self.bump(); // opening quote
        let mut text = String::new();
        while let Some(c) = self.peek(0) {
            if c == '\\' {
                self.bump();
                if let Some(esc) = self.bump() {
                    text.push('\\');
                    text.push(esc);
                }
            } else if c == '"' {
                self.bump();
                break;
            } else {
                text.push(c);
                self.bump();
            }
        }
        self.push(TokenKind::Str, text, line, col);
    }

    /// Is `r"` or `r#…#"` starting at offset `at` (which points at `r`)?
    fn is_raw_string_start(&self, at: usize) -> bool {
        let mut i = at + 1;
        while self.peek(i) == Some('#') {
            i += 1;
        }
        i > at && self.peek(i) == Some('"')
    }

    fn raw_string(&mut self, line: u32, col: u32) {
        self.bump(); // `r`
        let mut hashes = 0usize;
        while self.peek(0) == Some('#') {
            hashes += 1;
            self.bump();
        }
        self.bump(); // opening quote
        let mut text = String::new();
        'outer: while let Some(c) = self.peek(0) {
            if c == '"' {
                // A closing quote must be followed by `hashes` hashes.
                for h in 0..hashes {
                    if self.peek(1 + h) != Some('#') {
                        text.push(c);
                        self.bump();
                        continue 'outer;
                    }
                }
                self.bump();
                for _ in 0..hashes {
                    self.bump();
                }
                break;
            }
            text.push(c);
            self.bump();
        }
        self.push(TokenKind::Str, text, line, col);
    }

    /// A bare `'`: either a char literal (`'a'`, `'\n'`) or a lifetime
    /// (`'a`, `'static`). A quote followed by an identifier is a char
    /// literal only when the very next character closes it.
    fn quote(&mut self, line: u32, col: u32) {
        match self.peek(1) {
            Some('\\') => self.char_literal(line, col),
            Some(c) if c.is_alphanumeric() || c == '_' => {
                if self.peek(2) == Some('\'') {
                    self.char_literal(line, col);
                } else {
                    self.bump(); // quote
                    let mut text = String::new();
                    while let Some(c) = self.peek(0) {
                        if c.is_alphanumeric() || c == '_' {
                            text.push(c);
                            self.bump();
                        } else {
                            break;
                        }
                    }
                    self.push(TokenKind::Lifetime, text, line, col);
                }
            }
            _ => self.char_literal(line, col),
        }
    }

    fn char_literal(&mut self, line: u32, col: u32) {
        self.bump(); // opening quote
        let mut text = String::new();
        while let Some(c) = self.peek(0) {
            if c == '\\' {
                self.bump();
                if let Some(esc) = self.bump() {
                    text.push('\\');
                    text.push(esc);
                }
            } else if c == '\'' {
                self.bump();
                break;
            } else if c == '\n' {
                break; // malformed; don't eat the rest of the file
            } else {
                text.push(c);
                self.bump();
            }
        }
        self.push(TokenKind::Char, text, line, col);
    }

    fn ident(&mut self, line: u32, col: u32) {
        let mut text = String::new();
        // Raw identifiers (`r#match`) lex as the bare identifier.
        if self.peek(0) == Some('r') && self.peek(1) == Some('#') {
            if let Some(c) = self.peek(2) {
                if c.is_alphabetic() || c == '_' {
                    self.bump();
                    self.bump();
                }
            }
        }
        while let Some(c) = self.peek(0) {
            if c.is_alphanumeric() || c == '_' {
                text.push(c);
                self.bump();
            } else {
                break;
            }
        }
        self.push(TokenKind::Ident, text, line, col);
    }

    fn number(&mut self, line: u32, col: u32) {
        let mut text = String::new();
        while let Some(c) = self.peek(0) {
            if c.is_alphanumeric() || c == '_' {
                text.push(c);
                self.bump();
            } else if c == '.' {
                // Consume the dot only for a fractional part: `2.0` is one
                // number, `0..n` and `2.sqrt()` are not.
                match self.peek(1) {
                    Some(d) if d.is_ascii_digit() => {
                        text.push(c);
                        self.bump();
                    }
                    _ => break,
                }
            } else {
                break;
            }
        }
        self.push(TokenKind::Number, text, line, col);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(src: &str) -> Vec<(TokenKind, String)> {
        lex(src).into_iter().map(|t| (t.kind, t.text)).collect()
    }

    #[test]
    fn idents_and_punct() {
        let toks = kinds("let x = a.iter();");
        assert_eq!(toks[0], (TokenKind::Ident, "let".into()));
        assert_eq!(toks[1], (TokenKind::Ident, "x".into()));
        assert_eq!(toks[3], (TokenKind::Ident, "a".into()));
        assert_eq!(toks[4], (TokenKind::Punct, ".".into()));
        assert_eq!(toks[5], (TokenKind::Ident, "iter".into()));
    }

    #[test]
    fn comments_are_tokens_not_code() {
        let toks = lex("// SAFETY: fine\nunsafe {}\n/* HashMap */");
        assert_eq!(toks[0].kind, TokenKind::LineComment);
        assert_eq!(toks[0].text, "SAFETY: fine");
        assert_eq!(toks[1].kind, TokenKind::Ident);
        assert_eq!(toks[1].text, "unsafe");
        assert_eq!(toks.last().unwrap().kind, TokenKind::BlockComment);
        assert_eq!(toks.last().unwrap().text, "HashMap");
    }

    #[test]
    fn strings_hide_their_contents_from_code_scans() {
        let toks = kinds(r#"let s = "HashMap.iter() // not a comment";"#);
        let strs: Vec<_> = toks.iter().filter(|(k, _)| *k == TokenKind::Str).collect();
        assert_eq!(strs.len(), 1);
        assert!(strs[0].1.contains("HashMap"));
        // No Ident token leaked out of the string.
        assert!(!toks
            .iter()
            .any(|(k, t)| *k == TokenKind::Ident && t == "HashMap"));
    }

    #[test]
    fn raw_strings_and_hashes() {
        let toks = kinds(r##"let s = r#"a "quoted" b"#;"##);
        let s = toks.iter().find(|(k, _)| *k == TokenKind::Str).unwrap();
        assert_eq!(s.1, r#"a "quoted" b"#);
    }

    #[test]
    fn lifetimes_vs_char_literals() {
        let toks = kinds("fn f<'a>(x: &'a str) { let c = 'x'; let n = '\\n'; }");
        assert!(toks
            .iter()
            .any(|(k, t)| *k == TokenKind::Lifetime && t == "a"));
        assert!(toks.iter().any(|(k, t)| *k == TokenKind::Char && t == "x"));
        assert!(toks
            .iter()
            .any(|(k, t)| *k == TokenKind::Char && t == "\\n"));
    }

    #[test]
    fn nested_block_comments() {
        let toks = lex("/* outer /* inner */ tail */ x");
        assert_eq!(toks[0].kind, TokenKind::BlockComment);
        assert!(toks[0].text.contains("inner"));
        assert_eq!(toks[1].text, "x");
    }

    #[test]
    fn positions_are_one_based() {
        let toks = lex("a\n  b");
        assert_eq!((toks[0].line, toks[0].col), (1, 1));
        assert_eq!((toks[1].line, toks[1].col), (2, 3));
    }

    #[test]
    fn numbers_do_not_eat_ranges_or_methods() {
        let toks = kinds("0..n 2.0 1.max(3)");
        assert_eq!(toks[0], (TokenKind::Number, "0".into()));
        assert_eq!(toks[1], (TokenKind::Punct, ".".into()));
        assert!(toks.contains(&(TokenKind::Number, "2.0".into())));
        assert!(toks.contains(&(TokenKind::Ident, "max".into())));
    }
}
