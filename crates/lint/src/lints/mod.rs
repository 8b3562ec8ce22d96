//! The per-file lint implementations, one module per registered lint
//! ID. (L005, the suppression audit, lives in [`crate::scan`], where
//! `allow` directives are parsed and applied.)
//!
//! Each lint works over a [`CodeView`]: the token stream with comments
//! filtered out, so code-pattern scans can never match inside a comment
//! or string.

pub mod l001;
pub mod l003;

use crate::lexer::{Token, TokenKind};

/// A comment-free view over a file's tokens, preserving raw indices.
pub struct CodeView<'a> {
    tokens: &'a [Token],
    /// Indices of non-comment tokens in `tokens`.
    code: Vec<usize>,
}

impl<'a> CodeView<'a> {
    /// Builds the view over a full token stream.
    pub fn new(tokens: &'a [Token]) -> Self {
        let code = tokens
            .iter()
            .enumerate()
            .filter(|(_, t)| !t.is_comment())
            .map(|(i, _)| i)
            .collect();
        Self { tokens, code }
    }

    /// Number of code tokens.
    pub fn len(&self) -> usize {
        self.code.len()
    }

    /// `true` when the file has no code tokens.
    pub fn is_empty(&self) -> bool {
        self.code.is_empty()
    }

    /// The `i`-th code token.
    pub fn get(&self, i: usize) -> Option<&Token> {
        self.code.get(i).map(|&ri| &self.tokens[ri])
    }

    /// The text of the `i`-th code token, or "" past the end.
    pub fn text(&self, i: usize) -> &str {
        self.get(i).map(|t| t.text.as_str()).unwrap_or("")
    }

    /// `true` when code token `i` is an identifier equal to `s`.
    pub fn is_ident(&self, i: usize, s: &str) -> bool {
        self.get(i)
            .is_some_and(|t| t.kind == TokenKind::Ident && t.text == s)
    }

    /// `true` when code token `i` is the punctuation `s`.
    pub fn is_punct(&self, i: usize, s: &str) -> bool {
        self.get(i)
            .is_some_and(|t| t.kind == TokenKind::Punct && t.text == s)
    }

    /// `true` when code token `i` is any identifier.
    pub fn is_any_ident(&self, i: usize) -> bool {
        self.get(i).is_some_and(|t| t.kind == TokenKind::Ident)
    }

    /// `true` when code token `i` is a lifetime (`'a`).
    pub fn is_lifetime(&self, i: usize) -> bool {
        self.get(i).is_some_and(|t| t.kind == TokenKind::Lifetime)
    }

    /// Finds the matching close for the open delimiter at code index
    /// `open` (`(`, `[`, or `{`), returning the close's code index.
    pub fn matching_close(&self, open: usize) -> Option<usize> {
        let (o, c) = match self.text(open) {
            "(" => ("(", ")"),
            "[" => ("[", "]"),
            "{" => ("{", "}"),
            _ => return None,
        };
        let mut depth = 0i32;
        for i in open..self.len() {
            if self.is_punct(i, o) {
                depth += 1;
            } else if self.is_punct(i, c) {
                depth -= 1;
                if depth == 0 {
                    return Some(i);
                }
            }
        }
        None
    }
}
