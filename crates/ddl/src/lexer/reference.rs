//! The original character-oriented lexer, kept verbatim as the oracle for
//! the byte-level fast path in the parent module.
//!
//! This implementation is intentionally simple and obviously correct: one
//! `match` per byte, one `bump_char` per character. The fast path in
//! [`crate::lexer`] must produce bit-identical token streams and error
//! spans; `crates/ddl/tests/proptest_lexer_fastpath.rs` holds the two
//! implementations against each other over arbitrary inputs and the
//! faultgen corruption classes. Do not optimize this module — its value is
//! being slow and trustworthy.

use crate::error::{ParseError, Span};
use crate::token::{Token, TokenKind};

/// Reference implementation of [`crate::lexer::tokenize`].
///
/// # Errors
///
/// Unterminated strings, block comments and quoted identifiers produce a
/// [`ParseError`] pointing at the opening delimiter.
pub fn tokenize(input: &str) -> Result<Vec<Token>, ParseError> {
    let (tokens, err) = Lexer::new(input).run();
    match err {
        Some(e) => Err(e),
        None => Ok(tokens),
    }
}

/// Reference implementation of [`crate::lexer::tokenize_recovering`].
pub fn tokenize_recovering(input: &str) -> (Vec<Token>, Option<ParseError>) {
    Lexer::new(input).run()
}

struct Lexer<'s> {
    src: &'s [u8],
    pos: usize,
    tokens: Vec<Token>,
}

impl<'s> Lexer<'s> {
    fn new(input: &'s str) -> Self {
        Lexer {
            src: input.as_bytes(),
            pos: 0,
            tokens: Vec::new(),
        }
    }

    fn peek(&self) -> Option<u8> {
        self.src.get(self.pos).copied()
    }

    fn peek2(&self) -> Option<u8> {
        self.src.get(self.pos + 1).copied()
    }

    fn push(&mut self, kind: TokenKind, start: usize) {
        self.tokens.push(Token::new(kind, Span::new(start, self.pos)));
    }

    fn run(mut self) -> (Vec<Token>, Option<ParseError>) {
        while let Some(b) = self.peek() {
            let start = self.pos;
            let step = match b {
                b' ' | b'\t' | b'\r' | b'\n' | 0x0b | 0x0c => {
                    self.pos += 1;
                    Ok(())
                }
                b'-' if self.peek2() == Some(b'-') => {
                    self.line_comment();
                    Ok(())
                }
                b'#' => {
                    self.line_comment();
                    Ok(())
                }
                b'/' if self.peek2() == Some(b'*') => self.block_comment(start),
                b'\'' => self.string_lit(b'\'', start),
                b'"' => self.string_lit(b'"', start),
                b'`' => self.quoted_ident(b'`', b'`', start),
                b'[' => self.quoted_ident(b'[', b']', start),
                b'(' => {
                    self.pos += 1;
                    self.push(TokenKind::LParen, start);
                    Ok(())
                }
                b')' => {
                    self.pos += 1;
                    self.push(TokenKind::RParen, start);
                    Ok(())
                }
                b',' => {
                    self.pos += 1;
                    self.push(TokenKind::Comma, start);
                    Ok(())
                }
                b';' => {
                    self.pos += 1;
                    self.push(TokenKind::Semicolon, start);
                    Ok(())
                }
                b'=' => {
                    self.pos += 1;
                    self.push(TokenKind::Eq, start);
                    Ok(())
                }
                b'.' if !self.next_is_digit() => {
                    self.pos += 1;
                    self.push(TokenKind::Dot, start);
                    Ok(())
                }
                b'0'..=b'9' => {
                    self.number(start);
                    Ok(())
                }
                b'.' => {
                    self.number(start);
                    Ok(())
                }
                _ if is_ident_start(b) => {
                    self.bare_ident(start);
                    Ok(())
                }
                _ => {
                    // Any other punctuation: emit as Punct so the tolerant
                    // parser can skip it inside statements it ignores.
                    let c = self.bump_char(start);
                    self.push(TokenKind::Punct(c), start);
                    Ok(())
                }
            };
            if let Err(e) = step {
                // Lex errors only fire at end of input, so the accumulated
                // tokens form the complete well-formed prefix.
                return (self.tokens, Some(e));
            }
        }
        (self.tokens, None)
    }

    /// Consume one (possibly multi-byte) character and return it.
    fn bump_char(&mut self, start: usize) -> char {
        // Find the full UTF-8 character beginning at `start`.
        let rest = &self.src[start..];
        let s = std::str::from_utf8(rest).unwrap_or("\u{fffd}");
        let c = s.chars().next().unwrap_or('\u{fffd}');
        self.pos = start + c.len_utf8();
        c
    }

    fn next_is_digit(&self) -> bool {
        matches!(self.peek2(), Some(b'0'..=b'9'))
    }

    fn line_comment(&mut self) {
        while let Some(b) = self.peek() {
            if b == b'\n' {
                break;
            }
            self.pos += 1;
        }
    }

    fn block_comment(&mut self, start: usize) -> Result<(), ParseError> {
        self.pos += 2; // consume `/*`
        let mut depth = 1usize;
        while depth > 0 {
            match self.peek() {
                Some(b'*') if self.peek2() == Some(b'/') => {
                    self.pos += 2;
                    depth -= 1;
                }
                Some(b'/') if self.peek2() == Some(b'*') => {
                    // MySQL does not nest comments but some dumps do; be lenient.
                    self.pos += 2;
                    depth += 1;
                }
                Some(_) => {
                    self.pos += 1;
                }
                None => {
                    return Err(ParseError::lex(
                        "unterminated block comment",
                        Span::new(start, self.pos),
                    ));
                }
            }
        }
        Ok(())
    }

    fn string_lit(&mut self, quote: u8, start: usize) -> Result<(), ParseError> {
        self.pos += 1; // opening quote
        let mut text = String::new();
        loop {
            match self.peek() {
                Some(b'\\') => {
                    // MySQL-style backslash escape: keep the escaped char.
                    self.pos += 1;
                    match self.peek() {
                        Some(_) => {
                            let c = self.bump_char(self.pos);
                            text.push(unescape(c));
                        }
                        None => {
                            return Err(ParseError::lex(
                                "unterminated string literal",
                                Span::new(start, self.pos),
                            ));
                        }
                    }
                }
                Some(b) if b == quote => {
                    if self.peek2() == Some(quote) {
                        // Doubled quote: literal quote character.
                        text.push(quote as char);
                        self.pos += 2;
                    } else {
                        self.pos += 1;
                        break;
                    }
                }
                Some(_) => {
                    let c = self.bump_char(self.pos);
                    text.push(c);
                }
                None => {
                    return Err(ParseError::lex(
                        "unterminated string literal",
                        Span::new(start, self.pos),
                    ));
                }
            }
        }
        // A double-quoted token is ambiguous: MySQL treats `"x"` as a string,
        // ANSI SQL as an identifier. We emit double-quoted text as a quoted
        // identifier when it looks like one, because DDL dumps overwhelmingly
        // use `"name"` in the identifier position. Single quotes are always
        // string literals.
        if quote == b'"' && looks_like_identifier(&text) {
            self.push(TokenKind::QuotedIdent(text.into()), start);
        } else {
            self.push(TokenKind::StringLit(text.into()), start);
        }
        Ok(())
    }

    fn quoted_ident(&mut self, open: u8, close: u8, start: usize) -> Result<(), ParseError> {
        self.pos += 1; // opening delimiter
        let mut text = String::new();
        loop {
            match self.peek() {
                Some(b) if b == close => {
                    if close == open && self.peek2() == Some(close) {
                        // Doubled backquote inside a backquoted name.
                        text.push(close as char);
                        self.pos += 2;
                    } else {
                        self.pos += 1;
                        break;
                    }
                }
                Some(_) => {
                    let c = self.bump_char(self.pos);
                    text.push(c);
                }
                None => {
                    return Err(ParseError::lex(
                        "unterminated quoted identifier",
                        Span::new(start, self.pos),
                    ));
                }
            }
        }
        self.push(TokenKind::QuotedIdent(text.into()), start);
        Ok(())
    }

    fn number(&mut self, start: usize) {
        let mut seen_dot = false;
        let mut seen_exp = false;
        // Hex literal.
        if self.peek() == Some(b'0') && matches!(self.peek2(), Some(b'x') | Some(b'X')) {
            self.pos += 2;
            while matches!(self.peek(), Some(b) if b.is_ascii_hexdigit()) {
                self.pos += 1;
            }
            let text = String::from_utf8_lossy(&self.src[start..self.pos]).into_owned();
            self.push(TokenKind::Number(text.into()), start);
            return;
        }
        while let Some(b) = self.peek() {
            match b {
                b'0'..=b'9' => self.pos += 1,
                b'.' if !seen_dot && !seen_exp => {
                    seen_dot = true;
                    self.pos += 1;
                }
                b'e' | b'E' if !seen_exp => {
                    // Only an exponent if followed by digit or sign+digit.
                    let next = self.peek2();
                    let after_sign = self.src.get(self.pos + 2).copied();
                    let is_exp = matches!(next, Some(b'0'..=b'9'))
                        || (matches!(next, Some(b'+') | Some(b'-'))
                            && matches!(after_sign, Some(b'0'..=b'9')));
                    if is_exp {
                        seen_exp = true;
                        self.pos += 1;
                        if matches!(self.peek(), Some(b'+') | Some(b'-')) {
                            self.pos += 1;
                        }
                    } else {
                        break;
                    }
                }
                _ => break,
            }
        }
        let text = String::from_utf8_lossy(&self.src[start..self.pos]).into_owned();
        self.push(TokenKind::Number(text.into()), start);
    }

    fn bare_ident(&mut self, start: usize) {
        while let Some(b) = self.peek() {
            if is_ident_continue(b) {
                self.pos += 1;
            } else if b >= 0x80 {
                // Non-ASCII identifier characters (MySQL permits them).
                self.bump_char(self.pos);
            } else {
                break;
            }
        }
        let text = String::from_utf8_lossy(&self.src[start..self.pos]).into_owned();
        self.push(TokenKind::Ident(text.into()), start);
    }
}

fn is_ident_start(b: u8) -> bool {
    b.is_ascii_alphabetic() || b == b'_' || b == b'$' || b >= 0x80
}

fn is_ident_continue(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b == b'_' || b == b'$'
}

fn looks_like_identifier(s: &str) -> bool {
    !s.is_empty()
        && s.bytes().next().map(is_ident_start).unwrap_or(false)
        && s.bytes().all(|b| is_ident_continue(b) || b >= 0x80)
}

fn unescape(c: char) -> char {
    match c {
        'n' => '\n',
        't' => '\t',
        'r' => '\r',
        '0' => '\0',
        other => other,
    }
}
