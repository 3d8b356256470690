//! Token model produced by the [`crate::lexer`].

use crate::error::Span;
use std::fmt;
use std::ops::Deref;

/// The text of an identifier, string or number token, read as a `str`.
///
/// Up to [`Text::INLINE`] bytes are held in the token itself, so the short
/// names, keywords and numbers that make up most of a DDL file lex without
/// a heap allocation; longer text is boxed.
#[derive(Clone, PartialEq, Eq)]
pub struct Text(Repr);

/// Text of at most [`Text::INLINE`] bytes is always inline, so equal text
/// has one representation and the derived equality is the text's.
#[derive(Clone, PartialEq, Eq)]
enum Repr {
    Inline(u8, [u8; Text::INLINE]),
    Heap(Box<str>),
}

impl Text {
    /// The longest text held inline.
    pub const INLINE: usize = 22;

    /// The token text `s`.
    pub fn new(s: &str) -> Text {
        if s.len() <= Text::INLINE {
            let mut bytes = [0; Text::INLINE];
            bytes[..s.len()].copy_from_slice(s.as_bytes());
            Text(Repr::Inline(s.len() as u8, bytes))
        } else {
            Text(Repr::Heap(s.into()))
        }
    }

    /// The text.
    pub fn as_str(&self) -> &str {
        match &self.0 {
            // Inline bytes are always whole UTF-8: they were copied from a
            // `str`, so the empty fallback is never taken.
            Repr::Inline(..) => std::str::from_utf8(self.as_bytes()).unwrap_or_default(),
            Repr::Heap(s) => s,
        }
    }

    /// The text's bytes, without the UTF-8 check [`Text::as_str`] makes.
    pub fn as_bytes(&self) -> &[u8] {
        match &self.0 {
            Repr::Inline(len, bytes) => &bytes[..usize::from(*len)],
            Repr::Heap(s) => s.as_bytes(),
        }
    }

    /// Whether the text equals `other` up to ASCII case, as
    /// [`str::eq_ignore_ascii_case`] compares.
    pub fn eq_ignore_ascii_case(&self, other: &str) -> bool {
        self.as_bytes().eq_ignore_ascii_case(other.as_bytes())
    }
}

impl Deref for Text {
    type Target = str;

    fn deref(&self) -> &str {
        self.as_str()
    }
}

impl From<&str> for Text {
    fn from(s: &str) -> Text {
        Text::new(s)
    }
}

impl From<String> for Text {
    fn from(s: String) -> Text {
        Text::new(&s)
    }
}

impl fmt::Display for Text {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(self.as_str(), f)
    }
}

impl fmt::Debug for Text {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self.as_str(), f)
    }
}

/// The kind of a lexed token.
///
/// Keywords are *not* distinguished at the lexer level: SQL keywords are not
/// reserved in the dialects we mine (MySQL allows `` `order` `` as a table
/// name and even unquoted non-reserved keywords as identifiers), so the
/// parser matches identifier text case-insensitively where a keyword is
/// required.
#[derive(Debug, Clone, PartialEq)]
pub enum TokenKind {
    /// A bare (unquoted) identifier or keyword, e.g. `CREATE`, `users`.
    Ident(Text),
    /// A quoted identifier with its quoting removed: `` `order` ``,
    /// `"order"` (ANSI), or `[order]` (SQL Server).
    QuotedIdent(Text),
    /// A single- or double-quoted string literal, unescaped.
    StringLit(Text),
    /// A numeric literal, kept verbatim (e.g. `11`, `10.5`, `0xFF`).
    Number(Text),
    /// `(`
    LParen,
    /// `)`
    RParen,
    /// `,`
    Comma,
    /// `;`
    Semicolon,
    /// `.`
    Dot,
    /// `=`
    Eq,
    /// Any other single punctuation/operator character the parser may skip
    /// (`+`, `-`, `*`, `/`, `<`, `>`, `@`, `:`, `!`, `%`, `&`, `|`, `^`, `~`, `?`).
    Punct(char),
}

impl TokenKind {
    /// Return the identifier text (bare or quoted), if this token is one.
    pub fn ident_text(&self) -> Option<&str> {
        match self {
            TokenKind::Ident(s) | TokenKind::QuotedIdent(s) => Some(s.as_str()),
            _ => None,
        }
    }

    /// True if this token is a bare identifier equal to `kw`
    /// case-insensitively. Quoted identifiers never match keywords.
    pub fn is_keyword(&self, kw: &str) -> bool {
        match self {
            TokenKind::Ident(s) => s.eq_ignore_ascii_case(kw),
            _ => false,
        }
    }

    /// Short human description used in error messages.
    pub fn describe(&self) -> String {
        match self {
            TokenKind::Ident(s) => format!("identifier `{s}`"),
            TokenKind::QuotedIdent(s) => format!("quoted identifier `{s}`"),
            TokenKind::StringLit(_) => "string literal".to_string(),
            TokenKind::Number(n) => format!("number `{n}`"),
            TokenKind::LParen => "'('".to_string(),
            TokenKind::RParen => "')'".to_string(),
            TokenKind::Comma => "','".to_string(),
            TokenKind::Semicolon => "';'".to_string(),
            TokenKind::Dot => "'.'".to_string(),
            TokenKind::Eq => "'='".to_string(),
            TokenKind::Punct(c) => format!("'{c}'"),
        }
    }
}

/// A token together with its source [`Span`].
#[derive(Debug, Clone, PartialEq)]
pub struct Token {
    /// What kind of token this is, including any payload text.
    pub kind: TokenKind,
    /// Where in the source the token came from.
    pub span: Span,
}

impl Token {
    /// Construct a token.
    pub fn new(kind: TokenKind, span: Span) -> Self {
        Token { kind, span }
    }
}

impl fmt::Display for Token {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.kind.describe())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn keyword_matching_is_case_insensitive() {
        let t = TokenKind::Ident("CrEaTe".into());
        assert!(t.is_keyword("create"));
        assert!(t.is_keyword("CREATE"));
        assert!(!t.is_keyword("table"));
    }

    #[test]
    fn quoted_identifiers_are_never_keywords() {
        let t = TokenKind::QuotedIdent("create".into());
        assert!(!t.is_keyword("create"));
        assert_eq!(t.ident_text(), Some("create"));
    }

    #[test]
    fn text_reads_back_inline_and_boxed() {
        let inline = "a".repeat(Text::INLINE);
        let boxed = "a".repeat(Text::INLINE + 1);
        for s in ["", "users", "größe", inline.as_str(), boxed.as_str()] {
            let t = Text::new(s);
            assert_eq!(t.as_str(), s);
            assert_eq!(t.as_bytes(), s.as_bytes());
            assert_eq!(t, Text::from(s.to_string()));
            assert_eq!(format!("{t:?}"), format!("{s:?}"));
        }
        assert_ne!(Text::new(&inline), Text::new(&boxed));
        assert!(Text::new("NoT").eq_ignore_ascii_case("not"));
    }

    #[test]
    fn describe_is_stable() {
        assert_eq!(TokenKind::LParen.describe(), "'('");
        assert_eq!(TokenKind::Ident("x".into()).describe(), "identifier `x`");
        assert_eq!(TokenKind::Number("11".into()).describe(), "number `11`");
    }
}
