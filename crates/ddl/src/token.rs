//! Token model produced by the [`crate::lexer`].

use crate::error::Span;
use serde::de::{Deserialize, Error};
use serde::ser::Serialize;
use serde::value::Value;
use std::borrow::Borrow;
use std::cmp::Ordering;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::ops::Deref;

/// The text of an identifier, string or number token, read as a `str`.
///
/// Up to [`Text::INLINE`] bytes are held in the token itself, so the short
/// names, keywords and numbers that make up most of a DDL file lex without
/// a heap allocation; longer text is boxed. The parser and the schema
/// model keep names as `Text` too (column names, type names, key lists and
/// the keys of a table's name index), so a name moves from its token into
/// a `Table` without a heap allocation.
///
/// It compares, orders and hashes as its `str` does and borrows as one, so
/// a map keyed by `Text` is probed with a `&str`; it serializes as a
/// string.
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

    /// The concatenation of `parts`, without a heap allocation when it
    /// fits inline.
    pub fn concat(parts: &[&str]) -> Text {
        let len: usize = parts.iter().map(|p| p.len()).sum();
        if len > Text::INLINE {
            return Text::from(parts.concat());
        }
        let mut bytes = [0; Text::INLINE];
        let mut at = 0;
        for p in parts {
            bytes[at..at + p.len()].copy_from_slice(p.as_bytes());
            at += p.len();
        }
        Text(Repr::Inline(len as u8, bytes))
    }

    /// `s` with its ASCII letters uppercased, as
    /// [`str::to_ascii_uppercase`] returns it.
    pub fn upper(s: &str) -> Text {
        let mut t = Text::new(s);
        t.make_ascii_uppercase();
        t
    }

    /// Uppercase the text's ASCII letters in place.
    pub fn make_ascii_uppercase(&mut self) {
        match &mut self.0 {
            Repr::Inline(len, bytes) => bytes[..usize::from(*len)].make_ascii_uppercase(),
            Repr::Heap(s) => s.make_ascii_uppercase(),
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

impl Hash for Text {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.as_str().hash(state)
    }
}

impl Borrow<str> for Text {
    fn borrow(&self) -> &str {
        self.as_str()
    }
}

impl AsRef<str> for Text {
    fn as_ref(&self) -> &str {
        self.as_str()
    }
}

impl PartialOrd for Text {
    fn partial_cmp(&self, other: &Text) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Text {
    fn cmp(&self, other: &Text) -> Ordering {
        self.as_str().cmp(other.as_str())
    }
}

/// `Text` compares equal to the strings it reads as, from either side.
macro_rules! eq_str {
    ($($t:ty),*) => {$(
        impl PartialEq<$t> for Text {
            fn eq(&self, other: &$t) -> bool {
                self.as_str() == AsRef::<str>::as_ref(other)
            }
        }

        impl PartialEq<Text> for $t {
            fn eq(&self, other: &Text) -> bool {
                AsRef::<str>::as_ref(self) == other.as_str()
            }
        }
    )*};
}
eq_str!(str, &str, String);

impl Serialize for Text {
    fn to_value(&self) -> Value {
        Value::Str(self.as_str().to_owned())
    }
}

impl Deserialize for Text {
    fn from_value(v: &Value) -> Result<Text, Error> {
        match v {
            Value::Str(s) => Ok(Text::new(s)),
            _ => Err(Error::new("expected string")),
        }
    }
}

impl From<&str> for Text {
    fn from(s: &str) -> Text {
        Text::new(s)
    }
}

impl From<String> for Text {
    fn from(s: String) -> Text {
        if s.len() <= Text::INLINE {
            Text::new(&s)
        } else {
            Text(Repr::Heap(s.into_boxed_str()))
        }
    }
}

impl From<Text> for String {
    fn from(t: Text) -> String {
        match t.0 {
            Repr::Inline(..) => t.as_str().to_owned(),
            Repr::Heap(s) => s.into_string(),
        }
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
    fn text_built_in_place_keeps_the_bytes_a_string_would_hold() {
        use std::collections::hash_map::DefaultHasher;
        use std::collections::HashMap;

        let long = "naïve_café_ünïcödé_名前_long";
        assert!(long.len() > Text::INLINE);
        let parts = [
            ["größe", "_", "本表"],
            ["a_column_name", "_", "longer_than_22_bytes"],
            ["", "", ""],
        ];
        for p in parts {
            let joined = p.concat();
            assert_eq!(Text::concat(&p), joined.as_str());
            assert_eq!(Text::concat(&p), Text::new(&joined));
        }
        for s in [
            "VarChar",
            "dOuBlE",
            "größe_ß",
            long,
            "an_extraordinarily_long_user_type_name",
        ] {
            let upper = Text::upper(s);
            assert_eq!(upper, s.to_ascii_uppercase());
            assert_eq!(String::from(upper.clone()), s.to_ascii_uppercase());
            let hash = |h: &dyn Fn(&mut DefaultHasher)| {
                let mut state = DefaultHasher::new();
                h(&mut state);
                state.finish()
            };
            assert_eq!(
                hash(&|st| upper.hash(st)),
                hash(&|st| upper.as_str().hash(st))
            );
        }
        let mut index: HashMap<Text, usize> = HashMap::new();
        index.insert(Text::new(long), 0);
        index.insert(Text::from("größe".to_string()), 1);
        assert_eq!(index.get(long), Some(&0));
        assert_eq!(index.get("größe"), Some(&1));
        assert_eq!(index.get("GRÖSSE"), None);
        let mut sorted = [
            Text::new(long),
            Text::new("größe"),
            Text::new("Z"),
            Text::new("a"),
        ];
        sorted.sort();
        let mut strings = sorted.clone().map(String::from);
        strings.sort();
        assert_eq!(sorted, strings);
    }

    #[test]
    fn describe_is_stable() {
        assert_eq!(TokenKind::LParen.describe(), "'('");
        assert_eq!(TokenKind::Ident("x".into()).describe(), "identifier `x`");
        assert_eq!(TokenKind::Number("11".into()).describe(), "number `11`");
    }
}
