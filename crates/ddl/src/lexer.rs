//! A byte-oriented SQL lexer with full comment, string and quoted-identifier
//! handling.
//!
//! The lexer is deliberately permissive: real-world `schema.sql` dumps carry
//! vendor directives (`/*!40101 SET ... */`), `#` comments, Windows line
//! endings, and stray punctuation. All of it must tokenize so that the
//! tolerant parser can decide what to keep.
//!
//! # Fast path
//!
//! Tokenization is the single hottest operation in the mining pipeline
//! (every schema version of every repository is lexed at least once), so
//! this module is written as a byte-level fast path:
//!
//! - a 256-entry ASCII dispatch table ([`CLASS`]) classifies each leading
//!   byte in one load instead of a cascading `match` with lookahead guards;
//! - runs of whitespace, identifier characters, comments and string bodies
//!   are consumed with memchr-style SWAR scans ([`memchr1`]/[`memchr2`])
//!   that examine eight bytes per iteration rather than one character at a
//!   time;
//! - string and quoted-identifier bodies are copied out in whole chunks
//!   between escape characters instead of `char`-by-`char`.
//!
//! The original character-oriented implementation is preserved unchanged in
//! [`reference`] and serves as the oracle: the proptest battery in
//! `crates/ddl/tests/proptest_lexer_fastpath.rs` checks both lexers produce
//! bit-identical token streams and error spans on arbitrary inputs.
//!
//! # Lexing an edit
//!
//! [`tokenize_edit`] lexes the next version of a text from the tokens of
//! the previous one, touching only the statements that changed. Call an
//! *old statement* the old bytes from just after one `;` token (or from
//! the start) through the next `;` token. The edit keeps the old tokens
//! through the last `;` token that ends at or before the first differing
//! byte, and runs the same lexer loop from there. At that point, and after
//! every `;` the loop emits, it looks for old statements that the new
//! bytes from there repeat byte for byte:
//!
//! - the old statement after the last one taken over, and the next few
//!   after it (an edited, inserted or deleted statement is then passed);
//! - inside the suffix both texts share, the old statement at the
//!   matching old offset (an edit that deleted many statements at once).
//!
//! On a match it takes the old tokens of every old statement repeated in a
//! row from there over, their spans shifted, and continues lexing after
//! them. When the repeated bytes run to the end of both texts, it takes the
//! rest of the old tokens, a final statement with no `;` included.
//!
//! This gives exactly [`tokenize`]'s tokens because the lexer carries no
//! state from one token to the next and a `;` is one byte with no
//! lookahead: whatever follows a `;` token lexes the same way whatever
//! preceded it. No token before a `;` token looks past that `;` (it ends
//! any token it does not belong to), so the tokens of an old statement
//! depend on its bytes alone. New bytes equal to them, starting right
//! after a `;` token too, lex to the same tokens at shifted offsets, and
//! end in the same state: right after a `;`. So the kept prefix, each
//! statement taken over and each stretch lexed again are all what a whole
//! lex produces there. Lex errors are only raised at end of input, and a
//! statement taken over lexed without one, so a version that fails to lex
//! fails exactly where [`tokenize`] fails.
//!
//! Taken-over tokens stay in the previous version's buffer and are shifted
//! where they lie. They move only when an edit changed the token count
//! before them, once per resync; after a stretch lexed again that is
//! longer than what is left of the old stream, the few left are appended
//! to the tokens lexed instead.

use crate::error::{ParseError, Span};
use crate::token::{Text, Token, TokenKind};

#[doc(hidden)]
pub mod reference;

/// Tokenize a whole SQL script.
///
/// Comments (`-- ...`, `# ...`, `/* ... */`) and whitespace are consumed and
/// not emitted. MySQL "executable comments" (`/*! ... */`) are also dropped:
/// the study treats the directives they carry as non-logical content.
///
/// # Errors
///
/// Unterminated strings, unterminated block comments, and unterminated quoted
/// identifiers produce a [`ParseError`] pointing at the opening delimiter.
pub fn tokenize(input: &str) -> Result<Vec<Token>, ParseError> {
    let (tokens, err) = Lexer::new(input).run();
    match err {
        Some(e) => Err(e),
        None => Ok(tokens),
    }
}

/// Tokenize `sql`, the next version of `prev`, reusing `prev_tokens`.
///
/// `prev_tokens` must be what [`tokenize`] returned for `prev`. The result
/// is exactly what [`tokenize`] returns for `sql`, `Ok` and `Err` alike;
/// only the statements an edit touched are lexed again, and the old tokens
/// of every statement the new text repeats are moved over, not cloned. See
/// the [module docs](self) for why this holds.
///
/// # Errors
///
/// Exactly those of [`tokenize`] on `sql`.
pub fn tokenize_edit(
    prev: &str,
    prev_tokens: Vec<Token>,
    sql: &str,
) -> Result<Vec<Token>, ParseError> {
    lex_edit(prev, prev_tokens, sql, &mut Carried::default())
}

/// A run of tokens that [`tokenize_edit`] took over from the previous
/// version instead of lexing: new tokens `new..new + len` are old tokens
/// `old..old + len`, their spans shifted. A run starts right after a `;`
/// token (or at the start) and ends with a `;` token or at the end of the
/// text, so an old statement whose first token a run took over has its
/// first `;` in that run too.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Run {
    pub(crate) new: usize,
    pub(crate) old: usize,
    pub(crate) len: usize,
}

/// What one [`lex_edit`] took over from the previous version.
#[derive(Debug, Default)]
pub(crate) struct Carried {
    /// The runs, in new-stream order; their old indices ascend too.
    pub(crate) runs: Vec<Run>,
    /// Bytes of the new text those runs cover, whitespace and comments
    /// between their tokens included; the rest was lexed.
    pub(crate) bytes: usize,
}

impl Carried {
    fn push(&mut self, run: Run, bytes: usize) {
        self.runs.push(run);
        self.bytes += bytes;
    }
}

/// How many old statements, from the first not yet taken over, a resync
/// tries at each `;`.
const WINDOW: usize = 8;

/// [`tokenize_edit`], recording in `carried` what it took over.
pub(crate) fn lex_edit(
    prev: &str,
    prev_tokens: Vec<Token>,
    sql: &str,
    carried: &mut Carried,
) -> Result<Vec<Token>, ParseError> {
    carried.runs.clear();
    carried.bytes = 0;
    let (old, new) = (prev.as_bytes(), sql.as_bytes());
    let prefix = common_prefix(old, new);
    if prefix == old.len() && prefix == new.len() {
        let len = prev_tokens.len();
        carried.push(
            Run {
                new: 0,
                old: 0,
                len,
            },
            new.len(),
        );
        return Ok(prev_tokens);
    }
    let ended = prev_tokens.partition_point(|t| t.span.end <= prefix);
    let keep = prev_tokens[..ended]
        .iter()
        .rposition(|t| t.kind == TokenKind::Semicolon)
        .map_or(0, |i| i + 1);
    let at = prev_tokens[..keep].last().map_or(0, |t| t.span.end);
    if keep > 0 {
        carried.push(
            Run {
                new: 0,
                old: 0,
                len: keep,
            },
            at,
        );
    }
    let mut r = Resync {
        old,
        buf: prev_tokens,
        w: keep,
        r: keep,
        next: keep,
        at,
        suffix: new.len() - common_suffix(&old[prefix..], &new[prefix..]),
        shift: new.len() as isize - old.len() as isize,
        window: Vec::with_capacity(WINDOW),
        carried: std::mem::take(carried),
    };
    // Sized as a whole lex of the rest would be: after a rewrite, the
    // tokens lexed are most of the stream.
    let mut lexer = Lexer {
        src: new,
        pos: at,
        tokens: Vec::with_capacity((new.len() - at) / 6 + 4),
        scratch: String::new(),
    };
    lexer.resync(&mut r);
    let err = lexer.lex(Some(&mut r));
    *carried = r.carried;
    match err {
        // Nothing was taken over: the tokens lexed are the whole stream.
        None if r.w == 0 => Ok(lexer.tokens),
        None => {
            r.buf.truncate(r.w);
            r.buf.append(&mut lexer.tokens);
            Ok(r.buf)
        }
        Some(e) => Err(e),
    }
}

/// Length of the longest common suffix of `a` and `b`.
fn common_suffix(a: &[u8], b: &[u8]) -> usize {
    const CHUNK: usize = 64;
    let n = a.len().min(b.len());
    let (a, b) = (&a[a.len() - n..], &b[b.len() - n..]);
    let mut i = 0;
    while i + CHUNK <= n && a[n - i - CHUNK..n - i] == b[n - i - CHUNK..n - i] {
        i += CHUNK;
    }
    while i < n && a[n - i - 1] == b[n - i - 1] {
        i += 1;
    }
    i
}

/// Length of the longest common prefix of `a` and `b`.
fn common_prefix(a: &[u8], b: &[u8]) -> usize {
    const CHUNK: usize = 64;
    let n = a.len().min(b.len());
    let mut i = 0;
    // Whole chunks compare as one `memcmp`; the differing chunk bytewise.
    while i + CHUNK <= n && a[i..i + CHUNK] == b[i..i + CHUNK] {
        i += CHUNK;
    }
    while i < n && a[i] == b[i] {
        i += 1;
    }
    i
}

/// Tokenize as much of a script as possible.
///
/// Every lex error in this lexer is terminal — it is only raised when the
/// input ends inside an unterminated string, comment, or quoted identifier —
/// so the tokens accumulated before the error are exactly the tokens of the
/// well-formed prefix. Returns that prefix together with the error, if any.
/// On clean input this is identical to [`tokenize`].
pub fn tokenize_recovering(input: &str) -> (Vec<Token>, Option<ParseError>) {
    Lexer::new(input).run()
}

// Byte classes for the leading-byte dispatch table. Each input byte maps to
// exactly one class; the lexer's main loop is a single table load plus a
// jump, with no lookahead needed to pick the handler.
const CL_PUNCT: u8 = 0; // fallback: emit as Punct
const CL_WS: u8 = 1; // space, \t, \r, \n, VT, FF
const CL_IDENT: u8 = 2; // ASCII alpha, `_`, `$`, and all bytes >= 0x80
const CL_DIGIT: u8 = 3; // 0-9
const CL_LPAREN: u8 = 4;
const CL_RPAREN: u8 = 5;
const CL_COMMA: u8 = 6;
const CL_SEMI: u8 = 7;
const CL_EQ: u8 = 8;
const CL_DOT: u8 = 9; // Dot token or leading-dot number
const CL_MINUS: u8 = 10; // `--` line comment or Punct('-')
const CL_HASH: u8 = 11; // `#` line comment
const CL_SLASH: u8 = 12; // `/*` block comment or Punct('/')
const CL_SQUOTE: u8 = 13; // string literal
const CL_DQUOTE: u8 = 14; // string literal or ANSI quoted identifier
const CL_BACKQ: u8 = 15; // backquoted identifier
const CL_LBRACK: u8 = 16; // T-SQL bracket-quoted identifier

const fn build_class_table() -> [u8; 256] {
    let mut t = [CL_PUNCT; 256];
    let mut i = 0usize;
    while i < 256 {
        let b = i as u8;
        t[i] = match b {
            b' ' | b'\t' | b'\r' | b'\n' | 0x0b | 0x0c => CL_WS,
            b'a'..=b'z' | b'A'..=b'Z' | b'_' | b'$' => CL_IDENT,
            b'0'..=b'9' => CL_DIGIT,
            b'(' => CL_LPAREN,
            b')' => CL_RPAREN,
            b',' => CL_COMMA,
            b';' => CL_SEMI,
            b'=' => CL_EQ,
            b'.' => CL_DOT,
            b'-' => CL_MINUS,
            b'#' => CL_HASH,
            b'/' => CL_SLASH,
            b'\'' => CL_SQUOTE,
            b'"' => CL_DQUOTE,
            b'`' => CL_BACKQ,
            b'[' => CL_LBRACK,
            _ => {
                if b >= 0x80 {
                    CL_IDENT // MySQL permits non-ASCII identifier bytes
                } else {
                    CL_PUNCT
                }
            }
        };
        i += 1;
    }
    t
}

/// Leading-byte dispatch table: byte value → token class.
static CLASS: [u8; 256] = build_class_table();

// Identifier-continuation lookup: true for ASCII alnum, `_`, `$`. Non-ASCII
// continuation bytes are handled separately (they advance by UTF-8 width).
const fn build_ident_cont_table() -> [bool; 256] {
    let mut t = [false; 256];
    let mut i = 0usize;
    while i < 256 {
        let b = i as u8;
        t[i] = matches!(b, b'a'..=b'z' | b'A'..=b'Z' | b'0'..=b'9' | b'_' | b'$');
        i += 1;
    }
    t
}

static IDENT_CONT: [bool; 256] = build_ident_cont_table();

// ---- memchr-style SWAR scanning -----------------------------------------
//
// The vendored dependency set has no `memchr` crate, so the classic
// word-at-a-time trick is implemented here: read eight bytes as a `u64`,
// XOR with the needle splatted across all lanes, and detect a zero lane
// with the `(x - 0x01..) & !x & 0x80..` bit test. Only the hit chunk is
// re-scanned bytewise.

const SWAR_LO: u64 = 0x0101_0101_0101_0101;
const SWAR_HI: u64 = 0x8080_8080_8080_8080;

#[inline(always)]
fn contains_zero_byte(x: u64) -> bool {
    x.wrapping_sub(SWAR_LO) & !x & SWAR_HI != 0
}

#[inline(always)]
fn splat(b: u8) -> u64 {
    u64::from(b) * SWAR_LO
}

/// Index of the first occurrence of `needle` in `hay`, if any.
#[inline]
fn memchr1(needle: u8, hay: &[u8]) -> Option<usize> {
    let n = splat(needle);
    let mut i = 0usize;
    while i + 8 <= hay.len() {
        let chunk = u64::from_ne_bytes([
            hay[i],
            hay[i + 1],
            hay[i + 2],
            hay[i + 3],
            hay[i + 4],
            hay[i + 5],
            hay[i + 6],
            hay[i + 7],
        ]);
        if contains_zero_byte(chunk ^ n) {
            break;
        }
        i += 8;
    }
    while i < hay.len() {
        if hay[i] == needle {
            return Some(i);
        }
        i += 1;
    }
    None
}

/// Index of the first occurrence of `a` or `b` in `hay`, if any.
#[inline]
fn memchr2(a: u8, b: u8, hay: &[u8]) -> Option<usize> {
    let na = splat(a);
    let nb = splat(b);
    let mut i = 0usize;
    while i + 8 <= hay.len() {
        let chunk = u64::from_ne_bytes([
            hay[i],
            hay[i + 1],
            hay[i + 2],
            hay[i + 3],
            hay[i + 4],
            hay[i + 5],
            hay[i + 6],
            hay[i + 7],
        ]);
        if contains_zero_byte(chunk ^ na) || contains_zero_byte(chunk ^ nb) {
            break;
        }
        i += 8;
    }
    while i < hay.len() {
        if hay[i] == a || hay[i] == b {
            return Some(i);
        }
        i += 1;
    }
    None
}

/// Byte width of the UTF-8 character whose lead byte is `b`.
///
/// The lexer only receives `&str` input, so lead bytes are always valid;
/// the `_ => 1` arm keeps the function total without panicking.
#[inline(always)]
fn utf8_width(b: u8) -> usize {
    match b {
        0x00..=0x7f => 1,
        0xc0..=0xdf => 2,
        0xe0..=0xef => 3,
        _ => 4,
    }
}

struct Lexer<'s> {
    src: &'s [u8],
    pos: usize,
    /// The tokens lexed; when lexing an edit, those lexed since the last
    /// resync.
    tokens: Vec<Token>,
    /// Where a quoted token's unescaped text is put together; reused, so
    /// only text too long to be held inline allocates.
    scratch: String,
}

/// When lexing an edit ([`tokenize_edit`]): the part of the previous
/// version's token stream that may still be reused.
struct Resync<'s> {
    /// The previous version's text.
    old: &'s [u8],
    /// The start of the new stream, `buf[..w]`, which the lexer's tokens
    /// continue; then old tokens passed over, to be replaced by those;
    /// then, from `r` on, the old tokens not yet taken over or passed, in
    /// old offsets. It starts as the previous version's tokens, so tokens
    /// taken over stay where they are unless an edit changed the token
    /// count before them.
    buf: Vec<Token>,
    w: usize,
    r: usize,
    /// Index in the old stream of `buf[r]`.
    next: usize,
    /// Old offset where `buf[r..]` starts: right after a `;` token, or 0.
    at: usize,
    /// Offset in the new text where the suffix it shares with the old one
    /// starts, and new length minus old length: how far a byte of that
    /// suffix moved.
    suffix: usize,
    shift: isize,
    /// The old statements a resync tries first: the one at `at` and the
    /// ones after it. Empty until needed, and again after every take.
    window: Vec<Candidate>,
    /// What was taken over so far.
    carried: Carried,
}

/// An old statement that the new text may repeat at a resync point.
#[derive(Clone, Copy)]
struct Candidate {
    /// Its old offset: right after a `;` token, or 0.
    from: usize,
    /// The index in `buf[r..]` of its first token.
    i: usize,
    /// The old offset right after its `;` token; `None` for the end of a
    /// text that has no `;` after `from`.
    to: Option<usize>,
}

/// Old tokens to take over at a resync point.
struct Take {
    /// Tokens of `buf[r..]` passed over before the first one taken.
    skip: usize,
    /// Tokens taken.
    len: usize,
    /// Old offsets of the taken bytes: right after a `;` token (or 0)
    /// through the end of the last `;` token taken, or of the old text.
    from: usize,
    to: usize,
}

impl Resync<'_> {
    /// Old statements that the new text repeats from new offset `p`, which
    /// lies right after a `;` token or where lexing restarted.
    fn find(&mut self, new: &[u8], p: usize) -> Option<Take> {
        if self.window.is_empty() {
            let (mut from, mut i) = (self.at, 0);
            for (k, t) in self.buf[self.r..].iter().enumerate() {
                if t.kind == TokenKind::Semicolon {
                    let to = Some(t.span.end);
                    self.window.push(Candidate { from, i, to });
                    if self.window.len() == WINDOW {
                        break;
                    }
                    (from, i) = (t.span.end, k + 1);
                }
            }
            if self.window.len() < WINDOW {
                self.window.push(Candidate { from, i, to: None });
            }
        }
        if let Some(take) = (self.window.iter()).find_map(|&c| self.agree(new, p, c)) {
            return Some(take);
        }
        // Inside the suffix both texts share, at an offset where the old
        // text had a `;` token too, everything after lexes as it did:
        // reached after an edit that deleted more statements than the
        // window holds.
        if p < self.suffix {
            return None;
        }
        let from = p.checked_add_signed(-self.shift)?;
        let rest = &self.buf[self.r..];
        let i = rest.partition_point(|t| t.span.end < from);
        let semi = rest.get(i)?;
        let to = self.old.len();
        (semi.span.end == from && semi.kind == TokenKind::Semicolon).then(|| Take {
            skip: i + 1,
            len: rest.len() - i - 1,
            from,
            to,
        })
    }

    /// Whether the new bytes from `p` repeat the old statement `c` through
    /// its `;`: if so, every old statement they repeat in a row from there.
    fn agree(&self, new: &[u8], p: usize, c: Candidate) -> Option<Take> {
        // A cheap necessary condition first: the new text ends where the
        // statement ends, with the same bytes before it; or it has as many
        // bytes left as the old one.
        let plausible = match c.to {
            Some(to) => {
                let end = p + (to - c.from);
                let tail = (to - c.from).min(16);
                new.get(end - 1) == Some(&b';') && new[end - tail..end] == self.old[to - tail..to]
            }
            None => new.len() - p == self.old.len() - c.from,
        };
        if !plausible {
            return None;
        }
        let from = c.from;
        let same = common_prefix(&self.old[from..], &new[p..]);
        let rest = &self.buf[self.r + c.i..];
        if from + same == self.old.len() && p + same == new.len() {
            // Both texts end here, so even a final statement with no `;`
            // lexes as it did.
            let to = self.old.len();
            return Some(Take {
                skip: c.i,
                len: rest.len(),
                from,
                to,
            });
        }
        let ended = rest.partition_point(|t| t.span.end <= from + same);
        let last = rest[..ended]
            .iter()
            .rposition(|t| t.kind == TokenKind::Semicolon)?;
        let to = rest[last].span.end;
        Some(Take {
            skip: c.i,
            len: last + 1,
            from,
            to,
        })
    }
}

impl<'s> Lexer<'s> {
    fn new(input: &'s str) -> Self {
        Lexer {
            src: input.as_bytes(),
            pos: 0,
            // One token per ~6 source bytes is typical for DDL dumps;
            // pre-sizing avoids the early doubling churn on every parse.
            tokens: Vec::with_capacity(input.len() / 6 + 4),
            scratch: String::new(),
        }
    }

    #[inline(always)]
    fn byte(&self, i: usize) -> Option<u8> {
        self.src.get(i).copied()
    }

    #[inline(always)]
    fn push(&mut self, kind: TokenKind, start: usize) {
        self.tokens.push(Token::new(kind, Span::new(start, self.pos)));
    }

    fn run(mut self) -> (Vec<Token>, Option<ParseError>) {
        let err = self.lex(None);
        (self.tokens, err)
    }

    /// Lex from `pos` to the end of the input, or to the first lex error;
    /// when lexing an edit, resync at every `;`.
    fn lex(&mut self, mut resync: Option<&mut Resync>) -> Option<ParseError> {
        let len = self.src.len();
        while self.pos < len {
            let b = self.src[self.pos];
            let start = self.pos;
            let step: Result<(), ParseError> = match CLASS[b as usize] {
                CL_WS => {
                    // Consume the whole whitespace run in one tight loop.
                    self.pos += 1;
                    while self.pos < len && CLASS[self.src[self.pos] as usize] == CL_WS {
                        self.pos += 1;
                    }
                    Ok(())
                }
                CL_IDENT => {
                    self.bare_ident(start);
                    Ok(())
                }
                CL_DIGIT => {
                    self.number(start);
                    Ok(())
                }
                CL_LPAREN => {
                    self.pos += 1;
                    self.push(TokenKind::LParen, start);
                    Ok(())
                }
                CL_RPAREN => {
                    self.pos += 1;
                    self.push(TokenKind::RParen, start);
                    Ok(())
                }
                CL_COMMA => {
                    self.pos += 1;
                    self.push(TokenKind::Comma, start);
                    Ok(())
                }
                CL_SEMI => {
                    self.pos += 1;
                    self.push(TokenKind::Semicolon, start);
                    if let Some(r) = resync.as_deref_mut() {
                        self.resync(r);
                    }
                    Ok(())
                }
                CL_EQ => {
                    self.pos += 1;
                    self.push(TokenKind::Eq, start);
                    Ok(())
                }
                CL_DOT => {
                    if matches!(self.byte(self.pos + 1), Some(b'0'..=b'9')) {
                        self.number(start);
                    } else {
                        self.pos += 1;
                        self.push(TokenKind::Dot, start);
                    }
                    Ok(())
                }
                CL_MINUS => {
                    if self.byte(self.pos + 1) == Some(b'-') {
                        self.line_comment();
                    } else {
                        self.pos += 1;
                        self.push(TokenKind::Punct('-'), start);
                    }
                    Ok(())
                }
                CL_HASH => {
                    self.line_comment();
                    Ok(())
                }
                CL_SLASH => {
                    if self.byte(self.pos + 1) == Some(b'*') {
                        self.block_comment(start)
                    } else {
                        self.pos += 1;
                        self.push(TokenKind::Punct('/'), start);
                        Ok(())
                    }
                }
                CL_SQUOTE => self.string_lit(b'\'', start),
                CL_DQUOTE => self.string_lit(b'"', start),
                CL_BACKQ => self.quoted_ident(b'`', b'`', start),
                CL_LBRACK => self.quoted_ident(b'[', b']', start),
                _ => {
                    // Any other punctuation: emit as Punct so the tolerant
                    // parser can skip it inside statements it ignores. Only
                    // ASCII bytes reach here (>= 0x80 classifies as ident),
                    // so the char is the byte itself.
                    self.pos += 1;
                    self.push(TokenKind::Punct(b as char), start);
                    Ok(())
                }
            };
            if let Err(e) = step {
                // Lex errors only fire at end of input, so the accumulated
                // tokens form the complete well-formed prefix.
                return Some(e);
            }
        }
        None
    }

    /// When lexing an edit, at `pos` (right after a `;` token, or where
    /// lexing restarted), take over the old tokens of every old statement
    /// the new text repeats from here, as often as one resync follows
    /// another.
    fn resync(&mut self, r: &mut Resync) {
        let Lexer {
            src, pos, tokens, ..
        } = self;
        while *pos < src.len() {
            let Some(take) = r.find(src, *pos) else {
                return;
            };
            let shift = *pos as isize - take.from as isize;
            let shifted = |t: &mut Token| {
                t.span = Span::new(
                    t.span.start.wrapping_add_signed(shift),
                    t.span.end.wrapping_add_signed(shift),
                );
            };
            let first = r.r + take.skip;
            let run = Run {
                new: r.w + tokens.len(),
                old: r.next + take.skip,
                len: take.len,
            };
            if tokens.len() > r.buf.len() - first {
                // More was lexed than is left of the old stream: append the
                // tokens taken over to the ones lexed, and leave the
                // placeholders behind, rather than move the lexed ones in.
                let placeholder = || Token::new(TokenKind::Comma, Span::new(0, 0));
                let taken = r.buf[first..first + take.len].iter_mut();
                tokens.extend(taken.map(|t| {
                    let mut t = std::mem::replace(t, placeholder());
                    shifted(&mut t);
                    t
                }));
                r.r = first + take.len;
            } else {
                // The newly lexed tokens replace the old ones passed over;
                // the tokens taken over are then shifted where they lie.
                r.buf.splice(r.w..first, tokens.drain(..));
                r.buf[run.new..run.new + take.len]
                    .iter_mut()
                    .for_each(shifted);
                (r.w, r.r) = (run.new + take.len, run.new + take.len);
            }
            r.carried.push(run, take.to - take.from);
            r.next += take.skip + take.len;
            r.at = take.to;
            r.window.clear();
            *pos += take.to - take.from;
        }
    }

    /// Decode the character at `pos` and return it with its byte width.
    ///
    /// Input is always a `&str`, so decoding cannot actually fail; the
    /// fallback arms keep this panic-free regardless.
    #[inline]
    fn char_at(&self, pos: usize) -> (char, usize) {
        let rest = &self.src[pos..];
        let w = utf8_width(rest[0]).min(rest.len());
        match std::str::from_utf8(&rest[..w]) {
            Ok(s) => match s.chars().next() {
                Some(c) => (c, c.len_utf8()),
                None => ('\u{fffd}', 1),
            },
            Err(_) => ('\u{fffd}', 1),
        }
    }

    /// Slice `[start, end)` out of the source as UTF-8 text.
    ///
    /// Both bounds always fall on character boundaries (scans only stop on
    /// ASCII bytes or after whole characters), so the lossy fallback never
    /// allocates in practice.
    #[inline]
    fn text(&self, start: usize, end: usize) -> Text {
        Text::new(&String::from_utf8_lossy(&self.src[start..end]))
    }

    fn line_comment(&mut self) {
        // Leave the terminating `\n` for the whitespace handler, exactly
        // like the reference lexer does.
        match memchr1(b'\n', &self.src[self.pos..]) {
            Some(i) => self.pos += i,
            None => self.pos = self.src.len(),
        }
    }

    fn block_comment(&mut self, start: usize) -> Result<(), ParseError> {
        self.pos += 2; // consume `/*`
        let mut depth = 1usize;
        while depth > 0 {
            // Skip ahead to the next byte that could open or close a
            // comment; everything in between is comment body.
            match memchr2(b'*', b'/', &self.src[self.pos..]) {
                Some(i) => self.pos += i,
                None => self.pos = self.src.len(),
            }
            match self.byte(self.pos) {
                Some(b'*') if self.byte(self.pos + 1) == Some(b'/') => {
                    self.pos += 2;
                    depth -= 1;
                }
                Some(b'/') if self.byte(self.pos + 1) == Some(b'*') => {
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
        let mut text = std::mem::take(&mut self.scratch);
        text.clear();
        loop {
            // Bulk-copy everything up to the next quote or escape; plain
            // string bodies take exactly one scan and one extend.
            let chunk_start = self.pos;
            match memchr2(quote, b'\\', &self.src[self.pos..]) {
                Some(i) => self.pos += i,
                None => self.pos = self.src.len(),
            }
            if self.pos > chunk_start {
                text.push_str(&String::from_utf8_lossy(&self.src[chunk_start..self.pos]));
            }
            match self.byte(self.pos) {
                Some(b'\\') => {
                    // MySQL-style backslash escape: keep the escaped char.
                    self.pos += 1;
                    if self.pos >= self.src.len() {
                        self.scratch = text;
                        return Err(ParseError::lex(
                            "unterminated string literal",
                            Span::new(start, self.pos),
                        ));
                    }
                    let (c, w) = self.char_at(self.pos);
                    self.pos += w;
                    text.push(unescape(c));
                }
                Some(_) => {
                    // Must be the quote byte itself.
                    if self.byte(self.pos + 1) == Some(quote) {
                        // Doubled quote: literal quote character.
                        text.push(quote as char);
                        self.pos += 2;
                    } else {
                        self.pos += 1;
                        break;
                    }
                }
                None => {
                    self.scratch = text;
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
            self.push(TokenKind::QuotedIdent(Text::new(&text)), start);
        } else {
            self.push(TokenKind::StringLit(Text::new(&text)), start);
        }
        self.scratch = text;
        Ok(())
    }

    fn quoted_ident(&mut self, open: u8, close: u8, start: usize) -> Result<(), ParseError> {
        self.pos += 1; // opening delimiter
        let mut text = std::mem::take(&mut self.scratch);
        text.clear();
        loop {
            let chunk_start = self.pos;
            match memchr1(close, &self.src[self.pos..]) {
                Some(i) => self.pos += i,
                None => self.pos = self.src.len(),
            }
            if self.pos > chunk_start {
                text.push_str(&String::from_utf8_lossy(&self.src[chunk_start..self.pos]));
            }
            match self.byte(self.pos) {
                Some(_) => {
                    // Must be the close byte.
                    if close == open && self.byte(self.pos + 1) == Some(close) {
                        // Doubled backquote inside a backquoted name.
                        text.push(close as char);
                        self.pos += 2;
                    } else {
                        self.pos += 1;
                        break;
                    }
                }
                None => {
                    self.scratch = text;
                    return Err(ParseError::lex(
                        "unterminated quoted identifier",
                        Span::new(start, self.pos),
                    ));
                }
            }
        }
        self.push(TokenKind::QuotedIdent(Text::new(&text)), start);
        self.scratch = text;
        Ok(())
    }

    fn number(&mut self, start: usize) {
        let len = self.src.len();
        let mut seen_dot = false;
        let mut seen_exp = false;
        // Hex literal.
        if self.src[self.pos] == b'0' && matches!(self.byte(self.pos + 1), Some(b'x') | Some(b'X'))
        {
            self.pos += 2;
            while self.pos < len && self.src[self.pos].is_ascii_hexdigit() {
                self.pos += 1;
            }
            let text = self.text(start, self.pos);
            self.push(TokenKind::Number(text), start);
            return;
        }
        while self.pos < len {
            match self.src[self.pos] {
                b'0'..=b'9' => self.pos += 1,
                b'.' if !seen_dot && !seen_exp => {
                    seen_dot = true;
                    self.pos += 1;
                }
                b'e' | b'E' if !seen_exp => {
                    // Only an exponent if followed by digit or sign+digit.
                    let next = self.byte(self.pos + 1);
                    let after_sign = self.byte(self.pos + 2);
                    let is_exp = matches!(next, Some(b'0'..=b'9'))
                        || (matches!(next, Some(b'+') | Some(b'-'))
                            && matches!(after_sign, Some(b'0'..=b'9')));
                    if is_exp {
                        seen_exp = true;
                        self.pos += 1;
                        if matches!(self.byte(self.pos), Some(b'+') | Some(b'-')) {
                            self.pos += 1;
                        }
                    } else {
                        break;
                    }
                }
                _ => break,
            }
        }
        let text = self.text(start, self.pos);
        self.push(TokenKind::Number(text), start);
    }

    fn bare_ident(&mut self, start: usize) {
        let len = self.src.len();
        // ASCII identifiers (the overwhelmingly common case) run through
        // the continuation table one byte per iteration; non-ASCII chars
        // advance by their UTF-8 width.
        while self.pos < len {
            let b = self.src[self.pos];
            if IDENT_CONT[b as usize] {
                self.pos += 1;
            } else if b >= 0x80 {
                // Non-ASCII identifier characters (MySQL permits them).
                self.pos += utf8_width(b).min(len - self.pos);
            } else {
                break;
            }
        }
        let text = self.text(start, self.pos);
        self.push(TokenKind::Ident(text), start);
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::token::TokenKind as K;

    fn kinds(sql: &str) -> Vec<K> {
        tokenize(sql).unwrap().into_iter().map(|t| t.kind).collect()
    }

    #[test]
    fn lexes_create_table_header() {
        let ks = kinds("CREATE TABLE users (");
        assert_eq!(
            ks,
            vec![
                K::Ident("CREATE".into()),
                K::Ident("TABLE".into()),
                K::Ident("users".into()),
                K::LParen,
            ]
        );
    }

    #[test]
    fn skips_line_comments_both_styles() {
        let ks = kinds("a -- hidden\n# also hidden\nb");
        assert_eq!(ks, vec![K::Ident("a".into()), K::Ident("b".into())]);
    }

    #[test]
    fn skips_block_and_executable_comments() {
        let ks = kinds("/* x */ a /*!40101 SET NAMES utf8 */ b");
        assert_eq!(ks, vec![K::Ident("a".into()), K::Ident("b".into())]);
    }

    #[test]
    fn backquoted_identifier_with_doubled_quote() {
        let ks = kinds("`we``ird`");
        assert_eq!(ks, vec![K::QuotedIdent("we`ird".into())]);
    }

    #[test]
    fn bracket_quoted_identifier() {
        let ks = kinds("[order]");
        assert_eq!(ks, vec![K::QuotedIdent("order".into())]);
    }

    #[test]
    fn single_quoted_string_with_escapes() {
        let ks = kinds(r"'it\'s ok'");
        assert_eq!(ks, vec![K::StringLit("it's ok".into())]);
    }

    #[test]
    fn doubled_single_quote_escape() {
        let ks = kinds("'it''s ok'");
        assert_eq!(ks, vec![K::StringLit("it's ok".into())]);
    }

    #[test]
    fn double_quoted_name_becomes_quoted_ident() {
        let ks = kinds(r#""users""#);
        assert_eq!(ks, vec![K::QuotedIdent("users".into())]);
    }

    #[test]
    fn double_quoted_sentence_stays_string() {
        let ks = kinds(r#""hello world""#);
        assert_eq!(ks, vec![K::StringLit("hello world".into())]);
    }

    #[test]
    fn numbers_integer_decimal_hex_exponent() {
        let ks = kinds("11 10.5 0xFF 1e3 2.5E-4");
        assert_eq!(
            ks,
            vec![
                K::Number("11".into()),
                K::Number("10.5".into()),
                K::Number("0xFF".into()),
                K::Number("1e3".into()),
                K::Number("2.5E-4".into()),
            ]
        );
    }

    #[test]
    fn dot_between_identifiers_is_dot_token() {
        let ks = kinds("db.users");
        assert_eq!(
            ks,
            vec![
                K::Ident("db".into()),
                K::Dot,
                K::Ident("users".into()),
            ]
        );
    }

    #[test]
    fn punctuation_tokens() {
        let ks = kinds("( ) , ; = < >");
        assert_eq!(
            ks,
            vec![
                K::LParen,
                K::RParen,
                K::Comma,
                K::Semicolon,
                K::Eq,
                K::Punct('<'),
                K::Punct('>'),
            ]
        );
    }

    #[test]
    fn unterminated_string_is_error() {
        assert!(tokenize("'oops").is_err());
    }

    #[test]
    fn unterminated_block_comment_is_error() {
        assert!(tokenize("/* oops").is_err());
    }

    #[test]
    fn unterminated_backquote_is_error() {
        assert!(tokenize("`oops").is_err());
    }

    #[test]
    fn spans_are_byte_accurate() {
        let toks = tokenize("ab  cd").unwrap();
        assert_eq!(toks[0].span, Span::new(0, 2));
        assert_eq!(toks[1].span, Span::new(4, 6));
    }

    #[test]
    fn empty_input_yields_no_tokens() {
        assert!(tokenize("").unwrap().is_empty());
        assert!(tokenize("   \n\t ").unwrap().is_empty());
    }

    #[test]
    fn non_ascii_identifier() {
        let ks = kinds("tabelle_größe");
        assert_eq!(ks, vec![K::Ident("tabelle_größe".into())]);
    }

    #[test]
    fn windows_line_endings() {
        let ks = kinds("a\r\nb");
        assert_eq!(ks, vec![K::Ident("a".into()), K::Ident("b".into())]);
    }

    #[test]
    fn dollar_in_identifier() {
        let ks = kinds("v$session");
        assert_eq!(ks, vec![K::Ident("v$session".into())]);
    }

    #[test]
    fn unterminated_errors_carry_opening_byte_offset() {
        // The error span must point at the byte that opened the
        // never-closed token, so quarantine provenance is actionable.
        let err = tokenize("SELECT 1; 'oops").unwrap_err();
        assert_eq!(err.span.start, 10);
        let err = tokenize("ab /* oops").unwrap_err();
        assert_eq!(err.span.start, 3);
        let err = tokenize(";`oops").unwrap_err();
        assert_eq!(err.span.start, 1);
    }

    #[test]
    fn recovering_tokenizer_keeps_wellformed_prefix() {
        let (tokens, err) = tokenize_recovering("CREATE TABLE t 'never closed");
        let err = err.expect("unterminated string must be reported");
        assert_eq!(err.span.start, 15);
        let kinds: Vec<_> = tokens.iter().map(|t| t.kind.clone()).collect();
        assert_eq!(
            kinds,
            vec![
                K::Ident("CREATE".into()),
                K::Ident("TABLE".into()),
                K::Ident("t".into()),
            ]
        );
        // Every recovered token ends before the error.
        assert!(tokens.iter().all(|t| t.span.end <= err.span.start));
    }

    #[test]
    fn recovering_tokenizer_is_identity_on_clean_input() {
        let clean = "CREATE TABLE t (id INT); -- done\n";
        let (tokens, err) = tokenize_recovering(clean);
        assert!(err.is_none());
        assert_eq!(tokens, tokenize(clean).unwrap());
    }

    #[test]
    fn edits_lex_like_tokenize() {
        let base = "CREATE TABLE a (x INT); INSERT INTO t VALUES ('p;q'); CREATE TABLE b (y INT);";
        let edits = [
            base.replace("x INT", "x INT, z TEXT"),
            base.replace("'p;q'", "'p;;q'"),
            base.replace("'p;q'", "'p;q"),
            base.replace("(y INT)", "(y INT) /*"),
            format!("-- head\n{base}"),
            format!("{base} DROP TABLE a;"),
            base.replacen(';', "", 1),
            base[..base.len() - 1].to_string(),
            base.to_string(),
            String::new(),
        ];
        for next in &edits {
            let edited = tokenize_edit(base, tokenize(base).unwrap(), next);
            let whole = tokenize(next);
            assert_eq!(
                edited.map_err(|e| (e.span, e.to_string())),
                whole.map_err(|e| (e.span, e.to_string())),
                "edit to {next:?}"
            );
        }
    }

    #[test]
    fn common_prefix_and_suffix_span_chunks() {
        let a: Vec<u8> = (0..200u8).collect();
        for i in [0, 1, 63, 64, 65, 130, 199] {
            let mut b = a.clone();
            b[i] ^= 0xff;
            assert_eq!(common_prefix(&a, &b), i);
            assert_eq!(common_suffix(&a, &b), a.len() - 1 - i);
        }
        assert_eq!(common_prefix(&a, &a[..150]), 150);
        assert_eq!(common_suffix(&a, &a[50..]), 150);
        assert_eq!(common_prefix(b"", &a), 0);
        assert_eq!(common_suffix(&a, b""), 0);
    }

    #[test]
    fn memchr_helpers_cover_chunk_and_tail_positions() {
        let hay = b"abcdefghijklmnop";
        for (i, &b) in hay.iter().enumerate() {
            assert_eq!(memchr1(b, hay), Some(i));
            assert_eq!(memchr2(b, 0, hay), Some(i));
            assert_eq!(memchr2(0, b, hay), Some(i));
        }
        assert_eq!(memchr1(b'z', hay), None);
        assert_eq!(memchr2(b'z', b'!', hay), None);
        assert_eq!(memchr1(b'x', b""), None);
    }

    #[test]
    fn fast_path_matches_reference_on_representative_corpus() {
        // Belt-and-braces behind the proptest battery: a fixed set of
        // nasty inputs runs on every `cargo test`.
        let cases = [
            "CREATE TABLE `t` (id INT(11) NOT NULL, PRIMARY KEY (id));",
            "/* outer /* inner */ still comment */ SELECT 1;",
            "-- line\n# hash\nCREATE TABLE x(y TEXT DEFAULT 'a\\'b');",
            "'unterminated",
            "`unterminated",
            "/* unterminated",
            "\"ansi_ident\" \"two words\" [bracketed] `back``quote`",
            "0x 0xFF 1.5e+10 .5 1. a.b .x",
            "sel\u{fffd}ect größe 'füß\\ne'",
            "a\\b \u{0b}\u{0c}\r\n ; = < > ~ @ ^",
            "",
            "'' \"\" ``",
        ];
        for sql in cases {
            let (fast, fe) = tokenize_recovering(sql);
            let (slow, se) = reference::tokenize_recovering(sql);
            assert_eq!(fast, slow, "token divergence on {sql:?}");
            assert_eq!(
                fe.map(|e| (e.span, e.to_string())),
                se.map(|e| (e.span, e.to_string())),
                "error divergence on {sql:?}"
            );
        }
    }
}
