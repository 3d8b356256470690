//! Incremental parsing of a file history: statements that did not change
//! since the previous version are reused instead of parsed again.
//!
//! Consecutive versions of a schema file mostly differ in a few tables, so
//! most of their bytes and statements are identical. [`HistoryParser`]
//! keeps the previous version's text and tokens and lexes each version as
//! an edit of it ([`tokenize_edit`]): only the bytes between the common
//! prefix and suffix, widened to the enclosing `;` tokens, are lexed again,
//! and the old tokens around them are moved over, their spans shifted. The
//! result is exactly [`tokenize`]'s, lex errors and their offsets included;
//! after a version that fails to lex, the next one is lexed whole.
//!
//! It then walks the top-level statements with the same [`Parser`] step
//! `parse_schema` uses. Each statement is keyed by its source text from its
//! first token through its first `;` token; when the previous version had a
//! statement with the same key, its lowered result is applied again and
//! the parse is skipped.
//!
//! # Why lexing an edit gives the same tokens
//!
//! The lexer carries no state from one token to the next, and a `;` is one
//! byte with no lookahead. So the tokens up to a `;` token that ends inside
//! the common prefix depend on prefix bytes only, and lexing restarted right
//! after it proceeds as a whole-text lex would. Once that restarted lex
//! emits a `;` inside the common suffix at an offset where the old stream
//! had a `;` too, both streams continue from the same state over the same
//! bytes, so the old tokens are taken over from there on.
//!
//! # Why a key determines its result
//!
//! The lexer carries no state from one token to the next, so equal key
//! text lexes to equal tokens. A statement is memoized only if its parse
//! read no token past that first `;` ([`Parser`] records any read beyond
//! a bound) and stopped right after it; its result is then a function of
//! those tokens alone. A statement that looked further — a degraded `CREATE TABLE`
//! whose column default opens a parenthesis the `;` does not close — is
//! parsed afresh every time, as is a final statement with no `;`.
//!
//! The memo holds the previous version's statements only, so its size is
//! bounded by one version. A `CREATE TABLE` is kept as the shared
//! [`Table`] it lowers to; an `ALTER TABLE` or `DROP TABLE` is kept as its
//! one-statement arena and applied again, because its effect depends on
//! the tables before it.

use crate::arena::{record_arena_bytes, ArenaStatement, ScriptArena};
use crate::error::ParseError;
use crate::lexer::{tokenize, tokenize_edit};
use crate::parser::Parser;
use crate::schema::{Schema, Table};
use crate::token::{Token, TokenKind};
use std::collections::HashMap;
use std::sync::Arc;

/// What one statement contributes to a schema, kept for reuse.
#[derive(Debug, Clone)]
enum Lowered {
    /// A lowered `CREATE TABLE`.
    Create(Arc<Table>),
    /// An `ALTER TABLE` or `DROP TABLE`, in its own one-statement arena.
    Apply(Arc<ScriptArena>),
    /// A statement that does not change the schema: anything not modelled,
    /// a degraded statement, or a `TEMPORARY` table.
    Inert,
}

impl Lowered {
    fn apply(&self, schema: &mut Schema) {
        match self {
            Lowered::Create(table) => schema.upsert_table(Arc::clone(table)),
            Lowered::Apply(arena) => schema.apply_arena(arena),
            Lowered::Inert => {}
        }
    }
}

/// Parses the versions of one file history in order, reusing the statements
/// each version shares with the one before it.
///
/// [`HistoryParser::parse`] returns exactly what [`crate::parse_schema`]
/// returns for the same text, `Ok` and `Err` alike, whatever was parsed
/// before. The keys borrow the parsed text, so every version must outlive
/// the parser.
///
/// ```
/// use schevo_ddl::{parse_schema, HistoryParser};
///
/// let v1 = "CREATE TABLE a (x INT); CREATE TABLE b (y INT);";
/// let v2 = "CREATE TABLE a (x INT); CREATE TABLE b (y INT, z INT);";
/// let mut parser = HistoryParser::new();
/// assert_eq!(parser.parse(v1), parse_schema(v1));
/// assert_eq!(parser.parse(v2), parse_schema(v2));
/// assert_eq!((parser.statements(), parser.reused()), (4, 1));
/// ```
#[derive(Debug, Default)]
pub struct HistoryParser<'a> {
    /// The reusable statements of the last successfully lexed version.
    previous: HashMap<&'a str, Lowered>,
    /// The same, being built for the version under parse.
    current: HashMap<&'a str, Lowered>,
    /// The text and tokens of the last version, if it lexed; the next
    /// version is lexed as an edit of it.
    lexed: Option<(&'a str, Vec<Token>)>,
    statements: u64,
    reused: u64,
}

impl<'a> HistoryParser<'a> {
    /// A parser with nothing to reuse yet.
    pub fn new() -> Self {
        HistoryParser::default()
    }

    /// Parse the next version of the history into its logical schema.
    ///
    /// # Errors
    ///
    /// Exactly those of [`crate::parse_schema`]: only lex errors. A version
    /// that fails to lex leaves the statement memo as it was, and the next
    /// version is lexed whole.
    pub fn parse(&mut self, sql: &'a str) -> Result<Schema, ParseError> {
        let _span = schevo_obs::span!("ddl.parse", bytes = sql.len());
        let tokens = match self.lexed.take() {
            Some((prev, tokens)) => tokenize_edit(prev, tokens, sql)?,
            None => tokenize(sql)?,
        };
        let mut parser = Parser::new(tokens);
        let mut schema = Schema::new();
        let mut arena_bytes = 0;
        self.current.clear();
        while parser.at_statement() {
            self.statements += 1;
            let start = parser.pos();
            let tokens = parser.tokens();
            let key = tokens[start..]
                .iter()
                .position(|t| t.kind == TokenKind::Semicolon)
                .map(|len| {
                    let semi = start + len;
                    (semi, &sql[tokens[start].span.start..tokens[semi].span.end])
                });
            if let Some((semi, text)) = key {
                if let Some(hit) = self.previous.get(text) {
                    hit.apply(&mut schema);
                    self.current.insert(text, hit.clone());
                    self.reused += 1;
                    parser.seek(semi + 1);
                    continue;
                }
            }

            let reusable = match key {
                Some((semi, text)) => {
                    let within = parser.statement_before(semi + 1);
                    (within && parser.pos() == semi + 1).then_some(text)
                }
                None => {
                    parser.statement();
                    None
                }
            };
            let arena = parser.arena_mut();
            let lowered = match &arena.statements()[0] {
                ArenaStatement::CreateTable(ct) => {
                    Table::lower(arena, ct).map_or(Lowered::Inert, |t| Lowered::Create(Arc::new(t)))
                }
                ArenaStatement::AlterTable { .. } | ArenaStatement::DropTable { .. } => {
                    arena_bytes += arena.heap_bytes();
                    Lowered::Apply(Arc::new(std::mem::take(arena)))
                }
                ArenaStatement::Other { .. } => Lowered::Inert,
            };
            arena.clear();
            lowered.apply(&mut schema);
            if let Some(text) = reusable {
                self.current.insert(text, lowered);
            }
        }
        record_arena_bytes(arena_bytes + parser.arena_mut().heap_bytes());
        std::mem::swap(&mut self.previous, &mut self.current);
        self.lexed = Some((sql, parser.into_tokens()));
        Ok(schema)
    }

    /// The tokens of the last version parsed, exactly [`tokenize`]'s; empty
    /// if it failed to lex.
    pub fn tokens(&self) -> &[Token] {
        self.lexed.as_ref().map_or(&[], |(_, tokens)| tokens)
    }

    /// Top-level statements met so far, over every version.
    pub fn statements(&self) -> u64 {
        self.statements
    }

    /// How many of [`Self::statements`] were reused rather than parsed.
    pub fn reused(&self) -> u64 {
        self.reused
    }
}
