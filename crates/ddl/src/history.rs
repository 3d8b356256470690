//! Incremental parsing of a file history: the statements an edit did not
//! touch are reused instead of lexed and parsed again.
//!
//! Consecutive versions of a schema file mostly differ in a few tables, so
//! most of their bytes and statements are identical. [`HistoryParser`]
//! keeps the previous version's text and tokens and lexes each version as
//! an edit of it ([`tokenize_edit`](crate::lexer::tokenize_edit)): only
//! the statements the edit touched are lexed again, and the old tokens of
//! every statement the new text repeats are taken over, their spans
//! shifted. The result is exactly [`tokenize`]'s, lex errors and their
//! offsets included; after a version that fails to lex, the next one is
//! lexed whole.
//!
//! It then walks the top-level statements with the same [`Parser`] step
//! `parse_schema` uses. A statement is reused in one of two ways:
//!
//! - **By position.** The lexer took its tokens, through its first `;`,
//!   over from one run of old tokens, and the old tokens there began a
//!   memoizable statement (see below) that ended at that same `;`. Its
//!   lowered result is taken without looking at its text.
//! - **By text.** A statement that was lexed again is keyed by its source
//!   text from its first token through its first `;` token, and looked up
//!   among the previous version's memoizable statements that the lexer did
//!   not take over.
//!
//! Every other statement is parsed.
//!
//! # Why a key or a position determines the result
//!
//! The lexer carries no state from one token to the next, so equal key
//! text lexes to equal tokens, as do tokens taken over. A statement is
//! memoizable only if its parse read no token past that first `;`
//! ([`Parser`] records any read beyond a bound) and stopped right after
//! it; its result is then a function of those tokens alone. A statement
//! that looked further — a degraded `CREATE TABLE` whose column default
//! opens a parenthesis the `;` does not close — is parsed afresh every
//! time, as is a final statement with no `;`.
//!
//! The kept statements are the previous version's only, so their number is
//! bounded by one version. A `CREATE TABLE` is kept as the shared [`Table`]
//! it lowers to; an `ALTER TABLE` or `DROP TABLE` is kept as its
//! one-statement arena and applied again, because its effect depends on
//! the tables before it.
//!
//! # Patching the schema
//!
//! When every statement of a version lowers to a `CREATE TABLE` or to
//! nothing, the schema is its tables in file order. If they carry the
//! previous version's table names in the same order, the new schema shares
//! the previous one's name index, and only its list of tables is new: most
//! of it the same `Arc`s. Otherwise (a table added, removed, renamed or
//! created twice, or an `ALTER TABLE` or `DROP TABLE` present) the schema
//! is built from [`Schema::new`], statement by statement, as
//! `parse_schema` builds it.

use crate::arena::{record_arena_bytes, ArenaStatement, ScriptArena};
use crate::error::ParseError;
use crate::lexer::{lex_edit, tokenize, Carried};
use crate::parser::Parser;
use crate::schema::{Lowering, Schema, Table};
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
            Lowered::Apply(arena) => schema.apply_arena(arena, Lowering::Full),
            Lowered::Inert => {}
        }
    }
}

/// A memoizable statement of one version, kept for the next.
#[derive(Debug)]
struct Statement<'a> {
    /// Index of its first token.
    start: usize,
    /// Index of its first `;` token, right after which its parse stopped.
    semi: usize,
    /// Its text from its first token through that `;`: its memo key.
    text: &'a str,
    lowered: Lowered,
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
/// // `v1` was lexed whole; of `v2`, only the statement after `a`'s `;`.
/// let b = " CREATE TABLE b (y INT, z INT);";
/// assert_eq!(parser.relexed_bytes(), (v1.len() + b.len()) as u64);
/// ```
#[derive(Debug, Default)]
pub struct HistoryParser<'a> {
    /// The memoizable statements of the last successfully lexed version,
    /// in file order.
    previous: Vec<Statement<'a>>,
    /// The same, being built for the version under parse.
    current: Vec<Statement<'a>>,
    /// The statements of `previous` whose tokens were not taken over, by
    /// text: what a statement lexed again may be equal to.
    memo: HashMap<&'a str, Lowered>,
    /// The text and tokens of the last version, if it lexed; the next
    /// version is lexed as an edit of it.
    lexed: Option<(&'a str, Vec<Token>)>,
    /// What lexing the version under parse took over from the last one.
    carried: Carried,
    /// The schema of the last version parsed, patched into the next.
    schema: Schema,
    /// The effects of the version under parse, in file order.
    effects: Vec<Lowered>,
    statements: u64,
    reused: u64,
    by_position: u64,
    relexed_bytes: u64,
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
    /// that fails to lex leaves the kept statements as they were, and the
    /// next version is lexed whole.
    pub fn parse(&mut self, sql: &'a str) -> Result<Schema, ParseError> {
        let _span = schevo_obs::span!("ddl.parse", bytes = sql.len());
        let tokens = match self.lexed.take() {
            Some((prev, tokens)) => lex_edit(prev, tokens, sql, &mut self.carried),
            None => {
                self.carried = Carried::default();
                tokenize(sql)
            }
        };
        self.relexed_bytes += (sql.len() - self.carried.bytes) as u64;
        let mut parser = Parser::new(tokens?);

        let runs = std::mem::take(&mut self.carried.runs);
        self.memo.clear();
        let mut run = 0;
        for s in &self.previous {
            while runs.get(run).is_some_and(|r| r.old + r.len <= s.start) {
                run += 1;
            }
            let taken = runs.get(run).is_some_and(|r| r.old <= s.start);
            if !taken {
                self.memo.insert(s.text, s.lowered.clone());
            }
        }

        let mut arena_bytes = 0;
        self.current.clear();
        self.effects.clear();
        let (mut run, mut kept) = (0, 0);
        while parser.at_statement() {
            self.statements += 1;
            let start = parser.pos();
            while runs.get(run).is_some_and(|r| r.new + r.len <= start) {
                run += 1;
            }
            let same = runs.get(run).filter(|r| r.new <= start).and_then(|r| {
                let old = r.old + (start - r.new);
                while self.previous.get(kept).is_some_and(|s| s.start < old) {
                    kept += 1;
                }
                let s = self.previous.get(kept)?;
                (s.start == old).then(|| (start + (s.semi - old), s.lowered.clone()))
            });
            if let Some((semi, lowered)) = same {
                let tokens = parser.tokens();
                let text = &sql[tokens[start].span.start..tokens[semi].span.end];
                self.keep(start, semi, text, lowered);
                self.reused += 1;
                self.by_position += 1;
                parser.seek(semi + 1);
                continue;
            }

            let tokens = parser.tokens();
            let key = tokens[start..]
                .iter()
                .position(|t| t.kind == TokenKind::Semicolon)
                .map(|len| {
                    let semi = start + len;
                    (semi, &sql[tokens[start].span.start..tokens[semi].span.end])
                });
            if let Some((semi, text)) = key {
                if let Some(hit) = self.memo.get(text) {
                    self.keep(start, semi, text, hit.clone());
                    self.reused += 1;
                    parser.seek(semi + 1);
                    continue;
                }
            }

            let reusable = match key {
                Some((semi, text)) => {
                    let within = parser.statement_before(semi + 1);
                    (within && parser.pos() == semi + 1).then_some((semi, text))
                }
                None => {
                    parser.statement();
                    None
                }
            };
            let arena = parser.arena_mut();
            let lowered = match &arena.statements()[0] {
                ArenaStatement::CreateTable(ct) => Table::lower(arena, ct, Lowering::Full)
                    .map_or(Lowered::Inert, |t| Lowered::Create(Arc::new(t))),
                ArenaStatement::AlterTable { .. } | ArenaStatement::DropTable { .. } => {
                    arena_bytes += arena.heap_bytes();
                    Lowered::Apply(Arc::new(std::mem::take(arena)))
                }
                ArenaStatement::Other { .. } => Lowered::Inert,
            };
            arena.clear();
            match reusable {
                Some((semi, text)) => self.keep(start, semi, text, lowered),
                None => self.effect(lowered),
            }
        }
        record_arena_bytes(arena_bytes + parser.arena_mut().heap_bytes());
        std::mem::swap(&mut self.previous, &mut self.current);
        self.lexed = Some((sql, parser.into_tokens()));
        self.carried.runs = runs;

        let schema = if self.effects.iter().any(|e| matches!(e, Lowered::Apply(_))) {
            let mut schema = Schema::new();
            for e in &self.effects {
                e.apply(&mut schema);
            }
            schema
        } else {
            let tables = self.effects.drain(..).filter_map(|e| match e {
                Lowered::Create(table) => Some(table),
                _ => None,
            });
            Schema::with_tables(&self.schema, tables.collect())
        };
        self.schema = schema.clone();
        Ok(schema)
    }

    /// Record a memoizable statement of the version under parse.
    fn keep(&mut self, start: usize, semi: usize, text: &'a str, lowered: Lowered) {
        self.effect(lowered.clone());
        self.current.push(Statement {
            start,
            semi,
            text,
            lowered,
        });
    }

    /// Record what a statement of the version under parse does to its
    /// schema.
    fn effect(&mut self, lowered: Lowered) {
        if !matches!(lowered, Lowered::Inert) {
            self.effects.push(lowered);
        }
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

    /// How many of [`Self::reused`] were reused by position, without
    /// their text being looked up.
    pub fn reused_by_position(&self) -> u64 {
        self.by_position
    }

    /// Bytes lexed so far, over every version: each version's length less
    /// the bytes whose tokens were taken over from the version before.
    pub fn relexed_bytes(&self) -> u64 {
        self.relexed_bytes
    }
}
