//! Tolerant recursive-descent parser for DDL scripts.
//!
//! The parser fully understands `CREATE TABLE` in the MySQL dialect (with
//! enough ANSI/Postgres/SQL-Server lenience to survive mixed dumps) and
//! skips everything else statement-by-statement. Skipping is
//! parenthesis-aware, so an `INSERT` carrying `');' ` inside a string or a
//! function body does not derail the scan — string literals were already
//! resolved by the lexer.

use crate::arena::{ArenaCreateTable, ArenaStatement, PoolRange, ScriptArena};
use crate::ast::{ColumnDef, TableConstraint};
use crate::error::{ParseError, Span};
use crate::lexer::tokenize;
use crate::token::{Text, Token, TokenKind};
use crate::types::{DataType, Params, TypeFamily};
use std::cell::Cell;

/// Parse a whole script into arena form: statements share flat pools
/// instead of owning per-statement vectors, and the result lowers
/// straight to a schema via [`crate::schema::Schema::from_arena`].
///
/// # Errors
///
/// Propagates lexer errors and structural errors inside `CREATE TABLE`
/// statements. Other malformed statements are skipped silently.
pub fn parse_script_arena(sql: &str) -> Result<ScriptArena, ParseError> {
    let tokens = tokenize(sql)?;
    Parser::new(tokens).script_arena()
}

/// The parser state machine. Most callers should use [`parse_script_arena`]
/// or [`crate::parse_schema`]; the type is public for fine-grained testing.
pub struct Parser {
    tokens: Vec<Token>,
    pos: usize,
    arena: ScriptArena,
    /// Reads of token indices at or past this bound set `overrun`; see
    /// [`Self::statement_before`]. `usize::MAX` (no bound) otherwise.
    limit: usize,
    overrun: Cell<bool>,
}

impl Parser {
    /// Create a parser over a pre-lexed token stream.
    pub fn new(tokens: Vec<Token>) -> Self {
        Parser {
            tokens,
            pos: 0,
            arena: ScriptArena::default(),
            limit: usize::MAX,
            overrun: Cell::new(false),
        }
    }

    fn peek(&self) -> Option<&Token> {
        self.peek_at(0)
    }

    fn peek_at(&self, off: usize) -> Option<&Token> {
        let i = self.pos + off;
        if i >= self.limit {
            self.overrun.set(true);
        }
        self.tokens.get(i)
    }

    fn bump(&mut self) -> Option<&Token> {
        if self.pos >= self.limit {
            self.overrun.set(true);
        }
        let t = self.tokens.get(self.pos);
        if t.is_some() {
            self.pos += 1;
        }
        t
    }

    fn at_keyword(&self, kw: &str) -> bool {
        self.peek().map(|t| t.kind.is_keyword(kw)).unwrap_or(false)
    }

    fn at_keyword_at(&self, off: usize, kw: &str) -> bool {
        self.peek_at(off)
            .map(|t| t.kind.is_keyword(kw))
            .unwrap_or(false)
    }

    fn eat_keyword(&mut self, kw: &str) -> bool {
        if self.at_keyword(kw) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn expect_keyword(&mut self, kw: &str) -> Result<(), ParseError> {
        if self.eat_keyword(kw) {
            Ok(())
        } else {
            Err(self.err_expected(&format!("keyword {kw}")))
        }
    }

    fn eat_kind(&mut self, kind: &TokenKind) -> bool {
        if self.peek().map(|t| &t.kind == kind).unwrap_or(false) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn expect_kind(&mut self, kind: TokenKind) -> Result<(), ParseError> {
        if self.eat_kind(&kind) {
            Ok(())
        } else {
            Err(self.err_expected(&kind.describe()))
        }
    }

    fn err_expected(&self, what: &str) -> ParseError {
        match self.peek() {
            Some(t) => ParseError::unexpected(what, t.kind.describe(), t.span),
            None => {
                let end = self.tokens.last().map(|t| t.span.end).unwrap_or(0);
                ParseError::eof(what, Span::new(end, end))
            }
        }
    }

    /// Parse identifiers: bare or quoted.
    fn identifier(&mut self) -> Result<Text, ParseError> {
        match self.peek() {
            Some(t) => match &t.kind {
                TokenKind::Ident(s) | TokenKind::QuotedIdent(s) => {
                    let s = s.clone();
                    self.pos += 1;
                    Ok(s)
                }
                _ => Err(self.err_expected("an identifier")),
            },
            None => Err(self.err_expected("an identifier")),
        }
    }

    /// Step over the identifier at the cursor without copying it; whether
    /// there was one (the cursor stays put otherwise, as after a failed
    /// [`Self::identifier`]).
    fn skip_identifier(&mut self) -> bool {
        let at = matches!(
            self.peek().map(|t| &t.kind),
            Some(TokenKind::Ident(_) | TokenKind::QuotedIdent(_))
        );
        self.pos += usize::from(at);
        at
    }

    /// Top-level: a sequence of statements separated by semicolons, parsed
    /// into arena form.
    ///
    /// # Errors
    ///
    /// Statement-level breakage degrades to skipped statements, so errors
    /// only reflect unrecoverable input.
    pub fn script_arena(&mut self) -> Result<ScriptArena, ParseError> {
        while self.at_statement() {
            self.statement();
        }
        Ok(std::mem::take(&mut self.arena))
    }

    /// Swallow stray semicolons; whether a statement starts at the cursor.
    pub(crate) fn at_statement(&mut self) -> bool {
        while self.eat_kind(&TokenKind::Semicolon) {}
        self.peek().is_some()
    }

    /// Parse the statement at the cursor, pushing it into the arena.
    /// Statement-level breakage degrades to a skipped statement.
    pub(crate) fn statement(&mut self) {
        if self.at_create_table() {
            match self.create_table() {
                Ok(ct) => self.arena.push_statement(ArenaStatement::CreateTable(ct)),
                Err(_) => {
                    // A CREATE TABLE too broken to parse: degrade to a
                    // skipped statement rather than failing the file.
                    self.arena.push_statement(ArenaStatement::Other {
                        keyword: Text::new("CREATE TABLE"),
                    });
                    self.skip_statement();
                }
            }
        } else if self.at_keyword("ALTER") && self.at_keyword_at(1, "TABLE") {
            let mark = self.arena.mark();
            match self.alter_table() {
                Ok(name) => {
                    let ops = self.arena.ops_since(mark);
                    self.arena
                        .push_statement(ArenaStatement::AlterTable { name, ops });
                    self.skip_statement();
                }
                Err(_) => {
                    self.arena.truncate(mark);
                    self.arena.push_statement(ArenaStatement::Other {
                        keyword: Text::new("ALTER TABLE"),
                    });
                    self.skip_statement();
                }
            }
        } else if self.at_keyword("DROP") && self.at_keyword_at(1, "TABLE") {
            let mark = self.arena.mark();
            match self.drop_table() {
                Ok(names) => {
                    self.arena
                        .push_statement(ArenaStatement::DropTable { names });
                    self.skip_statement();
                }
                Err(_) => {
                    self.arena.truncate(mark);
                    self.arena.push_statement(ArenaStatement::Other {
                        keyword: Text::new("DROP TABLE"),
                    });
                    self.skip_statement();
                }
            }
        } else {
            let keyword = self.leading_keyword();
            self.arena.push_statement(ArenaStatement::Other { keyword });
            self.skip_statement();
        }
    }

    /// The lexed tokens.
    pub(crate) fn tokens(&self) -> &[Token] {
        &self.tokens
    }

    /// The lexed tokens, handed back.
    pub(crate) fn into_tokens(self) -> Vec<Token> {
        self.tokens
    }

    /// The cursor (index of the next token).
    pub(crate) fn pos(&self) -> usize {
        self.pos
    }

    /// Move the cursor to token `pos`.
    pub(crate) fn seek(&mut self, pos: usize) {
        self.pos = pos;
    }

    /// [`Self::statement`], reporting whether the parse read only tokens
    /// before index `end`. If it did, the statement's result is a function
    /// of those tokens alone.
    pub(crate) fn statement_before(&mut self, end: usize) -> bool {
        self.limit = end;
        self.overrun.set(false);
        self.statement();
        self.limit = usize::MAX;
        !self.overrun.get()
    }

    /// The arena built so far.
    pub(crate) fn arena_mut(&mut self) -> &mut ScriptArena {
        &mut self.arena
    }

    /// Whether the cursor sits at `CREATE [TEMPORARY] TABLE`.
    fn at_create_table(&self) -> bool {
        if !self.at_keyword("CREATE") {
            return false;
        }
        if self.at_keyword_at(1, "TABLE") {
            return true;
        }
        self.at_keyword_at(1, "TEMPORARY") && self.at_keyword_at(2, "TABLE")
    }

    /// Uppercased keyword(s) introducing the statement at the cursor.
    fn leading_keyword(&self) -> Text {
        let first = self.peek().and_then(|t| t.kind.ident_text()).unwrap_or("?");
        let mut keyword = Text::upper(first);
        // Give CREATE a second word so INDEX/VIEW/TRIGGER etc. are countable.
        if ["CREATE", "DROP", "ALTER", "LOCK", "UNLOCK"].contains(&keyword.as_str()) {
            if let Some(second) = self.peek_at(1).and_then(|t| t.kind.ident_text()) {
                keyword = Text::concat(&[first, " ", second]);
                keyword.make_ascii_uppercase();
            }
        }
        keyword
    }

    /// Skip tokens up to and including the statement-terminating semicolon.
    ///
    /// Any semicolon terminates: string literals (the only place a `;` can
    /// legitimately hide) are already single tokens, and honoring paren depth
    /// here would let one unbalanced broken statement swallow the rest of the
    /// file.
    fn skip_statement(&mut self) {
        while let Some(t) = self.bump() {
            if matches!(t.kind, TokenKind::Semicolon) {
                break;
            }
        }
    }

    /// Parse `CREATE [TEMPORARY] TABLE [IF NOT EXISTS] name ( ... ) options ;`
    fn create_table(&mut self) -> Result<ArenaCreateTable, ParseError> {
        let checkpoint = self.pos;
        let mark = self.arena.mark();
        let result = self.create_table_inner();
        if result.is_err() {
            // Roll both the cursor and the arena pools back so the degraded
            // statement leaves no orphaned pool entries behind.
            self.pos = checkpoint;
            self.arena.truncate(mark);
        }
        result
    }

    fn create_table_inner(&mut self) -> Result<ArenaCreateTable, ParseError> {
        self.expect_keyword("CREATE")?;
        let temporary = self.eat_keyword("TEMPORARY");
        self.expect_keyword("TABLE")?;
        let if_not_exists = if self.at_keyword("IF") {
            self.pos += 1;
            self.expect_keyword("NOT")?;
            self.expect_keyword("EXISTS")?;
            true
        } else {
            false
        };
        let first = self.identifier()?;
        let (qualifier, name) = if self.eat_kind(&TokenKind::Dot) {
            (Some(first), self.identifier()?)
        } else {
            (None, first)
        };
        self.expect_kind(TokenKind::LParen)?;

        // Columns and constraints go straight into the arena's flat pools;
        // the statement records only the index ranges.
        let mark = self.arena.mark();
        loop {
            if self.eat_kind(&TokenKind::RParen) {
                break;
            }
            if let Some(c) = self.table_constraint()? {
                self.arena.push_constraint(c);
            } else {
                let col = self.column_def()?;
                self.arena.push_column(col);
            }
            if self.eat_kind(&TokenKind::Comma) {
                continue;
            }
            self.expect_kind(TokenKind::RParen)?;
            break;
        }
        let columns = self.arena.columns_since(mark);
        let constraints = self.arena.constraints_since(mark);

        self.table_options();
        // Consume the terminating semicolon if present.
        self.eat_kind(&TokenKind::Semicolon);

        Ok(ArenaCreateTable {
            name,
            qualifier,
            if_not_exists,
            temporary,
            columns,
            constraints,
        })
    }

    /// Try to parse a table-level constraint at the cursor; `Ok(None)` means
    /// the element is a column definition instead.
    fn table_constraint(&mut self) -> Result<Option<TableConstraint>, ParseError> {
        let mut name = None;
        let checkpoint = self.pos;
        if self.eat_keyword("CONSTRAINT") {
            // Optional constraint name before the kind keyword.
            if !(self.at_keyword("PRIMARY")
                || self.at_keyword("UNIQUE")
                || self.at_keyword("FOREIGN")
                || self.at_keyword("CHECK"))
            {
                name = Some(self.identifier()?);
            }
        }
        if self.at_keyword("PRIMARY") && self.at_keyword_at(1, "KEY") {
            self.pos += 2;
            let columns = self.paren_name_list()?;
            return Ok(Some(TableConstraint::PrimaryKey { name, columns }));
        }
        if self.at_keyword("UNIQUE") {
            // Could be `UNIQUE KEY name (...)`, `UNIQUE INDEX (...)`, `UNIQUE (...)`.
            let mut off = 1;
            if self.at_keyword_at(1, "KEY") || self.at_keyword_at(1, "INDEX") {
                off = 2;
            }
            // Optional index name.
            let has_name = matches!(
                self.peek_at(off).map(|t| &t.kind),
                Some(TokenKind::Ident(_)) | Some(TokenKind::QuotedIdent(_))
            );
            let paren_off = off + usize::from(has_name);
            if matches!(
                self.peek_at(paren_off).map(|t| &t.kind),
                Some(TokenKind::LParen)
            ) {
                self.pos += off;
                let idx_name = if has_name {
                    Some(self.identifier()?)
                } else {
                    None
                };
                let columns = self.paren_name_list()?;
                return Ok(Some(TableConstraint::Unique {
                    name: name.or(idx_name),
                    columns,
                }));
            }
            // Otherwise it is a column named after or modified by UNIQUE —
            // fall through to column parsing.
            self.pos = checkpoint;
            return Ok(None);
        }
        if self.at_keyword("FOREIGN") && self.at_keyword_at(1, "KEY") {
            self.pos += 2;
            // Optional index name before the column list.
            if !matches!(self.peek().map(|t| &t.kind), Some(TokenKind::LParen)) {
                let _ = self.identifier()?;
            }
            let columns = self.paren_name_list()?;
            self.expect_keyword("REFERENCES")?;
            let first = self.identifier()?;
            let foreign_table = if self.eat_kind(&TokenKind::Dot) {
                self.identifier()?
            } else {
                first
            };
            let foreign_columns =
                if matches!(self.peek().map(|t| &t.kind), Some(TokenKind::LParen)) {
                    self.paren_name_list()?
                } else {
                    Vec::new()
                };
            // ON DELETE/UPDATE actions, MATCH clauses: skip to element end.
            self.skip_to_element_end();
            return Ok(Some(TableConstraint::ForeignKey {
                name,
                columns,
                foreign_table,
                foreign_columns,
            }));
        }
        if self.at_keyword("CHECK") {
            self.pos += 1;
            self.skip_balanced_parens()?;
            self.skip_to_element_end();
            return Ok(Some(TableConstraint::Check { name }));
        }
        if (self.at_keyword("KEY") || self.at_keyword("INDEX") || self.at_keyword("FULLTEXT")
            || self.at_keyword("SPATIAL"))
            && name.is_none()
        {
            // `KEY name (cols)` / `INDEX (cols)` / `FULLTEXT KEY name (cols)`.
            // Disambiguate from a *column* named `key`: a column would be
            // followed by a type name, an index by a name or '('.
            let mut off = 1;
            if (self.at_keyword("FULLTEXT") || self.at_keyword("SPATIAL"))
                && (self.at_keyword_at(1, "KEY") || self.at_keyword_at(1, "INDEX"))
            {
                off = 2;
            }
            let has_name = matches!(
                self.peek_at(off).map(|t| &t.kind),
                Some(TokenKind::Ident(_)) | Some(TokenKind::QuotedIdent(_))
            );
            let paren_off = off + usize::from(has_name);
            if matches!(
                self.peek_at(paren_off).map(|t| &t.kind),
                Some(TokenKind::LParen)
            ) {
                self.pos += off;
                let idx_name = if has_name {
                    Some(self.identifier()?)
                } else {
                    None
                };
                let columns = self.paren_name_list()?;
                self.skip_to_element_end();
                return Ok(Some(TableConstraint::Index {
                    name: idx_name,
                    columns,
                }));
            }
        }
        if name.is_some() {
            // `CONSTRAINT name` followed by something we do not model:
            // treat as a check-like constraint and skip it.
            self.skip_to_element_end();
            return Ok(Some(TableConstraint::Check { name }));
        }
        self.pos = checkpoint;
        Ok(None)
    }

    /// `( name [(len)] [ASC|DESC] , ... )` — index column lists may carry
    /// prefix lengths and directions, which we drop.
    fn paren_name_list(&mut self) -> Result<Vec<Text>, ParseError> {
        self.expect_kind(TokenKind::LParen)?;
        let mut names = Vec::new();
        loop {
            if self.eat_kind(&TokenKind::RParen) {
                break;
            }
            names.push(self.identifier()?);
            // Optional `(10)` prefix length.
            if matches!(self.peek().map(|t| &t.kind), Some(TokenKind::LParen)) {
                self.skip_balanced_parens()?;
            }
            // Optional ASC/DESC.
            let _ = self.eat_keyword("ASC") || self.eat_keyword("DESC");
            if self.eat_kind(&TokenKind::Comma) {
                continue;
            }
            self.expect_kind(TokenKind::RParen)?;
            break;
        }
        Ok(names)
    }

    /// Parse one column definition.
    fn column_def(&mut self) -> Result<ColumnDef, ParseError> {
        let name = self.identifier()?;
        let data_type = self.data_type()?;
        let mut col = ColumnDef::new(name, data_type);
        self.column_options(&mut col)?;
        Ok(col)
    }

    /// Parse a data type: name, optional params or value list, modifiers.
    fn data_type(&mut self) -> Result<DataType, ParseError> {
        let mut upper = match self.peek() {
            Some(t) => match &t.kind {
                TokenKind::Ident(s) | TokenKind::QuotedIdent(s) => Text::upper(s),
                _ => return Err(self.err_expected("a data type")),
            },
            None => return Err(self.err_expected("a data type")),
        };
        self.pos += 1;
        // Multi-word types.
        if upper == "DOUBLE" && self.eat_keyword("PRECISION") {
            // DOUBLE PRECISION — same family.
        } else if upper == "CHARACTER" && self.eat_keyword("VARYING") {
            upper = Text::new("VARCHAR");
        } else if upper == "LONG" {
            if self.eat_keyword("VARCHAR") || self.eat_keyword("TEXT") {
                upper = Text::new("MEDIUMTEXT");
            } else if self.eat_keyword("VARBINARY") {
                upper = Text::new("MEDIUMBLOB");
            }
        }
        let mut ty = DataType::from_upper(upper);

        if matches!(self.peek().map(|t| &t.kind), Some(TokenKind::LParen)) {
            if matches!(ty.family, TypeFamily::Enum | TypeFamily::Set) {
                ty.values = self.paren_string_list()?;
            } else {
                ty.params = self.paren_number_list()?;
            }
        }
        // Modifiers that are part of the type.
        loop {
            if self.eat_keyword("UNSIGNED") {
                ty.unsigned = true;
            } else if self.eat_keyword("SIGNED") || self.eat_keyword("ZEROFILL") {
                // cosmetic
            } else {
                break;
            }
        }
        Ok(ty)
    }

    /// `( 'a' , 'b' , ... )`
    fn paren_string_list(&mut self) -> Result<Vec<String>, ParseError> {
        self.expect_kind(TokenKind::LParen)?;
        let mut values = Vec::new();
        loop {
            if self.eat_kind(&TokenKind::RParen) {
                break;
            }
            match self.peek() {
                Some(t) => match &t.kind {
                    TokenKind::StringLit(s) => {
                        values.push(s.as_str().to_owned());
                        self.pos += 1;
                    }
                    TokenKind::QuotedIdent(s) | TokenKind::Ident(s) => {
                        // Lenient: unquoted/double-quoted enum values exist in the wild.
                        values.push(s.as_str().to_owned());
                        self.pos += 1;
                    }
                    TokenKind::Number(n) => {
                        values.push(n.as_str().to_owned());
                        self.pos += 1;
                    }
                    _ => return Err(self.err_expected("a string value")),
                },
                None => return Err(self.err_expected("a string value")),
            }
            if self.eat_kind(&TokenKind::Comma) {
                continue;
            }
            self.expect_kind(TokenKind::RParen)?;
            break;
        }
        Ok(values)
    }

    /// `( 11 )` or `( 10 , 2 )`
    fn paren_number_list(&mut self) -> Result<Params, ParseError> {
        self.expect_kind(TokenKind::LParen)?;
        let mut nums = Params::new();
        loop {
            if self.eat_kind(&TokenKind::RParen) {
                break;
            }
            match self.peek() {
                Some(t) => match &t.kind {
                    TokenKind::Number(n) => {
                        let parsed = n.parse::<u32>().unwrap_or(0);
                        nums.push(parsed);
                        self.pos += 1;
                    }
                    TokenKind::Ident(s) if s.eq_ignore_ascii_case("max") => {
                        // VARCHAR(MAX) — SQL Server; record as 0 sentinel.
                        nums.push(0);
                        self.pos += 1;
                    }
                    _ => return Err(self.err_expected("a number")),
                },
                None => return Err(self.err_expected("a number")),
            }
            if self.eat_kind(&TokenKind::Comma) {
                continue;
            }
            self.expect_kind(TokenKind::RParen)?;
            break;
        }
        Ok(nums)
    }

    /// Parse the option soup after the data type, up to the `,` or `)` that
    /// ends the column element.
    fn column_options(&mut self, col: &mut ColumnDef) -> Result<(), ParseError> {
        loop {
            match self.peek().map(|t| &t.kind) {
                None => break,
                Some(TokenKind::Comma) | Some(TokenKind::RParen) | Some(TokenKind::Semicolon) => {
                    break
                }
                Some(TokenKind::Ident(_)) => {
                    if self.at_keyword("NOT") && self.at_keyword_at(1, "NULL") {
                        self.pos += 2;
                        col.not_null = true;
                    } else if self.eat_keyword("NULL") {
                        col.not_null = false;
                    } else if self.at_keyword("PRIMARY") && self.at_keyword_at(1, "KEY") {
                        self.pos += 2;
                        col.inline_primary_key = true;
                    } else if self.eat_keyword("KEY") {
                        // bare `KEY` after a column means primary key in MySQL
                        col.inline_primary_key = true;
                    } else if self.eat_keyword("UNIQUE") {
                        col.unique = true;
                        let _ = self.eat_keyword("KEY");
                    } else if self.eat_keyword("AUTO_INCREMENT")
                        || self.eat_keyword("AUTOINCREMENT")
                        || self.eat_keyword("IDENTITY")
                    {
                        col.auto_increment = true;
                        // IDENTITY(1,1)
                        if matches!(self.peek().map(|t| &t.kind), Some(TokenKind::LParen)) {
                            self.skip_balanced_parens()?;
                        }
                    } else if self.eat_keyword("DEFAULT") {
                        col.default = Some(self.default_value()?);
                    } else if self.eat_keyword("COMMENT") {
                        col.comment = Some(self.string_value()?);
                    } else if self.eat_keyword("COLLATE") || self.eat_keyword("CHARACTER") {
                        // COLLATE x / CHARACTER SET x
                        let _ = self.eat_keyword("SET");
                        self.skip_identifier();
                    } else if self.eat_keyword("CHARSET") {
                        self.skip_identifier();
                    } else if self.eat_keyword("ON") {
                        // ON UPDATE CURRENT_TIMESTAMP etc.
                        self.pos += 1; // UPDATE/DELETE
                        self.skip_identifier();
                        if matches!(self.peek().map(|t| &t.kind), Some(TokenKind::LParen)) {
                            self.skip_balanced_parens()?;
                        }
                    } else if self.eat_keyword("REFERENCES") {
                        // Inline FK: REFERENCES t (c) [actions]
                        if !self.skip_identifier() {
                            return Err(self.err_expected("an identifier"));
                        }
                        if self.eat_kind(&TokenKind::Dot) && !self.skip_identifier() {
                            return Err(self.err_expected("an identifier"));
                        }
                        if matches!(self.peek().map(|t| &t.kind), Some(TokenKind::LParen)) {
                            self.skip_balanced_parens()?;
                        }
                    } else if self.eat_keyword("CHECK") {
                        if matches!(self.peek().map(|t| &t.kind), Some(TokenKind::LParen)) {
                            self.skip_balanced_parens()?;
                        }
                    } else if self.eat_keyword("GENERATED") || self.eat_keyword("AS") {
                        // Generated columns: skip expression if parenthesized.
                        if matches!(self.peek().map(|t| &t.kind), Some(TokenKind::LParen)) {
                            self.skip_balanced_parens()?;
                        }
                    } else {
                        // Unknown option word (STORED, VIRTUAL, UNIQUE KEY...).
                        self.pos += 1;
                    }
                }
                Some(_) => {
                    // Punctuation or literal noise inside options; if it opens
                    // a paren, balance it.
                    if matches!(self.peek().map(|t| &t.kind), Some(TokenKind::LParen)) {
                        self.skip_balanced_parens()?;
                    } else {
                        self.pos += 1;
                    }
                }
            }
        }
        Ok(())
    }

    /// Parse a DEFAULT value into display text.
    fn default_value(&mut self) -> Result<Text, ParseError> {
        // Possibly signed number.
        if let Some(t) = self.peek() {
            match &t.kind {
                TokenKind::Punct('-') | TokenKind::Punct('+') => {
                    let sign = if matches!(t.kind, TokenKind::Punct('-')) {
                        "-"
                    } else {
                        ""
                    };
                    self.pos += 1;
                    if let Some(TokenKind::Number(n)) = self.peek().map(|t| &t.kind) {
                        let signed = Text::concat(&[sign, n]);
                        self.pos += 1;
                        return Ok(signed);
                    }
                    return Ok(Text::new(sign));
                }
                TokenKind::Number(n) => {
                    let n = n.clone();
                    self.pos += 1;
                    return Ok(n);
                }
                TokenKind::StringLit(s) => {
                    let quoted = if s.contains('\'') {
                        Text::from(format!("'{}'", s.replace('\'', "''")))
                    } else {
                        Text::concat(&["'", s, "'"])
                    };
                    self.pos += 1;
                    return Ok(quoted);
                }
                TokenKind::Ident(s) | TokenKind::QuotedIdent(s) => {
                    // NULL, CURRENT_TIMESTAMP, TRUE, now(), uuid() ...
                    let mut upper = s.clone();
                    self.pos += 1;
                    if matches!(self.peek().map(|t| &t.kind), Some(TokenKind::LParen)) {
                        self.skip_balanced_parens()?;
                        upper = Text::concat(&[&upper, "()"]);
                    }
                    upper.make_ascii_uppercase();
                    return Ok(upper);
                }
                TokenKind::LParen => {
                    // Parenthesized default expression: record opaquely.
                    self.skip_balanced_parens()?;
                    return Ok(Text::new("(expr)"));
                }
                _ => {}
            }
        }
        Err(self.err_expected("a default value"))
    }

    fn string_value(&mut self) -> Result<Text, ParseError> {
        match self.peek() {
            Some(t) => match &t.kind {
                TokenKind::StringLit(s) => {
                    let s = s.clone();
                    self.pos += 1;
                    Ok(s)
                }
                _ => Err(self.err_expected("a string literal")),
            },
            None => Err(self.err_expected("a string literal")),
        }
    }

    /// Parse `ALTER TABLE name <op> [, <op>]*` up to (not including) the
    /// terminating semicolon, pushing ops into the arena pool. Returns the
    /// target table name; the caller derives the op range from its mark.
    /// Unmodelled ops are skipped element-wise.
    fn alter_table(&mut self) -> Result<Text, ParseError> {
        use crate::ast::AlterOp;
        self.expect_keyword("ALTER")?;
        self.expect_keyword("TABLE")?;
        if self.at_keyword("IF") {
            self.pos += 1;
            let _ = self.eat_keyword("EXISTS");
        }
        let first = self.identifier()?;
        let name = if self.eat_kind(&TokenKind::Dot) {
            self.identifier()?
        } else {
            first
        };
        loop {
            match self.peek().map(|t| &t.kind) {
                None | Some(TokenKind::Semicolon) => break,
                Some(TokenKind::Comma) => {
                    self.pos += 1;
                }
                _ => {
                    let before = self.pos;
                    if self.eat_keyword("ADD") {
                        if self.at_keyword("PRIMARY") && self.at_keyword_at(1, "KEY") {
                            self.pos += 2;
                            let cols = self.paren_name_list()?;
                            self.arena.push_op(AlterOp::AddPrimaryKey(cols));
                        } else if self.at_keyword("CONSTRAINT")
                            || self.at_keyword("FOREIGN")
                            || self.at_keyword("UNIQUE")
                            || self.at_keyword("INDEX")
                            || self.at_keyword("KEY")
                            || self.at_keyword("FULLTEXT")
                            || self.at_keyword("CHECK")
                        {
                            // Constraint/index additions: not modelled here.
                            self.skip_to_element_end();
                        } else {
                            let _ = self.eat_keyword("COLUMN");
                            let def = self.column_def()?;
                            self.arena.push_op(AlterOp::AddColumn(def));
                        }
                    } else if self.eat_keyword("DROP") {
                        if self.at_keyword("PRIMARY") && self.at_keyword_at(1, "KEY") {
                            self.pos += 2;
                            self.arena.push_op(AlterOp::DropPrimaryKey);
                        } else if self.at_keyword("INDEX")
                            || self.at_keyword("KEY")
                            || self.at_keyword("FOREIGN")
                            || self.at_keyword("CONSTRAINT")
                            || self.at_keyword("CHECK")
                        {
                            self.skip_to_element_end();
                        } else {
                            let _ = self.eat_keyword("COLUMN");
                            let col = self.identifier()?;
                            self.arena.push_op(AlterOp::DropColumn(col));
                        }
                    } else if self.eat_keyword("MODIFY") {
                        let _ = self.eat_keyword("COLUMN");
                        let def = self.column_def()?;
                        self.arena.push_op(AlterOp::ModifyColumn(def));
                    } else if self.eat_keyword("CHANGE") {
                        let _ = self.eat_keyword("COLUMN");
                        let old_name = self.identifier()?;
                        let def = self.column_def()?;
                        self.arena.push_op(AlterOp::ChangeColumn { old_name, def });
                    } else if self.eat_keyword("RENAME") {
                        if self.eat_keyword("COLUMN") {
                            // RENAME COLUMN a TO b: unmodelled (no type info).
                            self.skip_to_element_end();
                        } else {
                            let _ = self.eat_keyword("TO") || self.eat_keyword("AS");
                            let new_name = self.identifier()?;
                            self.arena.push_op(AlterOp::RenameTable(new_name));
                        }
                    } else {
                        // ENGINE=..., CONVERT TO, ORDER BY, ...: skip.
                        self.skip_to_element_end();
                    }
                    // A stray token nothing consumed (e.g. an unmatched
                    // `)`, where skip_to_element_end stops without
                    // advancing) would loop forever: force progress.
                    if self.pos == before {
                        self.pos += 1;
                    }
                }
            }
        }
        Ok(name)
    }

    /// Parse `DROP TABLE [IF EXISTS] a [, b]*` up to the semicolon, pushing
    /// names into the name pool.
    fn drop_table(&mut self) -> Result<PoolRange, ParseError> {
        self.expect_keyword("DROP")?;
        self.expect_keyword("TABLE")?;
        if self.at_keyword("IF") {
            self.pos += 1;
            self.expect_keyword("EXISTS")?;
        }
        let mark = self.arena.mark();
        loop {
            let first = self.identifier()?;
            let name = if self.eat_kind(&TokenKind::Dot) {
                self.identifier()?
            } else {
                first
            };
            self.arena.push_name(name);
            if !self.eat_kind(&TokenKind::Comma) {
                break;
            }
        }
        Ok(self.arena.names_since(mark))
    }

    /// Skip a balanced `( ... )` group; the cursor must be at `(`.
    fn skip_balanced_parens(&mut self) -> Result<(), ParseError> {
        self.expect_kind(TokenKind::LParen)?;
        let mut depth = 1usize;
        while depth > 0 {
            match self.bump().map(|t| &t.kind) {
                Some(TokenKind::LParen) => depth += 1,
                Some(TokenKind::RParen) => depth -= 1,
                Some(_) => {}
                None => return Err(self.err_expected("')'")),
            }
        }
        Ok(())
    }

    /// Skip forward to the `,` or `)` that terminates the current table
    /// element, balancing nested parentheses.
    fn skip_to_element_end(&mut self) {
        let mut depth = 0usize;
        while let Some(t) = self.peek() {
            match t.kind {
                TokenKind::LParen => {
                    depth += 1;
                    self.pos += 1;
                }
                TokenKind::RParen => {
                    if depth == 0 {
                        return;
                    }
                    depth -= 1;
                    self.pos += 1;
                }
                TokenKind::Comma if depth == 0 => return,
                _ => self.pos += 1,
            }
        }
    }

    /// Step over the trailing table options up to the semicolon or EOF,
    /// balancing parentheses. Nothing after the parser reads their text,
    /// so none of it is kept.
    fn table_options(&mut self) {
        loop {
            match self.peek().map(|t| &t.kind) {
                None | Some(TokenKind::Semicolon) => break,
                Some(TokenKind::LParen) => {
                    let _ = self.skip_balanced_parens();
                }
                Some(_) => self.pos += 1,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::AlterOp;
    use crate::types::TypeFamily;

    /// The script of `sql` and its only `CREATE TABLE`.
    fn one_table(sql: &str) -> (ScriptArena, ArenaCreateTable) {
        let arena = parse_script_arena(sql).unwrap();
        assert_eq!(
            arena.create_tables().count(),
            1,
            "expected one CREATE TABLE"
        );
        let ct = arena
            .create_tables()
            .next()
            .cloned()
            .expect("one CREATE TABLE");
        (arena, ct)
    }

    /// The `(name, ops)` of every `ALTER TABLE` in `arena`, in file order.
    fn alter_tables(arena: &ScriptArena) -> Vec<(&str, &[AlterOp])> {
        arena
            .statements()
            .iter()
            .filter_map(|s| match s {
                ArenaStatement::AlterTable { name, ops } => Some((name.as_str(), arena.ops(*ops))),
                _ => None,
            })
            .collect()
    }

    /// The names of every `DROP TABLE` in `arena`, one list per statement.
    fn drop_tables(arena: &ScriptArena) -> Vec<&[Text]> {
        arena
            .statements()
            .iter()
            .filter_map(|s| match s {
                ArenaStatement::DropTable { names } => Some(arena.names(*names)),
                _ => None,
            })
            .collect()
    }

    fn create_table_names(arena: &ScriptArena) -> Vec<&str> {
        arena.create_tables().map(|c| c.name.as_str()).collect()
    }

    #[test]
    fn parses_minimal_table() {
        let (a, ct) = one_table("CREATE TABLE t (a INT);");
        assert_eq!(ct.name, "t");
        let cols = a.columns(ct.columns);
        assert_eq!(cols.len(), 1);
        assert_eq!(cols[0].name, "a");
        assert_eq!(cols[0].data_type.family, TypeFamily::Int);
    }

    #[test]
    fn long_and_multibyte_names_and_mixed_case_types_keep_their_bytes() {
        let long = "identifier_longer_than_the_inline_limit";
        let multibyte = "naïve_café_ünïcödé_名前_long";
        let sql = format!(
            "CREATE TABLE `größe_本表` (`{long}` dOuBlE PrEcIsIoN DEFAULT -1, \
             `{multibyte}` an_extraordinarily_long_user_type_name(3,4,5,6) DEFAULT now(), \
             `ß` Character Varying(300) DEFAULT 'it''s a default value past the limit', \
             PRIMARY KEY (`{multibyte}`, `ß`), KEY `an_index_name_that_is_rather_long` (`{long}`)) \
             ENGINE=InnoDB DEFAULT CHARSET=utf8mb4 COMMENT='名前';"
        );
        let (a, ct) = one_table(&sql);
        assert_eq!(ct.name, "größe_本表");
        let cols = a.columns(ct.columns);
        let names: Vec<&str> = cols.iter().map(|c| c.name.as_str()).collect();
        assert_eq!(names, [long, multibyte, "ß"]);
        let raw: Vec<&str> = cols.iter().map(|c| c.data_type.raw_name.as_str()).collect();
        assert_eq!(
            raw,
            [
                "DOUBLE",
                "AN_EXTRAORDINARILY_LONG_USER_TYPE_NAME",
                "VARCHAR"
            ]
        );
        assert_eq!(cols[1].data_type.params, vec![3, 4, 5, 6]);
        assert_eq!(cols[2].data_type.params, vec![300]);
        let defaults: Vec<Option<&str>> = cols.iter().map(|c| c.default.as_deref()).collect();
        assert_eq!(
            defaults,
            [
                Some("-1"),
                Some("NOW()"),
                Some("'it''s a default value past the limit'")
            ]
        );
        assert_eq!(a.primary_key_columns(&ct), [multibyte, "ß"]);
    }

    #[test]
    fn parses_mysql_dump_style() {
        let sql = r#"
            CREATE TABLE `users` (
              `id` int(11) NOT NULL AUTO_INCREMENT,
              `email` varchar(255) NOT NULL DEFAULT '',
              `bio` text,
              `created_at` datetime DEFAULT CURRENT_TIMESTAMP,
              PRIMARY KEY (`id`),
              UNIQUE KEY `uq_email` (`email`),
              KEY `idx_created` (`created_at`)
            ) ENGINE=InnoDB DEFAULT CHARSET=utf8;
        "#;
        let (a, ct) = one_table(sql);
        assert_eq!(ct.name, "users");
        let cols = a.columns(ct.columns);
        assert_eq!(cols.len(), 4);
        assert!(cols[0].auto_increment);
        assert!(cols[0].not_null);
        assert_eq!(cols[0].data_type.params, vec![11]);
        assert_eq!(cols[1].default.as_deref(), Some("''"));
        assert_eq!(a.primary_key_columns(&ct), vec!["id".to_string()]);
        assert_eq!(ct.constraints.len(), 3);
    }

    #[test]
    fn if_not_exists_and_temporary() {
        let (_, ct) = one_table("CREATE TABLE IF NOT EXISTS t (a INT)");
        assert!(ct.if_not_exists);
        let (_, ct) = one_table("CREATE TEMPORARY TABLE t (a INT)");
        assert!(ct.temporary);
    }

    #[test]
    fn qualified_table_name() {
        let (_, ct) = one_table("CREATE TABLE mydb.t (a INT)");
        assert_eq!(ct.qualifier.as_deref(), Some("mydb"));
        assert_eq!(ct.name, "t");
    }

    #[test]
    fn composite_primary_key() {
        let (a, ct) = one_table("CREATE TABLE t (a INT, b INT, PRIMARY KEY (a, b))");
        assert_eq!(
            a.primary_key_columns(&ct),
            vec!["a".to_string(), "b".to_string()]
        );
    }

    #[test]
    fn inline_primary_key() {
        let (a, ct) = one_table("CREATE TABLE t (a INT PRIMARY KEY, b INT)");
        assert_eq!(a.primary_key_columns(&ct), vec!["a".to_string()]);
    }

    #[test]
    fn foreign_key_with_actions() {
        let sql = "CREATE TABLE t (a INT, CONSTRAINT fk_a FOREIGN KEY (a) \
                   REFERENCES parent (id) ON DELETE CASCADE ON UPDATE NO ACTION)";
        let (a, ct) = one_table(sql);
        match &a.constraints(ct.constraints)[0] {
            TableConstraint::ForeignKey {
                name,
                columns,
                foreign_table,
                foreign_columns,
            } => {
                assert_eq!(name.as_deref(), Some("fk_a"));
                assert_eq!(columns, &vec!["a".to_string()]);
                assert_eq!(foreign_table, "parent");
                assert_eq!(foreign_columns, &vec!["id".to_string()]);
            }
            other => panic!("expected foreign key, got {other:?}"),
        }
    }

    #[test]
    fn enum_and_set_types() {
        let (a, ct) = one_table("CREATE TABLE t (s ENUM('on','off') NOT NULL, f SET('a','b'))");
        let cols = a.columns(ct.columns);
        assert_eq!(cols[0].data_type.family, TypeFamily::Enum);
        assert_eq!(
            cols[0].data_type.values,
            vec!["on".to_string(), "off".to_string()]
        );
        assert_eq!(cols[1].data_type.family, TypeFamily::Set);
    }

    #[test]
    fn decimal_params_and_unsigned() {
        let (a, ct) = one_table("CREATE TABLE t (p DECIMAL(10,2) UNSIGNED)");
        let p = &a.columns(ct.columns)[0];
        assert_eq!(p.data_type.params, vec![10, 2]);
        assert!(p.data_type.unsigned);
    }

    #[test]
    fn double_precision_and_character_varying() {
        let (a, ct) = one_table("CREATE TABLE t (a DOUBLE PRECISION, b CHARACTER VARYING(40))");
        let cols = a.columns(ct.columns);
        assert_eq!(cols[0].data_type.family, TypeFamily::Double);
        assert_eq!(cols[1].data_type.family, TypeFamily::Varchar);
        assert_eq!(cols[1].data_type.params, vec![40]);
    }

    #[test]
    fn skips_non_create_statements() {
        let sql = r#"
            SET NAMES utf8;
            DROP TABLE IF EXISTS t;
            CREATE TABLE t (a INT);
            INSERT INTO t VALUES (1), (2);
            CREATE INDEX idx ON t (a);
            LOCK TABLES t WRITE;
        "#;
        let arena = parse_script_arena(sql).unwrap();
        assert_eq!(arena.create_tables().count(), 1);
        let keywords: Vec<_> = arena
            .statements()
            .iter()
            .filter_map(|s| match s {
                ArenaStatement::Other { keyword } => Some(keyword.as_str()),
                _ => None,
            })
            .collect();
        assert!(keywords.contains(&"SET"));
        assert!(keywords.contains(&"INSERT"));
        assert!(keywords.contains(&"CREATE INDEX"));
        assert!(keywords.contains(&"LOCK TABLES"));
        // DROP TABLE is a modelled statement, not noise.
        assert_eq!(drop_tables(&arena), [["t".to_string()]]);
    }

    #[test]
    fn parses_alter_table_ops() {
        let sql = r#"
            ALTER TABLE t
              ADD COLUMN extra VARCHAR(40) NOT NULL,
              DROP COLUMN old_one,
              MODIFY COLUMN amount DECIMAL(12,2),
              CHANGE kind category INT,
              ADD PRIMARY KEY (id),
              ADD INDEX idx_extra (extra),
              DROP INDEX idx_old;
        "#;
        let arena = parse_script_arena(sql).unwrap();
        let alters = alter_tables(&arena);
        let (name, ops) = alters[0];
        assert_eq!(name, "t");
        assert_eq!(ops.len(), 5, "index ops are skipped: {ops:?}");
        assert!(matches!(&ops[0], AlterOp::AddColumn(c) if c.name == "extra" && c.not_null));
        assert!(matches!(&ops[1], AlterOp::DropColumn(n) if n == "old_one"));
        assert!(matches!(&ops[2], AlterOp::ModifyColumn(c) if c.name == "amount"));
        assert!(
            matches!(&ops[3], AlterOp::ChangeColumn { old_name, def } if old_name == "kind" && def.name == "category")
        );
        assert!(matches!(&ops[4], AlterOp::AddPrimaryKey(cols) if cols == &["id".to_string()]));
    }

    #[test]
    fn alter_rename_and_drop_pk() {
        let arena = parse_script_arena(
            "ALTER TABLE old_name RENAME TO new_name; ALTER TABLE x DROP PRIMARY KEY;",
        )
        .unwrap();
        let alters = alter_tables(&arena);
        assert_eq!(alters.len(), 2);
        assert!(matches!(&alters[0].1[0], AlterOp::RenameTable(n) if n == "new_name"));
        assert!(matches!(&alters[1].1[0], AlterOp::DropPrimaryKey));
    }

    #[test]
    fn drop_table_multiple_names() {
        let arena = parse_script_arena("DROP TABLE IF EXISTS a, b, db.c CASCADE;").unwrap();
        assert_eq!(
            drop_tables(&arena),
            [["a".to_string(), "b".to_string(), "c".to_string()]]
        );
    }

    #[test]
    fn alter_statement_does_not_swallow_next() {
        let arena = parse_script_arena(
            "ALTER TABLE t ADD weird_option ROW_FORMAT=DYNAMIC; CREATE TABLE u (a INT);",
        )
        .unwrap();
        assert_eq!(arena.create_tables().count(), 1);
    }

    #[test]
    fn insert_with_tricky_strings_does_not_derail() {
        let sql = r#"
            INSERT INTO msg VALUES ('a); CREATE TABLE fake (x INT);');
            CREATE TABLE real_one (a INT);
        "#;
        let arena = parse_script_arena(sql).unwrap();
        assert_eq!(create_table_names(&arena), vec!["real_one"]);
    }

    #[test]
    fn a_column_named_key() {
        let (a, ct) = one_table("CREATE TABLE t (`key` VARCHAR(64), value TEXT)");
        let cols = a.columns(ct.columns);
        assert_eq!(cols.len(), 2);
        assert_eq!(cols[0].name, "key");
    }

    #[test]
    fn index_with_prefix_lengths() {
        let (a, ct) = one_table("CREATE TABLE t (a VARCHAR(255), KEY idx_a (a(10) DESC))");
        match &a.constraints(ct.constraints)[0] {
            TableConstraint::Index { name, columns } => {
                assert_eq!(name.as_deref(), Some("idx_a"));
                assert_eq!(columns, &vec!["a".to_string()]);
            }
            other => panic!("expected index, got {other:?}"),
        }
    }

    #[test]
    fn check_constraint_is_recorded() {
        let (a, ct) = one_table("CREATE TABLE t (a INT, CONSTRAINT positive CHECK (a > 0))");
        assert!(matches!(
            &a.constraints(ct.constraints)[0],
            TableConstraint::Check { name: Some(n) } if n == "positive"
        ));
    }

    #[test]
    fn multiple_tables_in_order() {
        let sql = "CREATE TABLE a (x INT); CREATE TABLE b (y INT); CREATE TABLE c (z INT);";
        let arena = parse_script_arena(sql).unwrap();
        assert_eq!(create_table_names(&arena), vec!["a", "b", "c"]);
    }

    #[test]
    fn trailing_comma_tolerated() {
        // Some hand-written dumps have a trailing comma before `)`.
        let (_, ct) = one_table("CREATE TABLE t (a INT, b INT,)");
        assert_eq!(ct.columns.len(), 2);
    }

    #[test]
    fn on_update_current_timestamp() {
        let (a, ct) = one_table(
            "CREATE TABLE t (ts TIMESTAMP NOT NULL DEFAULT CURRENT_TIMESTAMP \
             ON UPDATE CURRENT_TIMESTAMP)",
        );
        let cols = a.columns(ct.columns);
        assert_eq!(cols.len(), 1);
        assert!(cols[0].not_null);
        assert_eq!(cols[0].default.as_deref(), Some("CURRENT_TIMESTAMP"));
    }

    #[test]
    fn column_comments() {
        let (a, ct) = one_table("CREATE TABLE t (a INT COMMENT 'the answer')");
        assert_eq!(
            a.columns(ct.columns)[0].comment.as_deref(),
            Some("the answer")
        );
    }

    #[test]
    fn serial_and_json_types() {
        let (a, ct) = one_table("CREATE TABLE t (id SERIAL, data JSON)");
        let cols = a.columns(ct.columns);
        assert_eq!(cols[0].data_type.family, TypeFamily::Serial);
        assert_eq!(cols[1].data_type.family, TypeFamily::Json);
    }

    #[test]
    fn varchar_max_sentinel() {
        let (a, ct) = one_table("CREATE TABLE t (a VARCHAR(MAX))");
        assert_eq!(a.columns(ct.columns)[0].data_type.params, vec![0]);
    }

    #[test]
    fn negative_default() {
        let (a, ct) = one_table("CREATE TABLE t (a INT DEFAULT -1)");
        assert_eq!(a.columns(ct.columns)[0].default.as_deref(), Some("-1"));
    }

    #[test]
    fn empty_script_ok() {
        assert!(parse_script_arena("").unwrap().statements().is_empty());
        assert!(parse_script_arena("-- just a comment\n")
            .unwrap()
            .statements()
            .is_empty());
    }

    #[test]
    fn broken_create_table_degrades_to_skip() {
        // Structurally hopeless CREATE TABLE should not fail the whole file.
        let sql = "CREATE TABLE (no name here; CREATE TABLE ok_t (a INT);";
        let arena = parse_script_arena(sql).unwrap();
        assert_eq!(create_table_names(&arena), vec!["ok_t"]);
    }

    #[test]
    fn fulltext_key_parsed_as_index() {
        let (a, ct) = one_table("CREATE TABLE t (body TEXT, FULLTEXT KEY ft_body (body))");
        assert!(matches!(
            &a.constraints(ct.constraints)[0],
            TableConstraint::Index { .. }
        ));
    }

    #[test]
    fn generated_column_skipped_gracefully() {
        let (a, ct) = one_table("CREATE TABLE t (a INT, b INT GENERATED ALWAYS AS (a + 1) STORED)");
        let cols = a.columns(ct.columns);
        assert_eq!(cols.len(), 2);
        assert_eq!(cols[1].name, "b");
    }
}
