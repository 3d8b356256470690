//! # schevo-ddl
//!
//! A tolerant, MySQL-flavored SQL DDL front end for schema-evolution mining.
//!
//! The crate provides everything needed to turn the raw text of a project's
//! DDL file (one version of its `schema.sql`) into a *logical schema*: the
//! set of tables, their ordered attributes, attribute data types, and primary
//! keys. This is the exact granularity at which the ICDE 2021 study
//! *"Profiles of Schema Evolution in Free Open Source Software Projects"*
//! measures change: everything else in the file (comments, `INSERT`
//! statements, index definitions, vendor directives, storage options) is
//! deliberately ignored, because changes to those artifacts are "non-active"
//! commits in the study's nomenclature.
//!
//! ## Pipeline
//!
//! ```text
//! &str ──lexer──▶ Vec<Token> ──parser──▶ ScriptArena ──schema──▶ Schema
//! ```
//!
//! * [`lexer`] tokenizes SQL with full comment/string/quoted-identifier
//!   handling and byte-accurate spans.
//! * [`parser`] is a *tolerant* recursive-descent parser: it fully parses
//!   `CREATE TABLE` statements and skips every other statement, so that a
//!   real-world dump full of `INSERT`s, `SET` directives and vendor noise
//!   still yields its logical schema.
//! * [`arena`] holds a parsed script: its statements, with their columns,
//!   constraints and `ALTER TABLE` operations ([`ast`]) in shared pools.
//! * [`schema`] lowers the arena to the [`schema::Schema`] model and is
//!   the input to the diff engine in `schevo-core`.
//! * [`history`] parses the successive versions of one file, reusing the
//!   statements a version shares verbatim with the previous one; each
//!   result equals [`parse_schema`]'s.
//! * [`render`] pretty-prints a [`schema::Schema`] back to canonical DDL;
//!   `parse(render(s)) == s` is property-tested and is what the synthetic
//!   corpus generator uses to materialize file versions.
//!
//! ## Quick example
//!
//! ```
//! use schevo_ddl::parse_schema;
//!
//! let sql = r#"
//!     -- users of the system
//!     CREATE TABLE users (
//!         id INT(11) NOT NULL AUTO_INCREMENT,
//!         email VARCHAR(255) NOT NULL,
//!         PRIMARY KEY (id)
//!     ) ENGINE=InnoDB;
//!     INSERT INTO users VALUES (1, 'a@b.c');
//! "#;
//! let schema = parse_schema(sql).unwrap();
//! assert_eq!(schema.table_count(), 1);
//! assert_eq!(schema.attribute_count(), 2);
//! assert_eq!(schema.table("users").unwrap().primary_key(), ["id"]);
//! ```

#![warn(missing_docs)]

pub mod arena;
pub mod ast;
pub mod error;
pub mod history;
pub mod lexer;
pub mod parser;
pub mod render;
pub mod schema;
pub mod token;
pub mod types;

pub use arena::{arena_bytes_total, ScriptArena};
pub use error::{ParseError, Span};
pub use history::HistoryParser;
pub use lexer::tokenize_recovering;
pub use parser::{parse_script_arena, Parser};
pub use schema::{Attribute, Schema, Table};
pub use token::Text;

/// Parse the text of a DDL file straight into its logical [`Schema`].
///
/// It runs the tolerant parser over the whole script and lowers every
/// `CREATE TABLE` statement into the schema model. Statements that are not
/// `CREATE TABLE` are skipped; a file with no `CREATE TABLE` statements
/// yields an empty schema (the collection funnel filters such files out
/// upstream). The mining pipeline parses whole histories with
/// [`HistoryParser`], which returns the same schemas while reusing
/// unchanged statements.
///
/// # Errors
///
/// Returns [`ParseError`] only for input that cannot be tokenized or whose
/// `CREATE TABLE` statements are structurally broken beyond recovery.
pub fn parse_schema(sql: &str) -> Result<Schema, ParseError> {
    let _span = schevo_obs::span!("ddl.parse", bytes = sql.len());
    let arena = parse_script_arena(sql)?;
    arena::record_arena_bytes(arena.heap_bytes());
    Ok(schema::Schema::from_arena(&arena))
}

/// Whether `sql`'s logical schema holds any table: exactly
/// `parse_schema(sql).map(|s| !s.is_empty()).unwrap_or(false)`, the
/// collection funnel's "has a `CREATE TABLE`" check.
///
/// It parses the script as [`parse_schema`] does and applies its
/// statements by the same table-level rules (create, `TEMPORARY`, drop,
/// rename), but lowers each `CREATE TABLE` to its name alone and skips
/// column-level alterations, so no attribute, key or type is built.
///
/// ```
/// use schevo_ddl::declares_tables;
///
/// assert!(declares_tables("CREATE TABLE t (a INT);"));
/// assert!(!declares_tables("CREATE TABLE t (a INT); DROP TABLE t;"));
/// assert!(!declares_tables("CREATE TEMPORARY TABLE t (a INT);"));
/// assert!(!declares_tables("CREATE TABLE t (a INT); 'unterminated"));
/// ```
pub fn declares_tables(sql: &str) -> bool {
    parse_script_arena(sql)
        .is_ok_and(|arena| !Schema::lowered(&arena, schema::Lowering::NamesOnly).is_empty())
}

/// The result of a best-effort parse: the schema salvaged from the
/// well-formed part of the input, plus an account of what was lost.
#[derive(Debug, Clone, PartialEq)]
pub struct RecoveredSchema {
    /// The schema lowered from every statement that survived.
    pub schema: Schema,
    /// The lex error that truncated tokenization, if any. When present,
    /// everything after its span start was discarded.
    pub lex_error: Option<ParseError>,
    /// `CREATE TABLE` statements that were structurally broken and
    /// degraded to skipped statements (statement-level recovery).
    pub dropped_statements: usize,
}

/// Parse as much of a DDL file as possible, never failing.
///
/// Tokenization stops at the first lex error (unterminated string,
/// comment, or quoted identifier — all terminal by construction) and the
/// well-formed token prefix is parsed normally; structurally broken
/// `CREATE TABLE` statements degrade to skipped statements exactly as in
/// [`parse_schema`]. On clean input the result equals
/// `parse_schema(sql)` with no error and no drops — recovery never
/// perturbs the strict path.
pub fn parse_schema_recovering(sql: &str) -> RecoveredSchema {
    use arena::ArenaStatement;
    let (tokens, lex_error) = lexer::tokenize_recovering(sql);
    let arena = Parser::new(tokens).script_arena().unwrap_or_default();
    arena::record_arena_bytes(arena.heap_bytes());
    let dropped_statements = arena
        .statements()
        .iter()
        .filter(|s| matches!(s, ArenaStatement::Other { keyword } if keyword == "CREATE TABLE"))
        .count();
    RecoveredSchema {
        schema: schema::Schema::from_arena(&arena),
        lex_error,
        dropped_statements,
    }
}
