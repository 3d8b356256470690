//! Abstract syntax for the subset of SQL the miner cares about: column
//! definitions, table constraints and `ALTER TABLE` operations.
//!
//! Statements themselves live in a [`crate::arena::ScriptArena`], which
//! pools these parts. Only `CREATE TABLE`, `ALTER TABLE` and `DROP TABLE`
//! are represented structurally; every other statement is recorded as
//! [`crate::arena::ArenaStatement::Other`] with the keyword that introduced
//! it, so callers can still count `INSERT`s, `CREATE INDEX`es and
//! directives — those are the study's *non-active* change classes.

use crate::types::DataType;

/// One alteration within `ALTER TABLE`.
#[derive(Debug, Clone, PartialEq)]
pub enum AlterOp {
    /// `ADD [COLUMN] <def>`.
    AddColumn(ColumnDef),
    /// `DROP [COLUMN] name`.
    DropColumn(String),
    /// `MODIFY [COLUMN] <def>` — redefine the column in place.
    ModifyColumn(ColumnDef),
    /// `CHANGE [COLUMN] old <def>` — rename + redefine.
    ChangeColumn {
        /// The column's previous name.
        old_name: String,
        /// The new definition (carrying the new name).
        def: ColumnDef,
    },
    /// `ADD PRIMARY KEY (cols)`.
    AddPrimaryKey(Vec<String>),
    /// `DROP PRIMARY KEY`.
    DropPrimaryKey,
    /// `RENAME [TO] new_name`.
    RenameTable(String),
}

/// One column definition inside `CREATE TABLE`.
#[derive(Debug, Clone, PartialEq)]
pub struct ColumnDef {
    /// Column name.
    pub name: String,
    /// Parsed, normalized data type.
    pub data_type: DataType,
    /// `NOT NULL` present.
    pub not_null: bool,
    /// Inline `PRIMARY KEY` on the column.
    pub inline_primary_key: bool,
    /// `AUTO_INCREMENT` (or dialect equivalents such as `AUTOINCREMENT`).
    pub auto_increment: bool,
    /// `UNIQUE` on the column.
    pub unique: bool,
    /// `DEFAULT <value>` rendered as text, if present.
    pub default: Option<String>,
    /// `COMMENT '<text>'`, if present.
    pub comment: Option<String>,
}

impl ColumnDef {
    /// A minimal column of the given name and type; used by builders/tests.
    pub fn new(name: impl Into<String>, data_type: DataType) -> Self {
        ColumnDef {
            name: name.into(),
            data_type,
            not_null: false,
            inline_primary_key: false,
            auto_increment: false,
            unique: false,
            default: None,
            comment: None,
        }
    }
}

/// A table-level constraint.
#[derive(Debug, Clone, PartialEq)]
pub enum TableConstraint {
    /// `PRIMARY KEY (a, b)`.
    PrimaryKey {
        /// Optional constraint name.
        name: Option<String>,
        /// Key columns in order.
        columns: Vec<String>,
    },
    /// `UNIQUE [KEY|INDEX] [name] (a, b)`.
    Unique {
        /// Optional index name.
        name: Option<String>,
        /// Key columns in order.
        columns: Vec<String>,
    },
    /// `[CONSTRAINT name] FOREIGN KEY (a) REFERENCES t (b)`.
    ForeignKey {
        /// Optional constraint name.
        name: Option<String>,
        /// Referencing columns.
        columns: Vec<String>,
        /// Referenced table.
        foreign_table: String,
        /// Referenced columns (may be empty when elided).
        foreign_columns: Vec<String>,
    },
    /// `KEY`/`INDEX [name] (a, b)` — a plain secondary index. Changes to
    /// these are physical-level and non-active for the study.
    Index {
        /// Optional index name.
        name: Option<String>,
        /// Indexed columns in order.
        columns: Vec<String>,
    },
    /// `CHECK (...)`, body kept as raw text.
    Check {
        /// Optional constraint name.
        name: Option<String>,
    },
}
