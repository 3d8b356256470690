//! The logical schema model: the unit the study's diff engine compares.
//!
//! A [`Schema`] is the set of tables of one version of a DDL file; a
//! [`Table`] is its ordered attributes plus its primary key. Everything the
//! study calls a *logical-level* construct lives here; indexes, storage
//! options, comments and data do not.

use crate::arena::{primary_key_of, ArenaCreateTable, ArenaStatement, ScriptArena};
use crate::ast::{ColumnDef, TableConstraint};
use crate::token::Text;
use crate::types::DataType;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::sync::Arc;

/// One attribute (column) of a table.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Attribute {
    /// Attribute name (case preserved, compared case-sensitively: MySQL
    /// column names are case-insensitive but dumps are internally
    /// consistent, and renames are out of scope for the study's measures).
    pub name: Text,
    /// Logical data type.
    pub data_type: DataType,
    /// Whether the attribute is declared `NOT NULL`.
    pub not_null: bool,
}

impl Attribute {
    /// Create an attribute.
    pub fn new(name: impl Into<Text>, data_type: DataType) -> Self {
        Attribute {
            name: name.into(),
            data_type,
            not_null: false,
        }
    }
}

/// A foreign-key reference from this table to another.
///
/// The study's *activity* measures do not count FK changes (they are not
/// among the six §III-B categories), but the paper names the treatment of
/// foreign keys in FOSS projects as an open research path — this model and
/// the analysis in `schevo-core::fk` implement that extension.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ForeignKey {
    /// Referencing columns of this table, in order.
    pub columns: Vec<String>,
    /// Referenced table name.
    pub foreign_table: String,
    /// Referenced columns (may be empty when elided in the DDL).
    pub foreign_columns: Vec<String>,
}

/// One table: ordered attributes plus primary key.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Table {
    /// Table name.
    pub name: String,
    attributes: Vec<Attribute>,
    /// Primary-key attribute names, in key order.
    primary_key: Vec<Text>,
    /// Foreign keys in declaration order.
    foreign_keys: Vec<ForeignKey>,
    /// Attribute name → position in `attributes`.
    index: HashMap<Text, usize>,
}

impl Table {
    /// Create an empty table.
    pub fn new(name: impl Into<String>) -> Self {
        Table {
            name: name.into(),
            attributes: Vec::new(),
            primary_key: Vec::new(),
            foreign_keys: Vec::new(),
            index: HashMap::new(),
        }
    }

    /// Append an attribute. Re-adding an existing name replaces the earlier
    /// definition in place (mirrors how MySQL would reject it, but mining
    /// must be tolerant of sloppy dumps).
    pub fn push_attribute(&mut self, attr: Attribute) {
        if let Some(&i) = self.index.get(&attr.name) {
            self.attributes[i] = attr;
        } else {
            self.index.insert(attr.name.clone(), self.attributes.len());
            self.attributes.push(attr);
        }
    }

    /// Remove an attribute by name; returns it if present. Also drops the
    /// attribute from the primary key and removes any foreign key that used
    /// it as a referencing column.
    pub fn remove_attribute(&mut self, name: &str) -> Option<Attribute> {
        let i = self.index.remove(name)?;
        let attr = self.attributes.remove(i);
        for v in self.index.values_mut() {
            if *v > i {
                *v -= 1;
            }
        }
        self.primary_key.retain(|k| k != name);
        self.foreign_keys.retain(|fk| !fk.columns.iter().any(|c| c == name));
        Some(attr)
    }

    /// Replace the attribute named `old_name` in place (keeping its
    /// position) with `attr`, renaming references in the primary key and in
    /// foreign keys. Returns false when `old_name` does not exist or the
    /// new name collides with a different attribute.
    pub fn replace_attribute(&mut self, old_name: &str, attr: Attribute) -> bool {
        let Some(&i) = self.index.get(old_name) else {
            return false;
        };
        if attr.name != old_name && self.index.contains_key(&attr.name) {
            return false;
        }
        let new_name = attr.name.clone();
        self.index.remove(old_name);
        self.index.insert(new_name.clone(), i);
        self.attributes[i] = attr;
        if new_name != old_name {
            for k in &mut self.primary_key {
                if k == old_name {
                    *k = new_name.clone();
                }
            }
            for fk in &mut self.foreign_keys {
                for c in &mut fk.columns {
                    if c == old_name {
                        *c = new_name.to_string();
                    }
                }
            }
        }
        true
    }

    /// Add a foreign key; silently dropped if any referencing column is not
    /// an attribute of this table (mirrors the tolerant-extraction stance).
    pub fn push_foreign_key(&mut self, fk: ForeignKey) {
        if fk
            .columns
            .iter()
            .all(|c| self.index.contains_key(c.as_str()))
            && !fk.columns.is_empty()
        {
            self.foreign_keys.push(fk);
        }
    }

    /// Foreign keys in declaration order.
    pub fn foreign_keys(&self) -> &[ForeignKey] {
        &self.foreign_keys
    }

    /// Remove the foreign key at `idx`, if any.
    pub fn remove_foreign_key(&mut self, idx: usize) -> Option<ForeignKey> {
        if idx < self.foreign_keys.len() {
            Some(self.foreign_keys.remove(idx))
        } else {
            None
        }
    }

    /// Set the primary key (names not present as attributes are dropped).
    pub fn set_primary_key<K: Into<Text>>(&mut self, key: impl IntoIterator<Item = K>) {
        self.primary_key = key
            .into_iter()
            .map(Into::into)
            .filter(|k| self.index.contains_key(k))
            .collect();
    }

    /// The primary key attribute names in order.
    pub fn primary_key(&self) -> &[Text] {
        &self.primary_key
    }

    /// Attributes in declaration order.
    pub fn attributes(&self) -> &[Attribute] {
        &self.attributes
    }

    /// Look up an attribute by name.
    pub fn attribute(&self, name: &str) -> Option<&Attribute> {
        self.index.get(name).map(|&i| &self.attributes[i])
    }

    /// Mutable lookup by name.
    pub fn attribute_mut(&mut self, name: &str) -> Option<&mut Attribute> {
        let i = *self.index.get(name)?;
        Some(&mut self.attributes[i])
    }

    /// Number of attributes.
    pub fn arity(&self) -> usize {
        self.attributes.len()
    }

    /// Whether `name` participates in the primary key.
    pub fn in_primary_key(&self, name: &str) -> bool {
        self.primary_key.iter().any(|k| k == name)
    }

    /// Lower one pooled `CREATE TABLE` into its table, as `lowering` asks;
    /// `None` for a `TEMPORARY` table, which the logical schema excludes.
    pub(crate) fn lower(
        arena: &ScriptArena,
        ct: &ArenaCreateTable,
        lowering: Lowering,
    ) -> Option<Table> {
        if ct.temporary {
            return None;
        }
        let mut table = Table::new(ct.name.as_str());
        if lowering == Lowering::NamesOnly {
            return Some(table);
        }
        let columns = arena.columns(ct.columns);
        let constraints = arena.constraints(ct.constraints);
        table.attributes.reserve(columns.len());
        table.index.reserve(columns.len());
        for col in columns {
            table.push_attribute(column_to_attribute(col));
        }
        table.set_primary_key(primary_key_of(columns, constraints));
        for constraint in constraints {
            if let TableConstraint::ForeignKey {
                columns,
                foreign_table,
                foreign_columns,
                ..
            } = constraint
            {
                table.push_foreign_key(ForeignKey {
                    columns: columns.iter().map(|c| c.as_str().to_owned()).collect(),
                    foreign_table: foreign_table.to_string(),
                    foreign_columns: foreign_columns
                        .iter()
                        .map(|c| c.as_str().to_owned())
                        .collect(),
                });
            }
        }
        Some(table)
    }
}

fn column_to_attribute(col: &ColumnDef) -> Attribute {
    Attribute {
        name: col.name.clone(),
        data_type: col.data_type.clone(),
        not_null: col.not_null,
    }
}

/// How [`Schema::apply`] lowers the statements it applies.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Lowering {
    /// Tables with their attributes, primary keys and foreign keys.
    Full,
    /// Each table as its name alone, and no column-level alteration: the
    /// same tables, in the same order, as [`Lowering::Full`] yields, for a
    /// caller that asks only which tables a script leaves.
    NamesOnly,
}

/// A logical schema: the tables of one DDL file version, in file order.
///
/// Tables and the name index are shared (`Arc`): cloning a schema, or
/// building the next version of a history from the previous one, bumps
/// reference counts instead of copying names and attributes. Mutation
/// through [`Schema::table_mut`] is copy-on-write, as is every change to
/// the index, so a shared table or index is never changed under another
/// schema that holds it.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct Schema {
    tables: Vec<Arc<Table>>,
    index: Arc<HashMap<Text, usize>>,
}

impl Schema {
    /// An empty schema.
    pub fn new() -> Self {
        Schema::default()
    }

    /// Lower a parsed [`ScriptArena`] into its logical schema, applying
    /// statements in file order.
    ///
    /// `TEMPORARY` tables are excluded. When the same table is created twice
    /// (e.g. a dump with per-vendor sections), the *last* definition wins —
    /// it is the one the application ends up with. `DROP TABLE` removes
    /// tables; `ALTER TABLE` statements (files sometimes carry trailing
    /// migrations) are applied in place; alterations naming unknown tables
    /// or columns are ignored, matching the tolerant-extraction stance.
    pub fn from_arena(arena: &ScriptArena) -> Schema {
        Schema::lowered(arena, Lowering::Full)
    }

    /// The schema `arena`'s statements build, lowered as `lowering` asks.
    pub(crate) fn lowered(arena: &ScriptArena, lowering: Lowering) -> Schema {
        let mut schema = Schema::new();
        schema.apply_arena(arena, lowering);
        schema
    }

    /// The schema that upserting `tables` one by one into an empty schema
    /// builds, sharing `like`'s name index when `tables` have the names of
    /// `like`'s tables in the same order. Those names are distinct, so each
    /// upsert would have appended its table at its own position.
    pub(crate) fn with_tables(like: &Schema, tables: Vec<Arc<Table>>) -> Schema {
        let same_names = tables.len() == like.tables.len()
            && (tables.iter().zip(&like.tables))
                .all(|(t, l)| Arc::ptr_eq(t, l) || t.name == l.name);
        if same_names {
            return Schema {
                tables,
                index: Arc::clone(&like.index),
            };
        }
        let mut schema = Schema::new();
        for table in tables {
            schema.upsert_table(table);
        }
        schema
    }

    /// Apply every statement of `arena` to this schema, in order, lowering
    /// as `lowering` asks.
    pub(crate) fn apply_arena(&mut self, arena: &ScriptArena, lowering: Lowering) {
        for statement in arena.statements() {
            self.apply(arena, statement, lowering);
        }
    }

    /// Apply one parsed statement of `arena` to this schema, as
    /// [`Schema::from_arena`] describes, lowering as `lowering` asks. The
    /// table-level rules (create, `TEMPORARY`, drop, rename) are the same
    /// under either lowering.
    pub(crate) fn apply(
        &mut self,
        arena: &ScriptArena,
        statement: &ArenaStatement,
        lowering: Lowering,
    ) {
        use crate::ast::AlterOp;
        match statement {
            ArenaStatement::CreateTable(ct) => {
                if let Some(table) = Table::lower(arena, ct, lowering) {
                    self.upsert_table(table);
                }
            }
            ArenaStatement::DropTable { names } => {
                for n in arena.names(*names) {
                    self.remove_table(n);
                }
            }
            ArenaStatement::AlterTable { name, ops } => {
                for op in arena.ops(*ops) {
                    if let AlterOp::RenameTable(new_name) = op {
                        if let Some(mut t) = self.remove_table(name) {
                            t.name = new_name.to_string();
                            self.upsert_table(t);
                        }
                        continue;
                    }
                    if lowering == Lowering::NamesOnly {
                        continue;
                    }
                    let Some(table) = self.table_mut(name) else {
                        continue;
                    };
                    match op {
                        AlterOp::AddColumn(def) => {
                            table.push_attribute(column_to_attribute(def));
                            if def.inline_primary_key {
                                table.set_primary_key([def.name.clone()]);
                            }
                        }
                        AlterOp::DropColumn(col) => {
                            table.remove_attribute(col);
                        }
                        AlterOp::ModifyColumn(def) => {
                            table.replace_attribute(&def.name, column_to_attribute(def));
                        }
                        AlterOp::ChangeColumn { old_name, def } => {
                            table.replace_attribute(old_name, column_to_attribute(def));
                        }
                        AlterOp::AddPrimaryKey(cols) => {
                            table.set_primary_key(cols.iter().cloned());
                        }
                        AlterOp::DropPrimaryKey => {
                            table.set_primary_key(std::iter::empty::<Text>());
                        }
                        // Renames are applied before the table lookup
                        // above; nothing left to do here.
                        AlterOp::RenameTable(_) => {}
                    }
                }
            }
            ArenaStatement::Other { .. } => {}
        }
    }

    /// Insert a table, replacing any previous definition of the same name
    /// (the replacement keeps the original file position).
    pub fn upsert_table(&mut self, table: impl Into<Arc<Table>>) {
        let table = table.into();
        if let Some(&i) = self.index.get(table.name.as_str()) {
            self.tables[i] = table;
        } else {
            let index = Arc::make_mut(&mut self.index);
            index.insert(Text::new(&table.name), self.tables.len());
            self.tables.push(table);
        }
    }

    /// Remove a table by name, returning it if present: the table itself
    /// when no other schema shares it, else a clone.
    pub fn remove_table(&mut self, name: &str) -> Option<Table> {
        let i = *self.index.get(name)?;
        let index = Arc::make_mut(&mut self.index);
        index.remove(name);
        let mut t = self.tables.remove(i);
        for v in index.values_mut() {
            if *v > i {
                *v -= 1;
            }
        }
        // `make_mut` clones only a shared table; the placeholder left
        // behind allocates nothing and is freed with `t`.
        Some(std::mem::replace(Arc::make_mut(&mut t), Table::new("")))
    }

    /// Tables in file order.
    pub fn tables(&self) -> &[Arc<Table>] {
        &self.tables
    }

    /// Look up a table by name.
    pub fn table(&self, name: &str) -> Option<&Table> {
        self.index.get(name).map(|&i| &*self.tables[i])
    }

    /// Mutable lookup by name. Copy-on-write: a table shared with another
    /// schema is cloned first, so only this schema sees the change.
    pub fn table_mut(&mut self, name: &str) -> Option<&mut Table> {
        let i = *self.index.get(name)?;
        Some(Arc::make_mut(&mut self.tables[i]))
    }

    /// Number of tables — the paper's *schema size* in tables.
    pub fn table_count(&self) -> usize {
        self.tables.len()
    }

    /// Total number of attributes — the paper's *schema size* in attributes.
    pub fn attribute_count(&self) -> usize {
        self.tables.iter().map(|t| t.arity()).sum()
    }

    /// Whether the schema has no tables at all.
    pub fn is_empty(&self) -> bool {
        self.tables.is_empty()
    }

    /// Iterate table names in file order.
    pub fn table_names(&self) -> impl Iterator<Item = &str> {
        self.tables.iter().map(|t| t.name.as_str())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse_schema;

    #[test]
    fn from_script_counts_sizes() {
        let s = parse_schema(
            "CREATE TABLE a (x INT, y INT); CREATE TABLE b (z VARCHAR(10), PRIMARY KEY (z));",
        )
        .unwrap();
        assert_eq!(s.table_count(), 2);
        assert_eq!(s.attribute_count(), 3);
        assert_eq!(s.table("b").unwrap().primary_key(), &["z".to_string()]);
    }

    #[test]
    fn temporary_tables_excluded() {
        let s = parse_schema("CREATE TEMPORARY TABLE tmp (a INT); CREATE TABLE t (a INT);")
            .unwrap();
        assert_eq!(s.table_count(), 1);
        assert!(s.table("tmp").is_none());
    }

    #[test]
    fn duplicate_create_last_wins() {
        let s = parse_schema("CREATE TABLE t (a INT); CREATE TABLE t (a INT, b INT);").unwrap();
        assert_eq!(s.table_count(), 1);
        assert_eq!(s.table("t").unwrap().arity(), 2);
    }

    #[test]
    fn remove_table_fixes_index() {
        let mut s = parse_schema(
            "CREATE TABLE a (x INT); CREATE TABLE b (y INT); CREATE TABLE c (z INT);",
        )
        .unwrap();
        s.remove_table("b");
        assert_eq!(s.table_count(), 2);
        assert_eq!(s.table("c").unwrap().name, "c");
        assert_eq!(s.table("a").unwrap().name, "a");
        assert!(s.table("b").is_none());
    }

    #[test]
    fn shared_tables_are_copy_on_write() {
        let a = parse_schema("CREATE TABLE t (x INT); CREATE TABLE u (y INT);").unwrap();
        let mut b = a.clone();
        b.table_mut("t")
            .unwrap()
            .push_attribute(Attribute::new("z", DataType::int()));
        assert_eq!(b.remove_table("u").unwrap().name, "u");
        assert_eq!(a.table("t").unwrap().arity(), 1);
        assert_eq!(a.table_count(), 2);
        assert_eq!(b.table("t").unwrap().arity(), 2);
        assert_eq!(b.table_count(), 1);
    }

    #[test]
    fn remove_attribute_updates_pk_and_index() {
        let mut t = Table::new("t");
        t.push_attribute(Attribute::new("a", DataType::int()));
        t.push_attribute(Attribute::new("b", DataType::int()));
        t.push_attribute(Attribute::new("c", DataType::int()));
        t.set_primary_key(["a", "b"]);
        t.remove_attribute("b");
        assert_eq!(t.arity(), 2);
        assert_eq!(t.primary_key(), &["a".to_string()]);
        assert!(t.attribute("c").is_some());
        assert!(t.attribute("b").is_none());
    }

    #[test]
    fn set_primary_key_drops_unknown_columns() {
        let mut t = Table::new("t");
        t.push_attribute(Attribute::new("a", DataType::int()));
        t.set_primary_key(["a", "ghost"]);
        assert_eq!(t.primary_key(), &["a".to_string()]);
    }

    #[test]
    fn push_attribute_replaces_same_name() {
        let mut t = Table::new("t");
        t.push_attribute(Attribute::new("a", DataType::int()));
        t.push_attribute(Attribute::new("a", DataType::varchar(10)));
        assert_eq!(t.arity(), 1);
        assert_eq!(
            t.attribute("a").unwrap().data_type,
            DataType::varchar(10)
        );
    }

    #[test]
    fn alter_statements_applied_in_order() {
        let s = parse_schema(
            "CREATE TABLE t (id INT, old_col TEXT, kind INT, PRIMARY KEY (id));\
             ALTER TABLE t ADD COLUMN extra VARCHAR(40), DROP COLUMN old_col;\
             ALTER TABLE t CHANGE kind category BIGINT;\
             ALTER TABLE t DROP PRIMARY KEY;",
        )
        .unwrap();
        let t = s.table("t").unwrap();
        assert_eq!(t.arity(), 3);
        assert!(t.attribute("extra").is_some());
        assert!(t.attribute("old_col").is_none());
        assert!(t.attribute("kind").is_none());
        let cat = t.attribute("category").unwrap();
        assert_eq!(cat.data_type.family, crate::types::TypeFamily::BigInt);
        assert!(t.primary_key().is_empty());
        // `category` kept `kind`'s position (index 1, after old_col removal
        // shifted things: id, category, extra).
        assert_eq!(t.attributes()[1].name, "category");
    }

    #[test]
    fn drop_table_removes_and_alter_unknown_is_ignored() {
        let s = parse_schema(
            "CREATE TABLE a (x INT); CREATE TABLE b (y INT);\
             DROP TABLE a;\
             ALTER TABLE ghost ADD COLUMN z INT;\
             ALTER TABLE b ADD COLUMN z INT;",
        )
        .unwrap();
        assert!(s.table("a").is_none());
        assert_eq!(s.table("b").unwrap().arity(), 2);
    }

    #[test]
    fn alter_rename_table() {
        let s = parse_schema(
            "CREATE TABLE old_name (x INT); ALTER TABLE old_name RENAME TO new_name;",
        )
        .unwrap();
        assert!(s.table("old_name").is_none());
        assert_eq!(s.table("new_name").unwrap().arity(), 1);
    }

    #[test]
    fn drop_then_recreate_pattern() {
        // The ubiquitous dump pattern.
        let s = parse_schema(
            "DROP TABLE IF EXISTS t;\
             CREATE TABLE t (a INT, b INT);",
        )
        .unwrap();
        assert_eq!(s.table("t").unwrap().arity(), 2);
    }

    #[test]
    fn replace_attribute_handles_collisions() {
        let mut t = Table::new("t");
        t.push_attribute(Attribute::new("a", DataType::int()));
        t.push_attribute(Attribute::new("b", DataType::int()));
        // Renaming a → b collides.
        assert!(!t.replace_attribute("a", Attribute::new("b", DataType::text())));
        // Unknown old name.
        assert!(!t.replace_attribute("zzz", Attribute::new("w", DataType::text())));
        // In-place type change works.
        assert!(t.replace_attribute("a", Attribute::new("a", DataType::text())));
        assert!(t
            .attribute("a")
            .unwrap()
            .data_type
            .logical_eq(&DataType::text()));
    }

    #[test]
    fn replace_attribute_renames_pk_and_fk() {
        let mut t = Table::new("t");
        t.push_attribute(Attribute::new("a", DataType::int()));
        t.push_attribute(Attribute::new("b", DataType::int()));
        t.set_primary_key(["a"]);
        t.push_foreign_key(ForeignKey {
            columns: vec!["a".into()],
            foreign_table: "p".into(),
            foreign_columns: vec!["id".into()],
        });
        assert!(t.replace_attribute("a", Attribute::new("a2", DataType::int())));
        assert_eq!(t.primary_key(), &["a2".to_string()]);
        assert_eq!(t.foreign_keys()[0].columns, vec!["a2".to_string()]);
    }

    #[test]
    fn foreign_keys_extracted_from_script() {
        let s = parse_schema(
            "CREATE TABLE parent (id INT, PRIMARY KEY (id));\
             CREATE TABLE child (id INT, parent_id INT, \
               CONSTRAINT fk_p FOREIGN KEY (parent_id) REFERENCES parent (id));",
        )
        .unwrap();
        let child = s.table("child").unwrap();
        assert_eq!(child.foreign_keys().len(), 1);
        let fk = &child.foreign_keys()[0];
        assert_eq!(fk.columns, vec!["parent_id".to_string()]);
        assert_eq!(fk.foreign_table, "parent");
        assert_eq!(fk.foreign_columns, vec!["id".to_string()]);
    }

    #[test]
    fn fk_with_unknown_local_column_is_dropped() {
        let s = parse_schema(
            "CREATE TABLE child (id INT, FOREIGN KEY (ghost) REFERENCES parent (id));",
        )
        .unwrap();
        assert!(s.table("child").unwrap().foreign_keys().is_empty());
    }

    #[test]
    fn removing_fk_column_prunes_fk() {
        let mut t = Table::new("child");
        t.push_attribute(Attribute::new("id", DataType::int()));
        t.push_attribute(Attribute::new("parent_id", DataType::int()));
        t.push_foreign_key(ForeignKey {
            columns: vec!["parent_id".into()],
            foreign_table: "parent".into(),
            foreign_columns: vec!["id".into()],
        });
        assert_eq!(t.foreign_keys().len(), 1);
        t.remove_attribute("parent_id");
        assert!(t.foreign_keys().is_empty());
    }

    #[test]
    fn remove_foreign_key_by_index() {
        let mut t = Table::new("child");
        t.push_attribute(Attribute::new("a", DataType::int()));
        t.push_foreign_key(ForeignKey {
            columns: vec!["a".into()],
            foreign_table: "p".into(),
            foreign_columns: vec![],
        });
        assert!(t.remove_foreign_key(5).is_none());
        assert!(t.remove_foreign_key(0).is_some());
        assert!(t.foreign_keys().is_empty());
    }

    #[test]
    fn empty_script_empty_schema() {
        let s = parse_schema("INSERT INTO t VALUES (1);").unwrap();
        assert!(s.is_empty());
        assert_eq!(s.attribute_count(), 0);
    }
}
