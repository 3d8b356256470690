//! The attribute-level schema diff engine (the reproduction of *Hecate*).
//!
//! For a transition `old → new` the engine identifies and quantifies the
//! paper's six update categories, *all measured in attributes* (§III-B):
//!
//! | category | meaning |
//! |---|---|
//! | born      | attributes born with a new table |
//! | injected  | attributes injected into an existing table |
//! | deleted   | attributes deleted with a removed table |
//! | ejected   | attributes ejected from a surviving table |
//! | type-changed | attributes whose data type changed |
//! | pk-changed   | attributes whose primary-key participation changed |
//!
//! **Expansion** = born + injected; **Maintenance** = the other four;
//! **Activity** = Expansion + Maintenance. An attribute that changes both
//! its type and its key participation counts once in each category — the
//! categories quantify *updates*, not touched attributes.

use crate::intern::{self, Symbol, SymbolMap};
use schevo_ddl::{Schema, Table};
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// A named attribute occurrence `(table, attribute)`.
pub type AttrRef = (String, String);

/// The outcome of diffing two schema versions.
#[derive(Debug, Clone, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct SchemaDelta {
    /// Names of tables present in `new` but not `old`.
    pub tables_inserted: Vec<String>,
    /// Names of tables present in `old` but not `new`.
    pub tables_deleted: Vec<String>,
    /// Attributes born with new tables.
    pub born: Vec<AttrRef>,
    /// Attributes injected into surviving tables.
    pub injected: Vec<AttrRef>,
    /// Attributes deleted together with their table.
    pub deleted: Vec<AttrRef>,
    /// Attributes ejected from surviving tables.
    pub ejected: Vec<AttrRef>,
    /// Attributes (in surviving tables) whose data type changed.
    pub type_changed: Vec<AttrRef>,
    /// Attributes (in surviving tables) whose PK participation changed.
    pub pk_changed: Vec<AttrRef>,
    /// Foreign keys present in `new` but not `old` (keyed by owning table).
    /// **Not** part of the paper's activity measures; tracked for the
    /// foreign-key extension study (`crate::fk`).
    pub fk_added: Vec<(String, schevo_ddl::schema::ForeignKey)>,
    /// Foreign keys present in `old` but not `new` — same caveat.
    pub fk_removed: Vec<(String, schevo_ddl::schema::ForeignKey)>,
}

impl SchemaDelta {
    /// Expansion in attributes: born + injected.
    pub fn expansion(&self) -> u64 {
        (self.born.len() + self.injected.len()) as u64
    }

    /// Maintenance in attributes: deleted + ejected + type + PK changes.
    pub fn maintenance(&self) -> u64 {
        (self.deleted.len() + self.ejected.len() + self.type_changed.len() + self.pk_changed.len())
            as u64
    }

    /// Total activity: expansion + maintenance.
    pub fn activity(&self) -> u64 {
        self.expansion() + self.maintenance()
    }

    /// Whether the transition is an *active commit* (activity > 0).
    pub fn is_active(&self) -> bool {
        self.activity() > 0
    }

    /// Number of tables inserted.
    pub fn table_insertions(&self) -> u64 {
        self.tables_inserted.len() as u64
    }

    /// Number of tables deleted.
    pub fn table_deletions(&self) -> u64 {
        self.tables_deleted.len() as u64
    }
}

/// A [`Table`] annotated with interned identifiers: attribute symbols in
/// declaration order, a symbol-keyed attribute index, and the primary key
/// as symbols. All matching inside [`diff`] happens on these `u32` views;
/// the emitted [`SchemaDelta`] clones strings back out of the table itself.
struct TableView<'a> {
    table: &'a Table,
    /// Attribute symbols, parallel to `table.attributes()`.
    attr_syms: Vec<Symbol>,
    /// Symbol → index into `table.attributes()`. Attribute names are
    /// unique within a table (`push_attribute` replaces in place), so the
    /// map is total over `attr_syms`.
    attrs: SymbolMap<u32>,
    /// Primary-key attribute symbols, in key order.
    pk: Vec<Symbol>,
}

impl TableView<'_> {
    fn attribute(&self, sym: Symbol) -> Option<&schevo_ddl::Attribute> {
        self.attrs
            .get(&sym)
            .and_then(|&i| self.table.attributes().get(i as usize))
    }

    fn in_primary_key(&self, sym: Symbol) -> bool {
        self.pk.contains(&sym)
    }
}

/// A [`Schema`] annotated with interned identifiers: table views in file
/// order plus a symbol-keyed table index.
struct SchemaView<'a> {
    tables: Vec<(Symbol, TableView<'a>)>,
    index: SymbolMap<u32>,
}

impl<'a> SchemaView<'a> {
    /// Build the view over `tables`, interning every table and attribute
    /// name. One lock acquisition per schema, not per name.
    fn build(tables_in: impl Iterator<Item = &'a Table>) -> Self {
        intern::with_interner(|it| {
            let mut tables = Vec::new();
            let mut index = SymbolMap::default();
            for (ti, table) in tables_in.enumerate() {
                let tsym = it.intern(&table.name);
                let attr_syms: Vec<Symbol> = table
                    .attributes()
                    .iter()
                    .map(|a| it.intern(&a.name))
                    .collect();
                let mut attrs = SymbolMap::default();
                attrs.reserve(attr_syms.len());
                for (ai, &asym) in attr_syms.iter().enumerate() {
                    attrs.insert(asym, ai as u32);
                }
                let pk = table
                    .primary_key()
                    .iter()
                    .map(|k| it.intern(k))
                    .collect();
                index.insert(tsym, ti as u32);
                tables.push((
                    tsym,
                    TableView {
                        table,
                        attr_syms,
                        attrs,
                        pk,
                    },
                ));
            }
            SchemaView { tables, index }
        })
    }

    fn table(&self, sym: Symbol) -> Option<&TableView<'a>> {
        self.index
            .get(&sym)
            .and_then(|&i| self.tables.get(i as usize))
            .map(|(_, tv)| tv)
    }
}

/// The addresses of `schema`'s tables, sorted for binary search.
fn sorted_table_ptrs(schema: &Schema) -> Vec<*const Table> {
    let mut ptrs: Vec<_> = schema.tables().iter().map(Arc::as_ptr).collect();
    ptrs.sort_unstable();
    ptrs
}

/// The tables of `schema`, in file order, that the other version (whose
/// [`sorted_table_ptrs`] are `other`) does not hold as the same `Arc`.
fn unshared<'a>(schema: &'a Schema, other: &'a [*const Table]) -> impl Iterator<Item = &'a Table> {
    schema
        .tables()
        .iter()
        .filter(|t| other.binary_search(&Arc::as_ptr(t)).is_err())
        .map(|t| &**t)
}

/// Diff two schema versions into a [`SchemaDelta`].
///
/// Tables and attributes are matched by name; renames register as a
/// delete/insert pair, mirroring the original Hecate tool (rename detection
/// is undecidable from DDL text alone and the paper's measures do not
/// include it).
///
/// Internally names are interned ([`crate::intern`]) and matched as `u32`
/// symbols; the emitted delta carries strings cloned from the input
/// schemas in file order, so the output is bit-identical to a string-keyed
/// diff and independent of symbol-id assignment order.
///
/// A table both versions hold as the same `Arc` (consecutive versions
/// parsed by `HistoryParser` share most of theirs) is unchanged, so it adds
/// nothing to the delta. Such shared tables are left out before the views
/// are built: interning their names would be most of the work. Leaving
/// them out changes no lookup, because a table's name is unique in its
/// schema and a shared table has the same name on both sides.
pub fn diff(old: &Schema, new: &Schema) -> SchemaDelta {
    let _span = schevo_obs::span!("core.diff");
    let mut delta = SchemaDelta::default();
    let (old_ptrs, new_ptrs) = (sorted_table_ptrs(old), sorted_table_ptrs(new));
    let old_view = SchemaView::build(unshared(old, &new_ptrs));
    let new_view = SchemaView::build(unshared(new, &old_ptrs));

    for (tsym, tv) in &new_view.tables {
        let table = tv.table;
        match old_view.table(*tsym) {
            None => {
                delta.tables_inserted.push(table.name.clone());
                for attr in table.attributes() {
                    delta
                        .born
                        .push((table.name.clone(), attr.name.as_str().to_owned()));
                }
            }
            Some(old_tv) => {
                let old_table = old_tv.table;
                // Surviving table: attribute-level comparison on symbols.
                for (attr, &asym) in table.attributes().iter().zip(&tv.attr_syms) {
                    match old_tv.attribute(asym) {
                        None => {
                            delta
                                .injected
                                .push((table.name.clone(), attr.name.as_str().to_owned()));
                        }
                        Some(old_attr) => {
                            if !old_attr.data_type.logical_eq(&attr.data_type) {
                                delta
                                    .type_changed
                                    .push((table.name.clone(), attr.name.as_str().to_owned()));
                            }
                            let was_pk = old_tv.in_primary_key(asym);
                            let is_pk = tv.in_primary_key(asym);
                            if was_pk != is_pk {
                                delta
                                    .pk_changed
                                    .push((table.name.clone(), attr.name.as_str().to_owned()));
                            }
                        }
                    }
                }
                for (old_attr, &asym) in old_table.attributes().iter().zip(&old_tv.attr_syms) {
                    if !tv.attrs.contains_key(&asym) {
                        delta
                            .ejected
                            .push((table.name.clone(), old_attr.name.as_str().to_owned()));
                    }
                }
                // FK set comparison (multiset by value) for surviving tables.
                for fk in table.foreign_keys() {
                    let before = old_table.foreign_keys().iter().filter(|f| *f == fk).count();
                    let after = table.foreign_keys().iter().filter(|f| *f == fk).count();
                    if after > before
                        && delta
                            .fk_added
                            .iter()
                            .filter(|(t, f)| t == &table.name && f == fk)
                            .count()
                            < after - before
                    {
                        delta.fk_added.push((table.name.clone(), fk.clone()));
                    }
                }
                for fk in old_table.foreign_keys() {
                    let before = old_table.foreign_keys().iter().filter(|f| *f == fk).count();
                    let after = table.foreign_keys().iter().filter(|f| *f == fk).count();
                    if before > after
                        && delta
                            .fk_removed
                            .iter()
                            .filter(|(t, f)| t == &table.name && f == fk)
                            .count()
                            < before - after
                    {
                        delta.fk_removed.push((table.name.clone(), fk.clone()));
                    }
                }
            }
        }
    }
    for (tsym, old_tv) in &old_view.tables {
        if !new_view.index.contains_key(tsym) {
            let old_table = old_tv.table;
            delta.tables_deleted.push(old_table.name.clone());
            for attr in old_table.attributes() {
                delta
                    .deleted
                    .push((old_table.name.clone(), attr.name.as_str().to_owned()));
            }
        }
    }
    delta
}

#[cfg(test)]
mod tests {
    use super::*;
    use schevo_ddl::parse_schema;

    fn s(sql: &str) -> Schema {
        parse_schema(sql).unwrap()
    }

    #[test]
    fn identical_schemas_are_inactive() {
        let a = s("CREATE TABLE t (a INT, b TEXT, PRIMARY KEY (a));");
        let d = diff(&a, &a);
        assert_eq!(d, SchemaDelta::default());
        assert!(!d.is_active());
        assert_eq!(d.activity(), 0);
    }

    #[test]
    fn shared_tables_are_skipped_and_others_still_compared() {
        let old = s("CREATE TABLE t (a INT); CREATE TABLE u (b INT); CREATE TABLE v (c INT);");
        let mut new = old.clone();
        let d = schevo_ddl::Attribute::new("d", schevo_ddl::types::DataType::int());
        new.table_mut("u").unwrap().push_attribute(d);
        new.remove_table("v");
        let d = diff(&old, &new);
        assert_eq!(d.injected, vec![("u".to_string(), "d".to_string())]);
        assert_eq!(d.tables_deleted, vec!["v".to_string()]);
        assert_eq!(d.activity(), 2);
        assert_eq!(diff(&old, &old.clone()), SchemaDelta::default());
    }

    #[test]
    fn new_table_births_attributes() {
        let old = s("CREATE TABLE t (a INT);");
        let new = s("CREATE TABLE t (a INT); CREATE TABLE u (x INT, y INT, z INT);");
        let d = diff(&old, &new);
        assert_eq!(d.tables_inserted, vec!["u".to_string()]);
        assert_eq!(d.born.len(), 3);
        assert_eq!(d.expansion(), 3);
        assert_eq!(d.maintenance(), 0);
    }

    #[test]
    fn dropped_table_deletes_attributes() {
        let old = s("CREATE TABLE t (a INT); CREATE TABLE u (x INT, y INT);");
        let new = s("CREATE TABLE t (a INT);");
        let d = diff(&old, &new);
        assert_eq!(d.tables_deleted, vec!["u".to_string()]);
        assert_eq!(d.deleted.len(), 2);
        assert_eq!(d.maintenance(), 2);
        assert_eq!(d.expansion(), 0);
    }

    #[test]
    fn injection_and_ejection_in_surviving_table() {
        let old = s("CREATE TABLE t (a INT, gone TEXT);");
        let new = s("CREATE TABLE t (a INT, fresh TEXT);");
        let d = diff(&old, &new);
        assert_eq!(d.injected, vec![("t".to_string(), "fresh".to_string())]);
        assert_eq!(d.ejected, vec![("t".to_string(), "gone".to_string())]);
        assert_eq!(d.expansion(), 1);
        assert_eq!(d.maintenance(), 1);
        assert_eq!(d.activity(), 2);
    }

    #[test]
    fn type_change_detected_logically() {
        let old = s("CREATE TABLE t (a INT(11), b VARCHAR(100));");
        let new = s("CREATE TABLE t (a INTEGER, b VARCHAR(255));");
        let d = diff(&old, &new);
        // a: INT(11) vs INTEGER is cosmetic; b: length change is real.
        assert_eq!(d.type_changed, vec![("t".to_string(), "b".to_string())]);
        assert_eq!(d.activity(), 1);
    }

    #[test]
    fn pk_change_counts_each_participant() {
        let old = s("CREATE TABLE t (a INT, b INT, c INT, PRIMARY KEY (a));");
        let new = s("CREATE TABLE t (a INT, b INT, c INT, PRIMARY KEY (b, c));");
        let d = diff(&old, &new);
        // a leaves the key; b and c enter it.
        assert_eq!(d.pk_changed.len(), 3);
        assert_eq!(d.maintenance(), 3);
    }

    #[test]
    fn type_and_pk_change_both_count() {
        let old = s("CREATE TABLE t (a INT, PRIMARY KEY (a));");
        let new = s("CREATE TABLE t (a BIGINT);");
        let d = diff(&old, &new);
        assert_eq!(d.type_changed.len(), 1);
        assert_eq!(d.pk_changed.len(), 1);
        assert_eq!(d.activity(), 2);
    }

    #[test]
    fn rename_is_delete_plus_insert() {
        let old = s("CREATE TABLE old_name (a INT);");
        let new = s("CREATE TABLE new_name (a INT);");
        let d = diff(&old, &new);
        assert_eq!(d.table_insertions(), 1);
        assert_eq!(d.table_deletions(), 1);
        assert_eq!(d.born.len(), 1);
        assert_eq!(d.deleted.len(), 1);
    }

    #[test]
    fn empty_to_populated_and_back() {
        let empty = Schema::new();
        let full = s("CREATE TABLE t (a INT, b INT);");
        let grow = diff(&empty, &full);
        assert_eq!(grow.expansion(), 2);
        let shrink = diff(&full, &empty);
        assert_eq!(shrink.maintenance(), 2);
        // Categories mirror under swap.
        assert_eq!(grow.born.len(), shrink.deleted.len());
    }

    #[test]
    fn fk_changes_tracked_but_not_active() {
        let old = s("CREATE TABLE p (id INT); CREATE TABLE c (id INT, pid INT);");
        let new = s("CREATE TABLE p (id INT); CREATE TABLE c (id INT, pid INT, \
                     FOREIGN KEY (pid) REFERENCES p (id));");
        let d = diff(&old, &new);
        assert_eq!(d.fk_added.len(), 1);
        assert_eq!(d.fk_added[0].0, "c");
        assert!(d.fk_removed.is_empty());
        assert!(!d.is_active(), "FK changes are not activity (§III-B)");
        let back = diff(&new, &old);
        assert_eq!(back.fk_removed.len(), 1);
        assert!(back.fk_added.is_empty());
    }

    #[test]
    fn unchanged_fks_register_nothing() {
        let a = s("CREATE TABLE p (id INT); CREATE TABLE c (pid INT, \
                   FOREIGN KEY (pid) REFERENCES p (id));");
        let d = diff(&a, &a);
        assert!(d.fk_added.is_empty());
        assert!(d.fk_removed.is_empty());
    }

    #[test]
    fn index_changes_are_invisible() {
        let old = s("CREATE TABLE t (a INT, KEY idx_a (a));");
        let new = s("CREATE TABLE t (a INT);");
        assert!(!diff(&old, &new).is_active(), "index drop is non-logical");
    }

    #[test]
    fn not_null_change_is_not_counted() {
        // The paper's categories cover types and PKs, not nullability.
        let old = s("CREATE TABLE t (a INT);");
        let new = s("CREATE TABLE t (a INT NOT NULL);");
        assert!(!diff(&old, &new).is_active());
    }
}
