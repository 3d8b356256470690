//! Index-based arena storage for parsed scripts.
//!
//! One heap-allocated `Vec` per statement (columns, constraints,
//! alter-ops, options) would make a dump with hundreds of `CREATE TABLE`
//! statements pay thousands of small allocations per parse — on the
//! hottest path of the whole pipeline. A [`ScriptArena`] stores them in
//! flat, shared pools instead: every column of every statement lives in
//! one `Vec<ColumnDef>`, and a statement holds a [`PoolRange`] (a `u32`
//! start/len pair) into the pool instead of owning a vector.
//!
//! Indices are used instead of references deliberately: the arena is built
//! incrementally while the parser backtracks (`CREATE TABLE` degradation
//! truncates the pools back to a checkpoint), and a self-referential
//! `&`-based design would freeze the pools the moment the first statement
//! borrowed them. Ranges also stay valid across moves, so the finished
//! arena can be returned by value and dropped in one deallocation per pool.
//!
//! The arena's heap footprint is tracked in a process-wide relaxed counter
//! surfaced as the `parse.arena_bytes` metric. Under
//! [`crate::HistoryParser`] it counts only the arenas built for statements
//! that missed the memo. The counter never feeds any study output — the
//! observability layer's never-perturb invariant covers it — it exists so
//! metrics exports can report allocator pressure.

use crate::ast::{AlterOp, ColumnDef, TableConstraint};
use std::sync::atomic::{AtomicU64, Ordering};

/// Cumulative arena heap bytes since process start (all parses, all threads).
static ARENA_BYTES: AtomicU64 = AtomicU64::new(0);

/// Total arena bytes allocated by every parse so far, process-wide.
///
/// Monotonic and cumulative: a per-run figure is the difference between two
/// readings. Relaxed ordering is sufficient — the counter is diagnostic.
pub fn arena_bytes_total() -> u64 {
    ARENA_BYTES.load(Ordering::Relaxed)
}

/// Record a finished arena's footprint into [`arena_bytes_total`].
pub(crate) fn record_arena_bytes(bytes: usize) {
    ARENA_BYTES.fetch_add(bytes as u64, Ordering::Relaxed);
}

/// A half-open `[start, start+len)` slice of one of the arena's pools.
///
/// `u32` indices keep the range at 8 bytes (a `Range<usize>` is 16) and
/// bound each pool at four billion entries — far beyond any real dump.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PoolRange {
    start: u32,
    len: u32,
}

impl PoolRange {
    fn new(start: usize, end: usize) -> Self {
        PoolRange {
            start: start as u32,
            len: (end - start) as u32,
        }
    }

    /// Number of pooled items in the range.
    pub fn len(&self) -> usize {
        self.len as usize
    }

    /// Whether the range is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    fn bounds(&self) -> std::ops::Range<usize> {
        self.start as usize..(self.start + self.len) as usize
    }
}

/// One top-level statement, with its variable-length parts stored as pool
/// ranges rather than owned vectors.
#[derive(Debug, Clone, PartialEq)]
pub enum ArenaStatement {
    /// A fully parsed `CREATE TABLE`.
    CreateTable(ArenaCreateTable),
    /// A parsed `ALTER TABLE`; `ops` indexes the arena's op pool.
    AlterTable {
        /// Target table name (unqualified).
        name: String,
        /// Alterations in order, in the op pool.
        ops: PoolRange,
    },
    /// A parsed `DROP TABLE`; `names` indexes the string pool.
    DropTable {
        /// Names of the dropped tables, in the string pool.
        names: PoolRange,
    },
    /// Any other statement, skipped by the tolerant parser.
    Other {
        /// The leading keyword(s) identifying the statement, uppercased.
        keyword: String,
    },
}

/// A `CREATE TABLE` whose columns, constraints and options live in the
/// arena pools.
#[derive(Debug, Clone, PartialEq)]
pub struct ArenaCreateTable {
    /// Table name, unqualified (a `db.` qualifier is stripped but recorded).
    pub name: String,
    /// Optional schema/database qualifier that preceded the name.
    pub qualifier: Option<String>,
    /// Whether `IF NOT EXISTS` was present.
    pub if_not_exists: bool,
    /// Whether `TEMPORARY` was present. Temporary tables are excluded from
    /// the logical schema.
    pub temporary: bool,
    /// Column definitions in declaration order, in the column pool.
    pub columns: PoolRange,
    /// Table-level constraints in declaration order, in the constraint pool.
    pub constraints: PoolRange,
    /// Trailing table options, in the string pool.
    pub options: PoolRange,
}

/// Marks of all pool lengths at one instant; used by the parser to roll
/// the arena back when a statement fails and degrades to a skip.
#[derive(Debug, Clone, Copy)]
pub struct ArenaMark {
    columns: usize,
    constraints: usize,
    ops: usize,
    strings: usize,
}

/// Flat storage for one parsed script: statements plus the shared pools
/// their [`PoolRange`]s index into.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct ScriptArena {
    statements: Vec<ArenaStatement>,
    columns: Vec<ColumnDef>,
    constraints: Vec<TableConstraint>,
    ops: Vec<AlterOp>,
    strings: Vec<String>,
}

impl ScriptArena {
    /// Statements in file order.
    pub fn statements(&self) -> &[ArenaStatement] {
        &self.statements
    }

    /// The columns of `range`, in declaration order.
    pub fn columns(&self, range: PoolRange) -> &[ColumnDef] {
        &self.columns[range.bounds()]
    }

    /// The constraints of `range`, in declaration order.
    pub fn constraints(&self, range: PoolRange) -> &[TableConstraint] {
        &self.constraints[range.bounds()]
    }

    /// The alter-ops of `range`, in statement order.
    pub fn ops(&self, range: PoolRange) -> &[AlterOp] {
        &self.ops[range.bounds()]
    }

    /// The pooled strings of `range` (drop-table names, table options).
    pub fn strings(&self, range: PoolRange) -> &[String] {
        &self.strings[range.bounds()]
    }

    /// The primary-key columns of a pooled `CREATE TABLE`: a table-level
    /// `PRIMARY KEY` constraint wins, else the inline-marked columns.
    pub fn primary_key_columns(&self, ct: &ArenaCreateTable) -> Vec<String> {
        primary_key_of(self.columns(ct.columns), self.constraints(ct.constraints))
    }

    /// The first statement when it is a `CREATE TABLE`, with its columns
    /// open to be moved out of and its constraints.
    pub(crate) fn first_create_table_mut(
        &mut self,
    ) -> Option<(&ArenaCreateTable, &mut [ColumnDef], &[TableConstraint])> {
        let Some(ArenaStatement::CreateTable(ct)) = self.statements.first() else {
            return None;
        };
        let columns = &mut self.columns[ct.columns.bounds()];
        Some((ct, columns, &self.constraints[ct.constraints.bounds()]))
    }

    /// Iterate the pooled `CREATE TABLE` statements, in file order.
    pub fn create_tables(&self) -> impl Iterator<Item = &ArenaCreateTable> {
        self.statements.iter().filter_map(|s| match s {
            ArenaStatement::CreateTable(ct) => Some(ct),
            _ => None,
        })
    }

    // -- builder surface used by the parser --------------------------------

    pub(crate) fn push_statement(&mut self, s: ArenaStatement) {
        self.statements.push(s);
    }

    pub(crate) fn push_column(&mut self, c: ColumnDef) {
        self.columns.push(c);
    }

    pub(crate) fn push_constraint(&mut self, c: TableConstraint) {
        self.constraints.push(c);
    }

    pub(crate) fn push_op(&mut self, op: AlterOp) {
        self.ops.push(op);
    }

    pub(crate) fn push_string(&mut self, s: String) {
        self.strings.push(s);
    }

    /// Snapshot every pool length, for later [`Self::truncate`].
    pub(crate) fn mark(&self) -> ArenaMark {
        ArenaMark {
            columns: self.columns.len(),
            constraints: self.constraints.len(),
            ops: self.ops.len(),
            strings: self.strings.len(),
        }
    }

    /// Roll every pool back to `mark`, discarding entries pushed since.
    /// Statement-level backtracking: ranges handed out after the mark are
    /// invalidated, which is fine because the failed statement that pushed
    /// them is discarded by the same rollback.
    pub(crate) fn truncate(&mut self, mark: ArenaMark) {
        self.columns.truncate(mark.columns);
        self.constraints.truncate(mark.constraints);
        self.ops.truncate(mark.ops);
        self.strings.truncate(mark.strings);
    }

    /// Empty every pool, keeping their capacity for the next statement.
    pub(crate) fn clear(&mut self) {
        self.statements.clear();
        self.columns.clear();
        self.constraints.clear();
        self.ops.clear();
        self.strings.clear();
    }

    /// Range covering everything pushed to the column pool since `mark`.
    pub(crate) fn columns_since(&self, mark: ArenaMark) -> PoolRange {
        PoolRange::new(mark.columns, self.columns.len())
    }

    /// Range covering everything pushed to the constraint pool since `mark`.
    pub(crate) fn constraints_since(&self, mark: ArenaMark) -> PoolRange {
        PoolRange::new(mark.constraints, self.constraints.len())
    }

    /// Range covering everything pushed to the op pool since `mark`.
    pub(crate) fn ops_since(&self, mark: ArenaMark) -> PoolRange {
        PoolRange::new(mark.ops, self.ops.len())
    }

    /// Range covering everything pushed to the string pool since `mark`.
    pub(crate) fn strings_since(&self, mark: ArenaMark) -> PoolRange {
        PoolRange::new(mark.strings, self.strings.len())
    }

    /// Approximate heap footprint of the arena's pools in bytes. Element
    /// inline sizes only (nested strings are not chased): the figure feeds
    /// a diagnostic counter, not an allocator.
    pub fn heap_bytes(&self) -> usize {
        self.statements.capacity() * std::mem::size_of::<ArenaStatement>()
            + self.columns.capacity() * std::mem::size_of::<ColumnDef>()
            + self.constraints.capacity() * std::mem::size_of::<TableConstraint>()
            + self.ops.capacity() * std::mem::size_of::<AlterOp>()
            + self.strings.capacity() * std::mem::size_of::<String>()
    }
}

/// The primary key of a table with these columns and constraints: its
/// `PRIMARY KEY` constraint's columns, else its columns marked inline.
pub(crate) fn primary_key_of(
    columns: &[ColumnDef],
    constraints: &[TableConstraint],
) -> Vec<String> {
    for c in constraints {
        if let TableConstraint::PrimaryKey { columns, .. } = c {
            return columns.clone();
        }
    }
    columns
        .iter()
        .filter(|c| c.inline_primary_key)
        .map(|c| c.name.clone())
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_script_arena;
    use crate::types::DataType;

    #[test]
    fn pools_are_shared_across_statements() {
        let arena = parse_script_arena(
            "CREATE TABLE a (x INT, y INT); CREATE TABLE b (z VARCHAR(10));",
        )
        .unwrap();
        let tables: Vec<_> = arena.create_tables().collect();
        assert_eq!(tables.len(), 2);
        assert_eq!(arena.columns(tables[0].columns).len(), 2);
        assert_eq!(arena.columns(tables[1].columns).len(), 1);
        // Both ranges index the same flat pool, back to back.
        assert_eq!(tables[0].columns.len() + tables[1].columns.len(), 3);
        assert_eq!(arena.columns(tables[1].columns)[0].name, "z");
    }

    #[test]
    fn truncate_rolls_back_all_pools() {
        let mut arena = ScriptArena::default();
        arena.push_string("keep".into());
        let mark = arena.mark();
        arena.push_column(ColumnDef::new("c", DataType::int()));
        arena.push_string("discard".into());
        arena.push_op(AlterOp::DropPrimaryKey);
        arena.truncate(mark);
        assert_eq!(arena.columns.len(), 0);
        assert_eq!(arena.ops.len(), 0);
        assert_eq!(arena.strings, vec!["keep".to_string()]);
    }

    #[test]
    fn primary_key_table_constraint_wins_over_inline() {
        let arena = parse_script_arena(
            "CREATE TABLE t (a INT PRIMARY KEY, b INT, PRIMARY KEY (b));",
        )
        .unwrap();
        let ct = arena.create_tables().next().unwrap();
        assert_eq!(arena.primary_key_columns(ct), vec!["b".to_string()]);
    }

    #[test]
    fn inline_pk_used_when_no_table_constraint() {
        let arena = parse_script_arena("CREATE TABLE t (a INT PRIMARY KEY, b INT);").unwrap();
        let ct = arena.create_tables().next().unwrap();
        assert_eq!(arena.primary_key_columns(ct), vec!["a".to_string()]);
    }

    #[test]
    fn arena_bytes_counter_grows_with_parses() {
        let before = arena_bytes_total();
        let _ = crate::parse_schema("CREATE TABLE t (a INT, b TEXT, c DATETIME);");
        assert!(arena_bytes_total() > before, "parse must record arena bytes");
    }

    #[test]
    fn heap_bytes_reflects_pool_capacity() {
        let arena = parse_script_arena("CREATE TABLE t (a INT);").unwrap();
        assert!(arena.heap_bytes() >= std::mem::size_of::<ColumnDef>());
    }
}
