//! The collection funnel's CREATE TABLE check, `declares_tables`, held
//! equal to the definition it replaces: `parse_schema(v)` yields a
//! non-empty schema.
//!
//! The check parses a version as `parse_schema` does but lowers each
//! `CREATE TABLE` to its name alone, so it can only drift from the
//! definition in the table-level rules it shares with lowering (create,
//! drop, rename, `TEMPORARY`) or in how a parse or lex failure reads. It is
//! compared on every version of every `.sql` file of a fault-injected
//! small universe (the funnel's dropped clones included), on the same
//! histories corrupted further after extraction, on the hazard shapes of
//! `tests/history_parse_differential.rs`, and on hand-written cases.

use rand::rngs::StdRng;
use rand::SeedableRng;
use schevo::corpus::faultgen::{corrupt_versions, inject, FaultClass, FaultPlan};
use schevo::corpus::universe::{generate, UniverseConfig};
use schevo::ddl::{declares_tables, parse_schema};
use schevo::vcs::history::{file_history, FileVersion, WalkStrategy};

/// The definition the check must equal.
fn oracle(sql: &str) -> bool {
    parse_schema(sql).map(|s| !s.is_empty()).unwrap_or(false)
}

/// Assert the check equals the oracle on `sql`; the oracle's answer.
fn assert_agrees(sql: &str, label: &str) -> bool {
    let expected = oracle(sql);
    assert_eq!(declares_tables(sql), expected, "{label}: {sql:?}");
    expected
}

#[test]
fn every_version_of_a_fault_injected_universe_agrees() {
    let mut universe = generate(UniverseConfig::small(2019, 40));
    let faults = inject(&mut universe, &FaultPlan::all(7, 60));
    assert!(!faults.is_empty(), "fault plan injected nothing");
    let mut names: Vec<&String> = universe.materialized.keys().collect();
    names.sort();
    let mut histories: Vec<Vec<FileVersion>> = Vec::new();
    for name in names {
        let repo = &universe.materialized[name];
        for path in &repo.sql_paths {
            if let Ok(history) = file_history(repo.repo(), path, WalkStrategy::FirstParent) {
                histories.push(history);
            }
        }
    }
    let (mut versions, mut with, mut without) = (0, 0, 0);
    for (h, history) in histories.iter().enumerate() {
        for (i, v) in history.iter().enumerate() {
            versions += 1;
            if assert_agrees(&v.content, &format!("history {h}, version {i}")) {
                with += 1;
            } else {
                without += 1;
            }
        }
    }
    // Both answers must occur, or the comparison proves nothing.
    assert!(
        versions > 100 && with > 0 && without > 0,
        "{versions} versions, {with} with tables"
    );

    // Some fault classes are healed before the check ever sees them, so
    // corrupt the extracted histories too.
    let mut rng = StdRng::seed_from_u64(11);
    for (i, history) in histories.iter_mut().enumerate() {
        let class = FaultClass::ALL[i % FaultClass::ALL.len()];
        corrupt_versions(history, class, &mut rng);
        for (k, v) in history.iter().enumerate() {
            assert_agrees(&v.content, &format!("corrupted history {i}, version {k}"));
        }
    }
}

/// The version texts of `tests/history_parse_differential.rs`'s pinned
/// shapes and adversarial edits: degraded statements that read past their
/// `;`, stray and missing semicolons, duplicates, drops, renames,
/// `TEMPORARY` tables, comments and strings that swallow the rest of the
/// file, and lex errors.
const HAZARDS: &[&str] = &[
    "CREATE TABLE t (a INT DEFAULT (1;",
    "CREATE TABLE t (a INT DEFAULT (1; 2));",
    "CREATE TABLE t (a INT, CHECK (x;",
    "CREATE TABLE t (a INT, CHECK (x; y));",
    ";; CREATE TABLE a (x INT);;; CREATE TABLE b (y INT)",
    "CREATE TABLE a (x INT);; CREATE TABLE b (y INT);",
    ";;;",
    "CREATE TABLE a (x INT); CREATE TABLE b (y INT",
    "CREATE TABLE a (x INT); CREATE TABLE b (y INT, z INT)",
    "CREATE TABLE a (x INT)",
    "",
    "CREATE TABLE t (a INT); CREATE TABLE u (b INT); CREATE TABLE t (a INT, c INT);",
    "DROP TABLE IF EXISTS t; CREATE TABLE t (a INT); CREATE TABLE u (b INT);",
    "DROP TABLE IF EXISTS t; CREATE TABLE t (a INT); CREATE TABLE u (b INT); DROP TABLE t;",
    "CREATE TABLE u (b INT); DROP TABLE t; CREATE TABLE t (a INT);",
    "DROP TABLE u; CREATE TABLE u (b INT); DROP TABLE t; CREATE TABLE t (a INT);",
    "CREATE TABLE t (a INT, b INT); CREATE TABLE u (c INT); \
     ALTER TABLE t ADD COLUMN z TEXT, DROP COLUMN b; ALTER TABLE u RENAME TO v;",
    "CREATE TABLE t (a INT, b INT); ALTER TABLE u RENAME TO v; CREATE TABLE u (c INT); \
     ALTER TABLE t ADD COLUMN z TEXT, DROP COLUMN b; ALTER TABLE t RENAME TO u;",
    "CREATE TEMPORARY TABLE tmp (a INT); CREATE TABLE t (a INT);",
    "CREATE TEMPORARY TABLE tmp (a INT); CREATE TABLE t (a INT); CREATE TABLE tmp (b INT);",
    "CREATE TABLE t (a INT); CREATE TABLE u (b INT); INSERT INTO t VALUES ('open",
    "CREATE TABLE a (x INT); /* CREATE TABLE b (y INT); CREATE TABLE c (z INT);",
    "CREATE TABLE a (x INT); CREATE TABLE b (y INT DEFAULT 'q); CREATE TABLE c (z INT);",
    "INSERT INTO t VALUES ('); CREATE TABLE a (x INT'); CREATE TABLE b (y INT);",
    "CREATE TABLE a (x INT); `CREATE TABLE b (y INT);",
    "CREATE TABLE a (x INT); -- note CREATE TABLE b (y INT);",
    "INSERT INTO t VALUES ('a;bb;c'); CREATE TABLE a (x INT); CREATE TABLE b (y INT);",
    "CREATE TABLE a (x TEXT DEFAULT 'p;;q'); CREATE TABLE b (y INT);",
    "XCREATE TABLE a (x INT); CREATE TABLE b (y INT);",
    "CREATE TABLE größe (ö INT); CREATE TABLE b (y INT);",
    "CREATE TABLE a (x INT);本; CREATE TABLE b (y INT);",
    "CREATE TABLE a (x INT) CREATE TABLE b (y INT); CREATE TABLE c (z INT);",
    "CREATE TABLE a (x INT) CREATE; TABLE b (y INT); CREATE TABLE c (z INT);",
    "a;c;b;",
    "CREATE TABLE a (x INT); CREATE TABLE b (y INT '); CREATE TABLE c (z INT);",
    "CREATE TABLE a (x INT); [CREATE TABLE b (y INT);",
    "CREATE TABLE a (x INT); CREATE TABLE b (y INT /*); CREATE TABLE c (z INT);",
    "SELECT 1e;SELECT 2;",
    "SELECT 1 -;SELECT 2 /*;*/;",
];

#[test]
fn the_differential_hazards_agree() {
    for sql in HAZARDS {
        assert_agrees(sql, "hazard");
    }
}

#[test]
fn hand_written_cases_agree_with_their_expected_answer() {
    let cases: &[(&str, bool, &str)] = &[
        (
            "CREATE TABLE t (a INT); DROP TABLE t;",
            false,
            "create then drop",
        ),
        (
            "CREATE TABLE t (a INT); DROP TABLE IF EXISTS u, t;",
            false,
            "dropped in a list",
        ),
        (
            "CREATE TABLE t (a INT); DROP TABLE db.t;",
            false,
            "dropped qualified",
        ),
        (
            "ALTER TABLE ghost RENAME TO t;",
            false,
            "rename of a missing table",
        ),
        (
            "CREATE TABLE t (a INT); ALTER TABLE ghost RENAME TO u;",
            true,
            "rename misses",
        ),
        (
            "CREATE TABLE t (a INT); ALTER TABLE t RENAME TO u; DROP TABLE t;",
            true,
            "renamed away",
        ),
        (
            "CREATE TABLE t (a INT); ALTER TABLE t RENAME TO u; DROP TABLE u;",
            false,
            "renamed, dropped",
        ),
        (
            "CREATE TEMPORARY TABLE tmp (a INT);",
            false,
            "temporary only",
        ),
        (
            "CREATE TEMPORARY TABLE t (a INT); DROP TABLE t;",
            false,
            "temporary dropped",
        ),
        (
            "CREATE TABLE t (a INT); CREATE TABLE (broken;",
            true,
            "create, then unparseable",
        ),
        (
            "CREATE TABLE (broken; CREATE TABLE t (a INT);",
            true,
            "unparseable, then create",
        ),
        ("CREATE TABLE (broken;", false, "only unparseable"),
        (
            "CREATE TABLE t (a INT); INSERT INTO t VALUES ('open",
            false,
            "lex error after create",
        ),
        (
            "CREATE TABLE t (a INT); /* open",
            false,
            "open comment after create",
        ),
        (
            "ALTER TABLE ghost ADD COLUMN z INT;",
            false,
            "add column on a missing table",
        ),
        (
            "CREATE TABLE t (a INT); ALTER TABLE ghost ADD COLUMN z INT;",
            true,
            "add elsewhere",
        ),
        (
            "CREATE TABLE t (a INT); ALTER TABLE t DROP COLUMN a;",
            true,
            "no columns left",
        ),
        (
            "CREATE TABLE t (a INT); DROP TABLE T;",
            true,
            "drop differs in case",
        ),
        (
            "CREATE TABLE T (a INT); DROP TABLE t;",
            true,
            "create differs in case",
        ),
        (
            "CREATE TABLE `t` (a INT); DROP TABLE t;",
            false,
            "quoted, then bare",
        ),
        (
            "INSERT INTO t VALUES (1); CREATE INDEX i ON t (a);",
            false,
            "no CREATE TABLE",
        ),
        ("-- CREATE TABLE t (a INT);", false, "commented out"),
        ("CREATE TABLE t ();", true, "no columns"),
    ];
    for &(sql, expected, label) in cases {
        assert_eq!(
            oracle(sql),
            expected,
            "{label}: the oracle reads {sql:?} otherwise"
        );
        assert_eq!(declares_tables(sql), expected, "{label}: {sql:?}");
    }
}
