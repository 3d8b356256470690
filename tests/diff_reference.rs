//! A reference differ written straight from the paper's definitions, held
//! equal to `schevo_core::diff::diff`.
//!
//! The engine interns names, matches `u32` symbols and skips tables both
//! versions hold as the same `Arc`. The reference does none of that: it
//! matches tables and attributes by their names with plain string
//! comparison and walks every table of both versions. The paper's update
//! categories (§III-B), all counted in attributes, for a transition
//! `old → new`:
//!
//! - **born**: the attributes of a table of `new` with no table of that
//!   name in `old`;
//! - **deleted**: the attributes of a table of `old` with no table of that
//!   name in `new`;
//! - **injected** / **ejected**: attributes of a table in both versions
//!   that only `new` / only `old` has;
//! - **type change**: an attribute in both whose data type changed;
//! - **PK change**: an attribute in both whose primary-key membership
//!   changed.
//!
//! Foreign keys added or removed (not part of the paper's measures) are
//! the surplus occurrences of each key on one side over the other.
//!
//! Each list follows the file order of `new`, then that of `old`. The two
//! differs are compared on random schema pairs, on consecutive versions of
//! randomly edited histories parsed by `HistoryParser` (where most tables
//! are shared), on the same pairs with every table deep-copied so that
//! no table is shared, and on the salvaged versions of fault-injected
//! histories, which the miner diffs as it diffs clean ones.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use schevo::core::diff::{diff, SchemaDelta};
use schevo::ddl::schema::{Attribute, ForeignKey, Table};
use schevo::ddl::types::DataType;
use schevo::ddl::{parse_schema, parse_schema_recovering, HistoryParser, Schema};
use schevo::prelude::{generate, inject, FaultPlan, UniverseConfig, WalkStrategy};
use std::sync::Arc;

fn find_table<'s>(schema: &'s Schema, name: &str) -> Option<&'s Table> {
    schema
        .tables()
        .iter()
        .map(|t| &**t)
        .find(|t| t.name == name)
}

fn find_attribute<'t>(table: &'t Table, name: &str) -> Option<&'t Attribute> {
    table.attributes().iter().find(|a| a.name == name)
}

fn in_key(table: &Table, name: &str) -> bool {
    table.primary_key().iter().any(|k| k == name)
}

/// The occurrences of `keys` beyond those of `others`: for each key, the
/// first `count(keys) - count(others)` of its occurrences, in order.
fn surplus<'k>(keys: &'k [ForeignKey], others: &[ForeignKey]) -> Vec<&'k ForeignKey> {
    let mut out = Vec::new();
    for (i, fk) in keys.iter().enumerate() {
        let mine = keys.iter().filter(|k| *k == fk).count();
        let theirs = others.iter().filter(|k| *k == fk).count();
        let earlier = keys[..i].iter().filter(|k| *k == fk).count();
        if earlier + theirs < mine {
            out.push(fk);
        }
    }
    out
}

fn pair(table: &str, attr: &str) -> (String, String) {
    (table.to_string(), attr.to_string())
}

/// The reference differ.
fn reference_diff(old: &Schema, new: &Schema) -> SchemaDelta {
    let mut d = SchemaDelta::default();
    for t in new.tables() {
        let Some(o) = find_table(old, &t.name) else {
            d.tables_inserted.push(t.name.clone());
            for a in t.attributes() {
                d.born.push(pair(&t.name, &a.name));
            }
            continue;
        };
        for a in t.attributes() {
            match find_attribute(o, &a.name) {
                None => d.injected.push(pair(&t.name, &a.name)),
                Some(before) => {
                    if !before.data_type.logical_eq(&a.data_type) {
                        d.type_changed.push(pair(&t.name, &a.name));
                    }
                    if in_key(o, &a.name) != in_key(t, &a.name) {
                        d.pk_changed.push(pair(&t.name, &a.name));
                    }
                }
            }
        }
        for a in o.attributes() {
            if find_attribute(t, &a.name).is_none() {
                d.ejected.push(pair(&t.name, &a.name));
            }
        }
        for fk in surplus(t.foreign_keys(), o.foreign_keys()) {
            d.fk_added.push((t.name.clone(), fk.clone()));
        }
        for fk in surplus(o.foreign_keys(), t.foreign_keys()) {
            d.fk_removed.push((t.name.clone(), fk.clone()));
        }
    }
    for o in old.tables() {
        if find_table(new, &o.name).is_none() {
            d.tables_deleted.push(o.name.clone());
            for a in o.attributes() {
                d.deleted.push(pair(&o.name, &a.name));
            }
        }
    }
    d
}

/// `schema` with every table copied into a fresh allocation, so that no
/// table is shared with any other schema.
fn deep_copy(schema: &Schema) -> Schema {
    let mut copy = Schema::new();
    for t in schema.tables() {
        copy.upsert_table(Table::clone(t));
    }
    copy
}

/// How many tables of `new` are the same `Arc` as a table of `old`.
fn shared_tables(old: &Schema, new: &Schema) -> usize {
    new.tables()
        .iter()
        .filter(|t| old.tables().iter().any(|o| Arc::ptr_eq(o, t)))
        .count()
}

fn assert_differs_agree(old: &Schema, new: &Schema, label: &str) {
    let expected = reference_diff(old, new);
    assert_eq!(diff(old, new), expected, "{label}: diff vs reference");
    assert_eq!(
        diff(&deep_copy(old), &deep_copy(new)),
        expected,
        "{label}: diff of deep copies vs reference"
    );
}

// -- random schemas --------------------------------------------------------

const TABLES: &[&str] = &["users", "posts", "tags", "t`q", "größe"];
const ATTRS: &[&str] = &["id", "name", "body", "user_id", "created_at", "ü"];

fn random_type(rng: &mut StdRng) -> DataType {
    // INT(11) and INT are logically equal; the others differ.
    match rng.gen_range(0..6) {
        0 => DataType::int(),
        1 => {
            let mut t = DataType::int();
            t.params.push(11);
            t
        }
        2 => DataType::varchar(rng.gen_range(1..3) * 100),
        3 => DataType::text(),
        4 => DataType::decimal(10, rng.gen_range(0..3)),
        _ => DataType::from_name("BIGINT"),
    }
}

fn random_table(rng: &mut StdRng, name: &str) -> Table {
    let mut t = Table::new(name);
    for attr in ATTRS {
        if rng.gen_bool(0.6) {
            let mut a = Attribute::new(*attr, random_type(rng));
            a.not_null = rng.gen_bool(0.3);
            t.push_attribute(a);
        }
    }
    let names: Vec<String> = t.attributes().iter().map(|a| a.name.to_string()).collect();
    let key: Vec<String> = names
        .iter()
        .filter(|_| rng.gen_bool(0.3))
        .cloned()
        .collect();
    t.set_primary_key(key);
    for _ in 0..rng.gen_range(0..3) {
        if let Some(col) = names.get(rng.gen_range(0..names.len().max(1))) {
            t.push_foreign_key(ForeignKey {
                columns: vec![col.clone()],
                foreign_table: TABLES[rng.gen_range(0..TABLES.len())].to_string(),
                foreign_columns: if rng.gen_bool(0.5) {
                    vec!["id".into()]
                } else {
                    vec![]
                },
            });
        }
    }
    t
}

fn random_schema(rng: &mut StdRng) -> Schema {
    let mut s = Schema::new();
    let mut names = TABLES.to_vec();
    // Shuffle so file order varies between the two versions.
    for i in (1..names.len()).rev() {
        names.swap(i, rng.gen_range(0..=i));
    }
    for name in names {
        if rng.gen_bool(0.6) {
            s.upsert_table(random_table(rng, name));
        }
    }
    s
}

/// `old` with a few tables replaced, dropped or added; the rest stay the
/// same `Arc`s.
fn random_successor(rng: &mut StdRng, old: &Schema) -> Schema {
    let mut new = old.clone();
    for name in TABLES {
        match rng.gen_range(0..6) {
            0 => {
                new.remove_table(name);
            }
            1 => new.upsert_table(random_table(rng, name)),
            2 => {
                if let Some(t) = new.table_mut(name) {
                    let ty = random_type(rng);
                    t.push_attribute(Attribute::new(ATTRS[rng.gen_range(0..ATTRS.len())], ty));
                }
            }
            _ => {}
        }
    }
    new
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn random_pairs_agree_with_the_reference(seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let old = random_schema(&mut rng);
        let unrelated = random_schema(&mut rng);
        let successor = random_successor(&mut rng, &old);
        for (label, new) in [("unrelated", &unrelated), ("successor", &successor)] {
            let expected = reference_diff(&old, new);
            prop_assert_eq!(diff(&old, new), expected.clone(), "{} pair", label);
            prop_assert_eq!(
                diff(&deep_copy(&old), &deep_copy(new)),
                expected,
                "{} pair, deep copies", label
            );
        }
    }

    #[test]
    fn diff_against_itself_is_empty(seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let s = random_schema(&mut rng);
        prop_assert_eq!(diff(&s, &s), SchemaDelta::default());
        prop_assert_eq!(diff(&s, &s.clone()), SchemaDelta::default());
        prop_assert_eq!(diff(&s, &deep_copy(&s)), SchemaDelta::default());
        prop_assert_eq!(reference_diff(&s, &deep_copy(&s)), SchemaDelta::default());
    }
}

// -- consecutive versions from HistoryParser --------------------------------

/// One `CREATE TABLE` per slot; an edit rewrites, drops or restores one.
fn statement(rng: &mut StdRng, slot: usize) -> String {
    let name = TABLES[slot].replace('`', "``");
    let mut cols = Vec::new();
    for attr in ATTRS {
        if rng.gen_bool(0.6) {
            let ty = ["INT", "INT(11)", "VARCHAR(100)", "TEXT", "BIGINT"][rng.gen_range(0..5)];
            cols.push(format!("`{attr}` {ty}"));
        }
    }
    if cols.is_empty() {
        cols.push("`id` INT".into());
    }
    if rng.gen_bool(0.5) {
        cols.push("PRIMARY KEY (`id`)".into());
    }
    if rng.gen_bool(0.3) {
        cols.push("FOREIGN KEY (`id`) REFERENCES users (id)".into());
    }
    format!("CREATE TABLE `{name}` (\n  {}\n);\n", cols.join(",\n  "))
}

#[test]
fn consecutive_history_versions_agree_with_the_reference() {
    let mut shared = 0;
    for seed in 0..64 {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut slots: Vec<Option<String>> = (0..TABLES.len())
            .map(|i| Some(statement(&mut rng, i)))
            .collect();
        let mut texts = Vec::new();
        for _ in 0..12 {
            texts.push(slots.iter().flatten().cloned().collect::<String>());
            let slot = rng.gen_range(0..slots.len());
            slots[slot] = match rng.gen_range(0..4) {
                0 => None,
                _ => Some(statement(&mut rng, slot)),
            };
            if rng.gen_bool(0.2) {
                let (a, b) = (rng.gen_range(0..slots.len()), rng.gen_range(0..slots.len()));
                slots.swap(a, b);
            }
        }
        let mut parser = HistoryParser::new();
        let schemas: Vec<Schema> = texts.iter().map(|t| parser.parse(t).unwrap()).collect();
        for (i, w) in schemas.windows(2).enumerate() {
            assert_eq!(w[1], parse_schema(&texts[i + 1]).unwrap());
            shared += shared_tables(&w[0], &w[1]);
            assert_differs_agree(&w[0], &w[1], &format!("seed {seed}, version {}", i + 1));
            assert_differs_agree(
                &w[1],
                &w[0],
                &format!("seed {seed}, version {} reversed", i + 1),
            );
        }
    }
    // Without shared tables the pointer shortcut would never fire.
    assert!(shared > 1000, "only {shared} shared tables");
}

#[test]
fn pinned_transitions_agree_with_the_reference() {
    let cases = [
        ("", "CREATE TABLE t (a INT, b INT);"),
        (
            "CREATE TABLE t (a INT, gone TEXT);",
            "CREATE TABLE t (a INT, fresh TEXT);",
        ),
        (
            "CREATE TABLE t (a INT(11), b VARCHAR(100));",
            "CREATE TABLE t (a INTEGER, b VARCHAR(255));",
        ),
        (
            "CREATE TABLE t (a INT, b INT, c INT, PRIMARY KEY (a));",
            "CREATE TABLE t (a INT, b INT, c INT, PRIMARY KEY (b, c));",
        ),
        (
            "CREATE TABLE t (a INT, PRIMARY KEY (a));",
            "CREATE TABLE t (a BIGINT);",
        ),
        (
            "CREATE TABLE old_name (a INT);",
            "CREATE TABLE new_name (a INT);",
        ),
        (
            "CREATE TABLE p (id INT); CREATE TABLE c (id INT, pid INT);",
            "CREATE TABLE p (id INT); CREATE TABLE c (id INT, pid INT, \
             FOREIGN KEY (pid) REFERENCES p (id), FOREIGN KEY (pid) REFERENCES p (id));",
        ),
    ];
    for (a, b) in cases {
        let (old, new) = (parse_schema(a).unwrap(), parse_schema(b).unwrap());
        assert_differs_agree(&old, &new, a);
        assert_differs_agree(&new, &old, b);
    }
}

#[test]
fn salvaged_faultgen_versions_agree_with_the_reference() {
    // Every evolving project damaged, cycling through the whole fault
    // catalog; each version is parsed the way the miner salvages it.
    let mut universe = generate(UniverseConfig::small(2019, 4));
    assert!(!inject(&mut universe, &FaultPlan::all(7, 100)).is_empty());
    let funnel = schevo::pipeline::run_funnel(&universe, WalkStrategy::FirstParent);
    let (mut pairs, mut salvaged) = (0, 0);
    for candidate in &funnel.analyzed {
        salvaged += candidate
            .versions
            .iter()
            .filter(|v| parse_schema(&v.content).is_err())
            .count();
        let schemas: Vec<Schema> = candidate
            .versions
            .iter()
            .map(|v| parse_schema_recovering(&v.content).schema)
            .collect();
        for (i, w) in schemas.windows(2).enumerate() {
            assert_differs_agree(
                &w[0],
                &w[1],
                &format!("{}, version {}", candidate.name, i + 1),
            );
            pairs += 1;
        }
    }
    assert!(pairs > 0 && salvaged > 0, "{pairs} pairs, {salvaged} salvaged versions");
}
