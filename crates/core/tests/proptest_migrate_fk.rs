//! Property tests for the migration generator over schemas *with* foreign
//! keys: FK changes surface as notes, never as statements, and the logical
//! capacity still round-trips.

use proptest::prelude::*;
use schevo_core::migrate::{apply_migration, generate_migration, logically_equivalent, MigrationStep};
use schevo_ddl::schema::{Attribute, ForeignKey, Schema, Table};
use schevo_ddl::types::DataType;

fn table_name() -> impl Strategy<Value = String> {
    (0u32..6).prop_map(|i| format!("t{i}"))
}

/// Schemas where some tables reference others (possibly dangling).
fn fk_schema() -> impl Strategy<Value = Schema> {
    proptest::collection::btree_map(
        table_name(),
        (1usize..5, proptest::option::of(0u32..8)),
        1..5,
    )
    .prop_map(|tables| {
        let mut s = Schema::new();
        for (name, (arity, fk_target)) in tables {
            let mut t = Table::new(name);
            for k in 0..arity {
                t.push_attribute(Attribute::new(
                    format!("c{k}"),
                    if k == 0 { DataType::int() } else { DataType::varchar(60) },
                ));
            }
            t.set_primary_key(["c0"]);
            if let Some(target) = fk_target {
                // May reference an existing or a missing table (dangling).
                t.push_foreign_key(ForeignKey {
                    columns: vec!["c0".into()],
                    foreign_table: format!("t{target}"),
                    foreign_columns: vec!["c0".into()],
                });
            }
            s.upsert_table(t);
        }
        s
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The migration between FK-bearing schemas still reproduces the new
    /// logical capacity (FKs themselves are explicitly out of migration
    /// scope and appear as notes).
    #[test]
    fn fk_schemas_still_roundtrip_logically(old in fk_schema(), new in fk_schema()) {
        let m = generate_migration(&old, &new);
        let applied = apply_migration(&old, &m).unwrap();
        prop_assert!(logically_equivalent(&applied, &new), "script:\n{}", m.script());
    }

    /// FK-only differences produce only Note steps.
    #[test]
    fn fk_only_changes_produce_notes(base in fk_schema()) {
        // Strip all FKs to build the "old" twin.
        let mut old = Schema::new();
        for t in base.tables() {
            let mut nt = Table::new(t.name.clone());
            for a in t.attributes() {
                nt.push_attribute(a.clone());
            }
            nt.set_primary_key(t.primary_key().to_vec());
            old.upsert_table(nt);
        }
        let m = generate_migration(&old, &base);
        for step in &m.steps {
            prop_assert!(
                matches!(step, MigrationStep::Note(_)),
                "unexpected step: {:?}",
                step
            );
        }
        // Notes are comments: applying them is a no-op on logical capacity.
        let applied = apply_migration(&old, &m).unwrap();
        prop_assert!(logically_equivalent(&applied, &old));
    }

    /// Migration scripts are themselves parseable in isolation (pure SQL +
    /// comments), so they could be fed to a real database shell.
    #[test]
    fn scripts_are_standalone_parseable(old in fk_schema(), new in fk_schema()) {
        let m = generate_migration(&old, &new);
        // Parsing just the script must not error (it may contain ALTERs for
        // tables that "do not exist" in an empty schema — the tolerant
        // parser ignores those, which is exactly what we verify).
        let parsed = schevo_ddl::parse_schema(&m.script());
        prop_assert!(parsed.is_ok());
    }
}
