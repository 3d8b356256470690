//! Cross-crate property tests: arbitrary schema-edit scripts pushed through
//! the full stack (render → commit → extract → parse → diff → profile)
//! must preserve the planned quantities.

use proptest::prelude::*;
use schevo::prelude::*;
use schevo_ddl::render::render_schema_with;
use schevo_ddl::render::RenderOptions;
use schevo_ddl::schema::{Attribute, Table};
use schevo_ddl::types::DataType;

/// A tiny schema-edit op for random histories.
#[derive(Debug, Clone)]
enum Edit {
    AddColumn,
    DropColumn,
    AddTable(u8),
    DropTable,
    ChangeType,
    Noop,
}

fn edit() -> impl Strategy<Value = Edit> {
    prop_oneof![
        3 => Just(Edit::AddColumn),
        1 => Just(Edit::DropColumn),
        2 => (1u8..5).prop_map(Edit::AddTable),
        1 => Just(Edit::DropTable),
        2 => Just(Edit::ChangeType),
        2 => Just(Edit::Noop),
    ]
}

/// Apply an edit to a live schema; returns the activity it should register.
fn apply(schema: &mut Schema, e: &Edit, counter: &mut usize) -> (u64, u64) {
    *counter += 1;
    match e {
        Edit::AddColumn => {
            let name = schema.tables()[0].name.clone();
            let t = schema.table_mut(&name).unwrap();
            t.push_attribute(Attribute::new(format!("c{counter}"), DataType::int()));
            (1, 0)
        }
        Edit::DropColumn => {
            let name = schema.tables()[0].name.clone();
            let t = schema.table_mut(&name).unwrap();
            if t.arity() >= 2 {
                let last = t.attributes().last().unwrap().name.clone();
                t.remove_attribute(&last);
                (0, 1)
            } else {
                (0, 0)
            }
        }
        Edit::AddTable(arity) => {
            let mut t = Table::new(format!("t{counter}"));
            for k in 0..*arity {
                t.push_attribute(Attribute::new(format!("c{k}"), DataType::text()));
            }
            schema.upsert_table(t);
            (*arity as u64, 0)
        }
        Edit::DropTable => {
            if schema.table_count() >= 2 {
                let name = schema.tables().last().unwrap().name.clone();
                let arity = schema.table(&name).unwrap().arity() as u64;
                schema.remove_table(&name);
                (0, arity)
            } else {
                (0, 0)
            }
        }
        Edit::ChangeType => {
            let name = schema.tables()[0].name.clone();
            let t = schema.table_mut(&name).unwrap();
            let col = t.attributes()[0].name.clone();
            let attr = t.attribute_mut(&col).unwrap();
            attr.data_type = if attr.data_type.logical_eq(&DataType::int()) {
                DataType::varchar(99)
            } else {
                DataType::int()
            };
            (0, 1)
        }
        Edit::Noop => (0, 0),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Random edit scripts: the stack must recover exactly the activity the
    /// edits produced, commit by commit.
    #[test]
    fn random_histories_roundtrip(edits in proptest::collection::vec(edit(), 1..25)) {
        let mut schema = Schema::new();
        let mut t0 = Table::new("base");
        t0.push_attribute(Attribute::new("id", DataType::int()));
        t0.push_attribute(Attribute::new("data", DataType::text()));
        schema.upsert_table(t0);

        let mut repo = Repository::new("prop/history");
        let opts = RenderOptions::default();
        repo.commit(
            [FileChange::write("s.sql", render_schema_with(&schema, &opts))],
            "gen", Timestamp::from_date(2018, 1, 1), "v0",
        ).unwrap();

        let mut counter = 0usize;
        let mut expected: Vec<(u64, u64)> = Vec::new();
        let mut day = 0i64;
        for e in &edits {
            let before = schema.clone();
            let (exp, maint) = apply(&mut schema, e, &mut counter);
            day += 7;
            if schema == before {
                // A no-op edit: skip the commit entirely (content-identical
                // files would be deduped by extraction anyway).
                continue;
            }
            repo.commit(
                [FileChange::write("s.sql", render_schema_with(&schema, &opts))],
                "gen", Timestamp::from_date(2018, 1, 1) + day * 86_400, "edit",
            ).unwrap();
            expected.push((exp, maint));
        }

        let versions = file_history(&repo, "s.sql", WalkStrategy::FirstParent).unwrap();
        let history = SchemaHistory::from_file_versions("prop/history", &versions).unwrap();
        let measures = measure_history(&history);
        prop_assert_eq!(measures.len(), expected.len());
        for (m, (exp, maint)) in measures.iter().zip(&expected) {
            prop_assert_eq!(m.expansion(), *exp, "transition {}", m.transition_id);
            prop_assert_eq!(m.maintenance(), *maint, "transition {}", m.transition_id);
        }
        // Profile identities.
        let profile = EvolutionProfile::of(&history);
        let total: u64 = expected.iter().map(|(e, m)| e + m).sum();
        prop_assert_eq!(profile.total_activity, total);
        prop_assert_eq!(profile.active_commits as usize,
                        expected.iter().filter(|(e, m)| e + m > 0).count());
        prop_assert!(profile.class.taxon().is_some() || history.is_history_less());
    }

    /// Whatever the edits, the classifier always produces a taxon consistent
    /// with its defining inequalities.
    #[test]
    fn classification_consistent_with_features(edits in proptest::collection::vec(edit(), 1..20)) {
        let mut schema = Schema::new();
        let mut t0 = Table::new("base");
        t0.push_attribute(Attribute::new("id", DataType::int()));
        t0.push_attribute(Attribute::new("x", DataType::int()));
        schema.upsert_table(t0);
        let mut repo = Repository::new("prop/classify");
        let opts = RenderOptions::default();
        repo.commit([FileChange::write("s.sql", render_schema_with(&schema, &opts))],
                    "gen", Timestamp::from_date(2018, 1, 1), "v0").unwrap();
        let mut counter = 0;
        for (i, e) in edits.iter().enumerate() {
            apply(&mut schema, e, &mut counter);
            repo.commit([FileChange::write("s.sql", render_schema_with(&schema, &opts))],
                        "gen", Timestamp::from_date(2018, 1, 1) + (i as i64 + 1) * 86_400, "e").unwrap();
        }
        let versions = file_history(&repo, "s.sql", WalkStrategy::FirstParent).unwrap();
        let history = SchemaHistory::from_file_versions("prop/classify", &versions).unwrap();
        let p = EvolutionProfile::of(&history);
        use schevo_core::taxa::{classify, TaxonFeatures, ProjectClass};
        let reclass = classify(TaxonFeatures {
            commits: p.commits,
            active_commits: p.active_commits,
            total_activity: p.total_activity,
            reeds: p.reeds,
        });
        prop_assert_eq!(p.class, reclass);
        if p.commits >= 2 {
            prop_assert!(matches!(p.class, ProjectClass::Taxon(_)));
        }
    }
}
