//! Metamorphic laws over the mining path: edits to a history whose effect
//! on the measures the paper defines is known in advance, checked on
//! every analyzed history of a generated universe.
//!
//! - **Duplicate version.** A byte-identical copy of a version, committed
//!   right after it, is no schema change: the miner drops it, records one
//!   `DuplicateVersion` recovery, and mines exactly what it mined before.
//! - **Comment-only commit.** A commit that only appends a comment to the
//!   DDL file is one more commit with no activity: the profile's commit
//!   count rises by one and every other measure stays as it was.
//! - **Consistent table renaming.** Prefixing every table name, and every
//!   foreign-key target, with one common prefix in every version (parsed,
//!   renamed in the logical schema, rendered back to DDL) keeps the names
//!   in the same order and changes no measure: against the same versions
//!   rendered without renaming, every profile and foreign-key profile is
//!   unchanged, and the table lives are unchanged apart from their names.
//! - **Reversed transition.** Diffing a pair of consecutive versions the
//!   other way round swaps what the transition added with what it
//!   removed: inserted with deleted tables, born with deleted
//!   attributes, injected with ejected attributes, added with removed
//!   foreign keys. Type and primary-key changes touch the same
//!   attributes in both directions.

use schevo::core::diff::diff;
use schevo::ddl::render::render_schema;
use schevo::ddl::schema::ForeignKey;
use schevo::ddl::HistoryParser;
use schevo::pipeline::extract::Mined;
use schevo::pipeline::{run_funnel, CandidateHistory, MiningOutput};
use schevo::prelude::*;
use schevo::vcs::sha1::sha1;
use std::sync::OnceLock;

/// The analyzed histories with at least two versions.
fn histories() -> &'static [CandidateHistory] {
    static H: OnceLock<Vec<CandidateHistory>> = OnceLock::new();
    H.get_or_init(|| {
        let universe = generate(UniverseConfig::small(2019, 4));
        let mut analyzed = run_funnel(&universe, WalkStrategy::FirstParent).analyzed;
        analyzed.retain(|c| c.versions.len() >= 2);
        assert!(!analyzed.is_empty());
        analyzed
    })
}

fn mine(candidates: &[CandidateHistory]) -> MiningOutput {
    MiningEngine::new(StudyOptions::default())
        .mine(&SliceSource::new(candidates))
        .expect("mining without a journal")
}

/// The histories as mined unchanged, one record per history.
fn baseline() -> &'static [Mined] {
    static B: OnceLock<Vec<Mined>> = OnceLock::new();
    B.get_or_init(|| {
        let out = mine(histories());
        assert!(out.quarantine.is_clean(), "{}", out.quarantine.summary());
        assert_eq!(out.mined.len(), histories().len());
        out.mined
    })
}

/// Every history with `insert(history)` placed right after its version 0.
fn with_version_after_v0(
    insert: impl Fn(&CandidateHistory) -> schevo::vcs::history::FileVersion,
) -> Vec<CandidateHistory> {
    histories()
        .iter()
        .map(|c| {
            let mut c = c.clone();
            let v = insert(&c);
            c.versions.insert(1, v);
            c
        })
        .collect()
}

#[test]
fn duplicate_version_changes_nothing_but_one_recovery() {
    let edited = with_version_after_v0(|c| c.versions[0].clone());
    let out = mine(&edited);
    assert_eq!(out.mined, baseline());
    assert!(out.quarantine.quarantined.is_empty());
    let recovered: Vec<_> = out
        .quarantine
        .recovered
        .iter()
        .map(|r| (r.error.class, r.error.project.as_str(), r.error.version_index))
        .collect();
    let expected: Vec<_> = histories()
        .iter()
        .map(|c| (ErrorClass::DuplicateVersion, c.name.as_str(), Some(1)))
        .collect();
    assert_eq!(recovered, expected);
}

#[test]
fn comment_only_commit_adds_one_commit_and_nothing_else() {
    let edited = with_version_after_v0(|c| {
        let mut v = c.versions[0].clone();
        v.commit = sha1(format!("comment-only/{}", c.name).as_bytes());
        v.message = "comment-only commit".into();
        v.content.to_mut().push_str("\n-- comment\n");
        v
    });
    let out = mine(&edited);
    assert!(out.quarantine.is_clean(), "{}", out.quarantine.summary());
    assert_eq!(out.mined.len(), baseline().len());
    for (after, before) in out.mined.iter().zip(baseline()) {
        let mut expected = before.profile.clone();
        expected.commits += 1;
        assert_eq!(after.profile, expected, "{}", before.profile.project);
    }
}

/// Every version of every history parsed and rendered back to DDL, with
/// `rename` applied to each table name and foreign-key target.
fn rendered(rename: impl Fn(&str) -> String) -> Vec<CandidateHistory> {
    histories()
        .iter()
        .map(|c| {
            let mut c = c.clone();
            for v in &mut c.versions {
                let parsed = parse_schema(&v.content).expect("clean corpus parses");
                let mut renamed = Schema::new();
                for table in parsed.tables() {
                    let mut copy = (**table).clone();
                    copy.name = rename(&table.name);
                    while copy.remove_foreign_key(0).is_some() {}
                    for fk in table.foreign_keys() {
                        copy.push_foreign_key(ForeignKey {
                            foreign_table: rename(&fk.foreign_table),
                            ..fk.clone()
                        });
                    }
                    renamed.upsert_table(copy);
                }
                v.content = render_schema(&renamed).into();
            }
            c
        })
        .collect()
}

#[test]
fn renaming_every_table_consistently_changes_no_measure() {
    const PREFIX: &str = "renamed_";
    // Both sides go through the renderer, which drops comments: commits
    // that only touched comments become duplicate versions on both.
    let plain = mine(&rendered(|n| n.to_string()));
    let renamed = mine(&rendered(|n| format!("{PREFIX}{n}")));
    assert!(
        plain.quarantine.quarantined.is_empty(),
        "{}",
        plain.quarantine.summary()
    );
    assert_eq!(renamed.quarantine, plain.quarantine);
    assert_eq!(renamed.mined.len(), histories().len());
    let mut renamed_any = false;
    for (after, before) in renamed.mined.iter().zip(&plain.mined) {
        let project = &before.profile.project;
        assert_eq!(after.profile, before.profile, "{project}");
        assert_eq!(after.fk, before.fk, "{project}");
        let unprefixed: Vec<_> = after
            .table_lives
            .iter()
            .map(|life| {
                let mut life = life.clone();
                life.name = life
                    .name
                    .strip_prefix(PREFIX)
                    .unwrap_or_else(|| panic!("{project}: `{}` kept its name", life.name))
                    .to_string();
                life
            })
            .collect();
        assert_eq!(unprefixed, before.table_lives, "{project}");
        renamed_any |= !after.table_lives.is_empty();
    }
    assert!(renamed_any, "the law renamed no table");
}

/// `items` as a sorted list, so two lists compare as multisets.
fn elements<T: std::fmt::Debug>(items: &[T]) -> Vec<String> {
    let mut out: Vec<String> = items.iter().map(|x| format!("{x:?}")).collect();
    out.sort();
    out
}

#[test]
fn reversing_a_transition_swaps_additions_with_removals() {
    let mut pairs = 0;
    let mut removals = 0;
    for c in histories() {
        let mut parser = HistoryParser::new();
        let schemas: Vec<Schema> = c
            .versions
            .iter()
            .map(|v| parser.parse(&v.content).expect("clean corpus parses"))
            .collect();
        for (i, w) in schemas.windows(2).enumerate() {
            let at = format!("{}, version {}", c.name, i + 1);
            let (forward, back) = (diff(&w[0], &w[1]), diff(&w[1], &w[0]));
            let swapped = [
                (elements(&forward.tables_inserted), elements(&back.tables_deleted), "tables in"),
                (elements(&forward.tables_deleted), elements(&back.tables_inserted), "tables out"),
                (elements(&forward.born), elements(&back.deleted), "born"),
                (elements(&forward.deleted), elements(&back.born), "deleted"),
                (elements(&forward.injected), elements(&back.ejected), "injected"),
                (elements(&forward.ejected), elements(&back.injected), "ejected"),
                (elements(&forward.type_changed), elements(&back.type_changed), "type"),
                (elements(&forward.pk_changed), elements(&back.pk_changed), "pk"),
                (elements(&forward.fk_added), elements(&back.fk_removed), "fk added"),
                (elements(&forward.fk_removed), elements(&back.fk_added), "fk removed"),
            ];
            for (f, b, what) in swapped {
                assert_eq!(f, b, "{at}: {what}");
            }
            pairs += 1;
            removals += forward.deleted.len() + forward.ejected.len();
        }
    }
    // The law must see transitions that remove something, or the swap
    // would only ever compare empty lists with empty lists.
    assert!(pairs > 100 && removals > 0, "{pairs} pairs, {removals} removals");
}
