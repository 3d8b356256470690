//! Integration tests for the pack substrate and walk strategies against
//! generated corpus repositories: a packed project must mine to the exact
//! same profile after a round trip, under either walk.

use rand::rngs::StdRng;
use rand::SeedableRng;
use schevo::corpus::plan::plan_project;
use schevo::corpus::realize::realize;
use schevo::prelude::*;
use schevo::vcs::pack::{read_pack, write_pack};

fn profile_of(repo: &Repository, path: &str, strategy: WalkStrategy) -> EvolutionProfile {
    let versions = file_history(repo, path, strategy).unwrap();
    let history = SchemaHistory::from_file_versions(repo.name.clone(), &versions).unwrap();
    EvolutionProfile::of(&history)
}

#[test]
fn packed_corpus_projects_mine_identically() {
    let mut rng = StdRng::seed_from_u64(404);
    for (i, taxon) in Taxon::ALL.iter().enumerate() {
        let plan = plan_project(&mut rng, i, *taxon);
        let project = realize(&mut rng, &plan);
        let before = profile_of(&project.repo, &project.ddl_path, WalkStrategy::FirstParent);
        let pack = write_pack(&project.repo);
        let loaded = read_pack(&pack).unwrap();
        let after = profile_of(&loaded, &project.ddl_path, WalkStrategy::FirstParent);
        // Names differ only via the repo handle; compare the payload fields.
        assert_eq!(before.commits, after.commits, "{}", plan.name);
        assert_eq!(before.total_activity, after.total_activity, "{}", plan.name);
        assert_eq!(before.active_commits, after.active_commits, "{}", plan.name);
        assert_eq!(before.reeds, after.reeds, "{}", plan.name);
        assert_eq!(before.class, after.class, "{}", plan.name);
        assert_eq!(before.sup_months, after.sup_months, "{}", plan.name);
    }
}

#[test]
fn pack_size_is_reasonable() {
    // The pack should deduplicate shared blobs across versions; the exact
    // size is not pinned, but an Active project with hundreds of versions
    // must stay within sane bounds (i.e. no quadratic blowup in trees).
    let mut rng = StdRng::seed_from_u64(7);
    let plan = plan_project(&mut rng, 5, Taxon::Active);
    let project = realize(&mut rng, &plan);
    let pack = write_pack(&project.repo);
    let store_bytes: usize = project.repo.store().stats().blob_bytes;
    assert!(
        pack.len() < store_bytes * 20 + 1_000_000,
        "pack {} bytes vs blob payload {} bytes",
        pack.len(),
        store_bytes
    );
}

#[test]
fn full_dag_study_matches_first_parent_on_linear_corpus() {
    use schevo::pipeline::study::{try_run_study_source, StudyOptions};
    let universe = generate(UniverseConfig::small(2019, 16));
    let fp = try_run_study_source(&universe, StudyOptions::default()).expect("clean corpus");
    let full = try_run_study_source(
        &universe,
        StudyOptions {
            strategy: WalkStrategy::FullDag,
            ..Default::default()
        },
    )
    .expect("clean corpus");
    assert_eq!(fp.report, full.report);
    assert_eq!(fp.profiles.len(), full.profiles.len());
    for (a, b) in fp.profiles.iter().zip(&full.profiles) {
        assert_eq!(a, b);
    }
}

#[test]
fn merge_heavy_history_still_mines() {
    // A hand-built non-linear history: schema edits on side branches,
    // merged back — the §III-C git-nonlinearity threat, exercised.
    let mut repo = Repository::new("branchy/app");
    let t = |d: i64| Timestamp::from_date(2018, 1, 1) + d * 86_400;
    repo.commit(
        [FileChange::write("s.sql", "CREATE TABLE a (x INT);")],
        "ann",
        t(0),
        "v0",
    )
    .unwrap();
    repo.branch_and_checkout("feat-1").unwrap();
    repo.commit(
        [FileChange::write("s.sql", "CREATE TABLE a (x INT, y INT);")],
        "ben",
        t(5),
        "add y",
    )
    .unwrap();
    repo.checkout(Repository::DEFAULT_BRANCH).unwrap();
    repo.commit([FileChange::write("docs.md", "hi")], "ann", t(6), "docs")
        .unwrap();
    repo.merge("feat-1", "ann", t(7), "merge feat-1").unwrap();
    repo.branch_and_checkout("feat-2").unwrap();
    repo.commit(
        [FileChange::write(
            "s.sql",
            "CREATE TABLE a (x INT, y INT);\nCREATE TABLE b (z TEXT);",
        )],
        "cyd",
        t(12),
        "add table b",
    )
    .unwrap();
    repo.checkout(Repository::DEFAULT_BRANCH).unwrap();
    repo.merge("feat-2", "ann", t(20), "merge feat-2").unwrap();

    let fp = profile_of(&repo, "s.sql", WalkStrategy::FirstParent);
    let full = profile_of(&repo, "s.sql", WalkStrategy::FullDag);
    // Both walks observe the same *content* sequence here; attribution of
    // versions to commits differs (merge vs side commit), but the profile
    // quantities agree.
    assert_eq!(fp.total_activity, 2);
    assert_eq!(full.total_activity, 2);
    assert_eq!(fp.active_commits, full.active_commits);
    assert_eq!(fp.class, full.class);
}
