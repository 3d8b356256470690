//! The parse/diff cache is keyed by content, so forked histories (the same
//! DDL text under other project names) are parsed and diffed once. The
//! generated universe salts DDL per project and never repeats a blob, so
//! forks are modelled by copying every candidate under a new name.

use schevo::pipeline::{run_funnel, CandidateHistory, ExecStats, MiningOutput};
use schevo::prelude::*;

fn mine(candidates: &[CandidateHistory], workers: usize) -> MiningOutput {
    let out = MiningEngine::new(StudyOptions {
        workers,
        cache: true,
        ..StudyOptions::default()
    })
    .mine(&SliceSource::new(candidates))
    .expect("mining without a journal");
    assert!(out.quarantine.is_clean(), "{}", out.quarantine.summary());
    assert_eq!(out.mined.len(), candidates.len());
    out
}

#[test]
fn forks_miss_the_cache_only_on_their_first_copy() {
    let universe = generate(UniverseConfig::small(2019, 10));
    let originals = run_funnel(&universe, WalkStrategy::FirstParent).analyzed;
    assert_eq!(originals.len(), 17);
    let forked: Vec<CandidateHistory> = (0..4)
        .flat_map(|k| {
            originals.iter().map(move |c| {
                let mut c = c.clone();
                c.name = format!("{}-fork{k}", c.name);
                c
            })
        })
        .collect();

    let once = mine(&originals, 1);
    let four = mine(&forked, 1);
    let counts = |e: &ExecStats| (e.parse_misses, e.diff_misses, e.parse_hits, e.diff_hits);
    assert_eq!(counts(&once.exec), (199, 182, 0, 0));
    assert_eq!(counts(&four.exec), (199, 182, 3 * 199, 3 * 182));

    for (fork, original) in four.mined.iter().zip(once.mined.iter().cycle()) {
        let mut renamed = fork.clone();
        renamed.profile.project = original.profile.project.clone();
        assert_eq!(&renamed, original, "{}", fork.profile.project);
    }
    assert_eq!(mine(&forked, 4).mined, four.mined);
}
