//! Property tests for the VCS substrate: content addressing, history
//! extraction, and SHA-1 streaming invariance.

use proptest::prelude::*;
use schevo_vcs::history::{file_history, WalkStrategy};
use schevo_vcs::repo::{FileChange, Repository};
use schevo_vcs::sha1::{sha1, Sha1};
use schevo_vcs::timestamp::Timestamp;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Hashing the same bytes in arbitrary chunkings yields the same digest.
    #[test]
    fn sha1_chunking_invariance(data in proptest::collection::vec(any::<u8>(), 0..2048),
                                cuts in proptest::collection::vec(0usize..2048, 0..8)) {
        let oneshot = sha1(&data);
        let mut cuts: Vec<usize> = cuts.into_iter().map(|c| c % (data.len() + 1)).collect();
        cuts.sort_unstable();
        let mut h = Sha1::new();
        let mut prev = 0;
        for c in cuts {
            h.update(&data[prev..c.max(prev)]);
            prev = c.max(prev);
        }
        h.update(&data[prev..]);
        prop_assert_eq!(h.finalize(), oneshot);
    }

    /// Committing N distinct contents to one path yields an N-version
    /// history with the same contents, in order.
    #[test]
    fn linear_history_roundtrip(contents in proptest::collection::vec("[a-z]{0,40}", 1..20)) {
        let mut distinct = Vec::new();
        for c in &contents {
            if distinct.last() != Some(c) {
                distinct.push(c.clone());
            }
        }
        let mut repo = Repository::new("prop/linear");
        for (i, c) in contents.iter().enumerate() {
            repo.commit(
                [FileChange::write("s.sql", c.clone())],
                "gen",
                Timestamp(i as i64 * 3600),
                &format!("v{i}"),
            ).unwrap();
        }
        let hist = file_history(&repo, "s.sql", WalkStrategy::FirstParent).unwrap();
        let got: Vec<String> = hist.into_iter().map(|v| v.content.to_string()).collect();
        prop_assert_eq!(got, distinct);
    }

    /// First-parent and full-DAG walks agree on purely linear histories.
    #[test]
    fn walks_agree_on_linear_histories(contents in proptest::collection::vec("[a-z]{0,12}", 1..12)) {
        let mut repo = Repository::new("prop/agree");
        for (i, c) in contents.iter().enumerate() {
            repo.commit(
                [FileChange::write("s.sql", c.clone())],
                "gen",
                Timestamp(i as i64 * 60),
                "m",
            ).unwrap();
        }
        let a = file_history(&repo, "s.sql", WalkStrategy::FirstParent).unwrap();
        let b = file_history(&repo, "s.sql", WalkStrategy::FullDag).unwrap();
        prop_assert_eq!(a, b);
    }

    /// History timestamps are nondecreasing under the first-parent walk when
    /// commits were created with nondecreasing clocks.
    #[test]
    fn history_timestamps_monotone(steps in proptest::collection::vec((0i64..10_000, "[a-z]{0,10}"), 1..15)) {
        let mut repo = Repository::new("prop/mono");
        let mut clock = 0i64;
        for (dt, content) in &steps {
            clock += dt;
            repo.commit(
                [FileChange::write("s.sql", content.clone())],
                "gen",
                Timestamp(clock),
                "m",
            ).unwrap();
        }
        let hist = file_history(&repo, "s.sql", WalkStrategy::FirstParent).unwrap();
        for w in hist.windows(2) {
            prop_assert!(w[0].timestamp <= w[1].timestamp);
        }
    }
}
