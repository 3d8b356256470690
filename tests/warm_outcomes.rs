//! The warm outcome memo (`WarmCaches`), the one way a resident caller
//! reuses mining work across passes.
//!
//! - A second pass over the same corpus is served whole from the memo:
//!   the same mined records and quarantine report, no version parsed.
//! - An outcome the wall-clock watchdog flagged is never kept, so a
//!   deadline cannot leak from one pass into a later one.
//! - A journaled pass neither reads nor fills the memo, so its
//!   replayed-vs-mined accounting is the same with or without one.

use schevo::pipeline::journal::DurabilityOptions;
use schevo::pipeline::{run_funnel, MiningOutput, WarmCaches};
use schevo::prelude::*;
use std::path::Path;
use std::time::Duration;

fn universe() -> Universe {
    generate(UniverseConfig::small(2019, 10))
}

fn engine(durability: DurabilityOptions) -> MiningEngine {
    MiningEngine::new(StudyOptions {
        workers: 2,
        durability,
        ..StudyOptions::default()
    })
}

fn mine(u: &Universe, durability: DurabilityOptions, memo: Option<&WarmCaches>) -> MiningOutput {
    let mut e = engine(durability);
    if let Some(m) = memo {
        e = e.with_warm(m);
    }
    e.mine(u).expect("mining")
}

fn journal(path: &Path, resume: bool) -> DurabilityOptions {
    DurabilityOptions {
        journal: Some(path.to_path_buf()),
        resume,
        ..DurabilityOptions::default()
    }
}

#[test]
fn a_second_warm_pass_is_served_from_the_memo() {
    let u = universe();
    let versions: u64 = run_funnel(&u, WalkStrategy::FirstParent)
        .analyzed
        .iter()
        .map(|c| c.versions.len() as u64)
        .sum();
    let memo = WarmCaches::new();
    let first = mine(&u, DurabilityOptions::default(), Some(&memo));
    assert_eq!(first.exec.parse_hits, 0, "an empty memo serves nothing");
    assert!(first.exec.parse_misses > 0);

    let second = mine(&u, DurabilityOptions::default(), Some(&memo));
    assert_eq!(second.mined, first.mined);
    assert_eq!(second.quarantine, first.quarantine);
    assert_eq!(second.funnel, first.funnel);
    assert_eq!(second.exec.parse_misses, 0, "a served pass parses nothing");
    assert_eq!(second.exec.parse_hits, versions);
}

#[test]
fn watchdog_flagged_outcomes_are_never_kept() {
    let u = universe();
    let memo = WarmCaches::new();
    let flagged = mine(
        &u,
        DurabilityOptions {
            deadline: Some(Duration::ZERO),
            ..DurabilityOptions::default()
        },
        Some(&memo),
    );
    let overruns = flagged
        .quarantine
        .recovered
        .iter()
        .filter(|r| r.error.class == ErrorClass::DeadlineExceeded)
        .count();
    assert_eq!(
        overruns,
        flagged.mined.len(),
        "a zero deadline flags every task"
    );

    let later = mine(&u, DurabilityOptions::default(), Some(&memo));
    let fresh = mine(&u, DurabilityOptions::default(), None);
    assert_eq!(later.exec.parse_hits, 0, "the flagged pass filled the memo");
    assert_eq!(later.mined, fresh.mined);
    assert_eq!(later.quarantine, fresh.quarantine);
}

#[test]
fn journaled_passes_neither_read_nor_fill_the_memo() {
    let u = universe();
    let dir = std::env::temp_dir().join(format!("schevo_warm_outcomes_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("scratch dir");
    let (with, without) = (dir.join("with.wal"), dir.join("without.wal"));

    // A filled memo, which a journaled pass must not consult.
    let memo = WarmCaches::new();
    mine(&u, DurabilityOptions::default(), Some(&memo));
    for resume in [false, true] {
        let a = mine(&u, journal(&with, resume), Some(&memo));
        let b = mine(&u, journal(&without, resume), None);
        let (sa, sb) = (a.journal.expect("journaled"), b.journal.expect("journaled"));
        assert_eq!(
            (sa.replayed, sa.mined_fresh),
            (sb.replayed, sb.mined_fresh),
            "resume={resume}"
        );
        assert_eq!(a.mined, b.mined, "resume={resume}");
        assert_eq!(
            a.exec.parse_hits, 0,
            "resume={resume}: the memo served a journaled pass"
        );
    }

    // And an empty memo stays empty through a journaled pass.
    let empty = WarmCaches::new();
    mine(&u, journal(&dir.join("fill.wal"), false), Some(&empty));
    let after = mine(&u, DurabilityOptions::default(), Some(&empty));
    assert_eq!(after.exec.parse_hits, 0, "a journaled pass filled the memo");
    std::fs::remove_dir_all(&dir).expect("remove scratch dir");
}
