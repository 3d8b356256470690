//! Differential determinism harness for the work-stealing study
//! executor: the complete study over a seeded universe must be
//! bit-identical for every worker count. Worker scheduling may only
//! change *when* work happens, never *what* is computed.

use schevo_corpus::universe::{generate, Universe};
use schevo_corpus::UniverseConfig;
use schevo_pipeline::study::{try_run_study_source, StudyOptions, StudyResult};
use std::sync::OnceLock;

fn universe() -> &'static Universe {
    static U: OnceLock<Universe> = OnceLock::new();
    U.get_or_init(|| generate(UniverseConfig::small(2019, 8)))
}

fn study(workers: usize) -> StudyResult {
    try_run_study_source(
        universe(),
        StudyOptions {
            workers,
            ..StudyOptions::default()
        },
    )
    .expect("clean corpus")
}

/// Every observable output of two studies must agree. `ExecStats` is
/// deliberately excluded: timings are the one part of the result that
/// legitimately varies with scheduling.
fn assert_identical(a: &StudyResult, b: &StudyResult, label: &str) {
    assert_eq!(a.report, b.report, "{label}: funnel counts diverged");
    assert_eq!(a.profiles, b.profiles, "{label}: profiles diverged");
    assert_eq!(a.taxa, b.taxa, "{label}: taxa stats diverged");
    assert_eq!(
        a.derived_reed_threshold, b.derived_reed_threshold,
        "{label}: derived reed threshold diverged"
    );
    assert_eq!(
        a.used_reed_threshold, b.used_reed_threshold,
        "{label}: used reed threshold diverged"
    );
    assert_eq!(a.quarantine, b.quarantine, "{label}: quarantine diverged");
    assert_eq!(a.fk, b.fk, "{label}: fk extension diverged");
    assert_eq!(
        a.electrolysis, b.electrolysis,
        "{label}: electrolysis diverged"
    );
    // Heartbeat-derived aggregates, spot-checked against the taxa block
    // equality above via an independent path.
    let heartbeat =
        |s: &StudyResult| -> Vec<(u64, u64, u64, u64)> {
            s.profiles
                .iter()
                .map(|p| (p.total_activity, p.active_commits, p.reeds, p.turf))
                .collect()
        };
    assert_eq!(heartbeat(a), heartbeat(b), "{label}: heartbeat measures diverged");
}

#[test]
fn study_is_identical_across_workers() {
    let ncpus = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(4);
    let baseline = study(1);
    for workers in [2, ncpus] {
        let other = study(workers);
        assert_identical(&baseline, &other, &format!("workers={workers}"));
    }
}

#[test]
fn exec_stats_reflect_configuration() {
    let s = study(2);
    assert_eq!(s.exec.workers, 2);
    assert_eq!(s.exec.tasks, s.profiles.len());
    // Without a warm memo every version is parsed.
    assert_eq!(s.exec.parse_hits, 0);
    assert!(s.exec.parse_misses > 0, "no parses recorded");
}

#[test]
fn worker_count_is_clamped_not_trusted() {
    // Degenerate worker counts must not panic or change results.
    let a = study(1);
    let b = study(usize::MAX);
    assert_identical(&a, &b, "workers=1 vs workers=usize::MAX");
}
