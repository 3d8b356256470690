//! Differential determinism harness for the work-stealing study
//! executor: the complete study over a seeded universe must be
//! bit-identical for every worker count and with the content-addressed
//! cache on or off. Worker scheduling and cache hits may only change
//! *when* work happens, never *what* is computed.

use schevo_corpus::universe::{generate, Universe};
use schevo_corpus::UniverseConfig;
use schevo_pipeline::study::{try_run_study_source, StudyOptions, StudyResult};
use std::sync::OnceLock;

fn universe() -> &'static Universe {
    static U: OnceLock<Universe> = OnceLock::new();
    U.get_or_init(|| generate(UniverseConfig::small(2019, 8)))
}

fn study(workers: usize, cache: bool) -> StudyResult {
    try_run_study_source(
        universe(),
        StudyOptions {
            workers,
            cache,
            ..StudyOptions::default()
        },
    )
    .expect("clean corpus")
}

/// Every observable output of two studies must agree. `ExecStats` is
/// deliberately excluded: timings and per-run hit counts are the one
/// part of the result that legitimately varies with scheduling.
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
fn study_is_identical_across_workers_and_cache() {
    let ncpus = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(4);
    let baseline = study(1, false);
    for workers in [1, 2, ncpus] {
        for cache in [false, true] {
            if workers == 1 && !cache {
                continue;
            }
            let other = study(workers, cache);
            assert_identical(
                &baseline,
                &other,
                &format!("workers={workers} cache={cache}"),
            );
        }
    }
}

#[test]
fn exec_stats_reflect_configuration() {
    let cached = study(2, true);
    assert!(cached.exec.cache_enabled);
    assert_eq!(cached.exec.workers, 2);
    assert_eq!(cached.exec.tasks, cached.profiles.len());
    // Every version parse and transition diff goes through the cache
    // when it is enabled.
    assert!(
        cached.exec.diff_hits + cached.exec.diff_misses > 0,
        "cached run recorded no diff lookups"
    );
    assert!(cached.exec.parse_hits + cached.exec.parse_misses > 0);

    let uncached = study(2, false);
    assert!(!uncached.exec.cache_enabled);
    assert_eq!(uncached.exec.parse_hits, 0);
    assert_eq!(uncached.exec.diff_hits, 0);
    // Conservation: the cache hides work, it never changes how much is
    // needed. (Whether hits occur depends on content duplication in the
    // corpus; the unit and property tests pin down hit behaviour.)
    assert_eq!(
        cached.exec.parse_hits + cached.exec.parse_misses,
        uncached.exec.parse_misses,
        "parse lookups must equal uncached parses"
    );
    assert_eq!(
        cached.exec.diff_hits + cached.exec.diff_misses,
        uncached.exec.diff_misses,
        "diff lookups must equal uncached diffs"
    );
}

#[test]
fn worker_count_is_clamped_not_trusted() {
    // Degenerate worker counts must not panic or change results.
    let a = study(1, true);
    let b = study(usize::MAX, true);
    assert_identical(&a, &b, "workers=1 vs workers=usize::MAX");
}
