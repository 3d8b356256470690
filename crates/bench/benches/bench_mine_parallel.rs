//! Work-stealing miner scaling: sweep the executor across 1/2/4/8
//! workers with the content-addressed parse/diff cache on and off, over
//! the 1/10-scale funnel output. Candidates are mined once per
//! iteration end-to-end (parse every version, diff every transition,
//! classify), so the sweep shows both thread scaling and cache payoff.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use schevo_bench::{print_block, small_universe};
use schevo_core::heartbeat::REED_THRESHOLD;
use schevo_pipeline::exec::ExecStats;
use schevo_pipeline::funnel::{run_funnel, CandidateHistory};
use schevo_pipeline::{MiningEngine, SliceSource, StudyOptions};
use schevo_vcs::history::WalkStrategy;

fn mine_stats(candidates: &[CandidateHistory], workers: usize, cache: bool) -> (usize, usize, ExecStats) {
    let engine = MiningEngine::new(StudyOptions {
        reed_threshold: Some(REED_THRESHOLD),
        workers,
        cache,
        ..StudyOptions::default()
    });
    let out = engine
        .mine(&SliceSource::new(candidates))
        .expect("mining over a clean corpus");
    (out.mined.len(), out.quarantine.quarantined.len(), out.exec)
}

fn bench(c: &mut Criterion) {
    let outcome = run_funnel(small_universe(), WalkStrategy::FirstParent);
    let candidates = &outcome.analyzed;

    // One instrumented pass to report what the cache sees at this scale.
    let (_, _, stats) = mine_stats(candidates, 4, true);
    print_block(
        "Miner cache profile (1/10 scale)",
        &format!(
            "tasks {}  parse {} hits / {} misses  diff {} hits / {} misses",
            stats.tasks, stats.parse_hits, stats.parse_misses, stats.diff_hits, stats.diff_misses
        ),
    );

    let mut group = c.benchmark_group("mine_parallel");
    group.throughput(Throughput::Elements(candidates.len() as u64));
    for workers in [1usize, 2, 4, 8] {
        for cache in [false, true] {
            let label = format!(
                "workers{workers}/{}",
                if cache { "cached" } else { "uncached" }
            );
            group.bench_function(&label, |b| {
                b.iter(|| {
                    let (mined, failures, _) = mine_stats(candidates, workers, cache);
                    assert_eq!(failures, 0);
                    mined
                })
            });
        }
    }
    group.finish();

    // The synthetic universe salts content per project, so the corpus
    // above never repeats a blob and the cache can only lose. Forked
    // histories (same DDL text under many project names — the situation
    // the content-addressed cache exists for) are modelled by cloning
    // every candidate under fresh names: all parses and diffs beyond the
    // first copy hit.
    let forked: Vec<_> = (0..4)
        .flat_map(|copy| {
            candidates.iter().map(move |c| {
                let mut c = c.clone();
                c.name = format!("{}-fork{copy}", c.name);
                c
            })
        })
        .collect();
    let (_, _, stats) = mine_stats(&forked, 4, true);
    print_block(
        "Miner cache profile (4x forked corpus)",
        &format!(
            "tasks {}  parse {} hits / {} misses  diff {} hits / {} misses",
            stats.tasks, stats.parse_hits, stats.parse_misses, stats.diff_hits, stats.diff_misses
        ),
    );
    let mut group = c.benchmark_group("mine_forked");
    group.throughput(Throughput::Elements(forked.len() as u64));
    for cache in [false, true] {
        let label = if cache { "cached" } else { "uncached" };
        group.bench_function(label, |b| {
            b.iter(|| {
                let (mined, failures, _) = mine_stats(&forked, 4, cache);
                assert_eq!(failures, 0);
                mined
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
