//! §IV/§VI narrative statistics — regenerates the measured-vs-paper table
//! and benchmarks the narrative aggregation (via a small-universe study).

use criterion::{criterion_group, criterion_main, Criterion};
use schevo_bench::{paper_study, print_block, small_universe};
use schevo_pipeline::study::{try_run_study_source, StudyOptions};
use schevo_report::narrative_table;

fn bench(c: &mut Criterion) {
    print_block("Narrative (§IV/§VI)", &narrative_table(paper_study()));
    let small = small_universe();
    c.bench_function("narrative/small_study", |b| {
        b.iter(|| {
            try_run_study_source(small, StudyOptions::default())
                .expect("clean corpus")
                .narrative
                .rigid_pct_of_cloned
        })
    });
}

criterion_group!(benches, bench);
criterion_main!(benches);
