//! Fig. 4: measurements per taxon — regenerates the full table and
//! benchmarks the profile-aggregation stage.

use criterion::{criterion_group, criterion_main, Criterion};
use schevo_bench::{paper_study, print_block, small_universe};
use schevo_pipeline::study::{try_run_study_source, StudyOptions};
use schevo_report::{fig04_csv, fig04_table};

fn bench(c: &mut Criterion) {
    let study = paper_study();
    print_block("Fig. 4 — measurements per taxon", &fig04_table(study));
    print_block("Fig. 4 — CSV", &fig04_csv(study).render());

    let small = small_universe();
    c.bench_function("fig04/study_small_universe", |b| {
        b.iter(|| {
            try_run_study_source(small, StudyOptions::default())
                .expect("clean corpus")
                .taxa
                .len()
        })
    });
    c.bench_function("fig04/render_table", |b| b.iter(|| fig04_table(study).len()));
}

criterion_group!(benches, bench);
criterion_main!(benches);
