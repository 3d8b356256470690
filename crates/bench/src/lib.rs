//! Shared fixtures for the benchmark harness: the paper-scale universe and
//! study are built once per process and shared across benchmark functions,
//! so each bench measures its own computation, not corpus generation.

use schevo_corpus::universe::{generate, Universe, UniverseConfig};
use schevo_pipeline::study::{try_run_study_source, StudyOptions, StudyResult};
use std::sync::OnceLock;

pub mod lab;
pub mod perflab;

/// The canonical seed of the reproduction.
pub const SEED: u64 = 2019;

/// The paper-scale universe (133,029 records / 365 repositories).
pub fn paper_universe() -> &'static Universe {
    static U: OnceLock<Universe> = OnceLock::new();
    U.get_or_init(|| generate(UniverseConfig::paper(SEED)))
}

/// A 1/10-scale universe for per-iteration benchmarks.
pub fn small_universe() -> &'static Universe {
    static U: OnceLock<Universe> = OnceLock::new();
    U.get_or_init(|| generate(UniverseConfig::small(SEED, 10)))
}

/// The full study over the paper-scale universe.
pub fn paper_study() -> &'static StudyResult {
    static S: OnceLock<StudyResult> = OnceLock::new();
    S.get_or_init(|| {
        try_run_study_source(paper_universe(), StudyOptions::default()).expect("clean corpus")
    })
}

/// Print a titled block once (benches regenerate the paper's rows as a side
/// effect of running).
pub fn print_block(title: &str, body: &str) {
    println!("\n================ {title} ================\n{body}");
}
