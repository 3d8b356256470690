//! # schevo-pipeline
//!
//! The end-to-end mining pipeline of the study: the §III-A collection
//! funnel over a (synthetic) GitHub universe, parallel per-project
//! measurement, per-taxon statistics, the §V statistical battery, and
//! ablations over the design choices.
//!
//! ```no_run
//! use schevo_corpus::universe::{generate, UniverseConfig};
//! use schevo_pipeline::{MiningEngine, StudyOptions};
//!
//! let universe = generate(UniverseConfig::paper(2019));
//! let study = MiningEngine::new(StudyOptions::default())
//!     .study(&universe)
//!     .expect("clean corpus, no journal");
//! assert_eq!(study.report.analyzed, 195);
//! ```

#![warn(missing_docs)]

pub mod ablation;
pub mod engine;
pub mod exec;
pub mod extract;
pub mod funnel;
pub mod journal;
pub mod quarantine;
pub mod source;
pub mod study;

pub use engine::{MiningEngine, MiningOutput, WarmCaches};
pub use exec::{default_workers, ExecStats};
pub use extract::MineOutcome;
pub use journal::{candidate_key, DurabilityOptions, JournalRecord, JournalSummary, JournalWriter};
pub use funnel::{run_funnel, CandidateHistory, Exclusion, FunnelOutcome, FunnelReport};
pub use quarantine::{QuarantineRecord, QuarantineReport, RecoveryRecord};
pub use source::{
    CandidateSource, CandidateStream, GeneratedSource, ProducerReport, SliceSource, SourceEvent,
    SourceSummary,
};
pub use study::{
    exit_code, try_run_study_source, Narrative, StatisticsBattery, StudyOptions, StudyResult,
    TaxonStats,
};
