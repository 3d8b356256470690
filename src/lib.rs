//! # schevo
//!
//! A from-scratch Rust reproduction of *"Profiles of Schema Evolution in
//! Free Open Source Software Projects"* (ICDE 2021): a tolerant SQL DDL
//! parser, a git-like version-control substrate, the Hecate-style
//! attribute-level schema diff engine, the heartbeat/reed/turf measurement
//! vocabulary, the six-taxa classification tree, a calibrated synthetic
//! corpus standing in for GitHub + Libraries.io, the §III-A collection
//! funnel, the §V statistical battery, and renderers regenerating every
//! table and figure of the paper.
//!
//! This crate is a facade: it re-exports the workspace crates under one
//! roof and provides a [`prelude`] for the common path.
//!
//! ## The common path
//!
//! ```
//! use schevo::prelude::*;
//!
//! // 1. A repository with a DDL file history (here: built by hand; the
//! //    corpus generator builds 365 of these).
//! let mut repo = Repository::new("acme/shop");
//! repo.commit([FileChange::write("schema.sql", "CREATE TABLE p (id INT);")],
//!             "ann", Timestamp::from_date(2017, 2, 1), "v0").unwrap();
//! repo.commit([FileChange::write("schema.sql",
//!             "CREATE TABLE p (id INT, name TEXT);\nCREATE TABLE o (id INT);")],
//!             "ben", Timestamp::from_date(2017, 9, 9), "grow").unwrap();
//!
//! // 2. Extract the schema history and profile it.
//! let versions = file_history(&repo, "schema.sql", WalkStrategy::FirstParent).unwrap();
//! let history = SchemaHistory::from_file_versions("acme/shop", &versions).unwrap();
//! let profile = EvolutionProfile::of(&history);
//!
//! // 3. Classify.
//! assert_eq!(profile.class.taxon(), Some(Taxon::AlmostFrozen));
//! assert_eq!(profile.total_activity, 2); // `name` injected + `o.id` born
//! ```

#![warn(missing_docs)]

pub use schevo_core as core;
pub use schevo_corpus as corpus;
pub use schevo_ddl as ddl;
pub use schevo_obs as obs;
pub use schevo_pipeline as pipeline;
pub use schevo_report as report;
pub use schevo_serve as serve;
pub use schevo_stats as stats;
pub use schevo_vcs as vcs;

// The stable mining surface, re-exported at the root so the CLI,
// examples, and tests never deep-import crate paths (see DESIGN.md,
// "Stable surface"). Everything else re-exported by the workspace
// crates is reachable but considered internal.
pub use schevo_core::errors::SchevoError;
pub use schevo_pipeline::{
    exit_code, try_run_study_source, CandidateSource, MiningEngine, SliceSource, StudyOptions,
    StudyResult,
};

/// The types most callers need, in one import.
pub mod prelude {
    pub use schevo_core::errors::{ErrorClass, SchevoError};
    pub use schevo_core::heartbeat::{Heartbeat, REED_THRESHOLD};
    pub use schevo_core::measures::measure_history;
    pub use schevo_core::model::SchemaHistory;
    pub use schevo_core::profile::{EvolutionProfile, ProjectContext};
    pub use schevo_core::taxa::{classify, ProjectClass, Taxon, TaxonFeatures};
    pub use schevo_corpus::faultgen::{inject, FaultClass, FaultPlan, InjectedFault};
    pub use schevo_corpus::universe::{corpus_digest, generate, Universe, UniverseConfig};
    pub use schevo_ddl::{parse_schema, parse_schema_recovering, Schema};
    pub use schevo_obs::ObsHooks;
    pub use schevo_pipeline::quarantine::QuarantineReport;
    pub use schevo_pipeline::study::{try_run_study_source, StudyOptions, StudyResult};
    pub use schevo_pipeline::{CandidateSource, MiningEngine, SliceSource};
    pub use schevo_report::ProjectSeries;
    pub use schevo_vcs::history::{file_history, WalkStrategy};
    pub use schevo_vcs::repo::{FileChange, Repository};
    pub use schevo_vcs::timestamp::Timestamp;
}
