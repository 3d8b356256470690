//! # schevo-core
//!
//! The primary contribution of the reproduced study: schema histories,
//! attribute-level diffs (Hecate), per-transition measurements, the
//! *heartbeat* with its reed/turf vocabulary, per-project evolution
//! profiles, and the rule-based taxa classification tree.
//!
//! ```
//! use schevo_core::model::SchemaHistory;
//! use schevo_core::profile::EvolutionProfile;
//! use schevo_core::taxa::Taxon;
//! use schevo_vcs::repo::{FileChange, Repository};
//! use schevo_vcs::history::{file_history, WalkStrategy};
//! use schevo_vcs::timestamp::Timestamp;
//!
//! // A project whose only logical change injects one attribute.
//! let mut repo = Repository::new("acme/app");
//! repo.commit([FileChange::write("schema.sql", "CREATE TABLE t (a INT);")],
//!             "dev", Timestamp::from_date(2018, 1, 1), "v0").unwrap();
//! repo.commit([FileChange::write("schema.sql", "CREATE TABLE t (a INT, b INT);")],
//!             "dev", Timestamp::from_date(2018, 6, 1), "add b").unwrap();
//!
//! let versions = file_history(&repo, "schema.sql", WalkStrategy::FirstParent).unwrap();
//! let history = SchemaHistory::from_file_versions("acme/app", &versions).unwrap();
//! let profile = EvolutionProfile::of(&history);
//! assert_eq!(profile.total_activity, 1);
//! assert_eq!(profile.class.taxon(), Some(Taxon::AlmostFrozen));
//! ```

#![warn(missing_docs)]

pub mod diff;
pub mod errors;
pub mod failpoint;
pub mod fk;
pub mod heartbeat;
pub mod intern;
pub mod measures;
pub mod migrate;
pub mod model;
pub mod profile;
pub mod shape;
pub mod tables;
pub mod taxa;
pub mod tempo;

pub use diff::{diff, SchemaDelta};
pub use errors::{ErrorClass, SchevoError};
pub use failpoint::{retry_io, transient_io, RetryPolicy};
pub use fk::{fk_corpus_stats, fk_profile, fk_snapshot, FkCorpusStats, FkProfile, FkSnapshot};
pub use heartbeat::{derive_reed_threshold, Heartbeat, HeartbeatPoint, REED_THRESHOLD};
pub use intern::{intern, symbol_count, Symbol, SymbolMap};
pub use measures::{measure_history, monthly_activity, TransitionMeasure};
pub use migrate::{apply_migration, generate_migration, logically_equivalent, Migration, MigrationStep};
pub use model::{CommitMeta, SchemaHistory, SchemaVersion};
pub use profile::{EvolutionProfile, ProjectContext};
pub use shape::{classify_shape, ShapeClass};
pub use tables::{electrolysis, fate_activity_table, quadrants, table_lives, ElectrolysisStats, TableFate, TableLife, TableQuadrant};
pub use taxa::{classify, ProjectClass, Taxon, TaxonFeatures};
pub use tempo::{tempo, Tempo, IDLE_THRESHOLD_DAYS};
