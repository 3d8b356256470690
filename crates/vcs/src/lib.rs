//! # schevo-vcs
//!
//! A from-scratch, content-addressed version-control substrate with git-like
//! semantics: SHA-1 object addressing, blob/tree/commit objects, branches,
//! merges, and per-file history extraction.
//!
//! The ICDE 2021 study mines the commit history of DDL files out of real git
//! repositories cloned from GitHub. This crate is the stand-in for git in
//! the reproduction: the synthetic corpus *commits actual file contents*
//! into repositories built on this substrate, and the mining pipeline
//! extracts per-file histories back out of them — so every measurement
//! downstream is derived from a real parse of a real versioned file, not
//! from in-memory shortcuts.
//!
//! ## Example
//!
//! ```
//! use schevo_vcs::repo::{FileChange, Repository};
//! use schevo_vcs::history::{file_history, WalkStrategy};
//! use schevo_vcs::timestamp::Timestamp;
//!
//! let mut repo = Repository::new("acme/shop");
//! repo.commit(
//!     [FileChange::write("db/schema.sql", "CREATE TABLE p (id INT);")],
//!     "alice", Timestamp::from_date(2018, 3, 1), "initial schema",
//! ).unwrap();
//! repo.commit(
//!     [FileChange::write("db/schema.sql", "CREATE TABLE p (id INT, name TEXT);")],
//!     "bob", Timestamp::from_date(2018, 5, 9), "add product name",
//! ).unwrap();
//!
//! let history = file_history(&repo, "db/schema.sql", WalkStrategy::FirstParent).unwrap();
//! assert_eq!(history.len(), 2);
//! ```

#![warn(missing_docs)]
#![deny(clippy::undocumented_unsafe_blocks)]

pub mod frame;
pub mod history;
pub mod object;
pub mod pack;
pub mod repo;
pub mod sha1;
pub mod store;
pub mod timestamp;

pub use history::{commit_count, file_history, FileVersion, WalkStrategy};
pub use pack::{read_pack, write_pack, PackError};
pub use repo::{FileChange, RepoError, Repository};
pub use sha1::Digest;
pub use store::ObjectStore;
pub use timestamp::Timestamp;
