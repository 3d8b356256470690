//! Schema histories: the central data object of the study.
//!
//! A [`SchemaHistory`] is "a list of commits (a.k.a. versions) of the same
//! DDL file of a database schema, ordered over time" (§III-B). Each version
//! carries its commit metadata and its parsed logical [`Schema`].

use schevo_ddl::{parse_schema, ParseError, Schema};
use schevo_vcs::history::FileVersion;
use schevo_vcs::timestamp::Timestamp;
use serde::{Deserialize, Serialize};

/// Commit metadata attached to one schema version.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct CommitMeta {
    /// Commit id (hex digest of the underlying VCS commit).
    pub id: String,
    /// Commit timestamp.
    pub timestamp: Timestamp,
    /// Author name.
    pub author: String,
    /// Commit message.
    pub message: String,
}

/// One version of the schema: commit metadata plus the parsed schema.
#[derive(Debug, Clone, PartialEq)]
pub struct SchemaVersion {
    /// Commit metadata.
    pub meta: CommitMeta,
    /// Parsed logical schema of the file at this commit.
    pub schema: Schema,
    /// Length of the raw file, in bytes (for corpus statistics).
    pub source_len: usize,
}

/// A project's schema history.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct SchemaHistory {
    /// Project name, e.g. `owner/repo`.
    pub project: String,
    /// Versions in commit order; index 0 is the originating version **V0**.
    pub versions: Vec<SchemaVersion>,
}

impl SchemaHistory {
    /// Build a history by parsing every extracted file version.
    ///
    /// # Errors
    ///
    /// Fails with the first [`ParseError`] met; the collection funnel treats
    /// such projects as erroneous and excludes them.
    pub fn from_file_versions(
        project: impl Into<String>,
        versions: &[FileVersion],
    ) -> Result<SchemaHistory, ParseError> {
        let mut parsed = Vec::with_capacity(versions.len());
        for v in versions {
            let schema = parse_schema(&v.content)?;
            parsed.push(SchemaVersion {
                meta: CommitMeta {
                    id: v.commit.to_hex(),
                    timestamp: v.timestamp,
                    author: v.author.clone(),
                    message: v.message.clone(),
                },
                schema,
                source_len: v.content.len(),
            });
        }
        Ok(SchemaHistory {
            project: project.into(),
            versions: parsed,
        })
    }

    /// Number of commits of the DDL file (the paper's `#Commits`).
    pub fn commit_count(&self) -> usize {
        self.versions.len()
    }

    /// Number of transitions (`#Commits − 1`; 0 for history-less projects).
    pub fn transition_count(&self) -> usize {
        self.versions.len().saturating_sub(1)
    }

    /// Whether the project is *history-less* (a single commit — excluded
    /// from taxon analysis, Table I).
    pub fn is_history_less(&self) -> bool {
        self.versions.len() <= 1
    }

    /// The originating version V0, if any.
    pub fn v0(&self) -> Option<&SchemaVersion> {
        self.versions.first()
    }

    /// The last version, if any.
    pub fn last(&self) -> Option<&SchemaVersion> {
        self.versions.last()
    }

    /// Iterate over transitions as `(index, old, new)` — index is the
    /// 1-based transition id used on the heartbeat's x-axis.
    pub fn transitions(&self) -> impl Iterator<Item = (usize, &SchemaVersion, &SchemaVersion)> {
        self.versions
            .windows(2)
            .enumerate()
            .map(|(i, w)| (i + 1, &w[0], &w[1]))
    }

    /// The Schema Update Period in months: the span between the first and
    /// last commit of the schema file (≥ 1 by convention).
    pub fn sup_months(&self) -> u64 {
        match (self.v0(), self.last()) {
            (Some(a), Some(b)) => a.meta.timestamp.span_months(b.meta.timestamp) as u64,
            _ => 0,
        }
    }

    /// The Schema Update Period in days.
    pub fn sup_days(&self) -> u64 {
        match (self.v0(), self.last()) {
            (Some(a), Some(b)) => b.meta.timestamp.days_since(a.meta.timestamp).max(0) as u64,
            _ => 0,
        }
    }

    /// The schema-size line: `(days since V0, #tables, #attributes)` per
    /// version — the series behind the paper's left-hand charts.
    pub fn size_line(&self) -> Vec<(i64, usize, usize)> {
        let Some(v0) = self.v0() else {
            return Vec::new();
        };
        let origin = v0.meta.timestamp;
        self.versions
            .iter()
            .map(|v| {
                (
                    v.meta.timestamp.days_since(origin),
                    v.schema.table_count(),
                    v.schema.attribute_count(),
                )
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use schevo_vcs::repo::{FileChange, Repository};
    use schevo_vcs::history::{file_history, WalkStrategy};

    fn ts(days: i64) -> Timestamp {
        Timestamp::from_date(2018, 1, 1) + days * 86_400
    }

    fn sample_history() -> SchemaHistory {
        let mut repo = Repository::new("t/proj");
        repo.commit(
            [FileChange::write("s.sql", "CREATE TABLE a (x INT);")],
            "dev",
            ts(0),
            "v0",
        )
        .unwrap();
        repo.commit(
            [FileChange::write(
                "s.sql",
                "CREATE TABLE a (x INT, y INT);",
            )],
            "dev",
            ts(40),
            "add y",
        )
        .unwrap();
        repo.commit(
            [FileChange::write(
                "s.sql",
                "CREATE TABLE a (x INT, y INT);\nCREATE TABLE b (z INT);",
            )],
            "dev",
            ts(100),
            "add table b",
        )
        .unwrap();
        let fv = file_history(&repo, "s.sql", WalkStrategy::FirstParent).unwrap();
        SchemaHistory::from_file_versions("t/proj", &fv).unwrap()
    }

    #[test]
    fn builds_from_vcs_versions() {
        let h = sample_history();
        assert_eq!(h.commit_count(), 3);
        assert_eq!(h.transition_count(), 2);
        assert!(!h.is_history_less());
        assert_eq!(h.v0().unwrap().schema.attribute_count(), 1);
        assert_eq!(h.last().unwrap().schema.table_count(), 2);
    }

    #[test]
    fn transitions_are_one_based_pairs() {
        let h = sample_history();
        let t: Vec<usize> = h.transitions().map(|(i, _, _)| i).collect();
        assert_eq!(t, vec![1, 2]);
        let (_, old, new) = h.transitions().next().unwrap();
        assert_eq!(old.schema.attribute_count(), 1);
        assert_eq!(new.schema.attribute_count(), 2);
    }

    #[test]
    fn sup_in_months_and_days() {
        let h = sample_history();
        assert_eq!(h.sup_days(), 100);
        // 2018-01-01 → 2018-04-11 spans Jan..Apr → 4 months by convention.
        assert_eq!(h.sup_months(), 4);
    }

    #[test]
    fn size_line_tracks_growth() {
        let h = sample_history();
        assert_eq!(
            h.size_line(),
            vec![(0, 1, 1), (40, 1, 2), (100, 2, 3)]
        );
    }

    #[test]
    fn history_less_detection() {
        let h = SchemaHistory {
            project: "x".into(),
            versions: vec![],
        };
        assert!(h.is_history_less());
        assert_eq!(h.sup_months(), 0);
        assert!(h.size_line().is_empty());
    }

    #[test]
    fn parse_error_propagates() {
        use schevo_vcs::sha1::sha1;
        let bad = FileVersion {
            commit: sha1(b"x"),
            timestamp: ts(0),
            author: "a".into(),
            message: "m".into(),
            content: "CREATE TABLE broken (a INT".into(), // unterminated
        };
        // Tolerant parser degrades this to a skip, yielding an empty schema,
        // not an error — verify that behaviour instead.
        let h = SchemaHistory::from_file_versions("p", &[bad]).unwrap();
        assert_eq!(h.versions[0].schema.table_count(), 0);
        // A truly unlexable file (unterminated string) does error.
        let worse = FileVersion {
            commit: sha1(b"y"),
            timestamp: ts(0),
            author: "a".into(),
            message: "m".into(),
            content: "CREATE TABLE t (a INT); INSERT INTO t VALUES ('oops".into(),
        };
        assert!(SchemaHistory::from_file_versions("p", &[worse]).is_err());
    }
}
