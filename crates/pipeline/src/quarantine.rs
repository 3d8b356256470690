//! Quarantine accounting for graceful-degradation mining.
//!
//! When the miner meets a damaged history it tries, in order: statement
//! -level parser recovery (a broken `CREATE TABLE` drops that statement),
//! version-level sanitation (blank or duplicated versions are dropped,
//! backwards timestamps re-sorted), and finally quarantine (the whole
//! history is excluded from the analyzed population). Every such event
//! is recorded here, with its [`ErrorClass`] and provenance, so a study
//! can report exactly what it survived — and `--strict` mode can refuse
//! to survive it.

use schevo_core::errors::{ErrorClass, SchevoError};
use schevo_obs::manifest::{ClassCount, QuarantineManifest};
use serde::{Deserialize, Serialize};

/// A version-level problem the miner recovered from without losing the
/// history.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RecoveryRecord {
    /// What was wrong, with project/version provenance.
    pub error: SchevoError,
    /// `CREATE TABLE` statements dropped by statement-level parser
    /// recovery while salvaging this version (0 for sanitation events).
    pub dropped_statements: u64,
}

/// A history excluded from the analyzed population.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct QuarantineRecord {
    /// The error that condemned the history (first unrecoverable one).
    pub error: SchevoError,
    /// Whether statement-level recovery was attempted before giving up.
    pub recovery_attempted: bool,
}

/// Everything the miner survived (or refused to): recoveries and
/// quarantines, in candidate order, deterministic for every worker
/// count.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct QuarantineReport {
    /// Version-level events recovered in place.
    pub recovered: Vec<RecoveryRecord>,
    /// Histories excluded from the analyzed population.
    pub quarantined: Vec<QuarantineRecord>,
}

impl QuarantineReport {
    /// No degradation events at all — the run was equivalent to strict.
    pub fn is_clean(&self) -> bool {
        self.recovered.is_empty() && self.quarantined.is_empty()
    }

    /// The error a strict run aborts with: the first quarantine if any,
    /// else the first recovery. Deterministic (candidate order).
    pub fn first_error(&self) -> Option<&SchevoError> {
        self.quarantined
            .first()
            .map(|q| &q.error)
            .or_else(|| self.recovered.first().map(|r| &r.error))
    }

    /// `(class, recovered, quarantined)` counts over every class that
    /// appears, in [`ErrorClass`] catalog order.
    pub fn class_counts(&self) -> Vec<(ErrorClass, usize, usize)> {
        const ORDER: [ErrorClass; 11] = [
            ErrorClass::Lex,
            ErrorClass::Syntax,
            ErrorClass::EmptySchema,
            ErrorClass::PackCorrupt,
            ErrorClass::HistoryWalk,
            ErrorClass::NonMonotonicTimestamps,
            ErrorClass::DuplicateVersion,
            ErrorClass::EmptyVersion,
            ErrorClass::Journal,
            ErrorClass::DeadlineExceeded,
            ErrorClass::StoreCorrupt,
        ];
        ORDER
            .iter()
            .filter_map(|&class| {
                let rec = self.recovered.iter().filter(|r| r.error.class == class).count();
                let quar = self.quarantined.iter().filter(|q| q.error.class == class).count();
                (rec + quar > 0).then_some((class, rec, quar))
            })
            .collect()
    }

    /// Recoveries flagged by the per-task watchdog (the engine's
    /// `mine.deadline_exceeded` counter).
    pub fn deadline_exceeded(&self) -> usize {
        self.recovered
            .iter()
            .filter(|r| r.error.class == ErrorClass::DeadlineExceeded)
            .count()
    }

    /// The run manifest's quarantine section.
    pub fn manifest(&self) -> QuarantineManifest {
        QuarantineManifest {
            recovered: self.recovered.len() as u64,
            quarantined: self.quarantined.len() as u64,
            deadline_exceeded: self.deadline_exceeded() as u64,
            classes: self
                .class_counts()
                .into_iter()
                .map(|(class, recovered, quarantined)| ClassCount {
                    class: class.to_string(),
                    recovered: recovered as u64,
                    quarantined: quarantined as u64,
                })
                .collect(),
        }
    }

    /// One-line summary for CLI / example output.
    pub fn summary(&self) -> String {
        if self.is_clean() {
            return "quarantine: clean run (no degradation events)".to_string();
        }
        let classes: Vec<String> = self
            .class_counts()
            .iter()
            .map(|(c, r, q)| format!("{c}: {r} recovered / {q} quarantined"))
            .collect();
        format!(
            "quarantine: {} version(s) recovered, {} history(ies) quarantined [{}]",
            self.recovered.len(),
            self.quarantined.len(),
            classes.join("; ")
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report() -> QuarantineReport {
        QuarantineReport {
            recovered: vec![RecoveryRecord {
                error: SchevoError::version(ErrorClass::DuplicateVersion, "a/x", 2, "dup"),
                dropped_statements: 0,
            }],
            quarantined: vec![QuarantineRecord {
                error: SchevoError::version(ErrorClass::Lex, "b/y", 0, "unterminated"),
                recovery_attempted: true,
            }],
        }
    }

    #[test]
    fn first_error_prefers_quarantine() {
        let r = report();
        assert_eq!(r.first_error().map(|e| e.class), Some(ErrorClass::Lex));
        assert!(!r.is_clean());
        assert!(QuarantineReport::default().is_clean());
    }

    #[test]
    fn class_counts_cover_both_kinds() {
        let r = report();
        let counts = r.class_counts();
        assert_eq!(counts.len(), 2);
        assert!(counts.contains(&(ErrorClass::Lex, 0, 1)));
        assert!(counts.contains(&(ErrorClass::DuplicateVersion, 1, 0)));
        assert!(r.summary().contains("1 version(s) recovered"));
    }
}
