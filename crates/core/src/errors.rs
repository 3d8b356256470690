//! Shared error taxonomy for the mining stack.
//!
//! Every stage of the pipeline — pack decoding, history walking, DDL
//! parsing, version sanitation — reports failures as a [`SchevoError`]
//! carrying its [`ErrorClass`] plus project/version provenance, so a
//! study can quarantine one bad history (and say exactly why) instead
//! of aborting the run.

use schevo_ddl::error::{ParseError, ParseErrorKind};
use serde::{Deserialize, Serialize};

/// Coarse classification of a mining failure. Each variant corresponds
/// to one detection point in the pipeline and (via `faultgen`) to one
/// or more injectable corruption classes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ErrorClass {
    /// The lexer could not tokenize a version (unterminated string,
    /// comment, or quoted identifier — typically truncation or byte
    /// corruption).
    Lex,
    /// The parser rejected the token stream outright.
    Syntax,
    /// A version's schema could not be salvaged: statement-level
    /// recovery produced an empty schema.
    EmptySchema,
    /// A packed repository failed structural or digest verification.
    PackCorrupt,
    /// The repository/history walk itself failed.
    HistoryWalk,
    /// Commit timestamps went backwards within a linearized history.
    NonMonotonicTimestamps,
    /// Two consecutive versions carried byte-identical content.
    DuplicateVersion,
    /// A version (or the whole history) had blank content.
    EmptyVersion,
    /// The write-ahead mining journal was unreadable, unwritable, or its
    /// tail failed length/checksum verification during replay.
    Journal,
    /// A mining task exceeded its soft watchdog deadline. Flagged, never
    /// fatal: the task's result is kept, the overrun is reported.
    DeadlineExceeded,
    /// A sharded corpus store record failed length/checksum verification
    /// or decoding during a streaming read. The affected record (or shard
    /// tail) is quarantined; the stream continues over surviving data.
    StoreCorrupt,
    /// An underlying I/O syscall failed after the site's bounded retry
    /// loop was exhausted (transient errors) or immediately (permanent
    /// errors such as `ENOSPC`). By construction these are permanent by
    /// the time they surface: transient conditions were already retried
    /// at the failing site.
    Io,
}

impl ErrorClass {
    /// Short stable label used in reports and CLI output.
    pub fn label(&self) -> &'static str {
        match self {
            ErrorClass::Lex => "lex",
            ErrorClass::Syntax => "syntax",
            ErrorClass::EmptySchema => "empty-schema",
            ErrorClass::PackCorrupt => "pack-corrupt",
            ErrorClass::HistoryWalk => "history-walk",
            ErrorClass::NonMonotonicTimestamps => "non-monotonic-timestamps",
            ErrorClass::DuplicateVersion => "duplicate-version",
            ErrorClass::EmptyVersion => "empty-version",
            ErrorClass::Journal => "journal",
            ErrorClass::DeadlineExceeded => "deadline-exceeded",
            ErrorClass::StoreCorrupt => "store-corrupt",
            ErrorClass::Io => "io",
        }
    }

    /// Whether re-running the *whole operation* (study, export, serve
    /// request) may succeed without any change to the inputs.
    ///
    /// Syscall-level transience (EIO, timeouts) is classified and
    /// retried at each I/O site by [`crate::failpoint::retry_io`]
    /// before a [`SchevoError`] ever materializes, so `Io` here means
    /// the retries were exhausted — still worth one *operation-level*
    /// retry (a flaky disk may have recovered), as is a watchdog
    /// overrun. Data-shaped classes are deterministic and permanent.
    pub fn transient(&self) -> bool {
        matches!(self, ErrorClass::Io | ErrorClass::DeadlineExceeded)
    }
}

impl std::fmt::Display for ErrorClass {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// A typed mining error with provenance: which project, and (when the
/// failure is version-scoped) which version index within its extracted
/// history.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct SchevoError {
    /// What went wrong.
    pub class: ErrorClass,
    /// `owner/repo` of the offending history.
    pub project: String,
    /// Index into the extracted version list, when version-scoped.
    pub version_index: Option<u64>,
    /// Human-readable detail (underlying error rendered to text).
    pub message: String,
    /// Byte offset into the version's source, for lex/syntax errors.
    pub byte_offset: Option<u64>,
}

impl SchevoError {
    /// Build from a DDL [`ParseError`] raised while parsing one version.
    pub fn from_parse(project: impl Into<String>, version_index: usize, e: &ParseError) -> Self {
        let class = match e.kind {
            ParseErrorKind::Lex(_) => ErrorClass::Lex,
            _ => ErrorClass::Syntax,
        };
        SchevoError {
            class,
            project: project.into(),
            version_index: Some(version_index as u64),
            message: e.to_string(),
            byte_offset: Some(e.span.start as u64),
        }
    }

    /// Build a version-scoped sanitation error (timestamps, duplicates,
    /// empty versions, unrecoverable schemas).
    pub fn version(
        class: ErrorClass,
        project: impl Into<String>,
        version_index: usize,
        message: impl Into<String>,
    ) -> Self {
        SchevoError {
            class,
            project: project.into(),
            version_index: Some(version_index as u64),
            message: message.into(),
            byte_offset: None,
        }
    }


    /// Build a project-scoped error without a version index.
    pub fn project(class: ErrorClass, project: impl Into<String>, message: impl Into<String>) -> Self {
        SchevoError {
            class,
            project: project.into(),
            version_index: None,
            message: message.into(),
            byte_offset: None,
        }
    }
}

impl std::fmt::Display for SchevoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "[{}] {}", self.class, self.project)?;
        if let Some(v) = self.version_index {
            write!(f, " v{v}")?;
        }
        write!(f, ": {}", self.message)?;
        if let Some(b) = self.byte_offset {
            write!(f, " (byte {b})")?;
        }
        Ok(())
    }
}

impl std::error::Error for SchevoError {}

#[cfg(test)]
mod tests {
    use super::*;
    use schevo_ddl::error::Span;

    #[test]
    fn parse_error_maps_to_lex_class_with_offset() {
        let pe = ParseError::lex("unterminated string literal", Span { start: 17, end: 18 });
        let e = SchevoError::from_parse("acme/app", 3, &pe);
        assert_eq!(e.class, ErrorClass::Lex);
        assert_eq!(e.version_index, Some(3));
        assert_eq!(e.byte_offset, Some(17));
        let s = e.to_string();
        assert!(s.contains("[lex] acme/app v3"), "{s}");
        assert!(s.contains("byte 17"), "{s}");
    }

    #[test]
    fn syntax_class_for_non_lex_kinds() {
        let pe = ParseError::eof("`)`", Span { start: 40, end: 40 });
        let e = SchevoError::from_parse("acme/app", 0, &pe);
        assert_eq!(e.class, ErrorClass::Syntax);
    }

    #[test]
    fn version_scoped_constructor() {
        let e = SchevoError::version(
            ErrorClass::DuplicateVersion,
            "acme/app",
            5,
            "identical to previous version",
        );
        assert_eq!(e.class.label(), "duplicate-version");
        assert_eq!(e.version_index, Some(5));
        assert!(e.to_string().contains("v5"));
    }

    #[test]
    fn class_labels_are_stable_and_distinct() {
        let all = [
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
            ErrorClass::Io,
        ];
        let labels: std::collections::HashSet<&str> = all.iter().map(|c| c.label()).collect();
        assert_eq!(labels.len(), all.len());
    }

    #[test]
    fn io_and_deadline_classes_are_transient_at_operation_level() {
        assert!(ErrorClass::Io.transient());
        assert!(!ErrorClass::Syntax.transient());
        assert!(ErrorClass::DeadlineExceeded.transient());
    }
}
