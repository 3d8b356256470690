//! Write-ahead mining journal: crash-safe persistence of per-project
//! mining outcomes.
//!
//! A long study run must survive being killed mid-flight without losing
//! mined work. As the work-stealing executor completes each candidate,
//! the caller thread appends one journal record — a JSON payload in a
//! [`schevo_vcs::frame`] frame — with a single `write_all` plus
//! `sync_data`, so a record is either fully committed or absent. On
//! restart, [`replay_bytes`] walks the journal with the same
//! fail-closed discipline as the bounds-checked pack reader: a
//! truncated or bit-flipped tail is detected by the length/checksum
//! frame, replay stops at the last valid record, and resumption
//! truncates to that valid prefix before appending.
//!
//! Records are keyed by [`candidate_key`], a content hash over the
//! candidate's full extracted history (each version's content by its
//! blob address) plus the reed threshold, so a changed corpus (different
//! seed, scale, injected faults, threshold) silently invalidates stale
//! records instead of replaying them.
//!
//! The format is deliberately dumb: no compaction, no index, no
//! in-place mutation. A journal is one study attempt's ledger, not a
//! database.

use crate::extract::MineOutcome;
use crate::funnel::CandidateHistory;
use schevo_core::errors::{ErrorClass, SchevoError};
use schevo_core::failpoint;
use schevo_obs::manifest::JournalManifest;
use schevo_vcs::frame;
use schevo_vcs::sha1::{Digest, Sha1};
use std::fs::{File, OpenOptions};
use std::io::{Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::time::Duration;

use serde::{Deserialize, Serialize};

/// File magic: identifies a mining journal and its format version.
pub const JOURNAL_MAGIC: [u8; 8] = *b"SCHEVOJ1";

/// Byte length of the file header (just the magic).
pub const HEADER_LEN: usize = JOURNAL_MAGIC.len();

/// Durability knobs of a mining pass, carried by
/// [`crate::study::StudyOptions`].
#[derive(Debug, Clone, Default, PartialEq)]
pub struct DurabilityOptions {
    /// Write-ahead journal path. `None` disables journaling entirely
    /// (the default: zero overhead, bit-identical to the pre-journal
    /// pipeline).
    pub journal: Option<PathBuf>,
    /// Replay an existing journal at `journal` before mining, skipping
    /// candidates whose keyed record is already committed.
    pub resume: bool,
    /// Deterministic crash injection: abort the process immediately
    /// after the Nth journal commit of this run (1-based). Testing only.
    pub crash_after: Option<u64>,
    /// Soft per-task watchdog deadline. A task that overruns is flagged
    /// as a [`ErrorClass::DeadlineExceeded`] recovery, never killed.
    /// `None` (the default) disables the watchdog — overrun flagging is
    /// wall-clock-dependent, so determinism contracts only cover runs
    /// that leave this off.
    pub deadline: Option<Duration>,
}

/// What the journal did for one mining pass.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct JournalSummary {
    /// Candidates satisfied by replayed journal records (not re-mined).
    pub replayed: usize,
    /// Candidates mined fresh this run (journaled as they completed).
    pub mined_fresh: usize,
    /// Replayed records whose key matched no current candidate — stale
    /// state from a different corpus or threshold, discarded.
    pub stale_discarded: usize,
    /// Corruption found at the journal tail during replay, if any. The
    /// valid prefix was still used; the tail was truncated away.
    pub corruption: Option<SchevoError>,
}

impl JournalSummary {
    /// The run manifest's journal section for a pass journaled at `path`.
    pub fn manifest(&self, path: &Path) -> JournalManifest {
        JournalManifest {
            path: path.display().to_string(),
            replayed: self.replayed as u64,
            mined_fresh: self.mined_fresh as u64,
            stale_discarded: self.stale_discarded as u64,
            corrupt_tail: self.corruption.as_ref().map(|c| c.to_string()),
        }
    }
}

/// One committed record: the mining outcome of one candidate, keyed by
/// the hex content digest of the candidate's history.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct JournalRecord {
    /// [`candidate_key`] of the candidate, as 40 hex characters.
    pub key: String,
    /// Everything graceful mining produced for the candidate.
    pub outcome: MineOutcome,
}

/// The result of replaying a journal: every record of the valid prefix,
/// plus where that prefix ends and what (if anything) corrupted the tail.
#[derive(Debug)]
pub struct Replay {
    /// Records of the valid prefix, in commit order.
    pub records: Vec<JournalRecord>,
    /// Byte offset just past each record, in commit order. Lets a
    /// caller cut a journal at an exact record boundary.
    pub record_ends: Vec<u64>,
    /// Byte length of the valid prefix (header included). Resumption
    /// truncates the file to this length before appending.
    pub valid_len: u64,
    /// Why replay stopped early, if it did. `None` means the journal
    /// ended cleanly at a record boundary.
    pub corruption: Option<SchevoError>,
}

fn corrupt(origin: &str, offset: usize, message: impl Into<String>) -> SchevoError {
    SchevoError {
        class: ErrorClass::Journal,
        project: origin.to_string(),
        version_index: None,
        message: message.into(),
        byte_offset: Some(offset as u64),
    }
}

fn io_error(path: &Path, op: &str, e: &std::io::Error) -> SchevoError {
    SchevoError::project(
        ErrorClass::Journal,
        path.display().to_string(),
        format!("{op}: {e}"),
    )
}

/// Encode one record into its on-disk frame: its JSON in a
/// [`schevo_vcs::frame`] frame.
pub fn encode_record(record: &JournalRecord) -> Result<Vec<u8>, SchevoError> {
    let fail = |e: String| SchevoError::project(ErrorClass::Journal, &record.key, e);
    let payload = serde_json::to_string(record)
        .map_err(|e| fail(format!("encode: {e}")))?
        .into_bytes();
    let header = frame::header(&payload).map_err(|e| fail(format!("encode: {e}")))?;
    let mut buf = Vec::with_capacity(frame::frame_len(payload.len()));
    buf.extend_from_slice(&header);
    buf.extend_from_slice(&payload);
    Ok(buf)
}

/// Decode the record framed at the start of `bytes`, plus its frame length.
fn decode_frame(bytes: &[u8]) -> Result<(JournalRecord, usize), String> {
    let payload = frame::decode(bytes).map_err(|e| format!("record frame: {e}"))?;
    let record = std::str::from_utf8(payload)
        .map_err(|e| e.to_string())
        .and_then(|s| serde_json::from_str(s).map_err(|e| e.to_string()))
        .map_err(|e| format!("undecodable record payload: {e}"))?;
    Ok((record, frame::frame_len(payload.len())))
}

/// Replay journal bytes, stopping at the last valid record.
///
/// Never panics, never accepts a corrupt record: every stop condition —
/// short header, bad magic, truncated frame, oversized length, checksum
/// mismatch, undecodable payload — ends the walk at the previous record
/// boundary and is reported in [`Replay::corruption`]. `origin` is used
/// as provenance in that error (typically the journal path).
pub fn replay_bytes(bytes: &[u8], origin: &str) -> Replay {
    let mut replay = Replay {
        records: Vec::new(),
        record_ends: Vec::new(),
        valid_len: 0,
        corruption: None,
    };
    if bytes.len() < HEADER_LEN || bytes[..HEADER_LEN] != JOURNAL_MAGIC {
        replay.corruption = Some(corrupt(origin, 0, "missing or wrong journal magic"));
        return replay;
    }
    replay.valid_len = HEADER_LEN as u64;
    let mut at = HEADER_LEN;
    while at < bytes.len() {
        let (record, len) = match decode_frame(&bytes[at..]) {
            Ok(r) => r,
            Err(e) => {
                replay.corruption = Some(corrupt(origin, at, e));
                return replay;
            }
        };
        at += len;
        replay.records.push(record);
        replay.record_ends.push(at as u64);
        replay.valid_len = at as u64;
    }
    replay
}

/// Replay a journal file. An unreadable file is an error; a readable
/// file with a corrupt tail is a degraded [`Replay`], not an error.
pub fn replay_file(path: &Path) -> Result<Replay, SchevoError> {
    let bytes = std::fs::read(path).map_err(|e| io_error(path, "read journal", &e))?;
    Ok(replay_bytes(&bytes, &path.display().to_string()))
}

/// Append-only journal writer. Each [`JournalWriter::append`] commits
/// one record with a single `write_all` of the complete frame followed
/// by `sync_data`, so a crash between appends never leaves a torn
/// record — only a cleanly missing tail that replay degrades past.
#[derive(Debug)]
pub struct JournalWriter {
    file: File,
    path: PathBuf,
    commits: u64,
}

impl JournalWriter {
    /// Start a fresh journal at `path`, truncating any existing file and
    /// writing the header.
    pub fn create(path: &Path) -> Result<Self, SchevoError> {
        let mut file = failpoint::retry_io(failpoint::RetryPolicy::default(), || {
            failpoint::check("journal.create")?;
            File::create(path)
        })
        .map_err(|e| io_error(path, "create journal", &e))?;
        write_frame_at(&mut file, 0, &JOURNAL_MAGIC)
            .map_err(|e| io_error(path, "write journal header", &e))?;
        Ok(JournalWriter {
            file,
            path: path.to_path_buf(),
            commits: 0,
        })
    }

    /// Reopen an existing journal for appending, first truncating it to
    /// `valid_len` (the valid prefix found by replay) so a corrupt tail
    /// is physically discarded. A `valid_len` too short to hold the
    /// header falls back to [`JournalWriter::create`].
    pub fn resume(path: &Path, valid_len: u64) -> Result<Self, SchevoError> {
        if valid_len < HEADER_LEN as u64 {
            return Self::create(path);
        }
        let mut file = OpenOptions::new()
            .read(true)
            .write(true)
            .open(path)
            .map_err(|e| io_error(path, "open journal", &e))?;
        failpoint::retry_io(failpoint::RetryPolicy::default(), || {
            failpoint::check("journal.truncate")?;
            file.set_len(valid_len)?;
            file.seek(SeekFrom::Start(valid_len))?;
            failpoint::check("journal.fsync")?;
            file.sync_data()
        })
        .map_err(|e| io_error(path, "truncate journal to valid prefix", &e))?;
        Ok(JournalWriter {
            file,
            path: path.to_path_buf(),
            commits: 0,
        })
    }

    /// Commit one record: encode, write the whole frame in one call,
    /// flush to disk. On return the record is durable.
    ///
    /// Transient I/O failures are retried with bounded deterministic
    /// backoff; before each retry the file is rewound (truncated and
    /// re-seeked) to the pre-append offset so a partially flushed
    /// attempt can never leave a torn or duplicated frame.
    pub fn append(&mut self, record: &JournalRecord) -> Result<(), SchevoError> {
        let frame = encode_record(record)?;
        let start = self
            .file
            .stream_position()
            .map_err(|e| io_error(&self.path, "locate journal tail", &e))?;
        write_frame_at(&mut self.file, start, &frame)
            .map_err(|e| io_error(&self.path, "append journal record", &e))?;
        self.commits += 1;
        Ok(())
    }

    /// Records committed by this writer (excludes replayed ones).
    pub fn commits(&self) -> u64 {
        self.commits
    }

    /// The journal's path.
    pub fn path(&self) -> &Path {
        &self.path
    }
}

/// Write `bytes` at `start` and fsync, retrying transient failures.
/// Every retry first truncates back to `start` and re-seeks, so a
/// partial write from a failed attempt is physically discarded before
/// the frame is written again — the file only ever ends at a frame
/// boundary or mid-way through the *final* attempt (which surfaces as
/// an error and is truncated away by the next replay).
fn write_frame_at(file: &mut File, start: u64, bytes: &[u8]) -> std::io::Result<()> {
    let mut dirty = false;
    failpoint::retry_io(failpoint::RetryPolicy::default(), || {
        if dirty {
            file.set_len(start)?;
            file.seek(SeekFrom::Start(start))?;
        }
        dirty = true;
        failpoint::check("journal.append")?;
        file.write_all(bytes)?;
        failpoint::check("journal.fsync")?;
        file.sync_data()
    })
}

/// Content key of a candidate: SHA-1 over the candidate's identity,
/// funnel context, full version history, and the reed threshold — every
/// input that determines its mining outcome. Each version's content
/// enters as its blob address ([`schevo_vcs::object::Text::id`]): carried
/// from the blob a walk read it out of, computed from the bytes
/// otherwise, so equal contents key alike either way. Each
/// variable-length field is length-prefixed so distinct histories cannot
/// collide by concatenation.
pub fn candidate_key(candidate: &CandidateHistory, reed_threshold: u64) -> Digest {
    fn feed(h: &mut Sha1, bytes: &[u8]) {
        h.update(&(bytes.len() as u64).to_le_bytes());
        h.update(bytes);
    }
    let mut h = Sha1::new();
    h.update(b"schevo-candidate-key-v2");
    feed(&mut h, candidate.name.as_bytes());
    feed(&mut h, candidate.ddl_path.as_bytes());
    h.update(&candidate.pup_months.to_le_bytes());
    h.update(&candidate.total_commits.to_le_bytes());
    h.update(&reed_threshold.to_le_bytes());
    h.update(&(candidate.versions.len() as u64).to_le_bytes());
    for v in &candidate.versions {
        h.update(&v.commit.0);
        h.update(&v.timestamp.0.to_le_bytes());
        feed(&mut h, v.author.as_bytes());
        feed(&mut h, v.message.as_bytes());
        h.update(&v.content.id().0);
    }
    h.finalize()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::quarantine::RecoveryRecord;
    use schevo_vcs::sha1::sha1;
    use schevo_vcs::history::FileVersion;
    use schevo_vcs::timestamp::Timestamp;

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("schevo_journal_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    fn record(i: usize) -> JournalRecord {
        JournalRecord {
            key: format!("{i:040x}"),
            outcome: MineOutcome {
                mined: None,
                recovered: vec![RecoveryRecord {
                    error: SchevoError::version(
                        ErrorClass::DuplicateVersion,
                        format!("p/{i}"),
                        i,
                        "dup",
                    ),
                    dropped_statements: i as u64,
                }],
                quarantined: None,
            },
        }
    }

    fn journal_bytes(n: usize) -> Vec<u8> {
        let mut bytes = JOURNAL_MAGIC.to_vec();
        for i in 0..n {
            bytes.extend_from_slice(&encode_record(&record(i)).unwrap());
        }
        bytes
    }

    #[test]
    fn roundtrip_through_writer_and_replay() {
        let path = tmp("roundtrip.journal");
        let mut w = JournalWriter::create(&path).unwrap();
        for i in 0..5 {
            w.append(&record(i)).unwrap();
        }
        assert_eq!(w.commits(), 5);
        let replay = replay_file(&path).unwrap();
        assert!(replay.corruption.is_none());
        assert_eq!(replay.records, (0..5).map(record).collect::<Vec<_>>());
        assert_eq!(replay.valid_len, std::fs::metadata(&path).unwrap().len());
    }

    #[test]
    fn truncated_tail_degrades_to_valid_prefix() {
        let bytes = journal_bytes(3);
        let replay = replay_bytes(&bytes, "t");
        let two = replay.record_ends[1] as usize;
        // Cut mid-record: everything from just after record 2's boundary
        // up to one byte short of record 3's end.
        for cut in two + 1..bytes.len() {
            let r = replay_bytes(&bytes[..cut], "t");
            assert_eq!(r.records.len(), 2, "cut at {cut}");
            assert_eq!(r.valid_len as usize, two, "cut at {cut}");
            assert!(r.corruption.is_some(), "cut at {cut} not reported");
        }
        // Cut exactly at a boundary: clean end, no corruption.
        let r = replay_bytes(&bytes[..two], "t");
        assert_eq!(r.records.len(), 2);
        assert!(r.corruption.is_none());
    }

    #[test]
    fn bit_flip_stops_replay_at_previous_record() {
        let bytes = journal_bytes(3);
        let ends = replay_bytes(&bytes, "t").record_ends.clone();
        // Flip one byte inside the middle record's frame.
        let mid = (ends[0] as usize + ends[1] as usize) / 2;
        let mut bad = bytes.clone();
        bad[mid] ^= 0x40;
        let r = replay_bytes(&bad, "t");
        assert_eq!(r.records.len(), 1, "flip at {mid} not caught");
        assert_eq!(r.valid_len, ends[0]);
        let c = r.corruption.expect("flip must be reported");
        assert_eq!(c.class, ErrorClass::Journal);
    }

    #[test]
    fn bad_magic_yields_empty_replay() {
        let mut bytes = journal_bytes(2);
        bytes[0] ^= 0xff;
        let r = replay_bytes(&bytes, "t");
        assert!(r.records.is_empty());
        assert_eq!(r.valid_len, 0);
        assert!(r.corruption.is_some());
        assert!(replay_bytes(b"", "t").corruption.is_some());
    }

    #[test]
    fn resume_truncates_corrupt_tail_then_appends() {
        let path = tmp("resume.journal");
        let mut bytes = journal_bytes(3);
        bytes.pop(); // tear the last record
        std::fs::write(&path, &bytes).unwrap();
        let replay = replay_file(&path).unwrap();
        assert_eq!(replay.records.len(), 2);
        assert!(replay.corruption.is_some());
        let mut w = JournalWriter::resume(&path, replay.valid_len).unwrap();
        w.append(&record(7)).unwrap();
        let after = replay_file(&path).unwrap();
        assert!(after.corruption.is_none());
        assert_eq!(after.records.len(), 3);
        assert_eq!(after.records[2], record(7));
    }

    #[test]
    fn candidate_key_tracks_every_input() {
        let base = CandidateHistory {
            name: "a/b".into(),
            ddl_path: "schema.sql".into(),
            versions: vec![FileVersion {
                commit: sha1(b"c0"),
                timestamp: Timestamp(100),
                author: "dev".into(),
                message: "v0".into(),
                content: "CREATE TABLE t (a INT);".into(),
            }],
            pup_months: 10,
            total_commits: 20,
        };
        let k = candidate_key(&base, 14);
        assert_eq!(k, candidate_key(&base.clone(), 14), "key must be stable");
        assert_ne!(k, candidate_key(&base, 15), "threshold must key");
        let mut m = base.clone();
        m.versions[0].content.to_mut().push(' ');
        assert_ne!(k, candidate_key(&m, 14), "content must key");
        let mut m = base.clone();
        m.name = "a/c".into();
        assert_ne!(k, candidate_key(&m, 14), "name must key");
        let mut m = base.clone();
        m.versions[0].timestamp = Timestamp(101);
        assert_ne!(k, candidate_key(&m, 14), "timestamp must key");
    }

    #[test]
    fn candidate_key_is_the_same_for_walked_and_built_versions() {
        use schevo_vcs::history::{file_history, WalkStrategy};
        use schevo_vcs::repo::{FileChange, Repository};
        let mut repo = Repository::new("a/b");
        let write = |content: &str| FileChange::Write {
            path: "schema.sql".into(),
            content: content.into(),
        };
        repo.commit(
            [write("CREATE TABLE t (a INT);")],
            "dev",
            Timestamp(100),
            "v0",
        )
        .expect("commit");
        repo.commit(
            [write("CREATE TABLE t (a INT, b INT);")],
            "dev",
            Timestamp(200),
            "v1",
        )
        .expect("commit");
        let walked = CandidateHistory {
            name: "a/b".into(),
            ddl_path: "schema.sql".into(),
            versions: file_history(&repo, "schema.sql", WalkStrategy::FirstParent).expect("walk"),
            pup_months: 10,
            total_commits: 20,
        };
        // The same versions with contents that carry no blob address.
        let mut built = walked.clone();
        for v in &mut built.versions {
            v.content = v.content.as_str().into();
        }
        assert_eq!(candidate_key(&walked, 14), candidate_key(&built, 14));
        built.versions[1].content.to_mut().push(' ');
        assert_ne!(candidate_key(&walked, 14), candidate_key(&built, 14));
    }
}
