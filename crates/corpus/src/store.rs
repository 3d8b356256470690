//! The sharded on-disk corpus store: pack-file shards plus a manifest.
//!
//! The in-memory [`crate::universe::Universe`] caps corpus size by RAM;
//! this store lifts that cap. The streaming generator
//! ([`crate::universe::generate_records`]) writes each record straight
//! to disk and drops it, and the reader streams records back one at a
//! time, so neither direction ever holds the corpus resident.
//!
//! ## Layout
//!
//! ```text
//! <dir>/MANIFEST.json          store version, config, counts, corpus digest
//! <dir>/shard-000.pack         records whose project-name hash ≡ 0 (mod N)
//! <dir>/shard-001.pack         ...
//! ```
//!
//! Each shard starts with the 8-byte magic `SCHEVOST` followed by
//! [`schevo_vcs::frame`] frames, the format the mining journal uses too.
//! Each frame's payload is read back with the bounds-checked
//! [`schevo_vcs::pack::Reader`] primitives:
//!
//! ```text
//! u64 seq                      global generation sequence number
//! u8  kind                     0 = lightweight, 1 = materialized
//! u16-str name                 `owner/repo`
//! u16 path_count, u16-str ×    advertised SQL paths
//! u8  has_libio                0 | 1
//!   u8 is_fork, u32 stars, u32 contributors
//! materialized only:
//!   u64 pup_months, u64 total_commits
//!   u32 pack_len, SVPK1 pack   the full repository
//! ```
//!
//! Records are assigned to shards by SHA-1 of the project name, and the
//! reader merges shards back into global `seq` order, so a streamed read
//! reproduces the exact in-memory SQL-Collection order — which is what
//! makes the sharded backend byte-identical to the in-memory one.
//!
//! ## Reading
//!
//! [`StoreStream`] merges the shards on the calling thread; one reader
//! thread reads every shard ahead of it (more readers, one heap arena
//! each, raised the peak RSS of an append and resume and were not kept).
//! The reader reads a shard's frames, checks each frame's length and
//! checksum and, for a materialized record, parses it and runs
//! [`read_pack`] (or [`verify_pack`], below) on its pack: both hashes,
//! the frame SHA-1 and every object's address, run on the reader. A light
//! record's verified payload is handed over as bytes and parsed by the
//! stream (its few fields cost less to parse than to hand over parsed).
//! The steps travel in batches of consecutive frames of one shard, which
//! come back empty for reuse; the reader keeps one frame buffer for all
//! shards. What is read ahead is bounded in bytes (each step charged
//! its frame plus its slot; 512 KiB a stream, split over the shards),
//! and a shard always gets at least one frame ahead, so one larger than
//! its share is still read. A decoded repository is charged a shard's
//! whole share, so at most one per shard is read ahead of the merge:
//! the repositories the reader decodes live in its own heap arena, apart
//! from the caller's, and more of them raised the peak RSS of an append
//! and resume above the serial read's.
//!
//! Everything that orders or counts stays on the calling thread: the
//! `store.read` failpoint, checked once per frame at exactly the point a
//! serial read checks it, the merge, the [`StoreIo`] counters, and the
//! corruption events. A shard's sequence of frame outcomes is a function
//! of its bytes alone, so a reader only computes early what the stream
//! would find; when a failpoint fails a read, the stream drops that
//! shard's read-ahead and yields the event a serial read yields, at the
//! same offset. The stream takes each shard's next record as soon as the
//! previous one is handed out, so corruption surfaces in the same order
//! whatever the caller does between events. Dropping a stream stops and
//! joins its reader; a reader panic is raised again from the stream's
//! next event. If the reader thread cannot be started, every shard that
//! opened fails like one that did not: a corruption event at offset 0.
//!
//! [`StoreStream::next_view`] lends each record as a [`StoreRecord`]
//! borrowed from the stream: the name and paths sit in strings the stream
//! reuses and the Libraries.io fields are three plain values, so a light
//! record costs no allocation; only a materialized record's pack is
//! decoded into a repository. [`StoreStream::next_event`] hands out owned
//! [`DecodedRecord`]s.
//!
//! An append re-primes the corpus digest from a verifying stream: each
//! pack gets every check [`read_pack`] makes
//! ([`schevo_vcs::pack::verify_pack`]) but no repository is built, since
//! the digest reads only names, paths and branch tips. `schevo scrub`
//! verifies its frames with the same step.
//!
//! ## Corruption
//!
//! Reads fail closed, per shard: a frame whose length or checksum does
//! not verify kills that shard's cursor (a torn frame leaves no reliable
//! record boundary), while a frame that verifies but does not decode
//! (impossible without a store bug, but handled anyway) skips just that
//! record. Either way the reader yields a [`StoreEvent::Corrupt`] event
//! — callers quarantine it and continue — and never panics.

use crate::libio::{LibioMeta, LibioRecord};
use crate::universe::{generate_records, CorpusDigester, CorpusRecord, RecordRef, UniverseConfig};
use schevo_core::failpoint;
use schevo_core::sync::{lock, wait};
use schevo_vcs::frame::{self, FrameError};
use schevo_vcs::pack::{read_pack, verify_pack, write_pack, PackError, Reader};
use schevo_vcs::repo::Repository;
use schevo_vcs::sha1::{sha1, Digest};
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;
use std::fs::{self, File};
use std::io::{BufReader, BufWriter, Read, Write};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;

/// Current store format version; readers reject anything else.
pub const STORE_VERSION: u64 = 1;

/// Shard-file magic.
pub(crate) const SHARD_MAGIC: &[u8; 8] = b"SCHEVOST";

/// Errors from store creation, writing, or opening.
#[derive(Debug)]
pub enum StoreError {
    /// Filesystem failure.
    Io(std::io::Error),
    /// The manifest is missing, unreadable, or incompatible.
    Manifest(String),
    /// A record cannot be framed (its payload is empty or over the cap).
    Frame(FrameError),
}

impl std::fmt::Display for StoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StoreError::Io(e) => write!(f, "store I/O error: {e}"),
            StoreError::Manifest(m) => write!(f, "store manifest: {m}"),
            StoreError::Frame(e) => write!(f, "store record: {e}"),
        }
    }
}

impl std::error::Error for StoreError {}

impl From<std::io::Error> for StoreError {
    fn from(e: std::io::Error) -> StoreError {
        StoreError::Io(e)
    }
}

impl From<FrameError> for StoreError {
    fn from(e: FrameError) -> StoreError {
        StoreError::Frame(e)
    }
}

/// Store I/O counters, reported by both the writer and the reader.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StoreIo {
    /// Records written to shards.
    pub records_written: u64,
    /// Payload + frame bytes written.
    pub bytes_written: u64,
    /// Records read back (decoded, corrupt ones excluded).
    pub records_read: u64,
    /// Payload + frame bytes read.
    pub bytes_read: u64,
}

impl StoreIo {
    /// Fold another counter set into this one.
    pub fn merge(&mut self, other: &StoreIo) {
        self.records_written += other.records_written;
        self.bytes_written += other.bytes_written;
        self.records_read += other.records_read;
        self.bytes_read += other.bytes_read;
    }
}

/// The store's self-description, serialized as `MANIFEST.json`.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct StoreManifest {
    /// Format version ([`STORE_VERSION`]).
    pub store_version: u64,
    /// Generator seed.
    pub seed: u64,
    /// Scale divisor of the generation config.
    pub scale_divisor: u64,
    /// Scale multiplier of the generation config.
    pub scale_multiplier: u64,
    /// Number of shard files.
    pub shards: u64,
    /// Total records across all shards.
    pub records: u64,
    /// Materialized (repository-carrying) records among them.
    pub materialized: u64,
    /// The corpus content digest — identical to what
    /// [`crate::universe::corpus_digest`] reports for the same config.
    pub corpus_digest: String,
    /// Records appended after the initial generation pass (absent or
    /// zero for a pristine generated store). Older manifests omit the
    /// field entirely; they deserialize as `None`.
    pub appended: Option<u64>,
    /// Cumulative records lost to corruption and compacted away by
    /// `schevo scrub` (absent or zero for an undamaged store). Like
    /// `appended`, older manifests deserialize as `None`.
    pub lost: Option<u64>,
}

impl StoreManifest {
    /// The generation config this store was written from.
    pub fn config(&self) -> UniverseConfig {
        UniverseConfig {
            seed: self.seed,
            scale_divisor: self.scale_divisor as usize,
            scale_multiplier: self.scale_multiplier as usize,
        }
    }

    /// Records appended after initial generation (zero for pristine).
    pub fn appended_records(&self) -> u64 {
        self.appended.unwrap_or(0)
    }

    /// Records lost to corruption and scrubbed away (zero for pristine).
    pub fn lost_records(&self) -> u64 {
        self.lost.unwrap_or(0)
    }

    /// Whether this store can serve a request for `config` × `shards`.
    /// An appended store never matches: its contents are a superset of
    /// what `config` generates, so callers that want exactly the
    /// generated corpus must regenerate (or opt into the store as-is).
    /// A scrubbed store that lost records never matches either — its
    /// clean subset mines deterministically but is not the corpus
    /// `config` generates, so silent reuse would change results.
    pub fn matches(&self, config: &UniverseConfig, shards: usize) -> bool {
        self.store_version == STORE_VERSION
            && self.config() == *config
            && self.shards == shards as u64
            && self.appended_records() == 0
            && self.lost_records() == 0
    }
}

pub(crate) fn shard_path(dir: &Path, shard: usize) -> PathBuf {
    dir.join(format!("shard-{shard:03}.pack"))
}

pub(crate) fn manifest_path(dir: &Path) -> PathBuf {
    dir.join("MANIFEST.json")
}

/// Shard assignment: SHA-1 of the project name, folded little-endian.
fn shard_of(name: &str, shards: usize) -> usize {
    let d = sha1(name.as_bytes());
    let mut h = [0u8; 8];
    h.copy_from_slice(&d.0[..8]);
    (u64::from_le_bytes(h) % shards.max(1) as u64) as usize
}

fn put_u16(out: &mut Vec<u8>, v: u16) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_str(out: &mut Vec<u8>, s: &str) {
    put_u16(out, s.len() as u16);
    out.extend_from_slice(s.as_bytes());
}

/// Encode one record's payload (everything after the frame header).
fn encode_record(seq: u64, record: RecordRef<'_>) -> Vec<u8> {
    let mut p = Vec::new();
    p.extend_from_slice(&seq.to_le_bytes());
    p.push(if record.body.is_some() { 1 } else { 0 });
    put_str(&mut p, record.name);
    put_u16(&mut p, record.sql_paths.len() as u16);
    for path in record.sql_paths {
        put_str(&mut p, path);
    }
    match record.libio {
        Some(meta) => {
            p.push(1);
            p.push(if meta.is_fork { 1 } else { 0 });
            put_u32(&mut p, meta.stars);
            put_u32(&mut p, meta.contributors);
        }
        None => p.push(0),
    }
    if let Some(body) = record.body {
        let (pup, commits) = body.reported_meta();
        p.extend_from_slice(&pup.to_le_bytes());
        p.extend_from_slice(&commits.to_le_bytes());
        let pack = write_pack(body.repo());
        put_u32(&mut p, pack.len() as u32);
        p.extend_from_slice(&pack);
    }
    p
}

/// One record streamed back from the store, decoded and verified, owned:
/// what [`StoreStream::next_event`] yields.
#[derive(Debug)]
pub struct DecodedRecord {
    /// Global generation sequence number (SQL-Collection order).
    pub seq: u64,
    /// `owner/repo`.
    pub name: String,
    /// Advertised SQL paths.
    pub sql_paths: Vec<String>,
    /// Libraries.io metadata, absent for unmonitored repositories.
    pub libio: Option<LibioRecord>,
    /// `(repository, pup_months, total_commits)` for materialized records.
    pub materialized: Option<(Repository, u64, u64)>,
}

/// One record streamed back from the store, verified, as a view borrowed
/// from the stream: what [`StoreStream::next_view`] yields. It lives
/// until the stream's next event and allocates nothing of its own.
#[derive(Debug, Clone, Copy)]
pub struct StoreRecord<'a> {
    /// Global generation sequence number (SQL-Collection order).
    pub seq: u64,
    /// `owner/repo`.
    pub name: &'a str,
    /// Advertised SQL paths.
    pub sql_paths: &'a [String],
    /// Libraries.io metadata, absent for unmonitored repositories.
    pub libio: Option<LibioMeta>,
    body: &'a Body,
}

impl<'a> StoreRecord<'a> {
    /// `(repository, pup_months, total_commits)` of a materialized record
    /// read by [`ShardStore::stream`].
    pub fn materialized(&self) -> Option<(&'a Repository, u64, u64)> {
        match self.body {
            Body::Decoded(repo, pup_months, total_commits) => {
                Some((repo, *pup_months, *total_commits))
            }
            Body::Light | Body::Verified(_) => None,
        }
    }

    /// Whether the record carries a repository.
    pub(crate) fn is_materialized(&self) -> bool {
        !matches!(self.body, Body::Light)
    }

    /// Fold the record's part of the corpus digest into `digester`
    /// (light records have none).
    pub(crate) fn digest_into(&self, digester: &mut CorpusDigester) {
        match self.body {
            Body::Light => {}
            Body::Decoded(repo, ..) => digester.add(self.name, self.sql_paths, repo),
            Body::Verified(tips) => digester.add_tips(
                self.name,
                self.sql_paths,
                tips.iter().map(|(branch, tip)| (branch.as_str(), *tip)),
            ),
        }
    }
}

/// What a parsed record carries beyond its metadata.
#[derive(Debug, Default)]
enum Body {
    /// A lightweight record.
    #[default]
    Light,
    /// A materialized record's repository, decoded, with its
    /// forge-reported `(pup_months, total_commits)`.
    Decoded(Repository, u64, u64),
    /// A materialized record's pack, verified but not decoded: its branch
    /// tips in name order, all the corpus digest reads of it.
    Verified(Vec<(String, Digest)>),
}

/// What parsing does with a materialized record's pack.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum PackMode {
    /// Decode it into a repository ([`read_pack`]).
    Decode,
    /// Only verify it ([`verify_pack`]): every check `read_pack` makes,
    /// without building the repository.
    Verify,
}

/// Where a record payload keeps its kind byte (after the `u64` seq).
const KIND_AT: usize = 8;

/// Overwrite `slot` with `text`, keeping its allocation.
fn reuse(slot: &mut String, text: &str) {
    slot.clear();
    slot.push_str(text);
}

/// One record payload, parsed in place. The name and path strings are
/// reused from record to record, so parsing a light record allocates
/// nothing once they have grown to fit.
#[derive(Debug, Default)]
pub(crate) struct ParsedRecord {
    seq: u64,
    name: String,
    /// Path strings; the first `path_count` are this record's, the rest
    /// are kept for their allocations.
    paths: Vec<String>,
    path_count: usize,
    libio: Option<LibioMeta>,
    body: Body,
}

impl ParsedRecord {
    /// Parse a verified frame's payload into this record. On error the
    /// record holds a mix of old and new fields and must not be viewed.
    fn parse(&mut self, payload: &[u8], mode: PackMode) -> Result<(), PackError> {
        let mut r = Reader::new(payload);
        self.seq = r.u64()?;
        let kind = r.u8()?;
        reuse(&mut self.name, r.str()?);
        let path_count = r.u16()? as usize;
        for k in 0..path_count {
            let path = r.str()?;
            match self.paths.get_mut(k) {
                Some(slot) => reuse(slot, path),
                None => self.paths.push(path.to_string()),
            }
        }
        self.path_count = path_count;
        self.libio = match r.u8()? {
            0 => None,
            _ => Some(LibioMeta {
                is_fork: r.u8()? != 0,
                stars: r.u32()?,
                contributors: r.u32()?,
            }),
        };
        self.body = match kind {
            0 => Body::Light,
            _ => {
                let pup_months = r.u64()?;
                let total_commits = r.u64()?;
                let pack_len = r.u32()? as usize;
                let pack = r.take(pack_len)?;
                match mode {
                    PackMode::Decode => Body::Decoded(read_pack(pack)?, pup_months, total_commits),
                    PackMode::Verify => Body::Verified(
                        verify_pack(pack)?
                            .into_iter()
                            .map(|(branch, tip)| (branch.to_string(), tip))
                            .collect(),
                    ),
                }
            }
        };
        Ok(())
    }

    /// Verify one record payload exactly as the reader decodes it, but
    /// without building its repository: the step that re-primes a
    /// corpus digest ([`StoreWriter::append_to`] and `schevo scrub`),
    /// followed by [`StoreRecord::digest_into`].
    pub(crate) fn verify(&mut self, payload: &[u8]) -> Result<StoreRecord<'_>, PackError> {
        self.parse(payload, PackMode::Verify)?;
        Ok(self.view())
    }

    fn view(&self) -> StoreRecord<'_> {
        StoreRecord {
            seq: self.seq,
            name: &self.name,
            sql_paths: &self.paths[..self.path_count],
            libio: self.libio,
            body: &self.body,
        }
    }

    /// The record as an owned [`DecodedRecord`], moving its repository
    /// out.
    fn take_decoded(&mut self) -> DecodedRecord {
        let libio = self
            .libio
            .map(|m| LibioRecord::new(self.name.clone(), m.is_fork, m.stars, m.contributors));
        DecodedRecord {
            seq: self.seq,
            name: self.name.clone(),
            sql_paths: self.paths[..self.path_count].to_vec(),
            libio,
            materialized: match std::mem::take(&mut self.body) {
                Body::Decoded(repo, pup_months, total_commits) => {
                    Some((repo, pup_months, total_commits))
                }
                Body::Light | Body::Verified(_) => None,
            },
        }
    }
}

/// Streaming writer: frames each record into its shard as it arrives,
/// accumulating only the per-repository digest parts (a few dozen bytes
/// per materialized repo) — never the records themselves.
#[derive(Debug)]
pub struct StoreWriter {
    dir: PathBuf,
    config: UniverseConfig,
    shards: Vec<BufWriter<File>>,
    seq: u64,
    materialized: u64,
    io: StoreIo,
    digester: CorpusDigester,
    /// `(records, appended)` of the manifest this writer extends, or
    /// `None` for a freshly created store.
    append_base: Option<(u64, u64)>,
    /// Cumulative lost-record count carried over from the manifest this
    /// writer extends (zero for a freshly created store).
    lost_base: u64,
}

impl StoreWriter {
    /// Create (or overwrite) a store at `dir` with `shards` shard files.
    pub fn create(
        dir: &Path,
        config: UniverseConfig,
        shards: usize,
    ) -> Result<StoreWriter, StoreError> {
        let shards = shards.clamp(1, 256);
        fs::create_dir_all(dir)?;
        // A stale manifest must not describe the half-written new store.
        let _ = fs::remove_file(manifest_path(dir));
        let mut files = Vec::with_capacity(shards);
        for i in 0..shards {
            // Re-create from scratch on each retry: a fresh shard file
            // holds at most the magic, so replays cannot tear it.
            let mut w = failpoint::retry_io(failpoint::RetryPolicy::default(), || {
                failpoint::check("store.create")?;
                let mut w = BufWriter::new(File::create(shard_path(dir, i))?);
                w.write_all(SHARD_MAGIC)?;
                Ok(w)
            })?;
            w.flush()?;
            files.push(w);
        }
        Ok(StoreWriter {
            dir: dir.to_path_buf(),
            config,
            shards: files,
            seq: 0,
            materialized: 0,
            io: StoreIo {
                bytes_written: (SHARD_MAGIC.len() * shards) as u64,
                ..StoreIo::default()
            },
            digester: CorpusDigester::new(),
            append_base: None,
            lost_base: 0,
        })
    }

    /// Reopen the store at `dir` for appending. The existing records are
    /// verified once, in the reader's order, to re-prime the corpus
    /// digester (the digest is order-independent, so appended records
    /// fold in cleanly). Their packs are checked as the reader checks
    /// them but not decoded: the digest reads only names, paths and
    /// branch tips. Any corruption or short read fails closed —
    /// appending to a store we cannot fully account for would silently
    /// launder the damage into a fresh manifest.
    pub fn append_to(dir: &Path) -> Result<StoreWriter, StoreError> {
        let store = ShardStore::open(dir)?;
        let manifest = store.manifest().clone();
        let mut digester = CorpusDigester::new();
        let mut seen = 0u64;
        let mut stream = store.stream_with(PackMode::Verify);
        while let Some(event) = stream.next_view() {
            match event {
                StoreEvent::Record(r) => {
                    r.digest_into(&mut digester);
                    seen += 1;
                }
                StoreEvent::Corrupt { shard, offset, detail } => {
                    return Err(StoreError::Manifest(format!(
                        "cannot append to corrupt store (shard {shard} @ {offset}: {detail})"
                    )));
                }
            }
        }
        if seen != manifest.records {
            return Err(StoreError::Manifest(format!(
                "cannot append: store holds {seen} records, manifest claims {}",
                manifest.records
            )));
        }
        let shard_count = manifest.shards as usize;
        let mut files = Vec::with_capacity(shard_count);
        for i in 0..shard_count {
            let f = fs::OpenOptions::new()
                .append(true)
                .open(shard_path(dir, i))?;
            files.push(BufWriter::new(f));
        }
        Ok(StoreWriter {
            dir: dir.to_path_buf(),
            config: manifest.config(),
            shards: files,
            seq: manifest.records,
            materialized: manifest.materialized,
            io: StoreIo::default(),
            digester,
            append_base: Some((manifest.records, manifest.appended_records())),
            lost_base: manifest.lost_records(),
        })
    }

    /// Append one record to its shard.
    pub fn write(&mut self, record: &CorpusRecord) -> Result<(), StoreError> {
        self.write_view(record.view())
    }

    /// Append one record, given as a borrowed view, to its shard.
    pub fn write_view(&mut self, record: RecordRef<'_>) -> Result<(), StoreError> {
        let payload = encode_record(self.seq, record);
        let header = frame::header(&payload)?;
        let shard = shard_of(record.name, self.shards.len());
        // The failpoint fires *before* any bytes reach the buffered
        // writer, so an absorbed transient fault cannot duplicate the
        // frame. A real mid-write error is not retried: `write_all`
        // through a `BufWriter` does not report how much it consumed.
        failpoint::retry_io(failpoint::RetryPolicy::default(), || {
            failpoint::check("store.write")
        })?;
        self.shards[shard].write_all(&header)?;
        self.shards[shard].write_all(&payload)?;
        self.seq += 1;
        self.io.records_written += 1;
        self.io.bytes_written += frame::frame_len(payload.len()) as u64;
        if let Some(body) = record.body {
            self.materialized += 1;
            self.digester.add(record.name, record.sql_paths, body.repo());
        }
        Ok(())
    }

    /// Flush and sync every shard, then publish `MANIFEST.json`
    /// (temp-file + rename, so a crash never leaves a torn manifest).
    pub fn finalize(mut self) -> Result<(StoreManifest, StoreIo), StoreError> {
        for w in &mut self.shards {
            // `BufWriter::flush` drops only the bytes it actually
            // wrote, so retrying it after a transient error resumes
            // from the exact unwritten remainder — no duplication.
            failpoint::retry_io(failpoint::RetryPolicy::default(), || {
                w.flush()?;
                failpoint::check("store.fsync")?;
                w.get_ref().sync_data()
            })?;
        }
        let manifest = StoreManifest {
            store_version: STORE_VERSION,
            seed: self.config.seed,
            scale_divisor: self.config.scale_divisor as u64,
            scale_multiplier: self.config.scale_multiplier as u64,
            shards: self.shards.len() as u64,
            records: self.seq,
            materialized: self.materialized,
            corpus_digest: self.digester.finalize(&self.config),
            appended: self
                .append_base
                .map(|(base_records, base_appended)| base_appended + (self.seq - base_records)),
            lost: (self.lost_base > 0).then_some(self.lost_base),
        };
        let json = match serde_json::to_string_pretty(&manifest) {
            Ok(mut s) => {
                s.push('\n');
                s
            }
            Err(e) => return Err(StoreError::Manifest(format!("encode: {e}"))),
        };
        let tmp = self.dir.join("MANIFEST.json.tmp");
        // Re-created whole on every retry, renamed into place, then the
        // directory is fsynced so the rename itself is durable.
        let published = failpoint::retry_io(failpoint::RetryPolicy::default(), || {
            failpoint::check("store.manifest")?;
            let mut f = File::create(&tmp)?;
            f.write_all(json.as_bytes())?;
            f.sync_data()?;
            fs::rename(&tmp, manifest_path(&self.dir))?;
            File::open(&self.dir)?.sync_all()
        });
        if let Err(e) = published {
            let _ = fs::remove_file(&tmp);
            return Err(StoreError::Io(e));
        }
        Ok((manifest, self.io))
    }
}

/// Generate a corpus for `config` straight into a store at `dir`,
/// never holding more than one record resident.
pub fn generate_into_store(
    config: UniverseConfig,
    dir: &Path,
    shards: usize,
) -> Result<(StoreManifest, StoreIo), StoreError> {
    let _span = schevo_obs::span!(
        "store.generate",
        seed = config.seed,
        scale_divisor = config.scale_divisor,
        scale_multiplier = config.scale_multiplier
    );
    let mut writer = StoreWriter::create(dir, config, shards)?;
    let mut failed: Option<StoreError> = None;
    generate_records(config, &mut |record| {
        if failed.is_none() {
            if let Err(e) = writer.write_view(record.view()) {
                failed = Some(e);
            }
        }
        std::ops::ControlFlow::Continue(())
    });
    match failed {
        Some(e) => Err(e),
        None => writer.finalize(),
    }
}

/// Append `records` to an existing store at `dir`, republishing the
/// manifest with an updated `appended` count and corpus digest. The
/// appended store deliberately stops `matches()`-ing its generation
/// config: it now holds more than that config generates.
pub fn append_into_store(
    dir: &Path,
    records: &[CorpusRecord],
) -> Result<(StoreManifest, StoreIo), StoreError> {
    let _span = schevo_obs::span!("store.append", records = records.len());
    let mut writer = StoreWriter::append_to(dir)?;
    for record in records {
        writer.write(record)?;
    }
    writer.finalize()
}

/// A store opened for reading.
#[derive(Debug)]
pub struct ShardStore {
    dir: PathBuf,
    manifest: StoreManifest,
}

impl ShardStore {
    /// Open the store at `dir`, validating its manifest.
    pub fn open(dir: &Path) -> Result<ShardStore, StoreError> {
        let path = manifest_path(dir);
        let json = failpoint::retry_io(failpoint::RetryPolicy::default(), || {
            failpoint::check("store.manifest")?;
            fs::read_to_string(&path)
        })
        .map_err(|e| StoreError::Manifest(format!("{}: {e}", path.display())))?;
        let manifest: StoreManifest = serde_json::from_str(&json)
            .map_err(|e| StoreError::Manifest(format!("{}: {e}", path.display())))?;
        if manifest.store_version != STORE_VERSION {
            return Err(StoreError::Manifest(format!(
                "unsupported store version {} (this build reads {STORE_VERSION})",
                manifest.store_version
            )));
        }
        Ok(ShardStore {
            dir: dir.to_path_buf(),
            manifest,
        })
    }

    /// The store's manifest.
    pub fn manifest(&self) -> &StoreManifest {
        &self.manifest
    }

    /// Begin a streaming read merging all shards back into `seq` order.
    pub fn stream(&self) -> StoreStream {
        self.stream_with(PackMode::Decode)
    }

    fn stream_with(&self, mode: PackMode) -> StoreStream {
        let shards = (0..self.manifest.shards as usize).map(|shard| {
            let path = shard_path(&self.dir, shard);
            match File::open(&path) {
                Ok(file) => Ok(Box::new(file) as ShardBytes),
                Err(e) => Err(format!("{}: {e}", path.display())),
            }
        });
        StoreStream::over(shards.collect(), mode)
    }
}

/// One event from a streaming store read: a record (owned, or a view
/// borrowed from the stream) or a corruption event.
#[derive(Debug)]
pub enum StoreEvent<R = DecodedRecord> {
    /// A verified, decoded record (in global `seq` order).
    Record(R),
    /// A corruption event: the offending shard and offset, plus detail.
    /// The stream continues over the surviving data.
    Corrupt {
        /// Shard index.
        shard: usize,
        /// Byte offset of the bad frame within the shard file.
        offset: u64,
        /// Human-readable description of what failed to verify.
        detail: String,
    },
}

impl<R> StoreEvent<R> {
    fn map_record<S>(self, f: impl FnOnce(R) -> S) -> StoreEvent<S> {
        match self {
            StoreEvent::Record(r) => StoreEvent::Record(f(r)),
            StoreEvent::Corrupt {
                shard,
                offset,
                detail,
            } => StoreEvent::Corrupt {
                shard,
                offset,
                detail,
            },
        }
    }
}

/// Read-ahead the reader thread may hold for one stream, in bytes: each
/// step is charged its shard bytes plus its slot in a batch. It is split
/// evenly over the shards, a shard getting a new batch while it holds
/// less than its share (a decoded repository is charged all of it), and
/// only bounds memory; output does not depend on it.
const READ_AHEAD_BYTES: usize = 512 * 1024;

/// What one read of a shard found: exactly what a refill on the calling
/// thread would find after its failpoint check, since it is a function
/// of the shard's bytes alone.
#[derive(Debug)]
struct Step {
    /// Shard bytes the read consumed: the magic on a shard's first read,
    /// then the frame.
    bytes: u64,
    found: Found,
}

#[derive(Debug)]
enum Found {
    /// A lightweight record's frame, verified, which the caller parses
    /// (out of its batch's `payloads[start..end]`): the few fields it
    /// carries cost less to parse than to hand over parsed.
    Payload {
        offset: u64,
        start: usize,
        end: usize,
    },
    /// A materialized record's frame, verified and parsed, its pack
    /// decoded or verified.
    Parsed(Box<ParsedRecord>),
    /// A frame that verified but did not parse: only this record is lost.
    Undecodable { offset: u64, detail: String },
    /// Bad magic, or a frame whose length or checksum does not verify:
    /// the shard ends here (there is no reliable next boundary).
    Torn { offset: u64, detail: String },
    /// A clean end of the shard.
    End,
}

impl Found {
    /// Whether the shard has more to read after this step.
    fn continues(&self) -> bool {
        !matches!(self, Found::Torn { .. } | Found::End)
    }
}

/// Consecutive steps of one shard, handed from a reader to the caller and
/// back again empty, so their buffers and parsed records are reused.
#[derive(Debug, Default)]
struct Batch {
    steps: Vec<Step>,
    /// The lightweight records' payloads, back to back.
    payloads: Vec<u8>,
    /// Read-ahead charged for the batch.
    bytes: usize,
}

/// One shard's queue between its reader and the caller.
#[derive(Debug, Default)]
struct Lane {
    /// Batches read ahead, oldest first.
    full: VecDeque<Batch>,
    /// Read-ahead charged for `full`.
    bytes: usize,
    /// Batches the caller is done with, back for reuse.
    spare: Vec<Batch>,
    /// The caller has stopped reading the shard: its read-ahead is
    /// discarded and its reader reads no more of it.
    closed: bool,
}

#[derive(Debug, Default)]
struct Feed {
    lanes: Vec<Lane>,
    /// The stream is gone: every reader returns.
    closed: bool,
    /// A reader panicked; the caller raises the panic again.
    panicked: bool,
}

#[derive(Debug, Default)]
struct Shared {
    feed: Mutex<Feed>,
    /// Signalled when a batch lands or a reader panics.
    landed: Condvar,
    /// Signalled when the caller takes or discards a batch, or closes
    /// the stream.
    taken: Condvar,
}

/// A shard's bytes, as its reader reads them.
type ShardBytes = Box<dyn Read + Send>;

/// One shard file as its reader reads it.
struct ShardFile {
    shard: usize,
    file: BufReader<ShardBytes>,
    offset: u64,
    /// The shard's last step (its end or a fatal failure) has been read,
    /// or the caller closed its lane.
    done: bool,
}

impl ShardFile {
    /// Read and check the shard's next frame into `batch`, parsing a
    /// materialized record into a record from `pool`. `payload` is the
    /// reader's frame scratch, reused for every frame it reads.
    fn read_step(
        &mut self,
        batch: &mut Batch,
        payload: &mut Vec<u8>,
        pool: &mut Vec<ParsedRecord>,
        mode: PackMode,
    ) -> Step {
        let mut bytes = 0;
        // Shard magic, once, at offset zero.
        if self.offset == 0 {
            let mut magic = [0u8; 8];
            let detail = match self.file.read_exact(&mut magic) {
                Ok(()) if &magic == SHARD_MAGIC => None,
                Ok(()) => Some("bad shard magic".to_string()),
                Err(e) => Some(format!("shard magic: {e}")),
            };
            if let Some(detail) = detail {
                let found = Found::Torn { offset: 0, detail };
                return Step { bytes, found };
            }
            self.offset = 8;
            bytes = 8;
        }
        let offset = self.offset;
        match frame::read_into(&mut self.file, payload) {
            Ok(true) => {}
            Ok(false) => {
                return Step {
                    bytes,
                    found: Found::End,
                }
            }
            Err(e) => {
                let detail = e.to_string();
                return Step {
                    bytes,
                    found: Found::Torn { offset, detail },
                };
            }
        }
        let len = frame::frame_len(payload.len()) as u64;
        self.offset += len;
        bytes += len;
        if !matches!(payload.get(KIND_AT), Some(&kind) if kind != 0) {
            let start = batch.payloads.len();
            batch.payloads.extend_from_slice(payload);
            let end = batch.payloads.len();
            return Step {
                bytes,
                found: Found::Payload { offset, start, end },
            };
        }
        // The frame verified, so the boundary is trustworthy: a decode
        // failure (a store bug, not bit rot) skips only this record.
        let mut record = pool.pop().unwrap_or_default();
        let found = match record.parse(payload, mode) {
            Ok(()) => Found::Parsed(Box::new(record)),
            Err(e) => {
                pool.push(record);
                Found::Undecodable {
                    offset,
                    detail: format!("record decode: {e}"),
                }
            }
        };
        Step { bytes, found }
    }
}

/// Empty `batch` for reuse, keeping its parsed records in `pool`.
fn recycle(batch: &mut Batch, pool: &mut Vec<ParsedRecord>) {
    for step in batch.steps.drain(..) {
        if let Found::Parsed(mut record) = step.found {
            record.body = Body::Light;
            pool.push(*record);
        }
    }
    batch.payloads.clear();
    batch.bytes = 0;
}

/// Tells the caller when its reader unwinds, so it stops waiting.
struct PanicAlarm<'a>(&'a Shared);

impl Drop for PanicAlarm<'_> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            lock(&self.0.feed).panicked = true;
            self.0.landed.notify_all();
        }
    }
}

/// The reader thread: reads the shards' frames ahead of the caller, a
/// batch of about half of `lane_cap` (a shard's share of the read-ahead),
/// or up to one decoded repository, at a time, always for the open shard
/// with the least read ahead, while that is under `lane_cap`, until every
/// one is done or the stream closes.
fn read_ahead(shared: &Shared, mut shards: Vec<ShardFile>, mode: PackMode, lane_cap: usize) {
    let _alarm = PanicAlarm(shared);
    let mut payload = Vec::new();
    let mut pool = Vec::new();
    let mut empties: Vec<Batch> = Vec::new();
    let mut returned = Vec::new();
    loop {
        let pick = {
            let mut feed = lock(&shared.feed);
            loop {
                if feed.closed {
                    return;
                }
                for shard in &mut shards {
                    let lane = &mut feed.lanes[shard.shard];
                    returned.append(&mut lane.spare);
                    shard.done |= lane.closed;
                }
                let pick = shards
                    .iter()
                    .enumerate()
                    .filter(|(_, s)| !s.done)
                    .map(|(k, s)| (feed.lanes[s.shard].bytes, k))
                    .min();
                match pick {
                    None => return,
                    Some((bytes, k)) if bytes < lane_cap => break Some(k),
                    // Every live lane is full: free what came back first.
                    Some(_) if !returned.is_empty() => break None,
                    Some(_) => feed = wait(&shared.taken, feed),
                }
            }
        };
        for mut batch in returned.drain(..) {
            recycle(&mut batch, &mut pool);
            empties.push(batch);
        }
        let Some(k) = pick else { continue };
        let shard = &mut shards[k];
        let mut batch = empties.pop().unwrap_or_default();
        while !shard.done && batch.bytes < lane_cap / 2 {
            let step = shard.read_step(&mut batch, &mut payload, &mut pool, mode);
            // A decoded repository ends the batch and fills the lane.
            batch.bytes += match step.found {
                Found::Parsed(_) if mode == PackMode::Decode => lane_cap,
                _ => step.bytes as usize + std::mem::size_of::<Step>(),
            };
            shard.done = !step.found.continues();
            batch.steps.push(step);
        }
        let mut feed = lock(&shared.feed);
        let lane = &mut feed.lanes[shard.shard];
        if lane.closed {
            lane.spare.push(batch);
        } else {
            lane.bytes += batch.bytes;
            lane.full.push_back(batch);
            shared.landed.notify_all();
        }
    }
}

/// The reader thread of one stream.
#[derive(Debug)]
struct ReadAhead {
    shared: Arc<Shared>,
    thread: Option<JoinHandle<()>>,
}

impl ReadAhead {
    /// Start the reader over `files`, the shards that opened (of `shards`
    /// in all). If the thread cannot be started, the error comes back
    /// beside a `ReadAhead` with no reader.
    fn spawn(
        shards: usize,
        files: Vec<ShardFile>,
        mode: PackMode,
    ) -> (ReadAhead, std::io::Result<()>) {
        let shared = Arc::new(Shared::default());
        lock(&shared.feed).lanes = (0..shards).map(|_| Lane::default()).collect();
        let lane_cap = READ_AHEAD_BYTES / shards.max(1);
        let reader = Arc::clone(&shared);
        let spawned = std::thread::Builder::new()
            .name("store-reader".to_string())
            .spawn(move || read_ahead(&reader, files, mode, lane_cap));
        let (thread, started) = match spawned {
            Ok(thread) => (Some(thread), Ok(())),
            Err(e) => (None, Err(e)),
        };
        (ReadAhead { shared, thread }, started)
    }

    /// Hand `done` back for reuse and take shard `i`'s next batch,
    /// waiting for its reader. A reader panic is raised again here.
    fn next_batch(&mut self, i: usize, done: Batch) -> Batch {
        let mut feed = lock(&self.shared.feed);
        feed.lanes[i].spare.push(done);
        loop {
            if let Some(batch) = feed.lanes[i].full.pop_front() {
                feed.lanes[i].bytes -= batch.bytes;
                self.shared.taken.notify_all();
                return batch;
            }
            if feed.panicked {
                drop(feed);
                let payload = self.stop();
                std::panic::resume_unwind(
                    payload.unwrap_or_else(|| Box::new("store reader panicked")),
                );
            }
            feed = wait(&self.shared.landed, feed);
        }
    }

    /// Stop reading shard `i`, discarding what was read ahead of it.
    fn close(&mut self, i: usize, done: Batch) {
        let mut feed = lock(&self.shared.feed);
        let lane = &mut feed.lanes[i];
        lane.closed = true;
        lane.bytes = 0;
        lane.spare.push(done);
        let discarded = std::mem::take(&mut lane.full);
        lane.spare.extend(discarded);
        self.shared.taken.notify_all();
    }

    /// Close the stream and join the reader; its panic's payload comes
    /// back.
    fn stop(&mut self) -> Option<Box<dyn std::any::Any + Send>> {
        lock(&self.shared.feed).closed = true;
        self.shared.taken.notify_all();
        self.thread.take()?.join().err()
    }
}

#[derive(Debug)]
enum Pending {
    /// Nothing buffered; the cursor is exhausted or dead.
    Empty,
    /// The cursor's staged record is the shard's next.
    Record,
    /// A corruption event waiting to be yielded.
    Corrupt { offset: u64, detail: String },
}

/// The caller's side of one shard: where it is in the shard's steps.
#[derive(Debug)]
struct ShardCursor {
    /// Offset of the shard's next unread byte.
    offset: u64,
    /// A frame-level failure kills the cursor: without a trustworthy
    /// length there is no next-record boundary.
    dead: bool,
    open_error: Option<String>,
    /// The batch being consumed: `steps[..at]` have been taken.
    batch: Batch,
    at: usize,
    /// The shard's next record, taken at refill.
    staged: ParsedRecord,
    /// The record last handed out, which the caller's view borrows. It
    /// trades places with `staged` on hand-out, so the refill that
    /// follows never touches it.
    out: ParsedRecord,
}

/// A streaming, shard-merging store reader. A reader thread reads, checks
/// and parses each shard's frames ahead of the merge (see the module doc);
/// the stream takes a shard's next record as soon as the previous one is
/// handed out, so corruption surfaces in the same order whatever the
/// caller does between events.
#[derive(Debug)]
pub struct StoreStream {
    cursors: Vec<ShardCursor>,
    pending: Vec<Pending>,
    reader: ReadAhead,
    io: StoreIo,
    mode: PackMode,
    /// The shard whose `out` record the last event handed out. Its
    /// repository is dropped on the next step, so no more than one
    /// handed-out repository outlives its event.
    handed_out: Option<usize>,
}

impl StoreStream {
    /// A stream over `shards` (each one's bytes, or why it could not be
    /// opened), merged by `seq`.
    fn over(shards: Vec<Result<ShardBytes, String>>, mode: PackMode) -> StoreStream {
        let count = shards.len();
        let mut cursors = Vec::with_capacity(count);
        let mut files = Vec::with_capacity(count);
        for (shard, opened) in shards.into_iter().enumerate() {
            let open_error = match opened {
                Ok(bytes) => {
                    files.push(ShardFile {
                        shard,
                        file: BufReader::new(bytes),
                        offset: 0,
                        done: false,
                    });
                    None
                }
                Err(detail) => Some(detail),
            };
            cursors.push(ShardCursor {
                offset: 0,
                dead: open_error.is_some(),
                open_error,
                batch: Batch::default(),
                at: 0,
                staged: ParsedRecord::default(),
                out: ParsedRecord::default(),
            });
        }
        let (reader, started) = ReadAhead::spawn(count, files, mode);
        if let Err(e) = started {
            for cursor in cursors.iter_mut().filter(|c| !c.dead) {
                cursor.dead = true;
                cursor.open_error = Some(format!("start store reader: {e}"));
            }
        }
        let mut stream = StoreStream {
            pending: (0..cursors.len()).map(|_| Pending::Empty).collect(),
            cursors,
            reader,
            io: StoreIo::default(),
            mode,
            handed_out: None,
        };
        for i in 0..stream.cursors.len() {
            stream.refill(i);
        }
        stream
    }

    /// I/O counters so far.
    pub fn io(&self) -> StoreIo {
        self.io
    }

    /// Take shard `i`'s next step into `pending[i]`.
    fn refill(&mut self, i: usize) {
        let cursor = &mut self.cursors[i];
        if cursor.dead {
            // Surface the open failure exactly once.
            self.pending[i] = match cursor.open_error.take() {
                Some(detail) => Pending::Corrupt { offset: 0, detail },
                None => Pending::Empty,
            };
            return;
        }
        // One failpoint hit per frame read, on the calling thread, in the
        // order a serial read makes them. An absorbed transient fault
        // retries cleanly; an exhausted or permanent fault becomes a
        // corruption event at the shard's next frame and fails the shard
        // closed like real bit rot (what its reader read ahead is
        // discarded) — callers quarantine and continue over surviving
        // data.
        if let Err(e) = failpoint::retry_io(failpoint::RetryPolicy::default(), || {
            failpoint::check("store.read")
        }) {
            cursor.dead = true;
            self.reader.close(i, std::mem::take(&mut cursor.batch));
            self.pending[i] = Pending::Corrupt {
                offset: cursor.offset,
                detail: format!("read: {e}"),
            };
            return;
        }
        if cursor.at == cursor.batch.steps.len() {
            cursor.batch = self
                .reader
                .next_batch(i, std::mem::take(&mut cursor.batch));
            cursor.at = 0;
        }
        let Batch { steps, payloads, .. } = &mut cursor.batch;
        let step = &mut steps[cursor.at];
        cursor.at += 1;
        cursor.offset += step.bytes;
        self.io.bytes_read += step.bytes;
        self.pending[i] = match &mut step.found {
            Found::Payload { offset, start, end } => {
                match cursor.staged.parse(&payloads[*start..*end], self.mode) {
                    Ok(()) => Pending::Record,
                    Err(e) => Pending::Corrupt {
                        offset: *offset,
                        detail: format!("record decode: {e}"),
                    },
                }
            }
            Found::Parsed(record) => {
                std::mem::swap(&mut cursor.staged, record);
                Pending::Record
            }
            Found::Undecodable { offset, detail } => Pending::Corrupt {
                offset: *offset,
                detail: std::mem::take(detail),
            },
            Found::Torn { offset, detail } => {
                cursor.dead = true;
                Pending::Corrupt {
                    offset: *offset,
                    detail: std::mem::take(detail),
                }
            }
            Found::End => Pending::Empty,
        };
        if matches!(self.pending[i], Pending::Record) {
            self.io.records_read += 1;
        }
    }

    /// Step to the next event, merging shards by `seq`: a record is left
    /// in its cursor's `out` slot and named by its shard index.
    /// Corruption events are yielded as soon as their shard is consulted
    /// (lowest shard index first), so a given store's event order is
    /// deterministic.
    fn advance(&mut self) -> Option<StoreEvent<usize>> {
        if let Some(i) = self.handed_out.take() {
            self.cursors[i].out.body = Body::Light;
        }
        // Corruption first: the slot must drain before the shard can move.
        for i in 0..self.pending.len() {
            if matches!(self.pending[i], Pending::Corrupt { .. }) {
                let slot = std::mem::replace(&mut self.pending[i], Pending::Empty);
                let Pending::Corrupt { offset, detail } = slot else {
                    unreachable!("matched Corrupt above");
                };
                if !self.cursors[i].dead {
                    self.refill(i);
                }
                return Some(StoreEvent::Corrupt {
                    shard: i,
                    offset,
                    detail,
                });
            }
        }
        // Then the lowest-seq record across shards.
        let (i, _) = self
            .pending
            .iter()
            .zip(&self.cursors)
            .enumerate()
            .filter(|(_, (slot, _))| matches!(slot, Pending::Record))
            .map(|(i, (_, cursor))| (i, cursor.staged.seq))
            .min_by_key(|&(i, seq)| (seq, i))?;
        let cursor = &mut self.cursors[i];
        std::mem::swap(&mut cursor.staged, &mut cursor.out);
        self.refill(i);
        self.handed_out = Some(i);
        Some(StoreEvent::Record(i))
    }

    /// The next event, with the record owned.
    pub fn next_event(&mut self) -> Option<StoreEvent> {
        let event = self.advance()?;
        Some(event.map_record(|i| self.cursors[i].out.take_decoded()))
    }

    /// The next event, with the record as a view borrowed from the
    /// stream: no per-record allocation, and no Libraries.io record
    /// built.
    pub fn next_view(&mut self) -> Option<StoreEvent<StoreRecord<'_>>> {
        let event = self.advance()?;
        Some(event.map_record(|i| self.cursors[i].out.view()))
    }
}

impl Drop for StoreStream {
    /// Stops the reader, wherever it is, and waits for it, so no read
    /// outlives the stream. A reader panic is not raised again here;
    /// [`StoreStream::next_view`] and [`StoreStream::next_event`] raise
    /// it.
    fn drop(&mut self) {
        let _ = self.reader.stop();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::universe::{corpus_digest, generate};

    fn scratch(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "schevo_store_{tag}_{}",
            std::process::id()
        ));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn roundtrip_reproduces_generation_order_and_digest() {
        let config = UniverseConfig::small(2019, 40);
        let dir = scratch("roundtrip");
        let (manifest, io) = generate_into_store(config, &dir, 4).expect("write store");
        assert_eq!(manifest.shards, 4);
        assert!(io.records_written > 0);
        assert_eq!(io.records_written, manifest.records);

        let universe = generate(config);
        assert_eq!(manifest.records as usize, universe.sql_collection.len());
        assert_eq!(manifest.materialized as usize, universe.materialized.len());
        assert_eq!(
            manifest.corpus_digest,
            corpus_digest(&universe),
            "store digest must equal the in-memory digest"
        );

        let store = ShardStore::open(&dir).expect("open store");
        assert!(store.manifest().matches(&config, 4));
        assert!(!store.manifest().matches(&config, 5));
        let mut stream = store.stream();
        let mut n = 0usize;
        let mut last_seq = None;
        while let Some(event) = stream.next_event() {
            match event {
                StoreEvent::Record(r) => {
                    assert_eq!(r.seq, last_seq.map(|s: u64| s + 1).unwrap_or(0), "seq order");
                    let expect = &universe.sql_collection[n];
                    assert_eq!(r.name, expect.repo_name);
                    assert_eq!(r.sql_paths, expect.sql_paths);
                    assert_eq!(r.libio.as_ref(), universe.libio.get(&r.name), "{}", r.name);
                    assert_eq!(
                        r.materialized.is_some(),
                        universe.materialized.contains_key(&r.name)
                    );
                    last_seq = Some(r.seq);
                    n += 1;
                }
                StoreEvent::Corrupt { detail, .. } => panic!("clean store corrupt: {detail}"),
            }
        }
        assert_eq!(n, universe.sql_collection.len());

        // The views carry every field of the resident universe, and a
        // verifying stream the same records with only their tips.
        for mode in [PackMode::Decode, PackMode::Verify] {
            let mut stream = store.stream_with(mode);
            let mut n = 0usize;
            let mut verified = CorpusDigester::new();
            while let Some(event) = stream.next_view() {
                let StoreEvent::Record(r) = event else {
                    panic!("clean store corrupt");
                };
                let expect = &universe.sql_collection[n];
                assert_eq!(r.seq, n as u64, "seq order");
                assert_eq!(r.name, expect.repo_name);
                assert_eq!(r.sql_paths, expect.sql_paths);
                assert_eq!(r.libio, universe.libio.get(r.name).map(LibioRecord::meta));
                let resident = universe.materialized.get(r.name);
                assert_eq!(r.is_materialized(), resident.is_some(), "{}", r.name);
                match (r.materialized(), resident) {
                    (Some((repo, pup, commits)), Some(m)) => {
                        assert_eq!(mode, PackMode::Decode);
                        assert_eq!((pup, commits), m.reported_meta());
                        assert_eq!(repo.name, m.repo().name);
                        assert_eq!(repo.head_branch(), m.repo().head_branch());
                        let mut branches: Vec<_> = repo.branch_names().collect();
                        branches.sort_unstable();
                        for branch in branches {
                            assert_eq!(repo.branch_tip(branch), m.repo().branch_tip(branch));
                        }
                    }
                    (None, _) => assert!(mode == PackMode::Verify || resident.is_none()),
                    (Some(_), None) => panic!("{} is not materialized", r.name),
                }
                r.digest_into(&mut verified);
                n += 1;
            }
            assert_eq!(n, universe.sql_collection.len());
            assert_eq!(stream.io().records_read, manifest.records);
            assert_eq!(
                verified.finalize(&config),
                manifest.corpus_digest,
                "{mode:?}"
            );
        }
        let _ = fs::remove_dir_all(&dir);
    }

    /// Every event a stream yields: each corruption event with the count
    /// of records yielded before it, then the record total.
    fn events(dir: &Path) -> (Vec<(u64, usize, u64, String)>, u64) {
        let store = ShardStore::open(dir).expect("open store");
        let mut stream = store.stream();
        let mut corrupt = Vec::new();
        let mut records = 0u64;
        while let Some(event) = stream.next_event() {
            match event {
                StoreEvent::Record(_) => records += 1,
                StoreEvent::Corrupt {
                    shard,
                    offset,
                    detail,
                } => corrupt.push((records, shard, offset, detail)),
            }
        }
        (corrupt, records)
    }

    #[test]
    fn bit_flip_is_detected_and_kills_only_its_shard() {
        let config = UniverseConfig::small(7, 40);
        let dir = scratch("bitflip");
        let (manifest, _) = generate_into_store(config, &dir, 2).expect("write store");
        // Flip one byte in the middle of shard 0's record region.
        let path = dir.join("shard-000.pack");
        let mut bytes = fs::read(&path).expect("read shard");
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x40;
        fs::write(&path, &bytes).expect("rewrite shard");

        let (corrupt, records) = events(&dir);
        // Exactly one corruption event, in shard 0, at the place and
        // after the records the reader has always reported.
        assert_eq!(
            corrupt,
            [(1024, 0, 99510, "frame checksum mismatch".to_string())]
        );
        assert_eq!(records, 2148);
        assert!(records < manifest.records, "tail of shard 0 is lost");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn truncation_is_detected() {
        let config = UniverseConfig::small(3, 40);
        let dir = scratch("trunc");
        generate_into_store(config, &dir, 1).expect("write store");
        let path = dir.join("shard-000.pack");
        let bytes = fs::read(&path).expect("read shard");
        fs::write(&path, &bytes[..bytes.len() - 7]).expect("truncate shard");

        let (corrupt, records) = events(&dir);
        assert_eq!(
            corrupt,
            [(
                3324,
                0,
                859798,
                "truncated frame: 40 of 47 bytes".to_string()
            )]
        );
        assert_eq!(records, 3324);
        let _ = fs::remove_dir_all(&dir);
    }

    /// Shard bytes whose reader panics once `left` bytes are read.
    struct PanicAfter {
        bytes: Vec<u8>,
        at: usize,
        left: usize,
    }

    impl Read for PanicAfter {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            if self.at == self.left {
                panic!("shard reader fault");
            }
            let n = buf.len().min(self.left - self.at);
            buf[..n].copy_from_slice(&self.bytes[self.at..self.at + n]);
            self.at += n;
            Ok(n)
        }
    }

    #[test]
    fn a_reader_panic_resurfaces_from_the_stream() {
        let config = UniverseConfig::small(5, 40);
        let dir = scratch("readerpanic");
        generate_into_store(config, &dir, 1).expect("write store");
        let bytes = fs::read(dir.join("shard-000.pack")).expect("read shard");
        // Past the first batch, which the stream reads as it opens.
        let left = bytes.len() * 3 / 4;
        for owned in [false, true] {
            let shard = PanicAfter {
                bytes: bytes.clone(),
                at: 0,
                left,
            };
            let mut events = 0usize;
            let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                let mut stream = StoreStream::over(vec![Ok(Box::new(shard))], PackMode::Decode);
                loop {
                    let more = match owned {
                        true => stream.next_event().is_some(),
                        false => stream.next_view().is_some(),
                    };
                    if !more {
                        break;
                    }
                    events += 1;
                }
            }));
            let payload = caught.expect_err("the reader's panic resurfaces");
            assert_eq!(payload.downcast_ref::<&str>(), Some(&"shard reader fault"));
            assert!(
                events > 0,
                "the panic came from a later read, not the first"
            );
        }
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn missing_manifest_is_an_error() {
        let dir = scratch("nomanifest");
        fs::create_dir_all(&dir).unwrap();
        assert!(matches!(
            ShardStore::open(&dir),
            Err(StoreError::Manifest(_))
        ));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn append_extends_records_reprimes_digest_and_defeats_reuse() {
        use crate::universe::generate_appendix;
        let config = UniverseConfig::small(11, 40);
        let dir = scratch("append");
        let (base, _) = generate_into_store(config, &dir, 3).expect("write store");
        assert_eq!(base.appended_records(), 0);
        assert!(base.matches(&config, 3));

        let batch = generate_appendix(config, 0, 4, 1);
        assert_eq!(batch.records.len(), 4);
        assert_eq!(batch.corrupted.len(), 1);
        let (appended, io) = append_into_store(&dir, &batch.records).expect("append");
        assert_eq!(appended.records, base.records + 4);
        assert_eq!(appended.appended_records(), 4);
        assert_eq!(io.records_written, 4);
        assert_ne!(
            appended.corpus_digest, base.corpus_digest,
            "the digest must fold appended records in"
        );
        assert!(
            !appended.matches(&config, 3),
            "an appended store must never be silently reused as pristine"
        );

        // Every record — old and new — streams back in seq order.
        let store = ShardStore::open(&dir).expect("reopen");
        let mut seq = 0u64;
        let mut names = Vec::new();
        let mut stream = store.stream();
        while let Some(event) = stream.next_event() {
            match event {
                StoreEvent::Record(r) => {
                    assert_eq!(r.seq, seq, "seq order across the append boundary");
                    seq += 1;
                    names.push(r.name);
                }
                StoreEvent::Corrupt { detail, .. } => panic!("appended store corrupt: {detail}"),
            }
        }
        assert_eq!(seq, appended.records);
        for r in &batch.records {
            assert!(names.contains(&r.name), "appended record {} streams back", r.name);
        }

        // A second append stacks on the first.
        let more = generate_appendix(config, 1, 2, 0);
        let (twice, _) = append_into_store(&dir, &more.records).expect("second append");
        assert_eq!(twice.records, base.records + 6);
        assert_eq!(twice.appended_records(), 6);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn append_to_a_corrupt_store_fails_closed() {
        let config = UniverseConfig::small(13, 40);
        let dir = scratch("appendcorrupt");
        generate_into_store(config, &dir, 1).expect("write store");
        let path = dir.join("shard-000.pack");
        let mut bytes = fs::read(&path).expect("read shard");
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x20;
        fs::write(&path, &bytes).expect("rewrite shard");

        let batch = crate::universe::generate_appendix(config, 0, 1, 0);
        match append_into_store(&dir, &batch.records) {
            Err(StoreError::Manifest(detail)) => {
                assert!(detail.contains("corrupt"), "{detail}");
            }
            other => panic!("appending to a corrupt store must fail, got {other:?}"),
        }
        let _ = fs::remove_dir_all(&dir);
    }
}
