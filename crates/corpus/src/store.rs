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
//! ## Corruption
//!
//! Reads fail closed, per shard: a frame whose length or checksum does
//! not verify kills that shard's cursor (a torn frame leaves no reliable
//! record boundary), while a frame that verifies but does not decode
//! (impossible without a store bug, but handled anyway) skips just that
//! record. Either way the reader yields a [`StoreEvent::Corrupt`] event
//! — callers quarantine it and continue — and never panics.

use crate::libio::LibioRecord;
use crate::universe::{generate_records, CorpusDigester, CorpusRecord, RecordRef, UniverseConfig};
use schevo_core::failpoint;
use schevo_vcs::frame::{self, FrameError};
use schevo_vcs::pack::{read_pack, write_pack, PackError, Reader};
use schevo_vcs::repo::Repository;
use schevo_vcs::sha1::sha1;
use serde::{Deserialize, Serialize};
use std::fs::{self, File};
use std::io::{BufReader, BufWriter, Read, Write};
use std::path::{Path, PathBuf};

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

/// One record streamed back from the store, decoded and verified.
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

/// Decode one verified payload.
pub(crate) fn decode_record(payload: &[u8]) -> Result<DecodedRecord, PackError> {
    let mut r = Reader::new(payload);
    let seq = r.u64()?;
    let kind = r.u8()?;
    let name = r.string()?;
    let path_count = r.u16()? as usize;
    let mut sql_paths = Vec::with_capacity(path_count.min(64));
    for _ in 0..path_count {
        sql_paths.push(r.string()?);
    }
    let libio = match r.u8()? {
        0 => None,
        _ => {
            let is_fork = r.u8()? != 0;
            let stars = r.u32()?;
            let contributors = r.u32()?;
            Some(LibioRecord::new(name.clone(), is_fork, stars, contributors))
        }
    };
    let materialized = match kind {
        0 => None,
        _ => {
            let pup = r.u64()?;
            let commits = r.u64()?;
            let pack_len = r.u32()? as usize;
            let repo = read_pack(r.take(pack_len)?)?;
            Some((repo, pup, commits))
        }
    };
    Ok(DecodedRecord {
        seq,
        name,
        sql_paths,
        libio,
        materialized,
    })
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
    /// streamed once to re-prime the corpus digester (the digest is
    /// order-independent, so appended records fold in cleanly); any
    /// corruption or short read fails closed — appending to a store we
    /// cannot fully account for would silently launder the damage into a
    /// fresh manifest.
    pub fn append_to(dir: &Path) -> Result<StoreWriter, StoreError> {
        let store = ShardStore::open(dir)?;
        let manifest = store.manifest().clone();
        let mut digester = CorpusDigester::new();
        let mut seen = 0u64;
        let mut stream = store.stream();
        while let Some(event) = stream.next_event() {
            match event {
                StoreEvent::Record(r) => {
                    if let Some((repo, _, _)) = &r.materialized {
                        digester.add(&r.name, &r.sql_paths, repo);
                    }
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
        let shards = self.manifest.shards as usize;
        let mut cursors = Vec::with_capacity(shards);
        for i in 0..shards {
            cursors.push(ShardCursor::open(&shard_path(&self.dir, i)));
        }
        let mut stream = StoreStream {
            cursors,
            pending: Vec::new(),
            io: StoreIo::default(),
        };
        stream.pending = (0..stream.cursors.len()).map(|_| Pending::Empty).collect();
        for i in 0..stream.cursors.len() {
            stream.refill(i);
        }
        stream
    }
}

/// One event from a streaming store read.
#[derive(Debug)]
pub enum StoreEvent {
    /// A verified, decoded record (in global `seq` order).
    Record(DecodedRecord),
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

#[derive(Debug)]
enum Pending {
    /// Nothing buffered; the cursor is exhausted or dead.
    Empty,
    /// The next record of this shard (boxed: a materialized record is
    /// orders of magnitude larger than the other variants).
    Record(Box<DecodedRecord>),
    /// A corruption event waiting to be yielded.
    Corrupt { offset: u64, detail: String },
}

#[derive(Debug)]
struct ShardCursor {
    file: Option<BufReader<File>>,
    offset: u64,
    /// A frame-level failure kills the cursor: without a trustworthy
    /// length there is no next-record boundary.
    dead: bool,
    open_error: Option<String>,
    /// Reused payload scratch: each `refill` overwrites it in place and
    /// decodes straight out of it, so a streamed read performs one payload
    /// allocation per shard (growing to the largest frame seen) instead of
    /// one per frame.
    payload_buf: Vec<u8>,
}

impl ShardCursor {
    fn open(path: &Path) -> ShardCursor {
        match File::open(path) {
            Ok(f) => ShardCursor {
                file: Some(BufReader::new(f)),
                offset: 0,
                dead: false,
                open_error: None,
                payload_buf: Vec::new(),
            },
            Err(e) => ShardCursor {
                file: None,
                offset: 0,
                dead: true,
                open_error: Some(format!("{}: {e}", path.display())),
                payload_buf: Vec::new(),
            },
        }
    }
}

/// A streaming, shard-merging store reader. Holds at most one decoded
/// record per shard at a time.
#[derive(Debug)]
pub struct StoreStream {
    cursors: Vec<ShardCursor>,
    pending: Vec<Pending>,
    io: StoreIo,
}

impl StoreStream {
    /// I/O counters so far.
    pub fn io(&self) -> StoreIo {
        self.io
    }

    /// Pull the next frame of shard `i` into `pending[i]`.
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
        let Some(file) = cursor.file.as_mut() else {
            self.pending[i] = Pending::Empty;
            return;
        };
        // One failpoint hit per frame read. The check precedes any
        // consumption from the reader, so an absorbed transient fault
        // retries cleanly; an exhausted or permanent fault becomes a
        // corruption event and fails the shard closed like real bit
        // rot — callers quarantine and continue over surviving data.
        if let Err(e) = failpoint::retry_io(failpoint::RetryPolicy::default(), || {
            failpoint::check("store.read")
        }) {
            cursor.dead = true;
            self.pending[i] = Pending::Corrupt {
                offset: cursor.offset,
                detail: format!("read: {e}"),
            };
            return;
        }
        // Shard magic, once, at offset zero.
        if cursor.offset == 0 {
            let mut magic = [0u8; 8];
            let detail = match file.read_exact(&mut magic) {
                Ok(()) if &magic == SHARD_MAGIC => None,
                Ok(()) => Some("bad shard magic".to_string()),
                Err(e) => Some(format!("shard magic: {e}")),
            };
            if let Some(detail) = detail {
                cursor.dead = true;
                self.pending[i] = Pending::Corrupt { offset: 0, detail };
                return;
            }
            cursor.offset = 8;
            self.io.bytes_read += 8;
        }
        let frame_offset = cursor.offset;
        match frame::read_into(file, &mut cursor.payload_buf) {
            Ok(true) => {}
            Ok(false) => {
                self.pending[i] = Pending::Empty;
                return;
            }
            Err(e) => {
                cursor.dead = true;
                self.pending[i] = Pending::Corrupt {
                    offset: frame_offset,
                    detail: e.to_string(),
                };
                return;
            }
        }
        let len = frame::frame_len(cursor.payload_buf.len()) as u64;
        cursor.offset += len;
        self.io.bytes_read += len;
        // The frame verified, so the boundary is trustworthy: a decode
        // failure (a store bug, not bit rot) skips only this record.
        // Decoding borrows the scratch buffer in place — the record owns
        // its strings and pack, so nothing aliases the buffer afterwards.
        match decode_record(&cursor.payload_buf) {
            Ok(record) => {
                self.io.records_read += 1;
                self.pending[i] = Pending::Record(Box::new(record));
            }
            Err(e) => {
                self.pending[i] = Pending::Corrupt {
                    offset: frame_offset,
                    detail: format!("record decode: {e}"),
                };
            }
        }
    }

    /// The next event, merging shards by `seq`. Corruption events are
    /// yielded as soon as their shard is consulted (lowest shard index
    /// first), so a given store's event order is deterministic.
    pub fn next_event(&mut self) -> Option<StoreEvent> {
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
        let mut best: Option<(usize, u64)> = None;
        for (i, slot) in self.pending.iter().enumerate() {
            if let Pending::Record(r) = slot {
                if best.map(|(_, s)| r.seq < s).unwrap_or(true) {
                    best = Some((i, r.seq));
                }
            }
        }
        let (i, _) = best?;
        let slot = std::mem::replace(&mut self.pending[i], Pending::Empty);
        let Pending::Record(record) = slot else {
            unreachable!("selected slot holds a record");
        };
        self.refill(i);
        Some(StoreEvent::Record(*record))
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
                    assert_eq!(
                        r.libio.as_ref().map(|m| (m.is_fork, m.stars, m.contributors)),
                        universe
                            .libio
                            .get(&r.name)
                            .map(|m| (m.is_fork, m.stars, m.contributors))
                    );
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
        let _ = fs::remove_dir_all(&dir);
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

        let store = ShardStore::open(&dir).expect("open store");
        let mut records = 0u64;
        let mut corrupt = 0u64;
        let mut stream = store.stream();
        while let Some(event) = stream.next_event() {
            match event {
                StoreEvent::Record(_) => records += 1,
                StoreEvent::Corrupt { shard, .. } => {
                    assert_eq!(shard, 0);
                    corrupt += 1;
                }
            }
        }
        assert_eq!(corrupt, 1, "exactly one corruption event");
        assert!(records < manifest.records, "tail of shard 0 is lost");
        assert!(records > 0, "shard 1 survives in full");
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

        let store = ShardStore::open(&dir).expect("open store");
        let mut corrupt = 0;
        let mut stream = store.stream();
        while let Some(event) = stream.next_event() {
            if let StoreEvent::Corrupt { detail, .. } = event {
                assert!(detail.contains("truncated"), "{detail}");
                corrupt += 1;
            }
        }
        assert_eq!(corrupt, 1);
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
