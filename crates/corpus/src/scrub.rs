//! `schevo scrub` — self-healing compaction of a bit-rotted shard store.
//!
//! The streaming reader ([`crate::store::StoreStream`]) fails closed:
//! the first bad frame kills its shard's cursor, because a torn frame
//! leaves no trustworthy next-record boundary *online*. Scrub is the
//! offline counterpart that can afford to look harder. It walks every
//! shard byte-for-byte, verifies each frame's length, SHA-1, and
//! decodability, and when a frame fails it **resyncs**: scans forward
//! for the next offset where a plausible length prefix, a verifying
//! checksum, and a decodable payload line up again. Since a verifying
//! 20-byte SHA-1 over an attacker-free payload does not happen by
//! accident, resync recovers every intact record *after* a corrupt
//! region — records the online reader had to abandon.
//!
//! The scrub then:
//!
//! 1. moves every corrupt byte range into a quarantine sidecar
//!    (`shard-NNN.pack.quarantine`) for post-mortem inspection,
//! 2. rewrites each damaged shard with only its verified frames
//!    (temp file, fsync, rename, directory fsync — same discipline as
//!    artifact publication),
//! 3. recomputes record/materialized counts and the corpus digest from
//!    the surviving records, and
//! 4. atomically republishes `MANIFEST.json` with a cumulative `lost`
//!    count, which also stops the store from `matches()`-ing its
//!    generation config — a lossy store must never be silently reused
//!    where the full generated corpus is expected.
//!
//! A second scrub of the same store is a no-op (zero lost, zero bytes
//! quarantined, no rewrites), and the scrubbed store streams with zero
//! corruption events: its clean subset mines bit-identically under any
//! worker count.

use crate::store::{
    decode_record, manifest_path, shard_path, ShardStore, StoreError, StoreManifest, SHARD_MAGIC,
};
use crate::universe::CorpusDigester;
use schevo_core::failpoint;
use schevo_vcs::frame;
use std::fs::{self, File};
use std::io::Write;
use std::path::Path;

/// What scrubbing one shard found and did.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardScrub {
    /// Shard index.
    pub shard: usize,
    /// Verified records kept.
    pub kept: u64,
    /// Records recovered by resyncing past a corrupt region — a strict
    /// subset of `kept` that the online reader would have lost.
    pub resynced: u64,
    /// Contiguous corrupt byte regions quarantined.
    pub bad_regions: u64,
    /// Total bytes moved to the quarantine sidecar.
    pub quarantined_bytes: u64,
    /// Whether the shard file was rewritten (it had corrupt bytes).
    pub rewritten: bool,
}

/// The outcome of scrubbing a whole store.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScrubReport {
    /// Per-shard detail, in shard order.
    pub shards: Vec<ShardScrub>,
    /// Records the manifest claimed before the scrub.
    pub records_before: u64,
    /// Verified records surviving across all shards.
    pub kept: u64,
    /// Records lost this scrub (`records_before - kept`, floored at 0).
    pub lost: u64,
    /// Records recovered by resync that the online reader would lose.
    pub resynced: u64,
    /// Materialized records among the survivors.
    pub materialized: u64,
    /// Corpus digest recomputed over the survivors.
    pub corpus_digest: String,
    /// Whether `MANIFEST.json` was republished.
    pub rewrote_manifest: bool,
}

impl ScrubReport {
    /// True when the store needed no repair at all.
    pub fn clean(&self) -> bool {
        self.shards.iter().all(|s| !s.rewritten) && !self.rewrote_manifest
    }

    /// Total bytes quarantined across all shards.
    pub fn quarantined_bytes(&self) -> u64 {
        self.shards.iter().map(|s| s.quarantined_bytes).sum()
    }
}

impl std::fmt::Display for ScrubReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "scrub: {} shard(s), {} record(s) kept, {} lost, {} resynced, {} byte(s) quarantined",
            self.shards.len(),
            self.kept,
            self.lost,
            self.resynced,
            self.quarantined_bytes()
        )?;
        for s in self.shards.iter().filter(|s| s.rewritten) {
            writeln!(
                f,
                "  shard {:03}: kept {} ({} resynced), {} bad region(s), {} byte(s) quarantined",
                s.shard, s.kept, s.resynced, s.bad_regions, s.quarantined_bytes
            )?;
        }
        write!(
            f,
            "  manifest: {} record(s), digest {}{}",
            self.kept,
            self.corpus_digest,
            if self.rewrote_manifest { " (rewritten)" } else { " (unchanged)" }
        )
    }
}

/// One verified frame found by the shard walk.
struct GoodFrame {
    /// Byte range of the whole frame (header + payload) in the shard.
    start: usize,
    end: usize,
    /// Whether the record is materialized (carries a repository).
    materialized: bool,
}

/// Walk one shard's bytes, returning the verified frames and the
/// corrupt regions between them. `digester` accumulates the surviving
/// materialized records' digest contributions.
fn walk_shard(
    bytes: &[u8],
    digester: &mut CorpusDigester,
) -> (Vec<GoodFrame>, Vec<(usize, usize)>, u64) {
    let mut good = Vec::new();
    let mut bad: Vec<(usize, usize)> = Vec::new();
    let mut resynced = 0u64;
    let mut bad_start: Option<usize> = None;
    let mut pos = SHARD_MAGIC.len();
    if bytes.len() < SHARD_MAGIC.len() || &bytes[..SHARD_MAGIC.len()] != SHARD_MAGIC {
        // Corrupt magic: quarantine the prefix and resync from zero.
        pos = 0;
        if !bytes.is_empty() {
            bad_start = Some(0);
        }
    }
    while pos < bytes.len() {
        match verify_frame_at(bytes, pos, digester) {
            Some(frame) => {
                if let Some(start) = bad_start.take() {
                    bad.push((start, pos));
                }
                // Any verified frame past the first bad region is one
                // the online fail-closed reader would have abandoned.
                if !bad.is_empty() {
                    resynced += 1;
                }
                pos = frame.end;
                good.push(frame);
            }
            None => {
                // First failure at a supposed boundary opens a bad
                // region; afterwards scan byte-by-byte for the next
                // verifiable frame.
                bad_start.get_or_insert(pos);
                pos += 1;
            }
        }
    }
    if let Some(start) = bad_start {
        bad.push((start, bytes.len()));
    }
    (good, bad, resynced)
}

/// Verify a candidate frame at `pos`: plausible length, in-bounds,
/// checksum match, decodable payload. Feeds the digester on success.
fn verify_frame_at(bytes: &[u8], pos: usize, digester: &mut CorpusDigester) -> Option<GoodFrame> {
    let payload = frame::decode(&bytes[pos..]).ok()?;
    let record = decode_record(payload).ok()?;
    let materialized = match &record.materialized {
        Some((repo, _, _)) => {
            digester.add(&record.name, &record.sql_paths, repo);
            true
        }
        None => false,
    };
    Some(GoodFrame { start: pos, end: pos + frame::frame_len(payload.len()), materialized })
}

/// Publish `contents` at `path` via temp file + fsync + rename +
/// directory fsync, retrying transient I/O.
fn publish(path: &Path, contents: &[u8]) -> std::io::Result<()> {
    let tmp = path.with_extension("scrub-tmp");
    let out = failpoint::retry_io(failpoint::RetryPolicy::default(), || {
        let mut f = File::create(&tmp)?;
        f.write_all(contents)?;
        f.sync_all()?;
        fs::rename(&tmp, path)?;
        match path.parent() {
            Some(dir) if !dir.as_os_str().is_empty() => File::open(dir)?.sync_all(),
            _ => Ok(()),
        }
    });
    if out.is_err() {
        let _ = fs::remove_file(&tmp);
    }
    out
}

/// Quarantine sidecar magic.
const QUARANTINE_MAGIC: &[u8; 8] = b"SCHEVOQ1";

/// Scrub the store at `dir`: verify every shard frame, quarantine
/// corrupt regions, rewrite damaged shards and the manifest, and
/// report what was kept, lost, and recovered.
pub fn scrub_store(dir: &Path) -> Result<ScrubReport, StoreError> {
    let _span = schevo_obs::span!("store.scrub", dir = dir.display());
    let store = ShardStore::open(dir)?;
    let manifest = store.manifest().clone();
    let mut digester = CorpusDigester::new();
    let mut shards = Vec::with_capacity(manifest.shards as usize);
    let mut kept = 0u64;
    let mut materialized = 0u64;
    let mut resynced_total = 0u64;
    for i in 0..manifest.shards as usize {
        let path = shard_path(dir, i);
        let bytes = failpoint::retry_io(failpoint::RetryPolicy::default(), || {
            failpoint::check("store.read")?;
            fs::read(&path)
        })?;
        let (good, bad, resynced) = walk_shard(&bytes, &mut digester);
        let quarantined: u64 = bad.iter().map(|(s, e)| (e - s) as u64).sum();
        // A shard shorter than its magic has nothing to quarantine but
        // still needs its header restored for the online reader.
        let rewrite = quarantined > 0 || bytes.len() < SHARD_MAGIC.len();
        if quarantined > 0 {
            // Sidecar first: the damaged bytes must be safe before the
            // shard rewrite destroys the only other copy of them.
            let mut sidecar = QUARANTINE_MAGIC.to_vec();
            for &(s, e) in &bad {
                sidecar.extend_from_slice(&(s as u64).to_le_bytes());
                sidecar.extend_from_slice(&((e - s) as u64).to_le_bytes());
                sidecar.extend_from_slice(&bytes[s..e]);
            }
            let sidecar_path = dir.join(format!("shard-{i:03}.pack.quarantine"));
            publish(&sidecar_path, &sidecar)?;
        }
        if rewrite {
            let mut clean = Vec::with_capacity(SHARD_MAGIC.len() + bytes.len());
            clean.extend_from_slice(SHARD_MAGIC);
            for frame in &good {
                clean.extend_from_slice(&bytes[frame.start..frame.end]);
            }
            publish(&path, &clean)?;
        }
        kept += good.len() as u64;
        materialized += good.iter().filter(|f| f.materialized).count() as u64;
        resynced_total += resynced;
        shards.push(ShardScrub {
            shard: i,
            kept: good.len() as u64,
            resynced,
            bad_regions: bad.len() as u64,
            quarantined_bytes: quarantined,
            rewritten: rewrite,
        });
    }
    let lost = manifest.records.saturating_sub(kept);
    let corpus_digest = digester.finalize(&manifest.config());
    let repaired = StoreManifest {
        records: kept,
        materialized,
        corpus_digest: corpus_digest.clone(),
        lost: {
            let total = manifest.lost_records() + lost;
            (total > 0).then_some(total)
        },
        ..manifest.clone()
    };
    let rewrote_manifest = repaired != manifest;
    if rewrote_manifest {
        let json = match serde_json::to_string_pretty(&repaired) {
            Ok(mut s) => {
                s.push('\n');
                s
            }
            Err(e) => return Err(StoreError::Manifest(format!("encode: {e}"))),
        };
        failpoint::retry_io(failpoint::RetryPolicy::default(), || {
            failpoint::check("store.manifest")
        })?;
        publish(&manifest_path(dir), json.as_bytes())?;
    }
    Ok(ScrubReport {
        shards,
        records_before: manifest.records,
        kept,
        lost,
        resynced: resynced_total,
        materialized,
        corpus_digest,
        rewrote_manifest,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::{generate_into_store, ShardStore, StoreEvent};
    use crate::universe::UniverseConfig;
    use std::path::PathBuf;

    fn scratch(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("schevo_scrub_{tag}_{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    /// Stream the store, returning (records, corruption events).
    fn census(dir: &Path) -> (u64, u64) {
        let store = ShardStore::open(dir).expect("open");
        let mut stream = store.stream();
        let (mut recs, mut bad) = (0u64, 0u64);
        while let Some(event) = stream.next_event() {
            match event {
                StoreEvent::Record(_) => recs += 1,
                StoreEvent::Corrupt { .. } => bad += 1,
            }
        }
        (recs, bad)
    }

    #[test]
    fn clean_store_scrub_is_a_noop() {
        let dir = scratch("noop");
        let config = UniverseConfig::small(2019, 80);
        let (manifest, _) = generate_into_store(config, &dir, 2).expect("generate");
        let before = fs::read(manifest_path(&dir)).expect("manifest bytes");
        let report = scrub_store(&dir).expect("scrub");
        assert!(report.clean(), "{report}");
        assert_eq!(report.kept, manifest.records);
        assert_eq!(report.lost, 0);
        assert_eq!(report.corpus_digest, manifest.corpus_digest);
        assert_eq!(fs::read(manifest_path(&dir)).expect("manifest bytes"), before);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn bit_flip_loses_one_record_and_resyncs_the_tail() {
        let dir = scratch("flip");
        let config = UniverseConfig::small(7, 80);
        let (manifest, _) = generate_into_store(config, &dir, 2).expect("generate");
        // Flip one byte in the middle of shard 0: the online reader
        // loses the whole tail of that shard.
        let path = shard_path(&dir, 0);
        let mut bytes = fs::read(&path).expect("read shard");
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x40;
        fs::write(&path, &bytes).expect("rewrite");
        let (online_recs, online_bad) = census(&dir);
        assert_eq!(online_bad, 1);
        assert!(online_recs < manifest.records - 1, "online read loses the tail");

        let report = scrub_store(&dir).expect("scrub");
        assert_eq!(report.lost, 1, "scrub loses only the flipped record: {report}");
        assert_eq!(report.kept, manifest.records - 1);
        assert!(report.resynced > 0, "tail records recovered by resync");
        assert!(report.rewrote_manifest);

        // The sidecar holds exactly the quarantined bytes, framed with
        // their original offset and length.
        let sidecar = fs::read(dir.join("shard-000.pack.quarantine")).expect("sidecar");
        assert_eq!(&sidecar[..8], QUARANTINE_MAGIC);
        let region_off = u64::from_le_bytes(sidecar[8..16].try_into().unwrap()) as usize;
        let region_len = u64::from_le_bytes(sidecar[16..24].try_into().unwrap()) as usize;
        assert_eq!(
            region_len as u64, report.shards[0].quarantined_bytes,
            "sidecar frames the quarantined region"
        );
        assert_eq!(sidecar.len(), 24 + region_len, "one region in the sidecar");
        assert_eq!(
            &sidecar[24..],
            &bytes[region_off..region_off + region_len],
            "sidecar preserves the damaged bytes verbatim"
        );

        // The scrubbed store streams with zero corruption events, the
        // manifest agrees with the stream, and it refuses pristine reuse.
        let (recs, bad) = census(&dir);
        assert_eq!(bad, 0, "scrubbed store is corruption-free");
        assert_eq!(recs, report.kept);
        let reopened = ShardStore::open(&dir).expect("reopen");
        assert_eq!(reopened.manifest().records, report.kept);
        assert_eq!(reopened.manifest().lost_records(), 1);
        assert!(!reopened.manifest().matches(&config, 2), "lossy store must not match");

        // Idempotent: a second scrub changes nothing.
        let again = scrub_store(&dir).expect("second scrub");
        assert!(again.clean(), "{again}");
        assert_eq!(again.lost, 0);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn truncated_shard_tail_is_quarantined() {
        let dir = scratch("trunc");
        let config = UniverseConfig::small(3, 80);
        let (manifest, _) = generate_into_store(config, &dir, 1).expect("generate");
        let path = shard_path(&dir, 0);
        let bytes = fs::read(&path).expect("read shard");
        fs::write(&path, &bytes[..bytes.len() - 7]).expect("truncate");

        let report = scrub_store(&dir).expect("scrub");
        assert_eq!(report.lost, 1, "{report}");
        assert_eq!(report.kept, manifest.records - 1);
        assert_eq!(report.shards[0].bad_regions, 1);
        let (recs, bad) = census(&dir);
        assert_eq!((recs, bad), (report.kept, 0));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_magic_recovers_every_record_by_resync() {
        let dir = scratch("magic");
        let config = UniverseConfig::small(11, 80);
        let (manifest, _) = generate_into_store(config, &dir, 2).expect("generate");
        let path = shard_path(&dir, 1);
        let mut bytes = fs::read(&path).expect("read shard");
        bytes[0] ^= 0xff;
        fs::write(&path, &bytes).expect("rewrite");
        let (_, online_bad) = census(&dir);
        assert_eq!(online_bad, 1, "online reader rejects the whole shard");

        let report = scrub_store(&dir).expect("scrub");
        assert_eq!(report.lost, 0, "every record survives: {report}");
        assert_eq!(report.kept, manifest.records);
        assert_eq!(report.corpus_digest, manifest.corpus_digest);
        assert!(report.shards[1].rewritten);
        let (recs, bad) = census(&dir);
        assert_eq!((recs, bad), (manifest.records, 0));
        // No records were lost, so the store still matches pristine.
        assert!(ShardStore::open(&dir).expect("reopen").manifest().matches(&config, 2));
        let _ = fs::remove_dir_all(&dir);
    }
}
