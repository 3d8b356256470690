//! Black-box differential test of the two `CandidateSource` backends:
//! the sharded on-disk store must be indistinguishable from the
//! resident in-memory universe. Indistinguishable means *byte*
//! identity of stdout and `study_results.json` across worker counts,
//! survival of a kill-and-resume cycle against the
//! store, and — at the property level — that shard corruption
//! (bit-flips, truncation, even truncation at an exact frame boundary)
//! is detected, quarantined as `StoreCorrupt`, and never panics or
//! taints the surviving candidates.

use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::process::Command;
use std::sync::OnceLock;

use proptest::prelude::*;
use schevo::corpus::store::{generate_into_store, ShardStore};
use schevo::pipeline::extract::Mined;
use schevo::prelude::{ErrorClass, UniverseConfig, REED_THRESHOLD};
use schevo::{MiningEngine, StudyOptions};

const SEED: &str = "2019";
const SCALE: &str = "20";

fn scratch(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("schevo_store_diff_{tag}_{}", std::process::id()));
    std::fs::create_dir_all(&d).expect("create scratch dir");
    d
}

/// Run `schevo study` at the fixed seed/scale with extra flags appended.
fn study(extra: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_schevo"))
        .args(["study", "--seed", SEED, "--scale", SCALE])
        .args(extra)
        .output()
        .expect("binary runs")
}

fn read_json(out_dir: &Path) -> Vec<u8> {
    std::fs::read(out_dir.join("study_results.json")).expect("study_results.json written")
}

/// Golden resident run: default backend, one worker.
fn golden(scratch: &Path) -> (Vec<u8>, Vec<u8>) {
    let golden_dir = scratch.join("golden");
    let out = study(&["--workers", "1", "--out", golden_dir.to_str().expect("utf-8")]);
    assert!(
        out.status.success(),
        "golden run failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    (out.stdout, read_json(&golden_dir))
}

// ---------------------------------------------------------------------
// Backend byte-identity.
// ---------------------------------------------------------------------

#[test]
fn sharded_backend_is_byte_identical_across_worker_counts() {
    let scratch = scratch("identity");
    let (golden_stdout, golden_json) = golden(&scratch);

    let store = scratch.join("store");
    let store = store.to_str().expect("utf-8");
    // Worker counts; the first run also generates the store, the rest
    // must reuse it (regeneration would still pass — reuse is asserted
    // separately below via the manifest's mtime).
    let configs: [&[&str]; 3] = [
        &["--workers", "1"],
        &["--workers", "2"],
        &["--workers", "8"],
    ];
    let mut manifest_mtime = None;
    for (i, cfg) in configs.iter().enumerate() {
        let out_dir = scratch.join(format!("streamed_{i}"));
        let out = study(
            &[
                *cfg,
                &[
                    "--store-dir",
                    store,
                    "--shards",
                    "4",
                    "--out",
                    out_dir.to_str().expect("utf-8"),
                ][..],
            ]
            .concat(),
        );
        assert!(
            out.status.success(),
            "streaming run {cfg:?} failed: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        assert_eq!(
            out.stdout, golden_stdout,
            "config {cfg:?}: sharded stdout diverged from the resident golden"
        );
        assert_eq!(
            read_json(&out_dir),
            golden_json,
            "config {cfg:?}: sharded study_results.json diverged from the resident golden"
        );

        let mtime = std::fs::metadata(scratch.join("store").join("MANIFEST.json"))
            .expect("store manifest exists")
            .modified()
            .expect("mtime supported");
        match manifest_mtime {
            None => manifest_mtime = Some(mtime),
            Some(first) => assert_eq!(
                mtime, first,
                "config {cfg:?}: run regenerated the store instead of reusing it"
            ),
        }
    }
    let _ = std::fs::remove_dir_all(&scratch);
}

// ---------------------------------------------------------------------
// Kill-and-resume against the shard store.
// ---------------------------------------------------------------------

#[test]
fn kill_and_resume_against_shard_store_matches_golden() {
    let scratch = scratch("resume");
    let (golden_stdout, golden_json) = golden(&scratch);

    let store = scratch.join("store");
    let store = store.to_str().expect("utf-8");
    let journal = scratch.join("crash.wal");
    let journal = journal.to_str().expect("utf-8");

    let crashed = study(&["--store-dir", store, "--journal", journal, "--crash-after", "3"]);
    assert!(
        !crashed.status.success(),
        "--crash-after 3 did not abort the streaming process"
    );

    let out_dir = scratch.join("resumed");
    let resumed = study(&[
        "--store-dir",
        store,
        "--journal",
        journal,
        "--resume",
        "--out",
        out_dir.to_str().expect("utf-8"),
    ]);
    assert!(
        resumed.status.success(),
        "resume against the shard store failed: {}",
        String::from_utf8_lossy(&resumed.stderr)
    );
    let stderr = String::from_utf8_lossy(&resumed.stderr);
    assert!(
        stderr.contains("journal: 3 outcome(s) replayed"),
        "resume did not replay the 3 pre-crash outcomes:\n{stderr}"
    );
    assert_eq!(
        resumed.stdout, golden_stdout,
        "resumed streaming stdout diverged from the resident golden"
    );
    assert_eq!(
        read_json(&out_dir),
        golden_json,
        "resumed streaming study_results.json diverged from the resident golden"
    );
    let _ = std::fs::remove_dir_all(&scratch);
}

// ---------------------------------------------------------------------
// Store flag validation.
// ---------------------------------------------------------------------

#[test]
fn store_flag_misuse_is_a_usage_error() {
    let out = study(&["--shards", "4"]);
    assert_eq!(out.status.code(), Some(2), "--shards without --store-dir");
    assert!(String::from_utf8_lossy(&out.stderr).contains("--store-dir"));

    let d = scratch("flags");
    let store = d.join("store");
    let store = store.to_str().expect("utf-8");
    let out = study(&["--store-dir", store, "--shards", "0"]);
    assert_eq!(out.status.code(), Some(2), "--shards 0 is not a shard count");

    let out = study(&["--store-dir", store, "--inject-faults", "10"]);
    assert_eq!(out.status.code(), Some(2), "fault injection needs a resident universe");
    let _ = std::fs::remove_dir_all(&d);
}

// ---------------------------------------------------------------------
// Corruption detection (in-process).
// ---------------------------------------------------------------------

/// Tiny config for the corruption property: ~60× smaller than the
/// paper corpus so each proptest case mines in milliseconds.
fn tiny_config() -> UniverseConfig {
    UniverseConfig::small(2019, 60)
}

fn mine_store(dir: &Path) -> schevo::pipeline::MiningOutput {
    let store = ShardStore::open(dir).expect("store opens (manifest is never corrupted here)");
    MiningEngine::new(StudyOptions {
        reed_threshold: Some(REED_THRESHOLD),
        workers: 1,
        ..StudyOptions::default()
    })
    .mine(&store)
    .expect("graceful mining never aborts without a journal")
}

/// Pristine store + its clean mining baseline, built once.
struct Pristine {
    dir: PathBuf,
    shard_files: Vec<String>,
    by_project: HashMap<String, Mined>,
}

fn pristine() -> &'static Pristine {
    static PRISTINE: OnceLock<Pristine> = OnceLock::new();
    PRISTINE.get_or_init(|| {
        let dir = scratch("pristine").join("store");
        let _ = std::fs::remove_dir_all(&dir);
        generate_into_store(tiny_config(), &dir, 4).expect("write pristine store");
        let out = mine_store(&dir);
        assert!(out.quarantine.is_clean(), "pristine store mines cleanly");
        let by_project = out
            .mined
            .into_iter()
            .map(|m| (m.profile.project.clone(), m))
            .collect();
        let shard_files = std::fs::read_dir(&dir)
            .expect("read store dir")
            .map(|e| e.expect("dir entry").file_name().into_string().expect("utf-8"))
            .filter(|n| n != "MANIFEST.json")
            .collect::<Vec<_>>();
        assert!(!shard_files.is_empty(), "store has shard files");
        Pristine { dir, shard_files, by_project }
    })
}

/// Copy the pristine store into a fresh dir the case may mutilate.
fn clone_store(tag: &str) -> PathBuf {
    let p = pristine();
    let dir = scratch("cases").join(tag);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create case dir");
    for entry in std::fs::read_dir(&p.dir).expect("read pristine") {
        let entry = entry.expect("dir entry");
        std::fs::copy(entry.path(), dir.join(entry.file_name())).expect("copy store file");
    }
    dir
}

/// Assert the engine's graceful contract over a mutilated store: it
/// returns (no panic), flags at least one `StoreCorrupt` quarantine,
/// and every survivor it mined is byte-for-byte a clean-run result.
fn assert_detected_and_quarantined(dir: &Path, what: &str) -> Result<(), TestCaseError> {
    let out = mine_store(dir);
    let store_corrupt = out
        .quarantine
        .quarantined
        .iter()
        .filter(|q| q.error.class == ErrorClass::StoreCorrupt)
        .count();
    prop_assert!(
        store_corrupt > 0,
        "{what}: corruption went undetected (quarantine: {:?})",
        out.quarantine.quarantined
    );
    let clean = &pristine().by_project;
    prop_assert!(out.mined.len() <= clean.len(), "{what}: mined more than the clean run");
    for m in &out.mined {
        match clean.get(&m.profile.project) {
            Some(expected) => prop_assert_eq!(
                m,
                expected,
                "{}: corrupted-store survivor diverged from the clean run",
                what
            ),
            None => prop_assert!(false, "{what}: mined a project the clean run never saw"),
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// A single flipped bit anywhere in any shard — magic, length
    /// prefix, checksum, or payload — is caught by the frame checksum
    /// (or the magic/length plausibility checks) and quarantined.
    #[test]
    fn shard_bit_flip_is_detected_and_quarantined(
        shard_pick in 0usize..64,
        offset_frac in 0.0f64..1.0,
        bit in 0u8..8,
        case in 0u32..1_000_000,
    ) {
        let p = pristine();
        let dir = clone_store(&format!("flip_{case}"));
        let shard = &p.shard_files[shard_pick % p.shard_files.len()];
        let path = dir.join(shard);
        let bytes = std::fs::read(&path).expect("read shard");
        prop_assume!(!bytes.is_empty());
        let at = ((bytes.len() as f64 * offset_frac) as usize).min(bytes.len() - 1);
        let mut mutated = bytes;
        mutated[at] ^= 1 << bit;
        std::fs::write(&path, &mutated).expect("write corrupted shard");

        assert_detected_and_quarantined(&dir, &format!("flip bit {bit} at {at} of {shard}"))?;
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Truncating a shard mid-frame is caught by the frame reader;
    /// truncating *between* frames reads as a clean EOF and is caught
    /// by the manifest record tally instead. Either way: quarantined,
    /// no panic.
    #[test]
    fn shard_truncation_is_detected_and_quarantined(
        shard_pick in 0usize..64,
        keep_frac in 0.0f64..1.0,
        case in 0u32..1_000_000,
    ) {
        let p = pristine();
        let dir = clone_store(&format!("trunc_{case}"));
        let shard = &p.shard_files[shard_pick % p.shard_files.len()];
        let path = dir.join(shard);
        let bytes = std::fs::read(&path).expect("read shard");
        prop_assume!(bytes.len() > 1);
        // Keep strictly fewer bytes than the full file, else nothing is lost.
        let keep = ((bytes.len() as f64 * keep_frac) as usize).min(bytes.len() - 1);
        std::fs::write(&path, &bytes[..keep]).expect("truncate shard");

        assert_detected_and_quarantined(&dir, &format!("truncate {shard} to {keep} bytes"))?;
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// The adversarial special case: truncation at an *exact frame
/// boundary*. The frame reader sees a clean EOF — only the
/// records-read-vs-manifest tally can catch the silently missing tail.
#[test]
fn truncation_at_exact_frame_boundary_is_detected() {
    let p = pristine();
    let dir = clone_store("boundary");
    // Find a shard with at least two frames and compute the offset
    // where its last frame begins: magic, then per frame a u32 length
    // prefix, a 20-byte SHA-1, and the payload.
    let mut cut = None;
    for shard in &p.shard_files {
        let bytes = std::fs::read(dir.join(shard)).expect("read shard");
        let mut boundaries = Vec::new();
        let mut at = 8; // shard magic
        while at + 24 <= bytes.len() {
            let len =
                u32::from_le_bytes(bytes[at..at + 4].try_into().expect("4 bytes")) as usize;
            at += 4 + 20 + len;
            boundaries.push(at);
        }
        assert_eq!(*boundaries.last().expect("≥1 frame"), bytes.len(), "clean frame walk");
        if boundaries.len() >= 2 {
            cut = Some((shard.clone(), boundaries[boundaries.len() - 2]));
            break;
        }
    }
    let (shard, cut) = cut.expect("some shard holds at least two records");
    let path = dir.join(&shard);
    let bytes = std::fs::read(&path).expect("read shard");
    std::fs::write(&path, &bytes[..cut]).expect("drop exactly the last frame");

    let out = mine_store(&dir);
    let tally = out
        .quarantine
        .quarantined
        .iter()
        .find(|q| q.error.class == ErrorClass::StoreCorrupt)
        .expect("boundary truncation must be quarantined");
    assert!(
        tally.error.to_string().contains("ends early"),
        "expected the record-tally detector, got: {}",
        tally.error
    );
    let _ = std::fs::remove_dir_all(&dir);
}
