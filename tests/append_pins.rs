//! Pins on the manifest `append_into_store` publishes.
//!
//! An append re-primes the corpus digest from the store it extends,
//! verifying each pack without decoding it. The digest it publishes must
//! equal one folded from a full decode of the appended store (every
//! record read back through `read_pack`), and must keep the values pinned
//! here for the paper-scale stores of seeds 2019 and 7, with and without
//! a corrupted appendix project (`schevo append --corrupt 1`).

use schevo::corpus::store::{append_into_store, generate_into_store, ShardStore, StoreEvent};
use schevo::corpus::universe::{generate_appendix, CorpusDigester, UniverseConfig};
use std::path::{Path, PathBuf};

const SHARDS: usize = 8;
/// Appendix projects per append, as `schevo append` defaults to.
const COUNT: usize = 6;

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("schevo_append_pins_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn copy_dir(src: &Path, dst: &Path) {
    std::fs::create_dir_all(dst).expect("create copy");
    for entry in std::fs::read_dir(src).expect("read store dir") {
        let entry = entry.expect("store dir entry");
        std::fs::copy(entry.path(), dst.join(entry.file_name())).expect("copy store file");
    }
}

/// The corpus digest of the store at `dir`, folded from every record
/// decoded in full: each repository rebuilt by `read_pack`.
fn reference_digest(dir: &Path) -> String {
    let store = ShardStore::open(dir).expect("open store");
    let mut digester = CorpusDigester::new();
    let mut stream = store.stream();
    while let Some(event) = stream.next_event() {
        match event {
            StoreEvent::Record(r) => {
                if let Some((repo, _, _)) = &r.materialized {
                    digester.add(&r.name, &r.sql_paths, repo);
                }
            }
            StoreEvent::Corrupt { detail, .. } => panic!("appended store corrupt: {detail}"),
        }
    }
    assert_eq!(stream.io().records_read, store.manifest().records);
    digester.finalize(&store.manifest().config())
}

/// Append `COUNT` projects (`corrupt` of them poisoned) to a paper-scale
/// store of `seed`, once per entry of `pins`, and check each manifest.
fn check(seed: u64, pins: [(usize, &str); 2]) {
    let config = UniverseConfig::paper(seed);
    let pristine = scratch(&format!("{seed}_pristine"));
    let (base, _) = generate_into_store(config, &pristine, SHARDS).expect("generate store");
    for (corrupt, digest) in pins {
        let dir = scratch(&format!("{seed}_{corrupt}"));
        copy_dir(&pristine, &dir);
        let batch = generate_appendix(config, 0, COUNT, corrupt);
        let (manifest, io) = append_into_store(&dir, &batch.records).expect("append");
        assert_eq!(io.records_written, COUNT as u64);
        assert_eq!(
            (
                manifest.corpus_digest.as_str(),
                manifest.records,
                manifest.appended
            ),
            (digest, base.records + COUNT as u64, Some(COUNT as u64)),
            "seed {seed}, corrupt {corrupt}"
        );
        assert_eq!(
            reference_digest(&dir),
            digest,
            "seed {seed}, corrupt {corrupt}"
        );
        std::fs::remove_dir_all(&dir).expect("remove scratch store");
    }
    std::fs::remove_dir_all(&pristine).expect("remove scratch store");
}

#[test]
fn append_manifest_is_pinned_at_seed_2019() {
    check(
        2019,
        [
            (0, "873650356a4207d9100bfca8a1a75fe1892588b0"),
            (1, "e4c144b0e200d38560b952635b8d9879e56395a3"),
        ],
    );
}

#[test]
fn append_manifest_is_pinned_at_seed_7() {
    check(
        7,
        [
            (0, "79610b4c7fb0c406b48636cf8eafc7384bffbf6d"),
            (1, "b6863cf8816af35db569edc5fc95db822bd4426b"),
        ],
    );
}
