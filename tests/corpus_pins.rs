//! Byte pins on the generated corpus.
//!
//! The generator is the study's only input, so any change to how it
//! renders DDL text or builds records must leave these digests alone:
//!
//! - the corpus digest of the paper-scale universe and of a small one,
//!   which covers every materialized repository, its paths and commits;
//! - the SHA-1 of a small store's shard files, concatenated in shard
//!   order, which also covers the lightweight records and their
//!   Libraries.io fields (name, URL, fork flag, stars, contributors).

use schevo::corpus::store::generate_into_store;
use schevo::prelude::*;
use schevo::vcs::sha1::sha1;

#[test]
fn paper_corpus_digest_is_pinned() {
    assert_eq!(
        corpus_digest(&generate(UniverseConfig::paper(2019))),
        "1276dd349255d4300d2d095fe8ed435e4dd39a5e"
    );
}

#[test]
fn small_corpus_digest_is_pinned() {
    assert_eq!(
        corpus_digest(&generate(UniverseConfig::small(2019, 10))),
        "97e63349faa5910f7b15f5c3e144b1d15d2a80dc"
    );
}

#[test]
fn small_store_shards_are_pinned() {
    const SHARDS: usize = 8;
    let dir = std::env::temp_dir().join(format!("schevo_corpus_pins_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    generate_into_store(UniverseConfig::small(2019, 10), &dir, SHARDS).expect("write store");
    let mut bytes = Vec::new();
    for shard in 0..SHARDS {
        let path = dir.join(format!("shard-{shard:03}.pack"));
        bytes.extend(std::fs::read(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display())));
    }
    std::fs::remove_dir_all(&dir).expect("remove scratch store");
    assert_eq!(sha1(&bytes).to_hex(), "8e096bab022e8d881fec4567e6f2a67d9f83dafa");
}
