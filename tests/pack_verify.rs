//! Differential test of the two pack readers: `verify_pack` must accept
//! exactly the packs `read_pack` loads and fail the others with the same
//! error, and the tips it returns must be the loaded repository's.
//!
//! Run on a small multi-branch pack and on a pack lifted out of a real
//! store frame, each under single-byte flips and every truncation.

use schevo::corpus::store::generate_into_store;
use schevo::prelude::UniverseConfig;
use schevo::vcs::frame;
use schevo::vcs::pack::{read_pack, verify_pack, write_pack, Reader};
use schevo::vcs::repo::{FileChange, Repository};
use schevo::vcs::timestamp::Timestamp;

/// Two branches, a merge, and a second file: every object kind, a
/// two-parent commit and a multi-entry tree.
fn multi_branch_pack() -> Vec<u8> {
    let mut r = Repository::new("pack/verify");
    let day = |m| Timestamp::from_date(2018, m, 1);
    r.commit(
        [FileChange::write("s.sql", "CREATE TABLE a (x INT);")],
        "ann",
        day(1),
        "v0",
    )
    .unwrap();
    r.branch_and_checkout("side").unwrap();
    r.commit(
        [FileChange::write("s.sql", "CREATE TABLE a (x INT, y INT);")],
        "ben",
        day(2),
        "side",
    )
    .unwrap();
    r.checkout(Repository::DEFAULT_BRANCH).unwrap();
    r.commit(
        [FileChange::write("README", "hello")],
        "ann",
        day(3),
        "docs",
    )
    .unwrap();
    r.merge("side", "ann", day(4), "merge side").unwrap();
    r.branch_and_checkout("release").unwrap();
    r.checkout(Repository::DEFAULT_BRANCH).unwrap();
    write_pack(&r)
}

/// The smallest pack of at least 4 KiB (several commits, not a lone
/// root) among the materialized records of a small store.
fn store_pack() -> Vec<u8> {
    let dir = std::env::temp_dir().join(format!("schevo_pack_verify_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    generate_into_store(UniverseConfig::small(2019, 40), &dir, 1).expect("write store");
    let shard = std::fs::read(dir.join("shard-000.pack")).expect("read shard");
    std::fs::remove_dir_all(&dir).expect("remove scratch store");
    let mut packs = Vec::new();
    let mut pos = 8;
    while pos < shard.len() {
        let payload = frame::decode(&shard[pos..]).expect("clean frame");
        pos += frame::frame_len(payload.len());
        let mut r = Reader::new(payload);
        r.u64().unwrap();
        let kind = r.u8().unwrap();
        r.str().unwrap();
        for _ in 0..r.u16().unwrap() {
            r.str().unwrap();
        }
        if r.u8().unwrap() != 0 {
            r.take(9).unwrap();
        }
        if kind != 0 {
            r.take(16).unwrap();
            let len = r.u32().unwrap() as usize;
            packs.push(r.take(len).unwrap().to_vec());
        }
    }
    packs
        .into_iter()
        .filter(|p| p.len() >= 4096)
        .min_by_key(Vec::len)
        .expect("the store holds a pack of 4 KiB")
}

/// Both readers on `bytes`: equal errors, or tips equal to the loaded
/// repository's for every branch.
fn agree(bytes: &[u8], what: &str) -> bool {
    match (verify_pack(bytes), read_pack(bytes)) {
        (Ok(tips), Ok(repo)) => {
            let mut branches: Vec<&str> = repo.branch_names().collect();
            branches.sort_unstable();
            assert_eq!(tips.len(), branches.len(), "{what}: branch count");
            for ((name, tip), branch) in tips.iter().zip(branches) {
                assert_eq!(*name, branch, "{what}: branch order");
                assert_eq!(
                    Some(*tip),
                    repo.branch_tip(branch),
                    "{what}: tip of {branch}"
                );
            }
            true
        }
        (Err(v), Err(r)) => {
            assert_eq!(v, r, "{what}: errors differ");
            false
        }
        (v, r) => panic!("{what}: verify_pack {:?}, read_pack {:?}", v.err(), r.err()),
    }
}

/// Every single-byte flip (each position under each mask) and every
/// truncation of `pack` must find the readers agreeing.
fn differential(pack: &[u8], masks: &[u8]) {
    assert!(agree(pack, "intact"), "the intact pack loads");
    let mut loaded = 0usize;
    for at in 0..pack.len() {
        for &mask in masks {
            let mut bad = pack.to_vec();
            bad[at] ^= mask;
            loaded += usize::from(agree(&bad, &format!("flip {mask:#x} at {at}")));
        }
        assert!(
            !agree(&pack[..at], &format!("cut at {at}")),
            "a truncated pack never loads"
        );
    }
    // Flips in names, messages and author strings still load; flips in
    // blob contents, trees and tips move an address and do not.
    assert!(
        loaded > 0 && loaded < pack.len() * masks.len(),
        "{loaded} flips loaded"
    );
}

#[test]
fn readers_agree_on_a_multi_branch_pack() {
    differential(&multi_branch_pack(), &[0x01, 0x20, 0x80, 0xff]);
}

#[test]
fn readers_agree_on_a_store_pack() {
    let pack = store_pack();
    let tips = verify_pack(&pack).expect("store pack verifies");
    assert!(!tips.is_empty());
    differential(&pack, &[0x01, 0x80]);
}
