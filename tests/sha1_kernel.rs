//! The SHA-1 battery: `schevo::vcs::sha1` is the content address of
//! every object, frame, journal record and cache key, so its digests are
//! pinned here to literal hex computed independently with Python's
//! `hashlib` (not with this code). Lengths sit on both sides of the
//! padding boundary (55/56/57 bytes) and of one and two blocks, so a
//! padding or block-walk mistake in the kernel this CPU selects shows;
//! the unit tests in `sha1.rs` hold the other kernel to it. The object
//! ids are pinned the same way over git's `kind len\0payload` bytes,
//! which checks the streamed header.

use proptest::prelude::*;
use schevo::vcs::object::{Blob, Commit, Tree};
use schevo::vcs::sha1::{sha1, Sha1};
use schevo::vcs::Timestamp;

/// Byte `i` is `i * 31 + 7` (mod 256).
fn pattern(len: usize) -> Vec<u8> {
    (0..len).map(|i| (i * 31 + 7) as u8).collect()
}

/// xorshift64 from a fixed seed, top byte of each step.
fn xorshift(len: usize) -> Vec<u8> {
    let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
    (0..len)
        .map(|_| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            (x >> 56) as u8
        })
        .collect()
}

#[test]
fn digests_match_hashlib_around_block_boundaries() {
    let pins = [
        (0, "da39a3ee5e6b4b0d3255bfef95601890afd80709"),
        (1, "5d1be7e9dda1ee8896be5b7e34a85ee16452a7b4"),
        (55, "749bbefb28edc4638b28b2b9a9e03ab9a4032b90"),
        (56, "a5b6e9c29d201c774753ff8e7fb64931656f5e63"),
        (57, "eb0737bed5451790722b2df351829ce117e3d9dd"),
        (63, "d1a454409359fc372b4d22b3cea6488d6ba1be00"),
        (64, "39a0d8b645ad85f1f976731ed112ac9455e28b78"),
        (65, "d0c96e18890114a14716e9686528d2e3fdba8d9e"),
        (119, "562ecf8a430f8e1056e3619bae33628e9a1d0a4e"),
        (120, "353f6d2bf0e91aa91b74a2e0b3f297510f7d825f"),
        (127, "bebc42d2d3d1e5fb8ad8895c2dcef2d68a6c279a"),
        (128, "0060f2a7e34b6e4d459f560197ef93243732a400"),
        (1000, "414475341017ec91703435a6f290324818f983e9"),
    ];
    for (len, hex) in pins {
        assert_eq!(sha1(&pattern(len)).to_hex(), hex, "{len} bytes");
    }
}

#[test]
fn multi_mib_digest_matches_hashlib() {
    let data = xorshift(3 * 1024 * 1024 + 13);
    let want = "36fed54a2d9dfd1693f27277b2996731e7ad75da";
    assert_eq!(sha1(&data).to_hex(), want);
    // Fed in uneven pieces, so whole-block runs start off a block boundary.
    let mut h = Sha1::new();
    for piece in data.chunks(64 * 1000 + 37) {
        h.update(piece);
    }
    assert_eq!(h.finalize().to_hex(), want);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Any split of an input into `update` calls gives the one-shot digest.
    #[test]
    fn any_update_split_equals_one_shot(
        data in prop::collection::vec(any::<u8>(), 0..700),
        cuts in prop::collection::vec(0usize..200, 0..12),
    ) {
        let mut h = Sha1::new();
        let mut rest = &data[..];
        for cut in cuts {
            let (head, tail) = rest.split_at(cut.min(rest.len()));
            h.update(head);
            rest = tail;
        }
        h.update(rest);
        prop_assert_eq!(h.finalize(), sha1(&data));
    }
}

fn schema_blob() -> Blob {
    Blob::new(&b"CREATE TABLE t (id INT);\n"[..])
}

fn two_entry_tree() -> Tree {
    let mut tree = Tree::new();
    tree.insert("db/schema.sql", schema_blob().id());
    tree.insert("README", Blob::new(&b"schema history\n"[..]).id());
    tree
}

#[test]
fn blob_ids_match_hashlib() {
    assert_eq!(
        schema_blob().id().to_hex(),
        "21e0d20ef9175dcb6c73e75b7679d430bfebf4f7"
    );
    // git's empty blob.
    assert_eq!(
        Blob::new(Vec::new()).id().to_hex(),
        "e69de29bb2d1d6434b8b29ae775ad8c2e48c5391"
    );
}

#[test]
fn tree_ids_match_hashlib() {
    assert_eq!(
        two_entry_tree().id().to_hex(),
        "2276f6b2fd7762d87e39e4b7029cf2fd51508bd5"
    );
    // git's empty tree.
    assert_eq!(
        Tree::new().id().to_hex(),
        "4b825dc642cb6eb9a060e54bf8d69288fbee4904"
    );
}

#[test]
fn commit_ids_match_hashlib() {
    let tree = two_entry_tree().id();
    let merge = Commit {
        tree,
        parents: vec![sha1(b"p1"), sha1(b"p2")],
        author: "alice".into(),
        timestamp: Timestamp(1_520_000_000),
        message: "merge feature\n".into(),
    };
    assert_eq!(
        merge.id().to_hex(),
        "97a45cad17303fc7c98f2ff8fd407308fa19a477"
    );
    let root = Commit {
        tree,
        parents: Vec::new(),
        author: "bob".into(),
        timestamp: Timestamp(0),
        message: String::new(),
    };
    assert_eq!(
        root.id().to_hex(),
        "1c30f5dff72725ecfe1f5496f78d9ff806410e68"
    );
}
