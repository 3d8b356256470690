//! A simple pack format: serialize an object store (and repository refs) to
//! bytes and back, with content-address verification on load.
//!
//! The mining study snapshots its corpus to disk so that a study can be
//! re-run without regenerating repositories; this is the git-`pack`
//! equivalent of the substrate. The format is deliberately simple:
//!
//! ```text
//! "SVPK1"                                magic
//! u32 object_count
//!   per object:  u8 kind ('B'|'T'|'C'), payload (kind-specific)
//! u16 name_len, name                     repository manifest
//! u16 head_len, head
//! u32 branch_count
//!   per branch: u16 len, name, 20-byte tip digest
//! ```
//!
//! All integers are little-endian. Loading recomputes every object's digest
//! and rejects mismatches, so a corrupted pack can never produce a silently
//! wrong history. [`verify_pack`] makes the same checks without building
//! the repository.

use crate::object::{blob_address, commit_address, tree_address, Blob, Commit, Object, Tree};
use crate::repo::Repository;
use crate::sha1::Digest;
use crate::store::ObjectStore;
use crate::timestamp::Timestamp;
use std::collections::HashMap;
use std::sync::Arc;

const MAGIC: &[u8; 5] = b"SVPK1";

/// Errors from pack reading.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PackError {
    /// The magic header is missing or wrong.
    BadMagic,
    /// The byte stream ended prematurely or a length field is inconsistent.
    Truncated,
    /// An unknown object kind byte.
    UnknownKind(u8),
    /// A stored object's recomputed address does not match its content.
    DigestMismatch {
        /// The address recorded in the pack.
        expected: Digest,
        /// The address recomputed from the payload.
        actual: Digest,
    },
    /// A string field is not valid UTF-8.
    BadString,
    /// The object graph is not closed: something references an object the
    /// pack does not contain (including any payload corruption, which moves
    /// the object to a different address).
    MissingObject(Digest),
}

impl std::fmt::Display for PackError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PackError::BadMagic => write!(f, "not a SVPK1 pack"),
            PackError::Truncated => write!(f, "truncated pack"),
            PackError::UnknownKind(k) => write!(f, "unknown object kind {k:#x}"),
            PackError::DigestMismatch { expected, actual } => write!(
                f,
                "digest mismatch: pack says {}, content is {}",
                expected.short(),
                actual.short()
            ),
            PackError::BadString => write!(f, "invalid UTF-8 in pack"),
            PackError::MissingObject(d) => {
                write!(f, "object graph not closed: missing {}", d.short())
            }
        }
    }
}

impl std::error::Error for PackError {}

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

fn put_lstr(out: &mut Vec<u8>, s: &str) {
    put_u32(out, s.len() as u32);
    out.extend_from_slice(s.as_bytes());
}

/// A bounds-checked little-endian byte reader over a borrowed buffer.
///
/// Every read is length-checked against the remaining buffer (with
/// overflow-safe arithmetic), so corrupted length fields surface as
/// [`PackError::Truncated`] instead of panics. Public because the
/// sharded corpus store (`schevo-corpus`) frames its records with the
/// same primitives.
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// A reader positioned at the start of `buf`.
    pub fn new(buf: &'a [u8]) -> Reader<'a> {
        Reader { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len().saturating_sub(self.pos)
    }

    /// Take the next `n` bytes.
    pub fn take(&mut self, n: usize) -> Result<&'a [u8], PackError> {
        // `saturating_sub` keeps the check overflow-free even if an attacker
        // smuggles a near-usize::MAX length through a corrupted header.
        if self.buf.len().saturating_sub(self.pos) < n {
            return Err(PackError::Truncated);
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Read exactly `N` bytes into a fixed array, bounds-checked by `take`.
    pub fn array<const N: usize>(&mut self) -> Result<[u8; N], PackError> {
        let s = self.take(N)?;
        let mut a = [0u8; N];
        a.copy_from_slice(s);
        Ok(a)
    }

    /// Read one byte.
    pub fn u8(&mut self) -> Result<u8, PackError> {
        Ok(self.array::<1>()?[0])
    }

    /// Read a little-endian `u16`.
    pub fn u16(&mut self) -> Result<u16, PackError> {
        Ok(u16::from_le_bytes(self.array()?))
    }

    /// Read a little-endian `u32`.
    pub fn u32(&mut self) -> Result<u32, PackError> {
        Ok(u32::from_le_bytes(self.array()?))
    }

    /// Read a little-endian `u64`.
    pub fn u64(&mut self) -> Result<u64, PackError> {
        Ok(u64::from_le_bytes(self.array()?))
    }

    /// Read a little-endian `i64`.
    pub fn i64(&mut self) -> Result<i64, PackError> {
        Ok(i64::from_le_bytes(self.array()?))
    }

    /// Read a 20-byte digest.
    pub fn digest(&mut self) -> Result<Digest, PackError> {
        Ok(Digest(self.array()?))
    }

    /// Read a `u16`-length-prefixed UTF-8 string, borrowed.
    pub fn str(&mut self) -> Result<&'a str, PackError> {
        let n = self.u16()? as usize;
        std::str::from_utf8(self.take(n)?).map_err(|_| PackError::BadString)
    }

    /// Read a `u32`-length-prefixed UTF-8 string, borrowed.
    pub fn lstr(&mut self) -> Result<&'a str, PackError> {
        let n = self.u32()? as usize;
        std::str::from_utf8(self.take(n)?).map_err(|_| PackError::BadString)
    }
}

fn write_object(out: &mut Vec<u8>, obj: &Object) {
    match obj {
        Object::Blob(b) => {
            out.push(b'B');
            put_u32(out, b.bytes().len() as u32);
            out.extend_from_slice(b.bytes());
        }
        Object::Tree(t) => {
            out.push(b'T');
            put_u32(out, t.entries.len() as u32);
            for (path, id) in &t.entries {
                put_str(out, path);
                out.extend_from_slice(&id.0);
            }
        }
        Object::Commit(c) => {
            out.push(b'C');
            out.extend_from_slice(&c.tree.0);
            out.push(c.parents.len() as u8);
            for p in &c.parents {
                out.extend_from_slice(&p.0);
            }
            put_str(out, &c.author);
            out.extend_from_slice(&c.timestamp.0.to_le_bytes());
            put_lstr(out, &c.message);
        }
    }
}

/// Serialize a repository to a pack: its refs plus every object reachable
/// from any branch tip (a per-repo export; unrelated objects in a shared
/// store are not written).
pub fn write_pack(repo: &Repository) -> Vec<u8> {
    let mut out = Vec::new();
    out.extend_from_slice(MAGIC);
    // Objects, in deterministic digest order.
    let mut ids: Vec<(Digest, Object)> = Vec::new();
    // The store has no iteration API by design; walk reachable objects from
    // all branch tips instead (exactly what a per-repo export should do).
    let mut stack: Vec<Digest> = repo
        .branch_names()
        .filter_map(|b| repo.branch_tip(b))
        .collect();
    let mut seen = std::collections::HashSet::new();
    while let Some(id) = stack.pop() {
        if !seen.insert(id) {
            continue;
        }
        let Some(obj) = repo.store().get(id) else {
            continue;
        };
        match &obj {
            Object::Commit(c) => {
                stack.push(c.tree);
                stack.extend(c.parents.iter().copied());
            }
            Object::Tree(t) => {
                stack.extend(t.entries.values().copied());
            }
            Object::Blob(_) => {}
        }
        ids.push((id, obj));
    }
    ids.sort_by_key(|(id, _)| *id);
    put_u32(&mut out, ids.len() as u32);
    for (_, obj) in &ids {
        write_object(&mut out, obj);
    }
    // Manifest.
    put_str(&mut out, &repo.name);
    put_str(&mut out, repo.head_branch());
    let mut branches: Vec<(&str, Digest)> = repo
        .branch_names()
        .filter_map(|b| repo.branch_tip(b).map(|t| (b, t)))
        .collect();
    branches.sort_by_key(|(b, _)| b.to_string());
    put_u32(&mut out, branches.len() as u32);
    for (name, tip) in branches {
        put_str(&mut out, name);
        out.extend_from_slice(&tip.0);
    }
    out
}

/// One object as a pack stores it, borrowed from the pack bytes (`'a`)
/// and the walker's scratch (`'s`). Tree entries come in the tree's
/// canonical order, the one its address covers: sorted by path, a later
/// duplicate path replacing an earlier one.
enum PackObject<'a, 's> {
    Blob(&'a [u8]),
    Tree(&'s [(&'a str, Digest)]),
    Commit {
        tree: Digest,
        parents: &'s [Digest],
        author: &'a str,
        timestamp: Timestamp,
        message: &'a str,
    },
}

/// Object kinds, for the closure check.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Kind {
    Blob,
    Tree,
    Commit,
}

/// The repository manifest at the end of a pack, borrowed from it.
struct Manifest<'a> {
    name: &'a str,
    head: &'a str,
    /// Branches in pack order, every tip verified to be in the pack.
    branches: Vec<(&'a str, Digest)>,
}

/// Sort `items` by key, a later duplicate key replacing an earlier one,
/// as inserting them in order into a map would leave them. Packs are
/// written sorted, so this only reorders a damaged one.
fn canonical<T>(items: &mut Vec<(&str, T)>) {
    if items.windows(2).all(|w| w[0].0 < w[1].0) {
        return;
    }
    // Reversed, a stable sort puts the last of each duplicate first,
    // and `dedup_by` keeps the first.
    items.reverse();
    items.sort_by(|a, b| a.0.cmp(b.0));
    items.dedup_by(|later, kept| later.0 == kept.0);
}

/// The one pack decoder under [`read_pack`] and [`verify_pack`]: reads
/// every object, recomputes its address and hands both to `object` in
/// pack order; then checks closure (every reference resolves to an
/// object of the right kind), reads the manifest and checks that every
/// branch tip is in the pack. Errors come in that order, so both
/// callers fail a damaged pack with the same error.
fn walk_pack<'a>(
    bytes: &'a [u8],
    mut object: impl FnMut(Digest, PackObject<'a, '_>),
) -> Result<Manifest<'a>, PackError> {
    let mut r = Reader::new(bytes);
    if r.take(5)? != MAGIC {
        return Err(PackError::BadMagic);
    }
    let count = r.u32()? as usize;
    // The count is read from the input: every object takes at least
    // five bytes, so a count beyond that must not size an allocation.
    let mut kinds: HashMap<Digest, Kind> = HashMap::with_capacity(count.min(bytes.len() / 5));
    // Every reference to resolve, in the order the check visits them:
    // objects in pack order, a commit's tree before its parents, a
    // tree's blobs in path order.
    let mut refs: Vec<(Digest, Kind)> = Vec::new();
    let mut entries: Vec<(&'a str, Digest)> = Vec::new();
    let mut parents: Vec<Digest> = Vec::new();
    for _ in 0..count {
        let (id, kind, obj) = match r.u8()? {
            b'B' => {
                let n = r.u32()? as usize;
                let data = r.take(n)?;
                (blob_address(data), Kind::Blob, PackObject::Blob(data))
            }
            b'T' => {
                let n = r.u32()? as usize;
                entries.clear();
                for _ in 0..n {
                    let path = r.str()?;
                    entries.push((path, r.digest()?));
                }
                canonical(&mut entries);
                refs.extend(entries.iter().map(|&(_, blob)| (blob, Kind::Blob)));
                let id = tree_address(entries.iter().map(|(path, blob)| (*path, blob)));
                (id, Kind::Tree, PackObject::Tree(&entries))
            }
            b'C' => {
                let tree = r.digest()?;
                let parent_count = r.u8()? as usize;
                parents.clear();
                for _ in 0..parent_count {
                    parents.push(r.digest()?);
                }
                let author = r.str()?;
                let timestamp = Timestamp(r.i64()?);
                let message = r.lstr()?;
                refs.push((tree, Kind::Tree));
                refs.extend(parents.iter().map(|&p| (p, Kind::Commit)));
                let id = commit_address(tree, &parents, author, timestamp, message);
                let obj = PackObject::Commit {
                    tree,
                    parents: &parents,
                    author,
                    timestamp,
                    message,
                };
                (id, Kind::Commit, obj)
            }
            k => return Err(PackError::UnknownKind(k)),
        };
        kinds.entry(id).or_insert(kind);
        object(id, obj);
    }
    // Closure: payload corruption moves an object to a new address, so
    // this also catches bit flips anywhere in the object section.
    if let Some(&(id, _)) = refs.iter().find(|(id, kind)| kinds.get(id) != Some(kind)) {
        return Err(PackError::MissingObject(id));
    }
    let name = r.str()?;
    let head = r.str()?;
    let branch_count = r.u32()? as usize;
    let mut branches = Vec::with_capacity(branch_count.min(r.remaining() / 22));
    for _ in 0..branch_count {
        let branch = r.str()?;
        let tip = r.digest()?;
        if !kinds.contains_key(&tip) {
            return Err(PackError::Truncated);
        }
        branches.push((branch, tip));
    }
    Ok(Manifest {
        name,
        head,
        branches,
    })
}

/// Load a repository from a pack, verifying every object's address.
///
/// # Errors
///
/// See [`PackError`].
pub fn read_pack(bytes: &[u8]) -> Result<Repository, PackError> {
    let mut objects = HashMap::new();
    let manifest = walk_pack(bytes, |id, obj| {
        objects.entry(id).or_insert_with(|| match obj {
            PackObject::Blob(data) => Object::Blob(Blob::new(data)),
            PackObject::Tree(entries) => Object::Tree(Arc::new(Tree {
                entries: entries
                    .iter()
                    .map(|&(path, blob)| (path.to_string(), blob))
                    .collect(),
            })),
            PackObject::Commit {
                tree,
                parents,
                author,
                timestamp,
                message,
            } => Object::Commit(Arc::new(Commit {
                tree,
                parents: parents.to_vec(),
                author: author.to_string(),
                timestamp,
                message: message.to_string(),
            })),
        });
    })?;
    let store = Arc::new(ObjectStore::from_objects(objects));
    let mut repo = Repository::with_store(manifest.name, store);
    for (branch, tip) in manifest.branches {
        repo.set_branch(branch, tip);
    }
    if let Some(tip) = repo.branch_tip(manifest.head) {
        // The tip was verified above, so checkout can only fail if the
        // repository is inconsistent: surface that as a corrupt pack
        // rather than panicking.
        if repo.checkout(manifest.head).is_err() {
            return Err(PackError::MissingObject(tip));
        }
    }
    Ok(repo)
}

/// Verify a pack exactly as [`read_pack`] does (every object's address,
/// closure, every branch tip) without building its objects or its
/// repository. Returns the branch tips sorted by branch name: what
/// `read_pack(bytes)?.branch_tip(name)` reports for each branch.
///
/// # Errors
///
/// The error [`read_pack`] returns for the same bytes.
pub fn verify_pack(bytes: &[u8]) -> Result<Vec<(&str, Digest)>, PackError> {
    let mut tips = walk_pack(bytes, |_, _| {})?.branches;
    canonical(&mut tips);
    Ok(tips)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::history::{file_history, WalkStrategy};
    use crate::repo::FileChange;

    fn sample_repo() -> Repository {
        let mut r = Repository::new("pack/demo");
        r.commit(
            [FileChange::write("s.sql", "CREATE TABLE a (x INT);")],
            "ann",
            Timestamp::from_date(2018, 1, 1),
            "v0",
        )
        .unwrap();
        r.branch_and_checkout("side").unwrap();
        r.commit(
            [FileChange::write("s.sql", "CREATE TABLE a (x INT, y INT);")],
            "ben",
            Timestamp::from_date(2018, 2, 1),
            "side edit",
        )
        .unwrap();
        r.checkout(Repository::DEFAULT_BRANCH).unwrap();
        r.commit(
            [FileChange::write("README", "hello")],
            "ann",
            Timestamp::from_date(2018, 3, 1),
            "docs",
        )
        .unwrap();
        r.merge("side", "ann", Timestamp::from_date(2018, 4, 1), "merge side")
            .unwrap();
        r
    }

    #[test]
    fn roundtrip_preserves_history() {
        let repo = sample_repo();
        let pack = write_pack(&repo);
        let loaded = read_pack(&pack).unwrap();
        assert_eq!(loaded.name, "pack/demo");
        assert_eq!(loaded.head_branch(), Repository::DEFAULT_BRANCH);
        assert_eq!(loaded.head(), repo.head());
        let a = file_history(&repo, "s.sql", WalkStrategy::FirstParent).unwrap();
        let b = file_history(&loaded, "s.sql", WalkStrategy::FirstParent).unwrap();
        assert_eq!(a, b);
        // Both branches survive.
        assert_eq!(loaded.branch_tip("side"), repo.branch_tip("side"));
    }

    #[test]
    fn pack_is_deterministic() {
        let repo = sample_repo();
        assert_eq!(write_pack(&repo), write_pack(&repo));
    }

    #[test]
    fn bad_magic_rejected() {
        assert!(matches!(read_pack(b"NOPE!rest"), Err(PackError::BadMagic)));
        assert!(matches!(read_pack(b""), Err(PackError::Truncated)));
    }

    #[test]
    fn truncation_rejected() {
        let pack = write_pack(&sample_repo());
        for cut in [6, pack.len() / 2, pack.len() - 1] {
            assert!(
                read_pack(&pack[..cut]).is_err(),
                "cut at {cut} must not load"
            );
        }
    }

    #[test]
    fn corruption_detected() {
        let repo = sample_repo();
        let pack = write_pack(&repo);
        // Flip one byte in every position of the object section in turn: no
        // flip may load successfully AND reproduce the original history.
        let orig = file_history(&repo, "s.sql", WalkStrategy::FirstParent).unwrap();
        for flip_at in (9..pack.len().saturating_sub(40)).step_by(37) {
            let mut bad = pack.clone();
            bad[flip_at] ^= 0x5a;
            if let Ok(loaded) = read_pack(&bad) {
                if let Ok(h) = file_history(&loaded, "s.sql", WalkStrategy::FirstParent) {
                    assert_ne!(
                        h, orig,
                        "flip at {flip_at} loaded and reproduced the original"
                    );
                }
            }
        }
    }

    #[test]
    fn unsorted_and_duplicate_entries_read_as_a_map_would_hold_them() {
        // A pack no writer produces: tree entries and branches out of
        // order, each with a duplicate name whose later entry wins.
        let (x, y) = (Blob::new(&b"x"[..]), Blob::new(&b"y"[..]));
        let mut tree = Tree::new();
        tree.insert("a.sql", x.id());
        tree.insert("b.sql", y.id());
        let commit = Commit {
            tree: tree.id(),
            parents: vec![],
            author: "ann".into(),
            timestamp: Timestamp(7),
            message: "v0".into(),
        };
        let mut pack = MAGIC.to_vec();
        put_u32(&mut pack, 4);
        for obj in [Object::Blob(x.clone()), Object::Blob(y.clone())] {
            write_object(&mut pack, &obj);
        }
        pack.push(b'T');
        put_u32(&mut pack, 3);
        for (path, id) in [("b.sql", x.id()), ("a.sql", x.id()), ("b.sql", y.id())] {
            put_str(&mut pack, path);
            pack.extend_from_slice(&id.0);
        }
        write_object(&mut pack, &Object::Commit(Arc::new(commit.clone())));
        put_str(&mut pack, "pack/odd");
        put_str(&mut pack, "main");
        put_u32(&mut pack, 3);
        for (branch, tip) in [("main", x.id()), ("dev", commit.id()), ("main", commit.id())] {
            put_str(&mut pack, branch);
            pack.extend_from_slice(&tip.0);
        }
        let repo = read_pack(&pack).unwrap();
        assert_eq!(repo.head(), Some(commit.id()));
        assert_eq!(repo.store().tree(commit.tree).as_deref(), Some(&tree));
        let tips = verify_pack(&pack).unwrap();
        assert_eq!(tips, [("dev", commit.id()), ("main", commit.id())]);
    }

    #[test]
    fn empty_repository_roundtrips() {
        let repo = Repository::new("pack/empty");
        let loaded = read_pack(&write_pack(&repo)).unwrap();
        assert_eq!(loaded.name, "pack/empty");
        assert!(loaded.head().is_none());
    }
}
