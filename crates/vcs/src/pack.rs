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
//! wrong history.

use crate::object::{Blob, Commit, Object, Tree};
use crate::repo::Repository;
use crate::sha1::Digest;
use crate::store::ObjectStore;
use crate::timestamp::Timestamp;
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

    /// Read a `u16`-length-prefixed UTF-8 string.
    pub fn string(&mut self) -> Result<String, PackError> {
        let n = self.u16()? as usize;
        String::from_utf8(self.take(n)?.to_vec()).map_err(|_| PackError::BadString)
    }

    /// Read a `u32`-length-prefixed UTF-8 string.
    pub fn lstring(&mut self) -> Result<String, PackError> {
        let n = self.u32()? as usize;
        String::from_utf8(self.take(n)?.to_vec()).map_err(|_| PackError::BadString)
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

fn read_object(r: &mut Reader<'_>) -> Result<Object, PackError> {
    match r.u8()? {
        b'B' => {
            let n = r.u32()? as usize;
            Ok(Object::Blob(Blob::new(r.take(n)?)))
        }
        b'T' => {
            let n = r.u32()? as usize;
            let mut tree = Tree::new();
            for _ in 0..n {
                let path = r.string()?;
                let id = r.digest()?;
                tree.insert(path, id);
            }
            Ok(Object::Tree(Arc::new(tree)))
        }
        b'C' => {
            let tree = r.digest()?;
            let parent_count = r.u8()? as usize;
            let mut parents = Vec::with_capacity(parent_count);
            for _ in 0..parent_count {
                parents.push(r.digest()?);
            }
            let author = r.string()?;
            let timestamp = Timestamp(r.i64()?);
            let message = r.lstring()?;
            Ok(Object::Commit(Arc::new(Commit {
                tree,
                parents,
                author,
                timestamp,
                message,
            })))
        }
        k => Err(PackError::UnknownKind(k)),
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

/// Load a repository from a pack, verifying every object's address.
///
/// # Errors
///
/// See [`PackError`].
pub fn read_pack(bytes: &[u8]) -> Result<Repository, PackError> {
    let mut r = Reader { buf: bytes, pos: 0 };
    if r.take(5)? != MAGIC {
        return Err(PackError::BadMagic);
    }
    let store = Arc::new(ObjectStore::new());
    let count = r.u32()? as usize;
    // The count is read from the input: every object takes at least one
    // byte, so a count beyond the pack's length is corrupt and must not
    // size an allocation.
    let mut loaded: Vec<Digest> = Vec::with_capacity(count.min(bytes.len()));
    for _ in 0..count {
        let obj = read_object(&mut r)?;
        loaded.push(store.put(obj));
    }
    // Closure verification: every reference must resolve. Payload
    // corruption moves an object to a new address, so this also catches
    // bit flips anywhere in the object section.
    for id in &loaded {
        match store.get(*id) {
            Some(Object::Commit(c)) => {
                if store.tree(c.tree).is_none() {
                    return Err(PackError::MissingObject(c.tree));
                }
                for p in &c.parents {
                    if store.commit(*p).is_none() {
                        return Err(PackError::MissingObject(*p));
                    }
                }
            }
            Some(Object::Tree(t)) => {
                for b in t.entries.values() {
                    if store.blob(*b).is_none() {
                        return Err(PackError::MissingObject(*b));
                    }
                }
            }
            _ => {}
        }
    }
    let name = r.string()?;
    let head = r.string()?;
    let branch_count = r.u32()? as usize;
    let mut repo = Repository::with_store(name, Arc::clone(&store));
    for _ in 0..branch_count {
        let branch = r.string()?;
        let tip = r.digest()?;
        // Verify the tip resolves to a commit whose digest matches.
        match store.get(tip) {
            Some(obj) if obj.id() == tip => {}
            Some(obj) => {
                return Err(PackError::DigestMismatch {
                    expected: tip,
                    actual: obj.id(),
                })
            }
            None => return Err(PackError::Truncated),
        }
        repo.set_branch(branch, tip);
    }
    if let Some(tip) = repo.branch_tip(&head) {
        // The tip was digest-verified above, so checkout can only fail if
        // the store is inconsistent — surface that as a corrupt pack rather
        // than panicking.
        if repo.checkout(&head).is_err() {
            return Err(PackError::MissingObject(tip));
        }
    }
    Ok(repo)
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
    fn empty_repository_roundtrips() {
        let repo = Repository::new("pack/empty");
        let loaded = read_pack(&write_pack(&repo)).unwrap();
        assert_eq!(loaded.name, "pack/empty");
        assert!(loaded.head().is_none());
    }
}
