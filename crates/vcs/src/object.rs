//! Object model: blobs, trees and commits, content-addressed like git.
//!
//! Serialization is a simple canonical byte format (`kind length\0payload`)
//! so that equal objects always share an address and the address never
//! depends on process state.

use crate::sha1::{Digest, Sha1};
use crate::timestamp::Timestamp;
use bytes::Bytes;
use std::collections::BTreeMap;
use std::fmt;
use std::ops::Deref;
use std::sync::Arc;

/// Immutable, shared UTF-8 text: a file version's content. Cloning it, or
/// reading it out of the [`Blob`] that holds it, copies no bytes; every
/// clone points at the same buffer. [`Text::to_mut`] copies on write.
#[derive(Clone, PartialEq, Eq)]
pub struct Text(Arc<String>);

impl Text {
    /// The text as a string slice.
    pub fn as_str(&self) -> &str {
        &self.0
    }

    /// A mutable string, copied first if any other clone shares it.
    pub fn to_mut(&mut self) -> &mut String {
        Arc::make_mut(&mut self.0)
    }
}

impl Deref for Text {
    type Target = str;
    fn deref(&self) -> &str {
        &self.0
    }
}

impl From<String> for Text {
    /// Moves the string in; its buffer becomes the text's.
    fn from(s: String) -> Text {
        Text(Arc::new(s))
    }
}

impl From<&str> for Text {
    fn from(s: &str) -> Text {
        Text::from(s.to_string())
    }
}

impl PartialEq<&str> for Text {
    fn eq(&self, other: &&str) -> bool {
        self.as_str() == *other
    }
}

impl fmt::Debug for Text {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self.as_str(), f)
    }
}

/// File contents. Valid UTF-8 is held as [`Text`], so a file version read
/// out of the blob shares its buffer; anything else as raw bytes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Blob {
    data: BlobData,
}

#[derive(Debug, Clone, PartialEq, Eq)]
enum BlobData {
    Text(Text),
    /// Bytes that are not valid UTF-8 (never valid UTF-8, so equal
    /// contents always take the same variant).
    Raw(Bytes),
}

impl Blob {
    /// Wrap bytes into a blob; a `Vec` of valid UTF-8 moves in uncopied.
    pub fn new(data: impl Into<Vec<u8>>) -> Self {
        let data = match String::from_utf8(data.into()) {
            Ok(text) => BlobData::Text(text.into()),
            Err(e) => BlobData::Raw(Bytes::from(e.into_bytes())),
        };
        Blob { data }
    }

    /// The raw bytes of the file version.
    pub fn bytes(&self) -> &[u8] {
        match &self.data {
            BlobData::Text(t) => t.as_bytes(),
            BlobData::Raw(b) => b,
        }
    }

    /// The blob's content address (`blob <len>\0<data>`, exactly git's
    /// scheme).
    pub fn id(&self) -> Digest {
        let data = self.bytes();
        address("blob", data.len(), [data])
    }

    /// Interpret the blob as UTF-8 text (lossy). Valid UTF-8 is shared,
    /// not copied; other bytes are decoded into a new buffer with
    /// replacement characters.
    pub fn as_text(&self) -> Text {
        match &self.data {
            BlobData::Text(t) => t.clone(),
            BlobData::Raw(b) => String::from_utf8_lossy(b).into_owned().into(),
        }
    }
}

impl From<String> for Blob {
    /// Moves the string in uncopied: its buffer becomes the blob's.
    fn from(text: String) -> Blob {
        Blob {
            data: BlobData::Text(text.into()),
        }
    }
}

/// A snapshot of the working tree: a flat, sorted map of repository-relative
/// paths to blob ids. (Real git nests trees per directory; a flat tree has
/// the same observable semantics for history mining and far simpler
/// invariants.)
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Tree {
    /// Path → blob id.
    pub entries: BTreeMap<String, Digest>,
}

impl Tree {
    /// An empty tree.
    pub fn new() -> Self {
        Tree::default()
    }

    /// The tree's content address.
    pub fn id(&self) -> Digest {
        // Each entry is `path \0 id`.
        let len = self.entries.keys().map(|path| path.len() + 1 + 20).sum();
        let parts = self
            .entries
            .iter()
            .flat_map(|(path, id)| [path.as_bytes(), &[0], &id.0]);
        address("tree", len, parts)
    }

    /// The blob id at `path`, if present.
    pub fn get(&self, path: &str) -> Option<Digest> {
        self.entries.get(path).copied()
    }

    /// Insert or replace the entry at `path`.
    pub fn insert(&mut self, path: impl Into<String>, blob: Digest) {
        self.entries.insert(path.into(), blob);
    }

    /// Remove the entry at `path`; true if it existed.
    pub fn remove(&mut self, path: &str) -> bool {
        self.entries.remove(path).is_some()
    }
}

/// A commit: a tree snapshot plus provenance.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Commit {
    /// Id of the snapshot tree.
    pub tree: Digest,
    /// Parent commit ids; empty for the root, two or more for merges. The
    /// first parent is the mainline, as in git.
    pub parents: Vec<Digest>,
    /// Author name.
    pub author: String,
    /// Commit timestamp.
    pub timestamp: Timestamp,
    /// Commit message.
    pub message: String,
}

impl Commit {
    /// The commit's content address.
    pub fn id(&self) -> Digest {
        let mut payload = Vec::new();
        payload.extend_from_slice(b"tree ");
        payload.extend_from_slice(self.tree.to_hex().as_bytes());
        payload.push(b'\n');
        for p in &self.parents {
            payload.extend_from_slice(b"parent ");
            payload.extend_from_slice(p.to_hex().as_bytes());
            payload.push(b'\n');
        }
        payload.extend_from_slice(format!("author {} {}\n", self.author, self.timestamp.0).as_bytes());
        payload.push(b'\n');
        payload.extend_from_slice(self.message.as_bytes());
        address("commit", payload.len(), [&payload[..]])
    }
}

/// Git's object address: SHA-1 of `kind len\0` followed by the payload,
/// streamed part by part; `len` is the payload's total length.
fn address<'a>(kind: &str, len: usize, payload: impl IntoIterator<Item = &'a [u8]>) -> Digest {
    let mut h = Sha1::new();
    h.update(kind.as_bytes());
    h.update(b" ");
    h.update(len.to_string().as_bytes());
    h.update(b"\0");
    for part in payload {
        h.update(part);
    }
    h.finalize()
}

/// Any stored object. Trees and commits are shared, so cloning an object
/// out of the store copies no paths or strings.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Object {
    /// File contents.
    Blob(Blob),
    /// Snapshot.
    Tree(Arc<Tree>),
    /// Commit.
    Commit(Arc<Commit>),
}

impl Object {
    /// The object's content address.
    pub fn id(&self) -> Digest {
        match self {
            Object::Blob(b) => b.id(),
            Object::Tree(t) => t.id(),
            Object::Commit(c) => c.id(),
        }
    }

    /// Object kind as a short string (for stats and errors).
    pub fn kind(&self) -> &'static str {
        match self {
            Object::Blob(_) => "blob",
            Object::Tree(_) => "tree",
            Object::Commit(_) => "commit",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn blob_address_matches_git() {
        // Same vector as the sha1 module: git hash-object of "hello".
        let b = Blob::new(&b"hello"[..]);
        assert_eq!(b.id().to_hex(), "b6fc4c620b67d95f953a5c1c1230aaab5db5a1b0");
    }

    #[test]
    fn equal_content_equal_address() {
        let a = Blob::new(&b"same"[..]);
        let b = Blob::from("same".to_string());
        assert_eq!(a.id(), b.id());
        assert_ne!(a.id(), Blob::new(&b"different"[..]).id());
    }

    #[test]
    fn text_and_raw_blobs() {
        let text = "CREATE TABLE t (id INT);".to_string();
        let ptr = text.as_ptr();
        let blob = Blob::from(text);
        assert_eq!(blob.bytes().as_ptr(), ptr, "the string moved in uncopied");
        assert_eq!(blob.as_text().as_ptr(), ptr, "as_text shares the buffer");
        assert_eq!(blob, Blob::new(&b"CREATE TABLE t (id INT);"[..]));

        let raw = Blob::new(vec![b'a', 0xff, b'b']);
        assert_eq!(raw.bytes(), [b'a', 0xff, b'b']);
        assert_eq!(raw.as_text(), "a\u{fffd}b");
        assert_eq!(raw.id(), address("blob", 3, [&[b'a', 0xff, b'b'][..]]));
    }

    #[test]
    fn text_copies_on_write() {
        let a = Text::from("v1");
        let mut b = a.clone();
        assert_eq!(a.as_ptr(), b.as_ptr());
        b.to_mut().push('!');
        assert_eq!((a.as_str(), b.as_str()), ("v1", "v1!"));
    }

    #[test]
    fn tree_address_is_order_independent() {
        let blob = Blob::new(&b"x"[..]).id();
        let mut t1 = Tree::new();
        t1.insert("b.sql", blob);
        t1.insert("a.sql", blob);
        let mut t2 = Tree::new();
        t2.insert("a.sql", blob);
        t2.insert("b.sql", blob);
        assert_eq!(t1.id(), t2.id());
    }

    #[test]
    fn tree_address_depends_on_paths_and_blobs() {
        let x = Blob::new(&b"x"[..]).id();
        let y = Blob::new(&b"y"[..]).id();
        let mut t1 = Tree::new();
        t1.insert("a.sql", x);
        let mut t2 = Tree::new();
        t2.insert("a.sql", y);
        let mut t3 = Tree::new();
        t3.insert("b.sql", x);
        assert_ne!(t1.id(), t2.id());
        assert_ne!(t1.id(), t3.id());
    }

    #[test]
    fn commit_address_covers_all_fields() {
        let tree = Tree::new().id();
        let base = Commit {
            tree,
            parents: vec![],
            author: "alice".into(),
            timestamp: Timestamp(1_000),
            message: "init".into(),
        };
        let mut other = base.clone();
        other.message = "init!".into();
        assert_ne!(base.id(), other.id());
        let mut other = base.clone();
        other.timestamp = Timestamp(1_001);
        assert_ne!(base.id(), other.id());
        let mut other = base.clone();
        other.parents = vec![base.id()];
        assert_ne!(base.id(), other.id());
    }

    #[test]
    fn tree_mutation_api() {
        let mut t = Tree::new();
        let b = Blob::new(&b"z"[..]).id();
        t.insert("s.sql", b);
        assert_eq!(t.get("s.sql"), Some(b));
        assert!(t.remove("s.sql"));
        assert!(!t.remove("s.sql"));
        assert_eq!(t.get("s.sql"), None);
    }
}
