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
///
/// A text read out of a blob by a history walk carries the blob's address
/// ([`Text::id`]), so keying a version costs no pass over its bytes.
#[derive(Clone)]
pub struct Text {
    text: Arc<String>,
    /// The address of the blob the text is the content of, when known;
    /// cleared by [`Text::to_mut`].
    id: Option<Digest>,
}

impl Text {
    /// The text as a string slice.
    pub fn as_str(&self) -> &str {
        &self.text
    }

    /// A mutable string, copied first if any other clone shares it. The
    /// text no longer carries a blob address.
    pub fn to_mut(&mut self) -> &mut String {
        self.id = None;
        Arc::make_mut(&mut self.text)
    }

    /// The address of a blob holding exactly this text: the one it was
    /// read out of, or else computed from its bytes.
    pub fn id(&self) -> Digest {
        self.id.unwrap_or_else(|| blob_address(self.as_bytes()))
    }
}

impl PartialEq for Text {
    /// Equal contents, whether or not either carries its address.
    fn eq(&self, other: &Text) -> bool {
        self.text == other.text
    }
}

impl Eq for Text {}

impl Deref for Text {
    type Target = str;
    fn deref(&self) -> &str {
        &self.text
    }
}

impl From<String> for Text {
    /// Moves the string in; its buffer becomes the text's.
    fn from(s: String) -> Text {
        Text {
            text: Arc::new(s),
            id: None,
        }
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
        blob_address(self.bytes())
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

    /// [`Blob::as_text`] of the blob stored at `id`, carrying that address
    /// when the text is the blob's own bytes (valid UTF-8).
    pub(crate) fn text_at(&self, id: Digest) -> Text {
        let mut text = self.as_text();
        if let BlobData::Text(_) = self.data {
            text.id = Some(id);
        }
        text
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
        tree_address(self.entries.iter().map(|(path, id)| (path.as_str(), id)))
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
        commit_address(
            self.tree,
            &self.parents,
            &self.author,
            self.timestamp,
            &self.message,
        )
    }
}

/// `n` in decimal (after a `-` when `negative`), as `format!` writes it,
/// in the tail of `buf`.
fn decimal(n: u64, negative: bool, buf: &mut [u8; 21]) -> &[u8] {
    let mut rest = n;
    let mut at = buf.len();
    loop {
        at -= 1;
        buf[at] = b'0' + (rest % 10) as u8;
        rest /= 10;
        if rest == 0 {
            break;
        }
    }
    if negative {
        at -= 1;
        buf[at] = b'-';
    }
    &buf[at..]
}

/// A hasher primed with git's object header, `kind len\0`; the payload,
/// `len` bytes in all, follows it.
fn address_hasher(kind: &str, len: usize) -> Sha1 {
    let mut h = Sha1::new();
    let mut digits = [0u8; 21];
    h.update(kind.as_bytes());
    h.update(b" ");
    h.update(decimal(len as u64, false, &mut digits));
    h.update(b"\0");
    h
}

/// A blob's address: `blob <len>\0<data>`, exactly git's scheme.
pub(crate) fn blob_address(data: &[u8]) -> Digest {
    let mut h = address_hasher("blob", data.len());
    h.update(data);
    h.finalize()
}

/// A tree's address over its entries in path order, each `path \0 id`.
pub(crate) fn tree_address<'e>(
    entries: impl Iterator<Item = (&'e str, &'e Digest)> + Clone,
) -> Digest {
    let len = entries.clone().map(|(path, _)| path.len() + 1 + 20).sum();
    let mut h = address_hasher("tree", len);
    for (path, id) in entries {
        h.update(path.as_bytes());
        h.update(&[0]);
        h.update(&id.0);
    }
    h.finalize()
}

/// A commit's address from its fields. The payload is `tree <hex>\n`,
/// `parent <hex>\n` per parent, `author <name> <secs>\n`, a blank line
/// and the message; it is streamed into the hasher, never built.
pub(crate) fn commit_address(
    tree: Digest,
    parents: &[Digest],
    author: &str,
    timestamp: Timestamp,
    message: &str,
) -> Digest {
    let mut digits = [0u8; 21];
    let secs = decimal(timestamp.0.unsigned_abs(), timestamp.0 < 0, &mut digits);
    let len = "tree \n".len()
        + 40
        + parents.len() * ("parent \n".len() + 40)
        + "author  \n\n".len()
        + author.len()
        + secs.len()
        + message.len();
    let mut h = address_hasher("commit", len);
    h.update(b"tree ");
    h.update(&tree.hex_bytes());
    h.update(b"\n");
    for p in parents {
        h.update(b"parent ");
        h.update(&p.hex_bytes());
        h.update(b"\n");
    }
    h.update(b"author ");
    h.update(author.as_bytes());
    h.update(b" ");
    h.update(secs);
    h.update(b"\n\n");
    h.update(message.as_bytes());
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
        assert_eq!(raw.id(), blob_address(&[b'a', 0xff, b'b']));
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
    fn text_carries_its_blob_address_until_written() {
        let blob = Blob::from("CREATE TABLE t (id INT);".to_string());
        let mut text = blob.text_at(blob.id());
        assert_eq!(text.id, Some(blob.id()));
        assert_eq!(text.id(), Text::from("CREATE TABLE t (id INT);").id());
        assert_eq!(text, blob.as_text(), "the address is not part of equality");
        text.to_mut().push(' ');
        assert_eq!(text.id, None, "a written text drops the address");
        assert_eq!(text.id(), blob_address(b"CREATE TABLE t (id INT); "));
        // A lossy text is not its blob's bytes, so it keeps no address.
        let raw = Blob::new(vec![b'a', 0xff]);
        assert_eq!(raw.text_at(raw.id()).id, None);
        assert_eq!(
            raw.text_at(raw.id()).id(),
            blob_address("a\u{fffd}".as_bytes())
        );
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
    fn streamed_addresses_equal_the_built_payloads() {
        // The payloads as they were built before being streamed.
        fn built(kind: &str, payload: &[u8]) -> Digest {
            let mut bytes = format!("{kind} {}\0", payload.len()).into_bytes();
            bytes.extend_from_slice(payload);
            crate::sha1::sha1(&bytes)
        }
        let blob = Blob::new(&b"x"[..]).id();
        for secs in [0, 7, -1, 1_514_764_800, i64::MAX, i64::MIN] {
            for parents in [vec![], vec![blob], vec![blob, Tree::new().id()]] {
                let c = Commit {
                    tree: blob,
                    parents: parents.clone(),
                    author: "ann".into(),
                    timestamp: Timestamp(secs),
                    message: if secs < 0 {
                        String::new()
                    } else {
                        "merge\nbody".into()
                    },
                };
                let mut payload = format!("tree {}\n", c.tree.to_hex());
                for p in &parents {
                    payload += &format!("parent {}\n", p.to_hex());
                }
                payload += &format!("author {} {}\n\n{}", c.author, secs, c.message);
                assert_eq!(c.id(), built("commit", payload.as_bytes()), "{secs}");
            }
        }
        let mut t = Tree::new();
        t.insert("b.sql", blob);
        t.insert("a/ü.sql", blob);
        let mut payload = Vec::new();
        for (path, id) in &t.entries {
            payload.extend_from_slice(path.as_bytes());
            payload.push(0);
            payload.extend_from_slice(&id.0);
        }
        assert_eq!(t.id(), built("tree", &payload));
        assert_eq!(Tree::new().id(), built("tree", b""));
        assert_eq!(Blob::new(vec![7u8; 1000]).id(), built("blob", &[7u8; 1000]));
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
