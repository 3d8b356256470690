//! Thread-safe content-addressed object store.
//!
//! A single store may back many repositories (as a forge's shared object
//! database would); the mining pipeline reads it from multiple extraction
//! threads, so reads take a shared lock.

use crate::object::{Blob, Commit, Object, Tree};
use crate::sha1::Digest;
use parking_lot::RwLock;
use std::collections::HashMap;
use std::sync::Arc;

/// Summary statistics of a store's contents.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct StoreStats {
    /// Number of blobs.
    pub blobs: usize,
    /// Number of trees.
    pub trees: usize,
    /// Number of commits.
    pub commits: usize,
    /// Total payload bytes across blobs (deduplicated).
    pub blob_bytes: usize,
}

/// A content-addressed object database.
#[derive(Debug, Default)]
pub struct ObjectStore {
    objects: RwLock<HashMap<Digest, Object>>,
}

impl ObjectStore {
    /// Create an empty store.
    pub fn new() -> Self {
        ObjectStore::default()
    }

    /// Create an empty store behind an [`Arc`], ready to share.
    pub fn shared() -> Arc<Self> {
        Arc::new(ObjectStore::new())
    }

    /// A store holding `objects`, each keyed by its address (the pack
    /// reader computes them as it decodes).
    pub(crate) fn from_objects(objects: HashMap<Digest, Object>) -> Self {
        ObjectStore {
            objects: RwLock::new(objects),
        }
    }

    /// Insert any object, returning its address. Idempotent: storing equal
    /// content twice is a no-op (deduplication).
    pub fn put(&self, obj: Object) -> Digest {
        let id = obj.id();
        self.objects.write().entry(id).or_insert(obj);
        id
    }

    /// Store a blob.
    pub fn put_blob(&self, blob: Blob) -> Digest {
        self.put(Object::Blob(blob))
    }

    /// Store a tree.
    pub fn put_tree(&self, tree: Tree) -> Digest {
        self.put(Object::Tree(Arc::new(tree)))
    }

    /// Store a commit.
    pub fn put_commit(&self, commit: Commit) -> Digest {
        self.put(Object::Commit(Arc::new(commit)))
    }

    /// Fetch any object by address. Objects are shared handles: fetching
    /// one copies no content, paths or strings.
    pub fn get(&self, id: Digest) -> Option<Object> {
        self.objects.read().get(&id).cloned()
    }

    /// Fetch a blob; `None` when absent or not a blob.
    pub fn blob(&self, id: Digest) -> Option<Blob> {
        match self.get(id)? {
            Object::Blob(b) => Some(b),
            _ => None,
        }
    }

    /// Fetch a tree; `None` when absent or not a tree.
    pub fn tree(&self, id: Digest) -> Option<Arc<Tree>> {
        match self.get(id)? {
            Object::Tree(t) => Some(t),
            _ => None,
        }
    }

    /// Fetch a commit; `None` when absent or not a commit.
    pub fn commit(&self, id: Digest) -> Option<Arc<Commit>> {
        match self.get(id)? {
            Object::Commit(c) => Some(c),
            _ => None,
        }
    }

    /// Whether an object with this address exists.
    pub fn contains(&self, id: Digest) -> bool {
        self.objects.read().contains_key(&id)
    }

    /// Count objects by kind.
    pub fn stats(&self) -> StoreStats {
        let guard = self.objects.read();
        let mut s = StoreStats::default();
        for obj in guard.values() {
            match obj {
                Object::Blob(b) => {
                    s.blobs += 1;
                    s.blob_bytes += b.bytes().len();
                }
                Object::Tree(_) => s.trees += 1,
                Object::Commit(_) => s.commits += 1,
            }
        }
        s
    }

    /// Total number of stored objects.
    pub fn len(&self) -> usize {
        self.objects.read().len()
    }

    /// Whether the store is empty.
    pub fn is_empty(&self) -> bool {
        self.objects.read().is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::timestamp::Timestamp;

    #[test]
    fn put_get_roundtrip() {
        let store = ObjectStore::new();
        let id = store.put_blob(Blob::new(&b"abc"[..]));
        assert_eq!(store.blob(id).unwrap().as_text(), "abc");
        assert!(store.contains(id));
        assert!(store.tree(id).is_none(), "kind-checked accessors");
    }

    #[test]
    fn deduplication() {
        let store = ObjectStore::new();
        let a = store.put_blob(Blob::new(&b"same"[..]));
        let b = store.put_blob(Blob::new(&b"same"[..]));
        assert_eq!(a, b);
        assert_eq!(store.len(), 1);
        let stats = store.stats();
        assert_eq!(stats.blobs, 1);
        assert_eq!(stats.blob_bytes, 4);
    }

    #[test]
    fn stats_count_kinds() {
        let store = ObjectStore::new();
        let blob = store.put_blob(Blob::new(&b"x"[..]));
        let mut tree = Tree::new();
        tree.insert("f", blob);
        let tree_id = store.put_tree(tree);
        store.put_commit(Commit {
            tree: tree_id,
            parents: vec![],
            author: "a".into(),
            timestamp: Timestamp(0),
            message: "m".into(),
        });
        let s = store.stats();
        assert_eq!((s.blobs, s.trees, s.commits), (1, 1, 1));
        assert!(!store.is_empty());
    }

    #[test]
    fn concurrent_writes_dedupe() {
        let store = ObjectStore::shared();
        let mut handles = Vec::new();
        for t in 0..8 {
            let store = Arc::clone(&store);
            handles.push(std::thread::spawn(move || {
                for i in 0..100 {
                    // Half the content is shared across threads.
                    let content = if i % 2 == 0 {
                        format!("shared-{i}")
                    } else {
                        format!("thread-{t}-{i}")
                    };
                    store.put_blob(Blob::new(content.into_bytes()));
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        // 50 shared + 8 * 50 private.
        assert_eq!(store.len(), 50 + 400);
    }
}
