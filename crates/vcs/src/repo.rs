//! Repositories: branches over a shared object store, with a git-like
//! commit/merge API.

use crate::object::{Blob, Commit, Text, Tree};
use crate::sha1::Digest;
use crate::store::ObjectStore;
use crate::timestamp::Timestamp;
use std::collections::HashMap;
use std::sync::Arc;

/// Errors from repository operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RepoError {
    /// A named branch does not exist.
    UnknownBranch(String),
    /// An object referenced by a commit is missing from the store.
    MissingObject(Digest),
    /// An operation needed a parent commit but the branch has none.
    EmptyBranch(String),
}

impl std::fmt::Display for RepoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RepoError::UnknownBranch(b) => write!(f, "unknown branch `{b}`"),
            RepoError::MissingObject(id) => write!(f, "missing object {}", id.short()),
            RepoError::EmptyBranch(b) => write!(f, "branch `{b}` has no commits"),
        }
    }
}

impl std::error::Error for RepoError {}

/// A change to apply in a commit.
#[derive(Debug, Clone)]
pub enum FileChange {
    /// Write `content` at `path` (create or overwrite).
    Write {
        /// Repository-relative path.
        path: String,
        /// New full content of the file.
        content: String,
    },
    /// Delete the file at `path` (no-op if absent).
    Delete {
        /// Repository-relative path.
        path: String,
    },
}

impl FileChange {
    /// Convenience constructor for a write.
    pub fn write(path: impl Into<String>, content: impl Into<String>) -> Self {
        FileChange::Write {
            path: path.into(),
            content: content.into(),
        }
    }

    /// Convenience constructor for a delete.
    pub fn delete(path: impl Into<String>) -> Self {
        FileChange::Delete { path: path.into() }
    }
}

/// A repository: named branches pointing into a (possibly shared) object
/// store.
#[derive(Debug)]
pub struct Repository {
    /// Human name, e.g. `owner/project`.
    pub name: String,
    store: Arc<ObjectStore>,
    branches: HashMap<String, Digest>,
    head: String,
}

impl Repository {
    /// Default branch name.
    pub const DEFAULT_BRANCH: &'static str = "master";

    /// Create an empty repository over its own private store.
    pub fn new(name: impl Into<String>) -> Self {
        Repository::with_store(name, ObjectStore::shared())
    }

    /// Create an empty repository over a shared store.
    pub fn with_store(name: impl Into<String>, store: Arc<ObjectStore>) -> Self {
        Repository {
            name: name.into(),
            store,
            branches: HashMap::new(),
            head: Self::DEFAULT_BRANCH.to_string(),
        }
    }

    /// The underlying object store.
    pub fn store(&self) -> &Arc<ObjectStore> {
        &self.store
    }

    /// The current branch name.
    pub fn head_branch(&self) -> &str {
        &self.head
    }

    /// The tip commit of the current branch, if any.
    pub fn head(&self) -> Option<Digest> {
        self.branches.get(&self.head).copied()
    }

    /// The tip commit of a named branch.
    pub fn branch_tip(&self, branch: &str) -> Option<Digest> {
        self.branches.get(branch).copied()
    }

    /// All branch names (unordered).
    pub fn branch_names(&self) -> impl Iterator<Item = &str> {
        self.branches.keys().map(|s| s.as_str())
    }

    /// Create a branch at the current HEAD and switch to it.
    ///
    /// # Errors
    ///
    /// [`RepoError::EmptyBranch`] if the current branch has no commits yet.
    pub fn branch_and_checkout(&mut self, name: impl Into<String>) -> Result<(), RepoError> {
        let tip = self
            .head()
            .ok_or_else(|| RepoError::EmptyBranch(self.head.clone()))?;
        let name = name.into();
        self.branches.insert(name.clone(), tip);
        self.head = name;
        Ok(())
    }

    /// Point `name` at `tip`, creating the branch if needed. Intended for
    /// pack loading and test setup; normal work flows through
    /// [`Repository::commit`] / [`Repository::merge`].
    pub fn set_branch(&mut self, name: impl Into<String>, tip: Digest) {
        self.branches.insert(name.into(), tip);
    }

    /// Switch HEAD to an existing branch.
    ///
    /// # Errors
    ///
    /// [`RepoError::UnknownBranch`] if the branch does not exist.
    pub fn checkout(&mut self, name: &str) -> Result<(), RepoError> {
        if !self.branches.contains_key(name) {
            return Err(RepoError::UnknownBranch(name.to_string()));
        }
        self.head = name.to_string();
        Ok(())
    }

    /// The snapshot tree at the tip of the current branch (empty tree when
    /// the branch has no commits).
    pub fn head_tree(&self) -> Result<Arc<Tree>, RepoError> {
        match self.head() {
            None => Ok(Arc::default()),
            Some(tip) => {
                let commit = self
                    .store
                    .commit(tip)
                    .ok_or(RepoError::MissingObject(tip))?;
                self.store
                    .tree(commit.tree)
                    .ok_or(RepoError::MissingObject(commit.tree))
            }
        }
    }

    /// Read a file at the tip of the current branch (lossy UTF-8, shared
    /// with its blob and carrying its address; see [`Blob::as_text`] and
    /// [`Text::id`]).
    pub fn read_file(&self, path: &str) -> Result<Option<Text>, RepoError> {
        let tree = self.head_tree()?;
        match tree.get(path) {
            None => Ok(None),
            Some(id) => {
                let blob = self.store.blob(id).ok_or(RepoError::MissingObject(id))?;
                Ok(Some(blob.text_at(id)))
            }
        }
    }

    /// Apply `changes` as a new commit on the current branch and return its
    /// id. An empty change list still creates a commit (git allows empty
    /// commits; mining must tolerate them). Written contents move into
    /// their blobs uncopied: each content `String`'s buffer becomes the
    /// blob's, and file versions read back share it.
    pub fn commit(
        &mut self,
        changes: impl IntoIterator<Item = FileChange>,
        author: &str,
        timestamp: Timestamp,
        message: &str,
    ) -> Result<Digest, RepoError> {
        let mut tree = Tree::clone(&*self.head_tree()?);
        for change in changes {
            match change {
                FileChange::Write { path, content } => {
                    let blob_id = self.store.put_blob(Blob::from(content));
                    tree.insert(path, blob_id);
                }
                FileChange::Delete { path } => {
                    tree.remove(&path);
                }
            }
        }
        let tree_id = self.store.put_tree(tree);
        let parents = self.head().into_iter().collect();
        let commit = Commit {
            tree: tree_id,
            parents,
            author: author.to_string(),
            timestamp,
            message: message.to_string(),
        };
        let id = self.store.put_commit(commit);
        self.branches.insert(self.head.clone(), id);
        Ok(id)
    }

    /// Merge `other` branch into the current branch, producing a two-parent
    /// commit. Files are merged three-way at file granularity against the
    /// merge base: a path changed only on one side takes that side; a path
    /// changed on both sides takes theirs (a deterministic conflict policy —
    /// adequate for history-shape mining, which only observes content
    /// identity).
    ///
    /// # Errors
    ///
    /// [`RepoError::UnknownBranch`] / [`RepoError::EmptyBranch`] when either
    /// side has no commits.
    pub fn merge(
        &mut self,
        other: &str,
        author: &str,
        timestamp: Timestamp,
        message: &str,
    ) -> Result<Digest, RepoError> {
        let ours = self
            .head()
            .ok_or_else(|| RepoError::EmptyBranch(self.head.clone()))?;
        let theirs = self
            .branch_tip(other)
            .ok_or_else(|| RepoError::UnknownBranch(other.to_string()))?;
        let base_tree = match self.merge_base(ours, theirs)? {
            Some(base) => {
                let c = self.commit_object(base)?;
                self.store
                    .tree(c.tree)
                    .ok_or(RepoError::MissingObject(c.tree))?
            }
            None => Arc::default(),
        };
        let their_commit = self
            .store
            .commit(theirs)
            .ok_or(RepoError::MissingObject(theirs))?;
        let their_tree = self
            .store
            .tree(their_commit.tree)
            .ok_or(RepoError::MissingObject(their_commit.tree))?;
        let mut tree = Tree::clone(&*self.head_tree()?);
        // Paths present on their side: adopt when they differ from base.
        for (path, id) in &their_tree.entries {
            if base_tree.get(path) != Some(*id) {
                tree.insert(path.clone(), *id);
            }
        }
        // Paths they deleted (present in base, absent in theirs): delete,
        // unless our side changed the file relative to base.
        for (path, base_id) in &base_tree.entries {
            if their_tree.get(path).is_none() && tree.get(path) == Some(*base_id) {
                tree.remove(path);
            }
        }
        let tree_id = self.store.put_tree(tree);
        let commit = Commit {
            tree: tree_id,
            parents: vec![ours, theirs],
            author: author.to_string(),
            timestamp,
            message: message.to_string(),
        };
        let id = self.store.put_commit(commit);
        self.branches.insert(self.head.clone(), id);
        Ok(id)
    }

    /// Load a commit object.
    pub fn commit_object(&self, id: Digest) -> Result<Arc<Commit>, RepoError> {
        self.store.commit(id).ok_or(RepoError::MissingObject(id))
    }

    /// Find a merge base of two commits: the latest common ancestor by
    /// timestamp (ties broken by id). `None` for unrelated histories.
    pub fn merge_base(&self, a: Digest, b: Digest) -> Result<Option<Digest>, RepoError> {
        let ancestors_a = self.ancestors(a)?;
        let ancestors_b = self.ancestors(b)?;
        let mut best: Option<(Timestamp, Digest)> = None;
        for id in ancestors_a.intersection(&ancestors_b) {
            let c = self.commit_object(*id)?;
            let key = (c.timestamp, *id);
            if best.map(|b| key > b).unwrap_or(true) {
                best = Some(key);
            }
        }
        Ok(best.map(|(_, id)| id))
    }

    /// All commits reachable from `tip`, including `tip` itself.
    fn ancestors(&self, tip: Digest) -> Result<std::collections::HashSet<Digest>, RepoError> {
        let mut seen = std::collections::HashSet::new();
        let mut stack = vec![tip];
        while let Some(id) = stack.pop() {
            if !seen.insert(id) {
                continue;
            }
            let c = self.commit_object(id)?;
            stack.extend(c.parents.iter().copied());
        }
        Ok(seen)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ts(n: i64) -> Timestamp {
        Timestamp(n * 86_400)
    }

    #[test]
    fn commit_and_read_back() {
        let mut r = Repository::new("acme/app");
        r.commit(
            [FileChange::write("schema.sql", "CREATE TABLE t (a INT);")],
            "alice",
            ts(0),
            "init",
        )
        .unwrap();
        assert_eq!(
            r.read_file("schema.sql").unwrap().unwrap(),
            "CREATE TABLE t (a INT);"
        );
        assert_eq!(r.read_file("other.txt").unwrap(), None);
    }

    #[test]
    fn successive_commits_chain_parents() {
        let mut r = Repository::new("acme/app");
        let c1 = r
            .commit([FileChange::write("f", "1")], "a", ts(0), "one")
            .unwrap();
        let c2 = r
            .commit([FileChange::write("f", "2")], "a", ts(1), "two")
            .unwrap();
        let commit2 = r.commit_object(c2).unwrap();
        assert_eq!(commit2.parents, vec![c1]);
        assert_eq!(r.read_file("f").unwrap().unwrap(), "2");
    }

    #[test]
    fn delete_removes_file() {
        let mut r = Repository::new("acme/app");
        r.commit([FileChange::write("f", "1")], "a", ts(0), "add")
            .unwrap();
        r.commit([FileChange::delete("f")], "a", ts(1), "rm")
            .unwrap();
        assert_eq!(r.read_file("f").unwrap(), None);
    }

    #[test]
    fn empty_commit_allowed() {
        let mut r = Repository::new("acme/app");
        let c1 = r.commit([], "a", ts(0), "empty root").unwrap();
        let c2 = r.commit([], "a", ts(1), "still empty").unwrap();
        assert_ne!(c1, c2, "metadata differs so ids differ");
    }

    #[test]
    fn branching_and_merging() {
        let mut r = Repository::new("acme/app");
        r.commit([FileChange::write("f", "base")], "a", ts(0), "base")
            .unwrap();
        r.branch_and_checkout("feature").unwrap();
        r.commit([FileChange::write("g", "side")], "b", ts(1), "side work")
            .unwrap();
        r.checkout(Repository::DEFAULT_BRANCH).unwrap();
        r.commit([FileChange::write("f", "main2")], "a", ts(2), "main work")
            .unwrap();
        let m = r.merge("feature", "a", ts(3), "merge feature").unwrap();
        let merge = r.commit_object(m).unwrap();
        assert_eq!(merge.parents.len(), 2);
        assert_eq!(r.read_file("g").unwrap().unwrap(), "side");
        assert_eq!(r.read_file("f").unwrap().unwrap(), "main2");
    }

    #[test]
    fn checkout_unknown_branch_errors() {
        let mut r = Repository::new("acme/app");
        assert_eq!(
            r.checkout("nope"),
            Err(RepoError::UnknownBranch("nope".into()))
        );
    }

    #[test]
    fn branch_from_empty_errors() {
        let mut r = Repository::new("acme/app");
        assert!(matches!(
            r.branch_and_checkout("x"),
            Err(RepoError::EmptyBranch(_))
        ));
    }

    #[test]
    fn shared_store_across_repos_dedupes() {
        let store = ObjectStore::shared();
        let mut r1 = Repository::with_store("a/one", Arc::clone(&store));
        let mut r2 = Repository::with_store("a/two", Arc::clone(&store));
        r1.commit([FileChange::write("s.sql", "CREATE TABLE t (a INT);")], "x", ts(0), "m")
            .unwrap();
        r2.commit([FileChange::write("s.sql", "CREATE TABLE t (a INT);")], "y", ts(5), "m")
            .unwrap();
        assert_eq!(store.stats().blobs, 1, "identical schema file stored once");
    }
}
