//! Commit-graph walks and per-file history extraction.
//!
//! The study's raw material is "a list of commits (a.k.a. versions) of the
//! same DDL file, ordered over time". [`file_history`] produces exactly
//! that: walking the commit graph from a branch tip, keeping the commits
//! where the file's content changed (including its first appearance), oldest
//! first.
//!
//! Two walk strategies are provided because git histories are non-linear — a
//! stated threat to validity in the paper (§III-C): the **first-parent**
//! walk follows the mainline only (what a release manager sees), while the
//! **full-DAG** walk visits every commit in topological order, merging
//! side-branch edits into the timeline. The walk-strategy ablation compares
//! the two.

use crate::object::{Commit, Text};
use crate::repo::{RepoError, Repository};
use crate::sha1::Digest;
use crate::timestamp::Timestamp;
use std::collections::HashSet;
use std::sync::Arc;

/// How to linearize a commit DAG.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum WalkStrategy {
    /// Follow only the first parent of each commit (git's mainline view).
    #[default]
    FirstParent,
    /// Visit all ancestors, ordered by timestamp (ties broken by id) — the
    /// "entire schema history" view the paper investigates.
    FullDag,
}

/// One version of a file: the commit that changed it plus the content.
#[derive(Debug, Clone, PartialEq)]
pub struct FileVersion {
    /// Commit id that introduced this version.
    pub commit: Digest,
    /// Commit timestamp.
    pub timestamp: Timestamp,
    /// Commit author.
    pub author: String,
    /// Commit message.
    pub message: String,
    /// Full file content at this version, shared with its blob.
    pub content: Text,
}

/// List ancestor commits of `tip` oldest-first under the given strategy.
/// The commits are the store's shared handles, not copies.
///
/// # Errors
///
/// [`RepoError::MissingObject`] if the graph references an object missing
/// from the store.
pub fn linearize(
    repo: &Repository,
    tip: Digest,
    strategy: WalkStrategy,
) -> Result<Vec<(Digest, Arc<Commit>)>, RepoError> {
    match strategy {
        WalkStrategy::FirstParent => {
            let mut chain = Vec::new();
            let mut cursor = Some(tip);
            while let Some(id) = cursor {
                let commit = repo.commit_object(id)?;
                cursor = commit.parents.first().copied();
                chain.push((id, commit));
            }
            chain.reverse();
            Ok(chain)
        }
        WalkStrategy::FullDag => {
            let mut seen: HashSet<Digest> = HashSet::new();
            let mut stack = vec![tip];
            let mut all = Vec::new();
            while let Some(id) = stack.pop() {
                if !seen.insert(id) {
                    continue;
                }
                let commit = repo.commit_object(id)?;
                stack.extend(commit.parents.iter().copied());
                all.push((id, commit));
            }
            // Timestamp order approximates topological order for histories
            // whose clocks are sane; ties broken deterministically by id.
            all.sort_by(|a, b| {
                a.1.timestamp
                    .cmp(&b.1.timestamp)
                    .then_with(|| a.0.cmp(&b.0))
            });
            Ok(all)
        }
    }
}

/// Extract the history of `path` on the current branch of `repo`:
/// the sequence of *distinct* versions, oldest first. Commits that do not
/// change the file's content (or where the file is absent) are skipped —
/// exactly the behaviour of `git log --follow -- <path>` modulo renames.
///
/// Deleting the file does **not** emit a version; if it is later re-added
/// with the same content as the last version, no new version is emitted
/// either (content-identity semantics, which is what the paper's extraction
/// of ".sql file versions" observes).
///
/// # Errors
///
/// Propagates [`RepoError`] for unknown branches or missing objects.
pub fn file_history(
    repo: &Repository,
    path: &str,
    strategy: WalkStrategy,
) -> Result<Vec<FileVersion>, RepoError> {
    let _span = schevo_obs::span!("vcs.file_history", path = path);
    let Some(tip) = repo.head() else {
        return Ok(Vec::new());
    };
    let chain = linearize(repo, tip, strategy)?;
    let blob_at = |tree: Digest| -> Result<Option<Digest>, RepoError> {
        let tree = repo.store().tree(tree).ok_or(RepoError::MissingObject(tree))?;
        Ok(tree.get(path))
    };
    let mut versions: Vec<FileVersion> = Vec::with_capacity(chain.len());
    let mut last_emitted: Option<Digest> = None;
    // The previous commit of the chain and the file's blob there: on a
    // first-parent chain it is the next commit's parent.
    let mut previous: Option<(Digest, Option<Digest>)> = None;
    for (id, commit) in chain {
        let here = blob_at(commit.tree)?;
        let before = previous.replace((id, here));
        let Some(blob_id) = here else {
            continue;
        };
        // A commit contributes a version when it changed the file relative
        // to its first parent (git's TREESAME test), and the content is not
        // the one we already emitted (delete-and-readd, branch interleaving).
        let parent_blob = match (commit.parents.first(), before) {
            (None, _) => None,
            (Some(&p), Some((prev, prev_blob))) if p == prev => prev_blob,
            (Some(&p), _) => blob_at(repo.commit_object(p)?.tree)?,
        };
        if Some(blob_id) == parent_blob || Some(blob_id) == last_emitted {
            continue;
        }
        let blob = repo
            .store()
            .blob(blob_id)
            .ok_or(RepoError::MissingObject(blob_id))?;
        versions.push(FileVersion {
            commit: id,
            timestamp: commit.timestamp,
            author: commit.author.clone(),
            message: commit.message.clone(),
            content: blob.text_at(blob_id),
        });
        last_emitted = Some(blob_id);
    }
    Ok(versions)
}

/// Count all commits reachable from the current branch tip (project-level
/// commit count, used for the "DDL commits are 4–6% of project commits"
/// narrative statistics).
pub fn commit_count(repo: &Repository) -> Result<usize, RepoError> {
    match repo.head() {
        None => Ok(0),
        Some(tip) => Ok(linearize(repo, tip, WalkStrategy::FullDag)?.len()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::repo::FileChange;

    fn ts(n: i64) -> Timestamp {
        Timestamp(n * 86_400)
    }

    fn repo_with_linear_history() -> Repository {
        let mut r = Repository::new("t/linear");
        r.commit([FileChange::write("s.sql", "v1")], "a", ts(0), "c0")
            .unwrap();
        r.commit([FileChange::write("other.txt", "x")], "a", ts(1), "c1: unrelated")
            .unwrap();
        r.commit([FileChange::write("s.sql", "v2")], "a", ts(2), "c2")
            .unwrap();
        r.commit([FileChange::write("s.sql", "v2")], "a", ts(3), "c3: touch, same content")
            .unwrap();
        r.commit([FileChange::write("s.sql", "v3")], "a", ts(4), "c4")
            .unwrap();
        r
    }

    #[test]
    fn file_history_keeps_distinct_versions_only() {
        let r = repo_with_linear_history();
        let h = file_history(&r, "s.sql", WalkStrategy::FirstParent).unwrap();
        let contents: Vec<_> = h.iter().map(|v| v.content.as_str()).collect();
        assert_eq!(contents, vec!["v1", "v2", "v3"]);
        assert!(h[0].timestamp < h[1].timestamp);
    }

    #[test]
    fn absent_file_yields_empty_history() {
        let r = repo_with_linear_history();
        assert!(file_history(&r, "missing.sql", WalkStrategy::FirstParent)
            .unwrap()
            .is_empty());
        let empty = Repository::new("t/empty");
        assert!(file_history(&empty, "s.sql", WalkStrategy::FirstParent)
            .unwrap()
            .is_empty());
    }

    #[test]
    fn delete_and_readd_same_content_no_new_version() {
        let mut r = Repository::new("t/readd");
        r.commit([FileChange::write("s.sql", "v1")], "a", ts(0), "add")
            .unwrap();
        r.commit([FileChange::delete("s.sql")], "a", ts(1), "drop")
            .unwrap();
        r.commit([FileChange::write("s.sql", "v1")], "a", ts(2), "restore")
            .unwrap();
        let h = file_history(&r, "s.sql", WalkStrategy::FirstParent).unwrap();
        assert_eq!(h.len(), 1);
    }

    #[test]
    fn delete_and_readd_different_content_new_version() {
        let mut r = Repository::new("t/readd2");
        r.commit([FileChange::write("s.sql", "v1")], "a", ts(0), "add")
            .unwrap();
        r.commit([FileChange::delete("s.sql")], "a", ts(1), "drop")
            .unwrap();
        r.commit([FileChange::write("s.sql", "v2")], "a", ts(2), "redo")
            .unwrap();
        let h = file_history(&r, "s.sql", WalkStrategy::FirstParent).unwrap();
        assert_eq!(h.len(), 2);
    }

    #[test]
    fn first_parent_skips_side_branch_edits() {
        let mut r = Repository::new("t/branchy");
        r.commit([FileChange::write("s.sql", "v1")], "a", ts(0), "base")
            .unwrap();
        r.branch_and_checkout("side").unwrap();
        r.commit([FileChange::write("s.sql", "side-v")], "b", ts(1), "side edit")
            .unwrap();
        r.checkout(Repository::DEFAULT_BRANCH).unwrap();
        r.commit([FileChange::write("readme", "hi")], "a", ts(2), "main edit")
            .unwrap();
        r.merge("side", "a", ts(3), "merge side").unwrap();

        // First-parent: v1 then (at the merge) side-v arrives on mainline.
        let fp = file_history(&r, "s.sql", WalkStrategy::FirstParent).unwrap();
        let fp_contents: Vec<_> = fp.iter().map(|v| v.content.as_str()).collect();
        assert_eq!(fp_contents, vec!["v1", "side-v"]);
        // The version is attributed to the merge commit, not the side commit.
        assert_eq!(fp[1].message, "merge side");

        // Full DAG: the side commit itself appears in the timeline.
        let full = file_history(&r, "s.sql", WalkStrategy::FullDag).unwrap();
        let full_contents: Vec<_> = full.iter().map(|v| v.content.as_str()).collect();
        assert_eq!(full_contents, vec!["v1", "side-v"]);
        assert_eq!(full[1].message, "side edit");
    }

    #[test]
    fn commit_count_covers_all_branches_reachable() {
        let mut r = Repository::new("t/count");
        r.commit([], "a", ts(0), "c0").unwrap();
        r.branch_and_checkout("side").unwrap();
        r.commit([], "a", ts(1), "c1").unwrap();
        r.checkout(Repository::DEFAULT_BRANCH).unwrap();
        r.commit([], "a", ts(2), "c2").unwrap();
        r.merge("side", "a", ts(3), "m").unwrap();
        assert_eq!(commit_count(&r).unwrap(), 4);
    }

    #[test]
    fn full_dag_orders_by_timestamp() {
        let mut r = Repository::new("t/order");
        r.commit([], "a", ts(0), "c0").unwrap();
        r.branch_and_checkout("side").unwrap();
        r.commit([], "a", ts(5), "late side").unwrap();
        r.checkout(Repository::DEFAULT_BRANCH).unwrap();
        r.commit([], "a", ts(2), "early main").unwrap();
        r.merge("side", "a", ts(6), "m").unwrap();
        let tip = r.head().unwrap();
        let chain = linearize(&r, tip, WalkStrategy::FullDag).unwrap();
        let msgs: Vec<_> = chain.iter().map(|(_, c)| c.message.as_str()).collect();
        assert_eq!(msgs, vec!["c0", "early main", "late side", "m"]);
    }
}
