//! One DDL buffer from the realizer to the parser.
//!
//! - Every `FileVersion.content` that `file_history` returns for the
//!   seed-2019 evolving repositories points at its blob's buffer: the
//!   walk copies no content.
//! - With a counting allocator, those walks allocate under 5% of the
//!   content bytes they return (the version list, authors and messages).
//! - A blob that is not valid UTF-8 still yields `Blob::as_text`'s lossy
//!   text.

use schevo::corpus::universe::{generate_records, Emitted, MaterializedBody, UniverseConfig};
use schevo::vcs::history::{file_history, FileVersion, WalkStrategy};
use schevo::vcs::object::{Blob, Commit, Tree};
use schevo::vcs::repo::Repository;
use schevo::vcs::timestamp::Timestamp;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::ops::ControlFlow;

/// The system allocator, counting the bytes this thread asks for.
struct Counting;

thread_local! {
    static ALLOCATED: Cell<u64> = const { Cell::new(0) };
}

// SAFETY: every call is forwarded unchanged to the system allocator; the
// counter is a const-initialized thread-local that never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATED.with(|n| n.set(n.get() + layout.size() as u64));
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATED.with(|n| n.set(n.get() + new_size as u64));
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static COUNTING: Counting = Counting;

fn allocated() -> u64 {
    ALLOCATED.with(Cell::get)
}

/// The blob a version's content was read from.
fn blob_of(repo: &Repository, path: &str, v: &FileVersion) -> Blob {
    let commit = repo.store().commit(v.commit).expect("version commit");
    let tree = repo.store().tree(commit.tree).expect("commit tree");
    repo.store()
        .blob(tree.get(path).expect("path in tree"))
        .expect("blob")
}

#[test]
fn walks_of_the_evolving_repositories_share_their_blobs() {
    let mut projects = 0usize;
    let mut versions = 0usize;
    let mut content_bytes = 0u64;
    let mut walk_bytes = 0u64;
    generate_records(UniverseConfig::paper(2019), &mut |emitted| {
        let Emitted::Materialized(record) = emitted else {
            return ControlFlow::Break(());
        };
        let Some(MaterializedBody::Evo(project)) = &record.body else {
            // The evolving projects come first; the noise ones follow.
            return ControlFlow::Break(());
        };
        let before = allocated();
        let history = file_history(&project.repo, &project.ddl_path, WalkStrategy::FirstParent)
            .expect("history");
        walk_bytes += allocated() - before;
        for v in &history {
            let blob = blob_of(&project.repo, &project.ddl_path, v);
            assert_eq!(
                v.content.as_ptr(),
                blob.bytes().as_ptr(),
                "{}: a version's content is its blob's buffer",
                record.name
            );
            assert_eq!(v.content.len(), blob.bytes().len());
            content_bytes += v.content.len() as u64;
        }
        projects += 1;
        versions += history.len();
        ControlFlow::Continue(())
    });
    assert_eq!(projects, 195);
    assert!(versions > 3_000, "{versions} versions");
    assert!(content_bytes > 20_000_000, "{content_bytes} content bytes");
    assert!(
        walk_bytes * 20 < content_bytes,
        "the walks allocated {walk_bytes} bytes for {content_bytes} content bytes"
    );
}

#[test]
fn invalid_utf8_reads_as_the_lossy_text() {
    let mut repo = Repository::new("t/binary");
    let bytes = b"CREATE TABLE t (id INT); -- caf\xe9 \xff\xfe\n".to_vec();
    let blob = Blob::new(bytes.clone());
    let lossy = blob.as_text();
    assert_eq!(lossy.as_str(), String::from_utf8_lossy(&bytes));
    assert_eq!(blob.bytes(), &bytes[..], "the blob keeps the raw bytes");

    let store = repo.store().clone();
    let mut tree = Tree::new();
    tree.insert("s.sql", store.put_blob(blob));
    let commit = store.put_commit(Commit {
        tree: store.put_tree(tree),
        parents: vec![],
        author: "a".into(),
        timestamp: Timestamp(0),
        message: "raw".into(),
    });
    repo.set_branch(Repository::DEFAULT_BRANCH, commit);
    let history = file_history(&repo, "s.sql", WalkStrategy::FirstParent).expect("history");
    assert_eq!(history.len(), 1);
    assert_eq!(history[0].content, lossy);
    assert_eq!(repo.read_file("s.sql").expect("readable"), Some(lossy));
}
