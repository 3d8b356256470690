//! The store stream's reader thread (`StoreStream` reads, checks and
//! parses each shard's frames on a reader thread ahead of its merge):
//!
//! - a stream dropped after k events, k from none to past its first
//!   batches, joins its reader: no thread of it is left running, and the
//!   drop returns instead of hanging;
//! - a drained stream's `io()` counts what a serial read counts: every
//!   record and every byte of a clean store, and on a bit-flipped store
//!   the counts and events pinned from the serial reader.
//!
//! A reader panic resurfacing from `next_view`/`next_event` is checked
//! where a shard reader can be made to panic, in `store.rs`' unit tests.

use schevo::corpus::store::{generate_into_store, ShardStore, StoreEvent, StoreIo};
use schevo::corpus::universe::UniverseConfig;
use std::path::{Path, PathBuf};
use std::sync::mpsc;
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Counting threads needs the other tests of this binary quiet.
static ONE_AT_A_TIME: Mutex<()> = Mutex::new(());

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("schevo_readers_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Threads of this process, where the platform lists them.
fn threads() -> Option<usize> {
    std::fs::read_dir("/proc/self/task").ok().map(|d| d.count())
}

/// A corruption event (shard, offset, detail) with the count of records
/// yielded before it.
type Corruption = (u64, usize, u64, String);

/// Drain `dir`'s store: its I/O counters, its corruption events and the
/// record total.
fn drain(dir: &Path) -> (StoreIo, Vec<Corruption>, u64) {
    let store = ShardStore::open(dir).expect("open store");
    let mut stream = store.stream();
    let mut corrupt = Vec::new();
    let mut records = 0u64;
    while let Some(event) = stream.next_view() {
        match event {
            StoreEvent::Record(_) => records += 1,
            StoreEvent::Corrupt {
                shard,
                offset,
                detail,
            } => corrupt.push((records, shard, offset, detail)),
        }
    }
    (stream.io(), corrupt, records)
}

#[test]
fn a_dropped_stream_joins_its_readers() {
    let _quiet = ONE_AT_A_TIME.lock().unwrap_or_else(|p| p.into_inner());
    let dir = scratch("drop");
    generate_into_store(UniverseConfig::small(2019, 20), &dir, 8).expect("write store");
    let before = threads();
    let (done_tx, done_rx) = mpsc::channel();
    // The drops run on a helper thread so a hang fails the test instead
    // of stalling the suite.
    let helper = {
        let dir = dir.clone();
        std::thread::spawn(move || {
            let store = ShardStore::open(&dir).expect("open store");
            for k in [0usize, 1, 7, 500, 3000] {
                let mut stream = store.stream();
                for _ in 0..k {
                    assert!(stream.next_view().is_some(), "the store has {k} records");
                }
                drop(stream);
                let _ = done_tx.send(k);
            }
        })
    };
    for k in [0usize, 1, 7, 500, 3000] {
        let dropped = done_rx
            .recv_timeout(Duration::from_secs(60))
            .expect("the drop returned");
        assert_eq!(dropped, k);
    }
    helper.join().expect("helper thread");
    if let Some(before) = before {
        // A joined thread can linger in the listing for a moment.
        let deadline = Instant::now() + Duration::from_secs(5);
        while threads() != Some(before) && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(10));
        }
        assert_eq!(threads(), Some(before), "no reader outlives its stream");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_drained_stream_counts_what_a_serial_read_counts() {
    let _quiet = ONE_AT_A_TIME.lock().unwrap_or_else(|p| p.into_inner());
    let dir = scratch("counts");
    let (manifest, written) =
        generate_into_store(UniverseConfig::small(7, 20), &dir, 8).expect("write store");
    let on_disk: u64 = (0..8)
        .map(|i| {
            let path = dir.join(format!("shard-{i:03}.pack"));
            std::fs::metadata(path).expect("shard").len()
        })
        .sum();
    let (io, corrupt, records) = drain(&dir);
    assert!(corrupt.is_empty(), "{corrupt:?}");
    assert_eq!(records, manifest.records);
    assert_eq!(io.records_read, manifest.records);
    assert_eq!(io.bytes_read, on_disk, "every byte of every shard is read");
    assert_eq!(io.bytes_read, written.bytes_written);
    assert_eq!((io.records_written, io.bytes_written), (0, 0));

    // Flip a byte in the middle of shard 3: the serial reader's counts
    // and event, pinned.
    let path = dir.join("shard-003.pack");
    let mut bytes = std::fs::read(&path).expect("read shard");
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x10;
    std::fs::write(&path, &bytes).expect("rewrite shard");
    let (io, corrupt, records) = drain(&dir);
    assert_eq!(
        corrupt,
        [(1269, 3, 55996, "frame checksum mismatch".to_string())]
    );
    assert_eq!(records, 5989);
    assert_eq!((io.records_read, io.bytes_read), (5989, 4_684_354));
    let _ = std::fs::remove_dir_all(&dir);
}
