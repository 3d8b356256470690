//! Black-box differential test of `schevo serve`: a real daemon process
//! answering concurrent study requests must hand every client the exact
//! bytes the batch CLI writes to `study_results.json` over the same
//! store — for every worker count and concurrency level, whether the
//! daemon serves the request from its resident outcomes or mines it
//! afresh.
//!
//! The daemon is spawned via `CARGO_BIN_EXE_schevo` and killed on drop,
//! so a failing assertion never leaks a listening process.

use std::io::{BufRead, BufReader};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};

/// 1/5000 scale: a couple dozen records, a handful of analyzed
/// candidates — big enough to exercise every pipeline stage, small
/// enough to run the full matrix in seconds.
const SCALE: &str = "5000";

fn schevo() -> Command {
    Command::new(env!("CARGO_BIN_EXE_schevo"))
}

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("schevo_serve_diff_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir
}

/// A running daemon; killed (and reaped) when dropped.
struct Daemon {
    child: Child,
    addr: String,
}

impl Daemon {
    fn spawn(extra: &[&str]) -> Daemon {
        let mut child = schevo()
            .args(extra)
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .expect("daemon spawns");
        let stdout = child.stdout.take().expect("stdout piped");
        let mut lines = BufReader::new(stdout).lines();
        let addr = loop {
            let line = lines
                .next()
                .expect("daemon prints its address before EOF")
                .expect("daemon stdout readable");
            if let Some(rest) = line.strip_prefix("serve: listening on ") {
                break rest.trim().to_string();
            }
        };
        // Keep draining stdout so the daemon can never block on a full pipe.
        std::thread::spawn(move || for _ in lines {});
        Daemon { child, addr }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// Build the store and the batch-CLI golden once per scratch dir.
fn build_store_and_golden(dir: &Path) -> Vec<u8> {
    let store = dir.join("store");
    let out = dir.join("batch");
    let status = schevo()
        .args([
            "study",
            "--seed",
            "7",
            "--scale",
            SCALE,
            "--store-dir",
            store.to_str().expect("utf8 path"),
            "--out",
            out.to_str().expect("utf8 path"),
        ])
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .status()
        .expect("batch CLI runs");
    assert!(status.success(), "batch study must succeed");
    std::fs::read(out.join("study_results.json")).expect("batch golden exists")
}

fn request_study(addr: &str, workers: Option<u64>, cache: Option<bool>) -> schevo::serve::Response {
    let mut conn = schevo::serve::connect(addr).expect("connect");
    conn.roundtrip(&schevo::serve::Request {
        op: "study".to_string(),
        workers,
        cache,
        ..schevo::serve::Request::default()
    })
    .expect("roundtrip")
}

#[test]
fn concurrent_served_studies_match_batch_cli_bytes() {
    let dir = scratch("matrix");
    let golden = build_store_and_golden(&dir);
    let store = dir.join("store");
    let daemon = Daemon::spawn(&[
        "serve",
        "--store-dir",
        store.to_str().expect("utf8 path"),
        "--max-inflight",
        "8",
    ]);

    // Worker counts × memo use cycle across the clients of each
    // concurrency level, so every combination is served at least once
    // while other configurations run beside it. `cache: Some(false)`
    // bypasses the daemon's resident outcomes; every other request after
    // the first is served from them.
    let matrix: Vec<(Option<u64>, Option<bool>)> = vec![
        (Some(1), Some(true)),
        (Some(1), Some(false)),
        (Some(2), Some(true)),
        (Some(2), Some(false)),
        (Some(8), Some(true)),
        (Some(8), Some(false)),
        (None, None), // server defaults
    ];
    for concurrency in [1usize, 4, 8] {
        let handles: Vec<_> = (0..concurrency)
            .map(|k| {
                let addr = daemon.addr.clone();
                let (workers, cache) = matrix[k % matrix.len()];
                std::thread::spawn(move || request_study(&addr, workers, cache))
            })
            .collect();
        for (k, handle) in handles.into_iter().enumerate() {
            let response = handle.join().expect("client thread");
            assert_eq!(
                response.status, "ok",
                "client {k} of {concurrency}: {:?}",
                response.error
            );
            let json = response.study_json.expect("ok response carries the study");
            assert_eq!(
                json.as_bytes(),
                &golden[..],
                "client {k} of {concurrency} (workers {:?}, cache {:?}) diverged from the batch CLI",
                matrix[k % matrix.len()].0,
                matrix[k % matrix.len()].1,
            );
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn admission_control_sheds_load_with_busy_not_queues() {
    let dir = scratch("busy");
    let golden = build_store_and_golden(&dir);
    let store = dir.join("store");
    let daemon = Daemon::spawn(&[
        "serve",
        "--store-dir",
        store.to_str().expect("utf8 path"),
        "--max-inflight",
        "1",
    ]);

    let handles: Vec<_> = (0..4)
        .map(|_| {
            let addr = daemon.addr.clone();
            std::thread::spawn(move || request_study(&addr, None, None))
        })
        .collect();
    let responses: Vec<_> = handles
        .into_iter()
        .map(|h| h.join().expect("client thread"))
        .collect();
    let ok = responses.iter().filter(|r| r.status == "ok").count();
    let busy = responses.iter().filter(|r| r.status == "busy").count();
    assert_eq!(ok + busy, 4, "every response is ok or busy: {responses:?}");
    assert!(ok >= 1, "at least one study is admitted");
    for r in responses.iter().filter(|r| r.status == "ok") {
        assert_eq!(
            r.study_json.as_deref().map(str::as_bytes),
            Some(&golden[..]),
            "admitted studies still match the batch CLI"
        );
    }
    // A busy response is immediate shedding, not queueing: the server
    // must still answer follow-up requests for every shed client.
    for _ in 0..busy {
        let mut conn = schevo::serve::connect(&daemon.addr).expect("reconnect");
        let retry = conn
            .roundtrip(&schevo::serve::Request {
                op: "status".to_string(),
                ..schevo::serve::Request::default()
            })
            .expect("status after busy");
        assert_eq!(retry.status, "ok");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn results_are_queryable_by_request_id() {
    let dir = scratch("result");
    let golden = build_store_and_golden(&dir);
    let store = dir.join("store");
    let daemon = Daemon::spawn(&["serve", "--store-dir", store.to_str().expect("utf8 path")]);

    let mut conn = schevo::serve::connect(&daemon.addr).expect("connect");
    let first = conn
        .roundtrip(&schevo::serve::Request {
            id: Some("q-1".to_string()),
            op: "study".to_string(),
            ..schevo::serve::Request::default()
        })
        .expect("study");
    assert_eq!(first.status, "ok");

    // A different connection can fetch the stored result by id.
    let mut other = schevo::serve::connect(&daemon.addr).expect("second connect");
    let fetched = other
        .roundtrip(&schevo::serve::Request {
            id: Some("q-1".to_string()),
            op: "result".to_string(),
            ..schevo::serve::Request::default()
        })
        .expect("result");
    assert_eq!(fetched.status, "ok");
    assert_eq!(
        fetched.study_json.as_deref().map(str::as_bytes),
        Some(&golden[..])
    );
    assert!(
        fetched.manifest_json.is_some(),
        "the stored result carries its run manifest"
    );

    let missing = other
        .roundtrip(&schevo::serve::Request {
            id: Some("no-such-id".to_string()),
            op: "result".to_string(),
            ..schevo::serve::Request::default()
        })
        .expect("missing result");
    assert_eq!(missing.status, "error");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn metrics_are_prometheus_exposition_text() {
    let dir = scratch("metrics");
    let _golden = build_store_and_golden(&dir);
    let store = dir.join("store");
    let daemon = Daemon::spawn(&["serve", "--store-dir", store.to_str().expect("utf8 path")]);

    let mut conn = schevo::serve::connect(&daemon.addr).expect("connect");
    let _ = conn
        .roundtrip(&schevo::serve::Request {
            op: "study".to_string(),
            ..schevo::serve::Request::default()
        })
        .expect("study");
    let metrics = conn
        .roundtrip(&schevo::serve::Request {
            op: "metrics".to_string(),
            ..schevo::serve::Request::default()
        })
        .expect("metrics");
    assert_eq!(metrics.status, "ok");
    let text = metrics.metrics.expect("metrics text");
    assert!(
        text.contains("# TYPE serve_requests counter"),
        "prometheus exposition format: {text}"
    );
    assert!(text.contains("serve_studies_ok 1"), "{text}");
    let _ = std::fs::remove_dir_all(&dir);
}
