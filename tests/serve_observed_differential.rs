//! Black-box differential of observability in serving mode: a daemon
//! running with *every* observability sink enabled — request log,
//! per-request trace export, slow-study log, always-on profiler — must
//! serve byte-identical study results to a bare daemon and to the batch
//! CLI's `study_results.json`, while the request log accounts for every
//! request with a schema-valid, monotonically stamped line.
//!
//! Every served study reports one wall, read once: the manifest's
//! `wall_us`, the slow-log `wall_us` and the `serve.request` span of the
//! request trace are equal, and the request log's `stages` are the walls
//! derived from that request's trace.

use std::io::{BufRead, BufReader};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};

/// Same scale as the plain serve differential: every pipeline stage
/// exercised, seconds not minutes.
const SCALE: &str = "5000";

fn schevo() -> Command {
    Command::new(env!("CARGO_BIN_EXE_schevo"))
}

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("schevo_obs_diff_{tag}_{}", std::process::id()));
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
        std::thread::spawn(move || for _ in lines {});
        Daemon { child, addr }
    }

    /// SIGTERM the daemon and wait for the graceful-drain exit.
    fn drain(mut self) {
        let pid = self.child.id().to_string();
        let status = Command::new("sh")
            .args(["-c", &format!("kill -TERM {pid}")])
            .status()
            .expect("kill runs");
        assert!(status.success(), "SIGTERM delivered");
        let exit = self.child.wait().expect("daemon reaped");
        assert!(exit.success(), "SIGTERM drains to a clean exit: {exit:?}");
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

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

fn request_study(addr: &str, id: &str) -> schevo::serve::Response {
    let mut conn = schevo::serve::connect(addr).expect("connect");
    conn.roundtrip(&schevo::serve::Request {
        id: Some(id.to_string()),
        op: "study".to_string(),
        ..schevo::serve::Request::default()
    })
    .expect("roundtrip")
}

#[test]
fn fully_instrumented_daemon_serves_bare_daemon_bytes() {
    let dir = scratch("onoff");
    let golden = build_store_and_golden(&dir);
    let store = dir.join("store");
    let store_arg = store.to_str().expect("utf8 path");

    // Bare daemon: observability off end to end (no logs, no traces,
    // profiler disabled).
    let bare = Daemon::spawn(&[
        "serve",
        "--store-dir",
        store_arg,
        "--profile-interval-ms",
        "0",
    ]);
    let bare_bytes = {
        let r = request_study(&bare.addr, "bare-1");
        assert_eq!(r.status, "ok", "{:?}", r.error);
        r.study_json.expect("study bytes")
    };
    drop(bare);
    assert_eq!(bare_bytes.as_bytes(), &golden[..], "bare daemon == batch CLI");

    // Instrumented daemon: every sink on, fast profiler sampling.
    let request_log = dir.join("requests.jsonl");
    let trace_dir = dir.join("traces");
    let slow_log = dir.join("slow.jsonl");
    let daemon = Daemon::spawn(&[
        "serve",
        "--store-dir",
        store_arg,
        "--max-inflight",
        "8",
        "--request-log",
        request_log.to_str().expect("utf8 path"),
        "--trace-dir",
        trace_dir.to_str().expect("utf8 path"),
        "--slow-ms",
        "0",
        "--slow-log",
        slow_log.to_str().expect("utf8 path"),
        "--profile-interval-ms",
        "1",
    ]);

    // Concurrent instrumented studies: all byte-identical to the golden.
    let handles: Vec<_> = (0..4)
        .map(|k| {
            let addr = daemon.addr.clone();
            std::thread::spawn(move || request_study(&addr, &format!("obs-{k}")))
        })
        .collect();
    let mut served = 0u64;
    let mut manifest_walls = Vec::new();
    for (k, h) in handles.into_iter().enumerate() {
        let r = h.join().expect("client thread");
        let manifest = r
            .manifest_json
            .as_deref()
            .expect("manifest in the response");
        let manifest = schevo::obs::manifest::RunManifest::from_json(manifest).expect("manifest");
        manifest_walls.push(manifest.wall_us);
        assert_eq!(r.status, "ok", "client {k}: {:?}", r.error);
        served += 1;
        assert_eq!(
            r.study_json.as_deref().map(str::as_bytes),
            Some(&golden[..]),
            "instrumented client {k} diverged from the batch CLI"
        );
    }

    // The profiler is live and runtime-togglable over the wire.
    let mut conn = schevo::serve::connect(&daemon.addr).expect("connect");
    let status = conn
        .roundtrip(&schevo::serve::Request {
            op: "profile".to_string(),
            profile: Some("status".to_string()),
            ..schevo::serve::Request::default()
        })
        .expect("profile status");
    assert_eq!(status.status, "ok");
    assert_eq!(status.profiling, Some(true), "always-on profiling is on");
    let stopped = conn
        .roundtrip(&schevo::serve::Request {
            op: "profile".to_string(),
            profile: Some("stop".to_string()),
            ..schevo::serve::Request::default()
        })
        .expect("profile stop");
    assert_eq!(stopped.profiling, Some(false));
    let stacks = stopped.profile_stacks.expect("collapsed stacks");
    schevo::obs::profile::validate_collapsed(&stacks).expect("collapsed-stack format");
    drop(conn);

    // Graceful SIGTERM drain, then audit the sinks.
    daemon.drain();

    let log_text = std::fs::read_to_string(&request_log).expect("request log written");
    let lines =
        schevo::obs::validate::validate_request_log_jsonl(&log_text).expect("schema-valid log");
    // 4 studies + profile status + profile stop, exactly once each.
    assert_eq!(lines as u64, served + 2, "every request logged once:\n{log_text}");
    for k in 0..4 {
        assert_eq!(
            log_text.matches(&format!("\"obs-{k}\"")).count(),
            1,
            "study obs-{k} accounted exactly once"
        );
    }

    // One valid per-request Chrome trace per served study.
    for k in 0..4 {
        let trace = std::fs::read_to_string(trace_dir.join(format!("obs-{k}.trace.jsonl")))
            .expect("per-request trace exported");
        let events = schevo::obs::validate::validate_trace_jsonl(&trace).expect("trace validates");
        assert!(events >= 2, "request envelope plus stage spans");
        assert!(trace.contains("serve.request"));
    }

    // Threshold 0: every served study landed a span tree in the slow log.
    let slow_text = std::fs::read_to_string(&slow_log).expect("slow log written");
    assert_eq!(slow_text.lines().count() as u64, served);

    // One wall per served study, and request-log stages from its trace.
    let line_of = |text: &str, id: &str| -> serde_json::Value {
        let line = text
            .lines()
            .find(|l| l.contains(&format!("\"{id}\"")))
            .unwrap_or_else(|| panic!("no line for {id}"));
        serde_json::from_str(line).expect("line parses")
    };
    for (k, manifest_wall) in manifest_walls.iter().enumerate() {
        let id = format!("obs-{k}");
        let trace = std::fs::read_to_string(trace_dir.join(format!("{id}.trace.jsonl")))
            .expect("per-request trace exported");
        let request_span: Vec<u64> = trace
            .lines()
            .map(|l| serde_json::from_str::<serde_json::Value>(l).expect("trace line"))
            .filter(|v| v.get("name").and_then(|n| n.as_str()) == Some("serve.request"))
            .filter_map(|v| v.get("dur").and_then(|d| d.as_u64()))
            .collect();
        let slow_wall = line_of(&slow_text, &id)
            .get("wall_us")
            .and_then(|w| w.as_u64())
            .expect("slow-log wall_us");
        assert_eq!(request_span.len(), 1, "{id}: one serve.request span");
        assert_eq!(
            (slow_wall, *manifest_wall),
            (request_span[0], request_span[0]),
            "{id}: slow log, manifest and serve.request span read one clock"
        );
        let stages: Vec<schevo::obs::manifest::StageWall> = line_of(&log_text, &id)
            .get("stages")
            .and_then(|s| s.as_seq())
            .expect("request-log stages")
            .iter()
            .map(|pair| {
                let pair = pair.as_seq().expect("[name, wall_us] pair");
                schevo::obs::manifest::StageWall {
                    name: pair[0].as_str().expect("stage name").to_string(),
                    wall_us: pair[1].as_u64().expect("stage wall"),
                }
            })
            .collect();
        let names: Vec<&str> = stages.iter().map(|s| s.name.as_str()).collect();
        assert_eq!(names, ["funnel", "mine", "stats"], "{id}");
        assert_eq!(
            schevo::obs::validate::check_stages_against_trace(&stages, &trace),
            Ok(3),
            "{id}: request-log stages disagree with the request trace"
        );
    }

    let _ = std::fs::remove_dir_all(&dir);
}
