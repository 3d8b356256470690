//! Schema validation for the emitted observability artifacts.
//!
//! Two layers: self-generated round-trips (the library's own emitters
//! must satisfy its own validators), and an env-var-driven gate the CI
//! script points at files a *real* CLI run produced:
//!
//! ```sh
//! SCHEVO_TRACE_FILE=trace.jsonl \
//! SCHEVO_METRICS_FILE=metrics.json \
//! SCHEVO_MANIFEST_FILE=manifest.json \
//! SCHEVO_REQUEST_LOG_FILE=requests.jsonl \
//!   cargo test -p schevo-obs --test schema_validation
//! ```
//!
//! Unset variables skip their check, so the suite stays green in a plain
//! `cargo test` with no artifacts on disk. With both a trace and a
//! manifest set, every manifest stage must also equal the stage wall the
//! trace implies (`validate::check_stages_against_trace`).

use schevo_obs::manifest::{
    ClassCount, JournalManifest, QuarantineManifest, RunManifest, StageWall, MANIFEST_VERSION,
};
use schevo_obs::metrics::Registry;
use schevo_obs::trace::{to_chrome_jsonl, TraceEvent};
use schevo_obs::validate::{
    check_stages_against_trace, validate_manifest_json, validate_metrics_json,
    validate_request_log_jsonl, validate_trace_jsonl,
};

#[test]
fn emitted_trace_jsonl_validates() {
    let events = vec![
        TraceEvent {
            name: "study.mine".to_string(),
            cat: "study".to_string(),
            ts_us: 10,
            dur_us: 250,
            tid: 1,
            seq: 0,
            args: vec![("candidates".to_string(), "42".to_string())],
        },
        TraceEvent {
            name: "ddl.parse".to_string(),
            cat: "ddl".to_string(),
            ts_us: 12,
            dur_us: 3,
            tid: 2,
            seq: 1,
            args: Vec::new(),
        },
    ];
    let jsonl = to_chrome_jsonl(&events);
    assert_eq!(validate_trace_jsonl(&jsonl), Ok(2));
}

#[test]
fn emitted_metrics_json_validates() {
    let r = Registry::new();
    r.add("mine.parse.hits", 10);
    r.add("mine.parse.misses", 4);
    r.set_gauge("study.stage.mine.nanos", 1_000_000);
    for v in [0, 1, 3, 900, u64::MAX] {
        r.observe("mine.task.parse_nanos", v);
    }
    let snapshot = r.snapshot();
    assert_eq!(validate_metrics_json(&snapshot.to_json()), Ok(4));
    // The Prometheus rendering carries the same totals.
    let prom = snapshot.to_prometheus();
    assert!(prom.contains("mine_parse_hits 10"));
    assert!(prom.contains("mine_task_parse_nanos_count 5"));
    assert!(prom.contains("_bucket{le=\"+Inf\"} 5"));
}

#[test]
fn emitted_manifest_validates() {
    let manifest = RunManifest {
        manifest_version: MANIFEST_VERSION,
        command: "schevo study".to_string(),
        seed: 2019,
        scale_divisor: 1,
        workers: 8,
        strict: false,
        inject_faults_pct: Some(10),
        fault_seed: Some(7),
        deadline_ms: Some(5_000),
        trace_out: Some("trace.jsonl".to_string()),
        metrics_out: Some("metrics.json".to_string()),
        corpus_digest: "a".repeat(40),
        wall_us: 9_000_000,
        stages: vec![
            StageWall {
                name: "funnel".to_string(),
                wall_us: 100,
            },
            StageWall {
                name: "mine".to_string(),
                wall_us: 8_000_000,
            },
        ],
        quarantine: QuarantineManifest {
            recovered: 2,
            quarantined: 1,
            deadline_exceeded: 1,
            classes: vec![ClassCount {
                class: "Syntax".to_string(),
                recovered: 2,
                quarantined: 1,
            }],
        },
        journal: Some(JournalManifest {
            path: "run.journal".to_string(),
            replayed: 5,
            mined_fresh: 37,
            stale_discarded: 1,
            corrupt_tail: Some("truncated 17 trailing byte(s)".to_string()),
        }),
    };
    assert_eq!(validate_manifest_json(&manifest.render()), Ok(2));
}

#[test]
fn validators_reject_wrong_shapes() {
    assert!(validate_trace_jsonl("not json\n").is_err());
    assert!(validate_trace_jsonl("{\"name\": \"x\"}\n").is_err());
    assert!(validate_metrics_json("[]").is_err());
    assert!(validate_manifest_json("{\"manifest_version\": 99}").is_err());
}

/// CI gate: validate artifact files produced by a real run, when the
/// environment points at them.
#[test]
fn artifacts_on_disk_validate() {
    type Validator = fn(&str) -> Result<usize, String>;
    let checks: [(&str, Validator); 4] = [
        ("SCHEVO_TRACE_FILE", validate_trace_jsonl),
        ("SCHEVO_METRICS_FILE", validate_metrics_json),
        ("SCHEVO_MANIFEST_FILE", validate_manifest_json),
        ("SCHEVO_REQUEST_LOG_FILE", validate_request_log_jsonl),
    ];
    for (var, check) in checks {
        let Ok(path) = std::env::var(var) else { continue };
        if path.is_empty() {
            continue;
        }
        let text = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("{var}={path}: unreadable: {e}"));
        match check(&text) {
            Ok(n) => eprintln!("{var}={path}: {n} record(s) valid"),
            Err(e) => panic!("{var}={path}: schema violation: {e}"),
        }
    }
    let artifact = |var: &str| {
        let path = std::env::var(var).ok().filter(|p| !p.is_empty())?;
        let text = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("{var}={path}: unreadable: {e}"));
        Some(text)
    };
    if let (Some(trace), Some(manifest)) = (
        artifact("SCHEVO_TRACE_FILE"),
        artifact("SCHEVO_MANIFEST_FILE"),
    ) {
        let manifest = RunManifest::from_json(&manifest).expect("manifest parses");
        match check_stages_against_trace(&manifest.stages, &trace) {
            Ok(n) => eprintln!("{n} manifest stage wall(s) equal the trace's"),
            Err(e) => panic!("manifest stages disagree with the trace: {e}"),
        }
    }
}
