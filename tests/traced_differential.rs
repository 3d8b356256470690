//! Black-box traced-vs-untraced differential: the observability layer
//! (`--trace-out`, `--metrics-out`, `--manifest-out`, `--progress`) must
//! never perturb a single output byte. A fully instrumented `schevo
//! study` is compared to a bare one across worker counts, and every
//! emitted artifact is pushed through the schema validators in
//! `schevo-obs`.

use std::path::{Path, PathBuf};
use std::process::Command;

const SEED: &str = "2019";
const SCALE: &str = "20";

fn dir(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("schevo_traced_diff_{}_{tag}", std::process::id()));
    std::fs::create_dir_all(&d).expect("create scratch dir");
    d
}

/// Run `schevo study` at the fixed seed/scale with extra flags appended.
fn study(extra: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_schevo"))
        .args(["study", "--seed", SEED, "--scale", SCALE])
        .args(extra)
        .output()
        .expect("binary runs")
}

fn read(path: &Path) -> String {
    std::fs::read_to_string(path)
        .unwrap_or_else(|e| panic!("read {}: {e}", path.display()))
}

#[test]
fn instrumented_run_is_byte_identical_across_schedules() {
    let scratch = dir("matrix");
    let bare_dir = scratch.join("bare");
    let bare = study(&["--workers", "1", "--out", bare_dir.to_str().unwrap()]);
    assert!(
        bare.status.success(),
        "bare run failed: {}",
        String::from_utf8_lossy(&bare.stderr)
    );
    let bare_json = read(&bare_dir.join("study_results.json"));

    for (tag, workers) in [("w1", "1"), ("w2", "2"), ("w8", "8")] {
        let out_dir = scratch.join(format!("out-{tag}"));
        let trace = scratch.join(format!("trace-{tag}.jsonl"));
        let metrics = scratch.join(format!("metrics-{tag}.json"));
        let manifest = scratch.join(format!("manifest-{tag}.json"));
        let flags = [
            "--workers",
            workers,
            "--progress",
            "--out",
            out_dir.to_str().unwrap(),
            "--trace-out",
            trace.to_str().unwrap(),
            "--metrics-out",
            metrics.to_str().unwrap(),
            "--manifest-out",
            manifest.to_str().unwrap(),
        ];
        let instrumented = study(&flags);
        assert!(
            instrumented.status.success(),
            "instrumented run ({tag}) failed: {}",
            String::from_utf8_lossy(&instrumented.stderr)
        );
        assert_eq!(
            instrumented.stdout, bare.stdout,
            "instrumentation changed stdout under {tag}"
        );
        assert_eq!(
            read(&out_dir.join("study_results.json")),
            bare_json,
            "instrumentation changed study_results.json under {tag}"
        );
        // The emitted artifacts must satisfy their schemas.
        let trace_events = schevo::obs::validate::validate_trace_jsonl(&read(&trace))
            .unwrap_or_else(|e| panic!("trace schema violated under {tag}: {e}"));
        assert!(trace_events > 0, "traced run emitted no events under {tag}");
        let metric_count = schevo::obs::validate::validate_metrics_json(&read(&metrics))
            .unwrap_or_else(|e| panic!("metrics schema violated under {tag}: {e}"));
        assert!(metric_count > 0, "no metrics exported under {tag}");
        schevo::obs::validate::validate_manifest_json(&read(&manifest))
            .unwrap_or_else(|e| panic!("manifest schema violated under {tag}: {e}"));
        // The manifest must record the run's actual configuration.
        let m = schevo::obs::manifest::RunManifest::from_json(&read(&manifest))
            .expect("manifest parses back");
        assert_eq!(m.seed, 2019);
        assert_eq!(m.scale_divisor, 20);
        assert_eq!(m.workers.to_string(), workers);
        assert_eq!(m.corpus_digest.len(), 40);
        let stage_names: Vec<&str> = m.stages.iter().map(|s| s.name.as_str()).collect();
        assert_eq!(stage_names, ["generate", "funnel", "mine", "stats"]);
    }
    let _ = std::fs::remove_dir_all(&scratch);
}

#[test]
fn no_trace_disables_span_collection_but_not_outputs() {
    let scratch = dir("notrace");
    let trace = scratch.join("trace.jsonl");
    let out = study(&["--trace-out", trace.to_str().unwrap(), "--no-trace"]);
    assert!(out.status.success());
    assert_eq!(read(&trace), "", "--no-trace must leave the trace file empty");

    let bare = study(&[]);
    assert_eq!(out.stdout, bare.stdout, "--no-trace changed stdout");
    let _ = std::fs::remove_dir_all(&scratch);
}

#[test]
fn prometheus_format_exports_and_manifest_records_journal() {
    let scratch = dir("prom");
    let metrics = scratch.join("metrics.prom");
    let manifest = scratch.join("manifest.json");
    let journal = scratch.join("run.wal");
    let out = study(&[
        "--metrics-out",
        metrics.to_str().unwrap(),
        "--metrics-format",
        "prom",
        "--manifest-out",
        manifest.to_str().unwrap(),
        "--journal",
        journal.to_str().unwrap(),
        "--deadline-ms",
        "60000",
    ]);
    assert!(
        out.status.success(),
        "prom run failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let prom = read(&metrics);
    assert!(prom.contains("# TYPE mine_parse_misses counter"), "missing counter:\n{prom}");
    assert!(prom.contains("mine_task_parse_nanos_count"), "missing histogram:\n{prom}");
    assert!(prom.contains("le=\"+Inf\""), "missing +Inf bucket:\n{prom}");
    // Hot-path rewrite telemetry: arena allocation is a counter, the
    // interner's size a gauge — and neither may perturb outputs (the
    // stdout/results diffs above and in `instrumented_run_is_byte_identical_
    // across_schedules` run with metrics both on and off).
    assert!(
        prom.contains("# TYPE parse_arena_bytes counter"),
        "missing arena counter:\n{prom}"
    );
    assert!(
        prom.contains("# TYPE intern_symbols gauge"),
        "missing interner gauge:\n{prom}"
    );

    let m = schevo::obs::manifest::RunManifest::from_json(&read(&manifest))
        .expect("manifest parses");
    assert_eq!(m.deadline_ms, Some(60_000));
    let j = m.journal.expect("journaled run records a journal block");
    assert_eq!(j.path, journal.to_str().unwrap());
    assert_eq!(j.replayed, 0);
    assert!(j.mined_fresh > 0);
    assert_eq!(j.corrupt_tail, None);

    // Resume from the now-complete journal: the manifest must account
    // for every candidate as replayed, none re-mined.
    let manifest2 = scratch.join("manifest-resume.json");
    let resumed = study(&[
        "--journal",
        journal.to_str().unwrap(),
        "--resume",
        "--manifest-out",
        manifest2.to_str().unwrap(),
    ]);
    assert!(resumed.status.success());
    let m2 = schevo::obs::manifest::RunManifest::from_json(&read(&manifest2))
        .expect("resume manifest parses");
    let j2 = m2.journal.expect("resumed run records a journal block");
    assert_eq!(j2.mined_fresh, 0, "complete journal should leave nothing to mine");
    assert_eq!(j2.replayed, j.mined_fresh, "every journaled outcome replays on resume");
    let _ = std::fs::remove_dir_all(&scratch);
}

#[test]
fn metrics_format_without_metrics_out_is_rejected() {
    let out = study(&["--metrics-format", "prom"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("--metrics-out"));
    let bad = study(&["--metrics-out", "/dev/null", "--metrics-format", "xml"]);
    assert_eq!(bad.status.code(), Some(2));
}
