//! One stage clock: every reported stage time is a sum of span-guard
//! durations, so the trace and the manifest, and a request trace and
//! `ExecStats`, cannot disagree.
//!
//! - **Batch study.** For `schevo study --trace-out --manifest-out` at one
//!   and at four workers, each manifest stage equals the wall derived
//!   from the trace (generate = `study.generate`, funnel = `source.read`,
//!   mine = `study.mine` − `source.read`, stats = `study.stats`) within
//!   1 µs per span summed, since each span is rounded down to whole µs
//!   on its own; the manifest `wall_us` is the `study.run` span.
//! - **Scoped mining.** For `MiningEngine::mine` with a request scope at
//!   four workers, the `mine.parse`, `mine.diff` and `mine.measures`
//!   spans sum to the `ExecStats` stage nanos, and each lies inside a
//!   `mine.task` span on its lane.

use schevo::obs::manifest::RunManifest;
use schevo::obs::scope::TraceScope;
use schevo::obs::trace::TraceEvent;
use schevo::obs::validate::{check_stages_against_trace, stage_walls_from_trace};
use schevo::prelude::*;
use std::path::PathBuf;
use std::process::Command;
use std::sync::Arc;

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("schevo_stage_clock_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir
}

/// The `dur` of every span of Chrome-trace JSONL named `name`.
fn durations(trace: &str, name: &str) -> Vec<u64> {
    trace
        .lines()
        .filter(|l| !l.trim().is_empty())
        .filter_map(|line| {
            let v: serde_json::Value = serde_json::from_str(line).expect("trace line parses");
            (v.get("name")?.as_str()? == name).then(|| v.get("dur")?.as_u64())?
        })
        .collect()
}

#[test]
fn manifest_stages_are_the_trace_spans_at_one_and_four_workers() {
    let dir = scratch("batch");
    for workers in ["1", "4"] {
        let trace_path = dir.join(format!("trace-{workers}.jsonl"));
        let manifest_path = dir.join(format!("manifest-{workers}.json"));
        let out = Command::new(env!("CARGO_BIN_EXE_schevo"))
            .args([
                "study",
                "--seed",
                "2019",
                "--scale",
                "20",
                "--workers",
                workers,
            ])
            .args(["--trace-out", trace_path.to_str().expect("utf8 path")])
            .args(["--manifest-out", manifest_path.to_str().expect("utf8 path")])
            .output()
            .expect("binary runs");
        assert!(
            out.status.success(),
            "{}",
            String::from_utf8_lossy(&out.stderr)
        );
        let trace = std::fs::read_to_string(&trace_path).expect("trace written");
        let manifest = RunManifest::from_json(
            &std::fs::read_to_string(&manifest_path).expect("manifest written"),
        )
        .expect("manifest parses");

        let names: Vec<&str> = manifest.stages.iter().map(|s| s.name.as_str()).collect();
        assert_eq!(
            names,
            ["generate", "funnel", "mine", "stats"],
            "workers={workers}"
        );
        assert_eq!(check_stages_against_trace(&manifest.stages, &trace), Ok(4));

        // The same derivation spelled out, span by span.
        let one = |name: &str| {
            let d = durations(&trace, name);
            assert_eq!(d.len(), 1, "workers={workers}: one `{name}` span");
            d[0]
        };
        let wall = |stage: &str| {
            manifest
                .stages
                .iter()
                .find(|s| s.name == stage)
                .map(|s| s.wall_us)
                .expect("stage present")
        };
        let source = one("source.read");
        assert_eq!(wall("generate"), one("study.generate"));
        assert_eq!(wall("funnel"), source);
        assert!(wall("mine").abs_diff(one("study.mine") - source) <= 1);
        assert_eq!(wall("stats"), one("study.stats"));
        assert_eq!(manifest.wall_us, one("study.run"));
        assert!(
            wall("funnel") > 0,
            "the funnel is source time, not mining time"
        );
        let derived = stage_walls_from_trace(&trace).expect("trace valid");
        assert_eq!(derived.len(), 4);
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// Whether `inner` lies inside `outer`, allowing the 1 µs that rounding
/// each start and duration down on its own can add at the end.
fn inside(inner: &TraceEvent, outer: &TraceEvent) -> bool {
    inner.tid == outer.tid
        && inner.ts_us >= outer.ts_us
        && inner.ts_us + inner.dur_us <= outer.ts_us + outer.dur_us + 1
}

#[test]
fn scoped_task_stages_sum_to_exec_stats_inside_their_tasks() {
    let universe = generate(UniverseConfig::small(2019, 12));
    let scope = Arc::new(TraceScope::new());
    let mut options = StudyOptions {
        workers: 4,
        ..StudyOptions::default()
    };
    options.obs.trace = Some(Arc::clone(&scope));
    let out = MiningEngine::new(options).mine(&universe).expect("mining");
    let events = scope.drain();
    let of =
        |name: &str| -> Vec<&TraceEvent> { events.iter().filter(|e| e.name == name).collect() };

    let tasks = of("mine.task");
    assert_eq!(tasks.len(), out.exec.tasks);
    for (stage, nanos) in [
        ("mine.parse", out.exec.parse_nanos),
        ("mine.diff", out.exec.diff_nanos),
        ("mine.measures", out.exec.profile_nanos),
    ] {
        let spans = of(stage);
        assert_eq!(spans.len(), tasks.len(), "one `{stage}` span per task");
        let summed: u64 = spans.iter().map(|e| e.dur_us).sum();
        assert!(
            (nanos / 1_000).abs_diff(summed) <= spans.len() as u64,
            "{stage}: spans sum to {summed} µs, ExecStats has {nanos} ns"
        );
        for span in spans {
            assert!(
                tasks.iter().any(|task| inside(span, task)),
                "{stage} at {}+{} on lane {} is inside no task span",
                span.ts_us,
                span.dur_us,
                span.tid
            );
        }
    }
    let pass = of("mine.pass");
    assert_eq!(pass.len(), 1);
    assert_eq!(pass[0].dur_us, out.exec.wall_nanos / 1_000);
    assert_eq!(of("source.read")[0].dur_us, out.source_nanos / 1_000);
}
