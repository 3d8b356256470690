//! The run manifest: a self-describing record of one study run.
//!
//! The manifest captures everything needed to audit or reproduce a run —
//! seed and flags, the corpus digest, wall and per-stage times, the
//! quarantine summary, and (for durable runs) what the journal replayed
//! versus re-mined. The CLI assembles a [`RunManifest`] after the study
//! completes and writes [`RunManifest::render`] atomically through
//! `report::atomic`, so a crash mid-write never leaves a torn manifest.
//!
//! The schema is validated structurally by [`crate::validate`] and is
//! versioned through [`MANIFEST_VERSION`]; consumers should reject
//! manifests with a version they do not know.

use crate::metrics::MetricsSnapshot;
use serde::{Deserialize, Serialize};

/// Current manifest schema version.
pub const MANIFEST_VERSION: u64 = 2;

/// Wall time of one pipeline stage.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct StageWall {
    /// Stage name (`"generate"`, `"funnel"`, `"mine"`, `"stats"`).
    pub name: String,
    /// Stage wall time in microseconds.
    pub wall_us: u64,
}

/// Per-class quarantine tallies carried in the manifest.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ClassCount {
    /// Degradation class name.
    pub class: String,
    /// Versions recovered (salvaged) under this class.
    pub recovered: u64,
    /// Histories quarantined under this class.
    pub quarantined: u64,
}

/// Quarantine summary carried in the manifest.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct QuarantineManifest {
    /// Total versions recovered across all classes.
    pub recovered: u64,
    /// Total histories quarantined across all classes.
    pub quarantined: u64,
    /// Tasks that exceeded the `--deadline-ms` watchdog.
    pub deadline_exceeded: u64,
    /// Per-class breakdown, in the quarantine report's canonical class
    /// order (classes with no events are omitted).
    pub classes: Vec<ClassCount>,
}

/// Journal summary carried in the manifest: what a durable run replayed
/// versus re-mined, and whether a corrupt tail was truncated on resume.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct JournalManifest {
    /// Journal file path.
    pub path: String,
    /// Outcomes replayed from the journal instead of re-mined.
    pub replayed: u64,
    /// Outcomes mined fresh this run.
    pub mined_fresh: u64,
    /// Journal entries discarded as stale (key no longer in the corpus).
    pub stale_discarded: u64,
    /// Description of a corrupt journal tail truncated on resume, if any.
    pub corrupt_tail: Option<String>,
}

/// A self-describing record of one study run. Field order is the JSON
/// key order (the vendored serde preserves declaration order).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RunManifest {
    /// Schema version ([`MANIFEST_VERSION`]).
    pub manifest_version: u64,
    /// The command that produced this run (e.g. `"schevo study"`).
    pub command: String,
    /// Universe generator seed.
    pub seed: u64,
    /// Universe scale divisor (paper scale = 1).
    pub scale_divisor: u64,
    /// Worker thread count.
    pub workers: u64,
    /// Whether strict mode (abort on first degradation) was on.
    pub strict: bool,
    /// Fault injection percentage, when `--inject-faults` was given.
    pub inject_faults_pct: Option<u64>,
    /// Fault injection seed, when faults were injected.
    pub fault_seed: Option<u64>,
    /// Watchdog deadline per mining task, when `--deadline-ms` was given.
    pub deadline_ms: Option<u64>,
    /// Trace output path, when `--trace-out` was given.
    pub trace_out: Option<String>,
    /// Metrics output path, when `--metrics-out` was given.
    pub metrics_out: Option<String>,
    /// SHA-1 digest of the generated (and possibly fault-injected)
    /// corpus: seed, scale, repo names, SQL paths, branch tips.
    pub corpus_digest: String,
    /// Total run wall time in microseconds.
    pub wall_us: u64,
    /// Per-stage wall times, pipeline order. `generate` is the
    /// `study.generate` span. A streamed corpus (`schevo study` without
    /// `--store-dir` or `--inject-faults`) is generated on a producer
    /// thread while the caller mines, so there `generate` is the
    /// producer's summed generation time and overlaps `funnel` (the
    /// caller's wait for the next survivor) and `mine`: the stages can
    /// add up to more than `wall_us`.
    pub stages: Vec<StageWall>,
    /// Quarantine summary.
    pub quarantine: QuarantineManifest,
    /// Journal summary, when the run was durable (`--journal`).
    pub journal: Option<JournalManifest>,
}

impl RunManifest {
    /// Pretty JSON rendering, newline-terminated — the exact bytes the
    /// CLI writes to `--manifest-out`.
    pub fn render(&self) -> String {
        match serde_json::to_string_pretty(self) {
            Ok(mut s) => {
                s.push('\n');
                s
            }
            Err(_) => "{}\n".to_string(), // plain data always encodes
        }
    }

    /// Parse a manifest back from its JSON rendering.
    pub fn from_json(json: &str) -> Result<RunManifest, String> {
        let value = serde_json::from_str(json).map_err(|e| e.to_string())?;
        serde_json::from_value(&value).map_err(|e| e.to_string())
    }
}

/// Canonical pipeline order for stage names in the manifest.
pub const STAGE_ORDER: [&str; 4] = ["generate", "funnel", "mine", "stats"];

/// Extract per-stage wall times from a metrics snapshot: every gauge
/// named `study.stage.<name>.nanos` becomes a [`StageWall`] (nanoseconds
/// rounded down to microseconds), ordered by [`STAGE_ORDER`] with any
/// unknown stages appended alphabetically.
pub fn stages_from_snapshot(snapshot: &MetricsSnapshot) -> Vec<StageWall> {
    let mut found: Vec<StageWall> = snapshot
        .gauges
        .iter()
        .filter_map(|(name, nanos)| {
            let inner = name
                .strip_prefix("study.stage.")?
                .strip_suffix(".nanos")?;
            Some(StageWall {
                name: inner.to_string(),
                wall_us: nanos / 1_000,
            })
        })
        .collect();
    found.sort_by_key(|s| {
        (
            STAGE_ORDER
                .iter()
                .position(|known| *known == s.name)
                .unwrap_or(STAGE_ORDER.len()),
            s.name.clone(),
        )
    });
    found
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::Registry;

    fn sample() -> RunManifest {
        RunManifest {
            manifest_version: MANIFEST_VERSION,
            command: "schevo study".to_string(),
            seed: 2019,
            scale_divisor: 20,
            workers: 2,
            strict: false,
            inject_faults_pct: None,
            fault_seed: None,
            deadline_ms: Some(5_000),
            trace_out: Some("trace.jsonl".to_string()),
            metrics_out: None,
            corpus_digest: "0".repeat(40),
            wall_us: 1_234_567,
            stages: vec![StageWall {
                name: "mine".to_string(),
                wall_us: 900_000,
            }],
            quarantine: QuarantineManifest::default(),
            journal: Some(JournalManifest {
                path: "run.journal".to_string(),
                replayed: 3,
                mined_fresh: 7,
                stale_discarded: 0,
                corrupt_tail: None,
            }),
        }
    }

    #[test]
    fn manifest_json_roundtrips() {
        let m = sample();
        let json = m.render();
        assert!(json.ends_with('\n'));
        let back = RunManifest::from_json(&json).expect("manifest parses");
        assert_eq!(back, m);
    }

    #[test]
    fn stage_walls_come_from_gauges_in_pipeline_order() {
        let r = Registry::new();
        r.set_gauge("study.stage.mine.nanos", 2_000_000);
        r.set_gauge("study.stage.funnel.nanos", 1_500);
        r.set_gauge("study.stage.custom.nanos", 99_000);
        r.set_gauge("unrelated.gauge", 7);
        let stages = stages_from_snapshot(&r.snapshot());
        let names: Vec<&str> = stages.iter().map(|s| s.name.as_str()).collect();
        assert_eq!(names, ["funnel", "mine", "custom"]);
        assert_eq!(stages[0].wall_us, 1);
        assert_eq!(stages[1].wall_us, 2_000);
    }
}
