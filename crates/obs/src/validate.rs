//! Structural validators for the emitted observability artifacts.
//!
//! These are the "tiny validators" the CI gate runs against real CLI
//! output: they check the documented shape of the trace JSONL, the
//! metrics JSON, and the run manifest without pulling in a JSON-Schema
//! engine. Each returns a human-readable error naming the first
//! violation, or a count of validated records on success.

use crate::manifest::StageWall;
use serde_json::Value;

fn field<'v>(v: &'v Value, key: &str, ctx: &str) -> Result<&'v Value, String> {
    v.get(key).ok_or_else(|| format!("{ctx}: missing key `{key}`"))
}

fn expect_u64(v: &Value, key: &str, ctx: &str) -> Result<u64, String> {
    field(v, key, ctx)?
        .as_u64()
        .ok_or_else(|| format!("{ctx}: `{key}` is not a non-negative integer"))
}

fn expect_str<'v>(v: &'v Value, key: &str, ctx: &str) -> Result<&'v str, String> {
    field(v, key, ctx)?
        .as_str()
        .ok_or_else(|| format!("{ctx}: `{key}` is not a string"))
}

fn expect_bool(v: &Value, key: &str, ctx: &str) -> Result<bool, String> {
    field(v, key, ctx)?
        .as_bool()
        .ok_or_else(|| format!("{ctx}: `{key}` is not a boolean"))
}

/// Validate Chrome-trace JSONL as emitted by `--trace-out`: every
/// non-empty line is a JSON object holding string `name`/`cat`, phase
/// `"X"`, and integer `ts`/`dur`/`pid`/`tid`, with `args` a map of
/// strings. Returns the number of validated events.
pub fn validate_trace_jsonl(text: &str) -> Result<usize, String> {
    let mut count = 0usize;
    for (idx, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let ctx = format!("trace line {}", idx + 1);
        let v: Value = serde_json::from_str(line)
            .map_err(|e| format!("{ctx}: not valid JSON: {e}"))?;
        if v.as_map().is_none() {
            return Err(format!("{ctx}: not a JSON object"));
        }
        expect_str(&v, "name", &ctx)?;
        expect_str(&v, "cat", &ctx)?;
        let ph = expect_str(&v, "ph", &ctx)?;
        if ph != "X" {
            return Err(format!("{ctx}: `ph` is {ph:?}, expected \"X\""));
        }
        expect_u64(&v, "ts", &ctx)?;
        expect_u64(&v, "dur", &ctx)?;
        expect_u64(&v, "pid", &ctx)?;
        expect_u64(&v, "tid", &ctx)?;
        let args = field(&v, "args", &ctx)?;
        let Some(pairs) = args.as_map() else {
            return Err(format!("{ctx}: `args` is not an object"));
        };
        for (k, av) in pairs {
            if av.as_str().is_none() {
                return Err(format!("{ctx}: arg `{k}` is not a string"));
            }
        }
        count += 1;
    }
    Ok(count)
}

/// How each manifest stage derives from trace spans: the sum of the
/// `plus` spans' durations less the sum of the `minus` spans'.
const STAGE_SPANS: [(&str, &[&str], &[&str]); 4] = [
    ("generate", &["study.generate"], &[]),
    ("funnel", &["source.read"], &[]),
    ("mine", &["study.mine"], &["source.read"]),
    ("stats", &["study.stats"], &[]),
];

/// The stage walls a Chrome-trace JSONL implies, in pipeline order:
/// generate = `study.generate`, funnel = `source.read`, mine =
/// `study.mine` − `source.read`, stats = `study.stats`, each span summed
/// over the trace. A stage is omitted when the trace has none of its
/// `study.*` span. Each wall comes with the number of spans it sums.
pub fn stage_walls_from_trace(text: &str) -> Result<Vec<(StageWall, u64)>, String> {
    validate_trace_jsonl(text)?;
    let mut durations: Vec<(String, u64)> = Vec::new();
    for line in text.lines().filter(|l| !l.trim().is_empty()) {
        let v: Value = serde_json::from_str(line).map_err(|e| e.to_string())?;
        let name = expect_str(&v, "name", "trace")?.to_string();
        durations.push((name, expect_u64(&v, "dur", "trace")?));
    }
    let total = |names: &[&str]| -> (u64, u64) {
        durations
            .iter()
            .filter(|(n, _)| names.contains(&n.as_str()))
            .fold((0, 0), |(sum, spans), (_, d)| (sum + d, spans + 1))
    };
    let mut walls = Vec::new();
    for (stage, plus, minus) in STAGE_SPANS {
        let (added, added_spans) = total(plus);
        if added_spans == 0 {
            continue;
        }
        let (taken, taken_spans) = total(minus);
        let wall = StageWall {
            name: stage.to_string(),
            wall_us: added.saturating_sub(taken),
        };
        walls.push((wall, added_spans + taken_spans));
    }
    Ok(walls)
}

/// Check reported stage walls (a manifest's or a request-log line's
/// `stages`) against the walls derived from the trace of the same run
/// ([`stage_walls_from_trace`]): every stage must be derivable and equal
/// its derived wall within 1 µs per span summed (each span's duration is
/// rounded down to whole µs on its own). Returns the number of stages
/// checked.
pub fn check_stages_against_trace(stages: &[StageWall], trace: &str) -> Result<usize, String> {
    let derived = stage_walls_from_trace(trace)?;
    for stage in stages {
        let Some((wall, spans)) = derived.iter().find(|(w, _)| w.name == stage.name) else {
            return Err(format!(
                "stage `{}`: the trace has no span for it",
                stage.name
            ));
        };
        if stage.wall_us.abs_diff(wall.wall_us) > *spans {
            return Err(format!(
                "stage `{}`: reported {} µs, trace gives {} µs over {spans} span(s)",
                stage.name, stage.wall_us, wall.wall_us
            ));
        }
    }
    Ok(stages.len())
}

fn validate_histogram(h: &Value, ctx: &str) -> Result<(), String> {
    let count = expect_u64(h, "count", ctx)?;
    expect_u64(h, "sum", ctx)?;
    expect_u64(h, "min", ctx)?;
    expect_u64(h, "max", ctx)?;
    let buckets = field(h, "buckets", ctx)?
        .as_seq()
        .ok_or_else(|| format!("{ctx}: `buckets` is not an array"))?;
    if buckets.len() != crate::metrics::BUCKETS {
        return Err(format!(
            "{ctx}: expected {} buckets, found {}",
            crate::metrics::BUCKETS,
            buckets.len()
        ));
    }
    let mut total = 0u64;
    for (i, b) in buckets.iter().enumerate() {
        let n = b
            .as_u64()
            .ok_or_else(|| format!("{ctx}: bucket {i} is not a non-negative integer"))?;
        total += n;
    }
    if total != count {
        return Err(format!(
            "{ctx}: bucket counts sum to {total} but `count` is {count}"
        ));
    }
    Ok(())
}

/// Check a `[name, value]` pair section (`counters` / `gauges`).
fn validate_scalar_section(v: &Value, section: &str) -> Result<usize, String> {
    let seq = field(v, section, "metrics")?
        .as_seq()
        .ok_or_else(|| format!("metrics: `{section}` is not an array"))?;
    for (i, pair) in seq.iter().enumerate() {
        let ctx = format!("metrics {section}[{i}]");
        let Some(entry) = pair.as_seq() else {
            return Err(format!("{ctx}: not a [name, value] pair"));
        };
        if entry.len() != 2 {
            return Err(format!("{ctx}: expected 2 elements, found {}", entry.len()));
        }
        if entry[0].as_str().is_none() {
            return Err(format!("{ctx}: name is not a string"));
        }
        if entry[1].as_u64().is_none() {
            return Err(format!("{ctx}: value is not a non-negative integer"));
        }
    }
    Ok(seq.len())
}

/// Validate metrics JSON as emitted by `--metrics-out`: `counters` and
/// `gauges` are `[name, u64]` pair lists, `histograms` are
/// `[name, histogram]` pairs whose bucket counts sum to `count`.
/// Returns the total number of validated metrics.
pub fn validate_metrics_json(text: &str) -> Result<usize, String> {
    let v: Value =
        serde_json::from_str(text).map_err(|e| format!("metrics: not valid JSON: {e}"))?;
    let mut total = validate_scalar_section(&v, "counters")?;
    total += validate_scalar_section(&v, "gauges")?;
    let hists = field(&v, "histograms", "metrics")?
        .as_seq()
        .ok_or_else(|| "metrics: `histograms` is not an array".to_string())?;
    for (i, pair) in hists.iter().enumerate() {
        let ctx = format!("metrics histograms[{i}]");
        let Some(entry) = pair.as_seq() else {
            return Err(format!("{ctx}: not a [name, histogram] pair"));
        };
        if entry.len() != 2 || entry[0].as_str().is_none() {
            return Err(format!("{ctx}: expected [name, histogram]"));
        }
        validate_histogram(&entry[1], &ctx)?;
    }
    Ok(total + hists.len())
}

/// Validate a run manifest as emitted by `--manifest-out`. Checks the
/// schema version, every required scalar, the stage list, the quarantine
/// block, and (when present) the journal block. Returns the number of
/// stages recorded.
pub fn validate_manifest_json(text: &str) -> Result<usize, String> {
    let v: Value =
        serde_json::from_str(text).map_err(|e| format!("manifest: not valid JSON: {e}"))?;
    let ctx = "manifest";
    let version = expect_u64(&v, "manifest_version", ctx)?;
    if version != crate::manifest::MANIFEST_VERSION {
        return Err(format!(
            "{ctx}: unknown manifest_version {version} (expected {})",
            crate::manifest::MANIFEST_VERSION
        ));
    }
    expect_str(&v, "command", ctx)?;
    expect_u64(&v, "seed", ctx)?;
    expect_u64(&v, "scale_divisor", ctx)?;
    expect_u64(&v, "workers", ctx)?;
    expect_bool(&v, "strict", ctx)?;
    let digest = expect_str(&v, "corpus_digest", ctx)?;
    if digest.len() != 40 || !digest.chars().all(|c| c.is_ascii_hexdigit()) {
        return Err(format!("{ctx}: `corpus_digest` is not a 40-hex-char SHA-1"));
    }
    expect_u64(&v, "wall_us", ctx)?;
    let stages = field(&v, "stages", ctx)?
        .as_seq()
        .ok_or_else(|| format!("{ctx}: `stages` is not an array"))?;
    for (i, stage) in stages.iter().enumerate() {
        let sctx = format!("manifest stages[{i}]");
        expect_str(stage, "name", &sctx)?;
        expect_u64(stage, "wall_us", &sctx)?;
    }
    let q = field(&v, "quarantine", ctx)?;
    let qctx = "manifest quarantine";
    expect_u64(q, "recovered", qctx)?;
    expect_u64(q, "quarantined", qctx)?;
    expect_u64(q, "deadline_exceeded", qctx)?;
    let classes = field(q, "classes", qctx)?
        .as_seq()
        .ok_or_else(|| format!("{qctx}: `classes` is not an array"))?;
    for (i, class) in classes.iter().enumerate() {
        let cctx = format!("{qctx} classes[{i}]");
        expect_str(class, "class", &cctx)?;
        expect_u64(class, "recovered", &cctx)?;
        expect_u64(class, "quarantined", &cctx)?;
    }
    let journal = field(&v, "journal", ctx)?;
    if !journal.is_null() {
        let jctx = "manifest journal";
        expect_str(journal, "path", jctx)?;
        expect_u64(journal, "replayed", jctx)?;
        expect_u64(journal, "mined_fresh", jctx)?;
        expect_u64(journal, "stale_discarded", jctx)?;
        let tail = field(journal, "corrupt_tail", jctx)?;
        if !tail.is_null() && tail.as_str().is_none() {
            return Err(format!("{jctx}: `corrupt_tail` is neither null nor a string"));
        }
    }
    Ok(stages.len())
}

/// Schema version of the serve request log.
pub const REQUEST_LOG_VERSION: u64 = 1;

/// Validate a serve request log as emitted by `--request-log`: one JSON
/// object per line with `v` = [`REQUEST_LOG_VERSION`], string
/// `id`/`op`/`status` (status one of `ok`/`busy`/`draining`/`error`),
/// integer `ts_ms`/`queue_us`/`wall_us`/`bytes_in`/`bytes_out`/
/// `quarantined`, and `stages` an array of `[name, wall_us]` pairs.
/// `ts_ms` must be non-decreasing across lines (the log is written in
/// completion order under one lock). Returns the number of validated
/// entries.
pub fn validate_request_log_jsonl(text: &str) -> Result<usize, String> {
    let mut count = 0usize;
    let mut last_ts = 0u64;
    for (idx, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let ctx = format!("request-log line {}", idx + 1);
        let v: Value =
            serde_json::from_str(line).map_err(|e| format!("{ctx}: not valid JSON: {e}"))?;
        if v.as_map().is_none() {
            return Err(format!("{ctx}: not a JSON object"));
        }
        let version = expect_u64(&v, "v", &ctx)?;
        if version != REQUEST_LOG_VERSION {
            return Err(format!(
                "{ctx}: unknown request-log version {version} (expected {REQUEST_LOG_VERSION})"
            ));
        }
        let id = expect_str(&v, "id", &ctx)?;
        if id.is_empty() {
            return Err(format!("{ctx}: `id` is empty"));
        }
        expect_str(&v, "op", &ctx)?;
        let status = expect_str(&v, "status", &ctx)?;
        if !matches!(status, "ok" | "busy" | "draining" | "error") {
            return Err(format!("{ctx}: unknown status {status:?}"));
        }
        let ts_ms = expect_u64(&v, "ts_ms", &ctx)?;
        if ts_ms < last_ts {
            return Err(format!(
                "{ctx}: `ts_ms` {ts_ms} goes backwards (previous line was {last_ts})"
            ));
        }
        last_ts = ts_ms;
        expect_u64(&v, "queue_us", &ctx)?;
        expect_u64(&v, "wall_us", &ctx)?;
        expect_u64(&v, "bytes_in", &ctx)?;
        expect_u64(&v, "bytes_out", &ctx)?;
        expect_u64(&v, "quarantined", &ctx)?;
        let stages = field(&v, "stages", &ctx)?
            .as_seq()
            .ok_or_else(|| format!("{ctx}: `stages` is not an array"))?;
        for (i, stage) in stages.iter().enumerate() {
            let sctx = format!("{ctx} stages[{i}]");
            let Some(pair) = stage.as_seq() else {
                return Err(format!("{sctx}: not a [name, wall_us] pair"));
            };
            if pair.len() != 2 || pair[0].as_str().is_none() || pair[1].as_u64().is_none() {
                return Err(format!("{sctx}: expected [name, wall_us]"));
            }
        }
        count += 1;
    }
    Ok(count)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stage_walls_derive_from_the_trace_and_catch_a_mismatch() {
        let span = |name: &str, dur: u64| crate::trace::TraceEvent {
            name: name.to_string(),
            cat: crate::trace::category(name),
            ts_us: 0,
            dur_us: dur,
            tid: 0,
            seq: 0,
            args: Vec::new(),
        };
        let trace = crate::trace::to_chrome_jsonl(&[
            span("study.generate", 40),
            span("study.mine", 100),
            span("source.read", 30),
            span("mine.task", 50),
            span("study.stats", 7),
        ]);
        let walls = stage_walls_from_trace(&trace).expect("valid trace");
        let summary: Vec<(&str, u64, u64)> = walls
            .iter()
            .map(|(w, spans)| (w.name.as_str(), w.wall_us, *spans))
            .collect();
        assert_eq!(
            summary,
            [
                ("generate", 40, 1),
                ("funnel", 30, 1),
                ("mine", 70, 2),
                ("stats", 7, 1)
            ]
        );
        let wall = |name: &str, wall_us: u64| StageWall {
            name: name.to_string(),
            wall_us,
        };
        // Rounding each span down on its own leaves 1 µs per span.
        let reported = [wall("funnel", 30), wall("mine", 71), wall("stats", 7)];
        assert_eq!(check_stages_against_trace(&reported, &trace), Ok(3));
        let err = check_stages_against_trace(&[wall("mine", 73)], &trace).unwrap_err();
        assert!(err.contains("stage `mine`"), "{err}");
        let err = check_stages_against_trace(&[wall("report", 1)], &trace).unwrap_err();
        assert!(err.contains("no span"), "{err}");
    }

    #[test]
    fn trace_validator_accepts_real_output_and_names_violations() {
        let good = "{\"name\": \"a.b\", \"cat\": \"a\", \"ph\": \"X\", \"ts\": 1, \"dur\": 2, \"pid\": 1, \"tid\": 1, \"args\": {\"k\": \"v\"}}\n";
        assert_eq!(validate_trace_jsonl(good), Ok(1));
        assert_eq!(validate_trace_jsonl(""), Ok(0));
        let bad_phase = good.replace("\"X\"", "\"B\"");
        let err = validate_trace_jsonl(&bad_phase).expect_err("phase must be X");
        assert!(err.contains("`ph`"), "{err}");
        let bad_arg = good.replace("\"v\"", "3");
        let err = validate_trace_jsonl(&bad_arg).expect_err("args must be strings");
        assert!(err.contains("arg `k`"), "{err}");
    }

    #[test]
    fn request_log_validator_checks_shape_and_monotonic_ts() {
        let a = "{\"v\": 1, \"ts_ms\": 5, \"id\": \"req-1\", \"op\": \"study\", \"status\": \"ok\", \"queue_us\": 0, \"wall_us\": 900, \"bytes_in\": 40, \"bytes_out\": 8000, \"quarantined\": 0, \"stages\": [[\"parse\", 300], [\"diff\", 200]]}";
        let b = "{\"v\": 1, \"ts_ms\": 7, \"id\": \"req-2\", \"op\": \"study\", \"status\": \"busy\", \"queue_us\": 0, \"wall_us\": 1, \"bytes_in\": 40, \"bytes_out\": 90, \"quarantined\": 0, \"stages\": []}";
        let log = format!("{a}\n{b}\n");
        assert_eq!(validate_request_log_jsonl(&log), Ok(2));
        assert_eq!(validate_request_log_jsonl(""), Ok(0));

        let reordered = format!("{b}\n{a}\n");
        let err = validate_request_log_jsonl(&reordered).expect_err("ts must be monotonic");
        assert!(err.contains("goes backwards"), "{err}");

        let bad_status = a.replace("\"ok\"", "\"shrug\"");
        let err = validate_request_log_jsonl(&bad_status).expect_err("status enum");
        assert!(err.contains("unknown status"), "{err}");

        let bad_stage = a.replace("[\"parse\", 300]", "[\"parse\"]");
        let err = validate_request_log_jsonl(&bad_stage).expect_err("stage pair");
        assert!(err.contains("stages[0]"), "{err}");

        let bad_version = a.replace("\"v\": 1", "\"v\": 9");
        let err = validate_request_log_jsonl(&bad_version).expect_err("version");
        assert!(err.contains("version"), "{err}");
    }

    #[test]
    fn metrics_validator_checks_bucket_sums() {
        let r = crate::metrics::Registry::new();
        r.add("hits", 2);
        r.observe("lat", 5);
        let json = r.snapshot().to_json();
        assert_eq!(validate_metrics_json(&json), Ok(2));
        let broken = json.replacen("\"count\": 1", "\"count\": 9", 1);
        let err = validate_metrics_json(&broken).expect_err("bucket sum mismatch");
        assert!(err.contains("sum to"), "{err}");
    }
}
