//! The traced run: one op of a workload replayed as the sequence of
//! crate entry points it consists of, with a span around each call.
//!
//! Spans are kept in memory and printed when the run ends. Four kinds:
//!
//! - `op`: the calls that make up the op, children of the `op` root, run
//!   in pipeline order;
//! - `stage`: the parse, diff and measures stages inside the timed
//!   `MiningEngine::mine` call, as the engine's own stage timers
//!   (`ExecStats`) measured them during the op. They have a duration but
//!   no start, and are children of `pipeline.mine`;
//! - `replay`: a layer whose work happens inside another layer's entry
//!   point (VCS walks inside the funnel or the store source, the store
//!   read inside the source, and the parses, diffs and measures inside
//!   the engine) is re-run once on the same inputs after the op, for its
//!   counts and as a second figure. A replay is not part of the op: its
//!   parent names the span that hides the work, and no time is taken off
//!   that span for it;
//! - `probe`: layers this workload's op never reaches, timed on the same
//!   seed's inputs so every layer metric is measured on every workload.

use crate::layers::{self, err, sha1_hex, ClonedRepo, Counts, APPENDIX};
use crate::{obj, text, Flags};
use schevo::core::heartbeat::REED_THRESHOLD;
use schevo::core::profile::EvolutionProfile;
use schevo::corpus::store::ShardStore;
use schevo::corpus::universe::{generate, generate_appendix};
use schevo::pipeline::funnel::{run_funnel, CandidateHistory};
use schevo::pipeline::journal::{candidate_key, replay_file, JournalWriter};
use schevo::pipeline::{ExecStats, MiningEngine, SliceSource};
use schevo::vcs::history::WalkStrategy;
use serde::value::Value;
use std::collections::HashSet;
use std::time::Instant;

/// Every layer span the traced run reports, one metric `<name>_s` each.
pub const LAYERS: [&str; 16] = [
    "corpus.generate",
    "corpus.store_read",
    "corpus.store_append",
    "vcs.walk",
    "pipeline.funnel",
    "pipeline.source",
    "pipeline.mine",
    "pipeline.journal_replay",
    "pipeline.journal_append",
    "ddl.parse",
    "core.diff",
    "core.measures",
    "stats.battery",
    "report.json",
    "report.figures",
    "serve.wire",
];

struct Span {
    name: &'static str,
    parent: Option<usize>,
    kind: &'static str,
    /// None for a stage, which has a duration only.
    start: Option<u64>,
    dur: u64,
}

struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    fn begin(&mut self, name: &'static str, parent: Option<usize>, kind: &'static str) -> usize {
        let start = self.now();
        self.spans.push(Span {
            name,
            parent,
            kind,
            start: Some(start),
            dur: 0,
        });
        self.spans.len() - 1
    }

    fn end(&mut self, id: usize) {
        let now = self.now();
        let span = &mut self.spans[id];
        span.dur = now - span.start.unwrap_or(now);
    }

    fn timed<T>(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        kind: &'static str,
        f: impl FnOnce() -> T,
    ) -> (usize, T) {
        let id = self.begin(name, parent, kind);
        let value = f();
        self.end(id);
        (id, value)
    }

    /// Time `f` as a call of the op under `parent`.
    fn span<T>(&mut self, name: &'static str, parent: usize, f: impl FnOnce() -> T) -> (usize, T) {
        self.timed(name, Some(parent), "op", f)
    }

    /// Time `f` as a probe: a layer outside the op.
    fn probe<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        self.timed(name, None, "probe", f).1
    }

    /// Time a replay of work hidden inside `parent`. It runs once, like
    /// the work it replays: repeated runs come out faster than the cold
    /// work inside the op did.
    fn replay<T>(&mut self, name: &'static str, parent: usize, f: impl FnOnce() -> T) -> T {
        self.timed(name, Some(parent), "replay", f).1
    }

    /// The engine's stage timers of the mining call `mine_id`, taken
    /// inside the op (one worker, so they sum to wall time).
    fn stages(&mut self, mine_id: usize, exec: &ExecStats) {
        for (name, dur) in [
            ("ddl.parse", exec.parse_nanos),
            ("core.diff", exec.diff_nanos),
            ("core.measures", exec.profile_nanos),
        ] {
            self.spans.push(Span {
                name,
                parent: Some(mine_id),
                kind: "stage",
                start: None,
                dur,
            });
        }
    }

    fn has(&self, name: &str) -> bool {
        self.spans.iter().any(|s| s.name == name)
    }

    fn to_json(&self) -> Value {
        let int = |n: Option<u64>| n.map(Value::U64).unwrap_or(Value::Null);
        Value::Seq(
            self.spans
                .iter()
                .enumerate()
                .map(|(id, s)| {
                    obj(vec![
                        ("id", Value::U64(id as u64)),
                        ("name", text(s.name)),
                        ("parent", int(s.parent.map(|p| p as u64))),
                        ("kind", text(s.kind)),
                        ("start_ns", int(s.start)),
                        ("end_ns", int(s.start.map(|t| t + s.dur))),
                        ("dur_ns", Value::U64(s.dur)),
                    ])
                })
                .collect(),
        )
    }
}

fn profiles_of(mined: &[schevo::pipeline::extract::Mined]) -> Vec<EvolutionProfile> {
    mined.iter().map(|m| m.profile.clone()).collect()
}

fn mine_counts(c: &mut Counts, exec: &ExecStats) {
    let lookups = exec.parse_hits + exec.parse_misses;
    let ratio = if lookups == 0 {
        0.0
    } else {
        exec.parse_hits as f64 / lookups as f64
    };
    c.insert("pipeline.mine_tasks", Value::U64(exec.tasks as u64));
    c.insert("pipeline.cache_hit_ratio", Value::F64(ratio));
}

pub fn cmd_trace(f: &Flags) -> Result<Value, String> {
    let workload = f.get("--workload")?;
    let seed: u64 = f.num("--seed")?;
    let batch: u64 = f.num("--batch")?;
    let work = f.path("--work")?;
    let _ = std::fs::remove_dir_all(&work);
    std::fs::create_dir_all(&work).map_err(err("create work dir"))?;
    let cfg = layers::config(seed);

    // Fixture, untimed and the same for every workload: the store, a
    // journal primed by one durable study, the appendix, and the study
    // after append + resume (whose journal tail holds the fresh records).
    // The report spans serialize and render these fixture studies: the
    // library assembles a StudyResult only inside its study entry points.
    // `profiles_match` checks that the op's own mining reproduces them.
    let store_dir = work.join("store");
    layers::build_store(seed, &store_dir)?;
    let journal = work.join("primed.journal");
    let base = layers::study_over_store(&store_dir, Some((&journal, false)))?;
    let base_json = layers::json(&base, &mut Counts::new())?;
    let appendix = generate_appendix(cfg, batch, APPENDIX, 0);
    let appended_dir = work.join("appended-store");
    layers::copy_dir(&store_dir, &appended_dir)?;
    layers::store_append(&appended_dir, &appendix.records, &mut Counts::new())?;
    let appended_journal = work.join("appended.journal");
    std::fs::copy(&journal, &appended_journal).map_err(err("copy journal"))?;
    let appended = layers::study_over_store(&appended_dir, Some((&appended_journal, true)))?;
    let mut fresh = replay_file(&appended_journal)
        .map_err(err("replay"))?
        .records;
    let fresh = fresh.split_off(base.profiles.len().min(fresh.len()));
    let store = ShardStore::open(&store_dir).map_err(err("open store"))?;

    let mut t = Tracer {
        epoch: Instant::now(),
        spans: Vec::new(),
    };
    let mut c = Counts::new();
    let (study_json, profiles_match, op_wall_s);

    match workload {
        // One fresh `schevo study` process: generate, funnel, mine with a
        // cold engine, battery, JSON, figures.
        "study-cold" => {
            let root = t.begin("op", None, "op");
            let (_, u) = t.span("corpus.generate", root, || generate(cfg));
            let (funnel_id, funnel) = t.span("pipeline.funnel", root, || {
                run_funnel(&u, WalkStrategy::FirstParent)
            });
            let engine = MiningEngine::new(layers::options(None));
            let (mine_id, out) = t.span("pipeline.mine", root, || {
                engine.mine(&SliceSource::new(&funnel.analyzed))
            });
            let out = out.map_err(err("mine"))?;
            let profiles = profiles_of(&out.mined);
            t.span("stats.battery", root, || layers::battery(&profiles));
            let (_, json) = t.span("report.json", root, || layers::json(&base, &mut c));
            t.span("report.figures", root, || layers::figures(&base));
            t.end(root);
            t.stages(mine_id, &out.exec);
            op_wall_s = span_s(&t, root);
            study_json = json?;
            profiles_match = profiles == base.profiles;
            mine_counts(&mut c, &out.exec);

            let clones = layers::universe_clones(&u);
            t.replay("vcs.walk", funnel_id, || layers::walk(&clones, &mut c));
            replay_mining(&mut t, mine_id, &funnel.analyzed, &mut c);
        }
        // Append the appendix, then resume: journal replay, the store
        // source, mining of the fresh histories, one fsynced commit per
        // fresh history, battery, JSON.
        "append-resume" => {
            let op_dir = work.join("op-store");
            let op_journal = work.join("op.journal");
            layers::copy_dir(&store_dir, &op_dir)?;
            std::fs::copy(&journal, &op_journal).map_err(err("copy journal"))?;
            let root = t.begin("op", None, "op");
            let (_, appended_ok) = t.span("corpus.store_append", root, || {
                layers::store_append(&op_dir, &appendix.records, &mut c)
            });
            appended_ok?;
            let (_, replay) = t.span("pipeline.journal_replay", root, || replay_file(&op_journal));
            let replay = replay.map_err(err("replay"))?;
            let (source_id, drained) = t.span("pipeline.source", root, || {
                ShardStore::open(&op_dir)
                    .map_err(err("open store"))
                    .and_then(|s| layers::source_drain(&s))
            });
            let (cands, _) = drained?;
            let engine = MiningEngine::new(layers::options(None));
            // The engine keys every candidate against the replayed journal
            // and mines only the unknown ones, so the keying is mine time.
            let (mine_id, (fresh_cands, out)) = t.span("pipeline.mine", root, || {
                let known: HashSet<&str> = replay.records.iter().map(|r| r.key.as_str()).collect();
                let fresh_cands: Vec<CandidateHistory> = cands
                    .iter()
                    .filter(|c| !known.contains(candidate_key(c, REED_THRESHOLD).to_hex().as_str()))
                    .cloned()
                    .collect();
                let out = engine.mine(&SliceSource::new(&fresh_cands));
                (fresh_cands, out)
            });
            let out = out.map_err(err("mine"))?;
            let (_, appended_journal_ok) = t.span("pipeline.journal_append", root, || {
                JournalWriter::resume(&op_journal, replay.valid_len)
                    .map_err(err("journal resume"))
                    .and_then(|w| layers::journal_append(w, &fresh, &mut c))
            });
            appended_journal_ok?;
            t.span("stats.battery", root, || {
                layers::battery(&appended.profiles)
            });
            let (_, json) = t.span("report.json", root, || layers::json(&appended, &mut c));
            t.end(root);
            t.stages(mine_id, &out.exec);
            op_wall_s = span_s(&t, root);
            study_json = json?;
            let fresh_profiles = profiles_of(&out.mined);
            profiles_match = fresh_profiles.iter().all(|p| appended.profiles.contains(p))
                && fresh_profiles.len() == fresh.len();
            c.insert(
                "pipeline.journal_records",
                Value::U64(replay.records.len() as u64),
            );
            mine_counts(&mut c, &out.exec);

            let op_store = ShardStore::open(&op_dir).map_err(err("open store"))?;
            let clones: Vec<ClonedRepo<_>> = t.replay("corpus.store_read", source_id, || {
                layers::store_read(&op_store, &mut c)
            });
            t.replay("vcs.walk", source_id, || layers::walk(&clones, &mut c));
            replay_mining(&mut t, mine_id, &fresh_cands, &mut c);

            // Probes of the layers only a universe in memory reaches.
            let u = t.probe("corpus.generate", || generate(cfg));
            t.probe("pipeline.funnel", || {
                run_funnel(&u, WalkStrategy::FirstParent)
            });
            t.probe("report.figures", || layers::figures(&base));
        }
        other => return Err(format!("unknown workload `{other}`")),
    }

    // Probes of the store, journal and wire layers the op did not reach.
    if !t.has("corpus.store_read") {
        t.probe("corpus.store_read", || layers::store_read(&store, &mut c));
    }
    if !t.has("pipeline.source") {
        t.probe("pipeline.source", || layers::source_drain(&store))?;
    }
    if !t.has("corpus.store_append") {
        let scratch = work.join("probe-store");
        layers::copy_dir(&store_dir, &scratch)?;
        t.probe("corpus.store_append", || {
            layers::store_append(&scratch, &appendix.records, &mut c)
        })?;
    }
    if !t.has("pipeline.journal_replay") {
        let replay = t
            .probe("pipeline.journal_replay", || replay_file(&journal))
            .map_err(err("replay"))?;
        c.insert(
            "pipeline.journal_records",
            Value::U64(replay.records.len() as u64),
        );
    }
    if !t.has("pipeline.journal_append") {
        let scratch = work.join("probe.journal");
        t.probe("pipeline.journal_append", || {
            JournalWriter::create(&scratch)
                .map_err(err("journal create"))
                .and_then(|w| layers::journal_append(w, &fresh, &mut c))
        })?;
    }
    let frame = layers::response_frame(&base_json)?;
    t.probe("serve.wire", || layers::wire(&frame, &mut c))?;
    let missing: Vec<&str> = LAYERS.iter().filter(|l| !t.has(l)).copied().collect();
    if !missing.is_empty() {
        return Err(format!("layers not traced: {missing:?}"));
    }

    Ok(obj(vec![
        ("workload", text(workload)),
        ("op_wall_s", Value::F64(op_wall_s)),
        (
            "fixture_study_sha1",
            Value::Str(sha1_hex(study_json.as_bytes())),
        ),
        ("profiles_match", Value::Bool(profiles_match)),
        ("spans", t.to_json()),
        (
            "counts",
            Value::Map(c.into_iter().map(|(k, v)| (k.to_string(), v)).collect()),
        ),
    ]))
}

fn span_s(t: &Tracer, id: usize) -> f64 {
    t.spans[id].dur as f64 / 1e9
}

/// Replays of the parses, diffs and measures the engine performs for
/// `cands` inside the mining span `mine_id`.
fn replay_mining(t: &mut Tracer, mine_id: usize, cands: &[CandidateHistory], c: &mut Counts) {
    let parsed = t.replay("ddl.parse", mine_id, || layers::parse(cands, c));
    let deltas = t.replay("core.diff", mine_id, || layers::diff_all(&parsed, c));
    let histories = layers::histories(cands, &parsed);
    t.replay("core.measures", mine_id, || {
        layers::measures(cands, &histories, deltas)
    });
}
