//! The unified mining engine: one entry point that pulls candidates from
//! any [`CandidateSource`] through the bounded-window streaming executor
//! and produces profiles, quarantine accounting, journal durability and
//! observability behind a single API.
//!
//! Candidates flow through a bounded in-flight window: the source is
//! only polled while fewer than [`crate::exec::WINDOW`] candidates are
//! pulled and not yet emitted, so a sharded on-disk corpus never has to
//! be resident in memory. Completed results reassemble in candidate
//! order. Output is bit-identical for every worker count, with or
//! without a warm outcome memo ([`WarmCaches`]) — and identical between
//! the in-memory and on-disk backends.
//!
//! Every stage the engine reports is timed once, by a stage guard
//! ([`schevo_obs::trace::SpanGuard`]): `journal.open`, `journal.replay`,
//! `mine.pass`, `mine.task` and the task stages. The engine installs the
//! request scope from [`schevo_obs::ObsHooks::trace`] on the caller
//! thread (lane 0) and around each task (one lane per worker slot), so
//! the same guard durations land in `ExecStats`, the metrics, the process
//! trace and the request trace.

use crate::exec::{execute_stream_with, lock, ExecStats, StageTally, StreamItem, WINDOW};
use crate::extract::{mine_task_watched, MineOutcome, Mined};
use crate::funnel::FunnelReport;
use crate::journal::{candidate_key, replay_file, JournalRecord, JournalSummary, JournalWriter};
use crate::quarantine::QuarantineReport;
use crate::source::{CandidateSource, SourceEvent, Survivor};
use crate::study::StudyOptions;
use schevo_core::errors::{ErrorClass, SchevoError};
use schevo_core::heartbeat::REED_THRESHOLD;
use schevo_corpus::store::StoreIo;
use schevo_obs::scope;
use schevo_obs::stage;
use schevo_obs::trace::SpanGuard;
use std::cell::RefCell;
use std::collections::HashMap;
use std::sync::{Arc, Mutex};

/// Everything one mining pass produces, over any backend.
#[derive(Debug)]
pub struct MiningOutput {
    /// The funnel ledger the source accumulated while streaming.
    pub funnel: FunnelReport,
    /// Mined results in candidate order.
    pub mined: Vec<Mined>,
    /// Degradation accounting (recoveries and quarantines, in candidate
    /// order). Every candidate without a profile has exactly one
    /// quarantine record here.
    pub quarantine: QuarantineReport,
    /// Executor observability (cache counters, stage timings).
    pub exec: ExecStats,
    /// Journal accounting when a journal was configured.
    pub journal: Option<JournalSummary>,
    /// Backend I/O counters (zero for in-memory sources).
    pub io: StoreIo,
    /// Nanoseconds spent inside the source (funnel assessment and
    /// backend reads), summed over every poll; the `source.read` span.
    pub source_nanos: u64,
}

/// Per-candidate slot flowing through the streaming executor: the
/// outcome plus its stage tally, with `fresh` marking slots that were
/// actually computed this pass (replayed, memo-served and corrupt slots
/// are not).
struct MineSlot {
    outcome: MineOutcome,
    tally: StageTally,
    fresh: bool,
}

/// A memo of mined outcomes that outlives one mining pass, for resident
/// callers (the serve daemon) that mine the same store over and over.
///
/// Outcomes are keyed by [`candidate_key`], the journal's key: a digest
/// of every input the outcome depends on (the candidate's versions and
/// metadata plus the reed threshold). A hit therefore returns exactly
/// what mining the candidate again would, so sharing the memo across
/// passes, or across concurrent requests, cannot change any output bit.
/// Only passes without a journal read or fill it, and an outcome the
/// wall-clock watchdog flagged is never kept.
#[derive(Debug, Clone, Default)]
pub struct WarmCaches {
    outcomes: Arc<Mutex<HashMap<String, MineOutcome>>>,
}

impl WarmCaches {
    /// An empty memo.
    pub fn new() -> WarmCaches {
        WarmCaches::default()
    }
}

/// Journal state threaded through one durable pass.
struct JournalCtx {
    writer: JournalWriter,
    crash_after: Option<u64>,
    error: Option<SchevoError>,
}

/// The single mining entry point: configure once, then [`mine`] any
/// source or run the whole [`study`] over it.
///
/// Every candidate goes through one graceful pass: damaged versions are
/// recovered where possible, histories that cannot be recovered are
/// quarantined, and every event is reported. [`StudyOptions::strict`]
/// is a policy over that pass's report, applied by [`study`].
///
/// [`mine`]: MiningEngine::mine
/// [`study`]: MiningEngine::study
///
/// ```no_run
/// use schevo_corpus::universe::{generate, UniverseConfig};
/// use schevo_pipeline::engine::MiningEngine;
/// use schevo_pipeline::study::StudyOptions;
///
/// let universe = generate(UniverseConfig::paper(2019));
/// let engine = MiningEngine::new(StudyOptions::default());
/// let output = engine.mine(&universe).expect("mining");
/// assert_eq!(
///     output.mined.len(),
///     output.funnel.analyzed - output.quarantine.quarantined.len()
/// );
/// ```
#[derive(Debug, Clone)]
pub struct MiningEngine {
    options: StudyOptions,
    warm: Option<WarmCaches>,
}

impl MiningEngine {
    /// An engine over `options` that mines every candidate afresh.
    pub fn new(options: StudyOptions) -> MiningEngine {
        MiningEngine {
            options,
            warm: None,
        }
    }

    /// Serve candidates from `warm`, and keep each fresh outcome there.
    /// Ignored by journaled passes, which replay or mine as without it.
    pub fn with_warm(mut self, warm: &WarmCaches) -> MiningEngine {
        self.warm = Some(warm.clone());
        self
    }

    /// The options this engine runs with.
    pub fn options(&self) -> &StudyOptions {
        &self.options
    }

    /// Mine every candidate the source yields.
    ///
    /// Candidates stream through a bounded in-flight window, so peak
    /// memory is governed by [`crate::exec::WINDOW`], not corpus size.
    /// Errors are journal-scoped only; store corruption is quarantined
    /// per record, never fatal.
    pub fn mine(&self, source: &dyn CandidateSource) -> Result<MiningOutput, SchevoError> {
        let o = &self.options;
        // Request-scoped span sink: when the caller (the serve daemon)
        // attached a scope, stage spans land with the owning request,
        // on lane 0 for the caller thread.
        let scope = o.obs.trace.as_ref();
        let _caller_lane = scope.map(|s| scope::install(s, 0));
        // Snapshot the process-cumulative arena counter so the registry
        // fold below can attribute to this pass only the bytes its own
        // parses allocated.
        let arena_bytes_at_start = schevo_ddl::arena_bytes_total();
        let reed = o.reed_threshold.unwrap_or(REED_THRESHOLD);
        let deadline = o.durability.deadline;
        let size_hint = source.size_hint();
        let workers = o
            .workers
            .clamp(1, 32)
            .min(size_hint.unwrap_or(usize::MAX).max(1));

        // Journal setup: replay on resume, then open for appending past
        // the valid prefix (or start fresh).
        let mut summary: Option<JournalSummary> = None;
        let mut replayed: HashMap<String, MineOutcome> = HashMap::new();
        let mut ctx: Option<JournalCtx> = None;
        if let Some(path) = &o.durability.journal {
            let _open = stage!("journal.open", resume = o.durability.resume);
            let mut s = JournalSummary::default();
            let writer = if o.durability.resume && path.exists() {
                let mut replaying = stage!("journal.replay");
                let replay = replay_file(path)?;
                s.corruption = replay.corruption;
                replaying.arg("records", replay.records.len());
                for r in replay.records {
                    replayed.insert(r.key, r.outcome);
                }
                drop(replaying);
                JournalWriter::resume(path, replay.valid_len)?
            } else {
                JournalWriter::create(path)?
            };
            ctx = Some(JournalCtx {
                writer,
                crash_after: o.durability.crash_after,
                error: None,
            });
            summary = Some(s);
        }
        let journaling = ctx.is_some();
        let memo = match &self.warm {
            Some(w) if !journaling => Some(&*w.outcomes),
            _ => None,
        };

        let pass = stage!("mine.pass", workers = workers);
        if let Some(p) = o.obs.progress.as_deref() {
            p.begin_stage("mine", size_hint.unwrap_or(0) as u64);
        }

        // The source closure runs on the caller thread: it polls the
        // stream, turns replay hits, memo hits and corruption into
        // ready-made slots, and registers the keys of fresh candidates.
        // `keys` is shared with the completion hook, which also runs on
        // the caller thread. The universe and the store run the funnel
        // lazily, record by record, inside these polls; the generated
        // source runs it on its producer thread, and a poll waits for the
        // next survivor. Opening the stream counts as source time too.
        let opening = SpanGuard::slice();
        let mut stream = source.stream(o.strategy);
        let mut source_nanos = opening.close();
        let keys: RefCell<HashMap<usize, String>> = RefCell::new(HashMap::new());
        let mut replayed_count = 0usize;
        let src = |seq: usize| -> Option<StreamItem<Survivor, MineSlot>> {
            let slice = SpanGuard::slice();
            let event = stream.next_event();
            source_nanos += slice.close();
            match event? {
                SourceEvent::Corrupt(e) => Some(StreamItem::Ready(MineSlot {
                    outcome: MineOutcome::quarantine(Vec::new(), e, false),
                    tally: StageTally::default(),
                    fresh: false,
                })),
                SourceEvent::Candidate(c) => {
                    // Each survivor carries its own way back and the
                    // engine keeps none, so the producer's wait for mined
                    // survivors ends with the last one.
                    let c = Survivor::new(c, stream.spent());
                    if !journaling && memo.is_none() {
                        return Some(StreamItem::Work(c));
                    }
                    let key = candidate_key(&c, reed).to_hex();
                    let reused = match memo {
                        None => replayed.remove(&key).map(|outcome| {
                            replayed_count += 1;
                            (outcome, StageTally::default())
                        }),
                        Some(m) => lock(m).get(&key).cloned().map(|outcome| {
                            let tally = StageTally {
                                parse_hits: c.versions.len() as u64,
                                ..StageTally::default()
                            };
                            (outcome, tally)
                        }),
                    };
                    if let Some((outcome, tally)) = reused {
                        return Some(StreamItem::Ready(MineSlot {
                            outcome,
                            tally,
                            fresh: false,
                        }));
                    }
                    keys.borrow_mut().insert(seq, key);
                    Some(StreamItem::Work(c))
                }
            }
        };

        let work = |seq: usize, c: &Survivor| -> MineSlot {
            // One lane per worker slot keeps per-request traces readable
            // in Perfetto; lane 0 is the caller thread.
            let _task_lane = scope.map(|s| scope::install(s, (seq % workers) as u64 + 1));
            let _task = stage!("mine.task", project = c.name);
            let mut tally = StageTally::default();
            let outcome = mine_task_watched(c, reed, deadline, &mut tally);
            MineSlot {
                outcome,
                tally,
                fresh: true,
            }
        };

        // Completion hook, caller thread, completion order: each freshly
        // mined outcome is committed to the journal before anything else
        // happens to it, and the crash-after kill switch fires only
        // after its record is durable. Without a journal, the outcome goes
        // to the warm memo instead, unless the watchdog flagged it: that
        // flag depends on wall time, not on the candidate.
        let progress = o.obs.progress.as_deref();
        let mut ctx_slot = ctx;
        let mut journal_append_nanos = 0u64;
        let on_complete = |seq: usize, slot: &MineSlot| {
            if let Some(p) = progress {
                p.advance(1);
            }
            let Some(key) = keys.borrow_mut().remove(&seq) else {
                return;
            };
            if let Some(m) = memo {
                let flagged = slot
                    .outcome
                    .recovered
                    .last()
                    .is_some_and(|r| r.error.class == ErrorClass::DeadlineExceeded);
                if !flagged {
                    lock(m).insert(key, slot.outcome.clone());
                }
                return;
            }
            let Some(ctx) = ctx_slot.as_mut() else { return };
            if ctx.error.is_some() {
                return;
            }
            let record = JournalRecord {
                key,
                outcome: slot.outcome.clone(),
            };
            let slice = SpanGuard::slice();
            let appended = ctx.writer.append(&record);
            journal_append_nanos += slice.close();
            match appended {
                Ok(()) => {
                    if ctx.crash_after == Some(ctx.writer.commits()) {
                        // Deterministic whole-process crash, as unkind as
                        // a SIGKILL: no unwinding, no destructors, no
                        // buffered-writer flushes.
                        std::process::abort();
                    }
                }
                Err(e) => ctx.error = Some(e),
            }
        };

        // Emission, caller thread, strict candidate order: tallies merge
        // and histograms observe exactly as the resident pipeline did.
        let registry = o.obs.registry.as_deref();
        let mut total = StageTally::default();
        let mut mined: Vec<Mined> = Vec::new();
        let mut report = QuarantineReport::default();
        let emit = |_seq: usize, slot: MineSlot| {
            total.merge(&slot.tally);
            if slot.fresh {
                if let Some(reg) = registry {
                    reg.observe("mine.task.parse_nanos", slot.tally.parse_nanos);
                    reg.observe("mine.task.diff_nanos", slot.tally.diff_nanos);
                    reg.observe("mine.task.profile_nanos", slot.tally.profile_nanos);
                }
            }
            let outcome = slot.outcome;
            report.recovered.extend(outcome.recovered);
            report.quarantined.extend(outcome.quarantined);
            if let Some(m) = outcome.mined {
                mined.push(m);
            }
        };

        let stream_report = execute_stream_with(src, workers, WINDOW, work, on_complete, emit);
        if let Some(p) = progress {
            p.end_stage();
        }
        if let Some(ctx) = ctx_slot {
            if let Some(e) = ctx.error {
                return Err(e);
            }
        }
        if let Some(s) = summary.as_mut() {
            s.replayed = replayed_count;
            s.mined_fresh = stream_report.fresh;
            s.stale_discarded = replayed.len();
        }
        let sources = stream.finish();

        // Source/store reads and journal appends are many tiny slices
        // interleaved with the pass, so each is one rolled-up span placed
        // at the pass start, plus the pass envelope itself.
        pass.rollup(
            "source.read",
            source_nanos,
            vec![("records_read", sources.io.records_read.to_string())],
        );
        if journaling {
            pass.rollup("journal.append", journal_append_nanos, Vec::new());
        }
        let wall_nanos = pass.close();

        // Registry fold: counters, quarantine classes, journal and
        // store accounting — all deterministic (exports sort by
        // metric name).
        if let Some(reg) = registry {
            reg.add("mine.parse.hits", total.parse_hits);
            reg.add("mine.parse.misses", total.parse_misses);
            for (class, rec, quar) in report.class_counts() {
                if rec > 0 {
                    reg.add(&format!("quarantine.recovered.{class}"), rec as u64);
                }
                if quar > 0 {
                    reg.add(&format!("quarantine.quarantined.{class}"), quar as u64);
                }
            }
            let deadline_exceeded = report.deadline_exceeded();
            if deadline_exceeded > 0 {
                reg.add("mine.deadline_exceeded", deadline_exceeded as u64);
            }
            if let Some(s) = &summary {
                reg.add("journal.commits", s.mined_fresh as u64);
                reg.add("journal.replayed", s.replayed as u64);
                reg.add("journal.stale_discarded", s.stale_discarded as u64);
                if s.corruption.is_some() {
                    reg.add("journal.corrupt_tail", 1);
                }
            }
            if sources.io.records_read > 0 {
                reg.add("store.records_read", sources.io.records_read);
                reg.add("store.bytes_read", sources.io.bytes_read);
            }
            // Hot-path telemetry: AST-arena bytes allocated by this pass's
            // parses (delta over a process-cumulative counter; statements
            // reused from the previous version build no arena), the bytes
            // its parses lexed rather than took over from the version
            // before, and the current size of the global symbol-interning
            // table.
            reg.add(
                "parse.arena_bytes",
                schevo_ddl::arena_bytes_total().saturating_sub(arena_bytes_at_start),
            );
            reg.add("parse.relexed_bytes", total.relexed_bytes);
            reg.set_gauge("intern.symbols", schevo_core::symbol_count() as u64);
        }

        let exec = ExecStats::from_tally(&total, workers, stream_report.total, wall_nanos);
        Ok(MiningOutput {
            funnel: sources.funnel,
            mined,
            quarantine: report,
            exec,
            journal: summary,
            io: sources.io,
            source_nanos,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::funnel::run_funnel;
    use crate::source::SliceSource;
    use schevo_corpus::store::generate_into_store;
    use schevo_corpus::universe::{generate, UniverseConfig};
    use schevo_vcs::history::WalkStrategy;

    #[test]
    fn engine_over_universe_matches_legacy_shape() {
        let u = generate(UniverseConfig::small(2019, 20));
        let engine = MiningEngine::new(StudyOptions::default());
        let out = engine.mine(&u).expect("clean corpus");
        assert_eq!(out.mined.len(), u.expected.analyzed);
        assert!(out.quarantine.is_clean());
        assert_eq!(out.io.records_read, 0, "in-memory source does no I/O");
        assert_eq!(out.funnel.analyzed, u.expected.analyzed);
    }

    #[test]
    fn sharded_backend_is_bit_identical_to_memory() {
        let config = UniverseConfig::small(2019, 20);
        let dir = std::env::temp_dir().join(format!("schevo_engine_store_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        generate_into_store(config, &dir, 8).expect("write store");
        let store = schevo_corpus::store::ShardStore::open(&dir).expect("open");
        let u = generate(config);

        for workers in [1usize, 4] {
            let options = StudyOptions {
                workers,
                ..StudyOptions::default()
            };
            let engine = MiningEngine::new(options);
            let mem = engine.mine(&u).expect("memory");
            let disk = engine.mine(&store).expect("disk");
            assert_eq!(mem.mined, disk.mined, "workers={workers}");
            assert_eq!(mem.funnel, disk.funnel);
            assert_eq!(mem.quarantine, disk.quarantine);
            assert!(disk.io.records_read > 0);
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn eight_workers_do_not_change_output() {
        // Windows down to one item are covered on the executor itself
        // (`exec::tests::ordered_output_for_any_worker_count_and_window`).
        let u = generate(UniverseConfig::small(2019, 10));
        let serial = MiningEngine::new(StudyOptions {
            workers: 1,
            ..StudyOptions::default()
        })
        .mine(&u)
        .expect("serial");
        let parallel = MiningEngine::new(StudyOptions {
            workers: 8,
            ..StudyOptions::default()
        })
        .mine(&u)
        .expect("parallel");
        assert_eq!(serial.mined, parallel.mined);
        assert_eq!(serial.quarantine, parallel.quarantine);
    }

    #[test]
    fn attached_trace_scope_captures_stage_spans_without_changing_output() {
        let u = generate(UniverseConfig::small(2019, 12));
        let bare = MiningEngine::new(StudyOptions::default())
            .mine(&u)
            .expect("bare");
        let scope = Arc::new(schevo_obs::scope::TraceScope::new());
        let mut options = StudyOptions {
            workers: 4,
            ..StudyOptions::default()
        };
        options.obs.trace = Some(Arc::clone(&scope));
        let traced = MiningEngine::new(options).mine(&u).expect("traced");
        assert_eq!(bare.mined, traced.mined, "scope must never perturb output");
        assert_eq!(bare.quarantine, traced.quarantine);
        let events = scope.drain();
        let names: Vec<&str> = events.iter().map(|e| e.name.as_str()).collect();
        assert!(names.contains(&"mine.pass"), "{names:?}");
        assert_eq!(
            names.iter().filter(|n| **n == "mine.task").count(),
            u.expected.analyzed,
            "one task span per analyzed candidate"
        );
        for stage in ["mine.parse", "mine.diff", "mine.measures", "source.read"] {
            assert!(names.contains(&stage), "{stage} missing: {names:?}");
        }
        // Task spans run on worker lanes 1..=4, the pass on the caller's.
        for e in &events {
            let lanes = if e.name.starts_with("mine.") && e.name != "mine.pass" {
                1..=4
            } else {
                0..=0
            };
            assert!(lanes.contains(&e.tid), "{} on lane {}", e.name, e.tid);
        }
        // Every span fits the request timeline and renders as valid
        // Chrome-trace JSONL.
        let jsonl = schevo_obs::trace::to_chrome_jsonl(&events);
        assert!(schevo_obs::validate::validate_trace_jsonl(&jsonl).expect("valid") >= events.len());
    }

    #[test]
    fn slice_source_mines_every_candidate() {
        let u = generate(UniverseConfig::small(11, 20));
        let outcome = run_funnel(&u, WalkStrategy::FirstParent);
        let slice = SliceSource::new(&outcome.analyzed);
        let out = MiningEngine::new(StudyOptions::default())
            .mine(&slice)
            .expect("slice");
        assert_eq!(out.mined.len(), outcome.analyzed.len());
        assert!(out.quarantine.is_clean());
        assert_eq!(out.funnel.analyzed, outcome.analyzed.len());
    }
}
