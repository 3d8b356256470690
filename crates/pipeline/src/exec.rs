//! The mining execution layer: a streaming executor with ordered
//! reassembly, plus the per-task stage tallies it merges.
//!
//! `execute_stream_with` pulls tasks (one candidate history each) from
//! a source on the caller thread into a bounded window; workers take
//! them one at a time, and results flow back over a channel tagged with
//! their sequence number. The caller reassembles them into sequence
//! order, so the output is **deterministic regardless of worker count or
//! scheduling**. Every item pulled and not yet emitted counts against
//! the window, so at most [`WINDOW`] tasks and results are held at once,
//! however slow the task at the head of the sequence is.
//!
//! [`ExecStats`] reports parse counters and per-stage timings of a pass.
//! The timings are sums of `mine.parse`, `mine.diff` and `mine.measures`
//! stage-guard durations ([`schevo_obs::trace::SpanGuard`]), the same
//! durations the traces record.

pub(crate) use schevo_core::sync::lock;
use schevo_core::sync::wait;
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, VecDeque};
use std::sync::mpsc;
use std::sync::{Condvar, Mutex};
use std::time::{Duration, Instant};

/// Default worker count: one per available hardware thread. Results are
/// identical for every worker count, so the default only tunes speed —
/// on a single-core host it degenerates to the serial fast path.
pub fn default_workers() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(8)
        .clamp(1, 32)
}

/// Observability counters of one mining pass: a thin view over the
/// per-task [`StageTally`] records merged **in candidate order**, so the
/// parse counters are identical for every worker count and
/// scheduling. The stage timings are sums of per-task stage-guard
/// durations (summed across workers, not wall time) and `wall_nanos` is
/// the `mine.pass` guard's duration; timings are why `ExecStats` stays
/// *excluded* from the differential equality contract.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ExecStats {
    /// Worker threads actually used.
    pub workers: usize,
    /// Tasks submitted (candidates, including ones that failed to parse).
    pub tasks: usize,
    /// Versions whose parse was skipped because a warm memo
    /// ([`crate::engine::WarmCaches`]) served the candidate's whole
    /// outcome: each served candidate counts all of its versions.
    pub parse_hits: u64,
    /// Versions actually parsed this pass.
    pub parse_misses: u64,
    /// Nanoseconds spent parsing (summed across workers).
    pub parse_nanos: u64,
    /// Nanoseconds spent diffing (summed across workers).
    pub diff_nanos: u64,
    /// Nanoseconds spent building profiles/extensions (summed across
    /// workers).
    pub profile_nanos: u64,
    /// Wall-clock nanoseconds of the whole pass (the `mine.pass` span).
    pub wall_nanos: u64,
}

/// Per-task stage tallies. Each mining task owns one (plain `u64`
/// fields, no sharing), returned alongside its outcome and merged by
/// the caller **in candidate order** — which is what makes the
/// aggregated counters and stage timings independent of scheduling,
/// unlike the shared-atomic accumulation they replaced. The tally is
/// also what the metrics registry ingests per task, so latency
/// histograms see the same values in the same order on every run shape.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct StageTally {
    pub(crate) parse_hits: u64,
    pub(crate) parse_misses: u64,
    pub(crate) parse_nanos: u64,
    /// Bytes the task's parser lexed rather than took over from the
    /// version before ([`schevo_ddl::HistoryParser::relexed_bytes`]).
    pub(crate) relexed_bytes: u64,
    pub(crate) diff_nanos: u64,
    pub(crate) profile_nanos: u64,
}

impl StageTally {
    /// Fold another task's tally into this one (associative and
    /// commutative; callers still merge in candidate order so any
    /// future order-sensitive aggregate stays deterministic).
    pub(crate) fn merge(&mut self, other: &StageTally) {
        self.parse_hits += other.parse_hits;
        self.parse_misses += other.parse_misses;
        self.parse_nanos += other.parse_nanos;
        self.relexed_bytes += other.relexed_bytes;
        self.diff_nanos += other.diff_nanos;
        self.profile_nanos += other.profile_nanos;
    }
}

impl ExecStats {
    /// Build the public stats view from a merged tally and the pass's
    /// wall nanoseconds.
    pub(crate) fn from_tally(
        tally: &StageTally,
        workers: usize,
        tasks: usize,
        wall_nanos: u64,
    ) -> ExecStats {
        ExecStats {
            workers,
            tasks,
            parse_hits: tally.parse_hits,
            parse_misses: tally.parse_misses,
            parse_nanos: tally.parse_nanos,
            diff_nanos: tally.diff_nanos,
            profile_nanos: tally.profile_nanos,
            wall_nanos,
        }
    }
}

/// One item pulled from a streaming candidate source.
pub(crate) enum StreamItem<T, R> {
    /// A task for the workers.
    Work(T),
    /// A result that needs no computation (journal replay, warm-memo
    /// hits, corruption events): it bypasses the workers and goes
    /// straight to ordered reassembly.
    Ready(R),
}

/// The in-flight window of a mining pass: items pulled from the source
/// and not yet emitted, computed or waiting in reassembly. A constant:
/// output is identical for every window, which only bounds memory.
pub(crate) const WINDOW: usize = 256;

/// Accounting of one streaming pass.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct StreamReport {
    /// Items pulled from the source (work + ready).
    pub(crate) total: usize,
    /// Items dispatched to workers.
    pub(crate) fresh: usize,
}

enum WorkerMsg<R> {
    Done(usize, R),
    Panicked(Box<dyn std::any::Any + Send>),
}

/// Streaming parallel map with bounded in-flight work and ordered
/// reassembly.
///
/// `source(seq)` is pulled lazily from the caller thread; `seq` is the
/// sequence number the returned item will occupy. At most `window`
/// items (at least `workers`) are pulled and not yet emitted at any
/// time — the source is simply not polled while the window is full, so a
/// slow task at the head of the sequence stalls intake instead of
/// letting finished results pile up behind it. [`StreamItem::Work`]
/// items are dispatched to `workers` threads; [`StreamItem::Ready`]
/// items skip the workers. `on_complete(seq, &r)` runs on the caller
/// thread in completion order for computed results only (the durability
/// hook: the caller thread owns the journal file and workers only
/// compute, so a worker panic can never tear a half-written record);
/// `emit(seq, r)` runs on the caller thread strictly in sequence order
/// for every item. Worker panics propagate their original payload after
/// the remaining workers drain. With `workers <= 1` no threads are
/// spawned and items flow through serially.
pub(crate) fn execute_stream_with<T, R, S, F, C, E>(
    mut source: S,
    workers: usize,
    window: usize,
    work: F,
    mut on_complete: C,
    mut emit: E,
) -> StreamReport
where
    T: Send,
    R: Send,
    S: FnMut(usize) -> Option<StreamItem<T, R>>,
    F: Fn(usize, &T) -> R + Sync,
    C: FnMut(usize, &R),
    E: FnMut(usize, R),
{
    let workers = workers.clamp(1, 32);
    let mut report = StreamReport::default();
    if workers <= 1 {
        let mut seq = 0usize;
        while let Some(item) = source(seq) {
            match item {
                StreamItem::Work(t) => {
                    report.fresh += 1;
                    let r = work(seq, &t);
                    on_complete(seq, &r);
                    emit(seq, r);
                }
                StreamItem::Ready(r) => emit(seq, r),
            }
            seq += 1;
        }
        report.total = seq;
        return report;
    }

    let window = window.max(workers);
    struct Queue<T> {
        items: VecDeque<(usize, T)>,
        closed: bool,
    }
    let queue: Mutex<Queue<T>> = Mutex::new(Queue {
        items: VecDeque::new(),
        closed: false,
    });
    let available = Condvar::new();
    let (tx, rx) = mpsc::channel::<WorkerMsg<R>>();
    // Completed results waiting for an earlier sequence number.
    let mut parked: BTreeMap<usize, R> = BTreeMap::new();
    let mut next = 0usize;
    // Park `r`, emit every result that is next in sequence, and return
    // how many were emitted.
    let mut release = |seq: usize, r: R| -> usize {
        parked.insert(seq, r);
        let first = next;
        while let Some(r) = parked.remove(&next) {
            emit(next, r);
            next += 1;
        }
        next - first
    };

    let scope_result = crossbeam::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                let tx = tx.clone();
                let queue = &queue;
                let available = &available;
                let work = &work;
                scope.spawn(move |_| loop {
                    let task = {
                        let mut guard = lock(queue);
                        loop {
                            if let Some(t) = guard.items.pop_front() {
                                break Some(t);
                            }
                            if guard.closed {
                                break None;
                            }
                            guard = wait(available, guard);
                        }
                    };
                    let Some((seq, t)) = task else { break };
                    let outcome =
                        std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| work(seq, &t)));
                    let (msg, fatal) = match outcome {
                        Ok(r) => (WorkerMsg::Done(seq, r), false),
                        Err(p) => (WorkerMsg::Panicked(p), true),
                    };
                    if tx.send(msg).is_err() || fatal {
                        break;
                    }
                })
            })
            .collect();
        drop(tx);

        let mut seq = 0usize;
        // Items pulled and not yet emitted.
        let mut in_flight = 0usize;
        let mut source_done = false;
        let mut failure: Option<Box<dyn std::any::Any + Send>> = None;

        'pass: loop {
            // Fill the window from the source.
            while !source_done && in_flight < window {
                match source(seq) {
                    None => {
                        source_done = true;
                        lock(&queue).closed = true;
                        available.notify_all();
                    }
                    Some(StreamItem::Work(t)) => {
                        report.fresh += 1;
                        lock(&queue).items.push_back((seq, t));
                        available.notify_one();
                        in_flight += 1;
                        seq += 1;
                    }
                    Some(StreamItem::Ready(r)) => {
                        in_flight += 1;
                        in_flight -= release(seq, r);
                        seq += 1;
                    }
                }
            }
            // Whatever is still in flight waits behind the head of the
            // sequence, which is a task on a worker: a completion comes.
            if in_flight == 0 && source_done {
                break 'pass;
            }
            // Wait for one completion.
            match rx.recv() {
                Ok(WorkerMsg::Done(i, r)) => {
                    on_complete(i, &r);
                    in_flight -= release(i, r);
                }
                Ok(WorkerMsg::Panicked(p)) => {
                    failure = Some(p);
                    break 'pass;
                }
                // All workers exited; nothing further can complete.
                Err(_) => break 'pass,
            }
        }

        // Shutdown: stop feeding, wake everyone, detach the channel so
        // stragglers stop, then join.
        {
            let mut guard = lock(&queue);
            guard.closed = true;
            guard.items.clear();
        }
        available.notify_all();
        drop(rx);
        for handle in handles {
            // Workers catch their own panics; join failures are impossible
            // but must not mask the original failure either way.
            let _ = handle.join();
        }
        if let Some(p) = failure {
            std::panic::resume_unwind(p);
        }
        report.total = seq;
    });
    if let Err(payload) = scope_result {
        std::panic::resume_unwind(payload);
    }
    report
}

/// Run one task under a soft watchdog deadline.
///
/// The task always runs to completion — this is a *flagging* watchdog,
/// not a killer: aborting a worker mid-task would cost the mined result.
/// Returns the task's result plus the amount by which it overran
/// `deadline` (`None` when no deadline was set or the task finished in
/// time). Callers turn an overrun into a
/// [`schevo_core::errors::ErrorClass::DeadlineExceeded`] quarantine
/// event so a pathological history is visible instead of wedging the
/// run silently.
pub fn watchdog<R>(deadline: Option<Duration>, task: impl FnOnce() -> R) -> (R, Option<Duration>) {
    match deadline {
        None => (task(), None),
        Some(limit) => {
            let start = Instant::now();
            let result = task();
            let elapsed = start.elapsed();
            (result, (elapsed > limit).then(|| elapsed - limit))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Stream `0..n` through the executor with a window of `window`.
    /// Returns the emitted results (asserted to arrive in sequence) and
    /// the pass report.
    fn stream_in<R: Send>(
        n: usize,
        workers: usize,
        window: usize,
        work: impl Fn(usize, &usize) -> R + Sync,
        on_complete: impl FnMut(usize, &R),
    ) -> (Vec<R>, StreamReport) {
        let mut out = Vec::new();
        let report = execute_stream_with(
            |seq| (seq < n).then_some(StreamItem::Work(seq)),
            workers,
            window,
            work,
            on_complete,
            |seq, r| {
                assert_eq!(seq, out.len(), "emitted out of sequence");
                out.push(r);
            },
        );
        (out, report)
    }

    /// [`stream_in`] with a window of 4.
    fn stream<R: Send>(
        n: usize,
        workers: usize,
        work: impl Fn(usize, &usize) -> R + Sync,
        on_complete: impl FnMut(usize, &R),
    ) -> (Vec<R>, StreamReport) {
        stream_in(n, workers, 4, work, on_complete)
    }

    #[test]
    fn ordered_output_for_any_worker_count_and_window() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        for window in [1, 4, WINDOW] {
            for workers in [1, 2, 3, 8, 33, usize::MAX] {
                // With more than one worker, task 0 waits for the other
                // tasks in the window to finish (as many as the window,
                // at least as large as the worker count, lets run), so
                // results complete out of order.
                let window_len = window.max(workers.clamp(1, 32));
                let wait_for = (window_len - 1).min(3);
                let finished = AtomicUsize::new(0);
                let (out, report) = stream_in(
                    100,
                    workers,
                    window,
                    |i, &x| {
                        assert_eq!(i, x);
                        if x == 0 && workers > 1 {
                            while finished.load(Ordering::SeqCst) < wait_for {
                                std::thread::yield_now();
                            }
                        }
                        finished.fetch_add(1, Ordering::SeqCst);
                        x * 2
                    },
                    |_, _| {},
                );
                assert_eq!(out, (0..100).map(|x| x * 2).collect::<Vec<_>>());
                assert_eq!((report.total, report.fresh), (100, 100));
            }
        }
    }

    #[test]
    fn a_slow_head_task_stalls_intake_within_the_window() {
        // Task 0 holds for a fixed time while three more workers run
        // ahead. Every item pulled and not yet emitted counts against the
        // window, so the finished results parked behind task 0 never
        // exceed it, and the source is not polled past it.
        use std::cell::Cell;
        const WORKERS: usize = 4;
        const SMALL_WINDOW: usize = 6;
        let pulled = Cell::new(0usize);
        let emitted = Cell::new(0usize);
        let peak = Cell::new(0usize);
        let report = execute_stream_with(
            |seq| {
                if seq >= 64 {
                    return None;
                }
                pulled.set(pulled.get() + 1);
                peak.set(peak.get().max(pulled.get() - emitted.get()));
                // Every third item needs no computation, like a journal
                // replay hit: it too waits in the window until emitted.
                Some(if seq % 3 == 2 {
                    StreamItem::Ready(seq)
                } else {
                    StreamItem::Work(seq)
                })
            },
            WORKERS,
            SMALL_WINDOW,
            |_, &x| {
                if x == 0 {
                    std::thread::sleep(std::time::Duration::from_millis(200));
                }
                x
            },
            |_, _| {},
            |seq, r| {
                assert_eq!((seq, r), (emitted.get(), emitted.get()));
                emitted.set(emitted.get() + 1);
            },
        );
        assert_eq!((report.total, emitted.get()), (64, 64));
        assert!(
            peak.get() <= SMALL_WINDOW,
            "{} items pulled and not emitted, window {SMALL_WINDOW}",
            peak.get()
        );
        assert_eq!(
            peak.get(),
            SMALL_WINDOW,
            "the window fills behind the slow head"
        );
    }

    #[test]
    fn worker_panic_payload_propagates() {
        let caught = std::panic::catch_unwind(|| {
            stream(
                50,
                4,
                |_, &x| {
                    if x == 17 {
                        panic!("task 17 exploded");
                    }
                    x
                },
                |_, _| {},
            )
        })
        .expect_err("executor must propagate the worker panic");
        let msg = caught
            .downcast_ref::<&str>()
            .copied()
            .map(String::from)
            .or_else(|| caught.downcast_ref::<String>().cloned())
            .unwrap_or_default();
        assert!(
            msg.contains("task 17 exploded"),
            "original panic payload lost: {msg:?}"
        );
    }

    #[test]
    fn worker_panic_leaves_journal_consistent() {
        // A worker panic mid-pass must not tear the journal: every record
        // the caller thread committed before the panic propagated is fully
        // framed, and replay finds no corruption — the file ends exactly at
        // a record boundary.
        use crate::extract::MineOutcome;
        use crate::journal::{replay_file, JournalRecord, JournalWriter};
        let path = std::env::temp_dir().join(format!(
            "schevo_exec_panic_journal_{}.wal",
            std::process::id()
        ));
        let _ = std::fs::remove_file(&path);
        let mut writer = JournalWriter::create(&path).expect("create journal in temp dir");
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            stream(
                50,
                4,
                |_, &x| {
                    if x == 23 {
                        panic!("task 23 exploded");
                    }
                    x
                },
                |idx, _| {
                    let record = JournalRecord {
                        key: format!("task-{idx}"),
                        outcome: MineOutcome {
                            mined: None,
                            recovered: Vec::new(),
                            quarantined: None,
                        },
                    };
                    writer.append(&record).expect("append to temp journal");
                },
            )
        }));
        assert!(caught.is_err(), "executor must propagate the worker panic");
        let committed = writer.commits();
        let replay = replay_file(&path).expect("journal file readable after panic");
        assert!(
            replay.corruption.is_none(),
            "worker panic tore the journal: {:?}",
            replay.corruption
        );
        assert_eq!(
            replay.records.len() as u64,
            committed,
            "replayed record count must equal committed appends"
        );
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn watchdog_flags_overrun_and_passes_result_through() {
        // No deadline: no measurement at all.
        let (r, over) = watchdog(None, || 41 + 1);
        assert_eq!((r, over), (42, None));
        // A zero deadline is always overrun, but the result still lands.
        let (r, over) = watchdog(Some(Duration::ZERO), || "done");
        assert_eq!(r, "done");
        assert!(over.is_some(), "zero deadline must always flag an overrun");
        // A generous deadline is not overrun by a trivial task.
        let (_, over) = watchdog(Some(Duration::from_secs(3600)), || ());
        assert!(over.is_none());
    }

    #[test]
    fn empty_and_single_item_inputs() {
        for workers in [1, 8] {
            let (none, report) = stream(0, workers, |_, &x| x, |_, _| {});
            assert!(none.is_empty());
            assert_eq!(report.total, 0);
            let (one, report) = stream(1, workers, |_, &x| x + 7, |_, _| {});
            assert_eq!(one, vec![7]);
            assert_eq!((report.total, report.fresh), (1, 1));
        }
    }

    #[test]
    fn tally_merge_is_field_wise_addition() {
        let mut a = StageTally {
            parse_hits: 1,
            parse_misses: 2,
            parse_nanos: 10,
            relexed_bytes: 5,
            diff_nanos: 20,
            profile_nanos: 30,
        };
        let b = a;
        a.merge(&b);
        assert_eq!(
            a,
            StageTally {
                parse_hits: 2,
                parse_misses: 4,
                parse_nanos: 20,
                relexed_bytes: 10,
                diff_nanos: 40,
                profile_nanos: 60,
            }
        );
        // The empty tally is the merge identity.
        let mut c = b;
        c.merge(&StageTally::default());
        assert_eq!(c, b);
    }
}
