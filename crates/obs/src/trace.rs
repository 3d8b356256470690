//! Span tracing with per-thread shard buffers and a Chrome-trace JSONL
//! renderer.
//!
//! The tracer is process-global so deep layers (the DDL parser, the diff
//! engine, the history walker) can open spans without any context being
//! threaded through their signatures. It is off by default: the [`span!`]
//! macro compiles to one relaxed [`AtomicBool`] load and an inert guard,
//! so the instrumented hot paths cost nothing measurable until
//! `--trace-out` turns collection on.
//!
//! [`SpanGuard`] is also the pipeline's one stage clock: a
//! [`stage!`](crate::stage) guard always times its stage, returns the
//! nanoseconds on [`SpanGuard::close`], and records that same start and
//! duration here and in the request scope installed on its thread
//! ([`crate::scope`]).
//!
//! Enabled, each thread appends finished spans to its own shard (an
//! uncontended mutex registered in a global list on first use), and
//! [`drain`] merges all shards **deterministically**: events are sorted
//! by `(ts_us, seq)` where `seq` is a process-wide ticket, so the same
//! set of events always serializes in the same order regardless of which
//! worker produced which span. The merge itself is pure
//! ([`merge_shards`]) and its order-independence is pinned by proptest.

use serde_json::Value;
use std::cell::RefCell;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

/// One finished span, in microseconds relative to the tracer epoch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceEvent {
    /// Span name, dot-separated (`"mine.task"`, `"ddl.parse"`).
    pub name: String,
    /// Category — the first dot-segment of the name (`"mine"`, `"ddl"`).
    pub cat: String,
    /// Start time in µs since the tracer epoch.
    pub ts_us: u64,
    /// Duration in µs.
    pub dur_us: u64,
    /// Stable per-thread id (assigned in shard-registration order).
    pub tid: u64,
    /// Process-wide completion ticket; makes the `(ts_us, seq)` sort key
    /// a total order.
    pub seq: u64,
    /// Span arguments as key/value strings.
    pub args: Vec<(String, String)>,
}

static ENABLED: AtomicBool = AtomicBool::new(false);
static SEQ: AtomicU64 = AtomicU64::new(0);
static NEXT_TID: AtomicU64 = AtomicU64::new(1);
static EPOCH: OnceLock<Instant> = OnceLock::new();

type Shard = Arc<Mutex<Vec<TraceEvent>>>;

fn shards() -> &'static Mutex<Vec<Shard>> {
    static SHARDS: OnceLock<Mutex<Vec<Shard>>> = OnceLock::new();
    SHARDS.get_or_init(|| Mutex::new(Vec::new()))
}

thread_local! {
    static LOCAL_SHARD: RefCell<Option<(u64, Shard)>> = const { RefCell::new(None) };
}

/// Whether span collection is on. One relaxed load — this is the entire
/// cost of an instrumented call site while tracing is off.
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Turn span collection on or off. Enabling pins the tracer epoch (the
/// zero point of every `ts_us`) on first use.
pub fn set_enabled(on: bool) {
    if on {
        EPOCH.get_or_init(Instant::now);
    }
    ENABLED.store(on, Ordering::Relaxed);
}

fn epoch() -> Instant {
    *EPOCH.get_or_init(Instant::now)
}

fn record(event: TraceEvent) {
    let (tid, shard) = LOCAL_SHARD.with(|cell| {
        let mut slot = cell.borrow_mut();
        let entry = slot.get_or_insert_with(|| {
            let tid = NEXT_TID.fetch_add(1, Ordering::Relaxed);
            let shard: Shard = Arc::new(Mutex::new(Vec::new()));
            if let Ok(mut all) = shards().lock() {
                all.push(Arc::clone(&shard));
            }
            (tid, shard)
        });
        (entry.0, Arc::clone(&entry.1))
    });
    let mut event = event;
    event.tid = tid;
    if let Ok(mut buf) = shard.lock() {
        buf.push(event);
    };
}

/// A live span, and the one stage clock of the pipeline.
///
/// A guard reads the clock when it opens and once more when it closes;
/// [`SpanGuard::close`] returns the nanoseconds between the two readings
/// and records that same start and duration to every sink the guard
/// reaches. Every reported stage time is a sum of guard durations, so the
/// trace, the metrics gauges, the manifest, the request log and
/// `ExecStats` read one clock and cannot disagree.
///
/// Three kinds:
/// - [`span!`](crate::span) opens a *gated* guard: inert (no clock read,
///   no record) unless tracing or profiling is on, and recorded to the
///   process tracer only. The deep layers (`ddl.parse`, `core.diff`,
///   `vcs.file_history`, `store.*`) use it.
/// - [`stage!`](crate::stage) opens a *stage* guard: it always reads the
///   clock, since its duration feeds the reported stage times, and on
///   close records to the process tracer when it is on and to the request
///   [`TraceScope`](crate::scope::TraceScope) installed on this thread
///   ([`crate::scope::install`]), on that install's lane.
/// - [`SpanGuard::slice`] opens a *silent* guard that only measures: the
///   caller sums many short slices and records the total once with
///   [`SpanGuard::rollup`].
#[derive(Debug)]
pub struct SpanGuard(Option<SpanInner>);

#[derive(Debug)]
struct SpanInner {
    name: &'static str,
    args: Vec<(&'static str, String)>,
    start: Instant,
    reach: Reach,
    /// Whether this guard pushed onto the profiler's logical stack — the
    /// guard remembers so an enable/disable race can never unbalance it.
    pushed: bool,
}

/// The sinks a closing guard records to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Reach {
    /// The process tracer, when it is on.
    Process,
    /// The process tracer and the request scope installed on this thread.
    Everywhere,
    /// None: the caller sums the durations itself.
    Nowhere,
}

impl SpanGuard {
    fn open(
        name: &'static str,
        args: Vec<(&'static str, String)>,
        reach: Reach,
        start: Instant,
    ) -> SpanGuard {
        let pushed = reach != Reach::Nowhere && crate::profile::enabled();
        if pushed {
            crate::profile::push(name);
        }
        SpanGuard(Some(SpanInner {
            name,
            args,
            start,
            reach,
            pushed,
        }))
    }

    /// Open a gated span. Call sites should go through
    /// [`span!`](crate::span), which checks [`enabled`] *before*
    /// evaluating any argument.
    pub fn enter(name: &'static str, args: Vec<(&'static str, String)>) -> SpanGuard {
        SpanGuard::open(name, args, Reach::Process, Instant::now())
    }

    /// Open a stage guard. Call sites should go through
    /// [`stage!`](crate::stage), which builds the arguments only when a
    /// sink will record them.
    pub fn stage(name: &'static str, args: Vec<(&'static str, String)>) -> SpanGuard {
        SpanGuard::open(name, args, Reach::Everywhere, Instant::now())
    }

    /// Open a silent guard: it measures one slice of a rolled-up stage
    /// and records nothing.
    pub fn slice() -> SpanGuard {
        SpanGuard::open("", Vec::new(), Reach::Nowhere, Instant::now())
    }

    /// The no-op guard handed out while tracing is off.
    pub fn inert() -> SpanGuard {
        SpanGuard(None)
    }

    /// Attach one more argument, known only as the span ends. Built only
    /// when a sink may record it.
    pub fn arg(&mut self, key: &'static str, value: impl std::fmt::Display) {
        if let Some(inner) = self.0.as_mut().filter(|i| i.reach != Reach::Nowhere) {
            if recording() {
                inner.args.push((key, value.to_string()));
            }
        }
    }

    /// Close the span: read the clock, record to this guard's sinks, and
    /// return the nanoseconds since it opened (0 for an inert guard).
    pub fn close(mut self) -> u64 {
        self.0
            .take()
            .map_or(0, |inner| inner.finish(Instant::now()))
    }

    /// Close this span and open the next stage `name` in its place, both
    /// on one clock reading, so back-to-back stages leave no gap between
    /// them. Returns the closed span's nanoseconds.
    pub fn next_stage(&mut self, name: &'static str) -> u64 {
        let Some(inner) = self.0.take() else { return 0 };
        let (reach, now) = (inner.reach, Instant::now());
        let nanos = inner.finish(now);
        *self = SpanGuard::open(name, Vec::new(), reach, now);
        nanos
    }

    /// Record one rolled-up event `name`, lasting `nanos` (a sum of
    /// [`SpanGuard::slice`] durations), placed at this guard's start and
    /// sent to this guard's sinks.
    pub fn rollup(&self, name: &'static str, nanos: u64, args: Vec<(&'static str, String)>) {
        if let Some(inner) = &self.0 {
            emit(name, inner.start, nanos, args, inner.reach);
        }
    }
}

impl SpanInner {
    fn finish(self, end: Instant) -> u64 {
        if self.pushed {
            crate::profile::pop();
        }
        let nanos = end.saturating_duration_since(self.start).as_nanos() as u64;
        emit(self.name, self.start, nanos, self.args, self.reach);
        nanos
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if let Some(inner) = self.0.take() {
            inner.finish(Instant::now());
        }
    }
}

/// Whether a stage guard closing on this thread would record anywhere:
/// the process tracer is on or a request scope is installed.
#[inline]
pub fn recording() -> bool {
    enabled() || crate::scope::installed()
}

/// Send one finished span to the sinks `reach` names. Every sink gets the
/// same start and `nanos / 1000` as its duration.
fn emit(
    name: &'static str,
    start: Instant,
    nanos: u64,
    args: Vec<(&'static str, String)>,
    reach: Reach,
) {
    if reach == Reach::Nowhere {
        return;
    }
    let dur_us = nanos / 1_000;
    let args: Vec<(String, String)> = args.into_iter().map(|(k, v)| (k.to_string(), v)).collect();
    if reach == Reach::Everywhere {
        crate::scope::record_installed(name, start, dur_us, &args);
    }
    if !enabled() {
        return;
    }
    record(TraceEvent {
        name: name.to_string(),
        cat: category(name),
        ts_us: start.saturating_duration_since(epoch()).as_micros() as u64,
        dur_us,
        tid: 0, // assigned by `record`
        seq: SEQ.fetch_add(1, Ordering::Relaxed),
        args,
    });
}

/// The category of a span name: its first dot-segment.
pub(crate) fn category(name: &str) -> String {
    name.split('.').next().unwrap_or_default().to_string()
}

/// Open a gated span guard: `span!("ddl.parse", bytes = sql.len())`.
///
/// Arguments are only evaluated (and only allocate) when tracing or
/// profiling is enabled; otherwise the macro is two relaxed atomic loads
/// returning an inert guard that reads no clock. Bind the result
/// (`let _span = span!(...)`) — the span closes when the guard drops.
/// While the sampling profiler is on, the guard also publishes the span
/// name on this thread's logical stack ([`crate::profile`]) so
/// wall-clock samples carry real frames.
#[macro_export]
macro_rules! span {
    ($name:expr $(, $key:ident = $val:expr)* $(,)?) => {
        if $crate::trace::enabled() || $crate::profile::enabled() {
            $crate::trace::SpanGuard::enter(
                $name,
                vec![$((stringify!($key), format!("{}", $val))),*],
            )
        } else {
            $crate::trace::SpanGuard::inert()
        }
    };
}

/// Open a stage guard: `let task = stage!("mine.task", project = name);`
/// then `task.close()` for its nanoseconds.
///
/// The guard always reads the clock; its arguments are only evaluated
/// when a sink will record them ([`recording`]).
#[macro_export]
macro_rules! stage {
    ($name:expr $(, $key:ident = $val:expr)* $(,)?) => {
        $crate::trace::SpanGuard::stage(
            $name,
            if $crate::trace::recording() {
                vec![$((stringify!($key), format!("{}", $val))),*]
            } else {
                Vec::new()
            },
        )
    };
}

/// Merge per-worker shards into one deterministic event sequence: the
/// concatenation sorted by `(ts_us, seq)`. Since `seq` is unique, this
/// is a total order — any permutation or regrouping of the same shards
/// merges to the identical sequence (pinned by `tests/merge_laws.rs`).
pub fn merge_shards(shards: Vec<Vec<TraceEvent>>) -> Vec<TraceEvent> {
    let mut all: Vec<TraceEvent> = shards.into_iter().flatten().collect();
    all.sort_by_key(|e| (e.ts_us, e.seq));
    all
}

/// Take every buffered event out of the global tracer, merged
/// deterministically. Shards stay registered (threads keep appending to
/// their existing buffers), only their contents are taken.
pub fn drain() -> Vec<TraceEvent> {
    let mut taken: Vec<Vec<TraceEvent>> = Vec::new();
    if let Ok(all) = shards().lock() {
        for shard in all.iter() {
            if let Ok(mut buf) = shard.lock() {
                taken.push(std::mem::take(&mut *buf));
            }
        }
    }
    merge_shards(taken)
}

/// Render events as Chrome-trace-compatible JSONL: one complete-event
/// (`"ph": "X"`) JSON object per line. Perfetto opens the file directly;
/// for `chrome://tracing`, wrap the lines in `[` … `]` (the legacy viewer
/// also accepts an array with a missing closing bracket, so prepending a
/// single `[` line is enough).
pub fn to_chrome_jsonl(events: &[TraceEvent]) -> String {
    let mut out = String::new();
    for e in events {
        let args = Value::Map(
            e.args
                .iter()
                .map(|(k, v)| (k.clone(), Value::Str(v.clone())))
                .collect(),
        );
        let obj = Value::Map(vec![
            ("name".to_string(), Value::Str(e.name.clone())),
            ("cat".to_string(), Value::Str(e.cat.clone())),
            ("ph".to_string(), Value::Str("X".to_string())),
            ("ts".to_string(), Value::U64(e.ts_us)),
            ("dur".to_string(), Value::U64(e.dur_us)),
            ("pid".to_string(), Value::U64(1)),
            ("tid".to_string(), Value::U64(e.tid)),
            ("args".to_string(), args),
        ]);
        match serde_json::to_string(&obj) {
            Ok(line) => {
                out.push_str(&line);
                out.push('\n');
            }
            Err(_) => continue, // string-keyed map of scalars always encodes
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(ts: u64, seq: u64, name: &str) -> TraceEvent {
        TraceEvent {
            name: name.to_string(),
            cat: name.split('.').next().unwrap_or_default().to_string(),
            ts_us: ts,
            dur_us: 1,
            tid: 1,
            seq,
            args: Vec::new(),
        }
    }

    #[test]
    fn merge_is_order_independent() {
        let a = vec![ev(5, 2, "a"), ev(9, 4, "b")];
        let b = vec![ev(5, 1, "c"), ev(7, 3, "d")];
        let ab = merge_shards(vec![a.clone(), b.clone()]);
        let ba = merge_shards(vec![b, a]);
        assert_eq!(ab, ba);
        let names: Vec<&str> = ab.iter().map(|e| e.name.as_str()).collect();
        assert_eq!(names, ["c", "a", "d", "b"]);
    }

    #[test]
    fn jsonl_has_one_object_per_line() {
        let events = vec![ev(1, 0, "mine.task"), ev(2, 1, "ddl.parse")];
        let jsonl = to_chrome_jsonl(&events);
        let lines: Vec<&str> = jsonl.lines().collect();
        assert_eq!(lines.len(), 2);
        for line in lines {
            let v: Value = serde_json::from_str(line).expect("line parses");
            assert_eq!(v.get("ph").and_then(|p| p.as_str()), Some("X"));
            assert!(v.get("ts").and_then(|t| t.as_u64()).is_some());
        }
    }

    #[test]
    fn global_tracer_roundtrip() {
        // The one test exercising global state: enable, span, drain.
        // Other tests use the pure merge/render functions only, so this
        // cannot race with them even under parallel test execution.
        set_enabled(true);
        {
            let _g = crate::span!("test.outer", item = 7);
            let _inner = crate::span!("test.inner");
        }
        set_enabled(false);
        let events = drain();
        let names: Vec<&str> = events
            .iter()
            .map(|e| e.name.as_str())
            .filter(|n| n.starts_with("test."))
            .collect();
        assert!(names.contains(&"test.outer"));
        assert!(names.contains(&"test.inner"));
        let outer = events
            .iter()
            .find(|e| e.name == "test.outer")
            .expect("outer span recorded");
        assert_eq!(outer.cat, "test");
        assert_eq!(outer.args, vec![("item".to_string(), "7".to_string())]);
        // A stage guard records exactly the duration it returns, and
        // `next_stage` starts the next span where the last one ended.
        set_enabled(true);
        let mut stage = crate::stage!("test.first");
        let first = stage.next_stage("test.second");
        let second = stage.close();
        set_enabled(false);
        let events = drain();
        let find = |name: &str| {
            events
                .iter()
                .find(|e| e.name == name)
                .cloned()
                .expect("stage recorded")
        };
        let (a, b) = (find("test.first"), find("test.second"));
        assert_eq!((a.dur_us, b.dur_us), (first / 1_000, second / 1_000));
        assert!(b.ts_us >= a.ts_us && b.ts_us <= a.ts_us + a.dur_us + 1);
        // Disabled spans are free and record nothing.
        let _g = crate::span!("test.disabled");
        drop(_g);
        assert!(drain().iter().all(|e| e.name != "test.disabled"));
    }
}
