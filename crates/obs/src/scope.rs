//! Request-scoped span collection for the serving mode.
//!
//! The process-global tracer in [`crate::trace`] answers "what did this
//! *process* do", which is the right shape for a one-shot batch study but
//! useless for a resident daemon answering many simultaneous requests:
//! every span lands in one undifferentiated pool. A [`TraceScope`] is the
//! per-request counterpart — an instantiable span sink with its own epoch
//! and sequence counter that the server attaches to [`crate::ObsHooks`]
//! for exactly one request, so every stage span recorded through it is
//! attributable to the owning request and can be exported as that
//! request's own Chrome-trace JSONL.
//!
//! A scope is reached through [`install`]: while the returned guard
//! lives, every [`stage!`](crate::stage) guard that closes on this
//! thread records into the scope, on the install's display lane. The
//! engine installs the scope from [`crate::ObsHooks::trace`] on the
//! caller thread (lane 0) and around each worker task (one lane per
//! worker slot), so spans land where the work ran and concurrent
//! requests on other threads never mix.
//!
//! Scopes reuse the [`TraceEvent`] record and the deterministic
//! `(ts_us, seq)` merge order from [`crate::trace`], so the same
//! validators and viewers work on both whole-process and per-request
//! trace files.

use crate::trace::{category, merge_shards, to_chrome_jsonl, TraceEvent};
use std::cell::RefCell;
use std::marker::PhantomData;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// A per-request span sink. Cheap to create (one `Instant` plus two empty
/// cells); safe to record into from any worker thread.
#[derive(Debug)]
pub struct TraceScope {
    epoch: Instant,
    seq: AtomicU64,
    events: Mutex<Vec<TraceEvent>>,
}

impl Default for TraceScope {
    fn default() -> Self {
        TraceScope::new()
    }
}

impl TraceScope {
    /// A fresh scope whose epoch (the zero point of every `ts_us`) is now.
    pub fn new() -> TraceScope {
        TraceScope {
            epoch: Instant::now(),
            seq: AtomicU64::new(0),
            events: Mutex::new(Vec::new()),
        }
    }

    /// Record one finished span with explicit timing. `tid` is a display
    /// lane, not a real thread id — callers pick stable lanes (the server
    /// uses `0`, the engine uses the worker slot) so per-request traces
    /// render deterministically grouped in Perfetto.
    pub fn record(
        &self,
        name: &str,
        ts_us: u64,
        dur_us: u64,
        tid: u64,
        args: Vec<(String, String)>,
    ) {
        let event = TraceEvent {
            name: name.to_string(),
            cat: category(name),
            ts_us,
            dur_us,
            tid,
            seq: self.seq.fetch_add(1, Ordering::Relaxed),
            args,
        };
        match self.events.lock() {
            Ok(mut buf) => buf.push(event),
            Err(poisoned) => poisoned.into_inner().push(event),
        }
    }

    /// Number of spans recorded so far.
    pub fn len(&self) -> usize {
        match self.events.lock() {
            Ok(buf) => buf.len(),
            Err(poisoned) => poisoned.into_inner().len(),
        }
    }

    /// Whether no spans have been recorded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Take every recorded span out of the scope in the deterministic
    /// `(ts_us, seq)` order shared with [`crate::trace::drain`].
    pub fn drain(&self) -> Vec<TraceEvent> {
        let taken = match self.events.lock() {
            Ok(mut buf) => std::mem::take(&mut *buf),
            Err(poisoned) => std::mem::take(&mut *poisoned.into_inner()),
        };
        merge_shards(vec![taken])
    }

    /// Drain and render as Chrome-trace JSONL (same format as
    /// `--trace-out`, so `validate_trace_jsonl` and Perfetto both apply).
    pub fn to_chrome_jsonl(&self) -> String {
        to_chrome_jsonl(&self.drain())
    }
}

thread_local! {
    static INSTALLED: RefCell<Option<(Arc<TraceScope>, u64)>> = const { RefCell::new(None) };
}

/// Make `scope` this thread's request scope, on display lane `lane`,
/// until the returned guard drops; the previous install (if any) is then
/// restored, so installs nest.
pub fn install(scope: &Arc<TraceScope>, lane: u64) -> Installed {
    let previous = INSTALLED.with(|cell| cell.replace(Some((Arc::clone(scope), lane))));
    Installed {
        previous,
        _thread_bound: PhantomData,
    }
}

/// Guard returned by [`install`]. Bound to the installing thread.
#[derive(Debug)]
pub struct Installed {
    previous: Option<(Arc<TraceScope>, u64)>,
    _thread_bound: PhantomData<*const ()>,
}

impl Drop for Installed {
    fn drop(&mut self) {
        let previous = self.previous.take();
        INSTALLED.with(|cell| *cell.borrow_mut() = previous);
    }
}

/// Whether a request scope is installed on this thread.
pub(crate) fn installed() -> bool {
    INSTALLED.with(|cell| cell.borrow().is_some())
}

/// Record a finished stage span into this thread's installed scope, if
/// any, placing `start` on the scope's timeline.
pub(crate) fn record_installed(name: &str, start: Instant, dur_us: u64, args: &[(String, String)]) {
    INSTALLED.with(|cell| {
        if let Some((scope, lane)) = cell.borrow().as_ref() {
            let ts_us = start.saturating_duration_since(scope.epoch).as_micros() as u64;
            scope.record(name, ts_us, dur_us, *lane, args.to_vec());
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scope_records_and_drains_in_order() {
        let scope = Arc::new(TraceScope::new());
        scope.record("b.second", 20, 5, 1, Vec::new());
        scope.record("a.first", 10, 3, 0, vec![("k".to_string(), "v".to_string())]);
        assert_eq!(scope.len(), 2);
        let events = scope.drain();
        let names: Vec<&str> = events.iter().map(|e| e.name.as_str()).collect();
        assert_eq!(names, ["a.first", "b.second"]);
        assert_eq!(events[0].cat, "a");
        assert!(scope.is_empty());
    }

    #[test]
    fn stage_guards_record_into_the_installed_scope_on_its_lane() {
        let scope = Arc::new(TraceScope::new());
        let (outer_nanos, inner_nanos);
        {
            let _caller = install(&scope, 0);
            let outer = crate::stage!("serve.request", id = "r-1");
            {
                let _worker = install(&scope, 3);
                let inner = crate::stage!("mine.task");
                inner_nanos = inner.close();
            }
            // The lane-3 install is gone; the caller lane is back.
            outer_nanos = outer.close();
        }
        assert!(!installed(), "installs restore what they replaced");
        // Closing with no scope installed records into none.
        drop(crate::stage!("mine.task"));
        let events = scope.drain();
        let mut summary: Vec<(&str, u64, u64)> = events
            .iter()
            .map(|e| (e.name.as_str(), e.tid, e.dur_us))
            .collect();
        summary.sort();
        assert_eq!(
            summary,
            [
                ("mine.task", 3, inner_nanos / 1_000),
                ("serve.request", 0, outer_nanos / 1_000)
            ]
        );
        let outer = events
            .iter()
            .find(|e| e.name == "serve.request")
            .expect("outer");
        assert_eq!(outer.args, [("id".to_string(), "r-1".to_string())]);
        let jsonl = to_chrome_jsonl(&events);
        assert_eq!(crate::validate::validate_trace_jsonl(&jsonl), Ok(2));
    }

    #[test]
    fn gated_and_silent_guards_never_reach_the_scope() {
        let scope = Arc::new(TraceScope::new());
        let _caller = install(&scope, 0);
        drop(crate::trace::SpanGuard::enter("ddl.parse", Vec::new()));
        let pass = crate::stage!("mine.pass");
        let slice = crate::trace::SpanGuard::slice();
        let nanos = slice.close();
        pass.rollup("source.read", nanos, Vec::new());
        drop(pass);
        let names: Vec<String> = scope.drain().into_iter().map(|e| e.name).collect();
        assert_eq!(names, ["source.read", "mine.pass"]);
    }

    #[test]
    fn scopes_are_independent() {
        let a = TraceScope::new();
        let b = TraceScope::new();
        a.record("only.a", 0, 1, 0, Vec::new());
        assert_eq!(b.len(), 0);
        assert_eq!(a.drain().len(), 1);
    }
}
