//! The resident study server: one warm [`MiningEngine`] configuration,
//! one open shard store, one shared memo of mined outcomes — answering
//! concurrent study requests with admission control, per-request
//! watchdog deadlines, queryable results, and Prometheus metrics.
//!
//! Determinism contract: a served study runs the exact same
//! `MiningEngine::study` path as the batch CLI over the same store, and
//! the outcome memo is keyed by a digest of everything an outcome
//! depends on ([`schevo_pipeline::candidate_key`]), so the `study_json`
//! bytes in an `ok` response are identical to the CLI's
//! `study_results.json` for the same store and options — whatever else
//! the server is doing concurrently.
//!
//! One post-response step writes every per-request sink (request log,
//! trace file, slow log) while the study still holds its admission
//! slot, and a drain — SIGINT/SIGTERM, [`Server::begin_drain`] or a
//! `shutdown` request — is the one exit path.

use crate::frame::{frame_len, read_frame, write_frame};
use crate::proto::{decode_request, encode_response, Request, Response};
use parking_lot::Mutex;
use schevo_corpus::store::{ShardStore, StoreError};
use schevo_obs::manifest::{stages_from_snapshot, RunManifest, MANIFEST_VERSION};
use schevo_obs::metrics::{RedRing, Registry};
use schevo_obs::scope::TraceScope;
use schevo_obs::stage;
use schevo_obs::trace::{to_chrome_jsonl, TraceEvent};
use schevo_obs::validate::REQUEST_LOG_VERSION;
use schevo_obs::{events, profile, ObsHooks};
use schevo_pipeline::exec::watchdog;
use schevo_pipeline::journal::DurabilityOptions;
use schevo_pipeline::{MiningEngine, StudyOptions, WarmCaches};
use schevo_report::{fig04_csv, fig10_csv, study_to_json, write_atomic};
use serde::Serialize;
use std::collections::HashMap;
use std::io::{Read, Write};
use std::net::TcpListener;
use std::os::unix::net::UnixListener;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Static configuration of one server instance.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// The shard store directory to serve studies from.
    pub store_dir: PathBuf,
    /// Max studies in flight; further `study` requests get `busy`.
    pub max_inflight: usize,
    /// Default worker count per study (requests may override).
    pub workers: usize,
    /// Journal path backing `resume: true` requests; `None` rejects them.
    pub journal: Option<PathBuf>,
    /// Deterministic crash injection forwarded to durable requests
    /// (testing only — aborts the whole process mid-request).
    pub crash_after: Option<u64>,
    /// Default per-request watchdog deadline.
    pub deadline: Option<Duration>,
    /// Directory for per-request CSV artifacts; `None` publishes none.
    pub artifacts_dir: Option<PathBuf>,
    /// How long a drain waits for admitted studies, sinks included,
    /// before giving up and exiting anyway (they run the same
    /// deterministic path on the next request, so abandoning them loses
    /// no durable state).
    pub drain_deadline: Duration,
    /// Where to flush the final metrics snapshot (Prometheus text,
    /// written atomically) when the server exits; `None` skips it.
    pub metrics_out: Option<PathBuf>,
    /// Structured JSONL request log: one line per finished request (all
    /// ops, including `busy`/`draining` rejections) with id, admission
    /// outcome, queue wait, per-stage walls, quarantine count, and wire
    /// bytes in/out. `None` logs nothing. Like every sink below, it is
    /// written after the response frame.
    pub request_log: Option<PathBuf>,
    /// Directory for per-request Chrome-trace JSONL exports
    /// (`<dir>/<id>.trace.jsonl`) of served studies; `None` exports none.
    pub trace_dir: Option<PathBuf>,
    /// Slow-study threshold: any study whose wall exceeds this many
    /// milliseconds has its full span tree appended to
    /// [`ServerConfig::slow_log`].
    pub slow_ms: Option<u64>,
    /// Where slow-study span trees are appended (JSONL, one object per
    /// slow request). Only consulted when [`ServerConfig::slow_ms`] is
    /// set.
    pub slow_log: Option<PathBuf>,
    /// Sampling interval of the always-on wall-clock profiler; `0`
    /// leaves the profiler stopped at boot (the `profile` op can still
    /// start it at runtime).
    pub profile_interval_ms: u64,
}

impl ServerConfig {
    /// A config serving `store_dir` with library defaults: 4 studies in
    /// flight, engine-default workers, no journal, no
    /// deadline, no artifacts.
    pub fn new(store_dir: PathBuf) -> ServerConfig {
        ServerConfig {
            store_dir,
            max_inflight: 4,
            workers: StudyOptions::default().workers,
            journal: None,
            crash_after: None,
            deadline: None,
            artifacts_dir: None,
            drain_deadline: Duration::from_secs(5),
            metrics_out: None,
            request_log: None,
            trace_dir: None,
            slow_ms: None,
            slow_log: None,
            profile_interval_ms: 0,
        }
    }
}

/// The listening endpoint of [`Server::serve`].
#[derive(Debug)]
pub enum Listener {
    /// A TCP listener (loopback in every shipped configuration).
    Tcp(TcpListener),
    /// A Unix domain socket listener.
    Unix(UnixListener),
}

/// The server state shared across connection threads.
#[derive(Debug)]
pub struct Server {
    config: ServerConfig,
    store: ShardStore,
    warm: WarmCaches,
    inflight: AtomicUsize,
    served: AtomicU64,
    next_id: AtomicU64,
    results: Mutex<HashMap<String, Response>>,
    registry: Registry,
    /// One journal file, one writer: durable requests serialize here.
    journal_gate: Mutex<()>,
    draining: AtomicBool,
    /// Monotonic zero point of request-log `ts_ms` stamps and the RED
    /// ring's second counter.
    epoch: Instant,
    /// Sliding-window RED accumulator over every finished request.
    red: RedRing,
    /// Open request-log appender; `None` when unconfigured or the file
    /// could not be opened (counted, never fatal).
    request_log: Option<Mutex<std::fs::File>>,
    /// Open slow-study-log appender, same lifecycle as the request log.
    slow_log: Option<Mutex<std::fs::File>>,
}

/// Set by the SIGINT/SIGTERM handler; polled by [`Server::serve`].
/// Process-global because a signal handler cannot carry state, and a
/// process runs at most one serving accept loop.
static DRAIN_SIGNAL: AtomicBool = AtomicBool::new(false);

extern "C" fn on_drain_signal(_signum: i32) {
    // Only async-signal-safe work here: one atomic store.
    DRAIN_SIGNAL.store(true, Ordering::SeqCst);
}

extern "C" {
    // Raw libc `signal(2)`; declared directly because the workspace
    // vendors no libc crate. `usize` stands in for the handler pointer.
    fn signal(signum: i32, handler: usize) -> usize;
}

/// Route SIGINT (ctrl-c) and SIGTERM into a graceful drain: the serving
/// loop stops admitting studies, lets in-flight work finish (bounded by
/// [`ServerConfig::drain_deadline`]), flushes metrics, and exits —
/// instead of the default immediate kill.
pub fn install_drain_signals() {
    const SIGINT: i32 = 2;
    const SIGTERM: i32 = 15;
    let handler = on_drain_signal as *const () as usize;
    // SAFETY: `signal(2)` with valid signal numbers and a pointer to an
    // `extern "C" fn(i32)` that lives for the whole program; the handler
    // does only an atomic store, which is async-signal-safe.
    unsafe {
        signal(SIGINT, handler);
        signal(SIGTERM, handler);
    }
}

/// Open `path` for appending, warning (never failing) when it cannot be
/// opened: observability sinks must not take the daemon down.
fn open_append(path: &PathBuf, what: &str) -> Option<Mutex<std::fs::File>> {
    match std::fs::OpenOptions::new().create(true).append(true).open(path) {
        Ok(f) => Some(Mutex::new(f)),
        Err(e) => {
            events::warn(
                "serve",
                &format!("cannot open {what} {}: {e}; disabled", path.display()),
            );
            None
        }
    }
}

/// A request id reduced to a safe file-name stem: ids are
/// client-suppliable, so anything outside `[A-Za-z0-9._-]` becomes `_`
/// and the stem is capped at 80 chars (no path traversal, no absurd
/// names).
fn sanitize_id(id: &str) -> String {
    let mut out: String = id
        .chars()
        .take(80)
        .map(|c| {
            if c.is_ascii_alphanumeric() || matches!(c, '.' | '_' | '-') {
                c
            } else {
                '_'
            }
        })
        .collect();
    if out.trim_matches(['.', '_', '-']).is_empty() {
        out = "request".to_string();
    }
    out
}

/// One request-log line (`--request-log`). Schema pinned by
/// `schevo_obs::validate::validate_request_log_jsonl` and DESIGN.md.
#[derive(Debug, Serialize)]
struct RequestLogEntry {
    v: u64,
    ts_ms: u64,
    id: String,
    op: String,
    status: String,
    queue_us: u64,
    wall_us: u64,
    bytes_in: u64,
    bytes_out: u64,
    quarantined: u64,
    stages: Vec<(String, u64)>,
}

/// One slow-study line (`--slow-log`): the full span tree of a request
/// whose wall exceeded `--slow-ms`.
#[derive(Debug, Serialize)]
struct SlowLogEntry {
    id: String,
    wall_us: u64,
    threshold_ms: u64,
    spans: Vec<SlowSpan>,
}

/// One span inside a [`SlowLogEntry`], flattened from [`TraceScope`].
#[derive(Debug, Serialize)]
struct SlowSpan {
    name: String,
    ts_us: u64,
    dur_us: u64,
    tid: u64,
}

/// An admitted study's hold on its admission slot, plus what its sinks
/// record. [`Server::serve_stream`] hands it to the post-response step,
/// which writes the sinks; the slot is released when it drops.
#[derive(Debug)]
pub struct Admitted<'a> {
    slot: &'a AtomicUsize,
    sinks: StudySinks,
}

impl Drop for Admitted<'_> {
    fn drop(&mut self) {
        self.slot.fetch_sub(1, Ordering::SeqCst);
    }
}

/// What a study that ran to an `ok` response leaves for its sinks: the
/// manifest's stage walls (request log), the `serve.request` wall (slow
/// log) and, when a trace dir or slow log wants them, its span events.
#[derive(Debug, Default)]
struct StudySinks {
    stages: Vec<(String, u64)>,
    wall_us: u64,
    events: Option<Vec<TraceEvent>>,
}

impl Server {
    /// Open the store and build a server around it. When
    /// [`ServerConfig::profile_interval_ms`] is nonzero the sampling
    /// profiler starts immediately (always-on profiling).
    pub fn new(config: ServerConfig) -> Result<Server, StoreError> {
        let store = ShardStore::open(&config.store_dir)?;
        let request_log = config
            .request_log
            .as_ref()
            .and_then(|p| open_append(p, "request log"));
        let slow_log = match (&config.slow_ms, &config.slow_log) {
            (Some(_), Some(p)) => open_append(p, "slow log"),
            _ => None,
        };
        if config.profile_interval_ms > 0 {
            profile::start(config.profile_interval_ms);
        }
        Ok(Server {
            config,
            store,
            warm: WarmCaches::new(),
            inflight: AtomicUsize::new(0),
            served: AtomicU64::new(0),
            next_id: AtomicU64::new(1),
            results: Mutex::new(HashMap::new()),
            registry: Registry::new(),
            journal_gate: Mutex::new(()),
            draining: AtomicBool::new(false),
            epoch: Instant::now(),
            red: RedRing::new(),
            request_log,
            slow_log,
        })
    }

    /// Stop admitting studies: further `study` requests get a typed
    /// `draining` response while `result`/`metrics`/`status` stay
    /// queryable, and [`Server::serve`] exits once no admitted study is
    /// still running or writing its sinks (or the drain deadline
    /// passes). Idempotent; also reached by a `shutdown` request and,
    /// when [`install_drain_signals`] ran, by SIGINT/SIGTERM.
    pub fn begin_drain(&self) {
        self.draining.store(true, Ordering::SeqCst);
    }

    /// Whether a drain has begun.
    pub fn is_draining(&self) -> bool {
        self.draining.load(Ordering::SeqCst)
    }

    /// The manifest of the store being served.
    pub fn store_manifest(&self) -> &schevo_corpus::store::StoreManifest {
        self.store.manifest()
    }

    /// Serve one framed request stream until clean EOF, an unframeable
    /// byte sequence (torn/garbage/bit-flipped frame — the connection is
    /// dropped, because no trustworthy frame boundary remains), or a
    /// `shutdown` request. Returns whether shutdown was requested.
    ///
    /// Generic over the transport so protocol tests can drive it with
    /// in-memory readers/writers — no socket required.
    pub fn serve_stream<S: Read + Write + ?Sized>(&self, stream: &mut S) -> bool {
        loop {
            let payload = match read_frame(stream) {
                Ok(Some(p)) => p,
                Ok(None) => return false,
                Err(_) => {
                    self.registry.add("serve.frame_errors", 1);
                    return false;
                }
            };
            let arrival = Instant::now();
            let bytes_in = frame_len(payload.len()) as u64;
            let decoded = decode_request(&payload);
            let op = match &decoded {
                Ok(r) => r.op.clone(),
                Err(_) => "invalid".to_string(),
            };
            let shutdown = op == "shutdown";
            // Queue wait: time between the frame being fully on hand and
            // dispatch starting. Tiny on this one-thread-per-connection
            // transport, but the request-log schema reserves the field so
            // a queued executor can fill it without a version bump.
            let dispatched = Instant::now();
            let queue_us = dispatched.duration_since(arrival).as_micros() as u64;
            let (response, admitted) = match decoded {
                Ok(request) => self.dispatch(request),
                Err(e) => {
                    self.registry.add("serve.bad_requests", 1);
                    (Response::error(None, &e), None)
                }
            };
            let wall_us = dispatched.elapsed().as_micros() as u64;
            let Ok(bytes) = encode_response(&response) else {
                return shutdown;
            };
            let bytes_out = frame_len(bytes.len()) as u64;
            let write_ok = write_frame(stream, &bytes).is_ok();
            let entry = RequestLogEntry {
                v: REQUEST_LOG_VERSION,
                ts_ms: 0,
                // Undecodable requests and id-less `result` lookups have
                // no id to echo; `-` keeps the line schema-valid (ids are
                // never empty).
                id: response.id.unwrap_or_else(|| "-".to_string()),
                op,
                status: response.status,
                queue_us,
                wall_us,
                bytes_in,
                bytes_out,
                quarantined: response.quarantined.unwrap_or(0),
                stages: Vec::new(),
            };
            self.write_sinks(entry, admitted);
            if !write_ok || shutdown {
                return shutdown;
            }
        }
    }

    /// The post-response step: write every sink of one request — an
    /// admitted study's trace file and slow-log entry, then the
    /// request-log line — and only then release the study's admission
    /// slot, so a drain cannot exit while a study is still writing.
    fn write_sinks(&self, mut entry: RequestLogEntry, mut admitted: Option<Admitted<'_>>) {
        if let Some(sinks) = admitted.as_mut().map(|a| &mut a.sinks) {
            entry.stages = std::mem::take(&mut sinks.stages);
            if let (Some(events), Some(dir)) = (&sinks.events, &self.config.trace_dir) {
                let path = dir.join(format!("{}.trace.jsonl", sanitize_id(&entry.id)));
                let exported = std::fs::create_dir_all(dir).is_ok()
                    && write_atomic(&path, to_chrome_jsonl(events).as_bytes()).is_ok();
                if !exported {
                    self.registry.add("serve.trace_export_errors", 1);
                }
            }
            // Compared in microseconds so a threshold of 0 means "every
            // study is slow" — the deterministic log-everything mode tests
            // and drills use.
            let slow_ms = self.config.slow_ms.filter(|ms| sinks.wall_us > ms.saturating_mul(1000));
            if let (Some(events), Some(threshold_ms), Some(file)) =
                (&sinks.events, slow_ms, &self.slow_log)
            {
                self.registry.add("serve.slow_studies", 1);
                let slow = SlowLogEntry {
                    id: entry.id.clone(),
                    wall_us: sinks.wall_us,
                    threshold_ms,
                    spans: events
                        .iter()
                        .map(|e| SlowSpan {
                            name: e.name.clone(),
                            ts_us: e.ts_us,
                            dur_us: e.dur_us,
                            tid: e.tid,
                        })
                        .collect(),
                };
                if let Ok(line) = serde_json::to_string(&slow) {
                    let _ = writeln!(&mut *file.lock(), "{line}");
                }
            }
        }
        // `ts_ms` is stamped *inside* the file lock, so stamps are
        // monotonically non-decreasing in file order even under
        // concurrent connections.
        if let Some(file) = &self.request_log {
            let mut guard = file.lock();
            entry.ts_ms = self.epoch.elapsed().as_millis() as u64;
            if let Ok(line) = serde_json::to_string(&entry) {
                if writeln!(&mut *guard, "{line}").is_err() {
                    self.registry.add("serve.request_log_errors", 1);
                }
            }
        }
    }

    /// Handle one decoded request. Returns the response and, for an
    /// admitted study, its [`Admitted`] hold on the admission slot:
    /// the study counts as in flight until that value drops.
    ///
    /// Every request leaves with an id: client-supplied ids are echoed,
    /// and the server mints `req-N` for id-less requests of every op
    /// except `result` (a `result` lookup without an id is a typed
    /// error — the id *is* the query). Every dispatch, whatever its
    /// outcome, lands one observation in the sliding-window RED ring.
    /// A `shutdown` request begins the same drain as SIGTERM.
    pub fn dispatch(&self, request: Request) -> (Response, Option<Admitted<'_>>) {
        self.registry.add("serve.requests", 1);
        let mut request = request;
        if request.id.is_none() && request.op != "result" {
            request.id = Some(format!("req-{}", self.next_id.fetch_add(1, Ordering::SeqCst)));
        }
        let started = Instant::now();
        let (mut response, admitted) = match request.op.as_str() {
            "study" => self.admit_study(&request),
            "result" => (self.lookup_result(&request), None),
            "metrics" => (self.metrics_response(&request), None),
            "status" => (self.status_response(&request), None),
            "profile" => (self.profile_response(&request), None),
            "shutdown" => {
                self.begin_drain();
                (Response::ok(request.id.clone()), None)
            }
            other => (
                Response::error(request.id.clone(), &format!("unknown op `{other}`")),
                None,
            ),
        };
        if response.id.is_none() {
            response.id = request.id;
        }
        let wall_us = started.elapsed().as_micros() as u64;
        if request.op == "study" && response.status == "ok" {
            self.registry.observe("serve.study.wall_us", wall_us);
        }
        self.red.record(
            self.epoch.elapsed().as_secs(),
            wall_us,
            response.status == "error",
        );
        (response, admitted)
    }

    /// Runtime profiler control (`op: "profile"`): `start` turns the
    /// sampling profiler on (idempotent), `stop` turns it off and
    /// returns the collapsed stacks, `status` (the default) reports
    /// whether it is running plus a non-destructive snapshot.
    fn profile_response(&self, request: &Request) -> Response {
        match request.profile.as_deref().unwrap_or("status") {
            "start" => {
                let interval = match self.config.profile_interval_ms {
                    0 => 5,
                    ms => ms,
                };
                profile::start(interval);
                Response {
                    profiling: Some(true),
                    ..Response::ok(request.id.clone())
                }
            }
            "stop" => Response {
                profiling: Some(false),
                profile_stacks: profile::stop(),
                ..Response::ok(request.id.clone())
            },
            "status" => Response {
                profiling: Some(profile::status().is_some()),
                profile_stacks: profile::collapsed(),
                ..Response::ok(request.id.clone())
            },
            other => Response::error(
                request.id.clone(),
                &format!("unknown profile action `{other}`"),
            ),
        }
    }

    fn status_response(&self, request: &Request) -> Response {
        Response {
            inflight: Some(self.inflight.load(Ordering::SeqCst) as u64),
            served: Some(self.served.load(Ordering::SeqCst)),
            ..Response::ok(request.id.clone())
        }
    }

    /// Refresh the exported sliding-window RED gauges (1m and 5m) from
    /// the ring. Called before every snapshot so scrapes always see
    /// current windows.
    fn export_red(&self) {
        let now_s = self.epoch.elapsed().as_secs();
        self.red
            .window(now_s, 60)
            .export_into(&self.registry, "serve.red.1m");
        self.red
            .window(now_s, 300)
            .export_into(&self.registry, "serve.red.5m");
    }

    fn metrics_response(&self, request: &Request) -> Response {
        self.registry
            .set_gauge("serve.inflight", self.inflight.load(Ordering::SeqCst) as u64);
        self.registry
            .set_gauge("serve.served", self.served.load(Ordering::SeqCst));
        self.export_red();
        Response {
            metrics: Some(self.registry.snapshot().to_prometheus()),
            ..Response::ok(request.id.clone())
        }
    }

    fn lookup_result(&self, request: &Request) -> Response {
        let Some(id) = &request.id else {
            return Response::error(None, "`result` needs an `id`");
        };
        match self.results.lock().get(id) {
            Some(stored) => stored.clone(),
            None => Response::error(request.id.clone(), &format!("no result for id `{id}`")),
        }
    }

    /// Admission control: bounded in-flight studies with an explicit
    /// `busy` backpressure response — the server never queues unbounded
    /// mining work behind a socket. A draining server turns every study
    /// away; the drain is checked after the slot is taken, so a drain
    /// that begins concurrently either turns this study away or sees it
    /// in flight.
    fn admit_study(&self, request: &Request) -> (Response, Option<Admitted<'_>>) {
        let cap = self.config.max_inflight.max(1);
        let slot = self
            .inflight
            .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |n| {
                (n < cap).then_some(n + 1)
            })
            .ok()
            .map(|_| Admitted {
                slot: &self.inflight,
                sinks: StudySinks::default(),
            });
        if self.is_draining() {
            self.registry.add("serve.drained_away", 1);
            return (Response::draining(request.id.clone()), None);
        }
        let Some(mut admitted) = slot else {
            self.registry.add("serve.busy", 1);
            return (Response::busy(request.id.clone()), None);
        };
        let (response, sinks) = self.run_study(request);
        admitted.sinks = sinks;
        (response, Some(admitted))
    }

    /// Run one admitted study. Returns its response and what its sinks
    /// record; the sinks themselves are written after the response frame
    /// by [`Server::serve_stream`]. A study that fails returns its
    /// `error` response and leaves nothing for the trace or slow log.
    fn run_study(&self, request: &Request) -> (Response, StudySinks) {
        let id = match &request.id {
            Some(id) => id.clone(),
            None => format!("req-{}", self.next_id.fetch_add(1, Ordering::SeqCst)),
        };
        let workers = request
            .workers
            .map(|w| w as usize)
            .unwrap_or(self.config.workers);
        let resume = request.resume.unwrap_or(false);
        let deadline = request
            .deadline_ms
            .map(Duration::from_millis)
            .or(self.config.deadline);
        let durability = if resume {
            let Some(journal) = self.config.journal.clone() else {
                let error = "resume requested but the server has no journal configured";
                return (Response::error(Some(id), error), StudySinks::default());
            };
            DurabilityOptions {
                journal: Some(journal),
                resume: true,
                crash_after: self.config.crash_after,
                deadline: None,
            }
        } else {
            DurabilityOptions::default()
        };
        let request_registry = Arc::new(Registry::new());
        // A per-request span scope is only worth paying for when some
        // sink will consume it; without one, the engine sees `trace:
        // None` and records nothing — that is the bare fast path the
        // overhead fence measures against.
        let scope = (self.config.trace_dir.is_some() || self.slow_log.is_some())
            .then(|| Arc::new(TraceScope::new()));
        let options = StudyOptions {
            workers,
            durability,
            obs: ObsHooks {
                trace: scope.clone(),
                ..ObsHooks::with_registry(request_registry.clone())
            },
            ..StudyOptions::default()
        };
        let mut engine = MiningEngine::new(options);
        if request.cache != Some(false) {
            engine = engine.with_warm(&self.warm);
        }
        // Durable requests serialize on the journal gate: the journal is
        // one append-only file with one writer. Non-durable studies run
        // concurrently up to the admission cap.
        let journal_guard = resume.then(|| self.journal_gate.lock());
        // One clock for the request: the `serve.request` span, the
        // manifest's `wall_us` and the slow-log entry all read this guard.
        let _caller_lane = scope.as_ref().map(|s| schevo_obs::scope::install(s, 0));
        let request_clock = stage!("serve.request", id = id, workers = workers);
        let (outcome, overrun) = watchdog(deadline, || engine.study(&self.store));
        drop(journal_guard);
        let study = match outcome {
            Ok(study) => study,
            Err(e) => {
                self.registry.add("serve.study_errors", 1);
                let error = format!("study aborted: {e}");
                return (Response::error(Some(id), &error), StudySinks::default());
            }
        };
        let study_json = match study_to_json(&study) {
            Ok(json) => json,
            Err(e) => {
                self.registry.add("serve.study_errors", 1);
                let error = format!("cannot serialize study: {e}");
                return (Response::error(Some(id), &error), StudySinks::default());
            }
        };
        if let Some(dir) = &self.config.artifacts_dir {
            let sub = dir.join(&id);
            let published = std::fs::create_dir_all(&sub)
                .map_err(|e| format!("cannot create {}: {e}", sub.display()))
                .and_then(|()| {
                    write_atomic(&sub.join("fig04.csv"), fig04_csv(&study).render().as_bytes())
                        .map_err(|e| e.to_string())
                })
                .and_then(|()| {
                    write_atomic(&sub.join("fig10.csv"), fig10_csv(&study).render().as_bytes())
                        .map_err(|e| e.to_string())
                });
            if let Err(e) = published {
                self.registry.add("serve.study_errors", 1);
                let error = format!("artifact publication failed: {e}");
                return (Response::error(Some(id), &error), StudySinks::default());
            }
        }
        let snapshot = request_registry.snapshot();
        let wall_us = request_clock.close() / 1_000;
        let store_manifest = self.store.manifest();
        let manifest = RunManifest {
            manifest_version: MANIFEST_VERSION,
            command: "serve".to_string(),
            seed: store_manifest.seed,
            scale_divisor: store_manifest.scale_divisor,
            workers: workers as u64,
            strict: false,
            inject_faults_pct: None,
            fault_seed: None,
            deadline_ms: deadline.map(|d| d.as_millis() as u64),
            trace_out: None,
            metrics_out: None,
            corpus_digest: store_manifest.corpus_digest.clone(),
            wall_us,
            stages: stages_from_snapshot(&snapshot),
            quarantine: study.quarantine.manifest(),
            journal: study
                .journal
                .as_ref()
                .zip(self.config.journal.as_deref())
                .map(|(j, path)| j.manifest(path)),
        };
        let sinks = StudySinks {
            stages: manifest
                .stages
                .iter()
                .map(|s| (s.name.clone(), s.wall_us))
                .collect(),
            wall_us,
            events: scope.map(|s| s.drain()),
        };
        self.registry.add("serve.studies_ok", 1);
        self.registry
            .add("serve.quarantined", study.quarantine.quarantined.len() as u64);
        if let Some(j) = &study.journal {
            self.registry.add("serve.replayed", j.replayed as u64);
            self.registry.add("serve.mined_fresh", j.mined_fresh as u64);
        }
        let response = Response {
            study_json: Some(study_json),
            manifest_json: Some(manifest.render()),
            replayed: study.journal.as_ref().map(|j| j.replayed as u64),
            mined_fresh: study.journal.as_ref().map(|j| j.mined_fresh as u64),
            stale_discarded: study.journal.as_ref().map(|j| j.stale_discarded as u64),
            quarantined: Some(study.quarantine.quarantined.len() as u64),
            deadline_overrun_ms: overrun.map(|d| d.as_millis().max(1) as u64),
            ..Response::ok(Some(id.clone()))
        };
        self.results.lock().insert(id, response.clone());
        self.served.fetch_add(1, Ordering::SeqCst);
        (response, sinks)
    }

    /// Accept connections, one thread per connection, until a drain
    /// (SIGINT/SIGTERM, [`Server::begin_drain`] or a `shutdown` request)
    /// completes. The listener keeps accepting during a drain so clients
    /// receive the typed `draining` response — and can still query
    /// `result`/`metrics`/`status` — rather than a refused connection;
    /// the loop exits once no admitted study is still running or writing
    /// its sinks, or [`ServerConfig::drain_deadline`] passes, then
    /// flushes the final metrics snapshot to [`ServerConfig::metrics_out`].
    pub fn serve(self: &Arc<Self>, listener: Listener) -> std::io::Result<()> {
        // Nonblocking accept + a short poll keeps the loop responsive
        // to the drain flag without a wake-up side channel.
        // glibc's `signal()` installs SA_RESTART handlers, so a blocking
        // accept would never return on SIGTERM.
        const POLL: Duration = Duration::from_millis(25);
        listener.set_nonblocking(true)?;
        let mut drain_started: Option<Instant> = None;
        loop {
            if DRAIN_SIGNAL.load(Ordering::SeqCst) {
                self.begin_drain();
            }
            if self.is_draining() {
                let started = *drain_started.get_or_insert_with(Instant::now);
                let idle = self.inflight.load(Ordering::SeqCst) == 0;
                if idle || started.elapsed() >= self.config.drain_deadline {
                    break;
                }
            }
            match listener.try_accept() {
                Ok(Some(mut stream)) => {
                    let server = Arc::clone(self);
                    std::thread::spawn(move || server.serve_stream(&mut *stream));
                }
                Ok(None) => std::thread::sleep(POLL),
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(e) => {
                    self.flush_metrics();
                    return Err(e);
                }
            }
        }
        self.flush_metrics();
        Ok(())
    }

    /// Write the final metrics snapshot atomically to
    /// [`ServerConfig::metrics_out`], if configured. Failure to flush
    /// is counted but never blocks exit.
    fn flush_metrics(&self) {
        let Some(path) = &self.config.metrics_out else {
            return;
        };
        self.registry
            .set_gauge("serve.inflight", self.inflight.load(Ordering::SeqCst) as u64);
        self.registry
            .set_gauge("serve.served", self.served.load(Ordering::SeqCst));
        self.export_red();
        let text = self.registry.snapshot().to_prometheus();
        if write_atomic(path, text.as_bytes()).is_err() {
            self.registry.add("serve.metrics_flush_errors", 1);
        }
    }
}

/// A transport-erased accepted connection.
trait ServeIo: Read + Write + Send {}
impl<T: Read + Write + Send> ServeIo for T {}

impl Listener {
    fn set_nonblocking(&self, on: bool) -> std::io::Result<()> {
        match self {
            Listener::Tcp(l) => l.set_nonblocking(on),
            Listener::Unix(l) => l.set_nonblocking(on),
        }
    }

    /// One nonblocking accept: `Ok(None)` when no connection is
    /// pending. Accepted streams are switched back to blocking — only
    /// the accept itself polls.
    fn try_accept(&self) -> std::io::Result<Option<Box<dyn ServeIo>>> {
        match self {
            Listener::Tcp(l) => match l.accept() {
                Ok((s, _)) => {
                    s.set_nonblocking(false)?;
                    // Responses are single frames; send each at once.
                    s.set_nodelay(true)?;
                    Ok(Some(Box::new(s)))
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => Ok(None),
                Err(e) => Err(e),
            },
            Listener::Unix(l) => match l.accept() {
                Ok((s, _)) => {
                    s.set_nonblocking(false)?;
                    Ok(Some(Box::new(s)))
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => Ok(None),
                Err(e) => Err(e),
            },
        }
    }
}
