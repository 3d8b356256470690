//! Deterministic, named-site I/O failpoints.
//!
//! Every durability-critical syscall in the stack (artifact writes,
//! journal appends, shard frame I/O, serve socket frames) passes
//! through a *named site*: a call to [`check`] tagged with a stable
//! string like `"journal.fsync"`. When no fault schedule is armed the
//! check compiles down to a single relaxed atomic load and returns
//! immediately — the hot path stays fault-free and branch-predictable.
//!
//! A schedule is a declarative spec, armed via `--io-faults` or the
//! `SCHEVO_IO_FAULTS` environment variable:
//!
//! ```text
//! journal.fsync=enospc@3;store.read=eio@0.01;report.rename=kill@1
//! ```
//!
//! Grammar: `site=kind[@trigger]` entries joined by `;`.
//!
//! * **kind** — `enospc` (permanent, raw os error 28), `eio`
//!   (transient, raw os error 5), or `kill` (deterministic
//!   [`std::process::abort`] at the site, simulating a crash *before*
//!   the syscall takes effect).
//! * **trigger** — `N` fires on exactly the N-th hit of the site
//!   (0-based); `N+` fires on every hit at or after N; a float `p` in
//!   (0,1) fires each hit with probability `p` drawn from a seeded
//!   per-rule xorshift stream; omitted means every hit.
//!
//! The schedule is fully deterministic given `(spec, seed)`: site hit
//! counters are global and every durability site runs on the calling
//! (main) thread in candidate order, so the fired-fault sequence is
//! identical across worker counts. The store's reader thread checks no
//! site: the stream it reads ahead for checks `store.read` on the
//! calling thread, once per frame in merge order.

use std::collections::HashMap;
use std::io;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;
use std::time::Duration;

/// Fast-path switch: false until a non-empty schedule is armed.
static ENABLED: AtomicBool = AtomicBool::new(false);

/// Armed schedule plus mutable hit state. `None` until [`configure`].
static REGISTRY: Mutex<Option<Registry>> = Mutex::new(None);

/// Raw os error code injected for `enospc` faults.
const ENOSPC: i32 = 28;
/// Raw os error code injected for `eio` faults.
const EIO: i32 = 5;
/// Raw os error code treated as transient alongside `EIO`.
const EAGAIN: i32 = 11;

/// What a matched failpoint rule does at its site.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// Inject `io::Error::from_raw_os_error(28)` — a permanent
    /// disk-full condition that retries cannot clear.
    Enospc,
    /// Inject `io::Error::from_raw_os_error(5)` — a transient I/O
    /// error that the site's bounded retry loop may absorb.
    Eio,
    /// Abort the process at the site, before the guarded syscall runs.
    Kill,
}

impl FaultKind {
    /// Stable lowercase label, matching the spec grammar.
    pub fn label(&self) -> &'static str {
        match self {
            FaultKind::Enospc => "enospc",
            FaultKind::Eio => "eio",
            FaultKind::Kill => "kill",
        }
    }
}

/// When a rule fires relative to its site's global hit counter.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Trigger {
    /// Fire on exactly this 0-based hit index.
    Exact(u64),
    /// Fire on this hit index and every later one (`N+`).
    From(u64),
    /// Fire each hit with this probability, drawn from a seeded
    /// per-rule xorshift stream.
    Prob(f64),
    /// Fire on every hit.
    Always,
}

/// One parsed `site=kind@trigger` entry.
#[derive(Debug, Clone)]
struct Rule {
    site: String,
    kind: FaultKind,
    trigger: Trigger,
    /// xorshift64* state for `Trigger::Prob`; advanced once per site hit.
    rng: u64,
}

/// One fault that actually fired, in firing order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FiredFault {
    /// The site the fault fired at.
    pub site: String,
    /// What was injected.
    pub kind: FaultKind,
    /// The site's 0-based hit index at firing time.
    pub hit: u64,
}

#[derive(Debug, Default)]
struct Registry {
    rules: Vec<Rule>,
    /// Global per-site hit counters (next 0-based index).
    hits: HashMap<String, u64>,
    fired: Vec<FiredFault>,
}

/// FNV-1a over `bytes`, folded into `seed` — the per-rule stream seed.
fn fold_seed(seed: u64, bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64 ^ seed.rotate_left(17);
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    // xorshift state must be nonzero.
    if h == 0 {
        0x9e37_79b9_7f4a_7c15
    } else {
        h
    }
}

/// Advance an xorshift64* state and return a uniform draw in [0, 1).
fn next_unit(state: &mut u64) -> f64 {
    let mut x = *state;
    x ^= x >> 12;
    x ^= x << 25;
    x ^= x >> 27;
    *state = x;
    let bits = x.wrapping_mul(0x2545_f491_4f6c_dd1d) >> 11;
    bits as f64 / (1u64 << 53) as f64
}

fn parse_trigger(s: &str) -> Result<Trigger, String> {
    if let Some(n) = s.strip_suffix('+') {
        return n
            .parse::<u64>()
            .map(Trigger::From)
            .map_err(|_| format!("bad persistent trigger `{s}` (want N+)"));
    }
    if let Ok(n) = s.parse::<u64>() {
        return Ok(Trigger::Exact(n));
    }
    match s.parse::<f64>() {
        Ok(p) if p > 0.0 && p < 1.0 => Ok(Trigger::Prob(p)),
        _ => Err(format!(
            "bad trigger `{s}` (want hit index N, persistent N+, or probability in (0,1))"
        )),
    }
}

fn parse_rule(entry: &str, seed: u64, index: usize) -> Result<Rule, String> {
    let (site, action) = entry
        .split_once('=')
        .ok_or_else(|| format!("bad fault entry `{entry}` (want site=kind[@trigger])"))?;
    let site = site.trim();
    if site.is_empty() {
        return Err(format!("bad fault entry `{entry}`: empty site"));
    }
    let (kind_s, trigger) = match action.split_once('@') {
        Some((k, t)) => (k.trim(), parse_trigger(t.trim())?),
        None => (action.trim(), Trigger::Always),
    };
    let kind = match kind_s {
        "enospc" => FaultKind::Enospc,
        "eio" => FaultKind::Eio,
        "kill" => FaultKind::Kill,
        other => return Err(format!("unknown fault kind `{other}` (want enospc|eio|kill)")),
    };
    let mut tag = site.as_bytes().to_vec();
    tag.push(b'#');
    tag.extend_from_slice(index.to_string().as_bytes());
    Ok(Rule {
        site: site.to_string(),
        kind,
        trigger,
        rng: fold_seed(seed, &tag),
    })
}

/// Parse `spec` and arm the global failpoint schedule.
///
/// An empty spec disarms everything (hot path back to the single
/// atomic load). Returns a human-readable message on grammar errors.
pub fn configure(spec: &str, seed: u64) -> Result<(), String> {
    let mut rules = Vec::new();
    for entry in spec.split(';') {
        let entry = entry.trim();
        if entry.is_empty() {
            continue;
        }
        rules.push(parse_rule(entry, seed, rules.len())?);
    }
    let enabled = !rules.is_empty();
    let mut guard = REGISTRY.lock().unwrap_or_else(|e| e.into_inner());
    *guard = Some(Registry { rules, ..Registry::default() });
    // Publish only after the registry is in place.
    ENABLED.store(enabled, Ordering::Release);
    Ok(())
}

/// Disarm all failpoints and clear hit state (test hygiene).
pub fn reset() {
    let mut guard = REGISTRY.lock().unwrap_or_else(|e| e.into_inner());
    ENABLED.store(false, Ordering::Release);
    *guard = None;
}

/// Arm from `SCHEVO_IO_FAULTS` / `SCHEVO_IO_FAULT_SEED` if set.
///
/// Used by black-box tests to fault child processes without touching
/// their command lines. Explicit `--io-faults` flags call
/// [`configure`] afterwards and therefore take precedence.
pub fn init_from_env() -> Result<(), String> {
    let Ok(spec) = std::env::var("SCHEVO_IO_FAULTS") else {
        return Ok(());
    };
    let seed = match std::env::var("SCHEVO_IO_FAULT_SEED") {
        Ok(s) => s
            .parse::<u64>()
            .map_err(|_| format!("bad SCHEVO_IO_FAULT_SEED `{s}` (want u64)"))?,
        Err(_) => 0,
    };
    configure(&spec, seed)
}

/// Evaluate the failpoint at `site`.
///
/// Disabled path: one relaxed atomic load, no locks, `Ok(())`.
/// Enabled: bump the site's global hit counter, evaluate each matching
/// rule in spec order, and inject the first fault that fires. `kill`
/// aborts the process here — before the guarded syscall — so the
/// operation it protects never takes effect.
#[inline]
pub fn check(site: &str) -> io::Result<()> {
    if !ENABLED.load(Ordering::Relaxed) {
        return Ok(());
    }
    check_slow(site)
}

#[cold]
fn check_slow(site: &str) -> io::Result<()> {
    let mut guard = REGISTRY.lock().unwrap_or_else(|e| e.into_inner());
    let Some(reg) = guard.as_mut() else {
        return Ok(());
    };
    let hit = {
        let counter = reg.hits.entry(site.to_string()).or_insert(0);
        let h = *counter;
        *counter += 1;
        h
    };
    let mut verdict: Option<FaultKind> = None;
    for rule in reg.rules.iter_mut().filter(|r| r.site == site) {
        let fires = match rule.trigger {
            Trigger::Exact(n) => hit == n,
            Trigger::From(n) => hit >= n,
            Trigger::Always => true,
            // Advance the stream on every hit so draws stay aligned
            // with the hit index regardless of earlier rule matches.
            Trigger::Prob(p) => next_unit(&mut rule.rng) < p,
        };
        if fires && verdict.is_none() {
            verdict = Some(rule.kind);
        }
    }
    let Some(kind) = verdict else {
        return Ok(());
    };
    reg.fired.push(FiredFault { site: site.to_string(), kind, hit });
    match kind {
        FaultKind::Kill => {
            drop(guard);
            eprintln!("failpoint: kill at {site} hit={hit}");
            std::process::abort();
        }
        FaultKind::Enospc => Err(io::Error::from_raw_os_error(ENOSPC)),
        FaultKind::Eio => Err(io::Error::from_raw_os_error(EIO)),
    }
}

/// True while a non-empty fault schedule is armed.
pub fn armed() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Snapshot of every fault fired so far, in firing order.
pub fn fired() -> Vec<FiredFault> {
    let guard = REGISTRY.lock().unwrap_or_else(|e| e.into_inner());
    guard.as_ref().map(|r| r.fired.clone()).unwrap_or_default()
}

/// Deterministic one-line-per-fault rendering of [`fired`], used by
/// the CLI so black-box tests can diff fault sequences across runs.
pub fn fired_summary() -> Vec<String> {
    fired()
        .iter()
        .map(|f| format!("fault-fired: site={} kind={} hit={}", f.site, f.kind.label(), f.hit))
        .collect()
}

/// Is this I/O error worth retrying at the site that raised it?
///
/// Transient: interrupted/timed-out/would-block conditions and the
/// classic flaky-disk codes `EIO`/`EAGAIN`. Permanent: everything
/// else, notably `ENOSPC`, missing files, and permission failures.
pub fn transient_io(e: &io::Error) -> bool {
    match e.kind() {
        io::ErrorKind::Interrupted | io::ErrorKind::TimedOut | io::ErrorKind::WouldBlock => true,
        _ => matches!(e.raw_os_error(), Some(EIO) | Some(EAGAIN)),
    }
}

/// Bounded, deterministic exponential backoff for transient I/O.
#[derive(Debug, Clone, Copy)]
pub struct RetryPolicy {
    /// Total attempts, including the first (minimum 1).
    pub attempts: u32,
    /// Sleep before retry `i` is `base << (i - 1)` — no jitter, so
    /// the schedule is reproducible.
    pub base: Duration,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy { attempts: 5, base: Duration::from_millis(1) }
    }
}

impl RetryPolicy {
    /// A policy that never retries (single attempt).
    pub fn none() -> Self {
        RetryPolicy { attempts: 1, base: Duration::ZERO }
    }
}

/// Run `op`, retrying transient failures per `policy`.
///
/// Permanent errors (see [`transient_io`]) surface immediately; a
/// transient error surfaces only once every attempt is exhausted.
/// `op` must be safe to re-run — callers that buffer (journal
/// appends) rewind to the pre-write offset before each retry.
pub fn retry_io<T>(policy: RetryPolicy, mut op: impl FnMut() -> io::Result<T>) -> io::Result<T> {
    let attempts = policy.attempts.max(1);
    let mut delay = policy.base;
    let mut last_try = attempts - 1;
    loop {
        match op() {
            Ok(v) => return Ok(v),
            Err(e) if transient_io(&e) && last_try > 0 => {
                if !delay.is_zero() {
                    std::thread::sleep(delay);
                    delay = delay.saturating_mul(2);
                }
                last_try -= 1;
            }
            Err(e) => return Err(e),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU32;

    // The registry is process-global, so tests that arm it must not
    // run concurrently with each other.
    static LOCK: Mutex<()> = Mutex::new(());

    #[test]
    fn disabled_check_is_ok_and_records_nothing() {
        let _g = LOCK.lock().unwrap_or_else(|e| e.into_inner());
        reset();
        for _ in 0..100 {
            check("journal.append").unwrap();
        }
        assert!(fired().is_empty());
        assert!(!armed());
    }

    #[test]
    fn exact_trigger_fires_once_at_index() {
        let _g = LOCK.lock().unwrap_or_else(|e| e.into_inner());
        configure("journal.fsync=enospc@3", 1).unwrap();
        let mut errs = Vec::new();
        for i in 0..6 {
            if let Err(e) = check("journal.fsync") {
                errs.push((i, e.raw_os_error()));
            }
        }
        assert_eq!(errs, vec![(3, Some(ENOSPC))]);
        let f = fired();
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].site, "journal.fsync");
        assert_eq!(f[0].hit, 3);
        reset();
    }

    #[test]
    fn persistent_trigger_fires_from_index_on() {
        let _g = LOCK.lock().unwrap_or_else(|e| e.into_inner());
        configure("store.write=eio@2+", 1).unwrap();
        let outcomes: Vec<bool> = (0..5).map(|_| check("store.write").is_err()).collect();
        assert_eq!(outcomes, vec![false, false, true, true, true]);
        reset();
    }

    #[test]
    fn sites_are_independent_and_unlisted_sites_never_fire() {
        let _g = LOCK.lock().unwrap_or_else(|e| e.into_inner());
        configure("a.x=enospc@0", 1).unwrap();
        check("b.y").unwrap();
        assert!(check("a.x").is_err());
        reset();
    }

    #[test]
    fn probability_stream_is_seed_deterministic() {
        let _g = LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let run = |seed: u64| -> Vec<u64> {
            configure("store.read=eio@0.2", seed).unwrap();
            for _ in 0..200 {
                let _ = check("store.read");
            }
            let hits: Vec<u64> = fired().iter().map(|f| f.hit).collect();
            reset();
            hits
        };
        let a = run(42);
        let b = run(42);
        let c = run(43);
        assert_eq!(a, b);
        assert!(!a.is_empty(), "p=0.2 over 200 hits should fire");
        assert_ne!(a, c, "different seeds should shift the schedule");
    }

    #[test]
    fn spec_grammar_rejections_are_typed() {
        let _g = LOCK.lock().unwrap_or_else(|e| e.into_inner());
        assert!(configure("nonsense", 0).is_err());
        assert!(configure("a.x=explode", 0).is_err());
        assert!(configure("a.x=eio@1.5", 0).is_err());
        assert!(configure("a.x=eio@-1", 0).is_err());
        assert!(configure("=eio", 0).is_err());
        // Errors must not leave a half-armed schedule.
        assert!(configure("", 0).is_ok());
        assert!(!armed());
        reset();
    }

    #[test]
    fn transient_classification() {
        assert!(transient_io(&io::Error::from_raw_os_error(EIO)));
        assert!(transient_io(&io::Error::from_raw_os_error(EAGAIN)));
        assert!(transient_io(&io::Error::new(io::ErrorKind::TimedOut, "t")));
        assert!(!transient_io(&io::Error::from_raw_os_error(ENOSPC)));
        assert!(!transient_io(&io::Error::new(io::ErrorKind::NotFound, "n")));
    }

    #[test]
    fn retry_absorbs_transient_but_not_permanent() {
        let calls = AtomicU32::new(0);
        let out = retry_io(RetryPolicy { attempts: 4, base: Duration::ZERO }, || {
            if calls.fetch_add(1, Ordering::SeqCst) < 2 {
                Err(io::Error::from_raw_os_error(EIO))
            } else {
                Ok(7)
            }
        });
        assert_eq!(out.unwrap(), 7);
        assert_eq!(calls.load(Ordering::SeqCst), 3);

        let calls = AtomicU32::new(0);
        let out: io::Result<()> = retry_io(RetryPolicy { attempts: 4, base: Duration::ZERO }, || {
            calls.fetch_add(1, Ordering::SeqCst);
            Err(io::Error::from_raw_os_error(ENOSPC))
        });
        assert!(out.is_err());
        assert_eq!(calls.load(Ordering::SeqCst), 1, "permanent errors never retry");
    }

    #[test]
    fn retry_exhaustion_surfaces_the_transient_error() {
        let calls = AtomicU32::new(0);
        let out: io::Result<()> = retry_io(RetryPolicy { attempts: 3, base: Duration::ZERO }, || {
            calls.fetch_add(1, Ordering::SeqCst);
            Err(io::Error::from_raw_os_error(EIO))
        });
        assert_eq!(out.unwrap_err().raw_os_error(), Some(EIO));
        assert_eq!(calls.load(Ordering::SeqCst), 3);
    }

    #[test]
    fn eio_with_exact_trigger_is_absorbed_by_retry() {
        let _g = LOCK.lock().unwrap_or_else(|e| e.into_inner());
        configure("x.y=eio@0", 9).unwrap();
        // First attempt hits index 0 and faults; the retry hits index 1
        // and passes — the caller sees success.
        let out = retry_io(RetryPolicy::default(), || {
            check("x.y")?;
            Ok(1)
        });
        assert_eq!(out.unwrap(), 1);
        assert_eq!(fired().len(), 1);
        reset();
    }
}
