//! The metrics registry: atomic counters, gauges, and log₂-bucketed
//! histograms with an associative, commutative merge.
//!
//! A [`Registry`] is instantiable (not global): the CLI creates one per
//! run and threads it through [`crate::ObsHooks`], so unit tests and
//! parallel studies never share state. Counter and gauge handles are
//! `Arc`-backed atomics, safe to update from any worker; histograms take
//! a short uncontended lock. Exports are deterministic: names sort
//! lexicographically in both the JSON and Prometheus renderings.

use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Number of histogram buckets: one for zero plus one per power of two
/// up to `u64::MAX`.
pub const BUCKETS: usize = 65;

/// A log₂-bucketed histogram.
///
/// Bucket `0` counts observations equal to zero; bucket `i ≥ 1` counts
/// observations `v` with `2^(i-1) ≤ v < 2^i`. The struct is a plain
/// value: [`Histogram::merge`] is associative and commutative with
/// [`Histogram::new`] as identity (`tests/merge_laws.rs` pins all three
/// laws by proptest), which is what makes per-worker or per-task
/// histograms mergeable in any grouping without changing the result.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Histogram {
    /// Total observations.
    pub count: u64,
    /// Sum of observed values (saturating).
    pub sum: u64,
    /// Smallest observed value; `u64::MAX` while empty.
    pub min: u64,
    /// Largest observed value; `0` while empty.
    pub max: u64,
    /// Per-bucket counts, length [`BUCKETS`].
    pub buckets: Vec<u64>,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram::new()
    }
}

impl Histogram {
    /// The empty histogram (the merge identity).
    pub fn new() -> Histogram {
        Histogram {
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
            buckets: vec![0; BUCKETS],
        }
    }

    /// Bucket index of a value: `0` for zero, else `floor(log2 v) + 1`.
    pub fn bucket_index(value: u64) -> usize {
        if value == 0 {
            0
        } else {
            (64 - value.leading_zeros()) as usize
        }
    }

    /// The exclusive upper bound of bucket `i` (`1` for the zero bucket,
    /// else `2^i`); `None` for the last bucket, whose bound is +∞.
    pub fn bucket_bound(i: usize) -> Option<u64> {
        if i == 0 {
            Some(1)
        } else if i < BUCKETS - 1 {
            Some(1u64 << i)
        } else {
            None
        }
    }

    /// Record one observation.
    pub fn observe(&mut self, value: u64) {
        self.count += 1;
        self.sum = self.sum.saturating_add(value);
        self.min = self.min.min(value);
        self.max = self.max.max(value);
        self.buckets[Self::bucket_index(value)] += 1;
    }

    /// Fold another histogram into this one. Associative, commutative,
    /// with [`Histogram::new`] as identity.
    pub fn merge(&mut self, other: &Histogram) {
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
        for (into, from) in self.buckets.iter_mut().zip(&other.buckets) {
            *into += from;
        }
    }

    /// `min` as reported to consumers: `0` while empty, so exports never
    /// carry the `u64::MAX` sentinel.
    pub fn reported_min(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.min
        }
    }

    /// Approximate value at quantile `q` (in percent, `0..=100`) from the
    /// bucket boundaries: the inclusive upper edge of the bucket holding
    /// the `ceil(q·count/100)`-th observation, clamped into the observed
    /// `[min, max]` range. Zero for an empty histogram. Log₂ buckets make
    /// this a factor-of-two estimate — the right fidelity for a live
    /// latency display, not for benchmarking.
    pub fn quantile(&self, q: u64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let target = (self.count.saturating_mul(q.min(100)))
            .div_ceil(100)
            .max(1);
        let mut cumulative = 0u64;
        for (i, c) in self.buckets.iter().enumerate() {
            cumulative += c;
            if cumulative >= target {
                let edge = match Self::bucket_bound(i) {
                    Some(bound) => bound.saturating_sub(1),
                    None => self.max,
                };
                return edge.clamp(self.reported_min(), self.max);
            }
        }
        self.max
    }
}

/// Seconds of traffic covered by one slot of a [`RedRing`].
pub const RED_SLOT_SECS: u64 = 10;

/// Number of slots in a [`RedRing`] — 30 × 10 s covers the 5-minute
/// window; the 1-minute window reads the newest 6 slots.
pub const RED_SLOTS: usize = 30;

#[derive(Debug, Clone)]
struct RedSlot {
    /// Absolute slot number (`now_s / RED_SLOT_SECS`) this cell holds.
    slot: u64,
    requests: u64,
    errors: u64,
    hist: Histogram,
}

impl RedSlot {
    fn reset(&mut self, slot: u64) {
        self.slot = slot;
        self.requests = 0;
        self.errors = 0;
        self.hist = Histogram::new();
    }
}

/// Sliding-window RED (rate / errors / duration) accumulator: a ring of
/// [`RED_SLOTS`] time slots, each holding a request count, an error
/// count, and a duration [`Histogram`].
///
/// Callers inject time as whole seconds on a monotonic clock (the server
/// passes seconds since its own start), which keeps the ring clock-free
/// and unit-testable. Both [`RedRing::record`] and [`RedRing::window`]
/// take the one internal lock, so a window snapshot is always a
/// consistent cut — a concurrent scraper can never observe a torn
/// histogram (pinned by the drain-scrape test in `crates/serve`).
#[derive(Debug)]
pub struct RedRing {
    inner: Mutex<Vec<RedSlot>>,
}

impl Default for RedRing {
    fn default() -> Self {
        RedRing::new()
    }
}

impl RedRing {
    /// A fresh, empty ring.
    pub fn new() -> RedRing {
        RedRing {
            inner: Mutex::new(
                (0..RED_SLOTS)
                    .map(|_| RedSlot {
                        slot: u64::MAX,
                        requests: 0,
                        errors: 0,
                        hist: Histogram::new(),
                    })
                    .collect(),
            ),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Vec<RedSlot>> {
        match self.inner.lock() {
            Ok(g) => g,
            Err(poisoned) => poisoned.into_inner(),
        }
    }

    /// Record one finished request observed at `now_s` (monotonic whole
    /// seconds) with the given duration and error flag.
    pub fn record(&self, now_s: u64, duration_us: u64, error: bool) {
        let slot = now_s / RED_SLOT_SECS;
        let idx = (slot % RED_SLOTS as u64) as usize;
        let mut ring = self.lock();
        if ring[idx].slot != slot {
            ring[idx].reset(slot);
        }
        ring[idx].requests += 1;
        if error {
            ring[idx].errors += 1;
        }
        ring[idx].hist.observe(duration_us);
    }

    /// Merge every slot overlapping the last `window_secs` seconds ending
    /// at `now_s` into one consistent [`RedWindow`] snapshot.
    pub fn window(&self, now_s: u64, window_secs: u64) -> RedWindow {
        let newest = now_s / RED_SLOT_SECS;
        let span = (window_secs.max(RED_SLOT_SECS) / RED_SLOT_SECS).min(RED_SLOTS as u64);
        let oldest = newest.saturating_sub(span - 1);
        let ring = self.lock();
        let mut out = RedWindow {
            window_secs: span * RED_SLOT_SECS,
            requests: 0,
            errors: 0,
            duration: Histogram::new(),
        };
        for cell in ring.iter() {
            if cell.slot >= oldest && cell.slot <= newest {
                out.requests += cell.requests;
                out.errors += cell.errors;
                out.duration.merge(&cell.hist);
            }
        }
        out
    }
}

/// One consistent RED window snapshot from a [`RedRing`].
#[derive(Debug, Clone, PartialEq)]
pub struct RedWindow {
    /// Width of the window actually covered, in seconds.
    pub window_secs: u64,
    /// Requests finished inside the window.
    pub requests: u64,
    /// Of those, how many failed (`error` / shed / drained).
    pub errors: u64,
    /// Duration distribution of the window's requests, in µs.
    pub duration: Histogram,
}

impl RedWindow {
    /// Export the window as gauges under `prefix` (e.g. `serve.red.1m`):
    /// `.requests`, `.errors`, `.p50_us`, `.p95_us`, `.p99_us`,
    /// `.max_us`, and `.window_secs`. Gauges (not counters) because a
    /// sliding window goes down as traffic ages out.
    pub fn export_into(&self, registry: &Registry, prefix: &str) {
        registry.set_gauge(&format!("{prefix}.requests"), self.requests);
        registry.set_gauge(&format!("{prefix}.errors"), self.errors);
        registry.set_gauge(&format!("{prefix}.p50_us"), self.duration.quantile(50));
        registry.set_gauge(&format!("{prefix}.p95_us"), self.duration.quantile(95));
        registry.set_gauge(&format!("{prefix}.p99_us"), self.duration.quantile(99));
        registry.set_gauge(&format!("{prefix}.max_us"), self.duration.max);
        registry.set_gauge(&format!("{prefix}.window_secs"), self.window_secs);
    }
}

/// Handle to an atomic counter registered in a [`Registry`].
#[derive(Debug, Clone)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    /// Add `n`.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Handle to an atomic gauge registered in a [`Registry`].
#[derive(Debug, Clone)]
pub struct Gauge(Arc<AtomicU64>);

impl Gauge {
    /// Set the gauge.
    pub fn set(&self, v: u64) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A registry of named metrics. Cheap to create; handle lookups take a
/// short lock, updates through handles are lock-free (counters, gauges)
/// or uncontended (histograms).
#[derive(Debug, Default)]
pub struct Registry {
    counters: Mutex<BTreeMap<String, Arc<AtomicU64>>>,
    gauges: Mutex<BTreeMap<String, Arc<AtomicU64>>>,
    histograms: Mutex<BTreeMap<String, Arc<Mutex<Histogram>>>>,
}

impl Registry {
    /// A fresh, empty registry.
    pub fn new() -> Registry {
        Registry::default()
    }

    /// The counter named `name`, created at zero on first use.
    pub fn counter(&self, name: &str) -> Counter {
        let mut map = match self.counters.lock() {
            Ok(m) => m,
            Err(poisoned) => poisoned.into_inner(),
        };
        Counter(Arc::clone(
            map.entry(name.to_string()).or_default(),
        ))
    }

    /// The gauge named `name`, created at zero on first use.
    pub fn gauge(&self, name: &str) -> Gauge {
        let mut map = match self.gauges.lock() {
            Ok(m) => m,
            Err(poisoned) => poisoned.into_inner(),
        };
        Gauge(Arc::clone(map.entry(name.to_string()).or_default()))
    }

    /// Add `n` to the counter named `name`.
    pub fn add(&self, name: &str, n: u64) {
        self.counter(name).add(n);
    }

    /// Set the gauge named `name` to `v`.
    pub fn set_gauge(&self, name: &str, v: u64) {
        self.gauge(name).set(v);
    }

    /// Record one observation in the histogram named `name`.
    pub fn observe(&self, name: &str, value: u64) {
        let handle = {
            let mut map = match self.histograms.lock() {
                Ok(m) => m,
                Err(poisoned) => poisoned.into_inner(),
            };
            Arc::clone(map.entry(name.to_string()).or_insert_with(|| {
                Arc::new(Mutex::new(Histogram::new()))
            }))
        };
        match handle.lock() {
            Ok(mut h) => h.observe(value),
            Err(poisoned) => poisoned.into_inner().observe(value),
        };
    }

    /// Freeze the registry into a serializable snapshot, every section
    /// sorted by metric name.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let counters = match self.counters.lock() {
            Ok(m) => m.iter().map(|(k, v)| (k.clone(), v.load(Ordering::Relaxed))).collect(),
            Err(p) => p.into_inner().iter().map(|(k, v)| (k.clone(), v.load(Ordering::Relaxed))).collect(),
        };
        let gauges = match self.gauges.lock() {
            Ok(m) => m.iter().map(|(k, v)| (k.clone(), v.load(Ordering::Relaxed))).collect(),
            Err(p) => p.into_inner().iter().map(|(k, v)| (k.clone(), v.load(Ordering::Relaxed))).collect(),
        };
        let histograms = match self.histograms.lock() {
            Ok(m) => m
                .iter()
                .map(|(k, v)| {
                    let h = match v.lock() {
                        Ok(h) => h.clone(),
                        Err(p) => p.into_inner().clone(),
                    };
                    (k.clone(), h)
                })
                .collect(),
            Err(_) => Vec::new(),
        };
        MetricsSnapshot {
            counters,
            gauges,
            histograms,
        }
    }
}

/// A frozen, serializable view of a [`Registry`]. Each section is a
/// name-sorted list of `[name, value]` pairs (histogram values are the
/// full [`Histogram`] objects).
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct MetricsSnapshot {
    /// Counters, sorted by name.
    pub counters: Vec<(String, u64)>,
    /// Gauges, sorted by name.
    pub gauges: Vec<(String, u64)>,
    /// Histograms, sorted by name.
    pub histograms: Vec<(String, Histogram)>,
}

impl MetricsSnapshot {
    /// Look up a counter by name.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| *v)
    }

    /// Look up a gauge by name.
    pub fn gauge(&self, name: &str) -> Option<u64> {
        self.gauges
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| *v)
    }

    /// Look up a histogram by name.
    pub fn histogram(&self, name: &str) -> Option<&Histogram> {
        self.histograms
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, h)| h)
    }

    /// Pretty JSON rendering (the `--metrics-out` format), terminated by
    /// a newline. `min` is reported as `0` for empty histograms.
    pub fn to_json(&self) -> String {
        // Render through the value tree so empty-histogram `min` can be
        // normalized without a second snapshot type.
        let mut export = self.clone();
        for (_, h) in export.histograms.iter_mut() {
            h.min = h.reported_min();
        }
        match serde_json::to_string_pretty(&export) {
            Ok(mut s) => {
                s.push('\n');
                s
            }
            Err(_) => "{}\n".to_string(), // plain data always encodes
        }
    }

    /// Prometheus text exposition (the `--metrics-format prom` format).
    /// Metric names are sanitized to `[a-zA-Z0-9_]`; histograms render as
    /// cumulative `_bucket{le="…"}` series plus `_sum` and `_count`.
    pub fn to_prometheus(&self) -> String {
        fn sanitize(name: &str) -> String {
            name.chars()
                .map(|c| if c.is_ascii_alphanumeric() { c } else { '_' })
                .collect()
        }
        let mut out = String::new();
        for (name, v) in &self.counters {
            let n = sanitize(name);
            out.push_str(&format!("# TYPE {n} counter\n{n} {v}\n"));
        }
        for (name, v) in &self.gauges {
            let n = sanitize(name);
            out.push_str(&format!("# TYPE {n} gauge\n{n} {v}\n"));
        }
        for (name, h) in &self.histograms {
            let n = sanitize(name);
            out.push_str(&format!("# TYPE {n} histogram\n"));
            let mut cumulative = 0u64;
            for (i, c) in h.buckets.iter().enumerate() {
                if *c == 0 && Histogram::bucket_bound(i).is_some() {
                    continue; // keep the exposition small; +Inf always prints
                }
                cumulative += c;
                match Histogram::bucket_bound(i) {
                    Some(bound) => {
                        out.push_str(&format!("{n}_bucket{{le=\"{bound}\"}} {cumulative}\n"))
                    }
                    None => out.push_str(&format!("{n}_bucket{{le=\"+Inf\"}} {cumulative}\n")),
                }
            }
            if h.buckets.last() == Some(&0) {
                out.push_str(&format!("{n}_bucket{{le=\"+Inf\"}} {}\n", h.count));
            }
            out.push_str(&format!("{n}_sum {}\n{n}_count {}\n", h.sum, h.count));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_indexing() {
        assert_eq!(Histogram::bucket_index(0), 0);
        assert_eq!(Histogram::bucket_index(1), 1);
        assert_eq!(Histogram::bucket_index(2), 2);
        assert_eq!(Histogram::bucket_index(3), 2);
        assert_eq!(Histogram::bucket_index(4), 3);
        assert_eq!(Histogram::bucket_index(u64::MAX), 64);
        // Every bucket's lower bound lands in its own bucket.
        for i in 1..BUCKETS - 1 {
            assert_eq!(Histogram::bucket_index(1u64 << (i - 1)), i);
        }
    }

    #[test]
    fn observe_and_merge() {
        let mut a = Histogram::new();
        a.observe(0);
        a.observe(5);
        let mut b = Histogram::new();
        b.observe(1000);
        a.merge(&b);
        assert_eq!(a.count, 3);
        assert_eq!(a.sum, 1005);
        assert_eq!((a.min, a.max), (0, 1000));
        assert_eq!(a.buckets.iter().sum::<u64>(), a.count);
    }

    #[test]
    fn registry_roundtrip() {
        let r = Registry::new();
        r.add("journal.commits", 3);
        r.counter("journal.commits").add(1);
        r.set_gauge("workers", 4);
        r.observe("latency", 7);
        r.observe("latency", 900);
        let snap = r.snapshot();
        assert_eq!(snap.counter("journal.commits"), Some(4));
        assert_eq!(snap.gauge("workers"), Some(4));
        let h = snap.histogram("latency").expect("histogram registered");
        assert_eq!(h.count, 2);
        let json = snap.to_json();
        let back: MetricsSnapshot =
            serde_json::from_str(&json).expect("snapshot JSON round-trips");
        assert_eq!(back.counter("journal.commits"), Some(4));
        assert_eq!(back.histogram("latency").map(|h| h.count), Some(2));
        let prom = snap.to_prometheus();
        assert!(prom.contains("# TYPE journal_commits counter"));
        assert!(prom.contains("journal_commits 4"));
        assert!(prom.contains("latency_bucket{le=\"+Inf\"} 2"));
        assert!(prom.contains("latency_count 2"));
    }

    #[test]
    fn quantile_estimates_from_bucket_edges() {
        let mut h = Histogram::new();
        assert_eq!(h.quantile(50), 0);
        for v in [10, 10, 10, 10, 10, 10, 10, 10, 10, 5000] {
            h.observe(v);
        }
        // p50 lands in the [8,16) bucket → inclusive edge 15.
        assert_eq!(h.quantile(50), 15);
        // p100 lands in the top occupied bucket, clamped to the true max.
        assert_eq!(h.quantile(100), 5000);
        assert!(h.quantile(99) <= h.max);
        assert!(h.quantile(0) >= h.min);
    }

    #[test]
    fn red_ring_windows_slide_and_merge_consistently() {
        let ring = RedRing::new();
        ring.record(5, 100, false); // slot 0
        ring.record(65, 200, true); // slot 6
        ring.record(70, 300, false); // slot 7
        // 1m window at t=75 covers slots 2..=7: excludes the t=5 request.
        let w1 = ring.window(75, 60);
        assert_eq!((w1.requests, w1.errors), (2, 1));
        assert_eq!(w1.duration.count, 2);
        assert_eq!(w1.duration.sum, 500);
        // 5m window still sees everything.
        let w5 = ring.window(75, 300);
        assert_eq!((w5.requests, w5.errors), (3, 1));
        // Much later, the ring has aged everything out of both windows.
        let old = ring.window(5_000, 300);
        assert_eq!(old.requests, 0);
        // Windows are internally consistent (no tearing even in the
        // single-threaded case: bucket sums match counts).
        assert_eq!(w5.duration.buckets.iter().sum::<u64>(), w5.duration.count);
    }

    #[test]
    fn red_ring_reuses_slots_across_wraparound() {
        let ring = RedRing::new();
        ring.record(0, 1, false);
        // Same ring index RED_SLOTS slots later must evict the old slot.
        let later = RED_SLOTS as u64 * RED_SLOT_SECS;
        ring.record(later, 2, false);
        let w = ring.window(later, 60);
        assert_eq!(w.requests, 1);
        assert_eq!(w.duration.sum, 2);
    }

    #[test]
    fn red_window_exports_gauges() {
        let ring = RedRing::new();
        ring.record(3, 400, false);
        ring.record(4, 800, true);
        let r = Registry::new();
        ring.window(5, 60).export_into(&r, "serve.red.1m");
        let snap = r.snapshot();
        assert_eq!(snap.gauge("serve.red.1m.requests"), Some(2));
        assert_eq!(snap.gauge("serve.red.1m.errors"), Some(1));
        assert_eq!(snap.gauge("serve.red.1m.window_secs"), Some(60));
        assert_eq!(snap.gauge("serve.red.1m.max_us"), Some(800));
        assert!(snap.gauge("serve.red.1m.p50_us").unwrap_or(0) >= 400);
    }

    #[test]
    fn empty_histogram_reports_zero_min() {
        let h = Histogram::new();
        assert_eq!((h.count, h.reported_min(), h.max), (0, 0, 0));
    }
}
