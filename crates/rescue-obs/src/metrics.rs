//! Typed metric primitives: counters, gauges, and log₂-bucket
//! histograms.
//!
//! All primitives are single relaxed atomic operations on the hot path,
//! so they can sit inside the PODEM backtrack loop or the per-cycle
//! pipeline step without measurable cost, and they are `Sync` so the
//! Figure 9 thread fan-out can share them. Snapshots are plain data
//! (`Clone + PartialEq`) for result structs and golden tests.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::Arc;

/// Number of histogram buckets: bucket 0 holds zeros, bucket `i` holds
/// values in `[2^(i-1), 2^i)`, bucket 64 holds the top of the u64 range.
pub const HIST_BUCKETS: usize = 65;

/// A monotonically increasing counter.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// A counter at zero.
    pub fn new() -> Self {
        Counter(AtomicU64::new(0))
    }

    /// Add one.
    #[inline]
    pub fn inc(&self) {
        self.0.fetch_add(1, Ordering::Relaxed);
    }

    /// Add `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A gauge: a signed value that can move both ways.
#[derive(Debug, Default)]
pub struct Gauge(AtomicI64);

impl Gauge {
    /// A gauge at zero.
    pub fn new() -> Self {
        Gauge(AtomicI64::new(0))
    }

    /// Set the value.
    #[inline]
    pub fn set(&self, v: i64) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// Add `d` (may be negative).
    #[inline]
    pub fn add(&self, d: i64) {
        self.0.fetch_add(d, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> i64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A histogram over `u64` samples with fixed log₂ buckets.
///
/// Recording is two relaxed `fetch_add`s plus two `fetch_min`/`max`
/// updates — no allocation, no locking.
#[derive(Debug)]
pub struct Histogram {
    count: AtomicU64,
    sum: AtomicU64,
    min: AtomicU64,
    max: AtomicU64,
    buckets: [AtomicU64; HIST_BUCKETS],
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

/// Bucket index for a sample: 0 for zero, else `64 - leading_zeros`.
#[inline]
pub fn bucket_of(v: u64) -> usize {
    (64 - v.leading_zeros()) as usize
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Histogram {
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            min: AtomicU64::new(u64::MAX),
            max: AtomicU64::new(0),
            buckets: [(); HIST_BUCKETS].map(|_| AtomicU64::new(0)),
        }
    }

    /// Record one sample.
    #[inline]
    pub fn record(&self, v: u64) {
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
        self.min.fetch_min(v, Ordering::Relaxed);
        self.max.fetch_max(v, Ordering::Relaxed);
        self.buckets[bucket_of(v)].fetch_add(1, Ordering::Relaxed);
    }

    /// A plain-data copy of the current state.
    pub fn snapshot(&self) -> HistogramSnapshot {
        let count = self.count.load(Ordering::Relaxed);
        HistogramSnapshot {
            count,
            sum: self.sum.load(Ordering::Relaxed),
            min: if count == 0 {
                0
            } else {
                self.min.load(Ordering::Relaxed)
            },
            max: self.max.load(Ordering::Relaxed),
            buckets: self
                .buckets
                .iter()
                .map(|b| b.load(Ordering::Relaxed))
                .collect(),
        }
    }
}

/// Plain-data histogram state, suitable for result structs, equality
/// checks, and serialization.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Samples recorded.
    pub count: u64,
    /// Sum of all samples.
    pub sum: u64,
    /// Smallest sample (0 when empty).
    pub min: u64,
    /// Largest sample.
    pub max: u64,
    /// One count per log₂ bucket (see [`bucket_of`]).
    pub buckets: Vec<u64>,
}

impl HistogramSnapshot {
    /// Arithmetic mean of the samples (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Record a sample into the snapshot itself (for single-threaded
    /// accumulation inside engines that already hold `&mut self`).
    pub fn record(&mut self, v: u64) {
        if self.buckets.is_empty() {
            self.buckets = vec![0; HIST_BUCKETS];
        }
        if self.count == 0 || v < self.min {
            self.min = v;
        }
        if v > self.max {
            self.max = v;
        }
        self.count += 1;
        // Wrap like the atomic path does rather than panic in debug.
        self.sum = self.sum.wrapping_add(v);
        self.buckets[bucket_of(v)] += 1;
    }

    /// Upper bound (exclusive) of bucket `i`'s value range.
    pub fn bucket_limit(i: usize) -> u64 {
        if i == 0 {
            1
        } else if i >= 64 {
            u64::MAX
        } else {
            1u64 << i
        }
    }

    /// Compact one-line rendering: `count/mean/min/max` plus the
    /// non-empty buckets.
    pub fn render(&self) -> String {
        if self.count == 0 {
            return "empty".to_owned();
        }
        let mut s = format!(
            "n={} mean={:.2} min={} max={}",
            self.count,
            self.mean(),
            self.min,
            self.max
        );
        let populated: Vec<String> = self
            .buckets
            .iter()
            .enumerate()
            .filter(|&(_, &c)| c > 0)
            .map(|(i, &c)| format!("<{}:{}", Self::bucket_limit(i), c))
            .collect();
        if !populated.is_empty() {
            s.push_str(" [");
            s.push_str(&populated.join(" "));
            s.push(']');
        }
        s
    }
}

/// A name-keyed registry of shared counters and histograms.
///
/// The global one ([`global`]) holds the `live.*` engine counters and
/// the job server's `serve.*` counters, and is what the telemetry
/// endpoints serve. Lookup locks and allocates, so fetch handles once
/// outside hot loops.
#[derive(Debug, Default)]
pub struct Registry {
    counters: std::sync::Mutex<BTreeMap<String, Arc<Counter>>>,
    histograms: std::sync::Mutex<BTreeMap<String, Arc<Histogram>>>,
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// The counter named `name`, created on first use.
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        Arc::clone(
            self.counters
                .lock()
                .expect("registry poisoned")
                .entry(name.to_owned())
                .or_default(),
        )
    }

    /// The histogram named `name`, created on first use.
    pub fn histogram(&self, name: &str) -> Arc<Histogram> {
        Arc::clone(
            self.histograms
                .lock()
                .expect("registry poisoned")
                .entry(name.to_owned())
                .or_default(),
        )
    }

    /// Snapshot every metric, sorted by name within each kind.
    pub fn snapshot(&self) -> RegistrySnapshot {
        RegistrySnapshot {
            counters: self
                .counters
                .lock()
                .expect("registry poisoned")
                .iter()
                .map(|(k, v)| (k.clone(), v.get()))
                .collect(),
            histograms: self
                .histograms
                .lock()
                .expect("registry poisoned")
                .iter()
                .map(|(k, v)| (k.clone(), v.snapshot()))
                .collect(),
        }
    }
}

/// Plain-data snapshot of a [`Registry`].
///
/// Every list is sorted by name (the registry stores metrics in
/// `BTreeMap`s), so consumers — `/metrics`, `/snapshot.json`,
/// `BENCH_metrics.json` — are deterministic without re-sorting.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct RegistrySnapshot {
    /// (name, value) per counter, sorted by name.
    pub counters: Vec<(String, u64)>,
    /// (name, snapshot) per histogram, sorted by name.
    pub histograms: Vec<(String, HistogramSnapshot)>,
}

/// The process-global registry, served live at `/metrics` and
/// `/snapshot.json` by [`crate::server::TelemetryServer`]. Engines with
/// typed metric structs don't need it; it exists so ad-hoc
/// instrumentation anywhere in the workspace shows up on the telemetry
/// endpoint without plumbing.
pub fn global() -> &'static Registry {
    static GLOBAL: std::sync::OnceLock<Registry> = std::sync::OnceLock::new();
    GLOBAL.get_or_init(Registry::new)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_math() {
        let c = Counter::new();
        assert_eq!(c.get(), 0);
        c.inc();
        c.add(41);
        assert_eq!(c.get(), 42);
    }

    #[test]
    fn gauge_moves_both_ways() {
        let g = Gauge::new();
        g.set(10);
        g.add(-25);
        assert_eq!(g.get(), -15);
    }

    #[test]
    fn bucket_of_is_log2() {
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(1), 1);
        assert_eq!(bucket_of(2), 2);
        assert_eq!(bucket_of(3), 2);
        assert_eq!(bucket_of(4), 3);
        assert_eq!(bucket_of(1023), 10);
        assert_eq!(bucket_of(1024), 11);
        assert_eq!(bucket_of(u64::MAX), 64);
    }

    #[test]
    fn histogram_snapshot_math() {
        let h = Histogram::new();
        for v in [0, 1, 2, 3, 1000] {
            h.record(v);
        }
        let s = h.snapshot();
        assert_eq!(s.count, 5);
        assert_eq!(s.sum, 1006);
        assert_eq!(s.min, 0);
        assert_eq!(s.max, 1000);
        assert!((s.mean() - 201.2).abs() < 1e-9);
        assert_eq!(s.buckets[0], 1); // the zero
        assert_eq!(s.buckets[1], 1); // 1
        assert_eq!(s.buckets[2], 2); // 2, 3
        assert_eq!(s.buckets[10], 1); // 1000
        assert_eq!(s.buckets.iter().sum::<u64>(), 5);
    }

    #[test]
    fn empty_histogram_snapshot() {
        let s = Histogram::new().snapshot();
        assert_eq!(s.count, 0);
        assert_eq!(s.min, 0);
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.render(), "empty");
    }

    #[test]
    fn snapshot_record_matches_atomic_histogram() {
        // The &mut self accumulation path must agree with the atomic
        // path sample for sample.
        let h = Histogram::new();
        let mut s = HistogramSnapshot::default();
        for v in [7u64, 0, 64, 65, 12_345, u64::MAX] {
            h.record(v);
            s.record(v);
        }
        assert_eq!(h.snapshot(), s);
    }

    #[test]
    fn bucket_limits_bracket_samples() {
        for v in [0u64, 1, 5, 100, 1 << 40] {
            let b = bucket_of(v);
            assert!(v < HistogramSnapshot::bucket_limit(b));
            if b > 0 {
                assert!(v >= HistogramSnapshot::bucket_limit(b - 1));
            }
        }
    }

    #[test]
    fn registry_snapshot_is_sorted_regardless_of_insertion_order() {
        let r = Registry::new();
        for name in ["zeta", "alpha", "mid.dle", "Alpha2"] {
            r.counter(name).inc();
            r.histogram(name).record(1);
        }
        let snap = r.snapshot();
        let names: Vec<&str> = snap.counters.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(names, vec!["Alpha2", "alpha", "mid.dle", "zeta"]);
        let mut sorted = names.clone();
        sorted.sort_unstable();
        assert_eq!(names, sorted);
        let hist_names: Vec<&str> = snap.histograms.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(hist_names, names);
    }

    #[test]
    fn global_registry_is_shared() {
        let c = global().counter("metrics.test.global");
        c.add(3);
        assert_eq!(global().counter("metrics.test.global").get(), c.get());
    }

    #[test]
    fn registry_shares_handles() {
        let r = Registry::new();
        r.counter("a").inc();
        r.counter("a").inc();
        r.histogram("h").record(9);
        let snap = r.snapshot();
        assert_eq!(snap.counters, vec![("a".to_owned(), 2)]);
        assert_eq!(snap.histograms[0].1.count, 1);
    }
}
