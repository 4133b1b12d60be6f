//! Process-global metrics registry: counters, gauges, and log-bucketed
//! histograms.
//!
//! Handles are `Arc`s resolved by name once (outside hot loops); recording
//! is then plain relaxed atomics — no allocation, no locking — so
//! instrumented hot paths stay cheap even when collection is on, and can
//! be skipped entirely behind [`crate::enabled`] when it is off.
//!
//! Histograms bucket by the base-2 logarithm of the recorded value (64
//! buckets cover the full `u64` range), which is exact enough for the
//! latency/occupancy distributions tracked here while keeping recording a
//! single `fetch_add`. Quantiles (p50/p90/p99) locate the bucket holding
//! the requested rank and interpolate linearly inside it, so estimates are
//! not rounded to bucket representatives (powers of two).

use crate::recorder::{self, EventKind};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock, PoisonError};

/// A monotonically increasing event counter.
///
/// Counters resolved via [`tracked_counter`] additionally feed every delta
/// to the flight recorder as an [`EventKind::CounterDelta`] event — meant
/// for low-rate structural counters (health tallies, cache traffic), not
/// per-event hot-loop counters.
#[derive(Debug, Default)]
pub struct Counter {
    value: AtomicU64,
    /// Interned recorder site id + 1; 0 = not tracked.
    site: AtomicU64,
}

impl Counter {
    /// Add one.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Add `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        let total = self.value.fetch_add(n, Ordering::Relaxed).wrapping_add(n);
        let site = self.site.load(Ordering::Relaxed);
        if site != 0 {
            recorder::record_id(EventKind::CounterDelta, (site - 1) as u32, n, total);
        }
    }

    /// Current value.
    #[must_use]
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }

    fn reset(&self) {
        self.value.store(0, Ordering::Relaxed);
    }
}

/// A last-value-wins instantaneous measurement (stored as `f64` bits).
#[derive(Debug, Default)]
pub struct Gauge {
    bits: AtomicU64,
}

impl Gauge {
    /// Record the current value.
    #[inline]
    pub fn set(&self, v: f64) {
        self.bits.store(v.to_bits(), Ordering::Relaxed);
    }

    /// Last recorded value (0.0 if never set).
    #[must_use]
    pub fn get(&self) -> f64 {
        f64::from_bits(self.bits.load(Ordering::Relaxed))
    }

    fn reset(&self) {
        self.bits.store(0, Ordering::Relaxed);
    }
}

/// Bucket count: value `v` lands in bucket `64 − leading_zeros(v)`, i.e.
/// bucket 0 holds exactly 0, bucket `k ≥ 1` holds `[2^(k−1), 2^k)`.
const BUCKETS: usize = 65;

/// A lock-free log₂-bucketed histogram of `u64` samples.
#[derive(Debug)]
pub struct Histogram {
    counts: [AtomicU64; BUCKETS],
    total: AtomicU64,
    sum: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self {
            counts: std::array::from_fn(|_| AtomicU64::new(0)),
            total: AtomicU64::new(0),
            sum: AtomicU64::new(0),
        }
    }
}

impl Histogram {
    fn bucket_of(v: u64) -> usize {
        (64 - v.leading_zeros()) as usize
    }

    /// Geometric midpoint representative of a bucket.
    fn representative(bucket: usize) -> f64 {
        if bucket == 0 {
            0.0
        } else {
            // Bucket k covers [2^(k−1), 2^k): representative √2·2^(k−1).
            std::f64::consts::SQRT_2 * (bucket as f64 - 1.0).exp2()
        }
    }

    /// Record one sample.
    #[inline]
    pub fn record(&self, v: u64) {
        self.counts[Self::bucket_of(v)].fetch_add(1, Ordering::Relaxed);
        self.total.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
    }

    /// Number of recorded samples.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.total.load(Ordering::Relaxed)
    }

    /// Mean of recorded samples (0.0 when empty; wraps only past 2⁶⁴
    /// aggregate, far beyond any run here).
    #[must_use]
    pub fn mean(&self) -> f64 {
        let n = self.count();
        if n == 0 {
            0.0
        } else {
            self.sum.load(Ordering::Relaxed) as f64 / n as f64
        }
    }

    /// Estimated `q`-quantile (`q` clamped to `[0, 1]`): locates the bucket
    /// containing the requested rank, then interpolates linearly between the
    /// bucket's bounds by the rank's position among the bucket's samples —
    /// so a p99 inside a wide high bucket no longer rounds to a power of
    /// two. 0.0 when empty.
    #[must_use]
    pub fn quantile(&self, q: f64) -> f64 {
        let total = self.count();
        if total == 0 {
            return 0.0;
        }
        let target = ((q.clamp(0.0, 1.0) * total as f64).ceil() as u64).max(1);
        let mut cum = 0u64;
        for (bucket, c) in self.counts.iter().enumerate() {
            let c = c.load(Ordering::Relaxed);
            if c == 0 {
                continue;
            }
            if cum + c >= target {
                if bucket == 0 {
                    return 0.0;
                }
                // Bucket k covers [2^(k−1), 2^k); place the rank at the
                // midpoint of its within-bucket sample slot.
                let lo = (bucket as f64 - 1.0).exp2();
                let hi = (bucket as f64).exp2();
                let frac = ((target - cum) as f64 - 0.5) / c as f64;
                return lo + (hi - lo) * frac;
            }
            cum += c;
        }
        Self::representative(BUCKETS - 1)
    }

    fn reset(&self) {
        for c in &self.counts {
            c.store(0, Ordering::Relaxed);
        }
        self.total.store(0, Ordering::Relaxed);
        self.sum.store(0, Ordering::Relaxed);
    }
}

/// Point-in-time summary of one [`Histogram`] for exporters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HistogramSummary {
    /// Sample count.
    pub count: u64,
    /// Sample mean.
    pub mean: f64,
    /// Estimated median.
    pub p50: f64,
    /// Estimated 90th percentile.
    pub p90: f64,
    /// Estimated 99th percentile.
    pub p99: f64,
}

impl HistogramSummary {
    /// Summarize a histogram (count, mean, interpolated p50/p90/p99).
    #[must_use]
    pub fn of(h: &Histogram) -> Self {
        Self {
            count: h.count(),
            mean: h.mean(),
            p50: h.quantile(0.50),
            p90: h.quantile(0.90),
            p99: h.quantile(0.99),
        }
    }
}

/// Point-in-time view of every registered metric, names sorted.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MetricsSnapshot {
    /// Counter name → value.
    pub counters: Vec<(String, u64)>,
    /// Gauge name → last value.
    pub gauges: Vec<(String, f64)>,
    /// Histogram name → summary.
    pub histograms: Vec<(String, HistogramSummary)>,
}

impl MetricsSnapshot {
    /// Whether no metric has been registered.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty() && self.gauges.is_empty() && self.histograms.is_empty()
    }
}

#[derive(Default)]
struct Registry {
    counters: Mutex<BTreeMap<String, Arc<Counter>>>,
    gauges: Mutex<BTreeMap<String, Arc<Gauge>>>,
    histograms: Mutex<BTreeMap<String, Arc<Histogram>>>,
}

fn registry() -> &'static Registry {
    static REGISTRY: OnceLock<Registry> = OnceLock::new();
    REGISTRY.get_or_init(Registry::default)
}

fn recover<'a, T: ?Sized>(
    r: Result<MutexGuard<'a, T>, PoisonError<MutexGuard<'a, T>>>,
) -> MutexGuard<'a, T> {
    r.unwrap_or_else(PoisonError::into_inner)
}

/// The counter registered under `name` (created on first use). Resolve
/// once and reuse the handle in hot loops.
#[must_use]
pub fn counter(name: &str) -> Arc<Counter> {
    let mut map = recover(registry().counters.lock());
    Arc::clone(map.entry(name.to_string()).or_default())
}

/// Like [`counter`], but the counter also reports every delta to the
/// flight recorder as an [`EventKind::CounterDelta`] event. Use for
/// low-rate structural counters (health tallies, cache traffic) whose
/// history belongs in a blackbox — never for per-event hot-loop counters.
/// Tracking is sticky: once any caller tracks a name, all handles to it
/// record deltas.
#[must_use]
pub fn tracked_counter(name: &str) -> Arc<Counter> {
    let c = counter(name);
    if c.site.load(Ordering::Relaxed) == 0 {
        c.site.store(u64::from(recorder::intern(name)) + 1, Ordering::Relaxed);
    }
    c
}

/// The gauge registered under `name` (created on first use).
#[must_use]
pub fn gauge(name: &str) -> Arc<Gauge> {
    let mut map = recover(registry().gauges.lock());
    Arc::clone(map.entry(name.to_string()).or_default())
}

/// The histogram registered under `name` (created on first use). Resolve
/// once and reuse the handle in hot loops.
#[must_use]
pub fn histogram(name: &str) -> Arc<Histogram> {
    let mut map = recover(registry().histograms.lock());
    Arc::clone(map.entry(name.to_string()).or_default())
}

/// Snapshot every registered metric (names sorted by the registry's
/// `BTreeMap` ordering, so output is deterministic).
#[must_use]
pub fn snapshot() -> MetricsSnapshot {
    let reg = registry();
    MetricsSnapshot {
        counters: recover(reg.counters.lock())
            .iter()
            .map(|(k, v)| (k.clone(), v.get()))
            .collect(),
        gauges: recover(reg.gauges.lock())
            .iter()
            .map(|(k, v)| (k.clone(), v.get()))
            .collect(),
        histograms: recover(reg.histograms.lock())
            .iter()
            .map(|(k, v)| (k.clone(), HistogramSummary::of(v)))
            .collect(),
    }
}

/// Zero every registered metric in place (handles held by callers stay
/// valid). For benches and tests.
pub fn reset_all() {
    let reg = registry();
    for c in recover(reg.counters.lock()).values() {
        c.reset();
    }
    for g in recover(reg.gauges.lock()).values() {
        g.reset();
    }
    for h in recover(reg.histograms.lock()).values() {
        h.reset();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Serializes tests that touch the global registry (reset_all would
    /// otherwise race with concurrent assertions).
    fn guard() -> MutexGuard<'static, ()> {
        static TEST_GUARD: Mutex<()> = Mutex::new(());
        recover(TEST_GUARD.lock())
    }

    #[test]
    fn counter_counts() {
        let _g = guard();
        let c = counter("test/metrics/counter");
        c.reset();
        c.inc();
        c.add(4);
        assert_eq!(c.get(), 5);
        // Same name resolves to the same underlying counter.
        assert_eq!(counter("test/metrics/counter").get(), 5);
    }

    #[test]
    fn gauge_holds_last_value() {
        let _g = guard();
        let g = gauge("test/metrics/gauge");
        g.set(0.25);
        g.set(0.75);
        assert_eq!(g.get(), 0.75);
    }

    #[test]
    fn histogram_buckets_and_quantiles() {
        let h = Histogram::default();
        assert_eq!(h.quantile(0.5), 0.0, "empty histogram");
        // 90 small samples and 10 large ones: p50 sits in the small
        // bucket, p99 in the large one.
        for _ in 0..90 {
            h.record(100); // bucket [64, 128)
        }
        for _ in 0..10 {
            h.record(1_000_000); // bucket [2^19, 2^20)
        }
        assert_eq!(h.count(), 100);
        let p50 = h.quantile(0.50);
        assert!((64.0..128.0).contains(&p50), "p50 {p50}");
        let p99 = h.quantile(0.99);
        assert!((524_288.0..1_048_576.0).contains(&p99), "p99 {p99}");
        assert!((h.mean() - (90.0 * 100.0 + 10.0 * 1e6) / 100.0).abs() < 1e-6);
    }

    #[test]
    fn histogram_zero_and_extremes() {
        let h = Histogram::default();
        h.record(0);
        assert_eq!(h.quantile(1.0), 0.0, "zero bucket represents as 0");
        h.record(u64::MAX);
        let p99 = h.quantile(0.99);
        assert!(p99 > 1e18, "top bucket representative {p99}");
    }

    /// Satellite pin: fixed samples, exact interpolated quantiles. The old
    /// estimator returned the bucket's geometric midpoint (√2·2^(k−1)), so
    /// p99 rounded to the same value for every sample layout inside a
    /// bucket; interpolation must place ranks linearly between the bucket
    /// bounds instead.
    #[test]
    fn quantiles_interpolate_within_buckets() {
        let h = Histogram::default();
        for v in [100u64, 200, 400, 800] {
            for _ in 0..25 {
                h.record(v); // buckets [64,128), [128,256), [256,512), [512,1024)
            }
        }
        let (p50, p90, p99) = (h.quantile(0.50), h.quantile(0.90), h.quantile(0.99));
        // p50: rank 50 → bucket [128,256), 25th of 25 → 128 + 256·(24.5/25)/2
        assert!((p50 - 253.44).abs() < 1e-9, "p50 {p50}");
        // p90: rank 90 → bucket [512,1024), 15th of 25.
        assert!((p90 - 808.96).abs() < 1e-9, "p90 {p90}");
        // p99: rank 99 → bucket [512,1024), 24th of 25 — NOT the midpoint
        // 724.077 and NOT a power of two.
        assert!((p99 - 993.28).abs() < 1e-9, "p99 {p99}");
        assert!(p99.fract() != 0.0 || p99.log2().fract() != 0.0);
        // Single-bucket layout sharpens too: 1000 samples of 1000.
        let h2 = Histogram::default();
        for _ in 0..1000 {
            h2.record(1000); // bucket [512,1024)
        }
        let p99b = h2.quantile(0.99);
        assert!((p99b - (512.0 + 512.0 * (989.5 / 1000.0))).abs() < 1e-9, "p99 {p99b}");
    }

    #[test]
    fn tracked_counter_records_deltas_in_recorder() {
        let _g = guard();
        crate::recorder::set_recording(true);
        let c = tracked_counter("test/metrics/tracked");
        c.reset();
        c.add(3);
        c.inc();
        let events = crate::recorder::recent_events(usize::MAX);
        let deltas: Vec<(u64, u64)> = events
            .iter()
            .filter(|e| {
                e.kind == crate::recorder::EventKind::CounterDelta
                    && e.site == "test/metrics/tracked"
            })
            .map(|e| (e.a, e.b))
            .collect();
        assert!(deltas.contains(&(3, 3)), "deltas {deltas:?}");
        assert!(deltas.contains(&(1, 4)), "deltas {deltas:?}");
    }

    #[test]
    fn snapshot_is_sorted_and_resettable() {
        let _g = guard();
        counter("test/snap/b").add(2);
        counter("test/snap/a").add(1);
        gauge("test/snap/g").set(3.5);
        histogram("test/snap/h").record(8);
        let snap = snapshot();
        assert!(!snap.is_empty());
        let names: Vec<&str> = snap.counters.iter().map(|(n, _)| n.as_str()).collect();
        let mut sorted = names.clone();
        sorted.sort_unstable();
        assert_eq!(names, sorted, "counters sorted by name");
        let (_, h) = snap
            .histograms
            .iter()
            .find(|(n, _)| n == "test/snap/h")
            .expect("histogram snapshotted");
        assert_eq!(h.count, 1);
        reset_all();
        assert_eq!(counter("test/snap/b").get(), 0);
        assert_eq!(gauge("test/snap/g").get(), 0.0);
        assert_eq!(histogram("test/snap/h").count(), 0);
    }
}
