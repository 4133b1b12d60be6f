//! Sweep instrumentation, a thin shim over [`bevra_obs`].
//!
//! Spans live in `bevra-obs` (hierarchical, thread-aware, per-thread
//! buffers; a poisoned buffer drops the record instead of panicking inside
//! `Drop`); this module re-exports [`span()`], [`Span`], [`StageRecord`]
//! and [`drain_stages`].
//!
//! What is engine-specific: the cache-counter registry
//! ([`record_caches`]/[`drain_caches`], tied to [`CacheStats`]) and the
//! degradation ledger ([`SweepHealth`] with [`record_health`]/
//! [`drain_health`]). A figure run drains all three into its one
//! [`crate::ledger::LedgerRecord`].

pub use bevra_obs::{drain_stages, span, Span, StageRecord};

use crate::cache::CacheStats;
use bevra_obs::{enabled, metrics, recorder, ObsLevel};
use std::sync::{Mutex, PoisonError};

static CACHES: Mutex<Vec<(String, CacheStats)>> = Mutex::new(Vec::new());
static HEALTH: Mutex<Vec<(String, SweepHealth)>> = Mutex::new(Vec::new());

/// Degradation ledger of one sweep stage: how many points evaluated
/// cleanly, produced non-finite values, or failed outright, plus the
/// first failure's cause. Derived serially from the input-ordered merged
/// outcomes, so it is deterministic under any worker-thread count.
///
/// The invariant the chaos suite asserts: nothing degrades silently.
/// Every non-finite value an engine sweep produces (whether from a real
/// solver failure or an injected fault) is counted here and surfaces in
/// the run's ledger line.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SweepHealth {
    /// Points that evaluated to fully finite values.
    pub ok: u64,
    /// Points that produced a value, but a degraded one (at least one
    /// non-finite field, or a solver error surfaced as NaN).
    pub degraded: u64,
    /// Points that produced no value at all (isolated worker panic or a
    /// lost result slot).
    pub failed: u64,
    /// Total non-finite fields across all degraded points (one point can
    /// contribute several).
    pub non_finite: u64,
    /// Retry attempts spent rescuing transient per-point failures
    /// (isolated worker retries under the active `RetryPolicy`). A
    /// nonzero count with zero failures means the retries worked.
    pub retries: u64,
    /// Circuit-breaker trips recorded while producing this ledger (lane
    /// supervision or guarded evaluation; engine sweeps keep per-item
    /// retry decisions breaker-free for determinism).
    pub breaker_trips: u64,
    /// Work units (fleet lanes) restarted by a supervisor.
    pub restarts: u64,
    /// Human-readable cause of the first degradation or failure, in
    /// input order.
    pub first_failure: Option<String>,
    /// Capability name of the kernel backend that evaluated the sweep
    /// (`None` for ledgers not produced by an engine sweep, e.g. hand
    /// built or gamma-only ledgers).
    pub kernel: Option<String>,
    /// SIMD tier of the backend's hot loop
    /// ([`bevra_core::kernel::SimdLevel::as_str`], `"autovec"`). `None`
    /// when no kernel stamp applies.
    pub simd: Option<String>,
}

impl SweepHealth {
    /// Ledger with all counters at zero.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Whether every point evaluated cleanly.
    #[must_use]
    pub fn is_clean(&self) -> bool {
        self.degraded == 0 && self.failed == 0 && self.non_finite == 0
    }

    /// Total points accounted for.
    #[must_use]
    pub fn total(&self) -> u64 {
        self.ok + self.degraded + self.failed
    }

    /// Count one clean point.
    pub fn note_ok(&mut self) {
        self.ok += 1;
    }

    /// Count one degraded point, remembering the first cause.
    pub fn note_degraded(&mut self, cause: &str) {
        self.degraded += 1;
        if self.first_failure.is_none() {
            self.first_failure = Some(cause.to_string());
        }
    }

    /// Count one failed point, remembering the first cause.
    pub fn note_failed(&mut self, cause: &str) {
        self.failed += 1;
        if self.first_failure.is_none() {
            self.first_failure = Some(cause.to_string());
        }
    }

    /// Count `value` toward the non-finite tally if it is NaN or ±∞,
    /// returning whether it was non-finite. Callers fold the result into
    /// the per-point ok/degraded decision.
    pub fn tally_non_finite(&mut self, value: f64) -> bool {
        if value.is_finite() {
            false
        } else {
            self.non_finite += 1;
            true
        }
    }

    /// Fold another ledger into this one (first failure and kernel stamp
    /// win by call order).
    pub fn merge(&mut self, other: &SweepHealth) {
        self.ok += other.ok;
        self.degraded += other.degraded;
        self.failed += other.failed;
        self.non_finite += other.non_finite;
        self.retries += other.retries;
        self.breaker_trips += other.breaker_trips;
        self.restarts += other.restarts;
        if self.first_failure.is_none() {
            self.first_failure.clone_from(&other.first_failure);
        }
        if self.kernel.is_none() {
            self.kernel.clone_from(&other.kernel);
        }
        if self.simd.is_none() {
            self.simd.clone_from(&other.simd);
        }
    }
}

impl std::fmt::Display for SweepHealth {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} ok, {} degraded, {} failed ({} non-finite values)",
            self.ok, self.degraded, self.failed, self.non_finite
        )?;
        if self.retries + self.breaker_trips + self.restarts > 0 {
            write!(
                f,
                "; {} retries, {} breaker trips, {} restarts",
                self.retries, self.breaker_trips, self.restarts
            )?;
        }
        if let Some(cause) = &self.first_failure {
            write!(f, "; first failure: {cause}")?;
        }
        Ok(())
    }
}

/// Publish one sweep stage's degradation ledger under `label` so the
/// next [`drain_health`] (and through it the run ledger) picks it up.
/// Degraded/failed counts are mirrored into the metrics registry at
/// [`ObsLevel::Summary`], and every ledger (clean or not)
/// leaves a `health` event in the flight recorder so a post-mortem black
/// box shows which stages had completed. A poisoned registry drops the
/// record rather than propagating the panic.
pub fn record_health(label: &str, health: SweepHealth) {
    recorder::record(
        recorder::EventKind::Health,
        label,
        health.degraded + health.failed,
        health.non_finite,
    );
    if enabled(ObsLevel::Summary) && !health.is_clean() {
        metrics::counter(&format!("health/{label}/degraded")).add(health.degraded);
        metrics::counter(&format!("health/{label}/failed")).add(health.failed);
        metrics::counter(&format!("health/{label}/non_finite")).add(health.non_finite);
    }
    let Ok(mut registry) = HEALTH.lock() else {
        return; // poisoned: drop the record, never panic
    };
    registry.push((label.to_string(), health));
}

/// Remove and return every health ledger recorded since the last drain.
/// A poisoned registry is recovered (its surviving contents returned)
/// rather than panicking.
#[must_use]
pub fn drain_health() -> Vec<(String, SweepHealth)> {
    std::mem::take(&mut *HEALTH.lock().unwrap_or_else(PoisonError::into_inner))
}

/// Publish one engine's cache counters under `prefix` (e.g. the sweep's
/// utility family) so the next [`drain_caches`] picks them up. At
/// [`ObsLevel::Summary`] and above the counters are also mirrored into the
/// metrics registry (`cache/<prefix>/<name>/{hits,misses,hit_rate}`).
///
/// If the registry mutex was poisoned by a panicking thread the records
/// are dropped rather than propagating the panic.
pub fn record_caches(prefix: &str, stats: Vec<(String, CacheStats)>) {
    if enabled(ObsLevel::Summary) {
        for (name, st) in &stats {
            // Tracked counters also leave a counter-delta event in the
            // flight recorder, so a black box shows cache activity leading
            // up to a fault. These fire once per sweep, not per point.
            metrics::tracked_counter(&format!("cache/{prefix}/{name}/hits")).add(st.hits);
            metrics::tracked_counter(&format!("cache/{prefix}/{name}/misses")).add(st.misses);
            metrics::gauge(&format!("cache/{prefix}/{name}/hit_rate")).set(st.hit_rate());
        }
    }
    let Ok(mut registry) = CACHES.lock() else {
        return; // poisoned: drop the records, never panic
    };
    for (name, st) in stats {
        registry.push((format!("{prefix}/{name}"), st));
    }
}

/// Remove and return every cache counter recorded since the last drain.
/// A poisoned registry is recovered (its surviving contents returned)
/// rather than panicking.
#[must_use]
pub fn drain_caches() -> Vec<(String, CacheStats)> {
    std::mem::take(&mut *CACHES.lock().unwrap_or_else(PoisonError::into_inner))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn span_records_on_drop() {
        {
            let mut s = span("engine-shim/stage");
            s.add_points(42);
        }
        let stages = drain_stages();
        let rec =
            stages.iter().find(|r| r.name == "engine-shim/stage").expect("span recorded");
        assert_eq!(rec.points, 42);
        assert!(rec.seconds >= 0.0);
    }

    #[test]
    fn health_ledger_counts_and_first_cause() {
        let mut h = SweepHealth::new();
        assert!(h.is_clean());
        h.note_ok();
        assert!(h.tally_non_finite(f64::NAN));
        assert!(h.tally_non_finite(f64::INFINITY));
        assert!(!h.tally_non_finite(1.0));
        h.note_degraded("gap solver: max iterations");
        h.note_failed("worker panicked");
        h.note_degraded("later cause");
        assert_eq!((h.ok, h.degraded, h.failed, h.non_finite), (1, 2, 1, 2));
        assert_eq!(h.total(), 4);
        assert_eq!(h.first_failure.as_deref(), Some("gap solver: max iterations"));
        assert!(!h.is_clean());
        let text = h.to_string();
        assert!(text.contains("2 degraded") && text.contains("max iterations"), "{text}");
        assert!(!text.contains("retries"), "quiet resilience counters stay out of Display");
        h.retries = 3;
        h.restarts = 1;
        let text = h.to_string();
        assert!(text.contains("3 retries") && text.contains("1 restarts"), "{text}");
    }

    #[test]
    fn merge_sums_resilience_counters() {
        let mut a = SweepHealth::new();
        a.retries = 2;
        a.breaker_trips = 1;
        let mut b = SweepHealth::new();
        b.retries = 3;
        b.restarts = 4;
        a.merge(&b);
        assert_eq!((a.retries, a.breaker_trips, a.restarts), (5, 1, 4));
    }

    #[test]
    fn health_record_drain_roundtrip() {
        let mut h = SweepHealth::new();
        h.note_ok();
        h.note_failed("boom");
        record_health("roundtrip/sweep", h.clone());
        let drained = drain_health();
        let (_, got) = drained
            .iter()
            .find(|(n, _)| n == "roundtrip/sweep")
            .expect("recorded ledger drained");
        assert_eq!(got, &h);
        assert!(!drain_health().iter().any(|(n, _)| n == "roundtrip/sweep"));
    }

    #[test]
    fn merge_keeps_first_kernel_stamp() {
        let mut a = SweepHealth::new();
        a.note_ok();
        let mut b = SweepHealth::new();
        b.kernel = Some("fast".into());
        b.note_ok();
        a.merge(&b);
        assert_eq!(a.kernel.as_deref(), Some("fast"), "absent stamp adopts other's");
        let mut c = SweepHealth::new();
        c.kernel = Some("batch".into());
        c.note_ok();
        a.merge(&c);
        assert_eq!(a.kernel.as_deref(), Some("fast"), "existing stamp wins");
        assert_eq!(a.total(), 3);
    }

    #[test]
    fn poisoned_cache_registry_degrades_gracefully() {
        // Seed a record, then poison the registry from a panicking thread.
        record_caches("poison-seed", vec![("c".into(), CacheStats { hits: 1, misses: 0 })]);
        let _ = std::thread::spawn(|| {
            let _guard = CACHES.lock().expect("first lock");
            panic!("poison the cache registry");
        })
        .join();
        assert!(CACHES.lock().is_err(), "registry is poisoned");
        // Recording on a poisoned registry drops the record, no panic.
        record_caches("poison-lost", vec![("c".into(), CacheStats::default())]);
        // Draining recovers the surviving contents, no panic.
        let drained = drain_caches();
        assert!(drained.iter().any(|(n, _)| n == "poison-seed/c"));
        assert!(!drained.iter().any(|(n, _)| n == "poison-lost/c"));
    }
}
