//! The [`SweepEngine`]: memoized, data-parallel evaluation of the paper's
//! capacity and price sweeps.

use crate::cache::{f64_key, CacheStats, ShardedCache};
use crate::instrument::{span, SweepHealth};
use crate::persist::{grid_key, sweep_key, GridRow, PersistentCache};
use crate::pool::{parallel_map_supervised, parallel_map_with, thread_count};
use bevra_core::welfare::SampledValue;
use bevra_core::{equalizing_price_ratio, DiscreteModel, Kernel};
use bevra_num::{brent, expand_bracket_up, NumError, NumResult};
use bevra_obs::{enabled, metrics, ObsLevel};
use bevra_resilience::RetryPolicy;
use bevra_utility::Utility;
use std::time::Instant;

/// Grid points per sweep batch: [`SweepEngine::sweep_checked`] restores
/// or evaluates, then stores, its grid this many points at a time, and
/// crosses the `engine/ckpt-batch` kill site after each batch.
pub const BATCH_POINTS: usize = 32;

/// Time one grid-point evaluation into `hist` when per-point timing is on
/// (`BEVRA_OBS=summary|trace`); otherwise just evaluate. Timing is
/// observation only — the evaluated value is returned untouched, so
/// parallel/serial output stays bitwise-identical with instrumentation
/// enabled.
#[inline]
fn timed_point<T>(
    timing: bool,
    hist: &metrics::Histogram,
    eval: impl FnOnce() -> T,
) -> T {
    if timing {
        let t0 = Instant::now();
        let out = eval();
        hist.record(t0.elapsed().as_nanos() as u64);
        out
    } else {
        eval()
    }
}

/// Execution strategy of an engine's sweeps.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExecMode {
    /// Evaluate every point on the calling thread, in grid order.
    Serial,
    /// Fan points out across scoped worker threads. Output is
    /// bitwise-identical to [`ExecMode::Serial`] — see the crate docs.
    Parallel {
        /// Worker-thread count (clamped to at least 1).
        threads: usize,
    },
}

impl ExecMode {
    fn threads(self) -> usize {
        match self {
            ExecMode::Serial => 1,
            ExecMode::Parallel { threads } => threads.max(1),
        }
    }
}

/// Which architecture's total-utility curve a welfare table samples.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Architecture {
    /// Best-effort: everyone admitted, `V_B(C) = k̄·B(C)`.
    BestEffort,
    /// Reservations: admission capped at `k_max(C)`, `V_R(C) = k̄·R(C)`.
    Reservation,
}

/// One evaluated capacity point of a sweep: the paper's four headline
/// quantities at capacity `C`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SweepPoint {
    /// Capacity `C`.
    pub capacity: f64,
    /// Normalized best-effort utility `B(C)`.
    pub best_effort: f64,
    /// Normalized reservation utility `R(C)`.
    pub reservation: f64,
    /// Performance gap `δ(C) = max(R − B, 0)`.
    pub performance_gap: f64,
    /// Bandwidth gap `Δ(C)` solving `B(C + Δ) = R(C)`; NaN if the solver
    /// could not bracket a root (pathologically truncated tables only).
    pub bandwidth_gap: f64,
}

impl SweepPoint {
    /// Every derived quantity is finite.
    fn is_finite(&self) -> bool {
        [self.best_effort, self.reservation, self.performance_gap, self.bandwidth_gap]
            .iter()
            .all(|v| v.is_finite())
    }
}

/// What one grid point of a checked sweep produced.
#[derive(Debug, Clone, PartialEq)]
pub enum PointOutcome {
    /// The point evaluated (possibly with non-finite fields, which the
    /// sweep's [`SweepHealth`] counts as degraded).
    Ok(SweepPoint),
    /// The point produced no value: its worker panicked on every attempt
    /// the retry policy permitted, or its result slot was lost.
    Failed {
        /// The capacity that failed.
        capacity: f64,
        /// The grid index that failed.
        index: usize,
        /// Human-readable failure cause (panic message or slot loss).
        cause: String,
    },
}

impl PointOutcome {
    /// The evaluated point, if the outcome is [`PointOutcome::Ok`].
    #[must_use]
    pub fn point(&self) -> Option<&SweepPoint> {
        match self {
            PointOutcome::Ok(p) => Some(p),
            PointOutcome::Failed { .. } => None,
        }
    }
}

/// Result of [`SweepEngine::sweep_checked`]: one outcome per input
/// capacity (in grid order) plus the degradation ledger derived from
/// them.
#[derive(Debug, Clone, PartialEq)]
pub struct CheckedSweep {
    /// One outcome per grid capacity, in input order.
    pub outcomes: Vec<PointOutcome>,
    /// Ok/degraded/failed/non-finite accounting over `outcomes`.
    pub health: SweepHealth,
}

impl CheckedSweep {
    /// The evaluated points, skipping failed ones.
    #[must_use]
    pub fn points(&self) -> Vec<SweepPoint> {
        self.outcomes.iter().filter_map(|o| o.point().copied()).collect()
    }

    /// The evaluated points, panicking on the first failed one — the
    /// legacy all-or-nothing contract of [`SweepEngine::sweep`].
    #[must_use]
    pub fn expect_points(&self) -> Vec<SweepPoint> {
        self.outcomes
            .iter()
            .map(|o| match o {
                PointOutcome::Ok(p) => *p,
                PointOutcome::Failed { capacity, index, cause } => {
                    panic!("sweep point {index} (C = {capacity}) failed: {cause}")
                }
            })
            .collect()
    }
}

/// Memoized, parallel evaluator of `B(C)`, `R(C)`, `δ(C)`, `Δ(C)` and the
/// welfare tables for one (load, utility) pair.
///
/// The engine wraps a [`DiscreteModel`] and adds:
///
/// * **memoization** — sharded thread-safe caches for the `k_max(C)`
///   table, `B(C)`, and `R(C)`, keyed by the capacity's bit pattern. The
///   bandwidth-gap root-finder and the welfare tables re-probe the same
///   capacities many times; with the caches every distinct capacity is
///   summed over the load table exactly once per engine;
/// * **data parallelism** — [`Self::sweep`], [`Self::value_table`] and
///   [`Self::gamma_sweep`] fan their grids out over scoped threads
///   ([`crate::pool`]), with output **bitwise-identical** to serial
///   because every per-point computation is a pure function evaluated by
///   the same scalar code path;
/// * **instrumentation** — every sweep stage opens a
///   [`crate::instrument::span()`], and [`Self::cache_stats`] exposes
///   hit/miss counters for the run ledger.
pub struct SweepEngine<U: Utility> {
    model: DiscreteModel<U>,
    mode: ExecMode,
    kernel: &'static dyn Kernel,
    persist: Option<PersistentCache>,
    kmax: ShardedCache<Option<u64>>,
    b: ShardedCache<f64>,
    r: ShardedCache<f64>,
}

impl<U: Utility> SweepEngine<U> {
    /// Engine in the default parallel mode ([`thread_count`] workers —
    /// the `BEVRA_THREADS` environment variable or all cores).
    #[must_use]
    pub fn new(model: DiscreteModel<U>) -> Self {
        Self::with_mode(model, ExecMode::Parallel { threads: thread_count() })
    }

    /// Engine that evaluates everything on the calling thread — the
    /// reference path the parallel mode is verified against.
    #[must_use]
    pub fn serial(model: DiscreteModel<U>) -> Self {
        Self::with_mode(model, ExecMode::Serial)
    }

    /// Engine with an explicit execution mode. The kernel backend comes
    /// from `BEVRA_KERNEL` via the registry and the persistent cache from
    /// `BEVRA_CACHE` (see [`crate::registry::from_env`] and
    /// [`PersistentCache::from_env`]); the cache can be overridden with
    /// [`Self::with_persistent_cache`].
    #[must_use]
    pub fn with_mode(model: DiscreteModel<U>, mode: ExecMode) -> Self {
        Self {
            model,
            mode,
            kernel: crate::registry::from_env(),
            persist: PersistentCache::from_env(),
            kmax: ShardedCache::new(),
            b: ShardedCache::new(),
            r: ShardedCache::new(),
        }
    }

    /// Attach an explicit persistent cache (builder style), replacing
    /// whatever `BEVRA_CACHE` configured.
    #[must_use]
    pub fn with_persistent_cache(mut self, cache: PersistentCache) -> Self {
        self.persist = Some(cache);
        self
    }

    /// The wrapped model.
    pub fn model(&self) -> &DiscreteModel<U> {
        &self.model
    }

    /// The execution mode.
    pub fn mode(&self) -> ExecMode {
        self.mode
    }

    /// The active kernel backend.
    pub fn kernel(&self) -> &'static dyn Kernel {
        self.kernel
    }

    /// The attached persistent cache, if any (for inspecting its
    /// counters after a sweep).
    pub fn persistent_cache(&self) -> Option<&PersistentCache> {
        self.persist.as_ref()
    }

    /// Prime the memo tables for a capacity grid with the active kernel
    /// backend.
    ///
    /// Non-finite and nonpositive capacities are left to the per-point path;
    /// the rest are sorted, deduplicated, filtered to what is not already
    /// memoized, then either loaded from the persistent cache or computed
    /// by the backend's grid sweep — dealt round-robin over the workers
    /// under [`ExecMode::Parallel`] — and inserted. The backend mirrors the
    /// per-point path exactly, so results are identical under any thread
    /// count or split.
    ///
    /// A panic inside the batched compute is caught and counted
    /// (`engine/prime/panic`): the sweep then falls back to the per-point
    /// path, preserving the engine's degradation contract.
    pub fn prime(&self, capacities: &[f64]) {
        let cap = self.kernel.capability();
        let mut cs: Vec<f64> =
            capacities.iter().copied().filter(|c| c.is_finite() && *c > 0.0).collect();
        cs.sort_unstable_by(f64::total_cmp);
        cs.dedup_by(|a, b| a.to_bits() == b.to_bits());
        cs.retain(|&c| {
            let k = f64_key(c);
            self.kmax.peek(k).is_none()
                || self.b.peek(k).is_none()
                || self.r.peek(k).is_none()
        });
        if cs.is_empty() {
            return;
        }

        metrics::counter(&format!("engine/kernel/{}/primes", cap.name)).inc();
        if let Some(pc) = &self.persist {
            let key = grid_key(&self.model, &cs);
            if let Some(rows) = pc.load(key, &cs) {
                self.insert_rows(&cs, &rows);
                return;
            }
            if let Some(rows) = self.compute_rows(&cs) {
                self.insert_rows(&cs, &rows);
                pc.store(key, &cs, &rows);
            }
            return;
        }
        if let Some(rows) = self.compute_rows(&cs) {
            self.insert_rows(&cs, &rows);
        }
    }

    /// Batched evaluation of `(k_max, B, R)` rows for a sorted deduped
    /// grid through the active backend; `None` if the kernel panicked
    /// (fall back to scalar).
    ///
    /// Lane `i` goes to worker `i mod T`: each worker's sub-grid stays
    /// sorted, and the costlier lanes at the top of the grid spread over
    /// every worker instead of landing on the last one.
    fn compute_rows(&self, cs: &[f64]) -> Option<Vec<GridRow>> {
        let kernel = self.kernel;
        let workers = self.mode.threads().min(cs.len()).max(1);
        let computed = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            // One type-erased view shared by all workers: an Arc clone of
            // the load plus a borrow of the utility — no table copies.
            let dyn_model = self.model.as_dyn();
            let deals: Vec<Vec<f64>> = (0..workers)
                .map(|w| cs.iter().copied().skip(w).step_by(workers).collect())
                .collect();
            let parts = parallel_map_with(&deals, workers, |deal| {
                // The carried argmax bracket restarts per worker; the
                // search returns the smallest maximizer regardless of the
                // carry, and lanes are independent, so the split never
                // changes bits.
                let sweep = kernel.sweep_grid(&dyn_model, deal);
                sweep
                    .k_max
                    .into_iter()
                    .zip(sweep.best_effort)
                    .zip(sweep.reservation)
                    .map(|((k, b), r)| (k, b, r))
                    .collect::<Vec<GridRow>>()
            });
            (0..cs.len()).map(|i| parts[i % workers][i / workers]).collect::<Vec<GridRow>>()
        }));
        match computed {
            Ok(rows) => Some(rows),
            Err(_) => {
                metrics::counter("engine/prime/panic").inc();
                None
            }
        }
    }

    fn insert_rows(&self, cs: &[f64], rows: &[GridRow]) {
        for (&c, &(kmax, b, r)) in cs.iter().zip(rows) {
            let k = f64_key(c);
            self.kmax.insert(k, kmax);
            self.b.insert(k, b);
            self.r.insert(k, r);
        }
    }

    /// Memoized admission threshold `k_max(C)`.
    pub fn k_max(&self, capacity: f64) -> Option<u64> {
        self.kmax.get_or_insert_with(f64_key(capacity), || self.model.k_max(capacity))
    }

    /// Memoized normalized best-effort utility `B(C)`.
    pub fn best_effort(&self, capacity: f64) -> f64 {
        self.b.get_or_insert_with(f64_key(capacity), || self.model.best_effort(capacity))
    }

    /// Memoized normalized reservation utility `R(C)`, reusing the
    /// memoized `k_max` table.
    pub fn reservation(&self, capacity: f64) -> f64 {
        self.r.get_or_insert_with(f64_key(capacity), || {
            self.model.reservation_with_kmax(capacity, self.k_max(capacity))
        })
    }

    /// Performance gap `δ(C) = max(R(C) − B(C), 0)` from the caches.
    pub fn performance_gap(&self, capacity: f64) -> f64 {
        (self.reservation(capacity) - self.best_effort(capacity)).max(0.0)
    }

    /// Bandwidth gap `Δ(C)` solving `B(C + Δ) = R(C)`.
    ///
    /// Same algorithm as [`bevra_core::bandwidth_gap`] (upward bracket
    /// expansion + Brent, zero for sub-ULP gaps), but every `B` probe goes
    /// through the memo table, so bracketing probes shared between grid
    /// points are paid for once.
    ///
    /// # Errors
    ///
    /// Propagates bracketing/root-finding failures, exactly as the serial
    /// implementation does.
    pub fn bandwidth_gap(&self, capacity: f64) -> NumResult<f64> {
        let target = self.reservation(capacity);
        let here = self.best_effort(capacity);
        if target <= here + 1e-12 {
            return Ok(0.0);
        }
        let kbar = self.model.mean_load();
        let max_extra = 1e6 * kbar;
        let f = |delta: f64| self.best_effort(capacity + delta) - target;
        let bracket = expand_bracket_up(f, 0.0, 0.01 * kbar.max(1.0), max_extra)?;
        if bracket.lo == bracket.hi {
            return Ok(bracket.lo);
        }
        let delta = brent(f, bracket.lo, bracket.hi, 1e-9 * kbar.max(1.0))?;
        if delta.is_finite() && delta >= 0.0 {
            Ok(delta)
        } else {
            Err(NumError::InvalidInput { what: "bandwidth gap solver produced a negative gap" })
        }
    }

    /// Evaluate all four headline quantities over a capacity grid,
    /// parallel per [`Self::mode`]. Failed gap solves surface as NaN.
    ///
    /// Legacy all-or-nothing wrapper over [`Self::sweep_checked`]: a
    /// point whose evaluation panics on every attempt its retry policy
    /// permits (see [`crate::pool::parallel_map_supervised`]) panics here
    /// too, after every other point has been evaluated. Use
    /// `sweep_checked` to get structured per-point outcomes instead.
    pub fn sweep(&self, capacities: &[f64]) -> Vec<SweepPoint> {
        self.sweep_checked(capacities).expect_points()
    }

    /// [`Self::sweep`] with per-point panic isolation and structured
    /// degradation: every grid point gets a [`PointOutcome`] (in input
    /// order), and the returned [`SweepHealth`] counts clean, degraded
    /// (non-finite or failed gap solve) and failed (panicked) points —
    /// one bad point no longer aborts the sweep.
    ///
    /// After one up-front [`Self::prime`], the grid runs in batches of
    /// [`BATCH_POINTS`]:
    ///
    /// * **restore** — with a [`PersistentCache`] attached, a batch whose
    ///   finished rows are on disk is restored bitwise instead of
    ///   evaluated, so a killed sweep resumes and a repeated one is
    ///   read back;
    /// * **retry** — otherwise the batch is evaluated, and per-point
    ///   panics are retried under [`RetryPolicy::compute`] (one immediate
    ///   serial retry); retries spent land in `health.retries`;
    /// * **store** — a batch whose every point is clean (finite, no
    ///   solver cause) is stored to the cache;
    /// * **kill site** — the `engine/ckpt-batch` fault site after each
    ///   batch is the chaos suite's kill point: everything before it is
    ///   already on disk.
    ///
    /// With no fault plan active and a panic-free evaluation, the `Ok`
    /// points are bitwise-identical to the legacy [`Self::sweep`] under
    /// any thread count, and `health` is all-ok; the ledger itself is
    /// derived serially from the input-ordered outcomes, so it is
    /// deterministic too.
    pub fn sweep_checked(&self, capacities: &[f64]) -> CheckedSweep {
        let mut sp = span("sweep/points");
        sp.add_points(capacities.len() as u64);
        self.prime(capacities);
        let timing = enabled(ObsLevel::Summary);
        let lat = metrics::histogram("engine/sweep_point_ns");
        let policy = RetryPolicy::compute();
        let threads = self.mode.threads();
        let cap = self.kernel.capability();
        let indexed: Vec<(usize, f64)> = capacities.iter().copied().enumerate().collect();
        let eval = |&(i, c): &(usize, f64), attempt: u32| {
            bevra_faults::panic_point_attempt("engine/point", i as u64, u64::from(attempt));
            timed_point(timing, &lat, || {
                let best_effort = self.best_effort(c);
                let reservation = self.reservation(c);
                let performance_gap = self.performance_gap(c);
                let (bandwidth_gap, gap_cause) = match self.bandwidth_gap(c) {
                    Ok(g) => (g, None),
                    Err(e) => (f64::NAN, Some(format!("bandwidth gap at C = {c}: {e}"))),
                };
                let point = SweepPoint {
                    capacity: c,
                    best_effort,
                    reservation,
                    performance_gap,
                    bandwidth_gap,
                };
                (point, gap_cause)
            })
        };

        let mut results = Vec::with_capacity(indexed.len());
        let mut retries = 0u64;
        for (batch_idx, batch) in indexed.chunks(BATCH_POINTS).enumerate() {
            let cs: Vec<f64> = batch.iter().map(|&(_, c)| c).collect();
            let cache = self.persist.as_ref().map(|pc| (pc, sweep_key(&self.model, &cs)));
            if let Some(points) = cache.and_then(|(pc, key)| pc.load_sweep(key, &cs)) {
                results.extend(points.into_iter().map(|pt| Ok((pt, None))));
            } else {
                let (done, spent) = parallel_map_supervised(batch, threads, &policy, eval);
                retries += spent;
                if let Some((pc, key)) = cache {
                    let clean: Option<Vec<SweepPoint>> = done
                        .iter()
                        .map(|r| match r {
                            Ok((pt, None)) if pt.is_finite() => Some(*pt),
                            _ => None,
                        })
                        .collect();
                    if let Some(points) = clean {
                        pc.store_sweep(key, &points);
                    }
                }
                results.extend(done);
            }
            // Kill site: a `panic:engine/ckpt-batch` rule crashes the
            // sweep *between* batches — every clean batch so far is
            // already on disk, so the next run resumes from here.
            bevra_faults::panic_point("engine/ckpt-batch", batch_idx as u64);
        }

        let mut health = SweepHealth::new();
        health.kernel = Some(cap.name.to_string());
        health.simd = Some(cap.simd.as_str().to_string());
        health.retries = retries;
        let outcomes = results
            .into_iter()
            .zip(&indexed)
            .map(|(r, &(index, capacity))| match r {
                Ok((pt, gap_cause)) => {
                    let mut non_finite_fields = 0u64;
                    for v in
                        [pt.best_effort, pt.reservation, pt.performance_gap, pt.bandwidth_gap]
                    {
                        if health.tally_non_finite(v) {
                            non_finite_fields += 1;
                        }
                    }
                    if let Some(cause) = gap_cause {
                        health.note_degraded(&cause);
                    } else if non_finite_fields > 0 {
                        health.note_degraded(&format!(
                            "{non_finite_fields} non-finite value(s) at C = {capacity}"
                        ));
                    } else {
                        health.note_ok();
                    }
                    PointOutcome::Ok(pt)
                }
                Err(e) => {
                    let cause = e.to_string();
                    health.note_failed(&cause);
                    PointOutcome::Failed { capacity, index, cause }
                }
            })
            .collect();
        CheckedSweep { outcomes, health }
    }

    /// Build the welfare sampling table `V(C)` for one architecture over
    /// the standard [`SampledValue::grid`], evaluating grid points in
    /// parallel per [`Self::mode`].
    ///
    /// Identical (bitwise) to `SampledValue::build` over the same model:
    /// `V_B(C) = k̄·B(C)` and `V_R(C) = k̄·R(C)` are evaluated by the
    /// same scalar code, only fanned out and memoized.
    pub fn value_table(
        &self,
        arch: Architecture,
        c_scale: f64,
        c_max: f64,
        n: usize,
    ) -> SampledValue {
        self.value_table_checked(arch, c_scale, c_max, n).0
    }

    /// [`Self::value_table`] plus a degradation ledger counting grid
    /// values that came out non-finite (from truncated load tables or
    /// injected corruption) — nothing non-finite enters a welfare table
    /// silently.
    pub fn value_table_checked(
        &self,
        arch: Architecture,
        c_scale: f64,
        c_max: f64,
        n: usize,
    ) -> (SampledValue, SweepHealth) {
        let cs = SampledValue::grid(c_scale, c_max, n);
        let mut sp = span(match arch {
            Architecture::BestEffort => "welfare/value-table-B",
            Architecture::Reservation => "welfare/value-table-R",
        });
        sp.add_points(cs.len() as u64);
        self.prime(&cs);
        let kbar = self.model.mean_load();
        let timing = enabled(ObsLevel::Summary);
        let lat = metrics::histogram("engine/value_point_ns");
        let vs = parallel_map_with(&cs, self.mode.threads(), |&c| {
            timed_point(timing, &lat, || match arch {
                Architecture::BestEffort => kbar * self.best_effort(c),
                Architecture::Reservation => kbar * self.reservation(c),
            })
        });
        let mut health = SweepHealth::new();
        let cap = self.kernel.capability();
        health.kernel = Some(cap.name.to_string());
        health.simd = Some(cap.simd.as_str().to_string());
        for (&c, &v) in cs.iter().zip(&vs) {
            if health.tally_non_finite(v) {
                health.note_degraded(&format!("non-finite welfare value at C = {c}"));
            } else {
                health.note_ok();
            }
        }
        (SampledValue::from_samples(cs, vs), health)
    }

    /// Equalizing price ratio `γ(p)` over a price grid, parallel per
    /// [`Self::mode`]: for each price, best-effort welfare comes from
    /// `sv_b` and the ratio is solved against `sv_r`. Failed solves
    /// surface as NaN.
    pub fn gamma_sweep(&self, prices: &[f64], sv_b: &SampledValue, sv_r: &SampledValue) -> Vec<f64> {
        self.gamma_sweep_checked(prices, sv_b, sv_r).0
    }

    /// [`Self::gamma_sweep`] plus a degradation ledger: each price whose
    /// ratio solve failed (NaN output) is counted degraded, with the
    /// solver's error as the recorded cause.
    pub fn gamma_sweep_checked(
        &self,
        prices: &[f64],
        sv_b: &SampledValue,
        sv_r: &SampledValue,
    ) -> (Vec<f64>, SweepHealth) {
        let mut sp = span("welfare/gamma");
        sp.add_points(prices.len() as u64);
        let timing = enabled(ObsLevel::Summary);
        let lat = metrics::histogram("engine/gamma_point_ns");
        let raw = parallel_map_with(prices, self.mode.threads(), |&p| {
            timed_point(timing, &lat, || {
                let wb = sv_b.welfare(p).welfare;
                match equalizing_price_ratio(|ph| sv_r.welfare(ph).welfare, wb, p) {
                    Ok(g) => (g, None),
                    Err(e) => (f64::NAN, Some(format!("gamma solve at p = {p}: {e}"))),
                }
            })
        });
        let mut health = SweepHealth::new();
        let mut out = Vec::with_capacity(raw.len());
        for (g, cause) in raw {
            match cause {
                Some(c) => {
                    health.tally_non_finite(g);
                    health.note_degraded(&c);
                }
                None if health.tally_non_finite(g) => {
                    health.note_degraded("non-finite gamma from a nominally successful solve");
                }
                None => health.note_ok(),
            }
            out.push(g);
        }
        (out, health)
    }

    /// Hit/miss counters of the three memo tables — plus the persistent
    /// cross-run cache, when one is attached — named for reports.
    pub fn cache_stats(&self) -> Vec<(String, CacheStats)> {
        let mut out = vec![
            ("k_max".into(), self.kmax.stats()),
            ("best_effort".into(), self.b.stats()),
            ("reservation".into(), self.r.stats()),
        ];
        if let Some(pc) = &self.persist {
            out.push(("persistent".into(), pc.stats()));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bevra_faults::{install, FaultKind, FaultPlan, FaultRule};
    use bevra_load::{Geometric, Poisson, Tabulated};
    use bevra_utility::{AdaptiveExp, Rigid};

    fn poisson_engine(mode: ExecMode) -> SweepEngine<AdaptiveExp> {
        let load = Tabulated::from_model(&Poisson::new(50.0), 1e-12, 1 << 16);
        SweepEngine::with_mode(DiscreteModel::new(load, AdaptiveExp::paper()), mode)
    }

    fn grid() -> Vec<f64> {
        (1..=24).map(|i| f64::from(i) * 9.0).collect()
    }

    /// Sweep under an empty fault plan: holding the install lock keeps a
    /// plan another test installs concurrently (a kill at
    /// `engine/ckpt-batch`, which every sweep crosses) out of this run.
    fn clean_sweep<U: Utility>(engine: &SweepEngine<U>, cs: &[f64]) -> Vec<SweepPoint> {
        let _guard = install(FaultPlan::seeded(0));
        engine.sweep(cs)
    }

    /// Keep injected-panic backtrace spam out of the test output without
    /// racing other tests on the global hook (installed once, filters by
    /// the fault marker, delegates everything else).
    fn silence_injected_panics() {
        static ONCE: std::sync::Once = std::sync::Once::new();
        ONCE.call_once(|| {
            let prev = std::panic::take_hook();
            std::panic::set_hook(Box::new(move |info| {
                let msg = info
                    .payload()
                    .downcast_ref::<String>()
                    .map(String::as_str)
                    .or_else(|| info.payload().downcast_ref::<&str>().copied())
                    .unwrap_or("");
                if !msg.contains("bevra-faults: injected panic") {
                    prev(info);
                }
            }));
        });
    }

    #[test]
    fn parallel_sweep_bitwise_matches_serial() {
        let cs = grid();
        let serial = clean_sweep(&poisson_engine(ExecMode::Serial), &cs);
        let par = clean_sweep(&poisson_engine(ExecMode::Parallel { threads: 8 }), &cs);
        for (s, p) in serial.iter().zip(&par) {
            assert_eq!(s.best_effort.to_bits(), p.best_effort.to_bits());
            assert_eq!(s.reservation.to_bits(), p.reservation.to_bits());
            assert_eq!(s.performance_gap.to_bits(), p.performance_gap.to_bits());
            assert_eq!(s.bandwidth_gap.to_bits(), p.bandwidth_gap.to_bits());
        }
    }

    #[test]
    fn engine_matches_legacy_model_path() {
        let cs = grid();
        let load = Tabulated::from_model(&Geometric::from_mean(50.0), 1e-12, 1 << 16);
        let model = DiscreteModel::new(load.clone(), Rigid::unit());
        let engine = SweepEngine::new(DiscreteModel::new(load, Rigid::unit()));
        for (&c, pt) in cs.iter().zip(clean_sweep(&engine, &cs)) {
            assert_eq!(model.best_effort(c).to_bits(), pt.best_effort.to_bits());
            assert_eq!(model.reservation(c).to_bits(), pt.reservation.to_bits());
            let legacy_gap = bevra_core::bandwidth_gap(&model, c).unwrap_or(f64::NAN);
            assert_eq!(legacy_gap.to_bits(), pt.bandwidth_gap.to_bits());
        }
    }

    #[test]
    fn caches_hit_on_resweep() {
        let engine = poisson_engine(ExecMode::Parallel { threads: 4 });
        let cs = grid();
        let first = clean_sweep(&engine, &cs);
        let misses_after_first: u64 = engine.cache_stats().iter().map(|(_, s)| s.misses).sum();
        let second = clean_sweep(&engine, &cs);
        let misses_after_second: u64 = engine.cache_stats().iter().map(|(_, s)| s.misses).sum();
        assert_eq!(misses_after_first, misses_after_second, "second sweep is all hits");
        for (a, b) in first.iter().zip(&second) {
            assert_eq!(a.best_effort.to_bits(), b.best_effort.to_bits());
        }
    }

    #[test]
    fn value_table_matches_sampled_build() {
        let load = Tabulated::from_model(&Poisson::new(50.0), 1e-12, 1 << 16);
        let model = DiscreteModel::new(load.clone(), AdaptiveExp::paper());
        let engine = SweepEngine::new(DiscreteModel::new(load, AdaptiveExp::paper()));
        let sv_legacy = SampledValue::build(|c| model.total_best_effort(c), 50.0, 5e3, 64);
        let sv_engine = engine.value_table(Architecture::BestEffort, 50.0, 5e3, 64);
        for c in [10.0, 75.0, 320.0, 4000.0] {
            assert_eq!(sv_legacy.value(c).to_bits(), sv_engine.value(c).to_bits(), "C={c}");
        }
    }

    #[test]
    fn batched_priming_matches_per_point_model_bitwise() {
        let cs = grid();
        let load = Tabulated::from_model(&Poisson::new(50.0), 1e-12, 1 << 16);
        let model = DiscreteModel::new(load, AdaptiveExp::paper());
        let batched = clean_sweep(&poisson_engine(ExecMode::Serial), &cs);
        let batched_par = clean_sweep(&poisson_engine(ExecMode::Parallel { threads: 5 }), &cs);
        for ((&c, b), p) in cs.iter().zip(&batched).zip(&batched_par) {
            let (be, rv) = (model.best_effort(c), model.reservation(c));
            let gap = bevra_core::bandwidth_gap(&model, c).unwrap_or(f64::NAN);
            assert_eq!(be.to_bits(), b.best_effort.to_bits());
            assert_eq!(rv.to_bits(), b.reservation.to_bits());
            assert_eq!(gap.to_bits(), b.bandwidth_gap.to_bits());
            assert_eq!(be.to_bits(), p.best_effort.to_bits());
            assert_eq!(rv.to_bits(), p.reservation.to_bits());
            assert_eq!(gap.to_bits(), p.bandwidth_gap.to_bits());
        }
    }

    #[test]
    fn persistent_cache_warm_run_hits_everything() {
        let dir = std::env::temp_dir()
            .join(format!("bevra-engine-pcache-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let cs = grid();

        // Cold run: computes and stores.
        let cold = poisson_engine(ExecMode::Serial).with_persistent_cache(
            crate::persist::PersistentCache::new(&dir, crate::persist::CacheMode::ReadWrite),
        );
        let first = clean_sweep(&cold, &cs);
        let cold_stats = cold.cache_stats();
        let (_, pc) = cold_stats.iter().find(|(n, _)| n == "persistent").expect("pcache stats");
        assert_eq!((pc.hits, pc.misses), (0, 1), "cold run misses once");

        // Warm run in a fresh engine (empty memo tables): loads instead of
        // computing, with bitwise-identical sweep output.
        let warm = poisson_engine(ExecMode::Serial).with_persistent_cache(
            crate::persist::PersistentCache::new(&dir, crate::persist::CacheMode::ReadWrite),
        );
        let second = clean_sweep(&warm, &cs);
        let warm_stats = warm.cache_stats();
        let (_, pw) = warm_stats.iter().find(|(n, _)| n == "persistent").expect("pcache stats");
        assert_eq!((pw.hits, pw.misses), (1, 0), "warm run is a pure hit");
        assert!((pw.hit_rate() - 1.0).abs() < 1e-15, "hit rate gauge is 100%");
        for (a, b) in first.iter().zip(&second) {
            assert_eq!(a.best_effort.to_bits(), b.best_effort.to_bits());
            assert_eq!(a.reservation.to_bits(), b.reservation.to_bits());
            assert_eq!(a.bandwidth_gap.to_bits(), b.bandwidth_gap.to_bits());
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn transient_point_panic_is_rescued_and_ledgered() {
        let cs = grid();
        let reference = clean_sweep(&poisson_engine(ExecMode::Serial), &cs);
        let plan = FaultPlan::seeded(0)
            .rule(FaultRule::at_key(FaultKind::Panic, "engine/point", 3).with_n(1));
        let checked = {
            silence_injected_panics();
            let _guard = install(plan);
            poisson_engine(ExecMode::Serial).sweep_checked(&cs)
        };
        assert_eq!(checked.health.failed, 0, "transient fault was rescued");
        assert_eq!(checked.health.retries, 1, "the rescue is ledgered");
        for (a, b) in reference.iter().zip(checked.points()) {
            assert_eq!(a.best_effort.to_bits(), b.best_effort.to_bits());
            assert_eq!(a.bandwidth_gap.to_bits(), b.bandwidth_gap.to_bits());
        }
    }

    #[test]
    fn gamma_sweep_parallel_matches_serial() {
        let ps: Vec<f64> = (0..12).map(|i| 1e-3 * 1.8f64.powi(i)).collect();
        let serial = poisson_engine(ExecMode::Serial);
        let sb = serial.value_table(Architecture::BestEffort, 50.0, 1e4, 200);
        let sr = serial.value_table(Architecture::Reservation, 50.0, 1e4, 200);
        let gs = serial.gamma_sweep(&ps, &sb, &sr);
        let par = poisson_engine(ExecMode::Parallel { threads: 8 });
        let pb = par.value_table(Architecture::BestEffort, 50.0, 1e4, 200);
        let pr = par.value_table(Architecture::Reservation, 50.0, 1e4, 200);
        let gp = par.gamma_sweep(&ps, &pb, &pr);
        for (a, b) in gs.iter().zip(&gp) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }
}
