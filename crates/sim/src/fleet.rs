//! Sharded multi-lane simulation — the ≥10M-flow execution layer.
//!
//! A *fleet* runs `lanes` independent virtual event loops of one base
//! configuration, each lane seeded by
//! [`rand::derive_seed`]`(base.seed, lane)`, and merges their
//! reports into a single pooled [`SimReport`]. Lanes are the **semantic**
//! unit: the fleet's result is defined as "lane 0's report merged with
//! lane 1's, merged with lane 2's, …" — a fold in strict lane order.
//!
//! *Shards* are the **execution** unit: [`shard_count`] (the worker-thread
//! count) groups lanes into contiguous chunks via
//! [`bevra_engine::chunk_ranges`], and each shard runs its lanes serially
//! on one pool worker. Because the chunking is contiguous and lane slots
//! are merged in index order, the result is bitwise-invariant under the
//! shard count and `BEVRA_THREADS` (pinned by `tests/determinism.rs`).
//!
//! # Failure recovery
//!
//! Each shard runs under the engine pool's panic isolation and passes
//! through the `panic:sim/shard` fault site keyed by shard index; each
//! lane additionally crosses `panic:sim/lane` (keyed by lane, attempt 0)
//! so chaos plans can kill a single lane. A panicked shard no longer
//! condemns its lanes outright: after the parallel phase, a serial
//! [`Supervisor`] re-runs each missing lane individually — in strict lane
//! order, from the lane's derived seed, re-crossing `sim/lane` with an
//! incremented attempt index — under the ambient
//! [`RetryPolicy`] (`BEVRA_RETRY`, default one immediate retry). A
//! transient fault (`n=`-bounded rule) is thereby *rescued*: the restarted
//! lane reproduces its exact bits and the merged digest equals the
//! fault-free run's, with the restart recorded in
//! [`FleetHealth::restarts`]. Persistent faults exhaust the policy, trip
//! the supervisor's [`CircuitBreaker`]
//! ([`FleetHealth::breaker_trips`]), and remaining dead lanes are
//! rejected fast, each recorded as a single-lane [`ShardFailure`].
//! Because recovery is serial and seeded, rescued runs replay
//! identically. Budget exhaustion inside a lane (the `sim/budget`
//! watchdog) and cooperative deadline expiry are *not* failures: the
//! lane's partial report merges and the lane is counted in
//! [`FleetHealth::truncated_lanes`].
//!
//! # Checkpoint/resume
//!
//! With `BEVRA_CHECKPOINT=rw` (see [`crate::ckpt`]) the fleet persists
//! completed clean lanes after every [`GROUP_SHARDS`] shards, crossing
//! the `panic:sim/fleet-ckpt` kill site between groups, and restores them
//! bitwise on the next run — a killed ≥10M-flow fleet resumes instead of
//! starting over, and the resumed merged digest is identical to an
//! uninterrupted run's.

use crate::ckpt::{FleetCheckpoint, GROUP_SHARDS};
use crate::runner::{QueueKind, SimConfig, SimError, SimReport, Simulation};
use bevra_obs::metrics;
use bevra_resilience::{ambient_clock, CircuitBreaker, Deadline, RetryPolicy, Supervisor};
use rand::derive_seed;

/// Consecutive dead lanes that trip the recovery breaker.
const BREAKER_THRESHOLD: u32 = 3;

/// Rejected lanes between half-open probes once the breaker is open.
const BREAKER_PROBE_AFTER: u32 = 4;

/// Number of shards (contiguous lane chunks) [`Fleet::run`] splits its
/// lanes into: one per engine worker. Any count yields the identical
/// merged report.
#[must_use]
pub fn shard_count() -> usize {
    bevra_engine::thread_count()
}

/// Configuration of a fleet run: one base [`SimConfig`] replicated across
/// independently-seeded lanes.
#[derive(Clone)]
pub struct FleetConfig {
    /// Per-lane simulation parameters. `base.seed` is the fleet's master
    /// seed; lane `i` runs with `derive_seed(base.seed, i)`.
    pub base: SimConfig,
    /// Number of independent virtual event loops. Fixed per config —
    /// changing it changes the result; changing shards/threads does not.
    pub lanes: u32,
}

/// One failed recovery unit, for the health ledger.
#[derive(Debug, Clone)]
pub struct ShardFailure {
    /// Shard index (into the run's contiguous lane chunking) the lanes
    /// belonged to.
    pub shard: u32,
    /// Lanes that produced no report. Since per-lane recovery, each entry
    /// covers the single lane that stayed dead (or was rejected by the
    /// open breaker) after supervision.
    pub lanes: std::ops::Range<u32>,
    /// The failure, rendered as text (panic payload, or the breaker's
    /// rejection).
    pub error: String,
}

/// `SweepHealth`-style accounting of a fleet run.
#[derive(Debug, Clone, Default)]
pub struct FleetHealth {
    /// Lanes whose reports merged into the pooled result.
    pub ok_lanes: u32,
    /// Of the ok lanes, how many were truncated by the `sim/budget`
    /// watchdog or the cooperative deadline (their partial reports still
    /// merged).
    pub truncated_lanes: u32,
    /// Lane re-executions performed by the recovery supervisor (every
    /// restart attempt of a panicked lane counts one, successful or not).
    pub restarts: u64,
    /// Times the recovery breaker tripped open on persistent lane death.
    pub breaker_trips: u64,
    /// Lanes that stayed dead after supervision (one entry per lane).
    pub failed: Vec<ShardFailure>,
}

impl FleetHealth {
    /// True when every lane merged.
    #[must_use]
    pub fn all_ok(&self) -> bool {
        self.failed.is_empty()
    }

    /// Lanes lost to failed shards.
    #[must_use]
    pub fn failed_lanes(&self) -> u32 {
        self.failed.iter().map(|f| f.lanes.end - f.lanes.start).sum()
    }
}

/// Result of a fleet run.
#[derive(Debug, Clone)]
pub struct FleetReport {
    /// All surviving lanes' reports, folded in strict lane order.
    /// `merged.digest()` is the fleet's canonical digest — invariant
    /// under the shard count, `BEVRA_THREADS`, and the [`QueueKind`].
    pub merged: SimReport,
    /// Per-lane digests (`None` for lanes that stayed dead) — the
    /// accounting granularity the chaos suite checks.
    pub lane_digests: Vec<Option<u64>>,
    /// Failure/truncation/recovery accounting.
    pub health: FleetHealth,
    /// Wall-clock seconds the fleet spent executing shards.
    pub seconds: f64,
}

impl FleetReport {
    /// Events per wall-clock second across all surviving lanes — the
    /// headline throughput figure (also exported as the
    /// `sim/fleet/events_per_sec` gauge).
    #[must_use]
    pub fn events_per_sec(&self) -> f64 {
        if self.seconds > 0.0 {
            self.merged.events as f64 / self.seconds
        } else {
            0.0
        }
    }
}

/// A fleet instance. Create with [`Fleet::new`], run with [`Fleet::run`].
pub struct Fleet {
    cfg: FleetConfig,
    ckpt: Option<FleetCheckpoint>,
    restarts_enabled: bool,
}

impl Fleet {
    /// New fleet from a config, with the ambient checkpoint store
    /// (`BEVRA_CHECKPOINT`) if one is configured.
    ///
    /// # Panics
    ///
    /// Panics when `lanes == 0` or the base config is invalid (see
    /// [`Simulation::new`]).
    #[must_use]
    pub fn new(cfg: FleetConfig) -> Self {
        assert!(cfg.lanes > 0, "a fleet needs at least one lane");
        assert!(cfg.base.capacity > 0.0, "capacity must be positive");
        assert!(cfg.base.horizon > 0.0, "horizon must be positive");
        Self { cfg, ckpt: FleetCheckpoint::from_env("bevra-sim"), restarts_enabled: true }
    }

    /// Replace the checkpoint store (builder style) — tests and embedders
    /// inject explicit stores without touching the environment.
    #[must_use]
    pub fn with_checkpoint(mut self, store: FleetCheckpoint) -> Self {
        self.ckpt = Some(store);
        self
    }

    /// Disable lane-restart recovery (builder style): panicked lanes stay
    /// dead. Exists for the mutation test that proves a dropped restart
    /// is caught by the digest pin — production code never calls this.
    #[must_use]
    pub fn without_restarts(mut self) -> Self {
        self.restarts_enabled = false;
        self
    }

    /// The active checkpoint store, if any.
    #[must_use]
    pub fn checkpoint_store(&self) -> Option<&FleetCheckpoint> {
        self.ckpt.as_ref()
    }

    /// Content-hash key of this fleet's results: the base config's
    /// [`SimConfig::fingerprint`] folded with the lane count. Checkpoint
    /// entries are stored under this key.
    #[must_use]
    pub fn fingerprint(&self) -> u64 {
        let mut h = self.cfg.base.fingerprint();
        crate::stats::fnv_fold(&mut h, u64::from(self.cfg.lanes));
        h
    }

    /// The [`SimConfig`] lane `lane` runs: the base with its derived seed.
    #[must_use]
    pub fn lane_config(&self, lane: u32) -> SimConfig {
        let mut cfg = self.cfg.base.clone();
        cfg.seed = derive_seed(self.cfg.base.seed, u64::from(lane));
        cfg
    }

    /// Run the fleet at [`shard_count`] shards on the timer wheel.
    #[must_use]
    pub fn run(&self) -> FleetReport {
        self.run_on(shard_count(), QueueKind::Wheel)
    }

    /// Run the fleet with an explicit shard count and queue kind — the
    /// determinism suite calls this with several shard counts and asserts
    /// one digest.
    #[allow(clippy::too_many_lines)]
    #[must_use]
    pub fn run_on(&self, shards: usize, queue: QueueKind) -> FleetReport {
        let lanes = self.cfg.lanes as usize;
        let mut sp = bevra_obs::span("sim/fleet");
        sp.add_points(lanes as u64);
        let ranges = bevra_engine::chunk_ranges(lanes, shards.max(1));
        let started = std::time::Instant::now();
        // One cooperative deadline shared by every lane: the whole fleet
        // gets a single `BEVRA_DEADLINE_MS` budget, not one per lane.
        let deadline = Deadline::from_env("bevra-sim");
        let mut health = FleetHealth::default();

        // Per-lane result slots, filled by checkpoint restore, the
        // parallel shard phase, and the recovery loop — then merged in
        // strict lane order, which is what keeps the digest invariant
        // under any shard/thread count and any restore/recovery mix.
        let mut slots: Vec<Option<(SimReport, bool)>> = (0..lanes).map(|_| None).collect();
        let key = self.fingerprint();
        let mut restored = vec![false; lanes];
        if let Some(cs) = &self.ckpt {
            for (lane, report) in cs.load(key, lanes).into_iter().enumerate() {
                if let Some(r) = report {
                    slots[lane] = Some((r, false));
                    restored[lane] = true;
                }
            }
        }

        // One simulated lane, shared by the shard phase (attempt 0) and
        // the recovery loop (attempt ≥ 1). Budget/deadline truncation is
        // degradation, not failure.
        let run_lane = |lane: usize, attempt: u64| -> (SimReport, bool) {
            bevra_faults::panic_point_attempt("sim/lane", lane as u64, attempt);
            let sim = Simulation::new(self.lane_config(lane as u32));
            match sim.run_checked_deadline_on(queue, deadline) {
                Ok(r) => (r, false),
                Err(
                    SimError::BudgetExhausted { partial, .. }
                    | SimError::DeadlineExpired { partial, .. },
                ) => (*partial, true),
            }
        };

        // Parallel phase: one pool item per shard, each running its
        // not-yet-restored lanes serially. No pool-level retry — recovery
        // is the serial supervisor's job, so a panicked shard costs at
        // most one wasted partial pass.
        let todo: Vec<(usize, std::ops::Range<usize>)> = ranges
            .iter()
            .cloned()
            .enumerate()
            .filter(|(_, r)| r.clone().any(|lane| !restored[lane]))
            .collect();
        let single_attempt = RetryPolicy {
            max_attempts: 1,
            base_backoff_ms: 0,
            max_backoff_ms: 0,
            total_budget_ms: 0,
            seed: 0,
        };
        let mut failed_shards: Vec<(usize, String)> = Vec::new();
        let group = if self.ckpt.is_some() { GROUP_SHARDS } else { todo.len().max(1) };
        for (group_idx, chunk) in todo.chunks(group).enumerate() {
            let (results, _) = bevra_engine::parallel_map_supervised(
                chunk,
                bevra_engine::thread_count().min(chunk.len()),
                &single_attempt,
                |item: &(usize, std::ops::Range<usize>), _attempt| {
                    let (shard, range) = item;
                    bevra_faults::panic_point("sim/shard", *shard as u64);
                    let mut sh = bevra_obs::span("sim/fleet/shard");
                    sh.add_points(range.len() as u64);
                    let mut out = Vec::with_capacity(range.len());
                    for lane in range.clone() {
                        if restored[lane] {
                            continue;
                        }
                        let (report, truncated) = run_lane(lane, 0);
                        out.push((lane, report, truncated));
                    }
                    out
                },
            );
            for ((shard, _), result) in chunk.iter().zip(results) {
                match result {
                    Ok(lane_reports) => {
                        for (lane, report, truncated) in lane_reports {
                            slots[lane] = Some((report, truncated));
                        }
                    }
                    Err(e) => failed_shards.push((*shard, e.to_string())),
                }
            }
            if let Some(cs) = &self.ckpt {
                cs.store(key, lanes, &clean_lanes(&slots));
                bevra_faults::panic_point("sim/fleet-ckpt", group_idx as u64);
            }
        }

        // Recovery: re-run each missing lane individually, serially, in
        // lane order, under the ambient retry policy and a breaker that
        // fails fast on persistent death. Serial + seeded = the rescue
        // replays identically regardless of shard/thread counts.
        if !failed_shards.is_empty() && self.restarts_enabled {
            let policy = RetryPolicy::from_env("bevra-sim", RetryPolicy::compute());
            let mut sup = Supervisor::new(
                policy,
                CircuitBreaker::new(BREAKER_THRESHOLD, BREAKER_PROBE_AFTER),
            );
            let mut clock = ambient_clock();
            for (shard, shard_error) in &failed_shards {
                for lane in ranges[*shard].clone() {
                    if slots[lane].is_some() {
                        continue;
                    }
                    let mut last_error = shard_error.clone();
                    let rejected_before = sup.stats().rejected;
                    let got = sup.run_unit(&mut *clock, |attempt| {
                        health.restarts += 1;
                        // Attempt 0 was the lane's pass inside the
                        // panicked shard; recovery re-crosses the fault
                        // site from attempt 1, so `n`-bounded (transient)
                        // rules stop firing and the lane reproduces its
                        // exact bits from the derived seed.
                        match std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                            run_lane(lane, u64::from(attempt) + 1)
                        })) {
                            Ok(r) => Ok(r),
                            Err(payload) => {
                                last_error = panic_message(payload.as_ref());
                                Err(last_error.clone())
                            }
                        }
                    });
                    match got {
                        Some((report, truncated)) => slots[lane] = Some((report, truncated)),
                        None => {
                            let error = if sup.stats().rejected > rejected_before {
                                format!(
                                    "lane {lane} not restarted: breaker open after repeated lane death"
                                )
                            } else {
                                format!("lane {lane} dead after restarts: {last_error}")
                            };
                            health.failed.push(ShardFailure {
                                shard: *shard as u32,
                                lanes: lane as u32..lane as u32 + 1,
                                error,
                            });
                        }
                    }
                }
            }
            health.breaker_trips = sup.breaker_trips();
            if let Some(cs) = &self.ckpt {
                cs.store(key, lanes, &clean_lanes(&slots));
            }
        } else if !failed_shards.is_empty() {
            // Restarts disabled (mutation-test knob): dead shards stay
            // dead, one failure entry per shard as before.
            for (shard, error) in &failed_shards {
                let r = &ranges[*shard];
                health.failed.push(ShardFailure {
                    shard: *shard as u32,
                    lanes: r.start as u32..r.end as u32,
                    error: error.clone(),
                });
            }
        }

        // Merge in strict lane order.
        let seconds = started.elapsed().as_secs_f64();
        let mut merged = SimReport::empty();
        let mut lane_digests: Vec<Option<u64>> = vec![None; lanes];
        for (lane, slot) in slots.iter().enumerate() {
            if let Some((report, truncated)) = slot {
                lane_digests[lane] = Some(report.digest());
                merge_into(&mut merged, report);
                health.ok_lanes += 1;
                health.truncated_lanes += u32::from(*truncated);
            }
        }
        if let Some(cs) = &self.ckpt {
            if health.failed.is_empty() && health.truncated_lanes == 0 {
                cs.clear(key);
            }
        }

        metrics::counter("sim/fleet/lanes_ok").add(u64::from(health.ok_lanes));
        metrics::counter("sim/fleet/lanes_failed").add(u64::from(health.failed_lanes()));
        metrics::counter("sim/fleet/lane_restarts").add(health.restarts);
        metrics::counter("sim/fleet/breaker_trips").add(health.breaker_trips);
        let report = FleetReport { merged, lane_digests, health, seconds };
        metrics::gauge("sim/fleet/events_per_sec").set(report.events_per_sec());
        report
    }
}

/// The clean (untruncated) completed lanes, ready to checkpoint.
fn clean_lanes(slots: &[Option<(SimReport, bool)>]) -> Vec<(usize, &SimReport)> {
    slots
        .iter()
        .enumerate()
        .filter_map(|(lane, slot)| match slot {
            Some((report, false)) => Some((lane, report)),
            _ => None,
        })
        .collect()
}

/// Render a panic payload as text (the pool's convention).
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "panic with non-string payload".to_string()
    }
}

/// Fold `lane` into `acc` (strict-order merge: counters add, Welfords
/// combine via Chan's formula, censuses add element-wise).
fn merge_into(acc: &mut SimReport, lane: &SimReport) {
    acc.completed += lane.completed;
    acc.lost += lane.lost;
    acc.blocked_attempts += lane.blocked_attempts;
    acc.attempts += lane.attempts;
    acc.retries += lane.retries;
    acc.events += lane.events;
    acc.utility_at_admission.merge(&lane.utility_at_admission);
    acc.utility_time_avg.merge(&lane.utility_time_avg);
    acc.utility_worst.merge(&lane.utility_worst);
    acc.census.merge(&lane.census);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arrivals::MixedPoisson;
    use crate::holding::HoldingDist;
    use crate::link::Discipline;
    use bevra_engine::CacheMode;
    use bevra_faults::{install, FaultKind, FaultPlan, FaultRule};
    use bevra_utility::AdaptiveExp;
    use std::sync::Arc;

    fn fleet_cfg(lanes: u32) -> FleetConfig {
        FleetConfig {
            base: SimConfig {
                capacity: 25.0,
                discipline: Discipline::BestEffort,
                arrivals: MixedPoisson::fixed(20.0),
                holding: HoldingDist::Exponential { mean: 1.0 },
                utility: Arc::new(AdaptiveExp::paper()),
                warmup: 20.0,
                horizon: 300.0,
                seed: 7,
                max_events: None,
            },
            lanes,
        }
    }

    /// Run `fleet` under an empty fault plan: holding the install lock
    /// keeps a plan another test installs concurrently out of this run.
    fn clean_run(fleet: &Fleet, shards: usize, queue: QueueKind) -> FleetReport {
        let _guard = install(FaultPlan::seeded(0));
        fleet.run_on(shards, queue)
    }

    /// Suppress the default panic-hook noise for injected panics only
    /// (they are expected and caught); everything else still prints.
    fn silence_injected_panics() {
        static ONCE: std::sync::Once = std::sync::Once::new();
        ONCE.call_once(|| {
            let prev = std::panic::take_hook();
            std::panic::set_hook(Box::new(move |info| {
                let injected = info
                    .payload()
                    .downcast_ref::<String>()
                    .is_some_and(|s| s.contains("bevra-faults: injected panic"));
                if !injected {
                    prev(info);
                }
            }));
        });
    }

    #[test]
    fn digest_invariant_across_shard_counts() {
        let fleet = Fleet::new(fleet_cfg(10));
        let reference = clean_run(&fleet, 1, QueueKind::Wheel);
        assert!(reference.health.all_ok());
        assert_eq!(reference.health.ok_lanes, 10);
        for shards in [2, 3, 7, 10, 64] {
            let r = clean_run(&fleet, shards, QueueKind::Wheel);
            assert_eq!(
                r.merged.digest(),
                reference.merged.digest(),
                "digest drifted at {shards} shards"
            );
            assert_eq!(r.lane_digests, reference.lane_digests);
        }
        // Queue choice is invisible too.
        let heap = clean_run(&fleet, 3, QueueKind::Heap);
        assert_eq!(heap.merged.digest(), reference.merged.digest());
    }

    #[test]
    fn single_lane_merge_is_identity() {
        let fleet = Fleet::new(fleet_cfg(1));
        let r = clean_run(&fleet, 1, QueueKind::Wheel);
        let solo = Simulation::new(fleet.lane_config(0)).run();
        assert_eq!(r.merged.digest(), solo.digest());
        assert_eq!(r.merged.events, solo.events);
    }

    #[test]
    fn merged_counters_equal_lane_sums() {
        let fleet = Fleet::new(fleet_cfg(4));
        let r = clean_run(&fleet, 2, QueueKind::Wheel);
        let mut completed = 0;
        let mut events = 0;
        let mut utility_n = 0;
        for lane in 0..4 {
            let solo = Simulation::new(fleet.lane_config(lane)).run();
            completed += solo.completed;
            events += solo.events;
            utility_n += solo.utility_time_avg.count();
        }
        assert_eq!(r.merged.completed, completed);
        assert_eq!(r.merged.events, events);
        assert_eq!(r.merged.utility_time_avg.count(), utility_n);
        assert!(r.seconds > 0.0);
        assert!(r.events_per_sec() > 0.0);
    }

    #[test]
    fn lanes_decorrelate_via_derived_seeds() {
        let fleet = Fleet::new(fleet_cfg(3));
        let r = clean_run(&fleet, 1, QueueKind::Wheel);
        let digests: Vec<_> = r.lane_digests.iter().flatten().copied().collect();
        assert_eq!(digests.len(), 3);
        assert!(digests.windows(2).all(|w| w[0] != w[1]), "lane seeds must differ");
    }

    #[test]
    fn lane_budget_truncation_is_accounted_not_fatal() {
        let mut cfg = fleet_cfg(3);
        cfg.base.max_events = Some(2_000);
        let r = clean_run(&Fleet::new(cfg), 2, QueueKind::Wheel);
        assert!(r.health.all_ok(), "budget exhaustion is not a shard failure");
        assert_eq!(r.health.ok_lanes, 3);
        assert_eq!(r.health.truncated_lanes, 3);
        assert_eq!(r.merged.events, 6_000, "each lane stops at exactly its budget");
    }

    #[test]
    fn transient_lane_panic_is_restarted_to_identical_bits() {
        silence_injected_panics();
        let fleet = Fleet::new(fleet_cfg(6));
        let reference = clean_run(&fleet, 3, QueueKind::Wheel);
        // Lane 2 panics on its first attempt only; the supervisor's
        // restart reproduces it from the derived seed.
        let plan = FaultPlan::seeded(0)
            .rule(FaultRule::at_key(FaultKind::Panic, "sim/lane", 2).with_n(1));
        let r = {
            let _guard = install(plan);
            fleet.run_on(3, QueueKind::Wheel)
        };
        assert!(r.health.all_ok(), "transient fault must be rescued: {:?}", r.health.failed);
        assert_eq!(r.health.ok_lanes, 6);
        // The dead shard covered lanes 2 and 3; both re-execute once.
        assert_eq!(r.health.restarts, 2, "both lanes of the dead shard re-execute");
        assert_eq!(r.health.breaker_trips, 0);
        assert_eq!(
            r.merged.digest(),
            reference.merged.digest(),
            "rescued run must be bitwise-identical to the fault-free run"
        );
        assert_eq!(r.lane_digests, reference.lane_digests);
    }

    #[test]
    fn permanent_shard_panic_is_rescued_lane_by_lane() {
        silence_injected_panics();
        let fleet = Fleet::new(fleet_cfg(6));
        let reference = clean_run(&fleet, 3, QueueKind::Wheel);
        // The shard site is only crossed by whole shards — individual
        // lane re-runs bypass it, so even a *permanent* shard fault is
        // fully rescued by per-lane recovery.
        let plan =
            FaultPlan::seeded(0).rule(FaultRule::always(FaultKind::Panic, "sim/shard"));
        let r = {
            let _guard = install(plan);
            fleet.run_on(3, QueueKind::Wheel)
        };
        assert!(r.health.all_ok(), "per-lane recovery bypasses the shard site");
        assert_eq!(r.health.restarts, 6, "every lane re-executed once");
        assert_eq!(r.merged.digest(), reference.merged.digest());
    }

    #[test]
    fn permanent_lane_death_trips_the_breaker_and_isolates() {
        silence_injected_panics();
        let fleet = Fleet::new(fleet_cfg(8));
        let reference = clean_run(&fleet, 1, QueueKind::Wheel);
        // Every lane dies permanently: the first BREAKER_THRESHOLD lanes
        // burn their restart budget, then the breaker opens and most of
        // the rest are rejected without wasted attempts.
        let plan =
            FaultPlan::seeded(0).rule(FaultRule::always(FaultKind::Panic, "sim/lane"));
        let r = {
            let _guard = install(plan);
            fleet.run_on(2, QueueKind::Wheel)
        };
        assert_eq!(r.health.ok_lanes, 0);
        assert_eq!(r.health.failed_lanes(), 8);
        assert_eq!(r.health.failed.len(), 8, "one failure entry per dead lane");
        assert!(r.health.breaker_trips >= 1, "persistent death must trip the breaker");
        assert!(
            r.health.restarts < 16,
            "the open breaker must fail fast, not burn the full budget on every lane: {}",
            r.health.restarts
        );
        assert!(r.health.failed.iter().any(|f| f.error.contains("breaker open")));
        drop(reference);
    }

    #[test]
    fn single_dead_lane_leaves_other_lanes_bitwise_intact() {
        silence_injected_panics();
        let fleet = Fleet::new(fleet_cfg(6));
        let reference = clean_run(&fleet, 3, QueueKind::Wheel);
        let plan =
            FaultPlan::seeded(0).rule(FaultRule::at_key(FaultKind::Panic, "sim/lane", 4));
        let r = {
            let _guard = install(plan);
            fleet.run_on(3, QueueKind::Wheel)
        };
        assert_eq!(r.health.failed_lanes(), 1);
        assert_eq!(r.health.ok_lanes, 5);
        for lane in [0usize, 1, 2, 3, 5] {
            assert_eq!(
                r.lane_digests[lane], reference.lane_digests[lane],
                "surviving lane {lane} must be unchanged"
            );
        }
        assert_eq!(r.lane_digests[4], None);
    }

    #[test]
    fn dropped_restart_is_caught_by_the_digest() {
        silence_injected_panics();
        let fleet = Fleet::new(fleet_cfg(6));
        let reference = clean_run(&fleet, 3, QueueKind::Wheel);
        // Mutation test: with restarts disabled, the same transient fault
        // that recovery would rescue instead changes the merged digest —
        // i.e. the digest pin *does* catch a silently dropped restart.
        let plan = FaultPlan::seeded(0)
            .rule(FaultRule::at_key(FaultKind::Panic, "sim/lane", 2).with_n(1));
        let crippled = Fleet::new(fleet_cfg(6)).without_restarts();
        let r = {
            let _guard = install(plan);
            crippled.run_on(3, QueueKind::Wheel)
        };
        assert!(!r.health.all_ok(), "without restarts the shard stays dead");
        assert_eq!(r.health.restarts, 0);
        assert_ne!(
            r.merged.digest(),
            reference.merged.digest(),
            "a dropped restart must be visible in the digest"
        );
        drop(fleet);
    }

    fn tmp_store(tag: &str) -> FleetCheckpoint {
        let d =
            std::env::temp_dir().join(format!("bevra-fleet-run-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        FleetCheckpoint::new(d, CacheMode::ReadWrite)
    }

    #[test]
    fn killed_fleet_resumes_bitwise_from_checkpoint() {
        silence_injected_panics();
        let reference = clean_run(&Fleet::new(fleet_cfg(8)), 8, QueueKind::Wheel);

        // 8 shards in groups of GROUP_SHARDS = 2 groups; kill after the
        // first group's checkpoint is stored.
        let plan = FaultPlan::seeded(0)
            .rule(FaultRule::at_key(FaultKind::Panic, "sim/fleet-ckpt", 0));
        let store = tmp_store("kill");
        let dir = store.dir().to_path_buf();
        let interrupted = {
            let _guard = install(plan);
            let fleet = Fleet::new(fleet_cfg(8)).with_checkpoint(store);
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                fleet.run_on(8, QueueKind::Wheel)
            }))
        };
        assert!(interrupted.is_err(), "the kill site must abort the run");

        // Resume with a fresh store over the same directory: the first
        // group's lanes restore from disk, the rest are simulated.
        let resume_store = FleetCheckpoint::new(dir, CacheMode::ReadWrite);
        let fleet = Fleet::new(fleet_cfg(8)).with_checkpoint(resume_store);
        let resumed = clean_run(&fleet, 8, QueueKind::Wheel);
        let cs = fleet.checkpoint_store().expect("store attached");
        assert!(cs.restored_lanes() > 0, "resume must restore checkpointed lanes");
        assert!(resumed.health.all_ok());
        assert_eq!(
            resumed.merged.digest(),
            reference.merged.digest(),
            "resumed fleet must be bitwise-identical to an uninterrupted run"
        );
        assert_eq!(resumed.lane_digests, reference.lane_digests);
        assert!(
            cs.load(fleet.fingerprint(), 8).iter().all(Option::is_none),
            "a fully clean fleet clears its checkpoint"
        );
    }
}
