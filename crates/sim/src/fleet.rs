//! Multi-lane simulation — the ≥10M-flow execution layer.
//!
//! A *fleet* runs `lanes` independent virtual event loops of one base
//! configuration, each lane seeded by
//! [`rand::derive_seed`]`(base.seed, lane)`, and merges their
//! reports into a single pooled [`SimReport`]. The fleet's result is
//! defined as "lane 0's report merged with lane 1's, merged with lane
//! 2's, …" — a fold in strict lane order.
//!
//! Each lane is one item of an engine pool pass
//! ([`bevra_engine::parallel_map_supervised`]): the workers pull lanes one
//! at a time, and the reports are merged in lane order afterwards, so the
//! result is bitwise-invariant under the worker count and `BEVRA_THREADS`
//! (pinned by `tests/determinism.rs`).
//!
//! # Failure recovery
//!
//! The pool's per-item attempts are the one re-run rule for lanes, as they
//! are for sweep points. Each attempt of lane `l` crosses
//! `panic:sim/lane` keyed by `l` at the attempt index, so chaos plans can
//! kill a single lane. A panicked lane is re-run at once on the same
//! worker from its derived seed, up to [`LANE_RESTARTS`] times. A lane is
//! a pure function of its seed, so a transient fault (an `n`-bounded rule
//! with `n ≤ LANE_RESTARTS`) is *rescued*: the re-run reproduces the
//! lane's exact bits and the merged digest equals the fault-free run's,
//! with every re-run counted in [`FleetHealth::restarts`]. A lane still
//! dead after its last re-run would die on every further one, so it is
//! recorded as a [`LaneFailure`] and the other lanes merge as usual.
//! Budget exhaustion inside a lane (the `sim/budget` watchdog) is *not* a
//! failure: the lane's partial report merges and the lane is counted in
//! [`FleetHealth::truncated_lanes`].

use crate::runner::{QueueKind, SimConfig, SimError, SimReport, Simulation};
use rand::derive_seed;

/// Re-runs a panicked lane gets before it is recorded failed.
pub const LANE_RESTARTS: u32 = 2;

/// Worker count [`Fleet::run`] uses: the engine pool's
/// [`bevra_engine::thread_count`]. Any count yields the identical merged
/// report.
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
    /// changing it changes the result; changing the worker count does not.
    pub lanes: u32,
}

/// One lane that stayed dead, for the health ledger.
#[derive(Debug, Clone)]
pub struct LaneFailure {
    /// The lane that produced no report: still dead after its
    /// [`LANE_RESTARTS`] re-runs.
    pub lane: u32,
    /// The lane's pool error, which carries its first panic message.
    pub error: String,
}

/// `SweepHealth`-style accounting of a fleet run.
#[derive(Debug, Clone, Default)]
pub struct FleetHealth {
    /// Lanes whose reports merged into the pooled result.
    pub ok_lanes: u32,
    /// Of the ok lanes, how many were truncated by the `sim/budget`
    /// watchdog (their partial reports still merged).
    pub truncated_lanes: u32,
    /// Lane re-runs after a panic (every re-run counts one, successful
    /// or not).
    pub restarts: u64,
    /// Lanes still dead after their re-runs (one entry per lane).
    pub failed: Vec<LaneFailure>,
}

impl FleetHealth {
    /// True when every lane merged.
    #[must_use]
    pub fn all_ok(&self) -> bool {
        self.failed.is_empty()
    }

    /// Lanes still dead after their re-runs.
    #[must_use]
    pub fn failed_lanes(&self) -> u32 {
        self.failed.len() as u32
    }
}

/// Result of a fleet run.
#[derive(Debug, Clone)]
pub struct FleetReport {
    /// All surviving lanes' reports, folded in strict lane order.
    /// `merged.digest()` is the fleet's canonical digest — invariant
    /// under the worker count, `BEVRA_THREADS`, and the [`QueueKind`].
    pub merged: SimReport,
    /// Per-lane digests (`None` for lanes that stayed dead) — the
    /// accounting granularity the chaos suite checks.
    pub lane_digests: Vec<Option<u64>>,
    /// Failure/truncation/recovery accounting.
    pub health: FleetHealth,
    /// Wall-clock seconds the fleet spent running its lanes.
    pub seconds: f64,
}

impl FleetReport {
    /// Events per wall-clock second across all surviving lanes — the
    /// headline throughput figure.
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
}

impl Fleet {
    /// New fleet from a config.
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
        Self { cfg }
    }

    /// The [`SimConfig`] lane `lane` runs: the base with its derived seed.
    #[must_use]
    pub fn lane_config(&self, lane: u32) -> SimConfig {
        let mut cfg = self.cfg.base.clone();
        cfg.seed = derive_seed(self.cfg.base.seed, u64::from(lane));
        cfg
    }

    /// Run the fleet on [`shard_count`] workers on the timer wheel.
    #[must_use]
    pub fn run(&self) -> FleetReport {
        self.run_on(shard_count(), QueueKind::Wheel)
    }

    /// Run the fleet on an explicit worker count and queue kind — the
    /// determinism suite calls this with several worker counts and asserts
    /// one digest.
    #[must_use]
    pub fn run_on(&self, threads: usize, queue: QueueKind) -> FleetReport {
        let lanes: Vec<u32> = (0..self.cfg.lanes).collect();
        let mut sp = bevra_obs::span("sim/fleet");
        sp.add_points(lanes.len() as u64);
        let started = std::time::Instant::now();
        // One pool item per lane. Budget truncation is degradation, not
        // failure.
        let (results, restarts) = bevra_engine::parallel_map_supervised(
            &lanes,
            threads,
            1 + LANE_RESTARTS,
            |&lane, attempt| {
                bevra_faults::panic_point_attempt("sim/lane", u64::from(lane), u64::from(attempt));
                match Simulation::new(self.lane_config(lane)).run_checked_on(queue) {
                    Ok(r) => (r, false),
                    Err(SimError::BudgetExhausted { partial, .. }) => (*partial, true),
                }
            },
        );
        let seconds = started.elapsed().as_secs_f64();

        // Merge in strict lane order, which is what keeps the digest
        // invariant under any worker count and any mix of re-runs.
        let mut health = FleetHealth { restarts, ..FleetHealth::default() };
        let mut merged = SimReport::empty();
        let mut lane_digests: Vec<Option<u64>> = Vec::with_capacity(lanes.len());
        for (lane, result) in lanes.into_iter().zip(results) {
            match result {
                Ok((report, truncated)) => {
                    lane_digests.push(Some(report.digest()));
                    merge_into(&mut merged, &report);
                    health.ok_lanes += 1;
                    health.truncated_lanes += u32::from(truncated);
                }
                Err(e) => {
                    lane_digests.push(None);
                    health.failed.push(LaneFailure { lane, error: e.to_string() });
                }
            }
        }

        FleetReport { merged, lane_digests, health, seconds }
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
    fn clean_run(fleet: &Fleet, threads: usize, queue: QueueKind) -> FleetReport {
        let _guard = install(FaultPlan::seeded(0));
        fleet.run_on(threads, queue)
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
    fn digest_invariant_across_worker_counts() {
        let fleet = Fleet::new(fleet_cfg(10));
        let reference = clean_run(&fleet, 1, QueueKind::Wheel);
        assert!(reference.health.all_ok());
        assert_eq!(reference.health.ok_lanes, 10);
        for threads in [2, 3, 7, 10, 64] {
            let r = clean_run(&fleet, threads, QueueKind::Wheel);
            assert_eq!(
                r.merged.digest(),
                reference.merged.digest(),
                "digest drifted on {threads} workers"
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
        assert!(r.health.all_ok(), "budget exhaustion is not a lane failure");
        assert_eq!(r.health.ok_lanes, 3);
        assert_eq!(r.health.truncated_lanes, 3);
        assert_eq!(r.merged.events, 6_000, "each lane stops at exactly its budget");
    }

    #[test]
    fn transient_lane_panic_is_restarted_to_identical_bits() {
        silence_injected_panics();
        let fleet = Fleet::new(fleet_cfg(6));
        let reference = clean_run(&fleet, 3, QueueKind::Wheel);
        // Lane 2 panics on its first attempt only; its re-run reproduces
        // it from the derived seed.
        let plan = FaultPlan::seeded(0)
            .rule(FaultRule::at_key(FaultKind::Panic, "sim/lane", 2).with_n(1));
        let r = {
            let _guard = install(plan);
            fleet.run_on(3, QueueKind::Wheel)
        };
        assert!(r.health.all_ok(), "transient fault must be rescued: {:?}", r.health.failed);
        assert_eq!(r.health.ok_lanes, 6);
        assert_eq!(r.health.restarts, 1, "only the panicking lane re-executes");
        assert_eq!(
            r.merged.digest(),
            reference.merged.digest(),
            "rescued run must be bitwise-identical to the fault-free run"
        );
        assert_eq!(r.lane_digests, reference.lane_digests);
    }

    #[test]
    fn permanent_lane_death_is_recorded_lane_by_lane() {
        silence_injected_panics();
        let fleet = Fleet::new(fleet_cfg(8));
        // Every lane dies permanently: each spends its whole re-run budget
        // and is recorded dead with its own panic message.
        let plan =
            FaultPlan::seeded(0).rule(FaultRule::always(FaultKind::Panic, "sim/lane"));
        let r = {
            let _guard = install(plan);
            fleet.run_on(2, QueueKind::Wheel)
        };
        assert_eq!(r.health.ok_lanes, 0);
        assert_eq!(r.health.failed_lanes(), 8);
        assert_eq!(r.health.failed.len(), 8, "one failure entry per dead lane");
        assert_eq!(r.health.restarts, 8 * u64::from(LANE_RESTARTS));
        for (lane, failure) in (0u32..).zip(&r.health.failed) {
            assert_eq!(failure.lane, lane);
            assert!(failure.error.contains("injected panic"), "{}", failure.error);
        }
    }

    #[test]
    fn dead_lanes_do_not_shed_a_healthy_lane() {
        silence_injected_panics();
        let fleet = Fleet::new(fleet_cfg(8));
        let reference = clean_run(&fleet, 2, QueueKind::Wheel);
        // Lanes 0-2 die on every attempt; lane 3, which a worker may run
        // between their re-runs, is healthy and must report its own bits.
        let mut plan = FaultPlan::seeded(0);
        for lane in 0..3 {
            plan = plan.rule(FaultRule::at_key(FaultKind::Panic, "sim/lane", lane));
        }
        let r = {
            let _guard = install(plan);
            fleet.run_on(2, QueueKind::Wheel)
        };
        let dead: Vec<u32> = r.health.failed.iter().map(|f| f.lane).collect();
        assert_eq!(dead, vec![0, 1, 2], "exactly lanes 0-2 are dead");
        assert_eq!(r.health.ok_lanes, 5);
        assert_eq!(r.lane_digests[3], reference.lane_digests[3], "lane 3 reports its own bits");
        assert_eq!(r.lane_digests[4..], reference.lane_digests[4..]);
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

    /// Lane 2 of `fleet_cfg(6)` on 3 workers, panicking on its first
    /// `n` attempts, against the fault-free reference.
    fn lane_2_panics_n_times(n: u64) -> (FleetReport, FleetReport) {
        silence_injected_panics();
        let fleet = Fleet::new(fleet_cfg(6));
        let reference = clean_run(&fleet, 3, QueueKind::Wheel);
        let plan = FaultPlan::seeded(0)
            .rule(FaultRule::at_key(FaultKind::Panic, "sim/lane", 2).with_n(n));
        let _guard = install(plan);
        (reference, fleet.run_on(3, QueueKind::Wheel))
    }

    #[test]
    fn lane_dying_on_every_restart_but_the_last_is_rescued() {
        let (reference, r) = lane_2_panics_n_times(u64::from(LANE_RESTARTS));
        assert!(r.health.all_ok(), "the last re-run rescues lane 2: {:?}", r.health.failed);
        assert_eq!(r.health.restarts, 2, "lane 2 re-runs twice, no other lane re-runs");
        assert_eq!(r.merged.digest(), reference.merged.digest());
        assert_eq!(r.lane_digests, reference.lane_digests);
    }

    #[test]
    fn lane_outliving_its_restarts_is_dead_and_moves_the_digest() {
        // Mutation check: one panic more than the re-run budget leaves the
        // lane dead, and the digest pin sees the missing lane.
        let (reference, r) = lane_2_panics_n_times(u64::from(LANE_RESTARTS) + 1);
        let dead: Vec<u32> = r.health.failed.iter().map(|f| f.lane).collect();
        assert_eq!(dead, vec![2]);
        assert_eq!(r.lane_digests[2], None);
        assert_eq!(r.lane_digests[3], reference.lane_digests[3]);
        assert_ne!(
            r.merged.digest(),
            reference.merged.digest(),
            "a lane lost after its restarts must be visible in the digest"
        );
    }
}
