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
//! so chaos plans can kill a single lane. A panicked shard does not
//! condemn its lanes: each of them is re-run on its own, serially, in
//! lane order, from the lane's derived seed, re-crossing `sim/lane` at
//! attempts 1 to [`LANE_RESTARTS`]. A lane is a pure function of its
//! seed, so a transient fault (an `n`-bounded rule with
//! `n ≤ LANE_RESTARTS`) is *rescued*: the re-run reproduces the lane's
//! exact bits and the merged digest equals the fault-free run's, with
//! every re-run counted in [`FleetHealth::restarts`]. A lane still dead
//! after its last re-run would die on every further one, so it is
//! recorded as a single-lane [`ShardFailure`] and the fleet moves on to
//! the next lane. Budget exhaustion inside a lane (the `sim/budget`
//! watchdog) is *not* a failure: the lane's partial report merges and
//! the lane is counted in [`FleetHealth::truncated_lanes`].

use crate::runner::{QueueKind, SimConfig, SimError, SimReport, Simulation};
use bevra_obs::panic_message;
use rand::derive_seed;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// Serial re-runs each lane of a panicked shard gets before it is
/// recorded failed.
pub const LANE_RESTARTS: u32 = 2;

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

/// One lane that stayed dead, for the health ledger.
#[derive(Debug, Clone)]
pub struct ShardFailure {
    /// Shard index (into the run's contiguous lane chunking) the lane
    /// belonged to.
    pub shard: u32,
    /// The lane that produced no report: still dead after its
    /// [`LANE_RESTARTS`] re-runs.
    pub lane: u32,
    /// The lane's last panic message.
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
    /// Lane re-runs after a shard panicked (every re-run counts one,
    /// successful or not).
    pub restarts: u64,
    /// Lanes still dead after their re-runs (one entry per lane).
    pub failed: Vec<ShardFailure>,
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

    /// Run the fleet at [`shard_count`] shards on the timer wheel.
    #[must_use]
    pub fn run(&self) -> FleetReport {
        self.run_on(shard_count(), QueueKind::Wheel)
    }

    /// Run the fleet with an explicit shard count and queue kind — the
    /// determinism suite calls this with several shard counts and asserts
    /// one digest.
    #[must_use]
    pub fn run_on(&self, shards: usize, queue: QueueKind) -> FleetReport {
        let lanes = self.cfg.lanes as usize;
        let mut sp = bevra_obs::span("sim/fleet");
        sp.add_points(lanes as u64);
        let shard_lanes: Vec<(usize, std::ops::Range<usize>)> =
            bevra_engine::chunk_ranges(lanes, shards.max(1)).into_iter().enumerate().collect();
        let started = std::time::Instant::now();
        let mut health = FleetHealth::default();

        // One simulated lane, shared by the shard phase (attempt 0) and
        // the lane re-runs (attempt ≥ 1). Budget truncation is
        // degradation, not failure.
        let run_lane = |lane: usize, attempt: u64| -> (SimReport, bool) {
            bevra_faults::panic_point_attempt("sim/lane", lane as u64, attempt);
            let sim = Simulation::new(self.lane_config(lane as u32));
            match sim.run_checked_on(queue) {
                Ok(r) => (r, false),
                Err(SimError::BudgetExhausted { partial, .. }) => (*partial, true),
            }
        };

        // Parallel phase: one pool item per shard, one attempt each, each
        // running its lanes serially.
        let (results, _) = bevra_engine::parallel_map_supervised(
            &shard_lanes,
            bevra_engine::thread_count().min(shard_lanes.len()),
            1,
            |(shard, range): &(usize, std::ops::Range<usize>), _attempt| {
                bevra_faults::panic_point("sim/shard", *shard as u64);
                let mut sh = bevra_obs::span("sim/fleet/shard");
                sh.add_points(range.len() as u64);
                range.clone().map(|lane| run_lane(lane, 0)).collect::<Vec<_>>()
            },
        );

        // Per-lane result slots, merged in strict lane order below, which
        // is what keeps the digest invariant under any shard/thread count
        // and any mix of re-runs. The lanes of a panicked shard are re-run
        // one at a time, in lane order: serial and seeded, so a rescue
        // replays identically regardless of shard/thread counts.
        let mut slots: Vec<Option<(SimReport, bool)>> = Vec::with_capacity(lanes);
        for ((shard, range), result) in shard_lanes.iter().zip(results) {
            if let Ok(reports) = result {
                slots.extend(reports.into_iter().map(Some));
                continue;
            }
            for lane in range.clone() {
                let mut last_panic = String::new();
                let slot = (1..=u64::from(LANE_RESTARTS)).find_map(|attempt| {
                    health.restarts += 1;
                    catch_unwind(AssertUnwindSafe(|| run_lane(lane, attempt)))
                        .map_err(|payload| last_panic = panic_message(payload.as_ref()))
                        .ok()
                });
                if slot.is_none() {
                    health.failed.push(ShardFailure {
                        shard: *shard as u32,
                        lane: lane as u32,
                        error: format!("lane {lane} dead after restarts: {last_panic}"),
                    });
                }
                slots.push(slot);
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
        // The dead shard covered lanes 2 and 3; both re-execute once.
        assert_eq!(r.health.restarts, 2, "both lanes of the dead shard re-execute");
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
            assert_eq!(failure.shard, lane / 4, "chunk_ranges(8, 2) puts 4 lanes per shard");
            assert!(failure.error.contains("injected panic"), "{}", failure.error);
        }
    }

    #[test]
    fn dead_lanes_do_not_shed_a_healthy_lane() {
        silence_injected_panics();
        let fleet = Fleet::new(fleet_cfg(8));
        let reference = clean_run(&fleet, 2, QueueKind::Wheel);
        // Lanes 0-2 die on every attempt and take shard 0 (lanes 0-3)
        // down with them; lane 3 is healthy and must still be re-run.
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

    /// Lane 2 of `fleet_cfg(6)` at 3 shards, panicking on its first
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
        // Lanes 2 and 3 share shard 1: lane 2 re-runs twice, lane 3 once.
        assert_eq!(r.health.restarts, 3);
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
