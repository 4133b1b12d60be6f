//! The event loop: wiring arrivals, holding times, the link discipline, and
//! measurement into one deterministic simulation.
//!
//! # Architecture (post million-flow refactor)
//!
//! The loop is generic over its pending-event set ([`EventQueue`]) and
//! keeps flow state in struct-of-arrays form ([`FlowTable`]) with the
//! per-admission `max_pop` scan replaced by a monotone suffix-max stack
//! ([`PeakTracker`]) — see `crates/sim/src/flows.rs` for the equivalence
//! argument. Runs use the hierarchical timer wheel (amortized O(1) per
//! event); [`QueueKind::Heap`] selects the original binary heap as the
//! differential reference. Both produce **bitwise-identical**
//! [`SimReport::digest`]s — the differential suite
//! (`tests/timer_wheel.rs`, `tests/sim_scale.rs`) pins that, along with
//! the golden digests the pre-refactor loop produced.

use crate::arrivals::MixedPoisson;
use crate::census::Census;
use crate::events::{Entry, EventKind};
use crate::flows::{FlowTable, PeakTracker};
use crate::holding::HoldingDist;
use crate::link::Discipline;
use crate::queue::{BinaryHeapQueue, EventQueue};
use crate::stats::Welford;
use crate::wheel::{TimerWheelQueue, DEFAULT_GRANULARITY};
use bevra_load::Tabulated;
use bevra_obs::{enabled, metrics, ObsLevel};
use bevra_utility::Utility;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;

/// Which [`EventQueue`] implementation the run uses. The choice never
/// affects results (the determinism suite asserts digest equality), only
/// speed: the wheel is amortized O(1) per event, the heap O(log n).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QueueKind {
    /// Hierarchical timer wheel ([`TimerWheelQueue`]) — what every
    /// production run uses.
    Wheel,
    /// Binary heap ([`BinaryHeapQueue`]) — the original implementation,
    /// kept as the reference for differential tests.
    Heap,
}

/// Metric handles for one run, resolved once up front so the event loop
/// itself never touches the registry: with `BEVRA_OBS=off` (the default)
/// no handles are even created and the loop performs zero observability
/// work; at `summary`+ each event costs a few relaxed atomic ops.
///
/// Recording is observation only — it never touches the RNG or any
/// simulated quantity, so instrumented runs stay bit-identical.
struct SimObs {
    arrivals: Arc<metrics::Counter>,
    departures: Arc<metrics::Counter>,
    retries: Arc<metrics::Counter>,
    switches: Arc<metrics::Counter>,
    admitted: Arc<metrics::Counter>,
    blocked: Arc<metrics::Counter>,
    /// Population `n` seen by the event loop at each event — the
    /// "event-loop occupancy" histogram (log₂-bucketed, p50/p90/p99).
    occupancy: Arc<metrics::Histogram>,
}

impl SimObs {
    fn new() -> Self {
        Self {
            arrivals: metrics::counter("sim/events/arrival"),
            departures: metrics::counter("sim/events/departure"),
            retries: metrics::counter("sim/events/retry"),
            switches: metrics::counter("sim/events/modulation_switch"),
            admitted: metrics::counter("sim/admission/admitted"),
            blocked: metrics::counter("sim/admission/blocked"),
            occupancy: metrics::histogram("sim/occupancy"),
        }
    }
}

/// Complete configuration of one simulation run.
#[derive(Clone)]
pub struct SimConfig {
    /// Link capacity `C`.
    pub capacity: f64,
    /// Best-effort or reservation (+ optional retries).
    pub discipline: Discipline,
    /// Arrival process.
    pub arrivals: MixedPoisson,
    /// Holding-time distribution.
    pub holding: HoldingDist,
    /// Application utility `π`.
    pub utility: Arc<dyn Utility>,
    /// Warm-up time excluded from all statistics.
    pub warmup: f64,
    /// Measured horizon after warm-up.
    pub horizon: f64,
    /// RNG seed — equal seeds give bit-identical runs.
    pub seed: u64,
    /// Watchdog budget: maximum events the loop may process before
    /// [`Simulation::run_checked`] stops with
    /// [`SimError::BudgetExhausted`]. `None` (the default everywhere in
    /// this repo) means unbounded; a `budget:sim/budget@n=<N>` fault rule
    /// overrides whatever is configured.
    pub max_events: Option<u64>,
}

/// Probe bandwidths folded into the utility fingerprint of
/// [`SimConfig::fingerprint`]: two utilities agreeing in name and on all
/// probes to the bit are treated as identical (the same convention as the
/// engine's persistent-cache key).
const UTILITY_PROBES: [f64; 16] = [
    0.0, 1e-9, 1e-6, 1e-3, 0.01, 0.1, 0.25, 0.5, 0.75, 1.0, 1.5, 2.0, 3.0, 5.0, 13.0, 144.0,
];

impl SimConfig {
    /// Content hash of everything that determines this run's results:
    /// capacity, discipline (including any retry policy), arrival process
    /// configuration, holding distribution, utility fingerprint (name,
    /// probed values, knots), warm-up, horizon, seed, and event budget.
    ///
    /// Two configs with equal fingerprints produce bitwise-identical
    /// reports (queue kind and shard/thread counts never enter — they are
    /// execution knobs). The fleet checkpoint keys its entries on this.
    #[must_use]
    pub fn fingerprint(&self) -> u64 {
        use crate::stats::{fnv_fold, fnv_fold_bytes};
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        fnv_fold_bytes(&mut h, b"bevra-sim v1");
        fnv_fold(&mut h, self.capacity.to_bits());
        let fold_retry = |h: &mut u64, retry: &Option<crate::link::RetryPolicy>| match retry {
            None => fnv_fold(h, 0),
            Some(rp) => {
                fnv_fold(h, 1);
                fnv_fold(h, u64::from(rp.max_retries));
                fnv_fold(h, rp.backoff_mean.to_bits());
                fnv_fold(h, rp.penalty.to_bits());
            }
        };
        match &self.discipline {
            Discipline::BestEffort => fnv_fold(&mut h, 0),
            Discipline::Reservation { k_max, retry } => {
                fnv_fold(&mut h, 1);
                fnv_fold(&mut h, *k_max);
                fold_retry(&mut h, retry);
            }
            Discipline::MeasurementBased { target_share, ewma_weight, retry } => {
                fnv_fold(&mut h, 2);
                fnv_fold(&mut h, target_share.to_bits());
                fnv_fold(&mut h, ewma_weight.to_bits());
                fold_retry(&mut h, retry);
            }
        }
        self.arrivals.digest_into(&mut h);
        match self.holding {
            HoldingDist::Exponential { mean } => {
                fnv_fold(&mut h, 0);
                fnv_fold(&mut h, mean.to_bits());
            }
            HoldingDist::Pareto { mean, z } => {
                fnv_fold(&mut h, 1);
                fnv_fold(&mut h, mean.to_bits());
                fnv_fold(&mut h, z.to_bits());
            }
            HoldingDist::Deterministic { mean } => {
                fnv_fold(&mut h, 2);
                fnv_fold(&mut h, mean.to_bits());
            }
        }
        fnv_fold_bytes(&mut h, self.utility.name().as_bytes());
        for &b in &UTILITY_PROBES {
            fnv_fold(&mut h, self.utility.value(b).to_bits());
        }
        for k in self.utility.knots() {
            fnv_fold(&mut h, k.to_bits());
        }
        fnv_fold(&mut h, self.warmup.to_bits());
        fnv_fold(&mut h, self.horizon.to_bits());
        fnv_fold(&mut h, self.seed);
        match self.max_events {
            None => fnv_fold(&mut h, 0),
            Some(n) => {
                fnv_fold(&mut h, 1);
                fnv_fold(&mut h, n);
            }
        }
        h
    }
}

/// Why a checked run stopped early.
#[derive(Debug)]
pub enum SimError {
    /// The event loop hit its watchdog budget ([`SimConfig::max_events`]
    /// or an injected `sim/budget` override) before draining the horizon.
    BudgetExhausted {
        /// Events processed before the watchdog fired.
        events: u64,
        /// Statistics accumulated up to the cut-off. Internally
        /// consistent (census totals match the truncated window, digest
        /// is deterministic) but covers less simulated time than asked.
        partial: Box<SimReport>,
    },
}

impl std::fmt::Display for SimError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::BudgetExhausted { events, .. } => {
                write!(f, "event budget exhausted after {events} event(s)")
            }
        }
    }
}

impl std::error::Error for SimError {}

/// Aggregated results of a run.
#[derive(Debug, Clone)]
pub struct SimReport {
    /// Flows that completed service within the measured window.
    pub completed: u64,
    /// Original flows permanently lost (blocked and out of retries).
    pub lost: u64,
    /// Total blocked admission attempts (including retried ones).
    pub blocked_attempts: u64,
    /// Total admission attempts.
    pub attempts: u64,
    /// Total retry events.
    pub retries: u64,
    /// Events the loop processed — the throughput denominator for
    /// events/s figures. **Excluded from [`SimReport::digest`]**: it is
    /// an execution statistic, not a simulated quantity, and the digest's
    /// contract (and its committed golden pins) predate the field.
    pub events: u64,
    /// Utility evaluated at the admission instant (`π(C/k)` with `k` the
    /// population including the new flow — the basic model's view via
    /// PASTA); blocked flows count 0, retry penalties subtracted.
    pub utility_at_admission: Welford,
    /// Utility time-averaged over each flow's lifetime.
    pub utility_time_avg: Welford,
    /// Utility at the worst (largest) population each flow experienced —
    /// the mechanistic analogue of the §5.1 sampling extension's max-of-`S`.
    pub utility_worst: Welford,
    /// Time-weighted occupancy census over the measured window.
    pub census: Census,
}

impl SimReport {
    /// All-zero report, ready to accumulate into.
    pub(crate) fn empty() -> Self {
        Self {
            completed: 0,
            lost: 0,
            blocked_attempts: 0,
            attempts: 0,
            retries: 0,
            events: 0,
            utility_at_admission: Welford::new(),
            utility_time_avg: Welford::new(),
            utility_worst: Welford::new(),
            census: Census::new(),
        }
    }

    /// Per-attempt blocking probability.
    #[must_use]
    pub fn blocking_rate(&self) -> f64 {
        if self.attempts == 0 {
            0.0
        } else {
            self.blocked_attempts as f64 / self.attempts as f64
        }
    }

    /// Empirical occupancy distribution.
    ///
    /// # Panics
    ///
    /// Panics if the run observed no time (zero horizon).
    #[must_use]
    pub fn occupancy(&self) -> Tabulated {
        self.census.occupancy()
    }

    /// FNV-1a digest of the report's *exact* state: every counter and the
    /// bit patterns of every accumulated float, census included. (The
    /// [`events`](SimReport::events) execution statistic is deliberately
    /// left out — see its field docs.)
    ///
    /// Two runs of the same configuration and seed must produce equal
    /// digests — regardless of `BEVRA_THREADS`, the [`QueueKind`], or (for
    /// fleets) the shard count. The determinism tests assert exactly that.
    #[must_use]
    pub fn digest(&self) -> u64 {
        let mut hash = 0xcbf2_9ce4_8422_2325u64;
        for word in [self.completed, self.lost, self.blocked_attempts, self.attempts, self.retries]
        {
            crate::stats::fnv_fold(&mut hash, word);
        }
        self.utility_at_admission.digest_into(&mut hash);
        self.utility_time_avg.digest_into(&mut hash);
        self.utility_worst.digest_into(&mut hash);
        self.census.digest_into(&mut hash);
        hash
    }
}

/// One simulation instance. Create with [`Simulation::new`], run with
/// [`Simulation::run`].
pub struct Simulation {
    cfg: SimConfig,
}

impl Simulation {
    /// New simulation from a config.
    ///
    /// # Panics
    ///
    /// Panics on nonpositive capacity or horizon.
    #[must_use]
    pub fn new(cfg: SimConfig) -> Self {
        assert!(cfg.capacity > 0.0, "capacity must be positive");
        assert!(cfg.horizon > 0.0, "horizon must be positive");
        assert!(cfg.warmup >= 0.0, "warmup must be nonnegative");
        Self { cfg }
    }

    /// Run a batch of configurations, fanned out over the sweep engine's
    /// worker pool (`BEVRA_THREADS` or all cores).
    ///
    /// Each run is seeded and self-contained, so the reports are
    /// bit-identical to running the configs one at a time, in input order.
    ///
    /// # Panics
    ///
    /// Panics if any config is invalid (see [`Simulation::new`]).
    #[must_use]
    pub fn run_batch(configs: &[SimConfig]) -> Vec<SimReport> {
        let mut sp = bevra_obs::span("sim/run_batch");
        sp.add_points(configs.len() as u64);
        bevra_engine::parallel_map(configs, |cfg| Simulation::new(cfg.clone()).run())
    }

    /// Execute the run and aggregate the report, degrading gracefully on
    /// budget exhaustion: if the watchdog fires (see
    /// [`Simulation::run_checked`]), the partial report is returned as-is
    /// rather than panicking — callers that must distinguish a truncated
    /// run use `run_checked`.
    #[must_use]
    pub fn run(&self) -> SimReport {
        self.run_on(QueueKind::Wheel)
    }

    /// Execute the run to completion and aggregate the report, stopping
    /// with [`SimError::BudgetExhausted`] — carrying the partial report —
    /// if the event loop processes more than [`SimConfig::max_events`]
    /// events (or an injected `sim/budget` override) before reaching the
    /// horizon. The run uses the timer wheel.
    ///
    /// # Errors
    ///
    /// [`SimError::BudgetExhausted`] when the watchdog fires.
    pub fn run_checked(&self) -> Result<SimReport, SimError> {
        self.run_checked_on(QueueKind::Wheel)
    }

    /// [`Simulation::run`] on an explicitly chosen queue implementation —
    /// the differential suite runs both kinds and asserts digest equality.
    #[must_use]
    pub fn run_on(&self, kind: QueueKind) -> SimReport {
        match self.run_checked_on(kind) {
            Ok(report) => report,
            Err(SimError::BudgetExhausted { partial, .. }) => *partial,
        }
    }

    /// [`Simulation::run_checked`] on an explicit queue — the fleet runs
    /// every lane through this.
    ///
    /// # Errors
    ///
    /// [`SimError::BudgetExhausted`] when the watchdog fires.
    pub(crate) fn run_checked_on(&self, kind: QueueKind) -> Result<SimReport, SimError> {
        match kind {
            QueueKind::Heap => EventLoop::new(&self.cfg, BinaryHeapQueue::new()).run(),
            QueueKind::Wheel => {
                // ~1 event per level-0 bucket is the calendar-queue sweet
                // spot; total event rate is ≈ 2·λ (each flow arrives and
                // departs). Only a performance choice — any granularity
                // gives the identical dequeue order.
                let g = (0.5 / self.cfg.arrivals.mean_rate()).clamp(1e-9, DEFAULT_GRANULARITY);
                EventLoop::new(&self.cfg, TimerWheelQueue::with_granularity(g)).run()
            }
        }
    }
}

/// All mutable state of one run, generic over the pending-event set.
struct EventLoop<'a, Q: EventQueue> {
    cfg: &'a SimConfig,
    queue: Q,
    rng: StdRng,
    seq: u64,
    end: f64,
    flows: FlowTable,
    peaks: PeakTracker,
    /// `pi_at[k]` = π(C/k) for every population reached so far, with
    /// `pi_at[0] = 0`: the utility depends only on the integer population,
    /// so each value is computed once per run instead of once per event.
    pi_at: Vec<f64>,
    /// Simulation clock.
    t: f64,
    /// Current population.
    n: u64,
    /// ∫ π(C/n(s)) ds (0 when n = 0).
    integral: f64,
    census: Census,
    /// Load estimate for measurement-based admission (EWMA over the
    /// population seen at arrival instants).
    load_estimate: f64,
    report: SimReport,
    obs: Option<SimObs>,
}

impl<'a, Q: EventQueue> EventLoop<'a, Q> {
    fn new(cfg: &'a SimConfig, queue: Q) -> Self {
        Self {
            cfg,
            queue,
            rng: StdRng::seed_from_u64(cfg.seed),
            seq: 0,
            end: cfg.warmup + cfg.horizon,
            flows: FlowTable::new(),
            peaks: PeakTracker::new(),
            pi_at: vec![0.0],
            t: 0.0,
            n: 0,
            integral: 0.0,
            census: Census::new(),
            load_estimate: 0.0,
            report: SimReport::empty(),
            obs: None,
        }
    }

    fn push(&mut self, time: f64, kind: EventKind) {
        self.queue.push(Entry { time, seq: self.seq, kind });
        self.seq += 1;
    }

    fn pi(&mut self, pop: u64) -> f64 {
        let k = pop as usize;
        if k >= self.pi_at.len() {
            let cfg = self.cfg;
            let from = self.pi_at.len();
            self.pi_at.extend((from..=k).map(|j| cfg.utility.value(cfg.capacity / j as f64)));
        }
        self.pi_at[k]
    }

    #[allow(clippy::too_many_lines)]
    fn run(mut self) -> Result<SimReport, SimError> {
        // Event-loop observability: a span per run (nests under
        // `sim/run_batch` when batched on the same thread) plus, at
        // `BEVRA_OBS=summary` and above, per-event counters and the
        // occupancy histogram.
        let mut run_span = bevra_obs::span("sim/run");
        self.obs = enabled(ObsLevel::Summary).then(SimObs::new);
        let mut arrivals = self.cfg.arrivals.clone();
        let warmup = self.cfg.warmup;

        // Sequence number of the one live pending Arrival event: a
        // modulation switch replaces it, and the superseded event (still in
        // the queue) is discarded when popped.
        let mut live_arrival_seq: u64;

        // Seed the initial arrival and (if modulated) the first switch.
        arrivals.switch(&mut self.rng);
        live_arrival_seq = self.seq;
        let first_arrival = arrivals.next_interarrival(&mut self.rng);
        self.push(first_arrival, EventKind::Arrival);
        let first_sojourn = arrivals.next_sojourn(&mut self.rng);
        if first_sojourn.is_finite() {
            self.push(first_sojourn, EventKind::ModulationSwitch);
        }

        // Watchdog: the injected override (chaos runs) takes precedence
        // over the configured ceiling. Checked before each event so a
        // budget of N processes exactly N events.
        let budget = bevra_faults::budget_override("sim/budget").or(self.cfg.max_events);
        let mut events: u64 = 0;

        while let Some(ev) = self.queue.pop() {
            if ev.time > self.end {
                break;
            }
            if budget.is_some_and(|b| events >= b) {
                self.report.census = self.census;
                self.report.events = events;
                return Err(SimError::BudgetExhausted {
                    events,
                    partial: Box::new(self.report),
                });
            }
            events += 1;
            run_span.add_points(1);
            if let Some(o) = &self.obs {
                o.occupancy.record(self.n);
                match ev.kind {
                    EventKind::ModulationSwitch => o.switches.inc(),
                    EventKind::Arrival => o.arrivals.inc(),
                    EventKind::Retry { .. } => o.retries.inc(),
                    EventKind::Departure { .. } => o.departures.inc(),
                }
            }
            // Advance clocks: accumulate the utility integral and the
            // census dwell (clipped to the measured window).
            let dt = ev.time - self.t;
            if dt > 0.0 {
                self.integral += self.pi(self.n) * dt;
                let meas_lo = self.t.max(warmup);
                let meas_hi = ev.time.min(self.end);
                if meas_hi > meas_lo {
                    self.census.dwell(self.n, meas_hi - meas_lo);
                }
                self.t = ev.time;
            }

            match ev.kind {
                EventKind::ModulationSwitch => {
                    arrivals.switch(&mut self.rng);
                    // Redraw the pending arrival at the new rate (valid by
                    // memorylessness of the exponential); the superseded
                    // arrival event is dropped when popped.
                    let ia = arrivals.next_interarrival(&mut self.rng);
                    if ia.is_finite() {
                        live_arrival_seq = self.seq;
                        self.push(self.t + ia, EventKind::Arrival);
                    }
                    let so = arrivals.next_sojourn(&mut self.rng);
                    if so.is_finite() {
                        self.push(self.t + so, EventKind::ModulationSwitch);
                    }
                }
                EventKind::Arrival => {
                    if ev.seq != live_arrival_seq {
                        // Superseded by a modulation switch: skip.
                        continue;
                    }
                    let measured = self.t >= warmup;
                    if measured {
                        self.census.arrival_saw(self.n);
                    }
                    if let Some(w) = self.cfg.discipline.ewma_weight() {
                        self.load_estimate = (1.0 - w) * self.load_estimate + w * self.n as f64;
                    }
                    self.handle_admission_attempt(0, None, measured);
                    // Next arrival of the live stream.
                    let ia = arrivals.next_interarrival(&mut self.rng);
                    if ia.is_finite() {
                        live_arrival_seq = self.seq;
                        self.push(self.t + ia, EventKind::Arrival);
                    }
                }
                EventKind::Retry { attempt, holding, first_arrival } => {
                    let measured = first_arrival >= warmup;
                    self.report.retries += 1;
                    self.handle_admission_attempt(attempt, Some(holding), measured);
                }
                EventKind::Departure { slot } => {
                    let (admit_time, integral_at_admit, util_at_admission, admit_index, retries) =
                        self.flows.fields(slot);
                    let duration = self.t - admit_time;
                    let penalty = self
                        .cfg
                        .discipline
                        .retry_policy()
                        .map_or(0.0, |rp| rp.penalty * f64::from(retries));
                    let measured = admit_time >= warmup && self.t <= self.end;
                    if measured {
                        let time_avg = if duration > 0.0 {
                            (self.integral - integral_at_admit) / duration
                        } else {
                            util_at_admission
                        };
                        let worst = self.pi(self.peaks.peak_since(admit_index));
                        self.report.completed += 1;
                        self.report.utility_at_admission.add(util_at_admission - penalty);
                        self.report.utility_time_avg.add(time_avg - penalty);
                        self.report.utility_worst.add(worst - penalty);
                    }
                    self.flows.depart(slot);
                    self.n -= 1;
                }
            }
        }

        self.report.census = self.census;
        self.report.events = events;
        Ok(self.report)
    }

    /// Shared admission logic for fresh arrivals and retries.
    fn handle_admission_attempt(
        &mut self,
        attempt: u32,
        holding_carryover: Option<f64>,
        measured: bool,
    ) {
        let cfg = self.cfg;
        if measured {
            self.report.attempts += 1;
        }
        if cfg.discipline.admits(self.n, self.load_estimate, cfg.capacity) {
            if let Some(o) = &self.obs {
                o.admitted.inc();
            }
            self.n += 1;
            let pop = self.n;
            let util = self.pi(pop);
            let holding = holding_carryover.unwrap_or_else(|| cfg.holding.sample(&mut self.rng));
            // The newcomer raises everyone's worst-case population — the
            // tracker folds that in lazily instead of scanning the active
            // list (see flows.rs for the equivalence argument).
            let admit_index = self.peaks.on_admission(pop);
            let slot_id = self.flows.admit(self.t, self.integral, util, admit_index, attempt);
            self.push(self.t + holding, EventKind::Departure { slot: slot_id });
        } else {
            if let Some(o) = &self.obs {
                o.blocked.inc();
            }
            if measured {
                self.report.blocked_attempts += 1;
            }
            match cfg.discipline.retry_policy() {
                Some(rp) if attempt < rp.max_retries => {
                    let backoff =
                        bevra_load::ExpSampler::new(1.0 / rp.backoff_mean).sample(&mut self.rng);
                    let holding =
                        holding_carryover.unwrap_or_else(|| cfg.holding.sample(&mut self.rng));
                    self.push(
                        self.t + backoff,
                        EventKind::Retry { attempt: attempt + 1, holding, first_arrival: self.t },
                    );
                }
                _ => {
                    // Permanently lost: utility 0 minus accumulated retry
                    // penalties.
                    if measured {
                        let penalty = cfg
                            .discipline
                            .retry_policy()
                            .map_or(0.0, |rp| rp.penalty * f64::from(attempt));
                        self.report.lost += 1;
                        self.report.utility_at_admission.add(-penalty);
                        self.report.utility_time_avg.add(-penalty);
                        self.report.utility_worst.add(-penalty);
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::link::RetryPolicy;
    use bevra_utility::{AdaptiveExp, Rigid, Saturating};

    fn base_cfg(capacity: f64, discipline: Discipline) -> SimConfig {
        SimConfig {
            capacity,
            discipline,
            // M/M/∞ with offered load 20 erlangs.
            arrivals: MixedPoisson::fixed(20.0),
            holding: HoldingDist::Exponential { mean: 1.0 },
            utility: Arc::new(AdaptiveExp::paper()),
            warmup: 50.0,
            horizon: 2_000.0,
            seed: 42,
            max_events: None,
        }
    }

    #[test]
    fn mm_infinity_occupancy_is_poisson() {
        let report = Simulation::new(base_cfg(40.0, Discipline::BestEffort)).run();
        let occ = report.occupancy();
        // Mean ≈ 20, variance ≈ 20 (Poisson).
        assert!((occ.mean() - 20.0).abs() < 1.0, "mean {}", occ.mean());
        assert!((occ.variance() - 20.0).abs() < 3.0, "var {}", occ.variance());
    }

    #[test]
    fn pasta_arrival_view_matches_time_view() {
        let report = Simulation::new(base_cfg(40.0, Discipline::BestEffort)).run();
        let occ = report.occupancy();
        let seen = report.census.seen_by_arrivals();
        assert!((occ.mean() - seen.mean()).abs() < 1.0, "{} vs {}", occ.mean(), seen.mean());
    }

    #[test]
    fn reservation_caps_population() {
        let cfg = base_cfg(15.0, Discipline::Reservation { k_max: 15, retry: None });
        let report = Simulation::new(cfg).run();
        let occ = report.occupancy();
        assert_eq!(occ.len() as u64, 16, "population never exceeds k_max");
        assert!(report.blocking_rate() > 0.05, "blocking {}", report.blocking_rate());
    }

    #[test]
    fn best_effort_never_blocks() {
        let report = Simulation::new(base_cfg(10.0, Discipline::BestEffort)).run();
        assert_eq!(report.blocked_attempts, 0);
        assert_eq!(report.lost, 0);
        assert_eq!(report.blocking_rate(), 0.0);
    }

    #[test]
    fn deterministic_under_seed() {
        let r1 = Simulation::new(base_cfg(25.0, Discipline::BestEffort)).run();
        let r2 = Simulation::new(base_cfg(25.0, Discipline::BestEffort)).run();
        assert_eq!(r1.completed, r2.completed);
        assert!((r1.utility_time_avg.mean() - r2.utility_time_avg.mean()).abs() < 1e-15);
        let mut cfg3 = base_cfg(25.0, Discipline::BestEffort);
        cfg3.seed = 43;
        let r3 = Simulation::new(cfg3).run();
        assert_ne!(r1.completed, r3.completed);
    }

    #[test]
    fn heap_and_wheel_agree_bitwise() {
        for (cap, d) in [
            (25.0, Discipline::BestEffort),
            (15.0, Discipline::Reservation { k_max: 15, retry: None }),
            (
                15.0,
                Discipline::Reservation {
                    k_max: 15,
                    retry: Some(RetryPolicy::new(6, 2.0, 0.05)),
                },
            ),
        ] {
            let sim = Simulation::new(base_cfg(cap, d));
            let heap = sim.run_on(QueueKind::Heap);
            let wheel = sim.run_on(QueueKind::Wheel);
            assert_eq!(heap.digest(), wheel.digest(), "cap {cap}");
            assert_eq!(heap.events, wheel.events, "cap {cap}");
        }
    }

    #[test]
    fn run_batch_matches_individual_runs() {
        let cfgs: Vec<SimConfig> = [20.0, 25.0, 40.0]
            .iter()
            .map(|&c| base_cfg(c, Discipline::BestEffort))
            .collect();
        let batch = Simulation::run_batch(&cfgs);
        assert_eq!(batch.len(), cfgs.len());
        for (cfg, rep) in cfgs.iter().zip(&batch) {
            let solo = Simulation::new(cfg.clone()).run();
            assert_eq!(solo.completed, rep.completed);
            assert_eq!(
                solo.utility_time_avg.mean().to_bits(),
                rep.utility_time_avg.mean().to_bits()
            );
        }
    }

    #[test]
    fn worst_case_utility_below_time_average() {
        let report = Simulation::new(base_cfg(25.0, Discipline::BestEffort)).run();
        assert!(report.utility_worst.mean() <= report.utility_time_avg.mean() + 1e-12);
    }

    #[test]
    fn retries_eventually_admit_most_flows() {
        // Adequately provisioned link (offered 20 erlangs, k_max = 30):
        // occasional blocking, but retries with a decorrelating backoff get
        // nearly everyone in. (At k_max ≤ offered load the system enters a
        // retry storm and real loss is unavoidable — see the overload test.)
        let rp = RetryPolicy::new(20, 3.0, 0.1);
        let cfg = base_cfg(30.0, Discipline::Reservation { k_max: 30, retry: Some(rp) });
        let report = Simulation::new(cfg).run();
        assert!(report.retries > 0, "some retries happen");
        let lost_frac = report.lost as f64 / (report.completed + report.lost).max(1) as f64;
        assert!(lost_frac < 0.001, "lost fraction {lost_frac}");

        // Overload (offered 20 on k_max 15): retries cannot rescue everyone;
        // a substantial fraction of flows is lost despite 20 attempts.
        let cfg2 = base_cfg(15.0, Discipline::Reservation { k_max: 15, retry: Some(rp) });
        let report2 = Simulation::new(cfg2).run();
        let lost_frac2 = report2.lost as f64 / (report2.completed + report2.lost).max(1) as f64;
        assert!(lost_frac2 > 0.05, "overload lost fraction {lost_frac2}");
    }

    #[test]
    fn rigid_utility_reservation_beats_best_effort_in_overload() {
        // Offered load 20 on capacity 15 with rigid flows: best-effort
        // collapses (everyone's share < 1 most of the time), reservations
        // keep admitted flows whole.
        let be = Simulation::new(base_cfg_with(
            15.0,
            Discipline::BestEffort,
            Arc::new(Rigid::unit()),
        ))
        .run();
        let rv = Simulation::new(base_cfg_with(
            15.0,
            Discipline::Reservation { k_max: 15, retry: None },
            Arc::new(Rigid::unit()),
        ))
        .run();
        assert!(
            rv.utility_at_admission.mean() > be.utility_at_admission.mean() + 0.1,
            "reservation {} vs best effort {}",
            rv.utility_at_admission.mean(),
            be.utility_at_admission.mean()
        );
    }

    fn base_cfg_with(capacity: f64, d: Discipline, u: Arc<dyn Utility>) -> SimConfig {
        let mut cfg = base_cfg(capacity, d);
        cfg.utility = u;
        cfg
    }

    #[test]
    fn measurement_based_tracks_threshold_behaviour() {
        // With ewma_weight = 1 (instantaneous estimate) and target share 1,
        // MBAC behaves like a hard threshold at k_max = C; with a slow
        // estimator it admits during bursts that the threshold would block.
        let fast = Simulation::new(base_cfg(
            15.0,
            Discipline::MeasurementBased { target_share: 1.0, ewma_weight: 1.0, retry: None },
        ))
        .run();
        let hard = Simulation::new(base_cfg(
            15.0,
            Discipline::Reservation { k_max: 15, retry: None },
        ))
        .run();
        // Same order of blocking as the hard threshold.
        assert!(
            (fast.blocking_rate() - hard.blocking_rate()).abs() < 0.12,
            "fast-EWMA MBAC {} vs threshold {}",
            fast.blocking_rate(),
            hard.blocking_rate()
        );
        let slow = Simulation::new(base_cfg(
            15.0,
            Discipline::MeasurementBased { target_share: 1.0, ewma_weight: 0.02, retry: None },
        ))
        .run();
        // The sluggish estimator lets bursts through: population exceeds
        // the nominal threshold at least occasionally.
        assert!(
            slow.occupancy().len() as u64 > 16,
            "slow MBAC must overshoot the threshold occupancy"
        );
    }

    #[test]
    fn budget_exhaustion_yields_consistent_partial_report() {
        let mut cfg = base_cfg(40.0, Discipline::BestEffort);
        cfg.max_events = Some(5_000);
        let err = Simulation::new(cfg.clone()).run_checked().expect_err("budget must fire");
        let SimError::BudgetExhausted { events, partial } = err;
        assert_eq!(events, 5_000, "a budget of N processes exactly N events");
        assert_eq!(partial.events, 5_000, "partial report carries the event count");
        assert!(format!("{}", SimError::BudgetExhausted {
            events,
            partial: partial.clone()
        })
        .contains("5000 event(s)"));
        // The partial report is a usable, self-consistent truncation: the
        // census was flushed, counters are nonzero, and occupancy still
        // tabulates (5000 events at ~40 events/time-unit is ~125 time
        // units — well past the 50-unit warm-up).
        assert!(partial.completed > 0, "some flows completed before the cut-off");
        assert!(partial.attempts >= partial.completed);
        let occ = partial.occupancy();
        assert!(occ.mean() > 0.0);
        // `run()` degrades to exactly that partial report.
        let degraded = Simulation::new(cfg.clone()).run();
        assert_eq!(degraded.digest(), partial.digest(), "run() returns the same truncation");
        // And the truncation is deterministic: same seed, same budget,
        // same digest.
        let again = Simulation::new(cfg).run();
        assert_eq!(again.digest(), degraded.digest());
    }

    #[test]
    fn budget_truncation_matches_across_queues() {
        // The watchdog counts *processed* events, which both queues pop in
        // the same order — so even truncated runs are bit-identical.
        let mut cfg = base_cfg(40.0, Discipline::BestEffort);
        cfg.max_events = Some(5_000);
        let sim = Simulation::new(cfg);
        let heap = sim.run_on(QueueKind::Heap);
        let wheel = sim.run_on(QueueKind::Wheel);
        assert_eq!(heap.digest(), wheel.digest());
    }

    #[test]
    fn unbounded_budget_matches_legacy_run() {
        let cfg = base_cfg(25.0, Discipline::BestEffort);
        let checked = Simulation::new(cfg.clone()).run_checked().expect("no budget configured");
        let legacy = Simulation::new(cfg).run();
        assert_eq!(checked.digest(), legacy.digest());
    }

    #[test]
    fn elastic_utility_prefers_admitting_everyone() {
        let be = Simulation::new(base_cfg_with(
            15.0,
            Discipline::BestEffort,
            Arc::new(Saturating::new(0.2)),
        ))
        .run();
        let rv = Simulation::new(base_cfg_with(
            15.0,
            Discipline::Reservation { k_max: 10, retry: None },
            Arc::new(Saturating::new(0.2)),
        ))
        .run();
        // Counting blocked flows as zeros, aggressive admission control
        // wastes elastic utility.
        assert!(be.utility_at_admission.mean() > rv.utility_at_admission.mean());
    }
}
