//! The traced runs: the same work as each workload's entry call, done
//! through each layer's public functions so the harness can time every
//! layer call from outside.
//!
//! The figure runs mirror `bevra_report::figures` (`fig4` with its
//! `utility_panels`, and `ext_retrying`), whose grid helpers are private,
//! so the grids are rebuilt here by the same formulas. The outputs are
//! checked against the same references as the untraced run, so a drift
//! between a mirror and the code it mirrors fails the run.

use crate::trace::{CountingFamily, Layers, LoadStats, Tracer};
use bevra_core::continuum::AlgebraicClosed;
use bevra_core::retrying::{AlgebraicFamily, GeometricFamily, LoadFamily, RetryModel};
use bevra_core::{equalizing_price_ratio, DiscreteModel, SampledValue};
use bevra_engine::{
    chunk_ranges, parallel_map, record_caches, record_health, span, thread_count, Architecture,
    CacheStats, SweepEngine, SweepHealth, SweepPoint,
};
use bevra_load::{Algebraic, Tabulated, PAPER_MEAN_LOAD};
use bevra_num::NumResult;
use bevra_report::{Figure, Panel, Series};
use bevra_sim::{Fleet, FleetReport, QueueKind, Simulation};
use bevra_utility::{AdaptiveExp, Rigid, Utility};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// `figures::capacity_grid`: `n` log-spaced capacities over
/// `[k̄/20, 10·k̄]`.
///
/// The grids take `n` through `black_box`: with a constant `n` the
/// compiler folds `powf`/`powi` at build time, and the folded values can
/// differ from the library's run-time ones in the last bit.
fn capacity_grid(n: usize, kbar: f64) -> Vec<f64> {
    let n = std::hint::black_box(n);
    let lo = kbar / 20.0;
    let hi = 10.0 * kbar;
    let ratio = (hi / lo).powf(1.0 / (n - 1) as f64);
    (0..n).map(|i| lo * ratio.powi(i as i32)).collect()
}

/// `figures::price_grid`: `n` log-spaced prices over `[1e−4, 0.9]`.
fn price_grid(n: usize) -> Vec<f64> {
    let n = std::hint::black_box(n);
    let (lo, hi) = (1e-4f64, 0.9f64);
    let ratio = (hi / lo).powf(1.0 / (n - 1) as f64);
    (0..n).map(|i| lo * ratio.powi(i as i32)).collect()
}

/// Sum of the three in-memory memo tables' counters of an engine.
fn memo_stats<U: Utility>(engine: &SweepEngine<U>) -> (CacheStats, CacheStats) {
    let stats = engine.cache_stats();
    let pick = |name: &str| stats.iter().find(|(n, _)| n == name).map(|(_, s)| *s);
    let best_effort = pick("best_effort").unwrap_or_default();
    let all = ["k_max", "best_effort", "reservation"]
        .iter()
        .filter_map(|n| pick(n))
        .fold(CacheStats::default(), |acc, s| CacheStats {
            hits: acc.hits + s.hits,
            misses: acc.misses + s.misses,
        });
    (best_effort, all)
}

fn persist_stats<U: Utility>(engine: &SweepEngine<U>) -> CacheStats {
    engine
        .persistent_cache()
        .map(bevra_engine::PersistentCache::stats)
        .unwrap_or_default()
}

/// Prime `engine` on `cs` inside a `kernel.prime` span. A prime served
/// from the persistent cache evaluates no lanes; otherwise every distinct
/// positive capacity is one pass over the `table_len`-entry load table.
fn prime<U: Utility>(
    t: &mut Tracer,
    m: &mut Layers,
    engine: &SweepEngine<U>,
    cs: &[f64],
    table_len: usize,
) {
    let hits = persist_stats(engine).hits;
    let id = t.open("kernel.prime");
    engine.prime(cs);
    m.add("kernel.prime_s", t.close(id));
    if engine.kernel().capability().grid_priming && persist_stats(engine).hits == hits {
        let mut points: Vec<u64> = cs
            .iter()
            .filter(|c| c.is_finite() && **c > 0.0)
            .map(|c| c.to_bits())
            .collect();
        points.sort_unstable();
        points.dedup();
        m.add("kernel.lane_evals", (points.len() * table_len) as f64);
    }
}

/// `figures::utility_panels` at full quality, one span per layer call.
fn utility_panels<U: Utility>(
    t: &mut Tracer,
    m: &mut Layers,
    load: &Arc<Tabulated>,
    utility: U,
    which: &str,
) -> Vec<Panel> {
    let kbar = load.mean();
    let engine = SweepEngine::new(DiscreteModel::new(Arc::clone(load), utility));
    let cs = capacity_grid(48, kbar);
    let tag = which.to_lowercase();
    prime(t, m, &engine, &cs, load.len());

    let (be0, memo0) = memo_stats(&engine);
    let id = t.open("engine.gap");
    let checked = engine.sweep_checked(&cs);
    m.add("engine.gap_s", t.close(id));
    let (be1, memo1) = memo_stats(&engine);
    m.add("engine.gap_probes", (be1.misses - be0.misses) as f64);
    m.add("engine.memo_hits", (memo1.hits - memo0.hits) as f64);
    m.add(
        "engine.memo_lookups",
        (memo1.hits + memo1.misses - memo0.hits - memo0.misses) as f64,
    );

    let field = |get: fn(&SweepPoint) -> f64| -> Vec<f64> {
        checked
            .outcomes
            .iter()
            .map(|o| o.point().map_or(f64::NAN, get))
            .collect()
    };
    let b = field(|p| p.best_effort);
    let r = field(|p| p.reservation);
    let gap = field(|p| p.bandwidth_gap);
    record_health(&format!("{tag}/sweep"), checked.health.clone());

    let c_max = 300.0 * kbar;
    let welfare_grid = 800;
    prime(
        t,
        m,
        &engine,
        &SampledValue::grid(kbar, c_max, welfare_grid),
        load.len(),
    );
    let id = t.open("engine.value_table");
    let (sv_b, hb) =
        engine.value_table_checked(Architecture::BestEffort, kbar, c_max, welfare_grid);
    let (sv_r, hr) =
        engine.value_table_checked(Architecture::Reservation, kbar, c_max, welfare_grid);
    m.add("engine.value_table_s", t.close(id));
    record_health(&format!("{tag}/value-table-B"), hb);
    record_health(&format!("{tag}/value-table-R"), hr);

    let ps = price_grid(24);
    let id = t.open("welfare.gamma");
    let (gamma, hg) = engine.gamma_sweep_checked(&ps, &sv_b, &sv_r);
    m.add("welfare.gamma_s", t.close(id));
    record_health(&format!("{tag}/gamma"), hg);

    let persist = persist_stats(&engine);
    m.add("persist.hits", persist.hits as f64);
    m.add("persist.misses", persist.misses as f64);
    record_caches(&tag, engine.cache_stats());
    vec![
        Panel {
            title: format!("Utility - {which} Applications"),
            xlabel: "capacity C".into(),
            ylabel: "normalized utility".into(),
            series: vec![
                Series::new("reservation R(C)", cs.clone(), r),
                Series::new("best-effort B(C)", cs.clone(), b),
            ],
        },
        Panel {
            title: format!("Bandwidth Gap - {which} Applications"),
            xlabel: "capacity C".into(),
            ylabel: "Δ(C)".into(),
            series: vec![Series::new("bandwidth gap", cs, gap)],
        },
        Panel {
            title: format!("Equalizing Price Ratio - {which} Applications"),
            xlabel: "bandwidth price p".into(),
            ylabel: "γ(p)".into(),
            series: vec![Series::new("gamma", ps, gamma)],
        },
    ]
}

/// `figures::fig4(Quality::Full)`, traced.
///
/// # Panics
///
/// Panics if the algebraic calibration fails, as `fig4` does.
pub fn fig4(t: &mut Tracer, m: &mut Layers) -> Figure {
    let id = t.open("load.build");
    let model = Algebraic::from_mean(3.0, PAPER_MEAN_LOAD)
        .unwrap_or_else(|e| panic!("fig4 calibration (z = 3, mean 100): {e:?}"));
    let load = Arc::new(Tabulated::from_model(&model, 1e-9, 1 << 20));
    m.add("load.build_s", t.close(id));
    m.add("load.builds", 1.0);
    m.add("load.table_builds", 1.0);
    m.add("load.make_calls", 1.0);
    m.add("load.entries", load.len() as f64);
    let mut panels = utility_panels(t, m, &load, Rigid::unit(), "Rigid");
    panels.extend(utility_panels(
        t,
        m,
        &load,
        AdaptiveExp::paper(),
        "Adaptive",
    ));
    Figure {
        id: "fig4".into(),
        caption: "Algebraic distribution (z = 3): utility, bandwidth gap, and price ratio to equalize welfare".into(),
        panels,
    }
}

/// Values of `(value, failure cause)` pairs, with their health recorded
/// under `label` as `figures` records it; `non_finite` names a non-finite
/// value that came without a cause.
fn with_health(label: &str, raw: Vec<(f64, Option<String>)>, non_finite: &str) -> Vec<f64> {
    let mut health = SweepHealth::new();
    let out = raw
        .into_iter()
        .map(|(v, cause)| {
            let bad = health.tally_non_finite(v);
            match cause {
                Some(c) => health.note_degraded(&c),
                None if bad => health.note_degraded(non_finite),
                None => health.note_ok(),
            }
            v
        })
        .collect();
    record_health(label, health);
    out
}

/// `figures::gap_sweep_with_health`, also summing each evaluation's time
/// over the worker threads into `eval_ns`.
fn gap_sweep(
    label: &str,
    cs: &[f64],
    eval: impl Fn(f64) -> NumResult<f64> + Sync,
    eval_ns: &AtomicU64,
) -> Vec<f64> {
    let raw = parallel_map(cs, |&c| {
        let t0 = Instant::now();
        let v = eval(c);
        let ns = u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX);
        eval_ns.fetch_add(ns, Ordering::Relaxed);
        match v {
            Ok(v) => (v, None),
            Err(e) => (f64::NAN, Some(format!("{label} at C = {c}: {e}"))),
        }
    });
    with_health(label, raw, "non-finite gap")
}

/// `figures::retry_gamma_continuum`: continuum algebraic `γ(p)` with the
/// §5.2 load-inflation fixed point.
fn retry_gamma_continuum(z: f64, alpha: f64, prices: &[f64]) -> Vec<f64> {
    let closed = AlgebraicClosed::rigid(z);
    let kbar = closed.mean_load();
    let v_r = |c: f64| -> f64 {
        if c <= 1.0 {
            return 0.0;
        }
        let theta_at = |m: f64| ((c / m).powf(2.0 - z) / (z - 1.0)).min(0.99);
        let mut m = 1.0f64;
        for _ in 0..200 {
            let theta = theta_at(m);
            let next = 1.0 + theta / (1.0 - theta);
            if (next - m).abs() < 1e-12 * m {
                m = next;
                break;
            }
            m = 0.5 * m + 0.5 * next;
        }
        let theta = theta_at(m);
        let d = theta / (1.0 - theta);
        let r = (m * closed.reservation(c / m) - alpha * d).max(0.0);
        kbar * r
    };
    let sv_r = SampledValue::build(v_r, kbar, 1e6, 2000);
    let mut sp = span(format!("retrying/gamma-continuum-a{alpha}"));
    sp.add_points(prices.len() as u64);
    let raw = parallel_map(prices, |&p| {
        let wb = closed.welfare_best_effort(p);
        match equalizing_price_ratio(|ph| sv_r.welfare(ph).welfare, wb, p) {
            Ok(g) => (g, None),
            Err(e) => (f64::NAN, Some(format!("retry gamma at p = {p}: {e}"))),
        }
    });
    drop(sp);
    with_health(
        &format!("ext-retrying/gamma-a{alpha}"),
        raw,
        "non-finite retry gamma",
    )
}

/// `figures::ext_retrying(Quality::Fast)`, traced. Every load family is
/// wrapped in a [`CountingFamily`], so table builds nested inside the
/// retry fixed point are counted and timed on the worker threads that
/// run them.
pub fn retry(t: &mut Tracer, m: &mut Layers) -> Figure {
    let kbar = PAPER_MEAN_LOAD;
    let table_cap = 1usize << 16;
    let cs = capacity_grid(12, kbar);
    let stats = Arc::new(LoadStats::default());
    let eval_ns = AtomicU64::new(0);
    // Load-family time spent inside the retry evaluations (as opposed to
    // the warm-up builds on the main thread), summed over threads.
    let (mut nested_make_ns, mut nested_build_ns) = (0u64, 0u64);
    let mut sweep =
        |t: &mut Tracer, name: &str, what: String, rm: &(dyn Fn(f64) -> NumResult<f64> + Sync)| {
            let (make0, build0) = (
                stats.make_ns.load(Ordering::Relaxed),
                stats.build_ns.load(Ordering::Relaxed),
            );
            let id = t.open(name);
            let mut sp = span(format!("retrying/{what}"));
            sp.add_points(cs.len() as u64);
            let d = gap_sweep(&format!("ext-retrying/{what}"), &cs, rm, &eval_ns);
            drop(sp);
            t.close(id);
            nested_make_ns += stats.make_ns.load(Ordering::Relaxed) - make0;
            nested_build_ns += stats.build_ns.load(Ordering::Relaxed) - build0;
            d
        };
    let mut exp_series = Vec::new();
    let mut alg_series = Vec::new();
    for alpha in [0.0, 0.1, 0.5] {
        let rm = RetryModel::new(
            CountingFamily::new(GeometricFamily::new(1e-10, table_cap), Arc::clone(&stats)),
            AdaptiveExp::paper(),
            kbar,
            alpha,
        );
        let d = sweep(t, "retry.exp", format!("exp-a{alpha}"), &|c| {
            rm.performance_gap(c)
        });
        exp_series.push(Series::new(format!("α = {alpha}"), cs.clone(), d));

        let fam = CountingFamily::new(
            AlgebraicFamily::new(3.0, 1e-7, table_cap),
            Arc::clone(&stats),
        );
        let id = t.open("load.build");
        let _ = fam.make(kbar);
        t.close(id);
        let rma = RetryModel::new(fam, AdaptiveExp::paper(), kbar, alpha);
        let da = sweep(t, "retry.alg", format!("alg-a{alpha}"), &|c| {
            rma.performance_gap(c)
        });
        alg_series.push(Series::new(format!("α = {alpha}"), cs.clone(), da));
    }
    let ps = price_grid(8);
    let mut gamma_series = Vec::new();
    for alpha in [0.05, 0.1, 0.5] {
        let id = t.open("welfare.gamma");
        let g = retry_gamma_continuum(3.0, alpha, &ps);
        m.add("welfare.gamma_s", t.close(id));
        gamma_series.push(Series::new(format!("α = {alpha}"), ps.clone(), g));
    }

    let load = |c: &AtomicU64| c.load(Ordering::Relaxed) as f64;
    let eval = load(&eval_ns);
    m.add("load.build_s", load(&stats.build_ns) / 1e9);
    m.add("load.builds", load(&stats.builds));
    m.add("load.table_builds", load(&stats.table_builds));
    m.add("load.make_calls", load(&stats.make_calls));
    m.add("load.entries", load(&stats.entries));
    m.add("retry.eval_s", (eval - nested_make_ns as f64) / 1e9);
    // Nested builds as a share of the thread-summed time of the retry
    // evaluations that contain them.
    if eval > 0.0 {
        m.add("load.build_share", nested_build_ns as f64 / eval);
    }
    Figure {
        id: "ext-retrying".into(),
        caption: "Retrying extension (§5.2): gaps and price ratios with blocked-request retries"
            .into(),
        panels: vec![
            Panel {
                title: "Performance Gap with Retries - Exponential/Adaptive".into(),
                xlabel: "capacity C".into(),
                ylabel: "δ̃(C)".into(),
                series: exp_series,
            },
            Panel {
                title: "Performance Gap with Retries - Algebraic(z=3)/Adaptive".into(),
                xlabel: "capacity C".into(),
                ylabel: "δ̃(C)".into(),
                series: alg_series,
            },
            Panel {
                title: "Equalizing Price Ratio with Retries - Algebraic(z=3), continuum".into(),
                xlabel: "bandwidth price p".into(),
                ylabel: "γ(p)".into(),
                series: gamma_series,
            },
        ],
    }
}

/// The fleet run, traced: every lane alone and serially first (one
/// `sim.lane` span each), then `Fleet::run` as the workload calls it.
/// Returns the fleet report, the solo lanes' digests, and the seconds
/// `Fleet::run` took.
pub fn fleet(
    t: &mut Tracer,
    m: &mut Layers,
    fleet: &Fleet,
    lanes: u32,
) -> (FleetReport, Vec<u64>, f64) {
    let mut lane_s = Vec::new();
    let mut solo = Vec::new();
    for lane in 0..lanes {
        let id = t.open("sim.lane");
        let report = Simulation::new(fleet.lane_config(lane)).run_on(QueueKind::Wheel);
        lane_s.push(t.close(id));
        solo.push(report.digest());
    }
    let shards = bevra_sim::fleet::shard_count();
    let busy: Vec<f64> = chunk_ranges(lanes as usize, shards)
        .into_iter()
        .map(|r| lane_s[r].iter().sum())
        .collect();
    let id = t.open("sim.fleet");
    let report = fleet.run();
    let fleet_s = t.close(id);
    let serial: f64 = lane_s.iter().sum();
    let workers = thread_count().min(busy.len()).max(1);
    let mean_busy = serial / busy.len().max(1) as f64;
    m.set("sim.events", report.merged.events as f64);
    m.set("sim.lane_s", serial);
    m.set("sim.events_per_s", report.merged.events as f64 / fleet_s);
    m.set("sim.parallel_eff", serial / (workers as f64 * fleet_s));
    m.set(
        "sim.shard_imbalance",
        busy.iter().copied().fold(0.0, f64::max) / mean_busy,
    );
    (report, solo, fleet_s)
}
