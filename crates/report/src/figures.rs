//! Generation of every figure in the paper's evaluation (Figures 1–4) plus
//! the §5 extension studies. Shared by the CLI binaries and the Criterion
//! benches.
//!
//! All discrete-model figures use the paper's calibration `k̄ = 100`.
//! Capacities run to `10·k̄` and prices sweep four decades, matching the
//! published axes. Absolute values need not match the paper's plots point
//! for point (the paper's own numerics are unpublished), but every
//! qualitative feature — who wins, where gaps peak, which gaps diverge — is
//! asserted against the text's claims in `EXPERIMENTS.md` and the
//! integration tests.

use crate::series::{Figure, Panel, Series};
use bevra_core::continuum::AlgebraicClosed;
use bevra_core::retrying::{AlgebraicFamily, GeometricFamily, LoadFamily, RetryModel};
use bevra_core::{equalizing_price_ratio, DiscreteModel, SampledValue, SamplingModel};
use bevra_engine::{
    parallel_map, record_caches, record_health, span, Architecture, CacheStats, SweepEngine,
    SweepHealth,
};
use bevra_load::{Algebraic, Geometric, Poisson, Tabulated, PAPER_MEAN_LOAD};
use bevra_utility::{AdaptiveExp, Rigid, Utility};
use std::sync::Arc;

/// Resolution/size preset: `Fast` for benches and CI, `Full` for the real
/// figure regeneration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Quality {
    /// Coarse grids, capped tables — seconds.
    Fast,
    /// Publication grids.
    Full,
}

impl Quality {
    fn capacity_points(self) -> usize {
        match self {
            Quality::Fast => 12,
            Quality::Full => 48,
        }
    }

    fn price_points(self) -> usize {
        match self {
            Quality::Fast => 8,
            Quality::Full => 24,
        }
    }

    fn table_cap(self) -> usize {
        match self {
            Quality::Fast => 1 << 16,
            Quality::Full => 1 << 20,
        }
    }

    fn welfare_grid(self) -> usize {
        match self {
            Quality::Fast => 200,
            Quality::Full => 800,
        }
    }
}

/// Capacity sweep `[k̄/20, 10·k̄]`, denser below `k̄` where the action is.
fn capacity_grid(q: Quality, kbar: f64) -> Vec<f64> {
    let n = q.capacity_points();
    let lo = kbar / 20.0;
    let hi = 10.0 * kbar;
    let ratio = (hi / lo).powf(1.0 / (n - 1) as f64);
    (0..n).map(|i| lo * ratio.powi(i as i32)).collect()
}

/// Price sweep, log-spaced over `[1e−4, 0.9]`.
fn price_grid(q: Quality) -> Vec<f64> {
    let n = q.price_points();
    let (lo, hi) = (1e-4f64, 0.9f64);
    let ratio = (hi / lo).powf(1.0 / (n - 1) as f64);
    (0..n).map(|i| lo * ratio.powi(i as i32)).collect()
}

/// Build the three per-utility panels (utility curves, bandwidth gap,
/// equalizing price ratio) for one load table and one utility.
///
/// All sweeps run through a [`SweepEngine`] (parallel per `BEVRA_THREADS`,
/// memoized, bitwise-identical to the serial scalar path); its cache
/// counters are published for the figure's run ledger line.
fn utility_panels<U: Utility>(
    load: &Arc<Tabulated>,
    utility: U,
    which: &str,
    q: Quality,
) -> Vec<Panel> {
    let kbar = load.mean();
    let engine = SweepEngine::new(DiscreteModel::new(Arc::clone(load), utility));
    let cs = capacity_grid(q, kbar);
    let tag = which.to_lowercase();
    // Checked sweep: a failed point (isolated worker panic) degrades to
    // NaN in the plotted series instead of aborting the figure, and the
    // ledger lands in the run ledger via record_health.
    let checked = engine.sweep_checked(&cs);
    let field = |get: fn(&bevra_engine::SweepPoint) -> f64| -> Vec<f64> {
        checked.outcomes.iter().map(|o| o.point().map_or(f64::NAN, get)).collect()
    };
    let b = field(|p| p.best_effort);
    let r = field(|p| p.reservation);
    let gap = field(|p| p.bandwidth_gap);
    record_health(&format!("{tag}/sweep"), checked.health.clone());
    // Welfare: sample V_B and V_R once on a capacity grid, then sweep p.
    // The ceiling must exceed the optimal capacity at the cheapest price
    // swept; for the heavy-tailed loads that is ~100·k̄ at p = 1e−4.
    let c_max = 300.0 * kbar;
    let (sv_b, hb) =
        engine.value_table_checked(Architecture::BestEffort, kbar, c_max, q.welfare_grid());
    let (sv_r, hr) =
        engine.value_table_checked(Architecture::Reservation, kbar, c_max, q.welfare_grid());
    record_health(&format!("{tag}/value-table-B"), hb);
    record_health(&format!("{tag}/value-table-R"), hr);
    let ps = price_grid(q);
    let (gamma, hg) = engine.gamma_sweep_checked(&ps, &sv_b, &sv_r);
    record_health(&format!("{tag}/gamma"), hg);
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

/// Assemble a full six-panel figure (rigid a–c, adaptive d–f) for a load.
fn six_panel_figure(id: &str, caption: &str, load: Tabulated, q: Quality) -> Figure {
    let load = Arc::new(load);
    let mut panels = utility_panels(&load, Rigid::unit(), "Rigid", q);
    panels.extend(utility_panels(&load, AdaptiveExp::paper(), "Adaptive", q));
    Figure { id: id.into(), caption: caption.into(), panels }
}

/// **Figure 1** — the adaptive utility curve `π(b) = 1 − e^{−b²/(κ+b)}`.
#[must_use]
pub fn fig1() -> Figure {
    let u = AdaptiveExp::paper();
    let x: Vec<f64> = (0..=400).map(|i| f64::from(i) * 0.025).collect();
    let y: Vec<f64> = x.iter().map(|&b| u.value(b)).collect();
    Figure {
        id: "fig1".into(),
        caption: "Adaptive utility function (paper Eq. 2, κ = 0.62086)".into(),
        panels: vec![Panel {
            title: "Adaptive Utility Function".into(),
            xlabel: "bandwidth b".into(),
            ylabel: "π(b)".into(),
            series: vec![Series::new("π(b)", x, y)],
        }],
    }
}

/// **Figure 2** — Poisson load (`ν = k̄ = 100`), all six panels.
#[must_use]
pub fn fig2(q: Quality) -> Figure {
    let load = Tabulated::from_model(&Poisson::new(PAPER_MEAN_LOAD), 1e-12, q.table_cap());
    six_panel_figure(
        "fig2",
        "Poisson distribution: utility, bandwidth gap, and price ratio to equalize welfare",
        load,
        q,
    )
}

/// **Figure 3** — exponential load (`β = ln(1.01)`, mean 100), six panels.
#[must_use]
pub fn fig3(q: Quality) -> Figure {
    let load = Tabulated::from_model(&Geometric::from_mean(PAPER_MEAN_LOAD), 1e-12, q.table_cap());
    six_panel_figure(
        "fig3",
        "Exponential distribution: utility, bandwidth gap, and price ratio to equalize welfare",
        load,
        q,
    )
}

/// **Figure 4** — algebraic load (`z = 3`, mean 100), six panels.
///
/// # Panics
///
/// Panics if the algebraic calibration fails (cannot happen for z = 3,
/// mean 100).
#[must_use]
pub fn fig4(q: Quality) -> Figure {
    let model = Algebraic::from_mean(3.0, PAPER_MEAN_LOAD)
        .unwrap_or_else(|e| panic!("fig4 calibration (z = 3, mean 100): {e:?}"));
    let load = Tabulated::from_model(&model, 1e-9, q.table_cap());
    six_panel_figure(
        "fig4",
        "Algebraic distribution (z = 3): utility, bandwidth gap, and price ratio to equalize welfare",
        load,
        q,
    )
}

/// **§5.1 sampling extension**: performance and bandwidth gaps versus
/// capacity for `S ∈ {1, 2, 5, 10}` samples, exponential load + adaptive
/// applications (the case the paper quantifies), plus the asymptotic
/// algebraic ratio `(S(z−1))^{1/(z−2)}` versus `z`.
#[must_use]
pub fn ext_sampling(q: Quality) -> Figure {
    let kbar = PAPER_MEAN_LOAD;
    let load =
        Arc::new(Tabulated::from_model(&Geometric::from_mean(kbar), 1e-12, q.table_cap()));
    let cs = capacity_grid(q, kbar);
    let s_values = [1u32, 2, 5, 10];
    let mut perf_series = Vec::new();
    let mut gap_series = Vec::new();
    for &s in &s_values {
        let sm = SamplingModel::new(
            DiscreteModel::new(Arc::clone(&load), AdaptiveExp::paper()),
            s,
        );
        let mut sp = span(format!("sampling/gaps-S{s}"));
        sp.add_points(cs.len() as u64);
        let gaps = parallel_map(&cs, |&c| {
            let d = sm.performance_gap(c);
            match sm.bandwidth_gap(c) {
                Ok(g) => (d, g, None),
                Err(e) => (d, f64::NAN, Some(format!("sampling gap at C = {c}: {e}"))),
            }
        });
        drop(sp);
        let mut health = SweepHealth::new();
        let mut d = Vec::with_capacity(gaps.len());
        let mut g = Vec::with_capacity(gaps.len());
        for (dv, gv, cause) in gaps {
            let bad = u64::from(health.tally_non_finite(dv)) + u64::from(health.tally_non_finite(gv));
            match cause {
                Some(c) => health.note_degraded(&c),
                None if bad > 0 => health.note_degraded("non-finite sampling gap"),
                None => health.note_ok(),
            }
            d.push(dv);
            g.push(gv);
        }
        record_health(&format!("ext-sampling/S{s}"), health);
        perf_series.push(Series::new(format!("S = {s}"), cs.clone(), d));
        gap_series.push(Series::new(format!("S = {s}"), cs.clone(), g));
    }
    let zs: Vec<f64> = (0..40).map(|i| 2.05 + f64::from(i) * 0.05).collect();
    let ratio_series: Vec<Series> = s_values
        .iter()
        .map(|&s| {
            let y: Vec<f64> = zs
                .iter()
                .map(|&z| bevra_core::asymptotics::alg_sampling_gap_ratio(z, z - 1.0, s))
                .collect();
            Series::new(format!("S = {s}"), zs.clone(), y)
        })
        .collect();
    Figure {
        id: "ext-sampling".into(),
        caption: "Sampling extension (§5.1): gaps grow with the number of load samples S".into(),
        panels: vec![
            Panel {
                title: "Performance Gap under Sampling - Exponential/Adaptive".into(),
                xlabel: "capacity C".into(),
                ylabel: "δ_S(C)".into(),
                series: perf_series,
            },
            Panel {
                title: "Bandwidth Gap under Sampling - Exponential/Adaptive".into(),
                xlabel: "capacity C".into(),
                ylabel: "Δ_S(C)".into(),
                series: gap_series,
            },
            Panel {
                title: "Asymptotic Ratio (S(z-1))^(1/(z-2)) - Algebraic/Rigid".into(),
                xlabel: "tail exponent z".into(),
                ylabel: "lim (C+Δ)/C".into(),
                series: ratio_series,
            },
        ],
    }
}

/// Continuum algebraic welfare with retrying: `γ(p)` computed from the
/// closed forms plus the §5.2 load-inflation fixed point (lower-bound Pareto
/// scale `m = 1 + D`, blocking `θ = (C/m)^{2−z}/(z−1)`).
fn retry_gamma_continuum(z: f64, alpha: f64, prices: &[f64]) -> Vec<f64> {
    let closed = AlgebraicClosed::rigid(z);
    let kbar = closed.mean_load();
    // Reservation total utility with retries at capacity C.
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
    let mut health = SweepHealth::new();
    let mut out = Vec::with_capacity(raw.len());
    for (g, cause) in raw {
        let bad = health.tally_non_finite(g);
        match cause {
            Some(c) => health.note_degraded(&c),
            None if bad => health.note_degraded("non-finite retry gamma"),
            None => health.note_ok(),
        }
        out.push(g);
    }
    record_health(&format!("ext-retrying/gamma-a{alpha}"), health);
    out
}

/// Evaluate `N` fallible per-capacity gap series over `cs` in parallel,
/// one `eval` call per capacity for all of them, degrading failures to NaN
/// with a recorded [`SweepHealth`] ledger per series under `labels[i]` —
/// the structured replacement for the old silent `unwrap_or(NAN)`.
fn gap_sweeps_with_health<const N: usize>(
    labels: &[String; N],
    cs: &[f64],
    eval: impl Fn(f64) -> bevra_num::NumResult<[f64; N]> + Sync,
) -> [Vec<f64>; N] {
    let raw = parallel_map(cs, |&c| eval(c).map_err(|e| format!("at C = {c}: {e}")));
    std::array::from_fn(|i| {
        let mut health = SweepHealth::new();
        let mut out = Vec::with_capacity(raw.len());
        for r in &raw {
            let v = r.as_ref().map_or(f64::NAN, |vs| vs[i]);
            let bad = health.tally_non_finite(v);
            match r {
                Err(cause) => health.note_degraded(&format!("{} {cause}", labels[i])),
                Ok(_) if bad => health.note_degraded("non-finite gap"),
                Ok(_) => health.note_ok(),
            }
            out.push(v);
        }
        record_health(&labels[i], health);
        out
    })
}

/// One retry gap series per `α` for the family tagged `tag`, from one
/// load-inflation solve per capacity (the inflation does not depend on
/// `α`), with the family's table-cache traffic published as
/// `ext-retrying/<tag>`.
fn retry_gap_series<F: LoadFamily, const N: usize>(
    tag: &str,
    rm: &RetryModel<AdaptiveExp, F>,
    cs: &[f64],
    alphas: [f64; N],
) -> Vec<Series> {
    let mut sp = span(format!("retrying/{tag}"));
    sp.add_points(cs.len() as u64);
    let labels = alphas.map(|a| format!("ext-retrying/{tag}-a{a}"));
    let gaps = gap_sweeps_with_health(&labels, cs, |c| rm.performance_gaps(c, alphas));
    drop(sp);
    let (hits, misses) = rm.family().cache_stats();
    record_caches("ext-retrying", vec![(tag.into(), CacheStats { hits, misses })]);
    alphas.iter().zip(gaps).map(|(a, d)| Series::new(format!("α = {a}"), cs.to_vec(), d)).collect()
}

/// **§5.2 retrying extension**: discrete performance gaps with and without
/// the retry penalty (exponential and algebraic loads, adaptive
/// applications) and the continuum `γ(p)` with retries.
#[must_use]
pub fn ext_retrying(q: Quality) -> Figure {
    let kbar = PAPER_MEAN_LOAD;
    let cs = capacity_grid(q, kbar);
    let alphas = [0.0, 0.1, 0.5];
    // The models' own α is unused: `performance_gaps` takes every α.
    let rm = RetryModel::new(
        GeometricFamily::new(1e-10, q.table_cap()),
        AdaptiveExp::paper(),
        kbar,
        0.0,
    );
    let exp_series = retry_gap_series("exp", &rm, &cs, alphas);
    let fam = AlgebraicFamily::new(3.0, 1e-7, q.table_cap().min(1 << 18));
    // Algebraic calibration cannot go below the λ = 0 minimum mean, and
    // the retry inflation keeps means ≥ k̄, so construction succeeds.
    let _ = fam.make(kbar);
    let rma = RetryModel::new(fam, AdaptiveExp::paper(), kbar, 0.0);
    let alg_series = retry_gap_series("alg", &rma, &cs, alphas);
    let ps = price_grid(q);
    let gamma_series: Vec<Series> = [0.05, 0.1, 0.5]
        .iter()
        .map(|&alpha| {
            Series::new(
                format!("α = {alpha}"),
                ps.clone(),
                retry_gamma_continuum(3.0, alpha, &ps),
            )
        })
        .collect();
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig1_curve_shape() {
        let f = fig1();
        let s = &f.panels[0].series[0];
        assert_eq!(s.x.len(), 401);
        assert_eq!(s.y[0], 0.0);
        assert!(*s.y.last().unwrap() > 0.999);
        assert!(s.y.windows(2).all(|w| w[1] >= w[0]), "monotone");
    }

    #[test]
    fn grids_are_increasing_and_sized() {
        let cs = capacity_grid(Quality::Fast, 100.0);
        assert_eq!(cs.len(), Quality::Fast.capacity_points());
        assert!(cs.windows(2).all(|w| w[1] > w[0]));
        assert!(cs[0] >= 4.9 && *cs.last().unwrap() <= 1001.0);
        let ps = price_grid(Quality::Fast);
        assert!(ps.windows(2).all(|w| w[1] > w[0]));
    }

    #[test]
    fn fig2_fast_panels_have_expected_structure() {
        let f = fig2(Quality::Fast);
        assert_eq!(f.panels.len(), 6);
        // Panel a: R dominates B everywhere.
        let r = &f.panels[0].series[0].y;
        let b = &f.panels[0].series[1].y;
        for (rv, bv) in r.iter().zip(b) {
            assert!(rv + 1e-9 >= *bv);
        }
    }
}
