//! Regenerate every quantitative claim in the paper's text (§3.3–§5.2) and
//! the simulator validation, emitting a paper-vs-measured Markdown report to
//! stdout and `results/experiments.md`.
//!
//! Pass `--fast` to use coarse tables (CI smoke test); the full run takes a
//! few minutes, dominated by the algebraic load tables.

use bevra_core::continuum::AlgebraicClosed;
use bevra_core::retrying::{AlgebraicFamily, RetryModel};
use bevra_core::{bandwidth_gap, performance_gap, DiscreteModel, SamplingModel};
use bevra_engine::{Architecture, SweepEngine};
use bevra_load::{Algebraic, Geometric, Poisson, Tabulated, PAPER_MEAN_LOAD};
use bevra_report::table::{fmt, markdown_table};
use bevra_sim::{Discipline, HoldingDist, MixedPoisson, RateMixing, SimConfig, Simulation};
use bevra_utility::{AdaptiveExp, Rigid, Utility};
use std::fmt::Write as _;
use std::sync::Arc;

struct Row {
    id: &'static str,
    what: &'static str,
    paper: &'static str,
    measured: String,
}

fn rows_to_table(rows: &[Row]) -> String {
    markdown_table(
        &["exp", "quantity", "paper", "measured"],
        &rows
            .iter()
            .map(|r| {
                vec![r.id.to_string(), r.what.to_string(), r.paper.to_string(), r.measured.clone()]
            })
            .collect::<Vec<_>>(),
    )
}

/// `γ(p)` for each requested price: one engine builds both welfare tables
/// in parallel (memoized `B`/`R` shared between them) and sweeps the
/// prices.
fn gammas_of<U: Utility>(load: &Arc<Tabulated>, u: U, prices: &[f64], grid: usize) -> Vec<f64> {
    let engine = SweepEngine::new(DiscreteModel::new(Arc::clone(load), u));
    let kbar = load.mean();
    let sv_b = engine.value_table(Architecture::BestEffort, kbar, 300.0 * kbar, grid);
    let sv_r = engine.value_table(Architecture::Reservation, kbar, 300.0 * kbar, grid);
    engine.gamma_sweep(prices, &sv_b, &sv_r)
}

fn gamma_of<U: Utility>(load: &Arc<Tabulated>, u: U, p: f64, grid: usize) -> f64 {
    gammas_of(load, u, &[p], grid)[0]
}

#[allow(clippy::too_many_lines)]
fn main() -> std::io::Result<()> {
    bevra_report::emit::announce_kernel();
    bevra_report::emit::arm_run("experiments");
    let fast = std::env::args().any(|a| a == "--fast");
    let cap = if fast { 1 << 16 } else { 1 << 20 };
    let grid = if fast { 300 } else { 800 };
    let kbar = PAPER_MEAN_LOAD;
    let mut out = String::new();
    let mut rows: Vec<Row> = Vec::new();

    // ---- T-P: Poisson claims (§3.3) -------------------------------------
    let poisson = Arc::new(Tabulated::from_model(&Poisson::new(kbar), 1e-13, cap));
    let pr = DiscreteModel::new(Arc::clone(&poisson), Rigid::unit());
    let delta_peak = (40..140)
        .map(|c| performance_gap(&pr, f64::from(c)))
        .fold(0.0f64, f64::max);
    rows.push(Row { id: "T-P", what: "Poisson rigid: peak δ(C)", paper: "≈ 0.8", measured: fmt(delta_peak) });
    let gap_peak = (1..140)
        .map(|c| bandwidth_gap(&pr, f64::from(c)).unwrap_or(0.0))
        .fold(0.0f64, f64::max);
    rows.push(Row { id: "T-P", what: "Poisson rigid: peak Δ(C)", paper: "≈ 80", measured: fmt(gap_peak) });
    rows.push(Row {
        id: "T-P",
        what: "Poisson rigid: δ(2k̄)",
        paper: "< 1e−15",
        measured: fmt(performance_gap(&pr, 2.0 * kbar)),
    });
    rows.push(Row {
        id: "T-P",
        what: "Poisson rigid: δ(4k̄)",
        paper: "< 1e−15",
        measured: fmt(performance_gap(&pr, 4.0 * kbar)),
    });

    // ---- T-E: exponential claims (§3.3) ----------------------------------
    let geo = Arc::new(Tabulated::from_model(&Geometric::from_mean(kbar), 1e-13, cap));
    let er = DiscreteModel::new(Arc::clone(&geo), Rigid::unit());
    rows.push(Row { id: "T-E", what: "exp rigid: δ(2k̄)", paper: "≈ 0.27", measured: fmt(performance_gap(&er, 200.0)) });
    rows.push(Row { id: "T-E", what: "exp rigid: δ(4k̄)", paper: "≈ 0.07", measured: fmt(performance_gap(&er, 400.0)) });
    let d2 = bandwidth_gap(&er, 200.0).unwrap_or(f64::NAN);
    let d8 = bandwidth_gap(&er, 800.0).unwrap_or(f64::NAN);
    // The §3.3 closed form: βΔ = ln(1 + β(C + Δ)), asymptotically ln(βC)/β.
    let closed = bevra_core::continuum::ExponentialRigidClosed::from_mean(kbar);
    let cd2 = closed.bandwidth_gap(200.0).unwrap_or(f64::NAN);
    let cd8 = closed.bandwidth_gap(800.0).unwrap_or(f64::NAN);
    rows.push(Row {
        id: "T-E",
        what: "exp rigid: Δ(2k̄), Δ(8k̄) discrete vs continuum closed form (log growth)",
        paper: "monotone, log-growing",
        measured: format!(
            "{} → {} (closed form {} → {})",
            fmt(d2),
            fmt(d8),
            fmt(cd2),
            fmt(cd8)
        ),
    });
    let ea = DiscreteModel::new(Arc::clone(&geo), AdaptiveExp::paper());
    rows.push(Row { id: "T-E", what: "exp adaptive: δ(2k̄)", paper: "< 0.01", measured: fmt(performance_gap(&ea, 200.0)) });
    rows.push(Row { id: "T-E", what: "exp adaptive: δ(4k̄)", paper: "< 0.001", measured: fmt(performance_gap(&ea, 400.0)) });
    let ad_peak = (2..30)
        .map(|i| bandwidth_gap(&ea, f64::from(i) * 10.0).unwrap_or(0.0))
        .fold(0.0f64, f64::max);
    let ad_far = bandwidth_gap(&ea, 10.0 * kbar).unwrap_or(f64::NAN);
    rows.push(Row {
        id: "T-E",
        what: "exp adaptive: peak Δ then decay (Δpeak, Δ(10k̄))",
        paper: "peak ≈ 9, then ↓",
        measured: format!("{}, {}", fmt(ad_peak), fmt(ad_far)),
    });

    // ---- T-A: algebraic claims (§3.3) -------------------------------------
    let alg_model = Algebraic::from_mean(3.0, kbar).expect("calibration");
    let alg = Arc::new(Tabulated::from_model(&alg_model, 1e-9, cap));
    let ar = DiscreteModel::new(Arc::clone(&alg), Rigid::unit());
    rows.push(Row { id: "T-A", what: "alg(z=3) rigid: R−B at 2k̄", paper: "≈ 0.20", measured: fmt(performance_gap(&ar, 200.0)) });
    rows.push(Row { id: "T-A", what: "alg(z=3) rigid: R−B at 4k̄", paper: "≈ 0.10", measured: fmt(performance_gap(&ar, 400.0)) });
    let slope = (bandwidth_gap(&ar, 800.0).unwrap_or(f64::NAN)
        - bandwidth_gap(&ar, 400.0).unwrap_or(f64::NAN))
        / 400.0;
    rows.push(Row { id: "T-A", what: "alg(z=3) rigid: dΔ/dC at large C", paper: "1 (linear, slope (z−1)^{1/(z−2)}−1)", measured: fmt(slope) });
    let aa = DiscreteModel::new(Arc::clone(&alg), AdaptiveExp::paper());
    let slope_a = (bandwidth_gap(&aa, 800.0).unwrap_or(f64::NAN)
        - bandwidth_gap(&aa, 400.0).unwrap_or(f64::NAN))
        / 400.0;
    rows.push(Row {
        id: "T-A",
        what: "alg(z=3) adaptive: dΔ/dC (rigid/adaptive slope ratio)",
        paper: "slope smaller by > 20×",
        measured: format!("{} (ratio {})", fmt(slope_a), fmt(slope / slope_a)),
    });
    rows.push(Row {
        id: "T-A",
        what: "continuum z→2⁺ limit of Δ/C",
        paper: "e − 1 ≈ 1.718",
        measured: fmt(AlgebraicClosed::rigid(2.000_001).bandwidth_gap(1.0)),
    });

    // ---- T-W: welfare claims (§4) -----------------------------------------
    let poisson_rigid_gammas = gammas_of(&poisson, Rigid::unit(), &[0.05, 0.3], grid);
    rows.push(Row {
        id: "T-W",
        what: "Poisson rigid: γ(p) at p = 0.05 / 0.3",
        paper: "1.1–1.2 over most of the range",
        measured: format!("{} / {}", fmt(poisson_rigid_gammas[0]), fmt(poisson_rigid_gammas[1])),
    });
    rows.push(Row {
        id: "T-W",
        what: "Poisson adaptive: γ(0.05)",
        paper: "≈ 1",
        measured: fmt(gamma_of(&poisson, AdaptiveExp::paper(), 0.05, grid)),
    });
    rows.push(Row {
        id: "T-W",
        what: "exp rigid: γ(1e−4) (→1 as p→0)",
        paper: "→ 1 slowly",
        measured: fmt(gamma_of(&geo, Rigid::unit(), 1e-4, grid)),
    });
    rows.push(Row {
        id: "T-W",
        what: "alg(z=3) rigid: γ(1e−4)",
        paper: "→ (z−1)^{1/(z−2)} = 2",
        measured: fmt(gamma_of(&alg, Rigid::unit(), 1e-4, grid)),
    });
    rows.push(Row {
        id: "T-W",
        what: "alg(z=3) adaptive: γ(1e−4)",
        paper: "≈ 1.02",
        measured: fmt(gamma_of(&alg, AdaptiveExp::paper(), 1e-4, grid)),
    });

    // ---- E-S: sampling extension (§5.1) -----------------------------------
    let sm10 = SamplingModel::new(DiscreteModel::new(Arc::clone(&geo), AdaptiveExp::paper()), 10);
    rows.push(Row {
        id: "E-S",
        what: "exp adaptive S=10: δ_S(2k̄) vs basic",
        paper: "≈ 0.21 vs < 0.01",
        measured: format!("{} vs {}", fmt(sm10.performance_gap(200.0)), fmt(performance_gap(&ea, 200.0))),
    });
    let (mut peak_c, mut peak_v) = (0.0, 0.0);
    for i in 2..40 {
        let c = f64::from(i) * 10.0;
        let v = sm10.bandwidth_gap(c).unwrap_or(0.0);
        if v > peak_v {
            peak_v = v;
            peak_c = c;
        }
    }
    rows.push(Row {
        id: "E-S",
        what: "exp adaptive S=10: Δ_S peak (value at capacity)",
        paper: "≈ 2k̄ near C ≈ 1.5k̄",
        measured: format!("{} at C = {}", fmt(peak_v), fmt(peak_c)),
    });
    rows.push(Row {
        id: "E-S",
        what: "alg rigid sampling asymptotic ratio, S=2, z=2.5",
        paper: "(S(z−1))^{1/(z−2)} = 9",
        measured: fmt(bevra_core::asymptotics::alg_sampling_gap_ratio(2.5, 1.5, 2)),
    });

    // ---- E-R: retrying extension (§5.2) -----------------------------------
    let fam = AlgebraicFamily::new(3.0, 1e-7, cap.min(1 << 18));
    let rm = RetryModel::new(fam, AdaptiveExp::paper(), kbar, 0.1);
    let basic_alg_delta = performance_gap(&aa, 400.0);
    rows.push(Row {
        id: "E-R",
        what: "alg(z=3) adaptive α=0.1: δ̃(4k̄) vs basic",
        paper: "≈ 0.027 vs ≈ 0.0025",
        measured: format!(
            "{} vs {}",
            fmt(rm.performance_gap(400.0).unwrap_or(f64::NAN)),
            fmt(basic_alg_delta)
        ),
    });
    rows.push(Row {
        id: "E-R",
        what: "alg retry asymptotic ratio (z=3, H=2, α=0.1)",
        paper: "(H/α)^{1/(z−2)} = 20",
        measured: fmt(bevra_core::asymptotics::alg_retry_gap_ratio(3.0, 2.0, 0.1)),
    });

    // ---- V-SIM: simulator validation ---------------------------------------
    let horizon = if fast { 2_000.0 } else { 20_000.0 };
    let mut sim_rows: Vec<Row> = Vec::new();
    let sim_specs = [
        ("poisson", RateMixing::Fixed, "var ≈ mean (Poisson)"),
        ("exponential", RateMixing::Exponential, "var ≈ k̄² (geometric)"),
    ];
    // Both validation runs fan out together over the worker pool; each is
    // seeded, so the batch is bit-identical to running them one at a time.
    let cfgs: Vec<SimConfig> = sim_specs
        .iter()
        .map(|&(_, mixing, _)| SimConfig {
            capacity: 25.0,
            discipline: Discipline::BestEffort,
            arrivals: MixedPoisson::new(20.0, mixing, 50.0),
            holding: HoldingDist::Exponential { mean: 1.0 },
            utility: Arc::new(AdaptiveExp::paper()),
            warmup: 100.0,
            horizon,
            seed: 7,
            max_events: None,
        })
        .collect();
    let sim_reports = Simulation::run_batch(&cfgs);
    for (&(name, _, paper_var), rep) in sim_specs.iter().zip(&sim_reports) {
        let occ = rep.occupancy();
        // Analytic B from the *empirical* occupancy (the model closes the
        // loop on the simulator's own load).
        let analytic = DiscreteModel::new(occ.clone(), AdaptiveExp::paper());
        let b_model = analytic.best_effort(25.0);
        sim_rows.push(Row {
            id: "V-SIM",
            what: match name {
                "poisson" => "sim Poisson: B_sim(at-admission) vs B_model(empirical occupancy)",
                _ => "sim exponential: B_sim vs B_model",
            },
            paper: paper_var,
            measured: format!(
                "{} vs {} (occ mean {}, var {})",
                fmt(rep.utility_at_admission.mean()),
                fmt(b_model),
                fmt(occ.mean()),
                fmt(occ.variance())
            ),
        });
    }
    rows.extend(sim_rows);

    // ---- Emit ---------------------------------------------------------------
    writeln!(out, "# Regenerated experimental claims (paper vs measured)\n").unwrap();
    writeln!(out, "Mode: {}\n", if fast { "fast (--fast)" } else { "full" }).unwrap();
    out.push_str(&rows_to_table(&rows));
    println!("{out}");
    std::fs::create_dir_all("results")?;
    std::fs::write("results/experiments.md", out)?;
    // The only binary that drives the simulator: with `BEVRA_OBS=trace`
    // this writes the per-run span timeline.
    let trace = bevra_obs::export::export_run("experiments", std::path::Path::new("results"))?;
    if let Some(trace) = trace {
        println!("obs: wrote {}", trace.display());
    }
    Ok(())
}
