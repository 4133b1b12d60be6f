//! Golden-corpus snapshot tests: regenerate figure CSVs and diff them
//! against committed goldens with per-column ULP budgets
//! (`bevra_check::compare_csv`).
//!
//! The corpus pins three fully deterministic artifacts:
//!
//! * `fig1-panel1.csv` — the adaptive utility curve (401 points of
//!   `π(b) = 1 − e^{−b²/(κ+b)}`), regenerated through the real
//!   `fig1()` + `write_panel_csv` pipeline;
//! * `sweep-poisson20.csv` — a small discrete sweep (Poisson load,
//!   `k̄ = 20`, eight capacities, both rigid and adaptive utilities)
//!   through the memoized `SweepEngine`, covering `B`, `R`, `δ` and the
//!   root-solved `Δ`;
//! * `fig4-panel{1..6}.csv` and `fig4-fast-panel{1..6}.csv` — all six
//!   panels of `fig4` at full quality (algebraic z = 3 load on a
//!   2²⁰-entry table) and at `Quality::Fast` (2¹⁶ entries), so a change
//!   to how the heavy tail is summed cannot quietly move a published
//!   curve;
//! * `fig2-panel{1..6}.csv`, `fig3-panel{1..6}.csv` and
//!   `ext-sampling-panel{1..3}.csv` — every panel of `fig2`, `fig3` and
//!   `ext_sampling` at full quality (Poisson and geometric loads), so a
//!   change aimed at the algebraic tables cannot move them either;
//! * `ext-retrying-panel{1..3}.csv` — every panel of
//!   `ext_retrying(Quality::Full)`: the retry fixed point on geometric and
//!   algebraic tables and the continuum `γ(p)` with retries, so a faster
//!   retry solve cannot move a full-quality curve that CI's `--fast`
//!   byte compare does not see.
//!
//! Budgets: the `x`/`capacity` columns are grid arithmetic and must be
//! bitwise; utility columns get a few ULPs for libm (`exp`, `ln`) drift
//! across toolchains; the bandwidth gap column gets a larger budget
//! because the root finder amplifies last-ULP differences of the utility
//! evaluations it brackets with.
//!
//! To re-bless after an *intentional* output change:
//!
//! ```text
//! BEVRA_BLESS=1 cargo test -p bevra-report --test golden_corpus
//! ```

use bevra_core::DiscreteModel;
use bevra_engine::{ExecMode, SweepEngine};
use bevra_load::{Poisson, Tabulated};
use bevra_report::csv::write_panel_csv;
use bevra_report::figures::{ext_retrying, ext_sampling, fig1, fig2, fig3, fig4, Quality};
use bevra_report::series::{Figure, Panel, Series};
use bevra_utility::{AdaptiveExp, Rigid, Utility};
use std::path::PathBuf;
use std::sync::Arc;

fn golden_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden")
}

/// Diff `candidate` against the committed golden `name`, or rewrite the
/// golden when `BEVRA_BLESS` is set.
fn assert_matches_golden(name: &str, candidate: &str, budgets: &[(&str, u64)]) {
    let path = golden_dir().join(name);
    if std::env::var_os("BEVRA_BLESS").is_some() {
        std::fs::create_dir_all(golden_dir()).expect("create golden dir");
        std::fs::write(&path, candidate).expect("bless golden");
        return;
    }
    let golden = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing golden {} ({e}); run with BEVRA_BLESS=1", path.display()));
    bevra_check::compare_csv(&golden, candidate, budgets, 0)
        .unwrap_or_else(|e| panic!("{name} drifted from golden: {e}"));
}

fn panel_csv(panel: &Panel) -> String {
    let mut buf = Vec::new();
    write_panel_csv(panel, &mut buf).expect("in-memory CSV write");
    String::from_utf8(buf).expect("CSV is UTF-8")
}

#[test]
fn fig1_utility_curve_matches_golden() {
    let fig = fig1();
    let csv = panel_csv(&fig.panels[0]);
    // The curve is one exp() per cell; the x grid is exact binary
    // arithmetic (i · 0.025 rounds identically everywhere).
    assert_matches_golden("fig1-panel1.csv", &csv, &[("bandwidth b", 0), ("π(b)", 4)]);
}

#[test]
fn small_sweep_matches_golden() {
    let load = Arc::new(Tabulated::from_model(&Poisson::new(20.0), 1e-12, 1 << 12));
    let capacities = [2.0, 5.0, 10.0, 15.0, 20.0, 40.0, 80.0, 160.0];
    let mut series = Vec::new();
    for (name, utility) in [
        ("rigid", Arc::new(Rigid::unit()) as Arc<dyn Utility>),
        ("adaptive", Arc::new(AdaptiveExp::paper()) as Arc<dyn Utility>),
    ] {
        let engine = SweepEngine::with_mode(
            DiscreteModel::new(Arc::clone(&load), utility),
            ExecMode::Serial,
        );
        let points = engine.sweep(&capacities);
        let columns: [(&str, Vec<f64>); 4] = [
            ("B", points.iter().map(|p| p.best_effort).collect()),
            ("R", points.iter().map(|p| p.reservation).collect()),
            ("delta", points.iter().map(|p| p.performance_gap).collect()),
            ("Delta", points.iter().map(|p| p.bandwidth_gap).collect()),
        ];
        for (col, ys) in columns {
            series.push(Series::new(format!("{name} {col}"), capacities.to_vec(), ys));
        }
    }
    let panel = Panel {
        title: "golden sweep - Poisson(20)".into(),
        xlabel: "capacity".into(),
        ylabel: "value".into(),
        series,
    };
    let csv = panel_csv(&panel);
    assert_matches_golden(
        "sweep-poisson20.csv",
        &csv,
        &[
            ("capacity", 0),
            // Table sums over a few hundred cells with one exp/powi per
            // cell: a handful of ULPs absorbs libm drift.
            ("rigid B", 8),
            ("rigid R", 8),
            ("rigid delta", 8),
            ("adaptive B", 8),
            ("adaptive R", 8),
            ("adaptive delta", 8),
            // Δ comes out of a bracketing root finder on top of those
            // sums; last-ULP input drift can move the accepted root by
            // many ULPs without being a regression.
            ("rigid Delta", 4096),
            ("adaptive Delta", 4096),
        ],
    );
}

/// Column budgets of the six-panel figures (`fig2`, `fig3`, `fig4`).
const SIX_PANEL_BUDGETS: &[(&str, u64)] = &[
    // Grid arithmetic: bitwise.
    ("capacity C", 0),
    ("bandwidth price p", 0),
    // Table sums with one exp per cell.
    ("reservation R(C)", 16),
    ("best-effort B(C)", 16),
    // Root-solved on top of those sums (see `small_sweep`).
    ("bandwidth gap", 4096),
    ("gamma", 4096),
];

/// Diff every panel of `fig` against the goldens `<stem>-panel<i>.csv`,
/// panel `i` under `budgets[i - 1]`.
fn assert_figure_matches_golden(fig: &Figure, stem: &str, budgets: &[&[(&str, u64)]]) {
    assert_eq!(fig.panels.len(), budgets.len(), "{stem}: panel count");
    for (i, (panel, budgets)) in fig.panels.iter().zip(budgets).enumerate() {
        assert_matches_golden(&format!("{stem}-panel{}.csv", i + 1), &panel_csv(panel), budgets);
    }
}

#[test]
fn fig4_matches_golden() {
    assert_figure_matches_golden(&fig4(Quality::Full), "fig4", &[SIX_PANEL_BUDGETS; 6]);
}

#[test]
fn fig4_fast_matches_golden() {
    assert_figure_matches_golden(&fig4(Quality::Fast), "fig4-fast", &[SIX_PANEL_BUDGETS; 6]);
}

#[test]
fn fig2_matches_golden() {
    assert_figure_matches_golden(&fig2(Quality::Full), "fig2", &[SIX_PANEL_BUDGETS; 6]);
}

#[test]
fn fig3_matches_golden() {
    assert_figure_matches_golden(&fig3(Quality::Full), "fig3", &[SIX_PANEL_BUDGETS; 6]);
}

#[test]
fn ext_sampling_matches_golden() {
    // Every panel has the columns `S = 1`, `S = 2`, `S = 5`, `S = 10`.
    let columns = |x: &'static str, budget: u64| -> [(&'static str, u64); 5] {
        [(x, 0), ("S = 1", budget), ("S = 2", budget), ("S = 5", budget), ("S = 10", budget)]
    };
    // δ_S is a difference of table sums; Δ_S is root-solved on top of
    // them; the asymptotic ratio is one closed-form `powf` per cell.
    let (delta, gap, ratio) =
        (columns("capacity C", 16), columns("capacity C", 4096), columns("tail exponent z", 4));
    assert_figure_matches_golden(&ext_sampling(Quality::Full), "ext-sampling", &[&delta, &gap, &ratio]);
}

#[test]
fn ext_retrying_full_matches_golden() {
    // δ̃ (panels 1–2) is a difference of table sums, like `R(C)` and
    // `B(C)`; γ (panel 3) is root-solved.
    let delta = [("capacity C", 0), ("α = 0", 16), ("α = 0.1", 16), ("α = 0.5", 16)];
    let gamma =
        [("bandwidth price p", 0), ("α = 0.05", 4096), ("α = 0.1", 4096), ("α = 0.5", 4096)];
    assert_figure_matches_golden(&ext_retrying(Quality::Full), "ext-retrying", &[&delta, &delta, &gamma]);
}
