//! The correctness gate: emitted figures against committed references with
//! per-column tolerances, and fleet runs against the statistics any seed
//! must satisfy plus the committed digest of the default seed.

use crate::workload::fleet_config;
use bevra_core::DiscreteModel;
use bevra_report::json::JsonValue;
use bevra_report::Figure;
use bevra_sim::FleetReport;
use bevra_utility::AdaptiveExp;

/// Failure messages kept per outcome; the counts stay exact beyond it.
const MAX_MESSAGES: usize = 8;

/// Items checked, items failed, and the first few failure messages.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Outcome {
    /// Output values (or fleet lanes and checks) examined.
    pub attempted: u64,
    /// Of those, how many failed.
    pub failed: u64,
    /// The first failures, described.
    pub messages: Vec<String>,
}

impl Outcome {
    fn pass(&mut self) {
        self.attempted += 1;
    }

    fn fail(&mut self, msg: String) {
        self.attempted += 1;
        self.failed += 1;
        if self.messages.len() < MAX_MESSAGES {
            self.messages.push(msg);
        }
    }

    fn expect(&mut self, ok: bool, msg: impl FnOnce() -> String) {
        if ok {
            self.pass();
        } else {
            self.fail(msg());
        }
    }

    /// Fold another outcome into this one.
    pub fn merge(&mut self, other: &Outcome) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        for m in &other.messages {
            if self.messages.len() < MAX_MESSAGES {
                self.messages.push(m.clone());
            }
        }
    }

    /// Failed items per attempted item (0 when nothing was attempted).
    #[must_use]
    pub fn failed_frac(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }
}

/// How far an output value may sit from its reference.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Tolerance {
    /// Absolute difference.
    Abs(f64),
    /// Difference relative to the reference value.
    Rel(f64),
}

/// The tolerance of a panel's values, chosen by its y-axis label from the
/// solvers' own accuracies:
///
/// * utilities `B`, `R` and gaps `δ`: 1e-12 absolute, above the `fast`
///   kernel's documented 1e-13;
/// * `Δ`: 1e-6 absolute, ten times Brent's `1e-9·k̄` at `k̄ = 100`;
/// * `γ`: 1e-8 relative;
/// * the retry gap `δ̃`: 1e-6 absolute, the fixed point's accuracy.
#[must_use]
pub fn tolerance(ylabel: &str) -> Option<Tolerance> {
    match ylabel {
        "normalized utility" | "δ(C)" => Some(Tolerance::Abs(1e-12)),
        "Δ(C)" => Some(Tolerance::Abs(1e-6)),
        "γ(p)" => Some(Tolerance::Rel(1e-8)),
        "δ̃(C)" => Some(Tolerance::Abs(1e-6)),
        _ => None,
    }
}

/// Whether `got` matches `want` within `tol`. NaN matches only NaN.
#[must_use]
pub fn value_ok(got: f64, want: f64, tol: Tolerance) -> bool {
    if want.is_nan() || got.is_nan() {
        return want.is_nan() && got.is_nan();
    }
    let diff = (got - want).abs();
    match tol {
        Tolerance::Abs(a) => diff <= a,
        Tolerance::Rel(r) => diff <= r * want.abs(),
    }
}

/// The committed reference for figure `id`, if the benchmark has one.
///
/// # Panics
///
/// Panics if a committed reference does not parse.
#[must_use]
pub fn reference(id: &str) -> Option<Figure> {
    let text = match id {
        "fig4" => include_str!("../reference/fig4.json"),
        "ext-retrying" => include_str!("../reference/ext-retrying.json"),
        _ => return None,
    };
    Some(Figure::from_json(text).expect("committed references parse"))
}

/// Check every y-value of `got` against `want`. Abscissae must match to
/// the bit; a missing or relabelled panel or series fails all of its
/// reference values.
#[must_use]
pub fn check_figure(got: &Figure, want: &Figure) -> Outcome {
    let mut out = Outcome::default();
    for (pi, wp) in want.panels.iter().enumerate() {
        let gp = got.panels.get(pi).filter(|p| p.title == wp.title);
        let tol = tolerance(&wp.ylabel);
        for (si, ws) in wp.series.iter().enumerate() {
            let gs = gp
                .and_then(|p| p.series.get(si))
                .filter(|s| s.label == ws.label);
            for (i, &want_y) in ws.y.iter().enumerate() {
                let at = || format!("{} / {} [{i}]", wp.title, ws.label);
                let Some(gs) = gs else {
                    out.fail(format!("{}: missing from the output", at()));
                    continue;
                };
                let Some(tol) = tol else {
                    out.fail(format!(
                        "{}: no tolerance for y-label {:?}",
                        at(),
                        wp.ylabel
                    ));
                    continue;
                };
                let x_ok = gs.x.get(i).map(|x| x.to_bits()) == ws.x.get(i).map(|x| x.to_bits());
                let got_y = gs.y.get(i).copied().unwrap_or(f64::NAN);
                out.expect(
                    x_ok && gs.y.len() == ws.y.len() && value_ok(got_y, want_y, tol),
                    || format!("{}: got {got_y:e}, reference {want_y:e} ({tol:?})", at()),
                );
            }
        }
    }
    out
}

/// Check an emitted figure file against the reference of the figure id it
/// carries.
#[must_use]
pub fn check_figure_file(path: &std::path::Path) -> Outcome {
    let mut out = Outcome::default();
    match bevra_report::load_figure(path) {
        Err(e) => out.fail(format!("{}: {e}", path.display())),
        Ok(fig) => match reference(&fig.id) {
            Some(want) => out.merge(&check_figure(&fig, &want)),
            None => out.fail(format!(
                "{}: no reference for figure {:?}",
                path.display(),
                fig.id
            )),
        },
    }
    out
}

/// The committed fleet digests: `(seed, merged digest, lane digests)`.
///
/// # Panics
///
/// Panics if the committed reference does not parse.
#[must_use]
pub fn fleet_reference() -> (u64, u64, Vec<u64>) {
    let doc = JsonValue::parse(include_str!("../reference/fleet.json"))
        .expect("committed fleet reference parses");
    let hex = |v: &JsonValue| {
        v.as_str()
            .and_then(|s| u64::from_str_radix(s.trim_start_matches("0x"), 16).ok())
            .expect("fleet reference digests are hex strings")
    };
    let seed = doc
        .get("seed")
        .map(hex)
        .expect("fleet reference has a seed");
    let digest = doc
        .get("digest")
        .map(hex)
        .expect("fleet reference has a digest");
    let lanes = doc
        .get("lane_digests")
        .and_then(JsonValue::as_arr)
        .expect("fleet reference has lane digests")
        .iter()
        .map(hex)
        .collect();
    (seed, digest, lanes)
}

/// Check a fleet run made from base seed `seed`.
///
/// Every lane must merge untruncated. For any seed, the event count and
/// the time-averaged occupancy must fall inside the CLT bands the
/// simulator-versus-analysis tests use (8σ, plus 4/k̄ where the model has
/// an O(1/k̄) bias), and the utility sampled at arrivals must match the
/// analytical `B(C)` on the run's own occupancy (PASTA). At the default
/// seed the merged and per-lane digests must equal the committed ones.
#[must_use]
pub fn check_fleet(report: &FleetReport, seed: u64) -> Outcome {
    let mut out = Outcome::default();
    let cfg = fleet_config(seed);
    let lanes = f64::from(cfg.lanes);
    let health = &report.health;
    for lane in 0..cfg.lanes as usize {
        let ok = report.lane_digests.get(lane).is_some_and(Option::is_some);
        out.expect(ok, || format!("fleet lane {lane} produced no report"));
    }
    out.expect(health.truncated_lanes == 0 && health.all_ok(), || {
        format!(
            "fleet: {} truncated, {} failed lanes",
            health.truncated_lanes,
            health.failed_lanes()
        )
    });

    let kbar = cfg.base.arrivals.mean_rate();
    let end = cfg.base.warmup + cfg.base.horizon;
    // Starting empty, a lane sees A ~ Poisson(λ·T) arrivals and A − N(T)
    // departures, N(T) ≈ Poisson(λ) still in service: E = 2λT − λ,
    // Var ≈ 4λT.
    let expected = lanes * (2.0 * kbar * end - kbar);
    let sigma = (lanes * 4.0 * kbar * end).sqrt();
    let events = report.merged.events as f64;
    out.expect((events - expected).abs() <= 8.0 * sigma, || {
        format!("fleet events {events} outside {expected} ± 8σ (σ = {sigma:.0})")
    });

    // M/M/∞ occupancy has autocovariance k̄·e^{−|t|}, so a time average
    // over a window T has variance 2k̄/T per lane.
    let occ = report.merged.census.mean_population();
    let band = 8.0 * (2.0 * kbar / (cfg.base.horizon * lanes)).sqrt() + 4.0 / kbar;
    out.expect((occ - kbar).abs() <= band, || {
        format!("fleet mean occupancy {occ} outside {kbar} ± {band:.4}")
    });

    let u = &report.merged.utility_at_admission;
    let predicted = DiscreteModel::new(report.merged.occupancy(), AdaptiveExp::paper())
        .best_effort(cfg.base.capacity);
    let band = 8.0 * (u.variance() / u.count() as f64).sqrt() + 4.0 / kbar;
    out.expect((u.mean() - predicted).abs() <= band, || {
        format!(
            "fleet utility at arrivals {} vs B(C) {predicted} on its occupancy (band {band:.2e})",
            u.mean()
        )
    });

    let (ref_seed, digest, lane_digests) = fleet_reference();
    if seed == ref_seed {
        let got: Vec<Option<u64>> = lane_digests.iter().copied().map(Some).collect();
        out.expect(report.merged.digest() == digest && report.lane_digests == got, || {
            format!(
                "fleet digest {:#018x} differs from the reference {digest:#018x} for seed {seed:#x}",
                report.merged.digest()
            )
        });
    }
    out
}

/// Check that the lanes run alone and serially reproduce the fleet's
/// per-lane digests.
#[must_use]
pub fn check_lane_digests(report: &FleetReport, solo: &[u64]) -> Outcome {
    let mut out = Outcome::default();
    for (lane, &d) in solo.iter().enumerate() {
        let fleet = report.lane_digests.get(lane).copied().flatten();
        out.expect(fleet == Some(d), || {
            format!("lane {lane}: solo digest {d:#018x}, fleet lane digest {fleet:?}")
        });
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use bevra_report::{Panel, Series};

    fn fig(y: Vec<f64>) -> Figure {
        Figure {
            id: "t".into(),
            caption: String::new(),
            panels: vec![Panel {
                title: "p".into(),
                xlabel: "C".into(),
                ylabel: "Δ(C)".into(),
                series: vec![Series::new("gap", vec![1.0, 2.0, 3.0], y)],
            }],
        }
    }

    #[test]
    fn tolerances_and_nan_positions() {
        let want = fig(vec![1.0, f64::NAN, 3.0]);
        assert_eq!(check_figure(&want, &want).failed, 0);
        let out = check_figure(&fig(vec![1.0 + 5e-7, f64::NAN, 3.0]), &want);
        assert_eq!((out.attempted, out.failed), (3, 0));
        let out = check_figure(&fig(vec![1.0 + 1e-5, f64::NAN, 3.0]), &want);
        assert_eq!(out.failed, 1);
        let out = check_figure(&fig(vec![1.0, 2.0, f64::NAN]), &want);
        assert_eq!(out.failed, 2, "NaN positions must match both ways");
        assert!(value_ok(1e9 * (1.0 + 5e-9), 1e9, Tolerance::Rel(1e-8)));
        assert!(!value_ok(1e9 * (1.0 + 5e-8), 1e9, Tolerance::Rel(1e-8)));
    }

    #[test]
    fn committed_references_cover_every_column() {
        for (id, values) in [("fig4", 336), ("ext-retrying", 96)] {
            let r = reference(id).expect("reference exists");
            let n: usize = r
                .panels
                .iter()
                .flat_map(|p| &p.series)
                .map(|s| s.y.len())
                .sum();
            assert_eq!(n, values, "{id}");
            for p in &r.panels {
                assert!(tolerance(&p.ylabel).is_some(), "{id}: {}", p.ylabel);
            }
            assert_eq!(check_figure(&r, &r).failed, 0);
        }
        assert_eq!(fleet_reference().0, crate::workload::DEFAULT_SEED);
    }
}
