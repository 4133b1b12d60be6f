//! `compare`: two sets of timed runs, parent against change, judged per
//! (workload, metric) pair by the rule the benchmark's bounds are made
//! for.
//!
//! * **Regression** — the change's median is worse than the parent's by
//!   more than the bound, and either every change run is worse than every
//!   parent run or the spread is within the bound.
//! * **Unresolved** — the run-to-run spread (the wider side's interquartile
//!   range) exceeds the allowed worsening, and not every change run beats
//!   every parent run.
//! * **Gain** — the change wins at least nine tenths of the run pairs
//!   (ties count for neither) and its median is better by more than the
//!   parent's own interquartile range.
//! * **No change** — anything else.
//!
//! `failed_frac` is judged by its mean: any increase is a regression.

use crate::spec::spec;
use crate::stats::quartiles;
use bevra_report::json::JsonValue;
use std::collections::BTreeMap;

/// Verdict for one (workload, metric) pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Better beyond noise.
    Gain,
    /// Within the bound.
    NoChange,
    /// Worse beyond the bound.
    Regression,
    /// Too noisy to tell at this bound.
    Unresolved,
}

impl Verdict {
    /// Display name.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Verdict::Gain => "gain",
            Verdict::NoChange => "no change",
            Verdict::Regression => "REGRESSION",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// How a metric is judged.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Rule {
    /// Smaller is better.
    pub lower_is_better: bool,
    /// Allowed worsening as a share of the parent's median.
    pub bound: f64,
    /// Allowed worsening in the metric's unit, when larger than the share.
    pub floor: f64,
    /// Judge the means instead, and count any increase as a regression:
    /// one failing run must show even when the median does not move.
    pub any_increase: bool,
}

/// Per-side summary and the verdict of one pair.
#[derive(Debug, Clone, PartialEq)]
pub struct Judgement {
    /// Parent quartiles `(q1, median, q3)`.
    pub parent: (f64, f64, f64),
    /// Change quartiles `(q1, median, q3)`.
    pub change: (f64, f64, f64),
    /// Run pairs the change won.
    pub wins: usize,
    /// Run pairs compared (runs matched in file order).
    pub pairs: usize,
    /// The verdict.
    pub verdict: Verdict,
}

/// Judge one pair of sample sets.
///
/// # Panics
///
/// Panics when either side is empty.
#[must_use]
pub fn judge(parent: &[f64], change: &[f64], rule: Rule) -> Judgement {
    let p = quartiles(parent);
    let c = quartiles(change);
    let better = |a: f64, b: f64| if rule.lower_is_better { a < b } else { a > b };
    let worse_by = if rule.lower_is_better {
        c.1 - p.1
    } else {
        p.1 - c.1
    };
    let allowed = (rule.bound * p.1.abs()).max(rule.floor);
    let spread = (p.2 - p.0).max(c.2 - c.0);
    let pairs = parent.len().min(change.len());
    let wins = parent
        .iter()
        .zip(change)
        .filter(|(pv, cv)| better(**cv, **pv))
        .count();
    let all_better = change
        .iter()
        .all(|cv| parent.iter().all(|pv| better(*cv, *pv)));
    let all_worse = change
        .iter()
        .all(|cv| parent.iter().all(|pv| better(*pv, *cv)));
    let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
    let verdict = if rule.any_increase {
        match mean(change).partial_cmp(&mean(parent)) {
            Some(std::cmp::Ordering::Greater) => Verdict::Regression,
            Some(std::cmp::Ordering::Less) => Verdict::Gain,
            _ => Verdict::NoChange,
        }
    } else if worse_by > allowed && all_worse {
        Verdict::Regression
    } else if spread > allowed && !all_better {
        Verdict::Unresolved
    } else if worse_by > allowed {
        Verdict::Regression
    } else if pairs > 0 && wins * 10 >= pairs * 9 && -worse_by > p.2 - p.0 {
        Verdict::Gain
    } else {
        Verdict::NoChange
    };
    Judgement {
        parent: p,
        change: c,
        wins,
        pairs,
        verdict,
    }
}

/// The judging rule of metric `name`: the bound from `BENCHMARK.json`,
/// with an absolute floor of 4 MiB for peak memory, and "any increase" for
/// `failed_frac`.
#[must_use]
pub fn rule(name: &str) -> Option<Rule> {
    if name == "failed_frac" {
        return Some(Rule {
            lower_is_better: true,
            bound: 0.0,
            floor: 0.0,
            any_increase: true,
        });
    }
    let def = spec().end_to_end.iter().find(|m| m.name == name)?;
    let floor = if name == "peak_rss_mib" { 4.0 } else { 0.0 };
    Some(Rule {
        lower_is_better: def.lower_is_better,
        bound: def.bound.unwrap_or(0.0),
        floor,
        any_increase: false,
    })
}

/// Per-(workload, metric) values of the timed runs in a result file, in
/// file order. `failed_frac` is included as a metric.
///
/// # Errors
///
/// Describes an unreadable file or a malformed line.
pub fn load(path: &std::path::Path) -> Result<BTreeMap<(String, String), Vec<f64>>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let mut out: BTreeMap<(String, String), Vec<f64>> = BTreeMap::new();
    for (n, line) in text
        .lines()
        .enumerate()
        .filter(|(_, l)| !l.trim().is_empty())
    {
        let at = |what: &str| format!("{}:{}: {what}", path.display(), n + 1);
        let doc = JsonValue::parse(line).map_err(|e| at(&e))?;
        if doc.get("trace") == Some(&JsonValue::Bool(true)) {
            continue;
        }
        let workload = doc
            .get("workload")
            .and_then(JsonValue::as_str)
            .ok_or_else(|| at("no workload"))?;
        let mut push = |metric: &str, v: f64| {
            out.entry((workload.to_owned(), metric.to_owned()))
                .or_default()
                .push(v);
        };
        let frac = doc
            .get("failed_frac")
            .and_then(JsonValue::as_f64)
            .ok_or_else(|| at("no failed_frac"))?;
        push("failed_frac", frac);
        if let Some(JsonValue::Obj(metrics)) = doc.get("metrics") {
            for (name, m) in metrics {
                let v = m
                    .get("value")
                    .and_then(JsonValue::as_f64)
                    .ok_or_else(|| at(name))?;
                push(name, v);
            }
        }
    }
    Ok(out)
}

/// Judge every (workload, metric) pair present in both files, render the
/// table, and return it with the verdicts.
#[must_use]
pub fn compare(
    parent: &BTreeMap<(String, String), Vec<f64>>,
    change: &BTreeMap<(String, String), Vec<f64>>,
) -> (String, Vec<Verdict>) {
    let mut table = format!(
        "{:<11} {:<13} {:>34} {:>34} {:>6}  verdict\n",
        "workload", "metric", "parent median [q1 .. q3] n", "change median [q1 .. q3] n", "wins"
    );
    let mut verdicts = Vec::new();
    for ((w, m), pv) in parent {
        let (Some(cv), Some(r)) = (change.get(&(w.clone(), m.clone())), rule(m)) else {
            continue;
        };
        let j = judge(pv, cv, r);
        let side =
            |q: (f64, f64, f64), n: usize| format!("{:.6} [{:.6} .. {:.6}] {n}", q.1, q.0, q.2);
        table.push_str(&format!(
            "{w:<11} {m:<13} {:>34} {:>34} {:>6}  {}\n",
            side(j.parent, pv.len()),
            side(j.change, cv.len()),
            format!("{}/{}", j.wins, j.pairs),
            j.verdict.name()
        ));
        verdicts.push(j.verdict);
    }
    (table, verdicts)
}
