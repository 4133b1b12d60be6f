//! The correctness gate: a value moved by ten times its column's
//! tolerance, or a NaN injected where the reference is finite, must raise
//! `failed_frac` and make the exit status non-zero.

use bevra_report::Figure;
use std::path::PathBuf;
use std::process::Command;

fn scratch(name: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!("gate-{name}"));
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir.join("fig.json")
}

/// Run `check` on `fig` and return (exit success, failed_frac).
fn check(fig: &Figure, name: &str) -> (bool, f64) {
    let path = scratch(name);
    std::fs::write(&path, fig.to_json()).expect("write figure");
    let out = Command::new(env!("CARGO_BIN_EXE_bevra-e2e-bench"))
        .arg("check")
        .arg(&path)
        .output()
        .expect("run check");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let frac = stdout
        .split_whitespace()
        .skip_while(|w| *w != "failed_frac")
        .nth(1)
        .and_then(|v| v.parse().ok())
        .unwrap_or_else(|| panic!("no failed_frac in {stdout:?}"));
    (out.status.success(), frac)
}

fn reference(id: &str) -> Figure {
    bevra_e2e_bench::check::reference(id).expect("committed reference")
}

#[test]
fn reference_itself_passes() {
    for id in ["fig4", "ext-retrying"] {
        assert_eq!(
            check(&reference(id), &format!("pass-{id}")),
            (true, 0.0),
            "{id}"
        );
    }
}

#[test]
fn a_value_moved_by_ten_tolerances_fails() {
    use bevra_e2e_bench::check::{tolerance, Tolerance};
    // One panel of each column kind: utilities, Δ, γ, and the retry δ̃.
    for (id, panel) in [("fig4", 0), ("fig4", 1), ("fig4", 2), ("ext-retrying", 1)] {
        let mut fig = reference(id);
        let p = &mut fig.panels[panel];
        let tol = tolerance(&p.ylabel).expect("every reference column has a tolerance");
        let y = &mut p.series[0].y[5];
        *y += match tol {
            Tolerance::Abs(a) => 10.0 * a,
            Tolerance::Rel(r) => 10.0 * r * y.abs(),
        };
        let (ok, frac) = check(&fig, &format!("moved-{id}-{panel}"));
        assert!(!ok, "{id} panel {panel}: moved value must fail the run");
        assert!(frac > 0.0, "{id} panel {panel}: failed_frac must rise");
    }
}

#[test]
fn an_injected_nan_fails() {
    let mut fig = reference("fig4");
    fig.panels[1].series[0].y[10] = f64::NAN;
    let (ok, frac) = check(&fig, "nan");
    assert!(!ok);
    assert!(
        (frac - 1.0 / 336.0).abs() < 1e-12,
        "exactly one of 336 values failed: {frac}"
    );
}
