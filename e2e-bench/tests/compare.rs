//! `compare` on synthetic result files: one workload per verdict.

use bevra_e2e_bench::spec::spec;
use std::path::PathBuf;
use std::process::Command;

/// One timed-run result line with the given `wall_s` and `failed_frac`;
/// the other metrics are constant so they judge as no change.
fn line(workload: &str, wall: f64, failed_frac: f64) -> String {
    let metric = |v: f64| format!("{{\"value\": {v:?}, \"unit\": \"s\"}}");
    let metrics: Vec<String> = spec()
        .end_to_end
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {}",
                m.name,
                metric(if m.name == "wall_s" { wall } else { 1.0 })
            )
        })
        .collect();
    format!(
        "{{\"workload\": \"{workload}\", \"trace\": false, \"failed_frac\": {failed_frac:?}, \"metrics\": {{{}}}}}",
        metrics.join(", ")
    )
}

fn write(name: &str, lines: &[String]) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("compare");
    std::fs::create_dir_all(&dir).expect("scratch dir");
    let path = dir.join(name);
    std::fs::write(&path, lines.join("\n") + "\n").expect("write run file");
    path
}

#[test]
fn each_verdict_on_synthetic_runs() {
    let bound = spec()
        .end_to_end
        .iter()
        .find(|m| m.name == "wall_s")
        .and_then(|m| m.bound)
        .unwrap();
    // Ten runs per side; a small deterministic jitter of ±bound/20.
    let jitter = |i: usize| 1.0 + bound * 0.05 * ((i % 5) as f64 - 2.0) / 2.0;
    let mut parent = Vec::new();
    let mut change = Vec::new();
    for i in 0..10 {
        let j = jitter(i);
        // gain: the change is faster by twice the bound in every pair.
        parent.push(line("gain", 10.0 * j, 0.0));
        change.push(line("gain", 10.0 * j * (1.0 - 2.0 * bound), 0.0));
        // regression: slower by twice the bound.
        parent.push(line("regression", 10.0 * j, 0.0));
        change.push(line("regression", 10.0 * j * (1.0 + 2.0 * bound), 0.0));
        // no change: the same samples.
        parent.push(line("same", 10.0 * j, 0.0));
        change.push(line("same", 10.0 * j, 0.0));
        // unresolved: the parent alternates between 1× and 3×, far wider
        // than the bound, and the change neither wins nor loses clearly.
        let wide = if i % 2 == 0 { 10.0 } else { 30.0 };
        parent.push(line("noisy", wide, 0.0));
        change.push(line("noisy", 20.0 * j, 0.0));
        // any increase in failed outputs is a regression.
        parent.push(line("failing", 10.0 * j, 0.0));
        change.push(line("failing", 10.0 * j, if i == 3 { 0.01 } else { 0.0 }));
    }
    let a = write("parent.jsonl", &parent);
    let b = write("change.jsonl", &change);
    let out = Command::new(env!("CARGO_BIN_EXE_bevra-e2e-bench"))
        .arg("compare")
        .arg(&a)
        .arg(&b)
        .output()
        .expect("run compare");
    let table = String::from_utf8_lossy(&out.stdout);
    let verdict = |workload: &str, metric: &str| -> String {
        table
            .lines()
            .find(|l| l.split_whitespace().take(2).eq([workload, metric]))
            .unwrap_or_else(|| panic!("no row {workload}/{metric} in\n{table}"))
            .rsplit("  ")
            .next()
            .unwrap()
            .trim()
            .to_owned()
    };
    assert_eq!(verdict("gain", "wall_s"), "gain", "{table}");
    assert_eq!(verdict("regression", "wall_s"), "REGRESSION", "{table}");
    assert_eq!(verdict("same", "wall_s"), "no change", "{table}");
    assert_eq!(verdict("noisy", "wall_s"), "unresolved", "{table}");
    assert_eq!(verdict("failing", "failed_frac"), "REGRESSION", "{table}");
    assert_eq!(verdict("failing", "wall_s"), "no change", "{table}");
    assert_eq!(out.status.code(), Some(1), "a regression exits 1:\n{table}");

    // Without the regressing workloads, only the unresolved pair remains.
    let keep = |v: &[String]| -> Vec<String> {
        v.iter()
            .filter(|l| !l.contains("regression") && !l.contains("failing"))
            .cloned()
            .collect()
    };
    let a = write("parent2.jsonl", &keep(&parent));
    let b = write("change2.jsonl", &keep(&change));
    let status = Command::new(env!("CARGO_BIN_EXE_bevra-e2e-bench"))
        .args(["compare".as_ref(), a.as_os_str(), b.as_os_str()])
        .output()
        .expect("run compare")
        .status;
    assert_eq!(status.code(), Some(2), "an unresolved pair exits 2");
}

#[test]
fn a_wide_spread_does_not_hide_a_clean_sweep() {
    use bevra_e2e_bench::compare::{judge, Rule, Verdict};
    let rule = Rule {
        lower_is_better: true,
        bound: 0.1,
        floor: 0.0,
        any_increase: false,
    };
    // Both sides spread by 30 % or more, but every run of one side beats
    // every run of the other.
    let slow = [10.0, 11.0, 12.0, 13.0, 14.0];
    let fast = [5.0, 5.5, 6.0, 6.5, 7.0];
    assert_eq!(judge(&slow, &fast, rule).verdict, Verdict::Gain);
    assert_eq!(judge(&fast, &slow, rule).verdict, Verdict::Regression);
    // Overlapping runs with the same wide spread stay unresolved.
    assert_eq!(
        judge(&slow, &[9.5, 11.5, 12.5, 13.5, 15.0], rule).verdict,
        Verdict::Unresolved
    );
}
