//! A harness run writes only under `target/bench/`: the repository's
//! `results/` is byte-identical afterwards, and the scratch directories
//! are gone.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::Command;

fn snapshot(dir: &Path) -> BTreeMap<PathBuf, Vec<u8>> {
    let mut out = BTreeMap::new();
    let mut stack = vec![dir.to_path_buf()];
    while let Some(d) = stack.pop() {
        let Ok(entries) = std::fs::read_dir(&d) else {
            continue;
        };
        for e in entries.flatten() {
            let p = e.path();
            if p.is_dir() {
                stack.push(p);
            } else {
                out.insert(p.clone(), std::fs::read(&p).unwrap_or_default());
            }
        }
    }
    out
}

#[test]
fn a_figure_run_leaves_results_untouched() {
    let repo = Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("repository root");
    let results = repo.join("results");
    let before = snapshot(&results);
    // From the repository root, as a benchmark runner invokes it; one job
    // at the shortest run length.
    let out = Command::new(env!("CARGO_BIN_EXE_bevra-e2e-bench"))
        .args([
            "--workload",
            "fig4_cold",
            "--seed",
            "7",
            "--seconds",
            "1",
            "--trace",
            "0",
        ])
        .current_dir(repo)
        .env("BEVRA_CACHE_DIR", results.join("cache"))
        .output()
        .expect("run the harness");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "harness failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(
        stdout
            .lines()
            .last()
            .is_some_and(|l| l.contains("\"correct\": true")),
        "{stdout}"
    );
    assert!(
        before == snapshot(&results),
        "results/ changed during a harness run"
    );
    let leftovers: Vec<_> = std::fs::read_dir(repo.join("target").join("bench"))
        .map(|d| {
            d.flatten()
                .filter(|e| e.path().is_dir())
                .map(|e| e.path())
                .collect()
        })
        .unwrap_or_default();
    assert!(
        leftovers.is_empty(),
        "scratch directories left behind: {leftovers:?}"
    );
}
