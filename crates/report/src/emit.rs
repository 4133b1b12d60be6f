//! Shared output pipeline for the figure binaries: print ASCII charts,
//! persist JSON, write per-panel CSVs, and append the run's ledger line.

use crate::ascii::render_panel;
use crate::csv::write_panel_csv;
use crate::persist::save_figure;
use crate::series::Figure;
use bevra_engine::ledger::{fnv1a, sum_stages, LedgerRecord, LEDGER_FILE};
use bevra_engine::{
    drain_caches, drain_health, drain_stages, thread_count, CacheStats, StageRecord, SweepHealth,
};
use bevra_obs::recorder;
use std::path::Path;

/// Arm the flight recorder's black box for run `id`: a panic anywhere in
/// this process from now on drains the recorder's last events to
/// `results/<id>-blackbox.jsonl`. The figure binaries call this right
/// after [`announce_kernel`], so even a fault-injected run that dies
/// mid-sweep leaves a post-mortem artifact.
pub fn arm_run(id: &str) {
    recorder::arm_blackbox(id, &results_dir());
}

/// Config fingerprint of a figure: FNV-1a over its id plus, per series,
/// the panel/series labels and the exact x-grid bit patterns — everything
/// that determines *what* was evaluated, nothing that depends on the
/// results. Two runs of the same figure at the same quality preset get
/// equal fingerprints.
fn figure_fingerprint(fig: &Figure) -> u64 {
    let mut bytes = Vec::new();
    bytes.extend_from_slice(fig.id.as_bytes());
    for p in &fig.panels {
        bytes.extend_from_slice(p.title.as_bytes());
        for s in &p.series {
            bytes.push(0);
            bytes.extend_from_slice(s.label.as_bytes());
            for &x in &s.x {
                bytes.extend_from_slice(&x.to_bits().to_le_bytes());
            }
        }
    }
    fnv1a(&bytes)
}

/// Result digest of a figure: FNV-1a over every series' y-value bit
/// patterns (in panel order). Bitwise-stable results hash identically, so
/// consecutive ledger entries with equal fingerprints must repeat this
/// digest — the determinism check `obs-report` enforces.
fn figure_digest(fig: &Figure) -> u64 {
    let mut bytes = Vec::new();
    for p in &fig.panels {
        for s in &p.series {
            bytes.push(0);
            bytes.extend_from_slice(s.label.as_bytes());
            for &y in &s.y {
                bytes.extend_from_slice(&y.to_bits().to_le_bytes());
            }
        }
    }
    fnv1a(&bytes)
}

/// Build the run's ledger record from the figure and the instrumentation
/// drained after building it: stages summed per name, caches as reported,
/// health ledgers merged in report order.
fn ledger_record(
    fig: &Figure,
    stages: Vec<StageRecord>,
    caches: Vec<(String, CacheStats)>,
    health: &[(String, SweepHealth)],
) -> LedgerRecord {
    let unix_ms = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map_or(0, |d| u64::try_from(d.as_millis()).unwrap_or(u64::MAX));
    let mut merged = SweepHealth::new();
    for (_, h) in health {
        merged.merge(h);
    }
    LedgerRecord {
        id: fig.id.clone(),
        unix_ms,
        fingerprint: figure_fingerprint(fig),
        kernel: merged.kernel.unwrap_or_default(),
        simd: merged.simd.unwrap_or_default(),
        threads: thread_count() as u64,
        stages: sum_stages(stages),
        caches,
        ok: merged.ok,
        degraded: merged.degraded,
        failed: merged.failed,
        non_finite: merged.non_finite,
        retries: merged.retries,
        breaker_trips: merged.breaker_trips,
        restarts: merged.restarts,
        first_failure: merged.first_failure,
        digest: figure_digest(fig),
    }
}

/// Print a figure to stdout and write `results/<id>.json` plus
/// `results/<id>-panel<N>.csv`, then drain the sweep instrumentation
/// accumulated while the figure was built (stage timings, cache hit/miss
/// counters, health ledgers) into one record appended to
/// `results/ledger.jsonl` — the cross-run history `obs-report` renders and
/// gates on — and print a `perf:` line per stage. When the flight recorder
/// saw fault trips, a black box is drained to `results/<id>-blackbox.jsonl`.
///
/// With `BEVRA_OBS=summary` a metrics table is additionally printed; with
/// `BEVRA_OBS=trace` the buffered span events become
/// `results/<id>-trace.json` (Perfetto-loadable chrome-trace).
///
/// # Errors
///
/// Propagates I/O failures.
pub fn emit_figure(fig: &Figure, dir: &Path) -> std::io::Result<()> {
    println!("==== {} — {} ====\n", fig.id, fig.caption);
    for (i, p) in fig.panels.iter().enumerate() {
        println!("{}", render_panel(p, 72, 18));
        let csv_path = dir.join(format!("{}-panel{}.csv", fig.id, i + 1));
        // Render fully in memory, then write atomically: a failed or
        // interrupted run never leaves a truncated panel CSV behind.
        let mut rendered = Vec::new();
        write_panel_csv(p, &mut rendered)?;
        bevra_faults::atomic_write("report/panel-csv", &csv_path, &rendered)?;
    }
    let json = save_figure(fig, dir)?;
    let health = drain_health();
    let record = ledger_record(fig, drain_stages(), drain_caches(), &health);
    for s in &record.stages {
        println!(
            "perf: {}: {} points in {:.3}s ({:.0} points/s, {} thread(s))",
            s.name,
            s.points,
            s.seconds,
            s.points_per_sec(),
            record.threads,
        );
    }
    for (label, h) in &health {
        if !h.is_clean() {
            println!("health: {label}: {h}");
        }
    }
    // One ledger line per run, regardless of obs level: the trend history
    // `obs-report` reads. A ledger that can't be reached degrades to a
    // warning — the figure artifacts above are already on disk.
    let ledger_path = dir.join(LEDGER_FILE);
    match record.append(&ledger_path) {
        Ok(()) => println!(
            "ledger: appended {} (fingerprint {:016x}, digest {:016x})",
            ledger_path.display(),
            record.fingerprint,
            record.digest,
        ),
        Err(e) => eprintln!("ledger: append to {} failed: {e}", ledger_path.display()),
    }
    let obs = bevra_obs::export::export_run(&fig.id, dir)?;
    if let Some(table) = &obs.summary {
        print!("{table}");
    }
    if let Some(trace) = &obs.trace_path {
        println!("obs: wrote {} (load in https://ui.perfetto.dev)", trace.display());
    }
    // A run that tripped injected faults but survived to the end (panic
    // isolation did its job) still ships its black box for post-mortems.
    if recorder::fault_trips() > 0 {
        if let Some(path) = recorder::write_blackbox("fault trips recorded during run") {
            println!("blackbox: wrote {}", path.display());
        }
    }
    println!("saved {} and {} CSV panel file(s) in {}", json.display(), fig.panels.len(), dir.display());
    Ok(())
}

/// Resolve and announce the kernel backend every engine in this process
/// will pick up (`BEVRA_KERNEL` via the engine registry): one line naming
/// the backend and its capability record, so a figure run's stdout
/// records which parity class produced the artifacts. The figure binaries
/// call this at the top of `main`; the per-sweep stamp also lands in the
/// run's ledger line as its `kernel` and `simd` fields.
pub fn announce_kernel() {
    let cap = bevra_engine::registry::from_env().capability();
    println!(
        "kernel: {} ({:?} parity, simd {:?}{})",
        cap.name,
        cap.parity,
        cap.simd,
        if cap.portable { ", portable" } else { "" },
    );
}

/// Resolve the output directory (`results/` relative to the workspace root
/// or cwd) and quality from CLI args: `--fast` selects the coarse preset.
#[must_use]
pub fn cli_quality() -> crate::figures::Quality {
    if std::env::args().any(|a| a == "--fast") {
        crate::figures::Quality::Fast
    } else {
        crate::figures::Quality::Full
    }
}

/// Default results directory.
#[must_use]
pub fn results_dir() -> std::path::PathBuf {
    std::path::PathBuf::from("results")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::series::{Panel, Series};

    #[test]
    fn emit_writes_all_artifacts() {
        let fig = Figure {
            id: "emit-test".into(),
            caption: "c".into(),
            panels: vec![Panel {
                title: "p".into(),
                xlabel: "x".into(),
                ylabel: "y".into(),
                series: vec![Series::new("s", vec![0.0, 1.0], vec![0.0, 1.0])],
            }],
        };
        let dir = std::env::temp_dir().join("bevra-emit-test");
        let _ = std::fs::remove_dir_all(&dir);
        // Two spans of one stage: the ledger line carries them summed.
        for points in [3, 4] {
            let mut sp = bevra_engine::span("emit-test/stage");
            sp.add_points(points);
        }
        emit_figure(&fig, &dir).unwrap();
        assert!(dir.join("emit-test.json").exists());
        assert!(dir.join("emit-test-panel1.csv").exists());
        let names: Vec<String> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
            .collect();
        assert!(!names.iter().any(|n| n.contains("-perf.")), "no perf report: {names:?}");
        let text = std::fs::read_to_string(dir.join(LEDGER_FILE)).unwrap();
        let ledger = crate::ledger::parse_ledger(&text);
        assert_eq!((ledger.records.len(), ledger.skipped), (1, 0), "{text}");
        let stage = ledger.records[0]
            .stages
            .iter()
            .find(|s| s.name == "emit-test/stage")
            .expect("the span reached the ledger line");
        assert_eq!(stage.points, 7);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// The obs exporter's chrome-trace output must be real JSON with the
    /// shape Perfetto expects — validated here with the report crate's own
    /// parser rather than string matching.
    #[test]
    fn obs_trace_json_parses_with_report_parser() {
        let events = vec![bevra_obs::SpanEvent {
            name: "sweep/points".into(),
            tid: 7,
            depth: 0,
            parent: None,
            start_us: 1.0,
            dur_us: 42.5,
            points: 16,
        }];
        let text = bevra_obs::export::trace_json(&events);
        let doc = crate::json::JsonValue::parse(&text).expect("trace JSON must parse");
        let items = doc.get("traceEvents").and_then(crate::json::JsonValue::as_arr).unwrap();
        // One process_name and one thread_name metadata event plus one "X"
        // complete event.
        assert_eq!(items.len(), 3);
        let x = items
            .iter()
            .find(|e| e.get("ph").and_then(crate::json::JsonValue::as_str) == Some("X"))
            .expect("has a complete event");
        assert_eq!(x.get("name").and_then(crate::json::JsonValue::as_str), Some("sweep/points"));
        assert_eq!(x.get("tid").and_then(crate::json::JsonValue::as_f64), Some(7.0));
        assert_eq!(x.get("dur").and_then(crate::json::JsonValue::as_f64), Some(42.5));
    }
}
