//! Shared output pipeline for the figure binaries: print ASCII charts,
//! persist JSON, write per-panel CSVs, and emit the engine's perf report.

use crate::ascii::render_panel;
use crate::csv::write_panel_csv;
use crate::persist::save_figure;
use crate::series::Figure;
use bevra_engine::ledger::{fnv1a, LedgerRecord, LEDGER_FILE};
use bevra_engine::{drain_caches, drain_health, drain_stages, thread_count, SweepReport};
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

/// Build the run's ledger record from the figure and its drained perf
/// report.
fn ledger_record(fig: &Figure, report: &SweepReport) -> LedgerRecord {
    let unix_ms = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map_or(0, |d| u64::try_from(d.as_millis()).unwrap_or(u64::MAX));
    let mut health = bevra_engine::SweepHealth::new();
    for (_, h) in &report.health {
        health.merge(h);
    }
    let (cache_hits, cache_misses) = report
        .caches
        .iter()
        .fold((0, 0), |(h, m), (_, st)| (h + st.hits, m + st.misses));
    LedgerRecord {
        id: fig.id.clone(),
        unix_ms,
        fingerprint: figure_fingerprint(fig),
        kernel: health.kernel.clone().unwrap_or_default(),
        simd: health.simd.clone().unwrap_or_default(),
        threads: report.threads as u64,
        points: report.total_points(),
        seconds: report.total_seconds(),
        cache_hits,
        cache_misses,
        ok: health.ok,
        degraded: health.degraded,
        failed: health.failed,
        non_finite: health.non_finite,
        retries: health.retries,
        breaker_trips: health.breaker_trips,
        restarts: health.restarts,
        digest: figure_digest(fig),
    }
}

/// Print a figure to stdout and write `results/<id>.json` plus
/// `results/<id>-panel<N>.csv`, then drain the sweep instrumentation
/// accumulated while the figure was built into `results/<id>-perf.json`
/// and `results/<id>-perf.csv` (stage timings, throughput, cache
/// hit/miss counters).
///
/// Every run also appends one record to `results/ledger.jsonl` — the
/// cross-run history `obs-report` renders and gates on — and, when the
/// flight recorder saw fault trips, drains a black box to
/// `results/<id>-blackbox.jsonl`.
///
/// With `BEVRA_OBS=summary` a metrics table is additionally printed and
/// the metrics registry is exported as `results/<id>-metrics.prom`; with
/// `BEVRA_OBS=trace` the buffered span events become
/// `results/<id>-trace.json` (Perfetto-loadable chrome-trace) and
/// `results/<id>-obs.jsonl`.
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
    let report = SweepReport::new(drain_stages(), drain_caches(), thread_count())
        .with_health(drain_health());
    if !report.stages.is_empty() || !report.caches.is_empty() || !report.health.is_empty() {
        bevra_faults::atomic_write(
            "report/perf-json",
            &dir.join(format!("{}-perf.json", fig.id)),
            report.to_json().as_bytes(),
        )?;
        bevra_faults::atomic_write(
            "report/perf-csv",
            &dir.join(format!("{}-perf.csv", fig.id)),
            report.to_csv().as_bytes(),
        )?;
        println!(
            "perf: {threads} thread(s), {pts} points in {secs:.3}s ({rate:.0} points/s)",
            threads = report.threads,
            pts = report.total_points(),
            secs = report.total_seconds(),
            rate = report.points_per_sec(),
        );
        for (label, health) in &report.health {
            if !health.is_clean() {
                println!("health: {label}: {health}");
            }
        }
    }
    // One ledger line per run, regardless of obs level: the trend history
    // `obs-report` reads. A ledger that can't be reached degrades to a
    // warning — the figure artifacts above are already on disk.
    let record = ledger_record(fig, &report);
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
    if let Some(prom) = &obs.prom_path {
        println!("obs: wrote {}", prom.display());
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
/// emitted `-perf` artifacts through the health ledger's `kernel` column.
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
        emit_figure(&fig, &dir).unwrap();
        assert!(dir.join("emit-test.json").exists());
        assert!(dir.join("emit-test-panel1.csv").exists());
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
