//! Exporters over the collected spans and metrics: chrome-trace JSON and
//! a plain-text summary table.
//!
//! The chrome-trace output follows the [Trace Event Format] (`"X"`
//! complete events, microsecond timestamps, one `tid` track per
//! instrumented thread) and loads directly in
//! [Perfetto](https://ui.perfetto.dev) or `chrome://tracing`.
//!
//! [Trace Event Format]: https://docs.google.com/document/d/1CvAClvFfyA5R-PhYUmn5OOQtYMH4h6I0nSsKchNAySU
//!
//! Figure binaries call [`export_run`], which consults [`crate::level`]:
//! nothing happens at `Off`, the summary table is rendered at `Summary`,
//! and the trace file is additionally written at `Trace`. The per-stage
//! times and cache counters of a figure run are not exported here: they
//! go to the run ledger (`bevra_engine::ledger`).

use crate::metrics::{self, MetricsSnapshot};
use crate::span::{drain_trace, SpanEvent};
use crate::ObsLevel;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};

/// Escape `s` for the inside of a JSON string literal: quotes,
/// backslashes and every control character, so the result never breaks a
/// one-line JSON record.
#[must_use]
pub fn esc(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// JSON number: shortest-round-trip for finite values, `null` for NaN/Inf
/// (JSON has neither).
#[must_use]
pub fn jnum(x: f64) -> String {
    if x.is_finite() {
        format!("{x:?}")
    } else {
        "null".to_string()
    }
}

/// Serialize span events as `chrome://tracing`-compatible trace JSON:
/// complete `"X"` events plus `process_name`/`thread_name` metadata, one
/// track per instrumented thread. Threads labeled via
/// [`crate::set_thread_label`] (e.g. the engine pool's `engine-shard-N`
/// workers) show their label in Perfetto; unlabeled threads fall back to
/// `bevra-thread-<tid>`.
#[must_use]
pub fn trace_json(events: &[SpanEvent]) -> String {
    let labels = crate::span::thread_labels();
    let mut out = String::from("{\n\"displayTimeUnit\": \"ms\",\n\"traceEvents\": [\n");
    let mut first = true;
    let mut push = |line: String, first: &mut bool| {
        if !*first {
            out.push_str(",\n");
        }
        *first = false;
        out.push_str(&line);
    };
    push(
        "{\"ph\": \"M\", \"pid\": 1, \"name\": \"process_name\", \
         \"args\": {\"name\": \"bevra\"}}"
            .to_string(),
        &mut first,
    );
    let mut tids: Vec<u64> = events.iter().map(|e| e.tid).collect();
    tids.sort_unstable();
    tids.dedup();
    for tid in tids {
        let label = labels
            .iter()
            .find(|(t, _)| *t == tid)
            .map_or_else(|| format!("bevra-thread-{tid}"), |(_, l)| l.clone());
        push(
            format!(
                "{{\"ph\": \"M\", \"pid\": 1, \"tid\": {tid}, \"name\": \"thread_name\", \
                 \"args\": {{\"name\": \"{}\"}}}}",
                esc(&label),
            ),
            &mut first,
        );
    }
    for e in events {
        push(
            format!(
                "{{\"ph\": \"X\", \"pid\": 1, \"tid\": {tid}, \"name\": \"{name}\", \
                 \"cat\": \"bevra\", \"ts\": {ts}, \"dur\": {dur}, \
                 \"args\": {{\"points\": {points}, \"depth\": {depth}, \"parent\": {parent}}}}}",
                tid = e.tid,
                name = esc(&e.name),
                ts = jnum(e.start_us),
                dur = jnum(e.dur_us),
                points = e.points,
                depth = e.depth,
                parent = e
                    .parent
                    .as_deref()
                    .map_or_else(|| "null".to_string(), |p| format!("\"{}\"", esc(p))),
            ),
            &mut first,
        );
    }
    out.push_str("\n]\n}\n");
    out
}

/// Render a metrics snapshot as a plain-text table (the `summary` level's
/// stdout output). Empty string when nothing was recorded.
#[must_use]
pub fn summary_table(snap: &MetricsSnapshot) -> String {
    if snap.is_empty() {
        return String::new();
    }
    let mut out = String::from("== observability summary ==\n");
    if !snap.counters.is_empty() {
        out.push_str("counters:\n");
        for (name, v) in &snap.counters {
            let _ = writeln!(out, "  {name:<44} {v:>14}");
        }
    }
    if !snap.gauges.is_empty() {
        out.push_str("gauges:\n");
        for (name, v) in &snap.gauges {
            let _ = writeln!(out, "  {name:<44} {v:>14.6}");
        }
    }
    if !snap.histograms.is_empty() {
        out.push_str("histograms (count / mean / p50 / p90 / p99):\n");
        for (name, h) in &snap.histograms {
            let _ = writeln!(
                out,
                "  {name:<44} {:>10} {:>12.1} {:>12.1} {:>12.1} {:>12.1}",
                h.count, h.mean, h.p50, h.p90, h.p99
            );
        }
    }
    out
}

/// What [`export_run`] produced for one run.
#[derive(Debug, Default)]
pub struct RunExport {
    /// Path of the chrome-trace JSON, when written (`Trace` level).
    pub trace_path: Option<PathBuf>,
    /// Rendered summary table, when collection was on (`Summary`+) and
    /// metrics exist.
    pub summary: Option<String>,
}

/// Export everything collected for run `id` into `dir` according to the
/// current [`crate::level`]: at `Off` this is a no-op; at `Summary` the
/// metrics summary table is rendered; at `Trace` the buffered span events
/// are additionally drained and written as `<id>-trace.json`.
///
/// # Errors
///
/// Propagates I/O failures creating `dir` or writing the trace file.
pub fn export_run(id: &str, dir: &Path) -> std::io::Result<RunExport> {
    let level = crate::level();
    let mut out = RunExport::default();
    if level < ObsLevel::Summary {
        return Ok(out);
    }
    if level >= ObsLevel::Trace {
        std::fs::create_dir_all(dir)?;
        // Atomic write (temp + rename): an interrupted export leaves the
        // previous trace complete instead of a truncated JSON file.
        let trace_path = dir.join(format!("{id}-trace.json"));
        bevra_faults::atomic_write("obs/trace", &trace_path, trace_json(&drain_trace()).as_bytes())?;
        out.trace_path = Some(trace_path);
    }
    let table = summary_table(&metrics::snapshot());
    if !table.is_empty() {
        out.summary = Some(table);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::HistogramSummary;

    fn sample_events() -> Vec<SpanEvent> {
        vec![
            SpanEvent {
                name: "sweep/points".into(),
                tid: 1,
                depth: 0,
                parent: None,
                start_us: 10.0,
                dur_us: 250.5,
                points: 48,
            },
            SpanEvent {
                name: "welfare/gamma".into(),
                tid: 2,
                depth: 1,
                parent: Some("sweep/points".into()),
                start_us: 20.0,
                dur_us: 100.0,
                points: 24,
            },
        ]
    }

    #[test]
    fn trace_json_shape() {
        let json = trace_json(&sample_events());
        assert!(json.contains("\"traceEvents\""));
        assert!(json.contains("\"ph\": \"X\""));
        assert!(json.contains("\"name\": \"sweep/points\""));
        assert!(json.contains("\"parent\": \"sweep/points\""));
        assert!(json.contains("\"tid\": 2"));
        assert!(json.contains("thread_name"));
        assert!(json.contains("process_name"));
        assert!(json.contains("\"name\": \"bevra\""));
        // Balanced braces/brackets — cheap structural sanity (the report
        // crate parses this output with its real JSON parser).
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());
    }

    #[test]
    fn trace_json_empty_is_valid() {
        // Even with no span events the process_name metadata line remains.
        let json = trace_json(&[]);
        assert!(json.contains("process_name"));
        assert!(!json.contains("\"ph\": \"X\""));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
    }

    #[test]
    fn summary_table_renders_sections() {
        let snap = MetricsSnapshot {
            counters: vec![("net/admitted".into(), 3)],
            histograms: vec![(
                "sim/occupancy".into(),
                HistogramSummary { count: 5, mean: 2.0, p50: 1.5, p90: 3.0, p99: 3.0 },
            )],
            ..MetricsSnapshot::default()
        };
        let table = summary_table(&snap);
        assert!(table.contains("observability summary"));
        assert!(table.contains("net/admitted"));
        assert!(table.contains("histograms (count / mean / p50 / p90 / p99):"));
        assert!(table.contains("sim/occupancy"));
        assert!(!table.contains("gauges:"), "empty sections omitted");
        assert!(summary_table(&MetricsSnapshot::default()).is_empty());
    }

    #[test]
    fn escapes_special_characters() {
        assert_eq!(esc("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(jnum(f64::INFINITY), "null");
        assert_eq!(jnum(f64::NAN), "null");
        assert_eq!(jnum(1.5), "1.5");
    }
}
