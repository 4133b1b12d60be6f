//! Offline stand-in for the subset of the Criterion benchmarking API this
//! workspace uses.
//!
//! The build environment has no crates.io access, so the real `criterion`
//! crate is unavailable. This package keeps the bench sources unchanged —
//! [`Criterion::bench_function`], [`Bencher::iter`], [`criterion_group!`],
//! [`criterion_main!`] — and implements a small adaptive timing harness:
//! each benchmark is warmed up, an iteration count is chosen to fill the
//! measurement window, and the per-iteration mean, median, and minimum are
//! printed.
//!
//! Environment knobs:
//!
//! * `BEVRA_BENCH_MS` — measurement window per benchmark in milliseconds
//!   (default 300).
//! * `BEVRA_BENCH_JSON` — where the machine-readable results land:
//!   `off` disables the export, any other value is the output path. The
//!   default is `BENCH_sweep.json` at the workspace root. See
//!   EXPERIMENTS.md § "Benchmark artifact schema".
//!
//! Besides printing the human-readable summary, every benchmark records
//! its result in a process-global registry; `criterion_main!` merges the
//! registry into the JSON artifact on exit (read–modify–write keyed by
//! benchmark name, so running one bench target refreshes only its own
//! rows). A benchmark that sweeps a grid can declare the grid size with
//! [`Bencher::points`] so the artifact carries per-point normalization.

use std::hint;
use std::path::PathBuf;
use std::sync::Mutex;
use std::time::{Duration, Instant};

pub use hint::black_box;

/// Measurement window per benchmark.
fn measure_window() -> Duration {
    let ms = std::env::var("BEVRA_BENCH_MS")
        .ok()
        .and_then(|v| v.parse::<u64>().ok())
        .unwrap_or(300);
    Duration::from_millis(ms.max(10))
}

/// One finished benchmark, as recorded in the JSON artifact.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchResult {
    /// Benchmark name (the `bench_function` argument).
    pub name: String,
    /// Median per-iteration wall time in nanoseconds.
    pub median_ns: f64,
    /// Mean per-iteration wall time in nanoseconds.
    pub mean_ns: f64,
    /// Minimum per-iteration wall time in nanoseconds.
    pub min_ns: f64,
    /// Number of timing samples collected.
    pub samples: u64,
    /// Grid points covered per iteration (1 unless the bench declared
    /// otherwise via [`Bencher::points`]).
    pub points: u64,
}

impl BenchResult {
    /// Median nanoseconds per grid point.
    #[must_use]
    pub fn ns_per_point(&self) -> f64 {
        self.median_ns / self.points.max(1) as f64
    }
}

/// Results recorded so far in this process, drained by
/// [`write_results`].
static RESULTS: Mutex<Vec<BenchResult>> = Mutex::new(Vec::new());

/// The benchmark driver handed to `criterion_group!` targets.
#[derive(Debug, Default)]
pub struct Criterion {
    _private: (),
}

impl Criterion {
    /// Run `f` as a named benchmark and print its timing summary.
    pub fn bench_function<F>(&mut self, name: &str, mut f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        let mut b = Bencher { samples: Vec::new(), window: measure_window(), points: 1 };
        f(&mut b);
        b.report(name);
        self
    }
}

/// Per-benchmark timing loop. Obtained inside [`Criterion::bench_function`].
#[derive(Debug)]
pub struct Bencher {
    /// Per-iteration wall times collected during the measurement window.
    samples: Vec<Duration>,
    window: Duration,
    points: u64,
}

impl Bencher {
    /// Time repeated calls of `f`, adaptively choosing the iteration count
    /// to fill the measurement window.
    pub fn iter<O, F>(&mut self, mut f: F)
    where
        F: FnMut() -> O,
    {
        // Warm-up and cost estimate: run until ~10% of the window is spent.
        let warm_budget = self.window / 10;
        let warm_start = Instant::now();
        let mut warm_iters = 0u64;
        while warm_start.elapsed() < warm_budget || warm_iters < 1 {
            hint::black_box(f());
            warm_iters += 1;
        }
        let per_iter = warm_start.elapsed() / warm_iters.max(1) as u32;

        // Batch size: aim for ≥ 30 samples over the window, each batch of
        // equal size so the per-iteration estimate is stable.
        let budget = self.window - warm_budget;
        let target_samples = 30u64;
        let per_sample = budget / target_samples as u32;
        let batch = if per_iter.is_zero() {
            1024
        } else {
            (per_sample.as_nanos() / per_iter.as_nanos().max(1)).clamp(1, 1 << 24) as u64
        };

        let start = Instant::now();
        while start.elapsed() < budget {
            let t0 = Instant::now();
            for _ in 0..batch {
                hint::black_box(f());
            }
            self.samples.push(t0.elapsed() / batch as u32);
        }
        if self.samples.is_empty() {
            // Extremely slow body: one batch is the whole measurement.
            let t0 = Instant::now();
            hint::black_box(f());
            self.samples.push(t0.elapsed());
        }
    }

    /// Declare how many grid points one iteration covers, so the JSON
    /// artifact can report nanoseconds per point (default 1).
    pub fn points(&mut self, n: usize) {
        self.points = n.max(1) as u64;
    }

    fn report(&self, name: &str) {
        if self.samples.is_empty() {
            println!("{name:<44} (no samples — bencher.iter never called)");
            return;
        }
        let mut sorted = self.samples.clone();
        sorted.sort();
        let min = sorted[0];
        let median = sorted[sorted.len() / 2];
        let mean = sorted.iter().sum::<Duration>() / sorted.len() as u32;
        println!(
            "{name:<44} median {:>12} mean {:>12} min {:>12} ({} samples)",
            fmt_duration(median),
            fmt_duration(mean),
            fmt_duration(min),
            sorted.len()
        );
        let result = BenchResult {
            name: name.to_string(),
            median_ns: median.as_nanos() as f64,
            mean_ns: mean.as_nanos() as f64,
            min_ns: min.as_nanos() as f64,
            samples: sorted.len() as u64,
            points: self.points,
        };
        RESULTS.lock().unwrap_or_else(std::sync::PoisonError::into_inner).push(result);
    }
}

/// Where the JSON artifact goes: `BEVRA_BENCH_JSON` (a path, or `off` to
/// disable), defaulting to `BENCH_sweep.json` at the workspace root.
fn results_path() -> Option<PathBuf> {
    match std::env::var("BEVRA_BENCH_JSON").ok().as_deref() {
        Some("off") => None,
        Some(p) => Some(PathBuf::from(p)),
        None => {
            // This crate lives at `<root>/crates/criterion`.
            let root = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
            Some(root.ancestors().nth(2)?.join("BENCH_sweep.json"))
        }
    }
}

fn json_result_line(r: &BenchResult) -> String {
    // Names come from bench sources and contain no characters needing
    // JSON escapes; keep one result per line so merges stay line-based.
    format!(
        "    {{\"name\":\"{}\",\"median_ns\":{:.1},\"mean_ns\":{:.1},\"min_ns\":{:.1},\
         \"samples\":{},\"points\":{},\"ns_per_point\":{:.2}}}",
        r.name, r.median_ns, r.mean_ns, r.min_ns, r.samples, r.points,
        r.ns_per_point(),
    )
}

/// The `"name"` field of one artifact result line, if present.
#[must_use]
pub fn result_line_name(line: &str) -> Option<&str> {
    let rest = line.split("\"name\":\"").nth(1)?;
    rest.split('"').next()
}

/// Merge this process's recorded benchmark results into the JSON
/// artifact (see module docs) and clear the registry. Called by
/// `criterion_main!` after all groups have run; harmless to call with an
/// empty registry.
pub fn write_results() {
    let fresh: Vec<BenchResult> =
        std::mem::take(&mut *RESULTS.lock().unwrap_or_else(std::sync::PoisonError::into_inner));
    if fresh.is_empty() {
        return;
    }
    let Some(path) = results_path() else { return };

    // Keep prior results whose names this run did not refresh. The file
    // is our own line-oriented output, so a line scan is a full parse.
    let mut kept: Vec<String> = Vec::new();
    if let Ok(existing) = std::fs::read_to_string(&path) {
        for line in existing.lines() {
            if let Some(name) = result_line_name(line) {
                if !fresh.iter().any(|r| r.name == name) {
                    kept.push(line.trim_end_matches(',').to_string());
                }
            }
        }
    }

    let mut lines: Vec<String> = kept;
    lines.extend(fresh.iter().map(json_result_line));
    let body = format!(
        "{{\n  \"schema\": \"bevra-bench-v1\",\n  \"results\": [\n{}\n  ]\n}}\n",
        lines.join(",\n")
    );
    if let Err(e) = std::fs::write(&path, body) {
        eprintln!("criterion shim: could not write {}: {e}", path.display());
    } else {
        println!("bench results merged into {}", path.display());
    }
}

fn fmt_duration(d: Duration) -> String {
    let ns = d.as_nanos();
    if ns < 1_000 {
        format!("{ns} ns")
    } else if ns < 1_000_000 {
        format!("{:.2} µs", ns as f64 / 1e3)
    } else if ns < 1_000_000_000 {
        format!("{:.2} ms", ns as f64 / 1e6)
    } else {
        format!("{:.3} s", ns as f64 / 1e9)
    }
}

/// Bundle benchmark functions into a named group runner, mirroring
/// Criterion's macro of the same name.
#[macro_export]
macro_rules! criterion_group {
    ($name:ident, $($target:path),+ $(,)?) => {
        /// Benchmark group (generated by `criterion_group!`).
        pub fn $name() {
            let mut c = $crate::Criterion::default();
            $( $target(&mut c); )+
        }
    };
}

/// Generate `main` running the named groups, mirroring Criterion's macro
/// of the same name.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            $( $group(); )+
            $crate::write_results();
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bencher_collects_samples() {
        std::env::set_var("BEVRA_BENCH_MS", "20");
        let mut c = Criterion::default();
        c.bench_function("noop", |b| b.iter(|| 1 + 1));
    }

    #[test]
    fn result_lines_carry_their_name() {
        let r = BenchResult {
            name: "kernel_sweep_batched".into(),
            median_ns: 1234.5,
            mean_ns: 1300.0,
            min_ns: 1200.0,
            samples: 30,
            points: 48,
        };
        let line = json_result_line(&r);
        assert_eq!(result_line_name(&line), Some("kernel_sweep_batched"));
        assert!(line.contains("\"points\":48"));
        assert!(line.contains("\"ns_per_point\":25.72"));
        assert_eq!(result_line_name("{\"schema\": \"bevra-bench-v1\""), None);
    }

    #[test]
    fn write_results_merges_by_name() {
        let path = std::env::temp_dir().join(format!("bevra-bench-{}.json", std::process::id()));
        let stale = BenchResult {
            name: "merge_stale".into(),
            median_ns: 1.0,
            mean_ns: 1.0,
            min_ns: 1.0,
            samples: 1,
            points: 1,
        };
        let kept = BenchResult { name: "merge_kept".into(), ..stale.clone() };
        std::fs::write(
            &path,
            format!(
                "{{\n  \"schema\": \"bevra-bench-v1\",\n  \"results\": [\n{},\n{}\n  ]\n}}\n",
                json_result_line(&stale),
                json_result_line(&kept)
            ),
        )
        .expect("seed artifact");

        std::env::set_var("BEVRA_BENCH_JSON", &path);
        RESULTS
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .push(BenchResult { name: "merge_stale".into(), median_ns: 9.0, ..stale.clone() });
        write_results();
        std::env::remove_var("BEVRA_BENCH_JSON");

        let merged = std::fs::read_to_string(&path).expect("merged artifact");
        assert!(merged.contains("bevra-bench-v1"));
        assert!(merged.contains("merge_kept"), "unrelated result dropped: {merged}");
        assert_eq!(
            merged.matches("merge_stale").count(),
            1,
            "stale result not replaced: {merged}"
        );
        assert!(merged.contains("\"median_ns\":9.0"), "refresh lost: {merged}");
        let _ = std::fs::remove_file(&path);
    }
}
