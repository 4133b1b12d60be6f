//! The parent side: spawn children, collect their numbers, report.
//!
//! Load model: a closed loop with one client and one job at a time. Every
//! job is a fresh child process whose working directory and value-table
//! cache live in a scratch directory under `target/bench/`, so no run
//! touches the repository's `results/`. Children get no inherited
//! `BEVRA_*` setting; they run with `BEVRA_THREADS = min(nproc, 4)` and
//! `BEVRA_CACHE=rw`, and the kernel backend and SIMD tier stay at their
//! defaults, which every result records.

use crate::check::Outcome;
use crate::child::{Mode, RESULT_FILE};
use crate::jsonw::{self, Obj};
use crate::probe::{bench_threads, cpu_model, git_rev, nproc, unix_ns};
use crate::spec::spec;
use crate::stats::quartiles;
use crate::workload::Workload;
use bevra_report::json::JsonValue;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

/// Start-up-only children per timed run. `setup_s` is their median; the
/// job children's own start-ups are left out because they follow a heavy
/// child's exit and read systematically slower on a small machine.
const SETUP_PROBES: usize = 15;

/// Idle time before each probe. Every probe then starts from an idle
/// machine, as a command typed at a shell does; back-to-back start-ups on
/// a virtual machine vary by a third with where the last one ran.
const PROBE_PAUSE: Duration = Duration::from_millis(100);

/// Jobs a timed run makes at least, unless one job alone outlasts the run
/// length: a median of three ignores a one-off stall.
const MIN_JOBS: usize = 3;

/// Schema tag of a result line.
pub const RESULT_SCHEMA: &str = "bevra-e2e-bench-v1";

/// What to run.
#[derive(Debug, Clone)]
pub struct Options {
    /// The workload.
    pub workload: Workload,
    /// Base seed (the fleet's; the figures ignore it).
    pub seed: u64,
    /// Seconds to keep sampling; at least one job always runs.
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of the timed one.
    pub trace: bool,
    /// Scratch root, normally `target/bench` under the working directory.
    pub root: PathBuf,
}

/// One metric of a finished run.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Name from `BENCHMARK.json`.
    pub name: String,
    /// Unit from `BENCHMARK.json`.
    pub unit: String,
    /// The reported value: the median of `samples`.
    pub value: f64,
    /// Every sample behind the value.
    pub samples: Vec<f64>,
}

/// A finished run of one workload.
#[derive(Debug, Clone)]
pub struct Report {
    /// What ran.
    pub options: Options,
    /// Correctness of every output of every child.
    pub outcome: Outcome,
    /// End-to-end metrics (timed run) or per-layer metrics (traced run),
    /// in definition order.
    pub metrics: Vec<Metric>,
    /// Where and how it ran.
    pub provenance: Vec<(&'static str, String)>,
}

/// What one child reported.
struct ChildRun {
    /// Spawn to ready, seconds.
    setup_s: f64,
    /// Spawn to exit, seconds.
    elapsed_s: f64,
    doc: JsonValue,
}

impl ChildRun {
    fn num(&self, key: &str) -> Result<f64, String> {
        self.doc
            .get(key)
            .and_then(JsonValue::as_f64)
            .ok_or_else(|| format!("child reported no `{key}`"))
    }

    fn outcome(&self) -> Result<Outcome, String> {
        let o = self.doc.get("outcome").ok_or("child reported no outcome")?;
        let count = |k: &str| {
            o.get(k)
                .and_then(JsonValue::as_f64)
                .map(|v| v as u64)
                .ok_or(format!("outcome has no `{k}`"))
        };
        let messages = o
            .get("messages")
            .and_then(JsonValue::as_arr)
            .unwrap_or_default()
            .iter()
            .filter_map(|m| m.as_str().map(str::to_owned))
            .collect();
        Ok(Outcome {
            attempted: count("attempted")?,
            failed: count("failed")?,
            messages,
        })
    }
}

/// Spawns children of this same executable into one scratch directory.
struct Spawner {
    exe: PathBuf,
    dir: PathBuf,
    seed: u64,
}

impl Spawner {
    /// Run workload `w` in mode `mode` in the fresh directory `dir/name`,
    /// with its value-table cache at `cache` (default: inside that
    /// directory), and wait for it.
    fn spawn(
        &self,
        w: Workload,
        mode: Mode,
        name: &str,
        cache: Option<&Path>,
        trace_out: Option<&Path>,
    ) -> Result<ChildRun, String> {
        let cwd = self.dir.join(name);
        let _ = std::fs::remove_dir_all(&cwd);
        std::fs::create_dir_all(&cwd).map_err(|e| format!("{}: {e}", cwd.display()))?;
        let cache = cache.map_or_else(|| cwd.join("cache"), Path::to_path_buf);
        let mut cmd = Command::new(&self.exe);
        cmd.args(["child", w.name(), mode.name(), &self.seed.to_string()]);
        if let Some(p) = trace_out {
            cmd.arg(p);
        }
        for (key, _) in std::env::vars_os() {
            if key.to_string_lossy().starts_with("BEVRA_") {
                cmd.env_remove(key);
            }
        }
        cmd.env("BEVRA_THREADS", bench_threads().to_string())
            .env("BEVRA_CACHE", "rw")
            .env("BEVRA_CACHE_DIR", &cache)
            .current_dir(&cwd)
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::inherit());
        let spawned = unix_ns();
        let t0 = Instant::now();
        let status = cmd
            .status()
            .map_err(|e| format!("spawn {}: {e}", self.exe.display()))?;
        let elapsed_s = t0.elapsed().as_secs_f64();
        if !status.success() {
            return Err(format!(
                "{} {} child failed: {status}",
                w.name(),
                mode.name()
            ));
        }
        let path = cwd.join(RESULT_FILE);
        let text =
            std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        let doc = JsonValue::parse(&text)?;
        let ready: f64 = doc
            .get("ready_unix_ns")
            .and_then(JsonValue::as_f64)
            .ok_or("child reported no ready time")?;
        let setup_s = (ready - spawned as f64) / 1e9;
        Ok(ChildRun {
            setup_s,
            elapsed_s,
            doc,
        })
    }

    fn clean(&self, name: &str) {
        let _ = std::fs::remove_dir_all(self.dir.join(name));
    }

    /// For `fig4_warm`, fill a value-table cache with one cold `fig4` job
    /// and return its directory; other workloads get their own cache per
    /// job (`None`).
    fn warm_cache(&self, w: Workload, outcome: &mut Outcome) -> Result<Option<PathBuf>, String> {
        if w != Workload::Fig4Warm {
            return Ok(None);
        }
        let cache = self.dir.join("cache");
        let fill = self.spawn(Workload::Fig4Cold, Mode::Run, "fill", Some(&cache), None)?;
        outcome.merge(&fill.outcome()?);
        self.clean("fill");
        Ok(Some(cache))
    }
}

/// Pick the definition's metrics out of `samples`, in definition order.
fn collect(
    defs: &[crate::spec::MetricDef],
    mut samples: BTreeMap<String, Vec<f64>>,
) -> Result<Vec<Metric>, String> {
    let metrics = defs
        .iter()
        .map(|d| {
            let s = samples
                .remove(&d.name)
                .ok_or_else(|| format!("no samples of `{}`", d.name))?;
            Ok(Metric {
                name: d.name.clone(),
                unit: d.unit.clone(),
                value: quartiles(&s).1,
                samples: s,
            })
        })
        .collect::<Result<Vec<_>, String>>()?;
    match samples.keys().next() {
        Some(extra) => Err(format!("`{extra}` is not defined in BENCHMARK.json")),
        None => Ok(metrics),
    }
}

/// The timed run: set-up probes, the warm workload's fill, then jobs while
/// the next one is expected to end within `seconds` (at least
/// [`MIN_JOBS`], unless one job alone outlasts `seconds`).
fn timed(
    sp: &Spawner,
    o: &Options,
    outcome: &mut Outcome,
) -> Result<(Vec<Metric>, ChildRun), String> {
    let w = o.workload;
    let mut samples: BTreeMap<String, Vec<f64>> = BTreeMap::new();
    let mut push = |k: &str, v: f64| samples.entry(k.to_owned()).or_default().push(v);
    for i in 0..SETUP_PROBES {
        let name = format!("probe{i}");
        // A measurement protocol, not a wait for a result: no retry
        // policy or injectable clock applies.
        #[allow(clippy::disallowed_methods)]
        std::thread::sleep(PROBE_PAUSE);
        push(
            "setup_s",
            sp.spawn(w, Mode::Probe, &name, None, None)?.setup_s,
        );
        sp.clean(&name);
    }
    let cache = sp.warm_cache(w, outcome)?;
    let cache = cache.as_deref();
    let start = Instant::now();
    let mut last = None;
    for jobs in 1.. {
        let name = format!("job{jobs}");
        let c = sp.spawn(w, Mode::Run, &name, cache, None)?;
        sp.clean(&name);
        outcome.merge(&c.outcome()?);
        for k in ["wall_s", "cpu_s", "peak_rss_mib"] {
            push(k, c.num(k)?);
        }
        let next_fits = start.elapsed().as_secs_f64() + c.elapsed_s <= o.seconds;
        let more = next_fits || (jobs < MIN_JOBS && c.elapsed_s <= o.seconds);
        last = Some(c);
        if !more {
            break;
        }
    }
    let last = last.expect("at least one job runs");
    Ok((collect(&spec().end_to_end, samples)?, last))
}

/// The traced run: one untraced job for the overhead baseline, then one
/// traced job whose layer metrics are the result.
fn traced(
    sp: &Spawner,
    o: &Options,
    outcome: &mut Outcome,
) -> Result<(Vec<Metric>, ChildRun), String> {
    let w = o.workload;
    let cache = sp.warm_cache(w, outcome)?;
    let cache = cache.as_deref();
    let plain = sp.spawn(w, Mode::Run, "plain", cache, None)?;
    outcome.merge(&plain.outcome()?);
    let trace_out = o.root.join(format!("trace-{}.json", w.name()));
    let traced = sp.spawn(w, Mode::Trace, "traced", cache, Some(&trace_out))?;
    outcome.merge(&traced.outcome()?);
    let mut samples: BTreeMap<String, Vec<f64>> = spec()
        .per_layer
        .iter()
        .map(|d| (d.name.clone(), vec![0.0]))
        .collect();
    match traced.doc.get("layers") {
        Some(JsonValue::Obj(layers)) => {
            for (k, v) in layers {
                let v = v
                    .as_f64()
                    .ok_or_else(|| format!("layer metric `{k}` is not a number"))?;
                if samples.insert(k.clone(), vec![v]).is_none() {
                    return Err(format!("`{k}` is not defined in BENCHMARK.json"));
                }
            }
        }
        _ => return Err("traced child reported no layers".into()),
    }
    let overhead = traced.num("equivalent_s")? / plain.num("wall_s")? - 1.0;
    samples.insert("trace.overhead".into(), vec![overhead]);
    Ok((collect(&spec().per_layer, samples)?, traced))
}

/// Run one workload as `o` says and report it. Scratch files are removed
/// afterwards; only the traced run's `trace-<workload>.json` stays.
///
/// # Errors
///
/// Describes a child that failed to start, crashed, or reported
/// malformed numbers.
pub fn run(o: &Options) -> Result<Report, String> {
    let exe = std::env::current_exe().map_err(|e| format!("own executable: {e}"))?;
    let dir = o
        .root
        .join(format!("{}-{}", o.workload.name(), std::process::id()));
    let sp = Spawner {
        exe,
        dir: dir.clone(),
        seed: o.seed,
    };
    let mut outcome = Outcome::default();
    let result = if o.trace {
        traced(&sp, o, &mut outcome)
    } else {
        timed(&sp, o, &mut outcome)
    };
    let _ = std::fs::remove_dir_all(&dir);
    let (metrics, child) = result?;
    let text = |k: &str| {
        child
            .doc
            .get(k)
            .and_then(JsonValue::as_str)
            .unwrap_or("unknown")
            .to_owned()
    };
    let provenance = vec![
        ("kernel", text("kernel")),
        ("simd", text("simd")),
        (
            "threads",
            child
                .num("threads")
                .map_or_else(|_| "unknown".into(), |t| t.to_string()),
        ),
        ("nproc", nproc().to_string()),
        ("cpu", cpu_model()),
        ("git_rev", git_rev()),
        ("seed", o.seed.to_string()),
    ];
    Ok(Report {
        options: o.clone(),
        outcome,
        metrics,
        provenance,
    })
}

impl Report {
    /// True when every checked output passed.
    #[must_use]
    pub fn correct(&self) -> bool {
        self.outcome.failed == 0 && self.outcome.attempted > 0
    }

    /// The metrics as one JSON object, each with its value and unit and,
    /// with `samples`, every sample behind the value.
    fn metrics_json(&self, samples: bool) -> String {
        let mut metrics = Obj::new();
        for m in &self.metrics {
            let mut o = Obj::new().num("value", m.value).str("unit", &m.unit);
            if samples {
                o = o.raw(
                    "samples",
                    jsonw::array(m.samples.iter().map(|&s| jsonw::num(s))),
                );
            }
            metrics = metrics.raw(&m.name, o.render());
        }
        metrics.render()
    }

    /// The one-line result the benchmark's command ends with.
    #[must_use]
    pub fn result_line(&self) -> String {
        Obj::new()
            .raw("correct", self.correct().to_string())
            .raw("attempted", self.outcome.attempted.to_string())
            .raw("failed", self.outcome.failed.to_string())
            .raw("metrics", self.metrics_json(false))
            .render()
    }

    /// The result-file line `compare` reads: every sample, the
    /// correctness counts and the provenance.
    #[must_use]
    pub fn record_line(&self) -> String {
        let mut prov = Obj::new();
        for (k, v) in &self.provenance {
            prov = prov.str(k, v);
        }
        Obj::new()
            .str("schema", RESULT_SCHEMA)
            .str("workload", self.options.workload.name())
            .num("seed", self.options.seed as f64)
            .raw("trace", self.options.trace.to_string())
            .num("seconds", self.options.seconds)
            .raw("correct", self.correct().to_string())
            .num("attempted", self.outcome.attempted as f64)
            .num("failed", self.outcome.failed as f64)
            .num("failed_frac", self.outcome.failed_frac())
            .raw("provenance", prov.render())
            .raw("metrics", self.metrics_json(true))
            .render()
    }

    /// Human-readable summary: one line per metric with its median,
    /// quartiles, sample count and unit, then the correctness line.
    #[must_use]
    pub fn table(&self) -> String {
        let w = self.options.workload.name();
        let mut s = String::new();
        for m in &self.metrics {
            let (q1, _, q3) = quartiles(&m.samples);
            s.push_str(&format!(
                "{w:<11} {:<26} {:>14.6} [{:.6} .. {:.6}] n={:<3} {}\n",
                m.name,
                m.value,
                q1,
                q3,
                m.samples.len(),
                m.unit
            ));
        }
        s.push_str(&format!(
            "{w:<11} correctness: {}/{} outputs passed (failed_frac {})\n",
            self.outcome.attempted - self.outcome.failed,
            self.outcome.attempted,
            self.outcome.failed_frac()
        ));
        for msg in &self.outcome.messages {
            s.push_str(&format!("{w:<11}   FAILED {msg}\n"));
        }
        let prov: Vec<String> = self
            .provenance
            .iter()
            .map(|(k, v)| format!("{k}={v}"))
            .collect();
        s.push_str(&format!("{w:<11} provenance: {}\n", prov.join(" ")));
        s
    }
}
