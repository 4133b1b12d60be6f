//! The child process. Every timed run is a fresh child, so each starts
//! with cold process state: no memo tables, no warmed allocator, no
//! drained instrumentation from an earlier run. The child writes what it
//! measured to `child.json` in its working directory.

use crate::check::{check_figure_file, check_fleet, check_lane_digests, Outcome};
use crate::jsonw::{self, Obj};
use crate::probe::{cpu_seconds, peak_rss_mib, unix_ns};
use crate::trace::{Layers, Tracer};
use crate::traced;
use crate::workload::{fleet_config, run_entry, Workload, FLEET_LANES};
use bevra_report::emit::{emit_figure, results_dir};
use bevra_sim::Fleet;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// File the child leaves its measurements in.
pub const RESULT_FILE: &str = "child.json";

/// What a child does once it is ready.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// Start up and exit: one more set-up sample.
    Probe,
    /// One timed entry call, then the correctness check.
    Run,
    /// The traced run, then the correctness check.
    Trace,
}

impl Mode {
    /// Command-line name.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Mode::Probe => "probe",
            Mode::Run => "run",
            Mode::Trace => "trace",
        }
    }

    fn parse(s: &str) -> Option<Self> {
        [Mode::Probe, Mode::Run, Mode::Trace]
            .into_iter()
            .find(|m| m.name() == s)
    }
}

/// Total size in bytes of the regular files under `dir`.
fn dir_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir).map_or(0, |entries| {
        entries
            .flatten()
            .map(|e| match e.file_type() {
                Ok(t) if t.is_dir() => dir_bytes(&e.path()),
                Ok(t) if t.is_file() => e.metadata().map_or(0, |m| m.len()),
                _ => 0,
            })
            .sum()
    })
}

fn outcome_json(o: &Outcome) -> String {
    Obj::new()
        .num("attempted", o.attempted as f64)
        .num("failed", o.failed as f64)
        .raw(
            "messages",
            jsonw::array(o.messages.iter().map(|m| jsonw::string(m))),
        )
        .render()
}

/// Derive the ratio metrics from the traced run's raw counts.
fn finish_layers(m: &mut Layers) {
    let calls = m.get("load.make_calls");
    if calls > 0.0 {
        m.set("load.hit_ratio", (calls - m.get("load.builds")) / calls);
    }
    let lanes = m.get("kernel.lane_evals");
    if lanes > 0.0 {
        m.set(
            "kernel.ns_per_lane_eval",
            m.get("kernel.prime_s") * 1e9 / lanes,
        );
    }
    let lookups = m.0.remove("engine.memo_lookups").unwrap_or(0.0);
    let hits = m.0.remove("engine.memo_hits").unwrap_or(0.0);
    if lookups > 0.0 {
        m.set("engine.memo_hit_ratio", hits / lookups);
    }
}

/// The traced run: returns the layer metrics, the correctness outcome and
/// the traced time of the work the untraced run times.
fn traced_run(
    w: Workload,
    seed: u64,
    fleet: Option<&Fleet>,
    trace_out: &Path,
) -> Result<(Layers, Outcome, f64), String> {
    let mut t = Tracer::default();
    let mut m = Layers::default();
    let root = t.open(w.name());
    let (outcome, equivalent) = match (w, fleet) {
        (Workload::Fleet, Some(fleet)) => {
            let (report, solo, fleet_s) = traced::fleet(&mut t, &mut m, fleet, FLEET_LANES);
            let mut out = check_fleet(&report, seed);
            out.merge(&check_lane_digests(&report, &solo));
            (out, Some(fleet_s))
        }
        _ => {
            let fig = if w == Workload::RetryFast {
                traced::retry(&mut t, &mut m)
            } else {
                traced::fig4(&mut t, &mut m)
            };
            let id = t.open("report.emit");
            emit_figure(&fig, &results_dir()).map_err(|e| format!("emit: {e}"))?;
            m.add("report.emit_s", t.close(id));
            m.set("report.bytes", dir_bytes(&results_dir()) as f64);
            (
                check_figure_file(&results_dir().join(format!("{}.json", fig.id))),
                None,
            )
        }
    };
    let wall = t.close(root);
    m.set("trace.wall_s", wall);
    m.set("trace.coverage", t.children_s(root) / wall);
    if w != Workload::RetryFast && w != Workload::Fleet {
        m.set("load.build_share", m.get("load.build_s") / wall);
    }
    if let Some(cache) = std::env::var_os("BEVRA_CACHE_DIR") {
        m.set("persist.bytes", dir_bytes(Path::new(&cache)) as f64);
    }
    finish_layers(&mut m);
    std::fs::write(trace_out, bevra_obs::export::trace_json(&t.events()))
        .map_err(|e| format!("{}: {e}", trace_out.display()))?;
    Ok((m, outcome, equivalent.unwrap_or(wall)))
}

/// Run the child named by `args`: `<workload> <mode> <seed> [<trace-out>]`.
///
/// # Errors
///
/// Describes bad arguments, an emitter I/O failure, or an unwritable
/// result file.
pub fn main(args: &[String]) -> Result<(), String> {
    let usage = || "child <workload> probe|run|trace <seed> [<trace-out>]".to_owned();
    let w = args
        .first()
        .and_then(|a| Workload::parse(a))
        .ok_or_else(usage)?;
    let mode = args.get(1).and_then(|a| Mode::parse(a)).ok_or_else(usage)?;
    let seed: u64 = args.get(2).and_then(|a| a.parse().ok()).ok_or_else(usage)?;

    // The binaries' own start-up, then whatever the workload builds before
    // its entry call. Everything up to here is set-up time.
    bevra_report::emit::announce_kernel();
    bevra_report::emit::arm_run(w.figure_id().unwrap_or("fleet"));
    let fleet = (w == Workload::Fleet).then(|| Fleet::new(fleet_config(seed)));
    let ready = unix_ns();

    let cap = bevra_engine::registry::from_env().capability();
    let mut out = Obj::new()
        .raw("ready_unix_ns", ready.to_string())
        .str("kernel", cap.name)
        .str("simd", cap.simd.as_str())
        .num("threads", bevra_engine::thread_count() as f64);
    match mode {
        Mode::Probe => {}
        Mode::Run => {
            let t0 = Instant::now();
            let report = run_entry(w, fleet.as_ref()).map_err(|e| format!("emit: {e}"))?;
            let wall = t0.elapsed().as_secs_f64();
            // Read the process counters before checking, so the check's own
            // work stays out of them.
            out = out
                .num("wall_s", wall)
                .num("cpu_s", cpu_seconds())
                .num("peak_rss_mib", peak_rss_mib());
            let outcome = match (report, w.figure_id()) {
                (Some(report), _) => check_fleet(&report, seed),
                (None, Some(id)) => check_figure_file(&results_dir().join(format!("{id}.json"))),
                (None, None) => unreachable!("every workload emits a figure or a fleet report"),
            };
            out = out.raw("outcome", outcome_json(&outcome));
        }
        Mode::Trace => {
            let trace_out = PathBuf::from(args.get(3).ok_or_else(usage)?);
            let (layers, outcome, equivalent) = traced_run(w, seed, fleet.as_ref(), &trace_out)?;
            let mut lm = Obj::new();
            for (k, v) in &layers.0 {
                lm = lm.num(k, *v);
            }
            out = out
                .raw("layers", lm.render())
                .num("equivalent_s", equivalent)
                .raw("outcome", outcome_json(&outcome));
        }
    }
    std::fs::write(RESULT_FILE, out.render() + "\n").map_err(|e| format!("{RESULT_FILE}: {e}"))
}
