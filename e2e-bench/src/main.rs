//! `bevra-e2e-bench`: the end-to-end benchmark's command line. See
//! `README.md` in this directory.

use bevra_e2e_bench::check::check_figure_file;
use bevra_e2e_bench::harness::{self, Options};
use bevra_e2e_bench::spec::spec;
use bevra_e2e_bench::workload::{Workload, DEFAULT_SEED};
use bevra_e2e_bench::{child, compare};
use std::collections::BTreeMap;
use std::io::Write as _;
use std::process::ExitCode;

const USAGE: &str = "usage:
  bevra-e2e-bench --workload <name> --seed <n> --seconds <s> --trace <0|1> [--out <file>]
  bevra-e2e-bench run [--seed <n>] [--seconds <s>] [--trace <0|1>] [--out <file>]
  bevra-e2e-bench compare <parent.jsonl> <change.jsonl>
  bevra-e2e-bench check <figure.json>";

/// `--key value` pairs; every key must be in `allowed`.
fn flags(args: &[String], allowed: &[&str]) -> Result<BTreeMap<String, String>, String> {
    let mut out = BTreeMap::new();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let key = flag
            .strip_prefix("--")
            .filter(|k| allowed.contains(k))
            .ok_or_else(|| format!("unexpected argument {flag:?}\n{USAGE}"))?;
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        out.insert(key.to_owned(), value.clone());
    }
    Ok(out)
}

fn options(f: &BTreeMap<String, String>, workload: Workload) -> Result<Options, String> {
    let seed = match f.get("seed") {
        None => DEFAULT_SEED,
        Some(s) => match s.strip_prefix("0x") {
            Some(hex) => u64::from_str_radix(hex, 16),
            None => s.parse(),
        }
        .map_err(|_| format!("bad --seed {s:?}"))?,
    };
    let seconds = match f.get("seconds") {
        None => spec().run_seconds,
        Some(s) => s
            .parse()
            .ok()
            .filter(|v: &f64| *v > 0.0)
            .ok_or(format!("bad --seconds {s:?}"))?,
    };
    let trace = match f.get("trace").map(String::as_str) {
        None | Some("0") => false,
        Some("1") => true,
        Some(t) => return Err(format!("bad --trace {t:?}: 0 or 1")),
    };
    let cwd = std::env::current_dir().map_err(|e| format!("working directory: {e}"))?;
    Ok(Options {
        workload,
        seed,
        seconds,
        trace,
        root: cwd.join("target").join("bench"),
    })
}

/// Append one result line to the `--out` file, if one was named.
fn append(f: &BTreeMap<String, String>, line: &str) -> Result<(), String> {
    let Some(path) = f.get("out") else {
        return Ok(());
    };
    let mut file = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)
        .map_err(|e| format!("{path}: {e}"))?;
    writeln!(file, "{line}").map_err(|e| format!("{path}: {e}"))
}

/// One workload, ending with the JSON line a benchmark runner reads.
fn cmd_workload(args: &[String]) -> Result<ExitCode, String> {
    let f = flags(args, &["workload", "seed", "seconds", "trace", "out"])?;
    let name = f.get("workload").ok_or(USAGE)?;
    let w = Workload::parse(name).ok_or_else(|| format!("unknown workload {name:?}"))?;
    let report = harness::run(&options(&f, w)?)?;
    print!("{}", report.table());
    append(&f, &report.record_line())?;
    println!("{}", report.result_line());
    Ok(if report.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

/// Every workload in turn, with a table per workload.
fn cmd_run(args: &[String]) -> Result<ExitCode, String> {
    let f = flags(args, &["seed", "seconds", "trace", "out"])?;
    let mut correct = true;
    for w in Workload::ALL {
        let report = harness::run(&options(&f, w)?)?;
        print!("{}", report.table());
        append(&f, &report.record_line())?;
        correct &= report.correct();
    }
    Ok(if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

/// Exit 1 on any regression, 2 when some pair is unresolved, else 0.
fn cmd_compare(args: &[String]) -> Result<ExitCode, String> {
    let [a, b] = args else {
        return Err(USAGE.to_owned());
    };
    let (table, verdicts) =
        compare::compare(&compare::load(a.as_ref())?, &compare::load(b.as_ref())?);
    print!("{table}");
    if verdicts.is_empty() {
        return Err("no (workload, metric) pair appears in both files".into());
    }
    Ok(if verdicts.contains(&compare::Verdict::Regression) {
        ExitCode::FAILURE
    } else if verdicts.contains(&compare::Verdict::Unresolved) {
        ExitCode::from(2)
    } else {
        ExitCode::SUCCESS
    })
}

/// Check one emitted figure file against its reference.
fn cmd_check(args: &[String]) -> Result<ExitCode, String> {
    let [path] = args else {
        return Err(USAGE.to_owned());
    };
    let o = check_figure_file(path.as_ref());
    println!(
        "attempted {} failed {} failed_frac {}",
        o.attempted,
        o.failed,
        o.failed_frac()
    );
    for m in &o.messages {
        println!("FAILED {m}");
    }
    Ok(if o.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("child") => child::main(&args[1..]).map(|()| ExitCode::SUCCESS),
        Some("run") => cmd_run(&args[1..]),
        Some("compare") => cmd_compare(&args[1..]),
        Some("check") => cmd_check(&args[1..]),
        Some(a) if a.starts_with("--") => cmd_workload(&args),
        _ => Err(USAGE.to_owned()),
    };
    result.unwrap_or_else(|e| {
        eprintln!("bevra-e2e-bench: {e}");
        ExitCode::from(2)
    })
}
