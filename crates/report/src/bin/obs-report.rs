//! Cross-run observability report over `results/ledger.jsonl`.
//!
//! Renders the ledger history as a Markdown trend table and scans it for
//! digest and per-stage perf regressions (see [`bevra_report::ledger`]).
//! Exit
//! status: `0` when the ledger is clean, `1` when any regression was
//! found, `2` on usage or I/O errors — so CI can gate on it directly.
//!
//! ```text
//! obs-report [--ledger <path>] [--threshold <x>] [--last <n>]
//! ```
//!
//! * `--ledger` — ledger file (default `results/ledger.jsonl`);
//! * `--threshold` — perf-regression headroom over a stage's historical
//!   median ns-per-point (default 3.0, matching the perf-smoke gate);
//!   stages whose latest run took under 10 ms are not gated;
//! * `--last` — only render the newest `n` rows in the trend table
//!   (regression scanning always sees the full history).

use bevra_report::ledger::{find_regressions, parse_ledger, trend_table, DEFAULT_THRESHOLD};
use std::process::ExitCode;

fn usage() -> ExitCode {
    eprintln!("usage: obs-report [--ledger <path>] [--threshold <x>] [--last <n>]");
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let mut ledger_path = std::path::PathBuf::from("results").join("ledger.jsonl");
    let mut threshold = DEFAULT_THRESHOLD;
    let mut last: Option<usize> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--ledger" => match args.next() {
                Some(p) => ledger_path = p.into(),
                None => return usage(),
            },
            "--threshold" => match args.next().and_then(|v| v.parse::<f64>().ok()) {
                Some(t) if t.is_finite() && t > 0.0 => threshold = t,
                _ => return usage(),
            },
            "--last" => match args.next().and_then(|v| v.parse::<usize>().ok()) {
                Some(n) if n > 0 => last = Some(n),
                _ => return usage(),
            },
            _ => return usage(),
        }
    }

    let text = match std::fs::read_to_string(&ledger_path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("obs-report: cannot read {}: {e}", ledger_path.display());
            return ExitCode::from(2);
        }
    };
    let parsed = parse_ledger(&text);
    if parsed.records.is_empty() {
        eprintln!(
            "obs-report: no valid records in {} ({} line(s) skipped)",
            ledger_path.display(),
            parsed.skipped,
        );
        return ExitCode::from(2);
    }

    println!(
        "== run ledger: {} ({} record(s), {} skipped) ==\n",
        ledger_path.display(),
        parsed.records.len(),
        parsed.skipped,
    );
    let shown = match last {
        Some(n) if n < parsed.records.len() => &parsed.records[parsed.records.len() - n..],
        _ => &parsed.records[..],
    };
    print!("{}", trend_table(shown));
    let retries: u64 = parsed.records.iter().map(|r| r.retries).sum();
    if retries > 0 {
        println!("\nretries: {retries} point retry(ies) across recorded runs");
    }

    let regressions = find_regressions(&parsed.records, threshold);
    if regressions.is_empty() {
        println!("\nno regressions (threshold {threshold}x)");
        return ExitCode::SUCCESS;
    }
    println!();
    for r in &regressions {
        println!("REGRESSION: {r}");
    }
    ExitCode::FAILURE
}
