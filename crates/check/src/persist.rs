//! Failure records, persisted as JSON lines.
//!
//! Every property falsified under [`Checker::run`](crate::Checker::run)
//! appends one line to `results/check-failures.jsonl` (relative to the
//! repository root; `BEVRA_CHECK_DIR` overrides the directory). The record
//! carries everything needed to reproduce the failure without the original
//! process: the property name, the master and per-case seeds, and the
//! `Debug` renderings of the original and shrunk counterexamples. CI
//! uploads the file as an artifact when the verification job fails.
//!
//! The JSON is hand-rolled — the build environment has no serde — but the
//! emitted lines are plain, fully escaped JSON objects that any consumer
//! can parse.

use std::io::Write as _;
use std::path::PathBuf;

/// Environment variable overriding the directory failure records are
/// appended to (default: the repository's `results/`).
pub const DIR_ENV: &str = "BEVRA_CHECK_DIR";

/// File name of the failure journal inside the record directory.
pub const FAILURES_FILE: &str = "check-failures.jsonl";

/// One falsified property, with enough context to replay it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FailureRecord {
    /// Name the property was registered under.
    pub property: String,
    /// The checker's master seed (the whole run derives from it).
    pub master_seed: u64,
    /// Index of the failing case within the run.
    pub case_index: u64,
    /// The derived per-case seed; `BEVRA_CHECK_REPLAY=<case_seed>`
    /// re-executes exactly this case.
    pub case_seed: u64,
    /// Number of accepted shrink steps between `original` and `shrunk`.
    pub shrink_steps: u64,
    /// `Debug` rendering of the originally generated counterexample.
    pub original: String,
    /// `Debug` rendering of the fully shrunk counterexample.
    pub shrunk: String,
    /// The property's error message for the shrunk counterexample.
    pub message: String,
}

impl FailureRecord {
    /// Serialize as one JSON object (no trailing newline).
    #[must_use]
    pub fn to_json(&self) -> String {
        format!(
            "{{\"property\":{},\"master_seed\":{},\"case_index\":{},\"case_seed\":{},\
             \"shrink_steps\":{},\"original\":{},\"shrunk\":{},\"message\":{}}}",
            json_string(&self.property),
            self.master_seed,
            self.case_index,
            self.case_seed,
            self.shrink_steps,
            json_string(&self.original),
            json_string(&self.shrunk),
            json_string(&self.message),
        )
    }
}

/// Escape `s` as a JSON string literal (quotes included).
#[must_use]
pub fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Directory failure records land in: `BEVRA_CHECK_DIR` if set, else the
/// repository's `results/` (resolved from this crate's manifest, so the
/// destination does not depend on the test binary's working directory).
#[must_use]
pub fn failures_dir() -> PathBuf {
    std::env::var_os(DIR_ENV)
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../results"))
}

/// Full path of the failure journal.
#[must_use]
pub fn failures_path() -> PathBuf {
    failures_dir().join(FAILURES_FILE)
}

/// Append one record to the journal, creating directory and file as
/// needed. Returns the path on success; persistence is best-effort (a
/// read-only checkout must not turn a good failure report into an I/O
/// panic), so errors collapse to `None`.
pub fn append_failure(record: &FailureRecord) -> Option<PathBuf> {
    let dir = failures_dir();
    std::fs::create_dir_all(&dir).ok()?;
    let path = dir.join(FAILURES_FILE);
    let mut file =
        std::fs::OpenOptions::new().create(true).append(true).open(&path).ok()?;
    writeln!(file, "{}", record.to_json()).ok()?;
    Some(path)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_escaping_covers_quotes_and_controls() {
        assert_eq!(json_string("plain"), "\"plain\"");
        assert_eq!(json_string("a\"b\\c"), "\"a\\\"b\\\\c\"");
        assert_eq!(json_string("x\n\t\r"), "\"x\\n\\t\\r\"");
        assert_eq!(json_string("\u{1}"), "\"\\u0001\"");
    }

    #[test]
    fn record_serializes_as_one_json_line() {
        let rec = FailureRecord {
            property: "demo".into(),
            master_seed: 7,
            case_index: 3,
            case_seed: 0xDEAD,
            shrink_steps: 2,
            original: "Scenario { c: 97.3 }".into(),
            shrunk: "Scenario { c: 1.0 }".into(),
            message: "B(C) > 1".into(),
        };
        let json = rec.to_json();
        assert!(json.starts_with('{') && json.ends_with('}'));
        assert!(!json.contains('\n'));
        assert!(json.contains("\"case_seed\":57005"));
        assert!(json.contains("\"property\":\"demo\""));
    }
}
