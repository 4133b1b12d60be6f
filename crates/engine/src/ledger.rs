//! The cross-run ledger: one structured line per figure run.
//!
//! Every figure run appends one [`LedgerRecord`] to
//! `results/ledger.jsonl` — a JSONL file shared by all runs on a machine.
//! The line is the run's one machine-readable record: the config/load
//! fingerprint the run evaluated, the kernel capability stamp, the time
//! and work of each stage, the hit/miss counters of each cache, the
//! merged degradation ledger ([`crate::SweepHealth`] totals and first
//! cause), and a digest of the numeric results. The `obs-report` binary
//! in `bevra-report` renders trend tables over this file and flags
//! digest regressions and per-stage perf regressions.
//!
//! # Durability
//!
//! Appends go through [`crate::persist::append_line`]: `O_APPEND` plus a
//! single `write_all`, so concurrent runs interleave at line granularity.
//! Each line ends in a `"crc"` field — FNV-1a over everything before it —
//! so readers detect and skip torn or bit-flipped lines instead of
//! mis-parsing them; see the parser in `bevra-report`.

use crate::cache::CacheStats;
use crate::instrument::StageRecord;
use bevra_obs::export::{esc, jnum};
use std::fmt::Write as _;
use std::path::Path;

/// Schema tag carried by every ledger line; bump on layout changes so old
/// readers skip new lines instead of misreading them. The reader in
/// `bevra-report` also accepts `bevra-ledger-v1` lines, whose run totals
/// parse as one stage and one cache named `total`.
pub const LEDGER_SCHEMA: &str = "bevra-ledger-v2";

/// Default ledger file name (under the run's `results/` directory).
pub const LEDGER_FILE: &str = "ledger.jsonl";

/// FNV-1a over a byte slice — the workspace's standard content hash (the
/// same constants as the fault-plan and persistent-cache hashers). Used
/// for the ledger's per-line CRC, run fingerprints, and result digests.
#[must_use]
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Fold drained stage records into one record per stage name, summing the
/// seconds and points of repeats. Each name keeps the place of its first
/// record, so for spans completed on one thread (a figure's stages) the
/// order is first-completion order.
/// A figure runs `sweep/points` once per utility; the ledger keeps one
/// `sweep/points` entry with both runs' time and work.
#[must_use]
pub fn sum_stages(stages: impl IntoIterator<Item = StageRecord>) -> Vec<StageRecord> {
    let mut out: Vec<StageRecord> = Vec::new();
    for s in stages {
        match out.iter_mut().find(|o| o.name == s.name) {
            Some(o) => {
                o.seconds += s.seconds;
                o.points += s.points;
            }
            None => out.push(s),
        }
    }
    out
}

/// One run's ledger entry. Field order in the serialized line matches
/// declaration order here.
#[derive(Debug, Clone, PartialEq)]
pub struct LedgerRecord {
    /// Run identifier — the figure tag (`fig2`, `fig3`, …) or a caller
    /// supplied id.
    pub id: String,
    /// Wall-clock timestamp of the append, milliseconds since the Unix
    /// epoch (the only wall-clock field; everything else is content).
    pub unix_ms: u64,
    /// Content fingerprint of the run's configuration: what was swept
    /// (grids, labels, quality). Two runs with equal fingerprints claim
    /// to have evaluated the same inputs.
    pub fingerprint: u64,
    /// Capability name of the kernel backend that evaluated the run
    /// (empty when no engine sweep was involved).
    pub kernel: String,
    /// Resolved SIMD dispatch tier of that backend (`"none"`, `"autovec"`,
    /// `"avx2"`, `"avx512"`, `"neon"`; empty when no kernel stamp
    /// applies). Appended to the v1 schema mid-stream: readers treat an
    /// absent field as `"unknown"`.
    pub simd: String,
    /// Worker threads the run was configured with.
    pub threads: u64,
    /// Time and work per stage: one entry per stage name (see
    /// [`sum_stages`]).
    pub stages: Vec<StageRecord>,
    /// Hit/miss counters per reported cache (`<family>/<table>`).
    pub caches: Vec<(String, CacheStats)>,
    /// Points that evaluated cleanly (summed over health ledgers).
    pub ok: u64,
    /// Points that produced degraded values.
    pub degraded: u64,
    /// Points that produced no value at all.
    pub failed: u64,
    /// Non-finite fields across all degraded points.
    pub non_finite: u64,
    /// Point-evaluation retries performed by the resilience runtime
    /// (summed over health ledgers).
    pub retries: u64,
    /// Circuit-breaker trips during the run.
    pub breaker_trips: u64,
    /// Worker/lane restarts performed by supervisors during the run.
    pub restarts: u64,
    /// Cause of the first degraded or failed point, in the merge order of
    /// the run's health ledgers; `None` for a clean run.
    pub first_failure: Option<String>,
    /// Digest of the run's numeric results. Two runs with equal
    /// fingerprints and kernels must produce equal digests — a mismatch
    /// is a determinism regression `obs-report` flags.
    pub digest: u64,
}

/// A JSON string literal: `s` quoted and escaped.
fn json_str(s: &str) -> String {
    format!("\"{}\"", esc(s))
}

impl LedgerRecord {
    /// Wall-clock seconds summed over the stages.
    #[must_use]
    pub fn seconds(&self) -> f64 {
        self.stages.iter().map(|s| s.seconds).sum()
    }

    /// Serialize as one JSONL line (no trailing newline), ending in the
    /// `"crc"` field: FNV-1a over every byte before `,"crc":"`.
    #[must_use]
    pub fn to_line(&self) -> String {
        let mut line = format!(
            "{{\"schema\":\"{LEDGER_SCHEMA}\",\"id\":{},\"unix_ms\":{},\
             \"fingerprint\":\"{:016x}\",\"kernel\":{},\"simd\":{},\"threads\":{},\
             \"stages\":[",
            json_str(&self.id),
            self.unix_ms,
            self.fingerprint,
            json_str(&self.kernel),
            json_str(&self.simd),
            self.threads,
        );
        for (i, s) in self.stages.iter().enumerate() {
            let sep = if i == 0 { "" } else { "," };
            let _ = write!(
                line,
                "{sep}{{\"name\":{},\"seconds\":{},\"points\":{}}}",
                json_str(&s.name),
                jnum(s.seconds),
                s.points,
            );
        }
        line.push_str("],\"caches\":[");
        for (i, (name, st)) in self.caches.iter().enumerate() {
            let sep = if i == 0 { "" } else { "," };
            let _ = write!(
                line,
                "{sep}{{\"name\":{},\"hits\":{},\"misses\":{}}}",
                json_str(name),
                st.hits,
                st.misses,
            );
        }
        let _ = write!(
            line,
            "],\"ok\":{},\"degraded\":{},\"failed\":{},\"non_finite\":{},\
             \"retries\":{},\"breaker_trips\":{},\"restarts\":{},\
             \"first_failure\":{},\"digest\":\"{:016x}\"",
            self.ok,
            self.degraded,
            self.failed,
            self.non_finite,
            self.retries,
            self.breaker_trips,
            self.restarts,
            self.first_failure.as_deref().map_or_else(|| "null".to_string(), json_str),
            self.digest,
        );
        let crc = fnv1a(line.as_bytes());
        let _ = write!(line, ",\"crc\":\"{crc:016x}\"}}");
        line
    }

    /// Append this record to the ledger at `path` (fault site
    /// `ledger/append` → `io/ledger/append`).
    ///
    /// # Errors
    ///
    /// Propagates [`crate::persist::append_line`] failures — callers on
    /// the emit path log and swallow these (a run that can't reach its
    /// ledger still produces its artifacts).
    pub fn append(&self, path: &Path) -> std::io::Result<()> {
        crate::persist::append_line("ledger/append", path, &self.to_line())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stage(name: &str, seconds: f64, points: u64) -> StageRecord {
        StageRecord { name: name.into(), seconds, points }
    }

    fn sample() -> LedgerRecord {
        LedgerRecord {
            id: "fig2".into(),
            unix_ms: 1_754_000_000_000,
            fingerprint: 0xDEAD_BEEF_0123_4567,
            kernel: "batch".into(),
            simd: "autovec".into(),
            threads: 8,
            stages: vec![stage("sweep/points", 0.25, 96), stage("welfare/gamma", 0.5, 400)],
            caches: vec![("rigid/best_effort".into(), CacheStats { hits: 40, misses: 10 })],
            ok: 998,
            degraded: 1,
            failed: 1,
            non_finite: 2,
            retries: 3,
            breaker_trips: 1,
            restarts: 2,
            first_failure: Some("gap solver: \"no bracket\"\nat C = 4".into()),
            digest: 0x0123_4567_89AB_CDEF,
        }
    }

    #[test]
    fn line_is_single_json_object_with_crc_suffix() {
        let line = sample().to_line();
        assert!(!line.contains('\n'), "the cause's newline is escaped: {line}");
        assert!(line.starts_with(&format!("{{\"schema\":\"{LEDGER_SCHEMA}\"")));
        assert!(line.ends_with('}'));
        assert!(line.contains(
            "\"stages\":[{\"name\":\"sweep/points\",\"seconds\":0.25,\"points\":96},\
             {\"name\":\"welfare/gamma\",\"seconds\":0.5,\"points\":400}]"
        ));
        assert!(line.contains("\"caches\":[{\"name\":\"rigid/best_effort\",\"hits\":40,\"misses\":10}]"));
        assert!(line.contains("\"first_failure\":\"gap solver: \\\"no bracket\\\"\\nat C = 4\""));
        let crc_at = line.rfind(",\"crc\":\"").expect("crc field present");
        let recorded = &line[crc_at + ",\"crc\":\"".len()..line.len() - 2];
        let expect = fnv1a(&line.as_bytes()[..crc_at]);
        assert_eq!(recorded, format!("{expect:016x}"), "crc covers the prefix");
    }

    #[test]
    fn sum_stages_folds_repeats_in_first_completion_order() {
        let summed = sum_stages(vec![
            stage("sweep/points", 0.25, 48),
            stage("welfare/value-table-B", 1.0, 801),
            stage("sweep/points", 0.5, 48),
        ]);
        assert_eq!(
            summed,
            vec![stage("sweep/points", 0.75, 96), stage("welfare/value-table-B", 1.0, 801)]
        );
        let mut r = sample();
        r.stages = summed;
        assert!((r.seconds() - 1.75).abs() < 1e-12);
        r.stages = vec![stage("s", f64::INFINITY, 1)];
        assert!(r.to_line().contains("\"seconds\":null"), "non-finite seconds stay valid JSON");
        r.stages.clear();
        r.caches.clear();
        r.first_failure = None;
        let line = r.to_line();
        assert!(line.contains("\"stages\":[],\"caches\":[],\"ok\":"), "{line}");
        assert!(line.contains("\"first_failure\":null"), "{line}");
    }

    #[test]
    fn append_accumulates_lines() {
        let dir = std::env::temp_dir()
            .join(format!("bevra-ledger-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let path = dir.join(LEDGER_FILE);
        sample().append(&path).unwrap();
        let mut second = sample();
        second.id = "fig3".into();
        second.append(&path).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        assert_eq!(text.lines().count(), 2);
        assert!(text.lines().nth(1).unwrap().contains("\"id\":\"fig3\""));
    }

    #[test]
    fn fnv1a_matches_known_vector() {
        // FNV-1a 64-bit test vectors.
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
    }
}
