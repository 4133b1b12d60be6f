//! Reader side of the cross-run ledger (`results/ledger.jsonl`).
//!
//! The writer side lives in `bevra-engine` ([`bevra_engine::ledger`]):
//! every figure run appends one CRC-tailed JSONL line. This module parses
//! the file back — skipping (and counting) torn, corrupt, or
//! foreign-schema lines instead of failing on them — renders trend tables
//! over the history, and detects two kinds of regression the `obs-report`
//! binary gates on:
//!
//! * **digest** — two runs with the same id, config fingerprint, and
//!   kernel produced different result digests: the sweep is no longer
//!   deterministic (or the model changed without re-keying);
//! * **perf** — in the latest run of an id/fingerprint/kernel group, one
//!   stage's ns-per-point is more than `threshold ×` the median of that
//!   stage in the group's earlier runs.

use crate::json::JsonValue;
use crate::table::markdown_table;
use bevra_engine::ledger::{fnv1a, LedgerRecord, LEDGER_SCHEMA};
use bevra_engine::{CacheStats, StageRecord};

/// Schema tag of the first ledger layout, which kept run totals
/// (`points`, `seconds`, `cache_hits`, `cache_misses`) instead of
/// per-stage and per-cache arrays. Its lines still parse, as one stage
/// and one cache named `total`.
const LEDGER_SCHEMA_V1: &str = "bevra-ledger-v1";

/// A parsed ledger: the records that survived validation plus how many
/// lines were skipped (torn tails, CRC mismatches, foreign schemas).
#[derive(Debug, Default)]
pub struct ParsedLedger {
    /// Valid records, in file (append) order.
    pub records: Vec<LedgerRecord>,
    /// Lines that failed CRC, schema, or field validation.
    pub skipped: usize,
}

fn get_u64(v: &JsonValue, key: &str) -> Option<u64> {
    let n = v.get(key)?.as_f64()?;
    if n.is_finite() && n >= 0.0 {
        Some(n as u64)
    } else {
        None
    }
}

fn get_hex(v: &JsonValue, key: &str) -> Option<u64> {
    u64::from_str_radix(v.get(key)?.as_str()?, 16).ok()
}

fn get_stage(v: &JsonValue) -> Option<StageRecord> {
    Some(StageRecord {
        name: v.get("name")?.as_str()?.to_string(),
        seconds: v.get("seconds")?.as_f64()?,
        points: get_u64(v, "points")?,
    })
}

fn get_cache(v: &JsonValue) -> Option<(String, CacheStats)> {
    let stats = CacheStats { hits: get_u64(v, "hits")?, misses: get_u64(v, "misses")? };
    Some((v.get("name")?.as_str()?.to_string(), stats))
}

fn parse_line(line: &str) -> Option<LedgerRecord> {
    // CRC first: everything before `,"crc":"` must hash to the recorded
    // value, so a torn tail or bit flip is rejected before JSON parsing.
    let crc_at = line.rfind(",\"crc\":\"")?;
    let doc = JsonValue::parse(line).ok()?;
    let v1 = match doc.get("schema")?.as_str()? {
        LEDGER_SCHEMA => false,
        LEDGER_SCHEMA_V1 => true,
        _ => return None,
    };
    if get_hex(&doc, "crc")? != fnv1a(&line.as_bytes()[..crc_at]) {
        return None;
    }
    let (stages, caches) = if v1 {
        let total = StageRecord {
            name: "total".into(),
            seconds: doc.get("seconds")?.as_f64()?,
            points: get_u64(&doc, "points")?,
        };
        let cache =
            CacheStats { hits: get_u64(&doc, "cache_hits")?, misses: get_u64(&doc, "cache_misses")? };
        (vec![total], vec![("total".to_string(), cache)])
    } else {
        let stages = doc.get("stages")?.as_arr()?.iter().map(get_stage).collect::<Option<_>>()?;
        let caches = doc.get("caches")?.as_arr()?.iter().map(get_cache).collect::<Option<_>>()?;
        (stages, caches)
    };
    Some(LedgerRecord {
        id: doc.get("id")?.as_str()?.to_string(),
        unix_ms: get_u64(&doc, "unix_ms")?,
        fingerprint: get_hex(&doc, "fingerprint")?,
        kernel: doc.get("kernel")?.as_str()?.to_string(),
        threads: get_u64(&doc, "threads")?,
        stages,
        caches,
        ok: get_u64(&doc, "ok")?,
        degraded: get_u64(&doc, "degraded")?,
        failed: get_u64(&doc, "failed")?,
        non_finite: get_u64(&doc, "non_finite")?,
        // Resilience counters arrived mid-v1; absent on older lines, which
        // default to zero rather than being skipped.
        retries: get_u64(&doc, "retries").unwrap_or(0),
        breaker_trips: get_u64(&doc, "breaker_trips").unwrap_or(0),
        restarts: get_u64(&doc, "restarts").unwrap_or(0),
        // The SIMD tier stamp also arrived mid-v1: older lines carry no
        // field and parse as "unknown" (append-tolerant, never skipped).
        simd: doc
            .get("simd")
            .and_then(JsonValue::as_str)
            .unwrap_or("unknown")
            .to_string(),
        // v1 lines carry no cause: they parse as None.
        first_failure: doc.get("first_failure").and_then(JsonValue::as_str).map(str::to_string),
        digest: get_hex(&doc, "digest")?,
    })
}

/// Parse ledger text: one record per valid line, counting every invalid
/// non-empty line as skipped.
#[must_use]
pub fn parse_ledger(text: &str) -> ParsedLedger {
    let mut out = ParsedLedger::default();
    for line in text.lines() {
        if line.trim().is_empty() {
            continue;
        }
        match parse_line(line) {
            Some(rec) => out.records.push(rec),
            None => out.skipped += 1,
        }
    }
    out
}

/// One detected regression.
#[derive(Debug, Clone, PartialEq)]
pub enum Regression {
    /// Same id + fingerprint + kernel, different result digest.
    Digest {
        /// Run id of the offending pair.
        id: String,
        /// Kernel capability stamp shared by the pair.
        kernel: String,
        /// Digest of the earlier run.
        prev: u64,
        /// Digest of the later run.
        got: u64,
    },
    /// Same id + fingerprint + kernel, different digest, but the runs
    /// also report **different SIMD tiers**. The dispatched kernels are
    /// bitwise across tiers by contract, so this *should* never happen —
    /// but a cross-machine ledger (or a `BEVRA_SIMD` override) is the one
    /// place an honest tier difference and a genuine determinism break
    /// are indistinguishable. Surfaced as an informational divergence
    /// instead of a gating regression.
    TierDivergence {
        /// Run id of the offending pair.
        id: String,
        /// Kernel capability stamp shared by the pair.
        kernel: String,
        /// SIMD tier of the earlier run.
        prev_simd: String,
        /// SIMD tier of the later run.
        got_simd: String,
        /// Digest of the earlier run.
        prev: u64,
        /// Digest of the later run.
        got: u64,
    },
    /// One stage's latest ns-per-point blew past its history for this
    /// id + fingerprint + kernel.
    Perf {
        /// Run id.
        id: String,
        /// Kernel capability stamp.
        kernel: String,
        /// Name of the stage that slowed down.
        stage: String,
        /// Median ns-per-point of the stage in the prior runs.
        baseline_ns: f64,
        /// The stage's ns-per-point in the latest run.
        latest_ns: f64,
    },
}

impl Regression {
    /// Whether this finding should fail the gate (`obs-report` exit 1).
    /// Tier divergences are reported but non-fatal.
    #[must_use]
    pub fn is_fatal(&self) -> bool {
        !matches!(self, Regression::TierDivergence { .. })
    }
}

impl std::fmt::Display for Regression {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Regression::Digest { id, kernel, prev, got } => write!(
                f,
                "digest regression: {id} ({kernel}): {prev:016x} -> {got:016x} \
                 for the same config fingerprint"
            ),
            Regression::TierDivergence { id, kernel, prev_simd, got_simd, prev, got } => write!(
                f,
                "digest divergence across SIMD tiers: {id} ({kernel}): \
                 {prev:016x} [{prev_simd}] vs {got:016x} [{got_simd}] — \
                 expected bitwise parity; compare tiers on one machine to \
                 decide whether this is a determinism break"
            ),
            Regression::Perf { id, kernel, stage, baseline_ns, latest_ns } => write!(
                f,
                "perf regression: {id} ({kernel}) stage {stage}: {latest_ns:.0} ns/point \
                 vs {baseline_ns:.0} ns/point historical median"
            ),
        }
    }
}

/// Scan records (in append order) for digest and perf regressions.
///
/// Digest: within each (id, fingerprint, kernel) group every record must
/// repeat the first record's digest. Perf: for each stage of each such
/// group with at least [`MIN_PERF_HISTORY`] timed runs, the latest run's
/// ns-per-point must stay within `threshold ×` the median of the earlier
/// runs — unless the latest run spent under [`PERF_FLOOR_SECONDS`] in it.
/// Keying on the fingerprint keeps a full-quality run from being gated
/// against `--fast` runs of the same figure.
#[must_use]
pub fn find_regressions(records: &[LedgerRecord], threshold: f64) -> Vec<Regression> {
    let mut out = Vec::new();
    // Digest: map (id, fingerprint, kernel) -> first (digest, simd) seen.
    // A mismatch within one tier is a determinism regression; across
    // tiers it is flagged as an informational divergence instead.
    type FirstSeen<'a> = ((&'a str, u64, &'a str), (u64, &'a str));
    let mut first: Vec<FirstSeen<'_>> = Vec::new();
    for r in records {
        let key = (r.id.as_str(), r.fingerprint, r.kernel.as_str());
        match first.iter().find(|(k, _)| *k == key) {
            Some(&(_, (digest, simd))) if digest != r.digest => {
                if simd == r.simd {
                    out.push(Regression::Digest {
                        id: r.id.clone(),
                        kernel: r.kernel.clone(),
                        prev: digest,
                        got: r.digest,
                    });
                } else {
                    out.push(Regression::TierDivergence {
                        id: r.id.clone(),
                        kernel: r.kernel.clone(),
                        prev_simd: simd.to_string(),
                        got_simd: r.simd.clone(),
                        prev: digest,
                        got: r.digest,
                    });
                }
            }
            Some(_) => {}
            None => first.push((key, (r.digest, r.simd.as_str()))),
        }
    }
    // Perf: per (id, fingerprint, kernel, stage), the latest run's
    // ns/point vs the median of the group's earlier runs.
    let mut groups: Vec<(&str, u64, &str, &str)> = records
        .iter()
        .flat_map(|r| {
            r.stages
                .iter()
                .map(|s| (r.id.as_str(), r.fingerprint, r.kernel.as_str(), s.name.as_str()))
        })
        .collect();
    groups.sort_unstable();
    groups.dedup();
    let ns_per_point = |s: &StageRecord| s.seconds * 1e9 / s.points as f64;
    for (id, fingerprint, kernel, stage) in groups {
        let runs: Vec<&StageRecord> = records
            .iter()
            .filter(|r| r.id == id && r.fingerprint == fingerprint && r.kernel == kernel)
            .filter_map(|r| r.stages.iter().find(|s| s.name == stage))
            .filter(|s| s.points > 0 && s.seconds.is_finite() && s.seconds > 0.0)
            .collect();
        let Some((latest, prior)) = runs.split_last() else { continue };
        if runs.len() < MIN_PERF_HISTORY || latest.seconds < PERF_FLOOR_SECONDS {
            continue;
        }
        let mut prior: Vec<f64> = prior.iter().map(|s| ns_per_point(s)).collect();
        prior.sort_unstable_by(f64::total_cmp);
        let (baseline, latest_ns) = (prior[prior.len() / 2], ns_per_point(latest));
        if latest_ns > threshold * baseline {
            out.push(Regression::Perf {
                id: id.to_string(),
                kernel: kernel.to_string(),
                stage: stage.to_string(),
                baseline_ns: baseline,
                latest_ns,
            });
        }
    }
    out
}

/// Minimum timed runs of an (id, fingerprint, kernel, stage) group before
/// the perf gate engages: one latest plus at least two priors, so a single
/// noisy first run can't trip it.
pub const MIN_PERF_HISTORY: usize = 3;

/// A stage whose latest run took less than this many seconds is not
/// perf-gated: at that scale timer and scheduling noise swamp the work.
pub const PERF_FLOOR_SECONDS: f64 = 0.010;

/// Default perf-regression threshold (same headroom as the perf-smoke
/// gate over `BENCH_baseline.json`).
pub const DEFAULT_THRESHOLD: f64 = 3.0;

/// Render the ledger history as a Markdown trend table, newest last: per
/// run the total stage seconds and the slowest stage.
#[must_use]
pub fn trend_table(records: &[LedgerRecord]) -> String {
    let rows: Vec<Vec<String>> = records
        .iter()
        .map(|r| {
            let (hits, misses) =
                r.caches.iter().fold((0, 0), |(h, m), (_, st)| (h + st.hits, m + st.misses));
            let hit_rate = if hits + misses == 0 {
                "-".to_string()
            } else {
                format!("{:.2}", hits as f64 / (hits + misses) as f64)
            };
            let slowest = r
                .stages
                .iter()
                .max_by(|a, b| a.seconds.total_cmp(&b.seconds))
                .map_or_else(|| "-".to_string(), |s| format!("{} ({:.3}s)", s.name, s.seconds));
            vec![
                r.id.clone(),
                r.unix_ms.to_string(),
                if r.kernel.is_empty() { "-".to_string() } else { r.kernel.clone() },
                if r.simd.is_empty() { "-".to_string() } else { r.simd.clone() },
                r.threads.to_string(),
                format!("{:.3}", r.seconds()),
                slowest,
                hit_rate,
                format!("{}/{}/{}", r.ok, r.degraded, r.failed),
                format!("{}/{}/{}", r.retries, r.breaker_trips, r.restarts),
                format!("{:016x}", r.digest),
            ]
        })
        .collect();
    markdown_table(
        &[
            "id",
            "unix_ms",
            "kernel",
            "simd",
            "threads",
            "seconds",
            "slowest stage",
            "cache-hit",
            "ok/deg/fail",
            "retry/trip/restart",
            "digest",
        ],
        &rows,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stage(name: &str, seconds: f64, points: u64) -> StageRecord {
        StageRecord { name: name.into(), seconds, points }
    }

    /// A clean run whose one stage, `sweep/points`, took `seconds`.
    fn rec(id: &str, fingerprint: u64, digest: u64, seconds: f64) -> LedgerRecord {
        LedgerRecord {
            id: id.into(),
            unix_ms: 1_754_000_000_000,
            fingerprint,
            kernel: "batch".into(),
            simd: "autovec".into(),
            threads: 4,
            stages: vec![stage("sweep/points", seconds, 100)],
            caches: vec![("rigid/best_effort".into(), CacheStats { hits: 3, misses: 1 })],
            ok: 100,
            degraded: 0,
            failed: 0,
            non_finite: 0,
            retries: 2,
            breaker_trips: 0,
            restarts: 1,
            first_failure: None,
            digest,
        }
    }

    /// Re-CRC a spliced line prefix, as the writer of that layout did.
    fn recrc(prefix: &str) -> String {
        format!("{prefix},\"crc\":\"{:016x}\"}}", fnv1a(prefix.as_bytes()))
    }

    #[test]
    fn round_trips_written_lines() {
        let a = rec("fig2", 0xAB, 0xCD, 0.25);
        let mut b = rec("fig3", 0xEF, 0x01, 0.5);
        b.stages.push(stage("welfare/value-table-B", 1.5, 801));
        b.caches.push(("adaptive/k_max".into(), CacheStats { hits: 0, misses: 48 }));
        b.degraded = 1;
        b.first_failure = Some("bandwidth gap: \"no bracket\", giving up\nat C = 5".into());
        let text = format!("{}\n{}\n", a.to_line(), b.to_line());
        let parsed = parse_ledger(&text);
        assert_eq!(parsed.skipped, 0);
        assert_eq!(parsed.records, vec![a, b]);
    }

    #[test]
    fn v1_lines_parse_as_one_total_stage_and_cache() {
        // Rebuild a v1 line from a v2 one: run totals in place of the
        // stage and cache arrays, no first_failure, the old schema tag.
        let line = rec("fig2", 0xAB, 0xCD, 0.25).to_line();
        let v2 = &line[..line.rfind(",\"crc\":\"").unwrap()];
        let (stages_at, ok_at) = (v2.find(",\"stages\":").unwrap(), v2.find(",\"ok\":").unwrap());
        let v1 = format!(
            "{},\"points\":100,\"seconds\":0.25,\"ns_per_point\":2500000.0,\
             \"cache_hits\":3,\"cache_misses\":1{}",
            &v2[..stages_at],
            &v2[ok_at..]
        )
        .replace(LEDGER_SCHEMA, LEDGER_SCHEMA_V1)
        .replace(",\"first_failure\":null", "");
        let parsed = parse_ledger(&recrc(&v1));
        assert_eq!(parsed.skipped, 0, "v1 lines must still parse: {v1}");
        let r = &parsed.records[0];
        assert_eq!(r.stages, vec![stage("total", 0.25, 100)]);
        assert_eq!(r.caches, vec![("total".to_string(), CacheStats { hits: 3, misses: 1 })]);
        assert_eq!(r.first_failure, None);
        assert_eq!((r.retries, r.restarts, r.simd.as_str()), (2, 1, "autovec"));
        assert_eq!(r.digest, 0xCD, "other fields unaffected");

        // The oldest v1 lines predate the resilience counters and the simd
        // stamp: they default to zero and "unknown", never skipped.
        let oldest = v1
            .replace(",\"retries\":2,\"breaker_trips\":0,\"restarts\":1", "")
            .replace(",\"simd\":\"autovec\"", "");
        assert!(!oldest.contains("simd") && !oldest.contains("retries"), "splice failed: {oldest}");
        let parsed = parse_ledger(&recrc(&oldest));
        assert_eq!(parsed.skipped, 0, "pre-resilience lines must still parse");
        let r = &parsed.records[0];
        assert_eq!((r.retries, r.breaker_trips, r.restarts), (0, 0, 0));
        assert_eq!(r.simd, "unknown");
        assert_eq!(r.stages, vec![stage("total", 0.25, 100)]);
    }

    #[test]
    fn cross_tier_digest_mismatch_is_divergence_not_regression() {
        let mut a = rec("fig2", 0xAA, 0x11, 0.2);
        a.simd = "avx512".into();
        let mut b = rec("fig2", 0xAA, 0x33, 0.2);
        b.simd = "unknown".into(); // e.g. appended by an older binary
        let regs = find_regressions(&[a.clone(), b], DEFAULT_THRESHOLD);
        assert_eq!(regs.len(), 1);
        match &regs[0] {
            Regression::TierDivergence { prev_simd, got_simd, prev, got, .. } => {
                assert_eq!((prev_simd.as_str(), got_simd.as_str()), ("avx512", "unknown"));
                assert_eq!((*prev, *got), (0x11, 0x33));
                assert!(!regs[0].is_fatal(), "divergence must not gate");
            }
            other => panic!("expected tier divergence, got {other:?}"),
        }
        // Same tier, same mismatch: a genuine (fatal) digest regression.
        let mut c = rec("fig2", 0xAA, 0x33, 0.2);
        c.simd = "avx512".into();
        let regs = find_regressions(&[a, c], DEFAULT_THRESHOLD);
        assert!(matches!(&regs[0], Regression::Digest { .. }));
        assert!(regs[0].is_fatal());
    }

    #[test]
    fn torn_and_corrupt_lines_are_skipped_not_fatal() {
        let good = rec("fig2", 1, 2, 0.25).to_line();
        let torn = &good[..good.len() / 2];
        let mut flipped = good.clone();
        // Flip a digit inside the payload; the CRC no longer matches.
        flipped = flipped.replacen("\"points\":100", "\"points\":999", 1);
        let foreign = "{\"schema\":\"other-v9\",\"x\":1}";
        let text = format!("{good}\n{torn}\n{flipped}\n{foreign}\n\n{good}\n");
        let parsed = parse_ledger(&text);
        assert_eq!(parsed.records.len(), 2, "only the intact lines parse");
        assert_eq!(parsed.skipped, 3);
    }

    #[test]
    fn digest_regression_detected_same_fingerprint_only() {
        let records = vec![
            rec("fig2", 0xAA, 0x11, 0.2),
            rec("fig2", 0xAA, 0x11, 0.2), // same digest: fine
            rec("fig2", 0xBB, 0x22, 0.2), // different fingerprint: new group
            rec("fig2", 0xAA, 0x33, 0.2), // regression
        ];
        let regs = find_regressions(&records, DEFAULT_THRESHOLD);
        assert_eq!(regs.len(), 1);
        match &regs[0] {
            Regression::Digest { id, prev, got, .. } => {
                assert_eq!(id, "fig2");
                assert_eq!((*prev, *got), (0x11, 0x33));
            }
            other => panic!("expected digest regression, got {other:?}"),
        }
    }

    fn perf_stages(regs: &[Regression]) -> Vec<&str> {
        regs.iter()
            .filter_map(|r| match r {
                Regression::Perf { stage, .. } => Some(stage.as_str()),
                _ => None,
            })
            .collect()
    }

    #[test]
    fn perf_regression_needs_history_and_threshold() {
        let mut records = vec![
            rec("fig2", 1, 9, 0.10),
            rec("fig2", 1, 9, 0.11),
            rec("fig2", 1, 9, 0.09),
        ];
        assert!(find_regressions(&records, 3.0).is_empty(), "steady history is clean");
        records.push(rec("fig2", 1, 9, 1.0)); // 10x the median
        let regs = find_regressions(&records, 3.0);
        assert_eq!(perf_stages(&regs), ["sweep/points"], "blow-up flagged: {regs:?}");
        assert!(regs[0].to_string().contains("stage sweep/points"), "{}", regs[0]);
        // Two runs only: below MIN_PERF_HISTORY, never flagged.
        let short = vec![rec("fig9", 1, 9, 0.1), rec("fig9", 1, 9, 10.0)];
        assert!(find_regressions(&short, 3.0).is_empty());
    }

    #[test]
    fn perf_gate_never_compares_fast_runs_with_full_runs() {
        // A full fig4 run scans a 16x larger table than `--fast`: under
        // its own fingerprint it is a new group, not a regression.
        const FAST: u64 = 0xFA57;
        const FULL: u64 = 0xF011;
        let mut records: Vec<LedgerRecord> = [0.10, 0.11, 0.09]
            .iter()
            .map(|&secs| rec("fig4", FAST, 9, secs))
            .collect();
        records.push(rec("fig4", FULL, 7, 1.6));
        assert!(perf_stages(&find_regressions(&records, 3.0)).is_empty());
        // The same blow-up under the fast fingerprint is a regression.
        records.push(rec("fig4", FAST, 9, 1.6));
        assert_eq!(perf_stages(&find_regressions(&records, 3.0)), ["sweep/points"]);
    }

    #[test]
    fn one_stage_blow_up_is_named_and_sub_floor_stages_are_not_gated() {
        let run = |value_table: f64, gamma: f64| {
            let mut r = rec("fig2", 1, 9, 0.10);
            r.stages.push(stage("welfare/value-table-R", value_table, 402));
            r.stages.push(stage("welfare/gamma", gamma, 48));
            r
        };
        let mut records = vec![run(0.5, 0.0004), run(0.5, 0.0005), run(0.5, 0.0004)];
        // gamma runs 15x slower but stays under the floor; the value
        // table runs 10x slower above it.
        records.push(run(5.0, 0.006));
        let regs = find_regressions(&records, 3.0);
        assert_eq!(perf_stages(&regs), ["welfare/value-table-R"], "{regs:?}");
        match &regs[0] {
            Regression::Perf { baseline_ns, latest_ns, .. } => {
                assert!((latest_ns / baseline_ns - 10.0).abs() < 1e-9);
            }
            other => panic!("expected a perf regression, got {other:?}"),
        }
        // Over the floor, the same gamma blow-up is flagged too.
        records.push(run(0.5, 0.05));
        let regs = find_regressions(&records, 3.0);
        assert_eq!(perf_stages(&regs), ["welfare/gamma"], "{regs:?}");
    }

    #[test]
    fn trend_table_has_one_row_per_record() {
        let mut records =
            vec![rec("fig2", 1, 2, 0.25), rec("fig3", 3, 4, 0.5), rec("fig4", 5, 6, 0.75)];
        records[2].stages.push(stage("welfare/value-table-B", 2.0, 801));
        let table = trend_table(&records);
        assert_eq!(table.lines().count(), 2 + records.len(), "header + rule + rows");
        assert!(table.contains("slowest stage"));
        assert!(table.contains("welfare/value-table-B (2.000s)"), "{table}");
        assert!(table.contains("2.750"), "total stage seconds: {table}");
        assert!(table.contains("fig3"));
        assert!(table.contains(&format!("{:016x}", 4)));
    }
}
