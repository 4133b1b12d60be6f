//! Persistent cross-run value cache: the engine's only on-disk store.
//!
//! Regenerating a figure recomputes the same `k_max`/`B`/`R` grid tables
//! and the same `(C, B, R, δ, Δ)` sweep rows run after run. This module
//! persists both to disk, keyed by a **content hash** of everything the
//! values depend on — the load table's digest, the utility (name plus
//! probed values and knots), the mean load, any admission-cap override,
//! and the exact grid bit patterns — so a warm second run skips every
//! table recomputation and every finished sweep batch, while any change
//! to the model re-keys and recomputes from scratch. A change to how the
//! values are computed re-keys through the format tags, which every key
//! hashes.
//!
//! Two kinds of entry share the directory, keyed apart by their format
//! tag ([`grid_key`] for value tables, `sweep_key` for sweep rows):
//!
//! * **value-table rows** `(k_max, B, R)` per capacity, stored by
//!   `SweepEngine::prime` and counted as hits/misses;
//! * **sweep rows** `(C, B, R, δ, Δ)` for one finished batch of
//!   `SweepEngine::sweep_checked`, stored only when every point of the
//!   batch is clean and counted by [`PersistentCache::restored_points`].
//!   A killed sweep resumes from them, and a finished one leaves them in
//!   place for the next run. Under a fault plan that injects panics they
//!   are stored but not restored, so the plan's sweeps are evaluated.
//!
//! Design rules:
//!
//! * **Never wrong, never fatal.** Entries carry the full capacity list
//!   and an FNV checksum (`frame_entry`); a missing, truncated,
//!   corrupt, or mismatched file is a cache miss (recompute), never an
//!   error and never a wrong number. Store failures are counted
//!   ([`PersistentCache::io_errors`]) and swallowed.
//! * **Atomic writes.** Entries are written via
//!   [`bevra_faults::atomic_write`] (write-temp-then-rename, the PR 4
//!   path), so a crashed or fault-injected writer can't leave a torn
//!   entry behind. Loads and stores are fault-injection sites
//!   (`io/cache/load`, `io/cache/store`) exercised by the chaos suite.
//! * **No poisoned entries.** When a fault plan with value-corrupting
//!   rules (`nan`/`inf`/`numerr`) is active, the cache disables itself
//!   (loads miss, stores are skipped): injected corruption must stay
//!   inside one run and never leak into — or out of — a cross-run store.
//!
//! Gating: [`PersistentCache::from_env`] reads `BEVRA_CACHE`
//! (`off`/unset, `rw`, `ro`) and `BEVRA_CACHE_DIR` (default
//! `<repo>/results/cache`). The cache keeps its own hit/miss/store/
//! restore/error counters; hits and misses are surfaced by
//! `SweepEngine::cache_stats` under the name `"persistent"`.

use crate::cache::CacheStats;
use crate::engine::SweepPoint;
use bevra_faults::{fnv1a, FaultKind, Fnv1a};
use bevra_utility::Utility;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

/// Format tag of value-table entries, hashed into every key. Bump it when
/// the layout changes *or* when the evaluation of a stored value changes
/// (the key hashes the inputs, not how `B` and `R` are computed): old
/// entries then miss and are orphaned. v2: the `R` heads and rigid `B`
/// lanes of long algebraic tables add their stretch past the table head
/// as one sum.
const FORMAT: &str = "bevra-cache v2";

/// Format tag of sweep-row entries; bumped under the same rule as
/// [`FORMAT`], and together with it.
const SWEEP_FORMAT: &str = "bevra-sweep v2";

/// Fixed probe bandwidths hashed into the utility fingerprint. Chosen to
/// straddle every regime the families distinguish (near-zero curvature,
/// thresholds around 1, saturation): two utilities that agree in name and
/// on all probes to the bit are treated as identical.
const PROBES: [f64; 16] = [
    0.0, 1e-9, 1e-6, 1e-3, 0.01, 0.1, 0.25, 0.5, 0.75, 1.0, 1.5, 2.0, 3.0, 5.0, 13.0, 144.0,
];

/// One persisted grid row: `(k_max, B, R)` for a capacity.
pub type GridRow = (Option<u64>, f64, f64);

/// Read/write policy of a [`PersistentCache`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheMode {
    /// Load existing entries and store fresh ones.
    ReadWrite,
    /// Load existing entries; never write (CI, read-only checkouts).
    ReadOnly,
}

/// An on-disk value-table cache (see module docs).
#[derive(Debug)]
pub struct PersistentCache {
    dir: PathBuf,
    mode: CacheMode,
    hits: AtomicU64,
    misses: AtomicU64,
    stores: AtomicU64,
    restored: AtomicU64,
    io_errors: AtomicU64,
}

/// Content-hash key of the value-table rows for one (model, grid)
/// combination.
///
/// Hashes the load digest, mean load, utility fingerprint (name, probed
/// values, knots), admission-cap override, and every grid capacity's bit
/// pattern.
#[must_use]
pub fn grid_key<U: Utility>(model: &bevra_core::DiscreteModel<U>, capacities: &[f64]) -> u64 {
    content_key(FORMAT, model, capacities)
}

/// Content-hash key of the sweep rows for one batch of grid capacities:
/// the same inputs as [`grid_key`] under the sweep format tag, so a batch
/// never collides with the value-table entry of the same capacities.
#[must_use]
pub(crate) fn sweep_key<U: Utility>(
    model: &bevra_core::DiscreteModel<U>,
    capacities: &[f64],
) -> u64 {
    content_key(SWEEP_FORMAT, model, capacities)
}

fn content_key<U: Utility>(
    format: &str,
    model: &bevra_core::DiscreteModel<U>,
    capacities: &[f64],
) -> u64 {
    let mut h = Fnv1a::new();
    h.write(format.as_bytes());
    h.write_u64(model.load().digest());
    h.write_u64(model.mean_load().to_bits());
    let u = model.utility();
    h.write(u.name().as_bytes());
    for &b in &PROBES {
        h.write_u64(u.value(b).to_bits());
    }
    for k in u.knots() {
        h.write_u64(k.to_bits());
    }
    match model.admission_cap() {
        Some(cap) => {
            h.write_u64(1);
            h.write_u64(cap);
        }
        None => h.write_u64(0),
    }
    h.write_u64(capacities.len() as u64);
    for &c in capacities {
        h.write_u64(c.to_bits());
    }
    h.finish()
}

/// Frame an entry body for disk: a `format` tag line, the `key` line,
/// `body` (newline-terminated lines), and a closing `crc` line holding
/// the FNV-1a of everything before it. Value-table and sweep rows both
/// write this framing.
fn frame_entry(format: &str, key: u64, body: &str) -> Vec<u8> {
    let mut text = format!("{format}\nkey {key:016x}\n{body}");
    let _ = writeln!(text, "crc {:016x}", fnv1a(text.as_bytes()));
    text.into_bytes()
}

/// The body of an entry written by [`frame_entry`], or `None` when the
/// checksum, the format tag, or the key does not match — a torn,
/// bit-flipped, or foreign file never reaches a body parser.
fn unframe_entry<'a>(text: &'a str, format: &str, key: u64) -> Option<&'a str> {
    // Checksum first: everything before the final `crc` line must hash to
    // the recorded value.
    let crc_at = text.rfind("crc ")?;
    let (framed, crc_line) = text.split_at(crc_at);
    let recorded = u64::from_str_radix(crc_line.strip_prefix("crc ")?.trim(), 16).ok()?;
    if fnv1a(framed.as_bytes()) != recorded {
        return None;
    }
    let rest = framed.strip_prefix(format)?.strip_prefix("\nkey ")?;
    let (stored_key, body) = rest.split_once('\n')?;
    (u64::from_str_radix(stored_key, 16).ok()? == key).then_some(body)
}

/// True when the active fault plan can corrupt computed values — the
/// persistent cache must then neither serve nor record anything.
fn plan_corrupts_values() -> bool {
    bevra_faults::current_plan().is_some_and(|plan| {
        plan.rules
            .iter()
            .any(|r| matches!(r.kind, FaultKind::Nan | FaultKind::Inf | FaultKind::NumErr))
    })
}

/// True when the active fault plan injects panics. Sweep batches are then
/// evaluated, never restored: a restore would skip the very evaluation
/// the plan targets. Their stores still land, so a killed run resumes.
fn plan_injects_panics() -> bool {
    bevra_faults::current_plan()
        .is_some_and(|plan| plan.rules.iter().any(|r| r.kind == FaultKind::Panic))
}

impl PersistentCache {
    /// Cache rooted at `dir` with an explicit mode. The directory is
    /// created lazily on the first store.
    #[must_use]
    pub fn new(dir: impl Into<PathBuf>, mode: CacheMode) -> Self {
        Self {
            dir: dir.into(),
            mode,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            stores: AtomicU64::new(0),
            restored: AtomicU64::new(0),
            io_errors: AtomicU64::new(0),
        }
    }

    /// Cache configured from the environment: `BEVRA_CACHE` = `rw` or
    /// `ro` enables it (anything else, including unset and `off`,
    /// disables → `None`); `BEVRA_CACHE_DIR` overrides the default
    /// `<repo>/results/cache` location.
    #[must_use]
    pub fn from_env() -> Option<Self> {
        let mode = match std::env::var("BEVRA_CACHE").ok().as_deref() {
            Some("rw") => CacheMode::ReadWrite,
            Some("ro") => CacheMode::ReadOnly,
            _ => return None,
        };
        let dir = std::env::var_os("BEVRA_CACHE_DIR").map_or_else(default_dir, PathBuf::from);
        Some(Self::new(dir, mode))
    }

    /// The cache's root directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Value-table lookup counters, in the same shape as the in-memory
    /// memo tables (`hits`/`misses`; sweep rows are counted by
    /// [`Self::restored_points`], stores and I/O errors by
    /// [`Self::stores`] and [`Self::io_errors`]).
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
        }
    }

    /// Load/store attempts absorbed as I/O failures (injected or real).
    /// Every one degraded to a recompute or a skipped store — never a
    /// wrong number. The chaos suite asserts on this counter.
    pub fn io_errors(&self) -> u64 {
        self.io_errors.load(Ordering::Relaxed)
    }

    /// Successful entry stores, value-table and sweep rows alike.
    pub fn stores(&self) -> u64 {
        self.stores.load(Ordering::Relaxed)
    }

    /// Sweep points restored from finished-batch entries so far.
    pub fn restored_points(&self) -> u64 {
        self.restored.load(Ordering::Relaxed)
    }

    fn entry_path(&self, key: u64) -> PathBuf {
        self.dir.join(format!("{key:016x}.bvc"))
    }

    /// Load the rows stored under `key`, verifying the entry matches the
    /// requested grid exactly. Any problem — injected I/O fault, missing
    /// or unreadable file, format/key/grid/checksum mismatch — is a miss.
    pub fn load(&self, key: u64, capacities: &[f64]) -> Option<Vec<GridRow>> {
        if plan_corrupts_values() {
            // Don't count: the cache is administratively bypassed.
            return None;
        }
        let loaded = self
            .read(key)
            .and_then(|text| parse_rows(unframe_entry(&text, FORMAT, key)?, capacities));
        if loaded.is_some() {
            self.hits.fetch_add(1, Ordering::Relaxed);
        } else {
            self.misses.fetch_add(1, Ordering::Relaxed);
        }
        loaded
    }

    /// Persist `rows` under `key` (no-op in [`CacheMode::ReadOnly`] or
    /// under a value-corrupting fault plan). Failures are swallowed after
    /// counting: a cache that can't write degrades to recompute-always.
    pub fn store(&self, key: u64, capacities: &[f64], rows: &[GridRow]) {
        debug_assert_eq!(capacities.len(), rows.len());
        let mut body = format!("n {}\n", rows.len());
        for (&c, &(kmax, b, r)) in capacities.iter().zip(rows) {
            let km = kmax.map_or_else(|| "-".to_string(), |k| k.to_string());
            let (c, b, r) = (c.to_bits(), b.to_bits(), r.to_bits());
            let _ = writeln!(body, "{c:016x} {km} {b:016x} {r:016x}");
        }
        self.write(key, &frame_entry(FORMAT, key, &body));
    }

    /// Load the finished sweep rows stored under `key` (a `sweep_key`)
    /// for the batch `capacities`, one point per capacity. Same rules as
    /// [`Self::load`], plus no restore under a plan that injects panics;
    /// counted by [`Self::restored_points`] instead of hits/misses.
    pub(crate) fn load_sweep(&self, key: u64, capacities: &[f64]) -> Option<Vec<SweepPoint>> {
        if plan_corrupts_values() || plan_injects_panics() {
            return None;
        }
        let text = self.read(key)?;
        let points = parse_sweep(unframe_entry(&text, SWEEP_FORMAT, key)?, capacities)?;
        self.restored.fetch_add(points.len() as u64, Ordering::Relaxed);
        Some(points)
    }

    /// Persist one finished sweep batch under `key`. The caller stores
    /// only batches whose every point is clean (finite, no solver cause),
    /// so a restore can never change a health ledger.
    pub(crate) fn store_sweep(&self, key: u64, points: &[SweepPoint]) {
        let mut body = format!("n {}\n", points.len());
        for p in points {
            let _ = writeln!(
                body,
                "{:016x} {:016x} {:016x} {:016x} {:016x}",
                p.capacity.to_bits(),
                p.best_effort.to_bits(),
                p.reservation.to_bits(),
                p.performance_gap.to_bits(),
                p.bandwidth_gap.to_bits(),
            );
        }
        self.write(key, &frame_entry(SWEEP_FORMAT, key, &body));
    }

    /// The raw entry under `key`, or `None` on an injected or real read
    /// failure.
    fn read(&self, key: u64) -> Option<String> {
        // Fault site: a `io-transient:io/cache/load` or permanent rule
        // makes this lookup fail like an unreadable file. Reads don't
        // retry — recompute is the degradation path.
        if bevra_faults::io_fault("io/cache/load", key).is_some() {
            self.io_errors.fetch_add(1, Ordering::Relaxed);
            return None;
        }
        std::fs::read_to_string(self.entry_path(key)).ok()
    }

    /// Atomically write one framed entry (no-op in read-only mode or under
    /// a value-corrupting fault plan).
    fn write(&self, key: u64, bytes: &[u8]) {
        if self.mode == CacheMode::ReadOnly || plan_corrupts_values() {
            return;
        }
        // `atomic_write` prefixes the site with `io/`, giving the chaos
        // plans the `io/cache/store` site; it retries transient faults
        // with backoff and leaves only temp debris on permanent ones.
        match bevra_faults::atomic_write("cache/store", &self.entry_path(key), bytes) {
            Ok(_) => self.stores.fetch_add(1, Ordering::Relaxed),
            Err(_) => self.io_errors.fetch_add(1, Ordering::Relaxed),
        };
    }
}

/// Append one line to a shared JSONL file (the run ledger).
///
/// The file is opened in append mode (`O_APPEND` on POSIX) and the whole
/// line — with a trailing newline added if missing — lands in a **single**
/// `write_all`, so concurrent appenders from different threads or
/// processes interleave at line granularity: each line is contiguous in
/// the file short of a mid-write crash, which a per-line checksum (the
/// ledger's `crc` field) lets readers skip as a torn line.
///
/// `site` is a fault-injection site consulted per attempt as `io/<site>`,
/// like [`bevra_faults::atomic_write`]: transient faults are retried
/// under the same I/O policy and loop ([`bevra_faults::retry_transient`]),
/// waiting on the [`bevra_faults::ambient_clock`] (sleep-free whenever a
/// fault plan is active); permanent ones surface as errors.
///
/// # Errors
///
/// The last I/O error once retries are exhausted, or the first
/// non-transient error opening, creating the parent directory for, or
/// writing the file.
pub fn append_line(site: &str, path: &Path, line: &str) -> std::io::Result<()> {
    use bevra_faults::{ambient_clock, retry_transient, IoFault, RetryPolicy};
    use std::io::Write as _;

    let mut buf = line.to_string();
    if !buf.ends_with('\n') {
        buf.push('\n');
    }
    if let Some(dir) = path.parent() {
        if !dir.as_os_str().is_empty() {
            std::fs::create_dir_all(dir)?;
        }
    }
    let full_site = format!("io/{site}");
    retry_transient(RetryPolicy::default(), &mut *ambient_clock(), |attempt| {
        match bevra_faults::io_fault(&full_site, u64::from(attempt)) {
            Some(IoFault::Transient) => Err(std::io::Error::new(
                std::io::ErrorKind::Interrupted,
                format!("bevra-faults: injected transient I/O error at {full_site}"),
            )),
            Some(IoFault::Permanent) => Err(std::io::Error::other(format!(
                "bevra-faults: injected permanent I/O error at {full_site}"
            ))),
            None => std::fs::OpenOptions::new()
                .create(true)
                .append(true)
                .open(path)
                .and_then(|mut f| f.write_all(buf.as_bytes())),
        }
    })
    .map(drop)
}

/// Default cache directory: `results/cache` under the workspace root (the
/// same `results/` tree the report emitters use when run from the root).
fn default_dir() -> PathBuf {
    // crates/engine -> crates -> workspace root.
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .map_or_else(|| PathBuf::from("results"), Path::to_path_buf)
        .join("results")
        .join("cache")
}

/// Parse an entry body — an `n` line, then one line per capacity that
/// opens with the capacity's bits — handing each line's remaining fields
/// to `row`; `None` unless the body matches `capacities` exactly.
fn parse_body<T>(
    body: &str,
    capacities: &[f64],
    row: impl Fn(f64, &[&str]) -> Option<T>,
) -> Option<Vec<T>> {
    let mut lines = body.lines();
    let n: usize = lines.next()?.strip_prefix("n ")?.parse().ok()?;
    if n != capacities.len() {
        return None;
    }
    let rows = capacities
        .iter()
        .map(|&c| {
            let fields: Vec<&str> = lines.next()?.split_ascii_whitespace().collect();
            let (first, rest) = fields.split_first()?;
            if u64::from_str_radix(first, 16).ok()? != c.to_bits() {
                return None;
            }
            row(c, rest)
        })
        .collect::<Option<Vec<T>>>()?;
    lines.next().is_none().then_some(rows)
}

/// Parse a value-table body: `k_max B R` after each capacity.
fn parse_rows(body: &str, capacities: &[f64]) -> Option<Vec<GridRow>> {
    parse_body(body, capacities, |_, fields| match *fields {
        [km, b, r] => {
            let kmax = if km == "-" { None } else { Some(km.parse().ok()?) };
            Some((kmax, hex_f64(b)?, hex_f64(r)?))
        }
        _ => None,
    })
}

/// Parse a sweep-row body: `B R δ Δ` after each capacity.
fn parse_sweep(body: &str, capacities: &[f64]) -> Option<Vec<SweepPoint>> {
    parse_body(body, capacities, |capacity, fields| match *fields {
        [b, r, d, g] => Some(SweepPoint {
            capacity,
            best_effort: hex_f64(b)?,
            reservation: hex_f64(r)?,
            performance_gap: hex_f64(d)?,
            bandwidth_gap: hex_f64(g)?,
        }),
        _ => None,
    })
}

fn hex_f64(field: &str) -> Option<f64> {
    u64::from_str_radix(field, 16).ok().map(f64::from_bits)
}

#[cfg(test)]
mod tests {
    use super::*;
    use bevra_core::DiscreteModel;
    use bevra_load::{Poisson, Tabulated};
    use bevra_utility::{AdaptiveExp, Rigid};

    fn tmp_dir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("bevra-pcache-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        d
    }

    fn rows() -> (Vec<f64>, Vec<GridRow>) {
        let caps = vec![1.0, 2.5, 40.0];
        let rows = vec![(Some(1), 0.125, 0.25), (None, 0.5, 0.5), (Some(40), 0.75, 0.875)];
        (caps, rows)
    }

    #[test]
    fn round_trip_is_bitwise() {
        let pc = PersistentCache::new(tmp_dir("rt"), CacheMode::ReadWrite);
        let (caps, rows) = rows();
        let key = 0xDEAD_BEEF_u64;
        assert!(pc.load(key, &caps).is_none(), "cold lookup misses");
        pc.store(key, &caps, &rows);
        let got = pc.load(key, &caps).expect("warm lookup hits");
        for ((gk, gb, gr), (wk, wb, wr)) in got.iter().zip(&rows) {
            assert_eq!(gk, wk);
            assert_eq!(gb.to_bits(), wb.to_bits());
            assert_eq!(gr.to_bits(), wr.to_bits());
        }
        let s = pc.stats();
        assert_eq!((s.hits, s.misses), (1, 1));
    }

    #[test]
    fn grid_mismatch_and_corruption_miss() {
        let pc = PersistentCache::new(tmp_dir("bad"), CacheMode::ReadWrite);
        let (caps, rows) = rows();
        let key = 7;
        pc.store(key, &caps, &rows);
        // Different grid under the same key: miss, not wrong rows.
        assert!(pc.load(key, &[1.0, 2.5, 41.0]).is_none());
        // Flip one byte: the checksum rejects the entry.
        let path = pc.entry_path(key);
        let mut bytes = std::fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] = bytes[mid].wrapping_add(1);
        std::fs::write(&path, &bytes).unwrap();
        assert!(pc.load(key, &caps).is_none());
        // Truncation too.
        std::fs::write(&path, &bytes[..mid]).unwrap();
        assert!(pc.load(key, &caps).is_none());
    }

    #[test]
    fn read_only_never_writes() {
        let dir = tmp_dir("ro");
        let pc = PersistentCache::new(dir.clone(), CacheMode::ReadOnly);
        let (caps, rows) = rows();
        pc.store(3, &caps, &rows);
        assert!(!dir.exists(), "read-only mode must not create the cache dir");
        assert!(pc.load(3, &caps).is_none());
    }

    #[test]
    fn sweep_rows_round_trip_apart_from_value_rows() {
        let pc = PersistentCache::new(tmp_dir("sweep"), CacheMode::ReadWrite);
        let caps = [2.0, 40.0];
        let points: Vec<SweepPoint> = caps
            .iter()
            .map(|&c| SweepPoint {
                capacity: c,
                best_effort: c * 0.5,
                reservation: c * 0.75,
                performance_gap: c * 0.25,
                bandwidth_gap: c * 0.125,
            })
            .collect();
        pc.store_sweep(9, &points);
        assert!(pc.load(9, &caps).is_none(), "a sweep entry is not a value-table entry");
        assert!(pc.load_sweep(9, &[2.0, 41.0]).is_none(), "grid mismatch restores nothing");
        let got = pc.load_sweep(9, &caps).expect("restored");
        for (g, w) in got.iter().zip(&points) {
            assert_eq!(g.bandwidth_gap.to_bits(), w.bandwidth_gap.to_bits());
            assert_eq!(g.performance_gap.to_bits(), w.performance_gap.to_bits());
        }
        assert_eq!(pc.restored_points(), 2);
        assert_eq!((pc.stats().hits, pc.stats().misses), (0, 1), "sweep rows never count");
        let _guard = bevra_faults::install(bevra_faults::FaultPlan::seeded(0).rule(
            bevra_faults::FaultRule::always(FaultKind::Panic, "engine/point"),
        ));
        assert!(pc.load_sweep(9, &caps).is_none(), "a panic plan's sweeps are evaluated");
    }

    #[test]
    fn key_separates_models_and_grids() {
        let load = Tabulated::from_model(&Poisson::new(20.0), 1e-12, 1 << 10);
        let m1 = DiscreteModel::new(load.clone(), Rigid::unit());
        let m2 = DiscreteModel::new(load.clone(), Rigid::new(2.0));
        let m3 = DiscreteModel::new(load.clone(), AdaptiveExp::paper());
        let caps = [1.0, 2.0, 3.0];
        let k1 = grid_key(&m1, &caps);
        assert_eq!(k1, grid_key(&m1, &caps), "key is deterministic");
        assert_ne!(k1, grid_key(&m2, &caps), "utility params re-key");
        assert_ne!(k1, grid_key(&m3, &caps), "utility family re-keys");
        assert_ne!(k1, grid_key(&m1, &caps[..2]), "grid re-keys");
        assert_ne!(k1, sweep_key(&m1, &caps), "sweep rows are keyed apart");
        let capped = DiscreteModel::new(load, Rigid::unit()).with_admission_cap(5);
        assert_ne!(k1, grid_key(&capped, &caps), "admission cap re-keys");
    }

    #[test]
    fn format_tags_are_pinned() {
        // Rows stored before a change in how values are evaluated must
        // miss: both tags are hashed into every key, so a tag reverted to
        // v1 moves these pins.
        let load = Tabulated::from_model(&Poisson::new(20.0), 1e-12, 1 << 10);
        let m = DiscreteModel::new(load, Rigid::unit());
        let caps = [1.0, 2.0, 3.0];
        assert_eq!(grid_key(&m, &caps), 0x915d_bd1a_6a9e_8e41, "value-table key");
        assert_eq!(sweep_key(&m, &caps), 0xc6d5_a44d_daa4_df2b, "sweep key");
    }

    #[test]
    fn append_line_accumulates_newline_terminated_lines() {
        let dir = tmp_dir("append");
        let path = dir.join("ledger.jsonl");
        append_line("test/ledger", &path, "{\"a\":1}").unwrap();
        append_line("test/ledger", &path, "{\"b\":2}\n").unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        assert_eq!(text, "{\"a\":1}\n{\"b\":2}\n");
    }

    #[test]
    fn append_line_rides_out_transient_faults() {
        use bevra_faults::{install, FaultKind, FaultPlan, FaultRule};
        let dir = tmp_dir("append-tr");
        let path = dir.join("ledger.jsonl");
        let plan = FaultPlan::seeded(0)
            .rule(FaultRule::always(FaultKind::IoTransient, "io/test/led-tr").with_n(2));
        {
            let _guard = install(plan);
            append_line("test/led-tr", &path, "{\"ok\":true}").unwrap();
        }
        assert_eq!(std::fs::read_to_string(&path).unwrap(), "{\"ok\":true}\n");
    }

    #[test]
    fn append_line_permanent_fault_errors_without_writing() {
        use bevra_faults::{install, FaultKind, FaultPlan, FaultRule};
        let dir = tmp_dir("append-perm");
        let path = dir.join("ledger.jsonl");
        let plan = FaultPlan::seeded(0)
            .rule(FaultRule::always(FaultKind::IoPermanent, "io/test/led-perm"));
        {
            let _guard = install(plan);
            let err = append_line("test/led-perm", &path, "{\"lost\":true}").unwrap_err();
            assert!(err.to_string().contains("injected permanent"));
        }
        assert!(!path.exists(), "failed append must not create the file");
    }
}
