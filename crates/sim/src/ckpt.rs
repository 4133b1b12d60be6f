//! Crash-safe fleet checkpoints: per-lane report persistence.
//!
//! A killed fleet run loses every lane it had already simulated. This
//! module persists completed lane reports to disk incrementally, keyed by
//! a content hash of the fleet configuration
//! ([`crate::runner::SimConfig::fingerprint`] plus the lane count), so a
//! resumed run restores finished lanes **bitwise** and re-simulates only
//! what is missing — the resumed merged report is bitwise-identical to an
//! uninterrupted run's (`tests/resilience.rs` pins this against the
//! workspace's fleet digest).
//!
//! The design rules are shared with the engine's persistent value cache
//! (`bevra_engine::persist`):
//!
//! * **Never wrong, never fatal.** Entries use the cache's framing
//!   ([`frame_entry`]: format tag, key, FNV checksum) plus the lane
//!   count; a missing, truncated, corrupt, or mismatched file restores
//!   nothing. Store failures are counted and swallowed.
//! * **Atomic writes** via [`bevra_faults::atomic_write`]
//!   (write-temp-then-rename), fault sites `fleet-ckpt/store` and
//!   `io/fleet-ckpt/load`.
//! * **Only clean lanes.** Budget-truncated lanes are never
//!   checkpointed — they are re-run on resume, so a resumed run can only
//!   be *more* complete than the interrupted one.
//!
//! Checkpointing is opt-in: attach a store with `Fleet::with_checkpoint`.

use crate::runner::SimReport;
use crate::stats::Welford;
use bevra_engine::persist::{frame_entry, unframe_entry};
use bevra_engine::CacheMode;
use bevra_obs::metrics;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

/// Format tag; bump when the entry layout changes (old entries then
/// restore nothing).
const FORMAT: &str = "bevra-fleet-ckpt v1";

/// Shards per checkpoint group: a checkpointing fleet persists completed
/// lanes and crosses the `sim/fleet-ckpt` kill site once per this many
/// completed shards.
pub const GROUP_SHARDS: usize = 4;

/// An on-disk per-lane fleet checkpoint store (see module docs).
#[derive(Debug)]
pub struct FleetCheckpoint {
    dir: PathBuf,
    mode: CacheMode,
    restored: AtomicU64,
    stores: AtomicU64,
    io_errors: AtomicU64,
}

impl FleetCheckpoint {
    /// Store rooted at `dir` with an explicit mode. The directory is
    /// created lazily by the first store (via `atomic_write`).
    #[must_use]
    pub fn new(dir: impl Into<PathBuf>, mode: CacheMode) -> Self {
        Self {
            dir: dir.into(),
            mode,
            restored: AtomicU64::new(0),
            stores: AtomicU64::new(0),
            io_errors: AtomicU64::new(0),
        }
    }

    /// The store's root directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Lanes restored from disk so far.
    pub fn restored_lanes(&self) -> u64 {
        self.restored.load(Ordering::Relaxed)
    }

    /// Successful checkpoint writes.
    pub fn stores(&self) -> u64 {
        self.stores.load(Ordering::Relaxed)
    }

    /// Load/store attempts absorbed as I/O failures (injected or real).
    pub fn io_errors(&self) -> u64 {
        self.io_errors.load(Ordering::Relaxed)
    }

    fn entry_path(&self, key: u64) -> PathBuf {
        self.dir.join(format!("fleet-{key:016x}.bvk"))
    }

    /// Restore the completed lane reports recorded under `key` for a
    /// fleet of `lanes` lanes: one slot per lane, `None` where nothing
    /// was checkpointed. Any problem — injected I/O fault, unreadable
    /// file, format/key/length/checksum mismatch — restores nothing.
    pub fn load(&self, key: u64, lanes: usize) -> Vec<Option<SimReport>> {
        let mut out: Vec<Option<SimReport>> = (0..lanes).map(|_| None).collect();
        if bevra_faults::io_fault("io/fleet-ckpt/load", key).is_some() {
            self.io_errors.fetch_add(1, Ordering::Relaxed);
            metrics::counter("sim/fleet/ckpt/io_error").inc();
            return out;
        }
        let Ok(text) = std::fs::read_to_string(self.entry_path(key)) else {
            return out;
        };
        if let Some(rows) = parse_entry(&text, key, lanes) {
            let restored = rows.len() as u64;
            for (lane, report) in rows {
                out[lane] = Some(report);
            }
            self.restored.fetch_add(restored, Ordering::Relaxed);
            metrics::counter("sim/fleet/ckpt/restored").add(restored);
        }
        out
    }

    /// Persist the completed `(lane, report)` pairs of a `lanes`-lane
    /// fleet under `key`, replacing any previous checkpoint (no-op in
    /// [`CacheMode::ReadOnly`]). Failures are counted and swallowed.
    pub fn store(&self, key: u64, lanes: usize, reports: &[(usize, &SimReport)]) {
        if self.mode == CacheMode::ReadOnly {
            return;
        }
        let bytes = serialize_entry(key, lanes, reports);
        match bevra_faults::atomic_write("fleet-ckpt/store", &self.entry_path(key), &bytes) {
            Ok(_) => {
                self.stores.fetch_add(1, Ordering::Relaxed);
                metrics::counter("sim/fleet/ckpt/store").inc();
            }
            Err(_) => {
                self.io_errors.fetch_add(1, Ordering::Relaxed);
                metrics::counter("sim/fleet/ckpt/io_error").inc();
            }
        }
    }

    /// Remove the checkpoint stored under `key` — called after a fleet
    /// completes with every lane ok, so a finished run leaves no stale
    /// state (no-op in read-only mode).
    pub fn clear(&self, key: u64) {
        if self.mode == CacheMode::ReadOnly {
            return;
        }
        let _ = std::fs::remove_file(self.entry_path(key));
    }
}

fn serialize_entry(key: u64, lanes: usize, reports: &[(usize, &SimReport)]) -> Vec<u8> {
    use std::fmt::Write as _;
    let mut sorted: Vec<&(usize, &SimReport)> = reports.iter().collect();
    sorted.sort_by_key(|(lane, _)| *lane);
    let mut body = String::new();
    let _ = writeln!(body, "lanes {lanes}");
    for (lane, r) in sorted {
        let _ = write!(
            body,
            "{lane:08x} {:x} {:x} {:x} {:x} {:x} {:x}",
            r.completed, r.lost, r.blocked_attempts, r.attempts, r.retries, r.events,
        );
        for w in [&r.utility_at_admission, &r.utility_time_avg, &r.utility_worst] {
            let (n, mean, m2) = w.state();
            let _ = write!(body, " {n:x} {:016x} {:016x}", mean.to_bits(), m2.to_bits());
        }
        let (time_at, seen_at, total_time) = r.census.state();
        let _ = write!(body, " {:x}", time_at.len());
        for t in time_at {
            let _ = write!(body, " {:016x}", t.to_bits());
        }
        let _ = write!(body, " {:x}", seen_at.len());
        for s in seen_at {
            let _ = write!(body, " {s:x}");
        }
        let _ = writeln!(body, " {:016x}", total_time.to_bits());
    }
    frame_entry(FORMAT, key, &body)
}

/// Parse and fully validate one entry; `None` on any mismatch.
fn parse_entry(text: &str, key: u64, lanes: usize) -> Option<Vec<(usize, SimReport)>> {
    let mut lines = unframe_entry(text, FORMAT, key)?.lines();
    let stored_lanes: usize = lines.next()?.strip_prefix("lanes ")?.parse().ok()?;
    if stored_lanes != lanes {
        return None;
    }
    let mut rows = Vec::new();
    for line in lines {
        let mut fields = line.split_ascii_whitespace();
        let mut next_u64 = || -> Option<u64> { u64::from_str_radix(fields.next()?, 16).ok() };
        let lane = next_u64()? as usize;
        if lane >= lanes {
            return None;
        }
        let mut report = SimReport::empty();
        report.completed = next_u64()?;
        report.lost = next_u64()?;
        report.blocked_attempts = next_u64()?;
        report.attempts = next_u64()?;
        report.retries = next_u64()?;
        report.events = next_u64()?;
        for w in [
            &mut report.utility_at_admission,
            &mut report.utility_time_avg,
            &mut report.utility_worst,
        ] {
            let n = next_u64()?;
            let mean = f64::from_bits(next_u64()?);
            let m2 = f64::from_bits(next_u64()?);
            *w = Welford::from_state(n, mean, m2);
        }
        let t_len = next_u64()? as usize;
        if t_len > (1 << 24) {
            return None;
        }
        let mut time_at = Vec::with_capacity(t_len);
        for _ in 0..t_len {
            time_at.push(f64::from_bits(next_u64()?));
        }
        let s_len = next_u64()? as usize;
        if s_len > (1 << 24) {
            return None;
        }
        let mut seen_at = Vec::with_capacity(s_len);
        for _ in 0..s_len {
            seen_at.push(next_u64()?);
        }
        let total_time = f64::from_bits(next_u64()?);
        if fields.next().is_some() {
            return None;
        }
        report.census = crate::census::Census::from_state(time_at, seen_at, total_time);
        rows.push((lane, report));
    }
    Some(rows)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arrivals::MixedPoisson;
    use crate::holding::HoldingDist;
    use crate::link::Discipline;
    use crate::runner::{SimConfig, Simulation};
    use bevra_utility::AdaptiveExp;
    use std::sync::Arc;

    fn tmp_dir(tag: &str) -> PathBuf {
        let d =
            std::env::temp_dir().join(format!("bevra-fleet-ckpt-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        d
    }

    fn sample_report(seed: u64) -> SimReport {
        Simulation::new(SimConfig {
            capacity: 25.0,
            discipline: Discipline::BestEffort,
            arrivals: MixedPoisson::fixed(20.0),
            holding: HoldingDist::Exponential { mean: 1.0 },
            utility: Arc::new(AdaptiveExp::paper()),
            warmup: 10.0,
            horizon: 100.0,
            seed,
            max_events: None,
        })
        .run()
    }

    #[test]
    fn partial_round_trip_is_bitwise() {
        let cs = FleetCheckpoint::new(tmp_dir("rt"), CacheMode::ReadWrite);
        let key = 0xFACE_u64;
        assert!(cs.load(key, 4).iter().all(Option::is_none), "cold restore is empty");
        let (r0, r2) = (sample_report(1), sample_report(2));
        cs.store(key, 4, &[(0, &r0), (2, &r2)]);
        let got = cs.load(key, 4);
        assert!(got[1].is_none() && got[3].is_none());
        assert_eq!(got[0].as_ref().expect("lane 0").digest(), r0.digest());
        assert_eq!(got[2].as_ref().expect("lane 2").digest(), r2.digest());
        assert_eq!(got[0].as_ref().expect("lane 0").events, r0.events);
        assert_eq!(cs.restored_lanes(), 2);
        assert_eq!(cs.stores(), 1);
    }

    #[test]
    fn mismatch_and_corruption_restore_nothing() {
        let cs = FleetCheckpoint::new(tmp_dir("bad"), CacheMode::ReadWrite);
        let key = 77;
        let r = sample_report(3);
        cs.store(key, 2, &[(1, &r)]);
        assert!(cs.load(key, 3).iter().all(Option::is_none), "lane-count mismatch");
        assert!(cs.load(key + 1, 2).iter().all(Option::is_none), "key mismatch");
        let path = cs.entry_path(key);
        let mut bytes = std::fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] = bytes[mid].wrapping_add(1);
        std::fs::write(&path, &bytes).unwrap();
        assert!(cs.load(key, 2).iter().all(Option::is_none), "corruption");
        std::fs::write(&path, &bytes[..mid]).unwrap();
        assert!(cs.load(key, 2).iter().all(Option::is_none), "truncation");
        assert_eq!(cs.restored_lanes(), 0);
    }

    #[test]
    fn read_only_never_writes_and_clear_removes() {
        let dir = tmp_dir("ro");
        let r = sample_report(4);
        let ro = FleetCheckpoint::new(dir.clone(), CacheMode::ReadOnly);
        ro.store(5, 1, &[(0, &r)]);
        assert!(!dir.exists(), "read-only mode must not create the dir");
        let rw = FleetCheckpoint::new(dir, CacheMode::ReadWrite);
        rw.store(5, 1, &[(0, &r)]);
        assert!(rw.load(5, 1)[0].is_some());
        rw.clear(5);
        assert!(rw.load(5, 1).iter().all(Option::is_none));
    }

    #[test]
    fn store_absorbs_injected_permanent_io_faults() {
        use bevra_faults::{install, FaultKind, FaultPlan, FaultRule};
        let cs = FleetCheckpoint::new(tmp_dir("io"), CacheMode::ReadWrite);
        let r = sample_report(5);
        let plan = FaultPlan::seeded(0)
            .rule(FaultRule::always(FaultKind::IoPermanent, "io/fleet-ckpt/store"));
        {
            let _guard = install(plan);
            cs.store(11, 1, &[(0, &r)]);
        }
        assert_eq!(cs.stores(), 0);
        assert_eq!(cs.io_errors(), 1);
        assert!(cs.load(11, 1)[0].is_none());
    }
}
