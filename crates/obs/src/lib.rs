//! Observability substrate for the bevra workspace.
//!
//! One instrumentation surface for every layer — the sweep engine, the
//! flow-level simulator, the network substrate, and the figure binaries —
//! with no external dependencies (the build environment is offline, so the
//! `tracing` crate is unavailable). Three pieces:
//!
//! * [`mod@span`] — hierarchical, thread-aware timing spans. Each thread
//!   buffers its completed spans locally (one short uncontended lock per
//!   top-level record, never a global hot lock), nesting is tracked by a
//!   per-thread stack, and completed spans double as the flat
//!   [`span::StageRecord`] list whose per-stage totals the run ledger
//!   records;
//! * [`export`] — a `chrome://tracing`-compatible trace JSON exporter
//!   (open it in [Perfetto](https://ui.perfetto.dev)) plus the JSON
//!   escaping the run ledger shares;
//! * [`recorder`] — the always-on flight recorder: bounded per-thread
//!   seqlock rings of structured events (span boundaries, fault trips,
//!   health records, ordered by a logical sequence counter) drained to a
//!   `results/<id>-blackbox.jsonl` black box by a chained panic hook or
//!   at the end of a faulted run. On unless
//!   `recorder::set_recording(false)` turns it off (the off path is one
//!   relaxed load).
//!
//! The counts a run keeps live in structured records, not in this crate:
//! the engine's `SweepHealth` and cache counters in the run ledger, the
//! simulator's `SimReport` and `FleetHealth`.
//!
//! # The `BEVRA_OBS` gate
//!
//! Collection depth is controlled by the `BEVRA_OBS` environment variable
//! (read once, overridable programmatically via [`set_level`]):
//!
//! | value               | behaviour                                                          |
//! |---------------------|--------------------------------------------------------------------|
//! | unset / `off` / `0` | coarse stage timings only (what the run ledger records)            |
//! | `trace` / `2`       | plus per-span trace events, written to `results/<id>-trace.json`   |
//!
//! Unrecognized values fall back to `off`. Span bookkeeping guards on
//! [`enabled`] — a single relaxed atomic load — so the default `off`
//! path keeps no trace events (measured by the `obs` bench).
//!
//! ```
//! use bevra_obs::{enabled, set_level, ObsLevel};
//!
//! set_level(ObsLevel::Off);
//! {
//!     let mut sp = bevra_obs::span("doc/stage");
//!     for _ in 0..10 {
//!         sp.add_points(1);
//!     }
//! } // span records itself on drop
//! assert!(!enabled(ObsLevel::Trace));
//! let stage = bevra_obs::drain_stages()
//!     .into_iter()
//!     .find(|s| s.name == "doc/stage")
//!     .expect("stage recorded");
//! assert_eq!(stage.points, 10);
//! ```

#![deny(missing_docs)]

pub mod export;
pub mod recorder;
pub mod span;

pub use span::{drain_stages, drain_trace, set_thread_label, span, Span, SpanEvent, StageRecord};

use std::sync::atomic::{AtomicU8, Ordering};

/// Environment variable selecting the observability level.
pub const OBS_ENV: &str = "BEVRA_OBS";

/// How much the process collects and exports. Levels are ordered:
/// `Off < Trace`, and `Trace` includes everything `Off` collects.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
#[repr(u8)]
pub enum ObsLevel {
    /// Coarse stage timings only (what the run ledger records); trace
    /// events are skipped. The default.
    Off = 0,
    /// Everything: per-span trace events exported as chrome-trace JSON.
    Trace = 2,
}

impl ObsLevel {
    /// Parse the [`OBS_ENV`] (`BEVRA_OBS`) environment variable; unset or
    /// unrecognized values are [`ObsLevel::Off`].
    #[must_use]
    pub fn from_env() -> Self {
        match std::env::var(OBS_ENV) {
            Ok(v) => Self::parse(&v),
            Err(_) => ObsLevel::Off,
        }
    }

    /// Parse a level string (`off|0`, `trace|2`, case-insensitive);
    /// anything else is [`ObsLevel::Off`].
    #[must_use]
    pub fn parse(raw: &str) -> Self {
        match raw.trim().to_ascii_lowercase().as_str() {
            "trace" | "2" => ObsLevel::Trace,
            _ => ObsLevel::Off,
        }
    }

    fn from_u8(v: u8) -> Self {
        match v {
            2 => ObsLevel::Trace,
            _ => ObsLevel::Off,
        }
    }
}

/// Sentinel meaning "not yet initialized from the environment".
const LEVEL_UNINIT: u8 = u8::MAX;

static LEVEL: AtomicU8 = AtomicU8::new(LEVEL_UNINIT);

/// The process's current observability level. First call reads
/// [`OBS_ENV`]; afterwards this is a single relaxed atomic load.
#[must_use]
pub fn level() -> ObsLevel {
    let v = LEVEL.load(Ordering::Relaxed);
    if v != LEVEL_UNINIT {
        return ObsLevel::from_u8(v);
    }
    let from_env = ObsLevel::from_env();
    // Racing initializers read the same environment, so either store wins
    // with the same value; a concurrent set_level wins over the env.
    let _ = LEVEL.compare_exchange(
        LEVEL_UNINIT,
        from_env as u8,
        Ordering::Relaxed,
        Ordering::Relaxed,
    );
    ObsLevel::from_u8(LEVEL.load(Ordering::Relaxed))
}

/// Override the observability level for the rest of the process (benches
/// and tests; figure binaries just set `BEVRA_OBS`).
pub fn set_level(l: ObsLevel) {
    LEVEL.store(l as u8, Ordering::Relaxed);
}

/// Whether collection at `l` (or deeper) is currently on — the hot-path
/// guard: one relaxed atomic load, no allocation.
#[inline]
#[must_use]
pub fn enabled(l: ObsLevel) -> bool {
    level() >= l
}

/// Render a caught panic payload as text: panics carry a `String` or a
/// `&str` in practice, and anything else gets a fixed placeholder. The
/// engine pool, the simulator fleet and the recorder's panic hook all
/// render payloads through this one function.
#[must_use]
pub fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "panic with non-string payload".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn levels_are_ordered() {
        assert!(ObsLevel::Off < ObsLevel::Trace);
    }

    #[test]
    fn parse_accepts_names_and_digits() {
        assert_eq!(ObsLevel::parse("off"), ObsLevel::Off);
        assert_eq!(ObsLevel::parse("0"), ObsLevel::Off);
        assert_eq!(ObsLevel::parse("TRACE"), ObsLevel::Trace);
        assert_eq!(ObsLevel::parse(" 2 "), ObsLevel::Trace);
        // The retired `summary` level reads as off, like any unknown value.
        assert_eq!(ObsLevel::parse("summary"), ObsLevel::Off);
        assert_eq!(ObsLevel::parse("1"), ObsLevel::Off);
        assert_eq!(ObsLevel::parse("verbose"), ObsLevel::Off, "unknown → off");
        assert_eq!(ObsLevel::parse(""), ObsLevel::Off);
    }

    #[test]
    fn roundtrip_u8() {
        for l in [ObsLevel::Off, ObsLevel::Trace] {
            assert_eq!(ObsLevel::from_u8(l as u8), l);
        }
    }

    #[test]
    fn panic_message_renders_strings_and_a_placeholder() {
        // The payload types `panic!` and `panic_any` hand to `catch_unwind`.
        let literal: Box<dyn std::any::Any + Send> = Box::new("static message");
        let formatted: Box<dyn std::any::Any + Send> = Box::new(format!("formatted {}", 7));
        let opaque: Box<dyn std::any::Any + Send> = Box::new(42_u32);
        assert_eq!(panic_message(literal.as_ref()), "static message");
        assert_eq!(panic_message(formatted.as_ref()), "formatted 7");
        assert_eq!(panic_message(opaque.as_ref()), "panic with non-string payload");
    }
}
