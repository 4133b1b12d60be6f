//! The four workloads and the library entry points each one times. The
//! figure workloads make the same calls as the `fig4` and `ext_retrying`
//! binaries; the fleet workload runs the simulator bench's fleet
//! configuration.

use bevra_report::emit::{emit_figure, results_dir};
use bevra_report::figures::{self, Quality};
use bevra_sim::{
    Discipline, Fleet, FleetConfig, FleetReport, HoldingDist, MixedPoisson, SimConfig,
};
use bevra_utility::AdaptiveExp;
use std::sync::Arc;

/// Seed of `run` when none is given, and the seed the committed fleet
/// digest belongs to.
pub const DEFAULT_SEED: u64 = 0x100_0000;

/// Independent lanes of the fleet workload.
pub const FLEET_LANES: u32 = 8;

/// One benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// `fig4` at full quality on an empty value-table cache.
    Fig4Cold,
    /// `fig4` at full quality on a cache a cold run just filled.
    Fig4Warm,
    /// The retrying extension at fast quality.
    RetryFast,
    /// An eight-lane simulator fleet seeded from the run's seed.
    Fleet,
}

impl Workload {
    /// Every workload, in definition order.
    pub const ALL: [Workload; 4] = [
        Workload::Fig4Cold,
        Workload::Fig4Warm,
        Workload::RetryFast,
        Workload::Fleet,
    ];

    /// The name used on the command line and in `BENCHMARK.json`.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Workload::Fig4Cold => "fig4_cold",
            Workload::Fig4Warm => "fig4_warm",
            Workload::RetryFast => "retry_fast",
            Workload::Fleet => "fleet",
        }
    }

    /// The workload called `name`.
    #[must_use]
    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Id of the figure the workload emits, if it emits one.
    #[must_use]
    pub fn figure_id(self) -> Option<&'static str> {
        match self {
            Workload::Fig4Cold | Workload::Fig4Warm => Some("fig4"),
            Workload::RetryFast => Some("ext-retrying"),
            Workload::Fleet => None,
        }
    }
}

/// The fleet workload's configuration for base seed `seed`: eight lanes of
/// the simulator bench's fleet lane (k̄ = 1250 fixed-rate Poisson
/// arrivals, C = 1562.5, horizon 2010 after a warm-up of 10), about five
/// million events per lane.
#[must_use]
pub fn fleet_config(seed: u64) -> FleetConfig {
    FleetConfig {
        base: SimConfig {
            capacity: 1562.5,
            discipline: Discipline::BestEffort,
            arrivals: MixedPoisson::fixed(1250.0),
            holding: HoldingDist::Exponential { mean: 1.0 },
            utility: Arc::new(AdaptiveExp::paper()),
            warmup: 10.0,
            horizon: 2010.0,
            seed,
            max_events: None,
        },
        lanes: FLEET_LANES,
    }
}

/// Run the workload's entry call once, as its binary would, writing the
/// figure artifacts under `results/` of the working directory. Returns the
/// fleet report for the fleet workload.
///
/// # Errors
///
/// Propagates the emitter's I/O errors.
pub fn run_entry(w: Workload, fleet: Option<&Fleet>) -> std::io::Result<Option<FleetReport>> {
    match w {
        Workload::Fig4Cold | Workload::Fig4Warm => {
            let fig = figures::fig4(Quality::Full);
            emit_figure(&fig, &results_dir())?;
            Ok(None)
        }
        Workload::RetryFast => {
            let fig = figures::ext_retrying(Quality::Fast);
            emit_figure(&fig, &results_dir())?;
            Ok(None)
        }
        Workload::Fleet => Ok(Some(
            fleet.expect("the fleet workload builds its fleet").run(),
        )),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_roundtrip_and_match_the_definition() {
        let spec = crate::spec::spec();
        let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
        assert_eq!(
            names,
            spec.workloads
                .iter()
                .map(String::as_str)
                .collect::<Vec<_>>()
        );
        for w in Workload::ALL {
            assert_eq!(Workload::parse(w.name()), Some(w));
        }
        assert_eq!(Workload::parse("fig5"), None);
    }
}
