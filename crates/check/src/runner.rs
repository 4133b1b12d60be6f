//! The property runner: seeded cases, greedy shrinking, replayable
//! failures.
//!
//! [`Checker::run`] executes a property over `N` generated cases. Each
//! case has its own seed, derived from the run's master seed with
//! [`rand::derive_seed`], so a failing case replays in isolation:
//! set `BEVRA_CHECK_REPLAY=<case seed>` (decimal or `0x…` hex, both
//! printed in the failure message) and rerun the same test.
//!
//! On failure, the runner shrinks greedily: it asks the strategy for
//! candidate simplifications (simplest first), moves to the first
//! candidate that still fails, and repeats until no candidate fails or
//! the step budget runs out. The final counterexample — together with
//! both seeds — is appended to `results/check-failures.jsonl` (see
//! [`crate::persist`]) and included in the panic message.
//!
//! [`Checker::falsify`] runs a property that is *meant* to fail, such as a
//! property run against a deliberately broken implementation to show it
//! has teeth: it returns the shrunk record and writes nothing, so the
//! journal holds only real failures.
//!
//! Knobs, all environment-overridable for CI:
//!
//! | variable | effect |
//! |---|---|
//! | `BEVRA_CHECK_CASES` | cases per property (default 256) |
//! | `BEVRA_CHECK_SEED` | master seed (default: hash of the property name) |
//! | `BEVRA_CHECK_REPLAY` | run exactly one case by its derived seed |

use crate::persist::{self, FailureRecord};
use crate::strategy::Strategy;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::{Duration, Instant};

/// Environment variable overriding the number of cases per property.
pub const CASES_ENV: &str = "BEVRA_CHECK_CASES";

/// Environment variable overriding the master seed of a run.
pub const SEED_ENV: &str = "BEVRA_CHECK_SEED";

/// Environment variable selecting a single case seed to replay.
pub const REPLAY_ENV: &str = "BEVRA_CHECK_REPLAY";

/// Cases per property when neither the builder nor [`CASES_ENV`] says
/// otherwise.
pub const DEFAULT_CASES: usize = 256;

/// Upper bound accepted from [`CASES_ENV`]; larger (or unparsable) values
/// fall back to [`DEFAULT_CASES`], per the workspace's shared
/// count-override policy ([`bevra_num::env::parse_bounded_count`]).
pub const MAX_CASES: usize = 1 << 20;

/// The ambient case count: [`CASES_ENV`] if it parses to an integer in
/// `1..=`[`MAX_CASES`], else [`DEFAULT_CASES`].
#[must_use]
pub fn default_cases() -> usize {
    bevra_num::env::env_count(CASES_ENV, MAX_CASES, DEFAULT_CASES)
}

/// Property helper: `Ok(())` if `cond` holds, else an error built from
/// `msg` (lazily, so the message formatting costs nothing on success).
///
/// # Errors
///
/// Returns `Err(msg())` when `cond` is false.
pub fn ensure(cond: bool, msg: impl FnOnce() -> String) -> Result<(), String> {
    if cond {
        Ok(())
    } else {
        Err(msg())
    }
}

/// Parse a seed value in decimal or `0x…` hexadecimal.
fn parse_seed(raw: &str) -> Option<u64> {
    let t = raw.trim();
    if let Some(hex) = t.strip_prefix("0x").or_else(|| t.strip_prefix("0X")) {
        u64::from_str_radix(hex, 16).ok()
    } else {
        t.parse().ok()
    }
}

/// A configured property run: name, case count, master seed, shrink
/// budget.
#[derive(Debug, Clone)]
pub struct Checker {
    name: String,
    cases: usize,
    seed: u64,
    max_shrink_steps: usize,
}

impl Checker {
    /// A checker named `name`, with the ambient case count
    /// ([`default_cases`]) and a master seed from [`SEED_ENV`] or, by
    /// default, a hash of the name.
    #[must_use]
    pub fn new(name: &str) -> Self {
        let seed = std::env::var(SEED_ENV)
            .ok()
            .and_then(|v| parse_seed(&v))
            // FNV-1a of the name: a stable default master seed, so a
            // property's case sequence does not change when unrelated
            // properties are added or reordered.
            .unwrap_or_else(|| bevra_faults::fnv1a(name.as_bytes()));
        Self { name: name.to_string(), cases: default_cases(), seed, max_shrink_steps: 400 }
    }

    /// Override the case count exactly.
    #[must_use]
    pub fn cases(mut self, n: usize) -> Self {
        self.cases = n.max(1);
        self
    }

    /// Divide the ambient case count by `divisor` (minimum 1 case) — for
    /// expensive properties that should still scale with
    /// `BEVRA_CHECK_CASES`.
    #[must_use]
    pub fn scale_cases(mut self, divisor: usize) -> Self {
        self.cases = (self.cases / divisor.max(1)).max(1);
        self
    }

    /// Override the master seed (wins over [`SEED_ENV`]).
    #[must_use]
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Cap on property evaluations spent shrinking one failure
    /// (default 400).
    #[must_use]
    pub fn max_shrink_steps(mut self, n: usize) -> Self {
        self.max_shrink_steps = n;
        self
    }

    /// The master seed in effect.
    #[must_use]
    pub fn master_seed(&self) -> u64 {
        self.seed
    }

    /// Run the property over the configured number of cases.
    ///
    /// If [`REPLAY_ENV`] is set, exactly that case seed is executed
    /// instead (shrinking still applies on failure).
    ///
    /// # Panics
    ///
    /// Panics with the shrunk counterexample when the property is
    /// falsified.
    pub fn run<S, P>(&self, strategy: &S, property: P)
    where
        S: Strategy,
        P: Fn(&S::Value) -> Result<(), String>,
    {
        if let Some(case_seed) = std::env::var(REPLAY_ENV).ok().and_then(|v| parse_seed(&v)) {
            self.run_case(strategy, &property, case_seed, 0);
            return;
        }
        for index in 0..self.cases {
            let case_seed = rand::derive_seed(self.seed, index as u64);
            self.run_case(strategy, &property, case_seed, index);
        }
    }

    /// Run cases until `budget` elapses (at least one case), returning
    /// the number of cases executed. Used by the `check-sweep` fuzz
    /// driver; failures behave exactly as in [`Self::run`].
    ///
    /// # Panics
    ///
    /// Panics with the shrunk counterexample when the property is
    /// falsified.
    pub fn run_timeboxed<S, P>(&self, strategy: &S, property: P, budget: Duration) -> usize
    where
        S: Strategy,
        P: Fn(&S::Value) -> Result<(), String>,
    {
        let start = Instant::now();
        let mut index = 0usize;
        loop {
            let case_seed = rand::derive_seed(self.seed, index as u64);
            self.run_case(strategy, &property, case_seed, index);
            index += 1;
            if start.elapsed() >= budget {
                return index;
            }
        }
    }

    /// Run a property that is expected to fail over the configured number
    /// of cases, and return the first counterexample, shrunk as
    /// [`Self::run`] shrinks it, or `None` when every case passes. Nothing
    /// is appended to the failure journal and nothing panics: the failure
    /// is the expected outcome, not a finding. [`REPLAY_ENV`] does not
    /// apply.
    pub fn falsify<S, P>(&self, strategy: &S, property: P) -> Option<FailureRecord>
    where
        S: Strategy,
        P: Fn(&S::Value) -> Result<(), String>,
    {
        (0..self.cases).find_map(|index| {
            let case_seed = rand::derive_seed(self.seed, index as u64);
            self.check_case(strategy, &property, case_seed, index).map(|(record, _)| record)
        })
    }

    /// Execute one case from its derived seed; on failure, persist the
    /// shrunk record and panic with it.
    fn run_case<S, P>(&self, strategy: &S, property: &P, case_seed: u64, case_index: usize)
    where
        S: Strategy,
        P: Fn(&S::Value) -> Result<(), String>,
    {
        if let Some((record, evals)) = self.check_case(strategy, property, case_seed, case_index) {
            self.report_failure(&record, evals);
        }
    }

    /// Execute one case from its derived seed; on failure, return the
    /// shrunk record and the property evaluations spent shrinking it.
    fn check_case<S, P>(
        &self,
        strategy: &S,
        property: &P,
        case_seed: u64,
        case_index: usize,
    ) -> Option<(FailureRecord, usize)>
    where
        S: Strategy,
        P: Fn(&S::Value) -> Result<(), String>,
    {
        let mut rng = StdRng::seed_from_u64(case_seed);
        let value = strategy.generate(&mut rng);
        let message = property(&value).err()?;
        Some(self.shrink(strategy, property, value, message, case_seed, case_index))
    }

    /// Shrink a failing value greedily into its failure record.
    fn shrink<S, P>(
        &self,
        strategy: &S,
        property: &P,
        original: S::Value,
        message: String,
        case_seed: u64,
        case_index: usize,
    ) -> (FailureRecord, usize)
    where
        S: Strategy,
        P: Fn(&S::Value) -> Result<(), String>,
    {
        let mut current = original.clone();
        let mut current_msg = message;
        let mut evals = 0usize;
        let mut accepted = 0usize;
        'outer: loop {
            for candidate in strategy.shrink(&current) {
                if evals >= self.max_shrink_steps {
                    break 'outer;
                }
                evals += 1;
                if let Err(msg) = property(&candidate) {
                    // Greedy: the first still-failing simplification
                    // becomes the new current value.
                    current = candidate;
                    current_msg = msg;
                    accepted += 1;
                    continue 'outer;
                }
            }
            break; // No candidate fails: local minimum reached.
        }
        let record = FailureRecord {
            property: self.name.clone(),
            master_seed: self.seed,
            case_index: case_index as u64,
            case_seed,
            shrink_steps: accepted as u64,
            original: format!("{original:?}"),
            shrunk: format!("{current:?}"),
            message: current_msg,
        };
        (record, evals)
    }

    /// Persist a failure record and panic with it.
    fn report_failure(&self, record: &FailureRecord, evals: usize) -> ! {
        let persisted = persist::append_failure(record).map_or_else(
            || "record could not be persisted".to_string(),
            |p| format!("record appended to {}", p.display()),
        );
        let FailureRecord { case_index, case_seed, shrink_steps, original, shrunk, message, .. } =
            record;
        panic!(
            "property '{}' falsified (case {case_index}, case seed {case_seed} = {case_seed:#x})\n  \
             original: {original}\n  \
             shrunk ({shrink_steps} accepted step(s), {evals} eval(s)): {shrunk}\n  \
             error: {message}\n  \
             replay: {REPLAY_ENV}={case_seed} reruns exactly this case\n  \
             {persisted}",
            self.name,
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::strategy::{int_range, uniform, vec_of};

    #[test]
    fn passing_property_runs_all_cases() {
        let mut seen = 0usize;
        let counted = std::cell::Cell::new(0usize);
        Checker::new("always-true").cases(64).run(&int_range(0, 100), |_| {
            counted.set(counted.get() + 1);
            Ok(())
        });
        seen += counted.get();
        assert_eq!(seen, 64);
    }

    #[test]
    fn cases_are_deterministic_under_fixed_seed() {
        let collect = |seed: u64| {
            let got = std::cell::RefCell::new(Vec::new());
            Checker::new("det").seed(seed).cases(16).run(&uniform(0.0, 1.0), |&x| {
                got.borrow_mut().push(x);
                Ok(())
            });
            got.into_inner()
        };
        assert_eq!(collect(9).iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
                   collect(9).iter().map(|x| x.to_bits()).collect::<Vec<_>>());
        assert_ne!(collect(9), collect(10));
    }

    #[test]
    fn failure_shrinks_to_the_boundary() {
        // Property: x < 17. Minimal failing u64 is exactly 17; the greedy
        // shrinker must land on it from any failing start.
        let record = Checker::new("ge-17")
            .cases(200)
            .seed(3)
            .falsify(&int_range(0, 10_000), |&x| ensure(x < 17, || format!("{x} >= 17")))
            .expect("must falsify");
        assert_eq!(record.shrunk, "17", "not minimal: {record:?}");
        assert_eq!(record.message, "17 >= 17");
    }

    #[test]
    fn vector_counterexamples_lose_irrelevant_elements() {
        // Property: no element exceeds 900. The shrunk witness must be a
        // single offending element at the boundary value 901.
        let record = Checker::new("vec-bound")
            .cases(300)
            .seed(5)
            .max_shrink_steps(2000)
            .falsify(&vec_of(int_range(0, 1000), 1, 12), |v| {
                ensure(v.iter().all(|&x| x <= 900), || "element > 900".to_string())
            })
            .expect("must falsify");
        assert_eq!(record.shrunk, "[901]", "expected minimal witness [901]: {record:?}");
    }

    #[test]
    fn falsify_writes_no_record_and_passes_a_true_property() {
        let journal = || std::fs::metadata(crate::persist::failures_path()).map(|m| m.len()).ok();
        let before = journal();
        let record = Checker::new("ge-3")
            .cases(50)
            .seed(1)
            .falsify(&int_range(0, 100), |&x| ensure(x < 3, || format!("{x} >= 3")));
        assert_eq!(record.map(|r| r.shrunk).as_deref(), Some("3"));
        assert_eq!(journal(), before, "falsify wrote to the failure journal");
        assert!(Checker::new("true").cases(50).falsify(&int_range(0, 100), |_| Ok(())).is_none());
    }

    #[test]
    fn timeboxed_runs_at_least_one_case() {
        let n = Checker::new("timebox").seed(1).run_timeboxed(
            &int_range(0, 10),
            |_| Ok(()),
            Duration::from_millis(1),
        );
        assert!(n >= 1);
    }

    #[test]
    fn ensure_formats_lazily() {
        assert_eq!(ensure(true, || unreachable!()), Ok(()));
        assert_eq!(ensure(false, || "boom".to_string()), Err("boom".to_string()));
    }

    #[test]
    fn seed_parsing_accepts_decimal_and_hex() {
        assert_eq!(parse_seed("42"), Some(42));
        assert_eq!(parse_seed(" 0xff "), Some(255));
        assert_eq!(parse_seed("0XFF"), Some(255));
        assert_eq!(parse_seed("nope"), None);
    }
}
