//! Deterministic exponential backoff with seeded jitter.

use bevra_faults::io::Clock;

/// An exponential-backoff retry policy whose schedule is a pure function
/// of the policy itself.
///
/// The wait after failed attempt `a` (0-based) is
/// `min(base·2^a + jitter_a, max)` where `jitter_a` is drawn from
/// `derive_seed(seed, a)` in `[0, base·2^a / 2]`. Because the jitter never
/// exceeds half the raw step, the schedule is **monotone nondecreasing**,
/// and because it comes from the workspace's seed-derivation function it
/// is **deterministic per seed** — two runs of the same policy wait the
/// same milliseconds, which keeps chaos replays and checkpoint resumes
/// bit-stable.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Maximum attempts, including the first (≥ 1).
    pub max_attempts: u32,
    /// Backoff before the second attempt, in milliseconds. Zero means
    /// immediate retry (the compute default: a panicked grid point is
    /// retried at once, never slept on).
    pub base_backoff_ms: u64,
    /// Per-step backoff ceiling, in milliseconds.
    pub max_backoff_ms: u64,
    /// Cumulative backoff budget, in milliseconds; the schedule truncates
    /// rather than exceed it. Zero means unbudgeted.
    pub total_budget_ms: u64,
    /// Jitter stream seed ([`rand::derive_seed`] master).
    pub seed: u64,
}

impl Default for RetryPolicy {
    /// The I/O default, matching the bounded retry `bevra-faults` has
    /// always applied to artifact writes: 4 attempts, 1 ms base, 50 ms
    /// cap, 200 ms total.
    fn default() -> Self {
        Self { max_attempts: 4, base_backoff_ms: 1, max_backoff_ms: 50, total_budget_ms: 200, seed: 0 }
    }
}

impl RetryPolicy {
    /// The compute-path policy: one immediate retry, no backoff — exactly
    /// the engine pool's historical "one serial retry" behavior, now
    /// spelled as a policy.
    #[must_use]
    pub fn compute() -> Self {
        Self { max_attempts: 2, base_backoff_ms: 0, max_backoff_ms: 0, total_budget_ms: 0, seed: 0 }
    }

    /// The I/O policy ([`Default`]).
    #[must_use]
    pub fn io() -> Self {
        Self::default()
    }

    /// Replace the jitter seed (builder style).
    #[must_use]
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// The backoff after failed attempt `attempt` (0-based), jitter
    /// included, in milliseconds.
    #[must_use]
    pub fn backoff_ms(&self, attempt: u32) -> u64 {
        let raw = self
            .base_backoff_ms
            .saturating_mul(1u64 << attempt.min(20))
            .min(self.max_backoff_ms);
        let jitter = if raw == 0 { 0 } else { rand::derive_seed(self.seed, u64::from(attempt)) % (raw / 2 + 1) };
        raw.saturating_add(jitter).min(self.max_backoff_ms)
    }

    /// The full wait schedule: one entry per allowed retry, truncated so
    /// the cumulative sum never exceeds [`total_budget_ms`] (when
    /// nonzero). `schedule().len() + 1` is therefore the number of
    /// attempts the policy actually permits.
    ///
    /// [`total_budget_ms`]: Self::total_budget_ms
    #[must_use]
    pub fn schedule(&self) -> Vec<u64> {
        let mut waits = Vec::new();
        let mut total = 0u64;
        for attempt in 0..self.max_attempts.max(1) - 1 {
            let wait = self.backoff_ms(attempt);
            if self.total_budget_ms > 0 && total.saturating_add(wait) > self.total_budget_ms {
                break;
            }
            total = total.saturating_add(wait);
            waits.push(wait);
        }
        waits
    }

    /// Attempts the policy actually permits after budget truncation.
    #[must_use]
    pub fn attempts(&self) -> u32 {
        self.schedule().len() as u32 + 1
    }

    /// Run `op` under this policy: call it with the attempt index, retry
    /// on `Err` after the scheduled backoff on `clock`, stop at the first
    /// `Ok` or when attempts are exhausted.
    pub fn run<T, E>(
        &self,
        clock: &mut dyn Clock,
        mut op: impl FnMut(u32) -> Result<T, E>,
    ) -> (Result<T, E>, RetryOutcome) {
        let schedule = self.schedule();
        let mut attempt = 0u32;
        loop {
            match op(attempt) {
                Ok(v) => {
                    return (
                        Ok(v),
                        RetryOutcome { attempts: attempt + 1, retries: attempt, backoff_ms: clock.total_ms() },
                    )
                }
                Err(e) => {
                    if let Some(&wait) = schedule.get(attempt as usize) {
                        clock.sleep_ms(wait);
                        attempt += 1;
                    } else {
                        return (
                            Err(e),
                            RetryOutcome { attempts: attempt + 1, retries: attempt, backoff_ms: clock.total_ms() },
                        );
                    }
                }
            }
        }
    }
}

/// What one policy-driven [`RetryPolicy::run`] did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryOutcome {
    /// Attempts performed (1 = first try succeeded).
    pub attempts: u32,
    /// Retries performed (`attempts - 1`).
    pub retries: u32,
    /// Total backoff accounted by the clock, in milliseconds.
    pub backoff_ms: u64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use bevra_faults::io::VirtualClock;

    #[test]
    fn schedule_is_deterministic_per_seed() {
        let p = RetryPolicy { max_attempts: 8, base_backoff_ms: 2, max_backoff_ms: 100, total_budget_ms: 0, seed: 7 };
        assert_eq!(p.schedule(), p.schedule());
        let q = p.with_seed(8);
        assert_ne!(p.schedule(), q.schedule(), "different seeds jitter differently");
    }

    #[test]
    fn schedule_is_monotone_and_capped() {
        for seed in 0..32 {
            let p = RetryPolicy { max_attempts: 12, base_backoff_ms: 3, max_backoff_ms: 500, total_budget_ms: 0, seed };
            let s = p.schedule();
            for w in s.windows(2) {
                assert!(w[0] <= w[1], "seed {seed}: schedule {s:?} not monotone");
            }
            assert!(s.iter().all(|&w| w <= 500), "seed {seed}: step above cap in {s:?}");
        }
    }

    #[test]
    fn schedule_respects_total_budget() {
        let p = RetryPolicy { max_attempts: 20, base_backoff_ms: 10, max_backoff_ms: 1000, total_budget_ms: 100, seed: 3 };
        let s = p.schedule();
        assert!(s.iter().sum::<u64>() <= 100, "budget exceeded: {s:?}");
        assert!(!s.is_empty(), "budget 100 admits at least the first wait");
    }

    #[test]
    fn compute_policy_reproduces_one_immediate_retry() {
        let p = RetryPolicy::compute();
        assert_eq!(p.attempts(), 2);
        assert_eq!(p.schedule(), vec![0]);
    }

    #[test]
    fn run_retries_until_success_and_accounts_backoff() {
        let p = RetryPolicy { max_attempts: 5, base_backoff_ms: 1, max_backoff_ms: 10, total_budget_ms: 0, seed: 1 };
        let mut clock = VirtualClock::default();
        let mut calls = 0u32;
        let (result, outcome) = p.run(&mut clock, |attempt| {
            calls += 1;
            if attempt < 2 { Err("flaky") } else { Ok(attempt) }
        });
        assert_eq!(result, Ok(2));
        assert_eq!(calls, 3);
        assert_eq!(outcome.attempts, 3);
        assert_eq!(outcome.retries, 2);
        assert_eq!(outcome.backoff_ms, p.backoff_ms(0) + p.backoff_ms(1));
    }

    #[test]
    fn run_gives_up_after_exhausting_attempts() {
        let p = RetryPolicy { max_attempts: 3, base_backoff_ms: 0, max_backoff_ms: 0, total_budget_ms: 0, seed: 0 };
        let mut clock = VirtualClock::default();
        let (result, outcome): (Result<(), _>, _) = p.run(&mut clock, |_| Err("always"));
        assert_eq!(result, Err("always"));
        assert_eq!(outcome.attempts, 3);
    }
}
