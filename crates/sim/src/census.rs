//! Time-weighted occupancy census — the simulator's empirical `P(k)`.

use bevra_load::Tabulated;

/// Accumulates the fraction of time the link spends at each population
/// level, plus the population distribution *seen by arrivals* (which, for
/// Poisson arrivals, PASTA guarantees matches the time distribution).
#[derive(Debug, Clone, Default)]
pub struct Census {
    /// `time_at[k]` = total time with exactly `k` flows active.
    time_at: Vec<f64>,
    /// `seen_at[k]` = number of arrivals finding `k` flows already active.
    seen_at: Vec<u64>,
    total_time: f64,
}

impl Census {
    /// New empty census.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Record that the population was `k` for duration `dt`.
    pub fn dwell(&mut self, k: u64, dt: f64) {
        if dt <= 0.0 {
            return;
        }
        let idx = k as usize;
        if idx >= self.time_at.len() {
            self.time_at.resize(idx + 1, 0.0);
        }
        self.time_at[idx] += dt;
        self.total_time += dt;
    }

    /// Record that an arrival found `k` flows active.
    pub fn arrival_saw(&mut self, k: u64) {
        let idx = k as usize;
        if idx >= self.seen_at.len() {
            self.seen_at.resize(idx + 1, 0);
        }
        self.seen_at[idx] += 1;
    }

    /// Total observed time.
    #[must_use]
    pub fn total_time(&self) -> f64 {
        self.total_time
    }

    /// Time-weighted mean population.
    #[must_use]
    pub fn mean_population(&self) -> f64 {
        if self.total_time == 0.0 {
            return 0.0;
        }
        self.time_at
            .iter()
            .enumerate()
            .map(|(k, &t)| k as f64 * t)
            .sum::<f64>()
            / self.total_time
    }

    /// Empirical time-stationary occupancy distribution, as a [`Tabulated`]
    /// ready to feed into the analytical model.
    ///
    /// # Panics
    ///
    /// Panics if no time has been observed.
    #[must_use]
    pub fn occupancy(&self) -> Tabulated {
        assert!(self.total_time > 0.0, "census has observed no time");
        Tabulated::from_weights(self.time_at.clone())
    }

    /// Empirical arrival-seen distribution (PASTA comparand).
    ///
    /// # Panics
    ///
    /// Panics if no arrivals were recorded.
    #[must_use]
    pub fn seen_by_arrivals(&self) -> Tabulated {
        assert!(!self.seen_at.is_empty(), "census has observed no arrivals");
        Tabulated::from_weights(self.seen_at.iter().map(|&c| c as f64).collect())
    }

    /// Absorb another census by element-wise addition.
    ///
    /// Like [`Welford::merge`](crate::stats::Welford::merge) the result is
    /// order-sensitive in its float sums, so deterministic aggregation
    /// must fix the merge order (the fleet merges by lane index).
    pub fn merge(&mut self, other: &Self) {
        if other.time_at.len() > self.time_at.len() {
            self.time_at.resize(other.time_at.len(), 0.0);
        }
        for (k, &t) in other.time_at.iter().enumerate() {
            self.time_at[k] += t;
        }
        if other.seen_at.len() > self.seen_at.len() {
            self.seen_at.resize(other.seen_at.len(), 0);
        }
        for (k, &c) in other.seen_at.iter().enumerate() {
            self.seen_at[k] += c;
        }
        self.total_time += other.total_time;
    }

    /// Fold the census's exact state — every dwell time's bit pattern,
    /// every arrival count, the total time — into an FNV-1a accumulator.
    /// Used by `SimReport::digest` for bitwise determinism checks.
    pub fn digest_into(&self, hash: &mut bevra_faults::Fnv1a) {
        hash.write_u64(self.time_at.len() as u64);
        for &t in &self.time_at {
            hash.write_u64(t.to_bits());
        }
        hash.write_u64(self.seen_at.len() as u64);
        for &n in &self.seen_at {
            hash.write_u64(n);
        }
        hash.write_u64(self.total_time.to_bits());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dwell_times_normalize() {
        let mut c = Census::new();
        c.dwell(0, 1.0);
        c.dwell(1, 3.0);
        c.dwell(2, 1.0);
        let occ = c.occupancy();
        assert!((occ.pmf(1) - 0.6).abs() < 1e-12);
        assert!((c.mean_population() - 1.0).abs() < 1e-12);
        assert!((c.total_time() - 5.0).abs() < 1e-12);
    }

    #[test]
    fn zero_duration_ignored() {
        let mut c = Census::new();
        c.dwell(5, 0.0);
        c.dwell(1, 2.0);
        assert_eq!(c.total_time(), 2.0);
        assert_eq!(c.occupancy().pmf(5), 0.0);
    }

    #[test]
    fn arrival_counts_tabulate() {
        let mut c = Census::new();
        for _ in 0..3 {
            c.arrival_saw(2);
        }
        c.arrival_saw(0);
        let seen = c.seen_by_arrivals();
        assert!((seen.pmf(2) - 0.75).abs() < 1e-12);
        assert!((seen.pmf(0) - 0.25).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "observed no time")]
    fn empty_census_panics() {
        let _ = Census::new().occupancy();
    }
}
