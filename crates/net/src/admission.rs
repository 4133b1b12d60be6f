//! Path reservation admission control.

use crate::topology::{FlowSpec, Topology};

/// Result of admitting a batch of reservation requests.
#[derive(Debug, Clone)]
pub struct AdmissionOutcome {
    /// `admitted[i]` — whether flow `i` was admitted.
    pub admitted: Vec<bool>,
    /// Per-link residual capacity after all admissions.
    pub residual: Vec<f64>,
}

impl AdmissionOutcome {
    /// Number of admitted flows.
    #[must_use]
    pub fn admitted_count(&self) -> usize {
        self.admitted.iter().filter(|&&a| a).count()
    }

    /// Fraction of flows blocked.
    #[must_use]
    pub fn blocking_fraction(&self) -> f64 {
        if self.admitted.is_empty() {
            return 0.0;
        }
        1.0 - self.admitted_count() as f64 / self.admitted.len() as f64
    }
}

/// Admit reservation requests first-come-first-served: flow `i` is admitted
/// iff every link on its route still has `demand` residual capacity, in
/// which case the demand is subtracted along the path.
///
/// This is the multi-link generalization of the paper's `k ≤ k_max(C)`
/// threshold: on a single unit-demand link it reduces to admitting exactly
/// the first `⌊C⌋` flows.
///
/// # Panics
///
/// Panics if any route references a nonexistent link.
#[must_use]
pub fn admit_reservations(topology: &Topology, flows: &[FlowSpec]) -> AdmissionOutcome {
    assert!(topology.routes_valid(flows), "route references nonexistent link");
    let mut span = bevra_obs::span("net/admission");
    span.add_points(flows.len() as u64);
    let mut residual: Vec<f64> = (0..topology.len()).map(|l| topology.capacity(l)).collect();
    let mut admitted = Vec::with_capacity(flows.len());
    for f in flows {
        // Tiny epsilon so exact-fit requests are not rejected to rounding.
        let fits = f.route.iter().all(|&l| residual[l] + 1e-12 >= f.demand);
        if fits {
            for &l in &f.route {
                residual[l] -= f.demand;
            }
        }
        admitted.push(fits);
    }
    AdmissionOutcome { admitted, residual }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_link_threshold() {
        let t = Topology::new(vec![3.0]);
        let flows: Vec<FlowSpec> = (0..5).map(|_| FlowSpec::unit(vec![0])).collect();
        let out = admit_reservations(&t, &flows);
        assert_eq!(out.admitted, vec![true, true, true, false, false]);
        assert!((out.blocking_fraction() - 0.4).abs() < 1e-12);
        assert!(out.residual[0].abs() < 1e-9);
    }

    #[test]
    fn path_admission_requires_every_link() {
        let t = Topology::new(vec![1.0, 2.0]);
        let flows = vec![
            FlowSpec::unit(vec![0, 1]), // takes link 0's only unit
            FlowSpec::unit(vec![0, 1]), // blocked by link 0
            FlowSpec::unit(vec![1]),    // still fits on link 1
        ];
        let out = admit_reservations(&t, &flows);
        assert_eq!(out.admitted, vec![true, false, true]);
    }

    #[test]
    fn fractional_demands() {
        let t = Topology::new(vec![1.0]);
        let flows = vec![
            FlowSpec::with_demand(vec![0], 0.6),
            FlowSpec::with_demand(vec![0], 0.6),
            FlowSpec::with_demand(vec![0], 0.4),
        ];
        let out = admit_reservations(&t, &flows);
        assert_eq!(out.admitted, vec![true, false, true]);
    }

    #[test]
    fn empty_request_set() {
        let t = Topology::new(vec![1.0]);
        let out = admit_reservations(&t, &[]);
        assert_eq!(out.admitted_count(), 0);
        assert_eq!(out.blocking_fraction(), 0.0);
    }
}
