//! Order statistics and clipping of tabulated distributions — the machinery
//! of the sampling extension (paper §5.1).

use crate::tabulated::Tabulated;

/// Distribution of the **maximum** of `s` independent draws from `base`:
/// `P[max = k] = F(k)^s − F(k−1)^s`.
///
/// The sampling extension models a flow that experiences `s` independent
/// load levels during its lifetime and whose utility is driven by the worst
/// (highest) one; `s = 1` returns a copy of `base`.
///
/// # Panics
///
/// Panics if `s == 0`.
#[must_use]
pub fn max_of_s(base: &Tabulated, s: u32) -> Tabulated {
    assert!(s >= 1, "max_of_s requires at least one sample");
    // Every cdf entry, read from the stored prefix sums.
    let base = base.materialized();
    let n = base.len() as u64;
    let mut weights = Vec::with_capacity(base.len());
    let mut prev_pow = 0.0f64;
    for k in 0..n {
        let pow = base.cdf(k).powi(s as i32);
        weights.push((pow - prev_pow).max(0.0));
        prev_pow = pow;
    }
    Tabulated::from_weights(weights)
}

/// Clip a distribution at `cap`: all mass above `cap` is moved onto `cap`.
///
/// In the reservation architecture an admitted flow never shares the link
/// with more than `k_max(C)` flows, so the load it *experiences* is the
/// offered load clipped at `k_max` — the "effective load
/// `min[k_max(C), k]`" of §5.1.
#[must_use]
pub fn clip_at(base: &Tabulated, cap: u64) -> Tabulated {
    let n = base.len() as u64;
    let cap = cap.min(n.saturating_sub(1));
    let mut weights = vec![0.0; cap as usize + 1];
    for (k, p) in base.iter() {
        let idx = k.min(cap) as usize;
        weights[idx] += p;
    }
    Tabulated::from_weights(weights)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn uniform4() -> Tabulated {
        Tabulated::from_weights(vec![0.25, 0.25, 0.25, 0.25])
    }

    #[test]
    fn s_equals_one_is_identity() {
        let base = uniform4();
        let m = max_of_s(&base, 1);
        for k in 0..4 {
            assert!((m.pmf(k) - base.pmf(k)).abs() < 1e-15);
        }
    }

    #[test]
    fn max_of_two_uniform() {
        // P[max of 2 uniform{0..3} = k] = ((k+1)² − k²)/16 = (2k+1)/16.
        let m = max_of_s(&uniform4(), 2);
        for k in 0..4u64 {
            let want = (2.0 * k as f64 + 1.0) / 16.0;
            assert!((m.pmf(k) - want).abs() < 1e-14, "k={k}");
        }
    }

    #[test]
    fn max_stochastically_dominates_base() {
        let base = uniform4();
        let m = max_of_s(&base, 5);
        for k in 0..4u64 {
            assert!(m.cdf(k) <= base.cdf(k) + 1e-15, "k={k}");
        }
        assert!(m.mean() > base.mean());
    }

    #[test]
    fn large_s_concentrates_on_maximum() {
        let m = max_of_s(&uniform4(), 200);
        assert!(m.pmf(3) > 0.999_999);
    }

    #[test]
    fn clip_moves_mass_to_cap() {
        let base = uniform4();
        let c = clip_at(&base, 1);
        assert!((c.pmf(0) - 0.25).abs() < 1e-15);
        assert!((c.pmf(1) - 0.75).abs() < 1e-15);
        assert_eq!(c.len(), 2);
        assert_eq!(c.pmf(2), 0.0);
    }

    #[test]
    fn clip_beyond_support_is_identity() {
        let base = uniform4();
        let c = clip_at(&base, 100);
        for k in 0..4 {
            assert!((c.pmf(k) - base.pmf(k)).abs() < 1e-15);
        }
    }

    #[test]
    fn clip_then_max_commutes_with_max_then_clip() {
        // Both orders give the distribution of min(cap, max of s draws).
        let base = Tabulated::from_weights(vec![0.1, 0.2, 0.3, 0.25, 0.15]);
        let cap = 2;
        let a = clip_at(&max_of_s(&base, 3), cap);
        let b = max_of_s(&clip_at(&base, cap), 3);
        for k in 0..=cap {
            assert!((a.pmf(k) - b.pmf(k)).abs() < 1e-12, "k={k}");
        }
    }
}
