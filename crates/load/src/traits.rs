//! The [`LoadModel`] trait: an ideal (possibly infinite-support) discrete
//! distribution of the number of flows requesting service.

use crate::tabulated::PowerLawTail;

/// A discrete offered-load distribution `P(k)` over `k ∈ {support_min, …}`.
///
/// Implementations are *ideal* distributions — analytic pmf and mean, and a
/// certified truncation rule. All heavy numerical work is done on the
/// [`crate::Tabulated`] finite form built from a `LoadModel`.
pub trait LoadModel: Send + Sync {
    /// Probability of exactly `k` flows requesting service.
    fn pmf(&self, k: u64) -> f64;

    /// Mean offered load `k̄ = Σ k·P(k)`.
    fn mean(&self) -> f64;

    /// Smallest `k` with positive probability (0 for Poisson/geometric, 1
    /// for the algebraic family).
    fn support_min(&self) -> u64 {
        0
    }

    /// Smallest index `K` such that both the neglected tail mass
    /// `Σ_{k>K} P(k)` and the neglected tail mean `Σ_{k>K} k·P(k)` are at
    /// most `tol · max(1, k̄)`. Heavy-tailed families may need astronomically
    /// large `K` for small `tol`; callers cap the table length and record
    /// the achieved bound instead (see [`crate::Tabulated`]).
    fn truncation_index(&self, tol: f64) -> u64;

    /// Short stable name used in reports and figure legends.
    fn name(&self) -> &'static str;

    /// A smooth density `ρ(x)` with `ρ(k) = pmf(k)` at every integer past
    /// the support minimum, if the family has one. A [`crate::Tabulated`]
    /// with entries past index [`crate::SMOOTH_HEAD`] keeps it
    /// (renormalized) so the discrete model can integrate the table's far
    /// tail instead of summing it. The default is `None`: the table is always walked.
    fn smooth_density(&self) -> Option<PowerLawTail> {
        None
    }
}

/// Blanket impl for references so trait objects compose conveniently.
impl<L: LoadModel + ?Sized> LoadModel for &L {
    fn pmf(&self, k: u64) -> f64 {
        (**self).pmf(k)
    }
    fn mean(&self) -> f64 {
        (**self).mean()
    }
    fn support_min(&self) -> u64 {
        (**self).support_min()
    }
    fn truncation_index(&self, tol: f64) -> u64 {
        (**self).truncation_index(tol)
    }
    fn name(&self) -> &'static str {
        (**self).name()
    }
    fn smooth_density(&self) -> Option<PowerLawTail> {
        (**self).smooth_density()
    }
}
