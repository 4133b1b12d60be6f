//! Numerical substrate for the `bevra` workspace.
//!
//! The analysis in Breslau & Shenker's *"Best-Effort versus Reservations"*
//! (SIGCOMM 1998) needs a modest but reliable numerical toolkit: bracketed
//! root finding (for the bandwidth gap `Δ(C)` and the equalizing price ratio
//! `γ(p)`), one-dimensional maximization (for `k_max(C)` and the welfare
//! capacity `C(p)`), numerical quadrature including semi-infinite and
//! endpoint-singular integrals (the continuum model), careful series
//! summation (the discrete model), and a few special functions (`ln Γ` for
//! Poisson probabilities, Lambert `W` for the closed-form welfare optima).
//!
//! The Rust numeric ecosystem is thin, so this crate implements everything
//! from scratch with the same design goals as the networking guides this
//! repository follows: simplicity and robustness over cleverness, exhaustive
//! documentation, and no macro or type tricks.
//!
//! All routines operate on `f64`, are deterministic, and return
//! [`error::NumError`] instead of panicking on bad input.

// `!(x > 0.0)`-style guards are used deliberately throughout: unlike
// `x <= 0.0` they also reject NaN, which is exactly the precondition the
// routines need.
#![allow(clippy::neg_cmp_op_on_partial_ord)]

pub mod env;
pub mod error;
pub mod fixed_point;
pub mod int_search;
pub mod optimize;
pub mod quad;
pub mod roots;
pub mod special;
pub mod sum;

pub use bevra_faults::Fnv1a;
pub use env::{env_count, parse_bounded_count};
pub use error::{NumError, NumResult};
pub use fixed_point::fixed_point;
pub use int_search::{argmax_unimodal_u64, first_true_u64};
pub use optimize::{bracket_maximum, golden_section_max, maximize, Maximum};
pub use quad::{gauss_legendre, integrate, integrate_to_inf, tanh_sinh};
pub use roots::{bisect, brent, expand_bracket_up, Bracket};
pub use special::{erlang_b, lambert_w0, lambert_wm1, ln_gamma};
pub use sum::{sum_series, NeumaierSum};

/// Default absolute/relative tolerance used across the workspace when a
/// caller does not specify one. Chosen so that figure-level quantities are
/// accurate far beyond plotting resolution while keeping iteration counts
/// small.
pub const DEFAULT_TOL: f64 = 1e-10;

/// Machine-epsilon-scaled comparison: `a` and `b` agree to within `tol`
/// absolutely or relatively, whichever is looser.
#[must_use]
pub fn approx_eq(a: f64, b: f64, tol: f64) -> bool {
    let diff = (a - b).abs();
    diff <= tol || diff <= tol * a.abs().max(b.abs())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn approx_eq_absolute_and_relative() {
        assert!(approx_eq(1.0, 1.0 + 1e-12, 1e-10));
        assert!(approx_eq(1e12, 1e12 + 1.0, 1e-10));
        assert!(!approx_eq(1.0, 1.1, 1e-10));
    }
}
