//! Distributed matrix tracking (paper §5).
//!
//! Rows of an `n × d` matrix arrive at `m` sites; the coordinator
//! continuously maintains `B` with `|‖Ax‖² − ‖Bx‖²| ≤ ε‖A‖²_F` for every
//! unit `x` — equivalently `‖AᵀA − BᵀB‖₂ ≤ ε‖A‖²_F`, so the covariance
//! (the input to PCA/LSI) is preserved. Each row implicitly carries
//! weight `‖a‖²`, which is what connects these protocols to the
//! weighted heavy-hitter protocols of [`crate::hh`]:
//!
//! * [`p1`] — sites run Frequent Directions, flush on a weight threshold
//!   (the matrix analogue of HH-P1). Deterministic,
//!   `O((m/ε²) log(βN))` rows.
//! * [`p2`] — sites send `σℓ·vℓ` whenever some direction's squared norm
//!   reaches `(ε/m)F̂`: the same deployment as HH-P2
//!   ([`crate::threshold`]) over rows. Deterministic,
//!   `O((m/ε) log(βN))` rows — the paper's best deterministic protocol.
//! * [`p3`] / [`p3wr`] — row priority sampling by squared norm: the
//!   same deployments as HH-P3/P3wr ([`crate::sampling`]) over rows,
//!   each module adding only the sketch estimator and the type names.
//! * [`p4`] — Appendix C: the attempted analogue of HH-P4, which
//!   **cannot work**: per-site updates are only exact along the fixed
//!   right-singular basis of the site's approximation, so error in other
//!   directions is unbounded. The same deployment as HH-P4
//!   ([`crate::report`]) over rows; implemented to reproduce the paper's
//!   Figures 6–7.

pub mod p1;
pub mod p2;
pub mod p3;
pub mod p3wr;
pub mod p4;

pub use crate::config::MatrixConfig;
use cma_linalg::Matrix;

/// A matrix row as delivered by the stream.
pub type Row = Vec<f64>;

/// Continuous queries a matrix-tracking coordinator answers locally.
pub trait MatrixEstimator {
    /// The current approximation `B` (rows stacked; `B` has `d` columns).
    fn sketch(&self) -> Matrix;

    /// The coordinator's running estimate of `‖A‖²_F` (each protocol
    /// maintains one as part of its threshold machinery).
    fn frob_estimate(&self) -> f64;

    /// `‖Bx‖²` for an arbitrary direction `x` — the quantity the paper's
    /// guarantee bounds against `‖Ax‖²`.
    fn direction_norm_sq(&self, x: &[f64]) -> f64 {
        self.sketch().apply_norm_sq(x)
    }
}

/// Validates a row and returns its squared norm (the row's implicit
/// weight).
///
/// # Panics
/// Panics on non-finite entries — protocol state would be silently
/// poisoned otherwise.
pub(crate) fn row_weight(row: &[f64]) -> f64 {
    let mut w = 0.0;
    for &v in row {
        assert!(v.is_finite(), "matrix protocols require finite row entries");
        w += v * v;
    }
    w
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn row_weight_is_squared_norm() {
        assert_eq!(row_weight(&[3.0, 4.0]), 25.0);
        assert_eq!(row_weight(&[]), 0.0);
    }

    #[test]
    #[should_panic(expected = "finite row entries")]
    fn row_weight_rejects_nan() {
        row_weight(&[1.0, f64::NAN]);
    }
}
