//! Cholesky positive-definiteness certificate: one sign instead of a
//! spectrum.
//!
//! Deciding whether `λ_max(M) < c` for a symmetric `M` does not need the
//! eigenvalues of `M` — it is the statement "`c·I − M` is positive
//! definite", and a matrix is positive definite exactly when its Cholesky
//! factorisation runs to completion on positive pivots. One factorisation
//! is `n³/3` flops with no iteration and no eigenvectors (≈ 0.25 Mflop at
//! `n = 90`, against a full eigensolve of about a millisecond), so a
//! caller that only has to *prove a bound* — protocol MT-P2 proving that
//! nothing it withholds has reached the send threshold — can skip the
//! decomposition whenever the certificate passes.
//!
//! # Floating point
//!
//! The factorisation that actually runs is of `c'·I − M` with
//! `c' = c·(1 − μ)`, `μ =` [`CERT_MARGIN`]. If it completes with every
//! computed pivot positive, the computed factor `R̂` satisfies
//! `R̂ᵀR̂ = c'·I − M + ΔA` with `|ΔA| ≤ γₙ₊₁·|R̂ᵀ||R̂|` (Higham, *Accuracy
//! and Stability of Numerical Algorithms*, Thm 10.3; `γₖ = k·u/(1 − k·u)`,
//! `u = 2⁻⁵³`). `R̂ᵀR̂` is positive semidefinite by construction and every
//! row of `|R̂ᵀ||R̂|` is bounded by the diagonal of `c'·I − M`, i.e. by
//! `c'`, so `‖ΔA‖₂ ≤ n·γₙ₊₁·c'` and
//!
//! ```text
//! λ_max(M) ≤ c'·(1 + n(n+1)·u·(1 + o(1))) < c     whenever  μ > n(n+1)·u.
//! ```
//!
//! `μ = 10⁻⁹` exceeds `4·n(n+1)·u` up to `n ≈ 1 500`; beyond that the
//! factored margin is raised to that value, so the implication holds at
//! every size. **A pass is therefore a proof of the strict inequality
//! `λ_max(M) < c`**, rounding included — callers apply no margin of their
//! own. The price is completeness in a
//! sliver: the certificate may refuse when `λ_max(M) ≥ c·(1 − 2μ)`.
//! Refusing is always safe (the caller falls back to the eigensolve);
//! the property tests pin both directions — never a pass at
//! `c ≤ λ_max`, always a pass at `c ≥ λ_max·(1 + 10⁻⁶)`.

use crate::matrix::Matrix;
use crate::vector::dot_lanes;

/// Relative safety margin `μ` of the certificate: the shift that is
/// factored is `c·(1 − μ)`, which absorbs the backward error of the
/// factorisation (module docs). Raising it only makes the certificate
/// refuse more often; it must stay above `n(n+1)·2⁻⁵³`, which the
/// certificate enforces for large `n` by itself.
pub const CERT_MARGIN: f64 = 1e-9;

/// Bisection steps of [`lambda_max_upper_bound`]: the returned bound is
/// within `(hi − lo)/2⁵` of `λ_max` (plus the certificate's sliver) for
/// six factorisations in total. A constant, not an option: MT-P2 re-checks
/// after `threshold − bound` more mass has arrived, so each extra halving
/// costs one `n³/3` factorisation per check and buys back half of an
/// already-small delay — at 5 the resolution is ≈ 3 % of the send
/// threshold, a tenth of the default batch slack, and further halvings
/// cost more factorisations than the checks they postpone.
pub const BOUND_HALVINGS: usize = 5;

/// `true` only if `λ_max(M) < c` for the symmetric matrix `m` — a proof,
/// not an estimate (module docs): the Cholesky factorisation of
/// `c·(1 − μ)·I − M` completed on positive pivots.
///
/// `false` means "not proven": `λ_max(M) ≥ c·(1 − 2μ)`, or a non-finite
/// entry or bound was met. Only the lower triangle of `m` is read. The
/// empty matrix passes at every `c` (there is no eigenvalue to bound).
///
/// # Panics
/// Panics if `m` is not square.
pub fn certifies_lambda_max_below(m: &Matrix, c: f64) -> bool {
    let mut work = vec![0.0; m.rows() * m.rows()];
    factors_shifted(m, c, &mut work)
}

/// Tightens an **already certified** bound `hi > λ_max(M)` by
/// [`BOUND_HALVINGS`] bisection steps against the largest diagonal entry
/// of `m` (a true lower bound on `λ_max` of a symmetric matrix), each one
/// certificate on a shared work buffer. Returns the smallest certified
/// bound found — always in `[λ_max(M), hi]`, and at most
/// `(hi − max_diag)/2⁵` above `λ_max(M)·(1 + 2μ)`.
///
/// Soundness does not depend on the lower end: the bound only ever moves
/// to a value the certificate passed at. Passing an uncertified `hi`
/// voids the guarantee (it may be returned unchanged).
///
/// # Panics
/// Panics if `m` is not square.
pub fn lambda_max_upper_bound(m: &Matrix, hi: f64) -> f64 {
    let n = m.rows();
    let mut lo = (0..n).map(|i| m[(i, i)]).fold(f64::NEG_INFINITY, f64::max);
    let mut hi = hi;
    if n == 0 || lo >= hi {
        return hi;
    }
    let mut work = vec![0.0; n * n];
    for _ in 0..BOUND_HALVINGS {
        let mid = 0.5 * (lo + hi);
        if factors_shifted(m, mid, &mut work) {
            hi = mid;
        } else {
            lo = mid;
        }
    }
    hi
}

/// The certificate proper: row-by-row (Cholesky–Banachiewicz)
/// factorisation `L·Lᵀ` of `c'·I − M` into `work` (`n × n`, row-major,
/// lower triangle; the diagonal slot holds `1/lᵢᵢ`, which is all later
/// rows need). Every inner product runs over two contiguous row prefixes.
/// Returns at the first pivot that is not strictly positive — NaN
/// included, so non-finite input refuses instead of certifying.
fn factors_shifted(m: &Matrix, c: f64, work: &mut [f64]) -> bool {
    let n = m.rows();
    assert_eq!(n, m.cols(), "cholesky certificate: matrix must be square");
    let margin = CERT_MARGIN.max(2.0 * (n * (n + 1)) as f64 * f64::EPSILON);
    let shift = c - margin * c.abs();
    // Pivot i is at most the diagonal entry it starts from, so a
    // non-positive diagonal anywhere settles the answer in O(n).
    if (0..n).any(|i| not_positive(shift - m[(i, i)])) {
        return false;
    }
    for i in 0..n {
        let (done, rest) = work.split_at_mut(i * n);
        let li = &mut rest[..n];
        let mi = m.row(i);
        for j in 0..i {
            let lj = &done[j * n..j * n + j + 1];
            li[j] = (-mi[j] - dot_lanes(&li[..j], &lj[..j])) * lj[j];
        }
        let pivot = (shift - mi[i]) - dot_lanes(&li[..i], &li[..i]);
        if not_positive(pivot) {
            return false;
        }
        li[i] = 1.0 / pivot.sqrt();
    }
    true
}

/// `x ≤ 0` or NaN: a pivot that does not certify.
#[inline]
fn not_positive(x: f64) -> bool {
    x.partial_cmp(&0.0) != Some(std::cmp::Ordering::Greater)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eigen::jacobi_eigen_sym;
    use crate::random;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn brackets_lambda_max_of_a_gram() {
        let mut rng = StdRng::seed_from_u64(3);
        let g = random::gaussian(&mut rng, 40, 17).gram();
        let top = jacobi_eigen_sym(&g).unwrap().values[0];
        assert!(certifies_lambda_max_below(&g, top * 1.001));
        assert!(!certifies_lambda_max_below(&g, top));
        assert!(!certifies_lambda_max_below(&g, top * 0.999));
        let bound = lambda_max_upper_bound(&g, 2.0 * top);
        assert!(bound >= top && bound <= 2.0 * top);
        // Five halvings between the largest diagonal entry and `hi`.
        let max_diag = (0..17).map(|i| g[(i, i)]).fold(0.0, f64::max);
        assert!(bound - top <= (2.0 * top - max_diag) / 32.0 + 1e-6 * top);
    }

    #[test]
    fn degenerate_inputs_refuse_or_pass_soundly() {
        let zero = Matrix::zeros(3, 3);
        assert!(certifies_lambda_max_below(&zero, 1e-300));
        assert!(!certifies_lambda_max_below(&zero, 0.0));
        assert!(!certifies_lambda_max_below(&zero, f64::NAN));
        assert!(certifies_lambda_max_below(&Matrix::zeros(0, 0), -1.0));
        assert_eq!(lambda_max_upper_bound(&Matrix::zeros(0, 0), 4.0), 4.0);
        let one = Matrix::from_vec(1, 1, vec![2.0]);
        assert!(!certifies_lambda_max_below(&one, 2.0));
        assert!(certifies_lambda_max_below(&one, 2.0 + 1e-8));
        let bound = lambda_max_upper_bound(&one, 34.0);
        assert!((2.0..=3.0).contains(&bound));
        let mut nan = Matrix::identity(2);
        nan[(1, 0)] = f64::NAN;
        assert!(!certifies_lambda_max_below(&nan, 10.0));
        // A negative-definite matrix and a negative bound: the margin
        // moves the shift *down* whatever the sign of `c`.
        let neg = Matrix::identity(2).scaled(-2.0);
        assert!(certifies_lambda_max_below(&neg, -1.0));
        assert!(!certifies_lambda_max_below(&neg, -2.0));
    }
}
