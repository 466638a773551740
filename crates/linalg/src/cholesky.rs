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
//!
//! # Factoring only inside a bracket
//!
//! A caller that wants the tightest bound the certificate can prove asks
//! it at `c`, then at [`BOUND_HALVINGS`] bisection midpoints below `c` —
//! six factorisations when all of them run. Most of those answers are
//! known in advance. The two directions above decide every midpoint
//! outside a bracket `[L, U·(1 + 10⁻⁶))`:
//!
//! * `L` is the Rayleigh quotient `λ̂` of a vector, which is `≤ λ_max`
//!   for any vector, minus the rounding of its evaluation. A midpoint
//!   `c ≤ L` is `≤ λ_max`, so the certificate would refuse it (soundness).
//! * `U` is a passed factorisation at `λ̂·(1 + δ)`, so `λ_max < U`. A
//!   midpoint `c ≥ U·(1 + 10⁻⁶)` is above `λ_max·(1 + 10⁻⁶)`, so the
//!   certificate would pass it (completeness).
//!
//! [`bracketed_upper_bound`] replays the midpoints of the certificate and
//! [`lambda_max_upper_bound`] exactly, but factors only those inside the
//! bracket. The vector is the Ritz vector of a few Lanczos steps started
//! from the top eigenvector of a slightly older matrix; its quotient
//! lands within a fraction of a percent of `λ_max`, while the bisection's
//! last step is about 3 % wide, so most calls factor once, for `U`.
//! Skipping cannot change the answer: it is bit for bit the pair's on
//! every positive semidefinite matrix (the completeness direction is
//! proven there), and a proof on any matrix, since a midpoint is only
//! ever taken as the bound above a passed factorisation.

use crate::matrix::Matrix;
use crate::ql::ql_eigen_sym;
use crate::vector::dot_lanes;

/// Relative safety margin `μ` of the certificate: the shift that is
/// factored is `c·(1 − μ)`, which absorbs the backward error of the
/// factorisation (module docs). Raising it only makes the certificate
/// refuse more often; it must stay above `n(n+1)·2⁻⁵³`, which the
/// certificate enforces for large `n` by itself.
pub const CERT_MARGIN: f64 = 1e-9;

/// Bisection steps of [`lambda_max_upper_bound`] and
/// [`bracketed_upper_bound`]: the returned bound is within `(hi − lo)/2⁵`
/// of `λ_max` (plus the certificate's sliver). A constant, not an option:
/// MT-P2 re-checks after `threshold − bound` more mass has arrived, so
/// each halving buys back half of an already-small delay. At 5 the
/// resolution is ≈ 3 % of the send threshold, a tenth of the default
/// batch slack. A halving factors only when its midpoint falls inside
/// the bracket (module docs), so its cost is the bracket's width over the
/// step's, not one factorisation.
pub const BOUND_HALVINGS: usize = 5;

/// Lanczos steps behind [`bracketed_upper_bound`]'s Rayleigh quotient. A
/// constant, not an option. Each step is one `n²` symmetric product,
/// about `6/n` of a factorisation. Between two MT-P2 checks new rows of
/// at least a quarter of the threshold's mass arrive (the default slack),
/// so the top eigenvector of the last check is only a rough start. On
/// the MSD-like benchmark stream's flat spectrum plain power steps
/// converge slowly from it: after 16 of them one call in twelve still
/// wasted the factorisation of `U`. Five Lanczos steps search the same
/// Krylov space for its best vector and waste it about once in thirty
/// calls; more steps cost more than they save.
const KRYLOV_STEPS: usize = 5;

/// Relative headroom `δ` of the bracket's upper end: `U` is factored at
/// `λ̂·(1 + δ)`. A constant, not an option. Too small and `λ̂` falls short
/// of `λ_max` by more than `δ` more often, so the factorisation of `U`
/// refuses and is wasted. Too large and the bracket holds more bisection
/// midpoints, each one factorisation. At `3·10⁻³` the bracket is a tenth
/// of the last bisection step.
const BRACKET_DELTA: f64 = 3e-3;

/// The certificate passes at every `c ≥ λ_max·(1 + COMPLETENESS)` of a
/// positive semidefinite matrix: the completeness direction of the
/// module docs, pinned by the property tests.
const COMPLETENESS: f64 = 1e-6;

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
    let mut work = vec![0.0; m.rows() * m.rows()];
    bisect(m, hi, |c| factors_shifted(m, c, &mut work))
}

/// `certifies_lambda_max_below(m, c).then(|| lambda_max_upper_bound(m, c))`,
/// bit for bit on every positive semidefinite `m` (module docs), with
/// most factorisations skipped: the same midpoints are decided, but only
/// those inside a bracket around `λ_max` are factored.
///
/// `warm` is the start vector of the bracket's Lanczos steps (one entry
/// per row of `m`) and is left holding the Ritz vector times `m`, ready
/// to start the next call on a slightly changed matrix. A zero, NaN or
/// infinite entry anywhere in it, or a non-finite quotient, gives no
/// bracket: then every midpoint is factored, as the pair would.
///
/// On a matrix that is not positive semidefinite the result is still a
/// proof (`None`, or a bound above `λ_max`), though it may be looser than
/// the pair's. Only the lower triangle of `m` is read.
///
/// # Panics
/// Panics if `m` is not square or `warm.len() != m.rows()`.
pub fn bracketed_upper_bound(m: &Matrix, c: f64, warm: &mut [f64]) -> Option<f64> {
    let n = m.rows();
    assert_eq!(n, m.cols(), "cholesky certificate: matrix must be square");
    assert_eq!(warm.len(), n, "bracketed bound: one warm entry per row");
    if n == 0 {
        return Some(c);
    }
    let steps = KRYLOV_STEPS.min(n);
    let mut buf = vec![0.0; n * n + steps * n + n];
    let (work, rest) = buf.split_at_mut(n * n);
    let (basis, y) = rest.split_at_mut(steps * n);
    let mut bracket = Bracket::new(rayleigh_quotient(m, warm, basis, y));
    let mut passes = |mid| bracket.passes(m, mid, work);
    passes(c).then(|| bisect(m, c, passes))
}

/// [`BOUND_HALVINGS`] bisection steps from `hi` towards the largest
/// diagonal entry of `m`, each midpoint decided by `passes`.
fn bisect(m: &Matrix, hi: f64, mut passes: impl FnMut(f64) -> bool) -> f64 {
    let n = m.rows();
    let mut lo = (0..n).map(|i| m[(i, i)]).fold(f64::NEG_INFINITY, f64::max);
    let mut hi = hi;
    if n == 0 || lo >= hi {
        return hi;
    }
    for _ in 0..BOUND_HALVINGS {
        let mid = 0.5 * (lo + hi);
        if passes(mid) {
            hi = mid;
        } else {
            lo = mid;
        }
    }
    hi
}

/// The bracket `[L, U·(1 + 10⁻⁶))` of the module docs. `U` is factored
/// lazily, the first time a midpoint above it needs an answer.
struct Bracket {
    /// `L`: every `c ≤ lower` refuses (`−∞`: no bracket).
    lower: f64,
    /// `λ̂·(1 + δ)`, not yet factored.
    trial: Option<f64>,
    /// `U·(1 + 10⁻⁶)` once `U` has passed: every finite `c ≥ ceiling`
    /// passes.
    ceiling: f64,
}

impl Bracket {
    /// From a quotient `λ̂` and the lower end `L` below it.
    fn new(quotient: Option<(f64, f64)>) -> Self {
        let (lower, trial) = match quotient {
            Some((est, lower)) => (lower, (est > 0.0).then_some(est * (1.0 + BRACKET_DELTA))),
            None => (f64::NEG_INFINITY, None),
        };
        Bracket {
            lower,
            trial,
            ceiling: f64::INFINITY,
        }
    }

    /// What [`certifies_lambda_max_below`] answers at `c`.
    fn passes(&mut self, m: &Matrix, c: f64, work: &mut [f64]) -> bool {
        if c <= self.lower {
            return false;
        }
        // An infinite `c` makes the factored shift NaN, so it refuses.
        if c.is_finite() {
            if let Some(u) = self.trial.filter(|u| c >= u * (1.0 + COMPLETENESS)) {
                self.trial = None;
                if factors_shifted(m, u, work) {
                    self.ceiling = u * (1.0 + COMPLETENESS);
                }
            }
            if c >= self.ceiling {
                return true;
            }
        }
        factors_shifted(m, c, work)
    }
}

/// The Rayleigh quotient `λ̂` of the Ritz vector of `m` over the Krylov
/// space of `x` (`ritz_vector`), and `L`: `λ̂` less a bound on its
/// rounding error, so `L ≤ λ_max`. `None` if `x` is zero or not finite,
/// or the quotient is not finite. `x` is left holding `m` times the Ritz
/// vector, scaled to `max |xᵢ| = 1`; `basis` (`KRYLOV_STEPS.min(n)` rows)
/// and `y` are scratch.
///
/// The quotient `xᵀMx / xᵀx` of the exact Ritz vector is `≤ λ_max`,
/// whatever the Lanczos steps' own rounding made of it. Computed, its
/// numerator is off by at most `γ₂ₙ₊₁·|x|ᵀ|M||x|` and its denominator by
/// `γₙ₊₁` relative (`γₖ ≈ k·u`, `u = 2⁻⁵³`), so
/// `8(n + 2)·u·|x|ᵀ|M||x| / xᵀx` covers both with room to spare.
/// Underflow is ignored, as in the certificate.
fn rayleigh_quotient(
    m: &Matrix,
    x: &mut [f64],
    basis: &mut [f64],
    y: &mut [f64],
) -> Option<(f64, f64)> {
    let n = x.len();
    rescale(x)?;
    ritz_vector(m, x, basis, y)?;
    sym_matvec(m, x, y);
    let den = dot_lanes(x, x);
    let est = dot_lanes(x, y) / den;
    let margin = 8.0 * (n + 2) as f64 * (0.5 * f64::EPSILON) * abs_form(m, x) / den;
    if rescale(y).is_some() {
        x.copy_from_slice(y);
    }
    let lower = est - margin;
    (est.is_finite() && lower.is_finite()).then_some((est, lower))
}

/// Replaces `x` by the top Ritz vector of `m` over the Krylov space
/// `span{x, Mx, M²x, …}` of `basis.len() / n` dimensions: Lanczos steps
/// with full re-orthogonalisation build an orthonormal basis and the
/// tridiagonal projection `T` of `m` onto it, and the top eigenvector of
/// `T` weights the basis. `x` is left scaled to `max |xᵢ| = 1`. Stops
/// early on an invariant subspace; `None` if an iterate is not finite.
fn ritz_vector(m: &Matrix, x: &mut [f64], basis: &mut [f64], y: &mut [f64]) -> Option<()> {
    let n = x.len();
    let steps = basis.len() / n;
    let norm = dot_lanes(x, x).sqrt();
    basis[..n]
        .iter_mut()
        .zip(&*x)
        .for_each(|(q, v)| *q = v / norm);
    // The diagonal and off-diagonal of `T`.
    let mut alpha = [0.0; KRYLOV_STEPS];
    let mut beta = [0.0; KRYLOV_STEPS];
    let mut dim = steps;
    for j in 0..steps {
        let (done, next) = basis.split_at_mut((j + 1) * n);
        sym_matvec(m, &done[j * n..], y);
        alpha[j] = dot_lanes(&done[j * n..], y);
        for q in done.chunks_exact(n) {
            let h = dot_lanes(q, y);
            y.iter_mut().zip(q).for_each(|(v, qi)| *v -= h * qi);
        }
        beta[j] = dot_lanes(y, y).sqrt();
        if !beta[j].is_finite() {
            return None;
        }
        if j + 1 == steps || beta[j] <= f64::EPSILON * alpha[j].abs() {
            dim = j + 1;
            break;
        }
        next[..n]
            .iter_mut()
            .zip(&*y)
            .for_each(|(q, v)| *q = v / beta[j]);
    }
    let mut t = Matrix::zeros(dim, dim);
    for j in 0..dim {
        t[(j, j)] = alpha[j];
        if j + 1 < dim {
            t[(j, j + 1)] = beta[j];
            t[(j + 1, j)] = beta[j];
        }
    }
    let top = ql_eigen_sym(&t).ok()?;
    x.fill(0.0);
    for (&w, q) in top.vectors.row(0).iter().zip(basis.chunks_exact(n)) {
        x.iter_mut().zip(q).for_each(|(v, qi)| *v += w * qi);
    }
    rescale(x)
}

/// Scales `x` to `max |xᵢ| = 1`; `None`, leaving it as it is, if an entry
/// is not finite or every entry is zero.
fn rescale(x: &mut [f64]) -> Option<()> {
    let mut max = 0.0_f64;
    for v in x.iter() {
        if !v.is_finite() {
            return None;
        }
        max = max.max(v.abs());
    }
    (max > 0.0).then(|| x.iter_mut().for_each(|v| *v /= max))
}

/// `y = M·x` for the symmetric matrix whose lower triangle is `m`'s,
/// reading each row prefix once: its dot with `x` is `yᵢ`'s lower part
/// and its multiple of `xᵢ` the upper part of the `yⱼ`, `j < i`.
fn sym_matvec(m: &Matrix, x: &[f64], y: &mut [f64]) {
    y.fill(0.0);
    for (i, &xi) in x.iter().enumerate() {
        let row = &m.row(i)[..=i];
        y[i] += dot_lanes(&row[..i], &x[..i]) + row[i] * xi;
        for (yj, mij) in y[..i].iter_mut().zip(&row[..i]) {
            *yj += mij * xi;
        }
    }
}

/// `|x|ᵀ|M||x|` over the same lower triangle.
fn abs_form(m: &Matrix, x: &[f64]) -> f64 {
    let mut sum = 0.0;
    for (i, &xi) in x.iter().enumerate() {
        let row = &m.row(i)[..=i];
        let off: f64 = row[..i]
            .iter()
            .zip(&x[..i])
            .map(|(a, b)| (a * b).abs())
            .sum();
        sum += xi.abs() * (2.0 * off + (row[i] * xi).abs());
    }
    sum
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
    use rand::{Rng, SeedableRng};

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

    /// `certifies_lambda_max_below` then `lambda_max_upper_bound`, as
    /// the bracketed bound must answer.
    fn pair(m: &Matrix, c: f64) -> Option<f64> {
        certifies_lambda_max_below(m, c).then(|| lambda_max_upper_bound(m, c))
    }

    #[test]
    fn bracketed_bound_replays_the_pair_on_degenerate_inputs() {
        let mut nan = Matrix::identity(3);
        nan[(2, 1)] = f64::NAN;
        let mut inf = Matrix::identity(3);
        inf[(1, 1)] = f64::INFINITY;
        let cases = [
            Matrix::zeros(3, 3),
            Matrix::from_vec(1, 1, vec![2.0]),
            Matrix::identity(4).scaled(-2.0),
            nan,
            inf,
        ];
        for m in &cases {
            let n = m.rows();
            for c in [-1.0, 0.0, 1e-300, 1.5, 2.0, 2.0 + 1e-8, 34.0, f64::INFINITY] {
                for start in [vec![0.0; n], vec![1.0; n], vec![f64::NAN; n]] {
                    let mut warm = start;
                    let got = bracketed_upper_bound(m, c, &mut warm);
                    assert_eq!(
                        got.map(f64::to_bits),
                        pair(m, c).map(f64::to_bits),
                        "{m:?} at {c}"
                    );
                }
            }
        }
        // The empty matrix passes at every bound, as the certificate does.
        assert_eq!(
            bracketed_upper_bound(&Matrix::zeros(0, 0), -1.0, &mut []),
            Some(-1.0)
        );
    }

    /// The bracket's lower end — the Ritz vector's Rayleigh quotient minus
    /// its rounding margin — never exceeds `λ_max`, here known exactly: a
    /// diagonal matrix whose entries lie within a few ulps of each other,
    /// so the quotient's rounding is as large as its distance to `λ_max`.
    /// Without the margin the computed quotient lands one ulp above
    /// `λ_max` in some of these draws (the first at `n = 2`).
    #[test]
    fn quotient_lower_end_never_exceeds_lambda_max() {
        let mut rng = StdRng::seed_from_u64(7);
        for n in (1..40).chain([61, 90]) {
            for _ in 0..50 {
                let base = 1.0 + rng.gen::<f64>();
                let d: Vec<f64> = (0..n)
                    .map(|_| base * (1.0 - rng.gen_range(0..4) as f64 * f64::EPSILON))
                    .collect();
                let top = d.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
                let mut m = Matrix::zeros(n, n);
                d.iter().enumerate().for_each(|(i, &v)| m[(i, i)] = v);
                let mut x: Vec<f64> = (0..n).map(|_| rng.gen::<f64>() - 0.5).collect();
                let steps = KRYLOV_STEPS.min(n);
                let (mut basis, mut y) = (vec![0.0; steps * n], vec![0.0; n]);
                if let Some((est, lower)) = rayleigh_quotient(&m, &mut x, &mut basis, &mut y) {
                    assert!(
                        lower <= top,
                        "n = {n}: L = {lower:e} (λ̂ = {est:e}) > λ_max = {top:e}"
                    );
                }
            }
        }
    }
}
