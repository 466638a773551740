//! Singular value decomposition.
//!
//! Two routes, for two different callers:
//!
//! * [`jacobi_svd`] — one-sided Jacobi on the columns of `A`. Accurate to
//!   near machine precision (it never squares the condition number) and
//!   returns `U`, `Σ`, `V`. Used as the reference implementation, the
//!   verification oracle in tests, and wherever `U` is actually needed.
//! * [`gram_svd_blocked`] / [`gram_svd`] — form a Gram matrix (`AᵀA`, or
//!   `AAᵀ` when `A` is wide) and eigendecompose it to obtain `Σ` and `V`
//!   only, in `O(n d² + d³)` instead of Jacobi's larger constant.
//!   Frequent Directions only ever needs `Σ Vᵀ`, so this is its fast path:
//!   [`gram_svd_blocked`] (the production route) on the Householder + QL
//!   solver ([`crate::ql::ql_eigen_sym`]), [`gram_svd`] (its test oracle)
//!   on cyclic Jacobi ([`crate::eigen::jacobi_eigen_sym`]). The price is
//!   the classic `κ²` accuracy loss, irrelevant at the `ε ≥ 5·10⁻³`
//!   accuracy targets of the protocols and bounded in tests against the
//!   one-sided Jacobi oracle.

use crate::eigen::{jacobi_eigen_sym, SymEigen};
use crate::error::LinalgError;
use crate::matrix::Matrix;
use crate::ql::ql_eigen_sym;
use crate::vector;

/// Maximum number of one-sided Jacobi sweeps.
const MAX_SWEEPS: usize = 60;

/// Full thin SVD `A = U diag(σ) Vᵀ`.
#[derive(Debug, Clone)]
pub struct Svd {
    /// `n × r` matrix with orthonormal columns (`r = min(n, d)`).
    pub u: Matrix,
    /// Singular values, descending, length `r`.
    pub sigma: Vec<f64>,
    /// Right singular vectors as *rows*: `vt.row(i)` is `vᵢᵀ` (`r × d`).
    pub vt: Matrix,
}

/// The `(Σ, V)` half of an SVD — all that the sketching algorithms need.
#[derive(Debug, Clone)]
pub struct SvdValuesVectors {
    /// Singular values, descending, length `min(n, d)` (padded with zeros
    /// when the numerical rank is smaller).
    pub sigma: Vec<f64>,
    /// Right singular vectors as rows (`min(n,d) × d`), orthonormal.
    pub vt: Matrix,
}

impl Svd {
    /// Reconstructs `U diag(σ) Vᵀ`; primarily for tests and examples.
    pub fn reconstruct(&self) -> Matrix {
        let r = self.sigma.len();
        let mut sv = Matrix::zeros(r, self.vt.cols());
        for i in 0..r {
            let row = self.vt.row(i);
            let dst = sv.row_mut(i);
            for (d, &s) in dst.iter_mut().zip(row) {
                *d = self.sigma[i] * s;
            }
        }
        self.u.matmul(&sv)
    }
}

impl SvdValuesVectors {
    /// The sketch matrix `diag(σ) Vᵀ`, whose Gram equals `V Σ² Vᵀ`.
    pub fn sigma_vt(&self) -> Matrix {
        let r = self.sigma.len();
        let d = self.vt.cols();
        let mut m = Matrix::zeros(r, d);
        for i in 0..r {
            let src = self.vt.row(i);
            let dst = m.row_mut(i);
            for (x, &v) in dst.iter_mut().zip(src) {
                *x = self.sigma[i] * v;
            }
        }
        m
    }
}

/// One-sided Jacobi SVD of an arbitrary `n × d` matrix.
///
/// Orthogonalises pairs of columns of a working copy `W = A V` by right
/// Givens rotations until all pairs are numerically orthogonal; at
/// convergence the column norms are the singular values and the normalised
/// columns are `U`. For wide inputs (`n < d`) the routine transposes,
/// decomposes, and swaps `U ↔ V`.
///
/// # Errors
/// [`LinalgError::NoConvergence`] after the internal sweep budget.
pub fn jacobi_svd(a: &Matrix) -> Result<Svd, LinalgError> {
    if a.rows() < a.cols() {
        // Decompose the transpose and swap factors: A = U Σ Vᵀ ⇔ Aᵀ = V Σ Uᵀ.
        let t = jacobi_svd(&a.transpose())?;
        return Ok(Svd {
            u: t.vt.transpose(),
            sigma: t.sigma,
            vt: t.u.transpose(),
        });
    }

    let n = a.rows();
    let d = a.cols();
    if d == 0 || n == 0 {
        return Ok(Svd {
            u: Matrix::zeros(n, 0),
            sigma: Vec::new(),
            vt: Matrix::zeros(0, d),
        });
    }

    // Column-major working copy: wt.row(j) is column j of W.
    let mut wt = a.transpose();
    // Right singular vectors accumulate as rows of vt (vt = Vᵀ);
    // a right rotation of columns (p,q) of W rotates rows (p,q) of vt.
    let mut vt = Matrix::identity(d);

    let scale = a.frob_norm().max(f64::MIN_POSITIVE);
    let tol = 1e-15 * scale * scale;

    let mut converged = false;
    for _sweep in 0..MAX_SWEEPS {
        let mut rotated = false;
        for p in 0..d {
            for q in (p + 1)..d {
                let (alpha, beta, gamma) = {
                    let cp = wt.row(p);
                    let cq = wt.row(q);
                    (
                        vector::norm_sq(cp),
                        vector::norm_sq(cq),
                        vector::dot(cp, cq),
                    )
                };
                if gamma.abs() <= tol || gamma.abs() <= 1e-15 * (alpha * beta).sqrt() {
                    continue;
                }
                rotated = true;
                let zeta = (beta - alpha) / (2.0 * gamma);
                let t = zeta.signum() / (zeta.abs() + (1.0 + zeta * zeta).sqrt());
                let c = 1.0 / (1.0 + t * t).sqrt();
                let s = c * t;

                // Rotate columns p and q of W (rows of wt).
                rotate_rows(&mut wt, p, q, c, s);
                // Apply the same rotation to V (rows of vt).
                rotate_rows(&mut vt, p, q, c, s);
            }
        }
        if !rotated {
            converged = true;
            break;
        }
    }
    if !converged {
        return Err(LinalgError::NoConvergence {
            routine: "jacobi_svd",
            sweeps: MAX_SWEEPS,
        });
    }

    // Extract singular values / vectors and sort descending.
    let mut order: Vec<usize> = (0..d).collect();
    let norms: Vec<f64> = (0..d).map(|j| vector::norm(wt.row(j))).collect();
    order.sort_by(|&i, &j| norms[j].partial_cmp(&norms[i]).expect("NaN singular value"));

    let mut sigma = Vec::with_capacity(d);
    let mut u = Matrix::zeros(n, d);
    let mut vt_sorted = Matrix::zeros(d, d);
    for (rank, &j) in order.iter().enumerate() {
        let s = norms[j];
        sigma.push(s);
        vt_sorted.row_mut(rank).copy_from_slice(vt.row(j));
        if s > 0.0 {
            let col = wt.row(j);
            let inv = 1.0 / s;
            for i in 0..n {
                u[(i, rank)] = col[i] * inv;
            }
        }
        // Zero singular value: leave the U column zero. Callers that need a
        // full orthonormal basis can complete it, but the sketches never do.
    }

    Ok(Svd {
        u,
        sigma,
        vt: vt_sorted,
    })
}

/// Applies the plane rotation `(rowₚ, row_q) ← (c·rowₚ − s·row_q, s·rowₚ + c·row_q)`.
fn rotate_rows(m: &mut Matrix, p: usize, q: usize, c: f64, s: f64) {
    let (rp, rq) = m.rows_pair_mut(p, q);
    for (a, b) in rp.iter_mut().zip(rq.iter_mut()) {
        let (x, y) = (*a, *b);
        *a = c * x - s * y;
        *b = s * x + c * y;
    }
}

/// `(Σ, V)` of `A` via Jacobi eigendecomposition of a Gram matrix — the
/// test oracle of [`gram_svd_blocked`].
///
/// Returns `min(n, d)` singular values (descending, clamped at zero) and
/// the matching right singular vectors as rows. For tall inputs it
/// eigendecomposes `AᵀA`
/// (`O(nd² + d³)`); for **wide** inputs (`n < d`, the common case for an
/// `ℓ`-row sketch over many columns) it eigendecomposes the much smaller
/// outer Gram `AAᵀ` and recovers each right singular vector as
/// `vᵢ = Aᵀuᵢ/σᵢ` (`O(n²d + n³)`).
///
/// Rows of `vt` whose singular value is numerically zero are left as zero
/// rows (the sketching algorithms never read them).
///
/// # Errors
/// Propagates [`LinalgError`] from the eigensolver.
pub fn gram_svd(a: &Matrix) -> Result<SvdValuesVectors, LinalgError> {
    let (n, d) = (a.rows(), a.cols());
    if n >= d {
        return Ok(from_gram_eigen(jacobi_eigen_sym(&a.gram())?));
    }

    // Wide case: eigen of AAᵀ (n×n), then vᵢ = Aᵀuᵢ/σᵢ.
    let eig = jacobi_eigen_sym(&a.outer_gram())?;
    let mut sigma = Vec::with_capacity(n);
    let mut vt = Matrix::zeros(n, d);
    let top = eig.values.first().copied().unwrap_or(0.0).max(0.0);
    let floor = 1e-15 * top;
    for i in 0..n {
        let lam = eig.values[i].max(0.0);
        let s = lam.sqrt();
        sigma.push(s);
        if lam > floor && s > 0.0 {
            let u = eig.vectors.row(i);
            let v = a.apply_transpose(u);
            let inv = 1.0 / s;
            for (dst, x) in vt.row_mut(i).iter_mut().zip(v) {
                *dst = x * inv;
            }
        }
    }
    Ok(SvdValuesVectors { sigma, vt })
}

/// `(Σ, V)` of a tall `A` from the eigendecomposition of its Gram `AᵀA`:
/// `σᵢ = √max(λᵢ, 0)`, and the eigenvectors are the right singular
/// vectors.
fn from_gram_eigen(eig: SymEigen) -> SvdValuesVectors {
    let sigma = eig.values.iter().map(|&l| l.max(0.0).sqrt()).collect();
    SvdValuesVectors {
        sigma,
        vt: eig.vectors,
    }
}

/// `(Σ, V)` of `A` through the production kernels — the sketching SVD
/// behind every Frequent Directions shrink and merge.
///
/// Same Gram choice and same zero-σ floor as [`gram_svd`], with two
/// changes. Both cases eigendecompose with [`ql_eigen_sym`] (Householder
/// tridiagonalisation and implicit QL) instead of cyclic Jacobi — 6–8×
/// faster on the 44×44 and 90×90 Grams the protocols form. In the wide case
/// (`n < d`) all right singular vectors are recovered in one `n×n · n×d`
/// [`Matrix::matmul`] (`Vᵀ = Σ⁻¹·Uᵀ·A`) instead of `n` separate
/// [`Matrix::apply_transpose`] passes over `A`. Equivalent to
/// [`gram_svd`] within solver accuracy, not bit-identical — pinned by
/// `blocked_route_matches_reference`.
///
/// # Errors
/// Propagates [`LinalgError`] from the eigensolver.
pub fn gram_svd_blocked(a: &Matrix) -> Result<SvdValuesVectors, LinalgError> {
    let n = a.rows();
    if n >= a.cols() {
        return Ok(from_gram_eigen(ql_eigen_sym(&a.gram())?));
    }
    let eig = ql_eigen_sym(&a.outer_gram())?;
    let top = eig.values.first().copied().unwrap_or(0.0).max(0.0);
    let floor = 1e-15 * top;
    // Rows of U·A are σᵢ·vᵢᵀ; one blocked product, then a row scaling.
    let mut vt = eig.vectors.matmul(a);
    let mut sigma = Vec::with_capacity(n);
    for i in 0..n {
        let lam = eig.values[i].max(0.0);
        let s = lam.sqrt();
        sigma.push(s);
        let row = vt.row_mut(i);
        if lam > floor && s > 0.0 {
            let inv = 1.0 / s;
            for x in row.iter_mut() {
                *x *= inv;
            }
        } else {
            for x in row.iter_mut() {
                *x = 0.0;
            }
        }
    }
    Ok(SvdValuesVectors { sigma, vt })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::random;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn assert_close(a: &Matrix, b: &Matrix, tol: f64) {
        assert_eq!((a.rows(), a.cols()), (b.rows(), b.cols()));
        for i in 0..a.rows() {
            for j in 0..a.cols() {
                assert!(
                    (a[(i, j)] - b[(i, j)]).abs() < tol,
                    "mismatch at ({i},{j}): {} vs {}",
                    a[(i, j)],
                    b[(i, j)]
                );
            }
        }
    }

    #[test]
    fn diagonal_matrix_svd() {
        let a = Matrix::from_rows(&[vec![3.0, 0.0], vec![0.0, -4.0], vec![0.0, 0.0]]);
        let svd = jacobi_svd(&a).unwrap();
        assert!((svd.sigma[0] - 4.0).abs() < 1e-12);
        assert!((svd.sigma[1] - 3.0).abs() < 1e-12);
    }

    #[test]
    fn reconstruction_tall() {
        let mut rng = StdRng::seed_from_u64(1);
        let a = random::gaussian(&mut rng, 15, 6);
        let svd = jacobi_svd(&a).unwrap();
        assert_close(&svd.reconstruct(), &a, 1e-9);
    }

    #[test]
    fn reconstruction_wide() {
        let mut rng = StdRng::seed_from_u64(2);
        let a = random::gaussian(&mut rng, 4, 9);
        let svd = jacobi_svd(&a).unwrap();
        assert_eq!(svd.sigma.len(), 4);
        assert_close(&svd.reconstruct(), &a, 1e-9);
    }

    #[test]
    fn singular_vectors_orthonormal() {
        let mut rng = StdRng::seed_from_u64(3);
        let a = random::gaussian(&mut rng, 12, 5);
        let svd = jacobi_svd(&a).unwrap();
        let utu = svd.u.gram();
        assert_close(&utu, &Matrix::identity(5), 1e-10);
        let vvt = svd.vt.matmul(&svd.vt.transpose());
        assert_close(&vvt, &Matrix::identity(5), 1e-10);
    }

    #[test]
    fn sigma_descending_nonnegative() {
        let mut rng = StdRng::seed_from_u64(4);
        let a = random::gaussian(&mut rng, 10, 7);
        let svd = jacobi_svd(&a).unwrap();
        for w in svd.sigma.windows(2) {
            assert!(w[0] >= w[1]);
        }
        assert!(svd.sigma.iter().all(|&s| s >= 0.0));
    }

    #[test]
    fn frobenius_identity() {
        // ‖A‖²_F = Σ σᵢ².
        let mut rng = StdRng::seed_from_u64(5);
        let a = random::gaussian(&mut rng, 9, 9);
        let svd = jacobi_svd(&a).unwrap();
        let sum_sq: f64 = svd.sigma.iter().map(|s| s * s).sum();
        assert!((sum_sq - a.frob_norm_sq()).abs() < 1e-8 * a.frob_norm_sq());
    }

    #[test]
    fn rank_deficient_input() {
        // Rank-1 matrix: exactly one nonzero singular value.
        let a = Matrix::from_rows(&[vec![1.0, 2.0], vec![2.0, 4.0], vec![3.0, 6.0]]);
        let svd = jacobi_svd(&a).unwrap();
        assert!(svd.sigma[0] > 1.0);
        assert!(svd.sigma[1].abs() < 1e-10);
        assert_close(&svd.reconstruct(), &a, 1e-10);
    }

    #[test]
    fn empty_input() {
        let svd = jacobi_svd(&Matrix::zeros(0, 0)).unwrap();
        assert!(svd.sigma.is_empty());
    }

    #[test]
    fn gram_svd_matches_jacobi() {
        let mut rng = StdRng::seed_from_u64(6);
        let a = random::gaussian(&mut rng, 30, 8);
        let j = jacobi_svd(&a).unwrap();
        let g = gram_svd(&a).unwrap();
        assert_eq!(g.sigma.len(), 8);
        for (sj, sg) in j.sigma.iter().zip(&g.sigma) {
            assert!(
                (sj - sg).abs() < 1e-8 * sj.max(1.0),
                "σ mismatch: {sj} vs {sg}"
            );
        }
        // Right singular subspaces agree: the Grams of σ·Vᵀ agree.
        let bj = SvdValuesVectors {
            sigma: j.sigma.clone(),
            vt: j.vt.clone(),
        }
        .sigma_vt();
        let bg = g.sigma_vt();
        assert_close(&bj.gram(), &bg.gram(), 1e-6 * a.frob_norm_sq());
    }

    #[test]
    fn sigma_vt_preserves_gram() {
        // The whole point of the (Σ, V) representation: same Gram as A.
        let mut rng = StdRng::seed_from_u64(7);
        let a = random::gaussian(&mut rng, 25, 6);
        let g = gram_svd(&a).unwrap();
        let b = g.sigma_vt();
        assert_close(&b.gram(), &a.gram(), 1e-7 * a.frob_norm_sq());
    }

    #[test]
    fn gram_svd_wide_matrix() {
        let mut rng = StdRng::seed_from_u64(8);
        let a = random::gaussian(&mut rng, 3, 10);
        let g = gram_svd(&a).unwrap();
        assert_eq!(g.sigma.len(), 3);
        let j = jacobi_svd(&a).unwrap();
        for (sj, sg) in j.sigma.iter().zip(&g.sigma) {
            assert!((sj - sg).abs() < 1e-8 * sj.max(1.0));
        }
    }

    #[test]
    fn blocked_route_matches_reference() {
        let mut rng = StdRng::seed_from_u64(11);
        // Wide (the matmul recovery), square, tall, and a rank-deficient
        // wide stack — QL against Jacobi in every case.
        let wide = random::gaussian(&mut rng, 5, 23);
        let square = random::gaussian(&mut rng, 9, 9);
        let tall = random::gaussian(&mut rng, 31, 7);
        let mut deficient = Matrix::with_cols(14);
        let base = random::gaussian(&mut rng, 2, 14);
        for i in 0..6 {
            let mut row = base.row(i % 2).to_vec();
            for v in &mut row {
                *v *= 1.0 + i as f64;
            }
            deficient.push_row(&row);
        }
        for a in [&wide, &square, &tall, &deficient] {
            let r = gram_svd(a).unwrap();
            let b = gram_svd_blocked(a).unwrap();
            assert_eq!(r.sigma.len(), b.sigma.len());
            // A Gram route resolves σ² to O(u·‖A‖²_F), so compare σ²: a
            // structurally zero σ is √(rounding noise) on either solver.
            for (sr, sb) in r.sigma.iter().zip(&b.sigma) {
                assert!(
                    (sr * sr - sb * sb).abs() < 1e-12 * a.frob_norm_sq(),
                    "σ {sr} vs {sb}"
                );
            }
            // Same sketch semantics: the Grams of σ·Vᵀ agree.
            assert_close(
                &r.sigma_vt().gram(),
                &b.sigma_vt().gram(),
                1e-7 * a.frob_norm_sq().max(1.0),
            );
        }
    }

    #[test]
    fn spectral_norm_dominates_directions() {
        // ‖Ax‖ ≤ σ₁ for unit x, with equality at v₁.
        let mut rng = StdRng::seed_from_u64(9);
        let a = random::gaussian(&mut rng, 20, 5);
        let svd = jacobi_svd(&a).unwrap();
        let v1 = svd.vt.row(0);
        let at_v1 = a.apply_norm_sq(v1).sqrt();
        assert!((at_v1 - svd.sigma[0]).abs() < 1e-9 * svd.sigma[0]);
        for _ in 0..10 {
            let x = random::unit_vector(&mut rng, 5);
            assert!(a.apply_norm_sq(&x).sqrt() <= svd.sigma[0] + 1e-9);
        }
    }
}
