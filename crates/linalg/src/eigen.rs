//! Cyclic Jacobi eigendecomposition of symmetric matrices — the oracle.
//!
//! Production decompositions run on Householder tridiagonalisation + QL
//! ([`crate::ql::ql_eigen_sym`], 6–8× faster at the protocols'
//! shapes). Jacobi stays as the reference they are judged against: it is
//! the eigensolver of the [`crate::profile::KernelPath::Naive`] route
//! ([`crate::svd::gram_svd`] and MT-P2's basis layout), of `cma-data`'s
//! ground truth and of the exact evaluation of the paper's error metric
//! `‖AᵀA − BᵀB‖₂ / ‖A‖²_F` — all eigendecompositions of a small (`d×d`,
//! `d ≲ 500`) symmetric matrix, a regime where Jacobi iteration is simple,
//! embarrassingly robust and accurate to machine precision.

use crate::error::LinalgError;
use crate::matrix::Matrix;

/// Maximum number of full Jacobi sweeps before giving up. Symmetric Jacobi
/// converges quadratically; well-conditioned inputs finish in ≤ 10 sweeps,
/// and 50 leaves an enormous safety margin.
const MAX_SWEEPS: usize = 50;

/// Eigendecomposition `S = V diag(λ) Vᵀ` of a symmetric matrix.
#[derive(Debug, Clone)]
pub struct SymEigen {
    /// Eigenvalues sorted in descending order.
    pub values: Vec<f64>,
    /// Orthonormal eigenvectors; `vectors.row(i)` is the eigenvector for
    /// `values[i]` (row-major storage mirrors the `Σ Vᵀ` sketch layout used
    /// throughout the workspace).
    pub vectors: Matrix,
}

/// Rejects a NaN or infinite entry before an eigensolver starts: Jacobi's
/// off-diagonal test reads NaN as converged, and no iteration count makes
/// a non-finite input meaningful.
pub(crate) fn check_finite(s: &Matrix, routine: &'static str) -> Result<(), LinalgError> {
    if s.as_slice().iter().all(|x| x.is_finite()) {
        Ok(())
    } else {
        Err(LinalgError::NonFinite { routine })
    }
}

/// Computes the eigendecomposition of a symmetric `d × d` matrix with the
/// cyclic Jacobi method.
///
/// Only the lower/upper symmetric part is meaningful; the routine
/// symmetrises its working copy up front so tiny asymmetries from floating
/// point accumulation are harmless.
///
/// # Errors
/// [`LinalgError::NonFinite`] if any entry of `s` is NaN or infinite;
/// [`LinalgError::NoConvergence`] if off-diagonal mass has not vanished
/// after the internal sweep budget (practically unreachable for finite
/// input).
///
/// # Panics
/// Panics if `s` is not square.
pub fn jacobi_eigen_sym(s: &Matrix) -> Result<SymEigen, LinalgError> {
    jacobi_eigen_sym_with_basis(s, Matrix::identity(s.rows()))
}

/// [`jacobi_eigen_sym`] expressed in a caller-supplied orthonormal basis.
///
/// Treats `s` as the matrix of a symmetric operator *in the coordinates
/// of* `basis` (whose rows are orthonormal vectors of the ambient space)
/// and co-rotates `basis` with every Jacobi rotation. The returned
/// `vectors` are therefore eigenvectors in **ambient** coordinates:
/// `vectors = E · basis` where `E` are the eigenvectors of `s`.
///
/// This is the warm-start path used by protocol MT-P2: a site keeps its
/// buffer as `diag(σ²)` in its own singular basis, so after appending a
/// few rows the operator is near-diagonal, Jacobi converges in a couple
/// of sweeps, and the rotations are applied directly to the basis instead
/// of paying a dense `d×d · d×d` composition afterwards.
///
/// # Errors
/// As for [`jacobi_eigen_sym`].
///
/// # Panics
/// Panics if `s` is not square or `basis.rows() != s.rows()`.
pub fn jacobi_eigen_sym_with_basis(s: &Matrix, basis: Matrix) -> Result<SymEigen, LinalgError> {
    jacobi_eigen_sym_with_basis_tol(s, basis, 1e-14)
}

/// [`jacobi_eigen_sym_with_basis`] with an explicit relative tolerance.
///
/// Off-diagonal entries below `rel_tol · ‖S‖_F` are treated as converged;
/// eigenvalues are then accurate to roughly `d · rel_tol · ‖S‖_F`.
/// MT-P2's oracle layout (the `Naive` basis path, through the two-pass
/// twin below) passes a looser tolerance than the 1e-14 default because
/// its downstream use is a threshold comparison at scale `ε‖A‖²_F/m`,
/// many orders above the solver noise either way.
///
/// # Errors
/// As for [`jacobi_eigen_sym`].
///
/// # Panics
/// As for [`jacobi_eigen_sym_with_basis`].
pub fn jacobi_eigen_sym_with_basis_tol(
    s: &Matrix,
    basis: Matrix,
    rel_tol: f64,
) -> Result<SymEigen, LinalgError> {
    assert_eq!(
        s.rows(),
        s.cols(),
        "jacobi_eigen_sym: matrix must be square"
    );
    assert_eq!(
        basis.rows(),
        s.rows(),
        "jacobi_eigen_sym: basis row-count mismatch"
    );
    check_finite(s, "jacobi_eigen_sym")?;
    let d = s.rows();
    if d == 0 {
        return Ok(SymEigen {
            values: Vec::new(),
            vectors: basis,
        });
    }

    // Symmetrised working copy.
    let mut a = Matrix::zeros(d, d);
    for i in 0..d {
        for j in 0..d {
            a[(i, j)] = 0.5 * (s[(i, j)] + s[(j, i)]);
        }
    }
    let mut v = basis;

    // Scale-aware tolerance: stop when all off-diagonals are negligible
    // relative to the Frobenius norm of the input.
    let scale = a.frob_norm().max(f64::MIN_POSITIVE);
    let tol = rel_tol * scale;

    for _sweep in 0..MAX_SWEEPS {
        if off_diag_below(&a, tol) {
            return Ok(finish(a, v));
        }
        for p in 0..d {
            for q in (p + 1)..d {
                let apq = a[(p, q)];
                if apq.abs() <= tol * 1e-2 {
                    continue;
                }
                let app = a[(p, p)];
                let aqq = a[(q, q)];
                // Rotation angle zeroing a[p][q] (Golub–Van Loan):
                let theta = (aqq - app) / (2.0 * apq);
                let t = theta.signum() / (theta.abs() + (theta * theta + 1.0).sqrt());
                let c = 1.0 / (t * t + 1.0).sqrt();
                let sn = t * c;

                // A ← Jᵀ A J in symmetric (upper-triangle) storage. The
                // two-pass reference updates columns p and q and then rows
                // p and q — touching every affected entry twice, once per
                // mirror image. Since A stays symmetric, maintaining only
                // the upper triangle halves both the flops and the
                // strided traffic: each off-diagonal entry lives in
                // exactly one of three segments (rows `k < p`: strided
                // pair; `p < k < q`: contiguous row-p tail against a
                // strided column-q piece; `k > q`: two contiguous row
                // tails), and the corners come from the closed forms
                // `a'pp = app − t·apq`, `a'qq = aqq + t·apq`, `a'pq = 0`
                // (algebraically exact for the chosen t; derivation in
                // docs/ARCHITECTURE.md). The segment arithmetic is the
                // same per-entry rotation as the reference; only the
                // corner rounding differs, so this is
                // equivalent-within-tolerance, not bit-identical;
                // `fast_matches_naive_reference` pins the agreement.
                // Measured against the two-pass reference on cold Gram
                // inputs: ~1.2× at d = 44, ~1.35× at d = 256, ~1.7× at
                // d = 512, with identical sweep counts.
                for k in 0..p {
                    let x = a[(k, p)];
                    let y = a[(k, q)];
                    a[(k, p)] = c * x - sn * y;
                    a[(k, q)] = sn * x + c * y;
                }
                for k in (p + 1)..q {
                    let x = a[(p, k)];
                    let y = a[(k, q)];
                    a[(p, k)] = c * x - sn * y;
                    a[(k, q)] = sn * x + c * y;
                }
                for k in (q + 1)..d {
                    let x = a[(p, k)];
                    let y = a[(q, k)];
                    a[(p, k)] = c * x - sn * y;
                    a[(q, k)] = sn * x + c * y;
                }
                a[(p, p)] = app - t * apq;
                a[(q, q)] = aqq + t * apq;
                a[(p, q)] = 0.0;
                // Eigenvectors are stored as *rows* of `v` (v = Vᵀ), so the
                // accumulated product V ← V·J becomes v ← Jᵀ·v here.
                let (rp, rq) = v.rows_pair_mut(p, q);
                for (vp, vq) in rp.iter_mut().zip(rq.iter_mut()) {
                    let (x, y) = (*vp, *vq);
                    *vp = c * x - sn * y;
                    *vq = sn * x + c * y;
                }
            }
        }
    }

    Err(LinalgError::NoConvergence {
        routine: "jacobi_eigen_sym",
        sweeps: MAX_SWEEPS,
    })
}

/// `true` when every strict-upper-triangle entry is `≤ tol` in magnitude.
///
/// Scans contiguous row tails and exits on the first violation — the
/// common case during early sweeps is an exit within the first row, so
/// the convergence check costs almost nothing until it is about to pass.
fn off_diag_below(a: &Matrix, tol: f64) -> bool {
    let d = a.rows();
    for p in 0..d {
        if a.row(p)[p + 1..].iter().any(|x| x.abs() > tol) {
            return false;
        }
    }
    true
}

/// Reference implementation of [`jacobi_eigen_sym_with_basis_tol`]: the
/// textbook two-pass (column update then row update) rotation application.
/// Kept as the equivalence oracle for the symmetric-storage rewrite and as
/// the eigensolver of the `naive` kernel profile
/// ([`crate::profile::KernelPath::Naive`]).
///
/// # Errors
/// As for [`jacobi_eigen_sym`].
///
/// # Panics
/// As for [`jacobi_eigen_sym_with_basis`].
pub fn jacobi_eigen_sym_with_basis_tol_naive(
    s: &Matrix,
    basis: Matrix,
    rel_tol: f64,
) -> Result<SymEigen, LinalgError> {
    assert_eq!(
        s.rows(),
        s.cols(),
        "jacobi_eigen_sym: matrix must be square"
    );
    assert_eq!(
        basis.rows(),
        s.rows(),
        "jacobi_eigen_sym: basis row-count mismatch"
    );
    check_finite(s, "jacobi_eigen_sym")?;
    let d = s.rows();
    if d == 0 {
        return Ok(SymEigen {
            values: Vec::new(),
            vectors: basis,
        });
    }

    let mut a = Matrix::zeros(d, d);
    for i in 0..d {
        for j in 0..d {
            a[(i, j)] = 0.5 * (s[(i, j)] + s[(j, i)]);
        }
    }
    let mut v = basis;

    let scale = a.frob_norm().max(f64::MIN_POSITIVE);
    let tol = rel_tol * scale;

    for _sweep in 0..MAX_SWEEPS {
        let mut off = 0.0_f64;
        for p in 0..d {
            for q in (p + 1)..d {
                off = off.max(a[(p, q)].abs());
            }
        }
        if off <= tol {
            return Ok(finish(a, v));
        }
        for p in 0..d {
            for q in (p + 1)..d {
                let apq = a[(p, q)];
                if apq.abs() <= tol * 1e-2 {
                    continue;
                }
                let app = a[(p, p)];
                let aqq = a[(q, q)];
                let theta = (aqq - app) / (2.0 * apq);
                let t = theta.signum() / (theta.abs() + (theta * theta + 1.0).sqrt());
                let c = 1.0 / (t * t + 1.0).sqrt();
                let sn = t * c;

                for k in 0..d {
                    let akp = a[(k, p)];
                    let akq = a[(k, q)];
                    a[(k, p)] = c * akp - sn * akq;
                    a[(k, q)] = sn * akp + c * akq;
                }
                for k in 0..d {
                    let apk = a[(p, k)];
                    let aqk = a[(q, k)];
                    a[(p, k)] = c * apk - sn * aqk;
                    a[(q, k)] = sn * apk + c * aqk;
                }
                let (rp, rq) = v.rows_pair_mut(p, q);
                for (vp, vq) in rp.iter_mut().zip(rq.iter_mut()) {
                    let (x, y) = (*vp, *vq);
                    *vp = c * x - sn * y;
                    *vq = sn * x + c * y;
                }
            }
        }
    }

    Err(LinalgError::NoConvergence {
        routine: "jacobi_eigen_sym",
        sweeps: MAX_SWEEPS,
    })
}

/// Extracts the sorted eigendecomposition from the converged working state.
fn finish(a: Matrix, v: Matrix) -> SymEigen {
    let d = a.rows();
    let mut order: Vec<usize> = (0..d).collect();
    order.sort_by(|&i, &j| a[(j, j)].partial_cmp(&a[(i, i)]).expect("NaN eigenvalue"));

    let mut values = Vec::with_capacity(d);
    let mut vectors = Matrix::zeros(d, v.cols());
    for (rank, &idx) in order.iter().enumerate() {
        values.push(a[(idx, idx)]);
        vectors.row_mut(rank).copy_from_slice(v.row(idx));
    }
    SymEigen { values, vectors }
}

/// Exact spectral norm `‖S‖₂ = max |λᵢ|` of a symmetric matrix via the
/// full Jacobi eigendecomposition.
///
/// This is the reference evaluator for the paper's matrix error metric;
/// see [`crate::norms::spectral_norm_sym_power`] for the cheaper iterative
/// alternative.
pub fn spectral_norm_sym(s: &Matrix) -> Result<f64, LinalgError> {
    let eig = jacobi_eigen_sym(s)?;
    Ok(eig.values.iter().fold(0.0_f64, |m, &l| m.max(l.abs())))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::random;
    use crate::vector;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn diagonal_matrix_eigenvalues() {
        let mut s = Matrix::zeros(3, 3);
        s[(0, 0)] = 2.0;
        s[(1, 1)] = -5.0;
        s[(2, 2)] = 1.0;
        let e = jacobi_eigen_sym(&s).unwrap();
        assert_eq!(e.values, vec![2.0, 1.0, -5.0]);
    }

    #[test]
    fn known_two_by_two() {
        // [[2,1],[1,2]] has eigenvalues 3 and 1.
        let s = Matrix::from_rows(&[vec![2.0, 1.0], vec![1.0, 2.0]]);
        let e = jacobi_eigen_sym(&s).unwrap();
        assert!((e.values[0] - 3.0).abs() < 1e-12);
        assert!((e.values[1] - 1.0).abs() < 1e-12);
    }

    #[test]
    fn reconstruction_and_orthogonality() {
        let mut rng = StdRng::seed_from_u64(42);
        let a = random::gaussian(&mut rng, 8, 8);
        let s = a.add(&a.transpose()).scaled(0.5);
        let e = jacobi_eigen_sym(&s).unwrap();

        // V has orthonormal rows.
        let vvt = e.vectors.matmul(&e.vectors.transpose());
        for i in 0..8 {
            for j in 0..8 {
                let want = if i == j { 1.0 } else { 0.0 };
                assert!((vvt[(i, j)] - want).abs() < 1e-10);
            }
        }

        // S v_i = λ_i v_i for every pair.
        for i in 0..8 {
            let vi = e.vectors.row(i);
            let sv = s.apply(vi);
            for k in 0..8 {
                assert!(
                    (sv[k] - e.values[i] * vi[k]).abs() < 1e-9,
                    "eigenpair {i} fails at coord {k}"
                );
            }
        }
    }

    #[test]
    fn trace_is_preserved() {
        let mut rng = StdRng::seed_from_u64(5);
        let a = random::gaussian(&mut rng, 10, 10);
        let s = a.add(&a.transpose()).scaled(0.5);
        let tr: f64 = (0..10).map(|i| s[(i, i)]).sum();
        let e = jacobi_eigen_sym(&s).unwrap();
        let sum: f64 = e.values.iter().sum();
        assert!((tr - sum).abs() < 1e-9 * tr.abs().max(1.0));
    }

    #[test]
    fn psd_gram_has_nonnegative_eigenvalues() {
        let mut rng = StdRng::seed_from_u64(6);
        let a = random::gaussian(&mut rng, 20, 6);
        let e = jacobi_eigen_sym(&a.gram()).unwrap();
        for &l in &e.values {
            assert!(l > -1e-9, "negative eigenvalue {l} from PSD matrix");
        }
    }

    #[test]
    fn empty_matrix_ok() {
        let e = jacobi_eigen_sym(&Matrix::zeros(0, 0)).unwrap();
        assert!(e.values.is_empty());
    }

    #[test]
    fn spectral_norm_matches_max_abs_eigenvalue() {
        let s = Matrix::from_rows(&[vec![0.0, 2.0], vec![2.0, -3.0]]);
        // Eigenvalues of [[0,2],[2,-3]] are 1 and -4.
        let n = spectral_norm_sym(&s).unwrap();
        assert!((n - 4.0).abs() < 1e-12);
    }

    #[test]
    fn basis_variant_matches_explicit_composition() {
        // Eigen of S expressed in basis Q must equal E·Q where E are the
        // eigenvectors of S.
        let mut rng = StdRng::seed_from_u64(12);
        let a = random::gaussian(&mut rng, 6, 6);
        let s = a.add(&a.transpose()).scaled(0.5);
        let q = random::haar_orthogonal(&mut rng, 6);

        let plain = jacobi_eigen_sym(&s).unwrap();
        let based = jacobi_eigen_sym_with_basis(&s, q.clone()).unwrap();
        let composed = plain.vectors.matmul(&q);
        for i in 0..6 {
            assert!((plain.values[i] - based.values[i]).abs() < 1e-9);
            // Eigenvectors are defined up to sign.
            let dot: f64 = composed
                .row(i)
                .iter()
                .zip(based.vectors.row(i))
                .map(|(x, y)| x * y)
                .sum();
            assert!(dot.abs() > 1.0 - 1e-8, "row {i}: |dot| = {}", dot.abs());
        }
    }

    #[test]
    fn near_diagonal_warm_start_converges() {
        // diag + rank-1 perturbation: the MT-P2 workload shape.
        let d = 20;
        let mut s = Matrix::zeros(d, d);
        for i in 0..d {
            s[(i, i)] = (d - i) as f64;
        }
        let c: Vec<f64> = (0..d).map(|i| 0.01 * (i as f64 + 1.0)).collect();
        for i in 0..d {
            for j in 0..d {
                s[(i, j)] += c[i] * c[j];
            }
        }
        let e = jacobi_eigen_sym(&s).unwrap();
        let trace: f64 = (0..d).map(|i| s[(i, i)]).sum();
        let sum: f64 = e.values.iter().sum();
        assert!((trace - sum).abs() < 1e-9 * trace);
    }

    #[test]
    fn fast_matches_naive_reference() {
        // The symmetric-storage rotation application differs from the
        // two-pass textbook form only in corner rounding; eigenvalues
        // must agree to solver accuracy and eigenvectors must span the
        // same one-dimensional spaces (up to sign) wherever the spectrum
        // is simple.
        let mut rng = StdRng::seed_from_u64(99);
        for d in [2usize, 5, 13, 30] {
            let g = random::gaussian(&mut rng, d, d);
            let s = g.add(&g.transpose()).scaled(0.5);
            let fast = jacobi_eigen_sym(&s).unwrap();
            let naive =
                jacobi_eigen_sym_with_basis_tol_naive(&s, Matrix::identity(d), 1e-14).unwrap();
            let scale = s.frob_norm().max(1.0);
            for (lf, ln) in fast.values.iter().zip(&naive.values) {
                assert!(
                    (lf - ln).abs() < 1e-10 * scale,
                    "d={d}: eigenvalue mismatch {lf} vs {ln}"
                );
            }
            // Both must satisfy the eigen equation independently.
            for i in 0..d {
                let vi = fast.vectors.row(i);
                let sv = s.apply(vi);
                for k in 0..d {
                    assert!(
                        (sv[k] - fast.values[i] * vi[k]).abs() < 1e-8 * scale,
                        "d={d}: fast eigenpair {i} fails at coord {k}"
                    );
                }
            }
        }
    }

    #[test]
    fn fast_matches_naive_with_warm_basis() {
        // The MT-P2 shape: near-diagonal operator, warm-start basis.
        let mut rng = StdRng::seed_from_u64(100);
        let d = 16;
        let q = random::haar_orthogonal(&mut rng, d);
        let mut s = Matrix::zeros(d, d);
        for i in 0..d {
            s[(i, i)] = (d - i) as f64;
        }
        let c: Vec<f64> = (0..d).map(|i| 0.02 * (i as f64 + 1.0)).collect();
        for i in 0..d {
            for j in 0..d {
                s[(i, j)] += c[i] * c[j];
            }
        }
        let fast = jacobi_eigen_sym_with_basis_tol(&s, q.clone(), 1e-9).unwrap();
        let naive = jacobi_eigen_sym_with_basis_tol_naive(&s, q, 1e-9).unwrap();
        for (lf, ln) in fast.values.iter().zip(&naive.values) {
            assert!((lf - ln).abs() < 1e-7, "warm-start eigenvalue {lf} vs {ln}");
        }
        // Basis co-rotation must produce the same ambient subspaces.
        for i in 0..d {
            let dot: f64 = fast
                .vectors
                .row(i)
                .iter()
                .zip(naive.vectors.row(i))
                .map(|(x, y)| x * y)
                .sum();
            assert!(dot.abs() > 1.0 - 1e-6, "row {i}: |dot| = {}", dot.abs());
        }
    }

    #[test]
    fn non_finite_input_is_an_error() {
        // NaN used to pass the off-diagonal test as "converged" and then
        // panic in the sort; ∞ made the tolerance infinite.
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let mut s = Matrix::identity(4);
            s[(2, 1)] = bad;
            let want = LinalgError::NonFinite {
                routine: "jacobi_eigen_sym",
            };
            assert_eq!(jacobi_eigen_sym(&s).unwrap_err(), want);
            let naive = jacobi_eigen_sym_with_basis_tol_naive(&s, Matrix::identity(4), 1e-14);
            assert_eq!(naive.unwrap_err(), want);
        }
    }

    #[test]
    fn eigenvectors_unit_norm() {
        let mut rng = StdRng::seed_from_u64(11);
        let a = random::gaussian(&mut rng, 7, 7);
        let s = a.add(&a.transpose());
        let e = jacobi_eigen_sym(&s).unwrap();
        for i in 0..7 {
            assert!((vector::norm(e.vectors.row(i)) - 1.0).abs() < 1e-10);
        }
    }
}
