//! Randomized low-rank SVD (Halko–Martinsson–Tropp).
//!
//! The paper's related work cites randomized low-rank approximation
//! (its reference \[29\], Liberty et al., PNAS 2007) as the
//! centralized-batch alternative to streaming sketches. This module
//! provides that algorithm — range finding by Gaussian sketching, a few
//! power iterations for spectral-gap sharpening, then an exact SVD of the
//! small projected matrix — both for completeness of the substrate and
//! as a fast approximate factorization for wider matrices than the
//! dense Jacobi routines comfortably handle.
//!
//! Accuracy (HMT Theorem 10.6, informally): with oversampling `p ≥ 4`
//! and `q` power iterations, the returned rank-`k` factorization captures
//! the top-`k` spectrum up to a factor that decays exponentially in `q`.

use crate::error::LinalgError;
use crate::matrix::Matrix;
use crate::qr::householder_qr;
use crate::random::gaussian;
use crate::svd::{gram_svd_blocked, jacobi_svd, Svd, SvdValuesVectors};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Rank-`k` randomized SVD of `a`.
///
/// * `k` — target rank (clamped to `min(n, d)`).
/// * `oversample` — extra sketch columns (≥ 2 recommended; 5–10 typical).
/// * `power_iters` — subspace ("power") iterations; 0 suffices for
///   sharply decaying spectra, 1–2 for flat ones.
///
/// Returns a thin [`Svd`] with exactly `min(k, rank bound)` components.
///
/// # Errors
/// Propagates [`LinalgError`] from the inner exact SVD.
///
/// # Panics
/// Panics if `k == 0` or `a` is empty.
pub fn randomized_svd<R: Rng + ?Sized>(
    a: &Matrix,
    k: usize,
    oversample: usize,
    power_iters: usize,
    rng: &mut R,
) -> Result<Svd, LinalgError> {
    assert!(k >= 1, "randomized_svd: rank must be positive");
    assert!(!a.is_empty(), "randomized_svd: empty matrix");
    let n = a.rows();
    let d = a.cols();
    let l = (k + oversample).min(n.min(d)).max(1);

    // Range sketch: Y = A·Ω with Ω ~ N(0,1)^{d×l}.
    let omega = gaussian(rng, d, l);
    let mut y = a.matmul(&omega); // n×l

    // Power iterations with re-orthonormalisation for stability:
    // Y ← A·(Aᵀ·Q(Y)).
    for _ in 0..power_iters {
        let q = householder_qr(&y).q;
        let z = a.transpose().matmul(&q); // d×l
        y = a.matmul(&householder_qr(&z).q);
    }

    let q = householder_qr(&y).q; // n×l orthonormal
                                  // Project: B = Qᵀ·A (l×d) — small, factor exactly.
    let b = q.transpose().matmul(a);
    let small = jacobi_svd(&b)?;

    // Lift U back: U = Q·U_b, then truncate to k components.
    let u_full = q.matmul(&small.u);
    let keep = k.min(small.sigma.len());
    let mut u = Matrix::zeros(n, keep);
    for i in 0..n {
        for j in 0..keep {
            u[(i, j)] = u_full[(i, j)];
        }
    }
    let sigma = small.sigma[..keep].to_vec();
    let mut vt = Matrix::zeros(keep, d);
    for j in 0..keep {
        vt.row_mut(j).copy_from_slice(small.vt.row(j));
    }
    Ok(Svd { u, sigma, vt })
}

/// Result of [`randomized_project_svd`]: the exact `(Σ, V)` factorization
/// of the *projected* matrix `C = QᵀA`, plus a certified bound on what the
/// projection discarded.
#[derive(Debug, Clone)]
pub struct ProjectedSvd {
    /// Exact `(Σ, V)` of `C = QᵀA`. Because `CᵀC = Aᵀ(QQᵀ)A ⪯ AᵀA`
    /// (an orthogonal projector never increases energy), `‖Cx‖ ≤ ‖Ax‖`
    /// holds for **every** direction `x` — deterministically, whatever the
    /// random sketch drew.
    pub svd: SvdValuesVectors,
    /// `tail = ‖A‖²_F − ‖C‖²_F = trace(Aᵀ(I−QQᵀ)A) ≥ 0`. Since
    /// `E = Aᵀ(I−QQᵀ)A` is PSD, `trace(E) ≥ ‖E‖₂`, so `tail` is a
    /// *certified* upper bound on `‖Ax‖² − ‖Cx‖²` over unit `x` — computed
    /// from two cheap Frobenius norms, no extra factorization.
    pub tail: f64,
}

/// Randomized range-finder projection of `a` (HMT) followed by an exact
/// `(Σ, V)` factorization of the small projected matrix.
///
/// Sketches `l = rank + oversample` directions `Y = A·Ω` (Gaussian `Ω`
/// drawn from a caller-supplied `seed`, so repeated runs are
/// deterministic), optionally sharpens with `power_iters` subspace
/// iterations, orthonormalizes `Q = orth(Y)`, and factors `C = QᵀA`
/// (`l × d`) exactly on the Gram fast path. Cost `O(n·d·l)` versus
/// `O(n·min(n,d)·d)` for the exact route — the win materializes when
/// `l ≪ min(n, d)`, i.e. for the stacked-buffer shrinks of merge-heavy
/// aggregators.
///
/// The caller gets both halves of a *certified* approximation: `svd`
/// never overestimates any direction of `A`, and `tail` bounds the
/// underestimate (see [`ProjectedSvd`]). This is what lets
/// `FrequentDirections` use a randomized shrink while keeping its error
/// accounting an unconditional upper bound.
///
/// # Errors
/// Propagates [`LinalgError`] from the inner exact factorization.
///
/// # Panics
/// Panics if `rank == 0` or `a` is empty.
pub fn randomized_project_svd(
    a: &Matrix,
    rank: usize,
    oversample: usize,
    power_iters: usize,
    seed: u64,
) -> Result<ProjectedSvd, LinalgError> {
    assert!(rank >= 1, "randomized_project_svd: rank must be positive");
    assert!(!a.is_empty(), "randomized_project_svd: empty matrix");
    let n = a.rows();
    let d = a.cols();
    // Clamp the sketch width by BOTH sides: `n` so Q has orthonormal
    // columns, and `d` so the power-iteration QR of the d×l matrix
    // AᵀQ is tall. l = d already makes the projection lossless
    // (rank(A) ≤ d), so the clamp costs nothing.
    let l = (rank + oversample).min(n).min(d).max(1);

    let mut rng = StdRng::seed_from_u64(seed);
    let omega = gaussian(&mut rng, d, l);
    let mut y = a.matmul(&omega); // n×l
    for _ in 0..power_iters {
        let q = householder_qr(&y).q;
        let z = a.transpose().matmul(&q); // d×l
        y = a.matmul(&householder_qr(&z).q);
    }
    let q = householder_qr(&y).q; // n×l, orthonormal columns
    let c = q.transpose().matmul(a); // l×d
    let tail = (a.frob_norm_sq() - c.frob_norm_sq()).max(0.0);
    let svd = gram_svd_blocked(&c)?;
    Ok(ProjectedSvd { svd, tail })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::random;

    #[test]
    fn recovers_exact_low_rank() {
        let mut rng = StdRng::seed_from_u64(1);
        let a = random::with_spectrum(&mut rng, 60, 20, &[9.0, 4.0, 1.0]);
        let svd = randomized_svd(&a, 3, 5, 1, &mut rng).unwrap();
        assert_eq!(svd.sigma.len(), 3);
        for (got, want) in svd.sigma.iter().zip(&[9.0, 4.0, 1.0]) {
            assert!(
                (got - want).abs() < 1e-8 * want,
                "σ: got {got}, want {want}"
            );
        }
    }

    #[test]
    fn close_to_exact_on_decaying_spectrum() {
        let mut rng = StdRng::seed_from_u64(2);
        let spectrum: Vec<f64> = (0..15).map(|j| 10.0 * 0.6_f64.powi(j)).collect();
        let a = random::with_spectrum(&mut rng, 80, 30, &spectrum);
        let exact = jacobi_svd(&a).unwrap();
        let approx = randomized_svd(&a, 5, 8, 2, &mut rng).unwrap();
        for i in 0..5 {
            let rel = (approx.sigma[i] - exact.sigma[i]).abs() / exact.sigma[i];
            assert!(rel < 0.02, "σ_{i}: rel error {rel}");
        }
    }

    #[test]
    fn factors_are_orthonormal() {
        let mut rng = StdRng::seed_from_u64(3);
        let a = random::gaussian(&mut rng, 40, 25);
        let svd = randomized_svd(&a, 6, 4, 1, &mut rng).unwrap();
        let utu = svd.u.gram();
        let vvt = svd.vt.matmul(&svd.vt.transpose());
        for i in 0..6 {
            for j in 0..6 {
                let want = if i == j { 1.0 } else { 0.0 };
                assert!((utu[(i, j)] - want).abs() < 1e-8, "UᵀU[{i}][{j}]");
                assert!((vvt[(i, j)] - want).abs() < 1e-8, "VVᵀ[{i}][{j}]");
            }
        }
    }

    #[test]
    fn power_iterations_help_flat_spectra() {
        let mut rng = StdRng::seed_from_u64(4);
        // Slowly decaying: the q=0 sketch blurs the top space.
        let spectrum: Vec<f64> = (0..20).map(|j| 5.0 * 0.95_f64.powi(j)).collect();
        let a = random::with_spectrum(&mut rng, 100, 25, &spectrum);
        let exact = jacobi_svd(&a).unwrap();
        let err = |svd: &Svd| -> f64 {
            (0..4)
                .map(|i| (svd.sigma[i] - exact.sigma[i]).abs() / exact.sigma[i])
                .fold(0.0, f64::max)
        };
        let mut rng0 = StdRng::seed_from_u64(5);
        let mut rng2 = StdRng::seed_from_u64(5);
        let e0 = err(&randomized_svd(&a, 4, 4, 0, &mut rng0).unwrap());
        let e2 = err(&randomized_svd(&a, 4, 4, 3, &mut rng2).unwrap());
        assert!(
            e2 <= e0 + 1e-12,
            "power iterations made it worse: {e0} -> {e2}"
        );
        assert!(e2 < 0.05, "still inaccurate after power iterations: {e2}");
    }

    #[test]
    fn rank_clamped_to_dimension() {
        let mut rng = StdRng::seed_from_u64(6);
        let a = random::gaussian(&mut rng, 10, 4);
        let svd = randomized_svd(&a, 99, 5, 0, &mut rng).unwrap();
        assert!(svd.sigma.len() <= 4);
    }

    #[test]
    #[should_panic(expected = "rank must be positive")]
    fn zero_rank_panics() {
        let mut rng = StdRng::seed_from_u64(7);
        let a = random::gaussian(&mut rng, 4, 4);
        let _ = randomized_svd(&a, 0, 2, 0, &mut rng);
    }

    #[test]
    fn projection_never_overestimates_and_tail_certifies() {
        // The two ProjectedSvd guarantees, checked on both a decaying and
        // a flat spectrum (the latter is the adversarial case for range
        // finders — the sketch misses a lot, so `tail` must cover it).
        let mut rng = StdRng::seed_from_u64(40);
        let decaying: Vec<f64> = (0..20).map(|j| 10.0 * 0.7_f64.powi(j)).collect();
        let flat: Vec<f64> = vec![1.0; 20];
        for (label, spectrum) in [("decaying", decaying), ("flat", flat)] {
            let a = random::with_spectrum(&mut rng, 80, 25, &spectrum);
            let p = randomized_project_svd(&a, 6, 4, 1, 7).unwrap();
            let c = p.svd.sigma_vt();
            assert!(
                (a.frob_norm_sq() - c.frob_norm_sq() - p.tail).abs()
                    < 1e-8 * a.frob_norm_sq().max(1.0),
                "{label}: tail must equal the Frobenius gap"
            );
            for i in 0..40 {
                let x = if i < 20 {
                    random::unit_vector(&mut rng, 25)
                } else {
                    // Include the true singular directions — the extremal
                    // directions for both inequalities.
                    jacobi_svd(&a).unwrap().vt.row(i - 20).to_vec()
                };
                let ax = a.apply_norm_sq(&x);
                let cx = c.apply_norm_sq(&x);
                assert!(
                    cx <= ax + 1e-8 * ax.max(1.0),
                    "{label}: projection overestimated direction {i}: {cx} > {ax}"
                );
                assert!(
                    ax - cx <= p.tail + 1e-8 * ax.max(1.0),
                    "{label}: tail failed to certify direction {i}: {} > {}",
                    ax - cx,
                    p.tail
                );
            }
        }
    }

    #[test]
    fn projection_is_lossless_when_sketch_spans_rows() {
        // l ≥ n ⇒ Q spans the whole row space, C carries all the energy.
        let mut rng = StdRng::seed_from_u64(41);
        let a = random::gaussian(&mut rng, 6, 30);
        let p = randomized_project_svd(&a, 6, 8, 0, 9).unwrap();
        assert!(p.tail < 1e-9 * a.frob_norm_sq());
    }

    #[test]
    fn projection_is_deterministic_in_seed() {
        let mut rng = StdRng::seed_from_u64(42);
        let a = random::gaussian(&mut rng, 30, 12);
        let p1 = randomized_project_svd(&a, 4, 3, 1, 1234).unwrap();
        let p2 = randomized_project_svd(&a, 4, 3, 1, 1234).unwrap();
        assert_eq!(p1.svd.sigma, p2.svd.sigma);
        assert_eq!(p1.svd.vt.as_slice(), p2.svd.vt.as_slice());
        assert_eq!(p1.tail, p2.tail);
    }
}
