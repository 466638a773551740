//! Property-based tests on the linear-algebra substrate: decomposition
//! identities that must hold for *arbitrary* matrices, not just the
//! Gaussian ensembles the unit tests draw.

use cma_linalg::cholesky::{
    bracketed_upper_bound, certifies_lambda_max_below, lambda_max_upper_bound,
};
use cma_linalg::eigen::{
    jacobi_eigen_sym, jacobi_eigen_sym_with_basis, jacobi_eigen_sym_with_basis_tol,
    jacobi_eigen_sym_with_basis_tol_naive,
};
use cma_linalg::matrix::{accumulate_outer, accumulate_outer_panel};
use cma_linalg::ql::ql_eigen_sym;
use cma_linalg::qr::householder_qr;
use cma_linalg::svd::{gram_svd, jacobi_svd};
use cma_linalg::{random, Matrix};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Matrices with entries in `[-100, 100]`, up to 10×8 — includes
/// rank-deficient, zero and single-entry cases by construction.
fn any_matrix() -> impl Strategy<Value = Matrix> {
    (1usize..10, 1usize..8).prop_flat_map(|(n, d)| {
        prop::collection::vec(-100.0f64..100.0, n * d)
            .prop_map(move |data| Matrix::from_vec(n, d, data))
    })
}

/// Square symmetric matrices (symmetrised from arbitrary squares).
fn any_symmetric() -> impl Strategy<Value = Matrix> {
    (1usize..9).prop_flat_map(|d| {
        prop::collection::vec(-50.0f64..50.0, d * d).prop_map(move |data| {
            let a = Matrix::from_vec(d, d, data);
            a.add(&a.transpose()).scaled(0.5)
        })
    })
}

/// Shapes that straddle the blocking constants (`MATMUL_KC = 64`,
/// `GRAM_PANEL = 32`, the outer Gram's quads of 4), with ~20% of entries
/// forced to exactly `±0.0` so the blocked kernels' per-k zero-skip is
/// exercised, not just the dense path — and, in every other matrix, one
/// entry in a hundred `±∞` or NaN, whose propagation the blocked order
/// must reproduce too.
fn any_kernel_matrix() -> impl Strategy<Value = Matrix> {
    (1usize..90, 1usize..90, 0u8..2).prop_flat_map(|(n, d, special)| {
        prop::collection::vec(-100.0f64..100.0, n * d).prop_map(move |data| {
            let salted: Vec<f64> = data
                .into_iter()
                .map(|v| match v.abs() {
                    a if a < 10.0 => 0.0,
                    a if a < 20.0 => -0.0,
                    a if special == 1 && a > 99.0 => {
                        [f64::INFINITY, f64::NEG_INFINITY][(a * 1e3) as usize % 2]
                    }
                    a if special == 1 && a > 98.0 => f64::NAN,
                    _ => v,
                })
                .collect();
            Matrix::from_vec(n, d, salted)
        })
    })
}

/// The matrices the `λ_max` certificate meets: Grams `AᵀA` of a `k × n`
/// matrix, `n ∈ 1..24` (so `n = 1` too), with `k` from 0 (the zero
/// matrix) through rank-deficient (`k < n`) to full rank — and, half the
/// time, column `j` of `A` scaled by `10^eⱼ`, `eⱼ ∈ [−3, 3]`, so the
/// entries of the Gram span twelve orders of magnitude.
fn any_gram() -> impl Strategy<Value = Matrix> {
    (1usize..24, 0usize..4).prop_flat_map(|(n, shape)| {
        let k = [0, n.div_ceil(2), n, 2 * n][shape];
        (
            prop::collection::vec(-10.0f64..10.0, k * n),
            prop::collection::vec(-3.0f64..3.0, n),
            0u8..2,
        )
            .prop_map(move |(data, exponents, graded)| {
                let mut a = Matrix::from_vec(k, n, data);
                if graded == 1 {
                    for i in 0..k {
                        for (v, e) in a.row_mut(i).iter_mut().zip(&exponents) {
                            *v *= 10f64.powf(*e);
                        }
                    }
                }
                a.gram()
            })
    })
}

/// The production eigensolver's inputs, `n ∈ 1..=96` (past both
/// production shapes, 44 and 90): symmetrised squares with entries in
/// `[−10, 10]`, full-rank Grams `AᵀA` of a `2n × n` matrix, and
/// rank-deficient Grams of an `⌈n/2⌉ × n` matrix whose column `j` is
/// scaled by `10^eⱼ`, `eⱼ ∈ [−3, 3]`, so their entries span twelve orders
/// of magnitude.
fn any_eigen_input() -> impl Strategy<Value = Matrix> {
    (1usize..97, 0usize..3).prop_flat_map(|(n, kind)| {
        let k = [n, 2 * n, n.div_ceil(2)][kind];
        (
            prop::collection::vec(-10.0f64..10.0, k * n),
            prop::collection::vec(-3.0f64..3.0, n),
        )
            .prop_map(move |(data, exponents)| {
                let mut a = Matrix::from_vec(k, n, data);
                match kind {
                    0 => a.add(&a.transpose()).scaled(0.5),
                    1 => a.gram(),
                    _ => {
                        for i in 0..k {
                            for (v, e) in a.row_mut(i).iter_mut().zip(&exponents) {
                                *v *= 10f64.powf(*e);
                            }
                        }
                        a.gram()
                    }
                }
            })
    })
}

/// The constant `c` of the eigensolver accuracy bounds `c·n·u·‖S‖_F`
/// (eigenvalues, residuals) and `c·n·u` (orthogonality), `u = 2⁻⁵³`.
/// Over 3 000 draws of [`any_eigen_input`] the largest ratios measured
/// were 4.7 (eigenvalues against the oracle, whose own residuals reach
/// 23), 4.2 (residuals) and 3.3 (orthogonality); 16 leaves headroom and
/// still sits orders of magnitude below the error of an eigenvalue that
/// has not deflated.
const EIGEN_C: f64 = 16.0;

/// Judges `ql_eigen_sym(s)` against the two-pass Jacobi oracle at full
/// precision: descending eigenvalues within `c·n·u·‖S‖_F` of the
/// oracle's, every residual `‖S·v − λ·v‖₂` within `c·n·u·‖S‖_F`, and
/// every entry of `V·Vᵀ − I` within `c·n·u`.
fn assert_ql_accurate(s: &Matrix) -> Result<(), TestCaseError> {
    let n = s.rows();
    let u = f64::EPSILON / 2.0;
    let ql = ql_eigen_sym(s).unwrap();
    let oracle = jacobi_eigen_sym_with_basis_tol_naive(s, Matrix::identity(n), 1e-14).unwrap();
    prop_assert_eq!(ql.values.len(), n);
    prop_assert_eq!((ql.vectors.rows(), ql.vectors.cols()), (n, n));
    let tol = EIGEN_C * n as f64 * u * s.frob_norm();
    for (i, (l, o)) in ql.values.iter().zip(&oracle.values).enumerate() {
        prop_assert!(
            (l - o).abs() <= tol,
            "n = {n}, λ{i}: {l:e} vs {o:e} (tol {tol:e})"
        );
    }
    prop_assert!(ql.values.windows(2).all(|w| w[0] >= w[1]), "not descending");
    for i in 0..n {
        let v = ql.vectors.row(i);
        let residual: f64 = s
            .apply(v)
            .iter()
            .zip(v)
            .map(|(sv, x)| (sv - ql.values[i] * x).powi(2))
            .sum::<f64>()
            .sqrt();
        prop_assert!(
            residual <= tol,
            "n = {n}, residual {i}: {residual:e} (tol {tol:e})"
        );
    }
    let vvt = ql.vectors.matmul(&ql.vectors.transpose());
    let orth = vvt.sub(&Matrix::identity(n)).max_abs();
    prop_assert!(
        orth <= EIGEN_C * n as f64 * u,
        "n = {n}, |VVᵀ − I| = {orth:e}"
    );
    Ok(())
}

/// The inputs of MT-P2's certified check: a Gram of `n ∈ 1..=96`, with a
/// flat spectrum (`Aᵀ·A` of a Gaussian `A` with `n` to `2n` rows) or a
/// spiked one (that plus `s·vvᵀ` for a unit `v` and `s` up to ten times
/// the trace), from a seed.
fn any_check_gram() -> impl Strategy<Value = Matrix> {
    (1usize..97, 0u8..2, 0u64..1 << 40, 0.5f64..10.0).prop_map(|(n, spiked, seed, s)| {
        let mut rng = StdRng::seed_from_u64(seed);
        let k = n + (seed as usize) % (n + 1);
        let mut g = random::gaussian(&mut rng, k, n).gram();
        if spiked == 1 {
            let trace: f64 = (0..n).map(|i| g[(i, i)]).sum();
            let v = random::unit_vector(&mut rng, n);
            let spike: Vec<f64> = v.iter().map(|x| x * (s * trace).sqrt()).collect();
            accumulate_outer(&mut g, &spike);
        }
        g
    })
}

/// `λ_max` by the full-precision Jacobi eigensolve — the oracle the
/// certificate is judged against (relative error ≈ 10⁻¹², three orders
/// inside the certificate's own margin).
fn lambda_max(g: &Matrix) -> f64 {
    jacobi_eigen_sym(g).unwrap().values[0]
}

/// Entry-wise bit equality (distinguishes `-0.0` from `0.0`), except
/// that any two NaNs are equal: Rust leaves the sign and payload of a
/// NaN result unspecified, and the compiler may swap the operands of an
/// add, so only NaN-ness is the kernels' to keep.
fn bits_equal(a: &Matrix, b: &Matrix) -> bool {
    a.rows() == b.rows()
        && a.cols() == b.cols()
        && (0..a.rows()).all(|i| {
            a.row(i)
                .iter()
                .zip(b.row(i))
                .all(|(p, q)| same_value(*p, *q))
        })
}

/// Equal bits, or both NaN (see [`bits_equal`]).
fn same_value(p: f64, q: f64) -> bool {
    p.to_bits() == q.to_bits() || (p.is_nan() && q.is_nan())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// QR reconstructs and Q is orthonormal, for any tall matrix.
    #[test]
    fn qr_identity(a in any_matrix()) {
        prop_assume!(a.rows() >= a.cols());
        let qr = householder_qr(&a);
        let recon = qr.q.matmul(&qr.r);
        let scale = a.frob_norm().max(1.0);
        prop_assert!(recon.sub(&a).max_abs() <= 1e-9 * scale);
        let qtq = qr.q.gram();
        let eye = Matrix::identity(a.cols());
        prop_assert!(qtq.sub(&eye).max_abs() <= 1e-9);
    }

    /// SVD: reconstruction, non-negative descending σ, Frobenius match.
    #[test]
    fn svd_identities(a in any_matrix()) {
        let svd = jacobi_svd(&a).unwrap();
        let scale = a.frob_norm().max(1.0);
        prop_assert!(svd.reconstruct().sub(&a).max_abs() <= 1e-8 * scale);
        for w in svd.sigma.windows(2) {
            prop_assert!(w[0] >= w[1] - 1e-12);
        }
        prop_assert!(svd.sigma.iter().all(|&s| s >= 0.0));
        let sum_sq: f64 = svd.sigma.iter().map(|s| s * s).sum();
        prop_assert!((sum_sq - a.frob_norm_sq()).abs() <= 1e-7 * scale * scale);
    }

    /// Gram-path SVD matches the Jacobi reference on singular values.
    #[test]
    fn gram_svd_agrees(a in any_matrix()) {
        let j = jacobi_svd(&a).unwrap();
        let g = gram_svd(&a).unwrap();
        let scale = a.frob_norm().max(1.0);
        for (sj, sg) in j.sigma.iter().zip(&g.sigma) {
            prop_assert!((sj - sg).abs() <= 1e-6 * scale);
        }
    }

    /// Symmetric eigen: trace preserved, eigenpairs satisfy S·v = λ·v.
    #[test]
    fn eigen_identities(s in any_symmetric()) {
        let d = s.rows();
        let e = jacobi_eigen_sym(&s).unwrap();
        let scale = s.frob_norm().max(1.0);
        let trace: f64 = (0..d).map(|i| s[(i, i)]).sum();
        let sum: f64 = e.values.iter().sum();
        prop_assert!((trace - sum).abs() <= 1e-8 * scale);
        for i in 0..d {
            let v = e.vectors.row(i);
            let sv = s.apply(v);
            for k in 0..d {
                prop_assert!(
                    (sv[k] - e.values[i] * v[k]).abs() <= 1e-7 * scale,
                    "eigenpair {} coord {}", i, k
                );
            }
        }
    }

    /// The co-rotating basis variant equals eigen-then-compose.
    #[test]
    fn eigen_basis_composition(s in any_symmetric()) {
        let d = s.rows();
        // A fixed deterministic orthonormal basis: QR of a shifted matrix.
        let mut seedm = Matrix::identity(d);
        for i in 0..d {
            for j in 0..d {
                seedm[(i, j)] += 0.1 * ((i * 7 + j * 3 + 1) as f64).sin();
            }
        }
        let q = householder_qr(&seedm).q;
        let qt = q.transpose(); // rows orthonormal

        let plain = jacobi_eigen_sym(&s).unwrap();
        let based = jacobi_eigen_sym_with_basis(&s, qt.clone()).unwrap();
        let composed = plain.vectors.matmul(&qt);
        for i in 0..d {
            prop_assert!((plain.values[i] - based.values[i]).abs() <= 1e-8 * s.frob_norm().max(1.0));
            // Same line up to sign — compare via |dot| when the eigenvalue
            // is simple enough to pin the vector down.
            let gap_ok = (0..d).all(|j| j == i || (plain.values[j] - plain.values[i]).abs() > 1e-6);
            if gap_ok {
                let dot: f64 = composed
                    .row(i)
                    .iter()
                    .zip(based.vectors.row(i))
                    .map(|(x, y)| x * y)
                    .sum();
                prop_assert!(dot.abs() >= 1.0 - 1e-6, "row {}: |dot| = {}", i, dot.abs());
            }
        }
    }

    /// Blocked kernels are BIT-IDENTICAL to the naive references on
    /// arbitrary shapes — including shapes that straddle the blocking
    /// constants (k up to 90 crosses `MATMUL_KC = 64`; rows up to 90
    /// cross `GRAM_PANEL = 32`) and matrices salted with exact `±0.0`,
    /// which exercise the per-k zero-skip that keeps `-0.0` rows from
    /// flipping sign in the blocked accumulation order, and with `±∞`
    /// and NaN. Equality is bit equality on every entry (NaN-ness for a
    /// NaN, see `bits_equal`), not a tolerance: the blocked loops commit
    /// to the naive ascending-k single-accumulator order exactly.
    #[test]
    fn blocked_kernels_bit_identical(a in any_kernel_matrix(), b_data in prop::collection::vec(-100.0f64..100.0, 90 * 12)) {
        let (n, k) = (a.rows(), a.cols());
        let bn = 1 + (b_data[0].abs() as usize) % 12;
        let b = Matrix::from_vec(k, bn, b_data[..k * bn].to_vec());

        let blocked = a.matmul(&b);
        let naive = a.matmul_naive(&b);
        prop_assert!(bits_equal(&blocked, &naive), "matmul diverged");

        prop_assert!(bits_equal(&a.gram(), &a.gram_naive()), "gram diverged");
        prop_assert!(
            bits_equal(&a.outer_gram(), &a.outer_gram_naive()),
            "outer_gram diverged"
        );

        let x: Vec<f64> = (0..n).map(|i| ((i * 13 + 7) as f64).sin() * 3.0).collect();
        let yb = a.apply_transpose(&x);
        let yn = a.apply_transpose_naive(&x);
        prop_assert!(
            yb.iter().zip(&yn).all(|(p, q)| same_value(*p, *q)),
            "apply_transpose diverged"
        );

        let mut gp = a.gram();
        let mut gr = gp.clone();
        accumulate_outer_panel(&mut gp, &a);
        for r in 0..n {
            accumulate_outer(&mut gr, a.row(r));
        }
        prop_assert!(bits_equal(&gp, &gr), "accumulate_outer_panel diverged");
    }

    /// The row-pair Jacobi rewrite agrees with the naive reference to
    /// solver tolerance on eigenvalues (the rotations are identical;
    /// only corner-rounding in the fused updates differs), under the
    /// loose tolerance MT-P2's hot loop actually uses.
    #[test]
    fn eigen_fast_matches_naive(s in any_symmetric()) {
        let d = s.rows();
        let fast = jacobi_eigen_sym_with_basis_tol(&s, Matrix::identity(d), 1e-9).unwrap();
        let naive = jacobi_eigen_sym_with_basis_tol_naive(&s, Matrix::identity(d), 1e-9).unwrap();
        let scale = s.frob_norm().max(1.0);
        for (vf, vn) in fast.values.iter().zip(&naive.values) {
            prop_assert!((vf - vn).abs() <= 1e-7 * scale, "{vf} vs {vn}");
        }
    }

    /// The production eigensolver against the Jacobi oracle on random
    /// symmetric matrices and Grams up to `n = 96` (`assert_ql_accurate`).
    #[test]
    fn ql_matches_jacobi_oracle(s in any_eigen_input()) {
        assert_ql_accurate(&s)?;
    }

    /// Soundness — what the `ε‖A‖²_F` guarantee of MT-P2 rests on: the
    /// certificate never passes at any `c ≤ λ_max`, however close.
    #[test]
    fn certificate_never_passes_at_or_below_lambda_max(g in any_gram(), t in 0.0f64..1.0) {
        let top = lambda_max(&g);
        for c in [top, top * (1.0 - 1e-12), top * (1.0 - 1e-6), top * t, 0.0, -top] {
            prop_assert!(
                !certifies_lambda_max_below(&g, c),
                "n = {}: passed at c = {c:e} ≤ λ_max = {top:e}", g.rows()
            );
        }
    }

    /// Completeness — what the speed rests on: the certificate passes
    /// at every `c ≥ λ_max·(1 + 10⁻⁶)` (any positive `c` for the zero
    /// matrix).
    #[test]
    fn certificate_passes_just_above_lambda_max(g in any_gram(), t in 0.0f64..12.0) {
        let top = lambda_max(&g);
        let just_above = (top * (1.0 + 1e-6)).max(f64::MIN_POSITIVE);
        for c in [just_above, just_above * 10f64.powf(t), just_above.max(1.0)] {
            prop_assert!(
                certifies_lambda_max_below(&g, c),
                "n = {}: refused at c = {c:e}, λ_max = {top:e}", g.rows()
            );
        }
    }

    /// The bisected bound stays in `[λ_max, hi]` and lands within one
    /// 32nd of the bracket it started from.
    #[test]
    fn upper_bound_brackets_lambda_max(g in any_gram(), t in 0.001f64..4.0) {
        let top = lambda_max(&g);
        let hi = (top * (1.0 + t)).max(1e-3);
        prop_assert!(certifies_lambda_max_below(&g, hi));
        let bound = lambda_max_upper_bound(&g, hi);
        prop_assert!(top <= bound && bound <= hi, "{top:e} ≤ {bound:e} ≤ {hi:e}");
        let max_diag = (0..g.rows()).map(|i| g[(i, i)]).fold(0.0, f64::max);
        prop_assert!(
            bound <= top * (1.0 + 1e-6) + (hi - max_diag) / 32.0,
            "bound {bound:e} loose: λ_max {top:e}, bracket [{max_diag:e}, {hi:e}]"
        );
    }

    /// The bracketed bound is the certificate followed by the bisected
    /// bound, bit for bit, whatever it starts from: warm vectors that are
    /// zero, NaN, `±∞` (no bracket), the top eigenvector, orthogonal to it
    /// or random; sends within `10⁻⁹` of `λ_max` (the certificate's
    /// sliver), just past its completeness bound, far above, at the
    /// largest diagonal entry, and non-positive or non-finite ones.
    #[test]
    fn bracketed_bound_is_certificate_then_bisection(
        g in any_check_gram(),
        t in -1.0f64..1.0,
        far in 1.0f64..4.0,
        seed in 0u64..1 << 40,
    ) {
        let n = g.rows();
        let eig = jacobi_eigen_sym(&g).unwrap();
        let top = eig.values[0];
        let top_vec = eig.vectors.row(0).to_vec();
        let mut rng = StdRng::seed_from_u64(seed);
        let random_vec = random::unit_vector(&mut rng, n);
        let along: f64 = random_vec.iter().zip(&top_vec).map(|(a, b)| a * b).sum();
        let orthogonal: Vec<f64> = random_vec
            .iter()
            .zip(&top_vec)
            .map(|(a, b)| a - along * b)
            .collect();
        let mut warms = vec![vec![0.0; n], top_vec, orthogonal, random_vec];
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let mut w = warms[3].clone();
            w[seed as usize % n] = bad;
            warms.push(w);
        }
        let max_diag = (0..n).map(|i| g[(i, i)]).fold(f64::NEG_INFINITY, f64::max);
        let sends = [
            top * (1.0 + 1e-9 * t),
            top * (1.0 + 1e-9),
            top * (1.0 + 2e-6),
            top * (1.0 + 1e-4),
            top * (1.0 + 1e-2 * far),
            top * far,
            top * 1.25,
            max_diag,
            0.0,
            -top,
            f64::INFINITY,
            f64::NAN,
        ];
        for send in sends {
            let pair = certifies_lambda_max_below(&g, send).then(|| lambda_max_upper_bound(&g, send));
            for (i, warm) in warms.iter().enumerate() {
                let mut warm = warm.clone();
                let got = bracketed_upper_bound(&g, send, &mut warm);
                prop_assert!(
                    got.map(f64::to_bits) == pair.map(f64::to_bits),
                    "n = {n}, send = {send:e}, λ_max = {top:e}, warm {i}: {got:?} vs {pair:?}"
                );
            }
        }
    }

    /// `‖Ax‖ ≤ σ₁·‖x‖` for arbitrary x (operator-norm consistency).
    #[test]
    fn spectral_norm_dominates(
        a in any_matrix(),
        xs in prop::collection::vec(-10.0f64..10.0, 8),
    ) {
        let svd = jacobi_svd(&a).unwrap();
        let sigma1 = svd.sigma.first().copied().unwrap_or(0.0);
        let x = &xs[..a.cols().min(xs.len())];
        prop_assume!(x.len() == a.cols());
        let xnorm = x.iter().map(|v| v * v).sum::<f64>().sqrt();
        let ax = a.apply_norm_sq(x).sqrt();
        prop_assert!(ax <= sigma1 * xnorm + 1e-7 * sigma1.max(1.0));
    }
}

/// The edge cases of the production eigensolver, each judged by
/// `assert_ql_accurate` plus what the case pins exactly.
#[test]
fn ql_edge_cases() {
    // n = 0 and n = 1.
    let empty = ql_eigen_sym(&Matrix::zeros(0, 0)).unwrap();
    assert!(empty.values.is_empty() && empty.vectors.rows() == 0);
    let one = Matrix::from_vec(1, 1, vec![-3.25]);
    assert_eq!(ql_eigen_sym(&one).unwrap().values, vec![-3.25]);
    assert_ql_accurate(&one).unwrap();

    // The zero matrix: all-zero spectrum, still an orthonormal basis.
    let zero = Matrix::zeros(7, 7);
    assert!(ql_eigen_sym(&zero)
        .unwrap()
        .values
        .iter()
        .all(|&l| l == 0.0));
    assert_ql_accurate(&zero).unwrap();

    // Already diagonal: exact eigenvalues, coordinate eigenvectors.
    let diag_values = [3.0, -1.0, 0.5, 8.0, 0.0, -7.5];
    let mut diag = Matrix::zeros(6, 6);
    for (i, &v) in diag_values.iter().enumerate() {
        diag[(i, i)] = v;
    }
    let e = ql_eigen_sym(&diag).unwrap();
    let mut sorted = diag_values.to_vec();
    sorted.sort_by(|a, b| b.partial_cmp(a).unwrap());
    assert_eq!(e.values, sorted);
    for (i, &l) in e.values.iter().enumerate() {
        let j = diag_values.iter().position(|&v| v == l).unwrap();
        assert_eq!(e.vectors.row(i)[j].abs(), 1.0, "row {i}");
    }

    // Already tridiagonal (the reduction has nothing to do).
    let n = 12;
    let mut tri = Matrix::zeros(n, n);
    for i in 0..n {
        tri[(i, i)] = 2.0 + (i as f64).sin();
        if i + 1 < n {
            tri[(i, i + 1)] = -1.0 + 0.1 * i as f64;
            tri[(i + 1, i)] = tri[(i, i + 1)];
        }
    }
    assert_ql_accurate(&tri).unwrap();

    // Repeated eigenvalues: c·I (one n-fold eigenvalue) and a rank-1
    // u·uᵀ (an (n−1)-fold zero), where eigenvectors are not unique and
    // only residual and orthogonality pin them.
    let c_eye = Matrix::identity(9).scaled(2.5);
    let e = ql_eigen_sym(&c_eye).unwrap();
    assert!(e.values.iter().all(|&l| l == 2.5));
    assert_ql_accurate(&c_eye).unwrap();
    let u: Vec<f64> = (0..10).map(|i| 1.0 + 0.3 * i as f64).collect();
    let mut rank1 = Matrix::zeros(10, 10);
    accumulate_outer(&mut rank1, &u);
    assert_ql_accurate(&rank1).unwrap();
    let top = ql_eigen_sym(&rank1).unwrap();
    let u_norm_sq: f64 = u.iter().map(|x| x * x).sum();
    assert!((top.values[0] - u_norm_sq).abs() <= 1e-13 * u_norm_sq);

    // A Gram whose entries span twelve orders of magnitude.
    let n = 20;
    let mut a = Matrix::zeros(2 * n, n);
    for i in 0..2 * n {
        for j in 0..n {
            let grade = 10f64.powf(-3.0 + 6.0 * j as f64 / (n - 1) as f64);
            a[(i, j)] = ((i * 31 + j * 17) as f64).sin() * grade;
        }
    }
    assert_ql_accurate(&a.gram()).unwrap();
}
