//! Property-based tests (proptest) on the workspace's core invariants:
//! arbitrary weighted streams and arbitrary small matrices, rather than
//! the fixed distributions the other suites use.

use cma::linalg::svd::{gram_svd, jacobi_svd};
use cma::linalg::Matrix;
use cma::protocols::hh::{p1, p2, HhConfig, HhEstimator};
use cma::sketch::{ExactWeightedCounter, FrequentDirections, MgSummary};
use proptest::prelude::*;

/// Streams of up to 400 items from a small universe with weights in
/// `[1, 50]` — adversarial shapes for the counter sketches.
fn weighted_stream() -> impl Strategy<Value = Vec<(u64, f64)>> {
    prop::collection::vec((0u64..30, 1.0f64..50.0), 1..400)
}

/// Small matrices with entries in `[-10, 10]`.
fn small_matrix() -> impl Strategy<Value = Matrix> {
    (1usize..12, 1usize..8).prop_flat_map(|(n, d)| {
        prop::collection::vec(-10.0f64..10.0, n * d)
            .prop_map(move |data| Matrix::from_vec(n, d, data))
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Misra–Gries invariant on arbitrary weighted streams:
    /// `0 ≤ fe − f̂e ≤ W/(ℓ+1)` for every item.
    #[test]
    fn mg_invariant(stream in weighted_stream(), cap in 1usize..12) {
        let mut mg = MgSummary::new(cap);
        let mut exact = ExactWeightedCounter::new();
        for &(e, w) in &stream {
            mg.update(e, w);
            exact.update(e, w);
        }
        let bound = mg.error_bound() + 1e-9;
        for (e, f) in exact.iter() {
            let est = mg.estimate(e);
            prop_assert!(est <= f + 1e-9, "overestimate on {}", e);
            prop_assert!(f - est <= bound, "undercount {} > {}", f - est, bound);
        }
    }

    /// Misra–Gries merge keeps the combined-stream invariant.
    #[test]
    fn mg_merge_invariant(
        s1 in weighted_stream(),
        s2 in weighted_stream(),
        cap in 2usize..10,
    ) {
        let mut a = MgSummary::new(cap);
        let mut b = MgSummary::new(cap);
        let mut exact = ExactWeightedCounter::new();
        for &(e, w) in &s1 { a.update(e, w); exact.update(e, w); }
        for &(e, w) in &s2 { b.update(e, w); exact.update(e, w); }
        a.merge(&b);
        let bound = a.error_bound() + 1e-9;
        for (e, f) in exact.iter() {
            let est = a.estimate(e);
            prop_assert!(est <= f + 1e-9);
            prop_assert!(f - est <= bound);
        }
    }

    /// Frequent Directions guarantee on arbitrary matrices:
    /// `0 ≤ ‖Ax‖² − ‖Bx‖² ≤ 2‖A‖²F/ℓ` along every standard basis vector
    /// and the matrix's own singular directions.
    #[test]
    fn fd_guarantee(a in small_matrix(), ell in 2usize..8) {
        let d = a.cols();
        let mut fd = FrequentDirections::new(d, ell.max(2));
        for r in a.iter_rows() {
            fd.update(r);
        }
        let slack = 1e-7 * a.frob_norm_sq().max(1.0);
        let bound = fd.error_bound() + slack;

        let mut dirs: Vec<Vec<f64>> = (0..d)
            .map(|i| {
                let mut e = vec![0.0; d];
                e[i] = 1.0;
                e
            })
            .collect();
        if let Ok(svd) = jacobi_svd(&a) {
            for i in 0..svd.sigma.len().min(3) {
                dirs.push(svd.vt.row(i).to_vec());
            }
        }
        for x in &dirs {
            let ax = a.apply_norm_sq(x);
            let bx = fd.query(x);
            prop_assert!(bx <= ax + slack, "overestimate: {} > {}", bx, ax);
            prop_assert!(ax - bx <= bound, "error {} > bound {}", ax - bx, bound);
        }
    }

    /// The two SVD routes agree on singular values and Gram matrices.
    #[test]
    fn svd_routes_agree(a in small_matrix()) {
        let j = jacobi_svd(&a).unwrap();
        let g = gram_svd(&a).unwrap();
        let scale = a.frob_norm().max(1.0);
        for (sj, sg) in j.sigma.iter().zip(&g.sigma) {
            prop_assert!((sj - sg).abs() < 1e-6 * scale, "σ: {} vs {}", sj, sg);
        }
        // Gram reconstruction: ‖AᵀA − (ΣVᵀ)ᵀ(ΣVᵀ)‖∞ small.
        let b = g.sigma_vt();
        let diff = a.gram().sub(&b.gram());
        prop_assert!(diff.max_abs() <= 1e-6 * scale * scale);
    }

    /// SVD reconstruction: `UΣVᵀ = A` for arbitrary small matrices.
    #[test]
    fn jacobi_svd_reconstructs(a in small_matrix()) {
        let svd = jacobi_svd(&a).unwrap();
        let diff = svd.reconstruct().sub(&a);
        prop_assert!(diff.max_abs() <= 1e-8 * a.frob_norm().max(1.0));
    }

    /// End-to-end protocol property: P1 and P2 meet the εW bound on
    /// arbitrary (not just Zipfian) weighted streams, any site count.
    #[test]
    fn protocols_bound_arbitrary_streams(
        stream in weighted_stream(),
        m in 1usize..6,
    ) {
        let eps = 0.25;
        let cfg = HhConfig::new(m, eps).with_seed(1);
        let mut exact = ExactWeightedCounter::new();
        let mut r1 = p1::deploy(&cfg);
        let mut r2 = p2::deploy(&cfg);
        for (i, &(e, w)) in stream.iter().enumerate() {
            exact.update(e, w);
            r1.feed(i % m, (e, w));
            r2.feed(i % m, (e, w));
        }
        let w = exact.total_weight();
        for (e, f) in exact.iter() {
            let e1 = (r1.coordinator().estimate(e) - f).abs();
            let e2 = (r2.coordinator().estimate(e) - f).abs();
            prop_assert!(e1 <= eps * w + 1e-9, "P1 item {}: {} > εW={}", e, e1, eps * w);
            prop_assert!(e2 <= eps * w + 1e-9, "P2 item {}: {} > εW={}", e, e2, eps * w);
        }
    }
}
