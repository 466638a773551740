//! Frequent Directions matrix sketch.
//!
//! Liberty's Frequent Directions (FD, SIGKDD 2013) is the matrix analogue
//! of Misra–Gries: it maintains a sketch `B` of at most `ℓ` rows such that
//! for every unit vector `x`
//!
//! ```text
//! 0 ≤ ‖Ax‖² − ‖Bx‖² ≤ Δ ≤ 2·‖A‖²_F / ℓ
//! ```
//!
//! where `Δ` is the total "shrinkage" mass the sketch has discarded
//! (tracked exactly as [`FrequentDirections::shrink_loss`]). When the
//! buffer fills, the sketch is rotated into its singular basis, the
//! `⌈ℓ/2⌉`-th largest squared singular value `δ` is subtracted from every
//! squared singular value, and the (at least half) rows that hit zero are
//! freed.
//!
//! Two properties matter for the distributed protocols:
//!
//! * **Mergeability** (Agarwal et al., PODS 2012): two FD sketches can be
//!   merged (stack + one shrink) with the error of the *combined* stream —
//!   this is what lets the coordinator of protocol MT-P1 fold in
//!   per-site sketches.
//! * The shrink step only needs `(Σ, V)` of the buffer, never `U`, so it
//!   runs on the Gram fast path [`cma_linalg::svd::gram_svd_blocked`],
//!   which eigendecomposes the smaller Gram of the buffer with Householder
//!   tridiagonalisation + QL ([`cma_linalg::ql::ql_eigen_sym`]).
//!   `O(ℓ²d + ℓ³)` per shrink, amortised `O(ℓd)` per appended row — the
//!   paper's `O(dℓ)` amortised update. Every shrink is the exact one, so
//!   `Δ ≤ 2‖A‖²_F/ℓ` holds by the textbook argument.
//!   [`FrequentDirections::rank_k_sketch`] and
//!   [`FrequentDirections::top_directions`] decompose through the same
//!   route.

use cma_linalg::svd::gram_svd_blocked;
use cma_linalg::{FdShrink, KernelPath, Matrix};

/// Frequent Directions sketch with at most `ℓ` buffered rows.
#[derive(Debug, Clone)]
pub struct FrequentDirections {
    d: usize,
    ell: usize,
    /// Current sketch rows (only the nonzero rows are stored).
    buf: Matrix,
    /// Exact squared Frobenius norm of everything fed in (`‖A‖²_F`).
    frob_sq: f64,
    /// Total shrinkage `Δ = Σ δ`: a valid upper bound on
    /// `‖Ax‖² − ‖Bx‖²` for every unit `x`, and `≤ 2‖A‖²_F/ℓ`.
    shrink_loss: f64,
}

impl FrequentDirections {
    /// Creates a sketch over `d`-dimensional rows with buffer size `ℓ`.
    ///
    /// # Panics
    /// Panics if `ell < 2` (the shrink step needs at least two rows) or
    /// `d == 0`.
    pub fn new(d: usize, ell: usize) -> Self {
        assert!(ell >= 2, "FrequentDirections: ell must be at least 2");
        assert!(d >= 1, "FrequentDirections: dimension must be positive");
        FrequentDirections {
            d,
            ell,
            buf: Matrix::with_cols(d),
            frob_sq: 0.0,
            shrink_loss: 0.0,
        }
    }

    /// Creates a sketch guaranteeing `‖Ax‖² − ‖Bx‖² ≤ epsilon·‖A‖²_F`,
    /// i.e. `ℓ = ⌈2/ε⌉`.
    ///
    /// # Panics
    /// Panics unless `0 < epsilon ≤ 1`.
    pub fn with_error_bound(d: usize, epsilon: f64) -> Self {
        assert!(
            epsilon > 0.0 && epsilon <= 1.0,
            "FrequentDirections: epsilon must be in (0, 1]"
        );
        Self::new(d, ((2.0 / epsilon).ceil() as usize).max(2))
    }

    /// Reassembles a sketch from its transported parts: the current
    /// sketch rows plus the two error-carrying scalars.
    ///
    /// # Panics
    /// Panics if `ell < 2`, `d == 0`, or `sketch` has a different
    /// column count or more than `ell` rows.
    pub fn from_parts(
        d: usize,
        ell: usize,
        sketch: Matrix,
        frob_sq: f64,
        shrink_loss: f64,
    ) -> Self {
        let mut fd = Self::new(d, ell);
        assert!(
            sketch.cols() == d && sketch.rows() <= ell,
            "FrequentDirections::from_parts: sketch shape {}×{} does not fit d={d}, ell={ell}",
            sketch.rows(),
            sketch.cols(),
        );
        fd.buf = sketch;
        fd.frob_sq = frob_sq;
        fd.shrink_loss = shrink_loss;
        fd
    }

    /// Returns the sketch unchanged: [`FdShrink`] has one value. Kept for
    /// the frozen `benchmark/` package until ROADMAP item 4(d).
    #[must_use]
    pub fn using_shrink(self, _shrink: FdShrink) -> Self {
        self
    }

    /// Returns the sketch unchanged: [`KernelPath`] has one value. Kept
    /// for the frozen `benchmark/` package until ROADMAP item 4(d).
    #[must_use]
    pub fn using_kernels(self, _kernels: KernelPath) -> Self {
        self
    }

    /// Row dimensionality `d`.
    pub fn dim(&self) -> usize {
        self.d
    }

    /// Buffer size `ℓ`.
    pub fn ell(&self) -> usize {
        self.ell
    }

    /// `true` if no rows have been absorbed.
    pub fn is_empty(&self) -> bool {
        self.buf.rows() == 0 && self.frob_sq == 0.0
    }

    /// Exact `‖A‖²_F` of the data fed in so far.
    pub fn frob_sq_seen(&self) -> f64 {
        self.frob_sq
    }

    /// Accumulated shrinkage `Δ`: the tightest known upper bound on
    /// `‖Ax‖² − ‖Bx‖²`. Always `≤ 2·‖A‖²_F/ℓ` (the a-priori bound).
    pub fn shrink_loss(&self) -> f64 {
        self.shrink_loss
    }

    /// The a-priori error bound `2‖A‖²_F/ℓ`.
    pub fn error_bound(&self) -> f64 {
        2.0 * self.frob_sq / self.ell as f64
    }

    /// The current sketch matrix `B` (`≤ ℓ` rows, `d` columns).
    pub fn sketch(&self) -> &Matrix {
        &self.buf
    }

    /// `‖Bx‖²` for an arbitrary direction `x` (not necessarily unit).
    pub fn query(&self, x: &[f64]) -> f64 {
        self.buf.apply_norm_sq(x)
    }

    /// Absorbs one row.
    ///
    /// # Panics
    /// Panics if `row.len() != self.dim()`, if the row's squared norm is
    /// not finite (a NaN or infinite entry, or an overflow) — it would
    /// void `frob_sq_seen` and every bound derived from it — or (never
    /// observed) if the eigensolver of a shrink does not converge.
    pub fn update(&mut self, row: &[f64]) {
        assert_eq!(
            row.len(),
            self.d,
            "FrequentDirections: row dimension mismatch"
        );
        self.frob_sq += finite_norm_sq(row);
        self.buf.push_row(row);
        if self.buf.rows() >= self.ell {
            self.shrink(self.ell.div_ceil(2) - 1);
        }
    }

    /// The textbook shrink, leaving at most `keep` rows: rotates into the
    /// singular basis and subtracts `δ = σ²_{keep}` (0-indexed) from every
    /// squared singular value.
    fn shrink(&mut self, keep: usize) {
        let svd = gram_svd_blocked(&self.buf).expect("FrequentDirections: eigensolver diverged");
        let r = svd.sigma.len();
        if r <= keep {
            // Fewer directions than the cut point — just re-express
            // compactly (no error introduced).
            self.buf = svd.sigma_vt();
            self.compact();
            return;
        }
        let delta = svd.sigma[keep] * svd.sigma[keep];
        self.shrink_loss += delta;
        let mut out = Matrix::with_cols(self.d);
        for i in 0..keep {
            let s2 = svd.sigma[i] * svd.sigma[i] - delta;
            if s2 <= 0.0 {
                continue;
            }
            let s = s2.sqrt();
            let mut row = svd.vt.row(i).to_vec();
            for v in &mut row {
                *v *= s;
            }
            out.push_row(&row);
        }
        self.buf = out;
    }

    /// Drops all-zero rows after a lossless re-expression.
    fn compact(&mut self) {
        let mut out = Matrix::with_cols(self.d);
        for row in self.buf.iter_rows() {
            if row.iter().any(|&v| v != 0.0) {
                out.push_row(row);
            }
        }
        self.buf = out;
    }

    /// Merges another sketch of the same shape into this one: stacks the
    /// buffers and, if more than `ℓ − 1` rows survive, performs one shrink
    /// to `⌈ℓ/2⌉ − 1` rows. The combined sketch keeps the FD guarantee
    /// with respect to the union of both input streams.
    ///
    /// # Panics
    /// Panics if dimensions or `ℓ` differ.
    pub fn merge(&mut self, other: &FrequentDirections) {
        assert_eq!(
            self.d, other.d,
            "FrequentDirections::merge: dimension mismatch"
        );
        assert_eq!(
            self.ell, other.ell,
            "FrequentDirections::merge: ell mismatch"
        );
        self.buf.stack(&other.buf);
        self.frob_sq += other.frob_sq;
        self.shrink_loss += other.shrink_loss;
        if self.buf.rows() >= self.ell {
            self.shrink(self.ell.div_ceil(2) - 1);
        }
    }

    /// Merges a *flushed sketch* — a stack of rows already summarising
    /// some stream — into this sketch: the rows are stacked in one go
    /// and at most **one** shrink follows, instead of the per-row shrink
    /// cadence [`FrequentDirections::update`] would run. This is the
    /// Agarwal et al. merge with the second operand given as its row
    /// matrix, and the workhorse of tree-structured aggregation
    /// (protocol MT-P1's interior nodes and coordinator fold received
    /// sketches with it): same combined-stream guarantee, a fraction of
    /// the eigensolves.
    ///
    /// # Panics
    /// Panics if `rows` has a different column count or a row whose
    /// squared norm is not finite (as [`FrequentDirections::update`]).
    pub fn merge_rows(&mut self, rows: &Matrix) {
        assert_eq!(
            rows.cols(),
            self.d,
            "FrequentDirections::merge_rows: dimension mismatch"
        );
        for row in rows.iter_rows() {
            self.frob_sq += finite_norm_sq(row);
            self.buf.push_row(row);
        }
        if self.buf.rows() >= self.ell {
            self.shrink(self.ell.div_ceil(2) - 1);
        }
    }

    /// Extracts the current sketch and resets the state (keeping `d`, `ℓ`).
    /// This is the "flush" operation of protocol MT-P1 sites.
    pub fn take(&mut self) -> (Matrix, f64) {
        let buf = std::mem::replace(&mut self.buf, Matrix::with_cols(self.d));
        let frob = self.frob_sq;
        self.frob_sq = 0.0;
        self.shrink_loss = 0.0;
        (buf, frob)
    }

    /// The best rank-`k` part of the sketch, `B_k = Σ_k V_kᵀ` (rows are
    /// `σᵢ vᵢᵀ` for the sketch's top `k` directions).
    ///
    /// This is the `B_k` of the relative-error Frequent Directions
    /// analysis (Ghashami & Phillips, SODA 2014 — reference \[21\] of the
    /// paper): with `ℓ = O(k/ε)` rows,
    /// `‖A‖²_F − ‖B_k‖²_F ≤ (1+ε)·‖A − A_k‖²_F` and projecting `A` onto
    /// `B_k`'s row space loses at most `(1+ε)` times the optimal rank-`k`
    /// residual. The integration tests check both empirically.
    ///
    /// # Panics
    /// Panics (never observed) if the eigensolver fails to converge.
    pub fn rank_k_sketch(&self, k: usize) -> Matrix {
        let svd = gram_svd_blocked(&self.buf).expect("FrequentDirections: eigensolver diverged");
        let mut out = Matrix::with_cols(self.d);
        for i in 0..k.min(svd.sigma.len()) {
            if svd.sigma[i] <= 0.0 {
                break;
            }
            let mut row = svd.vt.row(i).to_vec();
            for v in &mut row {
                *v *= svd.sigma[i];
            }
            out.push_row(&row);
        }
        out
    }

    /// The top-`k` right singular vectors of the sketch as rows — the
    /// subspace a PCA/LSI consumer would project onto.
    ///
    /// # Panics
    /// Panics (never observed) if the eigensolver fails to converge.
    pub fn top_directions(&self, k: usize) -> Matrix {
        let svd = gram_svd_blocked(&self.buf).expect("FrequentDirections: eigensolver diverged");
        let mut out = Matrix::with_cols(self.d);
        for i in 0..k.min(svd.sigma.len()) {
            if svd.sigma[i] <= 0.0 {
                break;
            }
            out.push_row(svd.vt.row(i));
        }
        out
    }
}

/// `‖row‖²`, asserted finite: a NaN or infinite entry (or an overflow)
/// would otherwise turn `frob_sq_seen` and `error_bound` into NaN and
/// surface only at the next shrink, as a failing eigensolver.
fn finite_norm_sq(row: &[f64]) -> f64 {
    let sq = row.iter().map(|v| v * v).sum::<f64>();
    assert!(
        sq.is_finite(),
        "FrequentDirections: non-finite row (squared norm {sq}: a NaN or infinite entry, or overflow)"
    );
    sq
}

#[cfg(test)]
mod tests {
    use super::*;
    use cma_linalg::random;
    use cma_linalg::svd::jacobi_svd;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// Exhaustively checks the FD guarantee against many random directions
    /// plus the singular directions of A (the worst cases).
    fn assert_fd_guarantee(a: &Matrix, fd: &FrequentDirections) {
        let mut rng = StdRng::seed_from_u64(0xFD);
        let slack = 1e-7 * a.frob_norm_sq().max(1.0);
        let bound = fd.error_bound() + slack;
        let loss = fd.shrink_loss() + slack;
        assert!(
            fd.shrink_loss() <= fd.error_bound() + slack,
            "Δ exceeds 2‖A‖²F/ℓ"
        );

        let mut dirs: Vec<Vec<f64>> = (0..20)
            .map(|_| random::unit_vector(&mut rng, a.cols()))
            .collect();
        let svd = jacobi_svd(a).unwrap();
        for i in 0..svd.sigma.len().min(4) {
            dirs.push(svd.vt.row(i).to_vec());
        }
        for x in &dirs {
            let ax = a.apply_norm_sq(x);
            let bx = fd.query(x);
            assert!(bx <= ax + slack, "‖Bx‖² exceeds ‖Ax‖²: {bx} > {ax}");
            assert!(
                ax - bx <= loss,
                "error {} exceeds tracked loss {}",
                ax - bx,
                loss
            );
            assert!(
                ax - bx <= bound,
                "error {} exceeds bound {}",
                ax - bx,
                bound
            );
        }
    }

    #[test]
    fn exact_until_buffer_full() {
        let mut fd = FrequentDirections::new(3, 8);
        let a = Matrix::from_rows(&[
            vec![1.0, 0.0, 0.0],
            vec![0.0, 2.0, 0.0],
            vec![1.0, 1.0, 1.0],
        ]);
        for r in a.iter_rows() {
            fd.update(r);
        }
        assert_eq!(fd.shrink_loss(), 0.0);
        let x = [0.5, 0.5, std::f64::consts::FRAC_1_SQRT_2];
        assert!((fd.query(&x) - a.apply_norm_sq(&x)).abs() < 1e-12);
    }

    #[test]
    fn guarantee_random_gaussian() {
        let mut rng = StdRng::seed_from_u64(1);
        let a = random::gaussian(&mut rng, 300, 10);
        let mut fd = FrequentDirections::new(10, 12);
        for r in a.iter_rows() {
            fd.update(r);
        }
        assert!(fd.sketch().rows() <= 12);
        assert_fd_guarantee(&a, &fd);
    }

    #[test]
    fn guarantee_low_rank_input() {
        let mut rng = StdRng::seed_from_u64(2);
        let a = random::with_spectrum(&mut rng, 200, 12, &[40.0, 20.0, 8.0]);
        let mut fd = FrequentDirections::new(12, 8);
        for r in a.iter_rows() {
            fd.update(r);
        }
        assert_fd_guarantee(&a, &fd);
        // Low-rank input: FD should capture the top direction almost
        // exactly since the tail mass (which drives δ) is tiny.
        let svd = jacobi_svd(&a).unwrap();
        let v1 = svd.vt.row(0);
        let captured = fd.query(v1) / a.apply_norm_sq(v1);
        assert!(captured > 0.95, "top direction only {captured} captured");
    }

    #[test]
    fn guarantee_under_blocked_kernels_at_production_shape() {
        // The shape every SwFd bucket merge decomposes (two ℓ = 40
        // sketches stacked at d = 44: an 80×44 buffer, a 44×44 Gram) on a
        // flat spectrum, where the shrink's σ²_keep is an interior
        // eigenvalue with no gap around it — through the production
        // eigensolver, shrinks and merges alike.
        let mut rng = StdRng::seed_from_u64(44);
        let a = random::gaussian(&mut rng, 1_200, 44);
        let mut whole = FrequentDirections::new(44, 80);
        let mut parts: Vec<FrequentDirections> =
            (0..3).map(|_| FrequentDirections::new(44, 40)).collect();
        for (i, r) in a.iter_rows().enumerate() {
            whole.update(r);
            parts[i % 3].update(r);
        }
        assert_fd_guarantee(&a, &whole);
        let mut merged = parts.remove(0);
        for p in &parts {
            merged.merge(p);
        }
        assert_fd_guarantee(&a, &merged);
    }

    #[test]
    fn frobenius_tracking_exact() {
        let mut rng = StdRng::seed_from_u64(3);
        let a = random::gaussian(&mut rng, 100, 6);
        let mut fd = FrequentDirections::new(6, 4);
        for r in a.iter_rows() {
            fd.update(r);
        }
        assert!((fd.frob_sq_seen() - a.frob_norm_sq()).abs() < 1e-9 * a.frob_norm_sq());
    }

    #[test]
    fn sketch_never_exceeds_ell_rows() {
        let mut rng = StdRng::seed_from_u64(4);
        let mut fd = FrequentDirections::new(5, 6);
        for _ in 0..500 {
            let row: Vec<f64> = (0..5).map(|_| random::standard_normal(&mut rng)).collect();
            fd.update(&row);
            assert!(fd.sketch().rows() < 6);
        }
    }

    #[test]
    fn merge_preserves_guarantee() {
        let mut rng = StdRng::seed_from_u64(5);
        let a = random::gaussian(&mut rng, 400, 8);
        let mut parts: Vec<FrequentDirections> =
            (0..4).map(|_| FrequentDirections::new(8, 10)).collect();
        for (i, r) in a.iter_rows().enumerate() {
            parts[i % 4].update(r);
        }
        let mut merged = parts.remove(0);
        for p in &parts {
            merged.merge(p);
        }
        assert!(merged.sketch().rows() <= 10);
        assert_fd_guarantee(&a, &merged);
    }

    #[test]
    fn with_error_bound_sets_ell() {
        let fd = FrequentDirections::with_error_bound(4, 0.1);
        assert_eq!(fd.ell(), 20);
    }

    #[test]
    fn take_resets_state() {
        let mut fd = FrequentDirections::new(3, 4);
        fd.update(&[1.0, 2.0, 3.0]);
        let (sketch, frob) = fd.take();
        assert_eq!(sketch.rows(), 1);
        assert_eq!(frob, 14.0);
        assert!(fd.is_empty());
        assert_eq!(fd.ell(), 4);
    }

    #[test]
    fn zero_rows_are_harmless() {
        let mut fd = FrequentDirections::new(3, 4);
        for _ in 0..10 {
            fd.update(&[0.0, 0.0, 0.0]);
        }
        assert_eq!(fd.frob_sq_seen(), 0.0);
        assert_eq!(fd.query(&[1.0, 0.0, 0.0]), 0.0);
    }

    #[test]
    #[should_panic(expected = "row dimension mismatch")]
    fn wrong_dimension_panics() {
        FrequentDirections::new(3, 4).update(&[1.0]);
    }

    #[test]
    #[should_panic(expected = "non-finite row")]
    fn nan_row_panics_at_update() {
        // The buffer is far from full, so no shrink runs: without the
        // check the NaN would only surface in the bounds.
        let mut fd = FrequentDirections::new(3, 8);
        fd.update(&[1.0, 2.0, 3.0]);
        fd.update(&[f64::NAN, 0.0, 0.0]);
    }

    #[test]
    #[should_panic(expected = "non-finite row")]
    fn infinite_row_panics_at_merge_rows() {
        let rows = Matrix::from_rows(&[vec![1.0, 0.0], vec![0.0, f64::INFINITY]]);
        FrequentDirections::new(2, 8).merge_rows(&rows);
    }

    #[test]
    fn rank_k_sketch_has_k_rows_and_top_energy() {
        let mut rng = StdRng::seed_from_u64(6);
        let a = random::with_spectrum(&mut rng, 150, 10, &[30.0, 10.0, 3.0, 1.0]);
        let mut fd = FrequentDirections::new(10, 12);
        for r in a.iter_rows() {
            fd.update(r);
        }
        let b2 = fd.rank_k_sketch(2);
        assert_eq!(b2.rows(), 2);
        // The rank-2 part captures most of the sketch's energy on this
        // sharply-decaying input.
        assert!(b2.frob_norm_sq() > 0.8 * fd.sketch().frob_norm_sq());
        // Asking beyond the sketch rank truncates gracefully.
        let b99 = fd.rank_k_sketch(99);
        assert!(b99.rows() <= fd.sketch().rows());
    }

    #[test]
    fn top_directions_are_orthonormal() {
        let mut rng = StdRng::seed_from_u64(7);
        let a = random::gaussian(&mut rng, 120, 8);
        let mut fd = FrequentDirections::new(8, 10);
        for r in a.iter_rows() {
            fd.update(r);
        }
        let v = fd.top_directions(4);
        assert_eq!(v.rows(), 4);
        let vvt = v.matmul(&v.transpose());
        for i in 0..4 {
            for j in 0..4 {
                let want = if i == j { 1.0 } else { 0.0 };
                assert!((vvt[(i, j)] - want).abs() < 1e-9);
            }
        }
    }

    #[test]
    fn duplicate_direction_concentrates() {
        // Feeding the same unit row n times: sketch must report ≈ n along it.
        let mut fd = FrequentDirections::new(4, 6);
        let e0 = [1.0, 0.0, 0.0, 0.0];
        for _ in 0..100 {
            fd.update(&e0);
        }
        let q = fd.query(&e0);
        assert!(q <= 100.0 + 1e-9);
        assert!(q >= 100.0 - fd.error_bound() - 1e-9);
    }
}
