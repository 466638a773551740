//! Synthetic matrix streams standing in for the paper's UCI datasets.
//!
//! The paper evaluates matrix tracking on PAMAP (629,250 × 44, low rank —
//! its rank-30 SVD residual is ~10⁻⁶ of the energy) and YearPredictionMSD
//! (300,000 × 90, high rank — large residual even at rank 50). We do not
//! ship the UCI files; instead each dataset is modelled by the generative
//! process
//!
//! ```text
//! aᵢ = Σⱼ σⱼ · zᵢⱼ · vⱼ,     zᵢⱼ ~ N(0, 1) i.i.d.
//! ```
//!
//! with a fixed random orthonormal basis `{vⱼ}` and a spectrum `{σⱼ}`
//! chosen per dataset. `E[AᵀA] = n·Σⱼ σⱼ² vⱼvⱼᵀ`, so the spectrum directly
//! controls effective rank — the only dataset property the paper's
//! experiments depend on (plus the row-norm bound `β`, enforced by
//! clipping).
//!
//! Rows are generated *streaming* (`O(k·d)` per row, nothing
//! materialised), so the full 629k-row PAMAP-scale run fits in constant
//! memory exactly as the protocols themselves do.

use cma_linalg::random::{haar_orthogonal, standard_normal};
use cma_linalg::Matrix;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Streaming generator of synthetic matrix rows with a prescribed
/// covariance spectrum.
#[derive(Debug, Clone)]
pub struct SyntheticMatrixStream {
    /// Rows `j` hold `σⱼ · vⱼ` (the scaled basis), `k × d`.
    scaled_basis: Matrix,
    /// Squared-row-norm clip bound `β` (rows are rescaled down to it).
    beta: f64,
    /// Log-normal σ of the per-row scale factor (0 = homogeneous rows).
    scale_sigma: f64,
    rng: StdRng,
    d: usize,
}

impl SyntheticMatrixStream {
    /// Builds a stream over `R^d` with per-direction standard deviations
    /// `spectrum` (length `k ≤ d`) expressed in a random orthonormal
    /// basis, clipping squared row norms at `beta`.
    ///
    /// # Panics
    /// Panics if `spectrum` is empty or longer than `d`, or `beta ≤ 0`.
    pub fn new(d: usize, spectrum: &[f64], beta: f64, seed: u64) -> Self {
        assert!(
            !spectrum.is_empty(),
            "SyntheticMatrixStream: empty spectrum"
        );
        assert!(
            spectrum.len() <= d,
            "SyntheticMatrixStream: spectrum longer than d"
        );
        assert!(beta > 0.0, "SyntheticMatrixStream: beta must be positive");
        let mut rng = StdRng::seed_from_u64(seed);
        let q = haar_orthogonal(&mut rng, d);
        let mut scaled_basis = Matrix::zeros(spectrum.len(), d);
        for (j, &s) in spectrum.iter().enumerate() {
            assert!(s >= 0.0, "SyntheticMatrixStream: negative spectrum entry");
            for c in 0..d {
                // Column j of q is the j-th basis vector.
                scaled_basis[(j, c)] = s * q[(c, j)];
            }
        }
        SyntheticMatrixStream {
            scaled_basis,
            beta,
            scale_sigma: 0.0,
            rng,
            d,
        }
    }

    /// Makes row norms heterogeneous: each row is multiplied by an
    /// independent log-normal scale with `E[scale²] = 1` (so the expected
    /// covariance is unchanged) and log-σ `sigma`. Raw sensor datasets
    /// like PAMAP have strongly heteroscedastic rows, which is what makes
    /// protocol P1's sites flush nearly per-row in the paper's runs.
    pub fn with_row_scale_sigma(mut self, sigma: f64) -> Self {
        assert!(
            sigma >= 0.0 && sigma.is_finite(),
            "row-scale sigma must be non-negative"
        );
        self.scale_sigma = sigma;
        self
    }

    /// PAMAP surrogate: `d = 44`, ~25 strong directions with geometric
    /// decay plus a tiny isotropic floor, so the rank-30 residual is
    /// negligible — matching the paper's observation that PAMAP "is a
    /// low-rank matrix (less than 30)". Rows are strongly heteroscedastic
    /// (log-σ 1.5), like the raw inertial-sensor values the paper streams.
    pub fn pamap_like(seed: u64) -> Self {
        let d = 44;
        let mut spectrum = Vec::with_capacity(d);
        for j in 0..25 {
            spectrum.push(3.0 * 0.78_f64.powi(j));
        }
        // Numerical noise floor far below the signal.
        spectrum.extend(std::iter::repeat_n(1e-3, d - 25));
        Self::new(d, &spectrum, 1_000.0, seed).with_row_scale_sigma(1.5)
    }

    /// MSD surrogate: `d = 90`, slowly decaying full-rank spectrum
    /// (`σⱼ ∝ (j+1)^{-0.35}`), so even the best rank-50 approximation
    /// leaves a visible residual — matching the paper's "this matrix has
    /// high rank". Mildly heteroscedastic rows (log-σ 0.5): audio timbre
    /// features vary less than raw sensor values.
    pub fn msd_like(seed: u64) -> Self {
        let d = 90;
        let spectrum: Vec<f64> = (0..d).map(|j| 2.0 * ((j + 1) as f64).powf(-0.35)).collect();
        Self::new(d, &spectrum, 1_000.0, seed).with_row_scale_sigma(0.5)
    }

    /// Row dimensionality `d`.
    pub fn dim(&self) -> usize {
        self.d
    }

    /// Squared-row-norm bound `β`.
    pub fn beta(&self) -> f64 {
        self.beta
    }

    /// Generates the next row.
    pub fn next_row(&mut self) -> Vec<f64> {
        let k = self.scaled_basis.rows();
        let mut row = vec![0.0; self.d];
        for j in 0..k {
            let z = standard_normal(&mut self.rng);
            let basis_row = self.scaled_basis.row(j);
            for (r, &b) in row.iter_mut().zip(basis_row) {
                *r += z * b;
            }
        }
        if self.scale_sigma > 0.0 {
            // Log-normal row scale with E[scale²] = 1:
            // ln(scale) ~ N(−σ², σ²) gives E[e^{2·ln scale}] = 1.
            let z = standard_normal(&mut self.rng);
            let scale = (self.scale_sigma * z - self.scale_sigma * self.scale_sigma).exp();
            for r in &mut row {
                *r *= scale;
            }
        }
        // Enforce the paper's row-norm bound: ‖a‖² ≤ β.
        let norm_sq: f64 = row.iter().map(|v| v * v).sum();
        if norm_sq > self.beta {
            let scale = (self.beta / norm_sq).sqrt();
            for r in &mut row {
                *r *= scale;
            }
        }
        row
    }

    /// Materialises `n` rows as a matrix (tests and small examples only;
    /// the harnesses stream).
    pub fn take_matrix(&mut self, n: usize) -> Matrix {
        let mut m = Matrix::with_cols(self.d);
        for _ in 0..n {
            m.push_row(&self.next_row());
        }
        m
    }
}

impl Iterator for SyntheticMatrixStream {
    type Item = Vec<f64>;
    fn next(&mut self) -> Option<Vec<f64>> {
        Some(self.next_row())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cma_linalg::eigen::jacobi_eigen_sym;

    #[test]
    fn rows_have_bounded_norm() {
        let mut s = SyntheticMatrixStream::new(10, &[5.0, 3.0], 20.0, 1);
        for _ in 0..500 {
            let r = s.next_row();
            let n2: f64 = r.iter().map(|v| v * v).sum();
            assert!(n2 <= 20.0 + 1e-9, "row norm² {n2} exceeds beta");
        }
    }

    #[test]
    fn covariance_spectrum_matches_prescription() {
        // With ample samples, eigenvalues of AᵀA/n approach σⱼ².
        let mut s = SyntheticMatrixStream::new(8, &[4.0, 2.0, 1.0], 1e9, 2);
        let n = 20_000;
        let a = s.take_matrix(n);
        let mut g = a.gram();
        g.scale_in_place(1.0 / n as f64);
        let eig = jacobi_eigen_sym(&g).unwrap();
        let want = [16.0, 4.0, 1.0];
        for (i, &w) in want.iter().enumerate() {
            let rel = (eig.values[i] - w).abs() / w;
            assert!(rel < 0.1, "eigenvalue {i}: {} vs {w}", eig.values[i]);
        }
        // Remaining directions carry (near) zero energy.
        assert!(eig.values[3] < 0.01);
    }

    #[test]
    fn pamap_like_is_low_rank() {
        let mut s = SyntheticMatrixStream::pamap_like(3);
        let a = s.take_matrix(4000);
        let eig = jacobi_eigen_sym(&a.gram()).unwrap();
        let total: f64 = eig.values.iter().sum();
        let top30: f64 = eig.values.iter().take(30).sum();
        assert!(
            (total - top30) / total < 1e-4,
            "rank-30 residual too large: {}",
            (total - top30) / total
        );
    }

    #[test]
    fn msd_like_is_high_rank() {
        let mut s = SyntheticMatrixStream::msd_like(4);
        let a = s.take_matrix(4000);
        let eig = jacobi_eigen_sym(&a.gram()).unwrap();
        let total: f64 = eig.values.iter().sum();
        let top50: f64 = eig.values.iter().take(50).sum();
        let residual = (total - top50) / total;
        assert!(
            residual > 0.05,
            "rank-50 residual suspiciously small: {residual}"
        );
    }

    #[test]
    fn reproducible() {
        let mut a = SyntheticMatrixStream::pamap_like(9);
        let mut b = SyntheticMatrixStream::pamap_like(9);
        for _ in 0..20 {
            assert_eq!(a.next_row(), b.next_row());
        }
    }

    #[test]
    fn dims_match_datasets() {
        assert_eq!(SyntheticMatrixStream::pamap_like(0).dim(), 44);
        assert_eq!(SyntheticMatrixStream::msd_like(0).dim(), 90);
    }
}
