//! Kernel and shrink selection: the one configuration surface through
//! which the protocol layers choose how their linear algebra runs.
//!
//! Two independent axes:
//!
//! * [`KernelPath`] — which implementation of the dense kernels the hot
//!   paths dispatch to. `Blocked` (the default) is the cache-tiled code;
//!   `Naive` routes to the retained reference loops. For `matmul`/`gram`
//!   the two are **bit-for-bit identical** (see the invariants on
//!   [`Matrix::matmul`]), so `Naive` is a **test oracle only** — no
//!   production path selects it; the equivalence suites and the MT-P2
//!   unit tests run it as the reference. The eigensolvers differ in
//!   algorithm — Householder + QL under `Blocked`, cyclic Jacobi under
//!   `Naive` — and agree to solver accuracy.
//! * [`FdShrink`] — how `FrequentDirections` shrinks a full buffer.
//!   `Exact` is the textbook SVD shrink; `Randomized` projects through a
//!   seeded HMT range finder first and *charges a certified bound*
//!   (`σ̂²_keep + tail`) to the loss accounting, falling back to the exact
//!   shrink whenever the certified charge would break the a-priori
//!   `2‖A‖²_F/ℓ` budget — so every downstream `WindowErrorBound` / MT-P1
//!   guarantee survives unchanged (details on
//!   `FrequentDirections::set_shrink`).
//!
//! [`LinalgProfile`] bundles both. `MatrixConfig` and `SwFdConfig` carry a
//! profile and thread it into protocol state at construction.

use crate::error::LinalgError;
use crate::matrix::{accumulate_outer, accumulate_outer_panel, Matrix};
use crate::svd::{gram_svd, gram_svd_blocked, SvdValuesVectors};

/// Which implementation of the dense kernels the protocol hot paths use.
///
/// Beyond swapping loop nests, the path selects the *eigensolver* and the
/// *state layout* of MT-P2 sites. `Naive` decomposes with cyclic Jacobi
/// ([`crate::eigen`]) and keeps MT-P2's explicit `d × d` basis, running a
/// warm-started full-`d` Jacobi **eagerly at every trigger** — the seed's
/// implementation, kept as the reference the production route is tested
/// against. `Blocked` decomposes with Householder tridiagonalisation + QL
/// ([`crate::ql`], 6–8× faster than Jacobi at the protocols' 44×44
/// and 90×90 Grams), and MT-P2 keeps the withheld matrix on its small
/// side (rows while `s ≤ d`, the `d×d` Gram once saturated), asks the
/// [`crate::cholesky`] certificate whether anything could ship, and
/// decomposes — `O(s²d + s³)` instead of `O(d³)` — only when the answer
/// is not a proven no (see the module docs of `cma-core`'s
/// `matrix::p2`). The solver and those representation changes, not the
/// tiled loops, are where the speedup comes from.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum KernelPath {
    /// The retained reference loops (ikj `matmul`, row-by-row `gram`),
    /// the Jacobi eigensolver and the full-basis eager MT-P2 layout. The
    /// test oracle.
    Naive,
    /// Cache-blocked kernels, the Householder + QL eigensolver, and the
    /// small-side, certificate-first MT-P2 layout.
    #[default]
    Blocked,
}

impl KernelPath {
    /// `A · B` through the selected kernel.
    pub fn matmul(self, a: &Matrix, b: &Matrix) -> Matrix {
        match self {
            KernelPath::Naive => a.matmul_naive(b),
            KernelPath::Blocked => a.matmul(b),
        }
    }

    /// `AᵀA` through the selected kernel.
    pub fn gram(self, a: &Matrix) -> Matrix {
        match self {
            KernelPath::Naive => a.gram_naive(),
            KernelPath::Blocked => a.gram(),
        }
    }

    /// Adds `Σᵢ rᵢ rᵢᵀ` over the rows of `rows` into `g` through the
    /// selected kernel (per-row vs panel-blocked; same bits either way).
    pub fn accumulate_outer_rows(self, g: &mut Matrix, rows: &Matrix) {
        match self {
            KernelPath::Naive => {
                for r in rows.iter_rows() {
                    accumulate_outer(g, r);
                }
            }
            KernelPath::Blocked => accumulate_outer_panel(g, rows),
        }
    }

    /// `(Σ, V)` of a sketch buffer through the selected kernel — the SVD
    /// behind every Frequent Directions shrink (MT-P1 sites, MT-P2
    /// bounded sites, SwFd/SwMg bucket sketches).
    ///
    /// `Naive` is the retained reference route on Jacobi ([`gram_svd`]);
    /// `Blocked` eigendecomposes with Householder + QL and recovers the
    /// wide-case right singular vectors with one blocked matmul instead
    /// of a per-vector transpose pass ([`gram_svd_blocked`]). Equivalent
    /// within solver accuracy.
    ///
    /// # Errors
    /// Propagates [`LinalgError`] from the eigensolver.
    pub fn svd_values_vectors(self, a: &Matrix) -> Result<SvdValuesVectors, LinalgError> {
        match self {
            KernelPath::Naive => gram_svd(a),
            KernelPath::Blocked => gram_svd_blocked(a),
        }
    }
}

/// How `FrequentDirections` shrinks a full buffer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum FdShrink {
    /// The textbook shrink: exact `(Σ, V)` of the buffer, subtract
    /// `δ = σ²_keep`.
    #[default]
    Exact,
    /// Range-finder projection before the factorization, with certified
    /// loss accounting and automatic fallback to [`FdShrink::Exact`] when
    /// the certificate cannot cover the a-priori budget. Opt-in.
    Randomized {
        /// Extra sketch directions beyond `keep` (HMT oversampling;
        /// 5–10 typical).
        oversample: usize,
        /// Subspace iterations sharpening the sketch (0 for decaying
        /// spectra, 1–2 for flat ones).
        power_iters: usize,
    },
}

/// The bundled kernel + shrink selection carried by protocol configs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct LinalgProfile {
    /// Dense-kernel dispatch for the protocol hot paths.
    pub kernels: KernelPath,
    /// Frequent Directions shrink strategy.
    pub shrink: FdShrink,
}

impl LinalgProfile {
    /// The test oracle: reference kernels, exact shrink. Not a
    /// production profile — tests compare the blocked paths against it.
    pub fn naive() -> Self {
        LinalgProfile {
            kernels: KernelPath::Naive,
            shrink: FdShrink::Exact,
        }
    }

    /// The default: blocked kernels, exact shrink.
    pub fn blocked() -> Self {
        LinalgProfile::default()
    }

    /// Blocked kernels plus the certified randomized shrink (oversample 8,
    /// one power iteration — conservative enough that the certificate
    /// accepts on realistic spectra).
    pub fn randomized() -> Self {
        LinalgProfile {
            kernels: KernelPath::Blocked,
            shrink: FdShrink::Randomized {
                oversample: 8,
                power_iters: 1,
            },
        }
    }

    /// Short label for bench records and logs.
    pub fn name(&self) -> &'static str {
        match (self.kernels, self.shrink) {
            (KernelPath::Naive, FdShrink::Exact) => "naive",
            (KernelPath::Naive, FdShrink::Randomized { .. }) => "naive+rand",
            (KernelPath::Blocked, FdShrink::Exact) => "blocked",
            (KernelPath::Blocked, FdShrink::Randomized { .. }) => "blocked+rand",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::random;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn default_profile_is_blocked_exact() {
        let p = LinalgProfile::default();
        assert_eq!(p.kernels, KernelPath::Blocked);
        assert_eq!(p.shrink, FdShrink::Exact);
        assert_eq!(p.name(), "blocked");
        assert_eq!(LinalgProfile::naive().name(), "naive");
        assert_eq!(LinalgProfile::randomized().name(), "blocked+rand");
    }

    #[test]
    fn kernel_paths_agree() {
        let mut rng = StdRng::seed_from_u64(1);
        let a = random::gaussian(&mut rng, 40, 17);
        let b = random::gaussian(&mut rng, 17, 9);
        // matmul/gram: bit-identical across paths by construction.
        assert_eq!(
            KernelPath::Naive.matmul(&a, &b).as_slice(),
            KernelPath::Blocked.matmul(&a, &b).as_slice()
        );
        assert_eq!(
            KernelPath::Naive.gram(&a).as_slice(),
            KernelPath::Blocked.gram(&a).as_slice()
        );
        let mut g1 = Matrix::zeros(17, 17);
        let mut g2 = Matrix::zeros(17, 17);
        KernelPath::Naive.accumulate_outer_rows(&mut g1, &a);
        KernelPath::Blocked.accumulate_outer_rows(&mut g2, &a);
        assert_eq!(g1.as_slice(), g2.as_slice());
        // (Σ, V): Jacobi vs QL, tall and wide, agree to solver accuracy.
        for m in [&a, &b.transpose()] {
            let s1 = KernelPath::Naive.svd_values_vectors(m).unwrap();
            let s2 = KernelPath::Blocked.svd_values_vectors(m).unwrap();
            let scale = m.frob_norm_sq();
            for (x, y) in s1.sigma.iter().zip(&s2.sigma) {
                assert!((x * x - y * y).abs() < 1e-12 * scale);
            }
            let g1 = s1.sigma_vt().gram();
            let g2 = s2.sigma_vt().gram();
            assert!(g1.sub(&g2).max_abs() < 1e-12 * scale);
        }
    }
}
