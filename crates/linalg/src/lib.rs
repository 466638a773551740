//! Dense linear algebra substrate for the continuous matrix approximation
//! workspace.
//!
//! The distributed matrix-tracking protocols of Ghashami, Phillips and Li
//! (VLDB 2014) repeatedly decompose *small* dense matrices: Frequent
//! Directions shrinks an `ℓ×d` sketch, protocol MT-P2 inspects the top
//! singular directions of a per-site buffer, and the evaluation metric is a
//! spectral norm of a `d×d` covariance difference (`d` is at most a few
//! hundred in all of the paper's workloads). This crate implements exactly
//! that toolbox from scratch — no external linear-algebra dependency:
//!
//! * [`Matrix`] — row-major dense matrix with the handful of operations the
//!   sketches need (row append, products, Gram matrices, norms).
//! * [`qr`] — Householder thin QR.
//! * [`ql`] — the production symmetric eigensolver: Householder
//!   tridiagonalisation + implicit-shift QL, under every protocol
//!   decomposition (FD shrinks and merges, MT-P2).
//! * [`eigen`] — cyclic Jacobi eigendecomposition of symmetric matrices:
//!   the oracle the QL solver is tested against, and the solver of exact
//!   ground truth.
//! * [`cholesky`] — the `λ_max(M) < c` certificate: one Cholesky sign test
//!   where a caller must prove a spectral bound, not compute a spectrum.
//! * [`svd`] — one-sided Jacobi SVD (reference-quality) and the Gram-based
//!   fast path used by Frequent Directions, which only needs `Σ` and `V`.
//! * [`norms`] — symmetric spectral norms (exact and power iteration).
//! * [`random`] — random test matrices: Gaussian, Haar-orthogonal and
//!   low-rank-plus-noise constructions.
//! * [`profile`] — single-value shims ([`LinalgProfile`], [`KernelPath`],
//!   [`FdShrink`]) for the frozen `benchmark/` package; nothing selects
//!   among linalg routes.
//!
//! # Numerical conventions
//!
//! Everything is `f64`. Decompositions are written for the regime the
//! protocols occupy (tall-thin or square, `d ≲ 500`). There is one
//! production route: the hot kernels (`matmul`, `gram`, `outer_gram`,
//! `apply_transpose`) are blocked and every decomposition runs on Householder + QL. The
//! naive loops (`*_naive`) stay as bit-exact oracles of the blocked
//! kernels; the one-sided Jacobi SVD is accurate to near machine precision
//! and serves as the verification oracle for the faster Gram path in
//! tests, as cyclic Jacobi does for the QL eigensolver.

pub mod cholesky;
pub mod eigen;
pub mod error;
pub mod matrix;
pub mod norms;
pub mod profile;
pub mod ql;
pub mod qr;
pub mod random;
pub mod svd;
pub mod vector;

pub use error::LinalgError;
pub use matrix::Matrix;
pub use profile::{FdShrink, KernelPath, LinalgProfile};
pub use svd::{Svd, SvdValuesVectors};

/// Relative tolerance used by iterative routines in this crate when callers
/// do not specify one. Chosen so that `ℓ×d` sketch decompositions converge
/// to ~1e-12 relative accuracy in a handful of sweeps.
pub const DEFAULT_TOL: f64 = 1e-12;
