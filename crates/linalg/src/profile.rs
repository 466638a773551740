//! Frozen configuration shims. The protocol layers have one linear
//! algebra route — blocked kernels, the Householder + QL eigensolver, the
//! exact Frequent Directions shrink — and select nothing. The frozen
//! `benchmark/` package outside the workspace still imports the names of
//! the former selection surface, so they stay here as single-value types
//! that no caller can set to anything the code would ignore. They live
//! until that package is unfrozen (ROADMAP item 5(d)).

use crate::error::LinalgError;
use crate::matrix::Matrix;
use crate::svd::{gram_svd_blocked, SvdValuesVectors};

/// The dense kernels of the protocol hot paths. One value; kept for the
/// frozen `benchmark/` package until ROADMAP item 5(d).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum KernelPath {
    /// Cache-blocked kernels and the Householder + QL eigensolver.
    #[default]
    Blocked,
}

impl KernelPath {
    /// `A · B` ([`Matrix::matmul`]).
    pub fn matmul(self, a: &Matrix, b: &Matrix) -> Matrix {
        a.matmul(b)
    }

    /// `AᵀA` ([`Matrix::gram`]).
    pub fn gram(self, a: &Matrix) -> Matrix {
        a.gram()
    }

    /// `(Σ, V)` of a sketch buffer ([`gram_svd_blocked`]) — the SVD
    /// behind every Frequent Directions shrink.
    ///
    /// # Errors
    /// Propagates [`LinalgError`] from the eigensolver.
    pub fn svd_values_vectors(self, a: &Matrix) -> Result<SvdValuesVectors, LinalgError> {
        gram_svd_blocked(a)
    }
}

/// How `FrequentDirections` shrinks a full buffer. One value; kept for
/// the frozen `benchmark/` package until ROADMAP item 5(d).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum FdShrink {
    /// The textbook shrink: exact `(Σ, V)` of the buffer, subtract
    /// `δ = σ²_keep`.
    #[default]
    Exact,
}

/// The pair the frozen `benchmark/` package reads as `profile.kernels`
/// and `profile.shrink`; kept until ROADMAP item 5(d).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct LinalgProfile {
    /// Dense kernels (one value).
    pub kernels: KernelPath,
    /// Frequent Directions shrink (one value).
    pub shrink: FdShrink,
}

impl LinalgProfile {
    /// The one profile.
    pub fn blocked() -> Self {
        LinalgProfile::default()
    }
}
