//! Error type shared by the fallible routines in this crate.

use std::fmt;

/// Errors reported by linear-algebra routines.
///
/// Most routines in this crate are total on their documented domains and
/// panic on programmer errors (dimension mismatches), mirroring the
/// standard library's indexing conventions. `LinalgError` is reserved for
/// *data-dependent* failures that a correct caller cannot rule out
/// statically, such as an iteration failing to converge on pathological
/// input or a NaN reaching an eigensolver.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LinalgError {
    /// An iterative decomposition did not converge within its sweep budget.
    ///
    /// Carries the routine name and the number of sweeps attempted.
    NoConvergence {
        /// Name of the routine that failed (e.g. `"jacobi_svd"`).
        routine: &'static str,
        /// Number of sweeps/iterations that were performed.
        sweeps: usize,
    },
    /// The input matrix was empty where a non-empty one is required.
    EmptyInput {
        /// Name of the routine that rejected the input.
        routine: &'static str,
    },
    /// The input matrix holds a NaN or infinite entry, on which an
    /// iterative solver's convergence test is meaningless.
    NonFinite {
        /// Name of the routine that rejected the input.
        routine: &'static str,
    },
}

impl fmt::Display for LinalgError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LinalgError::NoConvergence { routine, sweeps } => {
                write!(f, "{routine}: no convergence after {sweeps} sweeps")
            }
            LinalgError::EmptyInput { routine } => {
                write!(f, "{routine}: empty input matrix")
            }
            LinalgError::NonFinite { routine } => {
                write!(f, "{routine}: NaN or infinite input entry")
            }
        }
    }
}

impl std::error::Error for LinalgError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_mentions_routine() {
        let e = LinalgError::NoConvergence {
            routine: "jacobi_svd",
            sweeps: 30,
        };
        let s = e.to_string();
        assert!(s.contains("jacobi_svd"));
        assert!(s.contains("30"));
    }

    #[test]
    fn empty_input_display() {
        let e = LinalgError::EmptyInput {
            routine: "gram_svd",
        };
        assert!(e.to_string().contains("gram_svd"));
        assert!(e.to_string().contains("empty"));
    }

    #[test]
    fn errors_are_comparable() {
        let a = LinalgError::EmptyInput { routine: "x" };
        let b = LinalgError::EmptyInput { routine: "x" };
        assert_eq!(a, b);
    }
}
