//! # continuous-matrix-approx
//!
//! A from-scratch Rust implementation of *Continuous Matrix Approximation
//! on Distributed Data* (Ghashami, Phillips, Li — VLDB 2014): protocols
//! that let `m` distributed sites, each observing a stream of matrix rows
//! (or weighted items), cooperate with a coordinator so that the
//! coordinator *continuously* holds a provably-accurate summary —
//!
//! * a small matrix `B` with `|‖Ax‖² − ‖Bx‖²| ≤ ε‖A‖²_F` for every unit
//!   direction `x` (matrix tracking), or
//! * weighted frequency estimates with `|fe(A) − Ŵe| ≤ εW`
//!   (weighted heavy hitters),
//!
//! at communication cost logarithmic in the stream length.
//!
//! This facade crate re-exports the whole workspace under one name:
//!
//! | module | contents |
//! |---|---|
//! | [`protocols`] | the paper's contribution: HH P1–P4, matrix P1–P4 |
//! | [`sketch`] | Misra–Gries, Frequent Directions, priority sampling |
//! | [`stream`] | sites/coordinator traits, message-accounting runners |
//! | [`linalg`] | dense matrices, QR, SVD, symmetric eigen, spectral norms |
//! | [`data`] | Zipfian and synthetic-matrix workloads, CSV loading, ground truth |
//!
//! ## Quickstart
//!
//! ```
//! use cma::protocols::matrix::{p2, MatrixConfig, MatrixEstimator};
//! use cma::data::StreamingGram;
//!
//! // 4 sites, ε = 0.2, rows in R^8.
//! let cfg = MatrixConfig::new(4, 0.2, 8);
//! let mut runner = p2::deploy(&cfg);
//! let mut truth = StreamingGram::new(8);
//!
//! let mut stream = cma::data::SyntheticMatrixStream::new(8, &[4.0, 2.0, 1.0], 1e6, 1);
//! for i in 0..2_000 {
//!     let row = stream.next_row();
//!     truth.update(&row);
//!     runner.feed(i % 4, row); // row arrives at one of the sites
//! }
//!
//! // The coordinator answers continuously, with no extra communication:
//! let sketch = runner.coordinator().sketch();
//! let err = truth.error_of_sketch(&sketch).unwrap();
//! assert!(err <= cfg.epsilon);
//! println!("covariance error {err:.4} using {} messages", runner.stats().total());
//! ```

/// The paper's protocols (re-export of [`cma_core`]).
pub use cma_core as protocols;

/// Streaming summaries (re-export of [`cma_sketch`]).
pub use cma_sketch as sketch;

/// Distributed-streaming simulation substrate (re-export of
/// [`cma_stream`]).
pub use cma_stream as stream;

/// Dense linear algebra substrate (re-export of [`cma_linalg`]).
pub use cma_linalg as linalg;

/// Workload generation and ground truth (re-export of [`cma_data`]).
pub use cma_data as data;
