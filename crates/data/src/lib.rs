//! Workload generation and ground truth for the reproduction experiments.
//!
//! The paper evaluates on three workloads:
//!
//! 1. A synthetic **Zipfian** weighted item stream (skew 2, `10⁷` items,
//!    weights uniform in `[1, β]`) for the heavy-hitter protocols —
//!    generated exactly as described by [`zipf`] + [`weighted`].
//! 2. **PAMAP** (UCI, 629,250 × 44, low rank): reproduced as a synthetic
//!    low-rank-plus-noise *stream* by [`SyntheticMatrixStream::pamap_like`].
//! 3. **YearPredictionMSD** (UCI, 300,000 × 90, high rank): reproduced as
//!    a slowly-decaying full-rank stream by [`SyntheticMatrixStream::msd_like`].
//!
//! The evaluation only exercises the spectrum shape and the row-norm
//! bound `β`, both of which the surrogates match (the argument is in the
//! [`synthetic`] module docs). [`loader`] reads the real UCI CSV files for
//! users who have them, producing streams interchangeable with the
//! synthetic ones.
//!
//! [`ground_truth`] maintains the exact quantities every experiment
//! compares against: the exact covariance `AᵀA` (streamed, never
//! materialising `A`) and exact rank-`k` residuals.

pub mod ground_truth;
pub mod loader;
pub mod synthetic;
pub mod weighted;
pub mod zipf;

pub use ground_truth::StreamingGram;
pub use synthetic::SyntheticMatrixStream;
pub use weighted::WeightedZipfStream;
pub use zipf::Zipf;
