//! Centralized streaming summaries.
//!
//! The distributed protocols of Ghashami, Phillips and Li (VLDB 2014) are
//! built by *composing* classical single-stream summaries with
//! communication rules. This crate provides those single-stream building
//! blocks, each implemented from scratch with its textbook guarantee:
//!
//! * [`MgSummary`] — weighted Misra–Gries frequency summary with `ℓ`
//!   counters: `0 ≤ fe − f̂e ≤ W/(ℓ+1)`, mergeable without error growth
//!   beyond the bound (Agarwal et al., PODS 2012). Sites of protocol HH-P1
//!   run one of these; the coordinator merges them.
//! * [`FrequentDirections`] — Liberty's matrix sketch (SIGKDD 2013):
//!   `0 ≤ ‖Ax‖² − ‖Bx‖² ≤ 2‖A‖²_F/ℓ` for every unit `x`, mergeable.
//!   Sites and coordinator of protocol MT-P1 run these.
//! * [`PrioritySampler`] — Duffield–Lund–Thorup priority sampling without
//!   replacement with the Szegedy estimator; the centralized counterpart
//!   of protocols HH-P3/MT-P3.
//! * [`SwMg`] / [`SwFd`] — sliding-window variants (exponential
//!   histograms over MG / FD blocks) for the paper's stated open
//!   problem. The underlying [`ExpHistogram`] ships whole mergeable
//!   buckets ([`WinBucket`]) — the transport unit of the *distributed*
//!   sliding-window protocols in `cma-core`'s `window` module; see the
//!   `sliding_window` example.
//! * [`exact`] — exact (hash-map) weighted counters, the ground truth all
//!   evaluations compare against.
//!
//! # Mergeability
//!
//! Mergeability is what makes tree aggregation sound (see
//! `cma-stream`'s `Aggregator`): `MgSummary::merge` and
//! `FrequentDirections::merge_rows` (stack + single shrink) combine two
//! summaries with the error of the combined stream — no growth per
//! merge — and are order/associativity-insensitive up to their bounds
//! (proptested in `tests/proptest_sketch.rs`). Interior tree nodes in
//! the distributed protocols lean on exactly these operations.
//!
//! # Example
//!
//! ```
//! use cma_sketch::MgSummary;
//!
//! // Two sites summarise disjoint streams with 4 counters each …
//! let mut a = MgSummary::new(4);
//! let mut b = MgSummary::new(4);
//! for i in 0..1000u64 {
//!     a.update(i % 3, 1.0);      // site A: items 0,1,2 dominate
//!     b.update(7, 1.0);          // site B: item 7 only
//! }
//! // … and an aggregator merges them without losing the guarantee:
//! a.merge(&b);
//! let w = 2000.0;
//! let err_bound = w / (4.0 + 1.0); // 0 ≤ f − f̂ ≤ W/(ℓ+1)
//! assert!(a.estimate(7) >= 1000.0 - err_bound);
//! ```

pub mod exact;
pub mod frequent_directions;
pub mod misra_gries;
pub mod ord;
pub mod priority;
pub mod sliding_window;

pub use exact::ExactWeightedCounter;
pub use frequent_directions::FrequentDirections;
pub use misra_gries::MgSummary;
pub use ord::OrdF64;
pub use priority::PrioritySampler;
pub use sliding_window::{ExpHistogram, SwFd, SwMg, WinBucket, WindowSummary};

/// Item identifiers in weighted-frequency summaries.
///
/// The paper's streams draw elements from a bounded universe `[u]`;
/// a `u64` label covers every workload in this workspace.
pub type Item = u64;
