//! Distributed streaming protocols from *Continuous Matrix Approximation
//! on Distributed Data* (Ghashami, Phillips, Li — VLDB 2014).
//!
//! This crate is the paper's contribution: `m` sites each observe a local
//! stream and talk only to a coordinator, which continuously maintains
//! either
//!
//! * **weighted heavy hitters** — estimates `Ŵe` with
//!   `|fe(A) − Ŵe| ≤ εW` for every element `e` ([`hh`]), or
//! * **a matrix approximation** — a small matrix `B` with
//!   `|‖Ax‖² − ‖Bx‖²| ≤ ε‖A‖²_F` for every unit vector `x` ([`matrix`]),
//!
//! while minimising communication. The protocols (paper section → module):
//!
//! | paper | module | mechanism | communication |
//! |---|---|---|---|
//! | §4.1 | [`hh::p1`] | per-site Misra–Gries, batch flush ([`flush`]) | `O((m/ε²) log βN)` |
//! | §4.2 | [`hh::p2`] | per-element thresholds (Yi–Zhang, [`threshold`]) | `O((m/ε) log βN)` |
//! | §4.3 | [`hh::p3`] | priority sampling, w/o replacement | `O((m+s) log(βN/s))` |
//! | §4.3.1 | [`hh::p3wr`] | with-replacement sampling | `O((m+s log s) log βN)` |
//! | §4.4 | [`hh::p4`] | probabilistic count reports ([`report`]) | `O((√m/ε) log βN)` |
//! | §5.1 | [`matrix::p1`] | per-site Frequent Directions, flush ([`flush`]) | `O((m/ε²) log βN)` |
//! | §5.2 | [`matrix::p2`] | singular-direction thresholds ([`threshold`]) | `O((m/ε) log βN)` |
//! | §5.3 | [`matrix::p3`] / [`matrix::p3wr`] | row priority sampling | `O((m+s) log(βN/s))` |
//! | App. C | [`matrix::p4`] | **negative result** — no guarantee ([`report`]) | `O((√m/ε) log βN)` |
//! | §6 ext. | [`window::mg`] / [`window::fd`] | sliding-window tracking via exponential-histogram buckets | sublinear in `N`; see module docs |
//!
//! Where the paper defines the matrix protocol as the heavy-hitter one
//! over rows, the code writes it once: P1 in [`flush`], generic over the
//! summary (Misra–Gries or Frequent Directions), and P2 in
//! [`threshold`], P3/P3wr in [`sampling`] and P4 in [`report`], generic
//! over the payload. Those protocol modules keep only their estimator
//! and the deployment's type names.
//!
//! Every protocol is split into a site type (implements
//! [`cma_stream::Site`]) and a coordinator type (implements
//! [`cma_stream::Coordinator`]), so any of them can be driven by the
//! sequential runner or the pooled engine in `cma-stream`. Queries are *local* to
//! the coordinator — the continuous-monitoring model's whole point is
//! that answering a query costs no communication.
//!
//! Every protocol additionally ships an interior-node
//! [`cma_stream::Aggregator`] type and a `deploy_topology` constructor,
//! so deployments scale past coordinator fan-in by aggregating through a
//! k-ary tree ([`Topology`]): mergeable summaries (Misra–Gries,
//! Frequent Directions) merge at interior nodes, sampling
//! protocols carry their round state there, and threshold budgets are
//! re-split across the `m + I` withholding nodes so every ε guarantee
//! survives unchanged. `deploy_topology(cfg, Topology::Star)` is
//! execution-identical to `deploy(cfg)`. Each protocol module also
//! exposes a `make_aggregator(cfg, topology)` factory for the execution
//! engine, which runs every site *and every interior node* as a task on
//! a worker pool
//! (`cma_stream::runner::engine::run_partitioned_topology_parts`) — the
//! guarantees tolerate the resulting broadcast lag because every
//! threshold only grows, so stale state makes nodes report sooner,
//! never later.
//!
//! # Example
//!
//! Track heavy hitters over three sites with protocol P2:
//!
//! ```
//! use cma_core::hh::{p2, HhConfig, HhEstimator};
//! use cma_stream::partition::RoundRobin;
//!
//! let cfg = HhConfig::new(3, 0.05);
//! let mut runner = p2::deploy(&cfg);
//! // item 7 is heavy: half the stream weight.
//! let stream = (0..3000u64).map(|i| {
//!     let item = if i % 2 == 0 { 7 } else { i % 100 };
//!     (item, 1.0)
//! });
//! // Deliver the whole stream in batches of 64 arrivals; batched
//! // execution is observably identical to per-item `runner.feed`.
//! runner.run_partitioned(stream, &mut RoundRobin::new(3), 64);
//! let hh = runner.coordinator().heavy_hitters(0.3, 0.05);
//! assert_eq!(hh[0].0, 7);
//! ```

pub mod config;
pub mod flush;
pub mod hh;
pub mod matrix;
pub mod report;
pub mod sampling;
pub mod threshold;
pub mod weight_tracker;
pub mod window;
pub mod wire;

pub use cma_stream::Topology;
pub use config::{HhConfig, MatrixConfig};
pub use hh::HhEstimator;
pub use matrix::MatrixEstimator;
