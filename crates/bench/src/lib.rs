//! Experiment harness for the VLDB'14 reproduction.
//!
//! One binary per paper table/figure lives in `src/bin/`; this library
//! holds what they share: a tiny CLI parser, protocol drivers that run a
//! named protocol over a workload while collecting the paper's metrics,
//! and CSV emission helpers. Criterion micro-benchmarks live in
//! `benches/`.
//!
//! Binaries and the figures they regenerate (performance is measured
//! by the repo benchmark in `benchmark/`; the per-protocol communication
//! counts are pinned by the golden table in `tests/comm_counts.rs`):
//!
//! | binary | paper artefact |
//! |---|---|
//! | `fig1` | Figure 1(a–f): weighted heavy hitters on Zipf(2) |
//! | `table1` | Table 1: matrix protocols vs FD/SVD baselines |
//! | `fig2` | Figure 2(a–d): PAMAP err/msg vs ε and vs m |
//! | `fig3` | Figure 3(a–d): MSD err/msg vs ε and vs m |
//! | `fig4` | Figure 4(a,b): msg-vs-err frontier |
//! | `fig67` | Figures 6–7: the P4 negative result |

pub mod args;
pub mod drivers;
pub mod figures;

pub use args::Args;
pub use drivers::{
    baseline_fd, baseline_svd, calibrate_hh, resolve_hh_adaptive, run_hh, run_hh_topology,
    run_matrix, tune_hh_to_error, CommSummary, HhProtocol, HhRunResult, MatrixProtocol,
    MatrixRunResult,
};

/// The paper's default heavy-hitter threshold `φ = 0.05`.
pub const PAPER_PHI: f64 = 0.05;

/// The paper's default number of sites `m = 50`.
pub const PAPER_SITES: usize = 50;

/// The paper's default matrix accuracy `ε = 0.1`.
pub const PAPER_MATRIX_EPSILON: f64 = 0.1;

/// The paper's default weight bound `β = 1000`.
pub const PAPER_BETA: f64 = 1000.0;

/// PAMAP row count in the paper.
pub const PAMAP_ROWS: usize = 629_250;

/// MSD row count in the paper.
pub const MSD_ROWS: usize = 300_000;

/// Heavy-hitter stream length in the paper.
pub const HH_STREAM_LEN: usize = 10_000_000;
