//! Protocol drivers shared by the harness binaries.
//!
//! Each driver runs one named protocol over a workload, round-robins
//! arrivals over the `m` sites (the paper's experiments are insensitive
//! to placement; the protocols' guarantees are adversarial in it), and
//! evaluates the paper's metrics at the end of the stream — matching the
//! paper's methodology ("we only report the average err from queries in
//! the very end of the stream").

use cma_core::hh::{self, metrics};
use cma_core::matrix::{self, MatrixEstimator};
use cma_core::{HhConfig, MatrixConfig};
use cma_data::StreamingGram;
use cma_sketch::{ExactWeightedCounter, FrequentDirections};
use cma_stream::partition::RoundRobin;
use cma_stream::{CommStats, Topology};

/// Arrivals per epoch when a driver delivers a stream to a deployment
/// through the batch-first runner. Batched delivery is
/// execution-equivalent to per-item delivery in the same order (see the
/// `cma-stream` crate docs); 256 amortises per-item dispatch while
/// keeping epochs small relative to every workload used here.
const DRIVER_BATCH: usize = 256;

/// The heavy-hitter protocols under test.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HhProtocol {
    /// §4.1 batched Misra–Gries.
    P1,
    /// §4.2 per-element thresholds.
    P2,
    /// §4.3 priority sampling without replacement.
    P3,
    /// §4.3.1 with-replacement sampling.
    P3wr,
    /// §4.4 probabilistic count reports.
    P4,
}

impl HhProtocol {
    /// The four protocols of Figure 1, in the paper's order.
    pub const FIGURE1: [HhProtocol; 4] = [
        HhProtocol::P1,
        HhProtocol::P2,
        HhProtocol::P3,
        HhProtocol::P4,
    ];

    /// Display name matching the paper's legends.
    pub fn name(self) -> &'static str {
        match self {
            HhProtocol::P1 => "P1",
            HhProtocol::P2 => "P2",
            HhProtocol::P3 => "P3",
            HhProtocol::P3wr => "P3wr",
            HhProtocol::P4 => "P4",
        }
    }
}

/// Result of one heavy-hitter protocol run.
#[derive(Debug, Clone)]
pub struct HhRunResult {
    /// Protocol name.
    pub protocol: &'static str,
    /// Total messages in the paper's units.
    pub msgs: u64,
    /// Recall / precision / avg relative error at the end of the stream.
    pub eval: metrics::HhEvaluation,
}

/// Flattened communication profile of one run — the fan-in/root-load
/// figures the adaptive-topology comparisons read.
#[derive(Debug, Clone)]
pub struct CommSummary {
    /// Total message cost (all hops + fanned-out broadcasts).
    pub total: u64,
    /// Logical messages leaving the leaf sites.
    pub up_msgs: u64,
    /// Broadcast deliveries — one per edge a frame actually crossed
    /// ([`CommStats::broadcast_deliveries`]).
    pub broadcast_deliveries: u64,
    /// Structural fan-in bound (m for a star, the fanout for a tree).
    pub max_fan_in: u64,
    /// Messages the root coordinator actually received.
    pub root_in_msgs: u64,
}

impl From<&CommStats> for CommSummary {
    fn from(s: &CommStats) -> Self {
        CommSummary {
            total: s.total(),
            up_msgs: s.up_msgs,
            broadcast_deliveries: s.broadcast_deliveries,
            max_fan_in: s.max_fan_in,
            root_in_msgs: s.node_in_msgs.last().copied().unwrap_or(0),
        }
    }
}

macro_rules! drive_hh {
    ($module:ident, $cfg:expr, $topo:expr, $stream:expr, $exact:expr, $phi:expr, $batch:expr) => {{
        let mut runner = hh::$module::deploy_topology($cfg, $topo);
        runner.run_partitioned(
            $stream.iter().copied(),
            &mut RoundRobin::new($cfg.sites),
            $batch,
        );
        let summary = CommSummary::from(runner.stats());
        let eval = metrics::evaluate(runner.coordinator(), $exact, $phi, $cfg.epsilon);
        (summary, eval)
    }};
}

/// Runs one heavy-hitter protocol over `stream` and scores it against
/// exact ground truth at threshold `phi`.
pub fn run_hh(proto: HhProtocol, cfg: &HhConfig, stream: &[(u64, f64)], phi: f64) -> HhRunResult {
    let (run, _) = run_hh_topology(proto, cfg, stream, phi, Topology::Star, DRIVER_BATCH);
    run
}

/// [`run_hh`] over an explicit aggregation topology and batch size,
/// additionally reporting the communication profile ([`CommSummary`]).
pub fn run_hh_topology(
    proto: HhProtocol,
    cfg: &HhConfig,
    stream: &[(u64, f64)],
    phi: f64,
    topology: Topology,
    batch: usize,
) -> (HhRunResult, CommSummary) {
    let mut exact = ExactWeightedCounter::new();
    for &(e, w) in stream {
        exact.update(e, w);
    }
    let (summary, eval) = match proto {
        HhProtocol::P1 => drive_hh!(p1, cfg, topology, stream, &exact, phi, batch),
        HhProtocol::P2 => drive_hh!(p2, cfg, topology, stream, &exact, phi, batch),
        HhProtocol::P3 => drive_hh!(p3, cfg, topology, stream, &exact, phi, batch),
        HhProtocol::P3wr => drive_hh!(p3wr, cfg, topology, stream, &exact, phi, batch),
        HhProtocol::P4 => drive_hh!(p4, cfg, topology, stream, &exact, phi, batch),
    };
    (
        HhRunResult {
            protocol: proto.name(),
            msgs: summary.total,
            eval,
        },
        summary,
    )
}

/// The matrix-tracking protocols under test.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MatrixProtocol {
    /// §5.1 batched Frequent Directions.
    P1,
    /// §5.2 singular-direction thresholds.
    P2,
    /// §5.3 row sampling without replacement (the paper's `P3wor`).
    P3,
    /// Row sampling with replacement (the paper's `P3wr`).
    P3wr,
    /// Appendix C negative result.
    P4,
}

impl MatrixProtocol {
    /// The three protocols of Figures 2–4.
    pub const FIGURES: [MatrixProtocol; 3] =
        [MatrixProtocol::P1, MatrixProtocol::P2, MatrixProtocol::P3];

    /// Display name matching the paper's legends.
    pub fn name(self) -> &'static str {
        match self {
            MatrixProtocol::P1 => "P1",
            MatrixProtocol::P2 => "P2",
            MatrixProtocol::P3 => "P3wor",
            MatrixProtocol::P3wr => "P3wr",
            MatrixProtocol::P4 => "P4",
        }
    }
}

/// Result of one matrix protocol run.
#[derive(Debug, Clone)]
pub struct MatrixRunResult {
    /// Protocol name.
    pub protocol: &'static str,
    /// Total messages (scalar + vector, broadcasts × m).
    pub msgs: u64,
    /// The paper's error `‖AᵀA − BᵀB‖₂ / ‖A‖²_F` at stream end.
    pub err: f64,
    /// Coordinator's estimate of `‖A‖²_F`.
    pub frob_est: f64,
}

macro_rules! drive_matrix {
    ($module:ident, $cfg:expr, $rows:expr, $truth:expr) => {{
        let mut runner = matrix::$module::deploy($cfg);
        let truth = &mut $truth;
        runner.run_partitioned(
            $rows.inspect(|row| truth.update(row)),
            &mut RoundRobin::new($cfg.sites),
            DRIVER_BATCH,
        );
        (
            runner.stats().total(),
            runner.coordinator().sketch(),
            runner.coordinator().frob_estimate(),
        )
    }};
}

/// Runs one matrix protocol (star deployment) over `n` rows produced by
/// `make_rows` (a factory so every protocol sees the identical stream)
/// and returns the end-of-stream covariance error.
pub fn run_matrix<F, I>(
    proto: MatrixProtocol,
    cfg: &MatrixConfig,
    make_rows: F,
    n: usize,
) -> MatrixRunResult
where
    F: Fn() -> I,
    I: Iterator<Item = Vec<f64>>,
{
    let mut truth = StreamingGram::new(cfg.dim);
    let rows = make_rows().take(n);
    let (msgs, sketch, frob_est) = match proto {
        MatrixProtocol::P1 => drive_matrix!(p1, cfg, rows, truth),
        MatrixProtocol::P2 => drive_matrix!(p2, cfg, rows, truth),
        MatrixProtocol::P3 => drive_matrix!(p3, cfg, rows, truth),
        MatrixProtocol::P3wr => drive_matrix!(p3wr, cfg, rows, truth),
        MatrixProtocol::P4 => drive_matrix!(p4, cfg, rows, truth),
    };
    let err = truth
        .error_of_sketch(&sketch)
        .expect("error metric eigensolve");
    MatrixRunResult {
        protocol: proto.name(),
        msgs,
        err,
        frob_est,
    }
}

macro_rules! calibrate_hh_arm {
    ($module:ident, $cfg:expr, $prefix:expr, $topo:expr, $batch:expr) => {{
        let mut runner = hh::$module::deploy_topology($cfg, $topo);
        runner.run_partitioned(
            $prefix.iter().copied(),
            &mut RoundRobin::new($cfg.sites),
            $batch,
        );
        runner.stats().clone()
    }};
}

/// Runs a calibration prefix of a heavy-hitter workload on one
/// candidate topology (sequentially, with a throwaway deployment) and
/// returns the full measured [`CommStats`] — the probe that
/// [`Topology::resolve_calibrated`] consumes.
pub fn calibrate_hh(
    proto: HhProtocol,
    cfg: &HhConfig,
    prefix: &[(u64, f64)],
    topology: Topology,
    batch: usize,
) -> CommStats {
    match proto {
        HhProtocol::P1 => calibrate_hh_arm!(p1, cfg, prefix, topology, batch),
        HhProtocol::P2 => calibrate_hh_arm!(p2, cfg, prefix, topology, batch),
        HhProtocol::P3 => calibrate_hh_arm!(p3, cfg, prefix, topology, batch),
        HhProtocol::P3wr => calibrate_hh_arm!(p3wr, cfg, prefix, topology, batch),
        HhProtocol::P4 => calibrate_hh_arm!(p4, cfg, prefix, topology, batch),
    }
}

/// Resolves a [`Topology::Adaptive`] deployment for a heavy-hitter
/// workload by running the two-pass calibration
/// ([`Topology::resolve_calibrated`]) over `prefix`: a star probe
/// first, then — only if the star's measured fan-in is over budget —
/// one probe per candidate fanout, keeping the one with the least
/// measured root pressure. Concrete topologies return themselves
/// without probing. Re-planning happens here, at a deployment boundary
/// (thresholds reset with the fresh deployment), which is what keeps
/// the parity pins deterministic.
pub fn resolve_hh_adaptive(
    proto: HhProtocol,
    cfg: &HhConfig,
    prefix: &[(u64, f64)],
    topology: Topology,
    batch: usize,
) -> Topology {
    topology.resolve_calibrated(cfg.sites, |candidate| {
        calibrate_hh(proto, cfg, prefix, candidate, batch)
    })
}

/// Centralized Frequent Directions baseline for Table 1: every row is
/// shipped to the coordinator (`msgs = n`), which maintains an FD sketch
/// of `2k` rows; the reported sketch is its best rank-`k` truncation, to
/// compare like-for-like with the SVD baseline.
pub fn baseline_fd<I>(rows: I, dim: usize, k: usize) -> MatrixRunResult
where
    I: Iterator<Item = Vec<f64>>,
{
    let mut truth = StreamingGram::new(dim);
    let mut fd = FrequentDirections::new(dim, (2 * k).max(2));
    let mut n = 0u64;
    for row in rows {
        truth.update(&row);
        fd.update(&row);
        n += 1;
    }
    let bk = fd.rank_k_sketch(k);
    let err = truth.error_of_sketch(&bk).expect("error metric eigensolve");
    MatrixRunResult {
        protocol: "FD",
        msgs: n,
        err,
        frob_est: truth.frob_sq(),
    }
}

/// Centralized exact-SVD baseline for Table 1: ships everything
/// (`msgs = n`) and reports the best rank-`k` approximation — the
/// information-theoretic floor for a rank-`k` summary.
pub fn baseline_svd<I>(rows: I, dim: usize, k: usize) -> MatrixRunResult
where
    I: Iterator<Item = Vec<f64>>,
{
    let mut truth = StreamingGram::new(dim);
    let mut n = 0u64;
    for row in rows {
        truth.update(&row);
        n += 1;
    }
    let err = truth.best_rank_k_error(k).expect("rank-k eigensolve");
    MatrixRunResult {
        protocol: "SVD",
        msgs: n,
        err,
        frob_est: truth.frob_sq(),
    }
}

/// Grid-searches `ε` so a heavy-hitter protocol's measured error lands
/// nearest `target_err` (Figure 1(f) tunes all protocols to err ≈ 0.1
/// before comparing their communication across `β`). Returns the best
/// run and the `ε` that produced it.
pub fn tune_hh_to_error(
    proto: HhProtocol,
    base: &HhConfig,
    stream: &[(u64, f64)],
    phi: f64,
    target_err: f64,
    grid: &[f64],
) -> (f64, HhRunResult) {
    assert!(!grid.is_empty(), "tune_hh_to_error: empty grid");
    let mut best: Option<(f64, f64, HhRunResult)> = None; // (gap, eps, run)
    for &eps in grid {
        let mut cfg = base.clone();
        cfg.epsilon = eps;
        cfg.sample_size = None;
        let run = run_hh(proto, &cfg, stream, phi);
        // Compare errors on a log scale: "nearest" should mean within a
        // factor, not within an absolute gap dominated by the large end.
        let gap = (run.eval.avg_rel_err.max(1e-12).ln() - target_err.ln()).abs();
        if best.as_ref().map(|(g, _, _)| gap < *g).unwrap_or(true) {
            best = Some((gap, eps, run));
        }
    }
    let (_, eps, run) = best.expect("non-empty tuning grid");
    (eps, run)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cma_data::WeightedZipfStream;

    fn small_stream(n: usize) -> Vec<(u64, f64)> {
        WeightedZipfStream::new(500, 2.0, 10.0, 1).take_vec(n)
    }

    #[test]
    fn hh_driver_runs_all_protocols() {
        let stream = small_stream(5_000);
        let cfg = HhConfig::new(5, 0.05).with_seed(1);
        for proto in [
            HhProtocol::P1,
            HhProtocol::P2,
            HhProtocol::P3,
            HhProtocol::P3wr,
            HhProtocol::P4,
        ] {
            let r = run_hh(proto, &cfg, &stream, 0.05);
            assert!(r.msgs > 0, "{}: no communication", r.protocol);
            assert!(
                r.eval.recall >= 0.9,
                "{}: recall {}",
                r.protocol,
                r.eval.recall
            );
        }
    }

    #[test]
    fn matrix_driver_runs_all_protocols() {
        let cfg = MatrixConfig::new(3, 0.3, 6).with_seed(2);
        let make = || cma_data::SyntheticMatrixStream::new(6, &[3.0, 1.0], 100.0, 7);
        for proto in [MatrixProtocol::P1, MatrixProtocol::P2, MatrixProtocol::P3] {
            let r = run_matrix(proto, &cfg, make, 2_000);
            assert!(r.msgs > 0, "{}: no communication", r.protocol);
            assert!(r.err <= cfg.epsilon, "{}: err {} > ε", r.protocol, r.err);
        }
        // P3wr needs a larger sample for the same ε (higher variance —
        // the paper's point about with-replacement sampling).
        let cfg_wr = cfg.clone().with_sample_size(600);
        let rwr = run_matrix(MatrixProtocol::P3wr, &cfg_wr, make, 2_000);
        assert!(rwr.err <= cfg.epsilon, "P3wr: err {} > ε", rwr.err);
        // P4 runs but carries no guarantee.
        let r4 = run_matrix(MatrixProtocol::P4, &cfg, make, 2_000);
        assert!(r4.msgs > 0);
    }

    #[test]
    fn topology_drivers_reduce_fan_in_and_keep_accuracy() {
        let stream = small_stream(8_000);
        let cfg = HhConfig::new(16, 0.05).with_seed(5);
        let (star, star_comm) =
            run_hh_topology(HhProtocol::P2, &cfg, &stream, 0.05, Topology::Star, 64);
        let (tree, tree_comm) = run_hh_topology(
            HhProtocol::P2,
            &cfg,
            &stream,
            0.05,
            Topology::Tree { fanout: 4 },
            64,
        );
        assert_eq!(star_comm.max_fan_in, 16);
        assert_eq!(tree_comm.max_fan_in, 4);
        assert!(tree.eval.recall >= star.eval.recall - 0.05);
    }

    #[test]
    fn baselines_order_correctly() {
        let make = || cma_data::SyntheticMatrixStream::new(8, &[4.0, 2.0, 1.0, 0.5], 100.0, 9);
        let svd = baseline_svd(make().take(3_000), 8, 2);
        let fd = baseline_fd(make().take(3_000), 8, 2);
        // SVD is the floor for rank-2 summaries.
        assert!(svd.err <= fd.err + 1e-9, "svd {} vs fd {}", svd.err, fd.err);
        assert_eq!(svd.msgs, 3_000);
        assert_eq!(fd.msgs, 3_000);
    }

    #[test]
    fn tuner_moves_toward_target() {
        let stream = small_stream(20_000);
        let cfg = HhConfig::new(5, 0.01);
        let grid = [0.05, 0.01, 0.002];
        let (eps, run) = tune_hh_to_error(HhProtocol::P2, &cfg, &stream, 0.05, 1e-3, &grid);
        assert!(grid.contains(&eps));
        assert!(run.eval.avg_rel_err.is_finite());
    }
}
