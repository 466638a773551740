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
use cma_core::window::{fd as swfd, mg as swmg, SwFdConfig, SwMgConfig};
use cma_core::{HhConfig, MatrixConfig};
use cma_data::StreamingGram;
use cma_linalg::svd::gram_svd;
use cma_linalg::Matrix;
use cma_sketch::{ExactWeightedCounter, FrequentDirections};
use cma_stream::partition::RoundRobin;
use cma_stream::runner::churn;
use cma_stream::runner::engine::{self, EngineStats, Executor, ThreadedConfig};
use cma_stream::{ChurnConfig, ChurnReport, CommStats, Topology};

/// Arrivals per epoch when a driver delivers a stream to a deployment
/// through the batch-first runner. Batched delivery is
/// execution-equivalent to per-item delivery in the same order (see the
/// `cma-stream` crate docs); 256 amortises per-item dispatch while
/// keeping epochs small relative to every workload used here.
pub const DRIVER_BATCH: usize = 256;

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

/// Flattened communication profile of one run — what the JSON bench
/// recorder and the topology sweeps report.
#[derive(Debug, Clone)]
pub struct CommSummary {
    /// Total message cost (all hops + fanned-out broadcasts).
    pub total: u64,
    /// Logical messages leaving the leaf sites.
    pub up_msgs: u64,
    /// Broadcast events.
    pub broadcast_events: u64,
    /// Broadcast deliveries — one per edge a frame actually crossed
    /// ([`CommStats::broadcast_deliveries`]; on the structural planes
    /// this equals one per recipient, the historical meaning).
    pub broadcast_cost: u64,
    /// Recipients that adopted a fresh payload
    /// ([`CommStats::broadcast_reach`]). Equals `broadcast_cost` on the
    /// structural planes; under gossip the gap is redundancy.
    pub broadcast_reach: u64,
    /// Largest per-node out-degree any single broadcast event required
    /// ([`CommStats::broadcast_peak_out`]) — the dissemination
    /// bottleneck: `m + I` for root fan-out, `O(fanout · rounds)` for
    /// gossip.
    pub broadcast_peak_out: u64,
    /// Dissemination rounds summed over events
    /// ([`CommStats::broadcast_lag_rounds`]) — convergence lag.
    pub broadcast_lag_rounds: u64,
    /// Leaves missed by their event, summed over events
    /// ([`CommStats::broadcast_stale`]); always 0 on the structural
    /// planes over a perfect transport.
    pub broadcast_stale: u64,
    /// Measured encoded bytes of upward traffic, summed across every
    /// hop each message crosses ([`CommStats::bytes_up`]).
    pub bytes_up: u64,
    /// Measured encoded bytes of broadcast traffic, charged per
    /// recipient ([`CommStats::bytes_down`]).
    pub bytes_down: u64,
    /// Structural fan-in bound (m for a star, the fanout for a tree).
    pub max_fan_in: u64,
    /// Messages the root coordinator actually received.
    pub root_in_msgs: u64,
    /// Hops from leaf to root.
    pub hops: usize,
    /// Scheduler counters of a pooled-engine run ([`EngineSummary`]);
    /// `None` for the sequential driver, which has no scheduler to
    /// count.
    pub engine: Option<EngineSummary>,
}

/// Flattened per-run scheduler counters ([`EngineStats`]) of a pooled
/// record — the v2 work-stealing engine's own telemetry, recorded next
/// to the communication profile so a bench diff can tell a protocol
/// change from a scheduling change.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct EngineSummary {
    /// Node tasks executed across all workers.
    pub tasks: u64,
    /// Chunks stolen from another worker's deque.
    pub steals: u64,
    /// Times a worker actually slept on the wakeup condvar.
    pub parks: u64,
    /// Times a sleeping worker was woken by a task-producing event.
    pub wakeups: u64,
    /// Per-worker steal counts, worker 0 first, slash-separated
    /// (`"12/9/14"`) — kept flat because the bench JSON schema carries
    /// no arrays.
    pub worker_steals: String,
    /// Per-worker park counts, same encoding.
    pub worker_parks: String,
}

impl From<&EngineStats> for EngineSummary {
    fn from(s: &EngineStats) -> Self {
        let join = |field: fn(&cma_stream::WorkerStats) -> u64| {
            s.workers
                .iter()
                .map(|w| field(w).to_string())
                .collect::<Vec<_>>()
                .join("/")
        };
        EngineSummary {
            tasks: s.total_tasks(),
            steals: s.total_steals(),
            parks: s.total_parks(),
            wakeups: s.total_wakeups(),
            worker_steals: join(|w| w.steals),
            worker_parks: join(|w| w.parks),
        }
    }
}

impl From<&CommStats> for CommSummary {
    fn from(s: &CommStats) -> Self {
        CommSummary {
            total: s.total(),
            up_msgs: s.up_msgs,
            broadcast_events: s.broadcast_events,
            broadcast_cost: s.broadcast_deliveries,
            broadcast_reach: s.broadcast_reach,
            broadcast_peak_out: s.broadcast_peak_out,
            broadcast_lag_rounds: s.broadcast_lag_rounds,
            broadcast_stale: s.broadcast_stale,
            bytes_up: s.bytes_up,
            bytes_down: s.bytes_down,
            max_fan_in: s.max_fan_in,
            root_in_msgs: s.node_in_msgs.last().copied().unwrap_or(0),
            hops: s.per_level.len(),
            engine: None,
        }
    }
}

macro_rules! drive_hh {
    ($runner:expr, $cfg:expr, $stream:expr, $exact:expr, $phi:expr, $batch:expr) => {{
        let mut runner = $runner;
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
/// additionally reporting the communication profile ([`CommSummary`]) —
/// the per-hop/fan-in data the topology benches record.
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
        HhProtocol::P1 => drive_hh!(
            hh::p1::deploy_topology(cfg, topology),
            cfg,
            stream,
            &exact,
            phi,
            batch
        ),
        HhProtocol::P2 => drive_hh!(
            hh::p2::deploy_topology(cfg, topology),
            cfg,
            stream,
            &exact,
            phi,
            batch
        ),
        HhProtocol::P3 => drive_hh!(
            hh::p3::deploy_topology(cfg, topology),
            cfg,
            stream,
            &exact,
            phi,
            batch
        ),
        HhProtocol::P3wr => drive_hh!(
            hh::p3wr::deploy_topology(cfg, topology),
            cfg,
            stream,
            &exact,
            phi,
            batch
        ),
        HhProtocol::P4 => drive_hh!(
            hh::p4::deploy_topology(cfg, topology),
            cfg,
            stream,
            &exact,
            phi,
            batch
        ),
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

/// Round-robin pre-partitioning of a stream over `m` sites — the same
/// per-site streams a sequential `run_partitioned` with [`RoundRobin`]
/// delivers, as explicit input vectors for the engine drivers. Public
/// so pooled-vs-sequential comparisons (tests, harnesses) share one
/// definition of "the identical partitioning".
pub fn partition_round_robin<T: Clone>(stream: &[T], m: usize) -> Vec<Vec<T>> {
    let mut inputs: Vec<Vec<T>> = vec![Vec::new(); m];
    for (i, x) in stream.iter().enumerate() {
        inputs[i % m].push(x.clone());
    }
    inputs
}

macro_rules! drive_hh_engine {
    ($module:ident, $cfg:expr, $inputs:expr, $exact:expr, $phi:expr, $topo:expr, $tcfg:expr, $exec:expr) => {{
        let (sites, coordinator, _) = hh::$module::deploy_topology($cfg, $topo).into_parts();
        let parts = engine::run_partitioned_topology_parts(
            sites,
            coordinator,
            $inputs,
            $tcfg,
            $exec,
            $topo,
            hh::$module::make_aggregator($cfg, $topo),
        );
        let mut summary = CommSummary::from(&parts.stats);
        summary.engine = Some(EngineSummary::from(&parts.engine));
        let eval = metrics::evaluate(&parts.coordinator, $exact, $phi, $cfg.epsilon);
        (summary, eval)
    }};
}

/// [`run_hh_topology`] through the *execution engine*: sites and
/// interior aggregator nodes run as tasks on a bounded worker pool
/// (thread count `executor.workers() + 1`, independent of `m` and of
/// the interior node count), so the reported root fan-in
/// ([`CommSummary::root_in_msgs`]) and wall-clock reflect a real
/// concurrent deployment rather than a sequential simulation.
pub fn run_hh_engine(
    proto: HhProtocol,
    cfg: &HhConfig,
    stream: &[(u64, f64)],
    phi: f64,
    topology: Topology,
    tcfg: &ThreadedConfig,
    executor: Executor,
) -> (HhRunResult, CommSummary) {
    let mut exact = ExactWeightedCounter::new();
    for &(e, w) in stream {
        exact.update(e, w);
    }
    let inputs = partition_round_robin(stream, cfg.sites);
    let (summary, eval) = match proto {
        HhProtocol::P1 => drive_hh_engine!(p1, cfg, inputs, &exact, phi, topology, tcfg, executor),
        HhProtocol::P2 => drive_hh_engine!(p2, cfg, inputs, &exact, phi, topology, tcfg, executor),
        HhProtocol::P3 => drive_hh_engine!(p3, cfg, inputs, &exact, phi, topology, tcfg, executor),
        HhProtocol::P3wr => {
            drive_hh_engine!(p3wr, cfg, inputs, &exact, phi, topology, tcfg, executor)
        }
        HhProtocol::P4 => drive_hh_engine!(p4, cfg, inputs, &exact, phi, topology, tcfg, executor),
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

macro_rules! drive_matrix_engine {
    ($module:ident, $cfg:expr, $inputs:expr, $topo:expr, $tcfg:expr, $exec:expr) => {{
        let (sites, coordinator, _) = matrix::$module::deploy_topology($cfg, $topo).into_parts();
        let parts = engine::run_partitioned_topology_parts(
            sites,
            coordinator,
            $inputs,
            $tcfg,
            $exec,
            $topo,
            matrix::$module::make_aggregator($cfg, $topo),
        );
        let mut summary = CommSummary::from(&parts.stats);
        summary.engine = Some(EngineSummary::from(&parts.engine));
        (
            summary,
            parts.coordinator.sketch(),
            parts.coordinator.frob_estimate(),
        )
    }};
}

/// [`run_matrix_topology`] through the *execution engine* (see
/// [`run_hh_engine`]).
pub fn run_matrix_engine(
    proto: MatrixProtocol,
    cfg: &MatrixConfig,
    rows: &[Vec<f64>],
    topology: Topology,
    tcfg: &ThreadedConfig,
    executor: Executor,
) -> (MatrixRunResult, CommSummary) {
    let mut truth = StreamingGram::new(cfg.dim);
    for row in rows {
        truth.update(row);
    }
    let inputs = partition_round_robin(rows, cfg.sites);
    let (summary, sketch, frob_est) = match proto {
        MatrixProtocol::P1 => drive_matrix_engine!(p1, cfg, inputs, topology, tcfg, executor),
        MatrixProtocol::P2 => drive_matrix_engine!(p2, cfg, inputs, topology, tcfg, executor),
        MatrixProtocol::P3 => drive_matrix_engine!(p3, cfg, inputs, topology, tcfg, executor),
        MatrixProtocol::P3wr => drive_matrix_engine!(p3wr, cfg, inputs, topology, tcfg, executor),
        MatrixProtocol::P4 => drive_matrix_engine!(p4, cfg, inputs, topology, tcfg, executor),
    };
    let err = truth
        .error_of_sketch(&sketch)
        .expect("error metric eigensolve");
    (
        MatrixRunResult {
            protocol: proto.name(),
            msgs: summary.total,
            err,
            frob_est,
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
    ($runner:expr, $cfg:expr, $rows:expr, $truth:expr, $batch:expr) => {{
        let mut runner = $runner;
        let truth = &mut $truth;
        runner.run_partitioned(
            $rows.inspect(|row| truth.update(row)),
            &mut RoundRobin::new($cfg.sites),
            $batch,
        );
        let summary = CommSummary::from(runner.stats());
        let sketch = runner.coordinator().sketch();
        let frob_est = runner.coordinator().frob_estimate();
        (summary, sketch, frob_est)
    }};
}

/// Runs one matrix protocol over `n` rows produced by `make_rows` (a
/// factory so every protocol sees the identical stream) and returns the
/// end-of-stream covariance error.
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
    let (run, _) = run_matrix_topology(proto, cfg, make_rows, n, Topology::Star, DRIVER_BATCH);
    run
}

/// [`run_matrix`] over an explicit aggregation topology and batch size,
/// additionally reporting the communication profile ([`CommSummary`]).
pub fn run_matrix_topology<F, I>(
    proto: MatrixProtocol,
    cfg: &MatrixConfig,
    make_rows: F,
    n: usize,
    topology: Topology,
    batch: usize,
) -> (MatrixRunResult, CommSummary)
where
    F: Fn() -> I,
    I: Iterator<Item = Vec<f64>>,
{
    let mut truth = StreamingGram::new(cfg.dim);
    let rows = make_rows().take(n);
    let (summary, sketch, frob_est) = match proto {
        MatrixProtocol::P1 => drive_matrix!(
            matrix::p1::deploy_topology(cfg, topology),
            cfg,
            rows,
            truth,
            batch
        ),
        MatrixProtocol::P2 => drive_matrix!(
            matrix::p2::deploy_topology(cfg, topology),
            cfg,
            rows,
            truth,
            batch
        ),
        MatrixProtocol::P3 => drive_matrix!(
            matrix::p3::deploy_topology(cfg, topology),
            cfg,
            rows,
            truth,
            batch
        ),
        MatrixProtocol::P3wr => drive_matrix!(
            matrix::p3wr::deploy_topology(cfg, topology),
            cfg,
            rows,
            truth,
            batch
        ),
        MatrixProtocol::P4 => drive_matrix!(
            matrix::p4::deploy_topology(cfg, topology),
            cfg,
            rows,
            truth,
            batch
        ),
    };
    let err = truth
        .error_of_sketch(&sketch)
        .expect("error metric eigensolve");
    (
        MatrixRunResult {
            protocol: proto.name(),
            msgs: summary.total,
            err,
            frob_est,
        },
        summary,
    )
}

/// Result of a protocol-only timed run — the `d`-axis bench rows.
///
/// The stream is fully materialised before the clock starts and ground
/// truth is evaluated after it stops, so `elapsed` measures the
/// protocol's math plane (basis projections, eigensolves, FD shrinks)
/// rather than the harness. This matters: the general drivers fold the
/// `O(n·d²)` exact-Gram accumulation into the streamed region, which at
/// `d = 512` would swamp the very kernel differences the `d`-axis rows
/// exist to expose.
#[derive(Debug, Clone)]
pub struct TimedRunResult {
    /// Protocol name.
    pub protocol: &'static str,
    /// Total messages in the paper's units.
    pub msgs: u64,
    /// End-of-stream covariance error (window-restricted for SwFd).
    pub err: f64,
    /// Wall-clock of the protocol run only.
    pub elapsed: std::time::Duration,
    /// Rows streamed (throughput numerator).
    pub rows: usize,
    /// Communication profile of the run (measured outside the clock).
    pub comm: CommSummary,
}

macro_rules! drive_matrix_timed {
    ($module:ident, $cfg:expr, $rows:expr, $batch:expr) => {{
        let mut runner = matrix::$module::deploy_topology($cfg, Topology::Star);
        let t0 = std::time::Instant::now();
        runner.run_partitioned(
            $rows.iter().cloned(),
            &mut RoundRobin::new($cfg.sites),
            $batch,
        );
        let elapsed = t0.elapsed();
        (
            elapsed,
            CommSummary::from(runner.stats()),
            runner.coordinator().sketch(),
        )
    }};
}

/// Runs one matrix protocol (star topology) with protocol-only timing;
/// see [`TimedRunResult`]. Truth is evaluated afterwards through the
/// blocked `Matrix::gram` + [`cma_linalg::norms::covariance_error`]
/// (identical bits to the streaming accumulation — the kernels are
/// bit-exact equivalents).
pub fn run_matrix_timed(
    proto: MatrixProtocol,
    cfg: &MatrixConfig,
    rows: &[Vec<f64>],
    batch: usize,
) -> TimedRunResult {
    let (elapsed, summary, sketch) = match proto {
        MatrixProtocol::P1 => drive_matrix_timed!(p1, cfg, rows, batch),
        MatrixProtocol::P2 => drive_matrix_timed!(p2, cfg, rows, batch),
        MatrixProtocol::P3 => drive_matrix_timed!(p3, cfg, rows, batch),
        MatrixProtocol::P3wr => drive_matrix_timed!(p3wr, cfg, rows, batch),
        MatrixProtocol::P4 => drive_matrix_timed!(p4, cfg, rows, batch),
    };
    let a = Matrix::from_rows(rows);
    let err = cma_linalg::norms::covariance_error(&a.gram(), &sketch.gram(), a.frob_norm_sq())
        .expect("error metric eigensolve");
    TimedRunResult {
        protocol: proto.name(),
        msgs: summary.total,
        err,
        elapsed,
        rows: rows.len(),
        comm: summary,
    }
}

/// Runs the windowed matrix protocol (star topology) with protocol-only
/// timing; see [`TimedRunResult`]. The error is the paper's covariance
/// metric restricted to the exact last-`W` rows.
pub fn run_swfd_timed(cfg: &SwFdConfig, rows: &[Vec<f64>], batch: usize) -> TimedRunResult {
    let stamped = stamp_stream(rows);
    let mut runner = swfd::deploy(cfg);
    let t0 = std::time::Instant::now();
    runner.run_partitioned(stamped, &mut RoundRobin::new(cfg.params.sites), batch);
    let elapsed = t0.elapsed();
    let summary = CommSummary::from(runner.stats());
    let sketch = runner.coordinator().sketch_at(rows.len() as u64);
    let start = rows.len().saturating_sub(cfg.params.window as usize);
    let a = Matrix::from_rows(&rows[start..]);
    let err = cma_linalg::norms::covariance_error(&a.gram(), &sketch.gram(), a.frob_norm_sq())
        .expect("window error eigensolve");
    TimedRunResult {
        protocol: WindowProtocol::SwFd.name(),
        msgs: summary.total,
        err,
        elapsed,
        rows: rows.len(),
        comm: summary,
    }
}

/// The distributed sliding-window protocols under test (PR 4: the
/// paper's stated open problem, run through the site / aggregator /
/// coordinator stack).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WindowProtocol {
    /// Windowed weighted heavy hitters (Misra–Gries buckets).
    SwMg,
    /// Windowed matrix tracking (Frequent Directions buckets).
    SwFd,
}

impl WindowProtocol {
    /// Display name used in bench records.
    pub fn name(self) -> &'static str {
        match self {
            WindowProtocol::SwMg => "SwMg",
            WindowProtocol::SwFd => "SwFd",
        }
    }
}

/// Result of one windowed-protocol run.
#[derive(Debug, Clone)]
pub struct WindowRunResult {
    /// Protocol name.
    pub protocol: &'static str,
    /// Total messages in the paper's units.
    pub msgs: u64,
    /// End-of-stream error against the exact window content
    /// (protocol-specific metric; see the driver docs).
    pub err: f64,
    /// The coordinator's certified bound on that error at query time.
    pub certified: f64,
}

/// Stamps a stream with its global indices — the windowed protocols'
/// input shape ([`cma_core::window::Stamped`]).
pub fn stamp_stream<T: Clone>(stream: &[T]) -> Vec<(u64, T)> {
    stream
        .iter()
        .enumerate()
        .map(|(t, x)| (t as u64, x.clone()))
        .collect()
}

/// Measured windowed heavy-hitter error at the end of the stream: the
/// average of `|est − truth| / W_window` over the items whose true
/// window weight reaches `phi · W_window` (the paper's evaluation
/// style, restricted to the window).
fn swmg_window_err(
    coord: &cma_core::window::mg::SwMgCoordinator,
    stream: &[(u64, f64)],
    window: usize,
    phi: f64,
) -> f64 {
    let t_now = stream.len();
    let start = t_now.saturating_sub(window);
    let mut exact = ExactWeightedCounter::new();
    for &(e, w) in &stream[start..] {
        exact.update(e, w);
    }
    let w_win = exact.total_weight();
    let mut err_sum = 0.0;
    let mut n = 0usize;
    for (e, f) in exact.iter() {
        if f >= phi * w_win {
            err_sum += (coord.estimate_at(t_now as u64, e) - f).abs() / w_win;
            n += 1;
        }
    }
    if n == 0 {
        0.0
    } else {
        err_sum / n as f64
    }
}

/// Runs the windowed heavy-hitter protocol over `stream` through the
/// sequential runner on the given topology, scoring the final window
/// against exact ground truth at heavy-hitter threshold `phi`.
pub fn run_swmg_topology(
    cfg: &SwMgConfig,
    stream: &[(u64, f64)],
    phi: f64,
    topology: Topology,
    batch: usize,
) -> (WindowRunResult, CommSummary) {
    let mut runner = swmg::deploy_topology(cfg, topology);
    runner.run_partitioned(
        stamp_stream(stream),
        &mut RoundRobin::new(cfg.params.sites),
        batch,
    );
    let summary = CommSummary::from(runner.stats());
    let coord = runner.coordinator();
    let err = swmg_window_err(coord, stream, cfg.params.window as usize, phi);
    (
        WindowRunResult {
            protocol: WindowProtocol::SwMg.name(),
            msgs: summary.total,
            err,
            certified: coord.error_bound_at(stream.len() as u64).total(),
        },
        summary,
    )
}

/// Measured windowed covariance error at the end of the stream: the
/// paper's `‖A_WᵀA_W − BᵀB‖₂ / ‖A_W‖²_F` with `A_W` the exact last-`W`
/// rows.
fn swfd_window_err(sketch: &Matrix, rows: &[Vec<f64>], window: usize, dim: usize) -> f64 {
    let start = rows.len().saturating_sub(window);
    let mut truth = StreamingGram::new(dim);
    for row in &rows[start..] {
        truth.update(row);
    }
    truth
        .error_of_sketch(sketch)
        .expect("window error eigensolve")
}

/// Runs the windowed matrix protocol over `rows` through the sequential
/// runner on the given topology, scoring the final window sketch
/// against the exact window covariance.
pub fn run_swfd_topology(
    cfg: &SwFdConfig,
    rows: &[Vec<f64>],
    topology: Topology,
    batch: usize,
) -> (WindowRunResult, CommSummary) {
    let mut runner = swfd::deploy_topology(cfg, topology);
    runner.run_partitioned(
        stamp_stream(rows),
        &mut RoundRobin::new(cfg.params.sites),
        batch,
    );
    let summary = CommSummary::from(runner.stats());
    let coord = runner.coordinator();
    let sketch = coord.sketch_at(rows.len() as u64);
    let err = swfd_window_err(&sketch, rows, cfg.params.window as usize, cfg.dim);
    (
        WindowRunResult {
            protocol: WindowProtocol::SwFd.name(),
            msgs: summary.total,
            err,
            certified: coord.error_bound_at(rows.len() as u64).total(),
        },
        summary,
    )
}

/// [`run_swmg_topology`] through the *pooled execution engine* (see
/// [`run_hh_engine`]).
pub fn run_swmg_engine(
    cfg: &SwMgConfig,
    stream: &[(u64, f64)],
    phi: f64,
    topology: Topology,
    tcfg: &ThreadedConfig,
    executor: Executor,
) -> (WindowRunResult, CommSummary) {
    let inputs = partition_round_robin(&stamp_stream(stream), cfg.params.sites);
    let parts = swmg::run_engine(cfg, inputs, tcfg, executor, topology);
    let mut summary = CommSummary::from(&parts.stats);
    summary.engine = Some(EngineSummary::from(&parts.engine));
    let coord = &parts.coordinator;
    let err = swmg_window_err(coord, stream, cfg.params.window as usize, phi);
    (
        WindowRunResult {
            protocol: WindowProtocol::SwMg.name(),
            msgs: summary.total,
            err,
            certified: coord.error_bound_at(stream.len() as u64).total(),
        },
        summary,
    )
}

/// [`run_swfd_topology`] through the *pooled execution engine* (see
/// [`run_hh_engine`]).
pub fn run_swfd_engine(
    cfg: &SwFdConfig,
    rows: &[Vec<f64>],
    topology: Topology,
    tcfg: &ThreadedConfig,
    executor: Executor,
) -> (WindowRunResult, CommSummary) {
    let inputs = partition_round_robin(&stamp_stream(rows), cfg.params.sites);
    let parts = swfd::run_engine(cfg, inputs, tcfg, executor, topology);
    let mut summary = CommSummary::from(&parts.stats);
    summary.engine = Some(EngineSummary::from(&parts.engine));
    let coord = &parts.coordinator;
    let sketch = coord.sketch_at(rows.len() as u64);
    let err = swfd_window_err(&sketch, rows, cfg.params.window as usize, cfg.dim);
    (
        WindowRunResult {
            protocol: WindowProtocol::SwFd.name(),
            msgs: summary.total,
            err,
            certified: coord.error_bound_at(rows.len() as u64).total(),
        },
        summary,
    )
}

/// Flattened churn/recovery telemetry of one churn-driver run — the
/// subset of [`ChurnReport`] the JSON bench recorder cares about,
/// recorded next to the communication profile so a bench diff can put a
/// number on what membership churn and crash recovery cost.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ChurnSummary {
    /// Join events applied.
    pub joins: u64,
    /// Leave events applied.
    pub leaves: u64,
    /// Budget re-splits performed.
    pub resplits: u64,
    /// Total mass of the departure flushes (withheld mass that
    /// re-entered the certified bound instead of evaporating).
    pub departed_mass: f64,
    /// Wire size of the boundary snapshot; `0` when none was taken.
    pub snapshot_bytes: u64,
    /// Mass the crashed root complex discarded (folded into the
    /// restated bound's undercount term).
    pub recovery_lost_mass: f64,
    /// WAL messages replayed into the restored coordinator.
    pub replayed_msgs: u64,
}

impl From<&ChurnReport> for ChurnSummary {
    fn from(r: &ChurnReport) -> Self {
        ChurnSummary {
            joins: r.joins as u64,
            leaves: r.leaves as u64,
            resplits: r.resplits as u64,
            departed_mass: r.departed_mass,
            snapshot_bytes: r.snapshot_bytes.unwrap_or(0),
            recovery_lost_mass: r.recovery_lost_mass,
            replayed_msgs: r.replayed_msgs,
        }
    }
}

macro_rules! drive_hh_churn {
    ($module:ident, $cfg:expr, $inputs:expr, $exact:expr, $phi:expr, $topo:expr, $tcfg:expr, $ccfg:expr) => {{
        let (sites, coordinator, _) = hh::$module::deploy_topology($cfg, $topo).into_parts();
        let parts = churn::run_churn_partitioned_topology_parts(
            sites,
            coordinator,
            $inputs,
            $tcfg,
            Executor::Inline,
            $topo,
            |t| hh::$module::make_aggregator($cfg, t),
            $ccfg,
        );
        let summary = CommSummary::from(&parts.stats);
        let eval = metrics::evaluate(&parts.coordinator, $exact, $phi, $cfg.epsilon);
        (summary, eval, ChurnSummary::from(&parts.report))
    }};
}

/// [`run_hh_engine`] through the *churn/recovery driver*: the same
/// deployment, but membership events, ε re-splits and an optional
/// snapshot/crash/WAL-replay cycle applied at segment boundaries
/// (`churn::run_churn_partitioned_topology_parts`). Scored against
/// full-stream ground truth — a schedule whose leavers eventually
/// rejoin feeds every input (paused slots are delayed, not dropped),
/// so the full-stream truth stays the right yardstick.
pub fn run_hh_churn(
    proto: HhProtocol,
    cfg: &HhConfig,
    stream: &[(u64, f64)],
    phi: f64,
    topology: Topology,
    tcfg: &ThreadedConfig,
    ccfg: &ChurnConfig,
) -> (HhRunResult, CommSummary, ChurnSummary) {
    let mut exact = ExactWeightedCounter::new();
    for &(e, w) in stream {
        exact.update(e, w);
    }
    let inputs = partition_round_robin(stream, cfg.sites);
    let (summary, eval, churn) = match proto {
        HhProtocol::P1 => drive_hh_churn!(p1, cfg, inputs, &exact, phi, topology, tcfg, ccfg),
        HhProtocol::P2 => drive_hh_churn!(p2, cfg, inputs, &exact, phi, topology, tcfg, ccfg),
        HhProtocol::P3 => drive_hh_churn!(p3, cfg, inputs, &exact, phi, topology, tcfg, ccfg),
        HhProtocol::P3wr => drive_hh_churn!(p3wr, cfg, inputs, &exact, phi, topology, tcfg, ccfg),
        HhProtocol::P4 => drive_hh_churn!(p4, cfg, inputs, &exact, phi, topology, tcfg, ccfg),
    };
    (
        HhRunResult {
            protocol: proto.name(),
            msgs: summary.total,
            eval,
        },
        summary,
        churn,
    )
}

macro_rules! drive_matrix_churn {
    ($module:ident, $cfg:expr, $inputs:expr, $topo:expr, $tcfg:expr, $ccfg:expr) => {{
        let (sites, coordinator, _) = matrix::$module::deploy_topology($cfg, $topo).into_parts();
        let parts = churn::run_churn_partitioned_topology_parts(
            sites,
            coordinator,
            $inputs,
            $tcfg,
            Executor::Inline,
            $topo,
            |t| matrix::$module::make_aggregator($cfg, t),
            $ccfg,
        );
        let summary = CommSummary::from(&parts.stats);
        (
            summary,
            parts.coordinator.sketch(),
            parts.coordinator.frob_estimate(),
            ChurnSummary::from(&parts.report),
        )
    }};
}

/// [`run_matrix_engine`] through the *churn/recovery driver* (see
/// [`run_hh_churn`]).
pub fn run_matrix_churn(
    proto: MatrixProtocol,
    cfg: &MatrixConfig,
    rows: &[Vec<f64>],
    topology: Topology,
    tcfg: &ThreadedConfig,
    ccfg: &ChurnConfig,
) -> (MatrixRunResult, CommSummary, ChurnSummary) {
    let mut truth = StreamingGram::new(cfg.dim);
    for row in rows {
        truth.update(row);
    }
    let inputs = partition_round_robin(rows, cfg.sites);
    let (summary, sketch, frob_est, churn) = match proto {
        MatrixProtocol::P1 => drive_matrix_churn!(p1, cfg, inputs, topology, tcfg, ccfg),
        MatrixProtocol::P2 => drive_matrix_churn!(p2, cfg, inputs, topology, tcfg, ccfg),
        MatrixProtocol::P3 => drive_matrix_churn!(p3, cfg, inputs, topology, tcfg, ccfg),
        MatrixProtocol::P3wr => drive_matrix_churn!(p3wr, cfg, inputs, topology, tcfg, ccfg),
        MatrixProtocol::P4 => drive_matrix_churn!(p4, cfg, inputs, topology, tcfg, ccfg),
    };
    let err = truth
        .error_of_sketch(&sketch)
        .expect("error metric eigensolve");
    (
        MatrixRunResult {
            protocol: proto.name(),
            msgs: summary.total,
            err,
            frob_est,
        },
        summary,
        churn,
    )
}

/// [`run_swmg_engine`] through the *churn/recovery driver* (see
/// [`run_hh_churn`]).
pub fn run_swmg_churn(
    cfg: &SwMgConfig,
    stream: &[(u64, f64)],
    phi: f64,
    topology: Topology,
    tcfg: &ThreadedConfig,
    ccfg: &ChurnConfig,
) -> (WindowRunResult, CommSummary, ChurnSummary) {
    let inputs = partition_round_robin(&stamp_stream(stream), cfg.params.sites);
    let (sites, coordinator, _) = swmg::deploy_topology(cfg, topology).into_parts();
    let parts = churn::run_churn_partitioned_topology_parts(
        sites,
        coordinator,
        inputs,
        tcfg,
        Executor::Inline,
        topology,
        |t| swmg::make_aggregator(cfg, t),
        ccfg,
    );
    let summary = CommSummary::from(&parts.stats);
    let coord = &parts.coordinator;
    let err = swmg_window_err(coord, stream, cfg.params.window as usize, phi);
    (
        WindowRunResult {
            protocol: WindowProtocol::SwMg.name(),
            msgs: summary.total,
            err,
            certified: coord.error_bound_at(stream.len() as u64).total(),
        },
        summary,
        ChurnSummary::from(&parts.report),
    )
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
    // Rank-k truncation of the sketch.
    let svd = gram_svd(fd.sketch()).expect("FD baseline svd");
    let mut bk = Matrix::with_cols(dim);
    for i in 0..k.min(svd.sigma.len()) {
        if svd.sigma[i] == 0.0 {
            break;
        }
        let mut r = svd.vt.row(i).to_vec();
        for v in &mut r {
            *v *= svd.sigma[i];
        }
        bk.push_row(&r);
    }
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
        assert_eq!(tree_comm.hops, 2);
        assert!(tree.eval.recall >= star.eval.recall - 0.05);

        let mcfg = MatrixConfig::new(16, 0.3, 6).with_seed(6);
        let make = || cma_data::SyntheticMatrixStream::new(6, &[3.0, 1.0], 100.0, 7);
        let (run, comm) = run_matrix_topology(
            MatrixProtocol::P1,
            &mcfg,
            make,
            1_500,
            Topology::Tree { fanout: 4 },
            64,
        );
        assert!(run.err <= mcfg.epsilon, "tree MT-P1 err {}", run.err);
        assert_eq!(comm.max_fan_in, 4);
    }

    #[test]
    fn engine_drivers_run_and_relieve_root_fan_in() {
        let stream = small_stream(8_000);
        let cfg = HhConfig::new(16, 0.05).with_seed(5);
        let tcfg = ThreadedConfig {
            batch_size: 16,
            channel_capacity: 2,
            plane: Default::default(),
        };
        let pool = Executor::Pool { workers: 2 };
        let (star, star_comm) = run_hh_engine(
            HhProtocol::P1,
            &cfg,
            &stream,
            0.05,
            Topology::Star,
            &tcfg,
            pool,
        );
        let (tree, tree_comm) = run_hh_engine(
            HhProtocol::P1,
            &cfg,
            &stream,
            0.05,
            Topology::Tree { fanout: 4 },
            &tcfg,
            pool,
        );
        assert!(star.msgs > 0 && tree.msgs > 0);
        assert_eq!(tree_comm.max_fan_in, 4);
        assert_eq!(tree_comm.hops, 2);
        assert!(
            tree_comm.root_in_msgs < star_comm.root_in_msgs,
            "pooled tree root {} vs star {}",
            tree_comm.root_in_msgs,
            star_comm.root_in_msgs
        );
        assert!(tree.eval.recall >= star.eval.recall - 0.05);

        let mcfg = MatrixConfig::new(16, 0.3, 6).with_seed(6);
        let rows: Vec<Vec<f64>> = {
            let mut s = cma_data::SyntheticMatrixStream::new(6, &[3.0, 1.0], 100.0, 7);
            (0..1_500).map(|_| s.next_row()).collect()
        };
        let (run, comm) = run_matrix_engine(
            MatrixProtocol::P1,
            &mcfg,
            &rows,
            Topology::Tree { fanout: 4 },
            &tcfg,
            pool,
        );
        assert!(run.err <= mcfg.epsilon, "pooled tree MT-P1 err {}", run.err);
        assert_eq!(comm.max_fan_in, 4);
    }

    #[test]
    fn window_drivers_run_and_certify_their_error() {
        use cma_core::window::{SwFdConfig, SwMgConfig};

        let stream = small_stream(6_000);
        let cfg = SwMgConfig::new(8, 0.1, 2_000, 32);
        let (seq, seq_comm) =
            run_swmg_topology(&cfg, &stream, 0.05, Topology::Tree { fanout: 4 }, 64);
        assert!(seq.msgs > 0, "SwMg: no communication");
        assert!(seq.err.is_finite() && seq.err >= 0.0);
        assert!(seq.certified > 0.0);
        assert_eq!(seq_comm.max_fan_in, 4);

        let tcfg = ThreadedConfig {
            batch_size: 16,
            channel_capacity: 2,
            plane: Default::default(),
        };
        let pool = Executor::Pool { workers: 2 };
        let (pooled, pooled_comm) = run_swmg_engine(
            &cfg,
            &stream,
            0.05,
            Topology::Tree { fanout: 4 },
            &tcfg,
            pool,
        );
        assert!(pooled.msgs > 0);
        assert_eq!(pooled_comm.max_fan_in, 4);

        let rows: Vec<Vec<f64>> = {
            let mut s = cma_data::SyntheticMatrixStream::new(6, &[3.0, 1.0], 100.0, 7);
            (0..1_500).map(|_| s.next_row()).collect()
        };
        let fcfg = SwFdConfig::new(8, 0.15, 500, 6, 20);
        let (seq, _) = run_swfd_topology(&fcfg, &rows, Topology::Star, 64);
        assert!(seq.msgs > 0, "SwFd: no communication");
        // The measured error metric normalises by ‖A_W‖²_F; the certified
        // bound is absolute — compare both to sanity, not to each other.
        assert!(seq.err.is_finite() && seq.err >= 0.0);
        let (pooled, _) = run_swfd_engine(&fcfg, &rows, Topology::Tree { fanout: 2 }, &tcfg, pool);
        assert!(pooled.err.is_finite());
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
