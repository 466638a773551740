//! The pooled execution engine's guarantee suite: every
//! infinite-stream protocol plus the two sliding-window protocols run
//! on [`Executor::Pool`] at deployment scale — `m = 256` with at most
//! 16 worker threads (thread count is bounded by the pool size plus a
//! constant, *not* by `m +` interior nodes), and an `m = 1024` smoke
//! run on four workers. `tests/threaded_topology.rs` re-checks the same
//! claims at m = 64 on pools of 1, 2 and 8 workers. The pool changes
//! the *scheduling*, not the semantics:
//!
//! 1. **Guarantees survive pooled asynchrony** — broadcast state lags
//!    per hop as in a real deployment, and a stale (smaller) threshold
//!    only makes a node forward sooner.
//! 2. **Exact relays stay exact** — P3/MT-P3's priority draws consume
//!    RNG independently of timing, so the pooled tree's final sample
//!    equals the sequential tree's bit for bit at any worker count.
//!    The window protocols cannot be bit-exact (lag moves flush
//!    boundaries); pooled and sequential trees agree within the *sum*
//!    of their certified bounds instead.
//! 3. **Shutdown drains bottom-up** — ragged finishes and silent
//!    subtrees leave the coordinator queryable the moment the call
//!    returns, and the run hands back the interior aggregator nodes
//!    (still holding their sub-threshold partials) for conservation
//!    audits.

use cma::data::{StreamingGram, SyntheticMatrixStream, WeightedZipfStream};
use cma::linalg::{random, Matrix};
use cma::protocols::hh::{self, HhConfig, HhEstimator};
use cma::protocols::matrix::{self, MatrixConfig, MatrixEstimator};
use cma::protocols::window::{fd, mg, SwFdConfig, SwMgConfig};
use cma::sketch::ExactWeightedCounter;
use cma::stream::partition::partition_round_robin as partition;
use cma::stream::partition::RoundRobin;
use cma::stream::runner::engine::{self, Executor, ThreadedConfig};
use cma::stream::Topology;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn zipf_stream(n: usize, seed: u64) -> Vec<(u64, f64)> {
    WeightedZipfStream::new(2_000, 2.0, 50.0, seed).take_vec(n)
}

fn matrix_stream(n: usize, dim: usize, seed: u64) -> Vec<Vec<f64>> {
    let mut s = SyntheticMatrixStream::new(dim, &[4.0, 2.0, 1.0], 1e6, seed);
    (0..n).map(|_| s.next_row()).collect()
}

fn tcfg() -> ThreadedConfig {
    ThreadedConfig {
        batch_size: 16,
        channel_capacity: 2,
        plane: Default::default(),
    }
}

/// ≤ 16 workers at m = 256: the acceptance configuration.
const POOL: Executor = Executor::Pool { workers: 16 };

#[test]
fn hh_deterministic_protocols_keep_guarantee_on_pool_at_m256() {
    let m = 256;
    let stream = zipf_stream(12_000, 61);
    let mut exact = ExactWeightedCounter::new();
    for &(e, w) in &stream {
        exact.update(e, w);
    }
    let w = exact.total_weight();
    let cfg = HhConfig::new(m, 0.1).with_seed(4);
    let inputs = partition(&stream, m);
    let topo = Topology::Tree { fanout: 8 };

    let (sites, coord, _) = hh::p1::deploy_topology(&cfg, topo).into_parts();
    let parts = engine::run_partitioned_topology_parts(
        sites,
        coord,
        inputs.clone(),
        &tcfg(),
        POOL,
        topo,
        hh::p1::make_aggregator(&cfg, topo),
    );
    assert_eq!(parts.stats.max_fan_in, 8);
    for (e, f) in exact.iter() {
        let err = (parts.coordinator.estimate(e) - f).abs();
        assert!(
            err <= cfg.epsilon * w + 1e-6,
            "pooled p1: item {e} err {err} > εW"
        );
    }

    let (sites, coord, _) = hh::p2::deploy_topology(&cfg, topo).into_parts();
    let parts = engine::run_partitioned_topology_parts(
        sites,
        coord,
        inputs,
        &tcfg(),
        POOL,
        topo,
        hh::p2::make_aggregator(&cfg, topo),
    );
    assert_eq!(parts.stats.per_level.len(), topo.plan(m).hops());
    for (e, f) in exact.iter() {
        let err = (parts.coordinator.estimate(e) - f).abs();
        assert!(
            err <= cfg.epsilon * w + 1e-6,
            "pooled p2: item {e} err {err} > εW"
        );
    }
}

#[test]
fn hh_sampling_and_tracker_protocols_keep_guarantee_on_pool_at_m256() {
    let m = 256;
    let stream = zipf_stream(12_000, 62);
    let w: f64 = stream.iter().map(|&(_, wt)| wt).sum();
    let inputs = partition(&stream, m);
    let topo = Topology::Tree { fanout: 8 };

    // P3wr: its RNG consumption depends on broadcast timing, so what
    // must hold on the pool is the estimator's concentration, not
    // bit-equality.
    let cfg = HhConfig::new(m, 0.1).with_seed(12).with_sample_size(400);
    let (sites, coord, _) = hh::p3wr::deploy_topology(&cfg, topo).into_parts();
    let parts = engine::run_partitioned_topology_parts(
        sites,
        coord,
        inputs.clone(),
        &tcfg(),
        POOL,
        topo,
        hh::p3wr::make_aggregator(&cfg, topo),
    );
    let w_hat = parts.coordinator.total_weight();
    assert!(
        (w_hat - w).abs() <= 0.25 * w,
        "pooled p3wr Ŵ {w_hat} vs true {w}"
    );
    assert!(parts.stats.up_msgs > 0);

    // P4: the weight tracker's 2-approximation over the m + I nodes.
    let cfg = HhConfig::new(m, 0.15).with_seed(7);
    let (sites, coord, _) = hh::p4::deploy_topology(&cfg, topo).into_parts();
    let parts = engine::run_partitioned_topology_parts(
        sites,
        coord,
        inputs,
        &tcfg(),
        POOL,
        topo,
        hh::p4::make_aggregator(&cfg, topo),
    );
    let received = parts.coordinator.total_weight();
    assert!(received <= w + 1e-6, "pooled p4: Ŵ over-counted");
    assert!(
        received >= w / 2.0,
        "pooled p4: tracker lost the 2-approx ({received} < {w}/2)"
    );
}

#[test]
fn matrix_protocols_keep_guarantee_on_pool_at_m256() {
    let dim = 5;
    let m = 256;
    let stream = matrix_stream(1_500, dim, 63);
    let mut truth = StreamingGram::new(dim);
    for row in &stream {
        truth.update(row);
    }
    let cfg = MatrixConfig::new(m, 0.25, dim).with_seed(8);
    let inputs = partition(&stream, m);
    let topo = Topology::Tree { fanout: 8 };

    let (sites, coord, _) = matrix::p1::deploy_topology(&cfg, topo).into_parts();
    let parts = engine::run_partitioned_topology_parts(
        sites,
        coord,
        inputs.clone(),
        &tcfg(),
        POOL,
        topo,
        matrix::p1::make_aggregator(&cfg, topo),
    );
    let err = truth.error_of_sketch(&parts.coordinator.sketch()).unwrap();
    assert!(err <= cfg.epsilon, "pooled mt-p1: err {err} > ε");

    let (sites, coord, _) = matrix::p2::deploy_topology(&cfg, topo).into_parts();
    let parts = engine::run_partitioned_topology_parts(
        sites,
        coord,
        inputs.clone(),
        &tcfg(),
        POOL,
        topo,
        matrix::p2::make_aggregator(&cfg, topo),
    );
    let err = truth.error_of_sketch(&parts.coordinator.sketch()).unwrap();
    assert!(err <= cfg.epsilon, "pooled mt-p2: err {err} > ε");

    // MT-P4 carries no guarantee (the paper's negative result); what
    // the engine owes it is a clean run and communication accounting.
    let (sites, coord, _) = matrix::p4::deploy_topology(&cfg, topo).into_parts();
    let parts = engine::run_partitioned_topology_parts(
        sites,
        coord,
        inputs,
        &tcfg(),
        POOL,
        topo,
        matrix::p4::make_aggregator(&cfg, topo),
    );
    assert!(parts.stats.up_msgs > 0);
    assert!(parts.coordinator.frob_estimate() > 0.0);
}

/// P3's relays are exact and its priority draws timing-independent, so
/// the pooled tree must reproduce the sequential tree's coordinator
/// state bit for bit — at *every* worker count.
#[test]
fn hh_p3_pool_matches_sequential_tree_exactly() {
    let m = 64;
    let stream = zipf_stream(10_000, 33);
    let cfg = HhConfig::new(m, 0.1).with_seed(6).with_sample_size(300);
    let topo = Topology::Tree { fanout: 4 };

    let mut seq = hh::p3::deploy_topology(&cfg, topo);
    seq.run_partitioned(stream.iter().copied(), &mut RoundRobin::new(m), 64);

    // workers = 2 is the oversubscription case CI runs on its 2-core
    // runner; 16 is the acceptance pool size.
    for workers in [1usize, 2, 16] {
        let (sites, coord, _) = hh::p3::deploy_topology(&cfg, topo).into_parts();
        let parts = engine::run_partitioned_topology_parts(
            sites,
            coord,
            partition(&stream, m),
            &tcfg(),
            Executor::Pool { workers },
            topo,
            hh::p3::make_aggregator(&cfg, topo),
        );
        assert_eq!(
            seq.coordinator().total_weight(),
            parts.coordinator.total_weight(),
            "workers={workers}: Ŵ diverged on the pool"
        );
        let mut sa = seq.coordinator().tracked_items();
        let mut sb = parts.coordinator.tracked_items();
        sa.sort_unstable();
        sb.sort_unstable();
        assert_eq!(sa, sb, "workers={workers}: pooled sample diverged");
        for &e in &sa {
            assert_eq!(
                seq.coordinator().estimate(e),
                parts.coordinator.estimate(e),
                "workers={workers}: estimate diverged on item {e}"
            );
        }
        // Lag may cost extra messages, never fewer than the sample needed.
        assert!(parts.stats.up_msgs >= seq.stats().up_msgs);
    }
}

/// Same exactness for the matrix-row sampler (sample compared as a
/// set — the coordinator lays sketch rows out in arrival order, which
/// pooling permutes). Like [`hh_p3_pool_matches_sequential_tree_exactly`]
/// this sweeps workers {1, 2, 16}: under the v2 stealing scheduler the
/// single-worker pool runs steal-free, 2 oversubscribes CI's runner,
/// and 16 maximises cross-deque steals.
#[test]
fn matrix_p3_pool_matches_sequential_tree_exactly() {
    let dim = 5;
    let m = 16;
    let stream = matrix_stream(1_200, dim, 34);
    let cfg = MatrixConfig::new(m, 0.25, dim)
        .with_seed(9)
        .with_sample_size(150);
    let topo = Topology::Tree { fanout: 4 };

    let mut seq = matrix::p3::deploy_topology(&cfg, topo);
    seq.run_partitioned(stream.iter().cloned(), &mut RoundRobin::new(m), 64);

    let rows = |m: &Matrix| {
        let mut v: Vec<Vec<u64>> = (0..m.rows())
            .map(|i| m.row(i).iter().map(|x| x.to_bits()).collect())
            .collect();
        v.sort_unstable();
        v
    };
    for workers in [1usize, 2, 16] {
        let (sites, coord, _) = matrix::p3::deploy_topology(&cfg, topo).into_parts();
        let parts = engine::run_partitioned_topology_parts(
            sites,
            coord,
            partition(&stream, m),
            &tcfg(),
            Executor::Pool { workers },
            topo,
            matrix::p3::make_aggregator(&cfg, topo),
        );

        assert_eq!(
            rows(&seq.coordinator().sketch()),
            rows(&parts.coordinator.sketch()),
            "workers={workers}: pooled mt-p3 sample diverged from sequential tree"
        );
        let (fa, fb) = (
            seq.coordinator().frob_estimate(),
            parts.coordinator.frob_estimate(),
        );
        assert!(
            (fa - fb).abs() <= 1e-12 * fa.abs().max(1.0),
            "workers={workers}: F̂ diverged beyond summation-order noise: {fa} vs {fb}"
        );
    }
}

/// SwMg on the pool: the certified window bound survives pooled
/// asynchrony (bit-parity cannot — broadcast lag moves flush
/// boundaries).
#[test]
fn swmg_pool_keeps_certified_bound_at_m256() {
    let m = 256;
    let window = 2_048usize;
    let stream = zipf_stream(3 * window, 51);
    let stamped: Vec<(u64, (u64, f64))> = stream
        .iter()
        .enumerate()
        .map(|(t, x)| (t as u64, *x))
        .collect();
    let cfg = SwMgConfig::new(m, 0.1, window as u64, 32);
    let topo = Topology::Tree { fanout: 8 };

    let parts = mg::run_engine(&cfg, partition(&stamped, m), &tcfg(), POOL, topo);
    let t_now = stream.len() as u64;
    let bound = parts.coordinator.error_bound_at(t_now).total() + 1e-9;
    let start = stream.len() - window;
    for item in [1u64, 2, 5, 10, 20] {
        let truth: f64 = stream[start..]
            .iter()
            .filter(|&&(e, _)| e == item)
            .map(|&(_, w)| w)
            .sum();
        let est = parts.coordinator.estimate_at(t_now, item);
        assert!(
            (est - truth).abs() <= bound,
            "pooled SwMg: item {item} est {est} vs {truth} (bound {bound})"
        );
    }
    assert_eq!(parts.stats.max_fan_in, 8);
    assert_eq!(parts.stats.arrivals, stream.len() as u64);
}

/// The asynchrony-parity claim for SwMg: sites only learn `Ŵ` through
/// broadcasts, so a stale threshold is always one the coordinator
/// actually broadcast — which is what the `Ŵ_peak`-based withheld bound
/// is stated against. Pooled-tree and sequential-tree runs therefore
/// both land within their certified bound of the exact window content,
/// and within the *sum* of their bounds of each other, at fanout
/// {2, 4} and every worker count.
#[test]
fn swmg_pool_matches_sequential_tree_within_certified_bounds() {
    let m = 64;
    let window = 4_096usize;
    let stream = zipf_stream(3 * window, 51);
    let stamped: Vec<(u64, (u64, f64))> = stream
        .iter()
        .enumerate()
        .map(|(t, x)| (t as u64, *x))
        .collect();
    let cfg = SwMgConfig::new(m, 0.1, window as u64, 32);
    let t_now = stream.len() as u64;
    let start = stream.len() - window;

    for fanout in [2usize, 4] {
        let topo = Topology::Tree { fanout };
        let mut seq = mg::deploy_topology(&cfg, topo);
        seq.run_partitioned(stamped.iter().cloned(), &mut RoundRobin::new(m), 64);
        let seq_bound = seq.coordinator().error_bound_at(t_now).total() + 1e-9;

        for workers in [1usize, 2, 16] {
            let parts = mg::run_engine(
                &cfg,
                partition(&stamped, m),
                &tcfg(),
                Executor::Pool { workers },
                topo,
            );
            assert_eq!(parts.stats.max_fan_in, fanout as u64);
            let pool_bound = parts.coordinator.error_bound_at(t_now).total() + 1e-9;
            for item in 1..=40u64 {
                let truth: f64 = stream[start..]
                    .iter()
                    .filter(|&&(e, _)| e == item)
                    .map(|&(_, w)| w)
                    .sum();
                let seq_est = seq.coordinator().estimate_at(t_now, item);
                let pool_est = parts.coordinator.estimate_at(t_now, item);
                assert!(
                    (seq_est - truth).abs() <= seq_bound,
                    "k={fanout} item {item}: sequential est {seq_est} vs {truth}"
                );
                assert!(
                    (pool_est - truth).abs() <= pool_bound,
                    "k={fanout} w{workers} item {item}: pooled est {pool_est} vs {truth}"
                );
                assert!(
                    (pool_est - seq_est).abs() <= seq_bound + pool_bound,
                    "k={fanout} w{workers} item {item}: pooled {pool_est} vs sequential \
                     {seq_est} beyond combined bounds"
                );
            }
        }
    }
}

/// SwFd on the pool: the certified covariance bound survives.
#[test]
fn swfd_pool_keeps_certified_bound_at_m256() {
    let m = 256;
    let d = 5;
    let window = 1_024usize;
    let mut rng = StdRng::seed_from_u64(52);
    let rows: Vec<Vec<f64>> = (0..3 * window)
        .map(|_| (0..d).map(|_| random::standard_normal(&mut rng)).collect())
        .collect();
    let stamped: Vec<(u64, Vec<f64>)> = rows
        .iter()
        .enumerate()
        .map(|(t, r)| (t as u64, r.clone()))
        .collect();
    let cfg = SwFdConfig::new(m, 0.15, window as u64, d, 24);
    let topo = Topology::Tree { fanout: 8 };

    let parts = fd::run_engine(&cfg, partition(&stamped, m), &tcfg(), POOL, topo);
    let t_now = rows.len();
    let mut a = Matrix::with_cols(d);
    for r in &rows[t_now - window..] {
        a.push_row(r);
    }
    let sketch = parts.coordinator.sketch_at(t_now as u64);
    let bound = parts.coordinator.error_bound_at(t_now as u64).total() + 1e-9;
    for _ in 0..15 {
        let x = random::unit_vector(&mut rng, d);
        let diff = (a.apply_norm_sq(&x) - sketch.apply_norm_sq(&x)).abs();
        assert!(diff <= bound, "pooled SwFd: diff {diff} > bound {bound}");
    }
    assert_eq!(parts.stats.max_fan_in, 8);
}

/// Ragged shutdown at integration scale: 8 busy sites out of 256 —
/// whole subtrees silent — with estimates read immediately after the
/// run returns, and the pooled path's returned interior nodes audited
/// for the silent subtrees.
#[test]
fn pooled_ragged_finish_preserves_guarantee_and_returns_interiors() {
    let m = 256;
    let stream = zipf_stream(12_000, 38);
    let mut exact = ExactWeightedCounter::new();
    for &(e, w) in &stream {
        exact.update(e, w);
    }
    let w = exact.total_weight();
    let cfg = HhConfig::new(m, 0.1).with_seed(13);

    let mut inputs: Vec<Vec<(u64, f64)>> = vec![Vec::new(); m];
    for (i, &x) in stream.iter().enumerate() {
        inputs[i % 8].push(x);
    }

    let topo = Topology::Tree { fanout: 4 };
    let (sites, coordinator, _) = hh::p2::deploy_topology(&cfg, topo).into_parts();
    let parts = engine::run_partitioned_topology_parts(
        sites,
        coordinator,
        inputs,
        &tcfg(),
        Executor::Pool { workers: 8 },
        topo,
        hh::p2::make_aggregator(&cfg, topo),
    );

    for (e, f) in exact.iter() {
        let err = (parts.coordinator.estimate(e) - f).abs();
        assert!(
            err <= cfg.epsilon * w + 1e-6,
            "pooled ragged finish: item {e} err {err} > εW"
        );
    }
    // The run returns the interior nodes for conservation audits.
    assert_eq!(parts.aggregators.len(), topo.plan(m).internal_nodes());
    // Silent leaves and subtrees are measurably silent.
    assert!(parts.stats.node_in_msgs.contains(&0));
    assert_eq!(parts.stats.leaf_out_msgs[9], 0);
    assert_eq!(parts.stats.active_leaves(), 8);
    assert_eq!(parts.stats.arrivals, stream.len() as u64);
}

/// Thread count is the pool's, not the deployment's: m = 1024 on tree8
/// is 1170 nodes; the pool runs them on 5 threads.
#[test]
fn pool_runs_m1024_deployment_with_four_workers() {
    let m = 1024;
    let stream = zipf_stream(10_000, 71);
    let mut exact = ExactWeightedCounter::new();
    for &(e, w) in &stream {
        exact.update(e, w);
    }
    let w = exact.total_weight();
    let cfg = HhConfig::new(m, 0.2).with_seed(3);
    let topo = Topology::Tree { fanout: 8 };

    let (sites, coord, _) = hh::p2::deploy_topology(&cfg, topo).into_parts();
    let parts = engine::run_partitioned_topology_parts(
        sites,
        coord,
        partition(&stream, m),
        &tcfg(),
        Executor::Pool { workers: 4 },
        topo,
        hh::p2::make_aggregator(&cfg, topo),
    );
    assert_eq!(parts.stats.max_fan_in, 8);
    assert_eq!(
        parts.stats.node_in_msgs.len(),
        topo.plan(m).internal_nodes() + 1
    );
    for (e, f) in exact.iter() {
        let err = (parts.coordinator.estimate(e) - f).abs();
        assert!(
            err <= cfg.epsilon * w + 1e-6,
            "m=1024 pooled p2: item {e} err {err} > εW"
        );
    }
}
