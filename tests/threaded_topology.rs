//! Small-pool tree-aggregation suite: interior aggregator nodes run as
//! tasks of the engine's worker pool, so fan-in relief at the root is
//! real under load, not simulated on the coordinator thread.
//! `tests/pooled_engine.rs` pins the runtime's claims at deployment
//! scale (m = 256, 16 workers); this suite re-checks them where the
//! scheduler has the least slack — m = 64 on pools of one worker (no
//! stealing), two (CI's cores) and eight, over deep trees (fanout 2
//! and 4) with inboxes of capacity 2:
//!
//! 1. **Guarantees survive asynchrony** — broadcast state (thresholds,
//!    round numbers) lags at every tree hop, yet each protocol's error
//!    contract holds: a stale (smaller) threshold only makes a node
//!    forward *sooner*, and `RoundCoordinator::receive` discards stale
//!    sub-threshold records, so lag can cost messages but never
//!    accuracy.
//! 2. **Exact relays stay exact** — P3/MT-P3's priority draws consume
//!    one RNG value per arrival *independent of τ*, so the drawn
//!    priorities are identical under any delivery timing and the
//!    pooled tree's final sample/estimates equal the sequential
//!    tree's bit for bit. (P3wr cannot make this claim: `WrSite`'s
//!    geometric-gap sampler consumes RNG draws as a function of the
//!    current τ, so broadcast lag changes the draw sequence itself —
//!    for it we pin the estimator guarantee instead.)
//! 3. **Shutdown drains bottom-up** — sites finishing at different
//!    times, whole subtrees with no traffic, and querying estimates
//!    immediately after the run returns are all safe: the run returns
//!    only after every in-flight message has reached the coordinator.

use cma::data::{StreamingGram, SyntheticMatrixStream, WeightedZipfStream};
use cma::protocols::hh::{self, HhConfig, HhEstimator};
use cma::protocols::matrix::{self, MatrixConfig, MatrixEstimator};
use cma::sketch::ExactWeightedCounter;
use cma::stream::partition::RoundRobin;
use cma::stream::runner::engine::{self, Executor, ThreadedConfig};
use cma::stream::{
    AggNode, Aggregator, CommStats, Coordinator, MessageCost, Site, Topology, WireSized,
};
// The one shared definition of "the identical partitioning" used by
// every pooled-vs-sequential comparison.
use cma::stream::partition::partition_round_robin as partition;

/// Pool sizes every test sweeps.
const WORKERS: [usize; 3] = [1, 2, 8];

fn zipf_stream(n: usize, seed: u64) -> Vec<(u64, f64)> {
    WeightedZipfStream::new(2_000, 2.0, 50.0, seed).take_vec(n)
}

fn matrix_stream(n: usize, dim: usize, seed: u64) -> Vec<Vec<f64>> {
    let mut s = SyntheticMatrixStream::new(dim, &[4.0, 2.0, 1.0], 1e6, seed);
    (0..n).map(|_| s.next_row()).collect()
}

/// Runs a deployment on a `workers`-thread pool with 16-arrival
/// batches and capacity-2 inboxes.
fn run_pool<S, C, A>(
    sites: Vec<S>,
    coordinator: C,
    inputs: Vec<Vec<S::Input>>,
    workers: usize,
    topology: Topology,
    make_agg: impl FnMut(AggNode) -> A,
) -> (C, CommStats)
where
    S: Site + Send,
    S::Input: Send,
    S::UpMsg: MessageCost + Clone + Send,
    S::Broadcast: Clone + WireSized + Send,
    C: Coordinator<UpMsg = S::UpMsg, Broadcast = S::Broadcast>,
    A: Aggregator<UpMsg = S::UpMsg, Broadcast = S::Broadcast> + Send,
{
    let tcfg = ThreadedConfig {
        batch_size: 16,
        channel_capacity: 2,
        plane: Default::default(),
    };
    let parts = engine::run_partitioned_topology_parts(
        sites,
        coordinator,
        inputs,
        &tcfg,
        Executor::Pool { workers },
        topology,
        make_agg,
    );
    (parts.coordinator, parts.stats)
}

#[test]
fn hh_deterministic_protocols_keep_guarantee_on_threaded_trees() {
    let m = 64;
    let stream = zipf_stream(16_000, 31);
    let mut exact = ExactWeightedCounter::new();
    for &(e, w) in &stream {
        exact.update(e, w);
    }
    let w = exact.total_weight();
    let cfg = HhConfig::new(m, 0.1).with_seed(4);
    let inputs = partition(&stream, m);

    for fanout in [2usize, 4] {
        let topo = Topology::Tree { fanout };
        for workers in WORKERS {
            let (sites, coord, _) = hh::p1::deploy_topology(&cfg, topo).into_parts();
            let make_agg = hh::p1::make_aggregator(&cfg, topo);
            let (coord, stats) = run_pool(sites, coord, inputs.clone(), workers, topo, make_agg);
            assert_eq!(stats.max_fan_in, fanout as u64);
            for (e, f) in exact.iter() {
                let err = (coord.estimate(e) - f).abs();
                assert!(
                    err <= cfg.epsilon * w + 1e-6,
                    "pooled p1 k={fanout} w{workers}: item {e} err {err} > εW"
                );
            }

            let (sites, coord, _) = hh::p2::deploy_topology(&cfg, topo).into_parts();
            let make_agg = hh::p2::make_aggregator(&cfg, topo);
            let (coord, stats) = run_pool(sites, coord, inputs.clone(), workers, topo, make_agg);
            assert_eq!(stats.per_level.len(), topo.plan(m).hops());
            for (e, f) in exact.iter() {
                let err = (coord.estimate(e) - f).abs();
                assert!(
                    err <= cfg.epsilon * w + 1e-6,
                    "pooled p2 k={fanout} w{workers}: item {e} err {err} > εW"
                );
            }
        }
    }
}

#[test]
fn matrix_protocols_keep_guarantee_on_threaded_trees() {
    let dim = 5;
    let m = 64;
    let stream = matrix_stream(1_500, dim, 32);
    let mut truth = StreamingGram::new(dim);
    for row in &stream {
        truth.update(row);
    }
    let cfg = MatrixConfig::new(m, 0.25, dim).with_seed(8);
    let inputs = partition(&stream, m);
    let topo = Topology::Tree { fanout: 4 };

    for workers in WORKERS {
        let (sites, coord, _) = matrix::p1::deploy_topology(&cfg, topo).into_parts();
        let make_agg = matrix::p1::make_aggregator(&cfg, topo);
        let (coord, _) = run_pool(sites, coord, inputs.clone(), workers, topo, make_agg);
        let err = truth.error_of_sketch(&coord.sketch()).unwrap();
        assert!(err <= cfg.epsilon, "pooled mt-p1 w{workers}: err {err} > ε");

        let (sites, coord, _) = matrix::p2::deploy_topology(&cfg, topo).into_parts();
        let make_agg = matrix::p2::make_aggregator(&cfg, topo);
        let (coord, _) = run_pool(sites, coord, inputs.clone(), workers, topo, make_agg);
        let err = truth.error_of_sketch(&coord.sketch()).unwrap();
        assert!(err <= cfg.epsilon, "pooled mt-p2 w{workers}: err {err} > ε");
    }
}

/// P3's relays are exact and its priority draws are timing-independent,
/// so the pooled tree must reproduce the sequential tree's final
/// coordinator state bit for bit — same τ, same sample, same estimates
/// — here through the six hops of a binary tree.
#[test]
fn hh_p3_threaded_tree_matches_sequential_tree_exactly() {
    let m = 64;
    let stream = zipf_stream(12_000, 33);
    let cfg = HhConfig::new(m, 0.1).with_seed(6).with_sample_size(300);
    let topo = Topology::Tree { fanout: 2 };

    let mut seq = hh::p3::deploy_topology(&cfg, topo);
    seq.run_partitioned(stream.iter().copied(), &mut RoundRobin::new(m), 64);
    let mut sa = seq.coordinator().tracked_items();
    sa.sort_unstable();

    for workers in WORKERS {
        let (sites, coord, _) = hh::p3::deploy_topology(&cfg, topo).into_parts();
        let make_agg = hh::p3::make_aggregator(&cfg, topo);
        let (coord, stats) = run_pool(sites, coord, partition(&stream, m), workers, topo, make_agg);

        assert_eq!(
            seq.coordinator().total_weight(),
            coord.total_weight(),
            "w{workers}: Ŵ diverged on the pool"
        );
        let mut sb = coord.tracked_items();
        sb.sort_unstable();
        assert_eq!(
            sa, sb,
            "w{workers}: pooled sample diverged from sequential tree"
        );
        for &e in &sa {
            assert_eq!(
                seq.coordinator().estimate(e),
                coord.estimate(e),
                "w{workers}: estimate diverged on item {e}"
            );
        }
        // Lag may cost extra messages (stale τ admits more), never fewer
        // than the records the final sample needed.
        assert!(stats.up_msgs >= seq.stats().up_msgs);
    }
}

/// Same exactness for the matrix-row variant of the sampler.
#[test]
fn matrix_p3_threaded_tree_matches_sequential_tree_exactly() {
    let dim = 5;
    let m = 16;
    let stream = matrix_stream(1_500, dim, 34);
    let cfg = MatrixConfig::new(m, 0.25, dim)
        .with_seed(9)
        .with_sample_size(150);
    let topo = Topology::Tree { fanout: 2 };

    let mut seq = matrix::p3::deploy_topology(&cfg, topo);
    seq.run_partitioned(stream.iter().cloned(), &mut RoundRobin::new(m), 64);

    // The final sample *set* is timing-independent, but the coordinator
    // lays sketch rows out in arrival order, which pooling permutes —
    // compare the rows as a set (the sketch's Gram, and therefore every
    // estimate, is row-order invariant).
    let rows = |m: &cma::linalg::Matrix| {
        let mut v: Vec<Vec<u64>> = (0..m.rows())
            .map(|i| m.row(i).iter().map(|x| x.to_bits()).collect())
            .collect();
        v.sort_unstable();
        v
    };
    for workers in WORKERS {
        let (sites, coord, _) = matrix::p3::deploy_topology(&cfg, topo).into_parts();
        let make_agg = matrix::p3::make_aggregator(&cfg, topo);
        let (coord, _) = run_pool(sites, coord, partition(&stream, m), workers, topo, make_agg);

        assert_eq!(
            rows(&seq.coordinator().sketch()),
            rows(&coord.sketch()),
            "w{workers}: pooled mt-p3 sample diverged from sequential tree"
        );
        // F̂ is a float sum accumulated in arrival order; pooling permutes
        // the order, so allow last-ulp drift (the summands are identical).
        let (fa, fb) = (seq.coordinator().frob_estimate(), coord.frob_estimate());
        assert!(
            (fa - fb).abs() <= 1e-12 * fa.abs().max(1.0),
            "w{workers}: F̂ diverged beyond summation-order noise: {fa} vs {fb}"
        );
    }
}

/// P3wr's draw sequence depends on broadcast timing (its site sampler
/// skips arrivals geometrically with probability `w/τ`), so every pooled
/// run is a genuinely different random execution — what must survive is
/// the estimator's guarantee: `Ŵ = (1/s)Σρ⁽²⁾` concentrates around the
/// true W, and the dominance-filtering relays never starve the root.
#[test]
fn hh_p3wr_threaded_tree_keeps_estimator_guarantee() {
    let m = 64;
    let stream = zipf_stream(16_000, 35);
    let w: f64 = stream.iter().map(|&(_, wt)| wt).sum();
    let cfg = HhConfig::new(m, 0.1).with_seed(12).with_sample_size(400);
    let topo = Topology::Tree { fanout: 4 };

    for workers in WORKERS {
        let (sites, coord, _) = hh::p3wr::deploy_topology(&cfg, topo).into_parts();
        let make_agg = hh::p3wr::make_aggregator(&cfg, topo);
        let (coord, stats) = run_pool(sites, coord, partition(&stream, m), workers, topo, make_agg);

        // s = 400 samplers ⇒ rel. std ≈ 5%; 25% is a 5σ bound.
        let w_hat = coord.total_weight();
        assert!(
            (w_hat - w).abs() <= 0.25 * w,
            "pooled p3wr w{workers}: Ŵ {w_hat} vs true {w}"
        );
        assert!(stats.up_msgs > 0);
        assert_eq!(stats.max_fan_in, 4);
    }
}

/// P4's deterministic backbone — the distributed weight tracker's
/// 2-approximation restated over the m + I withholding nodes — must
/// survive pooled asynchrony: thresholds only lag smaller, so nodes
/// forward sooner, and the coordinator can only be *closer* to the true
/// total.
#[test]
fn hh_p4_threaded_tree_keeps_tracker_invariant() {
    let m = 64;
    let stream = zipf_stream(16_000, 36);
    let w: f64 = stream.iter().map(|&(_, wt)| wt).sum();
    let cfg = HhConfig::new(m, 0.15).with_seed(7);
    let topo = Topology::Tree { fanout: 4 };

    for workers in WORKERS {
        let (sites, coord, _) = hh::p4::deploy_topology(&cfg, topo).into_parts();
        let make_agg = hh::p4::make_aggregator(&cfg, topo);
        let (coord, _) = run_pool(sites, coord, partition(&stream, m), workers, topo, make_agg);
        let received = coord.total_weight();
        assert!(received <= w + 1e-6, "pooled p4 w{workers}: Ŵ over-counted");
        assert!(
            received >= w / 2.0,
            "pooled p4 w{workers}: tracker lost the 2-approx ({received} < {w}/2)"
        );
    }
}

/// The point of the exercise: with interior nodes running concurrently,
/// the merging protocols land *measurably* fewer messages on the root
/// than the pooled star — the fan-in wall the hierarchical extension
/// removes.
#[test]
fn threaded_tree_relieves_root_fan_in_vs_threaded_star() {
    let m = 64;
    let stream = zipf_stream(16_000, 37);
    let cfg = HhConfig::new(m, 0.1).with_seed(5);
    let inputs = partition(&stream, m);
    let root_in = |workers: usize, topo: Topology| {
        let (sites, coord, _) = hh::p1::deploy_topology(&cfg, topo).into_parts();
        let make_agg = hh::p1::make_aggregator(&cfg, topo);
        let (_, stats) = run_pool(sites, coord, inputs.clone(), workers, topo, make_agg);
        (*stats.node_in_msgs.last().unwrap(), stats.max_fan_in)
    };

    for workers in WORKERS {
        let (star_root, star_fan_in) = root_in(workers, Topology::Star);
        let (tree_root, tree_fan_in) = root_in(workers, Topology::Tree { fanout: 4 });
        assert!(
            tree_root < star_root,
            "w{workers}: pooled tree root got {tree_root} msgs vs star {star_root}"
        );
        // And the structural bound dropped from m to the fanout.
        assert_eq!(star_fan_in, m as u64);
        assert_eq!(tree_fan_in, 4);
    }
}

/// Shutdown at integration scale: a heavily skewed partition makes
/// sites finish at very different times (some immediately — their
/// aggregators end up with zero remaining children while siblings still
/// stream), and estimates are read immediately after the run returns —
/// drain-before-estimate must make that safe.
#[test]
fn ragged_site_finish_preserves_guarantee_and_drains_fully() {
    let m = 64;
    let stream = zipf_stream(16_000, 38);
    let mut exact = ExactWeightedCounter::new();
    for &(e, w) in &stream {
        exact.update(e, w);
    }
    let w = exact.total_weight();
    let cfg = HhConfig::new(m, 0.1).with_seed(13);

    // Sites 0..8 share the whole stream; sites 8..64 see nothing.
    let mut inputs: Vec<Vec<(u64, f64)>> = vec![Vec::new(); m];
    for (i, &x) in stream.iter().enumerate() {
        inputs[i % 8].push(x);
    }

    let topo = Topology::Tree { fanout: 4 };
    for workers in WORKERS {
        let (sites, coord, _) = hh::p2::deploy_topology(&cfg, topo).into_parts();
        let make_agg = hh::p2::make_aggregator(&cfg, topo);
        let (coord, stats) = run_pool(sites, coord, inputs.clone(), workers, topo, make_agg);

        for (e, f) in exact.iter() {
            let err = (coord.estimate(e) - f).abs();
            assert!(
                err <= cfg.epsilon * w + 1e-6,
                "ragged finish w{workers}: item {e} err {err} > εW"
            );
        }
        // Empty subtrees really were silent.
        assert!(stats.node_in_msgs.contains(&0));
        assert_eq!(stats.arrivals, stream.len() as u64);
    }
}
