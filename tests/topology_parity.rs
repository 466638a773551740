//! Tree-aggregation parity and guarantee suite for all eight protocols
//! (plus the two with-replacement baselines).
//!
//! Two load-bearing claims of the pluggable-topology refactor:
//!
//! 1. **Degenerate parity** — a tree with `fanout = m` has no interior
//!    nodes and must reproduce the star *exactly*: identical
//!    [`CommStats`] (message for message, hop for hop) and identical
//!    estimates, for every protocol.
//! 2. **Guarantee preservation** — at fanout ∈ {2, 4, 8} and
//!    m ∈ {16, 64, 256}, every protocol stays within its error
//!    guarantee while the maximum per-node fan-in drops from `m` to the
//!    fanout. The relay-style aggregators (sampling protocols) are
//!    *exact* — estimates match the star bit for bit — and the merging
//!    aggregators (P1/MT-P1) additionally reduce the message load on
//!    the root.

use cma::data::{StreamingGram, SyntheticMatrixStream, WeightedZipfStream};
use cma::protocols::hh::{self, HhConfig, HhEstimator};
use cma::protocols::matrix::{self, MatrixConfig, MatrixEstimator};
use cma::sketch::ExactWeightedCounter;
use cma::stream::partition::RoundRobin;
use cma::stream::{Aggregator, Coordinator, MessageCost, Runner, Site, Topology, WireSized};

const FANOUTS: [usize; 3] = [2, 4, 8];
const SITE_COUNTS: [usize; 3] = [16, 64, 256];

fn drive<S, C, A>(runner: &mut Runner<S, C, A>, stream: &[S::Input])
where
    S: Site,
    S::Input: Clone,
    C: Coordinator<UpMsg = S::UpMsg, Broadcast = S::Broadcast>,
    S::UpMsg: MessageCost + Clone,
    S::Broadcast: WireSized,
    A: Aggregator<UpMsg = S::UpMsg, Broadcast = S::Broadcast>,
{
    let m = runner.m();
    runner.run_partitioned(stream.iter().cloned(), &mut RoundRobin::new(m), 64);
}

fn zipf_stream(n: usize, seed: u64) -> Vec<(u64, f64)> {
    WeightedZipfStream::new(2_000, 2.0, 50.0, seed).take_vec(n)
}

fn matrix_stream(n: usize, dim: usize, seed: u64) -> Vec<Vec<f64>> {
    let mut s = SyntheticMatrixStream::new(dim, &[4.0, 2.0, 1.0], 1e6, seed);
    (0..n).map(|_| s.next_row()).collect()
}

/// Star vs tree(fanout = m): identical stats, identical HH estimates.
macro_rules! assert_hh_degenerate_parity {
    ($star:expr, $tree:expr, $stream:expr) => {{
        let stream = $stream;
        let mut star = $star;
        let mut tree = $tree;
        assert!(tree.plan().is_flat(), "fanout = m must have no interior");
        drive(&mut star, &stream);
        drive(&mut tree, &stream);
        assert_eq!(star.stats(), tree.stats(), "CommStats diverged");
        let (a, b) = (star.coordinator(), tree.coordinator());
        assert_eq!(a.total_weight(), b.total_weight(), "Ŵ diverged");
        let mut items = a.tracked_items();
        let mut items_b = b.tracked_items();
        items.sort_unstable();
        items_b.sort_unstable();
        assert_eq!(items, items_b, "tracked sets diverged");
        for &e in &items {
            // HashMap-iteration sums (P4's report table) may differ in
            // the last ulp between coordinator instances.
            let (ea, eb) = (a.estimate(e), b.estimate(e));
            assert!(
                (ea - eb).abs() <= 1e-12 * ea.abs().max(1.0),
                "Ŵe diverged on {e}: {ea} vs {eb}"
            );
        }
    }};
}

/// Star vs tree(fanout = m): identical stats, identical sketches.
macro_rules! assert_matrix_degenerate_parity {
    ($star:expr, $tree:expr, $stream:expr) => {{
        let stream = $stream;
        let mut star = $star;
        let mut tree = $tree;
        assert!(tree.plan().is_flat(), "fanout = m must have no interior");
        drive(&mut star, &stream);
        drive(&mut tree, &stream);
        assert_eq!(star.stats(), tree.stats(), "CommStats diverged");
        let (a, b) = (star.coordinator(), tree.coordinator());
        assert_eq!(a.frob_estimate(), b.frob_estimate(), "F̂ diverged");
        let (sa, sb) = (a.sketch(), b.sketch());
        assert_eq!(sa.rows(), sb.rows(), "sketch shape diverged");
        assert_eq!(sa.as_slice(), sb.as_slice(), "sketch contents diverged");
    }};
}

#[test]
fn hh_tree_with_full_fanout_reproduces_star_exactly() {
    let m = 16;
    let full = Topology::Tree { fanout: m };
    let stream = zipf_stream(16_000, 71);
    let cfg = HhConfig::new(m, 0.1).with_seed(1);
    assert_hh_degenerate_parity!(
        hh::p1::deploy(&cfg),
        hh::p1::deploy_topology(&cfg, full),
        stream.clone()
    );
    assert_hh_degenerate_parity!(
        hh::p2::deploy(&cfg),
        hh::p2::deploy_topology(&cfg, full),
        stream.clone()
    );
    assert_hh_degenerate_parity!(
        hh::p3::deploy(&cfg),
        hh::p3::deploy_topology(&cfg, full),
        stream.clone()
    );
    let cfg_wr = cfg.clone().with_sample_size(200);
    assert_hh_degenerate_parity!(
        hh::p3wr::deploy(&cfg_wr),
        hh::p3wr::deploy_topology(&cfg_wr, full),
        stream.clone()
    );
    assert_hh_degenerate_parity!(
        hh::p4::deploy(&cfg),
        hh::p4::deploy_topology(&cfg, full),
        stream
    );
}

#[test]
fn matrix_tree_with_full_fanout_reproduces_star_exactly() {
    let m = 16;
    let full = Topology::Tree { fanout: m };
    let dim = 5;
    let stream = matrix_stream(2_000, dim, 72);
    let cfg = MatrixConfig::new(m, 0.25, dim).with_seed(2);
    assert_matrix_degenerate_parity!(
        matrix::p1::deploy(&cfg),
        matrix::p1::deploy_topology(&cfg, full),
        stream.clone()
    );
    assert_matrix_degenerate_parity!(
        matrix::p2::deploy(&cfg),
        matrix::p2::deploy_topology(&cfg, full),
        stream.clone()
    );
    assert_matrix_degenerate_parity!(
        matrix::p3::deploy(&cfg),
        matrix::p3::deploy_topology(&cfg, full),
        stream.clone()
    );
    let cfg_wr = cfg.clone().with_sample_size(200);
    assert_matrix_degenerate_parity!(
        matrix::p3wr::deploy(&cfg_wr),
        matrix::p3wr::deploy_topology(&cfg_wr, full),
        stream.clone()
    );
    assert_matrix_degenerate_parity!(
        matrix::p4::deploy(&cfg),
        matrix::p4::deploy_topology(&cfg, full),
        stream
    );
}

/// The `Topology::Star` spelling is the same degenerate case.
#[test]
fn explicit_star_topology_matches_plain_deploy() {
    let cfg = HhConfig::new(8, 0.1).with_seed(3);
    let stream = zipf_stream(8_000, 73);
    assert_hh_degenerate_parity!(
        hh::p2::deploy(&cfg),
        hh::p2::deploy_topology(&cfg, Topology::Star),
        stream
    );
}

/// Shared structural checks for a tree run: interior nodes exist, the
/// structural fan-in equals the fanout (star: m), broadcast deliveries
/// count every tree recipient, and every hop saw the traffic the stats
/// claim.
fn assert_tree_shape(stats: &cma::stream::CommStats, m: usize, fanout: usize, internal: usize) {
    assert!(internal > 0, "grid configs must have interior nodes");
    assert_eq!(stats.max_fan_in, fanout as u64, "structural fan-in");
    assert!(
        (stats.max_fan_in as usize) < m,
        "tree must reduce fan-in below the star's {m}"
    );
    assert_eq!(
        stats.broadcast_deliveries,
        stats.broadcast_events * (m as u64 + internal as u64),
        "broadcasts must be charged per recipient"
    );
    let leaf = &stats.per_level[0];
    assert_eq!(leaf.up_msgs, stats.up_msgs, "hop-0 mirror");
}

#[test]
fn hh_deterministic_protocols_keep_guarantee_on_trees() {
    for &m in &SITE_COUNTS {
        let stream = zipf_stream(16_000, 100 + m as u64);
        let mut exact = ExactWeightedCounter::new();
        for &(e, w) in &stream {
            exact.update(e, w);
        }
        let w = exact.total_weight();
        let cfg = HhConfig::new(m, 0.1).with_seed(4);
        for &fanout in &FANOUTS {
            let topo = Topology::Tree { fanout };
            let plan = topo.plan(m);

            let mut p1 = hh::p1::deploy_topology(&cfg, topo);
            drive(&mut p1, &stream);
            assert_tree_shape(p1.stats(), m, fanout, plan.internal_nodes());
            for (e, f) in exact.iter() {
                let err = (p1.coordinator().estimate(e) - f).abs();
                assert!(
                    err <= cfg.epsilon * w + 1e-6,
                    "p1 m={m} k={fanout}: item {e} err {err} > εW"
                );
            }

            let mut p2 = hh::p2::deploy_topology(&cfg, topo);
            drive(&mut p2, &stream);
            assert_tree_shape(p2.stats(), m, fanout, plan.internal_nodes());
            for (e, f) in exact.iter() {
                let err = (p2.coordinator().estimate(e) - f).abs();
                assert!(
                    err <= cfg.epsilon * w + 1e-6,
                    "p2 m={m} k={fanout}: item {e} err {err} > εW"
                );
            }
        }
    }
}

/// P1's merging aggregators must pay off where it matters: fewer
/// messages arriving at the root than the star delivers.
#[test]
fn hh_p1_tree_reduces_root_message_fan_in() {
    for &(m, fanout) in &[(16usize, 2usize), (64, 4), (256, 8)] {
        let stream = zipf_stream(16_000, 200 + m as u64);
        let cfg = HhConfig::new(m, 0.1).with_seed(5);
        let mut star = hh::p1::deploy(&cfg);
        drive(&mut star, &stream);
        let mut tree = hh::p1::deploy_topology(&cfg, Topology::Tree { fanout });
        drive(&mut tree, &stream);
        let star_root = *star.stats().node_in_msgs.last().unwrap();
        let tree_root = *tree.stats().node_in_msgs.last().unwrap();
        assert!(
            tree_root < star_root,
            "m={m} k={fanout}: tree root got {tree_root} msgs vs star {star_root}"
        );
    }
}

#[test]
fn hh_sampling_protocols_are_exact_on_trees() {
    for &m in &SITE_COUNTS {
        let stream = zipf_stream(12_000, 300 + m as u64);
        let cfg = HhConfig::new(m, 0.1).with_seed(6).with_sample_size(300);
        for &fanout in &FANOUTS {
            let topo = Topology::Tree { fanout };
            let plan = topo.plan(m);

            // Without replacement: interior relays are exact, so the
            // tree's estimates equal the star's bit for bit.
            let mut star = hh::p3::deploy(&cfg);
            drive(&mut star, &stream);
            let mut tree = hh::p3::deploy_topology(&cfg, topo);
            drive(&mut tree, &stream);
            assert_tree_shape(tree.stats(), m, fanout, plan.internal_nodes());
            assert_eq!(
                star.coordinator().total_weight(),
                tree.coordinator().total_weight(),
                "p3 m={m} k={fanout}"
            );
            let mut sa = star.coordinator().tracked_items();
            let mut sb = tree.coordinator().tracked_items();
            sa.sort_unstable();
            sb.sort_unstable();
            assert_eq!(sa, sb, "p3 m={m} k={fanout}: sample diverged");
            for &e in &sa {
                assert_eq!(
                    star.coordinator().estimate(e),
                    tree.coordinator().estimate(e),
                    "p3 m={m} k={fanout}: item {e}"
                );
            }

            // With replacement: dominance filtering is exact at the root
            // and never *increases* its message load.
            let mut star_wr = hh::p3wr::deploy(&cfg);
            drive(&mut star_wr, &stream);
            let mut tree_wr = hh::p3wr::deploy_topology(&cfg, topo);
            drive(&mut tree_wr, &stream);
            assert_eq!(
                star_wr.coordinator().total_weight(),
                tree_wr.coordinator().total_weight(),
                "p3wr m={m} k={fanout}"
            );
            let star_root = *star_wr.stats().node_in_msgs.last().unwrap();
            let tree_root = *tree_wr.stats().node_in_msgs.last().unwrap();
            assert!(
                tree_root <= star_root,
                "p3wr m={m} k={fanout}: filter increased root load"
            );
        }
    }
}

#[test]
fn hh_p4_keeps_guarantee_shape_on_trees() {
    // P4's εW accuracy is probabilistic (≥ 3/4) *and* asymptotic — its
    // staleness compensation `Σj 1/p` only concentrates once each site
    // has seen `≫ √m/ε` arrivals, far beyond what a test stream can
    // afford at m = 256 (the paper uses 10M items). What the topology
    // refactor must preserve is therefore (a) the *deterministic*
    // weight-tracker 2-approximation under the m + I budget split, and
    // (b) estimator deviation no worse than the star's on the same
    // stream and seed — the tree changes communication shape, not
    // estimator quality.
    for &m in &SITE_COUNTS {
        let stream = zipf_stream(16_000, 400 + m as u64);
        let mut exact = ExactWeightedCounter::new();
        for &(e, w) in &stream {
            exact.update(e, w);
        }
        let w = exact.total_weight();
        let cfg = HhConfig::new(m, 0.15).with_seed(7);
        let (heavy, truth) = exact
            .iter()
            .max_by(|a, b| a.1.partial_cmp(&b.1).unwrap())
            .unwrap();
        let mut star = hh::p4::deploy(&cfg);
        drive(&mut star, &stream);
        let star_err = (star.coordinator().estimate(heavy) - truth).abs();
        for &fanout in &FANOUTS {
            let mut tree = hh::p4::deploy_topology(&cfg, Topology::Tree { fanout });
            drive(&mut tree, &stream);
            // (a) deterministic tracker invariant across m + I nodes.
            let received = tree.coordinator().total_weight();
            assert!(received <= w + 1e-6, "p4 m={m} k={fanout}: Ŵ over-counted");
            assert!(
                received >= w / 2.0,
                "p4 m={m} k={fanout}: tracker lost 2-approx ({received} < {}/2)",
                w
            );
            // (b) heavy-item deviation within the guarantee, or at worst
            // comparable (2×) to the star's own deviation where the
            // stream is too short for the probabilistic bound to bite.
            let err = (tree.coordinator().estimate(heavy) - truth).abs();
            assert!(
                err <= (cfg.epsilon * w).max(2.0 * star_err) + 1e-6,
                "p4 m={m} k={fanout}: err {err} vs star {star_err}, εW {}",
                cfg.epsilon * w
            );
        }
    }
}

#[test]
fn matrix_deterministic_protocols_keep_guarantee_on_trees() {
    let dim = 5;
    for &m in &SITE_COUNTS {
        let stream = matrix_stream(1_200, dim, 500 + m as u64);
        let mut truth = StreamingGram::new(dim);
        for row in &stream {
            truth.update(row);
        }
        let cfg = MatrixConfig::new(m, 0.25, dim).with_seed(8);
        for &fanout in &FANOUTS {
            let topo = Topology::Tree { fanout };
            let plan = topo.plan(m);

            let mut p1 = matrix::p1::deploy_topology(&cfg, topo);
            drive(&mut p1, &stream);
            assert_tree_shape(p1.stats(), m, fanout, plan.internal_nodes());
            let err = truth.error_of_sketch(&p1.coordinator().sketch()).unwrap();
            assert!(err <= cfg.epsilon, "mt-p1 m={m} k={fanout}: err {err} > ε");

            let mut p2 = matrix::p2::deploy_topology(&cfg, topo);
            drive(&mut p2, &stream);
            assert_tree_shape(p2.stats(), m, fanout, plan.internal_nodes());
            let err = truth.error_of_sketch(&p2.coordinator().sketch()).unwrap();
            assert!(err <= cfg.epsilon, "mt-p2 m={m} k={fanout}: err {err} > ε");
        }
    }
}

#[test]
fn matrix_sampling_protocols_are_exact_on_trees() {
    let dim = 5;
    for &m in &[16usize, 64] {
        let stream = matrix_stream(1_500, dim, 600 + m as u64);
        let cfg = MatrixConfig::new(m, 0.25, dim)
            .with_seed(9)
            .with_sample_size(150);
        for &fanout in &FANOUTS {
            let topo = Topology::Tree { fanout };
            let mut star = matrix::p3::deploy(&cfg);
            drive(&mut star, &stream);
            let mut tree = matrix::p3::deploy_topology(&cfg, topo);
            drive(&mut tree, &stream);
            assert_eq!(
                star.coordinator().sketch().as_slice(),
                tree.coordinator().sketch().as_slice(),
                "mt-p3 m={m} k={fanout}: sketch diverged"
            );

            let mut star_wr = matrix::p3wr::deploy(&cfg);
            drive(&mut star_wr, &stream);
            let mut tree_wr = matrix::p3wr::deploy_topology(&cfg, topo);
            drive(&mut tree_wr, &stream);
            assert_eq!(
                star_wr.coordinator().sketch().as_slice(),
                tree_wr.coordinator().sketch().as_slice(),
                "mt-p3wr m={m} k={fanout}: sketch diverged"
            );
        }
    }
}

#[test]
fn matrix_p4_tree_runs_and_tracker_invariant_holds() {
    let dim = 5;
    let m = 64;
    let stream = matrix_stream(1_500, dim, 700);
    let total: f64 = stream
        .iter()
        .map(|r| r.iter().map(|v| v * v).sum::<f64>())
        .sum();
    let cfg = MatrixConfig::new(m, 0.2, dim).with_seed(10);
    for &fanout in &FANOUTS {
        let mut tree = matrix::p4::deploy_topology(&cfg, Topology::Tree { fanout });
        drive(&mut tree, &stream);
        assert!(tree.stats().total() > 0);
        assert_eq!(tree.stats().arrivals, stream.len() as u64);
        let received = tree.coordinator().frob_estimate();
        assert!(received <= total + 1e-6);
        assert!(
            received >= total / 2.0,
            "mt-p4 k={fanout}: tracker lost 2-approx"
        );
    }
}

/// Per-level accounting tells a coherent story: on a relay protocol
/// every hop carries at least as many messages as the leaf hop emitted
/// minus what aggregators filtered, and the root's received count equals
/// the last hop's message count.
#[test]
fn per_level_accounting_is_consistent() {
    let m = 64;
    let cfg = HhConfig::new(m, 0.1).with_seed(11);
    let stream = zipf_stream(12_000, 800);
    let mut tree = hh::p3::deploy_topology(&cfg, Topology::Tree { fanout: 4 });
    drive(&mut tree, &stream);
    let stats = tree.stats();
    assert_eq!(stats.per_level.len(), tree.plan().hops());
    // Exact relays: every hop carries the same message count.
    let leaf = stats.per_level[0].up_msgs;
    for (h, lvl) in stats.per_level.iter().enumerate() {
        assert_eq!(lvl.up_msgs, leaf, "hop {h} lost or invented messages");
    }
    let root_recv = *stats.node_in_msgs.last().unwrap();
    assert_eq!(root_recv, stats.per_level.last().unwrap().up_msgs);
    // Interior nodes received the leaf traffic spread across fanout-wide
    // groups: no single interior node matches the root's star load.
    let interior_max = stats.node_in_msgs[..stats.node_in_msgs.len() - 1]
        .iter()
        .copied()
        .max()
        .unwrap();
    assert!(interior_max <= leaf);
}
