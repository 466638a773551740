//! `Topology::Adaptive` (PR 5): the deployment picks its own fanout
//! from *measured* fan-in instead of a static plan — closing the loop
//! the ROADMAP asked for between `CommStats::node_in_msgs` (what PR 2
//! started measuring) and `Topology::plan` (what nothing fed back
//! into).
//!
//! Pinned here:
//!
//! 1. The planner keeps the flat star when the *measured* fan-in (the
//!    number of leaves that actually sent anything) is within budget —
//!    structural `m` does not scare it into building a tree nobody
//!    needs.
//! 2. It splits into levels when measured fan-in is over budget, and
//!    every node of the resolved plan is within the `max_fan_in`
//!    budget.
//! 3. The resolved plan round-trips: an adaptive-resolved tree is
//!    *message-for-message identical* to the explicitly-requested tree
//!    of the same fanout (re-planning happens at a deployment boundary,
//!    so the recorded run is an ordinary deterministic tree run).
//! 4. The acceptance sweep: at m = 256 on the bench workload,
//!    `Adaptive { max_fan_in: 8 }` resolves to a plan whose measured
//!    `max_fan_in` ≤ 8 and whose root fan-in is within 10% of the best
//!    static fanout in {2, 4, 8, 16}.

use cma::data::WeightedZipfStream;
use cma::protocols::hh::p1::{P1Aggregator, P1Coordinator, P1Site};
use cma::protocols::hh::{self, metrics, HhConfig};
use cma::sketch::ExactWeightedCounter;
use cma::stream::partition::RoundRobin;
use cma::stream::{CommStats, Runner, Topology};

/// Arrivals per epoch of every probe and run.
const BATCH: usize = 64;

fn zipf_stream(n: usize, seed: u64) -> Vec<(u64, f64)> {
    WeightedZipfStream::new(2_000, 2.0, 50.0, seed).take_vec(n)
}

/// An HH-P1 deployment on `topology` after `stream`, round-robin.
fn p1_run(
    cfg: &HhConfig,
    stream: &[(u64, f64)],
    topology: Topology,
) -> Runner<P1Site, P1Coordinator, P1Aggregator> {
    let mut runner = hh::p1::deploy_topology(cfg, topology);
    runner.run_partitioned(
        stream.iter().copied(),
        &mut RoundRobin::new(cfg.sites),
        BATCH,
    );
    runner
}

/// [`CommStats`] of an HH-P2 deployment on `topology` after `stream`.
fn p2_stats(cfg: &HhConfig, stream: &[(u64, f64)], topology: Topology) -> CommStats {
    let mut runner = hh::p2::deploy_topology(cfg, topology);
    runner.run_partitioned(
        stream.iter().copied(),
        &mut RoundRobin::new(cfg.sites),
        BATCH,
    );
    runner.stats().clone()
}

/// Resolves `topology` by the two-pass planner over HH-P1 probes on
/// `prefix`: a star probe first, then — only if its measured fan-in is
/// over budget — one probe per candidate fanout.
fn resolve_p1(cfg: &HhConfig, prefix: &[(u64, f64)], topology: Topology) -> Topology {
    topology.resolve_calibrated(cfg.sites, |candidate| {
        p1_run(cfg, prefix, candidate).stats().clone()
    })
}

/// Messages the root coordinator received.
fn root_in(stats: &CommStats) -> u64 {
    *stats.node_in_msgs.last().expect("root receive counter")
}

/// Calibration probe for a *skewed* workload: the whole stream lands on
/// sites `0..active`, the rest stay silent.
fn calibrate_skewed(
    cfg: &HhConfig,
    stream: &[(u64, f64)],
    active: usize,
    topology: Topology,
) -> CommStats {
    let mut runner = hh::p2::deploy_topology(cfg, topology);
    for (i, &x) in stream.iter().enumerate() {
        runner.feed(i % active, x);
    }
    runner.stats().clone()
}

#[test]
fn planner_keeps_star_when_measured_fan_in_is_under_budget() {
    // 64 structural sites, but only 6 ever send: the star's *measured*
    // fan-in is 6 ≤ 8, so the planner keeps the flat star — no interior
    // nodes bought for pressure that does not exist.
    let m = 64;
    let stream = zipf_stream(6_000, 81);
    let cfg = HhConfig::new(m, 0.1).with_seed(5);
    let adaptive = Topology::Adaptive { max_fan_in: 8 };

    let mut probes = 0usize;
    let resolved = adaptive.resolve_calibrated(m, |candidate| {
        probes += 1;
        calibrate_skewed(&cfg, &stream, 6, candidate)
    });
    assert_eq!(resolved, Topology::Star);
    assert_eq!(probes, 1, "an in-budget star needs no tree probes");

    // The single-stats resolver agrees.
    let star_stats = calibrate_skewed(&cfg, &stream, 6, Topology::Star);
    assert_eq!(star_stats.active_leaves(), 6);
    assert_eq!(adaptive.resolve_with(m, &star_stats), Topology::Star);

    // And m within budget never probes at all.
    let resolved = Topology::Adaptive { max_fan_in: 8 }
        .resolve_calibrated(8, |_| panic!("m ≤ budget must resolve structurally"));
    assert_eq!(resolved, Topology::Star);
}

#[test]
fn planner_splits_levels_when_measured_fan_in_is_over_budget() {
    let m = 64;
    let stream = zipf_stream(8_000, 82);
    let cfg = HhConfig::new(m, 0.1).with_seed(5);
    let adaptive = Topology::Adaptive { max_fan_in: 8 };

    // Round-robin: all 64 leaves press on the root — over budget.
    let resolved = resolve_p1(&cfg, &stream, adaptive);
    let Topology::Tree { fanout } = resolved else {
        panic!("over-budget measured fan-in must split, got {resolved:?}");
    };
    assert!(
        Topology::adaptive_candidates(8, m).contains(&fanout),
        "resolved fanout {fanout} not a candidate"
    );
    // Every node of the resolved plan is within budget.
    let plan = resolved.plan(m);
    assert!(plan.max_fan_in() <= 8);
    assert!(plan.internal_levels() >= 1);

    // The single-stats resolver splits too (at the budget fanout).
    let star_stats = p1_run(&cfg, &stream, Topology::Star).stats().clone();
    assert_eq!(star_stats.active_leaves(), m);
    assert_eq!(
        adaptive.resolve_with(m, &star_stats),
        Topology::Tree { fanout: 8 }
    );
}

/// The parity pin: a deployment built on the adaptive-resolved topology
/// is message-for-message identical to one built on the explicitly
/// requested tree of the same fanout — both through the measured
/// resolution and through the structural `plan()` path.
#[test]
fn adaptive_resolved_tree_is_message_identical_to_explicit_tree() {
    let m = 64;
    let stream = zipf_stream(10_000, 83);
    let cfg = HhConfig::new(m, 0.1).with_seed(9);
    let adaptive = Topology::Adaptive { max_fan_in: 8 };

    let resolved = resolve_p1(&cfg, &stream[..2_000], adaptive);
    let Topology::Tree { fanout } = resolved else {
        panic!("round-robin m = 64 must split");
    };

    let mut exact = ExactWeightedCounter::new();
    for &(e, w) in &stream {
        exact.update(e, w);
    }
    let adaptive_run = p1_run(&cfg, &stream, resolved);
    let explicit_run = p1_run(&cfg, &stream, Topology::Tree { fanout });
    let (adaptive_comm, explicit_comm) = (adaptive_run.stats(), explicit_run.stats());
    assert_eq!(adaptive_comm.total(), explicit_comm.total());
    assert_eq!(adaptive_comm.up_msgs, explicit_comm.up_msgs);
    assert_eq!(
        adaptive_comm.broadcast_deliveries,
        explicit_comm.broadcast_deliveries
    );
    assert_eq!(root_in(adaptive_comm), root_in(explicit_comm));
    let avg_rel_err = |runner: &Runner<P1Site, P1Coordinator, P1Aggregator>| {
        metrics::evaluate(runner.coordinator(), &exact, 0.05, cfg.epsilon).avg_rel_err
    };
    assert_eq!(avg_rel_err(&adaptive_run), avg_rel_err(&explicit_run));

    // Structural resolution (no measurements yet): Adaptive plans as
    // the budget-fanout tree, so even an uncalibrated deployment is
    // well-formed — and identical to the explicit tree.
    assert_eq!(
        adaptive.plan(m),
        Topology::Tree { fanout: 8 }.plan(m),
        "structural resolution"
    );
    let a = p2_stats(&cfg, &stream, adaptive);
    let b = p2_stats(&cfg, &stream, Topology::Tree { fanout: 8 });
    assert_eq!(a.total(), b.total());
    assert_eq!(root_in(&a), root_in(&b));
}

/// The acceptance sweep at m = 256: the resolved plan's measured
/// `max_fan_in` is within budget, and its root fan-in is within 10% of
/// the best static fanout in {2, 4, 8, 16} on the bench workload.
#[test]
fn adaptive_m256_is_within_ten_percent_of_best_static_fanout() {
    let m = 256;
    let stream = zipf_stream(24_000, 84);
    let cfg = HhConfig::new(m, 0.1).with_seed(2);
    let adaptive = Topology::Adaptive { max_fan_in: 8 };

    // Two-pass planner on a calibration prefix (1/6 of the stream).
    let resolved = resolve_p1(&cfg, &stream[..4_000], adaptive);

    let adaptive_comm = p1_run(&cfg, &stream, resolved).stats().clone();
    assert!(
        adaptive_comm.max_fan_in <= 8,
        "resolved plan over budget: measured max_fan_in {}",
        adaptive_comm.max_fan_in
    );

    let mut best_root = u64::MAX;
    let mut roots = Vec::new();
    for fanout in [2usize, 4, 8, 16] {
        let root = root_in(p1_run(&cfg, &stream, Topology::Tree { fanout }).stats());
        roots.push((fanout, root));
        best_root = best_root.min(root);
    }
    assert!(
        root_in(&adaptive_comm) as f64 <= 1.1 * best_root as f64,
        "adaptive root fan-in {} vs best static {} ({roots:?}, resolved {resolved:?})",
        root_in(&adaptive_comm),
        best_root
    );
}
