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

use cma::protocols::hh::{self, HhConfig};
use cma::stream::{CommStats, Topology};
use cma_bench::{calibrate_hh, resolve_hh_adaptive, run_hh_topology, HhProtocol};
use cma_data::WeightedZipfStream;

fn zipf_stream(n: usize, seed: u64) -> Vec<(u64, f64)> {
    WeightedZipfStream::new(2_000, 2.0, 50.0, seed).take_vec(n)
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
    let resolved = resolve_hh_adaptive(HhProtocol::P1, &cfg, &stream, adaptive, 64);
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
    let star_stats = calibrate_hh(HhProtocol::P1, &cfg, &stream, Topology::Star, 64);
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

    let resolved = resolve_hh_adaptive(HhProtocol::P1, &cfg, &stream[..2_000], adaptive, 64);
    let Topology::Tree { fanout } = resolved else {
        panic!("round-robin m = 64 must split");
    };

    let (adaptive_run, adaptive_comm) =
        run_hh_topology(HhProtocol::P1, &cfg, &stream, 0.05, resolved, 64);
    let (explicit_run, explicit_comm) = run_hh_topology(
        HhProtocol::P1,
        &cfg,
        &stream,
        0.05,
        Topology::Tree { fanout },
        64,
    );
    assert_eq!(adaptive_comm.total, explicit_comm.total);
    assert_eq!(adaptive_comm.up_msgs, explicit_comm.up_msgs);
    assert_eq!(
        adaptive_comm.broadcast_deliveries,
        explicit_comm.broadcast_deliveries
    );
    assert_eq!(adaptive_comm.root_in_msgs, explicit_comm.root_in_msgs);
    assert_eq!(adaptive_run.msgs, explicit_run.msgs);
    assert_eq!(adaptive_run.eval.avg_rel_err, explicit_run.eval.avg_rel_err);

    // Structural resolution (no measurements yet): Adaptive plans as
    // the budget-fanout tree, so even an uncalibrated deployment is
    // well-formed — and identical to the explicit tree.
    assert_eq!(
        adaptive.plan(m),
        Topology::Tree { fanout: 8 }.plan(m),
        "structural resolution"
    );
    let (a, ac) = run_hh_topology(HhProtocol::P2, &cfg, &stream, 0.05, adaptive, 64);
    let (b, bc) = run_hh_topology(
        HhProtocol::P2,
        &cfg,
        &stream,
        0.05,
        Topology::Tree { fanout: 8 },
        64,
    );
    assert_eq!(a.msgs, b.msgs);
    assert_eq!(ac.root_in_msgs, bc.root_in_msgs);
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
    let resolved = resolve_hh_adaptive(HhProtocol::P1, &cfg, &stream[..4_000], adaptive, 64);

    let (_, adaptive_comm) = run_hh_topology(HhProtocol::P1, &cfg, &stream, 0.05, resolved, 64);
    assert!(
        adaptive_comm.max_fan_in <= 8,
        "resolved plan over budget: measured max_fan_in {}",
        adaptive_comm.max_fan_in
    );

    let mut best_root = u64::MAX;
    let mut roots = Vec::new();
    for fanout in [2usize, 4, 8, 16] {
        let (_, comm) = run_hh_topology(
            HhProtocol::P1,
            &cfg,
            &stream,
            0.05,
            Topology::Tree { fanout },
            64,
        );
        roots.push((fanout, comm.root_in_msgs));
        best_root = best_root.min(comm.root_in_msgs);
    }
    assert!(
        adaptive_comm.root_in_msgs as f64 <= 1.1 * best_root as f64,
        "adaptive root fan-in {} vs best static {} ({roots:?}, resolved {resolved:?})",
        adaptive_comm.root_in_msgs,
        best_root
    );
}
