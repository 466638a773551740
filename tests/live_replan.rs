//! Live re-planning at integration scale: real protocols driven
//! through the segmented driver
//! ([`cma::stream::runner::churn::run_churn_partitioned_topology_parts_on`],
//! empty churn schedule) with [`Topology::Adaptive`], traffic
//! concentrated on a handful of sites so the measured fan-in collapses
//! the structural tree into the paper's flat star **mid-stream** —
//! migrating every held aggregator partial into the new plan and
//! re-budgeting sites and root for it, without a restart.
//!
//! What must survive the migration:
//!
//! 1. **No message lost or double-counted** — P4's weight tracker is
//!    the sharpest probe: `Ŵ ≤ W` fails on any double-count and
//!    `Ŵ ≥ W/2` fails on any loss beyond the certified holding slack.
//! 2. **Certified bounds hold across the re-plan** — P1's `εW`
//!    guarantee and SwMg's queryable window bound are checked at stream
//!    end exactly as in the static-topology suites.
//! 3. **Segmentation itself is invisible** — a static topology driven
//!    segment-by-segment reproduces the sequential tree bit for bit on
//!    P3 (exact relays, timing-independent priority draws) and never
//!    re-plans.

use cma::data::WeightedZipfStream;
use cma::protocols::hh::{self, HhConfig, HhEstimator};
use cma::protocols::window::{mg, SwMgConfig};
use cma::sketch::ExactWeightedCounter;
use cma::stream::partition::RoundRobin;
use cma::stream::runner::churn::run_churn_partitioned_topology_parts_on as run_segmented;
use cma::stream::runner::engine::ThreadedConfig;
use cma::stream::{ChannelTransport, ChurnConfig, Executor, Topology};

fn zipf_stream(n: usize, seed: u64) -> Vec<(u64, f64)> {
    WeightedZipfStream::new(2_000, 2.0, 50.0, seed).take_vec(n)
}

fn tcfg() -> ThreadedConfig {
    ThreadedConfig {
        batch_size: 16,
        channel_capacity: 2,
        plane: Default::default(),
    }
}

const POOL: Executor = Executor::Pool { workers: 4 };

/// Zero churn, no snapshot: only the segment length and whether quiet
/// boundaries count as settled vary between the tests.
fn segments(segment_len: usize, resplit_quiet_boundaries: bool) -> ChurnConfig {
    ChurnConfig {
        segment_len,
        resplit_quiet_boundaries,
        ..ChurnConfig::default()
    }
}

/// Route the whole stream to the first `busy` of `m` sites, leaving the
/// rest silent — the measured-fan-in shape that makes `Adaptive`'s
/// structural tree collapse to a star.
fn concentrate<T: Clone>(stream: &[T], m: usize, busy: usize) -> Vec<Vec<T>> {
    let mut inputs: Vec<Vec<T>> = vec![Vec::new(); m];
    for (i, x) in stream.iter().enumerate() {
        inputs[i % busy].push(x.clone());
    }
    inputs
}

/// P1 through a forced tree→star collapse: the adaptive deployment
/// starts on the structural `Tree { fanout: 8 }` (m = 64 > budget 8),
/// the coordinator's first `Ŵ` re-broadcast marks the boundary, the
/// measured 3 active leaves fit the budget, and the plan collapses —
/// migrating every held MG partial into the coordinator. The `εW`
/// deterministic guarantee must hold at stream end as if nothing
/// happened.
#[test]
fn hh_p1_keeps_guarantee_across_forced_collapse_to_star() {
    let m = 64;
    let stream = zipf_stream(12_000, 81);
    let mut exact = ExactWeightedCounter::new();
    for &(e, w) in &stream {
        exact.update(e, w);
    }
    let w = exact.total_weight();
    let cfg = HhConfig::new(m, 0.1).with_seed(5);
    let topo = Topology::Adaptive { max_fan_in: 8 };

    let (sites, coordinator, _) = hh::p1::deploy_topology(&cfg, topo).into_parts();
    let parts = run_segmented(
        sites,
        coordinator,
        concentrate(&stream, m, 3),
        &tcfg(),
        POOL,
        topo,
        |concrete| hh::p1::make_aggregator(&cfg, concrete),
        &segments(512, false),
        &ChannelTransport,
    );

    assert_eq!(parts.report.replans, 1, "expected exactly one collapse");
    assert_eq!(parts.report.resplits, parts.report.replans);
    assert_eq!(parts.report.final_topology, Topology::Star);
    assert!(
        parts.aggregators.is_empty(),
        "star plan is flat — no interior nodes may remain"
    );
    assert_eq!(parts.stats.arrivals, stream.len() as u64);
    for (e, f) in exact.iter() {
        let err = (parts.coordinator.estimate(e) - f).abs();
        assert!(
            err <= cfg.epsilon * w + 1e-6,
            "live p1: item {e} err {err} > εW across re-plan"
        );
    }
}

/// P4's tracker is the conservation audit: any migrated partial that is
/// double-counted pushes `Ŵ` above the true `W`; any partial lost
/// (beyond the tracker's certified ≤ `W/2` holding slack) drops it
/// below `W/2`. Quiet boundaries are enabled so the re-plan fires
/// deterministically regardless of the tracker's broadcast cadence.
#[test]
fn hh_p4_conserves_weight_across_replan() {
    let m = 64;
    let stream = zipf_stream(10_000, 82);
    let w: f64 = stream.iter().map(|&(_, wt)| wt).sum();
    let cfg = HhConfig::new(m, 0.15).with_seed(11);
    let topo = Topology::Adaptive { max_fan_in: 8 };

    let (sites, coordinator, _) = hh::p4::deploy_topology(&cfg, topo).into_parts();
    let parts = run_segmented(
        sites,
        coordinator,
        concentrate(&stream, m, 3),
        &tcfg(),
        POOL,
        topo,
        |concrete| hh::p4::make_aggregator(&cfg, concrete),
        &segments(256, true),
        &ChannelTransport,
    );

    assert_eq!(parts.report.replans, 1);
    assert_eq!(parts.report.resplits, parts.report.replans);
    assert_eq!(parts.report.final_topology, Topology::Star);
    let received = parts.coordinator.total_weight();
    assert!(
        received <= w + 1e-6,
        "live p4: Ŵ {received} > W {w} — a migrated partial was double-counted"
    );
    assert!(
        received >= w / 2.0,
        "live p4: Ŵ {received} < W/2 — a migrated partial was lost"
    );
}

/// SwMg mid-stream collapse: window buckets held in retiring
/// aggregators migrate with their histogram clocks intact, and the
/// coordinator's *queryable* certified bound holds at stream end.
#[test]
fn swmg_keeps_certified_bound_across_replan() {
    let m = 64;
    let window = 2_048usize;
    let stream = zipf_stream(3 * window, 83);
    let stamped: Vec<(u64, (u64, f64))> = stream
        .iter()
        .enumerate()
        .map(|(t, x)| (t as u64, *x))
        .collect();
    let cfg = SwMgConfig::new(m, 0.1, window as u64, 32);
    let topo = Topology::Adaptive { max_fan_in: 8 };

    let (sites, coordinator, _) = mg::deploy_topology(&cfg, topo).into_parts();
    let parts = run_segmented(
        sites,
        coordinator,
        concentrate(&stamped, m, 2),
        &tcfg(),
        POOL,
        topo,
        |concrete| mg::make_aggregator(&cfg, concrete),
        &segments(1_024, true),
        &ChannelTransport,
    );

    assert_eq!(parts.report.replans, 1);
    assert_eq!(parts.report.resplits, parts.report.replans);
    assert_eq!(parts.report.final_topology, Topology::Star);
    assert_eq!(parts.stats.arrivals, stream.len() as u64);
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
            "live SwMg: item {item} est {est} vs {truth} (bound {bound}) across re-plan"
        );
    }
}

/// The null case that makes the others meaningful: a *static* tree
/// driven segment-by-segment through the same driver never re-plans and
/// reproduces the sequential tree bit for bit on P3 — segmentation and
/// the migration machinery change nothing when no migration happens.
#[test]
fn static_topology_through_live_driver_is_bit_exact_for_p3() {
    let m = 64;
    let stream = zipf_stream(10_000, 84);
    let cfg = HhConfig::new(m, 0.1).with_seed(6).with_sample_size(300);
    let topo = Topology::Tree { fanout: 4 };

    let mut seq = hh::p3::deploy_topology(&cfg, topo);
    seq.run_partitioned(stream.iter().copied(), &mut RoundRobin::new(m), 64);

    let mut inputs: Vec<Vec<(u64, f64)>> = vec![Vec::new(); m];
    for (i, &x) in stream.iter().enumerate() {
        inputs[i % m].push(x);
    }
    let (sites, coordinator, _) = hh::p3::deploy_topology(&cfg, topo).into_parts();
    let parts = run_segmented(
        sites,
        coordinator,
        inputs,
        &tcfg(),
        POOL,
        topo,
        |concrete| hh::p3::make_aggregator(&cfg, concrete),
        &segments(32, true),
        &ChannelTransport,
    );

    assert_eq!(
        parts.report.replans, 0,
        "static topology must never re-plan"
    );
    assert_eq!(parts.report.resplits, parts.report.replans);
    assert_eq!(parts.report.migrated_msgs, 0);
    assert_eq!(
        parts.aggregators.len(),
        topo.plan(m).internal_nodes(),
        "final plan must still be the full tree"
    );
    assert_eq!(
        seq.coordinator().total_weight(),
        parts.coordinator.total_weight(),
        "Ŵ diverged through the segmented driver"
    );
    let mut sa = seq.coordinator().tracked_items();
    let mut sb = parts.coordinator.tracked_items();
    sa.sort_unstable();
    sb.sort_unstable();
    assert_eq!(sa, sb, "sample diverged through the segmented driver");
    for &e in &sa {
        assert_eq!(
            seq.coordinator().estimate(e),
            parts.coordinator.estimate(e),
            "estimate diverged on item {e}"
        );
    }
}
