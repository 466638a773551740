//! Integration suite for the pluggable broadcast plane (gossip PR):
//! the push–pull anti-entropy plane composes with every driver, its
//! degenerate configuration reproduces the paper's root fan-out
//! message for message, and the staleness it trades for bounded
//! out-degree never moves a certified bound.
//!
//! The load-bearing claims:
//!
//! 1. **Degenerate pin.** `Gossip { fanout: m, rounds: 1 }` pushes to
//!    every leaf in id order — the same deliveries, reach and events as
//!    [`BroadcastPlane::RootFanOut`], with exactly the 8-byte version
//!    header of extra wire per delivery, and bit-identical estimates.
//! 2. **Default is untouched.** [`BroadcastPlane::TreeCascade`] is
//!    `Default::default()`: an explicit cascade run equals an implicit
//!    one field for field — and gossip that reaches every leaf drives
//!    the up direction exactly as the cascade does.
//! 3. **Staleness is safe.** Sparse gossip leaves some sites an event
//!    or more behind; monotone thresholds only make them send sooner
//!    (εW holds with no new term), and the sliding-window bound already
//!    states withheld mass against `Ŵ_peak`.
//! 4. **The point of the plane:** per-node out-degree is bounded by
//!    `fanout · rounds`, independent of `m` — while root fan-out's
//!    out-degree *is* `m`.

use cma::data::WeightedZipfStream;
use cma::protocols::hh::{self, HhConfig, HhEstimator};
use cma::protocols::window::{mg, SwMgConfig};
use cma::sketch::ExactWeightedCounter;
use cma::stream::partition::partition_round_robin as partition;
use cma::stream::partition::RoundRobin;
use cma::stream::runner::engine::{self, Executor, ThreadedConfig, TreeRunParts};
use cma::stream::{BroadcastPlane, ChannelTransport, FaultPlan, SimNet, Topology, Transport};

fn zipf_stream(n: usize, seed: u64) -> Vec<(u64, f64)> {
    WeightedZipfStream::new(2_000, 2.0, 50.0, seed).take_vec(n)
}

fn cfg_with(plane: BroadcastPlane) -> ThreadedConfig {
    ThreadedConfig {
        batch_size: 16,
        channel_capacity: 2,
        plane,
    }
}

type P1Parts = TreeRunParts<hh::p1::P1Site, hh::p1::P1Coordinator, hh::p1::P1Aggregator>;

fn run_p1_inline(
    _m: usize,
    topo: Topology,
    inputs: &[Vec<(u64, f64)>],
    cfg: &HhConfig,
    plane: BroadcastPlane,
) -> P1Parts {
    let (sites, coord, _) = hh::p1::deploy_topology(cfg, topo).into_parts();
    engine::run_partitioned_topology_parts_on(
        sites,
        coord,
        inputs.to_vec(),
        &cfg_with(plane),
        Executor::Inline,
        topo,
        hh::p1::make_aggregator(cfg, topo),
        &ChannelTransport,
    )
}

fn assert_same_estimates<C: HhEstimator>(a: &C, b: &C, what: &str) {
    let mut ia = a.tracked_items();
    let mut ib = b.tracked_items();
    ia.sort_unstable();
    ib.sort_unstable();
    assert_eq!(ia, ib, "{what}: tracked sets diverged");
    for &e in &ia {
        assert_eq!(
            a.estimate(e).to_bits(),
            b.estimate(e).to_bits(),
            "{what}: estimate for {e} diverged"
        );
    }
}

/// Claim 1: the degenerate gossip config is the paper's root fan-out,
/// message for message, through a full engine run on a real tree —
/// same deliveries, same reach, same events, same per-event peak
/// out-degree, wire bytes heavier by exactly one version header per
/// delivery, and bit-identical protocol output.
#[test]
fn degenerate_gossip_matches_root_fan_out_end_to_end() {
    let m = 16;
    let stream = zipf_stream(10_000, 401);
    let cfg = HhConfig::new(m, 0.1).with_seed(4);
    let topo = Topology::Tree { fanout: 4 };
    let inputs = partition(&stream, m);

    let fan = run_p1_inline(m, topo, &inputs, &cfg, BroadcastPlane::RootFanOut);
    let gos = run_p1_inline(
        m,
        topo,
        &inputs,
        &cfg,
        BroadcastPlane::Gossip {
            fanout: m,
            rounds: 1,
            seed: 7,
        },
    );

    let (sf, sg) = (&fan.stats, &gos.stats);
    assert_eq!(sf.broadcast_events, sg.broadcast_events, "events");
    assert_eq!(
        sf.broadcast_deliveries, sg.broadcast_deliveries,
        "deliveries"
    );
    assert_eq!(sf.broadcast_reach, sg.broadcast_reach, "reach");
    assert_eq!(sf.broadcast_peak_out, sg.broadcast_peak_out, "peak out");
    assert_eq!(sg.broadcast_stale, 0, "exhaustive push leaves no one stale");
    assert_eq!(
        sg.bytes_down,
        sf.bytes_down + 8 * sg.broadcast_deliveries,
        "gossip wire = fan-out wire + one 8-byte version header per delivery"
    );
    // Up-direction traffic is plane-independent: same thresholds reach
    // the same sites at the same time, so the same messages climb.
    assert_eq!(sf.up_msgs, sg.up_msgs, "up-traffic diverged");
    assert_eq!(sf.bytes_up, sg.bytes_up, "up bytes diverged");
    assert_same_estimates(&fan.coordinator, &gos.coordinator, "degenerate pin");
}

/// Claim 2: the tree cascade stays the default, bit for bit — a config
/// that names the plane explicitly changes nothing.
#[test]
fn tree_cascade_is_the_default_bit_for_bit() {
    let m = 16;
    let stream = zipf_stream(8_000, 402);
    let cfg = HhConfig::new(m, 0.1).with_seed(5);
    let topo = Topology::Tree { fanout: 4 };
    let inputs = partition(&stream, m);

    let implicit = run_p1_inline(m, topo, &inputs, &cfg, BroadcastPlane::default());
    let explicit = run_p1_inline(m, topo, &inputs, &cfg, BroadcastPlane::TreeCascade);
    assert_eq!(implicit.stats, explicit.stats, "CommStats diverged");
    assert_same_estimates(&implicit.coordinator, &explicit.coordinator, "default");
}

/// Claim 2 for gossip that reaches everyone: when push-then-pull covers
/// every leaf on every event, sites see exactly the thresholds the
/// cascade gives them, so the up direction is the cascade's bit for bit
/// — the saving of the pull phase is pure dissemination, not changed
/// protocol behaviour.
#[test]
fn full_coverage_gossip_matches_cascade_up_traffic_bit_for_bit() {
    let m = 1024;
    let stream = zipf_stream(60_000, 408);
    let cfg = HhConfig::new(m, 0.1).with_seed(10);
    let topo = Topology::Tree { fanout: 8 };
    let inputs = partition(&stream, m);

    let cascade = run_p1_inline(m, topo, &inputs, &cfg, BroadcastPlane::TreeCascade);
    let gossip = run_p1_inline(
        m,
        topo,
        &inputs,
        &cfg,
        BroadcastPlane::Gossip {
            fanout: 4,
            rounds: 24,
            seed: 31,
        },
    );

    let (sc, sg) = (&cascade.stats, &gossip.stats);
    assert!(sg.broadcast_events > 0, "no broadcasts — vacuous");
    assert_eq!(sg.broadcast_stale, 0, "gossip left a leaf stale");
    assert_eq!(sc.broadcast_events, sg.broadcast_events, "events");
    assert_eq!(sc.up_msgs, sg.up_msgs, "up msgs");
    assert_eq!(sc.up_cost, sg.up_cost, "up cost");
    assert_eq!(sc.bytes_up, sg.bytes_up, "up bytes");
    for (hop, (a, b)) in sc.per_level.iter().zip(&sg.per_level).enumerate() {
        assert_eq!(
            (a.up_msgs, a.up_cost, a.up_bytes),
            (b.up_msgs, b.up_cost, b.up_bytes),
            "hop {hop} up traffic"
        );
    }
    assert_eq!(sc.node_in_msgs, sg.node_in_msgs, "per-node fan-in");
    assert_same_estimates(&cascade.coordinator, &gossip.coordinator, "full coverage");
}

/// A transparent wire and a clean `SimNet` run the same gossiping HH-P1
/// deployment. The clean `SimNet` is not transparent, so its broadcasts
/// take the wired round loop, while the `ChannelTransport` takes the
/// transparent one. Every count and estimate must agree.
#[test]
fn transparent_and_clean_wired_gossip_runs_agree() {
    let m = 4_096;
    let stream = zipf_stream(60_000, 409);
    let cfg = HhConfig::new(m, 0.2).with_seed(11);
    let topo = Topology::Tree { fanout: 8 };
    let inputs = partition(&stream, m);
    let plane = BroadcastPlane::Gossip {
        fanout: 4,
        rounds: 24,
        seed: 3,
    };
    let run = |net: &dyn Transport| {
        let (sites, coord, _) = hh::p1::deploy_topology(&cfg, topo).into_parts();
        engine::run_partitioned_topology_parts_on(
            sites,
            coord,
            inputs.clone(),
            &cfg_with(plane),
            Executor::Inline,
            topo,
            hh::p1::make_aggregator(&cfg, topo),
            net,
        )
    };
    let transparent = run(&ChannelTransport);
    let wired = run(&SimNet::new(FaultPlan::default()));
    assert!(
        transparent.stats.broadcast_events > 1,
        "no repeated broadcasts — vacuous"
    );
    assert_eq!(transparent.stats, wired.stats, "CommStats diverged");
    assert_same_estimates(&transparent.coordinator, &wired.coordinator, "clean wire");
}

/// Claim 3 for the monotone protocols: sparse gossip (fanout 2, three
/// rounds over 32 leaves) leaves sites measurably stale, and the εW
/// contract holds with **no** staleness term — stale thresholds are
/// old, smaller thresholds, and sites acting on them send sooner, not
/// later.
#[test]
fn gossip_staleness_is_safe_for_monotone_protocols() {
    let m = 32;
    let stream = zipf_stream(12_000, 403);
    let mut exact = ExactWeightedCounter::new();
    for &(e, w) in &stream {
        exact.update(e, w);
    }
    let w = exact.total_weight();
    let cfg = HhConfig::new(m, 0.1).with_seed(6);
    let topo = Topology::Tree { fanout: 4 };
    let inputs = partition(&stream, m);

    let parts = run_p1_inline(
        m,
        topo,
        &inputs,
        &cfg,
        BroadcastPlane::Gossip {
            fanout: 2,
            rounds: 3,
            seed: 11,
        },
    );
    assert!(
        parts.stats.broadcast_stale > 0,
        "fanout-2 × 3 rounds over 32 leaves must leave someone stale — \
         cell is vacuous"
    );
    assert!(
        parts.stats.broadcast_reach < parts.stats.broadcast_events * m as u64,
        "staleness must show up as reach below full coverage"
    );
    for (e, f) in exact.iter() {
        let est = parts.coordinator.estimate(e);
        assert!(
            est - f <= 1e-6,
            "item {e} overcounts by {} under staleness",
            est - f
        );
        assert!(
            f - est <= cfg.epsilon * w + 1e-6,
            "item {e} undercount {} > εW {} — staleness moved the bound",
            f - est,
            cfg.epsilon * w
        );
    }
}

/// Claim 3 for the sliding window: the certified two-part bound already
/// states withheld mass against `Ŵ_peak` — the largest estimate ever
/// broadcast — precisely so sites acting on stale estimates stay
/// inside it. A gossip run with measured staleness holds the bound
/// component-wise with no fault charge.
#[test]
fn gossip_staleness_is_safe_for_windows() {
    let m = 16;
    let window = 512usize;
    let n = 3 * window;
    let stream = zipf_stream(n, 404);
    let stamped: Vec<(u64, (u64, f64))> = stream
        .iter()
        .enumerate()
        .map(|(t, x)| (t as u64, *x))
        .collect();
    let window_truth = |item: u64| -> f64 {
        stream[n - window..]
            .iter()
            .filter(|&&(e, _)| e == item)
            .map(|&(_, w)| w)
            .sum()
    };
    let cfg = SwMgConfig::new(m, 0.1, window as u64, 32);
    let topo = Topology::Tree { fanout: 4 };
    let inputs = partition(&stamped, m);

    let (sites, coord, _) = mg::deploy_topology(&cfg, topo).into_parts();
    let parts = engine::run_partitioned_topology_parts_on(
        sites,
        coord,
        inputs,
        &cfg_with(BroadcastPlane::Gossip {
            fanout: 2,
            rounds: 3,
            seed: 13,
        }),
        Executor::Inline,
        topo,
        mg::make_aggregator(&cfg, topo),
        &ChannelTransport,
    );
    assert!(
        parts.stats.broadcast_stale > 0,
        "window cell must actually exercise staleness"
    );
    let bound = parts.coordinator.error_bound_at(n as u64);
    for item in 0..40u64 {
        let truth = window_truth(item);
        let est = parts.coordinator.estimate_at(n as u64, item);
        assert!(
            est - truth <= bound.straddle + 1e-9,
            "item {item} overcount {} > straddle {}",
            est - truth,
            bound.straddle
        );
        assert!(
            truth - est <= bound.summary_loss + bound.withheld + 1e-9,
            "item {item} undercount {} > summary {} + withheld {} — \
             gossip staleness escaped the Ŵ_peak term",
            truth - est,
            bound.summary_loss,
            bound.withheld
        );
    }
}

/// Claim 4: per-node out-degree under gossip is `O(fanout · rounds)`
/// independent of `m`, while root fan-out's is `m`. Same protocol, same
/// plane parameters, two deployment sizes.
#[test]
fn gossip_peak_out_degree_is_independent_of_m() {
    let fanout = 3;
    let rounds = 10;
    for &m in &[64usize, 256] {
        let stream = zipf_stream(8_000, 405);
        let cfg = HhConfig::new(m, 0.1).with_seed(7);
        let inputs = partition(&stream, m);
        let gos = run_p1_inline(
            m,
            Topology::Star,
            &inputs,
            &cfg,
            BroadcastPlane::Gossip {
                fanout,
                rounds,
                seed: 19,
            },
        );
        let fan = run_p1_inline(m, Topology::Star, &inputs, &cfg, BroadcastPlane::RootFanOut);
        let events = gos.stats.broadcast_events;
        assert!(events > 0, "m={m}: no broadcasts — cell is vacuous");
        assert!(
            gos.stats.broadcast_peak_out <= events * (fanout * rounds) as u64,
            "m={m}: gossip peak out {} exceeds events × fanout·rounds {}",
            gos.stats.broadcast_peak_out,
            events * (fanout * rounds) as u64
        );
        // Root fan-out's out-degree is the deployment size itself.
        assert_eq!(
            fan.stats.broadcast_peak_out,
            fan.stats.broadcast_events * m as u64,
            "m={m}: star fan-out pushes m frames per event"
        );
        assert!(
            (fanout * rounds) < m,
            "the comparison is vacuous unless fanout·rounds < m"
        );
    }
}

/// The sequential [`Runner`] (the reference driver every protocol is
/// validated against) speaks the plane too:
/// [`Runner::set_broadcast_plane`] routes its synchronous broadcasts
/// through the same dissemination state, with the same εW safety.
#[test]
fn sequential_runner_gossips_with_bound_intact() {
    let m = 24;
    let stream = zipf_stream(10_000, 406);
    let mut exact = ExactWeightedCounter::new();
    for &(e, w) in &stream {
        exact.update(e, w);
    }
    let w = exact.total_weight();
    let cfg = HhConfig::new(m, 0.1).with_seed(8);

    let mut seq = hh::p1::deploy_topology(&cfg, Topology::Tree { fanout: 4 });
    seq.set_broadcast_plane(BroadcastPlane::Gossip {
        fanout: 3,
        rounds: 6,
        seed: 23,
    });
    seq.run_partitioned(stream.iter().cloned(), &mut RoundRobin::new(m), 64);
    let stats = seq.stats();
    assert!(stats.broadcast_events > 0, "no broadcasts — vacuous");
    assert!(
        stats.broadcast_deliveries >= stats.broadcast_reach,
        "deliveries (edges crossed) can never trail adoption"
    );
    for (e, f) in exact.iter() {
        let est = seq.coordinator().estimate(e);
        assert!(est - f <= 1e-6, "item {e} overcounts");
        assert!(
            f - est <= cfg.epsilon * w + 1e-6,
            "item {e} undercount {} > εW {}",
            f - est,
            cfg.epsilon * w
        );
    }
}

/// The concurrent executor — the worker pool at one worker, two, and a
/// comfortable four — completes gossip runs with every arrival counted
/// and the εW contract intact (its broadcast lag composes with gossip
/// staleness; both are monotone-safe).
#[test]
fn pooled_and_threaded_gossip_runs_complete() {
    let m = 16;
    let stream = zipf_stream(10_000, 407);
    let mut exact = ExactWeightedCounter::new();
    for &(e, w) in &stream {
        exact.update(e, w);
    }
    let w = exact.total_weight();
    let cfg = HhConfig::new(m, 0.1).with_seed(9);
    let topo = Topology::Tree { fanout: 4 };
    let inputs = partition(&stream, m);
    let plane = BroadcastPlane::Gossip {
        fanout: 3,
        rounds: 8,
        seed: 29,
    };

    for workers in [1usize, 2, 4] {
        let (sites, coord, _) = hh::p1::deploy_topology(&cfg, topo).into_parts();
        let parts = engine::run_partitioned_topology_parts_on(
            sites,
            coord,
            inputs.clone(),
            &cfg_with(plane),
            Executor::Pool { workers },
            topo,
            hh::p1::make_aggregator(&cfg, topo),
            &ChannelTransport,
        );

        assert_eq!(
            parts.stats.arrivals,
            stream.len() as u64,
            "w{workers}: arrivals lost"
        );
        assert!(
            parts.stats.broadcast_events > 0,
            "w{workers}: no broadcasts"
        );
        for (e, f) in exact.iter() {
            let est = parts.coordinator.estimate(e);
            assert!(
                est - f <= 1e-6,
                "w{workers}: item {e} overcounts by {}",
                est - f
            );
            assert!(
                f - est <= cfg.epsilon * w + 1e-6,
                "w{workers}: item {e} undercount {} > εW {}",
                f - est,
                cfg.epsilon * w
            );
        }
    }
}
