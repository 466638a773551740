//! Bit-exactness regression for the transport abstraction (PR 8): the
//! default message plane must be invisible. Routing the runners through
//! [`ChannelTransport`] — or through a [`SimNet`] whose fault plan is
//! clean — reproduces the pre-transport behavior exactly: the same
//! [`CommStats`] field for field (including the measured
//! `bytes_up`/`bytes_down` counters), the same estimates bit for bit.
//!
//! The engine's plain entry points *delegate* to the `_on` variants
//! with `&ChannelTransport`, so their equivalence is structural; what
//! needs pinning at runtime is the deterministic drivers — the
//! sequential [`Runner`] and the engine's inline executor — where two
//! runs are comparable field-for-field.

use cma::data::WeightedZipfStream;
use cma::protocols::hh::{self, HhConfig, HhEstimator};
use cma::protocols::window::{mg, SwMgConfig};
use cma::stream::partition::partition_round_robin as partition;
use cma::stream::partition::RoundRobin;
use cma::stream::runner::engine::{self, Executor, ThreadedConfig};
use cma::stream::{ChannelTransport, CommStats, FaultPlan, SimNet, Topology};

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

fn assert_stats_identical(a: &CommStats, b: &CommStats, what: &str) {
    // Field-for-field, spelled out so a new counter that diverges names
    // itself in the failure.
    assert_eq!(a.up_msgs, b.up_msgs, "{what}: up_msgs");
    assert_eq!(a.up_cost, b.up_cost, "{what}: up_cost");
    assert_eq!(a.broadcast_events, b.broadcast_events, "{what}: events");
    assert_eq!(
        a.broadcast_deliveries, b.broadcast_deliveries,
        "{what}: bc deliveries"
    );
    assert_eq!(a.broadcast_reach, b.broadcast_reach, "{what}: bc reach");
    assert_eq!(a.bytes_up, b.bytes_up, "{what}: bytes_up");
    assert_eq!(a.bytes_down, b.bytes_down, "{what}: bytes_down");
    assert_eq!(a.arrivals, b.arrivals, "{what}: arrivals");
    assert_eq!(a.per_level, b.per_level, "{what}: per_level");
    assert_eq!(a.node_in_msgs, b.node_in_msgs, "{what}: node_in_msgs");
    assert_eq!(a.leaf_out_msgs, b.leaf_out_msgs, "{what}: leaf_out_msgs");
    assert_eq!(a, b, "{what}: CommStats diverged");
}

/// The inline engine (deterministic quantum scheduler) over the three
/// planes — implicit default, explicit [`ChannelTransport`], clean
/// [`SimNet`] — produces identical stats and bit-identical estimates.
#[test]
fn inline_engine_is_bit_exact_across_transparent_planes() {
    let m = 16;
    let stream = zipf_stream(10_000, 301);
    let cfg = HhConfig::new(m, 0.1).with_seed(4);
    let topo = Topology::Tree { fanout: 4 };
    let inputs = partition(&stream, m);

    let run = |net: &dyn cma::stream::Transport| {
        let (sites, coord, _) = hh::p1::deploy_topology(&cfg, topo).into_parts();
        engine::run_partitioned_topology_parts_on(
            sites,
            coord,
            inputs.clone(),
            &tcfg(),
            Executor::Inline,
            topo,
            hh::p1::make_aggregator(&cfg, topo),
            net,
        )
    };

    let (sites, coord, _) = hh::p1::deploy_topology(&cfg, topo).into_parts();
    let plain = engine::run_partitioned_topology_parts(
        sites,
        coord,
        inputs.clone(),
        &tcfg(),
        Executor::Inline,
        topo,
        hh::p1::make_aggregator(&cfg, topo),
    );
    let channel = run(&ChannelTransport);
    let clean = SimNet::new(FaultPlan::clean(99));
    let sim = run(&clean);

    assert_stats_identical(&plain.stats, &channel.stats, "plain vs channel");
    assert_stats_identical(&plain.stats, &sim.stats, "plain vs clean simnet");
    let zero = clean.stats();
    assert_eq!(zero.dropped, 0, "clean SimNet dropped traffic");
    assert_eq!(zero.duplicated, 0, "clean SimNet duplicated traffic");

    let mut items = plain.coordinator.tracked_items();
    items.sort_unstable();
    for variant in [&channel.coordinator, &sim.coordinator] {
        let mut v_items = variant.tracked_items();
        v_items.sort_unstable();
        assert_eq!(items, v_items, "tracked sets diverged");
        for &e in &items {
            assert_eq!(
                plain.coordinator.estimate(e).to_bits(),
                variant.estimate(e).to_bits(),
                "estimate for {e} diverged"
            );
        }
    }
    assert!(plain.stats.bytes_up > 0, "bytes_up not measured");
    assert!(plain.stats.bytes_down > 0, "bytes_down not measured");
}

/// The sequential [`Runner`] and the inline engine agree on the
/// measured byte counters when fed the same per-site batches (the
/// engine's wave order is the epoch order `run_partitioned` produces
/// for a round-robin partition), and the byte totals are internally
/// consistent: `bytes_up` is exactly the per-hop sum.
#[test]
fn byte_counters_are_internally_consistent() {
    let m = 8;
    let stream = zipf_stream(8_000, 302);
    let cfg = HhConfig::new(m, 0.1).with_seed(5);

    let mut seq = hh::p1::deploy_topology(&cfg, Topology::Tree { fanout: 4 });
    seq.run_partitioned(stream.iter().cloned(), &mut RoundRobin::new(m), 64);
    let stats = seq.stats();
    assert!(stats.bytes_up > 0, "sequential runner must measure bytes");
    assert!(
        stats.bytes_down > 0,
        "sequential runner must charge broadcasts"
    );
    let hop_sum: u64 = stats.per_level.iter().map(|l| l.up_bytes).sum();
    assert_eq!(stats.bytes_up, hop_sum, "bytes_up must equal per-hop sum");
    // Broadcasts are charged structurally: every event reaches all
    // m + I recipients at 8 bytes (an f64 Ŵ threshold) each.
    assert_eq!(
        stats.bytes_down,
        stats.broadcast_deliveries * 8,
        "bytes_down must be 8 bytes per delivery"
    );
}

/// `Executor::Inline` *is* the sequential [`Runner`]: fed one batch of
/// `b` per site per round on a round-robin partition, it equals
/// `Runner::run_partitioned` in epochs of `m·b` field for field —
/// `CommStats` with its per-level rows, and the estimates bit for bit.
/// `N` is not a multiple of `m·b`, so the ragged last round is covered.
#[test]
fn inline_engine_is_the_sequential_runner() {
    use cma::protocols::window::{fd, SwFdConfig};
    let (m, b) = (16, tcfg().batch_size);
    let stream = zipf_stream(10_000, 306);
    assert_ne!(stream.len() % (m * b), 0);
    let cfg = HhConfig::new(m, 0.1).with_seed(7);
    let topo = Topology::Tree { fanout: 4 };
    let mut seq = hh::p1::deploy_topology(&cfg, topo);
    seq.run_partitioned(stream.iter().cloned(), &mut RoundRobin::new(m), m * b);
    let (sites, coord, _) = hh::p1::deploy_topology(&cfg, topo).into_parts();
    let inline = engine::run_partitioned_topology_parts(
        sites,
        coord,
        partition(&stream, m),
        &tcfg(),
        Executor::Inline,
        topo,
        hh::p1::make_aggregator(&cfg, topo),
    );
    assert_stats_identical(seq.stats(), &inline.stats, "hh-p1 tree4");
    let mut items = seq.coordinator().tracked_items();
    let mut inline_items = inline.coordinator.tracked_items();
    items.sort_unstable();
    inline_items.sort_unstable();
    assert_eq!(items, inline_items, "tracked sets diverged");
    for &e in &items {
        assert_eq!(
            seq.coordinator().estimate(e).to_bits(),
            inline.coordinator.estimate(e).to_bits(),
            "estimate for {e} diverged"
        );
    }

    let (m, n, dim) = (8, 1_000, 6);
    assert_ne!(n % (m * b), 0);
    let mut rows = cma::data::SyntheticMatrixStream::new(dim, &[4.0, 2.0, 1.0], 1e6, 306);
    let stamped: Vec<(u64, Vec<f64>)> = (0..n).map(|t| (t as u64, rows.next_row())).collect();
    let cfg = SwFdConfig::new(m, 0.15, 256, dim, 8);
    let mut seq = fd::deploy(&cfg);
    seq.run_partitioned(stamped.iter().cloned(), &mut RoundRobin::new(m), m * b);
    let inline = fd::run_engine(
        &cfg,
        partition(&stamped, m),
        &tcfg(),
        Executor::Inline,
        Topology::Star,
    );
    assert_stats_identical(seq.stats(), &inline.stats, "swfd star");
    let bits = |x: &[f64]| x.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
    let now = n as u64;
    assert_eq!(
        bits(seq.coordinator().sketch_at(now).as_slice()),
        bits(inline.coordinator.sketch_at(now).as_slice()),
        "window sketch diverged"
    );
    assert_eq!(
        seq.coordinator().error_bound_at(now).total().to_bits(),
        inline.coordinator.error_bound_at(now).total().to_bits(),
        "certified window bound diverged"
    );
}

/// Sliding-window runs measure bucket traffic in bytes on both the
/// sequential and the engine path, and the clean-SimNet engine run is
/// bit-exact with the channel-transport engine run.
#[test]
fn window_bytes_measured_and_clean_simnet_exact() {
    let m = 8;
    let window = 256u64;
    let n = 768;
    let stream = zipf_stream(n, 303);
    let stamped: Vec<(u64, (u64, f64))> = stream
        .iter()
        .enumerate()
        .map(|(t, x)| (t as u64, *x))
        .collect();
    let cfg = SwMgConfig::new(m, 0.1, window, 32);
    let topo = Topology::Tree { fanout: 4 };
    let inputs = partition(&stamped, m);

    let run = |net: &dyn cma::stream::Transport| {
        let (sites, coord, _) = mg::deploy_topology(&cfg, topo).into_parts();
        engine::run_partitioned_topology_parts_on(
            sites,
            coord,
            inputs.clone(),
            &tcfg(),
            Executor::Inline,
            topo,
            mg::make_aggregator(&cfg, topo),
            net,
        )
    };
    let channel = run(&ChannelTransport);
    let sim = run(&SimNet::new(FaultPlan::clean(1)));
    assert_stats_identical(&channel.stats, &sim.stats, "swmg channel vs simnet");
    assert!(channel.stats.bytes_up > 0, "window bytes not measured");
    for item in 0..16u64 {
        assert_eq!(
            channel.coordinator.estimate_at(n as u64, item).to_bits(),
            sim.coordinator.estimate_at(n as u64, item).to_bits(),
            "window estimate for {item} diverged"
        );
    }
}

/// Structural broadcast planes reach every recipient over exactly one
/// edge, so `broadcast_deliveries ≡ broadcast_reach` — the split the
/// gossip plane needs (where redundancy makes deliveries exceed reach)
/// must be invisible for [`BroadcastPlane::RootFanOut`] and
/// [`BroadcastPlane::TreeCascade`]. Both planes also produce
/// bit-identical estimates: they differ only in *shape* (root
/// out-degree and lag), which the stats record.
#[test]
fn structural_planes_deliveries_equal_reach() {
    use cma::stream::BroadcastPlane;
    let m = 16;
    let stream = zipf_stream(10_000, 305);
    let cfg = HhConfig::new(m, 0.1).with_seed(4);
    let topo = Topology::Tree { fanout: 4 };
    let inputs = partition(&stream, m);
    let plan = topo.plan(m);
    let recipients = m as u64 + plan.internal_nodes() as u64;

    let run = |plane: BroadcastPlane| {
        let (sites, coord, _) = hh::p1::deploy_topology(&cfg, topo).into_parts();
        engine::run_partitioned_topology_parts_on(
            sites,
            coord,
            inputs.clone(),
            &ThreadedConfig {
                batch_size: 16,
                channel_capacity: 2,
                plane,
            },
            Executor::Inline,
            topo,
            hh::p1::make_aggregator(&cfg, topo),
            &ChannelTransport,
        )
    };

    let fan = run(BroadcastPlane::RootFanOut);
    let cascade = run(BroadcastPlane::TreeCascade);
    for (parts, what) in [(&fan, "root fan-out"), (&cascade, "tree cascade")] {
        let s = &parts.stats;
        assert_eq!(
            s.broadcast_deliveries, s.broadcast_reach,
            "{what}: structural plane must reach each recipient over one edge"
        );
        assert_eq!(
            s.broadcast_deliveries,
            s.broadcast_events * recipients,
            "{what}: every event must cover all m + I recipients"
        );
        assert_eq!(
            s.broadcast_stale, 0,
            "{what}: structural planes leave no one stale"
        );
    }
    // Shape is where they differ: the fan-out root pushes m + I frames
    // per event in one round; the cascade bounds out-degree by the tree
    // fanout at the price of depth-many rounds of lag.
    assert_eq!(
        fan.stats.broadcast_peak_out,
        fan.stats.broadcast_events * recipients
    );
    assert_eq!(fan.stats.broadcast_lag_rounds, fan.stats.broadcast_events);
    assert!(cascade.stats.broadcast_peak_out < fan.stats.broadcast_peak_out);
    assert!(cascade.stats.broadcast_lag_rounds > cascade.stats.broadcast_events);
    // And the protocol outcome is identical.
    let mut items = fan.coordinator.tracked_items();
    let mut c_items = cascade.coordinator.tracked_items();
    items.sort_unstable();
    c_items.sort_unstable();
    assert_eq!(items, c_items, "plane changed the tracked set");
    for &e in &items {
        assert_eq!(
            fan.coordinator.estimate(e).to_bits(),
            cascade.coordinator.estimate(e).to_bits(),
            "plane changed the estimate for {e}"
        );
    }
}

/// Exact-relay protocols stay exact through an explicit transport on
/// the worker pool: the P3 sample is a pure function of the stream and
/// seeds, so a pooled run over [`ChannelTransport`] reproduces the
/// sequential tree's estimates bit for bit at any worker count.
#[test]
fn threaded_channel_transport_keeps_exact_relays_exact() {
    let m = 12;
    let stream = zipf_stream(8_000, 304);
    let cfg = HhConfig::new(m, 0.1).with_seed(6).with_sample_size(200);
    let topo = Topology::Tree { fanout: 3 };

    let mut seq = hh::p3::deploy_topology(&cfg, topo);
    seq.run_partitioned(stream.iter().cloned(), &mut RoundRobin::new(m), 64);

    for workers in [1usize, 2, 8] {
        let (sites, coord, _) = hh::p3::deploy_topology(&cfg, topo).into_parts();
        let pooled = engine::run_partitioned_topology_parts_on(
            sites,
            coord,
            partition(&stream, m),
            &tcfg(),
            Executor::Pool { workers },
            topo,
            hh::p3::make_aggregator(&cfg, topo),
            &ChannelTransport,
        );

        assert_eq!(
            seq.coordinator().total_weight().to_bits(),
            pooled.coordinator.total_weight().to_bits(),
            "workers={workers}: Ŵ diverged"
        );
        let mut sa = seq.coordinator().tracked_items();
        let mut sb = pooled.coordinator.tracked_items();
        sa.sort_unstable();
        sb.sort_unstable();
        assert_eq!(
            sa, sb,
            "workers={workers}: pooled sample diverged from sequential"
        );
        for &e in &sa {
            assert_eq!(
                seq.coordinator().estimate(e).to_bits(),
                pooled.coordinator.estimate(e).to_bits(),
                "workers={workers}: estimate for {e} diverged"
            );
        }
        assert_eq!(pooled.stats.arrivals, stream.len() as u64);
        assert!(pooled.stats.bytes_up > 0);
    }
}
