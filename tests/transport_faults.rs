//! Deterministic fault-injection suite: protocols on a [`SimNet`]
//! (PR 8's simulated faulty network) across a seeded fault matrix —
//! drop {0, 1%, 10%} × delay {0, 4 hops} × one of {duplicate,
//! reorder} — with every cell pinned against the certified bounds.
//!
//! The load-bearing claims:
//!
//! 1. **Bounds stay honest under loss.** A dropped up-message's stream
//!    mass ([`cma::stream::MessageCost::mass`]) lands in
//!    [`cma::stream::FaultStats::undercount_mass`], a duplicated one
//!    in `overcount_mass`, and the certified error statements hold in
//!    every cell once those terms are charged: HH-P1's εW contract
//!    widens by exactly the fault mass, the sliding-window two-part
//!    bound absorbs faults via `SwCoordinator::charge_faults`, and
//!    P4's weight-tracker 2-approximation degrades by no more than
//!    the lost mass.
//! 2. **Seed replay is bit-identical.** The inline engine is the
//!    deterministic sequential `Runner` and every SimNet link RNG is
//!    seeded from `(plan seed, from, to, direction)` — so the same
//!    seed reproduces the same [`cma::stream::CommStats`], the same
//!    [`cma::stream::FaultStats`], and the same estimates, field for
//!    field.
//! 3. **Ragged shutdown survives a lossy net.** Sites finishing at
//!    wildly different times while the network drops messages must
//!    drain by disconnection on the worker pool, never hang or panic.

use cma::protocols::hh::{self, HhConfig, HhEstimator};
use cma::protocols::window::{mg, SwMgConfig};
use cma::sketch::ExactWeightedCounter;
use cma::stream::partition::partition_round_robin as partition;
use cma::stream::runner::churn::run_churn_partitioned_topology_parts_on;
use cma::stream::runner::engine::{self, Executor, ThreadedConfig};
use cma::stream::{
    ChurnConfig, ChurnEvent, ChurnSchedule, FaultPlan, LinkFaults, SimNet, Topology,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const M: usize = 16;
const FANOUT: usize = 4;

fn tcfg() -> ThreadedConfig {
    ThreadedConfig {
        batch_size: 16,
        channel_capacity: 2,
        plane: Default::default(),
    }
}

fn zipf_stream(n: usize, seed: u64) -> Vec<(u64, f64)> {
    cma::data::WeightedZipfStream::new(2_000, 2.0, 50.0, seed).take_vec(n)
}

/// The acceptance matrix: drop {0, 1%, 10%} × delay {off, 4 hops} ×
/// one of {duplicate 5%, reorder 5%}, applied to every upward link.
fn fault_matrix() -> Vec<(String, LinkFaults)> {
    let mut cells = Vec::new();
    for &drop in &[0.0, 0.01, 0.10] {
        for &(delay, delay_hops) in &[(0.0, 0u64), (0.10, 4)] {
            for &(duplicate, reorder) in &[(0.05, 0.0), (0.0, 0.05)] {
                let name = format!(
                    "drop={drop} delay={delay}x{delay_hops} dup={duplicate} reorder={reorder}"
                );
                cells.push((
                    name,
                    LinkFaults {
                        drop,
                        duplicate,
                        delay,
                        delay_hops,
                        reorder,
                    },
                ));
            }
        }
    }
    cells
}

/// HH-P1 on the inline engine across the full matrix: the εW contract
/// holds with the fault mass charged to the matching side — estimates
/// can exceed truth only by duplicated mass, and fall short only by
/// εW plus the undercount (dropped + still-in-flight) mass.
#[test]
fn hh_p1_bound_holds_across_fault_matrix() {
    let stream = zipf_stream(8_000, 901);
    let mut exact = ExactWeightedCounter::new();
    for &(e, w) in &stream {
        exact.update(e, w);
    }
    let w = exact.total_weight();
    let cfg = HhConfig::new(M, 0.1).with_seed(4);
    let topo = Topology::Tree { fanout: FANOUT };
    let inputs = partition(&stream, M);

    for (cell, faults) in fault_matrix() {
        let net = SimNet::new(FaultPlan::up_only(77, faults));
        let (sites, coord, _) = hh::p1::deploy_topology(&cfg, topo).into_parts();
        let parts = engine::run_partitioned_topology_parts_on(
            sites,
            coord,
            inputs.clone(),
            &tcfg(),
            Executor::Inline,
            topo,
            hh::p1::make_aggregator(&cfg, topo),
            &net,
        );
        let fstats = net.stats();
        let under = fstats.undercount_mass();
        let over = fstats.overcount_mass();
        for (e, f) in exact.iter() {
            let est = parts.coordinator.estimate(e);
            assert!(
                est - f <= over + 1e-6,
                "{cell}: item {e} overcount {} > duplicated mass {over}",
                est - f
            );
            assert!(
                f - est <= cfg.epsilon * w + under + 1e-6,
                "{cell}: item {e} undercount {} > εW {} + fault mass {under}",
                f - est,
                cfg.epsilon * w
            );
        }
    }
}

/// P4's deterministic weight-tracker invariant across the matrix: the
/// received total never exceeds the true weight by more than the
/// duplicated mass, and keeps the 2-approximation up to the mass the
/// network withheld.
#[test]
fn hh_p4_tracker_invariant_holds_across_fault_matrix() {
    let stream = zipf_stream(8_000, 902);
    let w: f64 = stream.iter().map(|&(_, wt)| wt).sum();
    let cfg = HhConfig::new(M, 0.15).with_seed(7);
    let topo = Topology::Tree { fanout: FANOUT };
    let inputs = partition(&stream, M);

    for (cell, faults) in fault_matrix() {
        let net = SimNet::new(FaultPlan::up_only(78, faults));
        let (sites, coord, _) = hh::p4::deploy_topology(&cfg, topo).into_parts();
        let parts = engine::run_partitioned_topology_parts_on(
            sites,
            coord,
            inputs.clone(),
            &tcfg(),
            Executor::Inline,
            topo,
            hh::p4::make_aggregator(&cfg, topo),
            &net,
        );
        let fstats = net.stats();
        let received = parts.coordinator.total_weight();
        assert!(
            received <= w + fstats.overcount_mass() + 1e-6,
            "{cell}: Ŵ {received} over-counts beyond duplicated mass"
        );
        assert!(
            received >= w / 2.0 - fstats.undercount_mass() - 1e-6,
            "{cell}: tracker lost more than the fault mass ({received} \
             vs {w}/2 − {})",
            fstats.undercount_mass()
        );
    }
}

/// SwMg across the matrix: after charging the network's fault mass via
/// `SwCoordinator::charge_faults`, the two-part window bound holds
/// component-wise — overcount only through straddlers + duplicated
/// mass, undercount only through summary loss + withheld + lost mass.
#[test]
fn swmg_certified_bound_holds_across_fault_matrix() {
    let window = 512usize;
    let n = 3 * window;
    let mut rng = StdRng::seed_from_u64(903);
    let stream: Vec<(u64, f64)> = (0..n)
        .map(|_| {
            let e: u64 = if rng.gen_bool(0.25) {
                1
            } else {
                rng.gen_range(2..40)
            };
            (e, rng.gen_range(1.0..5.0))
        })
        .collect();
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
    let cfg = SwMgConfig::new(M, 0.1, window as u64, 32);
    let topo = Topology::Tree { fanout: FANOUT };
    let inputs = partition(&stamped, M);

    for (cell, faults) in fault_matrix() {
        let net = SimNet::new(FaultPlan::up_only(79, faults));
        let (sites, coord, _) = mg::deploy_topology(&cfg, topo).into_parts();
        let mut parts = engine::run_partitioned_topology_parts_on(
            sites,
            coord,
            inputs.clone(),
            &tcfg(),
            Executor::Inline,
            topo,
            mg::make_aggregator(&cfg, topo),
            &net,
        );
        let fstats = net.stats();
        parts
            .coordinator
            .charge_faults(fstats.undercount_mass(), fstats.overcount_mass());
        let bound = parts.coordinator.error_bound_at(n as u64);
        for item in 0..40u64 {
            let truth = window_truth(item);
            let est = parts.coordinator.estimate_at(n as u64, item);
            assert!(
                est - truth <= bound.straddle + 1e-9,
                "{cell}: item {item} overcount {} > straddle {}",
                est - truth,
                bound.straddle
            );
            assert!(
                truth - est <= bound.summary_loss + bound.withheld + 1e-9,
                "{cell}: item {item} undercount {} > summary {} + withheld {}",
                truth - est,
                bound.summary_loss,
                bound.withheld
            );
        }
    }
}

/// Same seed ⇒ same run, field for field: CommStats (including the
/// measured byte counters), FaultStats, and every estimate.
#[test]
fn seed_replay_is_bit_identical() {
    let stream = zipf_stream(6_000, 904);
    let cfg = HhConfig::new(M, 0.1).with_seed(5);
    let topo = Topology::Tree { fanout: FANOUT };
    let inputs = partition(&stream, M);
    let faults = LinkFaults {
        drop: 0.05,
        duplicate: 0.05,
        delay: 0.05,
        delay_hops: 4,
        reorder: 0.05,
    };

    let run = |seed: u64| {
        let net = SimNet::new(FaultPlan::up_only(seed, faults));
        let (sites, coord, _) = hh::p1::deploy_topology(&cfg, topo).into_parts();
        let parts = engine::run_partitioned_topology_parts_on(
            sites,
            coord,
            inputs.clone(),
            &tcfg(),
            Executor::Inline,
            topo,
            hh::p1::make_aggregator(&cfg, topo),
            &net,
        );
        (parts.stats, net.stats(), parts.coordinator)
    };

    let (stats_a, faults_a, coord_a) = run(1234);
    let (stats_b, faults_b, coord_b) = run(1234);
    assert_eq!(stats_a, stats_b, "CommStats diverged between replays");
    assert_eq!(faults_a, faults_b, "FaultStats diverged between replays");
    assert!(faults_a.dropped > 0, "cell should actually exercise drops");
    let mut items_a = coord_a.tracked_items();
    let mut items_b = coord_b.tracked_items();
    items_a.sort_unstable();
    items_b.sort_unstable();
    assert_eq!(items_a, items_b, "tracked sets diverged between replays");
    for &e in &items_a {
        assert_eq!(
            coord_a.estimate(e).to_bits(),
            coord_b.estimate(e).to_bits(),
            "estimate for {e} diverged between replays"
        );
    }

    // A different seed must produce a different fault schedule (the
    // probability of two independent schedules agreeing exactly over
    // thousands of draws is negligible).
    let (_, faults_c, _) = run(4321);
    assert_ne!(faults_a, faults_c, "seed does not drive the schedule");
}

/// Ragged shutdown under loss on a two-worker pool: sites with wildly
/// different stream lengths (some empty) over a SimNet dropping 20%
/// both ways must drain by disconnection — the run returns, every
/// arrival is counted, and the coordinator stays queryable.
#[test]
fn ragged_shutdown_under_simnet_drop() {
    let m = 12;
    let cfg = HhConfig::new(m, 0.1).with_seed(6);
    let topo = Topology::Tree { fanout: 3 };
    let stream = zipf_stream(6_000, 905);

    // Site i gets i/11 of the stream share: site 0 nothing, site 11
    // everything it is offered — a maximally ragged finish order.
    let mut inputs: Vec<Vec<(u64, f64)>> = vec![Vec::new(); m];
    for (i, &x) in stream.iter().enumerate() {
        let sid = i % m;
        if i % (sid + 1) == 0 && sid > 0 {
            inputs[sid].push(x);
        }
    }
    let fed: usize = inputs.iter().map(Vec::len).sum();

    let faults = LinkFaults {
        drop: 0.2,
        ..Default::default()
    };
    let net = SimNet::new(FaultPlan {
        seed: 55,
        up: faults,
        down: faults,
        overrides: Vec::new(),
    });
    let (sites, coord, _) = hh::p1::deploy_topology(&cfg, topo).into_parts();
    let parts = engine::run_partitioned_topology_parts_on(
        sites,
        coord,
        inputs,
        &tcfg(),
        Executor::Pool { workers: 2 },
        topo,
        hh::p1::make_aggregator(&cfg, topo),
        &net,
    );
    assert_eq!(parts.stats.arrivals, fed as u64, "arrivals lost");
    let w_hat = parts.coordinator.total_weight();
    assert!(w_hat.is_finite() && w_hat >= 0.0);
    let fstats = net.stats();
    assert!(fstats.dropped > 0, "drop cell never dropped anything");
    // Conservation: what the coordinator saw plus what the network
    // withheld covers what the sites shipped.
    let shipped: f64 = stream
        .iter()
        .enumerate()
        .filter(|(i, _)| {
            let sid = i % m;
            sid > 0 && i % (sid + 1) == 0
        })
        .map(|(_, &(_, w))| w)
        .sum();
    assert!(
        w_hat <= shipped + fstats.overcount_mass() + 1e-6,
        "Ŵ {w_hat} exceeds shipped mass {shipped}"
    );
}

/// Gossip plane × duplicate-manufacturing wire: the versioned-frame
/// monotone check makes duplicated (and reordered) `Ŵ` frames
/// idempotent — a stale copy can never regress a site's threshold.
/// Pinned through the εW contract: gossip frames are pure control
/// traffic (mass 0), so with a duplicate/reorder-only plan on the
/// down direction, *neither* side of the bound earns a fault charge —
/// if a duplicated stale frame could regress a threshold, sites would
/// send later than the protocol allows and the undercount side would
/// need a term this pin refuses to grant.
#[test]
fn gossip_duplicated_stale_frames_never_regress_thresholds() {
    use cma::stream::BroadcastPlane;
    let stream = zipf_stream(8_000, 909);
    let mut exact = ExactWeightedCounter::new();
    for &(e, w) in &stream {
        exact.update(e, w);
    }
    let w = exact.total_weight();
    let cfg = HhConfig::new(M, 0.1).with_seed(11);
    let topo = Topology::Tree { fanout: FANOUT };
    let inputs = partition(&stream, M);
    let gossip_cfg = ThreadedConfig {
        batch_size: 16,
        channel_capacity: 2,
        plane: BroadcastPlane::Gossip {
            fanout: 4,
            rounds: 8,
            seed: 17,
        },
    };
    let faults = LinkFaults {
        duplicate: 0.30,
        reorder: 0.10,
        ..Default::default()
    };

    let run = |seed: u64| {
        let net = SimNet::new(FaultPlan {
            seed,
            down: faults,
            ..Default::default()
        });
        let (sites, coord, _) = hh::p1::deploy_topology(&cfg, topo).into_parts();
        let parts = engine::run_partitioned_topology_parts_on(
            sites,
            coord,
            inputs.clone(),
            &gossip_cfg,
            Executor::Inline,
            topo,
            hh::p1::make_aggregator(&cfg, topo),
            &net,
        );
        (parts, net.stats())
    };

    let (parts, fstats) = run(84);
    assert!(
        fstats.duplicated > 0,
        "the cell never duplicated a gossip frame — vacuous"
    );
    assert_eq!(fstats.dropped, 0, "duplicate/reorder plan must not drop");
    // Duplicates are control traffic: they inflate the measured edge
    // count, never the mass ledger.
    assert_eq!(
        fstats.overcount_mass(),
        0.0,
        "gossip frames must carry no mass"
    );
    assert!(
        parts.stats.broadcast_deliveries > parts.stats.broadcast_reach,
        "duplicated frames must surface as redundant deliveries"
    );
    for (e, f) in exact.iter() {
        let est = parts.coordinator.estimate(e);
        assert!(
            est - f <= 1e-6,
            "dup cell: item {e} overcounts by {} with no duplicated mass",
            est - f
        );
        assert!(
            f - est <= cfg.epsilon * w + 1e-6,
            "dup cell: item {e} undercount {} > εW {} — a duplicated \
             stale frame regressed a threshold",
            f - est,
            cfg.epsilon * w
        );
    }

    // Seed replay: the gossip plane's cached per-edge links keep the
    // fault schedule deterministic — same seed, same run, field for
    // field.
    let (parts_b, fstats_b) = run(84);
    assert_eq!(
        parts.stats, parts_b.stats,
        "CommStats diverged between replays"
    );
    assert_eq!(fstats, fstats_b, "FaultStats diverged between replays");
}

/// Gossip plane × a dropping, delaying wire through the pull phase: at
/// M = 16 and fanout 4 pull rounds engage from 4 adopters, so digests
/// and replies cross lossy links whose held copies release in later
/// rounds and events. Digests ride their own links, so a late digest
/// can never be adopted as a frame, and late frames lose the monotone
/// check — the εW contract holds with no fault term on the undercount
/// side, the mass ledger never overcounts, and a seed replays bit for
/// bit.
#[test]
fn gossip_pull_phase_under_drop_and_delay_never_regresses_thresholds() {
    use cma::stream::BroadcastPlane;
    let stream = zipf_stream(8_000, 910);
    let mut exact = ExactWeightedCounter::new();
    for &(e, w) in &stream {
        exact.update(e, w);
    }
    let w = exact.total_weight();
    let cfg = HhConfig::new(M, 0.1).with_seed(12);
    let topo = Topology::Tree { fanout: FANOUT };
    let inputs = partition(&stream, M);
    let gossip_cfg = ThreadedConfig {
        plane: BroadcastPlane::Gossip {
            fanout: 4,
            rounds: 8,
            seed: 19,
        },
        ..tcfg()
    };
    let faults = LinkFaults {
        drop: 0.05,
        delay: 0.2,
        delay_hops: 3,
        ..Default::default()
    };

    let run = |seed: u64| {
        let net = SimNet::new(FaultPlan {
            seed,
            down: faults,
            ..Default::default()
        });
        let (sites, coord, _) = hh::p1::deploy_topology(&cfg, topo).into_parts();
        let parts = engine::run_partitioned_topology_parts_on(
            sites,
            coord,
            inputs.clone(),
            &gossip_cfg,
            Executor::Inline,
            topo,
            hh::p1::make_aggregator(&cfg, topo),
            &net,
        );
        (parts, net.stats())
    };

    let (parts, fstats) = run(85);
    assert!(
        fstats.dropped > 0 && fstats.delayed > 0,
        "the cell never dropped or delayed a gossip message — vacuous"
    );
    // Frames are 16 bytes (version + f64 threshold), digests 8: less
    // than 16 bytes per delivery means the pull phase ran.
    assert!(
        parts.stats.bytes_down < 16 * parts.stats.broadcast_deliveries,
        "no digest crossed the wire — the pull phase never engaged"
    );
    assert_eq!(
        fstats.overcount_mass(),
        0.0,
        "gossip traffic must carry no mass"
    );
    for (e, f) in exact.iter() {
        let est = parts.coordinator.estimate(e);
        assert!(
            est - f <= 1e-6,
            "pull cell: item {e} overcounts by {}",
            est - f
        );
        assert!(
            f - est <= cfg.epsilon * w + 1e-6,
            "pull cell: item {e} undercount {} > εW {} — a late frame or \
             digest regressed a threshold",
            f - est,
            cfg.epsilon * w
        );
    }

    let (parts_b, fstats_b) = run(85);
    assert_eq!(
        parts.stats, parts_b.stats,
        "CommStats diverged between replays"
    );
    assert_eq!(fstats, fstats_b, "FaultStats diverged between replays");
    let mut items = parts.coordinator.tracked_items();
    items.sort_unstable();
    for &e in &items {
        assert_eq!(
            parts.coordinator.estimate(e).to_bits(),
            parts_b.coordinator.estimate(e).to_bits(),
            "estimate for {e} diverged between replays"
        );
    }
}

const CHURN_SEGMENT: usize = 64;

/// Mirrors the churn driver's feeding discipline for a leave-only
/// schedule: how many inputs each slot consumed before its feed paused.
fn fed_prefixes(lens: &[usize], ccfg: &ChurnConfig) -> Vec<usize> {
    let m = lens.len();
    let mut active = ccfg.schedule.initial_activity(m);
    let mut remaining = lens.to_vec();
    let mut fed = vec![0usize; m];
    let mut boundary = 0usize;
    loop {
        for event in ccfg.schedule.events_at(boundary) {
            match event {
                ChurnEvent::Join(s) => active[s] = true,
                ChurnEvent::Leave(s) => active[s] = false,
            }
        }
        let future = ccfg.schedule.events.iter().any(|&(b, _)| b > boundary);
        let left = (0..m).any(|s| active[s] && remaining[s] > 0);
        if !future && !left {
            break;
        }
        for s in 0..m {
            if active[s] {
                let k = remaining[s].min(ccfg.segment_len);
                fed[s] += k;
                remaining[s] -= k;
            }
        }
        boundary += 1;
    }
    fed
}

fn churn_leave_cfg(slot: usize) -> ChurnConfig {
    ChurnConfig {
        segment_len: CHURN_SEGMENT,
        schedule: ChurnSchedule::new().at(2, ChurnEvent::Leave(slot)),
        ..ChurnConfig::default()
    }
}

/// Churn under faults: 10% up-link drop plus one mid-stream leave. The
/// two ledgers — the network's [`FaultStats`](cma::stream::FaultStats)
/// and the churn driver's departure accounting — must compose without
/// double-charging: the εW contract over the *fed* mass holds charging
/// only the network's fault mass, with **no** extra term for the
/// departed mass (the final flush re-enters the bound, so it needs no
/// charge; were it also routed through the lossy net and dropped, the
/// undercount side would need `departed_mass` too and this pin would
/// fail).
#[test]
fn hh_p1_bound_holds_with_leave_under_drop() {
    let stream = zipf_stream(8_000, 906);
    let inputs = partition(&stream, M);
    let ccfg = churn_leave_cfg(3);
    let lens: Vec<usize> = inputs.iter().map(Vec::len).collect();
    let fed = fed_prefixes(&lens, &ccfg);
    let fed_total: usize = fed.iter().sum();
    let mut count = [0usize; M];
    let mut exact = ExactWeightedCounter::new();
    for (i, &(e, w)) in stream.iter().enumerate() {
        let s = i % M;
        if count[s] < fed[s] {
            count[s] += 1;
            exact.update(e, w);
        }
    }
    let w_fed = exact.total_weight();
    let cfg = HhConfig::new(M, 0.1).with_seed(8);
    let topo = Topology::Tree { fanout: FANOUT };

    let faults = LinkFaults {
        drop: 0.10,
        ..Default::default()
    };
    let net = SimNet::new(FaultPlan::up_only(81, faults));
    let (sites, coord, _) = hh::p1::deploy_topology(&cfg, topo).into_parts();
    let parts = run_churn_partitioned_topology_parts_on(
        sites,
        coord,
        inputs.clone(),
        &tcfg(),
        Executor::Inline,
        topo,
        |t| hh::p1::make_aggregator(&cfg, t),
        &ccfg,
        &net,
    );
    let fstats = net.stats();
    assert_eq!(
        parts.stats.arrivals, fed_total as u64,
        "feeding must be fault-independent"
    );
    assert!(fstats.dropped > 0, "drop cell never dropped anything");
    assert!(
        parts.report.departed_mass > 0.0,
        "the leaving site held nothing — cell is vacuous"
    );
    let under = fstats.undercount_mass();
    let over = fstats.overcount_mass();
    for (e, f) in exact.iter() {
        let est = parts.coordinator.estimate(e);
        assert!(
            est - f <= over + 1e-6,
            "leave+drop: item {e} overcount {} > duplicated mass {over}",
            est - f
        );
        assert!(
            f - est <= cfg.epsilon * w_fed + under + 1e-6,
            "leave+drop: item {e} undercount {} > εW_fed {} + fault mass \
             {under} (departed mass {} must not need charging)",
            f - est,
            cfg.epsilon * w_fed,
            parts.report.departed_mass
        );
    }
}

/// The no-double-charge construction, made observable. The departing
/// site's up link drops 100% (per-link override) while the rest of the
/// network is clean, and that site alone streams a unique element. Its
/// threshold reports all die on the link — so any trace of the unique
/// element at the root can only have arrived through the departure
/// flush, which is delivered outside the transport. HH-P2 keeps exact
/// per-element counts, so the pin is sharp: the unique element's
/// estimate is positive, bounded by the departed mass, and the fault
/// ledger charged the dropped reports disjointly.
#[test]
fn departure_flush_bypasses_lossy_links() {
    const UNIQUE: u64 = 1_000_000;
    let leaver = 5usize;
    let topo = Topology::Tree { fanout: FANOUT };
    let stream = zipf_stream(8_000, 907);
    let mut inputs = partition(&stream, M);
    let share = inputs[leaver].len();
    inputs[leaver] = vec![(UNIQUE, 3.0); share];
    let ccfg = churn_leave_cfg(leaver);
    let cfg = HhConfig::new(M, 0.1).with_seed(9);

    let plan = topo.plan(M);
    let (parent, _) = plan.parent_of(0, leaver);
    let black = LinkFaults {
        drop: 1.0,
        ..Default::default()
    };
    let net = SimNet::new(FaultPlan {
        seed: 82,
        overrides: vec![((leaver, plan.agg_node_id(parent)), black)],
        ..Default::default()
    });
    let (sites, coord, _) = hh::p2::deploy_topology(&cfg, topo).into_parts();
    let parts = run_churn_partitioned_topology_parts_on(
        sites,
        coord,
        inputs.clone(),
        &tcfg(),
        Executor::Inline,
        topo,
        |t| hh::p2::make_aggregator(&cfg, t),
        &ccfg,
        &net,
    );
    let fstats = net.stats();
    let departed = parts.report.departed_mass;
    assert!(
        fstats.dropped > 0,
        "the leaver's threshold reports never hit the black link"
    );
    assert!(departed > 0.0, "the leaving site held nothing pending");
    let est = parts.coordinator.estimate(UNIQUE);
    assert!(
        est > 0.0,
        "no trace of the unique element at the root: the departure \
         flush crossed the lossy link instead of bypassing it"
    );
    assert!(
        est <= departed + 1e-9,
        "unique-element count {est} exceeds the departed mass {departed}: \
         dropped reports leaked through (double-charged with the fault \
         ledger, undercount {})",
        fstats.undercount_mass()
    );
    // Disjoint ledgers: the estimate never exceeds what the leaver was
    // fed, and the black link's ledger stays within the mass the leaver
    // could have shipped — P2 reports each unit twice (a `Total` delta
    // for the ŵ doubling plus a per-element delta), so the cap is 2×.
    let fed_unique = 3.0 * 2.0 * CHURN_SEGMENT as f64; // 2 segments fed
    assert!(
        est <= fed_unique + 1e-6,
        "estimate {est} exceeds the fed unique mass {fed_unique}"
    );
    assert!(
        fstats.undercount_mass() <= 2.0 * fed_unique + 1e-6,
        "fault ledger {} exceeds both P2 channels' worth of the \
         leaver's fed mass 2x{fed_unique}: mass charged twice",
        fstats.undercount_mass()
    );
}

/// Late, never lost — across a link close AND a departure. The leaving
/// site's up link delays every message by more hops than a segment
/// carries, so its threshold reports are all still in flight when the
/// segment's links close at the churn boundary. The close must release
/// them (the engine absorbs the held wave as one final late delivery)
/// *before* the next boundary's `depart` flushes the residual — so the
/// unique element fed only to the leaver arrives complete: late
/// releases plus the departure flush reassemble the exact fed mass.
/// The fault ledger still charges the in-flight mass conservatively
/// (a query could have landed mid-hold), which is why the undercount
/// term is positive even though nothing was actually lost.
#[test]
fn delayed_flush_survives_link_close_and_departure() {
    const UNIQUE: u64 = 2_000_000;
    let leaver = 5usize;
    let topo = Topology::Star;
    let stream = zipf_stream(8_000, 908);
    let mut inputs = partition(&stream, M);
    let share = inputs[leaver].len();
    inputs[leaver] = vec![(UNIQUE, 3.0); share];
    let ccfg = churn_leave_cfg(leaver);
    let cfg = HhConfig::new(M, 0.1).with_seed(9);

    let plan = topo.plan(M);
    let sticky = LinkFaults {
        delay: 1.0,
        delay_hops: 1_000_000, // far beyond one segment's traffic
        ..Default::default()
    };
    let net = SimNet::new(FaultPlan {
        seed: 83,
        overrides: vec![((leaver, plan.root_node_id()), sticky)],
        ..Default::default()
    });
    let (sites, coord, _) = hh::p2::deploy_topology(&cfg, topo).into_parts();
    let parts = run_churn_partitioned_topology_parts_on(
        sites,
        coord,
        inputs.clone(),
        &tcfg(),
        Executor::Inline,
        topo,
        |t| hh::p2::make_aggregator(&cfg, t),
        &ccfg,
        &net,
    );
    let fstats = net.stats();
    assert!(
        fstats.delayed > 0,
        "the sticky link never held anything — cell is vacuous"
    );
    assert_eq!(fstats.dropped, 0, "a delay-only link must drop nothing");
    let fed_unique = 3.0 * 2.0 * CHURN_SEGMENT as f64; // 2 segments fed
    let est = parts.coordinator.estimate(UNIQUE);
    assert!(
        (est - fed_unique).abs() <= 1e-9,
        "unique-element count {est} != fed mass {fed_unique}: a message \
         held across the link close (or the departure) was lost"
    );
    assert!(
        fstats.undercount_mass() > 0.0,
        "in-flight mass must still be charged conservatively"
    );
}
