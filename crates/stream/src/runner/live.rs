//! Live topology re-planning over the pooled execution engine.
//!
//! [`Topology::Adaptive`] resolves its shape from *measurements*, and
//! until engine v2 those measurements could only steer the **next** run
//! (resolve at run boundaries — `resolve_with` / `resolve_calibrated`).
//! This module closes the loop mid-deployment: the stream is driven in
//! segments, and at every segment boundary where a `Ŵ` re-broadcast
//! happened — the boundaries the adaptive contract pins re-planning to,
//! because threshold state is refreshed everywhere — the driver asks
//! [`Topology::resolve_live`] whether the running plan still matches
//! the measured fan-in. When it does not, the deployment **migrates**
//! instead of restarting:
//!
//! 1. every old interior node is drained via
//!    [`MigratableAggregator::split_for_migration`] (all held state,
//!    ignoring hold thresholds — conservation over thrift),
//! 2. the new plan's aggregators are built through the protocol's own
//!    factory, so hold budgets are re-split over the new `m + I`
//!    withholding nodes,
//! 3. each drained `(origin, message)` pair is delivered to the new
//!    parent of its origin leaf
//!    ([`MigratableAggregator::absorb_migrated`]) — or straight to the
//!    coordinator when the new plan is flat, with any broadcasts that
//!    provokes cascading to every site and new node immediately.
//!
//! Sites, the coordinator and all held partials survive the re-plan
//! untouched; nothing is lost and nothing is double-counted (the
//! `live_replan` integration suite pins conservation).
//!
//! # Accounting
//!
//! Each segment runs on its own plan-shaped [`CommStats`]; the driver
//! folds them into one flat accumulator with
//! [`CommStats::absorb_reshaped`], which preserves totals and
//! root-pressure readings across shape changes. Migration traffic is
//! **not** charged to the protocol's `CommStats` — it is bookkeeping of
//! the scheduler, not of the protocol — and is reported separately in
//! [`LiveReport`]. [`EngineStats`] absorb worker-wise across segments.
//!
//! # Re-plan decisions
//!
//! [`Topology::resolve_live`] is consulted with the **last segment's**
//! stats, not the running accumulator: live re-planning exists to react
//! to what the stream is doing *now*, and a cumulative `active_leaves`
//! can only grow, which would make the tree → star collapse
//! unreachable. Static topologies (`Star` / `Tree`) never re-plan —
//! `resolve_live` returns `None` — so driving them through this module
//! is exactly segmented execution.

use super::engine::{self, EngineStats, Executor, ThreadedConfig};
use crate::aggregator::MigratableAggregator;
use crate::comm::{CommStats, MessageCost};
use crate::coordinator::Coordinator;
use crate::site::Site;
use crate::topology::{AggNode, Topology};
use crate::transport::{ChannelTransport, Transport};
use crate::wire::WireSized;
use crate::SiteId;

/// Tuning for the segmented live driver.
#[derive(Debug, Clone)]
pub struct LiveConfig {
    /// Arrivals fed per site per segment (the re-plan decision
    /// granularity). Must be ≥ 1.
    pub segment_len: usize,
    /// Also consult [`Topology::resolve_live`] at segment boundaries
    /// where no `Ŵ` re-broadcast happened. Default `false` — the
    /// adaptive contract pins re-planning to re-broadcast boundaries;
    /// `true` is useful in tests driving quiet streams.
    pub replan_quiet_boundaries: bool,
}

impl Default for LiveConfig {
    fn default() -> Self {
        LiveConfig {
            segment_len: 1024,
            replan_quiet_boundaries: false,
        }
    }
}

/// What the live driver did, alongside the protocol's own stats.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LiveReport {
    /// Segments driven.
    pub segments: usize,
    /// Re-plans performed (plan shape actually changed).
    pub replans: usize,
    /// Messages drained out of retiring aggregators and re-homed into
    /// the new plan (or delivered to the coordinator on a collapse to
    /// flat). Not charged to the protocol's [`CommStats`].
    pub migrated_msgs: u64,
    /// Broadcasts provoked by delivering migrated messages to the
    /// coordinator during a collapse to flat (applied to every site and
    /// new node, but not charged to the protocol's [`CommStats`]).
    pub migration_broadcasts: u64,
    /// The concrete topology the deployment ended on.
    pub final_topology: Topology,
}

/// Everything a live run returns: the final deployment state, the
/// folded stats, and the re-plan audit trail.
#[derive(Debug)]
pub struct LiveRunParts<S, C, A> {
    /// The leaf sites, in id order.
    pub sites: Vec<S>,
    /// The interior nodes of the **final** plan (holding whatever
    /// sub-threshold partials remain — never force-flushed).
    pub aggregators: Vec<A>,
    /// The drained coordinator.
    pub coordinator: C,
    /// Flat accumulator over every segment
    /// ([`CommStats::absorb_reshaped`]; totals and root pressure are
    /// exact, per-level attribution is collapsed).
    pub stats: CommStats,
    /// Scheduler counters absorbed worker-wise across segments.
    pub engine: EngineStats,
    /// The re-plan audit trail.
    pub report: LiveReport,
}

/// Drives pre-partitioned per-site streams through the pooled engine in
/// segments, re-planning the aggregation topology mid-stream when the
/// measured fan-in says so (module docs for the protocol).
///
/// `factory` builds a fresh aggregator-factory for a *concrete*
/// topology — protocols wrap their `make_aggregator(cfg, topology)`
/// here, which is what re-splits hold budgets over the new plan's
/// `m + I` withholding nodes on a re-plan.
///
/// # Panics
/// As [`engine::resume_partitioned_topology_parts`], plus if
/// `live_cfg.segment_len == 0`.
// One over clippy's limit: this is `engine::run_partitioned_topology_
// parts`'s signature (already at seven) plus the live config; callers
// mirror the engine call they are upgrading from, argument for
// argument.
#[allow(clippy::too_many_arguments)]
pub fn run_live_partitioned_topology_parts<S, C, A, FF, F>(
    sites: Vec<S>,
    coordinator: C,
    inputs: Vec<Vec<S::Input>>,
    cfg: &ThreadedConfig,
    executor: Executor,
    topology: Topology,
    factory: FF,
    live_cfg: &LiveConfig,
) -> LiveRunParts<S, C, A>
where
    S: Site + Send,
    S::Input: Send,
    S::UpMsg: MessageCost + Clone + Send,
    S::Broadcast: Clone + WireSized + Send,
    C: Coordinator<UpMsg = S::UpMsg, Broadcast = S::Broadcast>,
    A: MigratableAggregator<UpMsg = S::UpMsg, Broadcast = S::Broadcast> + Send,
    FF: FnMut(Topology) -> F,
    F: FnMut(AggNode) -> A,
{
    run_live_partitioned_topology_parts_on(
        sites,
        coordinator,
        inputs,
        cfg,
        executor,
        topology,
        factory,
        live_cfg,
        &ChannelTransport,
    )
}

/// [`run_live_partitioned_topology_parts`] over an explicit
/// [`Transport`] — bit-exact with the plain entry point under
/// [`ChannelTransport`]; each engine segment applies the same
/// [`crate::SimNet`] fault plan (links are re-seeded per segment, so a
/// live run's fault schedule is still a pure function of the seed and
/// the plan shapes it visits).
///
/// # Panics
/// As [`run_live_partitioned_topology_parts`].
#[allow(clippy::too_many_arguments)]
pub fn run_live_partitioned_topology_parts_on<S, C, A, FF, F>(
    sites: Vec<S>,
    coordinator: C,
    inputs: Vec<Vec<S::Input>>,
    cfg: &ThreadedConfig,
    executor: Executor,
    topology: Topology,
    mut factory: FF,
    live_cfg: &LiveConfig,
    net: &dyn Transport,
) -> LiveRunParts<S, C, A>
where
    S: Site + Send,
    S::Input: Send,
    S::UpMsg: MessageCost + Clone + Send,
    S::Broadcast: Clone + WireSized + Send,
    C: Coordinator<UpMsg = S::UpMsg, Broadcast = S::Broadcast>,
    A: MigratableAggregator<UpMsg = S::UpMsg, Broadcast = S::Broadcast> + Send,
    FF: FnMut(Topology) -> F,
    F: FnMut(AggNode) -> A,
{
    assert!(
        live_cfg.segment_len >= 1,
        "live: segment_len must be positive"
    );
    assert_eq!(inputs.len(), sites.len(), "live: one input stream per site");
    let m = sites.len();

    // The structural (zero-knowledge) resolution the deployment starts
    // on, kept as a `Topology` value so the protocol factory can split
    // budgets for it.
    let current_topology = topology.resolve_structural(m);
    let mut report = LiveReport {
        segments: 0,
        replans: 0,
        migrated_msgs: 0,
        migration_broadcasts: 0,
        final_topology: current_topology,
    };
    if m == 0 {
        return LiveRunParts {
            sites,
            aggregators: Vec::new(),
            coordinator,
            stats: CommStats::default(),
            engine: EngineStats::default(),
            report,
        };
    }

    let mut current_plan = current_topology.plan(m);
    let mut aggs: Vec<A> = current_plan
        .agg_nodes()
        .map(&mut factory(current_topology))
        .collect();

    // Pre-split every site's stream into segment_len chunks.
    let n_segs = inputs
        .iter()
        .map(Vec::len)
        .max()
        .unwrap_or(0)
        .div_ceil(live_cfg.segment_len)
        .max(1);
    let mut segments: Vec<Vec<Vec<S::Input>>> =
        (0..n_segs).map(|_| Vec::with_capacity(m)).collect();
    for input in inputs {
        let mut rows = input.into_iter();
        for seg in &mut segments {
            seg.push(rows.by_ref().take(live_cfg.segment_len).collect());
        }
    }

    let mut sites = sites;
    let mut coordinator = coordinator;
    let mut acc = CommStats::new(m);
    let mut engine_stats = EngineStats::default();

    for seg_inputs in segments {
        let parts = engine::resume_partitioned_topology_parts_on(
            sites,
            coordinator,
            seg_inputs,
            cfg,
            executor,
            current_plan.clone(),
            aggs,
            net,
        );
        sites = parts.sites;
        coordinator = parts.coordinator;
        aggs = parts.aggregators;
        acc.absorb_reshaped(&parts.stats);
        engine_stats.absorb(&parts.engine);
        report.segments += 1;

        // Re-plan only at Ŵ re-broadcast boundaries (threshold state is
        // settled everywhere), judged on this segment's measurements.
        if parts.stats.broadcast_events == 0 && !live_cfg.replan_quiet_boundaries {
            continue;
        }
        let Some(new_topology) = topology.resolve_live(&current_plan, &parts.stats) else {
            continue;
        };
        let new_plan = new_topology.plan(m);
        let mut new_aggs: Vec<A> = new_plan
            .agg_nodes()
            .map(&mut factory(new_topology))
            .collect();

        // Drain the retiring nodes completely (conservation: everything
        // held must end up in exactly one new home).
        let mut migrated: Vec<(SiteId, S::UpMsg)> = Vec::new();
        for agg in &mut aggs {
            agg.split_for_migration(&mut migrated);
        }
        report.migrated_msgs += migrated.len() as u64;
        if new_plan.is_flat() {
            // Collapse to star: held partials have no interior home
            // left — they complete their climb into the coordinator,
            // and any broadcast that provokes cascades immediately.
            let mut bcasts = Vec::new();
            for (origin, msg) in migrated {
                coordinator.receive(origin, msg, &mut bcasts);
                for b in bcasts.drain(..) {
                    report.migration_broadcasts += 1;
                    for a in &mut new_aggs {
                        a.on_broadcast(&b);
                    }
                    for s in &mut sites {
                        s.on_broadcast(&b);
                    }
                }
            }
        } else {
            for (origin, msg) in migrated {
                let (parent, _) = new_plan.parent_of(0, origin);
                new_aggs[parent].absorb_migrated(origin, msg);
            }
        }
        aggs = new_aggs;
        current_plan = new_plan;
        report.replans += 1;
        report.final_topology = new_topology;
    }

    LiveRunParts {
        sites,
        aggregators: aggs,
        coordinator,
        stats: acc,
        engine: engine_stats,
        report,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::aggregator::Relay;
    use std::sync::atomic::{AtomicU64, Ordering};

    /// Leaf that forwards every input and counts broadcasts.
    struct EchoSite {
        broadcasts: u64,
    }

    impl Site for EchoSite {
        type Input = u64;
        type UpMsg = Ping;
        type Broadcast = u64;

        fn observe(&mut self, input: u64, out: &mut Vec<Ping>) {
            out.push(Ping(input));
        }

        fn on_broadcast(&mut self, _b: &u64) {
            self.broadcasts += 1;
        }
    }

    #[derive(Debug, Clone, PartialEq, Eq)]
    struct Ping(u64);

    impl MessageCost for Ping {
        fn cost(&self) -> u64 {
            1
        }
    }

    struct CountCoord {
        received: u64,
        sum: u64,
        every: u64,
    }

    impl Coordinator for CountCoord {
        type UpMsg = Ping;
        type Broadcast = u64;

        fn receive(&mut self, _from: SiteId, msg: Ping, out: &mut Vec<u64>) {
            self.received += 1;
            self.sum += msg.0;
            if self.received.is_multiple_of(self.every) {
                out.push(self.received);
            }
        }
    }

    type EchoRelay = Relay<Ping, u64>;

    fn drive(
        m: usize,
        per_site: usize,
        topology: Topology,
        live_cfg: &LiveConfig,
    ) -> LiveRunParts<EchoSite, CountCoord, EchoRelay> {
        let sites = (0..m).map(|_| EchoSite { broadcasts: 0 }).collect();
        let inputs: Vec<Vec<u64>> = (0..m)
            .map(|s| (0..per_site as u64).map(|i| s as u64 * 1000 + i).collect())
            .collect();
        let cfg = ThreadedConfig {
            batch_size: 4,
            channel_capacity: 2,
            plane: Default::default(),
        };
        run_live_partitioned_topology_parts(
            sites,
            CountCoord {
                received: 0,
                sum: 0,
                every: 8,
            },
            inputs,
            &cfg,
            Executor::Pool { workers: 2 },
            topology,
            |_topology| |_node: AggNode| EchoRelay::new(),
            live_cfg,
        )
    }

    /// A static topology driven in segments is just segmented execution:
    /// no re-plans, every message delivered exactly once.
    #[test]
    fn static_topology_never_replans() {
        let parts = drive(
            8,
            50,
            Topology::Tree { fanout: 2 },
            &LiveConfig {
                segment_len: 16,
                replan_quiet_boundaries: true,
            },
        );
        assert_eq!(parts.report.replans, 0);
        assert_eq!(parts.report.segments, 4); // ceil(50/16)
        assert_eq!(parts.coordinator.received, 8 * 50);
        let expected: u64 = (0..8u64)
            .flat_map(|s| (0..50u64).map(move |i| s * 1000 + i))
            .sum();
        assert_eq!(parts.coordinator.sum, expected);
        assert_eq!(parts.stats.up_msgs, 8 * 50);
    }

    /// Adaptive deployment over a budget-exceeding site count starts as
    /// a tree; when measured fan-in drops within budget it collapses to
    /// the star mid-stream, with held state migrated, and every message
    /// still arrives exactly once.
    #[test]
    fn adaptive_collapses_to_star_and_conserves_messages() {
        let m = 16;
        let budget = 4;
        let sites: Vec<EchoSite> = (0..m).map(|_| EchoSite { broadcasts: 0 }).collect();
        // Only sites 0 and 1 ever speak: measured fan-in 2 ≤ budget.
        let inputs: Vec<Vec<u64>> = (0..m)
            .map(|s| {
                if s < 2 {
                    (0..40u64).map(|i| s as u64 * 1000 + i).collect()
                } else {
                    Vec::new()
                }
            })
            .collect();
        let cfg = ThreadedConfig {
            batch_size: 4,
            channel_capacity: 2,
            plane: Default::default(),
        };
        let parts = run_live_partitioned_topology_parts(
            sites,
            CountCoord {
                received: 0,
                sum: 0,
                every: 8,
            },
            inputs,
            &cfg,
            Executor::Pool { workers: 2 },
            Topology::Adaptive { max_fan_in: budget },
            |_topology| |_node: AggNode| EchoRelay::new(),
            &LiveConfig {
                segment_len: 10,
                replan_quiet_boundaries: true,
            },
        );
        assert_eq!(parts.report.replans, 1, "tree should collapse to star");
        assert_eq!(parts.report.final_topology, Topology::Star);
        assert!(parts.aggregators.is_empty(), "star has no interior nodes");
        // Conservation: every one of the 80 pings reached the root.
        assert_eq!(parts.coordinator.received, 80);
        let expected: u64 = (0..2u64)
            .flat_map(|s| (0..40u64).map(move |i| s * 1000 + i))
            .sum();
        assert_eq!(parts.coordinator.sum, expected);
    }

    /// A re-plan must not lose sub-threshold partials held by retiring
    /// aggregators: a holding aggregator's state is drained by
    /// `split_for_migration` and re-homed, not dropped.
    #[test]
    fn migration_drains_holding_aggregators() {
        static DRAINED: AtomicU64 = AtomicU64::new(0);

        /// Holds everything until migration (flush never emits).
        struct Hoarder {
            pending: Vec<(SiteId, Ping)>,
        }

        impl crate::Aggregator for Hoarder {
            type UpMsg = Ping;
            type Broadcast = u64;
            fn absorb(&mut self, from: SiteId, msg: Ping) {
                self.pending.push((from, msg));
            }
            fn flush(&mut self, _out: &mut Vec<(SiteId, Ping)>) {}
        }

        impl MigratableAggregator for Hoarder {
            fn split_for_migration(&mut self, out: &mut Vec<(SiteId, Ping)>) {
                DRAINED.fetch_add(self.pending.len() as u64, Ordering::Relaxed);
                out.append(&mut self.pending);
            }
        }

        let m = 8;
        let sites: Vec<EchoSite> = (0..m).map(|_| EchoSite { broadcasts: 0 }).collect();
        // One chatty site: measured fan-in 1 ≤ budget 2 → collapse.
        let inputs: Vec<Vec<u64>> = (0..m)
            .map(|s| {
                if s == 0 {
                    (1..=20u64).collect()
                } else {
                    Vec::new()
                }
            })
            .collect();
        let cfg = ThreadedConfig {
            batch_size: 4,
            channel_capacity: 2,
            plane: Default::default(),
        };
        let parts = run_live_partitioned_topology_parts(
            sites,
            CountCoord {
                received: 0,
                sum: 0,
                every: 1000, // quiet: no broadcasts
            },
            inputs,
            &cfg,
            Executor::Pool { workers: 2 },
            Topology::Adaptive { max_fan_in: 2 },
            |_topology| {
                |_node: AggNode| Hoarder {
                    pending: Vec::new(),
                }
            },
            &LiveConfig {
                segment_len: 10,
                replan_quiet_boundaries: true,
            },
        );
        assert_eq!(parts.report.replans, 1);
        // Segment 1's ten pings were hoarded at level 1, drained by the
        // migration, and delivered to the coordinator by the collapse;
        // segment 2's ten went straight to the (now flat) root.
        assert_eq!(DRAINED.load(Ordering::Relaxed), 10);
        assert_eq!(parts.report.migrated_msgs, 10);
        assert_eq!(parts.coordinator.received, 20);
        assert_eq!(parts.coordinator.sum, (1..=20u64).sum::<u64>());
    }

    #[test]
    fn empty_deployment_is_a_no_op() {
        let parts: LiveRunParts<EchoSite, CountCoord, EchoRelay> =
            run_live_partitioned_topology_parts(
                Vec::new(),
                CountCoord {
                    received: 0,
                    sum: 0,
                    every: 8,
                },
                Vec::new(),
                &ThreadedConfig::default(),
                Executor::Pool { workers: 2 },
                Topology::Adaptive { max_fan_in: 4 },
                |_topology| |_node: AggNode| EchoRelay::new(),
                &LiveConfig::default(),
            );
        assert_eq!(parts.report.segments, 0);
        assert_eq!(parts.coordinator.received, 0);
    }
}
