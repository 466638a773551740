//! Membership churn + coordinator snapshot/recovery over the pooled
//! execution engine.
//!
//! This driver extends [`super::live`]'s segmented execution with the
//! two production concerns the paper's fixed-`m` model leaves open:
//!
//! * **Churn** — a [`ChurnSchedule`] pins [`ChurnEvent::Join`] /
//!   [`ChurnEvent::Leave`] events to segment boundaries. The structural
//!   site universe stays fixed (all `M` slots exist for the whole run,
//!   preserving `SiteId` stability and [`CommStats`] shape); churn
//!   toggles each slot's *activity*. A leaving site's withheld summary
//!   completes its climb in one hop ([`ChurnSite::depart`] → the
//!   coordinator, outside the transport: never dropped, never charged
//!   to `CommStats`/`FaultStats` — so the churn ledger and the fault
//!   ledger compose without double-charging by construction). A joining
//!   site starts from [`ChurnCoordinator::current_broadcast`]. At the
//!   next settled boundary the ε budget is **re-split** over the new
//!   `m' + I` withholding nodes: every node's [`ChurnBudget::rebudget`]
//!   is invoked exactly once, interior nodes are rebuilt through the
//!   protocol factory and re-homed with the live-replan migration
//!   machinery ([`MigratableAggregator`]).
//! * **Recovery** — at a chosen boundary the interior nodes flush fully
//!   into the root and the root complex (coordinator + interior
//!   aggregators) is captured as a wire-encoded [`Snapshot`]; from then
//!   on the coordinator's inbound messages are write-ahead logged. A
//!   crash at a later boundary discards the live root complex (the mass
//!   interior nodes held since the snapshot is *measured* into
//!   [`ChurnReport::recovery_lost_mass`] — tests fold it into the
//!   withheld/undercount term of the restated bound, exactly as
//!   `SwCoordinator::charge_faults` folds network-fault mass), restores
//!   the snapshot, replays the logged suffix through the restored
//!   coordinator, and reconciles root-side vs site-side membership with
//!   one ungated re-split.
//!
//! # Re-split timing
//!
//! Membership changes mark the deployment dirty; the re-split itself is
//! deferred to a boundary where threshold state is settled — one where
//! a `Ŵ` re-broadcast happened (in the last segment or provoked by a
//! departure flush), boundary 0, or any boundary when
//! [`ChurnConfig::resplit_quiet_boundaries`] is set. Until the re-split
//! lands, surviving nodes keep their old (smaller-share, strictly
//! conservative) thresholds. A crash always re-splits immediately: the
//! restored root believes the snapshot-time membership and must be
//! reconciled before the next segment.
//!
//! # Zero-churn parity
//!
//! With an empty schedule and no snapshot/crash boundaries, this driver
//! is **bit-identical** to [`super::live`] on a static topology: the
//! WAL wrapper is pure delegation while disarmed, no re-split ever
//! fires, and segments run through the same engine call. (Unlike
//! `live`, this driver re-plans topology from *membership*, not from
//! measured fan-in — `Adaptive` resolves against the active count.)

use super::engine::{self, EngineStats, Executor, ThreadedConfig};
use crate::aggregator::MigratableAggregator;
use crate::churn::{
    BudgetShare, ChurnBudget, ChurnCoordinator, ChurnEvent, ChurnSchedule, ChurnSite, Membership,
};
use crate::comm::{CommStats, MessageCost};
use crate::coordinator::Coordinator;
use crate::snapshot::Snapshot;
use crate::topology::{AggNode, Topology, TopologyPlan};
use crate::transport::{ChannelTransport, Transport};
use crate::wire::{WireCodec, WireSized};
use crate::SiteId;

/// Write-ahead-logging coordinator wrapper: pure delegation while
/// disarmed (bit-identical to the bare coordinator), and a clone of
/// every inbound `(origin, message)` while armed — the replay suffix a
/// recovery needs on top of the last snapshot.
#[derive(Debug)]
pub struct WalCoordinator<C: Coordinator> {
    inner: C,
    log: Vec<(SiteId, C::UpMsg)>,
    logging: bool,
}

impl<C: Coordinator> WalCoordinator<C> {
    /// Wraps a coordinator, disarmed.
    pub fn new(inner: C) -> Self {
        WalCoordinator {
            inner,
            log: Vec::new(),
            logging: false,
        }
    }

    /// The wrapped coordinator.
    pub fn inner(&self) -> &C {
        &self.inner
    }

    /// Messages logged since the WAL was armed.
    pub fn log_len(&self) -> usize {
        self.log.len()
    }

    /// Unwraps the coordinator, dropping any log.
    pub fn into_inner(self) -> C {
        self.inner
    }

    fn arm(&mut self) {
        self.logging = true;
    }

    fn take_log(&mut self) -> Vec<(SiteId, C::UpMsg)> {
        std::mem::take(&mut self.log)
    }
}

impl<C> Coordinator for WalCoordinator<C>
where
    C: Coordinator,
    C::UpMsg: Clone,
{
    type UpMsg = C::UpMsg;
    type Broadcast = C::Broadcast;

    fn receive(&mut self, from: SiteId, msg: Self::UpMsg, out: &mut Vec<Self::Broadcast>) {
        if self.logging {
            self.log.push((from, msg.clone()));
        }
        self.inner.receive(from, msg, out);
    }
}

/// Tuning + schedule for the churn/recovery driver.
#[derive(Debug, Clone)]
pub struct ChurnConfig {
    /// Arrivals fed per active site per segment. Must be ≥ 1.
    pub segment_len: usize,
    /// Also re-split at boundaries where no `Ŵ` re-broadcast happened
    /// (module docs). Default `false`.
    pub resplit_quiet_boundaries: bool,
    /// The membership events, pinned to segment boundaries.
    pub schedule: ChurnSchedule,
    /// Boundary at which to capture a [`Snapshot`] of the root complex
    /// and arm the WAL.
    pub snapshot_at: Option<usize>,
    /// Boundary at which the root complex crashes and recovers from the
    /// snapshot (requires `snapshot_at ≤ crash_at`).
    pub crash_at: Option<usize>,
}

impl Default for ChurnConfig {
    fn default() -> Self {
        ChurnConfig {
            segment_len: 1024,
            resplit_quiet_boundaries: false,
            schedule: ChurnSchedule::new(),
            snapshot_at: None,
            crash_at: None,
        }
    }
}

/// What the churn/recovery driver did, alongside the protocol's stats.
#[derive(Debug, Clone, PartialEq)]
pub struct ChurnReport {
    /// Segments driven.
    pub segments: usize,
    /// Join events applied.
    pub joins: usize,
    /// Leave events applied.
    pub leaves: usize,
    /// Budget re-splits performed (each node re-budgeted exactly once).
    pub resplits: usize,
    /// Re-splits that also changed the plan shape.
    pub replans: usize,
    /// Messages drained out of retiring interior nodes and re-homed
    /// (plan surgery + the pre-snapshot flush). Not charged to
    /// [`CommStats`].
    pub migrated_msgs: u64,
    /// Broadcasts provoked by delivering migrated messages to the root.
    pub migration_broadcasts: u64,
    /// Final-flush messages emitted by departing sites.
    pub departed_msgs: u64,
    /// Total mass of those final flushes (the withheld mass that
    /// re-entered the certified bound instead of evaporating).
    pub departed_mass: f64,
    /// Broadcasts provoked by departure flushes.
    pub departure_broadcasts: u64,
    /// Inputs never fed because their site slot was inactive when the
    /// run ended.
    pub unfed_inputs: usize,
    /// Wire size of the captured snapshot, if one was taken.
    pub snapshot_bytes: Option<u64>,
    /// Mass the crashed root complex held since the snapshot —
    /// discarded by the crash, measured here so tests can fold it into
    /// the restated bound's undercount term.
    pub recovery_lost_mass: f64,
    /// WAL messages replayed into the restored coordinator.
    pub replayed_msgs: u64,
    /// Broadcasts provoked by the replay (applied to restored interior
    /// nodes only — sites already heard this sequence live).
    pub replay_broadcasts: u64,
    /// The concrete topology the deployment ended on.
    pub final_topology: Topology,
}

/// Everything a churn run returns.
#[derive(Debug)]
pub struct ChurnRunParts<S, C, A> {
    /// The leaf sites, in slot order (departed slots included, quiet).
    pub sites: Vec<S>,
    /// The interior nodes of the final plan.
    pub aggregators: Vec<A>,
    /// The coordinator (unwrapped from the WAL).
    pub coordinator: C,
    /// Flat accumulator over every segment
    /// ([`CommStats::absorb_reshaped`]).
    pub stats: CommStats,
    /// Scheduler counters absorbed worker-wise across segments.
    pub engine: EngineStats,
    /// The churn/recovery audit trail.
    pub report: ChurnReport,
    /// The captured snapshot, if `snapshot_at` fired.
    pub snapshot: Option<Snapshot>,
}

/// The [`Membership`] of a plan with `active_sites` live leaves. Clamped
/// to ≥ 1 site so re-split ratios stay finite when everyone has left
/// (thresholds are then moot — no one observes).
fn membership_of(plan: &TopologyPlan, active_sites: usize) -> Membership {
    Membership {
        sites: active_sites.max(1),
        interior: plan.internal_nodes(),
        levels: plan.internal_levels(),
        flat: plan.is_flat(),
    }
}

/// Active leaves covered by one interior node: the plan's leaf blocks
/// are contiguous (`span = fanout^level`), so this is a slice count.
fn active_leaves_under(plan: &TopologyPlan, node: AggNode, active: &[bool]) -> usize {
    let span = plan.fanout().saturating_pow(node.level as u32);
    let lo = (node.index * span).min(active.len());
    let hi = ((node.index + 1) * span).min(active.len());
    active[lo..hi].iter().filter(|a| **a).count()
}

/// One budget re-split: rebuild the interior through the protocol
/// factory (budgeted for the structural all-`M` membership) and
/// re-budget each fresh node once to the active membership; re-budget
/// every site slot and the root from the membership each side was last
/// split for (`site_prev` and `root_prev` diverge only right after a
/// snapshot restore); migrate all held interior state into the new plan.
#[allow(clippy::too_many_arguments)]
fn resplit<S, C, A, F>(
    sites: &mut [S],
    active: &[bool],
    wal: &mut WalCoordinator<C>,
    mut old_aggs: Vec<A>,
    new_plan: &TopologyPlan,
    make: &mut F,
    site_prev: Membership,
    root_prev: Membership,
    next: Membership,
    report: &mut ChurnReport,
) -> Vec<A>
where
    S: ChurnSite,
    S::UpMsg: MessageCost + Clone,
    C: ChurnCoordinator<UpMsg = S::UpMsg, Broadcast = S::Broadcast>,
    A: MigratableAggregator<UpMsg = S::UpMsg, Broadcast = S::Broadcast> + ChurnBudget,
    F: FnMut(AggNode) -> A,
{
    let baseline = membership_of(new_plan, new_plan.sites());
    let mut new_aggs: Vec<A> = new_plan
        .agg_nodes()
        .map(|node| {
            let mut a = make(node);
            a.rebudget(&BudgetShare {
                prev: baseline,
                next,
                covered_prev: node.leaves,
                covered_next: active_leaves_under(new_plan, node, active),
            });
            a
        })
        .collect();
    // Every slot is re-budgeted, inactive ones included: a later join
    // must find its threshold share already split for the membership it
    // joins into.
    for site in sites.iter_mut() {
        site.rebudget(&BudgetShare::node(site_prev, next));
    }
    wal.inner.rebudget(&BudgetShare::node(root_prev, next));

    // Drain the retiring nodes completely (conservation: everything
    // held ends up in exactly one new home).
    let mut migrated: Vec<(SiteId, S::UpMsg)> = Vec::new();
    for agg in &mut old_aggs {
        agg.split_for_migration(&mut migrated);
    }
    report.migrated_msgs += migrated.len() as u64;
    if new_plan.is_flat() {
        let mut bcasts = Vec::new();
        for (origin, msg) in migrated {
            wal.receive(origin, msg, &mut bcasts);
            for b in bcasts.drain(..) {
                report.migration_broadcasts += 1;
                for a in &mut new_aggs {
                    a.on_broadcast(&b);
                }
                for s in sites.iter_mut() {
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
    new_aggs
}

/// Drives pre-partitioned per-site streams through the pooled engine in
/// segments under a churn schedule, with optional snapshot/recovery
/// (module docs for the protocol).
///
/// # Panics
/// As [`engine::resume_partitioned_topology_parts`], plus if
/// `churn_cfg.segment_len == 0`, if `crash_at` is set without a
/// `snapshot_at ≤ crash_at`, or on a schedule that joins an active /
/// leaves an inactive slot.
#[allow(clippy::too_many_arguments)]
pub fn run_churn_partitioned_topology_parts<S, C, A, FF, F>(
    sites: Vec<S>,
    coordinator: C,
    inputs: Vec<Vec<S::Input>>,
    cfg: &ThreadedConfig,
    executor: Executor,
    topology: Topology,
    factory: FF,
    churn_cfg: &ChurnConfig,
) -> ChurnRunParts<S, C, A>
where
    S: ChurnSite + Send,
    S::Input: Send,
    S::UpMsg: MessageCost + Clone + Send,
    S::Broadcast: Clone + WireSized + Send,
    C: ChurnCoordinator<UpMsg = S::UpMsg, Broadcast = S::Broadcast> + WireCodec,
    A: MigratableAggregator<UpMsg = S::UpMsg, Broadcast = S::Broadcast>
        + ChurnBudget
        + WireCodec
        + Send,
    FF: FnMut(Topology) -> F,
    F: FnMut(AggNode) -> A,
{
    run_churn_partitioned_topology_parts_on(
        sites,
        coordinator,
        inputs,
        cfg,
        executor,
        topology,
        factory,
        churn_cfg,
        &ChannelTransport,
    )
}

/// [`run_churn_partitioned_topology_parts`] over an explicit
/// [`Transport`] — bit-exact with the plain entry point under
/// [`ChannelTransport`]. Departure flushes, migration and WAL replay
/// bypass the transport (they model control-plane traffic, not the
/// protocol's data plane), so a faulty [`crate::SimNet`] never drops a
/// departing site's final flush.
///
/// # Panics
/// As [`run_churn_partitioned_topology_parts`].
#[allow(clippy::too_many_arguments)]
pub fn run_churn_partitioned_topology_parts_on<S, C, A, FF, F>(
    sites: Vec<S>,
    coordinator: C,
    inputs: Vec<Vec<S::Input>>,
    cfg: &ThreadedConfig,
    executor: Executor,
    topology: Topology,
    mut factory: FF,
    churn_cfg: &ChurnConfig,
    net: &dyn Transport,
) -> ChurnRunParts<S, C, A>
where
    S: ChurnSite + Send,
    S::Input: Send,
    S::UpMsg: MessageCost + Clone + Send,
    S::Broadcast: Clone + WireSized + Send,
    C: ChurnCoordinator<UpMsg = S::UpMsg, Broadcast = S::Broadcast> + WireCodec,
    A: MigratableAggregator<UpMsg = S::UpMsg, Broadcast = S::Broadcast>
        + ChurnBudget
        + WireCodec
        + Send,
    FF: FnMut(Topology) -> F,
    F: FnMut(AggNode) -> A,
{
    assert!(
        churn_cfg.segment_len >= 1,
        "churn: segment_len must be positive"
    );
    assert_eq!(
        inputs.len(),
        sites.len(),
        "churn: one input stream per site"
    );
    if let Some(crash) = churn_cfg.crash_at {
        let snap = churn_cfg
            .snapshot_at
            .expect("churn: crash_at requires snapshot_at");
        assert!(snap <= crash, "churn: snapshot must precede the crash");
    }
    let m = sites.len();

    let base_topology = topology.resolve_structural(m);
    let mut report = ChurnReport {
        segments: 0,
        joins: 0,
        leaves: 0,
        resplits: 0,
        replans: 0,
        migrated_msgs: 0,
        migration_broadcasts: 0,
        departed_msgs: 0,
        departed_mass: 0.0,
        departure_broadcasts: 0,
        unfed_inputs: 0,
        snapshot_bytes: None,
        recovery_lost_mass: 0.0,
        replayed_msgs: 0,
        replay_broadcasts: 0,
        final_topology: base_topology,
    };
    if m == 0 {
        return ChurnRunParts {
            sites,
            aggregators: Vec::new(),
            coordinator,
            stats: CommStats::default(),
            engine: EngineStats::default(),
            report,
            snapshot: None,
        };
    }

    let mut active = churn_cfg.schedule.initial_activity(m);
    // What the caller's deploy budgeted sites + coordinator for: the
    // structural plan over all M slots.
    let mut current_topology = base_topology;
    let mut current_plan = current_topology.plan(m);
    let mut cur_mem = membership_of(&current_plan, m);

    let mut sites = sites;
    let mut aggs: Vec<A> = current_plan
        .agg_nodes()
        .map(&mut factory(current_topology))
        .collect();
    let mut wal = WalCoordinator::new(coordinator);

    // Per-slot feeds: an inactive slot's stream is paused, not dropped
    // (whatever is never fed is counted in `unfed_inputs`).
    let mut feeds: Vec<std::vec::IntoIter<S::Input>> =
        inputs.into_iter().map(Vec::into_iter).collect();

    let mut acc = CommStats::new(m);
    let mut engine_stats = EngineStats::default();
    let mut sidecar: Option<(Snapshot, Topology, Membership)> = None;
    let mut snapshot_out: Option<Snapshot> = None;

    // Slots inactive from the start need a boundary-0 re-split.
    let mut membership_dirty = active.iter().any(|a| !a);
    let mut last_seg_broadcasts: u64 = 0;
    let mut boundary = 0usize;

    loop {
        // (1) Membership events at this boundary, in schedule order.
        let mut departure_bcasts_here = 0u64;
        for event in churn_cfg.schedule.events_at(boundary) {
            match event {
                ChurnEvent::Join(s) => {
                    assert!(s < m, "churn: join of unknown slot {s}");
                    assert!(!active[s], "churn: join of already-active slot {s}");
                    active[s] = true;
                    report.joins += 1;
                    // Start from live threshold state, not the default.
                    if let Some(b) = wal.inner.current_broadcast() {
                        sites[s].on_broadcast(&b);
                    }
                    membership_dirty = true;
                }
                ChurnEvent::Leave(s) => {
                    assert!(s < m, "churn: leave of unknown slot {s}");
                    assert!(active[s], "churn: leave of inactive slot {s}");
                    active[s] = false;
                    report.leaves += 1;
                    let mut final_flush: Vec<S::UpMsg> = Vec::new();
                    sites[s].depart(&mut final_flush);
                    report.departed_msgs += final_flush.len() as u64;
                    // Delivered straight to the root, outside the
                    // transport: the withheld mass re-enters the
                    // certified bound, never the fault ledger.
                    let mut bcasts = Vec::new();
                    for msg in final_flush {
                        report.departed_mass += msg.mass();
                        wal.receive(s, msg, &mut bcasts);
                        for b in bcasts.drain(..) {
                            report.departure_broadcasts += 1;
                            departure_bcasts_here += 1;
                            for a in &mut aggs {
                                a.on_broadcast(&b);
                            }
                            for site in &mut sites {
                                site.on_broadcast(&b);
                            }
                        }
                    }
                    membership_dirty = true;
                }
            }
        }

        // (2) Snapshot: flush the interior fully into the root first so
        // snapshot + WAL suffix is exact (nothing in flight below the
        // root at capture time), then capture and arm the WAL.
        if churn_cfg.snapshot_at == Some(boundary) {
            let mut drained: Vec<(SiteId, S::UpMsg)> = Vec::new();
            for a in &mut aggs {
                a.split_for_migration(&mut drained);
            }
            report.migrated_msgs += drained.len() as u64;
            let mut bcasts = Vec::new();
            for (origin, msg) in drained {
                wal.receive(origin, msg, &mut bcasts);
                for b in bcasts.drain(..) {
                    report.migration_broadcasts += 1;
                    for a in &mut aggs {
                        a.on_broadcast(&b);
                    }
                    for site in &mut sites {
                        site.on_broadcast(&b);
                    }
                }
            }
            let snap = Snapshot::capture(&wal.inner, &aggs);
            report.snapshot_bytes = Some(snap.len() as u64);
            sidecar = Some((snap.clone(), current_topology, cur_mem));
            snapshot_out = Some(snap);
            wal.arm();
        }

        if churn_cfg.crash_at == Some(boundary) {
            // (3) Crash + recovery. The live root complex dies: the
            // mass its interior nodes held since the snapshot is
            // measured into the recovery ledger, then discarded.
            let (snap, snap_topology, snap_mem) = sidecar
                .clone()
                .expect("churn: crash boundary reached without a snapshot");
            let mut lost: Vec<(SiteId, S::UpMsg)> = Vec::new();
            for a in &mut aggs {
                a.split_for_migration(&mut lost);
            }
            report.recovery_lost_mass += lost.iter().map(|(_, msg)| msg.mass()).sum::<f64>();
            drop(lost);

            let (restored, restored_aggs): (C, Vec<A>) =
                snap.restore().expect("churn: snapshot failed to restore");
            current_topology = snap_topology;
            aggs = restored_aggs; // mass-empty: drained at capture

            // Replay the WAL suffix. Broadcasts provoked by the replay
            // reach the restored interior nodes only — the sites
            // already heard this sequence live.
            let log = wal.take_log();
            let mut inner = restored;
            let mut bcasts = Vec::new();
            for (from, msg) in log {
                report.replayed_msgs += 1;
                inner.receive(from, msg, &mut bcasts);
                for b in bcasts.drain(..) {
                    report.replay_broadcasts += 1;
                    for a in &mut aggs {
                        a.on_broadcast(&b);
                    }
                }
            }
            wal = WalCoordinator::new(inner); // disarmed: recovery done

            // Reconcile: the restored root believes the snapshot-time
            // membership, the surviving sites the current one — one
            // ungated re-split resolves both.
            let n_active = active.iter().filter(|a| **a).count();
            let new_topology = topology.resolve_structural(n_active);
            let new_plan = new_topology.plan(m);
            let next = membership_of(&new_plan, n_active);
            let mut make = factory(new_topology);
            let old = std::mem::take(&mut aggs);
            aggs = resplit(
                &mut sites,
                &active,
                &mut wal,
                old,
                &new_plan,
                &mut make,
                cur_mem,
                snap_mem,
                next,
                &mut report,
            );
            if new_topology != current_topology {
                report.replans += 1;
            }
            current_topology = new_topology;
            current_plan = new_plan;
            cur_mem = next;
            report.resplits += 1;
            report.final_topology = current_topology;
            membership_dirty = false;
        } else if membership_dirty
            && (boundary == 0
                || last_seg_broadcasts > 0
                || departure_bcasts_here > 0
                || churn_cfg.resplit_quiet_boundaries)
        {
            // (4) Settled-boundary re-split over the new membership.
            let n_active = active.iter().filter(|a| **a).count();
            let new_topology = topology.resolve_structural(n_active);
            let new_plan = new_topology.plan(m);
            let next = membership_of(&new_plan, n_active);
            let mut make = factory(new_topology);
            let old = std::mem::take(&mut aggs);
            aggs = resplit(
                &mut sites,
                &active,
                &mut wal,
                old,
                &new_plan,
                &mut make,
                cur_mem,
                cur_mem,
                next,
                &mut report,
            );
            if new_topology != current_topology {
                report.replans += 1;
            }
            current_topology = new_topology;
            current_plan = new_plan;
            cur_mem = next;
            report.resplits += 1;
            report.final_topology = current_topology;
            membership_dirty = false;
        }

        // (5) Terminate once no boundary event is still ahead and every
        // active slot's feed is dry.
        let future_boundary = churn_cfg.schedule.events.iter().any(|&(b, _)| b > boundary)
            || churn_cfg.snapshot_at.is_some_and(|b| b > boundary)
            || churn_cfg.crash_at.is_some_and(|b| b > boundary);
        let input_left = (0..m).any(|s| active[s] && feeds[s].len() > 0);
        if !future_boundary && !input_left {
            break;
        }

        // (6) Drive one segment; inactive slots are fed nothing.
        let seg_inputs: Vec<Vec<S::Input>> = feeds
            .iter_mut()
            .enumerate()
            .map(|(s, feed)| {
                if active[s] {
                    feed.by_ref().take(churn_cfg.segment_len).collect()
                } else {
                    Vec::new()
                }
            })
            .collect();
        let parts = engine::resume_partitioned_topology_parts_on(
            sites,
            wal,
            seg_inputs,
            cfg,
            executor,
            current_plan.clone(),
            aggs,
            net,
        );
        sites = parts.sites;
        wal = parts.coordinator;
        aggs = parts.aggregators;
        last_seg_broadcasts = parts.stats.broadcast_events;
        acc.absorb_reshaped(&parts.stats);
        engine_stats.absorb(&parts.engine);
        report.segments += 1;
        boundary += 1;
    }

    report.unfed_inputs = feeds.iter().map(ExactSizeIterator::len).sum();
    ChurnRunParts {
        sites,
        aggregators: aggs,
        coordinator: wal.into_inner(),
        stats: acc,
        engine: engine_stats,
        report,
        snapshot: snapshot_out,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::aggregator::RelayFilter;
    use crate::wire::{put_f64, put_u64, WireReader};

    /// Leaf that forwards every input and holds a running local count.
    struct EchoSite {
        held: u64,
        broadcasts: u64,
        share: f64,
    }

    impl crate::Site for EchoSite {
        type Input = u64;
        type UpMsg = Ping;
        type Broadcast = u64;

        fn observe(&mut self, input: u64, out: &mut Vec<Ping>) {
            self.held += input;
            out.push(Ping(input));
        }

        fn on_broadcast(&mut self, _b: &u64) {
            self.broadcasts += 1;
        }
    }

    impl ChurnBudget for EchoSite {
        fn rebudget(&mut self, share: &BudgetShare) {
            self.share *= share.prev.nodes() as f64 / share.next.nodes() as f64;
        }
    }

    impl ChurnSite for EchoSite {
        fn depart(&mut self, out: &mut Vec<Ping>) {
            if self.held > 0 {
                out.push(Ping(self.held));
                self.held = 0;
            }
        }
    }

    #[derive(Debug, Clone, PartialEq, Eq)]
    struct Ping(u64);

    impl MessageCost for Ping {
        fn cost(&self) -> u64 {
            1
        }
        fn mass(&self) -> f64 {
            self.0 as f64
        }
    }

    impl WireCodec for Ping {
        fn encode(&self, out: &mut Vec<u8>) {
            put_u64(out, self.0);
        }
        fn decode(r: &mut WireReader<'_>) -> Option<Self> {
            r.u64().map(Ping)
        }
    }

    struct CountCoord {
        received: u64,
        sum: u64,
        every: u64,
        share: f64,
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

    impl ChurnBudget for CountCoord {
        fn rebudget(&mut self, share: &BudgetShare) {
            self.share *= share.prev.nodes() as f64 / share.next.nodes() as f64;
        }
    }

    impl ChurnCoordinator for CountCoord {
        fn current_broadcast(&self) -> Option<u64> {
            if self.received > 0 {
                Some(self.received)
            } else {
                None
            }
        }
    }

    impl WireCodec for CountCoord {
        fn encode(&self, out: &mut Vec<u8>) {
            put_u64(out, self.received);
            put_u64(out, self.sum);
            put_u64(out, self.every);
            put_f64(out, self.share);
        }
        fn decode(r: &mut WireReader<'_>) -> Option<Self> {
            Some(CountCoord {
                received: r.u64()?,
                sum: r.u64()?,
                every: r.u64()?,
                share: r.f64()?,
            })
        }
    }

    /// Pass-through filter so the relay is codec-able.
    #[derive(Debug, Default, Clone)]
    struct PassFilter;

    impl RelayFilter for PassFilter {
        type UpMsg = Ping;
        type Broadcast = u64;
        fn admit(&mut self, _msg: &Ping) -> bool {
            true
        }
    }

    impl WireCodec for PassFilter {
        fn encode(&self, _out: &mut Vec<u8>) {}
        fn decode(_r: &mut WireReader<'_>) -> Option<Self> {
            Some(PassFilter)
        }
    }

    type EchoRelay = crate::FilteredRelay<PassFilter>;

    fn echo_sites(m: usize) -> Vec<EchoSite> {
        (0..m)
            .map(|_| EchoSite {
                held: 0,
                broadcasts: 0,
                share: 1.0,
            })
            .collect()
    }

    fn echo_inputs(m: usize, per_site: usize) -> Vec<Vec<u64>> {
        (0..m)
            .map(|s| (0..per_site as u64).map(|i| s as u64 * 1000 + i).collect())
            .collect()
    }

    fn drive(
        m: usize,
        per_site: usize,
        topology: Topology,
        churn_cfg: &ChurnConfig,
    ) -> ChurnRunParts<EchoSite, CountCoord, EchoRelay> {
        let cfg = ThreadedConfig {
            batch_size: 4,
            channel_capacity: 2,
            plane: Default::default(),
        };
        run_churn_partitioned_topology_parts(
            echo_sites(m),
            CountCoord {
                received: 0,
                sum: 0,
                every: 8,
                share: 1.0,
            },
            echo_inputs(m, per_site),
            &cfg,
            Executor::Pool { workers: 2 },
            topology,
            |_topology| |_node: AggNode| EchoRelay::new(PassFilter),
            churn_cfg,
        )
    }

    /// Zero churn, zero snapshot: plain segmented execution — no
    /// re-splits, every message delivered exactly once.
    #[test]
    fn zero_churn_is_plain_segmented_execution() {
        let parts = drive(
            8,
            50,
            Topology::Tree { fanout: 2 },
            &ChurnConfig {
                segment_len: 16,
                ..ChurnConfig::default()
            },
        );
        assert_eq!(parts.report.resplits, 0);
        assert_eq!(parts.report.segments, 4);
        assert_eq!(parts.report.unfed_inputs, 0);
        assert_eq!(parts.coordinator.received, 8 * 50);
        assert_eq!(parts.stats.up_msgs, 8 * 50);
        assert!(parts.snapshot.is_none());
    }

    /// A leave flushes the departing site's held state to the root and
    /// the remaining slots get the departed slot's unfed inputs counted.
    #[test]
    fn leave_flushes_and_pauses_feed() {
        let sched = ChurnSchedule::new().at(2, ChurnEvent::Leave(1));
        let parts = drive(
            4,
            40,
            Topology::Star,
            &ChurnConfig {
                segment_len: 10,
                schedule: sched,
                resplit_quiet_boundaries: true,
                ..ChurnConfig::default()
            },
        );
        assert_eq!(parts.report.leaves, 1);
        assert_eq!(parts.report.departed_msgs, 1);
        // Site 1 fed two segments of 10 before leaving. Each echo site
        // both forwards its inputs and accumulates them locally, so the
        // root's sum is every fed echo plus the departing site's held
        // accumulator flushed on top.
        let all: u64 = (0..4u64)
            .flat_map(|s| (0..40u64).map(move |i| s * 1000 + i))
            .sum();
        let unfed: u64 = (20..40u64).map(|i| 1000 + i).sum();
        let held: u64 = (0..20u64).map(|i| 1000 + i).sum();
        assert_eq!(parts.coordinator.sum, all - unfed + held);
        assert_eq!(parts.report.unfed_inputs, 20);
        assert!(parts.report.departed_mass > 0.0);
        assert!(parts.report.resplits >= 1);
    }

    /// A joining slot is quiet before its boundary and consumes its full
    /// feed afterwards, starting from the coordinator's live broadcast.
    #[test]
    fn join_starts_from_current_broadcast() {
        let sched = ChurnSchedule::new().at(2, ChurnEvent::Join(3));
        let parts = drive(
            4,
            30,
            Topology::Star,
            &ChurnConfig {
                segment_len: 10,
                schedule: sched,
                resplit_quiet_boundaries: true,
                ..ChurnConfig::default()
            },
        );
        assert_eq!(parts.report.joins, 1);
        // Everything is eventually fed: the joiner starts late but its
        // feed runs to exhaustion.
        assert_eq!(parts.report.unfed_inputs, 0);
        assert_eq!(parts.coordinator.received, 4 * 30);
        // It heard the live broadcast state at join time.
        assert!(parts.sites[3].broadcasts > 0);
        // Budget was re-split at least twice (boundary 0: slot 3
        // inactive; join boundary: slot 3 back).
        assert!(parts.report.resplits >= 2);
        assert!((parts.sites[0].share - 1.0).abs() < 1e-12);
    }

    /// Snapshot + crash: the WAL suffix replays the restored root to
    /// exactly the live state when nothing was lost below the root.
    #[test]
    fn crash_recovery_replays_to_live_state() {
        let parts = drive(
            4,
            40,
            Topology::Star,
            &ChurnConfig {
                segment_len: 10,
                snapshot_at: Some(2),
                crash_at: Some(3),
                ..ChurnConfig::default()
            },
        );
        let snap = parts.snapshot.expect("snapshot taken");
        assert_eq!(parts.report.snapshot_bytes, Some(snap.len() as u64));
        // Star: no interior nodes, so the crash loses nothing and the
        // replayed root ends bit-identical to a run without the crash.
        assert_eq!(parts.report.recovery_lost_mass, 0.0);
        assert_eq!(parts.report.replayed_msgs, 40); // segment 3's messages
        assert_eq!(parts.coordinator.received, 4 * 40);
        let expected: u64 = (0..4u64)
            .flat_map(|s| (0..40u64).map(move |i| s * 1000 + i))
            .sum();
        assert_eq!(parts.coordinator.sum, expected);
    }

    /// Crash under a tree: in-flight interior mass since the snapshot is
    /// measured as recovery loss, and total accounting closes (delivered
    /// + lost = observed).
    #[test]
    fn tree_crash_measures_recovery_loss() {
        let parts = drive(
            8,
            40,
            Topology::Tree { fanout: 2 },
            &ChurnConfig {
                segment_len: 10,
                snapshot_at: Some(2),
                crash_at: Some(4),
                ..ChurnConfig::default()
            },
        );
        let total: u64 = (0..8u64)
            .flat_map(|s| (0..40u64).map(move |i| s * 1000 + i))
            .sum();
        // Nothing is ever double-counted: what the root holds plus what
        // the crash discarded equals everything observed.
        let recovered = parts.coordinator.sum as f64 + parts.report.recovery_lost_mass;
        assert_eq!(recovered, total as f64);
    }

    #[test]
    fn empty_deployment_is_a_no_op() {
        let parts: ChurnRunParts<EchoSite, CountCoord, EchoRelay> =
            run_churn_partitioned_topology_parts(
                Vec::new(),
                CountCoord {
                    received: 0,
                    sum: 0,
                    every: 8,
                    share: 1.0,
                },
                Vec::new(),
                &ThreadedConfig::default(),
                Executor::Pool { workers: 2 },
                Topology::Star,
                |_topology| |_node: AggNode| EchoRelay::new(PassFilter),
                &ChurnConfig::default(),
            );
        assert_eq!(parts.report.segments, 0);
        assert_eq!(parts.coordinator.received, 0);
    }

    /// The WAL wrapper is pure delegation while disarmed.
    #[test]
    fn wal_logs_only_when_armed() {
        let mut wal = WalCoordinator::new(CountCoord {
            received: 0,
            sum: 0,
            every: 100,
            share: 1.0,
        });
        let mut out = Vec::new();
        wal.receive(0, Ping(5), &mut out);
        assert_eq!(wal.log_len(), 0);
        wal.arm();
        wal.receive(1, Ping(7), &mut out);
        assert_eq!(wal.log_len(), 1);
        assert_eq!(wal.inner().sum, 12);
        let log = wal.take_log();
        assert_eq!(log, vec![(1, Ping(7))]);
    }
}
