//! The segmented driver: measured re-planning, membership churn and
//! coordinator snapshot/recovery over the execution engine.
//!
//! The stream is driven through [`engine`] in **segments** of
//! [`ChurnConfig::segment_len`] arrivals per site; sites, interior
//! nodes and the coordinator stay alive between segments
//! ([`engine::resume_partitioned_topology_parts_on`]). Everything this
//! driver adds to a plain engine run happens at the **boundaries**
//! between segments — the concerns the paper's fixed-`m`, fixed-shape
//! model leaves open:
//!
//! * **Re-planning** — a [`Topology::Adaptive`] deployment re-resolves
//!   its shape from the last segment's *measured* fan-in
//!   ([`Topology::resolve_with`]) and migrates to it while running.
//!   Static topologies resolve to themselves, so driving them through
//!   this module is exactly segmented execution.
//! * **Churn** — a [`ChurnSchedule`] pins [`ChurnEvent::Join`] /
//!   [`ChurnEvent::Leave`] events to segment boundaries. The structural
//!   site universe stays fixed (all `M` slots exist for the whole run,
//!   preserving `SiteId` stability and [`CommStats`] shape); churn
//!   toggles each slot's *activity*. A leaving site's withheld summary
//!   completes its climb in one hop ([`ChurnSite::depart`] → the
//!   coordinator, outside the transport: never dropped, never charged
//!   to `CommStats`/`FaultStats` — so the churn ledger and the fault
//!   ledger compose without double-charging by construction). A joining
//!   site starts from [`ChurnCoordinator::current_broadcast`].
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
//! # The boundary rule
//!
//! A boundary is **settled** when threshold state has just been
//! refreshed everywhere: a `Ŵ` re-broadcast happened (in the last
//! segment or provoked by a departure flush), it is boundary 0, or
//! [`ChurnConfig::resplit_quiet_boundaries`] is set. At a settled
//! boundary the driver computes **one** target shape — from the active
//! site count alone ([`Topology::resolve_structural`]) before any
//! segment has run, from the active count and the *last segment's*
//! stats ([`Topology::resolve_with`]) afterwards; the last segment's,
//! not the run's, because a cumulative `active_leaves` can only grow
//! and a tree could then never collapse — and **re-splits** when
//! membership changed since the last re-split *or* the target differs
//! from the running shape. Until the re-split lands, surviving nodes
//! keep their old (smaller-share, strictly conservative) thresholds. A
//! crash always re-splits immediately, to the same target: the restored
//! root believes the snapshot-time membership and must be reconciled
//! before the next segment.
//!
//! One re-split re-budgets the ε split over the new `m' + I`
//! withholding nodes — every site slot, every interior node (built
//! afresh through the protocol's factory for the target plan) and the
//! root has [`ChurnBudget::rebudget`] invoked exactly once, from the
//! membership its threshold was last split for — and moves all held
//! interior state into the target plan under the
//! [`MigratableAggregator`] contract: nothing lost, nothing
//! double-counted (pinned by the `live_replan` and `churn_recovery`
//! integration suites).
//!
//! # The idle machinery is invisible
//!
//! With a static topology, an empty schedule and no snapshot/crash
//! boundaries, a run is **bit-identical** to a bare loop of
//! [`engine::resume_partitioned_topology_parts_on`] segments: the WAL
//! wrapper is pure delegation while disarmed and no re-split ever
//! fires (`churn_recovery::zero_churn_matches_live_driver_bit_exactly`).

use super::engine::{self, EngineStats, Executor, ThreadedConfig};
use crate::aggregator::MigratableAggregator;
use crate::churn::{
    BudgetShare, ChurnBudget, ChurnCoordinator, ChurnEvent, ChurnSchedule, ChurnSite, Membership,
};
use crate::comm::{CommStats, MessageCost};
use crate::coordinator::Coordinator;
use crate::snapshot::Snapshot;
use crate::topology::{AggNode, Topology, TopologyPlan};
use crate::transport::Transport;
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

/// Tuning + schedule for the segmented driver. The default — empty
/// schedule, no snapshot, no crash — is plain segmented execution.
#[derive(Debug, Clone)]
pub struct ChurnConfig {
    /// Arrivals fed per active site per segment (the granularity of
    /// every boundary decision). Must be ≥ 1.
    pub segment_len: usize,
    /// Treat boundaries where no `Ŵ` re-broadcast happened as settled
    /// too (module docs), so re-plans and re-splits fire there as well —
    /// for tests driving quiet streams. Default `false`.
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

/// What the segmented driver did, alongside the protocol's stats.
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
    /// Re-splits that also changed the plan shape (every measured
    /// re-plan of an [`Topology::Adaptive`] deployment is one).
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

/// Everything a segmented run returns.
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
        report.migration_broadcasts += deliver_to_root(wal, migrated, &mut new_aggs, sites);
    } else {
        for (origin, msg) in migrated {
            let (parent, _) = new_plan.parent_of(0, origin);
            new_aggs[parent].absorb_migrated(origin, msg);
        }
    }
    new_aggs
}

/// Delivers `msgs` straight to the root, outside the transport, and
/// fans every broadcast they provoke out to `aggs` and `sites`; returns
/// how many broadcasts that was. Departure flushes, the pre-snapshot
/// drain and a migration into a flat plan reach every node; a WAL
/// replay passes no sites — they already heard its broadcasts live.
fn deliver_to_root<R, A, S>(
    root: &mut R,
    msgs: impl IntoIterator<Item = (SiteId, R::UpMsg)>,
    aggs: &mut [A],
    sites: &mut [S],
) -> u64
where
    R: Coordinator,
    A: MigratableAggregator<Broadcast = R::Broadcast>,
    S: ChurnSite<Broadcast = R::Broadcast>,
{
    let mut bcasts = Vec::new();
    let mut count = 0;
    for (from, msg) in msgs {
        root.receive(from, msg, &mut bcasts);
        for b in bcasts.drain(..) {
            count += 1;
            for a in aggs.iter_mut() {
                a.on_broadcast(&b);
            }
            for site in sites.iter_mut() {
                site.on_broadcast(&b);
            }
        }
    }
    count
}

/// Rejects a malformed schedule before any input is fed: every event
/// must name one of the `m` slots, and each slot's joins and leaves
/// must alternate, starting from [`ChurnSchedule::initial_activity`].
fn check_schedule(schedule: &ChurnSchedule, m: usize) {
    // The order the driver applies events in: by boundary, ties in
    // schedule order (the sort is stable).
    let mut events = schedule.events.clone();
    events.sort_by_key(|&(boundary, _)| boundary);
    let mut active = schedule.initial_activity(m);
    for (_, event) in events {
        match event {
            ChurnEvent::Join(s) => {
                assert!(s < m, "churn: join of unknown slot {s}");
                assert!(!active[s], "churn: join of already-active slot {s}");
                active[s] = true;
            }
            ChurnEvent::Leave(s) => {
                assert!(s < m, "churn: leave of unknown slot {s}");
                assert!(active[s], "churn: leave of inactive slot {s}");
                active[s] = false;
            }
        }
    }
}

/// Drives pre-partitioned per-site streams through the pooled engine in
/// segments — re-planning an [`Topology::Adaptive`] deployment from
/// measured fan-in, applying a churn schedule, and optionally
/// snapshotting and recovering the root (module docs for the boundary
/// rule) — over an explicit [`Transport`]: pass
/// [`crate::ChannelTransport`] for the bit-exact default plane.
/// Departure flushes, migration and WAL replay bypass the transport
/// (they model control-plane traffic, not the protocol's data plane),
/// so a faulty [`crate::SimNet`] never drops a departing site's final
/// flush; each segment applies the same fault plan over freshly seeded
/// links, so the fault schedule stays a pure function of the seed and
/// the plan shapes the run visits.
///
/// `factory` builds a fresh aggregator-factory for a *concrete*
/// topology — protocols wrap their `make_aggregator(cfg, topology)`
/// here, which is what splits hold budgets over the target plan's
/// interior on a re-split.
///
/// # Panics
/// As [`engine::resume_partitioned_topology_parts_on`], plus if
/// `churn_cfg.segment_len == 0`, if `crash_at` is set without a
/// `snapshot_at ≤ crash_at`, or — before any input is fed — on a
/// schedule that names a slot `≥ m`, joins an active slot or leaves an
/// inactive one.
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
    check_schedule(&churn_cfg.schedule, m);

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
    // The last segment's own stats: what the next boundary's re-plan
    // decision is measured on.
    let mut last_seg: Option<CommStats> = None;
    let mut boundary = 0usize;

    loop {
        // (1) Membership events at this boundary, in schedule order.
        let mut departure_bcasts_here = 0u64;
        for event in churn_cfg.schedule.events_at(boundary) {
            match event {
                ChurnEvent::Join(s) => {
                    active[s] = true;
                    report.joins += 1;
                    // Start from live threshold state, not the default.
                    if let Some(b) = wal.inner.current_broadcast() {
                        sites[s].on_broadcast(&b);
                    }
                    membership_dirty = true;
                }
                ChurnEvent::Leave(s) => {
                    active[s] = false;
                    report.leaves += 1;
                    let mut final_flush: Vec<S::UpMsg> = Vec::new();
                    sites[s].depart(&mut final_flush);
                    report.departed_msgs += final_flush.len() as u64;
                    for msg in &final_flush {
                        report.departed_mass += msg.mass();
                    }
                    // The withheld mass re-enters the certified bound,
                    // never the fault ledger.
                    let flush = final_flush.into_iter().map(|msg| (s, msg));
                    let bcasts = deliver_to_root(&mut wal, flush, &mut aggs, &mut sites);
                    report.departure_broadcasts += bcasts;
                    departure_bcasts_here += bcasts;
                    membership_dirty = true;
                }
            }
        }

        // (2) Snapshot: flush the interior fully into the root first so
        // snapshot + WAL suffix is exact (nothing in flight below the
        // root at capture time), settle the root so it is exactly what
        // the snapshot restores to, then capture and arm the WAL.
        if churn_cfg.snapshot_at == Some(boundary) {
            let mut drained: Vec<(SiteId, S::UpMsg)> = Vec::new();
            for a in &mut aggs {
                a.split_for_migration(&mut drained);
            }
            report.migrated_msgs += drained.len() as u64;
            report.migration_broadcasts +=
                deliver_to_root(&mut wal, drained, &mut aggs, &mut sites);
            wal.inner.settle_for_snapshot();
            let snap = Snapshot::capture(&wal.inner, &aggs);
            report.snapshot_bytes = Some(snap.len() as u64);
            sidecar = Some((snap.clone(), current_topology, cur_mem));
            snapshot_out = Some(snap);
            wal.arm();
        }

        // (3) Crash + recovery. The live root complex dies: the mass
        // its interior nodes held since the snapshot is measured into
        // the recovery ledger, then discarded.
        let crashed = churn_cfg.crash_at == Some(boundary);
        // The membership the root's threshold was last split for.
        let mut root_mem = cur_mem;
        if crashed {
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
            root_mem = snap_mem;
            aggs = restored_aggs; // mass-empty: drained at capture

            // Replay the WAL suffix. Broadcasts provoked by the replay
            // reach the restored interior nodes only — the sites
            // already heard this sequence live.
            let log = wal.take_log();
            report.replayed_msgs += log.len() as u64;
            let mut inner = restored;
            let no_sites: &mut [S] = &mut [];
            report.replay_broadcasts += deliver_to_root(&mut inner, log, &mut aggs, no_sites);
            wal = WalCoordinator::new(inner); // disarmed: recovery done
        }

        // (4) The boundary rule (module docs): one target shape per
        // settled boundary; re-split when membership moved or the
        // target is not the running shape. A crash is never gated — the
        // restored root believes the snapshot-time membership, the
        // surviving sites the current one, and one re-split resolves
        // both.
        let settled = boundary == 0
            || last_seg.as_ref().is_some_and(|s| s.broadcast_events > 0)
            || departure_bcasts_here > 0
            || churn_cfg.resplit_quiet_boundaries;
        if crashed || settled {
            let n_active = active.iter().filter(|a| **a).count();
            let target = match &last_seg {
                Some(seg) => topology.resolve_with(n_active.max(1), seg),
                None => topology.resolve_structural(n_active),
            };
            if crashed || membership_dirty || target != current_topology {
                let new_plan = target.plan(m);
                let next = membership_of(&new_plan, n_active);
                aggs = resplit(
                    &mut sites,
                    &active,
                    &mut wal,
                    std::mem::take(&mut aggs),
                    &new_plan,
                    &mut factory(target),
                    cur_mem,
                    root_mem,
                    next,
                    &mut report,
                );
                if target != current_topology {
                    report.replans += 1;
                }
                current_topology = target;
                current_plan = new_plan;
                cur_mem = next;
                report.resplits += 1;
                report.final_topology = current_topology;
                membership_dirty = false;
            }
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
        acc.absorb_reshaped(&parts.stats);
        engine_stats.absorb(&parts.engine);
        last_seg = Some(parts.stats);
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
    use crate::transport::ChannelTransport;
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

    fn tcfg() -> ThreadedConfig {
        ThreadedConfig {
            batch_size: 4,
            channel_capacity: 2,
            plane: Default::default(),
        }
    }

    /// A fresh root that re-broadcasts every `every` messages.
    fn count_coord(every: u64) -> CountCoord {
        CountCoord {
            received: 0,
            sum: 0,
            every,
            share: 1.0,
        }
    }

    /// Echo sites over explicit per-site inputs, on a two-worker pool.
    fn drive_inputs(
        inputs: Vec<Vec<u64>>,
        topology: Topology,
        churn_cfg: &ChurnConfig,
    ) -> ChurnRunParts<EchoSite, CountCoord, EchoRelay> {
        run_churn_partitioned_topology_parts_on(
            echo_sites(inputs.len()),
            count_coord(8),
            inputs,
            &tcfg(),
            Executor::Pool { workers: 2 },
            topology,
            |_topology| |_node: AggNode| EchoRelay::new(PassFilter),
            churn_cfg,
            &ChannelTransport,
        )
    }

    fn drive(
        m: usize,
        per_site: usize,
        topology: Topology,
        churn_cfg: &ChurnConfig,
    ) -> ChurnRunParts<EchoSite, CountCoord, EchoRelay> {
        drive_inputs(echo_inputs(m, per_site), topology, churn_cfg)
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
        let parts = drive_inputs(Vec::new(), Topology::Star, &ChurnConfig::default());
        assert_eq!(parts.report.segments, 0);
        assert_eq!(parts.coordinator.received, 0);
    }

    /// Only the first `busy` of `m` sites ever speak (40 pings each):
    /// the measured fan-in that lets an adaptive tree collapse.
    fn concentrated_inputs(m: usize, busy: usize) -> Vec<Vec<u64>> {
        (0..m)
            .map(|s| {
                if s < busy {
                    (0..40u64).map(|i| s as u64 * 1000 + i).collect()
                } else {
                    Vec::new()
                }
            })
            .collect()
    }

    /// Adaptive deployment over a budget-exceeding site count starts as
    /// a tree; when measured fan-in drops within budget it collapses to
    /// the star mid-stream, with held state migrated, and every message
    /// still arrives exactly once.
    #[test]
    fn adaptive_collapses_to_star_and_conserves_messages() {
        // Only sites 0 and 1 ever speak: measured fan-in 2 ≤ budget 4.
        let parts = drive_inputs(
            concentrated_inputs(16, 2),
            Topology::Adaptive { max_fan_in: 4 },
            &ChurnConfig {
                segment_len: 10,
                resplit_quiet_boundaries: true,
                ..ChurnConfig::default()
            },
        );
        assert_eq!(parts.report.replans, 1, "tree should collapse to star");
        assert_eq!(parts.report.resplits, 1, "the re-plan is the one re-split");
        assert_eq!(parts.report.final_topology, Topology::Star);
        assert!(parts.aggregators.is_empty(), "star has no interior nodes");
        // Conservation: every one of the 80 pings reached the root.
        assert_eq!(parts.coordinator.received, 80);
        let expected: u64 = concentrated_inputs(16, 2).into_iter().flatten().sum();
        assert_eq!(parts.coordinator.sum, expected);
        // Sites and root were re-budgeted from the tree split (16 + 4
        // withholding nodes) to the flat one (16).
        assert!((parts.sites[0].share - 20.0 / 16.0).abs() < 1e-12);
        assert!((parts.coordinator.share - 20.0 / 16.0).abs() < 1e-12);
    }

    /// A re-plan must not lose sub-threshold partials held by retiring
    /// aggregators: a holding aggregator's state is drained by
    /// `split_for_migration` and re-homed, not dropped.
    #[test]
    fn migration_drains_holding_aggregators() {
        use std::sync::atomic::{AtomicU64, Ordering};
        static DRAINED: AtomicU64 = AtomicU64::new(0);

        /// Holds everything until migration (flush never emits).
        #[derive(Default)]
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

        impl ChurnBudget for Hoarder {}

        // Never snapshotted here; the driver only needs the bound.
        impl WireCodec for Hoarder {
            fn encode(&self, _out: &mut Vec<u8>) {}
            fn decode(_r: &mut WireReader<'_>) -> Option<Self> {
                Some(Hoarder::default())
            }
        }

        let m = 8;
        let parts = run_churn_partitioned_topology_parts_on(
            echo_sites(m),
            count_coord(1000), // quiet: no broadcasts
            // One chatty site: measured fan-in 1 ≤ budget 2 → collapse.
            concentrated_inputs(m, 1),
            &tcfg(),
            Executor::Pool { workers: 2 },
            Topology::Adaptive { max_fan_in: 2 },
            |_topology| |_node: AggNode| Hoarder::default(),
            &ChurnConfig {
                segment_len: 10,
                resplit_quiet_boundaries: true,
                ..ChurnConfig::default()
            },
            &ChannelTransport,
        );
        assert_eq!(parts.report.replans, 1);
        // Segment 1's ten pings were hoarded at level 1, drained by the
        // migration, and delivered to the coordinator by the collapse;
        // the other thirty went straight to the (now flat) root.
        assert_eq!(DRAINED.load(Ordering::Relaxed), 10);
        assert_eq!(parts.report.migrated_msgs, 10);
        assert_eq!(parts.coordinator.received, 40);
        assert_eq!(parts.coordinator.sum, (0..40u64).sum::<u64>());
    }

    /// Everyone leaves an adaptive deployment: the target shape is
    /// resolved for a clamped count of one site (`resolve_with` rejects
    /// zero), the tree collapses, and every departure flush lands.
    #[test]
    fn adaptive_resolves_when_everyone_has_left() {
        let m = 4;
        let schedule = (0..m).fold(ChurnSchedule::new(), |sched, s| {
            sched.at(1, ChurnEvent::Leave(s))
        });
        let parts = drive(
            m,
            20,
            Topology::Adaptive { max_fan_in: 2 },
            &ChurnConfig {
                segment_len: 10,
                schedule,
                resplit_quiet_boundaries: true,
                ..ChurnConfig::default()
            },
        );
        assert_eq!(parts.report.leaves, m);
        assert_eq!(parts.report.segments, 1);
        assert_eq!(parts.report.replans, 1);
        assert_eq!(parts.report.final_topology, Topology::Star);
        assert!(parts.aggregators.is_empty());
        assert_eq!(parts.report.unfed_inputs, m * 10);
        // Each site echoed its first segment, then flushed the same sum
        // once more on departure.
        let fed: u64 = (0..m as u64)
            .flat_map(|s| (0..10u64).map(move |i| s * 1000 + i))
            .sum();
        assert_eq!(parts.coordinator.sum, 2 * fed);
    }

    /// Leaf that must never be fed: a malformed schedule has to be
    /// rejected up front, not when its boundary is finally reached.
    struct TripwireSite;

    impl crate::Site for TripwireSite {
        type Input = u64;
        type UpMsg = Ping;
        type Broadcast = u64;

        fn observe(&mut self, _input: u64, _out: &mut Vec<Ping>) {
            panic!("input was fed before the schedule was checked");
        }

        fn on_broadcast(&mut self, _b: &u64) {}
    }

    impl ChurnBudget for TripwireSite {}

    impl ChurnSite for TripwireSite {
        fn depart(&mut self, _out: &mut Vec<Ping>) {}
    }

    fn drive_malformed(schedule: ChurnSchedule) {
        let m = 4;
        run_churn_partitioned_topology_parts_on(
            (0..m).map(|_| TripwireSite).collect(),
            count_coord(8),
            echo_inputs(m, 10),
            &tcfg(),
            Executor::Inline,
            Topology::Star,
            |_topology| |_node: AggNode| EchoRelay::new(PassFilter),
            &ChurnConfig {
                segment_len: 4,
                schedule,
                ..ChurnConfig::default()
            },
            &ChannelTransport,
        );
    }

    #[test]
    #[should_panic(expected = "unknown slot")]
    fn schedule_naming_a_slot_past_m_is_rejected_up_front() {
        drive_malformed(ChurnSchedule::new().at(2, ChurnEvent::Leave(4)));
    }

    #[test]
    #[should_panic(expected = "already-active")]
    fn schedule_joining_an_active_slot_is_rejected_up_front() {
        drive_malformed(
            ChurnSchedule::new()
                .at(2, ChurnEvent::Join(1))
                .at(3, ChurnEvent::Join(1)),
        );
    }

    #[test]
    #[should_panic(expected = "inactive slot")]
    fn schedule_leaving_an_inactive_slot_is_rejected_up_front() {
        drive_malformed(
            ChurnSchedule::new()
                .at(1, ChurnEvent::Leave(0))
                .at(2, ChurnEvent::Leave(0)),
        );
    }

    /// The WAL wrapper is pure delegation while disarmed.
    #[test]
    fn wal_logs_only_when_armed() {
        let mut wal = WalCoordinator::new(count_coord(100));
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
