//! Protocol drivers: one synchronous schedule and one pooled schedule.
//!
//! [`Runner`] is the synchronous schedule, the deterministic driver used
//! by all experiments and tests. It accepts arrivals one at a time
//! ([`Runner::feed`]), in per-site batches ([`Runner::feed_batch`]) or
//! as a whole partitioned stream slice ([`Runner::run_partitioned`]); in
//! every mode it routes the resulting messages to the coordinator and
//! applies broadcasts to every site *before the emitting site observes
//! its next arrival* — the synchronous-communication idealisation under
//! which the paper states its guarantees. Thanks to the pause-on-message
//! contract of [`Site::observe_batch`], the three feeding modes are
//! observably identical: same messages, same [`CommStats`], at every
//! batch size.
//!
//! The aggregation topology is pluggable: [`Runner::new`] builds the
//! paper's flat star, while [`Runner::with_topology`] routes traffic
//! through a k-ary tree of [`Aggregator`] nodes ([`crate::Topology`]) —
//! upward messages hop leaf → interior → root with per-hop accounting,
//! and broadcasts reach the nodes over the configured
//! [`BroadcastPlane`]. A tree with `fanout ≥ m` is *execution-identical*
//! to the star (pinned by the `topology_parity` suite).
//!
//! [`engine`] runs a deployment from pre-partitioned per-site streams
//! under either schedule. [`engine::Executor::Inline`] is this `Runner`
//! around the given plan, aggregators and coordinator, fed one batch per
//! site per round in id order, over any [`Transport`].
//! [`engine::Executor::Pool`] is the concurrent schedule: sites and
//! interior nodes are tasks with bounded inboxes carrying whole
//! *batches* of messages, scheduled as level-chunked work onto a bounded
//! worker pool, so broadcasts arrive with genuine lag. The protocols
//! remain correct under lag — a stale (smaller) threshold only makes
//! sites send *sooner*. Both schedules take the link every hop and
//! broadcast crosses from one edge rule (`TopologyPlan::edges`), so a
//! fault plan means the same thing under either.
//!
//! [`churn`] is the segmented driver
//! ([`churn::run_churn_partitioned_topology_parts_on`]): it runs the
//! stream through the engine one segment at a time
//! ([`engine::resume_partitioned_topology_parts_on`]) and, at the
//! boundaries in between, re-plans an adaptive topology from measured
//! fan-in, applies membership churn, and snapshots / recovers the root.

use std::collections::BTreeMap;

use crate::aggregator::{Aggregator, Relay};
use crate::broadcast::{BroadcastPlane, BroadcastState, LeafSet};
use crate::comm::{CommStats, MessageCost};
use crate::coordinator::Coordinator;
use crate::partition::Partitioner;
use crate::site::Site;
use crate::topology::{NodeEdges, Topology, TopologyPlan};
use crate::transport::{ChannelTransport, FaultLink, Transport};
use crate::wire::WireSized;
use crate::SiteId;

/// Upward fault links keyed by `(from, to)` transport node ids.
type UpLinks<M> = BTreeMap<(usize, usize), FaultLink<(SiteId, M)>>;

/// The aggregation layer of the synchronous [`Runner`]: the resolved
/// topology, the interior aggregator nodes and the root coordinator,
/// plus the routing logic that moves messages between them.
///
/// The layer is transport-aware: [`AggCore::install_net`] threads every
/// hop it routes through the [`Transport`]'s per-link [`FaultLink`]s, so
/// a simulated faulty network applies its drops, duplicates, delays and
/// reorders exactly where a real wire would — on the edge between
/// sender and receiver, before the receiver records or absorbs
/// anything. With the default [`crate::ChannelTransport`] none of this
/// machinery is built and routing is bit-exact with a fault-free run.
struct AggCore<A: Aggregator, C> {
    plan: TopologyPlan,
    aggs: Vec<A>,
    coordinator: C,
    /// Reusable relay buffer for the interior hops.
    relay: Vec<(SiteId, A::UpMsg)>,
    /// `true` once a non-transparent transport is installed.
    faulty: bool,
    /// Upward fault links; see [`UpLinks`].
    up_links: UpLinks<A::UpMsg>,
    /// Downward links indexed by receiving node id, each with the node
    /// its broadcasts come from ([`TopologyPlan::edges`]); empty unless
    /// some downward link can fault.
    down_links: Vec<(Option<usize>, FaultLink<()>)>,
    /// Scratch: which nodes heard the current broadcast (node-id
    /// indexed, root last); sized only alongside `down_links`.
    heard: Vec<bool>,
    /// Scratch buffer for fault filtering (kept for capacity).
    wave_buf: Vec<(SiteId, A::UpMsg)>,
    /// The broadcast plane: how coordinator broadcasts reach the
    /// deployment (see [`crate::broadcast`]). Default: tree cascade,
    /// the historical behaviour.
    bcast: BroadcastState,
}

impl<A, C> AggCore<A, C>
where
    A: Aggregator,
    A::UpMsg: MessageCost + Clone,
    A::Broadcast: WireSized,
    C: Coordinator<UpMsg = A::UpMsg, Broadcast = A::Broadcast>,
{
    /// Assembles the layer around aggregator nodes built in
    /// [`TopologyPlan::agg_nodes`] order — fresh, or migrated into a new
    /// plan by a re-split.
    fn from_parts(plan: TopologyPlan, aggs: Vec<A>, coordinator: C) -> Self {
        assert_eq!(
            aggs.len(),
            plan.internal_nodes(),
            "AggCore: one aggregator per interior node"
        );
        let m = plan.sites();
        AggCore {
            plan,
            aggs,
            coordinator,
            relay: Vec::new(),
            faulty: false,
            up_links: BTreeMap::new(),
            down_links: Vec::new(),
            heard: Vec::new(),
            wave_buf: Vec::new(),
            bcast: BroadcastState::new(BroadcastPlane::default(), m),
        }
    }

    /// Selects the broadcast plane (fresh dissemination state). Must be
    /// called before any broadcast is routed.
    fn set_plane(&mut self, plane: BroadcastPlane) {
        self.bcast = BroadcastState::new(plane, self.plan.sites());
    }

    /// Installs a transport: builds one [`FaultLink`] per edge the edge
    /// rule ([`TopologyPlan::edges`]) names — every node's upward hop
    /// and the downward link it hears broadcasts on — under the current
    /// plane, so call it after [`AggCore::set_plane`]. A transparent
    /// transport installs nothing, and downward links are kept only if
    /// one of them can fault, so the routing fast paths stay untouched.
    fn install_net(&mut self, net: &dyn Transport) {
        if net.is_transparent() {
            return;
        }
        self.faulty = true;
        let plane = self.bcast.plane();
        let root = self.plan.root_node_id();
        for node in 0..root {
            let NodeEdges { up, bc_from, .. } = self.plan.edges(plane, node);
            self.up_links
                .insert((node, up), FaultLink::new(net.link(node, up, true)));
            let down = bc_from.map_or_else(FaultLink::transparent, |from| {
                FaultLink::new(net.link(from, node, false))
            });
            self.down_links.push((bc_from, down));
        }
        if self.down_links.iter().all(|(_, l)| l.is_transparent()) {
            self.down_links.clear();
        } else {
            self.heard = vec![false; root + 1];
        }
    }

    /// Passes one wave through the fault link of the edge `from → to`,
    /// leaving only the messages the wire delivers *now* in `pending`.
    fn filter_wave(&mut self, from: usize, to: usize, pending: &mut Vec<(SiteId, A::UpMsg)>) {
        if !self.faulty {
            return;
        }
        let Some(link) = self.up_links.get_mut(&(from, to)) else {
            return;
        };
        if link.is_transparent() {
            return;
        }
        let mut out = std::mem::take(&mut self.wave_buf);
        for (sid, msg) in pending.drain(..) {
            let mass = msg.mass();
            link.receive((sid, msg), mass, &mut out);
        }
        std::mem::swap(pending, &mut out);
        self.wave_buf = out;
    }

    /// Routes one upward message from leaf `origin` through the
    /// aggregation tree into the root, recording per-hop costs and
    /// per-node fan-in; broadcasts triggered at the root are pushed onto
    /// `bc_out`.
    fn route_up(
        &mut self,
        origin: SiteId,
        msg: A::UpMsg,
        stats: &mut CommStats,
        bc_out: &mut Vec<A::Broadcast>,
    ) {
        let mut pending = std::mem::take(&mut self.relay);
        pending.push((origin, msg));
        self.climb(origin, pending, stats, bc_out);
    }

    /// Climbs a wave upward from transport node `from`, one hop of the
    /// edge rule at a time: each interior node absorbs whatever the
    /// wire delivers and flushes what it is ready to pass on, and the
    /// root hands what reaches it to the coordinator.
    fn climb(
        &mut self,
        mut from: usize,
        mut pending: Vec<(SiteId, A::UpMsg)>,
        stats: &mut CommStats,
        bc_out: &mut Vec<A::Broadcast>,
    ) {
        let plane = self.bcast.plane();
        let root = self.plan.root_node_id();
        loop {
            let NodeEdges { hop, up, .. } = self.plan.edges(plane, from);
            self.filter_wave(from, up, &mut pending);
            // Stats index of the receiver: interior `g`, or the root's.
            let node = up - self.plan.sites();
            for (sid, msg) in pending.drain(..) {
                stats.record_hop(hop, msg.cost(), msg.wire_bytes());
                stats.record_recv(node);
                if hop == 0 {
                    stats.record_leaf_send(sid);
                }
                if up == root {
                    self.coordinator.receive(sid, msg, bc_out);
                } else {
                    self.aggs[node].absorb(sid, msg);
                }
            }
            if up == root {
                break;
            }
            self.aggs[node].flush(&mut pending);
            if pending.is_empty() {
                break; // the node is holding its partial
            }
            from = up;
        }
        self.relay = pending;
    }

    /// Disseminates one broadcast through the configured
    /// [`BroadcastPlane`]: every interior node is charged as a recipient
    /// on every plane (interiors are `O(I)` relay infrastructure), leaf
    /// charging follows the plane (one delivery per edge actually
    /// crossed), and the returned [`LeafSet`] names the leaves the plane
    /// reached.
    ///
    /// Under a faulty transport adoption runs top-down: a node hears the
    /// broadcast only if its source (the edge rule's `bc_from`) did and
    /// its own downward link delivered it, so one drop starves the whole
    /// subtree the link feeds; [`AggCore::leaf_heard`] then names the
    /// leaves that heard. A dropped broadcast only leaves a *stale,
    /// smaller* threshold behind, which makes subtrees send sooner,
    /// never later, so every guarantee survives it.
    fn route_broadcast(
        &mut self,
        bc: &A::Broadcast,
        stats: &mut CommStats,
        net: &dyn Transport,
    ) -> LeafSet {
        let set = self
            .bcast
            .disseminate(&self.plan, bc.wire_size(), stats, net);
        if self.down_links.is_empty() {
            for agg in &mut self.aggs {
                agg.on_broadcast(bc);
            }
            return set;
        }
        // A source always has a larger node id than the nodes it feeds,
        // so one descending sweep settles every node after its source.
        let heard = &mut self.heard;
        heard[self.plan.root_node_id()] = true;
        for (node, (from, link)) in self.down_links.iter_mut().enumerate().rev() {
            heard[node] = match *from {
                Some(src) => heard[src] && link.deliver_now(0.0),
                None => true,
            };
        }
        let m = self.plan.sites();
        for (agg, &h) in self.aggs.iter_mut().zip(&heard[m..]) {
            if h {
                agg.on_broadcast(bc);
            }
        }
        set
    }

    /// The leaves that heard the last broadcast over their downward
    /// links, indexed by site id; `None` when no downward link can fault
    /// and every leaf the plane reached hears it.
    fn leaf_heard(&self) -> Option<&[bool]> {
        (!self.down_links.is_empty()).then(|| &self.heard[..self.plan.sites()])
    }

    /// Closes every fault link (end of run): messages still held by the
    /// simulated wire are released and complete their climb — late, but
    /// never silently lost — and per-link fault tallies flush into the
    /// network's [`crate::SimNet::stats`]. Broadcasts triggered by the
    /// released traffic land in `bc_out`, for a network that is now
    /// fault-free.
    fn close_links(&mut self, stats: &mut CommStats, bc_out: &mut Vec<A::Broadcast>) {
        if !self.faulty {
            return;
        }
        // Released messages travel the already-shut-down network's last
        // flush: they climb fault-free from the link that held them.
        self.faulty = false;
        let mut released = Vec::new();
        for ((from, _), mut link) in std::mem::take(&mut self.up_links) {
            let mut out = Vec::new();
            link.close(&mut out);
            if !out.is_empty() {
                released.push((from, out));
            }
        }
        for (from, wave) in released {
            self.climb(from, wave, stats, bc_out);
        }
        let mut sink = Vec::new();
        for (_, mut l) in self.down_links.drain(..) {
            l.close(&mut sink);
        }
        // Frames the gossip plane's links still held release now too.
        self.bcast.close(stats);
    }
}

/// Deterministic protocol driver — the synchronous schedule — generic
/// over the aggregation topology: `A` is the interior-node type,
/// defaulting to the pass-through [`Relay`] a star never instantiates.
pub struct Runner<S, C, A = Relay<<S as Site>::UpMsg, <S as Site>::Broadcast>>
where
    S: Site,
    C: Coordinator<UpMsg = S::UpMsg, Broadcast = S::Broadcast>,
    S::UpMsg: MessageCost + Clone,
    S::Broadcast: WireSized,
    A: Aggregator<UpMsg = S::UpMsg, Broadcast = S::Broadcast>,
{
    sites: Vec<S>,
    core: AggCore<A, C>,
    stats: CommStats,
    up_buf: Vec<S::UpMsg>,
    bc_buf: Vec<S::Broadcast>,
    /// Per-site staging buffers for [`Runner::run_partitioned`], kept
    /// across epochs so a steady-state epoch allocates nothing.
    stage: Vec<Vec<S::Input>>,
}

impl<S, C> Runner<S, C>
where
    S: Site,
    C: Coordinator<UpMsg = S::UpMsg, Broadcast = S::Broadcast>,
    S::UpMsg: MessageCost + Clone,
    S::Broadcast: WireSized,
{
    /// Creates a flat-star driver over the given sites and coordinator —
    /// the paper's deployment shape; [`Runner::with_topology`] on
    /// [`Topology::Star`].
    ///
    /// # Panics
    /// Panics if `sites` is empty.
    pub fn new(sites: Vec<S>, coordinator: C) -> Self {
        Self::with_topology(sites, coordinator, Topology::Star, |_| Relay::new())
    }
}

impl<S, C, A> Runner<S, C, A>
where
    S: Site,
    C: Coordinator<UpMsg = S::UpMsg, Broadcast = S::Broadcast>,
    S::UpMsg: MessageCost + Clone,
    S::Broadcast: WireSized,
    A: Aggregator<UpMsg = S::UpMsg, Broadcast = S::Broadcast>,
{
    /// Creates a driver whose site traffic is aggregated through
    /// `topology`, constructing one `A` per interior node via
    /// `make_agg`. `Topology::Star` (or a tree with `fanout ≥ m`) has no
    /// interior nodes and is execution-identical to [`Runner::new`].
    ///
    /// # Panics
    /// Panics if `sites` is empty or the topology is invalid.
    pub fn with_topology(
        sites: Vec<S>,
        coordinator: C,
        topology: Topology,
        make_agg: impl FnMut(crate::topology::AggNode) -> A,
    ) -> Self {
        assert!(!sites.is_empty(), "Runner: need at least one site");
        let plan = topology.plan(sites.len());
        let aggs = plan.agg_nodes().map(make_agg).collect();
        Self::from_parts(sites, coordinator, plan, aggs)
    }

    /// Assembles a driver around a resolved plan and its interior nodes,
    /// built in [`TopologyPlan::agg_nodes`] order — fresh, or migrated
    /// by a re-split. The engine's [`engine::Executor::Inline`] starts
    /// here.
    fn from_parts(sites: Vec<S>, coordinator: C, plan: TopologyPlan, aggs: Vec<A>) -> Self {
        let core = AggCore::from_parts(plan, aggs, coordinator);
        let stats = CommStats::for_plan(&core.plan);
        Runner {
            sites,
            core,
            stats,
            up_buf: Vec::new(),
            bc_buf: Vec::new(),
            stage: Vec::new(),
        }
    }

    /// Number of sites `m`.
    pub fn m(&self) -> usize {
        self.sites.len()
    }

    /// Selects the [`BroadcastPlane`] broadcasts disseminate through
    /// (default: [`BroadcastPlane::TreeCascade`], the historical
    /// behaviour). Call before feeding any arrivals — switching planes
    /// resets the dissemination state (version counter, peer links).
    pub fn set_broadcast_plane(&mut self, plane: BroadcastPlane) {
        self.core.set_plane(plane);
    }

    /// The resolved aggregation layout.
    pub fn plan(&self) -> &TopologyPlan {
        &self.core.plan
    }

    /// The interior aggregator nodes (level-major, bottom-up; empty for
    /// a star).
    pub fn aggregators(&self) -> &[A] {
        &self.core.aggs
    }

    /// Delivers one arrival to `site`, then routes all induced
    /// communication to quiescence.
    ///
    /// # Panics
    /// Panics if `site >= m`.
    pub fn feed(&mut self, site: SiteId, input: S::Input) {
        assert!(
            site < self.sites.len(),
            "Runner::feed: site {site} out of range"
        );
        self.stats.arrivals += 1;
        self.sites[site].observe(input, &mut self.up_buf);
        self.route(site, &ChannelTransport);
    }

    /// Delivers a batch of arrivals to `site`.
    ///
    /// Execution-equivalent to calling [`Runner::feed`] once per item in
    /// order: whenever the site emits messages mid-batch it pauses (per
    /// the [`Site::observe_batch`] contract), the messages are routed and
    /// broadcasts applied, and the site resumes on the remaining items.
    /// The batched path is faster, not different.
    ///
    /// # Panics
    /// Panics if `site >= m`.
    pub fn feed_batch<I>(&mut self, site: SiteId, inputs: I)
    where
        I: IntoIterator<Item = S::Input>,
    {
        assert!(
            site < self.sites.len(),
            "Runner::feed_batch: site {site} out of range"
        );
        let mut delivered = 0u64;
        let inputs = inputs.into_iter().inspect(|_| delivered += 1);
        self.feed_batch_inner(site, inputs, &ChannelTransport);
        self.stats.arrivals += delivered;
    }

    /// [`Runner::feed_batch`] over transport `net`, without the bounds
    /// check and arrival accounting — the hot inner loop shared with
    /// [`Runner::run_partitioned`] and the engine's
    /// [`engine::Executor::Inline`] rounds, which validate and count at
    /// coarser granularity instead of wrapping every item.
    fn feed_batch_inner<I>(&mut self, site: SiteId, mut inputs: I, net: &dyn Transport)
    where
        I: Iterator<Item = S::Input>,
    {
        loop {
            self.sites[site].observe_batch(&mut inputs, &mut self.up_buf);
            if self.up_buf.is_empty() {
                // No message ⇒ (contract) the iterator is exhausted.
                return;
            }
            self.route(site, net);
        }
    }

    /// Drives a whole stream slice: assigns each arrival to a site via
    /// `partitioner` (by global stream index, continuing from any
    /// previous call) and delivers the stream in epochs of `batch_size`
    /// arrivals, each epoch grouped into per-site batches fed through
    /// [`Runner::feed_batch`].
    ///
    /// Within an epoch, sites are served in ascending site order; the
    /// per-site arrival order is exactly the partitioned order, so each
    /// site's local stream — and therefore the execution — is independent
    /// of `batch_size` up to the inter-site interleave of the epoch.
    /// `batch_size = 1` reproduces the global per-item order of a
    /// [`Runner::feed`] loop exactly.
    ///
    /// # Panics
    /// Panics if `batch_size == 0` or `partitioner.sites() != m`.
    pub fn run_partitioned<P, I>(&mut self, stream: I, partitioner: &mut P, batch_size: usize)
    where
        P: Partitioner,
        I: IntoIterator<Item = S::Input>,
    {
        assert!(
            batch_size >= 1,
            "Runner::run_partitioned: batch_size must be positive"
        );
        assert_eq!(
            partitioner.sites(),
            self.sites.len(),
            "Runner::run_partitioned: partitioner is for a different deployment"
        );
        let m = self.sites.len();
        self.stage.resize_with(m, Vec::new);
        let mut stream = stream.into_iter();
        // Holder the staged group is drained from; swapping it with the
        // stage slot (rather than `mem::take`-ing the slot) keeps every
        // buffer's capacity alive, so a steady-state epoch allocates
        // nothing.
        let mut scratch: Vec<S::Input> = Vec::new();
        loop {
            // `arrivals` doubles as the global stream index, so repeated
            // calls continue the partitioned assignment seamlessly.
            let base = self.stats.arrivals;
            let mut n = 0u64;
            for input in stream.by_ref().take(batch_size) {
                self.stage[partitioner.assign(base + n)].push(input);
                n += 1;
            }
            if n == 0 {
                return;
            }
            for site in 0..m {
                if self.stage[site].is_empty() {
                    continue;
                }
                std::mem::swap(&mut self.stage[site], &mut scratch);
                self.feed_batch_inner(site, scratch.drain(..), &ChannelTransport);
            }
            self.stats.arrivals += n;
        }
    }

    /// Routes every pending message from `site` up through the
    /// aggregation layer over `net`; the broadcasts each message
    /// triggers reach the deployment before the next one climbs.
    fn route(&mut self, site: SiteId, net: &dyn Transport) {
        while let Some(msg) = pop_front(&mut self.up_buf) {
            self.core
                .route_up(site, msg, &mut self.stats, &mut self.bc_buf);
            self.deliver_broadcasts(net);
        }
    }

    /// Disseminates every pending broadcast over `net` and applies it to
    /// the nodes that hear it — the one place a broadcast reaches a
    /// site: the plane's [`LeafSet`], narrowed to the leaves whose
    /// downward links delivered it when one of those links can fault.
    fn deliver_broadcasts(&mut self, net: &dyn Transport) {
        while let Some(bc) = pop_front(&mut self.bc_buf) {
            let set = self.core.route_broadcast(&bc, &mut self.stats, net);
            match (&set, self.core.leaf_heard()) {
                (LeafSet::Subset(adopters), _) if adopters.len() < self.sites.len() => {
                    for &sid in adopters {
                        self.sites[sid].on_broadcast(&bc);
                    }
                }
                // Adopters are distinct, so a full subset is every site:
                // one pass in id order instead of `m` scattered calls.
                (LeafSet::Subset(_), _) | (LeafSet::All, None) => {
                    for s in &mut self.sites {
                        s.on_broadcast(&bc);
                    }
                }
                (LeafSet::All, Some(heard)) => {
                    for (s, &h) in self.sites.iter_mut().zip(heard) {
                        if h {
                            s.on_broadcast(&bc);
                        }
                    }
                }
            }
            self.core.bcast.recycle(set);
        }
    }

    /// Ends a run: closes every fault link, and the broadcasts the
    /// released traffic triggers reach the deployment over the
    /// shut-down, fault-free network.
    fn close_links(&mut self) {
        self.core.close_links(&mut self.stats, &mut self.bc_buf);
        self.deliver_broadcasts(&ChannelTransport);
    }

    /// The coordinator, for continuous queries.
    pub fn coordinator(&self) -> &C {
        &self.core.coordinator
    }

    /// The sites (read-only; useful in tests).
    pub fn sites(&self) -> &[S] {
        &self.sites
    }

    /// Communication totals so far.
    pub fn stats(&self) -> &CommStats {
        &self.stats
    }

    /// Decomposes the driver into its parts (after a run completes).
    pub fn into_parts(self) -> (Vec<S>, C, CommStats) {
        (self.sites, self.core.coordinator, self.stats)
    }
}

/// FIFO pop on a `Vec` used as a small queue. The buffers here hold at
/// most a handful of messages, so `remove(0)` beats a `VecDeque`'s
/// overhead in practice and keeps message order faithful to emission
/// order.
fn pop_front<T>(v: &mut Vec<T>) -> Option<T> {
    if v.is_empty() {
        None
    } else {
        Some(v.remove(0))
    }
}

pub mod churn;
pub mod engine;

/// Alias path for the engine's run configuration. `benchmark/` is a
/// frozen package outside the workspace that imports
/// `cma_stream::runner::threaded::ThreadedConfig`; this keeps it building.
pub mod threaded {
    pub use super::engine::{ThreadedConfig, TreeRunParts};
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::partition::RoundRobin;

    /// Toy protocol for driver tests: sites accumulate weight and report
    /// it when it reaches a threshold; the coordinator sums reports and
    /// doubles the threshold each time the total doubles.
    #[derive(Clone)]
    struct ToySite {
        pending: f64,
        threshold: f64,
    }

    #[derive(Debug, Clone)]
    struct Report(f64);

    impl MessageCost for Report {
        fn cost(&self) -> u64 {
            1
        }
    }

    impl Site for ToySite {
        type Input = f64;
        type UpMsg = Report;
        type Broadcast = f64; // new threshold

        fn observe(&mut self, w: f64, out: &mut Vec<Report>) {
            self.pending += w;
            if self.pending >= self.threshold {
                out.push(Report(self.pending));
                self.pending = 0.0;
            }
        }
        fn on_broadcast(&mut self, t: &f64) {
            self.threshold = *t;
        }
    }

    struct ToyCoord {
        total: f64,
        last_broadcast_at: f64,
    }

    impl Coordinator for ToyCoord {
        type UpMsg = Report;
        type Broadcast = f64;

        fn receive(&mut self, _from: SiteId, msg: Report, out: &mut Vec<f64>) {
            self.total += msg.0;
            if self.total >= 2.0 * self.last_broadcast_at.max(1.0) {
                self.last_broadcast_at = self.total;
                out.push(self.total / 8.0);
            }
        }
    }

    /// Toy aggregator: sums child reports and forwards once the pending
    /// total reaches a fixed hold threshold.
    struct ToyAgg {
        pending: f64,
        hold: f64,
        rep: SiteId,
    }

    impl Aggregator for ToyAgg {
        type UpMsg = Report;
        type Broadcast = f64;

        fn absorb(&mut self, from: SiteId, msg: Report) {
            if self.pending == 0.0 {
                self.rep = from;
            }
            self.pending += msg.0;
        }
        fn flush(&mut self, out: &mut Vec<(SiteId, Report)>) {
            if self.pending >= self.hold {
                out.push((self.rep, Report(self.pending)));
                self.pending = 0.0;
            }
        }
    }

    fn toy_runner(m: usize) -> Runner<ToySite, ToyCoord> {
        let sites = (0..m)
            .map(|_| ToySite {
                pending: 0.0,
                threshold: 1.0,
            })
            .collect();
        Runner::new(
            sites,
            ToyCoord {
                total: 0.0,
                last_broadcast_at: 0.0,
            },
        )
    }

    fn toy_tree(m: usize, fanout: usize, hold: f64) -> Runner<ToySite, ToyCoord, ToyAgg> {
        let sites = (0..m)
            .map(|_| ToySite {
                pending: 0.0,
                threshold: 1.0,
            })
            .collect();
        Runner::with_topology(
            sites,
            ToyCoord {
                total: 0.0,
                last_broadcast_at: 0.0,
            },
            Topology::Tree { fanout },
            |_| ToyAgg {
                pending: 0.0,
                hold,
                rep: 0,
            },
        )
    }

    #[test]
    fn sequential_accounts_every_message() {
        let mut r = toy_runner(4);
        for i in 0..100u64 {
            r.feed((i % 4) as usize, 1.0);
        }
        assert!(r.stats().up_msgs > 0);
        assert!(r.stats().broadcast_events > 0);
        assert_eq!(r.stats().sites, 4);
        // No weight lost: coordinator total + site pending = stream total.
        let pending: f64 = r.sites().iter().map(|s| s.pending).sum();
        assert_eq!(r.coordinator().total + pending, 100.0);
    }

    #[test]
    fn broadcasts_raise_thresholds_everywhere() {
        let mut r = toy_runner(2);
        for i in 0..200u64 {
            r.feed((i % 2) as usize, 1.0);
        }
        for s in r.sites() {
            assert!(s.threshold > 1.0, "broadcast never reached a site");
        }
    }

    #[test]
    fn tree_with_relay_hold_conserves_weight() {
        let mut r = toy_tree(8, 2, 0.0); // hold 0: forwards immediately
        for i in 0..200u64 {
            r.feed((i % 8) as usize, 1.0);
        }
        let site_pending: f64 = r.sites().iter().map(|s| s.pending).sum();
        let agg_pending: f64 = r.aggregators().iter().map(|a| a.pending).sum();
        assert_eq!(r.coordinator().total + site_pending + agg_pending, 200.0);
        // Per-level accounting: every hop saw traffic.
        assert_eq!(r.stats().per_level.len(), r.plan().hops());
        for (h, lvl) in r.stats().per_level.iter().enumerate() {
            assert!(lvl.up_msgs > 0, "hop {h} silent");
        }
        // Structural fan-in bounded by the fanout.
        assert_eq!(r.stats().max_fan_in, 2);
    }

    #[test]
    fn tree_holding_aggregator_reduces_root_fan_in() {
        let mut flat = toy_runner(16);
        let mut tree = toy_tree(16, 4, 3.0); // coalesce ≥ 3 weight per forward
        for i in 0..400u64 {
            flat.feed((i % 16) as usize, 1.0);
            tree.feed((i % 16) as usize, 1.0);
        }
        let root_flat = *flat.stats().node_in_msgs.last().unwrap();
        let root_tree = *tree.stats().node_in_msgs.last().unwrap();
        assert!(
            root_tree < root_flat,
            "root fan-in {root_tree} not below star {root_flat}"
        );
        // Held weight is conserved, not lost.
        let site_pending: f64 = tree.sites().iter().map(|s| s.pending).sum();
        let agg_pending: f64 = tree.aggregators().iter().map(|a| a.pending).sum();
        assert_eq!(tree.coordinator().total + site_pending + agg_pending, 400.0);
    }

    #[test]
    fn tree_broadcast_cost_counts_every_recipient() {
        let mut r = toy_tree(8, 2, 0.0); // plan levels [4, 2]: 6 interior
        for i in 0..100u64 {
            r.feed((i % 8) as usize, 1.0);
        }
        let s = r.stats();
        assert!(s.broadcast_events > 0);
        // Each event reaches 8 leaves + 6 interior nodes.
        assert_eq!(s.broadcast_deliveries, s.broadcast_events * (8 + 6));
        assert_eq!(s.broadcast_reach, s.broadcast_events * (8 + 6));
    }

    #[test]
    fn tree_with_full_fanout_matches_star_exactly() {
        let mut star = toy_runner(6);
        let mut tree = toy_tree(6, 6, 123.0); // aggregators never built
        for i in 0..300u64 {
            star.feed((i % 6) as usize, 1.5);
            tree.feed((i % 6) as usize, 1.5);
        }
        assert_eq!(star.stats(), tree.stats());
        assert_eq!(star.coordinator().total, tree.coordinator().total);
        assert!(tree.aggregators().is_empty());
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn feed_checks_site_index() {
        let mut r = toy_runner(2);
        r.feed(5, 1.0);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn feed_batch_checks_site_index() {
        let mut r = toy_runner(2);
        r.feed_batch(3, vec![1.0]);
    }

    /// The load-bearing refactoring invariant: batched delivery is
    /// execution-equivalent to per-item delivery in the same order.
    #[test]
    fn feed_batch_matches_per_item_exactly() {
        let weights: Vec<f64> = (0..500).map(|i| 1.0 + (i % 7) as f64 * 0.5).collect();
        for batch in [1usize, 3, 64, 500] {
            let mut by_item = toy_runner(2);
            let mut by_batch = toy_runner(2);
            for chunk in weights.chunks(batch) {
                for &w in chunk {
                    by_item.feed(0, w);
                }
                by_batch.feed_batch(0, chunk.iter().copied());
            }
            assert_eq!(
                by_item.stats().up_msgs,
                by_batch.stats().up_msgs,
                "batch={batch}"
            );
            assert_eq!(
                by_item.stats().total(),
                by_batch.stats().total(),
                "batch={batch}"
            );
            assert_eq!(
                by_item.coordinator().total,
                by_batch.coordinator().total,
                "batch={batch}"
            );
            for (a, b) in by_item.sites().iter().zip(by_batch.sites()) {
                assert_eq!(a.pending, b.pending, "batch={batch}");
                assert_eq!(a.threshold, b.threshold, "batch={batch}");
            }
        }
    }

    #[test]
    fn run_partitioned_batch_one_equals_feed_loop() {
        let weights: Vec<f64> = (0..300).map(|i| 1.0 + (i % 5) as f64).collect();
        let mut by_item = toy_runner(3);
        for (i, &w) in weights.iter().enumerate() {
            by_item.feed(i % 3, w);
        }
        let mut by_stream = toy_runner(3);
        by_stream.run_partitioned(weights.iter().copied(), &mut RoundRobin::new(3), 1);
        assert_eq!(by_item.stats(), by_stream.stats());
        assert_eq!(by_item.coordinator().total, by_stream.coordinator().total);
    }

    #[test]
    fn run_partitioned_conserves_weight_at_any_batch_size() {
        let weights: Vec<f64> = (0..400).map(|_| 1.0).collect();
        for batch in [1usize, 7, 64, 1024] {
            let mut r = toy_runner(4);
            r.run_partitioned(weights.iter().copied(), &mut RoundRobin::new(4), batch);
            let pending: f64 = r.sites().iter().map(|s| s.pending).sum();
            assert_eq!(r.coordinator().total + pending, 400.0, "batch={batch}");
            assert_eq!(r.stats().arrivals, 400, "batch={batch}");
        }
    }

    #[test]
    #[should_panic(expected = "batch_size must be positive")]
    fn run_partitioned_rejects_zero_batch() {
        let mut r = toy_runner(2);
        r.run_partitioned(std::iter::empty(), &mut RoundRobin::new(2), 0);
    }

    #[test]
    #[should_panic(expected = "different deployment")]
    fn run_partitioned_rejects_mismatched_partitioner() {
        let mut r = toy_runner(2);
        r.run_partitioned(std::iter::once(1.0), &mut RoundRobin::new(3), 8);
    }

    /// A gossiping runner on a transparent wire runs its events on a
    /// helper thread. Dropping the runner mid-run stops and joins that
    /// thread: the token the helper holds is gone once the drop returns.
    #[test]
    fn dropping_a_gossiping_runner_joins_its_helper() {
        let m = 4_096;
        let mut r = toy_tree(m, 8, 0.0);
        r.set_broadcast_plane(BroadcastPlane::Gossip {
            fanout: 4,
            rounds: 24,
            seed: 1,
        });
        for i in 0..4 * m {
            r.feed(i % m, 1.0);
        }
        assert!(r.stats().broadcast_events > 1, "no repeated broadcasts");
        let token = r.core.bcast.helper_token().expect("a helper runs");
        assert!(token.upgrade().is_some(), "the helper is alive mid-run");
        drop(r);
        assert!(token.upgrade().is_none(), "the helper outlived its runner");
    }
}
