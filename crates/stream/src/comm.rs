//! Communication accounting.
//!
//! The paper measures protocols by message counts, with two conventions
//! that the accounting here reproduces:
//!
//! * A site→coordinator message is charged its *element cost*: protocol
//!   HH-P1 ships whole Misra–Gries summaries, and the paper's
//!   `O((m/ε²)·log(βN))` bound counts the `O(1/ε)` elements inside each
//!   summary, so a summary of `k` counters is charged `k` (plus one for
//!   the weight scalar). A matrix-protocol message is one row of length
//!   `d`; a scalar message is one unit.
//! * A coordinator broadcast is charged **one message per edge it
//!   actually crosses**. Under the structural planes
//!   ([`crate::BroadcastPlane::RootFanOut`] /
//!   [`crate::BroadcastPlane::TreeCascade`]) every recipient is reached
//!   over exactly one edge — `m` deliveries in a star; every interior
//!   node *and* every leaf in a tree — so deliveries equal reach. Under
//!   [`crate::BroadcastPlane::Gossip`] deliveries are the pushed frames
//!   plus the pull digests plus the pull replies (at most `fanout` per
//!   node per round, independent of `m`) and reach is tracked
//!   separately.
//!
//! With a tree topology ([`crate::Topology`]) communication is *measured
//! per hop, not guessed*: [`CommStats::per_level`] records the traffic
//! crossing each tier boundary (hop 0 is leaf→parent; the last hop is
//! into the root), and [`CommStats::node_in_msgs`] records how many
//! messages each aggregation point (interior nodes first, root last)
//! actually received — the fan-in pressure the tree exists to relieve.
//! [`CommStats::total`] sums every hop's up-traffic plus the fanned-out
//! broadcast deliveries, so star and tree costs are directly comparable.

use crate::topology::TopologyPlan;

/// Per-message cost in the paper's message units.
///
/// Implemented by each protocol's up-message type; the [`crate::Runner`]
/// consults it as messages flow.
pub trait MessageCost {
    /// Number of unit messages this logical message is charged as.
    fn cost(&self) -> u64;

    /// Exact encoded size of this message on the wire, in bytes.
    ///
    /// Protocol message types override this with the size their
    /// `WireCodec` impl produces (pinned equal by the `wire_roundtrip`
    /// proptest). The default prices each paper message unit as one
    /// `f64` word — the convention of the distributed-PCA communication
    /// bounds, which are stated in words.
    fn wire_bytes(&self) -> u64 {
        8 * self.cost()
    }

    /// Stream mass carried by this message: the total weight (HH), row
    /// Frobenius mass (matrix), or bucket mass (windows) the coordinator
    /// would lose if the message vanished in transit. The simulated
    /// network charges dropped/late messages to the certified bounds by
    /// this amount. Defaults to 0 (pure control traffic).
    fn mass(&self) -> f64 {
        0.0
    }
}

/// Traffic crossing one hop of the aggregation topology.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LevelStats {
    /// Logical upward messages crossing this hop.
    pub up_msgs: u64,
    /// Total element cost of those messages.
    pub up_cost: u64,
    /// Total encoded bytes of those messages ([`MessageCost::wire_bytes`]).
    pub up_bytes: u64,
    /// Broadcast deliveries fanned down across this hop (one per
    /// receiving node on the lower side).
    pub broadcast_msgs: u64,
}

/// Running communication totals for one protocol execution.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CommStats {
    /// Number of logical messages *leaving the leaf sites* (hop 0).
    pub up_msgs: u64,
    /// Total element cost of leaf up-traffic (each logical send charged
    /// via [`MessageCost::cost`]).
    pub up_cost: u64,
    /// Number of broadcast events (each fans out to the whole tree).
    pub broadcast_events: u64,
    /// Total broadcast deliveries: **edges actually crossed**, measured.
    /// Under the structural planes (root fan-out, tree cascade) every
    /// recipient is reached over exactly one edge, so this equals
    /// [`CommStats::broadcast_reach`]; under a gossip plane deliveries
    /// are pushed frames plus pull digests plus pull replies —
    /// including duplicates the simulated wire manufactures, redundant
    /// pushes to already-current nodes and digests from leaves that
    /// turn out to be current — so deliveries can exceed reach
    /// (redundancy) or trail the recipient count (staleness).
    pub broadcast_deliveries: u64,
    /// Total broadcast *reach*: recipients that actually adopted a
    /// fresh frame, summed over events. A node counts once per event no
    /// matter how many copies the wire delivered to it.
    pub broadcast_reach: u64,
    /// The largest number of broadcast messages any single node sent
    /// for one event, summed over events — the per-node out-degree of
    /// the dissemination. Root fan-out charges the root `m + I` per
    /// event; under a gossip plane each event's term is at most
    /// `fanout · rounds` (independent of `m`), so the sum is at most
    /// `events · fanout · rounds` — the entire point of the plane.
    pub broadcast_peak_out: u64,
    /// Dissemination latency in rounds (hops for the cascade planes;
    /// under gossip, the rounds actually run until every leaf adopted
    /// or the round budget ran out), summed over events —
    /// `lag / events` is the mean convergence lag a leaf observes.
    pub broadcast_lag_rounds: u64,
    /// Leaves left *stale* (not reached) by each event, summed over
    /// events. Always 0 for the structural planes; under gossip this is
    /// the measured staleness the `Ŵ_peak` bound term absorbs (a stale
    /// threshold is an old, smaller one: sites send sooner, never
    /// later).
    pub broadcast_stale: u64,
    /// Total encoded bytes of upward traffic, summed across **every**
    /// hop it crosses (a message relayed over two hops is charged
    /// twice — this measures wire traffic, not logical payload). Only
    /// delivered messages count: under a faulty transport a dropped
    /// message is never recorded, a duplicated one is recorded twice.
    pub bytes_up: u64,
    /// Total encoded bytes of broadcast traffic, charged **per edge
    /// actually crossed** (mirroring `broadcast_deliveries`): one
    /// payload per structural fan-out delivery, one versioned frame per
    /// gossip push or pull reply, 8 bytes per pull digest.
    pub bytes_down: u64,
    /// Number of sites `m`.
    pub sites: u64,
    /// Arrivals delivered through the driver (any feeding mode). Purely
    /// informational — excluded from [`CommStats::total`] — and doubles
    /// as the global stream index for
    /// [`crate::Runner::run_partitioned`]'s partitioner.
    pub arrivals: u64,
    /// Per-hop traffic, leaf-to-root: `per_level[0]` is the leaf hop,
    /// the last entry is the hop into the root. A star has exactly one
    /// hop.
    pub per_level: Vec<LevelStats>,
    /// Messages received per aggregation point, interior nodes first
    /// (level-major, bottom-up), root last. A star has a single entry —
    /// the root.
    pub node_in_msgs: Vec<u64>,
    /// Structural fan-in bound: the maximum child count of any
    /// aggregation point (`m` for a star, the tree fanout otherwise).
    pub max_fan_in: u64,
    /// Messages *sent* by each leaf site (hop-0 traffic, by origin).
    /// This is the measured side of fan-in: the number of non-zero
    /// entries ([`CommStats::active_leaves`]) is how many children
    /// actually pressed on the aggregation layer, which is what
    /// [`crate::Topology::Adaptive`] reads to decide whether a flat
    /// star is already within its fan-in budget.
    pub leaf_out_msgs: Vec<u64>,
}

impl CommStats {
    /// Creates zeroed statistics for a flat (star) `m`-site deployment.
    pub fn new(sites: usize) -> Self {
        CommStats {
            sites: sites as u64,
            per_level: vec![LevelStats::default()],
            node_in_msgs: vec![0],
            max_fan_in: sites as u64,
            leaf_out_msgs: vec![0; sites],
            ..Default::default()
        }
    }

    /// Creates zeroed statistics shaped for a topology plan: one
    /// [`LevelStats`] per hop and one receive counter per aggregation
    /// point (interior nodes plus root).
    pub fn for_plan(plan: &TopologyPlan) -> Self {
        CommStats {
            sites: plan.sites() as u64,
            per_level: vec![LevelStats::default(); plan.hops()],
            node_in_msgs: vec![0; plan.internal_nodes() + 1],
            max_fan_in: plan.max_fan_in() as u64,
            leaf_out_msgs: vec![0; plan.sites()],
            ..Default::default()
        }
    }

    /// Total message count in the paper's units: up-traffic element cost
    /// across every hop plus one message per broadcast delivery (edge
    /// actually crossed).
    pub fn total(&self) -> u64 {
        self.per_level.iter().map(|l| l.up_cost).sum::<u64>() + self.broadcast_deliveries
    }

    /// The largest number of messages any single aggregation point
    /// received — the *measured* fan-in pressure (compare against the
    /// structural [`CommStats::max_fan_in`]).
    pub fn max_node_in_msgs(&self) -> u64 {
        self.node_in_msgs.iter().copied().max().unwrap_or(0)
    }

    /// Records one upward message of the given cost and encoded byte
    /// size crossing hop `level` (0 = leaf hop). Bytes accumulate into
    /// [`CommStats::bytes_up`] at *every* level — wire traffic, not
    /// logical payload — while `up_msgs`/`up_cost` keep their leaf-hop
    /// meaning.
    pub fn record_hop(&mut self, level: usize, cost: u64, bytes: u64) {
        let l = &mut self.per_level[level];
        l.up_msgs += 1;
        l.up_cost += cost;
        l.up_bytes += bytes;
        self.bytes_up += bytes;
        if level == 0 {
            self.up_msgs += 1;
            self.up_cost += cost;
        }
    }

    /// Records one message arriving at aggregation point `node` (indexed
    /// as in [`CommStats::node_in_msgs`]).
    pub fn record_recv(&mut self, node: usize) {
        self.node_in_msgs[node] += 1;
    }

    /// Records that leaf `origin` sent one hop-0 message. Called by the
    /// *receiving* node alongside [`CommStats::record_hop`]`(0, …)`, so
    /// per-thread stats merge without double-counting.
    pub fn record_leaf_send(&mut self, origin: usize) {
        self.leaf_out_msgs[origin] += 1;
    }

    /// Number of leaf sites that sent at least one message — the
    /// *measured* fan-in a flat star actually puts on the root, as
    /// opposed to the structural `m`. [`crate::Topology::Adaptive`]
    /// keeps the star when this is within its budget.
    pub fn active_leaves(&self) -> usize {
        self.leaf_out_msgs.iter().filter(|&&c| c > 0).count()
    }

    /// Records one site→coordinator message of the given cost and byte
    /// size in a flat deployment (hop 0 straight into the root).
    pub fn record_up(&mut self, cost: u64, bytes: u64) {
        self.record_hop(0, cost, bytes);
        let root = self.node_in_msgs.len() - 1;
        self.record_recv(root);
    }

    /// Opens a broadcast event; the per-hop deliveries are then recorded
    /// via [`CommStats::record_broadcast_level`].
    pub fn begin_broadcast(&mut self) {
        self.broadcast_events += 1;
    }

    /// Records `receivers` broadcast deliveries crossing hop `level`
    /// downward, each `bytes_each` encoded bytes on the wire. This is
    /// the *structural* (one edge per recipient) form, so each delivery
    /// also counts as reach.
    pub fn record_broadcast_level(&mut self, level: usize, receivers: u64, bytes_each: u64) {
        self.per_level[level].broadcast_msgs += receivers;
        self.broadcast_deliveries += receivers;
        self.broadcast_reach += receivers;
        self.bytes_down += receivers * bytes_each;
    }

    /// Records one gossip message (frame or digest) crossing an edge at
    /// hop `level` (`bytes` encoded bytes on the wire), *without*
    /// assuming the receiver adopted anything — adoption is recorded
    /// separately via [`CommStats::record_broadcast_adopt`].
    pub fn record_broadcast_edge(&mut self, level: usize, bytes: u64) {
        self.record_broadcast_edges(level, 1, bytes);
    }

    /// Records `msgs` gossip messages crossing edges at hop `level`,
    /// `bytes` encoded bytes in all — [`CommStats::record_broadcast_edge`]
    /// summed over a batch.
    pub fn record_broadcast_edges(&mut self, level: usize, msgs: u64, bytes: u64) {
        self.per_level[level].broadcast_msgs += msgs;
        self.broadcast_deliveries += msgs;
        self.bytes_down += bytes;
    }

    /// Records `nodes` recipients adopting a fresh frame of the current
    /// broadcast event.
    pub fn record_broadcast_adopt(&mut self, nodes: u64) {
        self.broadcast_reach += nodes;
    }

    /// Records the dissemination telemetry of one finished broadcast
    /// event: the largest per-node outbound message count, the rounds the
    /// event took to settle, and how many leaves it left stale.
    pub fn record_broadcast_shape(&mut self, peak_out: u64, lag_rounds: u64, stale: u64) {
        self.broadcast_peak_out += peak_out;
        self.broadcast_lag_rounds += lag_rounds;
        self.broadcast_stale += stale;
    }

    /// Records one complete broadcast event that fans out to `recipients`
    /// receivers in a flat deployment, `bytes_each` encoded bytes per
    /// delivery.
    pub fn record_broadcast(&mut self, recipients: u64, bytes_each: u64) {
        self.begin_broadcast();
        self.record_broadcast_level(0, recipients, bytes_each);
    }

    /// Adds another set of *communication* totals (e.g. when a protocol
    /// runs an auxiliary sub-protocol for total-weight tracking).
    /// `arrivals` is deliberately **not** summed: an auxiliary protocol
    /// observes the same stream, so its arrivals are already counted —
    /// and `arrivals` doubles as the partitioner's global stream index,
    /// which double-counting would corrupt.
    ///
    /// # Panics
    /// Debug-panics when the two stat blocks describe deployments of
    /// different shape.
    pub fn absorb(&mut self, other: &CommStats) {
        debug_assert_eq!(
            self.sites, other.sites,
            "absorbing stats from different deployments"
        );
        debug_assert_eq!(
            self.per_level.len(),
            other.per_level.len(),
            "absorbing stats from a different topology"
        );
        debug_assert_eq!(
            self.node_in_msgs.len(),
            other.node_in_msgs.len(),
            "absorbing stats from a different topology"
        );
        self.up_msgs += other.up_msgs;
        self.up_cost += other.up_cost;
        self.broadcast_events += other.broadcast_events;
        self.broadcast_deliveries += other.broadcast_deliveries;
        self.broadcast_reach += other.broadcast_reach;
        self.broadcast_peak_out += other.broadcast_peak_out;
        self.broadcast_lag_rounds += other.broadcast_lag_rounds;
        self.broadcast_stale += other.broadcast_stale;
        self.bytes_up += other.bytes_up;
        self.bytes_down += other.bytes_down;
        for (a, b) in self.per_level.iter_mut().zip(&other.per_level) {
            a.up_msgs += b.up_msgs;
            a.up_cost += b.up_cost;
            a.up_bytes += b.up_bytes;
            a.broadcast_msgs += b.broadcast_msgs;
        }
        for (a, b) in self.node_in_msgs.iter_mut().zip(&other.node_in_msgs) {
            *a += *b;
        }
        for (a, b) in self.leaf_out_msgs.iter_mut().zip(&other.leaf_out_msgs) {
            *a += *b;
        }
    }

    /// Folds stats from a *differently-shaped* deployment segment into
    /// this accumulator — the segmented driver's case
    /// ([`crate::runner::churn`]), where one logical run crosses two (or
    /// more) topology plans and
    /// [`CommStats::absorb`] would rightly refuse the shape mismatch.
    ///
    /// The scalars that are shape-independent sum exactly (`up_msgs`,
    /// `up_cost`, broadcast events/cost, arrivals, per-leaf send
    /// counts — site ids are stable across re-plans). Per-hop and
    /// per-node traffic cannot keep its structure across plans, so it
    /// collapses conservatively: every level's up-traffic folds onto
    /// this accumulator's *last* hop-level entry and every node's
    /// fan-in onto the root entry — preserving [`CommStats::total`] and
    /// the root-pressure reading (`node_in_msgs` root = everything that
    /// transited the segment), at the price of per-level attribution
    /// for the folded segment. Callers that need per-plan shape keep
    /// the per-segment stats alongside.
    ///
    /// # Panics
    /// Debug-panics when the two stat blocks disagree on `m`.
    pub fn absorb_reshaped(&mut self, other: &CommStats) {
        debug_assert_eq!(
            self.sites, other.sites,
            "absorbing stats from different deployments"
        );
        self.up_msgs += other.up_msgs;
        self.up_cost += other.up_cost;
        self.broadcast_events += other.broadcast_events;
        self.broadcast_deliveries += other.broadcast_deliveries;
        self.broadcast_reach += other.broadcast_reach;
        self.broadcast_peak_out += other.broadcast_peak_out;
        self.broadcast_lag_rounds += other.broadcast_lag_rounds;
        self.broadcast_stale += other.broadcast_stale;
        self.bytes_up += other.bytes_up;
        self.bytes_down += other.bytes_down;
        self.arrivals += other.arrivals;
        let last = self.per_level.len().saturating_sub(1);
        if let Some(l) = self.per_level.get_mut(last) {
            for b in &other.per_level {
                l.up_msgs += b.up_msgs;
                l.up_cost += b.up_cost;
                l.up_bytes += b.up_bytes;
                l.broadcast_msgs += b.broadcast_msgs;
            }
        }
        let root = self.node_in_msgs.len().saturating_sub(1);
        if let Some(r) = self.node_in_msgs.get_mut(root) {
            *r += other.node_in_msgs.iter().sum::<u64>();
        }
        for (a, b) in self.leaf_out_msgs.iter_mut().zip(&other.leaf_out_msgs) {
            *a += *b;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::Topology;

    #[test]
    fn totals_price_broadcasts_by_fanout() {
        let mut s = CommStats::new(10);
        s.record_up(3, 24);
        s.record_up(1, 8);
        s.record_broadcast(10, 8);
        assert_eq!(s.up_msgs, 2);
        assert_eq!(s.up_cost, 4);
        assert_eq!(s.broadcast_events, 1);
        assert_eq!(s.broadcast_deliveries, 10);
        assert_eq!(s.broadcast_reach, 10);
        assert_eq!(s.total(), 4 + 10);
        assert_eq!(s.bytes_up, 32);
        assert_eq!(s.bytes_down, 80);
        assert_eq!(s.node_in_msgs, vec![2]);
    }

    #[test]
    fn tree_shape_tracks_per_level() {
        let plan = Topology::Tree { fanout: 2 }.plan(4); // levels [2]
        let mut s = CommStats::for_plan(&plan);
        assert_eq!(s.per_level.len(), 2);
        assert_eq!(s.node_in_msgs.len(), 3); // two interior + root
        assert_eq!(s.max_fan_in, 2);
        s.record_hop(0, 5, 40);
        s.record_hop(1, 5, 40);
        s.record_recv(0); // interior
        s.record_recv(2); // root
        s.begin_broadcast();
        s.record_broadcast_level(1, 2, 8); // root → interior
        s.record_broadcast_level(0, 4, 8); // interior → leaves
        assert_eq!(s.total(), 5 + 5 + 6);
        assert_eq!(s.up_msgs, 1); // leaf hop only
        assert_eq!(s.bytes_up, 80); // both hops count toward wire bytes
        assert_eq!(s.per_level[0].up_bytes, 40);
        assert_eq!(s.bytes_down, 48);
        assert_eq!(s.max_node_in_msgs(), 1);
    }

    #[test]
    fn absorb_sums_fields() {
        let mut a = CommStats::new(5);
        a.record_up(2, 16);
        let mut b = CommStats::new(5);
        b.record_up(7, 56);
        b.record_broadcast(5, 8);
        a.absorb(&b);
        assert_eq!(a.up_cost, 9);
        assert_eq!(a.broadcast_events, 1);
        assert_eq!(a.total(), 9 + 5);
        assert_eq!(a.bytes_up, 72);
        assert_eq!(a.bytes_down, 40);
        assert_eq!(a.node_in_msgs, vec![2]);
    }

    #[test]
    fn default_is_zero() {
        let s = CommStats::new(3);
        assert_eq!(s.total(), 0);
        assert_eq!(s.max_node_in_msgs(), 0);
    }
}
