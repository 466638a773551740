//! The **broadcast plane**: how a coordinator broadcast (`Ŵ`, spectral
//! thresholds, window budgets) reaches the deployment's nodes.
//!
//! The fan-*in* wall is solved by the aggregation tree
//! ([`crate::Topology`]); the fan-*out* wall is this module's problem.
//! Every protocol in the paper re-broadcasts its global estimate to all
//! `m` sites, and charging one delivery per recipient means the root
//! pushes `m + I` frames per event — at `m = 65536` that fan-out is the
//! measured scaling wall (~23 M deliveries per bench run). The plane is
//! pluggable and orthogonal to the fan-in topology:
//!
//! * [`BroadcastPlane::RootFanOut`] — the paper's model, literally: the
//!   root sends one frame to every interior node and every leaf. Root
//!   out-degree `m + I`, one round of lag, zero redundancy.
//! * [`BroadcastPlane::TreeCascade`] — frames cascade down the
//!   aggregation tree, each node forwarding to its children. Per-node
//!   out-degree is the tree fanout, lag is the tree depth. This is the
//!   historical behaviour of all drivers and the default.
//! * [`BroadcastPlane::Gossip`] — bounded-degree push–pull
//!   anti-entropy (Demers et al.; SNIPPETS.md snippet 2): each node
//!   holding the newest frame pushes it to `fanout` deterministically
//!   seeded peers per round, for at most `rounds` rounds. Per-node
//!   out-degree is `O(fanout · rounds)` **independent of `m`**; the
//!   price is redundancy (measured in
//!   [`CommStats::broadcast_deliveries`] vs
//!   [`CommStats::broadcast_reach`]) and staleness (leaves an event did
//!   not reach, measured in [`CommStats::broadcast_stale`]).
//!
//! # Versioned frames and idempotence
//!
//! Gossip frames are versioned ([`crate::wire::GossipFrame`]): the
//! coordinator stamps every broadcast event with the next value of a
//! monotone counter, and a node adopts a frame only when its version
//! exceeds the one the node holds. Duplicated frames (same version
//! twice) and reordered/late frames (older version after newer) are
//! refused by the monotone check, so the faults a [`crate::SimNet`]
//! wire manufactures are idempotent on threshold state — a stale `Ŵ`
//! can never regress a site. A frame released late by the wire can
//! still advance the *version bookkeeping* of a node that missed it,
//! but its payload is superseded; the node stays functionally stale
//! until a fresh frame reaches it, which is safe (below).
//!
//! # Why staleness is safe
//!
//! A leaf the event did not reach keeps its previous — older, smaller —
//! thresholds. For the monotone protocols (HH-P1…P4, MT-P1…P4) a
//! smaller threshold only makes the site *send sooner* than necessary:
//! communication goes up a little, no guarantee moves. For the sliding-
//! window protocols the certified [`WindowErrorBound`] already charges
//! withheld mass against `Ŵ_peak` — the largest estimate ever
//! broadcast — precisely so that sites acting on stale (by up to `r`
//! rounds) estimates stay inside the bound; gossip staleness lands in
//! the same term. [`CommStats::broadcast_stale`] measures it per run.
//!
//! # Determinism and fault composition
//!
//! Peer selection is a pure function of `(seed, version, round,
//! pusher)` via a SplitMix64-style mixer: two runs over the same plan
//! and seed gossip identically, and no `m`-dependent state is shared
//! between events. Gossip edges are ordinary [`Transport`] links
//! (`net.link(from, to, false)`), so a [`crate::SimNet`] fault plan
//! applies per-edge drops/duplicates/delays/reorders to gossip frames
//! exactly as it does to tree traffic — and the [`crate::FaultLink`]s
//! are cached per edge, keeping each link's deterministic fault
//! schedule intact across events.
//!
//! [`CommStats::broadcast_deliveries`]: crate::CommStats::broadcast_deliveries
//! [`CommStats::broadcast_reach`]: crate::CommStats::broadcast_reach
//! [`CommStats::broadcast_stale`]: crate::CommStats::broadcast_stale
//! [`WindowErrorBound`]: crate::CommStats

use std::collections::BTreeMap;

use crate::comm::CommStats;
use crate::topology::TopologyPlan;
use crate::transport::{FaultLink, Transport};
use crate::SiteId;

/// How coordinator broadcasts are disseminated. See the module docs for
/// the trade-offs; [`BroadcastPlane::TreeCascade`] is the default and
/// reproduces the historical behaviour of every driver bit for bit.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub enum BroadcastPlane {
    /// The paper's model: the root sends one frame per recipient
    /// (every interior node and every leaf). `O(m)` root out-degree.
    RootFanOut,
    /// Frames cascade down the aggregation tree, each node forwarding
    /// to its children. Out-degree = tree fanout, lag = tree depth.
    /// Identical to [`BroadcastPlane::RootFanOut`] on a flat plan.
    #[default]
    TreeCascade,
    /// Push–pull anti-entropy rounds over the leaves (interiors still
    /// hear frames over the interior cascade — they are `O(I)` relay
    /// infrastructure, not the `O(m)` wall). Per-node out-degree
    /// `O(fanout · rounds)`, independent of `m`.
    Gossip {
        /// Peers each infected node pushes to per round (`≥ m` pushes
        /// to every leaf, degenerating round 1 to
        /// [`BroadcastPlane::RootFanOut`] message-for-message).
        fanout: usize,
        /// Maximum rounds per event; dissemination stops early once
        /// every leaf adopted. Residual staleness is measured in
        /// [`crate::CommStats::broadcast_stale`].
        rounds: usize,
        /// Seed of the deterministic peer selection.
        seed: u64,
    },
}

impl BroadcastPlane {
    /// True for the gossip plane (the drivers route leaf delivery
    /// through the plane's adopter set instead of fanning out).
    pub fn is_gossip(&self) -> bool {
        matches!(self, BroadcastPlane::Gossip { .. })
    }
}

/// The leaves one broadcast event reached, as reported by
/// [`BroadcastState::disseminate`]. The driver delivers the payload to
/// exactly these sites; everyone else stays (safely) stale.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LeafSet {
    /// Every leaf (the structural planes).
    All,
    /// The leaves that adopted a fresh frame this event, in adoption
    /// order (gossip).
    Subset(Vec<SiteId>),
}

/// SplitMix64 step — the per-push peer-selection RNG. Pure function of
/// its seed, no shared state.
fn splitmix(z: &mut u64) -> u64 {
    *z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut x = *z;
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// Per-run dissemination state of the broadcast plane.
///
/// Owned by whatever plays the root (the sequential runner's core, the
/// pooled engine's root loop): every broadcast event passes
/// through [`BroadcastState::disseminate`], which stamps the monotone
/// version, performs the plane's rounds (charging
/// [`CommStats`] per edge actually crossed), and returns the
/// [`LeafSet`] the driver must physically deliver the payload to.
///
/// The segmented driver ([`crate::runner::churn`]) rebuilds this state
/// per segment: the version counter restarts, which is sound because
/// versions only order events *within* one plane instance, and a fresh
/// instance treats every node as stale (first event re-disseminates to
/// everyone it reaches).
#[derive(Debug)]
pub struct BroadcastState {
    plane: BroadcastPlane,
    /// Monotone event counter (version stamped on the next event).
    version: u64,
    /// Highest version each leaf has adopted (or been announced via a
    /// late frame); index = site id.
    leaf_version: Vec<u64>,
    /// Cached gossip-edge fault links, keyed `(from, to)` in transport
    /// node ids; messages carry `(version, frame_bytes)`. Only
    /// populated under a non-transparent transport.
    links: BTreeMap<(usize, usize), FaultLink<(u64, u64)>>,
    /// Scratch: per-event adoption flags.
    adopted: Vec<bool>,
    /// Scratch: per-event per-leaf outbound frame counts.
    out_leaf: Vec<u32>,
    /// Scratch: wire delivery buffer.
    wire_buf: Vec<(u64, u64)>,
}

impl BroadcastState {
    /// Fresh state for an `m`-leaf deployment.
    pub fn new(plane: BroadcastPlane, m: usize) -> Self {
        BroadcastState {
            plane,
            version: 0,
            leaf_version: vec![0; m],
            links: BTreeMap::new(),
            adopted: vec![false; m],
            out_leaf: vec![0; m],
            wire_buf: Vec::new(),
        }
    }

    /// The configured plane.
    pub fn plane(&self) -> BroadcastPlane {
        self.plane
    }

    /// True when leaf delivery is gossip-routed (drivers keep direct
    /// leaf channels and skip the structural cascade).
    pub fn is_gossip(&self) -> bool {
        self.plane.is_gossip()
    }

    /// The current (latest stamped) version.
    pub fn version(&self) -> u64 {
        self.version
    }

    /// The highest version leaf `sid` has adopted.
    pub fn leaf_version(&self, sid: SiteId) -> u64 {
        self.leaf_version[sid]
    }

    /// Disseminates one broadcast event whose payload encodes to
    /// `payload_bytes`, charging `stats` one delivery per edge actually
    /// crossed, and returns the leaves the driver must deliver the
    /// payload to. Interior nodes are charged here for every plane
    /// (they always hear each event); the caller applies them as
    /// before.
    pub fn disseminate(
        &mut self,
        plan: &TopologyPlan,
        payload_bytes: u64,
        stats: &mut CommStats,
        net: &dyn Transport,
    ) -> LeafSet {
        self.version += 1;
        let v = self.version;
        let m = plan.sites();
        debug_assert_eq!(
            self.leaf_version.len(),
            m,
            "plane sized for this deployment"
        );
        let levels = plan.levels();
        stats.begin_broadcast();
        match self.plane {
            BroadcastPlane::RootFanOut | BroadcastPlane::TreeCascade => {
                for (li, &count) in levels.iter().enumerate().rev() {
                    stats.record_broadcast_level(li + 1, count as u64, payload_bytes);
                }
                stats.record_broadcast_level(0, m as u64, payload_bytes);
                for lv in &mut self.leaf_version {
                    *lv = v;
                }
                let interior = plan.internal_nodes() as u64;
                let (peak, lag) = match self.plane {
                    BroadcastPlane::RootFanOut => (m as u64 + interior, 1),
                    _ if plan.is_flat() => (m as u64, 1),
                    _ => (plan.max_fan_in() as u64, plan.internal_levels() as u64 + 1),
                };
                stats.record_broadcast_shape(peak, lag, 0);
                LeafSet::All
            }
            BroadcastPlane::Gossip {
                fanout,
                rounds,
                seed,
            } => {
                let frame = 8 + payload_bytes; // GossipFrame: version + payload
                for (li, &count) in levels.iter().enumerate().rev() {
                    stats.record_broadcast_level(li + 1, count as u64, frame);
                }
                self.gossip_leaves(plan, fanout.max(1), rounds, seed, v, frame, stats, net)
            }
        }
    }

    /// The push–pull rounds over the leaves (plus the root as the
    /// initial pusher). Returns the adopters.
    #[allow(clippy::too_many_arguments)]
    fn gossip_leaves(
        &mut self,
        plan: &TopologyPlan,
        fanout: usize,
        rounds: usize,
        seed: u64,
        v: u64,
        frame: u64,
        stats: &mut CommStats,
        net: &dyn Transport,
    ) -> LeafSet {
        let m = plan.sites();
        let root_id = plan.root_node_id();
        let transparent = net.is_transparent();
        self.adopted.iter_mut().for_each(|a| *a = false);
        self.out_leaf.iter_mut().for_each(|o| *o = 0);
        let mut adopters: Vec<SiteId> = Vec::new();
        // The interior cascade the root also feeds (charged in
        // `disseminate`): its top-level children count toward the
        // root's out-degree.
        let mut root_out: u64 = plan.levels().last().copied().unwrap_or(0) as u64;
        let mut rounds_run: u64 = 0;
        let v_mix = {
            let mut z = v ^ 0xa076_1d64_78bd_642f;
            splitmix(&mut z)
        };
        let mut wire = std::mem::take(&mut self.wire_buf);
        for round in 0..rounds {
            if adopters.len() == m {
                break;
            }
            rounds_run += 1;
            let frontier = adopters.len();
            // Pushers this round: the root, then every leaf that
            // adopted in an earlier round (snapshot — nodes adopting
            // *this* round start pushing next round).
            for pi in 0..=frontier {
                let (pid, is_root) = if pi == 0 {
                    (root_id, true)
                } else {
                    (adopters[pi - 1], false)
                };
                // Deterministic peer draw: a pure function of
                // (seed, version, round, pusher). `fanout ≥ m` pushes
                // to every leaf in id order — the degenerate config
                // that pins gossip to RootFanOut message-for-message.
                let exhaustive = fanout >= m;
                let mut rng = seed
                    ^ v_mix
                    ^ ((round as u64) << 32)
                    ^ (pid as u64).wrapping_mul(0x517c_c1b7_2722_0a95);
                let draws = if exhaustive { m } else { fanout };
                for k in 0..draws {
                    let q = if exhaustive {
                        k
                    } else {
                        (splitmix(&mut rng) % m as u64) as usize
                    };
                    if !is_root && q == pid {
                        continue;
                    }
                    if is_root {
                        root_out += 1;
                    } else {
                        self.out_leaf[pid] += 1;
                    }
                    if transparent {
                        stats.record_broadcast_edge(0, frame);
                        if self.leaf_version[q] < v {
                            self.leaf_version[q] = v;
                            if !self.adopted[q] {
                                self.adopted[q] = true;
                                adopters.push(q);
                                stats.record_broadcast_adopt(1);
                            }
                        }
                        continue;
                    }
                    // Faulty wire: the edge's cached link applies its
                    // deterministic fault schedule; whatever it
                    // delivers *now* (possibly a duplicate, possibly a
                    // frame held from an earlier event) is processed
                    // under the monotone version check.
                    let link = self
                        .links
                        .entry((pid, q))
                        .or_insert_with(|| FaultLink::new(net.link(pid, q, false)));
                    wire.clear();
                    link.receive((v, frame), 0.0, &mut wire);
                    let mut reply_to_stale_sender = false;
                    for &(vd, fb) in wire.iter() {
                        stats.record_broadcast_edge(0, fb);
                        if vd > self.leaf_version[q] {
                            self.leaf_version[q] = vd;
                            if vd == v && !self.adopted[q] {
                                self.adopted[q] = true;
                                adopters.push(q);
                                stats.record_broadcast_adopt(1);
                            }
                            // vd < v: a late frame advanced the
                            // version bookkeeping, but its payload is
                            // superseded — the node stays stale until
                            // a fresh frame reaches it (safe).
                        } else if vd < self.leaf_version[q]
                            && self.leaf_version[q] == v
                            && !is_root
                            && self.leaf_version[pid] < v
                        {
                            // Pull-back reconciliation: the receiver
                            // is current, the frame (and so possibly
                            // its sender) is stale — answer the sender
                            // with our fresh frame.
                            reply_to_stale_sender = true;
                        }
                        // vd == leaf_version[q]: duplicate of what the
                        // node already holds; monotone check refuses.
                    }
                    if reply_to_stale_sender {
                        self.out_leaf[q] += 1;
                        let back = self
                            .links
                            .entry((q, pid))
                            .or_insert_with(|| FaultLink::new(net.link(q, pid, false)));
                        wire.clear();
                        back.receive((v, frame), 0.0, &mut wire);
                        for &(vd, fb) in wire.iter() {
                            stats.record_broadcast_edge(0, fb);
                            if vd > self.leaf_version[pid] {
                                self.leaf_version[pid] = vd;
                                if vd == v && !self.adopted[pid] {
                                    self.adopted[pid] = true;
                                    adopters.push(pid);
                                    stats.record_broadcast_adopt(1);
                                }
                            }
                        }
                    }
                }
            }
        }
        self.wire_buf = wire;
        let leaf_peak = self.out_leaf.iter().copied().max().unwrap_or(0) as u64;
        // Interior nodes above level 0 forward to at most `fanout`
        // interior children over the cascade.
        let interior_peak = if plan.internal_levels() > 1 {
            plan.fanout() as u64
        } else {
            0
        };
        let peak = root_out.max(leaf_peak).max(interior_peak);
        let stale = (m - adopters.len()) as u64;
        stats.record_broadcast_shape(peak, rounds_run, stale);
        LeafSet::Subset(adopters)
    }

    /// Closes the plane's cached fault links (end of run): frames still
    /// held by the simulated wire release now and are charged as late
    /// deliveries — late, never silently lost. Their payloads are
    /// superseded, so only version bookkeeping can advance.
    pub fn close(&mut self, stats: &mut CommStats) {
        let mut wire = std::mem::take(&mut self.wire_buf);
        for ((_, to), mut link) in std::mem::take(&mut self.links) {
            wire.clear();
            link.close(&mut wire);
            for &(vd, fb) in wire.iter() {
                stats.record_broadcast_edge(0, fb);
                if let Some(lv) = self.leaf_version.get_mut(to) {
                    if vd > *lv {
                        *lv = vd;
                    }
                }
            }
        }
        self.wire_buf = wire;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::Topology;
    use crate::transport::ChannelTransport;

    fn stats_for(plan: &TopologyPlan) -> CommStats {
        CommStats::for_plan(plan)
    }

    #[test]
    fn tree_cascade_matches_structural_charging() {
        let plan = Topology::Tree { fanout: 2 }.plan(8);
        let mut st = BroadcastState::new(BroadcastPlane::TreeCascade, 8);
        let mut s = stats_for(&plan);
        let set = st.disseminate(&plan, 8, &mut s, &ChannelTransport);
        assert_eq!(set, LeafSet::All);
        let recipients = 8 + plan.internal_nodes() as u64;
        assert_eq!(s.broadcast_deliveries, recipients);
        assert_eq!(s.broadcast_reach, recipients);
        assert_eq!(s.bytes_down, recipients * 8);
        assert_eq!(s.broadcast_stale, 0);
    }

    #[test]
    fn degenerate_gossip_is_root_fan_out_message_for_message() {
        let m = 16;
        let plan = Topology::Star.plan(m);
        let mut fan = BroadcastState::new(BroadcastPlane::RootFanOut, m);
        let mut gos = BroadcastState::new(
            BroadcastPlane::Gossip {
                fanout: m,
                rounds: 1,
                seed: 7,
            },
            m,
        );
        let mut sf = stats_for(&plan);
        let mut sg = stats_for(&plan);
        let a = fan.disseminate(&plan, 8, &mut sf, &ChannelTransport);
        let b = gos.disseminate(&plan, 8, &mut sg, &ChannelTransport);
        assert_eq!(a, LeafSet::All);
        assert_eq!(b, LeafSet::Subset((0..m).collect()));
        assert_eq!(sf.broadcast_deliveries, sg.broadcast_deliveries);
        assert_eq!(sf.broadcast_reach, sg.broadcast_reach);
        assert_eq!(sf.broadcast_events, sg.broadcast_events);
        assert_eq!(
            sf.per_level[0].broadcast_msgs,
            sg.per_level[0].broadcast_msgs
        );
        assert_eq!(sf.broadcast_peak_out, sg.broadcast_peak_out);
        // Gossip frames carry an 8-byte version header per delivery.
        assert_eq!(sg.bytes_down, sf.bytes_down + 8 * sg.broadcast_deliveries);
        assert_eq!(sg.broadcast_stale, 0);
    }

    #[test]
    fn gossip_coverage_grows_and_out_degree_is_bounded() {
        let m = 256;
        let plan = Topology::Star.plan(m);
        let fanout = 3;
        let rounds = 16;
        let mut st = BroadcastState::new(
            BroadcastPlane::Gossip {
                fanout,
                rounds,
                seed: 42,
            },
            m,
        );
        let mut s = stats_for(&plan);
        let set = st.disseminate(&plan, 8, &mut s, &ChannelTransport);
        let LeafSet::Subset(adopters) = set else {
            panic!("gossip returns a subset");
        };
        assert!(
            adopters.len() > m / 2,
            "16 rounds of fanout-3 gossip must cover most of 256 leaves (got {})",
            adopters.len()
        );
        assert_eq!(s.broadcast_reach, adopters.len() as u64);
        assert_eq!(s.broadcast_stale, (m - adopters.len()) as u64);
        // Per-node out-degree is O(fanout · rounds), independent of m.
        assert!(
            s.broadcast_peak_out <= (fanout * rounds) as u64,
            "peak out {} exceeds fanout*rounds {}",
            s.broadcast_peak_out,
            fanout * rounds
        );
        // Redundancy exists but is bounded by the pushes performed.
        assert!(s.broadcast_deliveries >= s.broadcast_reach);
    }

    #[test]
    fn gossip_is_deterministic() {
        let m = 64;
        let plan = Topology::Star.plan(m);
        let plane = BroadcastPlane::Gossip {
            fanout: 2,
            rounds: 8,
            seed: 9,
        };
        let run = || {
            let mut st = BroadcastState::new(plane, m);
            let mut s = stats_for(&plan);
            let sets: Vec<LeafSet> = (0..3)
                .map(|_| st.disseminate(&plan, 8, &mut s, &ChannelTransport))
                .collect();
            (sets, s)
        };
        let (a_sets, a_stats) = run();
        let (b_sets, b_stats) = run();
        assert_eq!(a_sets, b_sets);
        assert_eq!(a_stats, b_stats);
    }

    #[test]
    fn versions_are_monotone_per_event() {
        let m = 8;
        let plan = Topology::Star.plan(m);
        let mut st = BroadcastState::new(
            BroadcastPlane::Gossip {
                fanout: m,
                rounds: 1,
                seed: 1,
            },
            m,
        );
        let mut s = stats_for(&plan);
        st.disseminate(&plan, 8, &mut s, &ChannelTransport);
        assert_eq!(st.version(), 1);
        for sid in 0..m {
            assert_eq!(st.leaf_version(sid), 1);
        }
        st.disseminate(&plan, 8, &mut s, &ChannelTransport);
        assert_eq!(st.version(), 2);
        for sid in 0..m {
            assert_eq!(st.leaf_version(sid), 2);
        }
    }
}
