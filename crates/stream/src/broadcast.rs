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
//!   anti-entropy (Demers et al.; Karp et al., "Randomized Rumor
//!   Spreading"; SNIPPETS.md snippet 2): holders of the newest frame
//!   push it to `fanout` deterministically seeded peers per round until
//!   pushing would cost more than pulling, then every leaf pulls (below),
//!   for at most `rounds` rounds. No node sends more than `fanout`
//!   messages in any round, so per-node out-degree is at most
//!   `fanout · rounds` **independent of `m`**; the price is redundancy
//!   (measured in [`CommStats::broadcast_deliveries`] vs
//!   [`CommStats::broadcast_reach`]) and staleness (leaves an event did
//!   not reach, measured in [`CommStats::broadcast_stale`]).
//!
//! # Push, then pull
//!
//! A push round costs `fanout` frames per holder, and once the holders
//! number `m / fanout` most of them land on leaves that already hold the
//! frame — the coupon-collector tail. So a round is a **pull round** once
//! `adopters · fanout ≥ m`, where a push round would cost at least the
//! `m` digests of a pull round: every leaf sends one 8-byte
//! [`crate::wire::GossipDigest`] (its version) to one peer drawn from
//! `(seed, version, round, asker)` under a salt of its own, and a peer
//! that adopted in an *earlier* round answers a stale asker with the
//! frame. Adoptions take effect for the next round, as in push rounds. A
//! responder answers at most `fanout − 1` askers per round, so with its
//! own digest no leaf sends more than `fanout` messages in any round.
//!
//! Every digest is charged — one delivery and 8 bytes — even when its
//! sender turns out to be current: a leaf cannot know that it is stale,
//! so it must ask. Letting only stale leaves pull would look cheaper
//! (at `m = 65536`, `Gossip{4, 24, 1}`: ≈ 1.9 messages per leaf
//! instead of ≈ 5.4) only by assuming that knowledge, so it is not
//! modelled. `fanout ≥ m` keeps the exhaustive round-0 push,
//! degenerating to [`BroadcastPlane::RootFanOut`] message for message.
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
//! window protocols the certified `WindowErrorBound` (`cma_core::window`)
//! already charges withheld mass against `Ŵ_peak` — the largest estimate
//! ever broadcast — precisely so that sites acting on stale (by up to
//! `r` rounds) estimates stay inside the bound; gossip staleness lands
//! in the same term. [`CommStats::broadcast_stale`] measures it per run.
//!
//! # Determinism and fault composition
//!
//! Peer selection is a pure function of `(seed, version, round, node)`
//! via a SplitMix64-style mixer: two runs over the same plan and seed
//! gossip identically, and no `m`-dependent state is shared between
//! events. Gossip edges are ordinary [`Transport`] links
//! (`net.link(from, to, false)`), so a [`crate::SimNet`] fault plan
//! applies per-edge drops/duplicates/delays/reorders to gossip traffic
//! exactly as it does to tree traffic, and the [`crate::FaultLink`]s are
//! cached per edge, keeping each link's deterministic fault schedule
//! intact across events. Digests ride their own links, one per
//! (asker, responder) edge, never the frame links, so a duplicated or
//! late digest can never be adopted as a frame — at worst it earns its
//! asker a reply that the monotone check refuses. Replies ride the
//! ordinary frame link of the (responder, asker) edge.
//!
//! [`CommStats::broadcast_deliveries`]: crate::CommStats::broadcast_deliveries
//! [`CommStats::broadcast_reach`]: crate::CommStats::broadcast_reach
//! [`CommStats::broadcast_stale`]: crate::CommStats::broadcast_stale

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
        /// Peers each holder pushes to per round, and the per-round cap
        /// on any node's messages (`≥ m` pushes to every leaf,
        /// degenerating round 1 to [`BroadcastPlane::RootFanOut`]
        /// message-for-message).
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

/// SplitMix64 step — the per-node peer-selection RNG. Pure function of
/// its seed, no shared state.
fn splitmix(z: &mut u64) -> u64 {
    *z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut x = *z;
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// The version's contribution to every peer draw of its event.
fn version_mix(v: u64) -> u64 {
    let mut z = v ^ 0xa076_1d64_78bd_642f;
    splitmix(&mut z)
}

/// Seed of `node`'s peer draws in `round` of the event whose
/// [`version_mix`] is `v_mix`. Pull draws pass `seed ^ PULL_SALT`.
fn draw_seed(seed: u64, v_mix: u64, round: usize, node: usize) -> u64 {
    seed ^ v_mix ^ ((round as u64) << 32) ^ (node as u64).wrapping_mul(0x517c_c1b7_2722_0a95)
}

/// Separates a leaf's pull draw from its push draws in the same round.
const PULL_SALT: u64 = 0x2545_f491_4f6c_dd1d;

/// Encoded size of a [`crate::wire::GossipDigest`].
const DIGEST_BYTES: u64 = 8;

/// `adopted_round` of a leaf that has not adopted the current event.
const NOT_ADOPTED: u32 = u32::MAX;

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
    /// Cached gossip frame links, keyed `(from, to)` in transport node
    /// ids; messages carry `(version, frame_bytes)`. Only populated
    /// under a non-transparent transport.
    links: BTreeMap<(usize, usize), FaultLink<(u64, u64)>>,
    /// Cached pull-digest links, keyed `(asker, responder)`; messages
    /// carry the asker's version. Only populated under a
    /// non-transparent transport.
    digest_links: BTreeMap<(usize, usize), FaultLink<u64>>,
    /// Scratch: the round each leaf adopted the current event in.
    adopted_round: Vec<u32>,
    /// Scratch: per-event per-leaf outbound message counts.
    out_leaf: Vec<u32>,
    /// Scratch: per-leaf replies sent in the current pull round.
    replies: Vec<u32>,
    /// Scratch: frame wire delivery buffer.
    wire_buf: Vec<(u64, u64)>,
    /// Scratch: digest wire delivery buffer.
    digest_buf: Vec<u64>,
}

impl BroadcastState {
    /// Fresh state for an `m`-leaf deployment.
    pub fn new(plane: BroadcastPlane, m: usize) -> Self {
        BroadcastState {
            plane,
            version: 0,
            leaf_version: vec![0; m],
            links: BTreeMap::new(),
            digest_links: BTreeMap::new(),
            adopted_round: vec![NOT_ADOPTED; m],
            out_leaf: vec![0; m],
            replies: vec![0; m],
            wire_buf: Vec::new(),
            digest_buf: Vec::new(),
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
                let net = (!net.is_transparent()).then_some(net);
                self.gossip_leaves(plan, fanout.max(1), rounds, seed, frame, stats, net)
            }
        }
    }

    /// The push and pull rounds over the leaves (plus the root as the
    /// initial pusher) for the current version. `net` is `None` on a
    /// transparent wire. Returns the adopters.
    #[allow(clippy::too_many_arguments)]
    fn gossip_leaves(
        &mut self,
        plan: &TopologyPlan,
        fanout: usize,
        rounds: usize,
        seed: u64,
        frame: u64,
        stats: &mut CommStats,
        net: Option<&dyn Transport>,
    ) -> LeafSet {
        let m = plan.sites();
        let root_id = plan.root_node_id();
        self.adopted_round.fill(NOT_ADOPTED);
        self.out_leaf.fill(0);
        let mut adopters: Vec<SiteId> = Vec::new();
        // The interior cascade the root also feeds (charged in
        // `disseminate`): its top-level children count toward the
        // root's out-degree.
        let mut root_out: u64 = plan.levels().last().copied().unwrap_or(0) as u64;
        let mut rounds_run: u64 = 0;
        let v_mix = version_mix(self.version);
        for round in 0..rounds {
            if adopters.len() == m {
                break;
            }
            rounds_run += 1;
            // Holders this round: every leaf that adopted in an earlier
            // round (nodes adopting *this* round act from the next).
            let frontier = adopters.len();
            if frontier.saturating_mul(fanout) >= m {
                // Pull round — a push round would now cost ≥ m: each
                // leaf asks one peer, and a holder answers a stale
                // asker at most `fanout − 1` times, so with its own
                // digest no leaf sends more than `fanout` this round.
                self.replies.fill(0);
                for asker in 0..m {
                    let mut rng = draw_seed(seed ^ PULL_SALT, v_mix, round, asker);
                    let r = (splitmix(&mut rng) % m as u64) as usize;
                    if r == asker {
                        continue;
                    }
                    self.out_leaf[asker] += 1;
                    if self.send_digest(asker, r, stats, net)
                        && self.adopted_round[r] < round as u32
                        && (self.replies[r] as usize) + 1 < fanout
                    {
                        self.replies[r] += 1;
                        self.out_leaf[r] += 1;
                        self.send_frame(r, asker, frame, round, &mut adopters, stats, net);
                    }
                }
                continue;
            }
            // Push round: the root, then the holders. `fanout ≥ m`
            // pushes to every leaf in id order — the degenerate config
            // that pins gossip to RootFanOut message-for-message.
            let exhaustive = fanout >= m;
            let draws = if exhaustive { m } else { fanout };
            for pi in 0..=frontier {
                let (pid, is_root) = if pi == 0 {
                    (root_id, true)
                } else {
                    (adopters[pi - 1], false)
                };
                let mut rng = draw_seed(seed, v_mix, round, pid);
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
                    self.send_frame(pid, q, frame, round, &mut adopters, stats, net);
                }
            }
        }
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

    /// Sends the current frame `from → to` and applies whatever the wire
    /// delivers *now* (on a faulty wire possibly nothing, a duplicate, or
    /// a frame held from an earlier event) under the monotone version
    /// check; a fresh adoption is stamped with `round`.
    #[allow(clippy::too_many_arguments)]
    fn send_frame(
        &mut self,
        from: usize,
        to: SiteId,
        frame: u64,
        round: usize,
        adopters: &mut Vec<SiteId>,
        stats: &mut CommStats,
        net: Option<&dyn Transport>,
    ) {
        let v = self.version;
        let Some(net) = net else {
            stats.record_broadcast_edge(0, frame);
            if self.leaf_version[to] < v {
                self.leaf_version[to] = v;
                self.adopted_round[to] = round as u32;
                adopters.push(to);
                stats.record_broadcast_adopt(1);
            }
            return;
        };
        let mut wire = std::mem::take(&mut self.wire_buf);
        wire.clear();
        self.links
            .entry((from, to))
            .or_insert_with(|| FaultLink::new(net.link(from, to, false)))
            .receive((v, frame), 0.0, &mut wire);
        for &(vd, fb) in &wire {
            stats.record_broadcast_edge(0, fb);
            if vd > self.leaf_version[to] {
                self.leaf_version[to] = vd;
                if vd == v {
                    self.adopted_round[to] = round as u32;
                    adopters.push(to);
                    stats.record_broadcast_adopt(1);
                }
                // vd < v: a late frame advanced the version
                // bookkeeping, but its payload is superseded — the node
                // stays stale until a fresh frame reaches it (safe).
            }
        }
        self.wire_buf = wire;
    }

    /// Sends `asker`'s digest to `responder`, charging every copy the
    /// wire delivers, and returns whether a delivered digest shows the
    /// asker behind the current version.
    fn send_digest(
        &mut self,
        asker: SiteId,
        responder: SiteId,
        stats: &mut CommStats,
        net: Option<&dyn Transport>,
    ) -> bool {
        let v = self.version;
        let Some(net) = net else {
            stats.record_broadcast_edge(0, DIGEST_BYTES);
            return self.leaf_version[asker] < v;
        };
        let mut wire = std::mem::take(&mut self.digest_buf);
        wire.clear();
        self.digest_links
            .entry((asker, responder))
            .or_insert_with(|| FaultLink::new(net.link(asker, responder, false)))
            .receive(self.leaf_version[asker], 0.0, &mut wire);
        let mut stale = false;
        for &dv in &wire {
            stats.record_broadcast_edge(0, DIGEST_BYTES);
            stale |= dv < v;
        }
        self.digest_buf = wire;
        stale
    }

    /// Closes the plane's cached fault links (end of run): frames and
    /// digests still held by the simulated wire release now and are
    /// charged as late deliveries — late, never silently lost. Frame
    /// payloads are superseded, so only version bookkeeping can advance;
    /// a late digest has no round left to be answered in.
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
        let mut digests = std::mem::take(&mut self.digest_buf);
        for (_, mut link) in std::mem::take(&mut self.digest_links) {
            digests.clear();
            link.close(&mut digests);
            for _ in &digests {
                stats.record_broadcast_edge(0, DIGEST_BYTES);
            }
        }
        self.digest_buf = digests;
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

    /// The pull phase closes the coupon-collector tail: at m = 4096 every
    /// event reaches every leaf, no node sends more than `fanout` per
    /// round, and the whole event costs under six messages per leaf.
    #[test]
    fn pull_phase_reaches_every_leaf_within_bounded_cost() {
        let m = 4096;
        let (fanout, rounds) = (4, 24);
        let plan = Topology::Star.plan(m);
        for seed in [1, 2, 3] {
            let mut st = BroadcastState::new(
                BroadcastPlane::Gossip {
                    fanout,
                    rounds,
                    seed,
                },
                m,
            );
            for event in 0..4 {
                let mut s = stats_for(&plan);
                st.disseminate(&plan, 8, &mut s, &ChannelTransport);
                let at = format!("seed {seed} event {event}");
                assert_eq!(s.broadcast_stale, 0, "{at}: leaves left stale");
                assert!(
                    s.broadcast_peak_out <= (fanout * rounds) as u64,
                    "{at}: peak out {} > fanout·rounds",
                    s.broadcast_peak_out
                );
                assert!(
                    s.broadcast_deliveries <= 6 * m as u64,
                    "{at}: {} deliveries > 6m",
                    s.broadcast_deliveries
                );
            }
        }
    }

    /// Pushes, digests and replies one event sends, recomputed from the
    /// plane's own seeded draws: digests are `m` minus the self-draws of
    /// every pull round — current askers included.
    fn model_counts(m: usize, fanout: usize, rounds: usize, seed: u64, v: u64) -> [u64; 3] {
        let root = Topology::Star.plan(m).root_node_id();
        let v_mix = version_mix(v);
        let mut adopted_in = vec![NOT_ADOPTED; m];
        let [mut pushes, mut digests, mut replies] = [0u64; 3];
        for round in 0..rounds {
            let r32 = round as u32;
            let holders: Vec<usize> = (0..m).filter(|&q| adopted_in[q] < r32).collect();
            if holders.len() == m {
                break;
            }
            if holders.len() * fanout >= m {
                let mut answered = vec![0usize; m];
                for asker in 0..m {
                    let mut rng = draw_seed(seed ^ PULL_SALT, v_mix, round, asker);
                    let r = (splitmix(&mut rng) % m as u64) as usize;
                    if r == asker {
                        continue;
                    }
                    digests += 1;
                    if adopted_in[asker] == NOT_ADOPTED
                        && adopted_in[r] < r32
                        && answered[r] + 1 < fanout
                    {
                        answered[r] += 1;
                        replies += 1;
                        adopted_in[asker] = r32;
                    }
                }
                continue;
            }
            for pid in std::iter::once(root).chain(holders) {
                let mut rng = draw_seed(seed, v_mix, round, pid);
                for _ in 0..fanout {
                    let q = (splitmix(&mut rng) % m as u64) as usize;
                    if q != pid {
                        pushes += 1;
                        if adopted_in[q] == NOT_ADOPTED {
                            adopted_in[q] = r32;
                        }
                    }
                }
            }
        }
        [pushes, digests, replies]
    }

    /// The charged deliveries and down bytes are exactly the pushes,
    /// digests and replies sent, with a 16-byte frame per push or reply
    /// and 8 bytes per digest — whether or not the digest's sender was
    /// stale.
    #[test]
    fn charged_traffic_is_pushes_plus_digests_plus_replies() {
        let m = 4096;
        let (fanout, rounds) = (4, 24);
        let plan = Topology::Star.plan(m);
        let frame = 8 + 8;
        for seed in [1, 7] {
            let mut st = BroadcastState::new(
                BroadcastPlane::Gossip {
                    fanout,
                    rounds,
                    seed,
                },
                m,
            );
            for v in 1..=3 {
                let mut s = stats_for(&plan);
                st.disseminate(&plan, 8, &mut s, &ChannelTransport);
                let [pushes, digests, replies] = model_counts(m, fanout, rounds, seed, v);
                assert!(
                    digests > 0 && replies > 0,
                    "seed {seed} v{v}: no pull round"
                );
                assert_eq!(
                    s.broadcast_deliveries,
                    pushes + digests + replies,
                    "seed {seed} v{v}: deliveries"
                );
                assert_eq!(
                    s.bytes_down,
                    (pushes + replies) * frame + digests * DIGEST_BYTES,
                    "seed {seed} v{v}: bytes down"
                );
            }
        }
    }
}
