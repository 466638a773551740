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
//! gossip identically. On a transparent wire nothing else enters an
//! event, so it is a pure function of the plan, the plane and its
//! version. On any other wire gossip edges are ordinary [`Transport`]
//! links (`net.link(from, to, false)`), so a [`crate::SimNet`] fault plan
//! applies per-edge drops/duplicates/delays/reorders to gossip traffic
//! exactly as it does to tree traffic, and the [`crate::FaultLink`]s are
//! cached per edge, keeping each link's deterministic fault schedule
//! intact across events. Digests ride their own links, one per
//! (asker, responder) edge, never the frame links, so a duplicated or
//! late digest can never be adopted as a frame — at worst it earns its
//! asker a reply that the monotone check refuses. Replies ride the
//! ordinary frame link of the (responder, asker) edge.
//!
//! # Cost of an event, and where it runs
//!
//! At `m = 65536`, `Gossip{4, 24, 1}`, an event sends ≈ 70 k pushes,
//! four pull rounds of `m` digests and ≈ 22.6 k replies, so a message
//! costs little more than its seeded draw: an adoption is written without
//! a branch, and a current asker only needs to know if its draw hit
//! itself, which an exact divisibility test tells without a division.
//!
//! Both wires run the same round loop. On a transparent wire an event
//! runs on **one helper thread**: the first gossip event starts it, and
//! while the caller delivers event `v` and goes on ingesting, the helper
//! runs `v + 1`. This is exact because that event is a pure function of
//! its version: the helper returns the adopters in adoption order and
//! the message counts, and [`BroadcastState::disseminate`] charges them
//! at the payload size of the event that asks for them. An event over a
//! faulty wire runs inline on the caller, because its cached links make
//! each event depend on the ones before. Such an event, or an event on
//! another plan, stops the helper first. Dropping the state cancels the
//! helper between two rounds and joins it, so it never outlives a run.
//!
//! [`CommStats::broadcast_deliveries`]: crate::CommStats::broadcast_deliveries
//! [`CommStats::broadcast_reach`]: crate::CommStats::broadcast_reach
//! [`CommStats::broadcast_stale`]: crate::CommStats::broadcast_stale

use std::collections::BTreeMap;
use std::mem::take;
use std::panic::resume_unwind;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{sync_channel, Receiver, SyncSender};
use std::sync::Arc;
use std::thread::JoinHandle;

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
        /// on any node's messages; at least 1 (`≥ m` pushes to every
        /// leaf, degenerating round 1 to [`BroadcastPlane::RootFanOut`]
        /// message-for-message).
        fanout: usize,
        /// Maximum rounds per event, at least 1; dissemination stops
        /// early once every leaf adopted. Residual staleness is measured
        /// in [`crate::CommStats::broadcast_stale`].
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

/// Writes `v` over a leaf's version; a leaf's version never decreases.
fn raise(lv: &mut u64, v: u64) {
    debug_assert!(v >= *lv, "leaf version regressed from {} to {v}", *lv);
    *lv = v;
}

/// `(x, r) ↦ x % m == r` for `r < m` without a division (Granlund–Montgomery):
/// with `m = 2^k·d`, `d` odd, `x − r` is a multiple of `m` iff
/// `(x − r)·d⁻¹ mod 2⁶⁴` rotated right by `k` is at most `(2⁶⁴ − 1) / m`.
fn self_draw(m: usize) -> impl Fn(u64, usize) -> bool {
    let (k, max) = (m.trailing_zeros(), u64::MAX / m as u64);
    let d = m as u64 >> k;
    // `d·d ≡ 1 (mod 8)`, and each Newton step doubles the exact bits.
    let inv = (0..5).fold(d, |i, _| {
        i.wrapping_mul(2u64.wrapping_sub(d.wrapping_mul(i)))
    });
    move |x, r| x >= r as u64 && (x - r as u64).wrapping_mul(inv).rotate_right(k) <= max
}

/// What decides a transparent event besides its version: the plane's
/// parameters and the parts of the plan the round loop reads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Shape {
    m: usize,
    fanout: usize,
    rounds: usize,
    seed: u64,
    root_id: usize,
    /// The root's interior children, fed by the interior cascade (charged
    /// in [`BroadcastState::disseminate`]): they count toward its out-degree.
    root_children: u64,
    /// Interior nodes above level 0 forward to at most `fanout` interior
    /// children over the cascade.
    interior_peak: u64,
}

impl Shape {
    fn new(plan: &TopologyPlan, fanout: usize, rounds: usize, seed: u64) -> Self {
        Shape {
            m: plan.sites(),
            fanout,
            rounds,
            seed,
            root_id: plan.root_node_id(),
            root_children: plan.levels().last().copied().unwrap_or(0) as u64,
            interior_peak: if plan.internal_levels() > 1 {
                plan.fanout() as u64
            } else {
                0
            },
        }
    }
}

/// What one gossip event did. The adopters, in adoption order, are the
/// first `adopted` entries of the adopter buffer the event ran with.
#[derive(Debug, Clone, Copy)]
struct Outcome {
    adopted: usize,
    /// Frame copies delivered: pushes and replies.
    frames: u64,
    /// Digest copies delivered.
    digests: u64,
    peak: u64,
    rounds_run: u64,
}

/// The round loop's scratch, reused event after event.
#[derive(Debug, Default)]
struct Scratch {
    /// The round each leaf adopted the current event in.
    adopted_round: Vec<u32>,
    /// Per-leaf outbound message counts of the current event.
    out_leaf: Vec<u32>,
    /// Per-leaf replies sent in the current pull round.
    replies: Vec<u32>,
    /// Bit set of this pull round's askers that can earn a reply.
    asking: Vec<u64>,
    /// Adopters in adoption order, with a spare slot past `m`.
    adopters: Vec<SiteId>,
    adopted: usize,
    round: u32,
}

/// What a sent message meets: nothing on a transparent wire, cached fault
/// links on any other.
trait Wire {
    /// Every message arrives once, at once: a current asker need not ask.
    const TRANSPARENT: bool;
    /// Sends the current frame `from → to` if `sent` (else nothing happens)
    /// and adopts at `to` what arrives now; returns the copies delivered.
    fn frame(&mut self, sc: &mut Scratch, from: usize, to: SiteId, sent: bool) -> u64;
    /// Sends asker `from`'s digest to `to`; returns the copies delivered and
    /// whether one shows the asker behind the current version.
    fn digest(&mut self, from: usize, to: usize) -> (u64, bool);
}

/// The transparent wire: a sent frame is one delivery, adopted at once.
struct Clean;

impl Wire for Clean {
    const TRANSPARENT: bool = true;

    #[inline(always)]
    fn frame(&mut self, sc: &mut Scratch, _from: usize, to: SiteId, sent: bool) -> u64 {
        sc.adopt(to, sent);
        sent as u64
    }

    fn digest(&mut self, _from: usize, _to: usize) -> (u64, bool) {
        unreachable!("a transparent event answers stale askers without digest links")
    }
}

/// A non-transparent wire, one cached [`FaultLink`] per edge. Late frames of
/// earlier events are charged at their own size in `frame_bytes`.
struct Wired<'a> {
    net: &'a dyn Transport,
    version: u64,
    frame: u64,
    frame_bytes: u64,
    links: &'a mut Links,
    leaf_version: &'a mut [u64],
}

impl Wire for Wired<'_> {
    const TRANSPARENT: bool = false;

    /// Applies what the wire delivers *now* — nothing, a duplicate, or a
    /// frame held from an earlier event — under the monotone check.
    fn frame(&mut self, sc: &mut Scratch, from: usize, to: SiteId, sent: bool) -> u64 {
        if !sent {
            return 0;
        }
        let Links {
            frames, frame_buf, ..
        } = &mut *self.links;
        frame_buf.clear();
        frames
            .entry((from, to))
            .or_insert_with(|| FaultLink::new(self.net.link(from, to, false)))
            .receive((self.version, self.frame), 0.0, frame_buf);
        for &(vd, fb) in frame_buf.iter() {
            self.frame_bytes += fb;
            if vd == self.version {
                sc.adopt(to, true);
                raise(&mut self.leaf_version[to], vd);
            } else if vd > self.leaf_version[to] {
                // A late frame advances the version bookkeeping, but its
                // payload is superseded — the node stays stale until a
                // fresh frame reaches it (safe).
                raise(&mut self.leaf_version[to], vd);
            }
        }
        frame_buf.len() as u64
    }

    fn digest(&mut self, from: usize, to: usize) -> (u64, bool) {
        let Links {
            digests,
            digest_buf,
            ..
        } = &mut *self.links;
        digest_buf.clear();
        digests
            .entry((from, to))
            .or_insert_with(|| FaultLink::new(self.net.link(from, to, false)))
            .receive(self.leaf_version[from], 0.0, digest_buf);
        let stale = digest_buf.iter().any(|&dv| dv < self.version);
        (digest_buf.len() as u64, stale)
    }
}

impl Scratch {
    fn new(m: usize) -> Self {
        Scratch {
            adopted_round: vec![NOT_ADOPTED; m],
            out_leaf: vec![0; m],
            replies: vec![0; m],
            asking: vec![0; m.div_ceil(64)],
            ..Scratch::default()
        }
    }

    /// Runs the push and pull rounds of event `version` over the leaves
    /// (plus the root as the initial pusher) into the adopter buffer, which
    /// must hold `m + 1` entries. Returns `None` if `cancel` was raised
    /// between two rounds.
    fn run<W: Wire>(
        &mut self,
        s: &Shape,
        version: u64,
        wire: &mut W,
        cancel: &AtomicBool,
    ) -> Option<Outcome> {
        let (m, fanout) = (s.m, s.fanout);
        debug_assert_eq!(self.adopters.len(), m + 1, "adopter buffer sized");
        self.adopted_round.fill(NOT_ADOPTED);
        self.out_leaf.fill(0);
        self.adopted = 0;
        let (mut frames, mut digests) = (0, 0);
        let mut root_out = s.root_children;
        let mut rounds_run: u64 = 0;
        let v_mix = version_mix(version);
        for round in 0..s.rounds {
            if self.adopted == m {
                break;
            }
            if cancel.load(Ordering::Relaxed) {
                return None;
            }
            rounds_run += 1;
            self.round = round as u32;
            // Holders this round: every leaf that adopted in an earlier
            // round (nodes adopting *this* round act from the next).
            let frontier = self.adopted;
            if frontier.saturating_mul(fanout) >= m {
                // Pull round — a push round would now cost ≥ m: each
                // leaf asks one peer, and a holder answers a stale
                // asker at most `fanout − 1` times, so with its own
                // digest no leaf sends more than `fanout` this round.
                // Askers that can earn a reply — the stale ones on a
                // transparent wire, all of them on a faulty one — are
                // marked, then answered in id order.
                let draw =
                    |asker| splitmix(&mut draw_seed(s.seed ^ PULL_SALT, v_mix, round, asker));
                let hits_self = self_draw(m);
                let (out, held) = (&mut self.out_leaf[..m], &self.adopted_round[..m]);
                for (w, bits) in self.asking.iter_mut().enumerate() {
                    let mut word = 0;
                    for asker in w * 64..m.min(w * 64 + 64) {
                        let asks = !W::TRANSPARENT || {
                            let sent = !hits_self(draw(asker), asker);
                            out[asker] += sent as u32;
                            digests += sent as u64;
                            sent && held[asker] == NOT_ADOPTED
                        };
                        word |= (asks as u64) << (asker % 64);
                    }
                    *bits = word;
                }
                self.replies.fill(0);
                for w in 0..self.asking.len() {
                    let mut bits = self.asking[w];
                    while bits != 0 {
                        let asker = w * 64 + bits.trailing_zeros() as usize;
                        bits &= bits - 1;
                        let r = (draw(asker) % m as u64) as usize;
                        let heard = W::TRANSPARENT
                            || (r != asker && {
                                self.out_leaf[asker] += 1;
                                let (copies, stale) = wire.digest(asker, r);
                                digests += copies;
                                stale
                            });
                        let answer = heard
                            & (self.adopted_round[r] < self.round)
                            & ((self.replies[r] as usize) + 1 < fanout);
                        self.replies[r] += answer as u32;
                        self.out_leaf[r] += answer as u32;
                        frames += wire.frame(self, r, asker, answer);
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
                let pid = if pi > 0 {
                    self.adopters[pi - 1]
                } else {
                    s.root_id
                };
                let mut rng = draw_seed(s.seed, v_mix, round, pid);
                let mut sent = 0;
                for k in 0..draws {
                    let q = if exhaustive {
                        k
                    } else {
                        (splitmix(&mut rng) % m as u64) as usize
                    };
                    if pi > 0 && q == pid {
                        continue;
                    }
                    sent += 1;
                    frames += wire.frame(self, pid, q, true);
                }
                if pi == 0 {
                    root_out += sent as u64;
                } else {
                    self.out_leaf[pid] += sent;
                }
            }
        }
        let leaf_peak = self.out_leaf.iter().copied().max().unwrap_or(0) as u64;
        Some(Outcome {
            adopted: self.adopted,
            frames,
            digests,
            peak: root_out.max(leaf_peak).max(s.interior_peak),
            rounds_run,
        })
    }

    /// Adopts the current event at leaf `to` if it `heard` the frame, without
    /// a branch: `adopted_round` tells whether `to` adopted already, and a
    /// repeat rewrites it.
    fn adopt(&mut self, to: SiteId, heard: bool) {
        let fresh = heard & (self.adopted_round[to] == NOT_ADOPTED);
        let round = if heard { self.round } else { NOT_ADOPTED };
        self.adopted_round[to] = self.adopted_round[to].min(round);
        self.adopters[self.adopted] = to;
        self.adopted += fresh as usize;
    }
}

/// One helper thread that runs transparent events one version ahead of
/// the caller, over the scratch it holds until it is stopped.
#[derive(Debug)]
struct Helper {
    shape: Shape,
    /// The version the helper is running, or has run, for the caller.
    next: u64,
    /// Raised to make the helper return between two rounds; the helper
    /// holds a clone until it exits. `Relaxed` suffices: the flag publishes
    /// no data, and the scratch comes back through `join`.
    cancel: Arc<AtomicBool>,
    jobs: SyncSender<(u64, Vec<SiteId>)>,
    done: Receiver<(Outcome, Vec<SiteId>)>,
    thread: JoinHandle<Scratch>,
}

impl Helper {
    /// Starts a helper on `scratch`, running event `version` into `buf`.
    fn spawn(shape: Shape, mut scratch: Scratch, version: u64, buf: Vec<SiteId>) -> Self {
        let (jobs, inbox) = sync_channel::<(u64, Vec<SiteId>)>(1);
        let (outbox, done) = sync_channel(1);
        let cancel = Arc::new(AtomicBool::new(false));
        let stop = Arc::clone(&cancel);
        let thread = std::thread::Builder::new()
            .name("gossip-rounds".into())
            .spawn(move || {
                while let Ok((v, buf)) = inbox.recv() {
                    scratch.adopters = buf;
                    let Some(out) = scratch.run(&shape, v, &mut Clean, &stop) else {
                        break;
                    };
                    if outbox.send((out, take(&mut scratch.adopters))).is_err() {
                        break;
                    }
                }
                scratch
            })
            .expect("broadcast: spawn the gossip helper");
        jobs.send((version, buf)).expect("the helper is waiting");
        Helper {
            shape,
            next: version,
            cancel,
            jobs,
            done,
            thread,
        }
    }

    /// Cancels the helper between rounds, joins it and returns its scratch
    /// (the panic's payload if it panicked).
    fn stop(self) -> std::thread::Result<Scratch> {
        self.cancel.store(true, Ordering::Relaxed);
        drop((self.jobs, self.done));
        self.thread.join()
    }
}

/// The gossip plane's cached fault links and their delivery buffers;
/// populated only under a non-transparent transport.
#[derive(Debug, Default)]
struct Links {
    /// Frame links, keyed `(from, to)` in transport node ids; messages
    /// carry `(version, frame_bytes)`.
    frames: BTreeMap<(usize, usize), FaultLink<(u64, u64)>>,
    /// Pull-digest links, keyed `(asker, responder)`; messages carry the
    /// asker's version.
    digests: BTreeMap<(usize, usize), FaultLink<u64>>,
    frame_buf: Vec<(u64, u64)>,
    digest_buf: Vec<u64>,
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
/// On a transparent wire a gossip event runs on a helper thread one
/// version ahead (see the module docs); dropping the state stops and
/// joins that thread.
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
    links: Links,
    /// The gossip round loop's scratch; `None` while the helper holds it.
    scratch: Option<Scratch>,
    /// The helper running transparent gossip events one version ahead.
    helper: Option<Helper>,
    /// An adopter buffer handed back by the driver, for the next event.
    spare: Vec<SiteId>,
}

impl Drop for BroadcastState {
    fn drop(&mut self) {
        if let Some(helper) = self.helper.take() {
            // A helper's panic is not re-raised while dropping.
            let _ = helper.stop();
        }
    }
}

impl BroadcastState {
    /// Fresh state for an `m`-leaf deployment. Panics on a
    /// [`BroadcastPlane::Gossip`] with zero `fanout` or `rounds`.
    pub fn new(plane: BroadcastPlane, m: usize) -> Self {
        if let BroadcastPlane::Gossip { fanout, rounds, .. } = plane {
            assert!(fanout >= 1, "broadcast: gossip fanout must be positive");
            assert!(rounds >= 1, "broadcast: gossip rounds must be positive");
        }
        BroadcastState {
            plane,
            version: 0,
            leaf_version: vec![0; m],
            links: Links::default(),
            scratch: plane.is_gossip().then(|| Scratch::new(m)),
            helper: None,
            spare: Vec::new(),
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
                    raise(lv, v);
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
                let shape = Shape::new(plan, fanout, rounds, seed);
                let (out, adopters, frame_bytes) = if net.is_transparent() {
                    let (out, adopters) = self.run_ahead(shape);
                    (out, adopters, out.frames * frame)
                } else {
                    self.run_wired(shape, frame, net)
                };
                stats.record_broadcast_edges(
                    0,
                    out.frames + out.digests,
                    frame_bytes + out.digests * DIGEST_BYTES,
                );
                stats.record_broadcast_adopt(out.adopted as u64);
                stats.record_broadcast_shape(out.peak, out.rounds_run, (m - out.adopted) as u64);
                for &sid in &adopters {
                    raise(&mut self.leaf_version[sid], v);
                }
                LeafSet::Subset(adopters)
            }
        }
    }

    /// Hands a delivered [`LeafSet`]'s buffer back, so a later event fills
    /// it instead of allocating one.
    pub(crate) fn recycle(&mut self, set: LeafSet) {
        if let LeafSet::Subset(buf) = set {
            if buf.capacity() > self.spare.capacity() {
                self.spare = buf;
            }
        }
    }

    /// An adopter buffer of `m + 1` entries: the recycled one if any.
    fn adopter_buffer(&mut self, m: usize) -> Vec<SiteId> {
        let mut buf = take(&mut self.spare);
        buf.resize(m + 1, 0);
        buf
    }

    /// Stops the helper, if one runs, and returns the scratch it held.
    fn reclaim(&mut self) -> &mut Scratch {
        if let Some(helper) = self.helper.take() {
            let scratch = helper.stop().unwrap_or_else(|p| resume_unwind(p));
            self.scratch = Some(scratch);
        }
        self.scratch.as_mut().expect("gossip planes own a scratch")
    }

    /// The current event on a transparent wire. It is a pure function of
    /// `(shape, version)`, so the helper ran it while the caller went on,
    /// and runs the next version now. A helper started for another shape
    /// or version is replaced.
    fn run_ahead(&mut self, shape: Shape) -> (Outcome, Vec<SiteId>) {
        let v = self.version;
        if !self
            .helper
            .as_ref()
            .is_some_and(|h| h.shape == shape && h.next == v)
        {
            let buf = self.adopter_buffer(shape.m);
            self.reclaim();
            let scratch = self.scratch.take().expect("reclaimed");
            self.helper = Some(Helper::spawn(shape, scratch, v, buf));
        }
        let next = self.adopter_buffer(shape.m);
        let helper = self.helper.as_mut().expect("started");
        let Ok((out, mut adopters)) = helper.done.recv() else {
            // The helper exited without an answer: join it to raise its panic.
            let helper = self.helper.take().expect("started");
            let err = helper.stop();
            resume_unwind(err.expect_err("a helper only quits early by panicking"));
        };
        helper.next = v + 1;
        // A send fails only if the helper died; the next event raises that.
        let _ = helper.jobs.send((v + 1, next));
        adopters.truncate(out.adopted);
        (out, adopters)
    }

    /// The current event over a non-transparent wire, on the calling thread:
    /// its cached links are stateful, so the event depends on every one
    /// before it. Returns the frame bytes the wire delivered.
    fn run_wired(
        &mut self,
        shape: Shape,
        frame: u64,
        net: &dyn Transport,
    ) -> (Outcome, Vec<SiteId>, u64) {
        let buf = self.adopter_buffer(shape.m);
        let scratch = self.reclaim();
        scratch.adopters = buf;
        let mut wire = Wired {
            net,
            version: self.version,
            frame,
            frame_bytes: 0,
            links: &mut self.links,
            leaf_version: &mut self.leaf_version,
        };
        let scratch = self.scratch.as_mut().expect("reclaimed");
        let out = scratch
            .run(&shape, self.version, &mut wire, &AtomicBool::new(false))
            .expect("never cancelled");
        let mut adopters = take(&mut scratch.adopters);
        adopters.truncate(out.adopted);
        (out, adopters, wire.frame_bytes)
    }

    /// Closes the plane's cached fault links (end of run): frames and
    /// digests still held by the simulated wire release now and are
    /// charged as late deliveries — late, never silently lost. Frame
    /// payloads are superseded, so only version bookkeeping can advance;
    /// a late digest has no round left to be answered in.
    pub fn close(&mut self, stats: &mut CommStats) {
        let Links {
            frames,
            digests,
            frame_buf,
            digest_buf,
        } = &mut self.links;
        for ((_, to), mut link) in take(frames) {
            frame_buf.clear();
            link.close(frame_buf);
            for &(vd, fb) in frame_buf.iter() {
                stats.record_broadcast_edge(0, fb);
                if let Some(lv) = self.leaf_version.get_mut(to).filter(|lv| vd > **lv) {
                    raise(lv, vd);
                }
            }
        }
        for (_, mut link) in take(digests) {
            digest_buf.clear();
            link.close(digest_buf);
            let n = digest_buf.len() as u64;
            stats.record_broadcast_edges(0, n, n * DIGEST_BYTES);
        }
    }

    /// A handle that outlives the helper thread only while it runs.
    #[cfg(test)]
    pub(crate) fn helper_token(&self) -> Option<std::sync::Weak<AtomicBool>> {
        self.helper.as_ref().map(|h| Arc::downgrade(&h.cancel))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::Topology;
    use crate::transport::{ChannelTransport, FaultPlan, LinkFaults, SimNet};
    use proptest::prelude::*;

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

    #[test]
    #[should_panic(expected = "broadcast: gossip fanout must be positive")]
    fn gossip_rejects_zero_fanout() {
        let plane = BroadcastPlane::Gossip {
            fanout: 0,
            rounds: 24,
            seed: 1,
        };
        BroadcastState::new(plane, 3);
    }

    #[test]
    #[should_panic(expected = "broadcast: gossip rounds must be positive")]
    fn gossip_rejects_zero_rounds() {
        let plane = BroadcastPlane::Gossip {
            fanout: 4,
            rounds: 0,
            seed: 1,
        };
        BroadcastState::new(plane, 3);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(200_000))]

        /// The division-free self-draw check agrees with `%` on the edge
        /// moduli, for draws that hit `r`, miss it by one either way, or
        /// are arbitrary.
        #[test]
        fn self_draw_matches_remainder(
            mi in 0usize..7,
            x in 0u64..u64::MAX,
            r in 0u64..u64::MAX,
            shape in 0u8..4,
        ) {
            let m = [1, 3, 65_535, 65_536, 65_537, u32::MAX as usize, 1 << 32][mi];
            let r = r % m as u64;
            let hit = (x - x % m as u64).checked_add(r).unwrap_or(r);
            let x = [hit, hit.wrapping_add(1), hit.wrapping_sub(1), x][shape as usize];
            prop_assert_eq!(self_draw(m)(x, r as usize), x % m as u64 == r);
        }
    }

    /// Order-free hash of a set of leaf ids.
    fn set_hash(ids: &[SiteId]) -> u64 {
        ids.iter()
            .fold(0, |h: u64, &id| h.wrapping_add(version_mix(id as u64)))
    }

    /// One row per event, then one for `close` on a faulty wire:
    /// `[deliveries, bytes_down, reach, peak_out, lag_rounds, stale,
    /// level-0 msgs, adopter-set hash]`. The last value is a hash of
    /// every leaf's version after the run.
    fn pinned_run(
        plan: &TopologyPlan,
        plane: BroadcastPlane,
        events: usize,
        net: Option<&SimNet>,
    ) -> (Vec<[u64; 8]>, u64) {
        let m = plan.sites();
        let mut st = BroadcastState::new(plane, m);
        let row = |s: &CommStats, adopters: &[SiteId]| {
            [
                s.broadcast_deliveries,
                s.bytes_down,
                s.broadcast_reach,
                s.broadcast_peak_out,
                s.broadcast_lag_rounds,
                s.broadcast_stale,
                s.per_level[0].broadcast_msgs,
                set_hash(adopters),
            ]
        };
        let mut rows = Vec::new();
        for _ in 0..events {
            let mut s = stats_for(plan);
            let set = match net {
                Some(net) => st.disseminate(plan, 8, &mut s, net),
                None => st.disseminate(plan, 8, &mut s, &ChannelTransport),
            };
            let LeafSet::Subset(adopters) = set else {
                panic!("gossip returns a subset");
            };
            rows.push(row(&s, &adopters));
        }
        if net.is_some() {
            let mut s = stats_for(plan);
            st.close(&mut s);
            rows.push(row(&s, &[]));
        }
        let versions = (0..m).fold(0, |h, sid| version_mix(h ^ st.leaf_version(sid)));
        (rows, versions)
    }

    /// Every count, adopter set and leaf version the gossip plane
    /// produces, pinned per event on three transparent deployments and
    /// one faulty one. Any rewrite of the round loop must reproduce
    /// them bit for bit.
    #[test]
    fn gossip_events_are_pinned() {
        let faulty = SimNet::new(FaultPlan {
            seed: 13,
            down: LinkFaults {
                drop: 0.05,
                duplicate: 0.05,
                delay: 0.2,
                delay_hops: 3,
                reorder: 0.05,
            },
            ..Default::default()
        });
        let gossip = |fanout, rounds, seed| BroadcastPlane::Gossip {
            fanout,
            rounds,
            seed,
        };
        let cases: [(&str, TopologyPlan, BroadcastPlane, Option<&SimNet>); 4] = [
            (
                "m65536 tree8",
                Topology::Tree { fanout: 8 }.plan(65_536),
                gossip(4, 24, 1),
                None,
            ),
            (
                "m1000 tree4",
                Topology::Tree { fanout: 4 }.plan(1_000),
                gossip(3, 16, 5),
                None,
            ),
            (
                "m4096 star",
                Topology::Star.plan(4_096),
                gossip(4, 24, 7),
                None,
            ),
            (
                "m4096 tree8 simnet",
                Topology::Tree { fanout: 8 }.plan(4_096),
                gossip(4, 24, 11),
                Some(&faulty),
            ),
        ];
        let mut fresh = String::new();
        let mut ok = true;
        for ((name, plan, plane, net), (rows, versions)) in cases.into_iter().zip(PINNED) {
            let got = pinned_run(&plan, plane, 8, net);
            ok &= got.0 == rows && got.1 == versions;
            fresh += "    (\n        &[\n";
            for r in &got.0 {
                fresh += &format!("            {r:?},\n");
            }
            fresh += &format!("        ],\n        {:#x},\n    ), // {name}\n", got.1);
        }
        assert!(ok, "gossip counts moved; fresh table:\n{fresh}");
    }

    /// A transparent wire and a clean `SimNet` gossip the same events. The
    /// clean `SimNet` is not transparent, so it takes the wired round loop
    /// with its cached links. Per event both report the same adopters in
    /// the same order, the same `CommStats` and the same leaf versions.
    /// The payload grows per event, so each event's frames are charged at
    /// its own payload size.
    #[test]
    fn transparent_and_clean_wired_gossip_agree() {
        let clean = SimNet::new(FaultPlan::default());
        assert!(
            !clean.is_transparent(),
            "the clean SimNet takes the wired path"
        );
        let gossip = |fanout, rounds, seed| BroadcastPlane::Gossip {
            fanout,
            rounds,
            seed,
        };
        let cases = [
            (
                Topology::Tree { fanout: 8 }.plan(65_536),
                gossip(4, 24, 1),
                4,
            ),
            (
                Topology::Tree { fanout: 4 }.plan(1_000),
                gossip(3, 16, 5),
                12,
            ),
            (Topology::Star.plan(4_096), gossip(4, 24, 7), 8),
        ];
        for (plan, plane, events) in cases {
            let m = plan.sites();
            let mut transparent = BroadcastState::new(plane, m);
            let mut wired = BroadcastState::new(plane, m);
            for v in 1..=events as u64 {
                let at = format!("m{m} {plane:?} event {v}");
                let (mut st, mut sw) = (stats_for(&plan), stats_for(&plan));
                let a = transparent.disseminate(&plan, 8 * v, &mut st, &ChannelTransport);
                let b = wired.disseminate(&plan, 8 * v, &mut sw, &clean);
                assert!(
                    matches!(a, LeafSet::Subset(_)),
                    "{at}: gossip returns a subset"
                );
                assert_eq!(a, b, "{at}: adopters");
                assert_eq!(st, sw, "{at}: CommStats");
                for sid in 0..m {
                    assert_eq!(
                        transparent.leaf_version(sid),
                        wired.leaf_version(sid),
                        "{at}: leaf {sid} version"
                    );
                }
            }
        }
    }

    /// The helper runs the next version of the plan it last served. A wired
    /// event stops it, and an event on another plan replaces it. Each event
    /// still matches a state that only takes the wired path.
    #[test]
    fn helper_stops_for_a_wired_event_and_restarts_for_another_plan() {
        let clean = SimNet::new(FaultPlan::default());
        let m = 4_096;
        let (star, tree) = (Topology::Star.plan(m), Topology::Tree { fanout: 8 }.plan(m));
        let plane = BroadcastPlane::Gossip {
            fanout: 4,
            rounds: 24,
            seed: 3,
        };
        let mut mixed = BroadcastState::new(plane, m);
        let mut wired = BroadcastState::new(plane, m);
        let steps = [
            (&tree, true),
            (&tree, true),
            (&tree, false),
            (&tree, true),
            (&star, true),
            (&star, true),
            (&tree, true),
            (&tree, false),
        ];
        for (i, (plan, transparent)) in steps.into_iter().enumerate() {
            let net: &dyn Transport = if transparent {
                &ChannelTransport
            } else {
                &clean
            };
            let (mut sm, mut sw) = (stats_for(plan), stats_for(plan));
            let a = mixed.disseminate(plan, 8, &mut sm, net);
            let b = wired.disseminate(plan, 8, &mut sw, &clean);
            assert_eq!(a, b, "event {i}: adopters");
            assert_eq!(sm, sw, "event {i}: CommStats");
            assert!((0..m).all(|sid| mixed.leaf_version(sid) == wired.leaf_version(sid)));
            assert_eq!(mixed.helper_token().is_some(), transparent, "event {i}");
            mixed.recycle(a);
        }
    }

    /// What [`gossip_events_are_pinned`] expects, case by case: the rows of
    /// `pinned_run` and its leaf-version hash.
    #[rustfmt::skip]
    const PINNED: [(&[[u64; 8]], u64); 4] = [
    (
        &[
            [363912, 3725472, 74898, 30, 11, 0, 354550, 1073065775518551502],
            [363465, 3718320, 74898, 30, 11, 0, 354103, 1073065775518551502],
            [363676, 3721680, 74898, 30, 11, 0, 354314, 1073065775518551502],
            [363997, 3726816, 74898, 30, 11, 0, 354635, 1073065775518551502],
            [363894, 3725176, 74898, 30, 11, 0, 354532, 1073065775518551502],
            [363908, 3725408, 74898, 30, 11, 0, 354546, 1073065775518551502],
            [364098, 3728456, 74898, 30, 11, 0, 354736, 1073065775518551502],
            [364121, 3728832, 74898, 30, 11, 0, 354759, 1073065775518551502],
        ],
        0x4209f7c681dbc5c6,
    ), // m65536 tree8
    (
        &[
            [4649, 50408, 1333, 19, 8, 0, 4316, 17643089794347511138],
            [4634, 50152, 1333, 19, 8, 0, 4301, 17643089794347511138],
            [4655, 50496, 1333, 19, 8, 0, 4322, 17643089794347511138],
            [4650, 50424, 1333, 19, 8, 0, 4317, 17643089794347511138],
            [4640, 50280, 1333, 19, 8, 0, 4307, 17643089794347511138],
            [4632, 50128, 1333, 19, 8, 0, 4299, 17643089794347511138],
            [5638, 58248, 1333, 19, 9, 0, 5305, 17643089794347511138],
            [5643, 58328, 1333, 19, 9, 0, 5310, 17643089794347511138],
        ],
        0xa2fbca3350934d9d,
    ), // m1000 tree4
    (
        &[
            [21298, 209736, 4096, 22, 9, 0, 21298, 8099791680467470469],
            [25412, 242760, 4096, 24, 10, 0, 25412, 8099791680467470469],
            [25405, 242696, 4096, 23, 10, 0, 25405, 8099791680467470469],
            [21327, 210184, 4096, 23, 9, 0, 21327, 8099791680467470469],
            [21251, 209000, 4096, 21, 9, 0, 21251, 8099791680467470469],
            [21342, 210432, 4096, 20, 9, 0, 21342, 8099791680467470469],
            [21293, 209664, 4096, 23, 9, 0, 21293, 8099791680467470469],
            [21304, 209848, 4096, 21, 9, 0, 21304, 8099791680467470469],
        ],
        0x3e907dbf0e7fc6f9,
    ), // m4096 star
    (
        &[
            [43134, 394904, 4680, 35, 18, 0, 42550, 8099791680467470469],
            [49509, 446632, 4680, 35, 20, 0, 48925, 8099791680467470469],
            [52077, 462880, 4680, 37, 21, 0, 51493, 8099791680467470469],
            [51715, 455848, 4680, 37, 21, 0, 51131, 8099791680467470469],
            [51784, 459816, 4680, 37, 21, 0, 51200, 8099791680467470469],
            [46115, 417160, 4680, 34, 19, 0, 45531, 8099791680467470469],
            [55118, 488904, 4680, 39, 22, 0, 54534, 8099791680467470469],
            [60904, 531984, 4679, 39, 24, 1, 60320, 12510609696473814089],
            [134075, 1184816, 0, 0, 0, 0, 134075, 0],
        ],
        0x3e907dbf0e7fc6f9,
    ), // m4096 tree8 simnet
    ];
}
