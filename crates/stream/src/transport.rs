//! Message-plane abstraction: perfect channels vs a simulated faulty
//! network.
//!
//! The paper's protocols assume an idealized message plane — every
//! guarantee is stated in terms of messages that always arrive. This
//! module breaks that assumption behind a small trait:
//!
//! * [`Transport`] hands out a [`LinkPipe`] per directed link of the
//!   [`crate::TopologyPlan`] (links are keyed by *node id*: leaf `sid`
//!   is node `sid`, interior aggregation point `g` is node `m + g`,
//!   the root is node `m + internal_nodes`).
//! * [`ChannelTransport`] is the bit-exact reference: every link is
//!   [`LinkPipe::Transparent`], the runners take their existing
//!   zero-overhead path, and behavior is pinned identical to the
//!   pre-transport code by `tests/transport_parity.rs`.
//! * [`SimNet`] is a deterministic simulated network: each link draws
//!   from its own RNG (seeded from the plan seed and the link's
//!   endpoints, so construction order is irrelevant) and can drop,
//!   duplicate, delay, or reorder messages per a [`FaultPlan`]. A
//!   link's virtual clock advances one tick per message offered;
//!   delayed messages release after `delay_hops` later messages, or at
//!   link close — late, but never silently lost.
//!
//! Faults are applied by the *receiving* side of each link (the same
//! side that records [`crate::CommStats`] hops), so dropped messages
//! are never recorded and duplicated ones are recorded twice — the
//! stats measure what the wire delivered. [`FaultStats`] accumulates
//! what the network did to the stream's mass, which the window/HH
//! coordinators charge against their certified bounds (drops and
//! late deliveries are undercount, duplicates overcount).

use std::sync::{Arc, Mutex};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Per-link fault probabilities for one direction of traffic.
///
/// Each message offered to a faulty link draws one uniform variate and
/// suffers at most one fault: drop, duplicate, delay (by
/// [`LinkFaults::delay_hops`] link ticks), or reorder (a delay of one
/// tick, accounted separately). Probabilities are clamped to sum ≤ 1;
/// the remainder delivers cleanly.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct LinkFaults {
    /// Probability a message vanishes.
    pub drop: f64,
    /// Probability a message is delivered twice.
    pub duplicate: f64,
    /// Probability a message is held for [`LinkFaults::delay_hops`]
    /// subsequent messages on the link before delivery.
    pub delay: f64,
    /// Ticks a delayed message is held for.
    pub delay_hops: u64,
    /// Probability a message is delivered after the *next* message on
    /// the link (a one-tick delay, accounted as reordering).
    pub reorder: f64,
}

impl LinkFaults {
    /// True when every fault probability is zero.
    pub fn is_clean(&self) -> bool {
        self.drop == 0.0 && self.duplicate == 0.0 && self.delay == 0.0 && self.reorder == 0.0
    }
}

/// Deterministic description of what a [`SimNet`] does to each link.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FaultPlan {
    /// Seed for the per-link RNGs. Two `SimNet`s with equal plans
    /// produce bit-identical fault schedules.
    pub seed: u64,
    /// Faults applied to every upward (child→parent) link.
    pub up: LinkFaults,
    /// Faults applied to every downward (parent→child) link.
    pub down: LinkFaults,
    /// Per-link overrides keyed by `(from, to)` node ids; the last
    /// matching entry wins over the direction-wide default.
    pub overrides: Vec<((usize, usize), LinkFaults)>,
}

impl FaultPlan {
    /// A plan with the given seed and no faults anywhere.
    pub fn clean(seed: u64) -> Self {
        FaultPlan {
            seed,
            ..Default::default()
        }
    }

    /// Plan applying `faults` to every upward link.
    pub fn up_only(seed: u64, faults: LinkFaults) -> Self {
        FaultPlan {
            seed,
            up: faults,
            ..Default::default()
        }
    }

    /// The faults governing the directed link `from → to`, where
    /// `up` says whether the link points toward the root.
    pub fn link(&self, from: usize, to: usize, up: bool) -> LinkFaults {
        let mut cfg = if up { self.up } else { self.down };
        for ((f, t), o) in &self.overrides {
            if *f == from && *t == to {
                cfg = *o;
            }
        }
        cfg
    }
}

/// What a faulty network did to the traffic it carried.
///
/// Mass fields use [`crate::MessageCost::mass`] — the stream weight a
/// coordinator would miss (or double-see) because of the fault — and
/// feed the bound machinery: [`FaultStats::undercount_mass`] charges
/// the loss/withheld side, [`FaultStats::overcount_mass`] the
/// overcount side.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct FaultStats {
    /// Messages that eventually arrived, counted once each (a
    /// duplicated message's second copy is tallied in
    /// [`FaultStats::duplicated`] instead).
    pub delivered: u64,
    /// Messages dropped outright.
    pub dropped: u64,
    /// Stream mass aboard dropped messages.
    pub dropped_mass: f64,
    /// Messages delivered twice.
    pub duplicated: u64,
    /// Stream mass delivered a second time.
    pub duplicated_mass: f64,
    /// Messages held for a multi-tick delay.
    pub delayed: u64,
    /// Stream mass aboard delayed messages.
    pub delayed_mass: f64,
    /// Messages swapped behind a later message.
    pub reordered: u64,
    /// Stream mass aboard reordered messages.
    pub reordered_mass: f64,
}

impl FaultStats {
    /// Conservative bound on mass the coordinator may not have seen at
    /// any query instant: everything dropped, plus everything that was
    /// ever in transit longer than a clean hop (delays and reorders —
    /// conservative because held messages do arrive eventually, but a
    /// query can land while they are in flight).
    pub fn undercount_mass(&self) -> f64 {
        self.dropped_mass + self.delayed_mass + self.reordered_mass
    }

    /// Bound on mass the coordinator may have double-counted
    /// (duplicated deliveries).
    pub fn overcount_mass(&self) -> f64 {
        self.duplicated_mass
    }

    /// Sums another stats block into this one.
    pub fn absorb(&mut self, other: &FaultStats) {
        self.delivered += other.delivered;
        self.dropped += other.dropped;
        self.dropped_mass += other.dropped_mass;
        self.duplicated += other.duplicated;
        self.duplicated_mass += other.duplicated_mass;
        self.delayed += other.delayed;
        self.delayed_mass += other.delayed_mass;
        self.reordered += other.reordered;
        self.reordered_mass += other.reordered_mass;
    }
}

/// Mutable fault state of one directed link of a [`SimNet`].
#[derive(Debug)]
pub struct LinkFaultState {
    cfg: LinkFaults,
    rng: StdRng,
    totals: Arc<Mutex<FaultStats>>,
    local: FaultStats,
}

/// One directed link as handed out by a [`Transport`].
///
/// `Transparent` is the perfect-channel fast path (no RNG, no clock,
/// no accounting). `Faulty` carries the link's RNG and fault config;
/// the receiving runner wraps it in a [`FaultLink`] typed to the
/// messages crossing it.
#[derive(Debug)]
pub enum LinkPipe {
    /// Perfect link: deliver everything, in order, immediately.
    Transparent,
    /// Simulated faulty link.
    Faulty(LinkFaultState),
}

/// SplitMix64-style bit mixer for deriving per-link seeds.
fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The message plane: hands out one [`LinkPipe`] per directed link.
///
/// Implementations must be cheap to query from multiple threads — the
/// pooled engine fetches each node's links from whichever worker owns
/// the node.
pub trait Transport: Send + Sync {
    /// The pipe for the directed link `from → to` (node ids as in
    /// [`crate::TopologyPlan`]; `up` says whether the link points
    /// toward the root).
    fn link(&self, from: usize, to: usize, up: bool) -> LinkPipe;

    /// True when every link is [`LinkPipe::Transparent`] — lets the
    /// runners skip link bookkeeping entirely on the reference
    /// transport.
    fn is_transparent(&self) -> bool {
        false
    }
}

/// The reference transport: the existing in-process std channels,
/// untouched. Every link is perfect; runner behavior is bit-exact with
/// the pre-transport code.
#[derive(Debug, Clone, Copy, Default)]
pub struct ChannelTransport;

impl Transport for ChannelTransport {
    fn link(&self, _from: usize, _to: usize, _up: bool) -> LinkPipe {
        LinkPipe::Transparent
    }

    fn is_transparent(&self) -> bool {
        true
    }
}

/// Deterministic simulated faulty network.
///
/// Links with a clean fault config short-circuit to
/// [`LinkPipe::Transparent`]; faulty links each get an RNG seeded by
/// `mix(seed, from, to, dir)`, making the fault schedule a pure
/// function of the plan — independent of construction order, thread
/// interleaving, or how many other links exist.
#[derive(Debug)]
pub struct SimNet {
    plan: FaultPlan,
    totals: Arc<Mutex<FaultStats>>,
}

impl SimNet {
    /// A network applying `plan`.
    pub fn new(plan: FaultPlan) -> Self {
        SimNet {
            plan,
            totals: Arc::new(Mutex::new(FaultStats::default())),
        }
    }

    /// Everything the network has done so far, across all links.
    /// Link-local tallies are flushed when a link closes, so read this
    /// after the run completes for exact totals.
    pub fn stats(&self) -> FaultStats {
        *self.totals.lock().unwrap()
    }

    /// The plan this network applies.
    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }
}

impl Transport for SimNet {
    fn link(&self, from: usize, to: usize, up: bool) -> LinkPipe {
        let cfg = self.plan.link(from, to, up);
        if cfg.is_clean() {
            return LinkPipe::Transparent;
        }
        let seed = mix(self
            .plan
            .seed
            .wrapping_add(mix((from as u64) << 1 | (up as u64)))
            .wrapping_add(mix((to as u64).wrapping_mul(0x517c_c1b7_2722_0a95))));
        LinkPipe::Faulty(LinkFaultState {
            cfg,
            rng: StdRng::seed_from_u64(seed),
            totals: Arc::clone(&self.totals),
            local: FaultStats::default(),
        })
    }
}

/// Verdict for one message offered to a faulty link.
enum Verdict {
    Deliver,
    Drop,
    Duplicate,
    Delay(u64),
    Reorder,
}

impl LinkFaultState {
    fn verdict(&mut self) -> Verdict {
        let u: f64 = self.rng.gen();
        let c = &self.cfg;
        let mut acc = c.drop;
        if u < acc {
            return Verdict::Drop;
        }
        acc += c.duplicate;
        if u < acc {
            return Verdict::Duplicate;
        }
        acc += c.delay;
        if u < acc {
            return Verdict::Delay(c.delay_hops.max(1));
        }
        acc += c.reorder;
        if u < acc {
            return Verdict::Reorder;
        }
        Verdict::Deliver
    }
}

/// A [`LinkPipe`] bound to the concrete message type crossing it.
///
/// Owned by the *receiving* end of the link: the receiver funnels every
/// message it pulls off the channel through [`FaultLink::receive`],
/// which yields the messages that survive the wire (possibly none,
/// possibly two, possibly a held message from earlier). On shutdown the
/// receiver calls [`FaultLink::close`] to flush still-held messages —
/// late delivery, never silent loss.
#[derive(Debug)]
pub struct FaultLink<T> {
    pipe: LinkPipe,
    /// Held messages: `(release_at_tick, message)`.
    held: Vec<(u64, T)>,
    clock: u64,
}

impl<T> FaultLink<T> {
    /// Wraps a pipe for a specific message type.
    pub fn new(pipe: LinkPipe) -> Self {
        FaultLink {
            pipe,
            held: Vec::new(),
            clock: 0,
        }
    }

    /// A transparent (perfect) link.
    pub fn transparent() -> Self {
        FaultLink::new(LinkPipe::Transparent)
    }

    /// True when this link never faults (fast path for callers).
    pub fn is_transparent(&self) -> bool {
        matches!(self.pipe, LinkPipe::Transparent)
    }

    /// Draws one fault verdict for a delivery whose payload is applied
    /// in place rather than queued (broadcast threshold state): returns
    /// `false` on a drop, `true` otherwise. Duplicate, delay and
    /// reorder degenerate to plain delivery here — a duplicated or late
    /// threshold update is idempotent/stale-safe — but are still
    /// tallied, so [`SimNet::stats`] reflects what the wire did.
    pub fn deliver_now(&mut self, mass: f64) -> bool {
        let state = match &mut self.pipe {
            LinkPipe::Transparent => return true,
            LinkPipe::Faulty(s) => s,
        };
        self.clock += 1;
        match state.verdict() {
            Verdict::Drop => {
                state.local.dropped += 1;
                state.local.dropped_mass += mass;
                false
            }
            Verdict::Duplicate => {
                state.local.delivered += 1;
                state.local.duplicated += 1;
                state.local.duplicated_mass += mass;
                true
            }
            Verdict::Delay(_) => {
                state.local.delivered += 1;
                state.local.delayed += 1;
                state.local.delayed_mass += mass;
                true
            }
            Verdict::Reorder => {
                state.local.delivered += 1;
                state.local.reordered += 1;
                state.local.reordered_mass += mass;
                true
            }
            Verdict::Deliver => {
                state.local.delivered += 1;
                true
            }
        }
    }
}

impl<T: Clone> FaultLink<T> {
    /// Offers one message (carrying `mass` stream weight) to the link;
    /// appends every message the link delivers *now* to `out` — the
    /// offered message zero, one, or two times, plus any earlier
    /// message whose hold expired this tick.
    pub fn receive(&mut self, msg: T, mass: f64, out: &mut Vec<T>) {
        let state = match &mut self.pipe {
            LinkPipe::Transparent => {
                out.push(msg);
                return;
            }
            LinkPipe::Faulty(s) => s,
        };
        self.clock += 1;
        match state.verdict() {
            Verdict::Deliver => {
                state.local.delivered += 1;
                out.push(msg);
            }
            Verdict::Drop => {
                state.local.dropped += 1;
                state.local.dropped_mass += mass;
            }
            Verdict::Duplicate => {
                state.local.delivered += 1;
                state.local.duplicated += 1;
                state.local.duplicated_mass += mass;
                out.push(msg.clone());
                out.push(msg);
            }
            Verdict::Delay(hops) => {
                state.local.delayed += 1;
                state.local.delayed_mass += mass;
                self.held.push((self.clock + hops, msg));
            }
            Verdict::Reorder => {
                state.local.reordered += 1;
                state.local.reordered_mass += mass;
                self.held.push((self.clock + 1, msg));
            }
        }
        let clock = self.clock;
        let mut i = 0;
        while i < self.held.len() {
            if self.held[i].0 <= clock {
                let (_, m) = self.held.remove(i);
                if let LinkPipe::Faulty(s) = &mut self.pipe {
                    s.local.delivered += 1;
                }
                out.push(m);
            } else {
                i += 1;
            }
        }
    }

    /// Closes the link: releases every held message into `out` (in hold
    /// order) and flushes the link's fault tally into the network-wide
    /// [`SimNet::stats`].
    pub fn close(&mut self, out: &mut Vec<T>) {
        if let LinkPipe::Faulty(s) = &mut self.pipe {
            for (_, m) in self.held.drain(..) {
                s.local.delivered += 1;
                out.push(m);
            }
            s.totals.lock().unwrap().absorb(&s.local);
            s.local = FaultStats::default();
        }
    }
}

impl<T> Drop for FaultLink<T> {
    fn drop(&mut self) {
        // Flush accounting even if a caller forgot to close; held
        // messages can no longer be delivered at this point, so they
        // are charged as dropped rather than vanishing untallied.
        if let LinkPipe::Faulty(s) = &mut self.pipe {
            s.local.dropped += self.held.len() as u64;
            self.held.clear();
            s.totals.lock().unwrap().absorb(&s.local);
            s.local = FaultStats::default();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drain(link: &mut FaultLink<u64>, n: u64) -> Vec<u64> {
        let mut out = Vec::new();
        for i in 0..n {
            link.receive(i, 1.0, &mut out);
        }
        link.close(&mut out);
        out
    }

    #[test]
    fn transparent_links_deliver_everything_in_order() {
        let net = ChannelTransport;
        assert!(net.is_transparent());
        let mut link = FaultLink::new(net.link(0, 1, true));
        assert!(link.is_transparent());
        assert_eq!(drain(&mut link, 100), (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn clean_fault_plan_is_transparent() {
        let net = SimNet::new(FaultPlan::clean(7));
        assert!(matches!(net.link(0, 5, true), LinkPipe::Transparent));
    }

    #[test]
    fn drops_are_deterministic_and_tallied() {
        let plan = FaultPlan::up_only(
            42,
            LinkFaults {
                drop: 0.3,
                ..Default::default()
            },
        );
        let a: Vec<u64> = {
            let net = SimNet::new(plan.clone());
            let mut link = FaultLink::new(net.link(3, 9, true));
            let out = drain(&mut link, 1000);
            drop(link);
            let s = net.stats();
            assert_eq!(s.dropped + s.delivered, 1000);
            assert!((s.dropped as f64) > 200.0 && (s.dropped as f64) < 400.0);
            assert!((s.dropped_mass - s.dropped as f64).abs() < 1e-9);
            out
        };
        let b: Vec<u64> = {
            let net = SimNet::new(plan);
            let mut link = FaultLink::new(net.link(3, 9, true));
            drain(&mut link, 1000)
        };
        assert_eq!(a, b, "same seed, same link ⇒ same fault schedule");
    }

    #[test]
    fn per_link_schedules_are_independent_of_order() {
        let plan = FaultPlan::up_only(
            1,
            LinkFaults {
                drop: 0.5,
                ..Default::default()
            },
        );
        let net1 = SimNet::new(plan.clone());
        let mut a1 = FaultLink::new(net1.link(0, 2, true));
        let mut b1 = FaultLink::new(net1.link(1, 2, true));
        let net2 = SimNet::new(plan);
        let mut b2 = FaultLink::new(net2.link(1, 2, true)); // fetched first
        let mut a2 = FaultLink::new(net2.link(0, 2, true));
        assert_eq!(drain(&mut a1, 200), drain(&mut a2, 200));
        assert_eq!(drain(&mut b1, 200), drain(&mut b2, 200));
    }

    #[test]
    fn duplicates_deliver_twice() {
        let net = SimNet::new(FaultPlan::up_only(
            5,
            LinkFaults {
                duplicate: 1.0,
                ..Default::default()
            },
        ));
        let mut link = FaultLink::new(net.link(0, 1, true));
        assert_eq!(drain(&mut link, 3), vec![0, 0, 1, 1, 2, 2]);
        drop(link);
        assert_eq!(net.stats().duplicated, 3);
        assert!((net.stats().duplicated_mass - 3.0).abs() < 1e-9);
    }

    #[test]
    fn delayed_messages_release_late_but_never_vanish() {
        let net = SimNet::new(FaultPlan::up_only(
            11,
            LinkFaults {
                delay: 1.0,
                delay_hops: 4,
                ..Default::default()
            },
        ));
        let mut link = FaultLink::new(net.link(2, 3, true));
        let mut out = drain(&mut link, 10);
        out.sort_unstable();
        assert_eq!(out, (0..10).collect::<Vec<_>>());
        drop(link);
        assert_eq!(net.stats().delayed, 10);
        assert_eq!(net.stats().delivered, 10);
    }

    #[test]
    fn reorder_swaps_neighbors() {
        // 50% reorder: held messages slip behind un-held neighbors (a
        // uniform 100% rate would shift everything one tick and keep
        // order — reordering needs the mix).
        let net = SimNet::new(FaultPlan::up_only(
            2,
            LinkFaults {
                reorder: 0.5,
                ..Default::default()
            },
        ));
        let mut link = FaultLink::new(net.link(0, 1, true));
        let out = drain(&mut link, 50);
        let mut sorted = out.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
        assert_ne!(out, sorted, "a 50% reorder rate must swap someone");
    }

    #[test]
    fn overrides_beat_direction_defaults() {
        let mut plan = FaultPlan::up_only(
            3,
            LinkFaults {
                drop: 1.0,
                ..Default::default()
            },
        );
        plan.overrides.push(((4, 7), LinkFaults::default()));
        let net = SimNet::new(plan);
        assert!(matches!(net.link(4, 7, true), LinkPipe::Transparent));
        assert!(matches!(net.link(4, 8, true), LinkPipe::Faulty(_)));
    }

    #[test]
    fn undercount_and_overcount_split_the_faults() {
        let s = FaultStats {
            dropped_mass: 3.0,
            delayed_mass: 2.0,
            reordered_mass: 1.0,
            duplicated_mass: 5.0,
            ..Default::default()
        };
        assert!((s.undercount_mass() - 6.0).abs() < 1e-12);
        assert!((s.overcount_mass() - 5.0).abs() < 1e-12);
    }
}
