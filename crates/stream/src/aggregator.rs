//! The interior-node role of a tree-structured deployment.
//!
//! Splitting the old monolithic coordinator role in two: the
//! [`crate::Coordinator`] at the root folds messages into the *global*
//! answer, while an [`Aggregator`] at an interior tree node merges the
//! partial summaries passing through it — Misra–Gries
//! counters for the heavy-hitter protocols, Frequent Directions sketches
//! for the matrix protocols, threshold/round state for the sampling
//! protocols. The runner wires `fanout` children into each aggregator
//! and the aggregators into the root (see [`crate::Topology`]).

use crate::SiteId;
use std::marker::PhantomData;

/// An interior node of the aggregation tree.
///
/// # Contract
///
/// The runner drives each aggregator in *absorb → flush* waves: every
/// message arriving from a child is passed to [`Aggregator::absorb`],
/// then [`Aggregator::flush`] is called once and everything it emits is
/// forwarded to the parent (tagged with an origin site id — the leaf the
/// message came from, or a representative leaf for merged partials; only
/// coordinators that key state by origin, such as HH-P4's per-site
/// report table, rely on it, and their aggregators preserve it exactly).
///
/// An aggregator may *hold* state across waves (flush emitting nothing)
/// to coalesce sub-threshold partials — that is where mergeability earns
/// its keep — but anything held must eventually be covered by the
/// protocol's own slack analysis: the runner never forces a flush.
/// Coordinator broadcasts pass down through [`Aggregator::on_broadcast`]
/// before reaching the sites, so thresholds derived from broadcast state
/// stay as fresh at interior nodes as at leaves.
///
/// # Example
///
/// An interior node that coalesces child reports and forwards only when
/// the merged partial reaches a hold threshold:
///
/// ```
/// use cma_stream::{Aggregator, SiteId};
///
/// struct CoalescingNode {
///     pending: f64,
///     hold: f64,
///     origin: SiteId, // a representative leaf for the merged partial
/// }
///
/// impl Aggregator for CoalescingNode {
///     type UpMsg = f64;
///     type Broadcast = f64;
///
///     fn absorb(&mut self, from: SiteId, w: f64) {
///         if self.pending == 0.0 {
///             self.origin = from;
///         }
///         self.pending += w;
///     }
///
///     fn flush(&mut self, out: &mut Vec<(SiteId, f64)>) {
///         if self.pending >= self.hold {
///             out.push((self.origin, self.pending));
///             self.pending = 0.0;
///         }
///     }
/// }
///
/// let mut node = CoalescingNode { pending: 0.0, hold: 5.0, origin: 0 };
/// let mut up = Vec::new();
/// node.absorb(3, 2.0);
/// node.flush(&mut up);
/// assert!(up.is_empty()); // sub-threshold: held, not forwarded
/// node.absorb(4, 4.0);
/// node.flush(&mut up);
/// assert_eq!(up, vec![(3, 6.0)]); // one merged message climbs the tree
/// ```
pub trait Aggregator {
    /// Message type flowing up through this node (the protocol's site →
    /// coordinator message type).
    type UpMsg;
    /// Broadcast type flowing down through this node.
    type Broadcast;

    /// Folds one message from a child into the pending partial
    /// aggregate. `from` is the originating leaf site.
    fn absorb(&mut self, from: SiteId, msg: Self::UpMsg);

    /// Drains whatever the node is ready to forward into `out` as
    /// `(origin, message)` pairs. Called after every absorb wave; an
    /// empty drain means the node is holding its partial.
    fn flush(&mut self, out: &mut Vec<(SiteId, Self::UpMsg)>);

    /// Observes a coordinator broadcast on its way down the tree.
    fn on_broadcast(&mut self, _broadcast: &Self::Broadcast) {}
}

/// An [`Aggregator`] whose held state can be *migrated* into a
/// different aggregation plan while the deployment keeps running — the
/// surface behind the segmented driver's re-splits
/// ([`crate::runner::churn`]): measured re-plans of a
/// [`crate::Topology::Adaptive`] deployment, membership changes and
/// crash recovery all move the interior through it.
///
/// # Contract
///
/// When a re-split fires (at a settled segment boundary, with the old
/// plan's traffic drained), the runner calls
/// [`split_for_migration`](MigratableAggregator::split_for_migration)
/// on every *old* interior node — each must hand back **all** of its
/// held state as origin-tagged up-messages and be left empty — builds
/// the *new* plan's aggregators with the protocol's own factory (so
/// hold budgets are re-split over the new `m + I` withholding nodes),
/// and delivers each emitted message to the new parent of its origin
/// leaf via [`absorb_migrated`](MigratableAggregator::absorb_migrated)
/// (or straight to the coordinator when the new plan is flat).
///
/// Conservation is the whole game: everything a leaf ever emitted must
/// end up in the coordinator or in exactly one new node — nothing lost,
/// nothing double-counted. `split_for_migration` therefore differs from
/// [`Aggregator::flush`] in exactly one way: it ignores the hold
/// threshold and drains *everything*. It must **not** be used as a
/// flush — the runner only calls it at migration boundaries, where the
/// withheld-mass budget is re-stated against the new plan.
///
/// `absorb_migrated` defaults to [`Aggregator::absorb`]; override it
/// when absorbing has side effects that must not fire twice for
/// already-vetted traffic (e.g. [`FilteredRelay`] re-running its
/// admission filter on messages the old node already admitted).
pub trait MigratableAggregator: Aggregator {
    /// Drains **all** held state as `(origin, message)` pairs, leaving
    /// this node empty. Origins are the same representative leaf ids
    /// the node would have used in a flush.
    fn split_for_migration(&mut self, out: &mut Vec<(SiteId, Self::UpMsg)>);

    /// Absorbs one message that arrived via migration rather than from
    /// a live child wave. Defaults to plain [`Aggregator::absorb`].
    fn absorb_migrated(&mut self, from: SiteId, msg: Self::UpMsg) {
        self.absorb(from, msg);
    }
}

/// The trivial aggregator: forwards every message unchanged, holding
/// nothing. Any protocol is tree-deployable through `Relay` from day
/// one (it preserves execution exactly); protocols provide their own
/// aggregator types when they can merge partials on the way up.
#[derive(Debug, Clone)]
pub struct Relay<M, B> {
    pending: Vec<(SiteId, M)>,
    _broadcast: PhantomData<fn(&B)>,
}

impl<M, B> Relay<M, B> {
    /// Creates an empty relay.
    pub fn new() -> Self {
        Relay {
            pending: Vec::new(),
            _broadcast: PhantomData,
        }
    }
}

impl<M, B> Default for Relay<M, B> {
    fn default() -> Self {
        Self::new()
    }
}

impl<M, B> Aggregator for Relay<M, B> {
    type UpMsg = M;
    type Broadcast = B;

    fn absorb(&mut self, from: SiteId, msg: M) {
        self.pending.push((from, msg));
    }

    fn flush(&mut self, out: &mut Vec<(SiteId, M)>) {
        out.append(&mut self.pending);
    }
}

impl<M, B> MigratableAggregator for Relay<M, B> {
    /// A relay holds only what the current wave has not flushed yet.
    fn split_for_migration(&mut self, out: &mut Vec<(SiteId, M)>) {
        out.append(&mut self.pending);
    }
}

/// Protocol-specific admission state for a [`FilteredRelay`]: decides
/// per message whether it still needs to reach the root, and observes
/// broadcasts to keep that decision current.
pub trait RelayFilter {
    /// Message type judged by the filter.
    type UpMsg;
    /// Broadcast type the filter's state tracks.
    type Broadcast;

    /// `true` when the message must be forwarded. May update internal
    /// state (e.g. a dominance filter recording what it has let pass).
    fn admit(&mut self, msg: &Self::UpMsg) -> bool;

    /// Observes a coordinator broadcast passing down through the node.
    fn on_broadcast(&mut self, _broadcast: &Self::Broadcast) {}
}

/// A relay that drops messages its [`RelayFilter`] proves redundant and
/// forwards the rest unchanged — the aggregator shape shared by every
/// sampling protocol (threshold/round state for the without-replacement
/// samplers, per-sampler top-two dominance for the with-replacement
/// ones). [`Relay`] is the admit-everything special case.
#[derive(Debug, Clone)]
pub struct FilteredRelay<F: RelayFilter> {
    filter: F,
    pending: Vec<(SiteId, F::UpMsg)>,
}

impl<F: RelayFilter> FilteredRelay<F> {
    /// Creates a relay around the given filter state.
    pub fn new(filter: F) -> Self {
        FilteredRelay {
            filter,
            pending: Vec::new(),
        }
    }

    /// The filter state (read-only; useful in tests).
    pub fn filter(&self) -> &F {
        &self.filter
    }

    /// The messages currently awaiting the next flush.
    pub fn pending(&self) -> &[(SiteId, F::UpMsg)] {
        &self.pending
    }

    /// Rebuilds a relay from snapshot parts (filter state plus the
    /// pending queue, in flush order).
    pub fn from_parts(filter: F, pending: Vec<(SiteId, F::UpMsg)>) -> Self {
        FilteredRelay { filter, pending }
    }
}

/// Snapshot codec for a filtered relay: the filter state followed by
/// the pending queue (each entry origin-tagged). Filter types provide
/// their own [`crate::wire::WireCodec`] next to their protocol's
/// message codec.
impl<F> crate::wire::WireCodec for FilteredRelay<F>
where
    F: RelayFilter + crate::wire::WireCodec,
    F::UpMsg: crate::wire::WireCodec,
{
    fn encode(&self, out: &mut Vec<u8>) {
        self.filter.encode(out);
        crate::wire::put_usize(out, self.pending.len());
        for (origin, msg) in &self.pending {
            crate::wire::put_usize(out, *origin);
            msg.encode(out);
        }
    }

    fn decode(r: &mut crate::wire::WireReader<'_>) -> Option<Self> {
        let filter = F::decode(r)?;
        let n = r.usize()?;
        let mut pending = Vec::with_capacity(r.capacity_for(n));
        for _ in 0..n {
            let origin = r.usize()?;
            pending.push((origin, F::UpMsg::decode(r)?));
        }
        Some(FilteredRelay { filter, pending })
    }
}

impl<F: RelayFilter> Aggregator for FilteredRelay<F> {
    type UpMsg = F::UpMsg;
    type Broadcast = F::Broadcast;

    fn absorb(&mut self, from: SiteId, msg: F::UpMsg) {
        if self.filter.admit(&msg) {
            self.pending.push((from, msg));
        }
    }

    fn flush(&mut self, out: &mut Vec<(SiteId, F::UpMsg)>) {
        out.append(&mut self.pending);
    }

    fn on_broadcast(&mut self, broadcast: &F::Broadcast) {
        self.filter.on_broadcast(broadcast);
    }
}

impl<F: RelayFilter> MigratableAggregator for FilteredRelay<F> {
    fn split_for_migration(&mut self, out: &mut Vec<(SiteId, F::UpMsg)>) {
        out.append(&mut self.pending);
    }

    /// Migrated messages were already admitted by the *old* node's
    /// filter — re-running `admit` here could double-count its state
    /// side effects (a dominance filter recording the message twice) or
    /// drop a message a fresher broadcast now rejects, losing it. They
    /// go straight to pending.
    fn absorb_migrated(&mut self, from: SiteId, msg: F::UpMsg) {
        self.pending.push((from, msg));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn relay_forwards_everything_in_order() {
        let mut r: Relay<u32, f64> = Relay::new();
        r.absorb(3, 10);
        r.absorb(5, 20);
        let mut out = Vec::new();
        r.flush(&mut out);
        assert_eq!(out, vec![(3, 10), (5, 20)]);
        out.clear();
        r.flush(&mut out);
        assert!(out.is_empty());
    }

    /// Threshold filter for the FilteredRelay tests: admits values at or
    /// above the last broadcast.
    struct AtLeast(u32);

    impl RelayFilter for AtLeast {
        type UpMsg = u32;
        type Broadcast = u32;
        fn admit(&mut self, msg: &u32) -> bool {
            *msg >= self.0
        }
        fn on_broadcast(&mut self, b: &u32) {
            self.0 = *b;
        }
    }

    #[test]
    fn filtered_relay_drops_rejected_messages() {
        let mut r = FilteredRelay::new(AtLeast(5));
        r.absorb(0, 3);
        r.absorb(1, 7);
        r.on_broadcast(&8);
        r.absorb(2, 7); // now below the threshold
        r.absorb(3, 9);
        let mut out = Vec::new();
        r.flush(&mut out);
        assert_eq!(out, vec![(1, 7), (3, 9)]);
        assert_eq!(r.filter().0, 8);
    }
}
