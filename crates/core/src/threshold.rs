//! Protocol P2, written once (paper §4.2, Algorithms 4.3/4.4; §5.2,
//! Algorithms 5.3/5.4). The paper builds MT-P2 as HH-P2 with singular
//! directions in place of elements, so P2 is **one deployment, generic
//! over a [`ThresholdKind`]**: the sampling payload kinds [`ItemKind`]
//! and [`RowKind`](crate::sampling::RowKind), whose
//! [`SampleKind::weigh`] is P2's arrival check.
//!
//! Each of the `m` sites and `I` interior nodes ships its weight since
//! its last report ([`ThresholdMsg::Total`]) and what a payload gained
//! ([`ThresholdMsg::Delta`]) once either reaches `(ε/(m+I))·Ŵ`, so the
//! withheld error stays below `εŴ`. The root adds totals into `Ŵ`,
//! broadcasts after `m` of them and adds deltas into its accumulator. A
//! kind supplies its store (an exact item map, or MT's small-side matrix
//! behind a certified trigger, [`rows`]), its root (item estimates or
//! the Gram `BᵀB`), when an interior node tests — HH at flush
//! ([`ThresholdKind::release`]: one merged delta per item per wave), MT
//! at [`ThresholdKind::hold`], its lazy trigger being stateful — and
//! the codecs. `hh::p2`/`matrix::p2` keep the estimators and old names.

pub mod rows;

use crate::hh::Item;
use crate::sampling::{ItemKind, SampleKind, SamplingConfig};
use crate::wire::{read_fraction, read_mass, read_w_hat};
use cma_stream::{
    put_f64, put_u64, put_usize, AggNode, Aggregator, BudgetShare, ChurnBudget, ChurnCoordinator,
    ChurnSite, Coordinator, MessageCost, MigratableAggregator, Runner, Site, SiteId, Topology,
    WireCodec, WireReader,
};
use std::collections::HashMap;
use std::fmt;

/// What a payload kind supplies to P2 beyond its sampling role: the
/// withheld store, the root accumulator and their codecs.
pub trait ThresholdKind: SampleKind {
    /// What a payload message carries.
    type Delta: Clone + fmt::Debug;
    /// What a withholding node (site or aggregator) has not reported.
    type Store: Clone + fmt::Debug;
    /// The coordinator's sum of every delta received.
    type Root: Clone + fmt::Debug;

    /// Whether the root's encoding leads the coordinator snapshot or
    /// trails its scalars.
    const ROOT_LEADS: bool;

    /// An empty store.
    fn store(header: Self::Header) -> Self::Store;
    /// An empty root.
    fn root(header: Self::Header) -> Self::Root;
    /// A site arrival: withholds a weighed payload and ships every delta
    /// that reaches `threshold`.
    fn withhold(
        store: &mut Self::Store,
        payload: Self::Payload,
        weight: f64,
        threshold: f64,
        out: &mut Vec<ThresholdMsg<Self>>,
    );
    /// An interior node's absorb: withholds a child's delta, shipping
    /// into `out` whatever the kind tests at arrival.
    fn hold(
        store: &mut Self::Store,
        delta: Self::Delta,
        threshold: f64,
        out: &mut Vec<ThresholdMsg<Self>>,
    );
    /// An interior node's flush: ships what [`ThresholdKind::hold`] left
    /// at or above `threshold` (nothing, for a kind that tests at `hold`).
    fn release(_store: &mut Self::Store, _threshold: f64, _out: &mut Vec<ThresholdMsg<Self>>) {}
    /// Departure and migration: ships everything withheld, thresholds
    /// ignored, in a deterministic order, and leaves the store empty.
    fn drain(store: &mut Self::Store, out: &mut Vec<ThresholdMsg<Self>>);
    /// Adds a received delta into the root.
    fn accumulate(root: &mut Self::Root, delta: Self::Delta);
    /// A delta's payload, encoded as the sampling record's.
    fn payload(delta: &Self::Delta) -> &Self::Payload;
    /// The mass a delta carries, sent unless the payload implies it.
    fn weight(delta: &Self::Delta) -> f64;
    /// A decoded payload and weight as a delta.
    fn delta(payload: Self::Payload, weight: f64) -> Self::Delta;
    /// Appends the root's encoding.
    fn put_root(out: &mut Vec<u8>, root: &Self::Root);
    /// Inverse of [`ThresholdKind::put_root`].
    fn read_root(r: &mut WireReader<'_>) -> Option<Self::Root>;
    /// Appends an interior node's encoding, in the kind's layout.
    fn put_node(out: &mut Vec<u8>, node: &ThresholdAggregator<Self>);
    /// Inverse of [`ThresholdKind::put_node`].
    fn read_node(r: &mut WireReader<'_>) -> Option<ThresholdAggregator<Self>>;
    /// The width `d` a root is shaped for, if the kind has one.
    fn root_width(_root: &Self::Root) -> Option<usize> {
        None
    }
    /// The width `d` a store is shaped for, if the kind has one.
    fn store_width(_store: &Self::Store) -> Option<usize> {
        None
    }
}

/// HH-P2: exact per-item deltas; a delta message is `(e, Δe)`, and the
/// root sums them into `Ŵe`.
impl ThresholdKind for ItemKind {
    type Delta = (Item, f64);
    type Store = HashMap<Item, f64>;
    type Root = HashMap<Item, f64>;

    const ROOT_LEADS: bool = false;

    fn store(_: ()) -> Self::Store {
        HashMap::new()
    }

    fn root(_: ()) -> Self::Root {
        HashMap::new()
    }

    fn withhold(
        deltas: &mut Self::Store,
        item: Item,
        weight: f64,
        threshold: f64,
        out: &mut Vec<ThresholdMsg<Self>>,
    ) {
        let delta = deltas.entry(item).or_insert(0.0);
        *delta += weight;
        if *delta >= threshold {
            out.push(ThresholdMsg::Delta((item, *delta)));
            deltas.remove(&item);
        }
    }

    /// Sums per item; the test waits for [`ThresholdKind::release`].
    fn hold(
        deltas: &mut Self::Store,
        (item, d): (Item, f64),
        _: f64,
        _: &mut Vec<ThresholdMsg<Self>>,
    ) {
        *deltas.entry(item).or_insert(0.0) += d;
    }

    fn release(deltas: &mut Self::Store, threshold: f64, out: &mut Vec<ThresholdMsg<Self>>) {
        deltas.retain(|&item, &mut d| {
            let ship = d >= threshold;
            if ship {
                out.push(ThresholdMsg::Delta((item, d)));
            }
            !ship
        });
    }

    /// Every nonzero delta, in item order.
    fn drain(deltas: &mut Self::Store, out: &mut Vec<ThresholdMsg<Self>>) {
        let mut pending: Vec<(Item, f64)> = deltas.drain().collect();
        pending.sort_unstable_by_key(|&(e, _)| e);
        let nonzero = pending.into_iter().filter(|&(_, d)| d > 0.0);
        out.extend(nonzero.map(ThresholdMsg::Delta));
    }

    fn accumulate(estimates: &mut Self::Root, (item, d): (Item, f64)) {
        *estimates.entry(item).or_insert(0.0) += d;
    }

    fn payload((item, _): &(Item, f64)) -> &Item {
        item
    }

    fn weight(&(_, d): &(Item, f64)) -> f64 {
        d
    }

    fn delta(item: Item, d: f64) -> (Item, f64) {
        (item, d)
    }

    /// Tag `0` (decode refuses any other), then the map.
    fn put_root(out: &mut Vec<u8>, estimates: &Self::Root) {
        out.push(0);
        put_item_map(out, estimates);
    }

    fn read_root(r: &mut WireReader<'_>) -> Option<Self::Root> {
        (r.u8()? == 0).then_some(())?;
        read_item_map(r)
    }

    /// `pending total, deltas, threshold fraction, Ŵ, rep`.
    fn put_node(out: &mut Vec<u8>, node: &ThresholdAggregator<Self>) {
        put_f64(out, node.pending_total);
        put_item_map(out, &node.store);
        node.threshold.put(out);
        put_usize(out, node.rep);
    }

    fn read_node(r: &mut WireReader<'_>) -> Option<ThresholdAggregator<Self>> {
        Some(ThresholdAggregator {
            pending_total: read_mass(r)?,
            store: read_item_map(r)?,
            outbox: Vec::new(),
            threshold: Threshold::read(r)?,
            rep: r.usize()?,
        })
    }
}

/// `len, (item, value)*` in item order.
fn put_item_map(out: &mut Vec<u8>, map: &HashMap<Item, f64>) {
    let mut pairs: Vec<(Item, f64)> = map.iter().map(|(&e, &v)| (e, v)).collect();
    pairs.sort_unstable_by_key(|&(e, _)| e);
    put_usize(out, pairs.len());
    for (e, v) in pairs {
        put_u64(out, e);
        put_f64(out, v);
    }
}

/// Inverse of [`put_item_map`]; `None` on a negative or non-finite value.
fn read_item_map(r: &mut WireReader<'_>) -> Option<HashMap<Item, f64>> {
    let n = r.usize()?;
    let mut map = HashMap::with_capacity(r.capacity_for(n));
    for _ in 0..n {
        let e = r.u64()?;
        map.insert(e, read_mass(r)?);
    }
    Some(map)
}

/// Site → coordinator message. Its codec is in [`crate::wire`].
#[derive(Debug, Clone)]
pub enum ThresholdMsg<K: ThresholdKind> {
    /// `(total, Wᵢ)`: local weight accumulated since the last report.
    Total(f64),
    /// What a payload gained since its last report: `(e, Δe)` or `σ·v`.
    Delta(K::Delta),
}

impl<K: ThresholdKind> MessageCost for ThresholdMsg<K> {
    fn cost(&self) -> u64 {
        1
    }

    /// Exact size of the [`crate::wire`] encoding.
    fn wire_bytes(&self) -> u64 {
        self.encoded_len()
    }

    /// Both variants carry incremental weight since the last report.
    fn mass(&self) -> f64 {
        match self {
            ThresholdMsg::Total(w) => *w,
            ThresholdMsg::Delta(delta) => K::weight(delta),
        }
    }
}

/// A withholding node's threshold `(ε/(m+I))·Ŵ`: its share of `ε` and
/// the last broadcast `Ŵ`.
#[derive(Debug, Clone, Copy)]
struct Threshold {
    frac: f64,
    w_hat: f64,
}

impl Threshold {
    fn value(&self) -> f64 {
        self.frac * self.w_hat
    }

    /// A re-split rescales the share by the withholding-node ratio.
    fn rebudget(&mut self, share: &BudgetShare) {
        self.frac *= share.prev.nodes() as f64 / share.next.nodes() as f64;
    }

    /// `fraction, Ŵ`.
    fn put(&self, out: &mut Vec<u8>) {
        put_f64(out, self.frac);
        put_f64(out, self.w_hat);
    }

    /// `None` on a fraction outside `(0, 1)` or `Ŵ < 1`.
    fn read(r: &mut WireReader<'_>) -> Option<Self> {
        Some(Threshold {
            frac: read_fraction(r)?,
            w_hat: read_w_hat(r)?,
        })
    }
}

/// P2 site: local weight since the last scalar report, plus the kind's
/// withheld store.
#[derive(Debug, Clone)]
pub struct ThresholdSite<K: ThresholdKind> {
    store: K::Store,
    w_local: f64,
    threshold: Threshold,
}

impl<K: ThresholdKind> Site for ThresholdSite<K> {
    type Input = K::Input;
    type UpMsg = ThresholdMsg<K>;
    type Broadcast = f64;

    fn observe(&mut self, input: K::Input, out: &mut Vec<ThresholdMsg<K>>) {
        self.observe_batch([input], out);
    }

    /// The scalar test, then the store's, against a threshold hoisted out
    /// of the loop: `Ŵ` only changes on a broadcast, after this site
    /// pauses with a message, so every message matches per-item runs.
    fn observe_batch(
        &mut self,
        inputs: impl IntoIterator<Item = K::Input>,
        out: &mut Vec<ThresholdMsg<K>>,
    ) {
        let threshold = self.threshold.value();
        for (payload, weight) in inputs.into_iter().filter_map(K::weigh) {
            self.w_local += weight;
            if self.w_local >= threshold {
                out.push(ThresholdMsg::Total(self.w_local));
                self.w_local = 0.0;
            }
            K::withhold(&mut self.store, payload, weight, threshold, out);
            if !out.is_empty() {
                return; // pause-on-message
            }
        }
    }

    fn on_broadcast(&mut self, w_hat: &f64) {
        self.threshold.w_hat = *w_hat;
    }
}

/// P2 coordinator: `Ŵ` with its broadcast rule, plus the kind's root.
#[derive(Debug, Clone)]
pub struct ThresholdCoordinator<K: ThresholdKind> {
    pub(crate) root: K::Root,
    /// Global weight estimate `Ŵ`, seeded with 1 and grown by totals.
    pub(crate) w_hat: f64,
    /// Totals since the last broadcast.
    msg_count: usize,
    sites: usize,
}

impl<K: ThresholdKind> Coordinator for ThresholdCoordinator<K> {
    type UpMsg = ThresholdMsg<K>;
    type Broadcast = f64;

    fn receive(&mut self, _from: SiteId, msg: ThresholdMsg<K>, out: &mut Vec<f64>) {
        match msg {
            ThresholdMsg::Total(w) => {
                self.w_hat += w;
                self.msg_count += 1;
                if self.msg_count >= self.sites {
                    self.msg_count = 0;
                    out.push(self.w_hat);
                }
            }
            ThresholdMsg::Delta(delta) => K::accumulate(&mut self.root, delta),
        }
    }
}

/// Interior tree node of a P2 deployment: a site's total and store, fed
/// deltas instead of arrivals.
#[derive(Debug, Clone)]
pub struct ThresholdAggregator<K: ThresholdKind> {
    pending_total: f64,
    store: K::Store,
    /// Deltas shipped at [`ThresholdKind::hold`], forwarded at flush.
    outbox: Vec<ThresholdMsg<K>>,
    threshold: Threshold,
    /// Origin for everything forwarded (any contributing leaf works).
    rep: SiteId,
}

impl<K: ThresholdKind> Aggregator for ThresholdAggregator<K> {
    type UpMsg = ThresholdMsg<K>;
    type Broadcast = f64;

    fn absorb(&mut self, from: SiteId, msg: ThresholdMsg<K>) {
        self.rep = from;
        match msg {
            ThresholdMsg::Total(w) => self.pending_total += w,
            ThresholdMsg::Delta(delta) => K::hold(
                &mut self.store,
                delta,
                self.threshold.value(),
                &mut self.outbox,
            ),
        }
    }

    fn flush(&mut self, out: &mut Vec<(SiteId, ThresholdMsg<K>)>) {
        let threshold = self.threshold.value();
        K::release(&mut self.store, threshold, &mut self.outbox);
        self.forward(self.pending_total >= threshold, out);
    }

    fn on_broadcast(&mut self, w_hat: &f64) {
        self.threshold.w_hat = *w_hat;
    }
}

impl<K: ThresholdKind> MigratableAggregator for ThresholdAggregator<K> {
    fn split_for_migration(&mut self, out: &mut Vec<(SiteId, ThresholdMsg<K>)>) {
        K::drain(&mut self.store, &mut self.outbox);
        self.forward(self.pending_total > 0.0, out);
    }
}

impl<K: ThresholdKind> ThresholdAggregator<K> {
    /// Forwards the pending total if `total`, then the outbox.
    fn forward(&mut self, total: bool, out: &mut Vec<(SiteId, ThresholdMsg<K>)>) {
        if total {
            out.push((self.rep, ThresholdMsg::Total(self.pending_total)));
            self.pending_total = 0.0;
        }
        let rep = self.rep;
        out.extend(self.outbox.drain(..).map(|msg| (rep, msg)));
    }
}

impl<K: ThresholdKind> ChurnBudget for ThresholdSite<K> {
    fn rebudget(&mut self, share: &BudgetShare) {
        self.threshold.rebudget(share);
    }
}

impl<K: ThresholdKind> ChurnSite for ThresholdSite<K> {
    fn depart(&mut self, out: &mut Vec<ThresholdMsg<K>>) {
        if self.w_local > 0.0 {
            out.push(ThresholdMsg::Total(self.w_local));
            self.w_local = 0.0;
        }
        K::drain(&mut self.store, out);
    }
}

impl<K: ThresholdKind> ChurnBudget for ThresholdCoordinator<K> {
    /// The broadcast rule counts totals against the active site count.
    fn rebudget(&mut self, share: &BudgetShare) {
        self.sites = share.next.sites;
    }
}

impl<K: ThresholdKind> ChurnCoordinator for ThresholdCoordinator<K> {
    fn current_broadcast(&self) -> Option<f64> {
        (self.w_hat > 1.0).then_some(self.w_hat)
    }
}

impl<K: ThresholdKind> ChurnBudget for ThresholdAggregator<K> {
    fn rebudget(&mut self, share: &BudgetShare) {
        self.threshold.rebudget(share);
    }
}

/// `Ŵ, totals since the broadcast, sites`, with the root before (MT:
/// `d` and the Gram's lower triangle) or after them (HH: the estimates).
impl<K: ThresholdKind> WireCodec for ThresholdCoordinator<K> {
    fn encode(&self, out: &mut Vec<u8>) {
        if K::ROOT_LEADS {
            K::put_root(out, &self.root);
        }
        put_f64(out, self.w_hat);
        put_usize(out, self.msg_count);
        put_usize(out, self.sites);
        if !K::ROOT_LEADS {
            K::put_root(out, &self.root);
        }
    }

    /// `None` on `Ŵ < 1`, `sites = 0`, or a root the kind refuses.
    fn decode(r: &mut WireReader<'_>) -> Option<Self> {
        let lead = if K::ROOT_LEADS {
            Some(K::read_root(r)?)
        } else {
            None
        };
        let w_hat = read_w_hat(r)?;
        let msg_count = r.usize()?;
        let sites = r.usize().filter(|&m| m >= 1)?;
        let root = match lead {
            Some(root) => root,
            None => K::read_root(r)?,
        };
        Some(ThresholdCoordinator {
            root,
            w_hat,
            msg_count,
            sites,
        })
    }

    fn width(&self) -> Option<usize> {
        K::root_width(&self.root)
    }
}

impl<K: ThresholdKind> WireCodec for ThresholdAggregator<K> {
    fn encode(&self, out: &mut Vec<u8>) {
        K::put_node(out, self);
    }

    fn decode(r: &mut WireReader<'_>) -> Option<Self> {
        K::read_node(r)
    }

    fn width(&self) -> Option<usize> {
        K::store_width(&self.store)
    }
}

/// The shared threshold fraction `ε/(m+I)`: `ε/m` on a star.
fn budget<C: SamplingConfig>(cfg: &C, topology: Topology) -> Threshold {
    let nodes = cfg.sites() + topology.plan(cfg.sites()).internal_nodes();
    Threshold {
        frac: cfg.epsilon() / nodes as f64,
        w_hat: 1.0,
    }
}

/// Builds a P2 star.
pub fn deploy<C: SamplingConfig<Kind: ThresholdKind>>(
    cfg: &C,
) -> Runner<ThresholdSite<C::Kind>, ThresholdCoordinator<C::Kind>> {
    let (sites, root, _) = deploy_topology(cfg, Topology::Star).into_parts();
    Runner::new(sites, root)
}

/// A P2 deployment over an aggregation topology.
pub type ThresholdTree<K> =
    Runner<ThresholdSite<K>, ThresholdCoordinator<K>, ThresholdAggregator<K>>;

/// Builds a P2 deployment over an arbitrary aggregation topology, every
/// withholding node sharing the threshold `(ε/(m+I))·Ŵ`; with no
/// interior nodes this is *identical* to [`deploy`].
pub fn deploy_topology<C: SamplingConfig<Kind: ThresholdKind>>(
    cfg: &C,
    topology: Topology,
) -> ThresholdTree<C::Kind> {
    let threshold = budget(cfg, topology);
    let sites = (0..cfg.sites())
        .map(|_| ThresholdSite {
            store: C::Kind::store(cfg.header()),
            w_local: 0.0,
            threshold,
        })
        .collect();
    let root = ThresholdCoordinator {
        root: C::Kind::root(cfg.header()),
        w_hat: 1.0,
        msg_count: 0,
        sites: cfg.sites(),
    };
    Runner::with_topology(sites, root, topology, make_aggregator(cfg, topology))
}

/// Aggregator factory matching [`deploy_topology`]'s budget split (for
/// the engine's topology drivers).
pub fn make_aggregator<C: SamplingConfig<Kind: ThresholdKind>>(
    cfg: &C,
    topology: Topology,
) -> impl FnMut(AggNode) -> ThresholdAggregator<C::Kind> {
    let threshold = budget(cfg, topology);
    let header = cfg.header();
    move |_| ThresholdAggregator {
        pending_total: 0.0,
        store: C::Kind::store(header),
        outbox: Vec::new(),
        threshold,
        rep: 0,
    }
}
