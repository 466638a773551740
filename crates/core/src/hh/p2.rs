//! Protocol P2 — per-element thresholds (paper §4.2).
//!
//! The weighted generalisation of Yi–Zhang's deterministic tracker, and
//! the best deterministic protocol in the paper. Each site keeps
//!
//! * `Wᵢ` — local weight since its last scalar report, and
//! * `Δe` — per-element weight since that element was last reported,
//!
//! and sends `(total, Wᵢ)` when `Wᵢ ≥ (ε/m)·Ŵ`, or `(e, Δe)` when
//! `Δe ≥ (ε/m)·Ŵ` (Algorithm 4.3). The coordinator adds scalar reports
//! into `Ŵ` and, after `m` of them, broadcasts the refreshed `Ŵ` —
//! starting a new "round" in which thresholds are `(1+ε)`× larger
//! (Algorithm 4.4).
//!
//! Guarantee (Theorem 1): `|fe(A) − Ŵe| ≤ εW` with
//! `O((m/ε) log(βN))` total messages.
//!
//! The per-site `Δe` table is exact by default (`O(distinct)` space); the
//! paper's space reduction — a Misra–Gries table of `⌈2m/ε⌉` counters —
//! is available via [`P2Options::mg_site_capacity`] and benchmarked as an
//! ablation. An MG table *underestimates* deltas, so sends happen no
//! earlier, and the untracked mass stays within the summary's `ε/2m`
//! bound, preserving the overall `εW` contract.

use super::{validate_weight, HhEstimator, Item, WeightedItem};
use crate::config::HhConfig;
use crate::wire::{read_fraction, read_mass, read_w_hat};
use cma_sketch::MgSummary;
use cma_stream::{
    put_f64, put_u64, put_usize, AggNode, Aggregator, BudgetShare, ChurnBudget, ChurnCoordinator,
    ChurnSite, Coordinator, MessageCost, MigratableAggregator, Runner, Site, SiteId, Topology,
    WireCodec, WireReader,
};
use std::collections::HashMap;

/// Site → coordinator messages of protocol P2.
#[derive(Debug, Clone, PartialEq)]
pub enum P2Msg {
    /// `(total, Wᵢ)` — local weight accumulated since the last report.
    Total(f64),
    /// `(e, Δe)` — element `e` gained `Δe` weight since its last report.
    Element(Item, f64),
}

impl MessageCost for P2Msg {
    fn cost(&self) -> u64 {
        1
    }

    /// Exact size of the [`crate::wire`] encoding: tag plus payload.
    fn wire_bytes(&self) -> u64 {
        match self {
            P2Msg::Total(_) => 9,
            P2Msg::Element(..) => 17,
        }
    }

    /// Both variants carry incremental weight since the last report.
    fn mass(&self) -> f64 {
        match self {
            P2Msg::Total(w) | P2Msg::Element(_, w) => *w,
        }
    }
}

/// Per-site storage for the element deltas.
#[derive(Debug, Clone)]
enum DeltaStore {
    /// Exact per-element deltas.
    Exact(HashMap<Item, f64>),
    /// Misra–Gries with bounded counters (the paper's space reduction).
    Mg(MgSummary),
}

impl DeltaStore {
    /// Adds weight and returns the current delta estimate for the item.
    fn add(&mut self, item: Item, w: f64) -> f64 {
        match self {
            DeltaStore::Exact(map) => {
                let d = map.entry(item).or_insert(0.0);
                *d += w;
                *d
            }
            DeltaStore::Mg(mg) => {
                mg.update(item, w);
                mg.estimate(item)
            }
        }
    }

    /// Removes and returns the item's delta after it has been reported.
    fn take(&mut self, item: Item) -> f64 {
        match self {
            DeltaStore::Exact(map) => map.remove(&item).unwrap_or(0.0),
            DeltaStore::Mg(mg) => mg.take(item),
        }
    }

    /// Drains every pending delta in item order (departure hook).
    fn drain_sorted(&mut self) -> Vec<(Item, f64)> {
        let mut items: Vec<Item> = match self {
            DeltaStore::Exact(map) => map.keys().copied().collect(),
            DeltaStore::Mg(mg) => mg.counters().map(|(e, _)| e).collect(),
        };
        items.sort_unstable();
        items.into_iter().map(|e| (e, self.take(e))).collect()
    }
}

/// Tuning knobs beyond [`HhConfig`].
#[derive(Debug, Clone, Default)]
pub struct P2Options {
    /// When set, sites store deltas in a Misra–Gries summary with this
    /// many counters instead of an exact map (paper's `O(m/ε)`-space
    /// option). `None` = exact.
    pub mg_site_capacity: Option<usize>,
    /// When set, the coordinator stores the per-element estimates in a
    /// Misra–Gries summary with this many counters instead of an exact
    /// map (the paper reduces the coordinator of P2 to `O(1/ε)` space).
    /// The extra undercount is at most `W_reported/(cap+1)`, so
    /// `cap = ⌈2/ε⌉` keeps the total within `(3/2)εW`. `None` = exact.
    pub mg_coordinator_capacity: Option<usize>,
}

/// P2 site.
#[derive(Debug, Clone)]
pub struct P2Site {
    deltas: DeltaStore,
    /// Local weight since the last scalar report.
    w_local: f64,
    /// Send threshold as a fraction of `Ŵ`: `ε/m` in a star, `ε/(m+I)`
    /// in a tree with `I` interior nodes (see [`deploy_topology`]).
    thr_frac: f64,
    w_hat: f64,
}

impl P2Site {
    fn new(cfg: &HhConfig, opts: &P2Options) -> Self {
        Self::with_thr_frac(opts, cfg.epsilon / cfg.sites as f64)
    }

    fn with_thr_frac(opts: &P2Options, thr_frac: f64) -> Self {
        let deltas = match opts.mg_site_capacity {
            Some(cap) => DeltaStore::Mg(MgSummary::new(cap)),
            None => DeltaStore::Exact(HashMap::new()),
        };
        P2Site {
            deltas,
            w_local: 0.0,
            thr_frac,
            w_hat: 1.0,
        }
    }

    /// Send threshold `(ε/m)·Ŵ`.
    fn threshold(&self) -> f64 {
        self.thr_frac * self.w_hat
    }
}

impl Site for P2Site {
    type Input = WeightedItem;
    type UpMsg = P2Msg;
    type Broadcast = f64;

    fn observe(&mut self, (item, weight): WeightedItem, out: &mut Vec<P2Msg>) {
        validate_weight(weight);
        let threshold = self.threshold();

        self.w_local += weight;
        if self.w_local >= threshold {
            out.push(P2Msg::Total(self.w_local));
            self.w_local = 0.0;
        }

        let delta = self.deltas.add(item, weight);
        if delta >= threshold {
            let taken = self.deltas.take(item);
            out.push(P2Msg::Element(item, taken));
        }
    }

    /// Batched arrivals run the two per-arrival threshold tests in one
    /// tight loop with the send threshold `(ε/m)·Ŵ` hoisted out of it.
    /// `Ŵ` only changes on a broadcast, which can only arrive after this
    /// site pauses with a message, so the hoist is exact — message counts
    /// and contents are identical to per-item execution.
    fn observe_batch(
        &mut self,
        inputs: impl IntoIterator<Item = WeightedItem>,
        out: &mut Vec<P2Msg>,
    ) {
        let threshold = self.threshold();
        for (item, weight) in inputs {
            validate_weight(weight);
            self.w_local += weight;
            if self.w_local >= threshold {
                out.push(P2Msg::Total(self.w_local));
                self.w_local = 0.0;
            }
            let delta = self.deltas.add(item, weight);
            if delta >= threshold {
                let taken = self.deltas.take(item);
                out.push(P2Msg::Element(item, taken));
            }
            if !out.is_empty() {
                return; // pause-on-message
            }
        }
    }

    fn on_broadcast(&mut self, w_hat: &f64) {
        self.w_hat = *w_hat;
    }
}

/// Coordinator-side storage for the per-element estimates `Ŵe`.
#[derive(Debug, Clone)]
enum CoordStore {
    /// Exact per-element sums.
    Exact(HashMap<Item, f64>),
    /// Misra–Gries with bounded counters (the paper's `O(1/ε)` option).
    Mg(MgSummary),
}

impl CoordStore {
    fn add(&mut self, item: Item, delta: f64) {
        match self {
            CoordStore::Exact(map) => *map.entry(item).or_insert(0.0) += delta,
            CoordStore::Mg(mg) => mg.update(item, delta),
        }
    }
    fn get(&self, item: Item) -> f64 {
        match self {
            CoordStore::Exact(map) => map.get(&item).copied().unwrap_or(0.0),
            CoordStore::Mg(mg) => mg.estimate(item),
        }
    }
    fn items(&self) -> Vec<Item> {
        match self {
            CoordStore::Exact(map) => map.keys().copied().collect(),
            CoordStore::Mg(mg) => mg.counters().map(|(e, _)| e).collect(),
        }
    }
}

/// P2 coordinator.
#[derive(Debug, Clone)]
pub struct P2Coordinator {
    /// Global weight estimate `Ŵ`, grown by scalar reports.
    w_hat: f64,
    /// Scalar reports since the last broadcast.
    msg_count: usize,
    sites: usize,
    /// Per-element estimates `Ŵe`.
    counts: CoordStore,
}

impl P2Coordinator {
    fn new(cfg: &HhConfig, opts: &P2Options) -> Self {
        let counts = match opts.mg_coordinator_capacity {
            Some(cap) => CoordStore::Mg(MgSummary::new(cap)),
            None => CoordStore::Exact(HashMap::new()),
        };
        P2Coordinator {
            w_hat: 1.0,
            msg_count: 0,
            sites: cfg.sites,
            counts,
        }
    }
}

impl Coordinator for P2Coordinator {
    type UpMsg = P2Msg;
    type Broadcast = f64;

    fn receive(&mut self, _from: SiteId, msg: P2Msg, out: &mut Vec<f64>) {
        match msg {
            P2Msg::Total(wi) => {
                self.w_hat += wi;
                self.msg_count += 1;
                if self.msg_count >= self.sites {
                    self.msg_count = 0;
                    out.push(self.w_hat);
                }
            }
            P2Msg::Element(e, delta) => {
                self.counts.add(e, delta);
            }
        }
    }
}

impl HhEstimator for P2Coordinator {
    fn total_weight(&self) -> f64 {
        // Ŵ was seeded with 1 before any weight arrived.
        (self.w_hat - 1.0).max(0.0)
    }
    fn estimate(&self, item: Item) -> f64 {
        self.counts.get(item)
    }
    fn tracked_items(&self) -> Vec<Item> {
        self.counts.items()
    }
}

/// Interior tree node of a P2 deployment: the partial-aggregate path
/// for scalar and per-element threshold reports.
///
/// Incoming `(total, Wᵢ)` reports sum into one pending scalar and
/// incoming `(e, Δe)` reports sum per element; a partial is forwarded
/// once it reaches the shared node threshold `(ε/(m+I))·Ŵ`. Under
/// synchronous delivery every site report already clears the threshold,
/// so the node degenerates to an exact relay (P2 is the
/// minimal-communication protocol — there is nothing to coalesce); under
/// asynchronous lag it absorbs the early, sub-threshold reports that
/// stale thresholds provoke. Either way each node withholds less than
/// one threshold per element, so the tree-wide error stays
/// ≤ `(m+I)·(ε/(m+I))·Ŵ = εŴ` — the star argument verbatim.
#[derive(Debug, Clone)]
pub struct P2Aggregator {
    pending_total: f64,
    pending_deltas: HashMap<Item, f64>,
    /// Node threshold as a fraction of `Ŵ`.
    thr_frac: f64,
    w_hat: f64,
    rep: SiteId,
}

impl Aggregator for P2Aggregator {
    type UpMsg = P2Msg;
    type Broadcast = f64;

    fn absorb(&mut self, from: SiteId, msg: P2Msg) {
        self.rep = from;
        match msg {
            P2Msg::Total(w) => self.pending_total += w,
            P2Msg::Element(e, d) => *self.pending_deltas.entry(e).or_insert(0.0) += d,
        }
    }

    fn flush(&mut self, out: &mut Vec<(SiteId, P2Msg)>) {
        let threshold = self.thr_frac * self.w_hat;
        if self.pending_total >= threshold {
            out.push((self.rep, P2Msg::Total(self.pending_total)));
            self.pending_total = 0.0;
        }
        if self.pending_deltas.is_empty() {
            return;
        }
        let ready: Vec<Item> = self
            .pending_deltas
            .iter()
            .filter(|&(_, &d)| d >= threshold)
            .map(|(&e, _)| e)
            .collect();
        for e in ready {
            let d = self.pending_deltas.remove(&e).expect("key just listed");
            out.push((self.rep, P2Msg::Element(e, d)));
        }
    }

    fn on_broadcast(&mut self, w_hat: &f64) {
        self.w_hat = *w_hat;
    }
}

impl MigratableAggregator for P2Aggregator {
    /// Drains the pending scalar and every per-element delta, ignoring
    /// the node threshold. Elements are emitted in item order so
    /// migration is deterministic.
    fn split_for_migration(&mut self, out: &mut Vec<(SiteId, P2Msg)>) {
        if self.pending_total > 0.0 {
            out.push((self.rep, P2Msg::Total(self.pending_total)));
            self.pending_total = 0.0;
        }
        let mut deltas: Vec<(Item, f64)> = self.pending_deltas.drain().collect();
        deltas.sort_unstable_by_key(|&(e, _)| e);
        for (e, d) in deltas {
            out.push((self.rep, P2Msg::Element(e, d)));
        }
    }
}

impl ChurnBudget for P2Site {
    /// P2's thresholds encode a `1/(m+I)` split — re-splitting is a pure
    /// rescale by the withholding-node ratio.
    fn rebudget(&mut self, share: &BudgetShare) {
        self.thr_frac *= share.prev.nodes() as f64 / share.next.nodes() as f64;
    }
}

impl ChurnSite for P2Site {
    /// Emits the pending scalar and every pending per-element delta
    /// (item order), ignoring thresholds.
    fn depart(&mut self, out: &mut Vec<P2Msg>) {
        if self.w_local > 0.0 {
            out.push(P2Msg::Total(self.w_local));
            self.w_local = 0.0;
        }
        for (e, d) in self.deltas.drain_sorted() {
            if d > 0.0 {
                out.push(P2Msg::Element(e, d));
            }
        }
    }
}

impl ChurnBudget for P2Coordinator {
    /// The broadcast rule counts scalar reports against the active site
    /// count, so a re-split updates it.
    fn rebudget(&mut self, share: &BudgetShare) {
        self.sites = share.next.sites;
    }
}

impl ChurnCoordinator for P2Coordinator {
    fn current_broadcast(&self) -> Option<f64> {
        (self.w_hat > 1.0).then_some(self.w_hat)
    }
}

impl ChurnBudget for P2Aggregator {
    fn rebudget(&mut self, share: &BudgetShare) {
        self.thr_frac *= share.prev.nodes() as f64 / share.next.nodes() as f64;
    }
}

/// Tagged [`CoordStore`] / [`DeltaStore`]-shaped encoding: `0` = exact
/// map (sorted `(item, value)` pairs), `1` = Misra–Gries.
fn put_coord_store(out: &mut Vec<u8>, store: &CoordStore) {
    match store {
        CoordStore::Exact(map) => {
            out.push(0);
            let mut pairs: Vec<(Item, f64)> = map.iter().map(|(&e, &v)| (e, v)).collect();
            pairs.sort_unstable_by_key(|&(e, _)| e);
            put_usize(out, pairs.len());
            for (e, v) in pairs {
                put_u64(out, e);
                put_f64(out, v);
            }
        }
        CoordStore::Mg(mg) => {
            out.push(1);
            crate::wire::put_mg(out, mg);
        }
    }
}

fn read_coord_store(r: &mut WireReader<'_>) -> Option<CoordStore> {
    match r.u8()? {
        0 => {
            let n = r.usize()?;
            let mut map = HashMap::with_capacity(r.capacity_for(n));
            for _ in 0..n {
                let e = r.u64()?;
                map.insert(e, read_mass(r)?);
            }
            Some(CoordStore::Exact(map))
        }
        1 => Some(CoordStore::Mg(crate::wire::read_mg(r)?)),
        _ => None,
    }
}

impl WireCodec for P2Coordinator {
    fn encode(&self, out: &mut Vec<u8>) {
        put_f64(out, self.w_hat);
        put_usize(out, self.msg_count);
        put_usize(out, self.sites);
        put_coord_store(out, &self.counts);
    }

    /// `None` on `Ŵ < 1`, `sites = 0`, or a negative or non-finite
    /// estimate.
    fn decode(r: &mut WireReader<'_>) -> Option<Self> {
        Some(P2Coordinator {
            w_hat: read_w_hat(r)?,
            msg_count: r.usize()?,
            sites: r.usize().filter(|&m| m >= 1)?,
            counts: read_coord_store(r)?,
        })
    }
}

impl WireCodec for P2Aggregator {
    fn encode(&self, out: &mut Vec<u8>) {
        put_f64(out, self.pending_total);
        let mut pairs: Vec<(Item, f64)> =
            self.pending_deltas.iter().map(|(&e, &d)| (e, d)).collect();
        pairs.sort_unstable_by_key(|&(e, _)| e);
        put_usize(out, pairs.len());
        for (e, d) in pairs {
            put_u64(out, e);
            put_f64(out, d);
        }
        put_f64(out, self.thr_frac);
        put_f64(out, self.w_hat);
        put_usize(out, self.rep);
    }

    /// `None` on a negative or non-finite pending total or delta, a
    /// threshold fraction outside `(0, 1)`, or `Ŵ < 1`.
    fn decode(r: &mut WireReader<'_>) -> Option<Self> {
        let pending_total = read_mass(r)?;
        let n = r.usize()?;
        let mut pending_deltas = HashMap::with_capacity(r.capacity_for(n));
        for _ in 0..n {
            let e = r.u64()?;
            pending_deltas.insert(e, read_mass(r)?);
        }
        Some(P2Aggregator {
            pending_total,
            pending_deltas,
            thr_frac: read_fraction(r)?,
            w_hat: read_w_hat(r)?,
            rep: r.usize()?,
        })
    }
}

/// Builds a P2 deployment with exact per-site delta tables.
pub fn deploy(cfg: &HhConfig) -> Runner<P2Site, P2Coordinator> {
    deploy_with(cfg, &P2Options::default())
}

/// Builds a P2 deployment over an arbitrary aggregation topology (exact
/// per-site delta tables).
///
/// Every withholding node — `m` sites and `I` interior aggregators —
/// shares the threshold `(ε/(m+I))·Ŵ`, so the total unreported mass per
/// element is below `εŴ` exactly as in the star proof (Theorem 1). With
/// no interior nodes this is *identical* to [`deploy`].
pub fn deploy_topology(
    cfg: &HhConfig,
    topology: Topology,
) -> Runner<P2Site, P2Coordinator, P2Aggregator> {
    let plan = topology.plan(cfg.sites);
    let nodes = cfg.sites + plan.internal_nodes();
    let thr_frac = cfg.epsilon / nodes as f64;
    let opts = P2Options::default();
    let sites = (0..cfg.sites)
        .map(|_| P2Site::with_thr_frac(&opts, thr_frac))
        .collect();
    Runner::with_topology(
        sites,
        P2Coordinator::new(cfg, &opts),
        topology,
        make_aggregator(cfg, topology),
    )
}

/// Aggregator factory matching [`deploy_topology`]'s budget split (for
/// the engine's topology drivers).
pub fn make_aggregator(cfg: &HhConfig, topology: Topology) -> impl FnMut(AggNode) -> P2Aggregator {
    let plan = topology.plan(cfg.sites);
    let thr_frac = cfg.epsilon / (cfg.sites + plan.internal_nodes()) as f64;
    move |_| P2Aggregator {
        pending_total: 0.0,
        pending_deltas: HashMap::new(),
        thr_frac,
        w_hat: 1.0,
        rep: 0,
    }
}

/// Builds a P2 deployment with explicit options.
pub fn deploy_with(cfg: &HhConfig, opts: &P2Options) -> Runner<P2Site, P2Coordinator> {
    let sites = (0..cfg.sites).map(|_| P2Site::new(cfg, opts)).collect();
    Runner::new(sites, P2Coordinator::new(cfg, opts))
}

#[cfg(test)]
mod tests {
    use super::*;
    use cma_sketch::ExactWeightedCounter;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn run_random(
        cfg: &HhConfig,
        opts: &P2Options,
        n: u64,
        seed: u64,
    ) -> (Runner<P2Site, P2Coordinator>, ExactWeightedCounter) {
        let mut runner = deploy_with(cfg, opts);
        let mut exact = ExactWeightedCounter::new();
        let mut rng = StdRng::seed_from_u64(seed);
        for i in 0..n {
            let item: Item = if rng.gen_bool(0.3) {
                7
            } else {
                rng.gen_range(0..300)
            };
            let w: f64 = rng.gen_range(1.0..10.0);
            runner.feed((i % cfg.sites as u64) as usize, (item, w));
            exact.update(item, w);
        }
        (runner, exact)
    }

    #[test]
    fn estimates_within_epsilon_w() {
        let cfg = HhConfig::new(5, 0.05);
        let (runner, exact) = run_random(&cfg, &P2Options::default(), 30_000, 1);
        let w = exact.total_weight();
        for (e, f) in exact.iter() {
            let err = (runner.coordinator().estimate(e) - f).abs();
            assert!(
                err <= cfg.epsilon * w + 1e-6,
                "item {e}: {err} > εW = {}",
                cfg.epsilon * w
            );
        }
    }

    #[test]
    fn total_weight_within_epsilon() {
        let cfg = HhConfig::new(4, 0.05);
        let (runner, exact) = run_random(&cfg, &P2Options::default(), 20_000, 2);
        let w = exact.total_weight();
        let w_hat = runner.coordinator().total_weight();
        assert!(
            (w - w_hat).abs() <= cfg.epsilon * w + 1e-6,
            "Ŵ={w_hat} vs W={w}"
        );
    }

    #[test]
    fn fewer_messages_than_p1() {
        let cfg = HhConfig::new(5, 0.02);
        let n = 40_000;
        let (r2, _) = run_random(&cfg, &P2Options::default(), n, 3);

        let mut r1 = super::super::p1::deploy(&cfg);
        let mut rng = StdRng::seed_from_u64(3);
        for i in 0..n {
            let item: Item = if rng.gen_bool(0.3) {
                7
            } else {
                rng.gen_range(0..300)
            };
            let w: f64 = rng.gen_range(1.0..10.0);
            r1.feed((i % 5) as usize, (item, w));
        }
        assert!(
            r2.stats().total() < r1.stats().total(),
            "P2 ({}) should beat P1 ({})",
            r2.stats().total(),
            r1.stats().total()
        );
    }

    #[test]
    fn mg_sites_keep_guarantee() {
        let cfg = HhConfig::new(5, 0.05);
        // Paper's space reduction: ⌈2m/ε⌉ counters.
        let cap = (2.0 * cfg.sites as f64 / cfg.epsilon).ceil() as usize;
        let opts = P2Options {
            mg_site_capacity: Some(cap),
            ..Default::default()
        };
        let (runner, exact) = run_random(&cfg, &opts, 30_000, 4);
        let w = exact.total_weight();
        for (e, f) in exact.iter() {
            let err = (runner.coordinator().estimate(e) - f).abs();
            assert!(err <= cfg.epsilon * w + 1e-6, "MG sites: item {e}: {err}");
        }
    }

    #[test]
    fn mg_coordinator_keeps_guarantee() {
        let cfg = HhConfig::new(5, 0.05);
        let opts = P2Options {
            mg_site_capacity: None,
            mg_coordinator_capacity: Some((2.0 / cfg.epsilon).ceil() as usize),
        };
        let (runner, exact) = run_random(&cfg, &opts, 30_000, 8);
        let w = exact.total_weight();
        for (e, f) in exact.iter() {
            let err = (runner.coordinator().estimate(e) - f).abs();
            // Coordinator MG adds at most W/(cap+1) ≤ εW/2 undercount.
            assert!(
                err <= 1.5 * cfg.epsilon * w + 1e-6,
                "MG coordinator: item {e}: {err}"
            );
        }
        // Heavy hitters still found.
        let hh = runner.coordinator().heavy_hitters(0.2, cfg.epsilon);
        assert!(!hh.is_empty());
        assert_eq!(hh[0].0, 7);
    }

    /// MG stores of capacity `usize::MAX` reserve nothing and never
    /// decrement, so the deployment runs and keeps its `εW` contract.
    #[test]
    fn hostile_mg_capacities_run() {
        let cfg = HhConfig::new(4, 0.05);
        let opts = P2Options {
            mg_site_capacity: Some(usize::MAX),
            mg_coordinator_capacity: Some(usize::MAX),
        };
        let (runner, exact) = run_random(&cfg, &opts, 5_000, 9);
        let w = exact.total_weight();
        for (e, f) in exact.iter() {
            let err = (runner.coordinator().estimate(e) - f).abs();
            assert!(err <= cfg.epsilon * w + 1e-6, "item {e}: {err}");
        }
    }

    #[test]
    fn broadcast_after_m_scalar_messages() {
        let cfg = HhConfig::new(2, 0.5);
        let mut runner = deploy(&cfg);
        // Thresholds start tiny (Ŵ=1): every item triggers a scalar
        // message; after m = 2 of them a broadcast must have happened.
        runner.feed(0, (1, 1.0));
        runner.feed(1, (2, 1.0));
        assert!(runner.stats().broadcast_events >= 1);
    }

    #[test]
    fn element_messages_carry_exact_deltas() {
        let cfg = HhConfig::new(1, 0.9);
        let mut runner = deploy(&cfg);
        for _ in 0..100 {
            runner.feed(0, (5, 2.0));
        }
        // Everything reported must sum to within one threshold of truth.
        let est = runner.coordinator().estimate(5);
        assert!(est <= 200.0 + 1e-9);
        assert!(200.0 - est <= cfg.epsilon * 200.0 + 1e-9);
    }
}
