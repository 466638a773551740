//! Protocol P4 — probabilistic count reports (paper §4.4).
//!
//! The weighted generalisation of Huang–Yi–Zhang's randomized tracker.
//! Each site keeps its exact local counts `fe(Aj)` and, per arrival of
//! weight `w`, sends the *current local count* of the arriving element
//! with probability `p̄ = 1 − e^{−p·w}`, where `p = 2√m/(ε·Ŵ)`
//! (Algorithm 4.7) — the continuous-weight limit of flipping a coin per
//! unit of weight. The coordinator keeps the latest report `w̄e,j` per
//! (element, site) and compensates the expected staleness by adding `1/p`
//! (Lemma 7): `Ŵe = Σj (w̄e,j + 1/p)`.
//!
//! Guarantee (Theorem 3): `|fe(A) − Ŵe| ≤ εW` with probability ≥ 3/4,
//! using `O((√m/ε) log(βN))` messages. The `Ŵ` that calibrates `p` is a
//! deterministic 2-approximation maintained by the shared
//! [`crate::weight_tracker`] sub-protocol.

use super::{validate_weight, HhEstimator, Item, WeightedItem};
use crate::config::HhConfig;
use crate::weight_tracker::{CoordWeightTracker, SiteWeightTracker};
use cma_sketch::SpaceSaving;
use cma_stream::{
    put_f64, put_u64, put_usize, AggNode, Aggregator, BudgetShare, ChurnBudget, ChurnCoordinator,
    ChurnSite, Coordinator, MessageCost, MigratableAggregator, Runner, Site, SiteId, Topology,
    WireCodec, WireReader,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashMap;

/// Site → coordinator messages of protocol P4.
#[derive(Debug, Clone, PartialEq)]
pub enum P4Msg {
    /// Weight-tracker report (unreported local weight).
    Total(f64),
    /// `(e, fe(Aj))`: the site's current exact count of element `e`.
    Count(Item, f64),
}

impl MessageCost for P4Msg {
    fn cost(&self) -> u64 {
        1
    }

    /// Exact size of the [`crate::wire`] encoding: tag plus payload.
    fn wire_bytes(&self) -> u64 {
        match self {
            P4Msg::Total(_) => 9,
            P4Msg::Count(..) => 17,
        }
    }

    /// Tracker reports carry incremental weight; count refreshes are
    /// absolute state (losing one leaves a stale count, not lost mass).
    fn mass(&self) -> f64 {
        match self {
            P4Msg::Total(w) => *w,
            P4Msg::Count(..) => 0.0,
        }
    }
}

/// Per-site storage for the local counts `fe(Aj)`.
///
/// The exact map uses `O(distinct)` space; the paper's reduction — "the
/// space on each site can be reduced to `O(1/ε)` by using a weighted
/// variant of the space-saving algorithm" — fits because SpaceSaving
/// *overestimates* by at most `εW/m`-scale mass, which folds into P4's
/// probabilistic error budget.
#[derive(Debug, Clone)]
enum CountStore {
    /// Exact per-element counts.
    Exact(HashMap<Item, f64>),
    /// SpaceSaving with bounded counters.
    Ss(SpaceSaving),
}

impl CountStore {
    /// Adds weight and returns the current count estimate for the item.
    fn add(&mut self, item: Item, w: f64) -> f64 {
        match self {
            CountStore::Exact(map) => {
                let c = map.entry(item).or_insert(0.0);
                *c += w;
                *c
            }
            CountStore::Ss(ss) => {
                ss.update(item, w);
                ss.estimate(item)
            }
        }
    }
}

/// Tuning knobs beyond [`HhConfig`].
#[derive(Debug, Clone, Default)]
pub struct P4Options {
    /// When set, sites track local counts in a SpaceSaving summary with
    /// this many counters instead of an exact map (the paper suggests
    /// `O(1/ε)`). `None` = exact.
    pub ss_site_capacity: Option<usize>,
}

/// P4 site.
#[derive(Debug, Clone)]
pub struct P4Site {
    /// Local counts `fe(Aj)` (exact or SpaceSaving).
    counts: CountStore,
    tracker: SiteWeightTracker,
    sites: usize,
    epsilon: f64,
    rng: StdRng,
}

impl P4Site {
    fn new(cfg: &HhConfig, site: usize, opts: &P4Options) -> Self {
        Self::with_budget(cfg, site, opts, cfg.sites)
    }

    /// `budget` is the number of weight-withholding nodes the tracker's
    /// `Ŵ/2` slack is split across: `m` in a star, `m + I` in a tree.
    fn with_budget(cfg: &HhConfig, site: usize, opts: &P4Options, budget: usize) -> Self {
        let counts = match opts.ss_site_capacity {
            Some(cap) => CountStore::Ss(SpaceSaving::new(cap)),
            None => CountStore::Exact(HashMap::new()),
        };
        P4Site {
            counts,
            tracker: SiteWeightTracker::with_budget(budget),
            sites: cfg.sites,
            epsilon: cfg.epsilon,
            rng: StdRng::seed_from_u64(cfg.site_seed(site)),
        }
    }

    /// Send-rate parameter `p = 2√m/(ε·Ŵ)`.
    fn p(&self) -> f64 {
        2.0 * (self.sites as f64).sqrt() / (self.epsilon * self.tracker.w_hat())
    }
}

impl Site for P4Site {
    type Input = WeightedItem;
    type UpMsg = P4Msg;
    type Broadcast = f64;

    fn observe(&mut self, (item, weight): WeightedItem, out: &mut Vec<P4Msg>) {
        validate_weight(weight);
        if let Some(report) = self.tracker.add(weight) {
            out.push(P4Msg::Total(report));
        }
        let p_bar = 1.0 - (-self.p() * weight).exp();
        let count = self.counts.add(item, weight);
        if self.rng.gen::<f64>() < p_bar {
            out.push(P4Msg::Count(item, count));
        }
    }

    /// Batched arrivals hoist the send-rate parameter `p = 2√m/(ε·Ŵ)`
    /// out of the loop: `Ŵ` only changes on a broadcast, which can only
    /// arrive after this site pauses with a message, so the per-arrival
    /// work reduces to the tracker update, one `exp`, one RNG draw and
    /// the count update — with RNG order identical to per-item execution.
    fn observe_batch(
        &mut self,
        inputs: impl IntoIterator<Item = WeightedItem>,
        out: &mut Vec<P4Msg>,
    ) {
        let p = self.p();
        for (item, weight) in inputs {
            validate_weight(weight);
            if let Some(report) = self.tracker.add(weight) {
                out.push(P4Msg::Total(report));
            }
            let p_bar = 1.0 - (-p * weight).exp();
            let count = self.counts.add(item, weight);
            if self.rng.gen::<f64>() < p_bar {
                out.push(P4Msg::Count(item, count));
            }
            if !out.is_empty() {
                return; // pause-on-message
            }
        }
    }

    fn on_broadcast(&mut self, w_hat: &f64) {
        self.tracker.on_broadcast(*w_hat);
    }
}

/// P4 coordinator.
#[derive(Debug, Clone)]
pub struct P4Coordinator {
    /// Latest per-(element, site) count report `w̄e,j`.
    reports: HashMap<(Item, SiteId), f64>,
    tracker: CoordWeightTracker,
    sites: usize,
    epsilon: f64,
}

impl P4Coordinator {
    fn new(cfg: &HhConfig) -> Self {
        P4Coordinator {
            reports: HashMap::new(),
            tracker: CoordWeightTracker::new(),
            sites: cfg.sites,
            epsilon: cfg.epsilon,
        }
    }

    /// The coordinator-side `p` used for the staleness compensation.
    fn p(&self) -> f64 {
        2.0 * (self.sites as f64).sqrt() / (self.epsilon * self.tracker.w_hat())
    }
}

impl Coordinator for P4Coordinator {
    type UpMsg = P4Msg;
    type Broadcast = f64;

    fn receive(&mut self, from: SiteId, msg: P4Msg, out: &mut Vec<f64>) {
        match msg {
            P4Msg::Total(report) => {
                if let Some(new_hat) = self.tracker.on_report(report) {
                    out.push(new_hat);
                }
            }
            P4Msg::Count(e, count) => {
                self.reports.insert((e, from), count);
            }
        }
    }
}

impl HhEstimator for P4Coordinator {
    fn total_weight(&self) -> f64 {
        self.tracker.received()
    }

    fn estimate(&self, item: Item) -> f64 {
        let adjust = 1.0 / self.p();
        self.reports
            .iter()
            .filter(|((e, _), _)| *e == item)
            .map(|(_, &count)| count + adjust)
            .sum()
    }

    fn tracked_items(&self) -> Vec<Item> {
        let mut items: Vec<Item> = self.reports.keys().map(|&(e, _)| e).collect();
        items.sort_unstable();
        items.dedup();
        items
    }

    /// One pass instead of per-item rescans of the report table; each
    /// item's reports are summed in the table order `estimate` walks.
    fn estimates(&self) -> Vec<(Item, f64)> {
        let adjust = 1.0 / self.p();
        let mut sums: HashMap<Item, f64> = HashMap::new();
        for ((e, _), &count) in &self.reports {
            *sums.entry(*e).or_insert(0.0) += count + adjust;
        }
        sums.into_iter().collect()
    }
}

/// Interior tree node of a P4 deployment.
///
/// Count reports are keyed by originating site at the coordinator
/// (`w̄e,j` is "site j's latest count of e"), so they are relayed with
/// their origin preserved — merging them would destroy the per-site
/// staleness compensation. Weight-tracker reports, by contrast, are pure
/// partial sums: the node coalesces them and forwards once its pending
/// total reaches the shared node threshold `Ŵ/(2(m+I))`, keeping the
/// tracker's deterministic 2-approximation (total withheld ≤ `Ŵ/2`
/// across all `m + I` withholding nodes).
#[derive(Debug, Clone)]
pub struct P4Aggregator {
    tracker: SiteWeightTracker,
    pending: Vec<(SiteId, P4Msg)>,
    /// Representative origin for the tracker's coalesced weight (the
    /// coordinator's tracker ignores origins; any contributing leaf
    /// works).
    rep: SiteId,
}

impl Aggregator for P4Aggregator {
    type UpMsg = P4Msg;
    type Broadcast = f64;

    fn absorb(&mut self, from: SiteId, msg: P4Msg) {
        match msg {
            P4Msg::Total(report) => {
                self.rep = from;
                if let Some(merged) = self.tracker.add(report) {
                    self.pending.push((from, P4Msg::Total(merged)));
                }
            }
            count => self.pending.push((from, count)),
        }
    }

    fn flush(&mut self, out: &mut Vec<(SiteId, P4Msg)>) {
        out.append(&mut self.pending);
    }

    fn on_broadcast(&mut self, w_hat: &f64) {
        self.tracker.on_broadcast(*w_hat);
    }
}

impl MigratableAggregator for P4Aggregator {
    /// Drains the relay queue plus the tracker's sub-threshold weight —
    /// the only state this node withholds.
    fn split_for_migration(&mut self, out: &mut Vec<(SiteId, P4Msg)>) {
        out.append(&mut self.pending);
        let held = self.tracker.take_unreported();
        if held > 0.0 {
            out.push((self.rep, P4Msg::Total(held)));
        }
    }
}

impl ChurnBudget for P4Site {
    /// The send probability scales with `√m'` and the tracker threshold
    /// with `1/(m' + I')` — both restate directly from `next`.
    fn rebudget(&mut self, share: &BudgetShare) {
        self.sites = share.next.sites;
        self.tracker.set_budget(share.next.nodes());
    }
}

impl ChurnSite for P4Site {
    /// Ships only the tracker's unreported weight. Count reports are
    /// absolute state the coordinator already holds per (element, site);
    /// re-sending them would not change the estimator, and the withheld
    /// *mass* lives entirely in the tracker.
    fn depart(&mut self, out: &mut Vec<P4Msg>) {
        let held = self.tracker.take_unreported();
        if held > 0.0 {
            out.push(P4Msg::Total(held));
        }
    }
}

impl ChurnBudget for P4Coordinator {
    fn rebudget(&mut self, share: &BudgetShare) {
        self.sites = share.next.sites;
    }
}

impl ChurnCoordinator for P4Coordinator {
    fn current_broadcast(&self) -> Option<f64> {
        let w_hat = self.tracker.w_hat();
        (w_hat > 1.0).then_some(w_hat)
    }
}

impl ChurnBudget for P4Aggregator {
    fn rebudget(&mut self, share: &BudgetShare) {
        self.tracker.set_budget(share.next.nodes());
    }
}

impl WireCodec for P4Coordinator {
    fn encode(&self, out: &mut Vec<u8>) {
        let mut reports: Vec<((Item, SiteId), f64)> =
            self.reports.iter().map(|(&k, &v)| (k, v)).collect();
        reports.sort_unstable_by_key(|&(k, _)| k);
        put_usize(out, reports.len());
        for ((e, j), count) in reports {
            put_u64(out, e);
            put_usize(out, j);
            put_f64(out, count);
        }
        put_f64(out, self.tracker.received());
        put_f64(out, self.tracker.w_hat());
        put_usize(out, self.sites);
        put_f64(out, self.epsilon);
    }

    fn decode(r: &mut WireReader<'_>) -> Option<Self> {
        let n = r.usize()?;
        let mut reports = HashMap::with_capacity(r.capacity_for(n));
        for _ in 0..n {
            let e = r.u64()?;
            let j = r.usize()?;
            reports.insert((e, j), r.f64()?);
        }
        let received = r.f64()?;
        let w_hat = r.f64()?;
        Some(P4Coordinator {
            reports,
            tracker: CoordWeightTracker::from_parts(received, w_hat),
            sites: r.usize()?,
            epsilon: r.f64()?,
        })
    }
}

impl WireCodec for P4Aggregator {
    fn encode(&self, out: &mut Vec<u8>) {
        put_usize(out, self.tracker.budget());
        put_f64(out, self.tracker.unreported());
        put_f64(out, self.tracker.w_hat());
        put_usize(out, self.pending.len());
        for (origin, msg) in &self.pending {
            put_usize(out, *origin);
            msg.encode(out);
        }
        put_usize(out, self.rep);
    }

    fn decode(r: &mut WireReader<'_>) -> Option<Self> {
        let budget = r.usize()?;
        if budget == 0 {
            return None;
        }
        let unreported = r.f64()?;
        let w_hat = r.f64()?;
        let n = r.usize()?;
        let mut pending = Vec::with_capacity(r.capacity_for(n));
        for _ in 0..n {
            let origin = r.usize()?;
            pending.push((origin, P4Msg::decode(r)?));
        }
        Some(P4Aggregator {
            tracker: SiteWeightTracker::from_parts(budget, unreported, w_hat),
            pending,
            rep: r.usize()?,
        })
    }
}

/// Builds a P4 deployment with exact per-site count maps.
pub fn deploy(cfg: &HhConfig) -> Runner<P4Site, P4Coordinator> {
    deploy_with(cfg, &P4Options::default())
}

/// Builds a P4 deployment over an arbitrary aggregation topology (exact
/// per-site count maps). The weight-tracker budget is split across the
/// `m + I` withholding nodes; with no interior nodes this is *identical*
/// to [`deploy`].
pub fn deploy_topology(
    cfg: &HhConfig,
    topology: Topology,
) -> Runner<P4Site, P4Coordinator, P4Aggregator> {
    let plan = topology.plan(cfg.sites);
    let budget = cfg.sites + plan.internal_nodes();
    let opts = P4Options::default();
    let sites = (0..cfg.sites)
        .map(|i| P4Site::with_budget(cfg, i, &opts, budget))
        .collect();
    Runner::with_topology(
        sites,
        P4Coordinator::new(cfg),
        topology,
        make_aggregator(cfg, topology),
    )
}

/// Aggregator factory matching [`deploy_topology`]'s budget split (for
/// the engine's topology drivers).
pub fn make_aggregator(cfg: &HhConfig, topology: Topology) -> impl FnMut(AggNode) -> P4Aggregator {
    let plan = topology.plan(cfg.sites);
    let budget = cfg.sites + plan.internal_nodes();
    move |_| P4Aggregator {
        tracker: SiteWeightTracker::with_budget(budget),
        pending: Vec::new(),
        rep: 0,
    }
}

/// Builds a P4 deployment with explicit options.
pub fn deploy_with(cfg: &HhConfig, opts: &P4Options) -> Runner<P4Site, P4Coordinator> {
    let sites = (0..cfg.sites).map(|i| P4Site::new(cfg, i, opts)).collect();
    Runner::new(sites, P4Coordinator::new(cfg))
}

#[cfg(test)]
mod tests {
    use super::*;
    use cma_sketch::ExactWeightedCounter;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn run_skewed(
        cfg: &HhConfig,
        n: u64,
        seed: u64,
    ) -> (Runner<P4Site, P4Coordinator>, ExactWeightedCounter) {
        let mut runner = deploy(cfg);
        let mut exact = ExactWeightedCounter::new();
        let mut rng = StdRng::seed_from_u64(seed);
        for i in 0..n {
            let item: Item = if rng.gen_bool(0.3) {
                1
            } else {
                rng.gen_range(2..300)
            };
            let w: f64 = rng.gen_range(1.0..5.0);
            runner.feed((i % cfg.sites as u64) as usize, (item, w));
            exact.update(item, w);
        }
        (runner, exact)
    }

    #[test]
    fn heavy_item_within_epsilon_w() {
        let cfg = HhConfig::new(4, 0.1).with_seed(31);
        let (runner, exact) = run_skewed(&cfg, 30_000, 1);
        let w = exact.total_weight();
        let est = runner.coordinator().estimate(1);
        let truth = exact.frequency(1);
        // Randomized guarantee (prob ≥ 3/4); the fixed seed makes this a
        // deterministic regression check within the theoretical bound.
        assert!(
            (est - truth).abs() <= cfg.epsilon * w,
            "est {est} vs truth {truth}, εW {}",
            cfg.epsilon * w
        );
    }

    #[test]
    fn weight_tracker_two_approximation() {
        let cfg = HhConfig::new(4, 0.1).with_seed(32);
        let (runner, exact) = run_skewed(&cfg, 20_000, 2);
        let w = exact.total_weight();
        let received = runner.coordinator().total_weight();
        assert!(received <= w + 1e-6);
        assert!(
            received >= w / 2.0,
            "received {received} below W/2 = {}",
            w / 2.0
        );
    }

    #[test]
    fn finds_planted_heavy_hitter() {
        let cfg = HhConfig::new(9, 0.1).with_seed(33);
        let (runner, _) = run_skewed(&cfg, 30_000, 3);
        let hh = runner.coordinator().heavy_hitters(0.2, cfg.epsilon);
        assert!(!hh.is_empty());
        assert_eq!(hh[0].0, 1);
    }

    #[test]
    fn communication_sublinear() {
        let cfg = HhConfig::new(16, 0.1).with_seed(34);
        let n = 50_000;
        let (runner, _) = run_skewed(&cfg, n, 4);
        let sent = runner.stats().total();
        assert!(sent < n / 3, "P4 sent {sent} of {n}");
    }

    #[test]
    fn send_probability_shrinks_with_weight_estimate() {
        let cfg = HhConfig::new(4, 0.1);
        let mut site = P4Site::new(&cfg, 0, &P4Options::default());
        let p_early = site.p();
        site.on_broadcast(&10_000.0);
        assert!(site.p() < p_early / 1_000.0);
    }

    #[test]
    fn space_saving_sites_keep_heavy_hitters() {
        let cfg = HhConfig::new(4, 0.1).with_seed(36);
        let opts = P4Options {
            ss_site_capacity: Some((2.0 / cfg.epsilon).ceil() as usize),
        };
        let mut runner = deploy_with(&cfg, &opts);
        let mut exact = ExactWeightedCounter::new();
        let mut rng = StdRng::seed_from_u64(6);
        for i in 0..30_000u64 {
            let item: Item = if rng.gen_bool(0.3) {
                1
            } else {
                rng.gen_range(2..300)
            };
            let w: f64 = rng.gen_range(1.0..5.0);
            runner.feed((i % 4) as usize, (item, w));
            exact.update(item, w);
        }
        let hh = runner.coordinator().heavy_hitters(0.2, cfg.epsilon);
        assert!(!hh.is_empty());
        assert_eq!(hh[0].0, 1);
        let w = exact.total_weight();
        let est = runner.coordinator().estimate(1);
        // SpaceSaving adds at most its own εW-scale overcount on top of
        // P4's probabilistic bound; allow both.
        assert!(
            (est - exact.frequency(1)).abs() <= 2.0 * cfg.epsilon * w,
            "estimate {est} vs {}",
            exact.frequency(1)
        );
    }

    #[test]
    fn estimate_includes_staleness_adjustment() {
        let cfg = HhConfig::new(1, 0.5).with_seed(35);
        let mut runner = deploy(&cfg);
        // Single arrival: p is huge (Ŵ=1) so the count is sent surely.
        runner.feed(0, (9, 1.0));
        let est = runner.coordinator().estimate(9);
        assert!(est >= 1.0, "estimate {est} lost the reported count");
    }
}
