//! Protocol P1 — batched Misra–Gries summaries (paper §4.1).
//!
//! Each site runs a weighted Misra–Gries summary with error parameter
//! `ε' = ε/2` (`⌈2/ε⌉` counters) plus a running total `Wᵢ` of local weight
//! since its last flush. When `Wᵢ ≥ τ = (ε/2m)·Ŵ`, the site ships its
//! *entire summary* to the coordinator and resets (Algorithm 4.1). The
//! coordinator merges incoming summaries — mergeability keeps the
//! combined error at `ε'·W_C` — and re-broadcasts `Ŵ` whenever the
//! received total has grown by a factor `1 + ε/2` (Algorithm 4.2).
//!
//! Guarantee (Lemma 2): every estimate is within `εW`; communication is
//! `O((m/ε²) log(βN))` elements, because each flushed summary carries up
//! to `2/ε` counters — which is exactly how [`MessageCost`] charges it.

use super::{validate_weight, HhEstimator, Item, WeightedItem};
use crate::config::HhConfig;
use cma_sketch::MgSummary;
use cma_stream::{
    put_f64, put_usize, AggNode, Aggregator, BudgetShare, ChurnBudget, ChurnCoordinator, ChurnSite,
    Coordinator, Membership, MessageCost, MigratableAggregator, Runner, Site, SiteId, Topology,
    WireCodec, WireReader,
};

/// Site → coordinator message: the site's entire Misra–Gries state.
#[derive(Debug, Clone)]
pub struct P1Msg {
    /// Flushed summary; its `total_weight()` is the site's `Wᵢ`.
    pub summary: MgSummary,
}

impl MessageCost for P1Msg {
    /// One element per shipped counter plus one for the weight scalar.
    fn cost(&self) -> u64 {
        self.summary.len() as u64 + 1
    }

    /// Exact size of the [`crate::wire`] encoding.
    fn wire_bytes(&self) -> u64 {
        crate::wire::mg_bytes(&self.summary)
    }

    /// A lost flush loses the summary's whole ingested weight.
    fn mass(&self) -> f64 {
        self.summary.total_weight()
    }
}

/// P1 site: local Misra–Gries plus the flush threshold.
#[derive(Debug, Clone)]
pub struct P1Site {
    summary: MgSummary,
    /// Flush threshold as a fraction of `Ŵ`: `ε/2m` in a star, half
    /// that in a tree (the other half of the unreported-weight budget
    /// goes to the interior aggregators).
    tau_frac: f64,
    /// Global weight estimate from the last broadcast.
    w_hat: f64,
}

impl P1Site {
    fn new(cfg: &HhConfig) -> Self {
        Self::with_tau_frac(cfg, cfg.epsilon / (2.0 * cfg.sites as f64))
    }

    fn with_tau_frac(cfg: &HhConfig, tau_frac: f64) -> Self {
        // ε' = ε/2 → ⌈2/ε⌉ counters.
        P1Site {
            summary: MgSummary::with_error_bound(cfg.epsilon / 2.0),
            tau_frac,
            w_hat: 1.0,
        }
    }

    /// Local flush threshold `τ = (ε/2m)·Ŵ` (star; see
    /// [`deploy_topology`] for the tree split).
    fn tau(&self) -> f64 {
        self.tau_frac * self.w_hat
    }
}

impl Site for P1Site {
    type Input = WeightedItem;
    type UpMsg = P1Msg;
    type Broadcast = f64;

    fn observe(&mut self, (item, weight): WeightedItem, out: &mut Vec<P1Msg>) {
        validate_weight(weight);
        self.summary.update(item, weight);
        if self.summary.total_weight() >= self.tau() {
            let summary = self.summary.take_all();
            out.push(P1Msg { summary });
        }
    }

    /// Batched arrivals fold into the Misra–Gries summary in one tight
    /// loop with the flush threshold `τ` hoisted out of it — `τ` only
    /// changes on a broadcast, and a broadcast can only arrive after this
    /// site pauses with a flushed summary, so hoisting is exact.
    fn observe_batch(
        &mut self,
        inputs: impl IntoIterator<Item = WeightedItem>,
        out: &mut Vec<P1Msg>,
    ) {
        let tau = self.tau();
        for (item, weight) in inputs {
            validate_weight(weight);
            self.summary.update(item, weight);
            if self.summary.total_weight() >= tau {
                let summary = self.summary.take_all();
                out.push(P1Msg { summary });
                return; // pause-on-message
            }
        }
    }

    fn on_broadcast(&mut self, w_hat: &f64) {
        self.w_hat = *w_hat;
    }
}

/// P1 coordinator: merged global summary plus the broadcast rule.
#[derive(Debug, Clone)]
pub struct P1Coordinator {
    merged: MgSummary,
    /// Total weight received from sites (`W_C`).
    received: f64,
    /// Last broadcast estimate `Ŵ`.
    w_hat: f64,
    epsilon: f64,
}

impl P1Coordinator {
    fn new(cfg: &HhConfig) -> Self {
        P1Coordinator {
            merged: MgSummary::with_error_bound(cfg.epsilon / 2.0),
            received: 0.0,
            w_hat: 1.0,
            epsilon: cfg.epsilon,
        }
    }
}

impl Coordinator for P1Coordinator {
    type UpMsg = P1Msg;
    type Broadcast = f64;

    fn receive(&mut self, _from: SiteId, msg: P1Msg, out: &mut Vec<f64>) {
        self.received += msg.summary.total_weight();
        self.merged.absorb(msg.summary);
        if self.received / self.w_hat > 1.0 + self.epsilon / 2.0 {
            self.w_hat = self.received;
            out.push(self.w_hat);
        }
    }
}

impl HhEstimator for P1Coordinator {
    fn total_weight(&self) -> f64 {
        self.received
    }
    fn estimate(&self, item: Item) -> f64 {
        self.merged.estimate(item)
    }
    fn tracked_items(&self) -> Vec<Item> {
        self.merged.counters().map(|(e, _)| e).collect()
    }
    /// One pass over the merged counters, not a lookup per item.
    fn estimates(&self) -> Vec<(Item, f64)> {
        self.merged.counters().collect()
    }
}

/// Interior tree node of a P1 deployment: merges flushed Misra–Gries
/// summaries (Agarwal et al. mergeability keeps the combined error at
/// `ε'·W`) and holds the merged partial until its weight reaches this
/// node's share of the unreported-weight budget, so upper tree levels
/// see genuinely coalesced traffic instead of one relayed summary per
/// site flush.
#[derive(Debug, Clone)]
pub struct P1Aggregator {
    merged: MgSummary,
    /// Forward threshold as a fraction of `Ŵ` (this node's slice of the
    /// `ε/4` interior budget — see [`deploy_topology`]).
    hold_frac: f64,
    w_hat: f64,
    /// Representative origin for the merged partial (P1's coordinator
    /// ignores origins; any contributing leaf works).
    rep: SiteId,
}

impl Aggregator for P1Aggregator {
    type UpMsg = P1Msg;
    type Broadcast = f64;

    fn absorb(&mut self, from: SiteId, msg: P1Msg) {
        if self.merged.is_empty() {
            self.rep = from;
        }
        self.merged.absorb(msg.summary);
    }

    fn flush(&mut self, out: &mut Vec<(SiteId, P1Msg)>) {
        if self.merged.total_weight() >= self.hold_frac * self.w_hat {
            let summary = self.merged.take_all();
            out.push((self.rep, P1Msg { summary }));
        }
    }

    fn on_broadcast(&mut self, w_hat: &f64) {
        self.w_hat = *w_hat;
    }
}

impl MigratableAggregator for P1Aggregator {
    /// Ships the merged partial regardless of the hold threshold — the
    /// withheld-weight budget is re-stated against the new plan, so
    /// nothing may stay behind.
    fn split_for_migration(&mut self, out: &mut Vec<(SiteId, P1Msg)>) {
        if !self.merged.is_empty() {
            let summary = self.merged.take_all();
            out.push((self.rep, P1Msg { summary }));
        }
    }
}

/// Leaf share of P1's unreported-weight budget under a membership:
/// `(ε/2)/m'` when the plan is flat, `(ε/4)/m'` when interior nodes
/// take the other half. Re-splits rescale `tau_frac` by the ratio of
/// shares, so `ε` cancels and re-splits compose.
fn p1_site_frac(mem: &Membership) -> f64 {
    if mem.flat {
        0.5 / mem.sites as f64
    } else {
        0.25 / mem.sites as f64
    }
}

/// Interior share: the node's slice of the `ε/4` interior budget,
/// `covered/(4·L·m')` (again stated without the common `ε` factor).
fn p1_interior_frac(mem: &Membership, covered: usize) -> f64 {
    covered as f64 / (4.0 * mem.levels.max(1) as f64 * mem.sites as f64)
}

impl ChurnBudget for P1Site {
    fn rebudget(&mut self, share: &BudgetShare) {
        self.tau_frac *= p1_site_frac(&share.next) / p1_site_frac(&share.prev);
    }
}

impl ChurnSite for P1Site {
    /// Ships the entire local summary regardless of the flush threshold
    /// — the departing site's withheld mass re-enters the bound.
    fn depart(&mut self, out: &mut Vec<P1Msg>) {
        if !self.summary.is_empty() {
            let summary = self.summary.take_all();
            out.push(P1Msg { summary });
        }
    }
}

impl ChurnBudget for P1Coordinator {}

impl ChurnCoordinator for P1Coordinator {
    fn current_broadcast(&self) -> Option<f64> {
        (self.w_hat > 1.0).then_some(self.w_hat)
    }
}

impl ChurnBudget for P1Aggregator {
    fn rebudget(&mut self, share: &BudgetShare) {
        self.hold_frac *= p1_interior_frac(&share.next, share.covered_next)
            / p1_interior_frac(&share.prev, share.covered_prev);
    }
}

impl WireCodec for P1Coordinator {
    fn encode(&self, out: &mut Vec<u8>) {
        crate::wire::put_mg(out, &self.merged);
        put_f64(out, self.received);
        put_f64(out, self.w_hat);
        put_f64(out, self.epsilon);
    }

    fn decode(r: &mut WireReader<'_>) -> Option<Self> {
        Some(P1Coordinator {
            merged: crate::wire::read_mg(r)?,
            received: r.f64()?,
            w_hat: r.f64()?,
            epsilon: r.f64()?,
        })
    }

    fn encoded_len(&self) -> u64 {
        crate::wire::mg_bytes(&self.merged) + 24
    }
}

impl WireCodec for P1Aggregator {
    fn encode(&self, out: &mut Vec<u8>) {
        crate::wire::put_mg(out, &self.merged);
        put_f64(out, self.hold_frac);
        put_f64(out, self.w_hat);
        put_usize(out, self.rep);
    }

    fn decode(r: &mut WireReader<'_>) -> Option<Self> {
        Some(P1Aggregator {
            merged: crate::wire::read_mg(r)?,
            hold_frac: r.f64()?,
            w_hat: r.f64()?,
            rep: r.usize()?,
        })
    }

    fn encoded_len(&self) -> u64 {
        crate::wire::mg_bytes(&self.merged) + 24
    }
}

/// Builds a ready-to-run P1 deployment.
pub fn deploy(cfg: &HhConfig) -> Runner<P1Site, P1Coordinator> {
    let sites = (0..cfg.sites).map(|_| P1Site::new(cfg)).collect();
    Runner::new(sites, P1Coordinator::new(cfg))
}

/// Builds a P1 deployment over an arbitrary aggregation topology.
///
/// The star's `εW` guarantee decomposes as `ε/2` Misra–Gries error plus
/// `ε/2` unreported weight (`m` sites × `τ = (ε/2m)·Ŵ`). A tree adds
/// `I` interior nodes that also withhold weight, so the unreported
/// budget is re-split: sites get `ε/4` (`τ = (ε/4m)·Ŵ`) and the
/// interior gets `ε/4`, divided across levels and proportionally to
/// each node's subtree (`(ε/4L)·(c/m)·Ŵ` for a node covering `c` of
/// `m` leaves over `L` levels). Total withheld stays ≤ `(ε/2)Ŵ` and MG
/// mergeability is merge-tree-shape-insensitive, so the end-to-end
/// `εW` contract is preserved at any fanout — and with no interior
/// nodes (star, or `fanout ≥ m`) this is *identical* to [`deploy`].
pub fn deploy_topology(
    cfg: &HhConfig,
    topology: Topology,
) -> Runner<P1Site, P1Coordinator, P1Aggregator> {
    let plan = topology.plan(cfg.sites);
    let m = cfg.sites as f64;
    let site_frac = if plan.internal_levels() == 0 {
        cfg.epsilon / (2.0 * m)
    } else {
        cfg.epsilon / (4.0 * m)
    };
    let sites = (0..cfg.sites)
        .map(|_| P1Site::with_tau_frac(cfg, site_frac))
        .collect();
    Runner::with_topology(
        sites,
        P1Coordinator::new(cfg),
        topology,
        make_aggregator(cfg, topology),
    )
}

/// Aggregator factory matching [`deploy_topology`]'s budget split — the
/// entry point for driving a tree deployment through
/// [`cma_stream::runner::engine::run_partitioned_topology_parts`] (pair
/// it with sites taken from a `deploy_topology` runner so the leaf
/// thresholds share the same split).
pub fn make_aggregator(cfg: &HhConfig, topology: Topology) -> impl FnMut(AggNode) -> P1Aggregator {
    let plan = topology.plan(cfg.sites);
    let levels = plan.internal_levels().max(1) as f64;
    let m = cfg.sites as f64;
    let eps = cfg.epsilon;
    move |node| P1Aggregator {
        merged: MgSummary::with_error_bound(eps / 2.0),
        hold_frac: eps / (4.0 * levels) * (node.leaves as f64 / m),
        w_hat: 1.0,
        rep: 0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cma_sketch::ExactWeightedCounter;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// Runs the protocol on a random weighted stream and checks the
    /// ε-accuracy contract on every item.
    #[test]
    fn estimates_within_epsilon_w() {
        let cfg = HhConfig::new(5, 0.1);
        let mut runner = deploy(&cfg);
        let mut exact = ExactWeightedCounter::new();
        let mut rng = StdRng::seed_from_u64(1);
        for i in 0..20_000u64 {
            let item: Item = if rng.gen_bool(0.4) {
                1
            } else {
                rng.gen_range(2..500)
            };
            let w: f64 = rng.gen_range(1.0..10.0);
            runner.feed((i % 5) as usize, (item, w));
            exact.update(item, w);
        }
        let w = exact.total_weight();
        let coord = runner.coordinator();
        for (e, f) in exact.iter() {
            let err = (coord.estimate(e) - f).abs();
            assert!(err <= cfg.epsilon * w + 1e-6, "item {e}: error {err} > εW");
        }
        // Total-weight estimate within εW as well.
        assert!((coord.total_weight() - w).abs() <= cfg.epsilon * w);
    }

    #[test]
    fn communication_is_sublinear() {
        let cfg = HhConfig::new(5, 0.1);
        let mut runner = deploy(&cfg);
        let n = 50_000u64;
        let mut rng = StdRng::seed_from_u64(2);
        for i in 0..n {
            let item: Item = rng.gen_range(0..100);
            runner.feed((i % 5) as usize, (item, rng.gen_range(1.0..5.0)));
        }
        let total = runner.stats().total();
        assert!(total < n / 2, "P1 sent {total} messages for {n} items");
    }

    #[test]
    fn heavy_hitter_query_finds_planted_item() {
        let cfg = HhConfig::new(3, 0.05);
        let mut runner = deploy(&cfg);
        let mut rng = StdRng::seed_from_u64(3);
        for i in 0..9_000u64 {
            // Item 42 gets one third of the arrivals.
            let item: Item = if i % 3 == 0 {
                42
            } else {
                rng.gen_range(100..1000)
            };
            runner.feed((i % 3) as usize, (item, 1.0));
        }
        let hh = runner.coordinator().heavy_hitters(0.2, cfg.epsilon);
        assert!(!hh.is_empty());
        assert_eq!(hh[0].0, 42);
    }

    /// ε = 10⁻¹² asks for 2·10¹² counters per node. Capacity bounds the
    /// counters and is never reserved, so the deployment runs instead
    /// of aborting the process on allocation.
    #[test]
    fn hostile_capacity_deploys_and_runs() {
        let cfg = HhConfig::new(4, 1e-12);
        let mut runner = deploy(&cfg);
        for i in 0..1_000u64 {
            runner.feed((i % 4) as usize, (i % 10, 1.0));
        }
        let coord = runner.coordinator();
        assert_eq!(coord.total_weight(), 1_000.0);
        assert_eq!(coord.estimate(3), 100.0);
    }

    #[test]
    fn flush_resets_site_state() {
        let cfg = HhConfig::new(1, 0.5);
        let mut runner = deploy(&cfg);
        // Single site, tiny threshold initially: the first item flushes.
        runner.feed(0, (1, 5.0));
        assert!(runner.stats().up_msgs >= 1);
        assert_eq!(runner.sites()[0].summary.total_weight(), 0.0);
    }

    #[test]
    fn broadcast_updates_all_sites() {
        let cfg = HhConfig::new(4, 0.2);
        let mut runner = deploy(&cfg);
        let mut rng = StdRng::seed_from_u64(4);
        for i in 0..5_000u64 {
            runner.feed(
                (i % 4) as usize,
                (rng.gen_range(0..50), rng.gen_range(1.0..3.0)),
            );
        }
        for s in runner.sites() {
            assert!(s.w_hat > 1.0, "a site never saw a broadcast");
        }
    }
}
