//! Protocol P1 — batched Misra–Gries summaries (paper §4.1).
//!
//! The protocol is [`crate::flush`] over Misra–Gries ([`MgKind`], `⌈2/ε⌉`
//! counters per node), shared with MT-P1: every estimate is within `εW`
//! (Lemma 2) at `O((m/ε²) log(βN))` elements. This module adds the
//! heavy-hitter estimator and names the deployment's types.

use super::{HhEstimator, Item};
use crate::flush::{FlushAggregator, FlushCoordinator, FlushMsg, FlushSite};
use crate::window::mg::MgKind;

pub use crate::flush::{deploy, deploy_topology, make_aggregator};

/// Site → coordinator message: a whole Misra–Gries table, whose
/// `total_weight()` is the sender's `Wᵢ`.
pub type P1Msg = FlushMsg<MgKind>;
/// P1 site: local Misra–Gries plus the flush threshold.
pub type P1Site = FlushSite<MgKind>;
/// P1 coordinator: merged global summary plus the broadcast rule.
pub type P1Coordinator = FlushCoordinator<MgKind>;
/// Interior tree node of a P1 deployment: merges flushed summaries and
/// holds the partial until it reaches the node's budget share.
pub type P1Aggregator = FlushAggregator<MgKind>;

impl HhEstimator for P1Coordinator {
    fn total_weight(&self) -> f64 {
        self.received
    }
    fn estimate(&self, item: Item) -> f64 {
        self.summary.estimate(item)
    }
    fn tracked_items(&self) -> Vec<Item> {
        self.summary.counters().map(|(e, _)| e).collect()
    }
    /// One pass over the merged counters, not a lookup per item.
    fn estimates(&self) -> Vec<(Item, f64)> {
        self.summary.counters().collect()
    }

    /// The same pass, keeping only what a query reports: the root's
    /// table is thousands of counters, and a query copying them all
    /// before filtering paid for it in `query_p95_us`.
    fn estimates_at_least(&self, floor: f64) -> Vec<(Item, f64)> {
        let mut out = Vec::with_capacity(self.summary.len());
        out.extend(self.summary.counters().filter(|&(_, w)| w >= floor));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::HhConfig;
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

    /// An MG decrement can empty the table while weight is pending —
    /// `c + 1` distinct equal weights do it. A departing site, and an
    /// aggregator splitting for a migration, still ship that weight.
    #[test]
    fn depart_and_migration_ship_weight_left_without_counters() {
        use cma_stream::{
            AggNode, Aggregator, ChurnSite, MessageCost, MigratableAggregator, Site, Topology,
        };
        let cfg = HhConfig::new(1, 0.5);
        let (mut sites, _, _) = deploy(&cfg).into_parts();
        let site = &mut sites[0];
        site.on_broadcast(&1e9);
        let mut out = Vec::new();
        for item in 0..5 {
            site.observe((item, 1.0), &mut out);
        }
        assert!(out.is_empty(), "τ = 2.5·10⁸ is never reached");
        site.depart(&mut out);
        assert_eq!(out.len(), 1, "the departing site shipped nothing");
        assert!(out[0].summary.is_empty());
        assert_eq!(out[0].mass(), 5.0);

        let node = AggNode {
            level: 1,
            index: 0,
            leaves: 1,
            total_levels: 1,
        };
        let mut agg = make_aggregator(&cfg, Topology::Tree { fanout: 2 })(node);
        agg.on_broadcast(&1e9);
        agg.absorb(0, out.pop().unwrap());
        let mut up = Vec::new();
        agg.flush(&mut up);
        assert!(up.is_empty(), "the hold threshold is never reached");
        agg.split_for_migration(&mut up);
        assert_eq!(up.len(), 1, "the migrating aggregator shipped nothing");
        assert_eq!(up[0].1.mass(), 5.0);
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
