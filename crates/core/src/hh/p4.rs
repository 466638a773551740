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
//! using `O((√m/ε) log(βN))` messages.
//!
//! The protocol is [`crate::report`] over weighted items ([`ItemKind`]),
//! shared with MT-P4; this module adds the heavy-hitter estimator and
//! names the deployment's types.

use super::{HhEstimator, Item};
use crate::report::{ReportAggregator, ReportCoordinator, ReportMsg, ReportSite};
use crate::sampling::ItemKind;
use std::collections::HashMap;

pub use crate::report::{deploy, deploy_topology, make_aggregator};

/// Site → coordinator message: a tracker report (`Total`) or the site's
/// current exact count `(e, fe(Aj))` of an element (`Report`).
pub type P4Msg = ReportMsg<ItemKind>;
/// P4 site.
pub type P4Site = ReportSite<ItemKind>;
/// P4 coordinator: the latest count per (element, site).
pub type P4Coordinator = ReportCoordinator<ItemKind>;
/// Interior tree node of a P4 deployment: relays count reports with
/// their origin, coalesces tracker reports.
pub type P4Aggregator = ReportAggregator<ItemKind>;

impl HhEstimator for P4Coordinator {
    fn total_weight(&self) -> f64 {
        self.tracker.received()
    }

    fn estimate(&self, item: Item) -> f64 {
        let adjust = 1.0 / self.p();
        self.mirror
            .iter()
            .filter(|((e, _), _)| *e == item)
            .map(|(_, &count)| count + adjust)
            .sum()
    }

    fn tracked_items(&self) -> Vec<Item> {
        let mut items: Vec<Item> = self.mirror.keys().map(|&(e, _)| e).collect();
        items.sort_unstable();
        items.dedup();
        items
    }

    /// One pass instead of per-item rescans of the report table; each
    /// item's reports are summed in the table order `estimate` walks.
    fn estimates(&self) -> Vec<(Item, f64)> {
        let adjust = 1.0 / self.p();
        let mut sums: HashMap<Item, f64> = HashMap::new();
        for ((e, _), &count) in &self.mirror {
            *sums.entry(*e).or_insert(0.0) += count + adjust;
        }
        sums.into_iter().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::HhConfig;
    use cma_sketch::ExactWeightedCounter;
    use cma_stream::{Runner, Site};
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
        let mut site = P4Site::new(&cfg, 0, cfg.sites);
        let p_early = site.p();
        site.on_broadcast(&10_000.0);
        assert!(site.p() < p_early / 1_000.0);
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
