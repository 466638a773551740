//! Protocol P3wr — priority sampling *with* replacement (paper §4.3.1).
//!
//! `s` independent weight-proportional samplers; the coordinator keeps,
//! per sampler, the top two priorities and the top record, so
//! `Ŵ = (1/s)·Σ ρ⁽²⁾` estimates the total weight and each sampler's top
//! record is one with-replacement sample, assigned weight `Ŵ/s`.
//!
//! The paper includes this variant to show it is dominated by the
//! without-replacement protocol ([`super::p3`]) in both communication
//! (`O((m + s log s) log(βN))`) and accuracy — our Table 1 and ablation
//! benchmarks confirm exactly that.
//!
//! The protocol is [`crate::sampling::wr`] over weighted items
//! ([`ItemKind`]), shared with MT-P3wr; this module adds the
//! heavy-hitter estimator and names the deployment's types.

use super::{HhEstimator, Item};
use crate::sampling::{ItemKind, WrAggregator, WrCoordinator, WrFilter, WrMsg, WrSite};
use std::collections::HashMap;

pub use crate::sampling::wr::{deploy, deploy_topology, make_aggregator};

/// Site → coordinator message: one sampler hit with its item and weight.
pub type P3wrMsg = WrMsg<ItemKind>;
/// P3wr site.
pub type P3wrSite = WrSite<ItemKind>;
/// P3wr coordinator.
pub type P3wrCoordinator = WrCoordinator<ItemKind>;
/// Per-sampler top-two dominance filter of a P3wr interior node.
pub type P3wrFilter = WrFilter<ItemKind>;
/// Interior tree node of a P3wr deployment: a dominance-filtering relay.
pub type P3wrAggregator = WrAggregator<ItemKind>;

impl HhEstimator for P3wrCoordinator {
    fn total_weight(&self) -> f64 {
        self.estimate_total()
    }

    fn estimate(&self, item: Item) -> f64 {
        self.estimates()
            .into_iter()
            .find(|&(e, _)| e == item)
            .map_or(0.0, |(_, w)| w)
    }

    fn tracked_items(&self) -> Vec<Item> {
        self.estimates().into_iter().map(|(e, _)| e).collect()
    }

    /// `Ŵ/s` per sampler whose top record is the item.
    fn estimates(&self) -> Vec<(Item, f64)> {
        let per_sample = self.estimate_total() / self.slots().len() as f64;
        let mut map = HashMap::new();
        for slot in self.slots() {
            if let Some((item, _)) = &slot.top {
                *map.entry(*item).or_insert(0.0) += per_sample;
            }
        }
        map.into_iter().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::HhConfig;
    use cma_sketch::ExactWeightedCounter;
    use cma_stream::Runner;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn run_skewed(
        cfg: &HhConfig,
        n: u64,
        seed: u64,
    ) -> (Runner<P3wrSite, P3wrCoordinator>, ExactWeightedCounter) {
        let mut runner = deploy(cfg);
        let mut exact = ExactWeightedCounter::new();
        let mut rng = StdRng::seed_from_u64(seed);
        for i in 0..n {
            let item: Item = if rng.gen_bool(0.3) {
                1
            } else {
                rng.gen_range(2..200)
            };
            let w: f64 = rng.gen_range(1.0..6.0);
            runner.feed((i % cfg.sites as u64) as usize, (item, w));
            exact.update(item, w);
        }
        (runner, exact)
    }

    #[test]
    fn total_weight_estimate_reasonable() {
        let cfg = HhConfig::new(3, 0.1).with_seed(21).with_sample_size(400);
        let (runner, exact) = run_skewed(&cfg, 20_000, 1);
        let w = exact.total_weight();
        let w_hat = runner.coordinator().total_weight();
        assert!((w_hat - w).abs() / w < 0.2, "Ŵ {w_hat} vs W {w}");
    }

    #[test]
    fn heavy_item_found() {
        let cfg = HhConfig::new(3, 0.1).with_seed(22).with_sample_size(400);
        let (runner, _) = run_skewed(&cfg, 20_000, 2);
        let hh = runner.coordinator().heavy_hitters(0.2, cfg.epsilon);
        assert!(!hh.is_empty());
        assert_eq!(hh[0].0, 1);
    }

    #[test]
    fn heavy_item_estimate_within_epsilon() {
        let cfg = HhConfig::new(3, 0.15).with_seed(23).with_sample_size(600);
        let (runner, exact) = run_skewed(&cfg, 20_000, 3);
        let w = exact.total_weight();
        let est = runner.coordinator().estimate(1);
        let truth = exact.frequency(1);
        assert!(
            (est - truth).abs() <= cfg.epsilon * w,
            "est {est} vs truth {truth}, εW {}",
            cfg.epsilon * w
        );
    }

    #[test]
    fn uses_more_messages_than_wor() {
        // The paper's observation: with-replacement costs strictly more.
        let cfg = HhConfig::new(3, 0.1).with_seed(24).with_sample_size(300);
        let n = 20_000;
        let (r_wr, _) = run_skewed(&cfg, n, 4);

        let mut r_wor = super::super::p3::deploy(&cfg);
        let mut rng = StdRng::seed_from_u64(4);
        for i in 0..n {
            let item: Item = if rng.gen_bool(0.3) {
                1
            } else {
                rng.gen_range(2..200)
            };
            let w: f64 = rng.gen_range(1.0..6.0);
            r_wor.feed((i % 3) as usize, (item, w));
        }
        assert!(
            r_wr.stats().total() > r_wor.stats().total(),
            "wr {} should exceed wor {}",
            r_wr.stats().total(),
            r_wor.stats().total()
        );
    }

    #[test]
    fn rounds_advance() {
        let cfg = HhConfig::new(2, 0.2).with_seed(25).with_sample_size(30);
        let (runner, _) = run_skewed(&cfg, 10_000, 5);
        assert!(runner.coordinator().tau() > 1.0);
    }
}
