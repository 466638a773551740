//! Protocol P3 — priority sampling without replacement (paper §4.3).
//!
//! Sites assign each arrival a priority `ρ = w/r`, `r ~ U(0, 1]`, and
//! forward it when `ρ ≥ τ`; the coordinator keeps the two round queues
//! and doubles `τ` when `|Qj+1| = s`. With high probability
//! (Theorem 2) `|fe(S) − fe(A)| ≤ εW` for `s = Θ((1/ε²) log(1/ε))`, at
//! `O((m+s) log(βN/s))` messages.
//!
//! The protocol is [`crate::sampling::wor`] over weighted items
//! ([`ItemKind`]), shared with MT-P3; this module adds the heavy-hitter
//! estimator and names the deployment's types.

use super::{HhEstimator, Item};
use crate::sampling::{
    ItemKind, PriorityAggregator, PriorityFilter, PrioritySite, RoundCoordinator, SampleEntry,
};
use std::collections::HashMap;

pub use crate::sampling::wor::{deploy, deploy_topology, make_aggregator};

/// Site → coordinator message: one sampled record `(e, w, ρ)`.
pub type P3Msg = SampleEntry<ItemKind>;
/// P3 site.
pub type P3Site = PrioritySite<ItemKind>;
/// P3 coordinator: the round-structured sample over item labels.
pub type P3Coordinator = RoundCoordinator<ItemKind>;
/// Round-state filter of a P3 interior node.
pub type P3Filter = PriorityFilter<ItemKind>;
/// Interior tree node of a P3 deployment: a round-state-aware relay.
pub type P3Aggregator = PriorityAggregator<ItemKind>;

impl HhEstimator for P3Coordinator {
    fn total_weight(&self) -> f64 {
        self.estimate_total()
    }

    fn estimate(&self, item: Item) -> f64 {
        self.weighted_sample()
            .iter()
            .filter(|(&e, _)| e == item)
            .map(|(_, w)| w)
            .sum()
    }

    fn tracked_items(&self) -> Vec<Item> {
        self.estimates().into_iter().map(|(e, _)| e).collect()
    }

    /// One pass over the sample instead of one rescan per item.
    fn estimates(&self) -> Vec<(Item, f64)> {
        let mut map = HashMap::new();
        for (&item, w_bar) in self.weighted_sample() {
            *map.entry(item).or_insert(0.0) += w_bar;
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
    ) -> (Runner<P3Site, P3Coordinator>, ExactWeightedCounter) {
        let mut runner = deploy(cfg);
        let mut exact = ExactWeightedCounter::new();
        let mut rng = StdRng::seed_from_u64(seed);
        for i in 0..n {
            let item: Item = if rng.gen_bool(0.25) {
                1
            } else {
                rng.gen_range(2..400)
            };
            let w: f64 = rng.gen_range(1.0..8.0);
            runner.feed((i % cfg.sites as u64) as usize, (item, w));
            exact.update(item, w);
        }
        (runner, exact)
    }

    #[test]
    fn heavy_item_estimated_within_epsilon_w() {
        let cfg = HhConfig::new(4, 0.1).with_seed(11);
        let (runner, exact) = run_skewed(&cfg, 30_000, 1);
        let w = exact.total_weight();
        let est = runner.coordinator().estimate(1);
        let truth = exact.frequency(1);
        assert!(
            (est - truth).abs() <= cfg.epsilon * w,
            "item 1: est {est} vs {truth}, εW = {}",
            cfg.epsilon * w
        );
    }

    #[test]
    fn total_weight_estimate_close() {
        let cfg = HhConfig::new(4, 0.1).with_seed(12);
        let (runner, exact) = run_skewed(&cfg, 30_000, 2);
        let w = exact.total_weight();
        let w_hat = runner.coordinator().total_weight();
        assert!((w_hat - w).abs() / w < 0.1, "Ŵ {w_hat} vs W {w}");
    }

    #[test]
    fn communication_sublinear_and_sample_bounded() {
        let cfg = HhConfig::new(4, 0.1).with_seed(13);
        let n = 50_000;
        let (runner, _) = run_skewed(&cfg, n, 3);
        // |Qj| and |Qj+1| are each ~s in expectation; 3s bounds the sum
        // with large margin at this fixed seed.
        assert!(runner.coordinator().len() <= 3 * cfg.sample_size());
        let sent = runner.stats().total();
        assert!(sent < n / 2, "P3 sent {sent} of {n}");
    }

    #[test]
    fn heavy_hitter_query_finds_planted_item() {
        let cfg = HhConfig::new(4, 0.05).with_seed(14);
        let (runner, _) = run_skewed(&cfg, 40_000, 4);
        let hh = runner.coordinator().heavy_hitters(0.2, cfg.epsilon);
        assert!(!hh.is_empty());
        assert_eq!(hh[0].0, 1);
    }

    #[test]
    fn early_stream_is_exact() {
        // Before the first round ends, everything (w ≥ 1 ⇒ ρ ≥ 1 = τ) is
        // forwarded, so estimates are exact.
        let cfg = HhConfig::new(2, 0.1).with_seed(15).with_sample_size(1000);
        let mut runner = deploy(&cfg);
        for i in 0..50u64 {
            runner.feed((i % 2) as usize, (i % 5, 2.0));
        }
        let coord = runner.coordinator();
        assert_eq!(coord.estimate(0), 20.0);
        assert_eq!(coord.total_weight(), 100.0);
    }

    #[test]
    fn rounds_advance_tau() {
        let cfg = HhConfig::new(2, 0.3).with_seed(16).with_sample_size(20);
        let mut runner = deploy(&cfg);
        let mut rng = StdRng::seed_from_u64(5);
        for i in 0..5_000u64 {
            runner.feed(
                (i % 2) as usize,
                (rng.gen_range(0..50), rng.gen_range(1.0..4.0)),
            );
        }
        assert!(runner.coordinator().tau() > 1.0, "τ never advanced");
        assert!(runner.stats().broadcast_events > 0);
    }
}
