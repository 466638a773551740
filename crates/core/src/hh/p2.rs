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
//! The protocol is [`crate::threshold`] over weighted items
//! ([`ItemKind`]), shared with MT-P2, with exact per-site delta tables;
//! this module adds the heavy-hitter estimator and names the
//! deployment's types.

use super::{HhEstimator, Item};
use crate::sampling::ItemKind;
use crate::threshold::{ThresholdAggregator, ThresholdCoordinator, ThresholdMsg, ThresholdSite};

pub use crate::threshold::{deploy, deploy_topology, make_aggregator};

/// Site → coordinator message: `(total, Wᵢ)` (`Total`) or `(e, Δe)`
/// (`Delta`).
pub type P2Msg = ThresholdMsg<ItemKind>;
/// P2 site.
pub type P2Site = ThresholdSite<ItemKind>;
/// P2 coordinator: `Ŵ` and the per-element estimates `Ŵe`.
pub type P2Coordinator = ThresholdCoordinator<ItemKind>;
/// Interior tree node of a P2 deployment: sums deltas per element and
/// forwards each once it reaches the node threshold.
pub type P2Aggregator = ThresholdAggregator<ItemKind>;

impl HhEstimator for P2Coordinator {
    fn total_weight(&self) -> f64 {
        // Ŵ was seeded with 1 before any weight arrived.
        (self.w_hat - 1.0).max(0.0)
    }
    fn estimate(&self, item: Item) -> f64 {
        self.root.get(&item).copied().unwrap_or(0.0)
    }
    fn tracked_items(&self) -> Vec<Item> {
        self.root.keys().copied().collect()
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

    fn run_random(
        cfg: &HhConfig,
        n: u64,
        seed: u64,
    ) -> (Runner<P2Site, P2Coordinator>, ExactWeightedCounter) {
        let mut runner = deploy(cfg);
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
        let (runner, exact) = run_random(&cfg, 30_000, 1);
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
        let (runner, exact) = run_random(&cfg, 20_000, 2);
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
        let (r2, _) = run_random(&cfg, n, 3);

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
