//! Windowed weighted heavy hitters — the sliding-window analogue of
//! protocol HH-P1, with Misra–Gries buckets riding the exponential
//! histogram.
//!
//! Sites observe globally-stamped `(t, (item, weight))` arrivals and
//! track the weighted frequencies of the last `W` global arrivals. The
//! coordinator answers [`SwMgCoordinator::estimate_at`] for any item
//! with the certified [`crate::window::WindowErrorBound`]: overcount at
//! most the straddling mass, undercount at most the MG loss plus the
//! withheld budget.
//!
//! # Example
//!
//! ```
//! use cma_core::window::mg::{self, SwMgConfig};
//! use cma_stream::partition::RoundRobin;
//!
//! // 4 sites, ε = 0.1, window = 500 arrivals, 16 counters per bucket.
//! let cfg = SwMgConfig::new(4, 0.1, 500, 16);
//! let mut runner = mg::deploy(&cfg);
//! // Item 7 dominates the most recent window only.
//! let stream = (0..2_000u64).map(|t| {
//!     let item = if t >= 1_500 { 7 } else { t % 100 };
//!     (t, (item, 1.0)) // arrivals carry their global index
//! });
//! runner.run_partitioned(stream, &mut RoundRobin::new(4), 64);
//! let coord = runner.coordinator();
//! let est = coord.estimate_at(2_000, 7);
//! let bound = coord.error_bound_at(2_000).total();
//! assert!((est - 500.0).abs() <= bound); // item 7 fills the window
//! ```

use super::{
    SnapshotKind, SwAggregator, SwCoordinator, SwParams, SwSite, WindowConfig, WindowKind,
};
use crate::hh::{validate_weight, Item, WeightedItem};
use cma_sketch::MgSummary;
use cma_stream::{put_usize, WireReader};

pub use super::{deploy, deploy_topology, make_aggregator, run_engine};

/// The Misra–Gries instantiation of the windowed protocol family.
#[derive(Debug, Clone, PartialEq)]
pub struct MgKind {
    pub(crate) capacity: usize,
}

impl WindowKind for MgKind {
    type Input = WeightedItem;
    type Summary = MgSummary;

    fn empty(&self) -> MgSummary {
        MgSummary::new(self.capacity)
    }

    fn singleton(&self, &(item, weight): &WeightedItem) -> (MgSummary, f64) {
        validate_weight(weight);
        let mut mg = MgSummary::new(self.capacity);
        mg.update(item, weight);
        (mg, weight)
    }

    /// MG undercount over `mass` merged weight: `mass/(ℓ+1)`.
    fn summary_loss(&self, mass: f64) -> f64 {
        mass / (self.capacity as f64 + 1.0)
    }
}

impl SnapshotKind for MgKind {
    fn encode_kind(&self, out: &mut Vec<u8>) {
        put_usize(out, self.capacity);
    }

    fn decode_kind(r: &mut WireReader<'_>) -> Option<Self> {
        let capacity = r.usize()?;
        (capacity >= 1).then_some(MgKind { capacity })
    }

    fn kind_of(mg: &MgSummary) -> Self {
        MgKind {
            capacity: mg.capacity(),
        }
    }
}

/// Site type of the windowed heavy-hitter protocol.
pub type SwMgSite = SwSite<MgKind>;
/// Coordinator type of the windowed heavy-hitter protocol.
pub type SwMgCoordinator = SwCoordinator<MgKind>;
/// Interior-node type of the windowed heavy-hitter protocol.
pub type SwMgAggregator = SwAggregator<MgKind>;

impl SwMgCoordinator {
    /// Estimated window weight of `item` for a query at clock `t_now`
    /// (arrivals observed globally), accurate within
    /// [`SwCoordinator::error_bound_at`]: a lookup in the root's kept
    /// fold, merged once per state.
    pub fn estimate_at(&self, t_now: u64, item: Item) -> f64 {
        self.window_summary_at(t_now).estimate(item)
    }

    /// Items with a nonzero window estimate at clock `t_now`, in
    /// unspecified order.
    pub fn tracked_items_at(&self, t_now: u64) -> Vec<Item> {
        self.window_summary_at(t_now)
            .counters()
            .map(|(e, _)| e)
            .collect()
    }
}

/// Configuration of the windowed heavy-hitter deployment.
#[derive(Debug, Clone)]
pub struct SwMgConfig {
    /// Shared sliding-window knobs (`m`, `ε`, `W`, `r`, `θ`).
    pub params: SwParams,
    /// Misra–Gries counters per bucket (`ℓ ≥ 1`; summary loss
    /// `mass/(ℓ+1)`).
    pub capacity: usize,
}

impl SwMgConfig {
    /// Creates a configuration with the default `per_level`/`theta`
    /// (see [`SwParams::new`]).
    ///
    /// # Panics
    /// Panics on invalid shared knobs or `capacity == 0`.
    pub fn new(sites: usize, epsilon: f64, window: u64, capacity: usize) -> Self {
        assert!(capacity >= 1, "SwMgConfig: capacity must be positive");
        SwMgConfig {
            params: SwParams::new(sites, epsilon, window),
            capacity,
        }
    }
}

impl WindowConfig for SwMgConfig {
    type Kind = MgKind;

    fn params(&self) -> &SwParams {
        &self.params
    }

    fn kind(&self) -> MgKind {
        MgKind {
            capacity: self.capacity,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cma_stream::partition::RoundRobin;
    use cma_stream::Topology;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn window_truth(stream: &[WeightedItem], t_now: usize, window: usize, item: Item) -> f64 {
        let start = t_now.saturating_sub(window);
        stream[start..t_now]
            .iter()
            .filter(|&&(e, _)| e == item)
            .map(|&(_, w)| w)
            .sum()
    }

    fn zipfish_stream(n: usize, seed: u64) -> Vec<WeightedItem> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n)
            .map(|_| {
                let e: Item = if rng.gen_bool(0.3) {
                    1
                } else {
                    rng.gen_range(2..60)
                };
                (e, rng.gen_range(1.0..5.0))
            })
            .collect()
    }

    #[test]
    fn window_estimates_within_certified_bound() {
        for capacity in [32, usize::MAX] {
            estimates_within_certified_bound(capacity);
        }
    }

    /// Every window estimate within the certified bound, at a bucket
    /// capacity of `capacity` counters (`usize::MAX` checks that every
    /// singleton and merged bucket reserves nothing up front).
    fn estimates_within_certified_bound(capacity: usize) {
        let window = 600usize;
        let stream = zipfish_stream(4 * window, 1);
        let cfg = SwMgConfig::new(4, 0.1, window as u64, capacity);
        let mut runner = deploy(&cfg);
        runner.run_partitioned(
            stream
                .iter()
                .copied()
                .enumerate()
                .map(|(t, x)| (t as u64, x)),
            &mut RoundRobin::new(4),
            64,
        );
        let t_now = stream.len();
        let coord = runner.coordinator();
        let bound = coord.error_bound_at(t_now as u64);
        for item in 0..60u64 {
            let truth = window_truth(&stream, t_now, window, item);
            let est = coord.estimate_at(t_now as u64, item);
            // Overcount only via straddlers; undercount via MG + withheld.
            assert!(
                est - truth <= bound.straddle + 1e-9,
                "item {item}: overcount {} > straddle {}",
                est - truth,
                bound.straddle
            );
            assert!(
                truth - est <= bound.summary_loss + bound.withheld + 1e-9,
                "item {item}: undercount {} > {}",
                truth - est,
                bound.summary_loss + bound.withheld
            );
        }
    }

    #[test]
    fn old_regime_expires_from_the_window() {
        let window = 400u64;
        let cfg = SwMgConfig::new(2, 0.1, window, 16);
        let mut runner = deploy(&cfg);
        let n_old = 1_200u64;
        // Old regime: item 9 dominates; then a full window of item 5.
        let stream = (0..n_old + window).map(|t| {
            let item = if t < n_old { 9 } else { 5 };
            (t, (item, 2.0))
        });
        runner.run_partitioned(stream, &mut RoundRobin::new(2), 128);
        let t_now = n_old + window;
        let coord = runner.coordinator();
        let bound = coord.error_bound_at(t_now).total();
        assert!(
            coord.estimate_at(t_now, 9) <= bound + 1e-9,
            "expired regime survived"
        );
        assert!((coord.estimate_at(t_now, 5) - 2.0 * window as f64).abs() <= bound + 1e-9);
    }

    #[test]
    fn communication_compresses_once_flushes_span_many_arrivals() {
        // Compression comes from same-level bucket merges between
        // flushes, so it needs τ to span many arrivals: with m = 4 and
        // ε = 0.2 over a 4096-arrival window each flush covers ~200
        // arrivals but ships only O(r·log τ) buckets.
        let window = 4_096usize;
        let stream = zipfish_stream(3 * window, 3);
        let cfg = SwMgConfig::new(4, 0.2, window as u64, 8);
        let mut runner = deploy(&cfg);
        runner.run_partitioned(
            stream
                .iter()
                .copied()
                .enumerate()
                .map(|(t, x)| (t as u64, x)),
            &mut RoundRobin::new(4),
            64,
        );
        let total = runner.stats().total();
        assert!(
            total < stream.len() as u64,
            "windowed protocol shipped {total} units for {} arrivals",
            stream.len()
        );
        assert!(runner.stats().broadcast_events > 0);
    }

    #[test]
    fn coordinator_histogram_stays_compact() {
        let window = 1_000usize;
        let stream = zipfish_stream(5 * window, 4);
        let cfg = SwMgConfig::new(4, 0.1, window as u64, 16);
        let mut runner = deploy(&cfg);
        runner.run_partitioned(
            stream
                .iter()
                .copied()
                .enumerate()
                .map(|(t, x)| (t as u64, x)),
            &mut RoundRobin::new(4),
            64,
        );
        // O(r log(βW)) buckets, not O(W).
        assert!(
            runner.coordinator().bucket_count() <= 96,
            "coordinator holds {} buckets",
            runner.coordinator().bucket_count()
        );
    }

    #[test]
    fn tree_deployment_keeps_certified_bound() {
        let window = 600usize;
        let stream = zipfish_stream(3 * window, 5);
        let cfg = SwMgConfig::new(16, 0.1, window as u64, 32);
        let mut runner = deploy_topology(&cfg, Topology::Tree { fanout: 4 });
        runner.run_partitioned(
            stream
                .iter()
                .copied()
                .enumerate()
                .map(|(t, x)| (t as u64, x)),
            &mut RoundRobin::new(16),
            64,
        );
        let t_now = stream.len() as u64;
        let coord = runner.coordinator();
        let bound = coord.error_bound_at(t_now).total() + 1e-9;
        for item in [1u64, 2, 3, 10, 30] {
            let truth = window_truth(&stream, stream.len(), window, item);
            let est = coord.estimate_at(t_now, item);
            assert!(
                (est - truth).abs() <= bound,
                "tree: item {item} est {est} vs truth {truth} (bound {bound})"
            );
        }
        assert_eq!(runner.stats().max_fan_in, 4);
    }
}
