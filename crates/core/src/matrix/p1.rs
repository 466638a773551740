//! Protocol MT-P1 — batched Frequent Directions (paper §5.1).
//!
//! The protocol is [`crate::flush`] over Frequent Directions ([`FdKind`],
//! `ℓ = ⌈4/ε⌉` rows per node), shared with HH-P1: the covariance error is
//! within `ε‖A‖²_F` at `O((m/ε²) log(βN))` rows. The paper's experiments
//! (and ours — see Table 1) show this is barely better than shipping raw
//! rows at practical `ε`: sites rarely accumulate enough rows between
//! flushes for FD to compress anything. It remains the accuracy champion
//! for the same reason. This module adds the sketch estimator and names
//! the deployment's types.

use super::MatrixEstimator;
use crate::flush::{FlushAggregator, FlushCoordinator, FlushMsg, FlushSite};
use crate::window::fd::FdKind;
use cma_linalg::Matrix;

pub use crate::flush::{deploy, deploy_topology, make_aggregator};

/// Site → coordinator message: a flushed FD sketch's rows plus the exact
/// squared Frobenius mass they summarise (`Fᵢ`).
pub type MP1Msg = FlushMsg<FdKind>;
/// MT-P1 site.
pub type MP1Site = FlushSite<FdKind>;
/// MT-P1 coordinator.
pub type MP1Coordinator = FlushCoordinator<FdKind>;
/// Interior tree node of an MT-P1 deployment: merges flushed sketches and
/// holds the partial, with its exact mass, until it reaches the node's
/// budget share.
pub type MP1Aggregator = FlushAggregator<FdKind>;

impl MatrixEstimator for MP1Coordinator {
    fn sketch(&self) -> Matrix {
        self.summary.sketch().clone()
    }
    fn frob_estimate(&self) -> f64 {
        self.received
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::MatrixConfig;
    use crate::matrix::Row;
    use cma_data::StreamingGram;
    use cma_linalg::random;
    use cma_stream::Runner;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn run_gaussian(
        cfg: &MatrixConfig,
        n: usize,
        seed: u64,
    ) -> (Runner<MP1Site, MP1Coordinator>, StreamingGram) {
        let mut runner = deploy(cfg);
        let mut truth = StreamingGram::new(cfg.dim);
        let mut rng = StdRng::seed_from_u64(seed);
        for i in 0..n {
            let row: Row = (0..cfg.dim)
                .map(|_| random::standard_normal(&mut rng))
                .collect();
            truth.update(&row);
            runner.feed(i % cfg.sites, row);
        }
        (runner, truth)
    }

    #[test]
    fn covariance_error_within_epsilon() {
        let cfg = MatrixConfig::new(4, 0.2, 6);
        let (runner, truth) = run_gaussian(&cfg, 4_000, 1);
        let err = truth
            .error_of_sketch(&runner.coordinator().sketch())
            .unwrap();
        assert!(
            err <= cfg.epsilon,
            "covariance error {err} > ε = {}",
            cfg.epsilon
        );
    }

    #[test]
    fn directional_guarantee_lower_side() {
        // ‖Bx‖² ≤ ‖Ax‖² must hold for FD-based sketches (one-sided).
        let cfg = MatrixConfig::new(3, 0.25, 5);
        let (runner, truth) = run_gaussian(&cfg, 2_000, 2);
        let sketch = runner.coordinator().sketch();
        let mut rng = StdRng::seed_from_u64(99);
        for _ in 0..20 {
            let x = random::unit_vector(&mut rng, 5);
            let ax = truth
                .gram()
                .apply(&x)
                .iter()
                .zip(&x)
                .map(|(g, xi)| g * xi)
                .sum::<f64>();
            let bx = sketch.apply_norm_sq(&x);
            assert!(bx <= ax + 1e-6 * truth.frob_sq(), "‖Bx‖² exceeded ‖Ax‖²");
        }
    }

    #[test]
    fn frobenius_estimate_tracks_total() {
        let cfg = MatrixConfig::new(4, 0.2, 6);
        let (runner, truth) = run_gaussian(&cfg, 3_000, 3);
        let fc = runner.coordinator().frob_estimate();
        let f = truth.frob_sq();
        assert!((f - fc).abs() <= cfg.epsilon * f, "F_C {fc} vs ‖A‖²_F {f}");
    }

    #[test]
    fn flush_resets_site() {
        let cfg = MatrixConfig::new(1, 0.5, 3);
        let mut runner = deploy(&cfg);
        runner.feed(0, vec![1.0, 2.0, 2.0]);
        // Initial F̂ = 1 makes τ tiny: the first row flushes immediately.
        assert!(runner.stats().up_msgs >= 1);
        assert!(runner.sites()[0].summary.is_empty());
    }

    #[test]
    fn zero_rows_ignored() {
        let cfg = MatrixConfig::new(2, 0.3, 4);
        let mut runner = deploy(&cfg);
        runner.feed(0, vec![0.0; 4]);
        assert_eq!(runner.stats().total(), 0);
    }
}
