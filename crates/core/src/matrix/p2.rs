//! Protocol MT-P2 — singular-direction thresholds (paper §5.2).
//!
//! The matrix analogue of HH-P2 and the paper's best deterministic
//! protocol. Each site accumulates its unsent rows in a matrix `Bj` and,
//! per Algorithm 5.3, ships the direction `σℓ·vℓ` to the coordinator
//! whenever some squared singular value reaches `(ε/m)·F̂`, zeroing it
//! locally. Scalar messages track `F̂` exactly as in HH-P2 (`m` scalar
//! reports → broadcast, Algorithm 5.4). Lemma 8 gives
//! `0 ≤ ‖Ax‖² − ‖Bx‖² ≤ ε‖A‖²_F` at `O((m/ε) log(βN))` messages.
//!
//! The protocol is [`crate::threshold`] over rows ([`RowKind`]), shared
//! with HH-P2; [`crate::threshold::rows`] carries the five observations
//! (the exact lazy SVD) that make it fast. This module adds the sketch
//! estimator and names the deployment's types.

use super::MatrixEstimator;
use crate::sampling::RowKind;
use crate::threshold::rows::gram_rows;
use crate::threshold::{ThresholdAggregator, ThresholdCoordinator, ThresholdMsg, ThresholdSite};
use cma_linalg::{vector, Matrix};

pub use crate::threshold::{deploy, deploy_topology, make_aggregator};

/// Site → coordinator message: `(total, Fj)` (`Total`) or a direction
/// `σℓ·vℓ` whose squared norm crossed the threshold (`Delta`).
pub type MP2Msg = ThresholdMsg<RowKind>;
/// MT-P2 site: the exact withheld matrix `Bj`, held on its small side.
pub type MP2Site = ThresholdSite<RowKind>;
/// MT-P2 coordinator (Algorithm 5.4): the Gram `BᵀB` of the received
/// directions instead of their stack `B`.
pub type MP2Coordinator = ThresholdCoordinator<RowKind>;
/// Interior tree node of an MT-P2 deployment: re-emits merged directions
/// under its own share of the threshold.
pub type MP2Aggregator = ThresholdAggregator<RowKind>;

impl MatrixEstimator for MP2Coordinator {
    /// At most `d` rows `σᵢ·vᵢᵀ` with the Gram of every received
    /// direction, from one `d×d` eigensolve per call. The rows are not
    /// the directions as they arrived: Lemma 8 reads only `BᵀB`.
    fn sketch(&self) -> Matrix {
        gram_rows(&self.root)
    }
    fn frob_estimate(&self) -> f64 {
        // F̂ was seeded with 1 before any mass arrived.
        (self.w_hat - 1.0).max(0.0)
    }
    /// `xᵀ(BᵀB)x` in `O(d²)`, however many directions have arrived.
    fn direction_norm_sq(&self, x: &[f64]) -> f64 {
        let q: f64 = self
            .root
            .iter_rows()
            .zip(x)
            .map(|(g, &xi)| xi * vector::dot_lanes(g, x))
            .sum();
        q.max(0.0)
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
    ) -> (Runner<MP2Site, MP2Coordinator>, StreamingGram) {
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
        assert!(err <= cfg.epsilon, "covariance error {err} > ε");
    }

    #[test]
    fn sketch_never_overestimates() {
        // Lemma 8's right-hand side: ‖Bx‖² ≤ ‖Ax‖² in every direction.
        let cfg = MatrixConfig::new(3, 0.3, 5);
        let (runner, truth) = run_gaussian(&cfg, 2_500, 2);
        let sketch = runner.coordinator().sketch();
        let mut rng = StdRng::seed_from_u64(7);
        for _ in 0..25 {
            let x = random::unit_vector(&mut rng, 5);
            let ax: f64 = truth
                .gram()
                .apply(&x)
                .iter()
                .zip(&x)
                .map(|(g, xi)| g * xi)
                .sum();
            let bx = sketch.apply_norm_sq(&x);
            assert!(
                bx <= ax + 1e-6 * truth.frob_sq(),
                "‖Bx‖² = {bx} > ‖Ax‖² = {ax}"
            );
        }
    }

    #[test]
    fn frob_estimate_close() {
        let cfg = MatrixConfig::new(4, 0.1, 5);
        let (runner, truth) = run_gaussian(&cfg, 5_000, 4);
        let f = truth.frob_sq();
        let f_hat = runner.coordinator().frob_estimate();
        // Estimate trails by at most m scalar thresholds plus per-site slack.
        assert!(f_hat <= f + 1e-6);
        assert!(f - f_hat <= 2.0 * cfg.epsilon * f, "F̂ {f_hat} vs F {f}");
    }

    #[test]
    fn uses_fewer_messages_than_p1_at_small_epsilon() {
        let cfg = MatrixConfig::new(4, 0.05, 8);
        let n = 6_000;
        let (r2, _) = run_gaussian(&cfg, n, 5);
        let mut r1 = super::super::p1::deploy(&cfg);
        let mut rng = StdRng::seed_from_u64(5);
        for i in 0..n {
            let row: Row = (0..8).map(|_| random::standard_normal(&mut rng)).collect();
            r1.feed(i % 4, row);
        }
        assert!(
            r2.stats().total() < r1.stats().total(),
            "P2 {} should beat P1 {}",
            r2.stats().total(),
            r1.stats().total()
        );
    }

    #[test]
    fn low_rank_stream_concentrates_messages() {
        // A rank-1 stream: only one direction ever crosses the threshold,
        // so direction messages ≈ (m/ε)·log(F) while the sketch stays tiny.
        let cfg = MatrixConfig::new(2, 0.2, 6);
        let mut runner = deploy(&cfg);
        for i in 0..2_000 {
            let mut row = vec![0.0; 6];
            row[0] = 2.0;
            runner.feed(i % 2, row);
        }
        let sketch = runner.coordinator().sketch();
        // The sketch's directions lie (numerically) along e₀.
        for r in sketch.iter_rows() {
            for (j, &v) in r.iter().enumerate() {
                if j != 0 {
                    assert!(v.abs() < 1e-9, "off-axis direction component {v}");
                }
            }
        }
    }

    #[test]
    fn zero_rows_ignored() {
        let cfg = MatrixConfig::new(2, 0.3, 4);
        let mut runner = deploy(&cfg);
        runner.feed(0, vec![0.0; 4]);
        assert_eq!(runner.stats().total(), 0);
    }
}
