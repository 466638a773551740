//! Protocol MT-P3 — row priority sampling without replacement (§5.3).
//!
//! Identical to HH-P3 with each row `a` treated as an element of weight
//! `‖a‖²`: sites forward `(a, ρ)` when the priority `ρ = ‖a‖²/r` clears
//! the global threshold; the coordinator runs the same two-queue round
//! structure. At query time the retained rows are *stacked* into `B`,
//! with light rows rescaled so their squared norm equals their estimator
//! weight `w̄ = max(‖a‖², ρ̂)` — making `E[BᵀB] = AᵀA` entry-wise.
//! Theorem 5: `|‖Ax‖² − ‖Bx‖²| ≤ ε‖A‖²_F` with probability `1 − 1/s` at
//! `O((m+s) log(βN/s))` messages, `s = Θ((1/ε²) log(1/ε))`.
//!
//! The protocol is [`crate::sampling::wor`] over rows ([`RowKind`]),
//! shared with HH-P3; this module adds the matrix estimator and names
//! the deployment's types.

use super::{row_weight, MatrixEstimator};
use crate::sampling::{
    PriorityAggregator, PriorityFilter, PrioritySite, RoundCoordinator, RowKind, SampleEntry,
};
use cma_linalg::Matrix;

pub use crate::sampling::wor::{deploy, deploy_topology, make_aggregator};

/// Site → coordinator message: one sampled row with its priority (its
/// weight `‖row‖²` is recomputed on decode, not sent).
pub type MP3Msg = SampleEntry<RowKind>;
/// MT-P3 site.
pub type MP3Site = PrioritySite<RowKind>;
/// MT-P3 coordinator.
pub type MP3Coordinator = RoundCoordinator<RowKind>;
/// Round-state filter of an MT-P3 interior node.
pub type MP3Filter = PriorityFilter<RowKind>;
/// Interior tree node of an MT-P3 deployment: a round-state-aware relay.
pub type MP3Aggregator = PriorityAggregator<RowKind>;

impl MatrixEstimator for MP3Coordinator {
    /// Stacks the sample, rescaling each row to squared norm `w̄`.
    fn sketch(&self) -> Matrix {
        let mut b = Matrix::with_cols(self.header());
        for (row, w_bar) in self.weighted_sample() {
            let w = row_weight(row);
            if w == 0.0 {
                continue;
            }
            let scale = (w_bar / w).sqrt();
            let mut scaled = row.clone();
            for v in &mut scaled {
                *v *= scale;
            }
            b.push_row(&scaled);
        }
        b
    }

    fn frob_estimate(&self) -> f64 {
        self.estimate_total()
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
    ) -> (Runner<MP3Site, MP3Coordinator>, StreamingGram) {
        let mut runner = deploy(cfg);
        let mut truth = StreamingGram::new(cfg.dim);
        let mut rng = StdRng::seed_from_u64(seed);
        for i in 0..n {
            let row: Row = (0..cfg.dim)
                .map(|_| 2.0 * random::standard_normal(&mut rng))
                .collect();
            truth.update(&row);
            runner.feed(i % cfg.sites, row);
        }
        (runner, truth)
    }

    #[test]
    fn covariance_error_within_epsilon() {
        let cfg = MatrixConfig::new(4, 0.25, 6).with_seed(41);
        let (runner, truth) = run_gaussian(&cfg, 5_000, 1);
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
    fn frobenius_estimate_unbiasedish() {
        // The estimator's standard deviation is ~W/√s; use a sample large
        // enough that 15% is a comfortable bound.
        let cfg = MatrixConfig::new(4, 0.25, 6)
            .with_seed(42)
            .with_sample_size(400);
        let (runner, truth) = run_gaussian(&cfg, 5_000, 2);
        let f = truth.frob_sq();
        let f_hat = runner.coordinator().frob_estimate();
        assert!((f_hat - f).abs() / f < 0.15, "F̂ {f_hat} vs F {f}");
    }

    #[test]
    fn sample_size_bounded() {
        // |Qj| and |Qj+1| are each ~s in expectation; as in the HH-P3
        // suite, 3s bounds their sum with a comfortable margin.
        let cfg = MatrixConfig::new(4, 0.25, 6).with_seed(43);
        let (runner, _) = run_gaussian(&cfg, 10_000, 3);
        assert!(runner.coordinator().len() <= 3 * cfg.sample_size());
    }

    #[test]
    fn communication_sublinear() {
        let cfg = MatrixConfig::new(4, 0.25, 6).with_seed(44);
        let n = 20_000;
        let (runner, _) = run_gaussian(&cfg, n, 4);
        let sent = runner.stats().total();
        assert!(sent < (n / 2) as u64, "MT-P3 sent {sent} of {n}");
    }

    #[test]
    fn sketch_rows_have_estimator_norms() {
        let cfg = MatrixConfig::new(2, 0.3, 4)
            .with_seed(45)
            .with_sample_size(50);
        let (runner, _) = run_gaussian(&cfg, 5_000, 5);
        let coord = runner.coordinator();
        let sketch = coord.sketch();
        let sample = coord.weighted_sample();
        assert_eq!(sketch.rows(), sample.len());
        for (i, (_, w_bar)) in sample.iter().enumerate() {
            let n2 = row_weight(sketch.row(i));
            assert!(
                (n2 - w_bar).abs() < 1e-9 * w_bar,
                "row {i}: ‖·‖² {n2} vs w̄ {w_bar}"
            );
        }
    }

    #[test]
    fn early_stream_exact() {
        let cfg = MatrixConfig::new(2, 0.3, 3)
            .with_seed(46)
            .with_sample_size(100);
        let mut runner = deploy(&cfg);
        let mut truth = StreamingGram::new(3);
        for i in 0..20 {
            let row = vec![1.0 + i as f64 * 0.1, 0.5, -0.25];
            truth.update(&row);
            runner.feed(i % 2, row);
        }
        // Everything was forwarded (w ≥ 1 = τ) and fits in the sample.
        let err = truth
            .error_of_sketch(&runner.coordinator().sketch())
            .unwrap();
        assert!(err < 1e-12, "early-stream error {err}");
    }
}
