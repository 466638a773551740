//! Protocol MT-P4 — the Appendix C **negative result**.
//!
//! The paper asks whether HH-P4's `O((√m/ε) log(βN))` communication can
//! transfer to matrices and answers *no*: a site can update its
//! approximation `Âj` exactly only along `Âj`'s right singular vectors,
//! and — because the replicated update `Âj ← Z·Vᵀ` keeps the same `V`
//! (only singular values change) — that basis **never rotates toward the
//! data's true basis**. The skew between the two is unbounded (paper
//! Figure 5), so the protocol carries no approximation guarantee. It is
//! implemented here exactly as Algorithm C.1 describes so the harness can
//! regenerate Figures 6–7, where P4's error dwarfs P1–P3's.
//!
//! Mechanics per site `j`: keep the exact local Gram `Gj = AjᵀAj` and the
//! fixed orthonormal basis `V` (the standard basis, as any valid SVD of
//! the empty `Âj`); on a row of weight `w = ‖a‖²`, with probability
//! `p̄ = 1 − e^{−p·w}` (`p = 2√m/(ε·F̂)`) send `zᵢ = √(‖Aj vᵢ‖² + 1/p)`
//! for all `i`, one vector message; both ends set `Âj = Z·Vᵀ`.
//!
//! The protocol is [`crate::report`] over rows ([`RowKind`]), shared with
//! HH-P4; this module adds the sketch estimator and names the
//! deployment's types.

use super::MatrixEstimator;
use crate::report::{ReportAggregator, ReportCoordinator, ReportMsg, ReportSite};
use crate::sampling::RowKind;
use cma_linalg::Matrix;

pub use crate::report::{deploy, deploy_topology, make_aggregator};

/// Site → coordinator message: a tracker report (`Total`) or the
/// refreshed singular values `z` of `Âj = Z·Vᵀ` (`Report`, one vector
/// message, same cost unit as a row).
pub type MP4Msg = ReportMsg<RowKind>;
/// MT-P4 site.
pub type MP4Site = ReportSite<RowKind>;
/// MT-P4 coordinator: per-site `Âj = Z·Vᵀ` mirrors.
pub type MP4Coordinator = ReportCoordinator<RowKind>;
/// Interior tree node of an MT-P4 deployment: relays z refreshes with
/// their origin, coalesces tracker reports.
pub type MP4Aggregator = ReportAggregator<RowKind>;

impl MatrixEstimator for MP4Coordinator {
    /// Stacks every site's `Z·Vᵀ`; with the standard basis each site
    /// contributes `d` axis-aligned rows `zᵢ·eᵢ`.
    fn sketch(&self) -> Matrix {
        let mut b = Matrix::with_cols(self.header);
        let mut row = vec![0.0; self.header];
        for z in self.mirror.iter().flatten() {
            for (i, &zi) in z.iter().enumerate() {
                if zi == 0.0 {
                    continue;
                }
                row.iter_mut().for_each(|v| *v = 0.0);
                row[i] = zi;
                b.push_row(&row);
            }
        }
        b
    }

    fn frob_estimate(&self) -> f64 {
        self.tracker.received()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::MatrixConfig;
    use crate::matrix::{row_weight, Row};
    use cma_data::{StreamingGram, SyntheticMatrixStream};
    use cma_linalg::random;
    use cma_stream::Coordinator;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn tracks_axis_aligned_streams_exactly_enough() {
        // When the data's covariance is diagonal in the standard basis,
        // P4's fixed basis *is* the right basis and it works.
        let cfg = MatrixConfig::new(2, 0.2, 4).with_seed(61);
        let mut runner = deploy(&cfg);
        let mut truth = StreamingGram::new(4);
        let mut rng = StdRng::seed_from_u64(1);
        for i in 0..4_000 {
            let mut row = vec![0.0; 4];
            let axis = i % 4;
            row[axis] = 1.0 + rng.gen::<f64>();
            truth.update(&row);
            runner.feed(i % 2, row);
        }
        let err = truth
            .error_of_sketch(&runner.coordinator().sketch())
            .unwrap();
        assert!(err < 0.2, "axis-aligned error {err} unexpectedly large");
    }

    #[test]
    fn fails_on_rotated_streams() {
        // The negative result: on data with strong off-diagonal
        // covariance, P4's error is far beyond ε while MT-P2 at the same
        // ε is fine.
        let cfg = MatrixConfig::new(2, 0.1, 8).with_seed(62);
        let mut p4 = deploy(&cfg);
        let mut p2 = super::super::p2::deploy(&cfg);
        let mut truth = StreamingGram::new(8);
        let mut stream = SyntheticMatrixStream::new(8, &[4.0, 2.0], 1e6, 7);
        for i in 0..4_000 {
            let row = stream.next_row();
            truth.update(&row);
            p4.feed(i % 2, row.clone());
            p2.feed(i % 2, row);
        }
        let err_p4 = truth.error_of_sketch(&p4.coordinator().sketch()).unwrap();
        let err_p2 = truth.error_of_sketch(&p2.coordinator().sketch()).unwrap();
        assert!(
            err_p2 <= cfg.epsilon,
            "P2 must meet its contract ({err_p2})"
        );
        assert!(
            err_p4 > 3.0 * err_p2,
            "P4 ({err_p4}) should be far worse than P2 ({err_p2})"
        );
    }

    #[test]
    fn communication_stays_low() {
        // P4's one redeeming quality: it is cheap.
        let cfg = MatrixConfig::new(16, 0.1, 6).with_seed(63);
        let mut runner = deploy(&cfg);
        let mut rng = StdRng::seed_from_u64(2);
        let n = 20_000;
        for i in 0..n {
            let row: Row = (0..6).map(|_| random::standard_normal(&mut rng)).collect();
            runner.feed(i % 16, row);
        }
        let sent = runner.stats().total();
        assert!(sent < (n / 3) as u64, "MT-P4 sent {sent} of {n}");
    }

    #[test]
    fn hostile_z_reports_leave_the_sketch_intact() {
        let mut runner = deploy(&MatrixConfig::new(2, 0.2, 3));
        runner.feed(0, vec![1.0, 2.0, 2.0]);
        let (_, mut coord, _) = runner.into_parts();
        let want = coord.sketch();
        coord.receive(1, MP4Msg::Report(vec![1.0; 4]), &mut Vec::new());
        coord.receive(7, MP4Msg::Report(vec![1.0; 3]), &mut Vec::new());
        let got = coord.sketch();
        assert_eq!((got.rows(), got.cols()), (want.rows(), 3));
    }

    #[test]
    fn weight_tracker_invariant() {
        let cfg = MatrixConfig::new(4, 0.2, 5).with_seed(64);
        let mut runner = deploy(&cfg);
        let mut total = 0.0;
        let mut rng = StdRng::seed_from_u64(3);
        for i in 0..5_000 {
            let row: Row = (0..5).map(|_| 1.0 + rng.gen::<f64>()).collect();
            total += row_weight(&row);
            runner.feed(i % 4, row);
        }
        let received = runner.coordinator().frob_estimate();
        assert!(received <= total + 1e-6);
        assert!(
            received >= total / 2.0,
            "tracker lost too much: {received} vs {total}"
        );
    }
}
