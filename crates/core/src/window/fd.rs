//! Windowed matrix tracking — the sliding-window analogue of protocol
//! MT-P1, with Frequent Directions buckets riding the exponential
//! histogram.
//!
//! Sites observe globally-stamped `(t, row)` arrivals and track the
//! covariance of the last `W` global rows. The coordinator answers
//! [`SwFdCoordinator::sketch_at`] with the certified
//! [`crate::window::WindowErrorBound`] on
//! `|‖A_W x‖² − ‖Bx‖²|` for unit `x`: overcount at most the straddling
//! mass, undercount at most the FD loss plus the withheld budget.
//!
//! # Example
//!
//! ```
//! use cma_core::window::fd::{self, SwFdConfig};
//! use cma_stream::partition::RoundRobin;
//!
//! // 4 sites, ε = 0.2, window = 300 rows in R³, ℓ = 8 FD rows/bucket.
//! let cfg = SwFdConfig::new(4, 0.2, 300, 3, 8);
//! let mut runner = fd::deploy(&cfg);
//! // Energy along e₀ for 600 rows, then a full window along e₁.
//! let stream = (0..900u64).map(|t| {
//!     let row = if t < 600 {
//!         vec![2.0, 0.0, 0.0]
//!     } else {
//!         vec![0.0, 1.0, 0.0]
//!     };
//!     (t, row) // rows carry their global index
//! });
//! runner.run_partitioned(stream, &mut RoundRobin::new(4), 64);
//! let coord = runner.coordinator();
//! let sketch = coord.sketch_at(900);
//! let bound = coord.error_bound_at(900).total();
//! // The expired e₀ regime is gone (up to the certified error) and the
//! // window's e₁ energy (300 rows × 1²) is retained:
//! assert!(sketch.apply_norm_sq(&[1.0, 0.0, 0.0]) <= bound);
//! assert!((sketch.apply_norm_sq(&[0.0, 1.0, 0.0]) - 300.0).abs() <= bound);
//! ```

use super::{
    SnapshotKind, SwAggregator, SwCoordinator, SwParams, SwSite, WindowConfig, WindowKind,
};
use crate::matrix::{row_weight, Row};
use cma_linalg::{LinalgProfile, Matrix};
use cma_sketch::FrequentDirections;
use cma_stream::{put_usize, WireReader};

pub use super::{deploy, deploy_topology, make_aggregator, run_engine};

/// The Frequent Directions instantiation of the windowed protocol
/// family.
#[derive(Debug, Clone, PartialEq)]
pub struct FdKind {
    pub(crate) dim: usize,
    pub(crate) ell: usize,
}

impl WindowKind for FdKind {
    type Input = Row;
    type Summary = FrequentDirections;

    fn empty(&self) -> FrequentDirections {
        FrequentDirections::new(self.dim, self.ell)
    }

    fn singleton(&self, row: &Row) -> (FrequentDirections, f64) {
        assert_eq!(row.len(), self.dim, "FdKind: row dimension mismatch");
        let mass = row_weight(row);
        let mut fd = FrequentDirections::new(self.dim, self.ell);
        if mass > 0.0 {
            fd.update(row);
        }
        (fd, mass)
    }

    /// FD loss over `mass` merged squared Frobenius norm: `2·mass/ℓ`.
    fn summary_loss(&self, mass: f64) -> f64 {
        2.0 * mass / self.ell as f64
    }
}

impl SnapshotKind for FdKind {
    /// `d` and `ℓ` are the whole kind.
    fn encode_kind(&self, out: &mut Vec<u8>) {
        put_usize(out, self.dim);
        put_usize(out, self.ell);
    }

    fn decode_kind(r: &mut WireReader<'_>) -> Option<Self> {
        let dim = r.usize()?;
        let ell = r.usize()?;
        if dim == 0 || ell < 2 {
            return None;
        }
        Some(FdKind { dim, ell })
    }

    fn kind_of(fd: &FrequentDirections) -> Self {
        FdKind {
            dim: fd.dim(),
            ell: fd.ell(),
        }
    }

    fn width(&self) -> Option<usize> {
        Some(self.dim)
    }
}

/// Site type of the windowed matrix protocol.
pub type SwFdSite = SwSite<FdKind>;
/// Coordinator type of the windowed matrix protocol.
pub type SwFdCoordinator = SwCoordinator<FdKind>;
/// Interior-node type of the windowed matrix protocol.
pub type SwFdAggregator = SwAggregator<FdKind>;

impl SwFdCoordinator {
    /// The window sketch `B` for a query at clock `t_now` (rows observed
    /// globally): `|‖A_W x‖² − ‖Bx‖²|` is bounded by
    /// [`SwCoordinator::error_bound_at`] for every unit `x`.
    pub fn sketch_at(&self, t_now: u64) -> Matrix {
        // Borrows the root's kept fold: only the sketch rows are copied.
        self.window_summary_at(t_now).sketch().clone()
    }
}

/// Configuration of the windowed matrix deployment.
#[derive(Debug, Clone)]
pub struct SwFdConfig {
    /// Shared sliding-window knobs (`m`, `ε`, `W`, `r`, `θ`).
    pub params: SwParams,
    /// Row dimensionality `d`.
    pub dim: usize,
    /// FD rows per bucket (`ℓ ≥ 2`; summary loss `2·mass/ℓ`).
    pub ell: usize,
}

impl SwFdConfig {
    /// Creates a configuration with the default `per_level`/`theta`
    /// (see [`SwParams::new`]).
    ///
    /// # Panics
    /// Panics on invalid shared knobs or FD parameters.
    pub fn new(sites: usize, epsilon: f64, window: u64, dim: usize, ell: usize) -> Self {
        let _probe = FrequentDirections::new(dim, ell); // validate eagerly
        SwFdConfig {
            params: SwParams::new(sites, epsilon, window),
            dim,
            ell,
        }
    }

    /// Returns the config unchanged: [`LinalgProfile`] has one value.
    /// Kept for the frozen `benchmark/` package until ROADMAP item 5(d).
    pub fn with_profile(self, _profile: LinalgProfile) -> Self {
        self
    }
}

impl WindowConfig for SwFdConfig {
    type Kind = FdKind;

    fn params(&self) -> &SwParams {
        &self.params
    }

    fn kind(&self) -> FdKind {
        FdKind {
            dim: self.dim,
            ell: self.ell,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cma_linalg::random;
    use cma_stream::partition::RoundRobin;
    use cma_stream::Topology;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn random_rows(n: usize, d: usize, seed: u64) -> Vec<Row> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n)
            .map(|_| (0..d).map(|_| random::standard_normal(&mut rng)).collect())
            .collect()
    }

    fn window_matrix(rows: &[Row], t_now: usize, window: usize, d: usize) -> Matrix {
        let start = t_now.saturating_sub(window);
        let mut m = Matrix::with_cols(d);
        for r in &rows[start..t_now] {
            m.push_row(r);
        }
        m
    }

    #[test]
    fn window_sketch_within_certified_bound() {
        let d = 5;
        let window = 400usize;
        let rows = random_rows(3 * window, d, 1);
        let cfg = SwFdConfig::new(4, 0.15, window as u64, d, 24);
        let mut runner = deploy(&cfg);
        runner.run_partitioned(
            rows.iter().cloned().enumerate().map(|(t, r)| (t as u64, r)),
            &mut RoundRobin::new(4),
            64,
        );
        let t_now = rows.len();
        let a = window_matrix(&rows, t_now, window, d);
        let coord = runner.coordinator();
        let sketch = coord.sketch_at(t_now as u64);
        let bound = coord.error_bound_at(t_now as u64);
        let mut rng = StdRng::seed_from_u64(2);
        for _ in 0..20 {
            let x = random::unit_vector(&mut rng, d);
            let ax = a.apply_norm_sq(&x);
            let bx = sketch.apply_norm_sq(&x);
            assert!(
                bx - ax <= bound.straddle + 1e-9,
                "overcount {} > straddle {}",
                bx - ax,
                bound.straddle
            );
            assert!(
                ax - bx <= bound.summary_loss + bound.withheld + 1e-9,
                "undercount {} > {}",
                ax - bx,
                bound.summary_loss + bound.withheld
            );
        }
    }

    #[test]
    fn rotated_regime_expires_from_the_window() {
        let d = 4;
        let window = 300u64;
        let cfg = SwFdConfig::new(2, 0.2, window, d, 12);
        let mut runner = deploy(&cfg);
        let n_old = 800u64;
        let stream = (0..n_old + window).map(|t| {
            let row = if t < n_old {
                vec![3.0, 0.0, 0.0, 0.0]
            } else {
                vec![0.0, 1.0, 0.0, 0.0]
            };
            (t, row)
        });
        runner.run_partitioned(stream, &mut RoundRobin::new(2), 64);
        let t_now = n_old + window;
        let coord = runner.coordinator();
        let sketch = coord.sketch_at(t_now);
        let bound = coord.error_bound_at(t_now).total() + 1e-9;
        assert!(
            sketch.apply_norm_sq(&[1.0, 0.0, 0.0, 0.0]) <= bound,
            "expired e0 energy survived"
        );
        let got = sketch.apply_norm_sq(&[0.0, 1.0, 0.0, 0.0]);
        assert!((got - window as f64).abs() <= bound);
    }

    #[test]
    fn zero_rows_advance_the_clock_only() {
        let d = 3;
        let cfg = SwFdConfig::new(1, 0.2, 10, d, 8);
        let mut runner = deploy(&cfg);
        runner.feed(0, (0, vec![0.0; d]));
        assert_eq!(runner.stats().total(), 0);
        assert_eq!(runner.sites()[0].clock(), 1);
    }

    #[test]
    fn tree_deployment_keeps_certified_bound() {
        let d = 5;
        let window = 300usize;
        let rows = random_rows(3 * window, d, 7);
        let cfg = SwFdConfig::new(16, 0.15, window as u64, d, 24);
        let mut runner = deploy_topology(&cfg, Topology::Tree { fanout: 4 });
        runner.run_partitioned(
            rows.iter().cloned().enumerate().map(|(t, r)| (t as u64, r)),
            &mut RoundRobin::new(16),
            64,
        );
        let t_now = rows.len();
        let a = window_matrix(&rows, t_now, window, d);
        let coord = runner.coordinator();
        let sketch = coord.sketch_at(t_now as u64);
        let bound = coord.error_bound_at(t_now as u64).total() + 1e-9;
        let mut rng = StdRng::seed_from_u64(8);
        for _ in 0..20 {
            let x = random::unit_vector(&mut rng, d);
            let diff = (a.apply_norm_sq(&x) - sketch.apply_norm_sq(&x)).abs();
            assert!(diff <= bound, "tree: diff {diff} > bound {bound}");
        }
        assert_eq!(runner.stats().max_fan_in, 4);
    }
}
