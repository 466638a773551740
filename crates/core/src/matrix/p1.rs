//! Protocol MT-P1 — batched Frequent Directions (paper §5.1).
//!
//! The matrix analogue of HH-P1: each site runs a Frequent Directions
//! sketch with error parameter `ε' = ε/2` and flushes its entire sketch
//! to the coordinator once the local squared Frobenius mass since the
//! last flush reaches `τ = (ε/2m)·F̂` (Algorithm 5.1). The coordinator
//! folds received sketch rows into its own FD sketch — FD's mergeability
//! keeps the combined error at `ε'‖A‖²_F` — and re-broadcasts `F̂` when
//! the received mass grows by `1 + ε/2` (Algorithm 5.2).
//!
//! Total communication is `O((m/ε²) log(βN))` rows. The paper's
//! experiments (and ours — see Table 1) show this is barely better than
//! shipping raw rows at practical `ε`: sites rarely accumulate enough
//! rows between flushes for FD to compress anything. It remains the
//! accuracy champion for the same reason.

use super::{row_weight, MatrixEstimator, Row};
use crate::config::MatrixConfig;
use cma_linalg::Matrix;
use cma_sketch::FrequentDirections;
use cma_stream::{
    put_f64, put_usize, AggNode, Aggregator, BudgetShare, ChurnBudget, ChurnCoordinator, ChurnSite,
    Coordinator, Membership, MessageCost, MigratableAggregator, Runner, Site, SiteId, Topology,
    WireCodec, WireReader,
};

/// Site → coordinator message: a flushed FD sketch.
#[derive(Debug, Clone)]
pub struct MP1Msg {
    /// Sketch rows.
    pub rows: Matrix,
    /// Exact squared Frobenius mass the sketch summarises (`Fᵢ`).
    pub mass: f64,
}

impl MessageCost for MP1Msg {
    /// One message per sketch row plus the scalar.
    fn cost(&self) -> u64 {
        self.rows.rows() as u64 + 1
    }

    /// Exact size of the [`crate::wire`] encoding.
    fn wire_bytes(&self) -> u64 {
        crate::wire::matrix_bytes(&self.rows) + 8
    }

    /// A lost flush loses the squared Frobenius mass it summarises.
    fn mass(&self) -> f64 {
        self.mass
    }
}

/// MT-P1 site.
#[derive(Debug, Clone)]
pub struct MP1Site {
    fd: FrequentDirections,
    /// Flush threshold as a fraction of `F̂`: `ε/2m` in a star, half
    /// that in a tree (see [`deploy_topology`]).
    tau_frac: f64,
    f_hat: f64,
}

impl MP1Site {
    fn new(cfg: &MatrixConfig) -> Self {
        Self::with_tau_frac(cfg, cfg.epsilon / (2.0 * cfg.sites as f64))
    }

    fn with_tau_frac(cfg: &MatrixConfig, tau_frac: f64) -> Self {
        MP1Site {
            // ε' = ε/2 → ℓ = ⌈2/ε'⌉ = ⌈4/ε⌉ rows.
            fd: FrequentDirections::with_error_bound(cfg.dim, cfg.epsilon / 2.0)
                .using_shrink(cfg.profile.shrink)
                .using_kernels(cfg.profile.kernels),
            tau_frac,
            f_hat: 1.0,
        }
    }

    /// Flush threshold `τ = (ε/2m)·F̂`.
    fn tau(&self) -> f64 {
        self.tau_frac * self.f_hat
    }
}

impl Site for MP1Site {
    type Input = Row;
    type UpMsg = MP1Msg;
    type Broadcast = f64;

    fn observe(&mut self, row: Row, out: &mut Vec<MP1Msg>) {
        let w = row_weight(&row);
        if w == 0.0 {
            return; // zero rows carry no information in this norm
        }
        self.fd.update(&row);
        if self.fd.frob_sq_seen() >= self.tau() {
            let (rows, mass) = self.fd.take();
            out.push(MP1Msg { rows, mass });
        }
    }

    /// Batched rows stream into the Frequent Directions sketch in one
    /// tight loop with the flush threshold `τ = (ε/2m)·F̂` hoisted out of
    /// it — `F̂` only changes on a broadcast, which can only arrive after
    /// this site pauses with a flushed sketch, so flush points (and
    /// therefore message contents and costs) are identical to per-item
    /// execution. FD's own shrink cadence is row-count driven and
    /// unaffected by batching.
    fn observe_batch(&mut self, inputs: impl IntoIterator<Item = Row>, out: &mut Vec<MP1Msg>) {
        let tau = self.tau();
        for row in inputs {
            let w = row_weight(&row);
            if w == 0.0 {
                continue;
            }
            self.fd.update(&row);
            if self.fd.frob_sq_seen() >= tau {
                let (rows, mass) = self.fd.take();
                out.push(MP1Msg { rows, mass });
                return; // pause-on-message
            }
        }
    }

    fn on_broadcast(&mut self, f_hat: &f64) {
        self.f_hat = *f_hat;
    }
}

/// MT-P1 coordinator.
#[derive(Debug, Clone)]
pub struct MP1Coordinator {
    fd: FrequentDirections,
    /// Received squared Frobenius mass (`F_C`).
    received: f64,
    f_hat: f64,
    epsilon: f64,
}

impl MP1Coordinator {
    fn new(cfg: &MatrixConfig) -> Self {
        MP1Coordinator {
            fd: FrequentDirections::with_error_bound(cfg.dim, cfg.epsilon / 2.0)
                .using_shrink(cfg.profile.shrink)
                .using_kernels(cfg.profile.kernels),
            received: 0.0,
            f_hat: 1.0,
            epsilon: cfg.epsilon,
        }
    }
}

impl Coordinator for MP1Coordinator {
    type UpMsg = MP1Msg;
    type Broadcast = f64;

    fn receive(&mut self, _from: SiteId, msg: MP1Msg, out: &mut Vec<f64>) {
        // One stack + at most one shrink: the Agarwal et al. sketch
        // merge, which keeps the combined-stream guarantee at a fraction
        // of the row-by-row fold's eigensolves.
        self.fd.merge_rows(&msg.rows);
        self.received += msg.mass;
        if self.received / self.f_hat > 1.0 + self.epsilon / 2.0 {
            self.f_hat = self.received;
            out.push(self.f_hat);
        }
    }
}

impl MatrixEstimator for MP1Coordinator {
    fn sketch(&self) -> Matrix {
        self.fd.sketch().clone()
    }
    fn frob_estimate(&self) -> f64 {
        self.received
    }
}

/// Interior tree node of an MT-P1 deployment: merges flushed Frequent
/// Directions sketches ([`FrequentDirections::merge_rows`] — FD
/// mergeability keeps the combined error at `ε'·‖A‖²_F` under any merge
/// tree) and holds the merged partial until its exact mass reaches this
/// node's share of the unreported-mass budget, so upper levels see
/// coalesced sketches instead of one relay per site flush.
#[derive(Debug, Clone)]
pub struct MP1Aggregator {
    fd: FrequentDirections,
    /// Exact squared-Frobenius mass pending (sum of child-reported
    /// `Fᵢ`, not the sketch's own — the scalar the coordinator tracks).
    mass: f64,
    /// Forward threshold as a fraction of `F̂`.
    hold_frac: f64,
    f_hat: f64,
    rep: SiteId,
}

impl Aggregator for MP1Aggregator {
    type UpMsg = MP1Msg;
    type Broadcast = f64;

    fn absorb(&mut self, from: SiteId, msg: MP1Msg) {
        if self.mass == 0.0 {
            self.rep = from;
        }
        self.fd.merge_rows(&msg.rows);
        self.mass += msg.mass;
    }

    fn flush(&mut self, out: &mut Vec<(SiteId, MP1Msg)>) {
        if self.mass > 0.0 && self.mass >= self.hold_frac * self.f_hat {
            let (rows, _) = self.fd.take();
            let mass = self.mass;
            self.mass = 0.0;
            out.push((self.rep, MP1Msg { rows, mass }));
        }
    }

    fn on_broadcast(&mut self, f_hat: &f64) {
        self.f_hat = *f_hat;
    }
}

impl MigratableAggregator for MP1Aggregator {
    /// Ships the merged FD partial regardless of the hold threshold —
    /// the withheld-mass budget is re-stated against the new plan.
    fn split_for_migration(&mut self, out: &mut Vec<(SiteId, MP1Msg)>) {
        if self.mass > 0.0 {
            let (rows, _) = self.fd.take();
            let mass = self.mass;
            self.mass = 0.0;
            out.push((self.rep, MP1Msg { rows, mass }));
        }
    }
}

/// Leaf share of MT-P1's unreported-mass budget (see the HH analogue in
/// `hh::p1`): `(ε/2)/m'` flat, `(ε/4)/m'` in a tree — stated without
/// the common `ε` factor, which cancels in the re-split ratio.
fn mp1_site_frac(mem: &Membership) -> f64 {
    if mem.flat {
        0.5 / mem.sites as f64
    } else {
        0.25 / mem.sites as f64
    }
}

/// Interior share: `covered/(4·L·m')`.
fn mp1_interior_frac(mem: &Membership, covered: usize) -> f64 {
    covered as f64 / (4.0 * mem.levels.max(1) as f64 * mem.sites as f64)
}

impl ChurnBudget for MP1Site {
    fn rebudget(&mut self, share: &BudgetShare) {
        self.tau_frac *= mp1_site_frac(&share.next) / mp1_site_frac(&share.prev);
    }
}

impl ChurnSite for MP1Site {
    /// Ships the entire local FD sketch regardless of the flush
    /// threshold — the departing site's withheld mass re-enters the
    /// bound.
    fn depart(&mut self, out: &mut Vec<MP1Msg>) {
        if self.fd.frob_sq_seen() > 0.0 {
            let (rows, mass) = self.fd.take();
            out.push(MP1Msg { rows, mass });
        }
    }
}

impl ChurnBudget for MP1Coordinator {}

impl ChurnCoordinator for MP1Coordinator {
    fn current_broadcast(&self) -> Option<f64> {
        (self.f_hat > 1.0).then_some(self.f_hat)
    }
}

impl ChurnBudget for MP1Aggregator {
    fn rebudget(&mut self, share: &BudgetShare) {
        self.hold_frac *= mp1_interior_frac(&share.next, share.covered_next)
            / mp1_interior_frac(&share.prev, share.covered_prev);
    }
}

impl WireCodec for MP1Coordinator {
    fn encode(&self, out: &mut Vec<u8>) {
        crate::wire::put_fd(out, &self.fd);
        put_f64(out, self.received);
        put_f64(out, self.f_hat);
        put_f64(out, self.epsilon);
    }

    fn decode(r: &mut WireReader<'_>) -> Option<Self> {
        Some(MP1Coordinator {
            fd: crate::wire::read_fd(r)?,
            received: r.f64()?,
            f_hat: r.f64()?,
            epsilon: r.f64()?,
        })
    }

    fn encoded_len(&self) -> u64 {
        crate::wire::fd_bytes(&self.fd) + 24
    }
}

impl WireCodec for MP1Aggregator {
    fn encode(&self, out: &mut Vec<u8>) {
        crate::wire::put_fd(out, &self.fd);
        put_f64(out, self.mass);
        put_f64(out, self.hold_frac);
        put_f64(out, self.f_hat);
        put_usize(out, self.rep);
    }

    fn decode(r: &mut WireReader<'_>) -> Option<Self> {
        Some(MP1Aggregator {
            fd: crate::wire::read_fd(r)?,
            mass: r.f64()?,
            hold_frac: r.f64()?,
            f_hat: r.f64()?,
            rep: r.usize()?,
        })
    }

    fn encoded_len(&self) -> u64 {
        crate::wire::fd_bytes(&self.fd) + 32
    }
}

/// Builds an MT-P1 deployment.
pub fn deploy(cfg: &MatrixConfig) -> Runner<MP1Site, MP1Coordinator> {
    let sites = (0..cfg.sites).map(|_| MP1Site::new(cfg)).collect();
    Runner::new(sites, MP1Coordinator::new(cfg))
}

/// Builds an MT-P1 deployment over an arbitrary aggregation topology.
///
/// Same budget split as the heavy-hitter analogue
/// ([`crate::hh::p1::deploy_topology`]): the `ε/2` unreported-mass
/// budget is divided between leaves (`τ = (ε/4m)·F̂`) and interior
/// nodes (`(ε/4L)·(c/m)·F̂` for a node covering `c` of `m` leaves over
/// `L` levels), while FD mergeability keeps the sketch error at
/// `(ε/2)‖A‖²_F` regardless of the merge-tree shape. With no interior
/// nodes this is *identical* to [`deploy`].
pub fn deploy_topology(
    cfg: &MatrixConfig,
    topology: Topology,
) -> Runner<MP1Site, MP1Coordinator, MP1Aggregator> {
    let plan = topology.plan(cfg.sites);
    let m = cfg.sites as f64;
    let site_frac = if plan.internal_levels() == 0 {
        cfg.epsilon / (2.0 * m)
    } else {
        cfg.epsilon / (4.0 * m)
    };
    let sites = (0..cfg.sites)
        .map(|_| MP1Site::with_tau_frac(cfg, site_frac))
        .collect();
    Runner::with_topology(
        sites,
        MP1Coordinator::new(cfg),
        topology,
        make_aggregator(cfg, topology),
    )
}

/// Aggregator factory matching [`deploy_topology`]'s budget split (for
/// the engine's topology drivers).
pub fn make_aggregator(
    cfg: &MatrixConfig,
    topology: Topology,
) -> impl FnMut(AggNode) -> MP1Aggregator {
    let plan = topology.plan(cfg.sites);
    let levels = plan.internal_levels().max(1) as f64;
    let m = cfg.sites as f64;
    let eps = cfg.epsilon;
    let dim = cfg.dim;
    let shrink = cfg.profile.shrink;
    let kernels = cfg.profile.kernels;
    move |node| MP1Aggregator {
        fd: FrequentDirections::with_error_bound(dim, eps / 2.0)
            .using_shrink(shrink)
            .using_kernels(kernels),
        mass: 0.0,
        hold_frac: eps / (4.0 * levels) * (node.leaves as f64 / m),
        f_hat: 1.0,
        rep: 0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cma_data::StreamingGram;
    use cma_linalg::random;
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
        assert!(runner.sites()[0].fd.is_empty());
    }

    #[test]
    fn zero_rows_ignored() {
        let cfg = MatrixConfig::new(2, 0.3, 4);
        let mut runner = deploy(&cfg);
        runner.feed(0, vec![0.0; 4]);
        assert_eq!(runner.stats().total(), 0);
    }
}
