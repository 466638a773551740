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
//! Mechanics per site `j`:
//!
//! * maintain the exact local Gram `Gj = AjᵀAj` and the fixed orthonormal
//!   basis `V` (initialised to the standard basis, as any valid SVD of
//!   the empty `Âj`);
//! * on a row of weight `w = ‖a‖²`, with probability
//!   `p̄ = 1 − e^{−p·w}` (`p = 2√m/(ε·F̂)`) send
//!   `zᵢ = √(‖Aj vᵢ‖² + 1/p)` for all `i`, one vector message;
//! * both ends set `Âj = Z·Vᵀ`.
//!
//! `F̂` is the deterministic 2-approximation of `‖A‖²_F` from
//! [`crate::weight_tracker`].

use super::{row_weight, MatrixEstimator, Row};
use crate::config::MatrixConfig;
use crate::weight_tracker::{CoordWeightTracker, SiteWeightTracker};
use cma_linalg::matrix::accumulate_outer;
use cma_linalg::Matrix;
use cma_stream::{
    put_f64, put_usize, AggNode, Aggregator, BudgetShare, ChurnBudget, ChurnCoordinator, ChurnSite,
    Coordinator, MessageCost, MigratableAggregator, Runner, Site, SiteId, Topology, WireCodec,
    WireReader,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Site → coordinator messages of protocol MT-P4.
#[derive(Debug, Clone)]
pub enum MP4Msg {
    /// Weight-tracker report.
    Total(f64),
    /// The refreshed singular values `z` of `Âj = Z·Vᵀ` (one vector
    /// message, same cost unit as a row).
    Z(Vec<f64>),
}

impl MessageCost for MP4Msg {
    fn cost(&self) -> u64 {
        1
    }

    /// Exact size of the [`crate::wire`] encoding: tag plus payload.
    fn wire_bytes(&self) -> u64 {
        match self {
            MP4Msg::Total(_) => 9,
            MP4Msg::Z(z) => 1 + crate::wire::row_bytes(z),
        }
    }

    /// Tracker reports carry incremental Frobenius mass; a `z` refresh
    /// is absolute state (losing one leaves stale values, not lost
    /// mass).
    fn mass(&self) -> f64 {
        match self {
            MP4Msg::Total(f) => *f,
            MP4Msg::Z(_) => 0.0,
        }
    }
}

/// MT-P4 site.
#[derive(Debug, Clone)]
pub struct MP4Site {
    /// Exact local Gram `Gj` (the site's streaming state).
    gram: Matrix,
    tracker: SiteWeightTracker,
    sites: usize,
    epsilon: f64,
    rng: StdRng,
}

impl MP4Site {
    fn new(cfg: &MatrixConfig, site: usize) -> Self {
        Self::with_budget(cfg, site, cfg.sites)
    }

    /// `budget` is the number of weight-withholding nodes the tracker's
    /// `F̂/2` slack is split across: `m` in a star, `m + I` in a tree.
    fn with_budget(cfg: &MatrixConfig, site: usize, budget: usize) -> Self {
        MP4Site {
            gram: Matrix::zeros(cfg.dim, cfg.dim),
            tracker: SiteWeightTracker::with_budget(budget),
            sites: cfg.sites,
            epsilon: cfg.epsilon,
            rng: StdRng::seed_from_u64(cfg.site_seed(site)),
        }
    }

    /// Send-rate parameter `p = 2√m/(ε·F̂)`.
    fn p(&self) -> f64 {
        2.0 * (self.sites as f64).sqrt() / (self.epsilon * self.tracker.w_hat())
    }
}

impl Site for MP4Site {
    type Input = Row;
    type UpMsg = MP4Msg;
    type Broadcast = f64;

    fn observe(&mut self, row: Row, out: &mut Vec<MP4Msg>) {
        let w = row_weight(&row);
        if w == 0.0 {
            return;
        }
        if let Some(report) = self.tracker.add(w) {
            out.push(MP4Msg::Total(report));
        }
        accumulate_outer(&mut self.gram, &row);
        let p = self.p();
        let p_bar = 1.0 - (-p * w).exp();
        if self.rng.gen::<f64>() < p_bar {
            // With V the standard basis, ‖Aj vᵢ‖² = Gj[i][i].
            let d = self.gram.rows();
            let z: Vec<f64> = (0..d)
                .map(|i| (self.gram[(i, i)] + 1.0 / p).sqrt())
                .collect();
            out.push(MP4Msg::Z(z));
        }
    }

    /// Batched rows hoist the send-rate parameter `p = 2√m/(ε·F̂)` out of
    /// the loop (`F̂` only changes on a broadcast, which only arrives
    /// after a pause); the exact Gram update stays per-row because a send
    /// may read its diagonal after any arrival. RNG order, message counts
    /// and contents are identical to per-item execution.
    fn observe_batch(&mut self, inputs: impl IntoIterator<Item = Row>, out: &mut Vec<MP4Msg>) {
        let p = self.p();
        for row in inputs {
            let w = row_weight(&row);
            if w == 0.0 {
                continue;
            }
            if let Some(report) = self.tracker.add(w) {
                out.push(MP4Msg::Total(report));
            }
            accumulate_outer(&mut self.gram, &row);
            let p_bar = 1.0 - (-p * w).exp();
            if self.rng.gen::<f64>() < p_bar {
                let d = self.gram.rows();
                let z: Vec<f64> = (0..d)
                    .map(|i| (self.gram[(i, i)] + 1.0 / p).sqrt())
                    .collect();
                out.push(MP4Msg::Z(z));
            }
            if !out.is_empty() {
                return; // pause-on-message
            }
        }
    }

    fn on_broadcast(&mut self, f_hat: &f64) {
        self.tracker.on_broadcast(*f_hat);
    }
}

/// MT-P4 coordinator: per-site `Âj = Z·Vᵀ` mirrors.
#[derive(Debug, Clone)]
pub struct MP4Coordinator {
    /// Latest `z` vector per site (the fixed basis is the standard one).
    z: Vec<Option<Vec<f64>>>,
    tracker: CoordWeightTracker,
    dim: usize,
}

impl MP4Coordinator {
    fn new(cfg: &MatrixConfig) -> Self {
        MP4Coordinator {
            z: vec![None; cfg.sites],
            tracker: CoordWeightTracker::new(),
            dim: cfg.dim,
        }
    }
}

impl Coordinator for MP4Coordinator {
    type UpMsg = MP4Msg;
    type Broadcast = f64;

    fn receive(&mut self, from: SiteId, msg: MP4Msg, out: &mut Vec<f64>) {
        match msg {
            MP4Msg::Total(report) => {
                if let Some(new_hat) = self.tracker.on_report(report) {
                    out.push(new_hat);
                }
            }
            MP4Msg::Z(z) => {
                debug_assert_eq!(z.len(), self.dim);
                self.z[from] = Some(z);
            }
        }
    }
}

impl MatrixEstimator for MP4Coordinator {
    /// Stacks every site's `Z·Vᵀ`; with the standard basis each site
    /// contributes `d` axis-aligned rows `zᵢ·eᵢ`.
    fn sketch(&self) -> Matrix {
        let mut b = Matrix::with_cols(self.dim);
        let mut row = vec![0.0; self.dim];
        for z in self.z.iter().flatten() {
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

/// Interior tree node of an MT-P4 deployment: `Z` vectors are per-site
/// state mirrors and relay origin-tagged (the coordinator replaces, not
/// sums, them), while weight-tracker reports coalesce under the shared
/// node threshold `F̂/(2(m+I))` — the matrix analogue of
/// [`crate::hh::p4::P4Aggregator`].
#[derive(Debug, Clone)]
pub struct MP4Aggregator {
    tracker: SiteWeightTracker,
    pending: Vec<(SiteId, MP4Msg)>,
    /// Representative origin for the tracker's coalesced mass.
    rep: SiteId,
}

impl Aggregator for MP4Aggregator {
    type UpMsg = MP4Msg;
    type Broadcast = f64;

    fn absorb(&mut self, from: SiteId, msg: MP4Msg) {
        match msg {
            MP4Msg::Total(report) => {
                self.rep = from;
                if let Some(merged) = self.tracker.add(report) {
                    self.pending.push((from, MP4Msg::Total(merged)));
                }
            }
            z => self.pending.push((from, z)),
        }
    }

    fn flush(&mut self, out: &mut Vec<(SiteId, MP4Msg)>) {
        out.append(&mut self.pending);
    }

    fn on_broadcast(&mut self, f_hat: &f64) {
        self.tracker.on_broadcast(*f_hat);
    }
}

impl MigratableAggregator for MP4Aggregator {
    /// Drains the relay queue plus the tracker's sub-threshold mass —
    /// the only state this node withholds.
    fn split_for_migration(&mut self, out: &mut Vec<(SiteId, MP4Msg)>) {
        out.append(&mut self.pending);
        let held = self.tracker.take_unreported();
        if held > 0.0 {
            out.push((self.rep, MP4Msg::Total(held)));
        }
    }
}

impl ChurnBudget for MP4Site {
    /// `p = 2√m/(ε·F̂)` scales with the live site count; the tracker's
    /// `F̂/2` slack is split across all withholding nodes.
    fn rebudget(&mut self, share: &BudgetShare) {
        self.sites = share.next.sites;
        self.tracker.set_budget(share.next.nodes());
    }
}

impl ChurnSite for MP4Site {
    /// Ships the tracker's sub-threshold mass plus a final `z` refresh —
    /// the site's mirror at the coordinator would otherwise be frozen at
    /// its last probabilistic send, losing everything observed since.
    fn depart(&mut self, out: &mut Vec<MP4Msg>) {
        let held = self.tracker.take_unreported();
        if held > 0.0 {
            out.push(MP4Msg::Total(held));
        }
        let p = self.p();
        let d = self.gram.rows();
        let z: Vec<f64> = (0..d)
            .map(|i| (self.gram[(i, i)] + 1.0 / p).sqrt())
            .collect();
        out.push(MP4Msg::Z(z));
    }
}

impl ChurnBudget for MP4Coordinator {}

impl ChurnCoordinator for MP4Coordinator {
    fn current_broadcast(&self) -> Option<f64> {
        let w_hat = self.tracker.w_hat();
        (w_hat > 1.0).then_some(w_hat)
    }
}

impl ChurnBudget for MP4Aggregator {
    fn rebudget(&mut self, share: &BudgetShare) {
        self.tracker.set_budget(share.next.nodes());
    }
}

impl WireCodec for MP4Coordinator {
    fn encode(&self, out: &mut Vec<u8>) {
        put_usize(out, self.dim);
        put_usize(out, self.z.len());
        for z in &self.z {
            match z {
                Some(v) => {
                    out.push(1);
                    crate::wire::put_row(out, v);
                }
                None => out.push(0),
            }
        }
        put_f64(out, self.tracker.received());
        put_f64(out, self.tracker.w_hat());
    }

    fn decode(r: &mut WireReader<'_>) -> Option<Self> {
        let dim = r.usize()?;
        let n = r.usize()?;
        let mut z = Vec::with_capacity(r.capacity_for(n));
        for _ in 0..n {
            z.push(match r.u8()? {
                0 => None,
                1 => Some(crate::wire::read_row(r)?),
                _ => return None,
            });
        }
        let received = r.f64()?;
        let w_hat = r.f64()?;
        Some(MP4Coordinator {
            z,
            tracker: CoordWeightTracker::from_parts(received, w_hat),
            dim,
        })
    }
}

impl WireCodec for MP4Aggregator {
    fn encode(&self, out: &mut Vec<u8>) {
        put_usize(out, self.tracker.budget());
        put_f64(out, self.tracker.unreported());
        put_f64(out, self.tracker.w_hat());
        put_usize(out, self.pending.len());
        for (from, msg) in &self.pending {
            put_usize(out, *from);
            msg.encode(out);
        }
        put_usize(out, self.rep);
    }

    fn decode(r: &mut WireReader<'_>) -> Option<Self> {
        let budget = r.usize()?;
        if budget == 0 {
            return None;
        }
        let unreported = r.f64()?;
        let w_hat = r.f64()?;
        let n = r.usize()?;
        let mut pending = Vec::with_capacity(r.capacity_for(n));
        for _ in 0..n {
            let from = r.usize()?;
            pending.push((from, MP4Msg::decode(r)?));
        }
        let rep = r.usize()?;
        Some(MP4Aggregator {
            tracker: SiteWeightTracker::from_parts(budget, unreported, w_hat),
            pending,
            rep,
        })
    }
}

/// Builds an MT-P4 deployment.
pub fn deploy(cfg: &MatrixConfig) -> Runner<MP4Site, MP4Coordinator> {
    let sites = (0..cfg.sites).map(|i| MP4Site::new(cfg, i)).collect();
    Runner::new(sites, MP4Coordinator::new(cfg))
}

/// Builds an MT-P4 deployment over an arbitrary aggregation topology
/// (still the paper's negative result — tree aggregation changes its
/// communication shape, not its missing guarantee). With no interior
/// nodes this is *identical* to [`deploy`].
pub fn deploy_topology(
    cfg: &MatrixConfig,
    topology: Topology,
) -> Runner<MP4Site, MP4Coordinator, MP4Aggregator> {
    let plan = topology.plan(cfg.sites);
    let budget = cfg.sites + plan.internal_nodes();
    let sites = (0..cfg.sites)
        .map(|i| MP4Site::with_budget(cfg, i, budget))
        .collect();
    Runner::with_topology(
        sites,
        MP4Coordinator::new(cfg),
        topology,
        make_aggregator(cfg, topology),
    )
}

/// Aggregator factory matching [`deploy_topology`]'s budget split (for
/// the engine's topology drivers).
pub fn make_aggregator(
    cfg: &MatrixConfig,
    topology: Topology,
) -> impl FnMut(AggNode) -> MP4Aggregator {
    let plan = topology.plan(cfg.sites);
    let budget = cfg.sites + plan.internal_nodes();
    move |_| MP4Aggregator {
        tracker: SiteWeightTracker::with_budget(budget),
        pending: Vec::new(),
        rep: 0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cma_data::{StreamingGram, SyntheticMatrixStream};
    use cma_linalg::random;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

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
