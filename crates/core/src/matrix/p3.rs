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

use super::{row_weight, MatrixEstimator, Row};
use crate::config::MatrixConfig;
use crate::sampling::{PriorityAggState, PrioritySite, RoundCoordinator, SampleEntry};
use cma_linalg::Matrix;
use cma_stream::{
    put_f64, put_usize, AggNode, ChurnBudget, ChurnCoordinator, ChurnSite, Coordinator,
    FilteredRelay, MessageCost, RelayFilter, Runner, Site, SiteId, Topology, WireCodec, WireReader,
};

/// Site → coordinator message: one sampled row with its priority.
#[derive(Debug, Clone)]
pub struct MP3Msg {
    /// The row itself (its weight is `‖row‖²`).
    pub row: Row,
    /// Priority drawn at the site.
    pub rho: f64,
}

impl MessageCost for MP3Msg {
    fn cost(&self) -> u64 {
        1
    }

    /// Exact size of the [`crate::wire`] encoding: row plus ρ.
    fn wire_bytes(&self) -> u64 {
        crate::wire::row_bytes(&self.row) + 8
    }

    /// A lost sample loses its row's squared norm.
    fn mass(&self) -> f64 {
        self.row.iter().map(|x| x * x).sum()
    }
}

/// MT-P3 site.
#[derive(Debug, Clone)]
pub struct MP3Site {
    inner: PrioritySite,
}

impl Site for MP3Site {
    type Input = Row;
    type UpMsg = MP3Msg;
    type Broadcast = f64;

    fn observe(&mut self, row: Row, out: &mut Vec<MP3Msg>) {
        let w = row_weight(&row);
        if w == 0.0 {
            return;
        }
        if let Some(rho) = self.inner.observe(w) {
            out.push(MP3Msg { row, rho });
        }
    }

    /// Batched rows run norm computation and priority draw in one tight
    /// loop; RNG order and forwarded records match per-item execution
    /// exactly.
    fn observe_batch(&mut self, inputs: impl IntoIterator<Item = Row>, out: &mut Vec<MP3Msg>) {
        for row in inputs {
            let w = row_weight(&row);
            if w == 0.0 {
                continue;
            }
            if let Some(rho) = self.inner.observe(w) {
                out.push(MP3Msg { row, rho });
                return; // pause-on-message
            }
        }
    }

    fn on_broadcast(&mut self, tau: &f64) {
        self.inner.set_tau(*tau);
    }
}

/// MT-P3 coordinator.
#[derive(Debug)]
pub struct MP3Coordinator {
    inner: RoundCoordinator<Row>,
    dim: usize,
}

impl MP3Coordinator {
    /// Number of retained rows.
    pub fn sample_len(&self) -> usize {
        self.inner.len()
    }
}

impl Coordinator for MP3Coordinator {
    type UpMsg = MP3Msg;
    type Broadcast = f64;

    fn receive(&mut self, _from: SiteId, msg: MP3Msg, out: &mut Vec<f64>) {
        let weight = row_weight(&msg.row);
        let entry = SampleEntry {
            payload: msg.row,
            weight,
            rho: msg.rho,
        };
        if let Some(new_tau) = self.inner.receive(entry) {
            out.push(new_tau);
        }
    }
}

impl MatrixEstimator for MP3Coordinator {
    /// Stacks the sample, rescaling each row to squared norm `w̄`.
    fn sketch(&self) -> Matrix {
        let mut b = Matrix::with_cols(self.dim);
        for (row, w_bar) in self.inner.weighted_sample() {
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
        self.inner.estimate_total()
    }
}

/// Round-state filter of an MT-P3 interior node — the row analogue of
/// [`crate::hh::p3::P3Filter`]: tracks `τ` from passing broadcasts and
/// rejects stale sub-threshold rows, which only exist under
/// asynchronous lag; exact under the synchronous runner.
#[derive(Debug, Clone, Default)]
pub struct MP3Filter {
    state: PriorityAggState,
}

impl RelayFilter for MP3Filter {
    type UpMsg = MP3Msg;
    type Broadcast = f64;

    fn admit(&mut self, msg: &MP3Msg) -> bool {
        self.state.admit(msg.rho)
    }

    fn on_broadcast(&mut self, tau: &f64) {
        self.state.set_tau(*tau);
    }
}

/// Interior tree node of an MT-P3 deployment: a round-state-aware relay.
pub type MP3Aggregator = FilteredRelay<MP3Filter>;

// As in HH-P3: `τ` is global and sites withhold nothing.
impl ChurnBudget for MP3Site {}

impl ChurnSite for MP3Site {
    fn depart(&mut self, _out: &mut Vec<MP3Msg>) {}
}

impl ChurnBudget for MP3Coordinator {}

impl ChurnCoordinator for MP3Coordinator {
    fn current_broadcast(&self) -> Option<f64> {
        Some(self.inner.tau())
    }
}

fn put_row_entries(out: &mut Vec<u8>, entries: &[SampleEntry<Row>]) {
    put_usize(out, entries.len());
    for e in entries {
        crate::wire::put_row(out, &e.payload);
        put_f64(out, e.weight);
        put_f64(out, e.rho);
    }
}

fn read_row_entries(r: &mut WireReader<'_>) -> Option<Vec<SampleEntry<Row>>> {
    let n = r.usize()?;
    let mut entries = Vec::with_capacity(r.capacity_for(n));
    for _ in 0..n {
        entries.push(SampleEntry {
            payload: crate::wire::read_row(r)?,
            weight: r.f64()?,
            rho: r.f64()?,
        });
    }
    Some(entries)
}

impl WireCodec for MP3Coordinator {
    fn encode(&self, out: &mut Vec<u8>) {
        put_usize(out, self.dim);
        put_usize(out, self.inner.sample_size());
        put_f64(out, self.inner.tau());
        let (q_cur, q_next) = self.inner.queues();
        put_row_entries(out, q_cur);
        put_row_entries(out, q_next);
    }

    fn decode(r: &mut WireReader<'_>) -> Option<Self> {
        let dim = r.usize()?;
        let s = r.usize()?;
        if s == 0 {
            return None;
        }
        let tau = r.f64()?;
        let q_cur = read_row_entries(r)?;
        let q_next = read_row_entries(r)?;
        Some(MP3Coordinator {
            inner: RoundCoordinator::from_parts(s, tau, q_cur, q_next),
            dim,
        })
    }
}

impl WireCodec for MP3Filter {
    fn encode(&self, out: &mut Vec<u8>) {
        put_f64(out, self.state.tau());
    }

    fn decode(r: &mut WireReader<'_>) -> Option<Self> {
        let mut state = PriorityAggState::new();
        state.set_tau(r.f64()?);
        Some(MP3Filter { state })
    }

    fn encoded_len(&self) -> u64 {
        8
    }
}

/// Builds an MT-P3 deployment over an arbitrary aggregation topology;
/// estimates match the star at any fanout, and with no interior nodes
/// this is *identical* to [`deploy`].
pub fn deploy_topology(
    cfg: &MatrixConfig,
    topology: Topology,
) -> Runner<MP3Site, MP3Coordinator, MP3Aggregator> {
    let sites = (0..cfg.sites)
        .map(|i| MP3Site {
            inner: PrioritySite::new(cfg.site_seed(i)),
        })
        .collect();
    Runner::with_topology(
        sites,
        MP3Coordinator {
            inner: RoundCoordinator::new(cfg.sample_size()),
            dim: cfg.dim,
        },
        topology,
        make_aggregator(cfg, topology),
    )
}

/// Aggregator factory (for the engine's topology drivers).
pub fn make_aggregator(
    _cfg: &MatrixConfig,
    _topology: Topology,
) -> impl FnMut(AggNode) -> MP3Aggregator {
    // Round-state relays need no deployment data.
    |_| FilteredRelay::new(MP3Filter::default())
}

/// Builds an MT-P3 deployment (sample size from the config).
pub fn deploy(cfg: &MatrixConfig) -> Runner<MP3Site, MP3Coordinator> {
    let sites = (0..cfg.sites)
        .map(|i| MP3Site {
            inner: PrioritySite::new(cfg.site_seed(i)),
        })
        .collect();
    Runner::new(
        sites,
        MP3Coordinator {
            inner: RoundCoordinator::new(cfg.sample_size()),
            dim: cfg.dim,
        },
    )
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
        assert!(runner.coordinator().sample_len() <= 3 * cfg.sample_size());
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
        let sample = coord.inner.weighted_sample();
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
