//! Protocol P3 — priority sampling without replacement (paper §4.3).
//!
//! Sites assign each arrival a priority `ρ = w/r`, `r ~ U(0, 1]`, and
//! forward it when `ρ ≥ τ` (Algorithm 4.5). The coordinator keeps two
//! priority queues — `Qj` for `ρ ∈ [τ, 2τ]`, `Qj+1` for `ρ > 2τ` — and
//! ends the round (doubling `τ`, broadcasting it) when `|Qj+1| = s`
//! (Algorithm 4.6). At any instant `S = Qj ∪ Qj+1` is a priority sample
//! whose Szegedy estimator gives, with high probability (Theorem 2),
//! `|fe(S) − fe(A)| ≤ εW` for `s = Θ((1/ε²) log(1/ε))`, at
//! `O((m+s) log(βN/s))` messages.
//!
//! The round/threshold/estimator mechanics are shared with the matrix
//! variant in [`crate::sampling`].

use super::{validate_weight, HhEstimator, Item, WeightedItem};
use crate::config::HhConfig;
use crate::sampling::{PriorityAggState, PrioritySite, RoundCoordinator, SampleEntry};
use cma_stream::{
    put_f64, put_u64, put_usize, AggNode, ChurnBudget, ChurnCoordinator, ChurnSite, Coordinator,
    FilteredRelay, MessageCost, RelayFilter, Runner, Site, SiteId, Topology, WireCodec, WireReader,
};
use std::collections::HashMap;

/// Site → coordinator message: one sampled record `(e, w, ρ)`.
#[derive(Debug, Clone)]
pub struct P3Msg {
    /// Item label.
    pub item: Item,
    /// Weight.
    pub weight: f64,
    /// Priority drawn at the site.
    pub rho: f64,
}

impl MessageCost for P3Msg {
    fn cost(&self) -> u64 {
        1
    }

    /// Exact size of the [`crate::wire`] encoding: item, weight, ρ.
    fn wire_bytes(&self) -> u64 {
        24
    }

    /// A lost sample loses its record's weight.
    fn mass(&self) -> f64 {
        self.weight
    }
}

/// P3 site: the generic priority site over weighted items.
#[derive(Debug, Clone)]
pub struct P3Site {
    inner: PrioritySite,
}

impl Site for P3Site {
    type Input = WeightedItem;
    type UpMsg = P3Msg;
    type Broadcast = f64;

    fn observe(&mut self, (item, weight): WeightedItem, out: &mut Vec<P3Msg>) {
        validate_weight(weight);
        if let Some(rho) = self.inner.observe(weight) {
            out.push(P3Msg { item, weight, rho });
        }
    }

    /// Batched arrivals draw priorities in one tight loop. The RNG is
    /// consumed in exactly the per-item order and `τ` only changes after
    /// a pause, so forwarded records are identical to per-item execution.
    fn observe_batch(
        &mut self,
        inputs: impl IntoIterator<Item = WeightedItem>,
        out: &mut Vec<P3Msg>,
    ) {
        for (item, weight) in inputs {
            validate_weight(weight);
            if let Some(rho) = self.inner.observe(weight) {
                out.push(P3Msg { item, weight, rho });
                return; // pause-on-message
            }
        }
    }

    fn on_broadcast(&mut self, tau: &f64) {
        self.inner.set_tau(*tau);
    }
}

/// P3 coordinator: round-structured sample over item labels.
#[derive(Debug)]
pub struct P3Coordinator {
    inner: RoundCoordinator<Item>,
}

impl P3Coordinator {
    /// Builds the per-item estimate table in one pass over the sample.
    fn estimates_map(&self) -> HashMap<Item, f64> {
        let mut map = HashMap::new();
        for (&item, w_bar) in self.inner.weighted_sample() {
            *map.entry(item).or_insert(0.0) += w_bar;
        }
        map
    }

    /// Number of records currently retained.
    pub fn sample_len(&self) -> usize {
        self.inner.len()
    }
}

impl Coordinator for P3Coordinator {
    type UpMsg = P3Msg;
    type Broadcast = f64;

    fn receive(&mut self, _from: SiteId, msg: P3Msg, out: &mut Vec<f64>) {
        let entry = SampleEntry {
            payload: msg.item,
            weight: msg.weight,
            rho: msg.rho,
        };
        if let Some(new_tau) = self.inner.receive(entry) {
            out.push(new_tau);
        }
    }
}

impl HhEstimator for P3Coordinator {
    fn total_weight(&self) -> f64 {
        self.inner.estimate_total()
    }

    fn estimate(&self, item: Item) -> f64 {
        self.inner
            .weighted_sample()
            .iter()
            .filter(|(&e, _)| e == item)
            .map(|(_, w)| w)
            .sum()
    }

    fn tracked_items(&self) -> Vec<Item> {
        self.estimates_map().into_keys().collect()
    }

    // Override: the default would call `estimate` per tracked item,
    // rescanning the (possibly large) sample each time; one pass builds
    // every estimate at once.
    fn heavy_hitters(&self, phi: f64, epsilon: f64) -> Vec<(Item, f64)> {
        let w_hat = self.total_weight();
        if w_hat <= 0.0 {
            return Vec::new();
        }
        let threshold = (phi - epsilon / 2.0) * w_hat;
        let mut out: Vec<(Item, f64)> = self
            .estimates_map()
            .into_iter()
            .filter(|&(_, w)| w >= threshold)
            .collect();
        out.sort_by(|a, b| {
            b.1.partial_cmp(&a.1)
                .expect("NaN estimate")
                .then(a.0.cmp(&b.0))
        });
        out
    }
}

/// Round-state filter of a P3 interior node: tracks the threshold `τ`
/// from passing broadcasts and rejects records that no longer clear it
/// (only possible under asynchronous lag; the rule matches the
/// coordinator's own stale-record discard). Under the synchronous
/// runner it admits everything — tree execution is record-for-record
/// identical to the star.
#[derive(Debug, Clone, Default)]
pub struct P3Filter {
    state: PriorityAggState,
}

impl RelayFilter for P3Filter {
    type UpMsg = P3Msg;
    type Broadcast = f64;

    fn admit(&mut self, msg: &P3Msg) -> bool {
        self.state.admit(msg.rho)
    }

    fn on_broadcast(&mut self, tau: &f64) {
        self.state.set_tau(*tau);
    }
}

/// Interior tree node of a P3 deployment: a round-state-aware relay.
pub type P3Aggregator = FilteredRelay<P3Filter>;

// The sampling threshold `τ` is global — no per-node budget to
// re-split — and the site withholds nothing (every clearing record is
// forwarded on arrival), so departure has nothing to flush.
impl ChurnBudget for P3Site {}

impl ChurnSite for P3Site {
    fn depart(&mut self, _out: &mut Vec<P3Msg>) {}
}

impl ChurnBudget for P3Coordinator {}

impl ChurnCoordinator for P3Coordinator {
    /// A joiner starts from the live round threshold `τ`.
    fn current_broadcast(&self) -> Option<f64> {
        Some(self.inner.tau())
    }
}

fn put_entries(out: &mut Vec<u8>, entries: &[SampleEntry<Item>]) {
    put_usize(out, entries.len());
    for e in entries {
        put_u64(out, e.payload);
        put_f64(out, e.weight);
        put_f64(out, e.rho);
    }
}

fn read_entries(r: &mut WireReader<'_>) -> Option<Vec<SampleEntry<Item>>> {
    let n = r.usize()?;
    let mut entries = Vec::with_capacity(r.capacity_for(n));
    for _ in 0..n {
        entries.push(SampleEntry {
            payload: r.u64()?,
            weight: r.f64()?,
            rho: r.f64()?,
        });
    }
    Some(entries)
}

impl WireCodec for P3Coordinator {
    fn encode(&self, out: &mut Vec<u8>) {
        put_usize(out, self.inner.sample_size());
        put_f64(out, self.inner.tau());
        let (q_cur, q_next) = self.inner.queues();
        put_entries(out, q_cur);
        put_entries(out, q_next);
    }

    fn decode(r: &mut WireReader<'_>) -> Option<Self> {
        let s = r.usize()?;
        if s == 0 {
            return None;
        }
        let tau = r.f64()?;
        let q_cur = read_entries(r)?;
        let q_next = read_entries(r)?;
        Some(P3Coordinator {
            inner: RoundCoordinator::from_parts(s, tau, q_cur, q_next),
        })
    }
}

impl WireCodec for P3Filter {
    fn encode(&self, out: &mut Vec<u8>) {
        put_f64(out, self.state.tau());
    }

    fn decode(r: &mut WireReader<'_>) -> Option<Self> {
        let mut state = PriorityAggState::new();
        state.set_tau(r.f64()?);
        Some(P3Filter { state })
    }

    fn encoded_len(&self) -> u64 {
        8
    }
}

/// Builds a P3 deployment (sample size from the config).
pub fn deploy(cfg: &HhConfig) -> Runner<P3Site, P3Coordinator> {
    let sites = (0..cfg.sites)
        .map(|i| P3Site {
            inner: PrioritySite::new(cfg.site_seed(i)),
        })
        .collect();
    Runner::new(
        sites,
        P3Coordinator {
            inner: RoundCoordinator::new(cfg.sample_size()),
        },
    )
}

/// Builds a P3 deployment over an arbitrary aggregation topology. The
/// interior nodes are exact relays with round state (see
/// [`P3Aggregator`]), so estimates match the star at any fanout; with no
/// interior nodes this is *identical* to [`deploy`].
pub fn deploy_topology(
    cfg: &HhConfig,
    topology: Topology,
) -> Runner<P3Site, P3Coordinator, P3Aggregator> {
    let sites = (0..cfg.sites)
        .map(|i| P3Site {
            inner: PrioritySite::new(cfg.site_seed(i)),
        })
        .collect();
    Runner::with_topology(
        sites,
        P3Coordinator {
            inner: RoundCoordinator::new(cfg.sample_size()),
        },
        topology,
        make_aggregator(cfg, topology),
    )
}

/// Aggregator factory (for the engine's topology drivers).
pub fn make_aggregator(
    _cfg: &HhConfig,
    _topology: Topology,
) -> impl FnMut(AggNode) -> P3Aggregator {
    // Round-state relays need no deployment data.
    |_| FilteredRelay::new(P3Filter::default())
}

#[cfg(test)]
mod tests {
    use super::*;
    use cma_sketch::ExactWeightedCounter;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn run_skewed(
        cfg: &HhConfig,
        n: u64,
        seed: u64,
    ) -> (Runner<P3Site, P3Coordinator>, ExactWeightedCounter) {
        let mut runner = deploy(cfg);
        let mut exact = ExactWeightedCounter::new();
        let mut rng = StdRng::seed_from_u64(seed);
        for i in 0..n {
            let item: Item = if rng.gen_bool(0.25) {
                1
            } else {
                rng.gen_range(2..400)
            };
            let w: f64 = rng.gen_range(1.0..8.0);
            runner.feed((i % cfg.sites as u64) as usize, (item, w));
            exact.update(item, w);
        }
        (runner, exact)
    }

    #[test]
    fn heavy_item_estimated_within_epsilon_w() {
        let cfg = HhConfig::new(4, 0.1).with_seed(11);
        let (runner, exact) = run_skewed(&cfg, 30_000, 1);
        let w = exact.total_weight();
        let est = runner.coordinator().estimate(1);
        let truth = exact.frequency(1);
        assert!(
            (est - truth).abs() <= cfg.epsilon * w,
            "item 1: est {est} vs {truth}, εW = {}",
            cfg.epsilon * w
        );
    }

    #[test]
    fn total_weight_estimate_close() {
        let cfg = HhConfig::new(4, 0.1).with_seed(12);
        let (runner, exact) = run_skewed(&cfg, 30_000, 2);
        let w = exact.total_weight();
        let w_hat = runner.coordinator().total_weight();
        assert!((w_hat - w).abs() / w < 0.1, "Ŵ {w_hat} vs W {w}");
    }

    #[test]
    fn communication_sublinear_and_sample_bounded() {
        let cfg = HhConfig::new(4, 0.1).with_seed(13);
        let n = 50_000;
        let (runner, _) = run_skewed(&cfg, n, 3);
        // |Qj| and |Qj+1| are each ~s in expectation; 3s bounds the sum
        // with large margin at this fixed seed.
        assert!(runner.coordinator().sample_len() <= 3 * cfg.sample_size());
        let sent = runner.stats().total();
        assert!(sent < n / 2, "P3 sent {sent} of {n}");
    }

    #[test]
    fn heavy_hitter_query_finds_planted_item() {
        let cfg = HhConfig::new(4, 0.05).with_seed(14);
        let (runner, _) = run_skewed(&cfg, 40_000, 4);
        let hh = runner.coordinator().heavy_hitters(0.2, cfg.epsilon);
        assert!(!hh.is_empty());
        assert_eq!(hh[0].0, 1);
    }

    #[test]
    fn early_stream_is_exact() {
        // Before the first round ends, everything (w ≥ 1 ⇒ ρ ≥ 1 = τ) is
        // forwarded, so estimates are exact.
        let cfg = HhConfig::new(2, 0.1).with_seed(15).with_sample_size(1000);
        let mut runner = deploy(&cfg);
        for i in 0..50u64 {
            runner.feed((i % 2) as usize, (i % 5, 2.0));
        }
        let coord = runner.coordinator();
        assert_eq!(coord.estimate(0), 20.0);
        assert_eq!(coord.total_weight(), 100.0);
    }

    #[test]
    fn rounds_advance_tau() {
        let cfg = HhConfig::new(2, 0.3).with_seed(16).with_sample_size(20);
        let mut runner = deploy(&cfg);
        let mut rng = StdRng::seed_from_u64(5);
        for i in 0..5_000u64 {
            runner.feed(
                (i % 2) as usize,
                (rng.gen_range(0..50), rng.gen_range(1.0..4.0)),
            );
        }
        assert!(runner.coordinator().inner.tau() > 1.0, "τ never advanced");
        assert!(runner.stats().broadcast_events > 0);
    }
}
