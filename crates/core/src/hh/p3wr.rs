//! Protocol P3wr — priority sampling *with* replacement (paper §4.3.1).
//!
//! `s` independent weight-proportional samplers: for each arrival a site
//! simulates `s` priority draws (in `O(1 + s·p)` expected time, see
//! [`crate::sampling::WrSite`]) and forwards each successful draw with
//! its sampler index. The coordinator keeps, per sampler, the top two
//! priorities and the top record; `E[ρ⁽²⁾] = W`, so
//! `Ŵ = (1/s)·Σ ρ⁽²⁾` estimates the total weight and each sampler's top
//! record is one with-replacement sample, assigned weight `Ŵ/s`.
//!
//! The paper includes this variant to show it is dominated by the
//! without-replacement protocol ([`super::p3`]) in both communication
//! (`O((m + s log s) log(βN))`) and accuracy — our Table 1 and ablation
//! benchmarks confirm exactly that.

use super::{validate_weight, HhEstimator, Item, WeightedItem};
use crate::config::HhConfig;
use crate::sampling::WrSlot;
use crate::sampling::{WrAggState, WrCoordinator, WrHit, WrSite};
use cma_stream::{
    put_f64, put_u64, put_usize, AggNode, ChurnBudget, ChurnCoordinator, ChurnSite, Coordinator,
    FilteredRelay, MessageCost, RelayFilter, Runner, Site, SiteId, Topology, WireCodec, WireReader,
};
use std::collections::HashMap;

/// Site → coordinator message: one sampler hit.
#[derive(Debug, Clone)]
pub struct P3wrMsg {
    /// Which of the `s` samplers selected the record.
    pub hit: WrHit,
    /// Item label.
    pub item: Item,
    /// Weight.
    pub weight: f64,
}

impl MessageCost for P3wrMsg {
    fn cost(&self) -> u64 {
        1
    }

    /// Exact size of the [`crate::wire`] encoding: hit, item, weight.
    fn wire_bytes(&self) -> u64 {
        32
    }

    /// A lost sample loses its record's weight.
    fn mass(&self) -> f64 {
        self.weight
    }
}

/// P3wr site.
#[derive(Debug, Clone)]
pub struct P3wrSite {
    inner: WrSite,
    scratch: Vec<WrHit>,
}

impl Site for P3wrSite {
    type Input = WeightedItem;
    type UpMsg = P3wrMsg;
    type Broadcast = f64;

    fn observe(&mut self, (item, weight): WeightedItem, out: &mut Vec<P3wrMsg>) {
        validate_weight(weight);
        self.inner.observe(weight, &mut self.scratch);
        for hit in self.scratch.drain(..) {
            out.push(P3wrMsg { hit, item, weight });
        }
    }

    /// Batched arrivals run the geometric-gap sampler in one tight loop;
    /// RNG order and hit production match per-item execution exactly.
    fn observe_batch(
        &mut self,
        inputs: impl IntoIterator<Item = WeightedItem>,
        out: &mut Vec<P3wrMsg>,
    ) {
        for (item, weight) in inputs {
            validate_weight(weight);
            self.inner.observe(weight, &mut self.scratch);
            if !self.scratch.is_empty() {
                for hit in self.scratch.drain(..) {
                    out.push(P3wrMsg { hit, item, weight });
                }
                return; // pause-on-message
            }
        }
    }

    fn on_broadcast(&mut self, tau: &f64) {
        self.inner.set_tau(*tau);
    }
}

/// P3wr coordinator.
#[derive(Debug)]
pub struct P3wrCoordinator {
    inner: WrCoordinator<Item>,
}

impl P3wrCoordinator {
    /// Per-item estimates: `Ŵ/s` per sampler whose top record is the item.
    fn estimates_map(&self) -> HashMap<Item, f64> {
        let s = self.inner.slots().len() as f64;
        let per_sample = self.inner.estimate_total() / s;
        let mut map = HashMap::new();
        for slot in self.inner.slots() {
            if let Some((item, _)) = &slot.top {
                *map.entry(*item).or_insert(0.0) += per_sample;
            }
        }
        map
    }
}

impl Coordinator for P3wrCoordinator {
    type UpMsg = P3wrMsg;
    type Broadcast = f64;

    fn receive(&mut self, _from: SiteId, msg: P3wrMsg, out: &mut Vec<f64>) {
        if let Some(new_tau) = self.inner.receive(msg.hit, msg.item, msg.weight) {
            out.push(new_tau);
        }
    }
}

impl HhEstimator for P3wrCoordinator {
    fn total_weight(&self) -> f64 {
        self.inner.estimate_total()
    }

    fn estimate(&self, item: Item) -> f64 {
        self.estimates_map().get(&item).copied().unwrap_or(0.0)
    }

    fn tracked_items(&self) -> Vec<Item> {
        self.estimates_map().into_keys().collect()
    }

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

/// Per-sampler top-two dominance filter of a P3wr interior node (see
/// [`WrAggState`]): a hit below the two best priorities this subtree
/// already forwarded for the same sampler cannot change the root's
/// state and is rejected. Exact — root state and estimates match the
/// star's — while strictly thinning upper-level traffic.
#[derive(Debug, Clone)]
pub struct P3wrFilter {
    state: WrAggState,
}

impl RelayFilter for P3wrFilter {
    type UpMsg = P3wrMsg;
    type Broadcast = f64;

    fn admit(&mut self, msg: &P3wrMsg) -> bool {
        self.state.admit(msg.hit.sampler, msg.hit.rho)
    }
}

/// Interior tree node of a P3wr deployment: a dominance-filtering relay.
pub type P3wrAggregator = FilteredRelay<P3wrFilter>;

// Like P3: the threshold `τ` is global and sites withhold nothing.
impl ChurnBudget for P3wrSite {}

impl ChurnSite for P3wrSite {
    fn depart(&mut self, _out: &mut Vec<P3wrMsg>) {}
}

impl ChurnBudget for P3wrCoordinator {}

impl ChurnCoordinator for P3wrCoordinator {
    fn current_broadcast(&self) -> Option<f64> {
        Some(self.inner.tau())
    }
}

impl WireCodec for P3wrCoordinator {
    fn encode(&self, out: &mut Vec<u8>) {
        put_f64(out, self.inner.tau());
        let slots = self.inner.slots();
        put_usize(out, slots.len());
        for slot in slots {
            put_f64(out, slot.rho1);
            put_f64(out, slot.rho2);
            match &slot.top {
                Some((item, w)) => {
                    out.push(1);
                    put_u64(out, *item);
                    put_f64(out, *w);
                }
                None => out.push(0),
            }
        }
    }

    fn decode(r: &mut WireReader<'_>) -> Option<Self> {
        let tau = r.f64()?;
        let n = r.usize()?;
        if n == 0 {
            return None;
        }
        let mut slots = Vec::with_capacity(r.capacity_for(n));
        for _ in 0..n {
            let rho1 = r.f64()?;
            let rho2 = r.f64()?;
            let top = match r.u8()? {
                0 => None,
                1 => Some((r.u64()?, r.f64()?)),
                _ => return None,
            };
            slots.push(WrSlot { rho1, rho2, top });
        }
        Some(P3wrCoordinator {
            inner: WrCoordinator::from_parts(tau, slots),
        })
    }
}

impl WireCodec for P3wrFilter {
    fn encode(&self, out: &mut Vec<u8>) {
        let top2 = self.state.top2();
        put_usize(out, top2.len());
        for &(r1, r2) in top2 {
            put_f64(out, r1);
            put_f64(out, r2);
        }
    }

    fn decode(r: &mut WireReader<'_>) -> Option<Self> {
        let n = r.usize()?;
        let mut top2 = Vec::with_capacity(r.capacity_for(n));
        for _ in 0..n {
            let r1 = r.f64()?;
            top2.push((r1, r.f64()?));
        }
        Some(P3wrFilter {
            state: WrAggState::from_parts(top2),
        })
    }

    fn encoded_len(&self) -> u64 {
        8 + 16 * self.state.top2().len() as u64
    }
}

/// Builds a P3wr deployment over an arbitrary aggregation topology;
/// with no interior nodes this is *identical* to [`deploy`].
pub fn deploy_topology(
    cfg: &HhConfig,
    topology: Topology,
) -> Runner<P3wrSite, P3wrCoordinator, P3wrAggregator> {
    let s = cfg.sample_size();
    let sites = (0..cfg.sites)
        .map(|i| P3wrSite {
            inner: WrSite::new(s, cfg.site_seed(i)),
            scratch: Vec::new(),
        })
        .collect();
    Runner::with_topology(
        sites,
        P3wrCoordinator {
            inner: WrCoordinator::new(s),
        },
        topology,
        make_aggregator(cfg, topology),
    )
}

/// Aggregator factory (for the engine's topology drivers).
pub fn make_aggregator(
    cfg: &HhConfig,
    _topology: Topology,
) -> impl FnMut(AggNode) -> P3wrAggregator {
    let s = cfg.sample_size();
    move |_| {
        FilteredRelay::new(P3wrFilter {
            state: WrAggState::new(s),
        })
    }
}

/// Builds a P3wr deployment (sample size from the config).
pub fn deploy(cfg: &HhConfig) -> Runner<P3wrSite, P3wrCoordinator> {
    let s = cfg.sample_size();
    let sites = (0..cfg.sites)
        .map(|i| P3wrSite {
            inner: WrSite::new(s, cfg.site_seed(i)),
            scratch: Vec::new(),
        })
        .collect();
    Runner::new(
        sites,
        P3wrCoordinator {
            inner: WrCoordinator::new(s),
        },
    )
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
    ) -> (Runner<P3wrSite, P3wrCoordinator>, ExactWeightedCounter) {
        let mut runner = deploy(cfg);
        let mut exact = ExactWeightedCounter::new();
        let mut rng = StdRng::seed_from_u64(seed);
        for i in 0..n {
            let item: Item = if rng.gen_bool(0.3) {
                1
            } else {
                rng.gen_range(2..200)
            };
            let w: f64 = rng.gen_range(1.0..6.0);
            runner.feed((i % cfg.sites as u64) as usize, (item, w));
            exact.update(item, w);
        }
        (runner, exact)
    }

    #[test]
    fn total_weight_estimate_reasonable() {
        let cfg = HhConfig::new(3, 0.1).with_seed(21).with_sample_size(400);
        let (runner, exact) = run_skewed(&cfg, 20_000, 1);
        let w = exact.total_weight();
        let w_hat = runner.coordinator().total_weight();
        assert!((w_hat - w).abs() / w < 0.2, "Ŵ {w_hat} vs W {w}");
    }

    #[test]
    fn heavy_item_found() {
        let cfg = HhConfig::new(3, 0.1).with_seed(22).with_sample_size(400);
        let (runner, _) = run_skewed(&cfg, 20_000, 2);
        let hh = runner.coordinator().heavy_hitters(0.2, cfg.epsilon);
        assert!(!hh.is_empty());
        assert_eq!(hh[0].0, 1);
    }

    #[test]
    fn heavy_item_estimate_within_epsilon() {
        let cfg = HhConfig::new(3, 0.15).with_seed(23).with_sample_size(600);
        let (runner, exact) = run_skewed(&cfg, 20_000, 3);
        let w = exact.total_weight();
        let est = runner.coordinator().estimate(1);
        let truth = exact.frequency(1);
        assert!(
            (est - truth).abs() <= cfg.epsilon * w,
            "est {est} vs truth {truth}, εW {}",
            cfg.epsilon * w
        );
    }

    #[test]
    fn uses_more_messages_than_wor() {
        // The paper's observation: with-replacement costs strictly more.
        let cfg = HhConfig::new(3, 0.1).with_seed(24).with_sample_size(300);
        let n = 20_000;
        let (r_wr, _) = run_skewed(&cfg, n, 4);

        let mut r_wor = super::super::p3::deploy(&cfg);
        let mut rng = StdRng::seed_from_u64(4);
        for i in 0..n {
            let item: Item = if rng.gen_bool(0.3) {
                1
            } else {
                rng.gen_range(2..200)
            };
            let w: f64 = rng.gen_range(1.0..6.0);
            r_wor.feed((i % 3) as usize, (item, w));
        }
        assert!(
            r_wr.stats().total() > r_wor.stats().total(),
            "wr {} should exceed wor {}",
            r_wr.stats().total(),
            r_wor.stats().total()
        );
    }

    #[test]
    fn rounds_advance() {
        let cfg = HhConfig::new(2, 0.2).with_seed(25).with_sample_size(30);
        let (runner, _) = run_skewed(&cfg, 10_000, 5);
        assert!(runner.coordinator().inner.tau() > 1.0);
    }
}
