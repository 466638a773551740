//! Priority sampling with replacement (§4.3.1): HH-P3wr and MT-P3wr.
//!
//! `s` independent weight-proportional samplers. Each site simulates all
//! `s` coin flips per arrival in `O(1 + s·p)` expected time via
//! geometric gaps and forwards each success with its sampler index; the
//! coordinator keeps, per sampler, the top two priorities and the top
//! record. `E[ρ⁽²⁾] = W`, so `Ŵ = (1/s)·Σ ρ⁽²⁾` estimates the total
//! weight and each sampler's top record is one with-replacement sample
//! of estimator weight `Ŵ/s` — for rows, the classical
//! Drineas–Kannan–Mahoney column-sampling estimator realised in a
//! distributed stream.
//!
//! The paper includes this scheme to show it is dominated by the
//! without-replacement one ([`super::wor`]) in both communication
//! (`O((m + s log s) log(βN))`) and accuracy; Table 1 reproduces that.

use super::{SampleKind, SamplingConfig};
use crate::wire::{read_mass, read_w_hat};
use cma_stream::{
    put_f64, put_usize, AggNode, ChurnBudget, ChurnCoordinator, ChurnSite, Coordinator,
    FilteredRelay, MessageCost, RelayFilter, Runner, Site, SiteId, Topology, WireCodec, WireReader,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::marker::PhantomData;

/// One sampler hit produced by [`WrSite::draw`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WrHit {
    /// Index of the sampler that selected this arrival.
    pub sampler: usize,
    /// The priority it drew.
    pub rho: f64,
}

/// Site → coordinator message: one sampler hit with its record. Its
/// codec is in [`crate::wire`].
#[derive(Debug, Clone)]
pub struct WrMsg<K: SampleKind> {
    /// Which sampler fired, and with what priority.
    pub hit: WrHit,
    /// Item label or row.
    pub payload: K::Payload,
    /// The record's weight `w` (a row's `‖a‖²`).
    pub weight: f64,
}

impl<K: SampleKind> MessageCost for WrMsg<K> {
    fn cost(&self) -> u64 {
        1
    }

    fn wire_bytes(&self) -> u64 {
        self.encoded_len()
    }

    /// A lost sample loses its record's weight.
    fn mass(&self) -> f64 {
        self.weight
    }
}

/// Site half: simulates the `s` samplers' draws per arrival.
#[derive(Debug, Clone)]
pub struct WrSite<K> {
    s: usize,
    tau: f64,
    rng: StdRng,
    kind: PhantomData<K>,
}

impl<K> WrSite<K> {
    /// Creates a site for `s` samplers with initial threshold 1.
    ///
    /// # Panics
    /// Panics if `s == 0`.
    pub fn new(s: usize, seed: u64) -> Self {
        assert!(s >= 1, "WrSite: need at least one sampler");
        WrSite {
            s,
            tau: 1.0,
            rng: StdRng::seed_from_u64(seed),
            kind: PhantomData,
        }
    }

    /// Simulates the `s` independent priority draws for one arrival,
    /// handing each hit to `hit` in sampler order.
    ///
    /// Each sampler independently forwards with `p = min(1, w/τ)`; the
    /// set of successes is generated directly with geometric gaps in
    /// `O(1 + s·p)` expected time, and each success draws its priority
    /// from the correct conditional distribution `r ~ U(0, p]`.
    pub fn draw(&mut self, weight: f64, mut hit: impl FnMut(WrHit)) {
        debug_assert!(weight > 0.0 && weight.is_finite());
        let p = (weight / self.tau).min(1.0);
        if p >= 1.0 {
            // Heavy arrival: every sampler forwards.
            for t in 0..self.s {
                let r = 1.0 - self.rng.gen::<f64>();
                hit(WrHit {
                    sampler: t,
                    rho: weight / r,
                });
            }
            return;
        }
        let ln_q = (1.0 - p).ln(); // < 0
        let mut idx: f64 = 0.0;
        loop {
            let u: f64 = 1.0 - self.rng.gen::<f64>();
            // Failures before the next success.
            let gap = (u.ln() / ln_q).floor();
            idx += gap;
            if idx >= self.s as f64 {
                break;
            }
            let r = p * (1.0 - self.rng.gen::<f64>()); // U(0, p]
            hit(WrHit {
                sampler: idx as usize,
                rho: weight / r,
            });
            idx += 1.0;
        }
    }
}

impl<K: SampleKind> Site for WrSite<K> {
    type Input = K::Input;
    type UpMsg = WrMsg<K>;
    type Broadcast = f64;

    fn observe(&mut self, input: K::Input, out: &mut Vec<WrMsg<K>>) {
        if let Some((payload, weight)) = K::weigh(input) {
            self.draw(weight, |hit| {
                out.push(WrMsg {
                    hit,
                    payload: payload.clone(),
                    weight,
                })
            });
        }
    }

    fn on_broadcast(&mut self, tau: &f64) {
        self.tau = *tau;
    }
}

/// Per-sampler state at the with-replacement coordinator.
#[derive(Debug, Clone)]
pub struct WrSlot<T> {
    /// Highest priority seen.
    pub rho1: f64,
    /// Second-highest priority (the per-sampler total-weight estimator:
    /// `E[ρ⁽²⁾] = W`).
    pub rho2: f64,
    /// Payload and weight of the top-priority record.
    pub top: Option<(T, f64)>,
}

/// Coordinator half: each sampler's top two priorities and top record.
#[derive(Debug, Clone)]
pub struct WrCoordinator<K: SampleKind> {
    tau: f64,
    slots: Vec<WrSlot<K::Payload>>,
    /// Number of slots with `ρ⁽²⁾ ≤ 2τ` (round ends at zero).
    pending: usize,
    header: K::Header,
}

impl<K: SampleKind> WrCoordinator<K> {
    /// Creates the coordinator for `s ≥ 1` samplers.
    ///
    /// # Panics
    /// Panics if `s == 0`.
    pub fn new(s: usize, header: K::Header) -> Self {
        assert!(s >= 1, "WrCoordinator: need at least one sampler");
        let empty = WrSlot {
            rho1: 0.0,
            rho2: 0.0,
            top: None,
        };
        WrCoordinator {
            tau: 1.0,
            slots: vec![empty; s],
            pending: s,
            header,
        }
    }

    /// Current threshold `τ`.
    pub fn tau(&self) -> f64 {
        self.tau
    }

    /// The per-sampler slots (read-only, for estimate construction).
    pub fn slots(&self) -> &[WrSlot<K::Payload>] {
        &self.slots
    }

    /// The deployment header (MT's dimension `d`).
    pub fn header(&self) -> K::Header {
        self.header
    }

    /// Folds in one sampler hit; returns `Some(new τ)` when all samplers
    /// have `ρ⁽²⁾ > 2τ` and the round ends.
    pub fn offer(&mut self, hit: WrHit, payload: K::Payload, weight: f64) -> Option<f64> {
        let slot = &mut self.slots[hit.sampler];
        let was_pending = slot.rho2 <= 2.0 * self.tau;
        if hit.rho > slot.rho1 {
            slot.rho2 = slot.rho1;
            slot.rho1 = hit.rho;
            slot.top = Some((payload, weight));
        } else if hit.rho > slot.rho2 {
            slot.rho2 = hit.rho;
        }
        if was_pending && slot.rho2 > 2.0 * self.tau {
            self.pending -= 1;
        }
        if self.pending == 0 {
            self.tau *= 2.0;
            self.pending = pending(&self.slots, self.tau);
            Some(self.tau)
        } else {
            None
        }
    }

    /// The estimator `Ŵ = (1/s)·Σ ρ⁽²⁾` of the total weight.
    pub fn estimate_total(&self) -> f64 {
        let s = self.slots.len() as f64;
        self.slots.iter().map(|sl| sl.rho2).sum::<f64>() / s
    }
}

/// Slots whose round is still open: `ρ⁽²⁾ ≤ 2τ`.
fn pending<T>(slots: &[WrSlot<T>], tau: f64) -> usize {
    slots.iter().filter(|sl| sl.rho2 <= 2.0 * tau).count()
}

impl<K: SampleKind> Coordinator for WrCoordinator<K> {
    type UpMsg = WrMsg<K>;
    type Broadcast = f64;

    fn receive(&mut self, _from: SiteId, msg: WrMsg<K>, out: &mut Vec<f64>) {
        if let Some(new_tau) = self.offer(msg.hit, msg.payload, msg.weight) {
            out.push(new_tau);
        }
    }
}

/// Relay filter of a with-replacement interior node: per-sampler
/// top-two dominance.
///
/// The root's per-sampler state is the top-two priorities of the union
/// of all hits, and the top-two of a union is the top-two of the
/// subtree top-twos. An interior node that has already forwarded two
/// hits with priorities `ρ₁ ≥ ρ₂` for sampler `t` can therefore drop
/// any later sampler-`t` hit with `ρ ≤ ρ₂`: at the root it would change
/// neither `ρ⁽¹⁾` nor `ρ⁽²⁾` nor the round/pending bookkeeping (which
/// only reacts to `ρ⁽²⁾` transitions). The filter is *exact* — root
/// state and estimates are identical to the star's — while strictly
/// reducing upper-level traffic on long streams.
#[derive(Debug, Clone)]
pub struct WrFilter<K> {
    /// Per-sampler `(ρ₁, ρ₂)` of everything forwarded so far.
    top2: Vec<(f64, f64)>,
    kind: PhantomData<K>,
}

impl<K> WrFilter<K> {
    /// Creates the filter for `s` samplers.
    pub fn new(s: usize) -> Self {
        WrFilter {
            top2: vec![(0.0, 0.0); s],
            kind: PhantomData,
        }
    }

    /// Decides whether a sampler hit must be forwarded, updating the
    /// subtree top-two if so.
    pub fn admit_hit(&mut self, sampler: usize, rho: f64) -> bool {
        let (r1, r2) = &mut self.top2[sampler];
        if rho <= *r2 {
            return false; // dominated: two better hits already forwarded
        }
        if rho > *r1 {
            *r2 = *r1;
            *r1 = rho;
        } else {
            *r2 = rho;
        }
        true
    }
}

impl<K: SampleKind> RelayFilter for WrFilter<K> {
    type UpMsg = WrMsg<K>;
    type Broadcast = f64;

    fn admit(&mut self, msg: &WrMsg<K>) -> bool {
        self.admit_hit(msg.hit.sampler, msg.hit.rho)
    }
}

/// Interior tree node of a with-replacement deployment: a
/// dominance-filtering relay.
pub type WrAggregator<K> = FilteredRelay<WrFilter<K>>;

/// A with-replacement deployment over an aggregation topology.
pub type WrTree<K> = Runner<WrSite<K>, WrCoordinator<K>, WrAggregator<K>>;

impl<K: SampleKind> ChurnBudget for WrSite<K> {}

impl<K: SampleKind> ChurnSite for WrSite<K> {
    fn depart(&mut self, _out: &mut Vec<WrMsg<K>>) {}
}

impl<K: SampleKind> ChurnBudget for WrCoordinator<K> {}

impl<K: SampleKind> ChurnCoordinator for WrCoordinator<K> {
    /// A joiner starts from the live round threshold `τ`.
    fn current_broadcast(&self) -> Option<f64> {
        Some(self.tau)
    }
}

/// Snapshot codec: `header, τ, s, (ρ₁, ρ₂, top?)*` with
/// `top = 1, payload, weight` or `0`. The pending count is recomputed
/// from the invariant it tracks (`ρ⁽²⁾ ≤ 2τ`). Decode refuses `s = 0`, a
/// `τ` below 1 or not finite (it starts at 1 and only doubles), and a
/// negative or non-finite `ρ` or weight.
impl<K: SampleKind> WireCodec for WrCoordinator<K> {
    fn encode(&self, out: &mut Vec<u8>) {
        K::put_header(out, &self.header);
        put_f64(out, self.tau);
        put_usize(out, self.slots.len());
        for slot in &self.slots {
            put_f64(out, slot.rho1);
            put_f64(out, slot.rho2);
            match &slot.top {
                Some((payload, w)) => {
                    out.push(1);
                    K::put_payload(out, payload);
                    put_f64(out, *w);
                }
                None => out.push(0),
            }
        }
    }

    fn decode(r: &mut WireReader<'_>) -> Option<Self> {
        let header = K::read_header(r)?;
        let tau = read_w_hat(r)?;
        let n = r.usize()?;
        if n == 0 {
            return None;
        }
        let mut slots = Vec::with_capacity(r.capacity_for(n));
        for _ in 0..n {
            let rho1 = read_mass(r)?;
            let rho2 = read_mass(r)?;
            let top = match r.u8()? {
                0 => None,
                1 => Some((K::read_payload(r)?, read_mass(r)?)),
                _ => return None,
            };
            slots.push(WrSlot { rho1, rho2, top });
        }
        Some(WrCoordinator {
            tau,
            pending: pending(&slots, tau),
            slots,
            header,
        })
    }
}

/// `s, (ρ₁, ρ₂)*`; decode refuses a negative or non-finite `ρ`.
impl<K: SampleKind> WireCodec for WrFilter<K> {
    fn encode(&self, out: &mut Vec<u8>) {
        put_usize(out, self.top2.len());
        for &(r1, r2) in &self.top2 {
            put_f64(out, r1);
            put_f64(out, r2);
        }
    }

    fn decode(r: &mut WireReader<'_>) -> Option<Self> {
        let n = r.usize()?;
        let mut top2 = Vec::with_capacity(r.capacity_for(n));
        for _ in 0..n {
            let r1 = read_mass(r)?;
            top2.push((r1, read_mass(r)?));
        }
        Some(WrFilter {
            top2,
            kind: PhantomData,
        })
    }

    fn encoded_len(&self) -> u64 {
        8 + 16 * self.top2.len() as u64
    }
}

fn sites<C: SamplingConfig>(cfg: &C) -> Vec<WrSite<C::Kind>> {
    let s = cfg.sample_size();
    (0..cfg.sites())
        .map(|i| WrSite::new(s, cfg.site_seed(i)))
        .collect()
}

/// Builds a star deployment (sample size from the config).
pub fn deploy<C: SamplingConfig>(cfg: &C) -> Runner<WrSite<C::Kind>, WrCoordinator<C::Kind>> {
    Runner::new(
        sites(cfg),
        WrCoordinator::new(cfg.sample_size(), cfg.header()),
    )
}

/// Builds a deployment over an arbitrary aggregation topology (exact
/// dominance-filtering relays, [`WrFilter`]); with no interior nodes
/// this is *identical* to [`deploy`].
pub fn deploy_topology<C: SamplingConfig>(cfg: &C, topology: Topology) -> WrTree<C::Kind> {
    Runner::with_topology(
        sites(cfg),
        WrCoordinator::new(cfg.sample_size(), cfg.header()),
        topology,
        make_aggregator(cfg, topology),
    )
}

/// Aggregator factory (for the engine's topology drivers).
pub fn make_aggregator<C: SamplingConfig>(
    cfg: &C,
    _topology: Topology,
) -> impl FnMut(AggNode) -> WrAggregator<C::Kind> {
    let s = cfg.sample_size();
    move |_| FilteredRelay::new(WrFilter::new(s))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sampling::ItemKind;

    fn hit(sampler: usize, rho: f64) -> WrHit {
        WrHit { sampler, rho }
    }

    #[test]
    fn wr_site_hit_rate_matches_probability() {
        let mut site = WrSite::<ItemKind>::new(100, 7);
        site.on_broadcast(&10.0); // p = min(1, 2/10) = 0.2 per sampler
        let mut hits = Vec::new();
        let trials = 2000;
        for _ in 0..trials {
            site.draw(2.0, |h| hits.push(h));
        }
        let rate = hits.len() as f64 / (trials as f64 * 100.0);
        assert!((rate - 0.2).abs() < 0.01, "hit rate {rate} vs 0.2");
        // All priorities clear the threshold.
        assert!(hits.iter().all(|h| h.rho >= 10.0));
        assert!(hits.iter().all(|h| h.sampler < 100));
    }

    #[test]
    fn wr_site_heavy_item_hits_every_sampler() {
        let mut site = WrSite::<ItemKind>::new(8, 3);
        site.on_broadcast(&5.0);
        let mut hits = Vec::new();
        site.draw(5.0, |h| hits.push(h)); // p = 1
        assert_eq!(hits.len(), 8);
        let samplers: Vec<usize> = hits.iter().map(|h| h.sampler).collect();
        assert_eq!(samplers, (0..8).collect::<Vec<_>>());
    }

    #[test]
    fn wr_coordinator_total_estimate_unbiased() {
        // Feed a known stream through site+coordinator many times; the
        // mean of Ŵ must approach W.
        let w_true = 200.0; // 100 items of weight 2
        let runs = 150;
        let mut sum = 0.0;
        for seed in 0..runs {
            let mut site = WrSite::<ItemKind>::new(30, seed);
            let mut coord = WrCoordinator::<ItemKind>::new(30, ());
            let mut hits = Vec::new();
            for i in 0..100u64 {
                site.draw(2.0, |h| hits.push(h));
                for h in hits.drain(..) {
                    if let Some(tau) = coord.offer(h, i, 2.0) {
                        site.on_broadcast(&tau);
                    }
                }
            }
            sum += coord.estimate_total();
        }
        let mean = sum / runs as f64;
        assert!(
            (mean - w_true).abs() / w_true < 0.1,
            "Ŵ mean {mean} vs W {w_true}"
        );
    }

    #[test]
    fn wr_agg_drops_only_dominated_hits() {
        let mut st = WrFilter::<ItemKind>::new(2);
        assert!(st.admit_hit(0, 5.0));
        assert!(st.admit_hit(0, 3.0)); // second-best so far: must forward
        assert!(!st.admit_hit(0, 2.0)); // below (5, 3): dominated
        assert!(st.admit_hit(0, 4.0)); // new second-best
        assert!(!st.admit_hit(0, 3.5)); // below (5, 4)
        assert!(st.admit_hit(1, 1.0)); // other sampler unaffected
    }

    /// The load-bearing exactness claim: a coordinator fed only the
    /// admitted hits ends in the same state as one fed everything.
    #[test]
    fn wr_agg_filter_is_transparent_to_coordinator() {
        let mut rng = StdRng::seed_from_u64(9);
        let s = 10;
        let mut site = WrSite::<ItemKind>::new(s, 4);
        let mut direct = WrCoordinator::<ItemKind>::new(s, ());
        let mut filtered = WrCoordinator::<ItemKind>::new(s, ());
        let mut agg = WrFilter::<ItemKind>::new(s);
        let mut hits = Vec::new();
        for i in 0..3_000u64 {
            let w: f64 = rng.gen_range(1.0..4.0);
            site.draw(w, |h| hits.push(h));
            for h in hits.drain(..) {
                let bc = direct.offer(h, i, w);
                if agg.admit_hit(h.sampler, h.rho) {
                    let bc2 = filtered.offer(h, i, w);
                    assert_eq!(bc, bc2, "round ends diverged");
                } else {
                    assert!(bc.is_none(), "dropped hit ended a round");
                }
                if let Some(tau) = bc {
                    site.on_broadcast(&tau);
                }
            }
        }
        assert_eq!(direct.estimate_total(), filtered.estimate_total());
        assert_eq!(direct.tau(), filtered.tau());
        for (a, b) in direct.slots().iter().zip(filtered.slots()) {
            assert_eq!(a.rho1, b.rho1);
            assert_eq!(a.rho2, b.rho2);
            assert_eq!(a.top, b.top);
        }
    }

    #[test]
    fn wr_round_advances() {
        let mut coord = WrCoordinator::<ItemKind>::new(2, ());
        // Both samplers need ρ2 > 2τ = 2.
        assert!(coord.offer(hit(0, 5.0), 1, 1.0).is_none());
        assert!(coord.offer(hit(0, 4.0), 2, 1.0).is_none());
        assert!(coord.offer(hit(1, 6.0), 3, 1.0).is_none());
        assert_eq!(coord.offer(hit(1, 3.0), 4, 1.0), Some(2.0));
    }
}
