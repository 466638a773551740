//! Priority sampling without replacement (§4.3): HH-P3 and MT-P3.
//!
//! Sites assign each arrival a priority `ρ = w/r`, `r ~ U(0, 1]`, and
//! forward it when `ρ ≥ τ` (Algorithm 4.5). The coordinator keeps two
//! queues — `Qj` for `ρ ∈ [τ, 2τ]`, `Qj+1` for `ρ > 2τ` — and ends the
//! round, doubling `τ` and broadcasting it, when `|Qj+1| = s`
//! (Algorithm 4.6). At any instant `S = Qj ∪ Qj+1` is a priority sample
//! whose estimator is within `εW` with high probability (Theorem 2; for
//! rows, Theorem 5: `ε‖A‖²_F`) at `s = Θ((1/ε²) log(1/ε))`, for
//! `O((m+s) log(βN/s))` messages.

use super::{SampleKind, SamplingConfig};
use crate::wire::{read_mass, read_w_hat};
use cma_stream::{
    put_f64, put_usize, AggNode, ChurnBudget, ChurnCoordinator, ChurnSite, Coordinator,
    FilteredRelay, MessageCost, RelayFilter, Runner, Site, SiteId, Topology, WireCodec, WireReader,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::marker::PhantomData;

/// One sampled record: the site → coordinator message, and an entry of
/// the coordinator's queues. Its message codec is in [`crate::wire`];
/// the queues' snapshot codec also writes `weight` for kinds whose
/// messages omit it.
#[derive(Debug, Clone)]
pub struct SampleEntry<K: SampleKind> {
    /// Item label or row.
    pub payload: K::Payload,
    /// Original weight `w` (a row's `‖a‖²`).
    pub weight: f64,
    /// Priority `ρ = w/r` drawn at the site.
    pub rho: f64,
}

impl<K: SampleKind> MessageCost for SampleEntry<K> {
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

/// Site half: draws a priority per arrival and forwards the record when
/// it reaches the threshold `τ`.
#[derive(Debug, Clone)]
pub struct PrioritySite<K> {
    tau: f64,
    rng: StdRng,
    kind: PhantomData<K>,
}

impl<K> PrioritySite<K> {
    /// Creates a site with the initial threshold `τ = 1` (every arrival
    /// with `w ≥ 1` is forwarded until the first round ends).
    pub fn new(seed: u64) -> Self {
        PrioritySite {
            tau: 1.0,
            rng: StdRng::seed_from_u64(seed),
            kind: PhantomData,
        }
    }

    /// Draws a priority for an arrival of weight `w`; returns `Some(ρ)`
    /// when the record must be forwarded to the coordinator.
    pub fn draw(&mut self, weight: f64) -> Option<f64> {
        debug_assert!(weight > 0.0 && weight.is_finite());
        let r: f64 = 1.0 - self.rng.gen::<f64>(); // (0, 1]
        let rho = weight / r;
        (rho >= self.tau).then_some(rho)
    }
}

impl<K: SampleKind> Site for PrioritySite<K> {
    type Input = K::Input;
    type UpMsg = SampleEntry<K>;
    type Broadcast = f64;

    fn observe(&mut self, input: K::Input, out: &mut Vec<SampleEntry<K>>) {
        if let Some((payload, weight)) = K::weigh(input) {
            if let Some(rho) = self.draw(weight) {
                out.push(SampleEntry {
                    payload,
                    weight,
                    rho,
                });
            }
        }
    }

    fn on_broadcast(&mut self, tau: &f64) {
        self.tau = *tau;
    }
}

/// Coordinator half: the two-queue round structure of Algorithm 4.6.
#[derive(Debug, Clone)]
pub struct RoundCoordinator<K: SampleKind> {
    s: usize,
    tau: f64,
    /// `Qj`: records with `τ ≤ ρ ≤ 2τ`.
    q_cur: Vec<SampleEntry<K>>,
    /// `Qj+1`: records with `ρ > 2τ`.
    q_next: Vec<SampleEntry<K>>,
    header: K::Header,
}

impl<K: SampleKind> RoundCoordinator<K> {
    /// Creates the coordinator with target queue size `s ≥ 1`.
    ///
    /// # Panics
    /// Panics if `s == 0`.
    pub fn new(s: usize, header: K::Header) -> Self {
        assert!(s >= 1, "RoundCoordinator: sample size must be positive");
        RoundCoordinator {
            s,
            tau: 1.0,
            q_cur: Vec::new(),
            q_next: Vec::new(),
            header,
        }
    }

    /// Current threshold `τ`.
    pub fn tau(&self) -> f64 {
        self.tau
    }

    /// The deployment header (MT's dimension `d`).
    pub fn header(&self) -> K::Header {
        self.header
    }

    /// Folds in one forwarded record; returns `Some(new τ)` when the
    /// round ends and the new threshold must be broadcast.
    ///
    /// Records with `ρ < τ` are discarded. Under synchronous delivery
    /// they cannot occur (sites only forward `ρ ≥ τ` and see every
    /// broadcast before their next arrival); under asynchronous delivery
    /// a site with a stale, smaller threshold forwards records the
    /// current round no longer wants, and admitting them would pollute
    /// the priority sample — each sub-threshold record would be granted
    /// an estimator weight `w̄ = max(w, ρ̂)` it has not earned,
    /// systematically inflating the estimates. (The message is still
    /// charged to communication by the runner: it was sent.)
    pub fn offer(&mut self, entry: SampleEntry<K>) -> Option<f64> {
        if entry.rho < self.tau {
            return None;
        }
        if entry.rho > 2.0 * self.tau {
            self.q_next.push(entry);
        } else {
            self.q_cur.push(entry);
        }
        if self.q_next.len() >= self.s {
            // Round ends: double τ, discard Qj, re-partition Qj+1.
            self.tau *= 2.0;
            let drained = std::mem::take(&mut self.q_next);
            self.q_cur.clear();
            for e in drained {
                if e.rho > 2.0 * self.tau {
                    self.q_next.push(e);
                } else {
                    self.q_cur.push(e);
                }
            }
            Some(self.tau)
        } else {
            None
        }
    }

    /// Number of retained records (`|Qj| + |Qj+1|`).
    pub fn len(&self) -> usize {
        self.q_cur.len() + self.q_next.len()
    }

    /// `true` before any record arrives.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The estimator sample: `(payload, w̄)` pairs.
    ///
    /// When more than `s` records are held, the smallest-priority record
    /// becomes the threshold `ρ̂` (and is excluded) and each survivor gets
    /// `w̄ = max(w, ρ̂)` — the Duffield–Lund–Thorup estimator, which the
    /// paper's Lemma 6 analysis transfers to this distributed variant.
    /// With at most `s` records, the stream prefix is small enough that
    /// everything was forwarded verbatim, so exact weights are used.
    pub fn weighted_sample(&self) -> Vec<(&K::Payload, f64)> {
        let all: Vec<&SampleEntry<K>> = self.q_cur.iter().chain(self.q_next.iter()).collect();
        if all.is_empty() {
            return Vec::new();
        }
        if all.len() <= self.s {
            return all.iter().map(|e| (&e.payload, e.weight)).collect();
        }
        let (min_idx, rho_hat) = all
            .iter()
            .enumerate()
            .map(|(i, e)| (i, e.rho))
            .min_by(|a, b| a.1.partial_cmp(&b.1).expect("NaN priority"))
            .expect("non-empty");
        all.iter()
            .enumerate()
            .filter(|(i, _)| *i != min_idx)
            .map(|(_, e)| (&e.payload, e.weight.max(rho_hat)))
            .collect()
    }

    /// Unbiased estimate of the total stream weight.
    pub fn estimate_total(&self) -> f64 {
        self.weighted_sample().iter().map(|(_, w)| w).sum()
    }
}

impl<K: SampleKind> Coordinator for RoundCoordinator<K> {
    type UpMsg = SampleEntry<K>;
    type Broadcast = f64;

    fn receive(&mut self, _from: SiteId, msg: SampleEntry<K>, out: &mut Vec<f64>) {
        if let Some(new_tau) = self.offer(msg) {
            out.push(new_tau);
        }
    }
}

/// Relay filter of a without-replacement interior node.
///
/// Sampled records are not mergeable the way sketches are — every
/// surviving record must reach the root verbatim — but an interior node
/// *can* carry the round state: it tracks `τ` from broadcasts passing
/// down and rejects any record whose priority no longer clears it
/// (possible only under asynchronous delivery, where a leaf with a
/// stale, smaller `τ` forwards records the current round no longer
/// wants; the rule is [`RoundCoordinator::offer`]'s own discard). Under
/// synchronous delivery it admits everything, so tree execution is
/// record-for-record identical to the star.
#[derive(Debug, Clone)]
pub struct PriorityFilter<K> {
    tau: f64,
    kind: PhantomData<K>,
}

impl<K> Default for PriorityFilter<K> {
    /// The protocols' initial threshold `τ = 1`.
    fn default() -> Self {
        PriorityFilter {
            tau: 1.0,
            kind: PhantomData,
        }
    }
}

impl<K: SampleKind> RelayFilter for PriorityFilter<K> {
    type UpMsg = SampleEntry<K>;
    type Broadcast = f64;

    fn admit(&mut self, msg: &SampleEntry<K>) -> bool {
        msg.rho >= self.tau
    }

    fn on_broadcast(&mut self, tau: &f64) {
        self.tau = *tau;
    }
}

/// Interior tree node of a without-replacement deployment: a
/// round-state-aware relay.
pub type PriorityAggregator<K> = FilteredRelay<PriorityFilter<K>>;

/// A without-replacement deployment over an aggregation topology.
pub type PriorityTree<K> = Runner<PrioritySite<K>, RoundCoordinator<K>, PriorityAggregator<K>>;

impl<K: SampleKind> ChurnBudget for PrioritySite<K> {}

impl<K: SampleKind> ChurnSite for PrioritySite<K> {
    fn depart(&mut self, _out: &mut Vec<SampleEntry<K>>) {}
}

impl<K: SampleKind> ChurnBudget for RoundCoordinator<K> {}

impl<K: SampleKind> ChurnCoordinator for RoundCoordinator<K> {
    /// A joiner starts from the live round threshold `τ`.
    fn current_broadcast(&self) -> Option<f64> {
        Some(self.tau)
    }
}

fn put_entries<K: SampleKind>(out: &mut Vec<u8>, entries: &[SampleEntry<K>]) {
    put_usize(out, entries.len());
    for e in entries {
        K::put_payload(out, &e.payload);
        put_f64(out, e.weight);
        put_f64(out, e.rho);
    }
}

/// Inverse of `put_entries`; `None` on a weight or priority that
/// [`read_mass`] refuses.
fn read_entries<K: SampleKind>(r: &mut WireReader<'_>) -> Option<Vec<SampleEntry<K>>> {
    let n = r.usize()?;
    let mut entries = Vec::with_capacity(r.capacity_for(n));
    for _ in 0..n {
        entries.push(SampleEntry {
            payload: K::read_payload(r)?,
            weight: read_mass(r)?,
            rho: read_mass(r)?,
        });
    }
    Some(entries)
}

/// Snapshot codec: `header, s, τ, Qj, Qj+1`, each entry
/// `payload, weight, ρ`. Decode refuses `s = 0`, a `τ` below 1 or not
/// finite (it starts at 1 and only doubles), and a negative or
/// non-finite weight or `ρ`.
impl<K: SampleKind> WireCodec for RoundCoordinator<K> {
    fn encode(&self, out: &mut Vec<u8>) {
        K::put_header(out, &self.header);
        put_usize(out, self.s);
        put_f64(out, self.tau);
        put_entries(out, &self.q_cur);
        put_entries(out, &self.q_next);
    }

    fn decode(r: &mut WireReader<'_>) -> Option<Self> {
        let header = K::read_header(r)?;
        let s = r.usize()?;
        if s == 0 {
            return None;
        }
        let tau = read_w_hat(r)?;
        let q_cur = read_entries(r)?;
        let q_next = read_entries(r)?;
        Some(RoundCoordinator {
            s,
            tau,
            q_cur,
            q_next,
            header,
        })
    }
}

/// `τ`; decode refuses one below 1 or not finite, as the coordinator's.
impl<K: SampleKind> WireCodec for PriorityFilter<K> {
    fn encode(&self, out: &mut Vec<u8>) {
        put_f64(out, self.tau);
    }

    fn decode(r: &mut WireReader<'_>) -> Option<Self> {
        Some(PriorityFilter {
            tau: read_w_hat(r)?,
            kind: PhantomData,
        })
    }

    fn encoded_len(&self) -> u64 {
        8
    }
}

fn sites<C: SamplingConfig>(cfg: &C) -> Vec<PrioritySite<C::Kind>> {
    (0..cfg.sites())
        .map(|i| PrioritySite::new(cfg.site_seed(i)))
        .collect()
}

/// Builds a star deployment (sample size from the config).
pub fn deploy<C: SamplingConfig>(
    cfg: &C,
) -> Runner<PrioritySite<C::Kind>, RoundCoordinator<C::Kind>> {
    Runner::new(
        sites(cfg),
        RoundCoordinator::new(cfg.sample_size(), cfg.header()),
    )
}

/// Builds a deployment over an arbitrary aggregation topology. The
/// interior nodes are exact relays with round state
/// ([`PriorityFilter`]), so estimates match the star at any fanout; with
/// no interior nodes this is *identical* to [`deploy`].
pub fn deploy_topology<C: SamplingConfig>(cfg: &C, topology: Topology) -> PriorityTree<C::Kind> {
    Runner::with_topology(
        sites(cfg),
        RoundCoordinator::new(cfg.sample_size(), cfg.header()),
        topology,
        make_aggregator(cfg, topology),
    )
}

/// Aggregator factory (for the engine's topology drivers).
pub fn make_aggregator<C: SamplingConfig>(
    _cfg: &C,
    _topology: Topology,
) -> impl FnMut(AggNode) -> PriorityAggregator<C::Kind> {
    // Round-state relays need no deployment data.
    |_| FilteredRelay::new(PriorityFilter::default())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sampling::ItemKind;

    fn entry(payload: u64, weight: f64, rho: f64) -> SampleEntry<ItemKind> {
        SampleEntry {
            payload,
            weight,
            rho,
        }
    }

    #[test]
    fn site_forwards_iff_priority_reaches_tau() {
        let mut site = PrioritySite::<ItemKind>::new(1);
        site.on_broadcast(&1.0);
        // With w ≥ τ the priority w/r ≥ w ≥ τ: always forwarded.
        for _ in 0..100 {
            assert!(site.draw(1.5).is_some());
        }
        site.on_broadcast(&1e12);
        let mut sent = 0;
        for _ in 0..10_000 {
            if site.draw(1.0).is_some() {
                sent += 1;
            }
        }
        // P(send) = 1/τ = 1e-12: essentially never.
        assert_eq!(sent, 0);
    }

    #[test]
    fn round_coordinator_doubles_tau() {
        let mut c = RoundCoordinator::<ItemKind>::new(3, ());
        // Three high-priority records end round 1.
        let mut broadcasts = 0;
        for i in 0..3 {
            if c.offer(entry(i, 1.0, 10.0)).is_some() {
                broadcasts += 1;
            }
        }
        assert_eq!(broadcasts, 1);
        assert_eq!(c.tau(), 2.0);
        // ρ = 10 > 2·2: the records moved to the new Qj+1... so two more
        // high-priority records end the next round immediately? No — the
        // three retained records already have ρ > 2τ, so |Qj+1| = 3 ≥ s
        // means the *next* receive triggers another doubling.
        let bc = c.offer(entry(9, 1.0, 3.0));
        assert!(bc.is_some());
        assert_eq!(c.tau(), 4.0);
    }

    #[test]
    fn small_sample_uses_exact_weights() {
        let mut c = RoundCoordinator::<ItemKind>::new(10, ());
        c.offer(entry(1, 4.0, 7.0));
        c.offer(entry(2, 5.0, 1.5));
        let sample = c.weighted_sample();
        assert_eq!(sample.len(), 2);
        let total: f64 = sample.iter().map(|(_, w)| w).sum();
        assert_eq!(total, 9.0);
    }

    #[test]
    fn large_sample_excludes_threshold_record() {
        let mut c = RoundCoordinator::<ItemKind>::new(2, ());
        c.offer(entry(1, 1.0, 1.2));
        c.offer(entry(2, 1.0, 1.5));
        c.offer(entry(3, 1.0, 1.9));
        // 3 records > s = 2: drop the ρ=1.2 record, w̄ = max(1, 1.2).
        let sample = c.weighted_sample();
        assert_eq!(sample.len(), 2);
        for (_, w) in &sample {
            assert_eq!(*w, 1.2);
        }
    }

    #[test]
    fn priority_agg_filters_stale_records() {
        let mut st = PriorityFilter::<ItemKind>::default();
        assert!(st.admit(&entry(1, 1.0, 1.0)));
        st.on_broadcast(&8.0);
        assert!(!st.admit(&entry(2, 1.0, 7.9)));
        assert!(st.admit(&entry(3, 1.0, 8.0)));
    }
}
