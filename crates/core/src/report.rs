//! Protocol P4, written once: sites send probabilistic reports of their
//! exact local state (paper §4.4, Algorithm 4.7; Appendix C,
//! Algorithm C.1).
//!
//! The paper builds MT-P4 by running HH-P4's scheme on matrices, each row
//! an element of weight `‖a‖²`, so P4 is **one deployment, generic over a
//! [`ReportKind`]**: the sampling payload kinds [`ItemKind`] and
//! [`RowKind`], whose [`SampleKind::weigh`] is already P4's arrival check
//! (a finite positive weight, or `‖a‖²` with zero rows skipped).
//!
//! **The scheme.** Per arrival of weight `w` a [`ReportSite`] adds `w` to
//! its weight tracker, folds the arrival into its exact local state, then
//! draws once from its RNG, reporting that state with probability
//! `p̄ = 1 − e^{−p·w}`, `p = 2√m/(ε·Ŵ)`. The [`ReportCoordinator`] mirrors
//! the latest reports. `Ŵ` is the 2-approximation of
//! [`crate::weight_tracker`], whose reports are [`ReportMsg::Total`].
//!
//! **What a kind supplies.**
//! * The site's exact local state and what a report carries: the
//!   arriving item's count (HH), or the z-vector `zᵢ = √(G_jj + 1/p)` of
//!   the local Gram's diagonal (MT). HH adds the staleness term `1/p` at
//!   the coordinator, per `(item, site)` estimate; MT folds it into z at
//!   the site.
//! * The coordinator's mirror: the latest count per `(item, site)`, or
//!   the latest z per site.
//! * The departure report: HH ships only its tracker weight; MT also
//!   ships a final z, or its mirror would stay frozen at its last send.
//! * The codecs of a report and of the mirror.
//!
//! **The relay.** A [`ReportAggregator`] forwards reports with their
//! origin (the mirror is keyed by site, so merging them would destroy the
//! per-site staleness compensation) and coalesces tracker reports until
//! its pending total reaches the shared node threshold `Ŵ/(2(m+I))`.
//!
//! The config type picks the kind ([`SamplingConfig`]). What stays per
//! protocol is the estimator, in `hh::p4` and `matrix::p4`, beside type
//! aliases under the historical names (`P4Msg`, `MP4Coordinator`, …).

use crate::hh::Item;
use crate::matrix::Row;
use crate::sampling::{ItemKind, RowKind, SampleKind, SamplingConfig};
use crate::weight_tracker::{CoordWeightTracker, SiteWeightTracker};
use crate::wire::{put_row, read_fraction, read_mass, read_row, read_w_hat, row_bytes};
use cma_linalg::matrix::accumulate_outer;
use cma_linalg::Matrix;
use cma_stream::{
    put_f64, put_u64, put_usize, AggNode, Aggregator, BudgetShare, ChurnBudget, ChurnCoordinator,
    ChurnSite, Coordinator, MessageCost, MigratableAggregator, Runner, Site, SiteId, Topology,
    WireCodec, WireReader,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashMap;
use std::fmt;

/// What a payload kind supplies to P4 beyond its sampling role: the
/// site's exact state, its reports and the coordinator's mirror of them.
pub trait ReportKind: SampleKind {
    /// A site's exact local state.
    type Local: Clone + fmt::Debug;
    /// What an arrival leaves for the report it may trigger.
    type Key;
    /// What a report carries.
    type Report: Clone + fmt::Debug;
    /// The coordinator's latest reports.
    type Mirror: Clone + fmt::Debug;

    /// An empty local state.
    fn local(header: Self::Header) -> Self::Local;
    /// An empty mirror for `sites` sites.
    fn mirror(sites: usize) -> Self::Mirror;
    /// Folds one weighed arrival into the local state.
    fn update(local: &mut Self::Local, payload: Self::Payload, weight: f64) -> Self::Key;
    /// The report an arrival triggers at send rate `p`.
    fn report(local: &Self::Local, key: Self::Key, p: f64) -> Self::Report;
    /// The report a departing site ships beside its tracker weight.
    fn final_report(local: &Self::Local, p: f64) -> Option<Self::Report>;
    /// Records a site's report in the mirror.
    fn record(mirror: &mut Self::Mirror, header: Self::Header, from: SiteId, report: Self::Report);

    /// Appends a report's encoding.
    fn put_report(out: &mut Vec<u8>, report: &Self::Report);
    /// Inverse of [`ReportKind::put_report`].
    fn read_report(r: &mut WireReader<'_>) -> Option<Self::Report>;
    /// Exact encoded size of a report.
    fn report_bytes(report: &Self::Report) -> u64;
    /// Appends a mirror's encoding.
    fn put_mirror(out: &mut Vec<u8>, mirror: &Self::Mirror);
    /// Inverse of [`ReportKind::put_mirror`], under the coordinator header.
    fn read_mirror(r: &mut WireReader<'_>, header: Self::Header) -> Option<Self::Mirror>;
}

/// HH-P4: exact per-item counts; a report is `(e, fe(Aj))`.
impl ReportKind for ItemKind {
    type Local = HashMap<Item, f64>;
    type Key = (Item, f64);
    type Report = (Item, f64);
    type Mirror = HashMap<(Item, SiteId), f64>;

    fn local(_: ()) -> Self::Local {
        HashMap::new()
    }

    fn mirror(_: usize) -> Self::Mirror {
        HashMap::new()
    }

    fn update(counts: &mut Self::Local, item: Item, weight: f64) -> (Item, f64) {
        let c = counts.entry(item).or_insert(0.0);
        *c += weight;
        (item, *c)
    }

    fn report(_: &Self::Local, count: (Item, f64), _: f64) -> (Item, f64) {
        count
    }

    fn final_report(_: &Self::Local, _: f64) -> Option<(Item, f64)> {
        None
    }

    fn record(mirror: &mut Self::Mirror, _: (), from: SiteId, (e, count): (Item, f64)) {
        mirror.insert((e, from), count);
    }

    fn put_report(out: &mut Vec<u8>, &(e, count): &(Item, f64)) {
        put_u64(out, e);
        put_f64(out, count);
    }

    fn read_report(r: &mut WireReader<'_>) -> Option<(Item, f64)> {
        Some((r.u64()?, read_mass(r)?))
    }

    fn report_bytes(_: &(Item, f64)) -> u64 {
        16
    }

    /// `len, (e, j, count)*` in `(e, j)` order.
    fn put_mirror(out: &mut Vec<u8>, mirror: &Self::Mirror) {
        let mut reports: Vec<_> = mirror.iter().collect();
        reports.sort_unstable_by_key(|&(&k, _)| k);
        put_usize(out, reports.len());
        for (&(e, j), &count) in reports {
            put_u64(out, e);
            put_usize(out, j);
            put_f64(out, count);
        }
    }

    fn read_mirror(r: &mut WireReader<'_>, _: ()) -> Option<Self::Mirror> {
        let n = r.usize()?;
        let mut mirror = HashMap::with_capacity(r.capacity_for(n));
        for _ in 0..n {
            let key = (r.u64()?, r.usize()?);
            mirror.insert(key, read_mass(r)?);
        }
        Some(mirror)
    }
}

/// MT-P4: the exact local Gram `Gj`; a report is `z` with
/// `zᵢ = √(Gj[i][i] + 1/p)` — with the fixed standard basis `V`,
/// `‖Aj vᵢ‖² = Gj[i][i]`.
impl ReportKind for RowKind {
    type Local = Matrix;
    type Key = ();
    type Report = Row;
    type Mirror = Vec<Option<Row>>;

    fn local(dim: usize) -> Matrix {
        Matrix::zeros(dim, dim)
    }

    fn mirror(sites: usize) -> Self::Mirror {
        vec![None; sites]
    }

    fn update(gram: &mut Matrix, row: Row, _: f64) {
        accumulate_outer(gram, &row);
    }

    fn report(gram: &Matrix, _: (), p: f64) -> Row {
        (0..gram.rows())
            .map(|i| (gram[(i, i)] + 1.0 / p).sqrt())
            .collect()
    }

    fn final_report(gram: &Matrix, p: f64) -> Option<Row> {
        Some(Self::report(gram, (), p))
    }

    /// Drops a z only a hostile frame carries: not `d` long, or no site's.
    fn record(mirror: &mut Self::Mirror, dim: usize, from: SiteId, z: Row) {
        if let Some(slot) = mirror.get_mut(from).filter(|_| z.len() == dim) {
            *slot = Some(z);
        }
    }

    fn put_report(out: &mut Vec<u8>, z: &Row) {
        put_row(out, z);
    }

    fn read_report(r: &mut WireReader<'_>) -> Option<Row> {
        read_row(r)
    }

    fn report_bytes(z: &Row) -> u64 {
        row_bytes(z)
    }

    /// `len, (0 | 1, z)*`.
    fn put_mirror(out: &mut Vec<u8>, mirror: &Self::Mirror) {
        put_usize(out, mirror.len());
        for z in mirror {
            match z {
                Some(z) => {
                    out.push(1);
                    put_row(out, z);
                }
                None => out.push(0),
            }
        }
    }

    /// Every z must have the header's `d` entries.
    fn read_mirror(r: &mut WireReader<'_>, dim: usize) -> Option<Self::Mirror> {
        let n = r.usize()?;
        let mut mirror = Vec::with_capacity(r.capacity_for(n));
        for _ in 0..n {
            mirror.push(match r.u8()? {
                0 => None,
                1 => Some(read_row(r).filter(|z| z.len() == dim)?),
                _ => return None,
            });
        }
        Some(mirror)
    }
}

/// Send-rate parameter `p = 2√m/(ε·Ŵ)`.
fn send_rate(sites: usize, epsilon: f64, w_hat: f64) -> f64 {
    2.0 * (sites as f64).sqrt() / (epsilon * w_hat)
}

/// Site → coordinator message. Its codec is in [`crate::wire`].
#[derive(Debug, Clone)]
pub enum ReportMsg<K: ReportKind> {
    /// Weight-tracker report: local weight not yet reported.
    Total(f64),
    /// A report of the site's local state.
    Report(K::Report),
}

impl<K: ReportKind> MessageCost for ReportMsg<K> {
    fn cost(&self) -> u64 {
        1
    }

    /// Exact size of the [`crate::wire`] encoding.
    fn wire_bytes(&self) -> u64 {
        self.encoded_len()
    }

    /// Tracker reports carry incremental weight; a state report is
    /// absolute (losing one leaves a stale mirror, not lost mass).
    fn mass(&self) -> f64 {
        match self {
            ReportMsg::Total(w) => *w,
            ReportMsg::Report(_) => 0.0,
        }
    }
}

/// P4 site: the kind's exact local state plus the tracker.
#[derive(Debug, Clone)]
pub struct ReportSite<K: ReportKind> {
    local: K::Local,
    tracker: SiteWeightTracker,
    sites: usize,
    epsilon: f64,
    rng: StdRng,
}

impl<K: ReportKind> ReportSite<K> {
    /// Site `site`, its tracker's `Ŵ/2` slack split across `budget`
    /// withholding nodes: `m` in a star, `m + I` in a tree.
    pub(crate) fn new<C: SamplingConfig<Kind = K>>(cfg: &C, site: usize, budget: usize) -> Self {
        ReportSite {
            local: K::local(cfg.header()),
            tracker: SiteWeightTracker::with_budget(budget),
            sites: cfg.sites(),
            epsilon: cfg.epsilon(),
            rng: StdRng::seed_from_u64(cfg.site_seed(site)),
        }
    }

    /// Send-rate parameter `p = 2√m/(ε·Ŵ)`.
    pub(crate) fn p(&self) -> f64 {
        send_rate(self.sites, self.epsilon, self.tracker.w_hat())
    }

    /// One arrival at send rate `p`: tracker, local update, one draw.
    fn arrive(&mut self, input: K::Input, p: f64, out: &mut Vec<ReportMsg<K>>) {
        let Some((payload, weight)) = K::weigh(input) else {
            return;
        };
        if let Some(report) = self.tracker.add(weight) {
            out.push(ReportMsg::Total(report));
        }
        let key = K::update(&mut self.local, payload, weight);
        if self.rng.gen::<f64>() < 1.0 - (-p * weight).exp() {
            out.push(ReportMsg::Report(K::report(&self.local, key, p)));
        }
    }
}

impl<K: ReportKind> Site for ReportSite<K> {
    type Input = K::Input;
    type UpMsg = ReportMsg<K>;
    type Broadcast = f64;

    fn observe(&mut self, input: K::Input, out: &mut Vec<ReportMsg<K>>) {
        self.arrive(input, self.p(), out);
    }

    /// Batched arrivals hoist `p` out of the loop: `Ŵ` only changes on a
    /// broadcast, which can only arrive after this site pauses with a
    /// message, so RNG order and every report match per-item execution.
    fn observe_batch(
        &mut self,
        inputs: impl IntoIterator<Item = K::Input>,
        out: &mut Vec<ReportMsg<K>>,
    ) {
        let p = self.p();
        for input in inputs {
            self.arrive(input, p, out);
            if !out.is_empty() {
                return; // pause-on-message
            }
        }
    }

    fn on_broadcast(&mut self, w_hat: &f64) {
        self.tracker.on_broadcast(*w_hat);
    }
}

/// P4 coordinator: the mirror of the latest reports plus the tracker.
#[derive(Debug, Clone)]
pub struct ReportCoordinator<K: ReportKind> {
    pub(crate) mirror: K::Mirror,
    pub(crate) tracker: CoordWeightTracker,
    /// The deployment header (MT's dimension `d`).
    pub(crate) header: K::Header,
    sites: usize,
    epsilon: f64,
}

impl<K: ReportKind> ReportCoordinator<K> {
    /// The send rate `p` the sites currently use.
    pub(crate) fn p(&self) -> f64 {
        send_rate(self.sites, self.epsilon, self.tracker.w_hat())
    }
}

impl<K: ReportKind> Coordinator for ReportCoordinator<K> {
    type UpMsg = ReportMsg<K>;
    type Broadcast = f64;

    fn receive(&mut self, from: SiteId, msg: ReportMsg<K>, out: &mut Vec<f64>) {
        match msg {
            ReportMsg::Total(report) => {
                if let Some(new_hat) = self.tracker.on_report(report) {
                    out.push(new_hat);
                }
            }
            ReportMsg::Report(report) => K::record(&mut self.mirror, self.header, from, report),
        }
    }
}

/// Interior tree node of a P4 deployment: relays state reports with
/// their origin and coalesces tracker reports under the node threshold.
#[derive(Debug, Clone)]
pub struct ReportAggregator<K: ReportKind> {
    tracker: SiteWeightTracker,
    pending: Vec<(SiteId, ReportMsg<K>)>,
    /// Representative origin for the coalesced tracker weight (the
    /// coordinator's tracker ignores origins; any contributing leaf
    /// works).
    rep: SiteId,
}

impl<K: ReportKind> Aggregator for ReportAggregator<K> {
    type UpMsg = ReportMsg<K>;
    type Broadcast = f64;

    fn absorb(&mut self, from: SiteId, msg: ReportMsg<K>) {
        match msg {
            ReportMsg::Total(report) => {
                self.rep = from;
                if let Some(merged) = self.tracker.add(report) {
                    self.pending.push((from, ReportMsg::Total(merged)));
                }
            }
            report => self.pending.push((from, report)),
        }
    }

    fn flush(&mut self, out: &mut Vec<(SiteId, ReportMsg<K>)>) {
        out.append(&mut self.pending);
    }

    fn on_broadcast(&mut self, w_hat: &f64) {
        self.tracker.on_broadcast(*w_hat);
    }
}

impl<K: ReportKind> MigratableAggregator for ReportAggregator<K> {
    /// Drains the relay queue plus the tracker's sub-threshold weight —
    /// the only state this node withholds.
    fn split_for_migration(&mut self, out: &mut Vec<(SiteId, ReportMsg<K>)>) {
        out.append(&mut self.pending);
        let held = self.tracker.take_unreported();
        if held > 0.0 {
            out.push((self.rep, ReportMsg::Total(held)));
        }
    }
}

impl<K: ReportKind> ChurnBudget for ReportSite<K> {
    /// `p` scales with `√m'` and the tracker threshold with
    /// `1/(m' + I')` — both restate directly from `next`.
    fn rebudget(&mut self, share: &BudgetShare) {
        self.sites = share.next.sites;
        self.tracker.set_budget(share.next.nodes());
    }
}

impl<K: ReportKind> ChurnSite for ReportSite<K> {
    /// Ships the tracker's unreported weight — the only withheld mass —
    /// and the kind's final report, if it has one.
    fn depart(&mut self, out: &mut Vec<ReportMsg<K>>) {
        let held = self.tracker.take_unreported();
        if held > 0.0 {
            out.push(ReportMsg::Total(held));
        }
        if let Some(report) = K::final_report(&self.local, self.p()) {
            out.push(ReportMsg::Report(report));
        }
    }
}

impl<K: ReportKind> ChurnBudget for ReportCoordinator<K> {
    fn rebudget(&mut self, share: &BudgetShare) {
        self.sites = share.next.sites;
    }
}

impl<K: ReportKind> ChurnCoordinator for ReportCoordinator<K> {
    fn current_broadcast(&self) -> Option<f64> {
        let w_hat = self.tracker.w_hat();
        (w_hat > 1.0).then_some(w_hat)
    }
}

impl<K: ReportKind> ChurnBudget for ReportAggregator<K> {
    fn rebudget(&mut self, share: &BudgetShare) {
        self.tracker.set_budget(share.next.nodes());
    }
}

/// `header, mirror, received, Ŵ, sites, ε`.
impl<K: ReportKind> WireCodec for ReportCoordinator<K> {
    fn encode(&self, out: &mut Vec<u8>) {
        K::put_header(out, &self.header);
        K::put_mirror(out, &self.mirror);
        put_f64(out, self.tracker.received());
        put_f64(out, self.tracker.w_hat());
        put_usize(out, self.sites);
        put_f64(out, self.epsilon);
    }

    fn decode(r: &mut WireReader<'_>) -> Option<Self> {
        let header = K::read_header(r)?;
        let mirror = K::read_mirror(r, header)?;
        let tracker = CoordWeightTracker::from_parts(read_mass(r)?, read_w_hat(r)?);
        Some(ReportCoordinator {
            mirror,
            tracker,
            header,
            sites: r.usize().filter(|&m| m >= 1)?,
            epsilon: read_fraction(r)?,
        })
    }
}

/// `budget, unreported, Ŵ, pending, rep`.
impl<K: ReportKind> WireCodec for ReportAggregator<K> {
    fn encode(&self, out: &mut Vec<u8>) {
        put_usize(out, self.tracker.budget());
        put_f64(out, self.tracker.unreported());
        put_f64(out, self.tracker.w_hat());
        put_usize(out, self.pending.len());
        for (origin, msg) in &self.pending {
            put_usize(out, *origin);
            msg.encode(out);
        }
        put_usize(out, self.rep);
    }

    fn decode(r: &mut WireReader<'_>) -> Option<Self> {
        let budget = r.usize().filter(|&b| b >= 1)?;
        let tracker = SiteWeightTracker::from_parts(budget, read_mass(r)?, read_w_hat(r)?);
        let n = r.usize()?;
        let mut pending = Vec::with_capacity(r.capacity_for(n));
        for _ in 0..n {
            pending.push((r.usize()?, ReportMsg::decode(r)?));
        }
        Some(ReportAggregator {
            tracker,
            pending,
            rep: r.usize()?,
        })
    }
}

/// A P4 deployment over an aggregation topology.
pub type ReportTree<K> = Runner<ReportSite<K>, ReportCoordinator<K>, ReportAggregator<K>>;

/// Withholding nodes the tracker's slack is split across: `m + I`.
fn budget<C: SamplingConfig>(cfg: &C, topology: Topology) -> usize {
    cfg.sites() + topology.plan(cfg.sites()).internal_nodes()
}

fn sites<C: SamplingConfig<Kind: ReportKind>>(cfg: &C, budget: usize) -> Vec<ReportSite<C::Kind>> {
    (0..cfg.sites())
        .map(|i| ReportSite::new(cfg, i, budget))
        .collect()
}

fn coordinator<C: SamplingConfig<Kind: ReportKind>>(cfg: &C) -> ReportCoordinator<C::Kind> {
    ReportCoordinator {
        mirror: C::Kind::mirror(cfg.sites()),
        tracker: CoordWeightTracker::new(),
        header: cfg.header(),
        sites: cfg.sites(),
        epsilon: cfg.epsilon(),
    }
}

/// Builds a P4 star.
pub fn deploy<C: SamplingConfig<Kind: ReportKind>>(
    cfg: &C,
) -> Runner<ReportSite<C::Kind>, ReportCoordinator<C::Kind>> {
    Runner::new(sites(cfg, cfg.sites()), coordinator(cfg))
}

/// Builds a P4 deployment over an arbitrary aggregation topology, the
/// tracker's slack split across the `m + I` withholding nodes; with no
/// interior nodes this is *identical* to [`deploy`]. (For MT-P4 it is
/// still the paper's negative result: a tree changes the communication
/// shape, not the missing guarantee.)
pub fn deploy_topology<C: SamplingConfig<Kind: ReportKind>>(
    cfg: &C,
    topology: Topology,
) -> ReportTree<C::Kind> {
    Runner::with_topology(
        sites(cfg, budget(cfg, topology)),
        coordinator(cfg),
        topology,
        make_aggregator(cfg, topology),
    )
}

/// Aggregator factory matching [`deploy_topology`]'s budget split (for
/// the engine's topology drivers).
pub fn make_aggregator<C: SamplingConfig<Kind: ReportKind>>(
    cfg: &C,
    topology: Topology,
) -> impl FnMut(AggNode) -> ReportAggregator<C::Kind> {
    let budget = budget(cfg, topology);
    move |_| ReportAggregator {
        tracker: SiteWeightTracker::with_budget(budget),
        pending: Vec::new(),
        rep: 0,
    }
}
