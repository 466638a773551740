//! Protocol P1, written once: sites run a mergeable summary and ship it
//! whole (paper §4.1, Algorithms 4.1–4.2; §5.1, Algorithms 5.1–5.2).
//!
//! The paper defines MT-P1 as HH-P1 with Frequent Directions in place of
//! Misra–Gries (Liberty built FD as "Misra–Gries for matrices"), so P1 is
//! **one deployment, generic over a summary [`FlushKind`]**: the windowed
//! protocols' [`MgKind`] or [`FdKind`]. A [`FlushSite`] runs the kind's
//! summary at `ε' = ε/2` and, once the mass fed in since its last flush
//! reaches `τ = tau_frac·Ŵ`, ships it whole in one [`FlushMsg`]. An
//! interior [`FlushAggregator`] merges flushed summaries and holds the
//! partial until its mass reaches the node's own budget share. The
//! [`FlushCoordinator`] merges everything, adds the received masses into
//! `W_C`, and re-broadcasts `Ŵ = W_C` when `W_C` has grown by `1 + ε/2`.
//!
//! **The budget split.** The `εW` guarantee (`ε‖A‖²_F` for rows) is `ε/2`
//! summary error — mergeability keeps it at `ε'·W` under any merge tree —
//! plus `ε/2` mass still withheld. In a star each of the `m` sites
//! withholds up to `(ε/2m)·Ŵ`. A tree's interior nodes withhold too, so
//! that half is re-split: sites get `ε/4m`, and the interior `ε/4`,
//! divided across its `L` levels in proportion to each node's subtree
//! (`(ε/4L)·(c/m)` for a node covering `c` of `m` leaves). With no
//! interior nodes [`deploy_topology`] is [`deploy`]. Churn rescales each
//! share by the ratio of new to old, so `ε` cancels and re-splits compose.
//!
//! **The mass rule.** The withheld half is paid in mass, never in what a
//! summary still holds: a Misra–Gries decrement can empty a table whose
//! weight is pending (`c + 1` distinct equal weights do it), and an FD
//! shrink sheds mass from the rows. So every node keeps the exact mass it
//! withholds, a flush carries it into `W_C`, and a departing site or a
//! migrating aggregator ships whenever it is positive.
//!
//! **What a kind supplies.**
//! * The arrival check ([`FlushKind::update`]): MG sites reject a weight
//!   that is not finite and positive; FD sites skip zero rows.
//! * Where the mass lives ([`FlushKind::IMPLIED_MASS`]): an MG merge adds
//!   totals exactly, so a table's `total_weight()` *is* its mass and an
//!   HH-P1 message is the MG encoding alone. An FD merge adds the norms of
//!   already-shrunk rows, so an MT-P1 message is the sketch rows plus the
//!   exact mass (`matrix_bytes + 8`), and an aggregator keeps that mass
//!   apart from the sketch's own `frob_sq`.
//! * The merge, the take and the codec of the summary and of what a flush
//!   ships (the MG table, or FD's sketch rows).
//!
//! The config type picks the kind ([`FlushConfig`]): an [`HhConfig`]
//! deploys over [`MgKind`], a [`MatrixConfig`] over [`FdKind`]. What stays
//! per protocol is the estimator, in `hh::p1` and `matrix::p1`, beside
//! type aliases under the historical names (`P1Site`, `MP1Coordinator`,
//! …). Communication is `O((m/ε²) log βN)` elements: a flush carries up
//! to `2/ε` counters or `4/ε` rows, which is what [`FlushMsg`] is charged.

use crate::config::{HhConfig, MatrixConfig};
use crate::hh::{validate_weight, WeightedItem};
use crate::matrix::{row_weight, Row};
use crate::window::fd::FdKind;
use crate::window::mg::MgKind;
use crate::window::WindowKind;
use crate::wire::{read_fraction, read_mass, read_w_hat, SummaryCodec};
use cma_linalg::Matrix;
use cma_sketch::{FrequentDirections, MgSummary};
use cma_stream::{
    put_f64, put_usize, AggNode, Aggregator, BudgetShare, ChurnBudget, ChurnCoordinator, ChurnSite,
    Coordinator, Membership, MessageCost, MigratableAggregator, Runner, Site, SiteId, Topology,
    WireCodec, WireReader,
};
use std::fmt;

/// What a summary family supplies to P1 beyond its window kind (module
/// docs): the site's arrival check, the merge and take, and where the
/// mass lives.
pub trait FlushKind: WindowKind {
    /// What a flush ships: the summary itself, or its content.
    type Shipped: SummaryCodec + Clone + fmt::Debug;

    /// How a message carries its mass: `None` writes it as an `f64`;
    /// `Some(f)` omits it and the receiver reads `f(shipped)`. A kind
    /// with `Some` keeps the exact mass in the summary itself, so an
    /// aggregator snapshot omits it too.
    const IMPLIED_MASS: Option<fn(&Self::Shipped) -> f64>;

    /// Folds one arrival into a site's summary; `false` for an arrival
    /// that carries no mass and was skipped.
    ///
    /// # Panics
    /// Panics on an arrival the protocols cannot take.
    fn update(summary: &mut Self::Summary, input: Self::Input) -> bool;

    /// The mass fed into `summary` — at a site, exactly what it withholds.
    fn mass(summary: &Self::Summary) -> f64;

    /// Merges a flushed summary in.
    fn absorb(summary: &mut Self::Summary, shipped: Self::Shipped);

    /// Hands the summary's content off and leaves it empty.
    fn take(summary: &mut Self::Summary) -> Self::Shipped;
}

impl FlushKind for MgKind {
    type Shipped = MgSummary;

    const IMPLIED_MASS: Option<fn(&MgSummary) -> f64> = Some(MgSummary::total_weight);

    fn update(summary: &mut MgSummary, (item, weight): WeightedItem) -> bool {
        validate_weight(weight);
        summary.update(item, weight);
        true
    }

    fn mass(summary: &MgSummary) -> f64 {
        summary.total_weight()
    }

    fn absorb(summary: &mut MgSummary, shipped: MgSummary) {
        summary.absorb(shipped);
    }

    fn take(summary: &mut MgSummary) -> MgSummary {
        summary.take_all()
    }
}

impl FlushKind for FdKind {
    type Shipped = Matrix;

    const IMPLIED_MASS: Option<fn(&Matrix) -> f64> = None;

    fn update(fd: &mut FrequentDirections, row: Row) -> bool {
        // Zero rows carry no information in this norm.
        if row_weight(&row) == 0.0 {
            return false;
        }
        fd.update(&row);
        true
    }

    fn mass(fd: &FrequentDirections) -> f64 {
        fd.frob_sq_seen()
    }

    /// One stack and at most one shrink: the Agarwal et al. merge.
    fn absorb(fd: &mut FrequentDirections, rows: Matrix) {
        fd.merge_rows(&rows);
    }

    fn take(fd: &mut FrequentDirections) -> Matrix {
        fd.take().0
    }
}

/// Bytes a message or an aggregator snapshot spends on the mass.
pub(crate) fn mass_bytes<K: FlushKind>() -> u64 {
    8 * u64::from(K::IMPLIED_MASS.is_none())
}

/// Site → coordinator message: a flushed summary and the exact mass it
/// summarises. Its codec is in [`crate::wire`].
#[derive(Debug, Clone)]
pub struct FlushMsg<K: FlushKind> {
    /// What the flush ships: the Misra–Gries table, or FD's sketch rows.
    pub summary: K::Shipped,
    /// The mass it summarises (the sender's `Wᵢ`); for Misra–Gries, the
    /// table's `total_weight()`.
    pub mass: f64,
}

impl<K: FlushKind> MessageCost for FlushMsg<K> {
    /// One element per shipped counter or row, plus one for the mass.
    fn cost(&self) -> u64 {
        self.summary.elements() + 1
    }

    /// Exact size of the [`crate::wire`] encoding.
    fn wire_bytes(&self) -> u64 {
        self.encoded_len()
    }

    /// A lost flush loses the whole mass it summarises.
    fn mass(&self) -> f64 {
        self.mass
    }
}

/// P1 site: the kind's summary plus the flush threshold.
#[derive(Debug, Clone)]
pub struct FlushSite<K: FlushKind> {
    pub(crate) summary: K::Summary,
    /// `τ` as a fraction of `Ŵ`: `ε/2m` in a star, `ε/4m` in a tree.
    tau_frac: f64,
    /// Global mass estimate `Ŵ` from the last broadcast.
    pub(crate) w_hat: f64,
}

impl<K: FlushKind> FlushSite<K> {
    /// Flush threshold `τ = tau_frac · Ŵ`.
    fn tau(&self) -> f64 {
        self.tau_frac * self.w_hat
    }

    /// Ships the whole summary with the mass it holds.
    fn flush(&mut self) -> FlushMsg<K> {
        let mass = K::mass(&self.summary);
        FlushMsg {
            summary: K::take(&mut self.summary),
            mass,
        }
    }
}

impl<K: FlushKind> Site for FlushSite<K> {
    type Input = K::Input;
    type UpMsg = FlushMsg<K>;
    type Broadcast = f64;

    fn observe(&mut self, input: K::Input, out: &mut Vec<FlushMsg<K>>) {
        if K::update(&mut self.summary, input) && K::mass(&self.summary) >= self.tau() {
            out.push(self.flush());
        }
    }

    /// Batched arrivals fold into the summary in one tight loop with `τ`
    /// hoisted out of it — `τ` only changes on a broadcast, and a
    /// broadcast can only arrive after this site pauses with a flushed
    /// summary, so flush points are those of per-item execution.
    fn observe_batch(
        &mut self,
        inputs: impl IntoIterator<Item = K::Input>,
        out: &mut Vec<FlushMsg<K>>,
    ) {
        let tau = self.tau();
        for input in inputs {
            if K::update(&mut self.summary, input) && K::mass(&self.summary) >= tau {
                out.push(self.flush());
                return; // pause-on-message
            }
        }
    }

    fn on_broadcast(&mut self, w_hat: &f64) {
        self.w_hat = *w_hat;
    }
}

/// P1 coordinator: the merged global summary plus the broadcast rule.
#[derive(Debug, Clone)]
pub struct FlushCoordinator<K: FlushKind> {
    pub(crate) summary: K::Summary,
    /// Mass received from sites (`W_C`).
    pub(crate) received: f64,
    /// Last broadcast estimate `Ŵ`.
    w_hat: f64,
    epsilon: f64,
}

impl<K: FlushKind> Coordinator for FlushCoordinator<K> {
    type UpMsg = FlushMsg<K>;
    type Broadcast = f64;

    fn receive(&mut self, _from: SiteId, msg: FlushMsg<K>, out: &mut Vec<f64>) {
        self.received += msg.mass;
        K::absorb(&mut self.summary, msg.summary);
        if self.received / self.w_hat > 1.0 + self.epsilon / 2.0 {
            self.w_hat = self.received;
            out.push(self.w_hat);
        }
    }
}

/// Interior tree node of a P1 deployment: merges flushed summaries and
/// holds the merged partial until its mass reaches the node's share of
/// the withheld budget.
#[derive(Debug, Clone)]
pub struct FlushAggregator<K: FlushKind> {
    summary: K::Summary,
    /// Exact mass pending: the sum of the child-reported masses, not the
    /// summary's own.
    mass: f64,
    /// Forward threshold as a fraction of `Ŵ`: this node's slice of the
    /// `ε/4` interior budget.
    hold_frac: f64,
    w_hat: f64,
    /// Representative origin for the merged partial (the coordinator
    /// ignores origins; any contributing leaf works).
    rep: SiteId,
}

impl<K: FlushKind> FlushAggregator<K> {
    /// Ships the merged partial with its exact mass.
    fn flush_all(&mut self) -> (SiteId, FlushMsg<K>) {
        let msg = FlushMsg {
            summary: K::take(&mut self.summary),
            mass: std::mem::take(&mut self.mass),
        };
        (self.rep, msg)
    }
}

impl<K: FlushKind> Aggregator for FlushAggregator<K> {
    type UpMsg = FlushMsg<K>;
    type Broadcast = f64;

    fn absorb(&mut self, from: SiteId, msg: FlushMsg<K>) {
        if self.mass == 0.0 {
            self.rep = from;
        }
        self.mass += msg.mass;
        K::absorb(&mut self.summary, msg.summary);
    }

    fn flush(&mut self, out: &mut Vec<(SiteId, FlushMsg<K>)>) {
        if self.mass > 0.0 && self.mass >= self.hold_frac * self.w_hat {
            out.push(self.flush_all());
        }
    }

    fn on_broadcast(&mut self, w_hat: &f64) {
        self.w_hat = *w_hat;
    }
}

impl<K: FlushKind> MigratableAggregator for FlushAggregator<K> {
    /// Ships the merged partial regardless of the hold threshold — the
    /// withheld budget is re-stated against the new plan, so nothing may
    /// stay behind.
    fn split_for_migration(&mut self, out: &mut Vec<(SiteId, FlushMsg<K>)>) {
        if self.mass > 0.0 {
            out.push(self.flush_all());
        }
    }
}

/// Leaf share of the withheld budget under a membership, stated without
/// the common `ε` factor: `1/2m'` flat, `1/4m'` under interior nodes.
fn site_share(mem: &Membership) -> f64 {
    (if mem.flat { 0.5 } else { 0.25 }) / mem.sites as f64
}

/// Interior share of a node covering `covered` leaves: `covered/(4·L·m')`.
fn interior_share(mem: &Membership, covered: usize) -> f64 {
    covered as f64 / (4.0 * mem.levels.max(1) as f64 * mem.sites as f64)
}

impl<K: FlushKind> ChurnBudget for FlushSite<K> {
    fn rebudget(&mut self, share: &BudgetShare) {
        self.tau_frac *= site_share(&share.next) / site_share(&share.prev);
    }
}

impl<K: FlushKind> ChurnSite for FlushSite<K> {
    /// Ships the whole local summary regardless of the flush threshold —
    /// the departing site's withheld mass re-enters the bound.
    fn depart(&mut self, out: &mut Vec<FlushMsg<K>>) {
        if K::mass(&self.summary) > 0.0 {
            out.push(self.flush());
        }
    }
}

impl<K: FlushKind> ChurnBudget for FlushCoordinator<K> {}

impl<K: FlushKind> ChurnCoordinator for FlushCoordinator<K> {
    fn current_broadcast(&self) -> Option<f64> {
        (self.w_hat > 1.0).then_some(self.w_hat)
    }
}

impl<K: FlushKind> ChurnBudget for FlushAggregator<K> {
    fn rebudget(&mut self, share: &BudgetShare) {
        self.hold_frac *= interior_share(&share.next, share.covered_next)
            / interior_share(&share.prev, share.covered_prev);
    }
}

/// `summary, received, Ŵ, ε`.
impl<K: FlushKind> WireCodec for FlushCoordinator<K> {
    fn encode(&self, out: &mut Vec<u8>) {
        self.summary.put_summary(out);
        put_f64(out, self.received);
        put_f64(out, self.w_hat);
        put_f64(out, self.epsilon);
    }

    /// `None` on a negative or non-finite `W_C`, `Ŵ < 1`, or `ε` outside
    /// `(0, 1)`.
    fn decode(r: &mut WireReader<'_>) -> Option<Self> {
        Some(FlushCoordinator {
            summary: SummaryCodec::read_summary(r)?,
            received: read_mass(r)?,
            w_hat: read_w_hat(r)?,
            epsilon: read_fraction(r)?,
        })
    }

    fn encoded_len(&self) -> u64 {
        self.summary.summary_bytes() + 24
    }
}

/// `summary, mass, hold_frac, Ŵ, rep` — the mass only where the summary
/// does not imply it. Decode refuses a negative or non-finite mass or
/// hold fraction and `Ŵ < 1`.
impl<K: FlushKind> WireCodec for FlushAggregator<K> {
    fn encode(&self, out: &mut Vec<u8>) {
        self.summary.put_summary(out);
        if K::IMPLIED_MASS.is_none() {
            put_f64(out, self.mass);
        }
        put_f64(out, self.hold_frac);
        put_f64(out, self.w_hat);
        put_usize(out, self.rep);
    }

    fn decode(r: &mut WireReader<'_>) -> Option<Self> {
        let summary: K::Summary = SummaryCodec::read_summary(r)?;
        let mass = match K::IMPLIED_MASS {
            Some(_) => K::mass(&summary),
            None => read_mass(r)?,
        };
        Some(FlushAggregator {
            summary,
            mass,
            hold_frac: r.f64().filter(|f| f.is_finite() && *f >= 0.0)?,
            w_hat: read_w_hat(r)?,
            rep: r.usize()?,
        })
    }

    fn encoded_len(&self) -> u64 {
        self.summary.summary_bytes() + mass_bytes::<K>() + 24
    }
}

/// A protocol family's configuration, as P1 reads it. The config type
/// picks the summary kind.
pub trait FlushConfig {
    /// The summary the family's P1 runs.
    type Kind: FlushKind;
    /// Number of sites `m`.
    fn sites(&self) -> usize;
    /// Error parameter `ε`.
    fn epsilon(&self) -> f64;
    /// The kind at the summaries' error parameter `ε' = ε/2`.
    fn kind(&self) -> Self::Kind;
}

impl FlushConfig for HhConfig {
    type Kind = MgKind;

    fn sites(&self) -> usize {
        self.sites
    }

    fn epsilon(&self) -> f64 {
        self.epsilon
    }

    /// `⌈2/ε⌉` counters.
    fn kind(&self) -> MgKind {
        MgKind {
            capacity: MgSummary::with_error_bound(self.epsilon / 2.0).capacity(),
        }
    }
}

impl FlushConfig for MatrixConfig {
    type Kind = FdKind;

    fn sites(&self) -> usize {
        self.sites
    }

    fn epsilon(&self) -> f64 {
        self.epsilon
    }

    /// `ℓ = ⌈2/ε'⌉ = ⌈4/ε⌉` rows.
    fn kind(&self) -> FdKind {
        let fd = FrequentDirections::with_error_bound(self.dim, self.epsilon / 2.0);
        FdKind {
            dim: self.dim,
            ell: fd.ell(),
        }
    }
}

/// The sites of a deployment, with the leaf share of the budget: `ε/2m`
/// flat, `ε/4m` under interior nodes.
fn sites<C: FlushConfig>(cfg: &C, flat: bool) -> Vec<FlushSite<C::Kind>> {
    let kind = cfg.kind();
    let halves = if flat { 2.0 } else { 4.0 };
    let tau_frac = cfg.epsilon() / (halves * cfg.sites() as f64);
    (0..cfg.sites())
        .map(|_| FlushSite {
            summary: kind.empty(),
            tau_frac,
            w_hat: 1.0,
        })
        .collect()
}

fn coordinator<C: FlushConfig>(cfg: &C) -> FlushCoordinator<C::Kind> {
    FlushCoordinator {
        summary: cfg.kind().empty(),
        received: 0.0,
        w_hat: 1.0,
        epsilon: cfg.epsilon(),
    }
}

/// A P1 deployment over an aggregation topology.
pub type FlushTree<K> = Runner<FlushSite<K>, FlushCoordinator<K>, FlushAggregator<K>>;

/// Builds a ready-to-run P1 star.
pub fn deploy<C: FlushConfig>(cfg: &C) -> Runner<FlushSite<C::Kind>, FlushCoordinator<C::Kind>> {
    Runner::new(sites(cfg, true), coordinator(cfg))
}

/// Builds a P1 deployment over an arbitrary aggregation topology, with
/// the budget split of the module docs; with no interior nodes (a star,
/// or `fanout ≥ m`) it is *identical* to [`deploy`].
pub fn deploy_topology<C: FlushConfig>(cfg: &C, topology: Topology) -> FlushTree<C::Kind> {
    let flat = topology.plan(cfg.sites()).internal_levels() == 0;
    Runner::with_topology(
        sites(cfg, flat),
        coordinator(cfg),
        topology,
        make_aggregator(cfg, topology),
    )
}

/// Aggregator factory matching [`deploy_topology`]'s budget split — the
/// entry point for driving a tree deployment through
/// [`cma_stream::runner::engine::run_partitioned_topology_parts`] (pair
/// it with sites taken from a `deploy_topology` runner so the leaf
/// thresholds share the same split).
pub fn make_aggregator<C: FlushConfig>(
    cfg: &C,
    topology: Topology,
) -> impl FnMut(AggNode) -> FlushAggregator<C::Kind> {
    let levels = topology.plan(cfg.sites()).internal_levels().max(1) as f64;
    let m = cfg.sites() as f64;
    let eps = cfg.epsilon();
    let kind = cfg.kind();
    move |node| FlushAggregator {
        summary: kind.empty(),
        mass: 0.0,
        hold_frac: eps / (4.0 * levels) * (node.leaves as f64 / m),
        w_hat: 1.0,
        rep: 0,
    }
}
