//! Distributed sliding-window protocols (paper §6 extension — the
//! paper's first listed open problem, taken distributed).
//!
//! The single-stream sliding-window sketches ([`cma_sketch::SwMg`],
//! [`cma_sketch::SwFd`]) answer queries about the *last `W` arrivals*
//! via an exponential histogram of mergeable buckets. This module runs
//! the same construction through the distributed site / aggregator /
//! coordinator stack, so `m` sites can jointly track the heavy hitters
//! or the covariance of the last `W` *global* arrivals at sublinear
//! communication:
//!
//! * every arrival is stamped with its **global stream index** `t`
//!   ([`Stamped`]); the window covers indices `(t_now − W, t_now]`;
//! * a [`SwSite`] keeps its pending arrivals in a local
//!   [`ExpHistogram`] and, when the pending mass reaches its share
//!   `τ = (ε/…)·Ŵ` of the coordinator's window-mass estimate, ships the
//!   **whole buckets** ([`cma_sketch::WinBucket`] — summary, mass,
//!   `[oldest, newest]` range) in one [`SwMsg`];
//! * an interior [`SwAggregator`] re-ingests child buckets into its own
//!   histogram — same-level buckets merge via
//!   [`cma_sketch::WindowSummary::merge_from`], dead buckets expire on
//!   arrival — and holds the coalesced partial until it reaches *its*
//!   budget share;
//! * the [`SwCoordinator`] maintains the global histogram and answers
//!   window queries at any clock `t_now` with a certified error bound.
//!
//! # The root defers its merges; the wire settles them
//!
//! Sites and aggregators ship their buckets, so they merge eagerly and
//! every shipped FD bucket holds fewer than `ℓ` rows. The root ships
//! nothing: it ingests with
//! [`ExpHistogram::insert_buckets_deferred`], whose level compaction is
//! the eager one (masses, `[oldest, newest]` ranges — hence `Ŵ`,
//! broadcasts, expiry, straddling and every message — are identical)
//! but whose FD merges never shrink on ingest when `d < 2ℓ`: a bucket
//! that reaches `d` rows holds their exact `d × d` Gram instead, and
//! later merges add Grams
//! ([`cma_sketch::FrequentDirections::merge_deferred`]; at `d ≥ 2ℓ`
//! rows stack up to `2ℓ` before one shrink). The root folds every live
//! bucket in one shot once per state ([`SwCoordinator::window_summary_at`]
//! → [`ExpHistogram::folded_at`] →
//! [`cma_sketch::WindowSummary::fold_settled`]): for FD the fold sums the
//! buckets' Grams — held, or cached until a row-held bucket next
//! changes — and runs one eigensolve and one shrink; by FD mergeability
//! its loss still telescopes to `Σδ ≤ 2·mass/ℓ`, the summary-loss term
//! below. The root keeps the fold until its next change (a receive, a
//! settle), so every later query until then borrows it — the first query
//! after a receive folds, the repeats cost a copy of the sketch rows. The
//! snapshot encoding writes every bucket
//! *settled* (one shrink for a bucket at `≥ ℓ` rows or holding a
//! Gram), so decoders keep refusing sketches over `ℓ` rows and the
//! encoded state shrinks; and the churn driver settles the live root
//! just before capture ([`ChurnCoordinator::settle_for_snapshot`]), so
//! a snapshot is exactly the state the live root goes on from. A
//! decoded bucket must be shaped for its node's kind
//! ([`SnapshotKind::kind_of`]).
//!
//! # The two-part window error, re-split over `m + I` nodes
//!
//! A query at clock `t_now` returns the fold of the live buckets. Its
//! error against the true window content decomposes
//! ([`WindowErrorBound`]):
//!
//! * **summary loss** — the mergeable summary's own error over the
//!   ingested mass (MG undercount `mass/(ℓ+1)`, FD loss `2·mass/ℓ`);
//! * **straddling mass** — buckets whose oldest arrival predates the
//!   window still count expired weight: an *over*count of at most their
//!   total mass (`≈ mass/r` per level with branching `r`);
//! * **withheld mass** — window arrivals still pending at sites and
//!   interior aggregators: an *under*count. Exactly as in the PR 2
//!   budget splits, the total withholding budget `ε·Ŵ` is restated over
//!   the `m + I` withholding nodes: leaves get `ε/2m` each and interior
//!   levels share `ε/2` (per level, proportional to subtree size) in a
//!   tree, `ε/m` each in a star — so the bound is `ε · Ŵ_peak`
//!   regardless of the deployment shape.
//!
//! Unlike the infinite-stream protocols, the window mass is **not
//! monotone** — old mass expires — so the coordinator re-broadcasts `Ŵ`
//! whenever its estimate drifts by a factor `1 + θ` in *either*
//! direction, and the withheld bound is stated against the largest `Ŵ`
//! ever broadcast (`Ŵ_peak`): a node holding against a stale larger
//! threshold is still covered. Staleness in the *downward* direction is
//! safe exactly as in the other protocols — a smaller stale `Ŵ` only
//! makes nodes flush sooner.
//!
//! Two instantiations: [`mg`] (windowed weighted heavy hitters over
//! Misra–Gries buckets) and [`fd`] (windowed matrix tracking over
//! Frequent Directions buckets). Both run through every driver:
//! [`Runner`] star and tree, and — via [`run_engine`] — the execution
//! engine (`runner::engine`), inline or on a worker pool whose thread
//! count is the pool size, not `m +` interior nodes. The config type
//! picks the kind ([`WindowConfig`]), so [`deploy`], [`deploy_topology`],
//! [`make_aggregator`] and [`run_engine`] are written once for both.

use crate::wire::{read_bucket_head, read_fraction, read_mass, read_w_hat, SummaryCodec};
use cma_sketch::sliding_window::{ExpHistogram, WinBucket, WindowSummary};
use cma_stream::runner::engine::{self, Executor, ThreadedConfig, TreeRunParts};
use cma_stream::{
    put_f64, put_u64, put_usize, AggNode, Aggregator, BudgetShare, ChurnBudget, ChurnCoordinator,
    ChurnSite, Coordinator, Membership, MessageCost, MigratableAggregator, Runner, Site, SiteId,
    Topology, WireCodec, WireReader,
};
use std::borrow::Cow;

pub mod fd;
pub mod mg;

pub use fd::SwFdConfig;
pub use mg::SwMgConfig;

/// An arrival stamped with its global stream index: `(t, payload)`.
///
/// The window is defined over the *global* stream, so the stamp — not
/// the site-local arrival order — decides when a bucket expires. The
/// drivers stamp with `enumerate()` before partitioning.
pub type Stamped<T> = (u64, T);

/// What differs between the windowed heavy-hitter and windowed matrix
/// protocols: the arrival payload, the bucket summary, and the summary's
/// a-priori loss. Everything else — histogram maintenance, flush/hold
/// thresholds, broadcast policy, error accounting — is shared by the
/// generic [`SwSite`]/[`SwAggregator`]/[`SwCoordinator`] below.
pub trait WindowKind: Clone {
    /// Arrival payload (a weighted item, a matrix row, …).
    type Input;
    /// Bucket summary type.
    type Summary: WindowSummary + SummaryCodec;

    /// An empty summary (the fold accumulator).
    fn empty(&self) -> Self::Summary;

    /// Summarises one arrival as a singleton bucket, returning the
    /// summary and the arrival's mass (weight / squared norm).
    fn singleton(&self, input: &Self::Input) -> (Self::Summary, f64);

    /// The summary family's a-priori loss over `mass` ingested weight
    /// (`mass/(ℓ+1)` for MG, `2·mass/ℓ` for FD).
    fn summary_loss(&self, mass: f64) -> f64;
}

/// Snapshot support for a [`WindowKind`]: a wire codec for the kind's
/// own configuration, from which, with the summaries' [`SummaryCodec`],
/// the generic [`SwCoordinator`]/[`SwAggregator`] codecs are assembled.
///
/// Only *sketch content* is snapshotted (see
/// [`cma_sketch::FrequentDirections::from_parts`]).
pub trait SnapshotKind: WindowKind + PartialEq {
    /// Encodes the kind's configuration (what [`WindowKind::empty`] and
    /// the error accounting need).
    fn encode_kind(&self, out: &mut Vec<u8>);

    /// Decodes a kind configuration. `None` on malformed bytes.
    fn decode_kind(r: &mut WireReader<'_>) -> Option<Self>;

    /// The kind `summary` is shaped for. A decoded bucket must be shaped
    /// for its node's kind: summaries of two shapes decode alone but
    /// panic at their first merge.
    fn kind_of(summary: &Self::Summary) -> Self;

    /// The payload width `d` the kind's summaries are shaped for, if
    /// they have one ([`WireCodec::width`]).
    fn width(&self) -> Option<usize> {
        None
    }
}

/// Encodes an exponential histogram: shape, clock, then every live
/// bucket (`[oldest, newest]`, mass, summary). Summaries are written
/// [settled](WindowSummary::settled), so a root that merges with
/// deferral encodes to the shape an eager histogram would hold.
fn put_hist<K: SnapshotKind>(out: &mut Vec<u8>, hist: &ExpHistogram<K::Summary>) {
    put_u64(out, hist.window());
    put_usize(out, hist.per_level());
    put_u64(out, hist.now());
    put_usize(out, hist.bucket_count());
    for b in hist.buckets() {
        put_u64(out, b.oldest);
        put_u64(out, b.newest);
        put_f64(out, b.mass);
        b.summary.settled().put_summary(out);
    }
}

/// Decodes [`put_hist`]'s output. Re-inserting an already-compacted
/// bucket list is a structural no-op, so the restored histogram is
/// bucket-for-bucket identical to the captured one. A bucket whose mass
/// is negative or non-finite, or whose `oldest > newest`, fails the
/// decode, and so does one not shaped for `kind` ([`SnapshotKind::kind_of`];
/// with no `kind`, as on an aggregator, for the first bucket's).
fn read_hist<K: SnapshotKind>(
    r: &mut WireReader<'_>,
    mut kind: Option<K>,
) -> Option<ExpHistogram<K::Summary>> {
    let window = r.u64()?;
    let per_level = r.usize()?;
    if window == 0 || per_level == 0 {
        return None;
    }
    let now = r.u64()?;
    let n = r.usize()?;
    let mut hist = ExpHistogram::new(window, per_level);
    hist.advance(now);
    let mut buckets = Vec::with_capacity(r.capacity_for(n));
    for _ in 0..n {
        let (oldest, newest, mass) = read_bucket_head(r)?;
        let summary = <K::Summary as SummaryCodec>::read_summary(r)?;
        if *kind.get_or_insert_with(|| K::kind_of(&summary)) != K::kind_of(&summary) {
            return None;
        }
        buckets.push(WinBucket {
            summary,
            mass,
            oldest,
            newest,
        });
    }
    hist.insert_buckets(buckets);
    Some(hist)
}

/// Site → coordinator message: a drained set of whole histogram buckets
/// plus the sender's clock high-water (`latest`), which lets every
/// receiver on the path expire state even when its own subtree is
/// quiet.
#[derive(Debug, Clone)]
pub struct SwMsg<S> {
    /// The shipped buckets, oldest first.
    pub buckets: Vec<WinBucket<S>>,
    /// The sender's clock (one past its newest observed global index).
    pub latest: u64,
}

impl<S> SwMsg<S> {
    /// Total mass carried by the message.
    pub fn mass(&self) -> f64 {
        self.buckets.iter().map(|b| b.mass).sum()
    }
}

impl<S: SummaryCodec> MessageCost for SwMsg<S> {
    /// One unit for the clock scalar, plus each bucket's elements and
    /// one for its mass/age tag.
    fn cost(&self) -> u64 {
        1 + self
            .buckets
            .iter()
            .map(|b| b.summary.elements() + 1)
            .sum::<u64>()
    }

    /// Exact size of the [`crate::wire`] encoding.
    fn wire_bytes(&self) -> u64 {
        self.encoded_len()
    }

    /// A lost message loses all its buckets' window mass.
    fn mass(&self) -> f64 {
        SwMsg::mass(self)
    }
}

/// Shared deployment knobs of the sliding-window protocols.
#[derive(Debug, Clone)]
pub struct SwParams {
    /// Number of sites `m ≥ 1`.
    pub sites: usize,
    /// Withholding budget `ε ∈ (0, 1)`: pending window mass across all
    /// `m + I` nodes stays below `ε·Ŵ_peak`.
    pub epsilon: f64,
    /// Window length `W` in (global) arrivals.
    pub window: u64,
    /// Histogram branching `r`: buckets per mass level before the two
    /// oldest merge. Straddling error shrinks like `mass/r`.
    pub per_level: usize,
    /// Broadcast refresh factor `θ`: the coordinator re-broadcasts `Ŵ`
    /// when its window-mass estimate drifts by `1 + θ` either way.
    pub theta: f64,
}

impl SwParams {
    /// Creates parameters with `per_level = 3` and `θ = 0.25` defaults.
    ///
    /// # Panics
    /// Panics unless `m ≥ 1`, `0 < ε < 1` and `window ≥ 1`.
    pub fn new(sites: usize, epsilon: f64, window: u64) -> Self {
        assert!(sites >= 1, "SwParams: need at least one site");
        assert!(
            epsilon > 0.0 && epsilon < 1.0,
            "SwParams: epsilon must be in (0, 1), got {epsilon}"
        );
        assert!(window >= 1, "SwParams: window must be positive");
        SwParams {
            sites,
            epsilon,
            window,
            per_level: 3,
            theta: 0.25,
        }
    }

    /// Builder-style histogram-branching override.
    ///
    /// # Panics
    /// Panics if `r == 0`.
    pub fn with_per_level(mut self, r: usize) -> Self {
        assert!(r >= 1, "SwParams: per_level must be positive");
        self.per_level = r;
        self
    }

    /// Builder-style broadcast-refresh override.
    ///
    /// # Panics
    /// Panics unless `θ > 0`.
    pub fn with_theta(mut self, theta: f64) -> Self {
        assert!(theta > 0.0, "SwParams: theta must be positive");
        self.theta = theta;
        self
    }

    /// Leaf flush threshold as a fraction of `Ŵ`: `ε/m` in a star,
    /// `ε/2m` in a tree (the other half of the withholding budget goes
    /// to the interior nodes — the PR 2 split).
    fn site_tau_frac(&self, topology: Topology) -> f64 {
        let m = self.sites as f64;
        if topology.plan(self.sites).internal_levels() == 0 {
            self.epsilon / m
        } else {
            self.epsilon / (2.0 * m)
        }
    }
}

/// The certified error of a window query, decomposed into its three
/// sources. Overcount is bounded by `straddle` alone; undercount by
/// `summary_loss + withheld`; [`WindowErrorBound::total`] bounds the
/// absolute error either way.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WindowErrorBound {
    /// The mergeable summary's own loss over the ingested mass.
    pub summary_loss: f64,
    /// Expired-but-counted mass in buckets straddling the window
    /// boundary (overcount side).
    pub straddle: f64,
    /// Budgeted pending mass at the `m + I` withholding nodes
    /// (undercount side): `ε · Ŵ_peak`.
    pub withheld: f64,
}

impl WindowErrorBound {
    /// Bound on the absolute query error from any single side.
    pub fn total(&self) -> f64 {
        self.summary_loss + self.straddle + self.withheld
    }
}

/// Leaf of a distributed sliding-window deployment: keeps pending
/// arrivals in a local exponential histogram and flushes **whole
/// buckets** once the pending mass reaches its budget share
/// `τ = tau_frac · Ŵ`.
#[derive(Debug, Clone)]
pub struct SwSite<K: WindowKind> {
    kind: K,
    hist: ExpHistogram<K::Summary>,
    tau_frac: f64,
    w_hat: f64,
}

impl<K: WindowKind> SwSite<K> {
    fn new(kind: K, params: &SwParams, tau_frac: f64) -> Self {
        SwSite {
            kind,
            hist: ExpHistogram::new(params.window, params.per_level),
            tau_frac,
            w_hat: 1.0,
        }
    }

    /// Current flush threshold `τ`.
    fn tau(&self) -> f64 {
        self.tau_frac * self.w_hat
    }

    /// Mass currently pending (not yet shipped).
    pub fn pending_mass(&self) -> f64 {
        self.hist.mass()
    }

    /// The site's clock high-water.
    pub fn clock(&self) -> u64 {
        self.hist.now()
    }
}

impl<K: WindowKind> Site for SwSite<K> {
    type Input = Stamped<K::Input>;
    type UpMsg = SwMsg<K::Summary>;
    type Broadcast = f64;

    fn observe(&mut self, (t, x): Stamped<K::Input>, out: &mut Vec<SwMsg<K::Summary>>) {
        let (summary, mass) = self.kind.singleton(&x);
        self.hist.observe_at(t, summary, mass);
        if self.hist.mass() >= self.tau() {
            out.push(SwMsg {
                latest: self.hist.now(),
                buckets: self.hist.drain(),
            });
        }
    }

    /// Batched arrivals fold into the pending histogram in one tight
    /// loop with `τ` hoisted out of it — `Ŵ` only changes on a
    /// broadcast, which can only arrive after this site pauses with a
    /// flushed message, so flush points are identical to per-item
    /// execution.
    fn observe_batch(
        &mut self,
        inputs: impl IntoIterator<Item = Stamped<K::Input>>,
        out: &mut Vec<SwMsg<K::Summary>>,
    ) {
        let tau = self.tau();
        for (t, x) in inputs {
            let (summary, mass) = self.kind.singleton(&x);
            self.hist.observe_at(t, summary, mass);
            if self.hist.mass() >= tau {
                out.push(SwMsg {
                    latest: self.hist.now(),
                    buckets: self.hist.drain(),
                });
                return; // pause-on-message
            }
        }
    }

    fn on_broadcast(&mut self, w_hat: &f64) {
        self.w_hat = *w_hat;
    }
}

/// Interior node of a sliding-window tree deployment: re-ingests child
/// buckets into its own histogram (same-level buckets coalesce via the
/// summary merge, dead buckets expire on arrival) and holds the merged
/// partial until it reaches this node's share of the withholding
/// budget.
#[derive(Debug, Clone)]
pub struct SwAggregator<K: WindowKind> {
    hist: ExpHistogram<K::Summary>,
    hold_frac: f64,
    w_hat: f64,
    /// Representative origin for the merged partial (the window
    /// coordinator ignores origins; any contributing leaf works).
    rep: SiteId,
}

impl<K: WindowKind> SwAggregator<K> {
    /// Mass currently held (pending, not yet forwarded).
    pub fn pending_mass(&self) -> f64 {
        self.hist.mass()
    }

    /// Live buckets currently held.
    pub fn bucket_count(&self) -> usize {
        self.hist.bucket_count()
    }
}

impl<K: WindowKind> Aggregator for SwAggregator<K> {
    type UpMsg = SwMsg<K::Summary>;
    type Broadcast = f64;

    fn absorb(&mut self, from: SiteId, msg: SwMsg<K::Summary>) {
        if self.hist.bucket_count() == 0 {
            self.rep = from;
        }
        // The child's clock expires held buckets even if this node's
        // other children are quiet.
        self.hist.advance(msg.latest);
        self.hist.insert_buckets(msg.buckets);
    }

    fn flush(&mut self, out: &mut Vec<(SiteId, SwMsg<K::Summary>)>) {
        if self.hist.bucket_count() > 0 && self.hist.mass() >= self.hold_frac * self.w_hat {
            out.push((
                self.rep,
                SwMsg {
                    latest: self.hist.now(),
                    buckets: self.hist.drain(),
                },
            ));
        }
    }

    fn on_broadcast(&mut self, w_hat: &f64) {
        self.w_hat = *w_hat;
    }
}

impl<K: WindowKind> MigratableAggregator for SwAggregator<K> {
    /// Ships every held bucket (with this node's clock, so the receiver
    /// expires them correctly) regardless of the hold threshold.
    fn split_for_migration(&mut self, out: &mut Vec<(SiteId, SwMsg<K::Summary>)>) {
        if self.hist.bucket_count() > 0 {
            out.push((
                self.rep,
                SwMsg {
                    latest: self.hist.now(),
                    buckets: self.hist.drain(),
                },
            ));
        }
    }
}

/// Root of a sliding-window deployment: the global exponential
/// histogram, the `Ŵ` broadcast policy, and the certified window
/// queries.
#[derive(Debug, Clone)]
pub struct SwCoordinator<K: WindowKind> {
    kind: K,
    hist: ExpHistogram<K::Summary>,
    /// Last broadcast window-mass estimate.
    w_hat: f64,
    /// Largest `Ŵ` ever broadcast — what the withheld bound is stated
    /// against, since a node may hold against a stale larger `Ŵ`.
    w_peak: f64,
    theta: f64,
    /// Total withholding budget `ε` across the `m + I` nodes.
    hold_budget: f64,
    /// Window mass the network may have kept from us (dropped or
    /// still-in-flight up-messages), charged via
    /// [`SwCoordinator::charge_faults`]. Extends the withheld
    /// (undercount) term.
    fault_undercount: f64,
    /// Window mass the network may have delivered twice, charged via
    /// [`SwCoordinator::charge_faults`]. Extends the straddle
    /// (overcount) term.
    fault_overcount: f64,
}

impl<K: WindowKind> SwCoordinator<K> {
    fn new(kind: K, params: &SwParams) -> Self {
        SwCoordinator {
            kind,
            hist: ExpHistogram::new(params.window, params.per_level),
            w_hat: 1.0,
            w_peak: 1.0,
            theta: params.theta,
            hold_budget: params.epsilon,
            fault_undercount: 0.0,
            fault_overcount: 0.0,
        }
    }

    /// The coordinator's clock high-water (one past the newest global
    /// index it has heard of).
    pub fn clock(&self) -> u64 {
        self.hist.now()
    }

    /// Current window-mass estimate (mass of the live histogram).
    pub fn window_mass(&self) -> f64 {
        self.hist.mass()
    }

    /// Last broadcast `Ŵ`.
    pub fn w_hat(&self) -> f64 {
        self.w_hat
    }

    /// Live buckets in the global histogram.
    pub fn bucket_count(&self) -> usize {
        self.hist.bucket_count()
    }

    /// The merged window summary for a query at clock `t_now` (arrivals
    /// observed globally). Buckets fully expired at `t_now` are skipped
    /// even if the coordinator's own clock lags behind. The root folds
    /// once per state ([`ExpHistogram::folded_at`]): repeat queries until
    /// the next receive borrow that fold.
    pub fn window_summary_at(&self, t_now: u64) -> Cow<'_, K::Summary> {
        self.hist.folded_at(t_now, self.kind.empty())
    }

    /// Charges network faults to the certified bound: `undercount` is
    /// window mass the network dropped or still holds in flight (a
    /// [`cma_stream::FaultStats::undercount_mass`]), `overcount` is
    /// mass delivered twice ([`cma_stream::FaultStats::overcount_mass`]).
    /// Both are conservative: the mass may already have expired from
    /// the window, so charging it only widens the bound.
    pub fn charge_faults(&mut self, undercount: f64, overcount: f64) {
        assert!(
            undercount >= 0.0 && overcount >= 0.0,
            "SwCoordinator::charge_faults: fault mass must be non-negative"
        );
        self.fault_undercount += undercount;
        self.fault_overcount += overcount;
    }

    /// The certified error of a query at clock `t_now`, decomposed into
    /// summary loss, straddling (overcount) and withheld (undercount)
    /// parts. Network faults charged via
    /// [`SwCoordinator::charge_faults`] widen the matching side:
    /// dropped/in-flight mass is indistinguishable from withheld mass,
    /// duplicated mass from straddling mass.
    pub fn error_bound_at(&self, t_now: u64) -> WindowErrorBound {
        WindowErrorBound {
            summary_loss: self.kind.summary_loss(self.hist.mass_at(t_now)),
            straddle: self.hist.straddle_mass_at(t_now) + self.fault_overcount,
            withheld: self.hold_budget * self.w_peak + self.fault_undercount,
        }
    }
}

impl<K: WindowKind> Coordinator for SwCoordinator<K> {
    type UpMsg = SwMsg<K::Summary>;
    type Broadcast = f64;

    /// The root never ships its buckets, so it merges them with
    /// deferral ([`ExpHistogram::insert_buckets_deferred`]): the level
    /// bookkeeping — and with it `Ŵ`, every broadcast and expiry — is
    /// the eager histogram's; only the summaries settle later.
    fn receive(&mut self, _from: SiteId, msg: SwMsg<K::Summary>, out: &mut Vec<f64>) {
        self.hist.advance(msg.latest);
        self.hist.insert_buckets_deferred(msg.buckets);
        // Window mass is not monotone: refresh Ŵ on drift in either
        // direction, so thresholds track expiry as well as growth.
        let w = self.hist.mass().max(1.0);
        if w > (1.0 + self.theta) * self.w_hat || w < self.w_hat / (1.0 + self.theta) {
            self.w_hat = w;
            self.w_peak = self.w_peak.max(w);
            out.push(w);
        }
    }
}

/// Leaf share of the withholding budget as a fraction of `ε`: the
/// whole `ε/m` in a star, half of it in a tree
/// ([`SwParams::site_tau_frac`], restated over a [`Membership`]).
fn sw_site_frac(mem: &Membership) -> f64 {
    if mem.flat {
        1.0 / mem.sites as f64
    } else {
        0.5 / mem.sites as f64
    }
}

/// Interior share of the withholding budget as a fraction of `ε`:
/// `covered/(2·L·m)` — this node's slice of the interior half
/// ([`make_aggregator`], restated over a [`Membership`]).
fn sw_interior_frac(mem: &Membership, covered: usize) -> f64 {
    covered as f64 / (2.0 * mem.levels.max(1) as f64 * mem.sites as f64)
}

impl<K: WindowKind> ChurnBudget for SwSite<K> {
    fn rebudget(&mut self, share: &BudgetShare) {
        self.tau_frac *= sw_site_frac(&share.next) / sw_site_frac(&share.prev);
    }
}

impl<K: WindowKind> ChurnSite for SwSite<K> {
    /// Ships every pending bucket (with this site's clock) regardless of
    /// the flush threshold, leaving the histogram empty.
    fn depart(&mut self, out: &mut Vec<SwMsg<K::Summary>>) {
        if self.hist.bucket_count() > 0 {
            out.push(SwMsg {
                latest: self.hist.now(),
                buckets: self.hist.drain(),
            });
        }
    }
}

impl<K: WindowKind> ChurnBudget for SwAggregator<K> {
    fn rebudget(&mut self, share: &BudgetShare) {
        self.hold_frac *= sw_interior_frac(&share.next, share.covered_next)
            / sw_interior_frac(&share.prev, share.covered_prev);
    }
}

impl<K: WindowKind> ChurnBudget for SwCoordinator<K> {}

impl<K: WindowKind> ChurnCoordinator for SwCoordinator<K> {
    fn current_broadcast(&self) -> Option<f64> {
        (self.w_hat > 1.0).then_some(self.w_hat)
    }

    /// Settles every bucket, so the live root is exactly what its
    /// (settled) encoding restores to.
    fn settle_for_snapshot(&mut self) {
        self.hist.settle();
    }
}

/// `kind, histogram, Ŵ, Ŵ_peak, θ, ε, fault undercount, fault
/// overcount`. The decoder refuses states no deployment reaches — `Ŵ` or
/// `Ŵ_peak` below 1 or non-finite, `θ ≤ 0`, `ε` outside `(0, 1)`, a
/// negative or non-finite fault term — since each would void a term of
/// [`SwCoordinator::error_bound_at`] (a NaN term passes every
/// `gap > bound` check), and a bucket not shaped for the decoded kind,
/// which would panic the first query.
impl<K: SnapshotKind> WireCodec for SwCoordinator<K> {
    fn encode(&self, out: &mut Vec<u8>) {
        self.kind.encode_kind(out);
        put_hist::<K>(out, &self.hist);
        put_f64(out, self.w_hat);
        put_f64(out, self.w_peak);
        put_f64(out, self.theta);
        put_f64(out, self.hold_budget);
        put_f64(out, self.fault_undercount);
        put_f64(out, self.fault_overcount);
    }

    fn decode(r: &mut WireReader<'_>) -> Option<Self> {
        let kind = K::decode_kind(r)?;
        let hist = read_hist(r, Some(kind.clone()))?;
        let w_hat = read_w_hat(r)?;
        let w_peak = read_w_hat(r)?;
        let theta = r.f64().filter(|t| t.is_finite() && *t > 0.0)?;
        let hold_budget = read_fraction(r)?;
        let fault_undercount = read_mass(r)?;
        let fault_overcount = read_mass(r)?;
        Some(SwCoordinator {
            kind,
            hist,
            w_hat,
            w_peak,
            theta,
            hold_budget,
            fault_undercount,
            fault_overcount,
        })
    }

    fn width(&self) -> Option<usize> {
        self.kind.width()
    }
}

/// `histogram, hold fraction, Ŵ, rep`. The decoder refuses a negative or
/// non-finite hold fraction, a `Ŵ` below 1 or non-finite, and buckets of
/// two shapes. The node encodes no kind, so its width is its buckets'.
impl<K: SnapshotKind> WireCodec for SwAggregator<K> {
    fn encode(&self, out: &mut Vec<u8>) {
        put_hist::<K>(out, &self.hist);
        put_f64(out, self.hold_frac);
        put_f64(out, self.w_hat);
        put_usize(out, self.rep);
    }

    fn decode(r: &mut WireReader<'_>) -> Option<Self> {
        let hist = read_hist::<K>(r, None)?;
        let hold_frac = r.f64().filter(|f| f.is_finite() && *f >= 0.0)?;
        let w_hat = read_w_hat(r)?;
        let rep = r.usize()?;
        Some(SwAggregator {
            hist,
            hold_frac,
            w_hat,
            rep,
        })
    }

    fn width(&self) -> Option<usize> {
        let first = self.hist.buckets().first()?;
        K::kind_of(&first.summary).width()
    }
}

/// A windowed deployment's configuration: the shared knobs, and the
/// bucket summary the config type picks.
pub trait WindowConfig {
    /// The bucket summary the deployment runs.
    type Kind: WindowKind;
    /// Shared sliding-window knobs.
    fn params(&self) -> &SwParams;
    /// The kind, with its summary's size.
    fn kind(&self) -> Self::Kind;
}

fn window_sites<C: WindowConfig>(cfg: &C, topology: Topology) -> Vec<SwSite<C::Kind>> {
    let (kind, params) = (cfg.kind(), cfg.params());
    let tau = params.site_tau_frac(topology);
    (0..params.sites)
        .map(|_| SwSite::new(kind.clone(), params, tau))
        .collect()
}

/// A windowed deployment over an aggregation topology.
pub type SwTree<K> = Runner<SwSite<K>, SwCoordinator<K>, SwAggregator<K>>;

/// Builds a flat-star windowed deployment.
pub fn deploy<C: WindowConfig>(cfg: &C) -> Runner<SwSite<C::Kind>, SwCoordinator<C::Kind>> {
    let coordinator = SwCoordinator::new(cfg.kind(), cfg.params());
    Runner::new(window_sites(cfg, Topology::Star), coordinator)
}

/// Builds a windowed deployment over an arbitrary aggregation topology;
/// with no interior nodes (star, or `fanout ≥ m`) this is *identical* to
/// [`deploy`].
pub fn deploy_topology<C: WindowConfig>(cfg: &C, topology: Topology) -> SwTree<C::Kind> {
    Runner::with_topology(
        window_sites(cfg, topology),
        SwCoordinator::new(cfg.kind(), cfg.params()),
        topology,
        make_aggregator(cfg, topology),
    )
}

/// Aggregator factory matching [`deploy_topology`]'s budget split — the
/// entry point for driving a tree deployment through
/// [`engine::run_partitioned_topology_parts`]: each interior node gets
/// `(ε/2L)·(c/m)` of `Ŵ` — its slice of the interior half of the
/// withholding budget, proportional to the `c` leaves it covers over
/// `L` interior levels.
pub fn make_aggregator<C: WindowConfig>(
    cfg: &C,
    topology: Topology,
) -> impl FnMut(AggNode) -> SwAggregator<C::Kind> {
    let params = cfg.params();
    let plan = topology.plan(params.sites);
    let levels = plan.internal_levels().max(1) as f64;
    let m = params.sites as f64;
    let eps = params.epsilon;
    let window = params.window;
    let per_level = params.per_level;
    move |node| SwAggregator {
        hist: ExpHistogram::new(window, per_level),
        hold_frac: eps / (2.0 * levels) * (node.leaves as f64 / m),
        w_hat: 1.0,
        rep: 0,
    }
}

/// Runs a complete windowed deployment — pre-partitioned per-site
/// streams of stamped arrivals — through the pooled execution engine
/// (`cma_stream::runner::engine`). The deployment and budget split are
/// identical to [`deploy_topology`]; the executor only decides
/// scheduling: a bounded worker pool ([`Executor::Pool`], thread count
/// `workers + 1` regardless of `m`) or the deterministic calling-thread
/// reference ([`Executor::Inline`]). Returns the finished sites, the
/// interior aggregators (still holding their sub-threshold buckets), the
/// drained coordinator and the merged stats.
pub fn run_engine<C, K>(
    cfg: &C,
    inputs: Vec<Vec<Stamped<K::Input>>>,
    tcfg: &ThreadedConfig,
    executor: Executor,
    topology: Topology,
) -> TreeRunParts<SwSite<K>, SwCoordinator<K>, SwAggregator<K>>
where
    C: WindowConfig<Kind = K>,
    K: WindowKind + Send,
    K::Input: Send,
    K::Summary: Send,
{
    let (sites, coordinator, _) = deploy_topology(cfg, topology).into_parts();
    engine::run_partitioned_topology_parts(
        sites,
        coordinator,
        inputs,
        tcfg,
        executor,
        topology,
        make_aggregator(cfg, topology),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use cma_sketch::MgSummary;

    #[test]
    fn params_validate() {
        let p = SwParams::new(4, 0.1, 100).with_per_level(2).with_theta(0.5);
        assert_eq!(p.per_level, 2);
        assert_eq!(p.theta, 0.5);
        // Star gives leaves the whole budget; a tree gives them half.
        assert!(p.site_tau_frac(Topology::Star) > p.site_tau_frac(Topology::Tree { fanout: 2 }));
    }

    #[test]
    #[should_panic(expected = "window must be positive")]
    fn rejects_zero_window() {
        SwParams::new(2, 0.1, 0);
    }

    #[test]
    fn error_bound_totals_components() {
        let b = WindowErrorBound {
            summary_loss: 1.0,
            straddle: 2.0,
            withheld: 3.0,
        };
        assert_eq!(b.total(), 6.0);
    }

    #[test]
    fn msg_cost_counts_buckets_and_clock() {
        let mut mg = MgSummary::new(4);
        mg.update(1, 2.0);
        mg.update(2, 3.0);
        let msg = SwMsg {
            buckets: vec![WinBucket::singleton(0, mg.clone(), 5.0)],
            latest: 1,
        };
        // 2 counters + bucket tag + clock scalar.
        assert_eq!(msg.cost(), 4);
        assert_eq!(msg.mass(), 5.0);
    }
}
