//! Sliding-window sketching — the paper's first listed open problem
//! ("interesting open problems include … extending our results to the
//! sliding window model").
//!
//! The machinery is an **exponential histogram over mergeable summaries**
//! (the construction later formalised for matrices by Wei et al.,
//! SIGMOD 2016):
//!
//! * arrivals enter singleton buckets; when more than `r` buckets share a
//!   mass level (`[2ⁱ, 2ⁱ⁺¹)` of summarised weight), the two oldest are
//!   merged — so there are `O(r · log(βW))` buckets;
//! * buckets whose *newest* item has left the window are dropped whole;
//!   the remaining buckets whose *oldest* item predates the window
//!   boundary **straddle** it — they still count items that have already
//!   expired, and their total mass (`≈ mass/r` thanks to the level
//!   structure) is the window-boundary error term.
//!
//! Querying merges all live buckets in **one shot**
//! ([`ExpHistogram::fold_live_at`] → [`WindowSummary::fold_settled`]):
//! by default every summary is merged in and the result settled once
//! ([`WindowSummary::settle`]). Frequent Directions sums the buckets'
//! Grams instead ([`FrequentDirections::fold_settled`]) — one
//! eigensolve per fold; a Gram-held bucket hands over the Gram it
//! holds, and of the row-held buckets only those changed since the last
//! fold are re-Grammed. A histogram folds once per state
//! ([`ExpHistogram::folded_at`]): it keeps its last fold until its next
//! change, so repeat queries between two changes borrow it. By
//! mergeability the folded sketch's loss still
//! telescopes to at most `2·mass/ℓ`. The error against the true window
//! content has two parts: the summaries' own loss (inherited from the
//! mergeable summary) and the straddling mass. Two instantiations are
//! provided:
//!
//! * [`SwFd`] — matrix tracking over the last `W` rows (buckets are
//!   Frequent Directions sketches);
//! * [`SwMg`] — weighted heavy hitters over the last `W` items (buckets
//!   are Misra–Gries summaries).
//!
//! # Distributed use
//!
//! Since PR 4 the histogram is the building block of the *distributed*
//! sliding-window protocols (`cma-core`'s `window` module): buckets are
//! a public, shippable unit ([`WinBucket`], carrying its summary, mass
//! and `[oldest, newest]` arrival range), sites stamp arrivals with a
//! global stream index ([`ExpHistogram::observe_at`]), drain whole
//! buckets into messages ([`ExpHistogram::drain`]), and interior
//! aggregators / the coordinator re-ingest them
//! ([`ExpHistogram::insert_bucket`] — which expires dead buckets on
//! arrival and re-compacts same-level buckets via
//! [`WindowSummary::merge_from`]). Tracking `oldest` per bucket is what
//! keeps the straddling-mass bound *sound* after cross-site merges:
//! age ranges from different sites interleave, so more than one bucket
//! can straddle the boundary, and [`ExpHistogram::straddle_mass`] sums
//! them all.
//!
//! # Deferred merges at the root
//!
//! A node that ships its buckets must keep them settled (an FD bucket
//! under `ℓ` rows), so sites and aggregators merge eagerly
//! ([`ExpHistogram::insert_buckets`]). The coordinator never ships its
//! buckets; it ingests with [`ExpHistogram::insert_buckets_deferred`],
//! which runs the same level compaction — same masses, same
//! `[oldest, newest]` ranges, so levels, expiry and straddling are
//! bit-identical — but merges summaries with
//! [`WindowSummary::merge_deferred`]. For FD the rule is one by shape
//! ([`FrequentDirections::merge_deferred`]): with `d < 2ℓ` a bucket
//! trades its rows for their exact `d × d` Gram once they reach `d`
//! rows, and later merges add Grams — no eigensolve on ingest; with
//! `d ≥ 2ℓ` it is the double-buffered sketch, whose rows stack up to
//! `2ℓ` and only then shrink to `⌈ℓ/2⌉ − 1` rows. Neither is a knob.
//! Whoever needs the settled form asks for it: a fold settles its
//! accumulator, an encoder writes [`WindowSummary::settled`] copies, and
//! [`ExpHistogram::settle`] settles every bucket in place (before a
//! snapshot, so the live root is exactly what its encoding restores
//! to). Misra–Gries buckets keep the trait's eager defaults.

use crate::frequent_directions::FrequentDirections;
use crate::misra_gries::MgSummary;
use crate::Item;
use cma_linalg::Matrix;
use std::borrow::Cow;
use std::collections::BTreeMap;
use std::sync::OnceLock;

/// A summary that can absorb another of its kind — the only capability
/// the histogram needs from its buckets.
///
/// # Example
///
/// Any mergeable accumulator qualifies; a plain sum makes the histogram
/// a windowed counter:
///
/// ```
/// use cma_sketch::sliding_window::{ExpHistogram, WindowSummary};
///
/// #[derive(Clone, Debug)]
/// struct Count(f64);
/// impl WindowSummary for Count {
///     fn merge_from(&mut self, other: &Self) {
///         self.0 += other.0;
///     }
/// }
///
/// let mut h: ExpHistogram<Count> = ExpHistogram::new(10, 2);
/// for _ in 0..100 {
///     h.update(Count(1.0), 1.0);
/// }
/// let mut total = Count(0.0);
/// h.fold_into(&mut total);
/// // The fold covers the 10-item window, over-counting by at most the
/// // straddling mass:
/// assert!(total.0 >= 10.0);
/// assert!(total.0 <= 10.0 + h.straddle_mass());
/// ```
pub trait WindowSummary: Clone {
    /// Folds `other` into `self`, preserving the summary's guarantee
    /// with respect to the union of both inputs.
    fn merge_from(&mut self, other: &Self);

    /// [`WindowSummary::merge_from`] for a holder that never ships the
    /// result (the root of a distributed deployment): the summary may
    /// grow past its settled size, within a fixed constant, to amortise
    /// its compression. The default merges eagerly.
    fn merge_deferred(&mut self, other: &Self) {
        self.merge_from(other);
    }

    /// The summary at its settled size (what [`WindowSummary::merge_from`]
    /// leaves): borrowed when already there. The default is always
    /// settled.
    fn settled(&self) -> Cow<'_, Self> {
        Cow::Borrowed(self)
    }

    /// [`WindowSummary::settled`] in place.
    fn settle(&mut self) {
        if let Cow::Owned(s) = self.settled() {
            *self = s;
        }
    }

    /// Folds every part into `self` in one shot and settles the result:
    /// what a window query asks of the live buckets. The default merges
    /// the parts in order and settles once.
    fn fold_settled<'a>(&mut self, parts: impl IntoIterator<Item = &'a Self>)
    where
        Self: 'a,
    {
        for p in parts {
            self.merge_from(p);
        }
        self.settle();
    }
}

/// Frequent Directions defers by holding the Gram of its rows at
/// `d < 2ℓ`, by double-buffering (rows stack up to `2ℓ` before a
/// shrink) at `d ≥ 2ℓ`; a settled sketch holds fewer than `ℓ` rows. Its
/// fold sums the parts' Grams instead of stacking their rows.
impl WindowSummary for FrequentDirections {
    fn merge_from(&mut self, other: &Self) {
        self.merge(other);
    }

    fn merge_deferred(&mut self, other: &Self) {
        FrequentDirections::merge_deferred(self, other);
    }

    fn settled(&self) -> Cow<'_, Self> {
        FrequentDirections::settled(self)
    }

    fn fold_settled<'a>(&mut self, parts: impl IntoIterator<Item = &'a Self>) {
        FrequentDirections::fold_settled(self, parts);
    }
}

impl WindowSummary for MgSummary {
    fn merge_from(&mut self, other: &Self) {
        self.merge(other);
    }
}

/// One histogram bucket: a summary over a contiguous range of arrivals,
/// tagged with the stream indices it covers.
///
/// This is the unit the distributed sliding-window protocols ship whole:
/// a site drains its pending buckets into a message, and aggregators /
/// the coordinator [`ExpHistogram::insert_bucket`] them — expiry and
/// same-level merging work on the receiving side exactly as they do
/// locally, because the bucket carries everything the receiver needs
/// (mass ⇒ level, `newest` ⇒ expiry, `oldest` ⇒ straddling).
#[derive(Debug, Clone)]
pub struct WinBucket<S> {
    /// Mergeable summary of the bucket's arrivals.
    pub summary: S,
    /// Weight summarised by this bucket.
    pub mass: f64,
    /// Stream index of the oldest arrival in the bucket. After merges
    /// this is the `min` over all merged inputs — the key to a sound
    /// straddling bound when age ranges from different sites interleave.
    pub oldest: u64,
    /// Stream index of the newest arrival in the bucket (`max` over
    /// merged inputs); the bucket expires whole when this leaves the
    /// window.
    pub newest: u64,
}

impl<S: WindowSummary> WinBucket<S> {
    /// A fresh bucket holding the single arrival at stream index `t`.
    pub fn singleton(t: u64, summary: S, mass: f64) -> Self {
        WinBucket {
            summary,
            mass,
            oldest: t,
            newest: t,
        }
    }

    /// Mass level of the bucket: `⌊log₂(mass)⌋` (clamped below at 0).
    /// Buckets of the same level are the merge candidates of the
    /// exponential-histogram invariant.
    pub fn level(&self) -> i32 {
        self.mass.max(1.0).log2().floor() as i32
    }

    /// Folds `other` into this bucket: summaries merge, masses add, the
    /// covered arrival range becomes the union `[min, max]`.
    pub fn absorb(&mut self, other: &WinBucket<S>) {
        self.absorb_with(other, S::merge_from);
    }

    fn absorb_with(&mut self, other: &WinBucket<S>, merge: fn(&mut S, &S)) {
        merge(&mut self.summary, &other.summary);
        self.mass += other.mass;
        self.oldest = self.oldest.min(other.oldest);
        self.newest = self.newest.max(other.newest);
    }
}

/// Exponential histogram over any [`WindowSummary`].
#[derive(Debug, Clone)]
pub struct ExpHistogram<S> {
    window: u64,
    per_level: usize,
    /// Live buckets, sorted by `newest` ascending (oldest first). Every
    /// change goes through [`ExpHistogram::buckets_mut`].
    buckets: Vec<WinBucket<S>>,
    /// Clock high-water: one past the newest stream index observed.
    t: u64,
    /// The last kept fold ([`ExpHistogram::folded_at`]) with the number
    /// of leading buckets it skipped; out of line, so a histogram that
    /// is never queried carries one pointer. Dropped by every change.
    folded: OnceLock<Box<(usize, S)>>,
}

impl<S: WindowSummary> ExpHistogram<S> {
    /// Creates a histogram over the last `window` arrivals with at most
    /// `per_level` buckets per mass level.
    ///
    /// # Panics
    /// Panics if `window == 0` or `per_level == 0`.
    pub fn new(window: u64, per_level: usize) -> Self {
        assert!(window >= 1, "ExpHistogram: window must be positive");
        assert!(per_level >= 1, "ExpHistogram: per_level must be positive");
        ExpHistogram {
            window,
            per_level,
            buckets: Vec::new(),
            t: 0,
            folded: OnceLock::new(),
        }
    }

    /// Window length in arrivals.
    pub fn window(&self) -> u64 {
        self.window
    }

    /// Histogram branching factor `r` (buckets allowed per mass level).
    pub fn per_level(&self) -> usize {
        self.per_level
    }

    /// The clock high-water: one past the newest stream index observed
    /// (equals the number of arrivals when indices are consecutive from
    /// zero, which is how the single-stream wrappers drive it).
    pub fn items_seen(&self) -> u64 {
        self.t
    }

    /// Alias of [`ExpHistogram::items_seen`] under its distributed-use
    /// name: the clock value messages carry as `latest`.
    pub fn now(&self) -> u64 {
        self.t
    }

    /// Number of live buckets (`O(per_level · log(mass range))`).
    pub fn bucket_count(&self) -> usize {
        self.buckets.len()
    }

    /// The live buckets, oldest first.
    pub fn buckets(&self) -> &[WinBucket<S>] {
        &self.buckets
    }

    /// Total mass currently summarised (window mass plus the straddling
    /// buckets' expired portion).
    pub fn mass(&self) -> f64 {
        self.buckets.iter().map(|b| b.mass).sum()
    }

    /// Mass of the straddling buckets — those still counting arrivals
    /// that have already left the window. This is the window-boundary
    /// error term. With single-stream input at most one bucket
    /// straddles; after cross-site bucket merges (distributed use) age
    /// ranges interleave and several can, which is why this sums over
    /// `oldest < horizon` instead of looking only at the oldest bucket.
    pub fn straddle_mass(&self) -> f64 {
        self.straddle_mass_at(self.t)
    }

    /// [`ExpHistogram::straddle_mass`] evaluated for a query at clock
    /// `t_now` (arrivals observed globally): the mass of buckets that
    /// are live at `t_now` but whose oldest arrival predates the window.
    pub fn straddle_mass_at(&self, t_now: u64) -> f64 {
        let h = t_now.saturating_sub(self.window);
        self.buckets
            .iter()
            .filter(|b| b.newest >= h && b.oldest < h)
            .map(|b| b.mass)
            .sum()
    }

    /// Total mass of buckets live for a query at clock `t_now`.
    pub fn mass_at(&self, t_now: u64) -> f64 {
        let h = t_now.saturating_sub(self.window);
        self.buckets
            .iter()
            .filter(|b| b.newest >= h)
            .map(|b| b.mass)
            .sum()
    }

    /// Absorbs one arrival summarised by `summary` with weight `mass`,
    /// stamped with the next local stream index. Zero-mass arrivals
    /// advance the clock without creating buckets.
    pub fn update(&mut self, summary: S, mass: f64) {
        let t = self.t;
        self.observe_at(t, summary, mass);
    }

    /// Absorbs one arrival stamped with an explicit (e.g. global) stream
    /// index `t` — the distributed entry point, where a site observes a
    /// subsequence of the global stream. Advances the clock to at least
    /// `t + 1` and expires buckets that have left the window.
    pub fn observe_at(&mut self, t: u64, summary: S, mass: f64) {
        debug_assert!(mass >= 0.0 && mass.is_finite());
        self.t = self.t.max(t + 1);
        self.expire();
        if mass == 0.0 {
            return;
        }
        self.insert_bucket(WinBucket::singleton(t, summary, mass));
    }

    /// Advances the clock to at least `t_now` (a clock value, i.e. one
    /// past a stream index) and expires dead buckets. Aggregation nodes
    /// call this with the `latest` stamp of each incoming message, so
    /// held partials expire even when the node's own subtree is quiet.
    pub fn advance(&mut self, t_now: u64) {
        self.t = self.t.max(t_now);
        self.expire();
    }

    /// Ingests one bucket (from a child node's drain), dropping it
    /// immediately if it is already dead at this histogram's clock, and
    /// re-compacting the level structure. Merged buckets keep the union
    /// of their `[oldest, newest]` ranges, so expiry and straddling stay
    /// sound on the receiving side.
    pub fn insert_bucket(&mut self, b: WinBucket<S>) {
        self.insert_buckets(std::iter::once(b));
    }

    /// Bulk [`ExpHistogram::insert_bucket`]: positions every bucket
    /// first and compacts once — what aggregation nodes use to ingest a
    /// whole message.
    pub fn insert_buckets(&mut self, buckets: impl IntoIterator<Item = WinBucket<S>>) {
        self.insert_with(buckets, S::merge_from);
    }

    /// [`ExpHistogram::insert_buckets`] for a histogram whose buckets are
    /// never shipped (the root of a distributed deployment): compaction
    /// merges with [`WindowSummary::merge_deferred`]. Masses and
    /// `[oldest, newest]` ranges — hence levels, expiry, straddling and
    /// every bound read from them — are exactly those of the eager
    /// histogram; only the summaries inside may sit unsettled until
    /// [`ExpHistogram::settle`] or a fold.
    pub fn insert_buckets_deferred(&mut self, buckets: impl IntoIterator<Item = WinBucket<S>>) {
        self.insert_with(buckets, S::merge_deferred);
    }

    fn insert_with(
        &mut self,
        buckets: impl IntoIterator<Item = WinBucket<S>>,
        merge: fn(&mut S, &S),
    ) {
        let h = self.horizon();
        let live = self.buckets_mut();
        for b in buckets {
            if b.newest < h {
                continue;
            }
            let pos = live.partition_point(|x| x.newest <= b.newest);
            live.insert(pos, b);
        }
        self.compact(merge);
    }

    /// Brings every bucket's summary to its settled size
    /// ([`WindowSummary::settle`]) — after deferred insertion, the state
    /// an eager histogram's encoding would carry.
    pub fn settle(&mut self) {
        for b in self.buckets_mut() {
            b.summary.settle();
        }
    }

    /// Removes and returns every live bucket (the clock is kept) — how a
    /// site or aggregator flushes its pending partial into one message.
    pub fn drain(&mut self) -> Vec<WinBucket<S>> {
        std::mem::take(self.buckets_mut())
    }

    /// The buckets for a change: the one way to mutate them, so a kept
    /// fold can never outlive the buckets it was computed from.
    fn buckets_mut(&mut self) -> &mut Vec<WinBucket<S>> {
        if self.folded.get().is_some() {
            self.drop_fold();
        }
        &mut self.buckets
    }

    /// Drops the kept fold: out of line, so the arrival path of a
    /// histogram that is never queried holds one load and one branch.
    #[cold]
    #[inline(never)]
    fn drop_fold(&mut self) {
        self.folded = OnceLock::new();
    }

    /// First stream index still inside the window.
    fn horizon(&self) -> u64 {
        self.t.saturating_sub(self.window)
    }

    /// Drops buckets whose newest arrival has left the window.
    fn expire(&mut self) {
        let h = self.horizon();
        self.buckets_mut().retain(|b| b.newest >= h);
    }

    /// Merges oldest same-level bucket pairs until every level holds at
    /// most `per_level` buckets. Levels are visited lowest-first
    /// (deterministically — a `BTreeMap`, not a `HashMap`, so two
    /// deployments compact identically and the topology-parity suites
    /// can compare executions message for message). The level census is
    /// taken once per call and updated per merge: a merge takes two
    /// buckets off its level and puts one back at the merged mass's.
    fn compact(&mut self, merge: fn(&mut S, &S)) {
        let per_level = self.per_level;
        let buckets = self.buckets_mut();
        let mut census: BTreeMap<i32, usize> = BTreeMap::new();
        for b in buckets.iter() {
            *census.entry(b.level()).or_insert(0) += 1;
        }
        while let Some(lvl) = census
            .iter()
            .find(|&(_, &c)| c > per_level)
            .map(|(&l, _)| l)
        {
            // The two oldest buckets of the overfull level (the vec is
            // age-ordered by `newest`).
            let mut idx = buckets
                .iter()
                .enumerate()
                .filter(|(_, b)| b.level() == lvl)
                .map(|(i, _)| i);
            let i = idx.next().expect("overfull level has buckets");
            let j = idx.next().expect("overfull level has a pair");
            let newer = buckets.remove(j);
            let mut older = buckets.remove(i);
            older.absorb_with(&newer, merge);
            *census.get_mut(&lvl).expect("census holds the level") -= 2;
            *census.entry(older.level()).or_insert(0) += 1;
            // Re-insert at the merged bucket's age position: its `newest`
            // is the max of the pair.
            let pos = buckets.partition_point(|x| x.newest <= older.newest);
            buckets.insert(pos, older);
        }
    }

    /// Merges all live buckets into `acc` (oldest first) in one shot:
    /// [`WindowSummary::fold_settled`] over their summaries — for
    /// Frequent Directions one eigensolve of the summed bucket Grams.
    pub fn fold_into(&self, acc: &mut S) {
        self.fold(0, acc);
    }

    /// Merges the buckets live for a query at clock `t_now` into `acc`
    /// (oldest first, one shot as [`ExpHistogram::fold_into`]), skipping
    /// buckets that are fully expired at `t_now` even if this
    /// histogram's own clock has not caught up.
    pub fn fold_live_at(&self, t_now: u64, acc: &mut S) {
        self.fold(self.expired_at(t_now), acc);
    }

    /// [`ExpHistogram::fold_live_at`] into `empty`, kept until the
    /// histogram next changes (every `&mut` method drops it): a repeat
    /// query between two changes borrows the kept fold instead of
    /// folding again. The fold is keyed by the number of leading buckets
    /// fully expired at `t_now`, so clocks that see the same live buckets
    /// share it; a query that skips another number folds on its own and
    /// leaves the kept fold as it is. `empty` must be the empty summary
    /// at every call, since a kept fold answers for any of them.
    pub fn folded_at(&self, t_now: u64, empty: S) -> Cow<'_, S> {
        let skip = self.expired_at(t_now);
        let fold = |mut acc: S| {
            self.fold(skip, &mut acc);
            acc
        };
        match self.folded.get() {
            Some(kept) if kept.0 == skip => Cow::Borrowed(&kept.1),
            Some(_) => Cow::Owned(fold(empty)),
            None => {
                // Another reader may keep its fold between the check and
                // here; this one is then returned owned, unless they
                // skip the same buckets.
                let mine = self.folded.set(Box::new((skip, fold(empty)))).err();
                let kept = self.folded.get().expect("a fold was just kept");
                match mine {
                    Some(mine) if kept.0 != skip => Cow::Owned(mine.1),
                    _ => Cow::Borrowed(&kept.1),
                }
            }
        }
    }

    /// How many leading buckets are fully expired at clock `t_now`: the
    /// buckets are sorted by `newest`, so the expired ones lead.
    fn expired_at(&self, t_now: u64) -> usize {
        let h = t_now.saturating_sub(self.window);
        self.buckets.partition_point(|b| b.newest < h)
    }

    fn fold(&self, skip: usize, acc: &mut S) {
        acc.fold_settled(self.buckets[skip..].iter().map(|b| &b.summary));
    }
}

/// Sliding-window Frequent Directions over the last `window` rows.
///
/// # Example
///
/// A windowed matrix sketch forgets rows that leave the window:
///
/// ```
/// use cma_sketch::SwFd;
///
/// let mut sw = SwFd::new(4, 12, 100, 2); // d=4, ℓ=12, window=100, r=2
/// // 200 rows along e₀, then a full window of rows along e₁:
/// for _ in 0..200 {
///     sw.update(&[3.0, 0.0, 0.0, 0.0]);
/// }
/// for _ in 0..100 {
///     sw.update(&[0.0, 1.0, 0.0, 0.0]);
/// }
/// // The e₀ energy has expired (up to the straddling mass)…
/// let sketch = sw.sketch();
/// assert!(sketch.apply_norm_sq(&[1.0, 0.0, 0.0, 0.0]) <= sw.error_bound());
/// // …while the window's e₁ energy (100 rows × 1²) is retained:
/// let got = sketch.apply_norm_sq(&[0.0, 1.0, 0.0, 0.0]);
/// assert!((got - 100.0).abs() <= sw.error_bound());
/// ```
#[derive(Debug, Clone)]
pub struct SwFd {
    d: usize,
    ell: usize,
    hist: ExpHistogram<FrequentDirections>,
}

impl SwFd {
    /// Creates a sliding-window matrix sketch.
    ///
    /// * `d` — row dimensionality; `ell` — FD rows per bucket
    ///   (per-bucket accuracy `2/ℓ`); `window` — rows; `per_level` —
    ///   histogram branching `r` (boundary error `~mass/r`).
    ///
    /// # Panics
    /// Panics on zero `window`/`per_level` or invalid FD parameters.
    pub fn new(d: usize, ell: usize, window: u64, per_level: usize) -> Self {
        let _probe = FrequentDirections::new(d, ell); // validate eagerly
        SwFd {
            d,
            ell,
            hist: ExpHistogram::new(window, per_level),
        }
    }

    /// Row dimensionality.
    pub fn dim(&self) -> usize {
        self.d
    }

    /// Window length in rows.
    pub fn window(&self) -> u64 {
        self.hist.window()
    }

    /// Rows observed so far.
    pub fn rows_seen(&self) -> u64 {
        self.hist.items_seen()
    }

    /// Number of live buckets.
    pub fn bucket_count(&self) -> usize {
        self.hist.bucket_count()
    }

    /// Total summarised mass (window ± straddling buckets).
    pub fn mass(&self) -> f64 {
        self.hist.mass()
    }

    /// Absorbs one row.
    ///
    /// # Panics
    /// Panics if `row.len() != d`.
    pub fn update(&mut self, row: &[f64]) {
        assert_eq!(row.len(), self.d, "SwFd: row dimension mismatch");
        let mass: f64 = row.iter().map(|v| v * v).sum();
        if mass == 0.0 {
            self.hist
                .update(FrequentDirections::new(self.d, self.ell), 0.0);
            return;
        }
        let mut fd = FrequentDirections::new(self.d, self.ell);
        fd.update(row);
        self.hist.update(fd, mass);
    }

    /// The window sketch: all live buckets merged, folded once per
    /// state ([`ExpHistogram::folded_at`]).
    pub fn sketch(&self) -> Matrix {
        let empty = FrequentDirections::new(self.d, self.ell);
        self.hist.folded_at(self.hist.now(), empty).sketch().clone()
    }

    /// A-priori bound on `|‖A_W x‖² − ‖Bx‖²|` for unit `x`: FD loss over
    /// the summarised mass plus the straddling buckets' mass.
    pub fn error_bound(&self) -> f64 {
        2.0 * self.hist.mass() / self.ell as f64 + self.hist.straddle_mass()
    }
}

/// Sliding-window weighted heavy hitters over the last `window` items.
///
/// # Example
///
/// Heavy hitters of the last `window` items only:
///
/// ```
/// use cma_sketch::SwMg;
///
/// let mut sw = SwMg::new(16, 100, 2); // ℓ=16 counters, window=100, r=2
/// for _ in 0..300 {
///     sw.update(7, 5.0); // an old heavy item…
/// }
/// for _ in 0..100 {
///     sw.update(8, 1.0); // …pushed out by a full window of item 8
/// }
/// // The expired item survives only through straddling/summary error:
/// assert!(sw.estimate(7) <= sw.error_bound());
/// // The window's item is estimated within the reported bound:
/// assert!((sw.estimate(8) - 100.0).abs() <= sw.error_bound());
/// ```
#[derive(Debug, Clone)]
pub struct SwMg {
    capacity: usize,
    hist: ExpHistogram<MgSummary>,
}

impl SwMg {
    /// Creates a sliding-window frequency sketch with `capacity` counters
    /// per bucket.
    ///
    /// # Panics
    /// Panics on zero `window`/`per_level`/`capacity`.
    pub fn new(capacity: usize, window: u64, per_level: usize) -> Self {
        let _probe = MgSummary::new(capacity); // validate eagerly
        SwMg {
            capacity,
            hist: ExpHistogram::new(window, per_level),
        }
    }

    /// Items observed so far.
    pub fn items_seen(&self) -> u64 {
        self.hist.items_seen()
    }

    /// Number of live buckets.
    pub fn bucket_count(&self) -> usize {
        self.hist.bucket_count()
    }

    /// Total summarised weight (window ± straddling buckets).
    pub fn mass(&self) -> f64 {
        self.hist.mass()
    }

    /// Absorbs one weighted item.
    ///
    /// # Panics
    /// Panics on negative or non-finite weights.
    pub fn update(&mut self, item: Item, weight: f64) {
        assert!(
            weight.is_finite() && weight >= 0.0,
            "SwMg: invalid weight {weight}"
        );
        if weight == 0.0 {
            self.hist.update(MgSummary::new(self.capacity), 0.0);
            return;
        }
        let mut mg = MgSummary::new(self.capacity);
        mg.update(item, weight);
        self.hist.update(mg, weight);
    }

    /// Estimated weight of `item` within the window (up to
    /// [`SwMg::error_bound`]).
    pub fn estimate(&self, item: Item) -> f64 {
        let empty = MgSummary::new(self.capacity);
        self.hist.folded_at(self.hist.now(), empty).estimate(item)
    }

    /// A-priori bound on `|f_W(e) − estimate(e)|`: MG undercount over the
    /// summarised weight plus the straddling buckets' weight.
    pub fn error_bound(&self) -> f64 {
        self.hist.mass() / (self.capacity as f64 + 1.0) + self.hist.straddle_mass()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cma_linalg::random;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// Trivial mergeable summary for raw-histogram tests: a mass sum.
    #[derive(Clone, Debug)]
    struct Count(f64);
    impl WindowSummary for Count {
        fn merge_from(&mut self, other: &Self) {
            self.0 += other.0;
        }
    }

    /// Exact window matrix for verification.
    fn window_matrix(rows: &[Vec<f64>], t: usize, window: usize, d: usize) -> Matrix {
        let start = t.saturating_sub(window);
        let mut m = Matrix::with_cols(d);
        for r in &rows[start..t] {
            m.push_row(r);
        }
        m
    }

    fn random_rows(n: usize, d: usize, seed: u64) -> Vec<Vec<f64>> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n)
            .map(|_| (0..d).map(|_| random::standard_normal(&mut rng)).collect())
            .collect()
    }

    #[test]
    fn before_expiry_matches_plain_fd_bound() {
        let d = 6;
        let rows = random_rows(100, d, 1);
        let mut sw = SwFd::new(d, 16, 1_000, 2);
        for r in &rows {
            sw.update(r);
        }
        let a = window_matrix(&rows, 100, 1_000, d);
        let sketch = sw.sketch();
        let mut rng = StdRng::seed_from_u64(2);
        let bound = sw.error_bound() + 1e-9;
        for _ in 0..20 {
            let x = random::unit_vector(&mut rng, d);
            let diff = (a.apply_norm_sq(&x) - sketch.apply_norm_sq(&x)).abs();
            assert!(diff <= bound, "pre-expiry: diff {diff} > bound {bound}");
        }
    }

    #[test]
    fn window_error_bounded_after_many_expirations() {
        let d = 5;
        let n = 2_000;
        let window = 300usize;
        let rows = random_rows(n, d, 3);
        let mut sw = SwFd::new(d, 20, window as u64, 3);
        let mut rng = StdRng::seed_from_u64(4);
        for (t, r) in rows.iter().enumerate() {
            sw.update(r);
            if (t + 1) % 500 == 0 {
                let a = window_matrix(&rows, t + 1, window, d);
                let sketch = sw.sketch();
                let bound = sw.error_bound() + 1e-9;
                for _ in 0..10 {
                    let x = random::unit_vector(&mut rng, d);
                    let diff = (a.apply_norm_sq(&x) - sketch.apply_norm_sq(&x)).abs();
                    assert!(diff <= bound, "t={}: diff {diff} > bound {bound}", t + 1);
                }
            }
        }
    }

    #[test]
    fn bucket_count_stays_logarithmic() {
        let d = 4;
        let rows = random_rows(5_000, d, 5);
        let mut sw = SwFd::new(d, 8, 1_000, 2);
        let mut max_buckets = 0;
        for r in &rows {
            sw.update(r);
            max_buckets = max_buckets.max(sw.bucket_count());
        }
        assert!(max_buckets <= 64, "bucket count exploded: {max_buckets}");
    }

    #[test]
    fn old_data_is_forgotten() {
        let d = 4;
        let window = 100u64;
        let mut sw = SwFd::new(d, 12, window, 2);
        let mut big = vec![0.0; d];
        big[0] = 10.0;
        for _ in 0..200 {
            sw.update(&big);
        }
        let mut small = vec![0.0; d];
        small[1] = 1.0;
        for _ in 0..window {
            sw.update(&small);
        }
        let sketch = sw.sketch();
        let e0 = [1.0, 0.0, 0.0, 0.0];
        let e1 = [0.0, 1.0, 0.0, 0.0];
        assert_eq!(sketch.apply_norm_sq(&e0), 0.0, "expired mass survived");
        let got = sketch.apply_norm_sq(&e1);
        assert!(
            (got - window as f64).abs() <= sw.error_bound() + 1e-9,
            "window mass {got} vs {window}"
        );
    }

    #[test]
    fn mass_tracks_window() {
        let d = 3;
        let mut sw = SwFd::new(d, 8, 50, 2);
        for _ in 0..500 {
            sw.update(&[1.0, 0.0, 0.0]);
        }
        let mass = sw.mass();
        assert!(mass >= 50.0 - 1e-9, "mass {mass} below window");
        assert!(
            mass <= 50.0 + sw.error_bound(),
            "mass {mass} far above window"
        );
    }

    #[test]
    fn zero_rows_ignored() {
        let mut sw = SwFd::new(3, 8, 10, 2);
        sw.update(&[0.0, 0.0, 0.0]);
        assert_eq!(sw.bucket_count(), 0);
        assert_eq!(sw.rows_seen(), 1);
    }

    #[test]
    fn sw_mg_window_estimates_bounded() {
        let window = 400usize;
        let mut sw = SwMg::new(32, window as u64, 3);
        let mut rng = StdRng::seed_from_u64(9);
        let stream: Vec<(Item, f64)> = (0..3_000)
            .map(|_| {
                let e: Item = if rng.gen_bool(0.3) {
                    1
                } else {
                    rng.gen_range(2..50)
                };
                (e, rng.gen_range(1.0..5.0))
            })
            .collect();
        for (t, &(e, w)) in stream.iter().enumerate() {
            sw.update(e, w);
            if (t + 1) % 1_000 == 0 {
                // Exact window frequency of the heavy item.
                let start = (t + 1).saturating_sub(window);
                let truth: f64 = stream[start..=t]
                    .iter()
                    .filter(|(e, _)| *e == 1)
                    .map(|(_, w)| w)
                    .sum();
                let est = sw.estimate(1);
                let bound = sw.error_bound() + 1e-9;
                assert!(
                    (est - truth).abs() <= bound,
                    "t={}: estimate {est} vs truth {truth}, bound {bound}",
                    t + 1
                );
            }
        }
    }

    #[test]
    fn sw_mg_forgets_old_heavy_hitter() {
        let window = 100u64;
        let mut sw = SwMg::new(16, window, 2);
        for _ in 0..300 {
            sw.update(7, 50.0); // old heavy item
        }
        for _ in 0..window {
            sw.update(8, 1.0); // window now contains only item 8
        }
        let est7 = sw.estimate(7);
        // Item 7 may survive only through the straddling buckets.
        assert!(
            est7 <= sw.error_bound() + 1e-9,
            "expired heavy item estimate {est7} exceeds bound"
        );
        let est8 = sw.estimate(8);
        assert!((est8 - window as f64).abs() <= sw.error_bound() + 1e-9);
    }

    #[test]
    fn histogram_generic_counts() {
        // The raw histogram with trivial summaries tracks mass correctly.
        let mut h: ExpHistogram<Count> = ExpHistogram::new(10, 2);
        for _ in 0..100 {
            h.update(Count(1.0), 1.0);
        }
        let mut total = Count(0.0);
        h.fold_into(&mut total);
        assert!(total.0 >= 10.0);
        assert!(total.0 <= 10.0 + h.straddle_mass() + 1e-9);
        assert_eq!(h.items_seen(), 100);
    }

    /// Distributed-shape plumbing: stamped observation on two source
    /// histograms, whole-bucket transfer into a downstream one, expiry
    /// at insert, straddling summed across interleaved ranges.
    #[test]
    fn bucket_transfer_between_histograms() {
        let window = 20u64;
        // Two "sites" observe interleaved global indices 0..40.
        let mut a: ExpHistogram<Count> = ExpHistogram::new(window, 2);
        let mut b: ExpHistogram<Count> = ExpHistogram::new(window, 2);
        for t in 0..40u64 {
            let h = if t % 2 == 0 { &mut a } else { &mut b };
            h.observe_at(t, Count(1.0), 1.0);
        }
        // A "coordinator" ingests both drains.
        let mut c: ExpHistogram<Count> = ExpHistogram::new(window, 2);
        for src in [&mut a, &mut b] {
            c.advance(src.now());
            for bucket in src.drain() {
                c.insert_bucket(bucket);
            }
        }
        assert_eq!(c.now(), 40);
        // Everything fully-expired was dropped on insert; the fold
        // covers the 20-item window up to the straddling mass.
        let mut total = Count(0.0);
        c.fold_into(&mut total);
        assert!(total.0 >= window as f64 - 1e-9, "window mass lost");
        assert!(
            total.0 <= window as f64 + c.straddle_mass() + 1e-9,
            "fold {} exceeds window + straddle {}",
            total.0,
            c.straddle_mass()
        );
        // Query-time variants agree with the mutating view at the clock.
        assert_eq!(c.mass(), c.mass_at(c.now()));
        assert_eq!(c.straddle_mass(), c.straddle_mass_at(c.now()));
        let mut live = Count(0.0);
        c.fold_live_at(c.now(), &mut live);
        assert_eq!(live.0, total.0);
    }

    /// An eager and a deferred FD histogram fed the same singleton
    /// buckets of `rows`, five per step, with their bookkeeping — every
    /// bucket's mass and `[oldest, newest]` range — asserted equal after
    /// each step.
    fn eager_and_deferred(
        rows: &[Vec<f64>],
        ell: usize,
        window: usize,
    ) -> (
        ExpHistogram<FrequentDirections>,
        ExpHistogram<FrequentDirections>,
    ) {
        let d = rows[0].len();
        let mut eager: ExpHistogram<FrequentDirections> = ExpHistogram::new(window as u64, 2);
        let mut deferred = eager.clone();
        for (c, chunk) in rows.chunks(5).enumerate() {
            let buckets: Vec<WinBucket<FrequentDirections>> = chunk
                .iter()
                .enumerate()
                .map(|(i, r)| {
                    let mut fd = FrequentDirections::new(d, ell);
                    fd.update(r);
                    WinBucket::singleton((5 * c + i) as u64, fd, r.iter().map(|v| v * v).sum())
                })
                .collect();
            let now = (5 * (c + 1)) as u64;
            eager.advance(now);
            eager.insert_buckets(buckets.clone());
            deferred.advance(now);
            deferred.insert_buckets_deferred(buckets);
            let shape = |h: &ExpHistogram<FrequentDirections>| -> Vec<(f64, u64, u64)> {
                h.buckets()
                    .iter()
                    .map(|b| (b.mass, b.oldest, b.newest))
                    .collect()
            };
            assert_eq!(shape(&eager), shape(&deferred), "bookkeeping diverged");
        }
        (eager, deferred)
    }

    /// Deferred insertion moves only *when* summaries shrink: every
    /// bucket's mass and `[oldest, newest]` range — so levels, expiry and
    /// straddling — match the eager histogram's exactly, and the one-shot
    /// fold of either keeps the window bound.
    #[test]
    fn deferred_insertion_keeps_eager_bookkeeping() {
        let (d, ell, window) = (10, 4, 200usize);
        let rows = random_rows(1_000, d, 11);
        let (eager, mut deferred) = eager_and_deferred(&rows, ell, window);
        assert!(
            deferred.buckets().iter().any(|b| !b.summary.is_settled()),
            "nothing deferred: the case tests nothing"
        );
        let a = window_matrix(&rows, rows.len(), window, d);
        let bound = 2.0 * eager.mass() / ell as f64 + eager.straddle_mass() + 1e-9;
        let mut rng = StdRng::seed_from_u64(12);
        for h in [&eager, &deferred] {
            let mut acc = FrequentDirections::new(d, ell);
            h.fold_into(&mut acc);
            assert!(acc.is_settled());
            for _ in 0..10 {
                let x = random::unit_vector(&mut rng, d);
                let diff = (a.apply_norm_sq(&x) - acc.query(&x)).abs();
                assert!(diff <= bound, "diff {diff} > bound {bound}");
            }
        }
        deferred.settle();
        assert!(deferred.buckets().iter().all(|b| b.summary.is_settled()));
    }

    /// At `d < 2ℓ` — the shape of a windowed-FD root in production — a
    /// deferred bucket trades its rows for their Gram once they reach
    /// `d` rows. The bookkeeping still matches the eager histogram's
    /// exactly (`eager_and_deferred`); settling a Gram-held bucket as a
    /// value or in place gives the same bits; and a Gram-held bucket's
    /// `xᵀGx` sits above its settled rows' answer by no more than the
    /// settle's loss.
    #[test]
    fn deferred_insertion_holds_bucket_grams_below_two_ell() {
        let (d, ell, window) = (10, 8, 200usize);
        let rows = random_rows(1_000, d, 13);
        let (_, deferred) = eager_and_deferred(&rows, ell, window);
        assert!(
            deferred.buckets().iter().any(|b| b.summary.holds_gram()),
            "no Gram-held bucket: the case tests nothing"
        );
        let mut rng = StdRng::seed_from_u64(14);
        for b in deferred.buckets() {
            let settled = b.summary.settled().into_owned();
            let mut in_place = b.summary.clone();
            in_place.settle();
            assert_eq!(settled.sketch().as_slice(), in_place.sketch().as_slice());
            assert_eq!(settled.shrink_loss(), in_place.shrink_loss());
            assert_eq!(settled.frob_sq_seen(), b.summary.frob_sq_seen());
            assert!(settled.is_settled());
            if !b.summary.holds_gram() {
                continue;
            }
            let loss = settled.shrink_loss() - b.summary.shrink_loss();
            assert!(loss <= settled.error_bound());
            let slack = 1e-9 * b.summary.frob_sq_seen();
            for _ in 0..10 {
                let x = random::unit_vector(&mut rng, d);
                let (held, shrunk) = (b.summary.query(&x), settled.query(&x));
                assert!(
                    shrunk <= held + slack,
                    "settling added mass: {shrunk} > {held}"
                );
                assert!(
                    held - shrunk <= loss + slack,
                    "{held} − {shrunk} > loss {loss}"
                );
            }
        }
    }

    /// Bits of an FD fold: the sketch entries and both error scalars.
    fn fd_bits(fd: &FrequentDirections) -> Vec<u64> {
        let scalars = [fd.frob_sq_seen(), fd.shrink_loss()];
        let entries = fd.sketch().as_slice().iter().chain(&scalars);
        entries.map(|v| v.to_bits()).collect()
    }

    /// Bits of an MG fold: its counters by item and both totals.
    fn mg_bits(mg: &MgSummary) -> Vec<u64> {
        let mut counters: Vec<(Item, f64)> = mg.counters().collect();
        counters.sort_unstable_by_key(|&(e, _)| e);
        let totals = [mg.total_weight(), mg.observed_error_bound()];
        let counters = counters.into_iter().flat_map(|(e, w)| [e, w.to_bits()]);
        counters.chain(totals.map(f64::to_bits)).collect()
    }

    /// `h`'s answer at every clock of `clocks` is a fresh fold of its
    /// live buckets into an empty accumulator, bit for bit.
    fn assert_folds_fresh<S: WindowSummary>(
        h: &ExpHistogram<S>,
        clocks: &[u64],
        empty: &impl Fn() -> S,
        bits: &impl Fn(&S) -> Vec<u64>,
        what: &str,
    ) {
        for &t in clocks {
            let mut fresh = empty();
            h.fold_live_at(t, &mut fresh);
            let kept = h.folded_at(t, empty());
            assert!(bits(&kept) == bits(&fresh), "{what}: stale fold at {t}");
        }
    }

    /// A change to the histogram, named for the failure message.
    type Step<S> = (&'static str, Box<dyn Fn(&mut ExpHistogram<S>)>);

    /// Queries `h` at its clock, applies one step, and checks the answers
    /// at the old and the new clock against fresh folds — for every step
    /// in turn, then for a clone.
    fn assert_every_change_drops_the_fold<S: WindowSummary>(
        mut h: ExpHistogram<S>,
        steps: Vec<Step<S>>,
        empty: impl Fn() -> S,
        bits: impl Fn(&S) -> Vec<u64>,
    ) {
        for (what, step) in steps {
            let before = h.now();
            let _ = h.folded_at(before, empty());
            step(&mut h);
            assert_folds_fresh(&h, &[before, h.now()], &empty, &bits, what);
        }
        let twin = h.clone();
        let now = h.now();
        assert!(matches!(twin.folded_at(now, empty()), Cow::Borrowed(_)));
        assert!(bits(&twin.folded_at(now, empty())) == bits(&h.folded_at(now, empty())));
    }

    fn fd_singleton(row: &[f64], ell: usize, t: u64) -> WinBucket<FrequentDirections> {
        let mut fd = FrequentDirections::new(row.len(), ell);
        fd.update(row);
        WinBucket::singleton(t, fd, row.iter().map(|v| v * v).sum())
    }

    /// Every change the histogram offers, each of which must drop a kept
    /// fold: arrivals, bulk inserts eager and deferred, an advance that
    /// expires the oldest bucket, a settle, and a drain.
    fn every_change<S: WindowSummary + 'static>(
        singleton: impl Fn(u64) -> WinBucket<S> + Clone + 'static,
    ) -> Vec<Step<S>> {
        let (s1, s2, s3, s4) = (
            singleton.clone(),
            singleton.clone(),
            singleton.clone(),
            singleton,
        );
        vec![
            (
                "observe_at",
                Box::new(move |h| {
                    let b = s1(h.now());
                    h.observe_at(b.newest, b.summary, b.mass);
                }),
            ),
            (
                "insert_buckets",
                Box::new(move |h| h.insert_buckets((h.now() - 3..h.now()).map(&s2))),
            ),
            (
                "insert_buckets_deferred",
                Box::new(move |h| h.insert_buckets_deferred((h.now() - 3..h.now()).map(&s3))),
            ),
            (
                "advance",
                Box::new(|h| {
                    let count = h.bucket_count();
                    h.advance(h.buckets()[0].newest + h.window() + 1);
                    assert!(h.bucket_count() < count, "advance expired nothing");
                }),
            ),
            (
                "update",
                Box::new(move |h| {
                    let b = s4(h.now());
                    h.update(b.summary, b.mass);
                }),
            ),
            ("settle", Box::new(|h| h.settle())),
            (
                "drain",
                Box::new(|h| {
                    h.drain();
                }),
            ),
        ]
    }

    /// The kept fold never outlives a change: on a deferred FD histogram
    /// at `d < 2ℓ` (Gram-held buckets, so a settle changes them) and on
    /// an MG histogram, every `&mut` method in turn leaves a query
    /// answering as a fresh fold, bit for bit, and a clone answers as the
    /// original. A query at the old clock after `advance` reads a stale
    /// fold if `advance` keeps it; one after `settle` reads the unsettled
    /// buckets' fold if `settle` keeps it.
    #[test]
    fn every_change_drops_the_kept_fold() {
        let (d, ell, window) = (10, 8, 200usize);
        let rows = random_rows(1_000, d, 15);
        let (_, deferred) = eager_and_deferred(&rows, ell, window);
        assert!(
            deferred.buckets().iter().any(|b| b.summary.holds_gram()),
            "no Gram-held bucket: settle changes nothing"
        );
        let extra = random_rows(64, d, 16);
        let singleton = move |t: u64| fd_singleton(&extra[t as usize % 64], ell, t);
        let mut steps = every_change(singleton);
        let settle = steps.iter().position(|s| s.0 == "settle").unwrap();
        steps.insert(
            settle,
            (
                "unsettled before settle",
                Box::new(|h| assert!(h.buckets().iter().any(|b| !b.summary.is_settled()))),
            ),
        );
        let empty = move || FrequentDirections::new(d, ell);
        assert_every_change_drops_the_fold(deferred, steps, empty, fd_bits);

        let mut rng = StdRng::seed_from_u64(17);
        let mut mg: ExpHistogram<MgSummary> = ExpHistogram::new(window as u64, 2);
        for t in 0..1_000 {
            let mut s = MgSummary::new(8);
            let w = rng.gen_range(1.0..5.0);
            s.update(rng.gen_range(0..40), w);
            mg.observe_at(t, s, w);
        }
        let singleton = |t: u64| {
            let mut s = MgSummary::new(8);
            s.update(t % 40, 2.0);
            WinBucket::singleton(t, s, 2.0)
        };
        let empty = || MgSummary::new(8);
        assert_every_change_drops_the_fold(mg, every_change(singleton), empty, mg_bits);
    }

    /// The fold is kept per set of live buckets, not per clock: a query
    /// that sees other buckets folds on its own and leaves the kept fold;
    /// one that sees the same buckets borrows it. A clone carries it.
    #[test]
    fn queries_at_other_clocks_leave_the_kept_fold() {
        let (d, ell, window) = (10, 8, 200usize);
        let rows = random_rows(1_000, d, 18);
        let (_, h) = eager_and_deferred(&rows, ell, window);
        let never_queried = h.clone();
        let empty = || FrequentDirections::new(d, ell);
        let (old, new) = (h.now(), h.buckets()[0].newest + h.window() + 1);
        assert!(h.expired_at(new) > 0 && h.expired_at(old) == 0);
        assert_folds_fresh(&h, &[new, old, new], &empty, &fd_bits, "new, old, new");
        assert!(matches!(h.folded_at(new, empty()), Cow::Borrowed(_)));
        assert!(matches!(h.folded_at(old, empty()), Cow::Owned(_)));
        let shared = never_queried.clone();
        let _ = shared.folded_at(old, empty());
        assert!(
            matches!(shared.folded_at(old - 1, empty()), Cow::Borrowed(_)),
            "two clocks over the same buckets folded twice"
        );
        let twin = h.clone();
        assert!(matches!(twin.folded_at(new, empty()), Cow::Borrowed(_)));
        for (t, copy) in [(new, &twin), (old, &never_queried)] {
            let (a, b) = (copy.folded_at(t, empty()), h.folded_at(t, empty()));
            assert!(
                fd_bits(&a) == fd_bits(&b),
                "a clone answers otherwise at {t}"
            );
        }
    }

    /// A bucket whose newest index is already outside the receiver's
    /// window must be dropped whole at insert.
    #[test]
    fn insert_drops_dead_buckets() {
        let mut h: ExpHistogram<Count> = ExpHistogram::new(10, 2);
        h.advance(100);
        h.insert_bucket(WinBucket::singleton(42, Count(5.0), 5.0)); // dead
        assert_eq!(h.bucket_count(), 0);
        h.insert_bucket(WinBucket::singleton(95, Count(1.0), 1.0)); // live
        assert_eq!(h.bucket_count(), 1);
        assert_eq!(h.mass(), 1.0);
    }
}
