//! Frequent Directions matrix sketch.
//!
//! Liberty's Frequent Directions (FD, SIGKDD 2013) is the matrix analogue
//! of Misra–Gries: it maintains a sketch `B` of at most `ℓ` rows such that
//! for every unit vector `x`
//!
//! ```text
//! 0 ≤ ‖Ax‖² − ‖Bx‖² ≤ Δ ≤ 2·‖A‖²_F / ℓ
//! ```
//!
//! where `Δ` is the total "shrinkage" mass the sketch has discarded
//! (tracked exactly as [`FrequentDirections::shrink_loss`]). When the
//! buffer fills, the sketch is rotated into its singular basis, the
//! `⌈ℓ/2⌉`-th largest squared singular value `δ` is subtracted from every
//! squared singular value, and the (at least half) rows that hit zero are
//! freed.
//!
//! Two properties matter for the distributed protocols:
//!
//! * **Mergeability** (Agarwal et al., PODS 2012): two FD sketches can be
//!   merged (stack + one shrink) with the error of the *combined* stream —
//!   this is what lets the coordinator of protocol MT-P1 fold in
//!   per-site sketches.
//! * The shrink step only needs `(Σ, V)` of the buffer, never `U`, so it
//!   runs on the Gram fast path [`cma_linalg::svd::gram_svd_blocked`],
//!   which eigendecomposes the smaller Gram of the buffer with Householder
//!   tridiagonalisation + QL ([`cma_linalg::ql::ql_eigen_sym`]).
//!   `O(ℓ²d + ℓ³)` per shrink, amortised `O(ℓd)` per appended row — the
//!   paper's `O(dℓ)` amortised update. Every shrink is the exact one, so
//!   `Δ ≤ 2‖A‖²_F/ℓ` holds by the textbook argument.
//!   [`FrequentDirections::rank_k_sketch`] and
//!   [`FrequentDirections::top_directions`] decompose through the same
//!   route.
//! * The argument behind `Δ ≤ 2‖A‖²_F/ℓ` — each shrink's `δ` comes off at
//!   least `⌈ℓ/2⌉` squared singular values — does not care how tall the
//!   buffer was, and a tall shrink reads its rows only through their Gram
//!   `BᵀB`. So a holder that never ships its sketch need not shrink on
//!   ingest: under [`FrequentDirections::merge_deferred`] a sketch with
//!   `d < 2ℓ` trades its stacked rows for their exact `d × d` Gram once
//!   they reach `d` rows, and every later merge adds the other sketch's
//!   Gram — no eigensolve until the sketch is settled. With `d ≥ 2ℓ` the
//!   Gram is the larger of the two, so rows stack up to `2ℓ` before one
//!   shrink (the double-buffered FD). [`FrequentDirections::stack`]
//!   stacks without bound, and [`FrequentDirections::settle`] brings
//!   any of these back under `ℓ` rows with one shrink, from the rows or
//!   from the Gram.
//! * Grams add: `AᵀA = Σᵢ AᵢᵀAᵢ` over any split of the rows. So a sketch
//!   that holds rows keeps their Gram once read
//!   ([`FrequentDirections::gram`]) and drops it at every change to them,
//!   and a one-shot fold of many sketches
//!   ([`FrequentDirections::fold_settled`]) sums their Grams into one
//!   eigensolve instead of stacking their rows. A sliding-window root
//!   folds its live buckets once per state (its histogram keeps the fold
//!   until the next change, `ExpHistogram::folded_at`), and each fold
//!   re-Grams only the row-held buckets that changed since the last
//!   one. A Gram-held
//!   sketch costs `d²` floats (15.5 KB at `d = 44`, against up to 27.8
//!   KB for the `2ℓ − 1 = 79` rows it would otherwise stack at `ℓ = 40`)
//!   and carries no second copy; a row-held one that a fold has read
//!   keeps one `d × d` Gram beside its rows. Neither Gram is ever
//!   encoded: an encoder writes the settled rows.

use cma_linalg::matrix::{accumulate_outer, accumulate_outer_panel};
use cma_linalg::svd::{gram_svd_blocked, svd_from_gram, SvdValuesVectors};
use cma_linalg::{vector, FdShrink, KernelPath, Matrix};
use std::borrow::Cow;
use std::sync::OnceLock;

/// Frequent Directions sketch with at most `ℓ` buffered rows (fewer
/// than `2ℓ` under [`FrequentDirections::merge_deferred`], any number
/// under [`FrequentDirections::stack`] until the next settle), or — for
/// a deferred sketch with `d < 2ℓ` — the exact Gram of the rows it
/// stacked.
#[derive(Debug, Clone)]
pub struct FrequentDirections {
    d: usize,
    ell: usize,
    /// The sketch content: rows, or the Gram a deferred sketch holds
    /// instead.
    held: Held,
    /// Exact squared Frobenius norm of everything fed in (`‖A‖²_F`).
    frob_sq: f64,
    /// Total shrinkage `Δ = Σ δ`: a valid upper bound on
    /// `‖Ax‖² − ‖Bx‖²` for every unit `x`, and `≤ 2‖A‖²_F/ℓ`.
    shrink_loss: f64,
}

/// What a sketch holds. Each form caches what the other holds: the rows
/// their Gram, the Gram a factor of itself. Every change goes through
/// [`FrequentDirections::rows_mut`] or [`FrequentDirections::gram_mut`],
/// which drop the cache, or replaces the whole value.
#[derive(Debug, Clone)]
enum Held {
    /// Sketch rows (only the nonzero rows are stored) and, once read
    /// ([`FrequentDirections::gram`]), their Gram `BᵀB`.
    Rows { buf: Matrix, gram: OnceLock<Matrix> },
    /// `BᵀB` of every row a deferred sketch stacked, unshrunk, and, once
    /// read ([`FrequentDirections::sketch`]), rows whose Gram it is.
    Gram {
        gram: Matrix,
        factor: OnceLock<Matrix>,
    },
}

impl Held {
    fn rows(buf: Matrix) -> Self {
        Held::Rows {
            buf,
            gram: OnceLock::new(),
        }
    }
}

impl FrequentDirections {
    /// Creates a sketch over `d`-dimensional rows with buffer size `ℓ`.
    ///
    /// # Panics
    /// Panics if `ell < 2` (the shrink step needs at least two rows) or
    /// `d == 0`.
    pub fn new(d: usize, ell: usize) -> Self {
        assert!(ell >= 2, "FrequentDirections: ell must be at least 2");
        assert!(d >= 1, "FrequentDirections: dimension must be positive");
        FrequentDirections {
            d,
            ell,
            held: Held::rows(Matrix::with_cols(d)),
            frob_sq: 0.0,
            shrink_loss: 0.0,
        }
    }

    /// Creates a sketch guaranteeing `‖Ax‖² − ‖Bx‖² ≤ epsilon·‖A‖²_F`,
    /// i.e. `ℓ = ⌈2/ε⌉`.
    ///
    /// # Panics
    /// Panics unless `0 < epsilon ≤ 1`.
    pub fn with_error_bound(d: usize, epsilon: f64) -> Self {
        assert!(
            epsilon > 0.0 && epsilon <= 1.0,
            "FrequentDirections: epsilon must be in (0, 1]"
        );
        Self::new(d, ((2.0 / epsilon).ceil() as usize).max(2))
    }

    /// Reassembles a sketch from its transported parts: the current
    /// sketch rows plus the two error-carrying scalars.
    ///
    /// # Panics
    /// Panics if `ell < 2`, `d == 0`, or `sketch` has a different
    /// column count or more than `ell` rows.
    pub fn from_parts(
        d: usize,
        ell: usize,
        sketch: Matrix,
        frob_sq: f64,
        shrink_loss: f64,
    ) -> Self {
        let mut fd = Self::new(d, ell);
        assert!(
            sketch.cols() == d && sketch.rows() <= ell,
            "FrequentDirections::from_parts: sketch shape {}×{} does not fit d={d}, ell={ell}",
            sketch.rows(),
            sketch.cols(),
        );
        fd.held = Held::rows(sketch);
        fd.frob_sq = frob_sq;
        fd.shrink_loss = shrink_loss;
        fd
    }

    /// Returns the sketch unchanged: [`FdShrink`] has one value. Kept for
    /// the frozen `benchmark/` package until ROADMAP item 5(d).
    #[must_use]
    pub fn using_shrink(self, _shrink: FdShrink) -> Self {
        self
    }

    /// Returns the sketch unchanged: [`KernelPath`] has one value. Kept
    /// for the frozen `benchmark/` package until ROADMAP item 5(d).
    #[must_use]
    pub fn using_kernels(self, _kernels: KernelPath) -> Self {
        self
    }

    /// Row dimensionality `d`.
    pub fn dim(&self) -> usize {
        self.d
    }

    /// Buffer size `ℓ`.
    pub fn ell(&self) -> usize {
        self.ell
    }

    /// `true` if no rows have been absorbed.
    pub fn is_empty(&self) -> bool {
        matches!(&self.held, Held::Rows { buf, .. } if buf.rows() == 0) && self.frob_sq == 0.0
    }

    /// Exact `‖A‖²_F` of the data fed in so far.
    pub fn frob_sq_seen(&self) -> f64 {
        self.frob_sq
    }

    /// Accumulated shrinkage `Δ`: the tightest known upper bound on
    /// `‖Ax‖² − ‖Bx‖²`. Always `≤ 2·‖A‖²_F/ℓ` (the a-priori bound).
    pub fn shrink_loss(&self) -> f64 {
        self.shrink_loss
    }

    /// The a-priori error bound `2‖A‖²_F/ℓ`.
    pub fn error_bound(&self) -> f64 {
        2.0 * self.frob_sq / self.ell as f64
    }

    /// `true` while the sketch holds the Gram of its rows instead of
    /// the rows ([`FrequentDirections::merge_deferred`] at `d < 2ℓ`).
    pub fn holds_gram(&self) -> bool {
        matches!(self.held, Held::Gram { .. })
    }

    /// The current sketch matrix `B` (`< ℓ` rows when settled, `d`
    /// columns). For a Gram-held sketch, rows `σᵢvᵢᵀ` of the held Gram's
    /// eigendecomposition — at most `d`, with the Gram's mass, found by
    /// one eigensolve on the first read and kept until the Gram changes.
    ///
    /// # Panics
    /// Panics (never observed) if that eigensolve fails to converge.
    pub fn sketch(&self) -> &Matrix {
        match &self.held {
            Held::Rows { buf, .. } => buf,
            Held::Gram { gram, factor } => factor.get_or_init(|| gram_factor(gram)),
        }
    }

    /// The Gram `BᵀB` of the sketch rows (`d × d`), bit-identical to
    /// `self.sketch().gram()` for a row-held sketch: computed on the
    /// first read and kept until the rows next change. A Gram-held
    /// sketch returns the Gram it holds.
    pub fn gram(&self) -> &Matrix {
        match &self.held {
            Held::Rows { buf, gram } => gram.get_or_init(|| buf.gram()),
            Held::Gram { gram, .. } => gram,
        }
    }

    /// The sketch rows for a change: the one way to mutate them, so the
    /// cached Gram can never outlive the rows it was computed from.
    ///
    /// # Panics
    /// Panics on a Gram-held sketch, which has no rows to change: a
    /// caller must add to the Gram ([`FrequentDirections::gram_mut`])
    /// rather than lose it.
    fn rows_mut(&mut self) -> &mut Matrix {
        match &mut self.held {
            Held::Rows { buf, gram } => {
                gram.take();
                buf
            }
            Held::Gram { .. } => panic!("FrequentDirections: a Gram-held sketch has no rows"),
        }
    }

    /// The held Gram for a change, converting a row-held sketch first
    /// (its Gram cached or computed, the same bits either way). Drops
    /// the cached factor.
    fn gram_mut(&mut self) -> &mut Matrix {
        if let Held::Rows { buf, gram } = &mut self.held {
            let gram = gram.take().unwrap_or_else(|| buf.gram());
            self.held = Held::Gram {
                gram,
                factor: OnceLock::new(),
            };
        }
        let Held::Gram { gram, factor } = &mut self.held else {
            unreachable!("converted above")
        };
        factor.take();
        gram
    }

    /// The stacked rows, or `None` for a Gram-held sketch.
    fn stacked(&self) -> Option<&Matrix> {
        match &self.held {
            Held::Rows { buf, .. } => Some(buf),
            Held::Gram { .. } => None,
        }
    }

    /// `‖Bx‖²` for an arbitrary direction `x` (not necessarily unit):
    /// `xᵀGx` for a Gram-held sketch.
    pub fn query(&self, x: &[f64]) -> f64 {
        match &self.held {
            Held::Rows { buf, .. } => buf.apply_norm_sq(x),
            Held::Gram { gram, .. } => {
                assert_eq!(x.len(), self.d, "query: dimension mismatch");
                let q: f64 = gram
                    .iter_rows()
                    .zip(x)
                    .map(|(g, &xi)| xi * vector::dot(g, x))
                    .sum();
                q.max(0.0)
            }
        }
    }

    /// Absorbs one row.
    ///
    /// # Panics
    /// Panics if `row.len() != self.dim()`, if the row's squared norm is
    /// not finite (a NaN or infinite entry, or an overflow) — it would
    /// void `frob_sq_seen` and every bound derived from it — or (never
    /// observed) if the eigensolver of a shrink does not converge.
    pub fn update(&mut self, row: &[f64]) {
        assert_eq!(
            row.len(),
            self.d,
            "FrequentDirections: row dimension mismatch"
        );
        self.frob_sq += finite_norm_sq(row);
        if self.holds_gram() {
            accumulate_outer(self.gram_mut(), row);
        } else {
            self.rows_mut().push_row(row);
        }
        self.settle();
    }

    /// The textbook shrink to `⌈ℓ/2⌉ − 1` rows, in place.
    fn shrink(&mut self) {
        match std::mem::replace(&mut self.held, Held::rows(Matrix::with_cols(self.d))) {
            Held::Rows { buf, .. } => self.shrink_from(&buf),
            Held::Gram { gram, .. } => self.shrink_from_gram(&gram),
        }
    }

    /// Replaces the buffer with the textbook shrink of `rows`: rotated
    /// into their singular basis with `δ = σ²_{keep}` (0-indexed,
    /// `keep = ⌈ℓ/2⌉ − 1`) subtracted from every squared singular value,
    /// `δ` charged to the loss. With no more than `keep` directions the
    /// rows are only re-expressed compactly, at no loss.
    fn shrink_from(&mut self, rows: &Matrix) {
        let svd = gram_svd_blocked(rows).expect("FrequentDirections: eigensolver diverged");
        self.shrink_svd(&svd, || rows.frob_norm_sq());
    }

    /// [`FrequentDirections::shrink_from`] given only the rows' Gram.
    fn shrink_from_gram(&mut self, gram: &Matrix) {
        let svd = svd_from_gram(gram).expect("FrequentDirections: eigensolver diverged");
        // trace(BᵀB) = ‖B‖²_F of the rows the Gram sums.
        self.shrink_svd(&svd, || (0..gram.rows()).map(|i| gram[(i, i)]).sum());
    }

    /// [`FrequentDirections::shrink_from`] given the rows' `(Σ, V)` and,
    /// for the debug check only, their `‖·‖²_F`.
    fn shrink_svd(&mut self, svd: &SvdValuesVectors, rows_frob_sq: impl FnOnce() -> f64) {
        let keep = self.ell.div_ceil(2) - 1;
        if svd.sigma.len() <= keep {
            self.held = Held::rows(nonzero_rows(svd));
            return;
        }
        let delta = svd.sigma[keep] * svd.sigma[keep];
        // Δ ≤ 2‖A‖²_F/ℓ however many rows the buffer held: a sketch built
        // from rows keeps ‖B‖²_F + ⌈ℓ/2⌉·Δ ≤ ‖A‖²_F (a decoded one need
        // not), and δ comes off at least ⌈ℓ/2⌉ squared singular values.
        debug_assert!(
            rows_frob_sq() + (keep + 1) as f64 * self.shrink_loss > self.frob_sq * (1.0 + 1e-9)
                || self.shrink_loss + delta <= self.error_bound() + 1e-9 * self.frob_sq,
            "FrequentDirections: Δ = {} exceeds 2‖A‖²_F/ℓ = {}",
            self.shrink_loss + delta,
            self.error_bound()
        );
        self.shrink_loss += delta;
        let mut out = Matrix::with_cols(self.d);
        for i in 0..keep {
            let s2 = svd.sigma[i] * svd.sigma[i] - delta;
            if s2 <= 0.0 {
                continue;
            }
            let s = s2.sqrt();
            let mut row = svd.vt.row(i).to_vec();
            for v in &mut row {
                *v *= s;
            }
            out.push_row(&row);
        }
        self.held = Held::rows(out);
    }

    /// Merges another sketch of the same shape into this one: stacks the
    /// buffers and, if more than `ℓ − 1` rows survive, performs one shrink
    /// to `⌈ℓ/2⌉ − 1` rows. The combined sketch keeps the FD guarantee
    /// with respect to the union of both input streams.
    ///
    /// # Panics
    /// Panics if dimensions or `ℓ` differ.
    pub fn merge(&mut self, other: &FrequentDirections) {
        self.stack(other);
        self.settle();
    }

    /// [`FrequentDirections::merge`] for a holder that never ships the
    /// result, so a run of merges pays a fraction of the eigensolves.
    /// The rule is one by shape. With `d < 2ℓ`, once the two stacks
    /// would reach `d` rows the sketch holds their exact `d × d` Gram
    /// instead ([`FrequentDirections::holds_gram`]), and from then on a
    /// merge adds `other`'s Gram ([`FrequentDirections::gram`], the same
    /// bits cached or cold): no shrink until
    /// [`FrequentDirections::settle`]. With `d ≥ 2ℓ` rows stack up to
    /// `2ℓ` before one shrink to `⌈ℓ/2⌉ − 1` rows (the double-buffered
    /// FD), so the sketch may hold up to `2ℓ − 1` rows until settled.
    /// The guarantee is the same either way, by the same argument — a
    /// shrink charges its `δ` against `⌈ℓ/2⌉` squared singular values
    /// whatever the buffer's height, and the Gram is the buffer's.
    ///
    /// # Panics
    /// As [`FrequentDirections::merge`].
    pub fn merge_deferred(&mut self, other: &FrequentDirections) {
        // A held Gram stands for at least `d` rows.
        let height = |fd: &FrequentDirections| fd.stacked().map_or(fd.d, Matrix::rows);
        if self.d < 2 * self.ell && height(self) + height(other) >= self.d {
            self.gram_mut();
        }
        self.stack(other);
        if self.stacked().is_some_and(|buf| buf.rows() >= 2 * self.ell) {
            self.shrink();
        }
    }

    /// Stacks another sketch's rows and error scalars with no shrink at
    /// all: the accumulator of a one-shot fold over many sketches, which
    /// one [`FrequentDirections::settle`] then brings back to size. If
    /// either side holds a Gram the result holds the sum of both Grams.
    ///
    /// # Panics
    /// Panics if dimensions or `ℓ` differ.
    pub fn stack(&mut self, other: &FrequentDirections) {
        self.stack_scalars(other);
        match other.stacked().filter(|_| !self.holds_gram()) {
            Some(rows) => self.rows_mut().stack(rows),
            None => self.gram_mut().add_in_place(other.gram()),
        }
    }

    /// The error scalars of [`FrequentDirections::stack`], after its
    /// shape checks.
    fn stack_scalars(&mut self, other: &FrequentDirections) {
        assert_eq!(
            self.d, other.d,
            "FrequentDirections::merge: dimension mismatch"
        );
        assert_eq!(
            self.ell, other.ell,
            "FrequentDirections::merge: ell mismatch"
        );
        self.frob_sq += other.frob_sq;
        self.shrink_loss += other.shrink_loss;
    }

    /// [`FrequentDirections::stack`] every part in order, then
    /// [`FrequentDirections::settle`] — the one-shot fold of many
    /// sketches — without stacking any rows when a tall shrink is due.
    /// With at least `ℓ` and at least `d` rows in all, or any Gram-held
    /// part (or `self`), the shrink's `(Σ, V)` comes from one eigensolve
    /// of the summed Grams ([`FrequentDirections::gram`], cached per
    /// row-held part), so a part whose rows have not changed since the
    /// last fold costs `d²` additions. `frob_sq_seen` and `shrink_loss`
    /// accumulate part by part as under `stack`, bit for bit; the sketch
    /// rows can differ from the stacked shrink's in their last bits (the
    /// Gram is summed per part instead of per row). Fewer than `ℓ` rows
    /// return stacked, unshrunk; fewer than `d` take `stack` and
    /// `settle`'s outer-Gram route.
    ///
    /// # Panics
    /// As [`FrequentDirections::stack`] and
    /// [`FrequentDirections::settle`].
    pub fn fold_settled<'a>(&mut self, parts: impl IntoIterator<Item = &'a FrequentDirections>) {
        let parts: Vec<&FrequentDirections> = parts.into_iter().collect();
        let rows: Option<usize> = std::iter::once(&*self)
            .chain(parts.iter().copied())
            .map(|p| p.stacked().map(Matrix::rows))
            .sum();
        if rows.is_some_and(|rows| rows < self.ell || rows < self.d) {
            for p in parts {
                self.stack(p);
            }
            self.settle();
            return;
        }
        let mut gram = self.gram().clone();
        for p in parts {
            self.stack_scalars(p);
            gram.add_in_place(p.gram());
        }
        self.shrink_from_gram(&gram);
    }

    /// `true` when the sketch holds fewer than `ℓ` rows — the shape
    /// [`FrequentDirections::update`] and [`FrequentDirections::merge`]
    /// leave, and the only one [`FrequentDirections::from_parts`] (and
    /// so the wire decoder) accepts. A Gram-held sketch is never settled.
    pub fn is_settled(&self) -> bool {
        self.stacked().is_some_and(|buf| buf.rows() < self.ell)
    }

    /// Brings a sketch grown by [`FrequentDirections::merge_deferred`]
    /// or [`FrequentDirections::stack`] back to fewer than `ℓ` rows with
    /// one shrink (none when it is already settled), from its rows or
    /// from its held Gram.
    ///
    /// # Panics
    /// Panics (never observed) if the eigensolver fails to converge.
    pub fn settle(&mut self) {
        if !self.is_settled() {
            self.shrink();
        }
    }

    /// [`FrequentDirections::settle`] as a value, leaving this sketch as
    /// it is: borrowed when already settled, otherwise shrunk straight
    /// from this sketch's rows or Gram (bit-identical to settling in
    /// place).
    ///
    /// # Panics
    /// Panics (never observed) if the eigensolver fails to converge.
    pub fn settled(&self) -> Cow<'_, FrequentDirections> {
        if self.is_settled() {
            return Cow::Borrowed(self);
        }
        let mut out = FrequentDirections::new(self.d, self.ell);
        out.frob_sq = self.frob_sq;
        out.shrink_loss = self.shrink_loss;
        match &self.held {
            Held::Rows { buf, .. } => out.shrink_from(buf),
            Held::Gram { gram, .. } => out.shrink_from_gram(gram),
        }
        Cow::Owned(out)
    }

    /// Merges a *flushed sketch* — a stack of rows already summarising
    /// some stream — into this sketch: the rows are stacked in one go
    /// (added to the Gram, if the sketch holds one) and at most **one**
    /// shrink follows, instead of the per-row shrink cadence
    /// [`FrequentDirections::update`] would run. This is the Agarwal et
    /// al. merge with the second operand given as its row matrix, and
    /// the workhorse of tree-structured aggregation (protocol MT-P1's
    /// interior nodes and coordinator fold received sketches with it):
    /// same combined-stream guarantee, a fraction of the eigensolves.
    ///
    /// # Panics
    /// Panics if `rows` has a different column count or a row whose
    /// squared norm is not finite (as [`FrequentDirections::update`]).
    pub fn merge_rows(&mut self, rows: &Matrix) {
        assert_eq!(
            rows.cols(),
            self.d,
            "FrequentDirections::merge_rows: dimension mismatch"
        );
        for row in rows.iter_rows() {
            self.frob_sq += finite_norm_sq(row);
        }
        if self.holds_gram() {
            accumulate_outer_panel(self.gram_mut(), rows);
        } else {
            self.rows_mut().stack(rows);
        }
        self.settle();
    }

    /// Extracts the current sketch and resets the state (keeping `d`, `ℓ`).
    /// This is the "flush" operation of protocol MT-P1 sites. A Gram-held
    /// sketch hands out [`FrequentDirections::sketch`]'s rows.
    ///
    /// # Panics
    /// Panics (never observed) if a Gram-held sketch's eigensolve fails
    /// to converge.
    pub fn take(&mut self) -> (Matrix, f64) {
        let buf = match std::mem::replace(&mut self.held, Held::rows(Matrix::with_cols(self.d))) {
            Held::Rows { buf, .. } => buf,
            Held::Gram { gram, factor } => {
                factor.into_inner().unwrap_or_else(|| gram_factor(&gram))
            }
        };
        let frob = self.frob_sq;
        self.frob_sq = 0.0;
        self.shrink_loss = 0.0;
        (buf, frob)
    }

    /// `(Σ, V)` of the sketch: from its rows, or from its held Gram.
    fn svd(&self) -> SvdValuesVectors {
        match &self.held {
            Held::Rows { buf, .. } => gram_svd_blocked(buf),
            Held::Gram { gram, .. } => svd_from_gram(gram),
        }
        .expect("FrequentDirections: eigensolver diverged")
    }

    /// The best rank-`k` part of the sketch, `B_k = Σ_k V_kᵀ` (rows are
    /// `σᵢ vᵢᵀ` for the sketch's top `k` directions).
    ///
    /// This is the `B_k` of the relative-error Frequent Directions
    /// analysis (Ghashami & Phillips, SODA 2014 — reference \[21\] of the
    /// paper): with `ℓ = O(k/ε)` rows,
    /// `‖A‖²_F − ‖B_k‖²_F ≤ (1+ε)·‖A − A_k‖²_F` and projecting `A` onto
    /// `B_k`'s row space loses at most `(1+ε)` times the optimal rank-`k`
    /// residual. The integration tests check both empirically.
    ///
    /// # Panics
    /// Panics (never observed) if the eigensolver fails to converge.
    pub fn rank_k_sketch(&self, k: usize) -> Matrix {
        let svd = self.svd();
        let mut out = Matrix::with_cols(self.d);
        for i in 0..k.min(svd.sigma.len()) {
            if svd.sigma[i] <= 0.0 {
                break;
            }
            let mut row = svd.vt.row(i).to_vec();
            for v in &mut row {
                *v *= svd.sigma[i];
            }
            out.push_row(&row);
        }
        out
    }

    /// The top-`k` right singular vectors of the sketch as rows — the
    /// subspace a PCA/LSI consumer would project onto.
    ///
    /// # Panics
    /// Panics (never observed) if the eigensolver fails to converge.
    pub fn top_directions(&self, k: usize) -> Matrix {
        let svd = self.svd();
        let mut out = Matrix::with_cols(self.d);
        for i in 0..k.min(svd.sigma.len()) {
            if svd.sigma[i] <= 0.0 {
                break;
            }
            out.push_row(svd.vt.row(i));
        }
        out
    }
}

/// Rows `σᵢvᵢᵀ` whose Gram is `gram`: the sketch a Gram-held
/// [`FrequentDirections`] reports.
fn gram_factor(gram: &Matrix) -> Matrix {
    nonzero_rows(&svd_from_gram(gram).expect("FrequentDirections: eigensolver diverged"))
}

/// The nonzero rows of `Σ Vᵀ`: a compact matrix with the decomposed
/// rows' Gram.
fn nonzero_rows(svd: &SvdValuesVectors) -> Matrix {
    let mut out = Matrix::with_cols(svd.vt.cols());
    for row in svd.sigma_vt().iter_rows() {
        if row.iter().any(|&v| v != 0.0) {
            out.push_row(row);
        }
    }
    out
}

/// `‖row‖²`, asserted finite: a NaN or infinite entry (or an overflow)
/// would otherwise turn `frob_sq_seen` and `error_bound` into NaN and
/// surface only at the next shrink, as a failing eigensolver.
fn finite_norm_sq(row: &[f64]) -> f64 {
    let sq = row.iter().map(|v| v * v).sum::<f64>();
    assert!(
        sq.is_finite(),
        "FrequentDirections: non-finite row (squared norm {sq}: a NaN or infinite entry, or overflow)"
    );
    sq
}

#[cfg(test)]
mod tests {
    use super::*;
    use cma_linalg::random;
    use cma_linalg::svd::jacobi_svd;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// Exhaustively checks the FD guarantee against many random directions
    /// plus the singular directions of A (the worst cases).
    fn assert_fd_guarantee(a: &Matrix, fd: &FrequentDirections) {
        let mut rng = StdRng::seed_from_u64(0xFD);
        let slack = 1e-7 * a.frob_norm_sq().max(1.0);
        let bound = fd.error_bound() + slack;
        let loss = fd.shrink_loss() + slack;
        assert!(
            fd.shrink_loss() <= fd.error_bound() + slack,
            "Δ exceeds 2‖A‖²F/ℓ"
        );

        let mut dirs: Vec<Vec<f64>> = (0..20)
            .map(|_| random::unit_vector(&mut rng, a.cols()))
            .collect();
        let svd = jacobi_svd(a).unwrap();
        for i in 0..svd.sigma.len().min(4) {
            dirs.push(svd.vt.row(i).to_vec());
        }
        for x in &dirs {
            let ax = a.apply_norm_sq(x);
            let bx = fd.query(x);
            assert!(bx <= ax + slack, "‖Bx‖² exceeds ‖Ax‖²: {bx} > {ax}");
            assert!(
                ax - bx <= loss,
                "error {} exceeds tracked loss {}",
                ax - bx,
                loss
            );
            assert!(
                ax - bx <= bound,
                "error {} exceeds bound {}",
                ax - bx,
                bound
            );
        }
    }

    #[test]
    fn exact_until_buffer_full() {
        let mut fd = FrequentDirections::new(3, 8);
        let a = Matrix::from_rows(&[
            vec![1.0, 0.0, 0.0],
            vec![0.0, 2.0, 0.0],
            vec![1.0, 1.0, 1.0],
        ]);
        for r in a.iter_rows() {
            fd.update(r);
        }
        assert_eq!(fd.shrink_loss(), 0.0);
        let x = [0.5, 0.5, std::f64::consts::FRAC_1_SQRT_2];
        assert!((fd.query(&x) - a.apply_norm_sq(&x)).abs() < 1e-12);
    }

    #[test]
    fn guarantee_random_gaussian() {
        let mut rng = StdRng::seed_from_u64(1);
        let a = random::gaussian(&mut rng, 300, 10);
        let mut fd = FrequentDirections::new(10, 12);
        for r in a.iter_rows() {
            fd.update(r);
        }
        assert!(fd.sketch().rows() <= 12);
        assert_fd_guarantee(&a, &fd);
    }

    #[test]
    fn guarantee_low_rank_input() {
        let mut rng = StdRng::seed_from_u64(2);
        let a = random::with_spectrum(&mut rng, 200, 12, &[40.0, 20.0, 8.0]);
        let mut fd = FrequentDirections::new(12, 8);
        for r in a.iter_rows() {
            fd.update(r);
        }
        assert_fd_guarantee(&a, &fd);
        // Low-rank input: FD should capture the top direction almost
        // exactly since the tail mass (which drives δ) is tiny.
        let svd = jacobi_svd(&a).unwrap();
        let v1 = svd.vt.row(0);
        let captured = fd.query(v1) / a.apply_norm_sq(v1);
        assert!(captured > 0.95, "top direction only {captured} captured");
    }

    #[test]
    fn guarantee_under_blocked_kernels_at_production_shape() {
        // The shape every SwFd bucket merge decomposes (two ℓ = 40
        // sketches stacked at d = 44: an 80×44 buffer, a 44×44 Gram) on a
        // flat spectrum, where the shrink's σ²_keep is an interior
        // eigenvalue with no gap around it — through the production
        // eigensolver, shrinks and merges alike.
        let mut rng = StdRng::seed_from_u64(44);
        let a = random::gaussian(&mut rng, 1_200, 44);
        let mut whole = FrequentDirections::new(44, 80);
        let mut parts: Vec<FrequentDirections> =
            (0..3).map(|_| FrequentDirections::new(44, 40)).collect();
        for (i, r) in a.iter_rows().enumerate() {
            whole.update(r);
            parts[i % 3].update(r);
        }
        assert_fd_guarantee(&a, &whole);
        let mut merged = parts.remove(0);
        for p in &parts {
            merged.merge(p);
        }
        assert_fd_guarantee(&a, &merged);
    }

    #[test]
    fn frobenius_tracking_exact() {
        let mut rng = StdRng::seed_from_u64(3);
        let a = random::gaussian(&mut rng, 100, 6);
        let mut fd = FrequentDirections::new(6, 4);
        for r in a.iter_rows() {
            fd.update(r);
        }
        assert!((fd.frob_sq_seen() - a.frob_norm_sq()).abs() < 1e-9 * a.frob_norm_sq());
    }

    #[test]
    fn sketch_never_exceeds_ell_rows() {
        let mut rng = StdRng::seed_from_u64(4);
        let mut fd = FrequentDirections::new(5, 6);
        for _ in 0..500 {
            let row: Vec<f64> = (0..5).map(|_| random::standard_normal(&mut rng)).collect();
            fd.update(&row);
            assert!(fd.sketch().rows() < 6);
        }
    }

    #[test]
    fn merge_preserves_guarantee() {
        let mut rng = StdRng::seed_from_u64(5);
        let a = random::gaussian(&mut rng, 400, 8);
        let mut parts: Vec<FrequentDirections> =
            (0..4).map(|_| FrequentDirections::new(8, 10)).collect();
        for (i, r) in a.iter_rows().enumerate() {
            parts[i % 4].update(r);
        }
        let mut merged = parts.remove(0);
        for p in &parts {
            merged.merge(p);
        }
        assert!(merged.sketch().rows() <= 10);
        assert_fd_guarantee(&a, &merged);
    }

    #[test]
    fn deferred_merges_and_one_shot_stack_keep_guarantee() {
        let mut rng = StdRng::seed_from_u64(8);
        let a = random::gaussian(&mut rng, 600, 12);
        let ell = 6;
        let mut parts: Vec<FrequentDirections> =
            (0..20).map(|_| FrequentDirections::new(12, ell)).collect();
        for (i, r) in a.iter_rows().enumerate() {
            parts[i % 20].update(r);
        }
        let mut deferred = parts[0].clone();
        for p in &parts[1..] {
            deferred.merge_deferred(p);
            assert!(deferred.sketch().rows() < 2 * ell);
        }
        assert_fd_guarantee(&a, &deferred);
        // Settling a copy and settling in place agree bit for bit.
        let copy = deferred.settled().into_owned();
        deferred.settle();
        assert!(deferred.is_settled());
        assert!(matches!(deferred.settled(), Cow::Borrowed(_)));
        assert_eq!(copy.sketch().as_slice(), deferred.sketch().as_slice());
        assert_eq!(copy.shrink_loss(), deferred.shrink_loss());
        assert_fd_guarantee(&a, &deferred);

        let mut stacked = FrequentDirections::new(12, ell);
        for p in &parts {
            stacked.stack(p);
        }
        assert_eq!(
            stacked.sketch().rows(),
            parts.iter().map(|p| p.sketch().rows()).sum()
        );
        stacked.settle();
        assert!(stacked.is_settled());
        assert_fd_guarantee(&a, &stacked);
    }

    /// At `d < 2ℓ` a deferred merge trades rows for their Gram, and no
    /// mutating call may lose what that Gram holds: after the same call,
    /// the Gram-held sketch and a row-held twin that stacked the same
    /// parts agree on `frob_sq_seen` bit for bit and on their Grams (and
    /// `shrink_loss`) to rounding.
    #[test]
    fn gram_held_sketch_keeps_its_mass_through_every_mutation() {
        let (d, ell) = (10, 8);
        let mut rng = StdRng::seed_from_u64(9);
        let a = random::gaussian(&mut rng, 240, d);
        let mut parts: Vec<FrequentDirections> =
            (0..12).map(|_| FrequentDirections::new(d, ell)).collect();
        for (i, r) in a.iter_rows().enumerate() {
            parts[i % 12].update(r);
        }
        let (mut held, mut twin) = (parts[0].clone(), parts[0].clone());
        for p in &parts[1..4] {
            held.merge_deferred(p);
            twin.stack(p);
        }
        assert!(
            held.holds_gram(),
            "nothing Gram-held: the case tests nothing"
        );
        assert!(!twin.holds_gram());
        assert!(held.sketch().rows() > 0, "a Gram-held sketch reports rows");
        let extra = random::gaussian(&mut rng, 5, d);
        let apply = |op: usize, fd: &mut FrequentDirections| match op {
            0 => {
                fd.update(extra.row(0));
                None
            }
            1 => {
                fd.stack(&parts[4]);
                None
            }
            2 => {
                fd.merge(&parts[4]);
                None
            }
            3 => {
                fd.merge_rows(&extra);
                None
            }
            _ => Some(fd.take()),
        };
        let close = |x: &Matrix, y: &Matrix, tol: f64| x.sub(y).max_abs() <= tol;
        for op in 0..5 {
            let (mut g, mut t) = (held.clone(), twin.clone());
            let (taken_g, taken_t) = (apply(op, &mut g), apply(op, &mut t));
            assert_eq!(g.frob_sq_seen().to_bits(), t.frob_sq_seen().to_bits());
            let tol = 1e-9 * held.frob_sq_seen();
            match (taken_g, taken_t) {
                (Some((bg, fg)), Some((bt, ft))) => {
                    assert_eq!(fg.to_bits(), ft.to_bits());
                    assert!(close(&bg.gram(), &bt.gram(), tol), "take lost mass");
                    assert!(g.is_empty() && !g.holds_gram());
                }
                _ => {
                    assert!(close(g.gram(), t.gram(), tol), "op {op} lost mass");
                    assert!((g.shrink_loss() - t.shrink_loss()).abs() <= tol);
                    assert_eq!(g.is_settled(), t.is_settled(), "op {op}");
                }
            }
        }
    }

    #[test]
    fn with_error_bound_sets_ell() {
        let fd = FrequentDirections::with_error_bound(4, 0.1);
        assert_eq!(fd.ell(), 20);
    }

    #[test]
    fn take_resets_state() {
        let mut fd = FrequentDirections::new(3, 4);
        fd.update(&[1.0, 2.0, 3.0]);
        let (sketch, frob) = fd.take();
        assert_eq!(sketch.rows(), 1);
        assert_eq!(frob, 14.0);
        assert!(fd.is_empty());
        assert_eq!(fd.ell(), 4);
    }

    #[test]
    fn zero_rows_are_harmless() {
        let mut fd = FrequentDirections::new(3, 4);
        for _ in 0..10 {
            fd.update(&[0.0, 0.0, 0.0]);
        }
        assert_eq!(fd.frob_sq_seen(), 0.0);
        assert_eq!(fd.query(&[1.0, 0.0, 0.0]), 0.0);
    }

    #[test]
    #[should_panic(expected = "row dimension mismatch")]
    fn wrong_dimension_panics() {
        FrequentDirections::new(3, 4).update(&[1.0]);
    }

    #[test]
    #[should_panic(expected = "non-finite row")]
    fn nan_row_panics_at_update() {
        // The buffer is far from full, so no shrink runs: without the
        // check the NaN would only surface in the bounds.
        let mut fd = FrequentDirections::new(3, 8);
        fd.update(&[1.0, 2.0, 3.0]);
        fd.update(&[f64::NAN, 0.0, 0.0]);
    }

    #[test]
    #[should_panic(expected = "non-finite row")]
    fn infinite_row_panics_at_merge_rows() {
        let rows = Matrix::from_rows(&[vec![1.0, 0.0], vec![0.0, f64::INFINITY]]);
        FrequentDirections::new(2, 8).merge_rows(&rows);
    }

    #[test]
    fn rank_k_sketch_has_k_rows_and_top_energy() {
        let mut rng = StdRng::seed_from_u64(6);
        let a = random::with_spectrum(&mut rng, 150, 10, &[30.0, 10.0, 3.0, 1.0]);
        let mut fd = FrequentDirections::new(10, 12);
        for r in a.iter_rows() {
            fd.update(r);
        }
        let b2 = fd.rank_k_sketch(2);
        assert_eq!(b2.rows(), 2);
        // The rank-2 part captures most of the sketch's energy on this
        // sharply-decaying input.
        assert!(b2.frob_norm_sq() > 0.8 * fd.sketch().frob_norm_sq());
        // Asking beyond the sketch rank truncates gracefully.
        let b99 = fd.rank_k_sketch(99);
        assert!(b99.rows() <= fd.sketch().rows());
    }

    #[test]
    fn top_directions_are_orthonormal() {
        let mut rng = StdRng::seed_from_u64(7);
        let a = random::gaussian(&mut rng, 120, 8);
        let mut fd = FrequentDirections::new(8, 10);
        for r in a.iter_rows() {
            fd.update(r);
        }
        let v = fd.top_directions(4);
        assert_eq!(v.rows(), 4);
        let vvt = v.matmul(&v.transpose());
        for i in 0..4 {
            for j in 0..4 {
                let want = if i == j { 1.0 } else { 0.0 };
                assert!((vvt[(i, j)] - want).abs() < 1e-9);
            }
        }
    }

    #[test]
    fn duplicate_direction_concentrates() {
        // Feeding the same unit row n times: sketch must report ≈ n along it.
        let mut fd = FrequentDirections::new(4, 6);
        let e0 = [1.0, 0.0, 0.0, 0.0];
        for _ in 0..100 {
            fd.update(&e0);
        }
        let q = fd.query(&e0);
        assert!(q <= 100.0 + 1e-9);
        assert!(q >= 100.0 - fd.error_bound() - 1e-9);
    }
}
