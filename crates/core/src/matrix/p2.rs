//! Protocol MT-P2 — singular-direction thresholds (paper §5.2).
//!
//! The matrix analogue of HH-P2 and the paper's best deterministic
//! protocol. Each site accumulates its unsent rows in a matrix `Bj` and,
//! per Algorithm 5.3, ships the direction `σℓ·vℓ` to the coordinator
//! whenever some squared singular value reaches `(ε/m)·F̂`, zeroing it
//! locally. Scalar messages track `F̂` exactly as in HH-P2 (`m` scalar
//! reports → broadcast, Algorithm 5.4). Lemma 8 gives
//! `0 ≤ ‖Ax‖² − ‖Bx‖² ≤ ε‖A‖²_F` at `O((m/ε) log(βN))` messages.
//!
//! # Exact lazy SVD
//!
//! Algorithm 5.3 as written decomposes `Bj` on *every* arrival, and
//! Algorithm 5.4's coordinator stacks every direction it receives. Five
//! observations make the implementation fast without weakening the send
//! rule, the invariant or Lemma 8:
//!
//! 1. Only the Gram of `Bj` matters (both for the send rule and the
//!    guarantee), so after an SVD the site re-expresses `Bj` as
//!    `Σ Vᵀ` — at most `d` rows, losslessly.
//! 2. Appending rows of total squared mass `ΔF` can raise any
//!    `σ²` by at most `ΔF` (Weyl's inequality for the Gram update). So
//!    with `s²` an upper bound on `σ²max` as of the previous check, no
//!    direction can reach the threshold until `s² + ΔF ≥ (ε/m)F̂` — and
//!    the check is skipped until then. At `batch_slack = 0` the send
//!    decisions are identical to the per-row variant's at every row
//!    boundary (any bound `≥ σ²max` forces a check at the first row where
//!    `σ²max` reaches the threshold); only wasted decompositions are
//!    elided. With slack a direction ships at the first *check* at which
//!    it has reached the send threshold `(1 − slack)·(ε/m)F̂` — what
//!    [`MP2Options::batch_slack`] describes — while the invariant is
//!    still enforced at every row. The `ablation_lazy_svd` benchmark
//!    measures the gap.
//! 3. The `Σ Vᵀ` form has rank at most the number of rows absorbed since
//!    the sketch was last emptied, which on high-dimensional streams is
//!    far below `d`. The site therefore keeps only the nonzero directions
//!    (`r ≤ d` rows `σᵢ·vᵢᵀ`) plus the raw rows absorbed since, and
//!    decomposes the stacked `s × d` matrix (`s = r + k`) on its *small
//!    side*: one `s×s` outer Gram `S·Sᵀ`, one `s×s` Householder + QL
//!    eigensolve ([`cma_linalg::ql`]), and one `s×s · s×d` product
//!    recovering the directions. At `s ≪ d` this replaces the `O(d³)`
//!    full-`d` eigensolve with `O(s²d + s³)` — the dominant cost of this
//!    protocol at large `d` — and an arriving row is appended as it is,
//!    with no per-row projection.
//! 4. Deciding *whether* anything must be sent needs one sign, not a
//!    spectrum. The Weyl bound of observation 2 is loose on a flat
//!    spectrum — on the MSD-like benchmark stream 64 % of the triggered
//!    decompositions shipped nothing and cost 89 % of the eigensolve
//!    time — so a node first asks [`cma_linalg::cholesky`] to *prove*
//!    `λ_max(Bjᵀ Bj) < send` on the small-side Gram: one `n³/3` Cholesky
//!    factorisation of
//!    `send·I − G`. **Refused** ⇒ the decomposition of observation 3
//!    runs, and ships at least one direction. **Passed** ⇒ nothing could
//!    ship, so nothing is decomposed: five bisection steps tighten the
//!    certified bound towards `λ_max` (resolution `(send − max diag)/32`,
//!    about a tenth of the default slack), the bound becomes the new `s²`
//!    of observation 2, and the rows stay as they are — un-orthogonalised,
//!    which correctness never needed (observation 1). The certificate and
//!    the bisection decide six points but factor about one:
//!    `cholesky::bracketed_upper_bound` brackets `λ_max` between a
//!    Rayleigh quotient and one passed factorisation a little above it,
//!    and a point outside the bracket has a known answer. Its Lanczos
//!    steps start from a warm vector the node keeps — the last check's
//!    iterate, `e₀` (the top kept direction) after a decomposition,
//!    carried to `Sᵀu` when the small side flips — so the bound is bit
//!    for bit the one six factorisations would give. The send rule, the
//!    invariant `λ_max < (ε/m)F̂` — now certified rather than inferred —
//!    and the form of the lazy trigger are unchanged; check times move by
//!    less than the bisection's resolution. Two details:
//!    * *Saturation.* Rows that are no longer re-expressed pile up, so
//!      the "small side" flips: when a `d+1`-th row arrives the node
//!      replaces its `d` rows by their `d×d` Gram (the same `d²` floats)
//!      and updates it by one rank-1 `accumulate_outer` per row — no
//!      `O(s·d²)` re-formation per check — until the next decomposition
//!      hands back at most `d` rows. Conversely, while the stack is small
//!      a decomposition is also what *compresses* it to its rank, so the
//!      certificate stands in for one only until the stack has doubled
//!      (`Withheld::check`); a low-rank stream therefore keeps
//!      `s ≈ rank`, exactly as before.
//!    * *Floating point.* A pass is a proof including rounding: the
//!      factored shift is `send·(1 − 10⁻⁹)`, which exceeds Higham's
//!      backward-error bound `n(n+1)·u` for the factorisation by three
//!      orders at `n = 90` (and the `O(n·u)` error of forming the Gram
//!      with it). The certificate may therefore refuse in the sliver
//!      `λ_max ∈ [send·(1 − 2·10⁻⁹), send)`; a refusal only costs the
//!      decomposition that used to run anyway.
//! 5. The coordinator needs only the Gram too: Lemma 8 reads
//!    `‖Bx‖² = xᵀ(BᵀB)x`. So [`MP2Coordinator`] holds the `d×d` Gram of
//!    the received directions, not their stack: a direction adds in with
//!    one `accumulate_outer`, a direction query costs `O(d²)` however many
//!    directions have arrived, the root's state is `d²` floats instead of
//!    one row per message, and the sketch is at most `d` rows `σᵢ·vᵢᵀ`
//!    from one eigensolve. The test-side recording root keeps the stack
//!    as the oracle: `coordinator_answers_as_the_received_stack` pins
//!    answers, sketch Gram and snapshot against it.
//!
//! The seed's eager layout — the full `d×d` withheld Gram, decomposed
//! with cyclic Jacobi at **every** trigger, observations 1 and 2 only —
//! survives as the oracle of this module's tests:
//! `kernel_paths_agree_on_stream` pins an identical message schedule
//! against it at `batch_slack = 0` and the same guarantee at near-equal
//! cost with slack, and `certified_bound_holds_after_every_arrival`
//! re-derives the invariant from a fresh eigensolve after every row.
//!
//! The paper's bounded-space variant (two Frequent Directions sketches
//! with `ε' = ε/4m` per site) is subsumed by observation 1 — the `Σ Vᵀ`
//! form is already `O(d²)` space *and exact* — but is still provided as
//! [`deploy_bounded`] for fidelity and for the ablation benchmarks.

use super::{row_weight, MatrixEstimator, Row};
use crate::config::MatrixConfig;
use crate::wire::{
    put_matrix, put_sym, read_fraction, read_gram, read_mass, read_matrix, read_w_hat,
};
use cma_linalg::cholesky::bracketed_upper_bound;
use cma_linalg::matrix::accumulate_outer;
use cma_linalg::ql::ql_eigen_sym;
use cma_linalg::{vector, Matrix};
use cma_sketch::FrequentDirections;
use cma_stream::{
    put_f64, put_usize, AggNode, Aggregator, BudgetShare, ChurnBudget, ChurnCoordinator, ChurnSite,
    Coordinator, MessageCost, MigratableAggregator, Runner, Site, SiteId, Topology, WireCodec,
    WireReader,
};
use std::borrow::Cow;

/// Site → coordinator messages of protocol MT-P2.
#[derive(Debug, Clone)]
pub enum MP2Msg {
    /// `(total, Fj)` — squared Frobenius mass since the last report.
    Scalar(f64),
    /// A direction `σℓ·vℓ` whose squared norm crossed the threshold.
    Direction(Row),
}

impl MessageCost for MP2Msg {
    fn cost(&self) -> u64 {
        1
    }

    /// Exact size of the [`crate::wire`] encoding: tag plus payload.
    fn wire_bytes(&self) -> u64 {
        match self {
            MP2Msg::Scalar(_) => 9,
            MP2Msg::Direction(v) => 1 + crate::wire::row_bytes(v),
        }
    }

    /// Scalars report incremental Frobenius mass; a direction carries
    /// its squared norm.
    fn mass(&self) -> f64 {
        match self {
            MP2Msg::Scalar(f) => *f,
            MP2Msg::Direction(v) => v.iter().map(|x| x * x).sum(),
        }
    }
}

/// The withheld matrix `Bj` of an MT-P2 node, held on whichever side is
/// smaller (module doc, observations 3 and 4). Only its Gram matters, so
/// neither form keeps the rows orthogonal between decompositions.
#[derive(Debug, Clone)]
enum Withheld {
    /// `s ≤ d` rows whose Gram is the withheld Gram, in one contiguous
    /// matrix — appending is `O(d)` and a check works on the `s×s` outer
    /// Gram.
    Rows {
        rows: Matrix,
        /// How many leading rows are the directions `σᵢ·vᵢᵀ` the last
        /// decomposition handed back; the rest are raw rows absorbed
        /// since.
        directions: usize,
    },
    /// Rank saturated — a `d+1`-th row arrived: the `d×d` withheld Gram
    /// itself (the same `d²` floats as the `d` rows it replaces), updated
    /// by one rank-1 `accumulate_outer` per row until the next
    /// decomposition hands back rows again.
    Gram(Matrix),
}

impl Withheld {
    fn empty(dim: usize) -> Self {
        Withheld::Rows {
            rows: Matrix::with_cols(dim),
            directions: 0,
        }
    }

    /// Appends a row. The flip to the `d×d` Gram carries the warm vector
    /// `u` of the small side over to `Sᵀu`, its image on the Gram's side.
    fn push(&mut self, row: &[f64], warm: &mut Vec<f64>) {
        match self {
            Withheld::Rows { rows, .. } if rows.rows() < rows.cols() => rows.push_row(row),
            Withheld::Rows { rows, .. } => {
                warm.resize(rows.rows(), 0.0);
                let image = rows.apply_transpose(warm);
                warm.copy_from_slice(&image);
                let mut gram = rows.gram();
                accumulate_outer(&mut gram, row);
                *self = Withheld::Gram(gram);
            }
            Withheld::Gram(gram) => accumulate_outer(gram, row),
        }
    }

    /// The withheld Gram on its small side — `S·Sᵀ` (`s×s`) of the rows,
    /// or the saturated `d×d` Gram itself. Same nonzero spectrum either
    /// way.
    fn small_gram(&self) -> Cow<'_, Matrix> {
        match self {
            Withheld::Rows { rows, .. } => Cow::Owned(rows.outer_gram()),
            Withheld::Gram(gram) => Cow::Borrowed(gram),
        }
    }

    /// The certified trigger (module doc, observation 4). Returns an
    /// upper bound on `λ_max` of what stays withheld: a certified one
    /// below `send` when the certificate passes — nothing could ship, so
    /// nothing is decomposed — and the exact one after a decomposition.
    ///
    /// A decomposition does a second job besides shipping: it compresses
    /// `s` stacked rows to their rank. So the certificate may stand in
    /// for it only while the raw rows do not outnumber the directions
    /// they were stacked on — a stack that has more than doubled is
    /// decomposed outright, which is what keeps a low-rank stream at
    /// `s ≈ rank` instead of letting it grow to `d` one passed check at a
    /// time (measured at d = 256, rank 3: 2.3× slower without this rule,
    /// level with the eager layout with it). On a stream whose rank keeps
    /// up with its rows the stack never doubles and every check asks the
    /// certificate first.
    ///
    /// `warm` is the start vector of the certificate's Lanczos steps
    /// (`bracketed_upper_bound`), one entry per row of the small side:
    /// the iterate the last check left, zero-padded for the rows absorbed
    /// since, or `e₀` — the top kept direction — after a decomposition.
    fn check(&mut self, send: f64, warm: &mut Vec<f64>, out: &mut Vec<MP2Msg>) -> f64 {
        let compressible = match &*self {
            Withheld::Rows { rows, directions } => rows.rows() > 2 * directions,
            Withheld::Gram(_) => false,
        };
        let small = self.small_gram();
        if !compressible {
            warm.resize(small.rows(), 0.0);
            if let Some(bound) = bracketed_upper_bound(&small, send, warm) {
                return bound;
            }
        }
        let spectrum = self.spectrum(&small);
        self.keep_below(send, spectrum, warm, out)
    }

    /// The eager step of Algorithm 5.3: decomposes, ships every direction
    /// with `σ² ≥ send`, re-expresses the rest as `Σ Vᵀ` rows and returns
    /// their largest `σ²`.
    fn decompose(&mut self, send: f64, warm: &mut Vec<f64>, out: &mut Vec<MP2Msg>) -> f64 {
        let spectrum = self.spectrum(&self.small_gram());
        self.keep_below(send, spectrum, warm, out)
    }

    /// Eigen-directions of the withheld Gram, descending: `λᵢ = σᵢ²` and
    /// the rows `σᵢ·vᵢᵀ`, from the eigenvectors `U` of the small-side
    /// Gram `small` — one Householder + QL eigensolve
    /// ([`ql_eigen_sym`]), full precision at no tolerance.
    fn spectrum(&self, small: &Matrix) -> (Vec<f64>, Matrix) {
        match self {
            // P = Uᵀ·S has rows σᵢ·vᵢᵀ, and PᵀP = Sᵀ(UUᵀ)S = SᵀS to the
            // orthonormality of the accumulated reflections and rotations
            // (machine precision), so the re-expression is lossless
            // independently of eigenvalue accuracy.
            Withheld::Rows { rows, .. } => {
                let eig = ql_eigen_sym(small).expect("MT-P2: eigensolver failed");
                (eig.values, eig.vectors.matmul(rows))
            }
            Withheld::Gram(_) => gram_spectrum(small),
        }
    }

    /// Ships the directions at or above `send`, keeps the rest as rows,
    /// and points `warm` at the top kept one (`e₀`; empty if none is).
    fn keep_below(
        &mut self,
        send: f64,
        spectrum: (Vec<f64>, Matrix),
        warm: &mut Vec<f64>,
        out: &mut Vec<MP2Msg>,
    ) -> f64 {
        let (rows, smax2) = split_spectrum(send, spectrum, out);
        warm.clear();
        if rows.rows() > 0 {
            warm.push(1.0);
        }
        *self = Withheld::Rows {
            directions: rows.rows(),
            rows,
        };
        smax2
    }

    /// Canonical withheld rows. A saturated node re-expresses its Gram
    /// through one eigensolve — snapshot encode only, off the ingest
    /// path.
    fn to_rows(&self) -> Matrix {
        match self {
            Withheld::Rows { rows, .. } => rows.clone(),
            Withheld::Gram(gram) => gram_rows(gram),
        }
    }
}

/// Eigen-directions of a `d×d` Gram, descending: `λᵢ` and the rows
/// `√λᵢ·vᵢᵀ` — one [`ql_eigen_sym`].
fn gram_spectrum(gram: &Matrix) -> (Vec<f64>, Matrix) {
    let eig = ql_eigen_sym(gram).expect("MT-P2: eigensolver failed");
    let mut dirs = eig.vectors;
    for (i, &lam) in eig.values.iter().enumerate() {
        vector::scale(lam.max(0.0).sqrt(), dirs.row_mut(i));
    }
    (eig.values, dirs)
}

/// At most `d` rows `σᵢ·vᵢᵀ` whose Gram is `gram`, structurally zero
/// directions dropped (`split_spectrum` with nothing shipped).
fn gram_rows(gram: &Matrix) -> Matrix {
    split_spectrum(f64::INFINITY, gram_spectrum(gram), &mut Vec::new()).0
}

/// Splits eigen-directions `(λᵢ, σᵢ·vᵢᵀ)` at `send`: those at or above
/// it become messages, the rest are returned with their largest `λ`.
/// `λ ≤ ulp(trace)` is a structurally zero direction — dropping the row
/// discards at most machine-noise mass, the size of the eigensolver's own
/// rounding.
fn split_spectrum(
    send: f64,
    (values, dirs): (Vec<f64>, Matrix),
    out: &mut Vec<MP2Msg>,
) -> (Matrix, f64) {
    let trace: f64 = values.iter().map(|l| l.max(0.0)).sum();
    let floor = f64::EPSILON * trace;
    let mut kept = Matrix::with_cols(dirs.cols());
    let mut smax2 = 0.0_f64;
    for (i, &lam) in values.iter().enumerate() {
        let s2 = lam.max(0.0);
        if s2 <= floor {
            continue;
        }
        if s2 >= send {
            out.push(MP2Msg::Direction(dirs.row(i).to_vec()));
        } else {
            kept.push_row(dirs.row(i));
            smax2 = smax2.max(s2);
        }
    }
    (kept, smax2)
}

/// MT-P2 site: the exact withheld matrix `Bj`, held on its small side
/// (`Withheld`; module doc, observations 3 and 4).
#[derive(Debug, Clone)]
pub struct MP2Site {
    withheld: Withheld,
    /// Start vector of the next check's Lanczos steps (`Withheld::check`):
    /// capacity `d`, allocated once, never encoded.
    warm: Vec<f64>,
    /// Total squared mass absorbed since the last check.
    pending_mass: f64,
    /// Upper bound on `λ_max` of the withheld Gram as of the last check:
    /// exact after a decomposition, certified after a check that needed
    /// none.
    smax2: f64,
    /// Scalar-report accumulator `Fj`.
    f_local: f64,
    /// Batch slack (see [`MP2Options::batch_slack`]).
    slack: f64,
    /// Invariant threshold as a fraction of `F̂`: `ε/m` in a star,
    /// `ε/(m+I)` in a tree with `I` interior nodes.
    thr_frac: f64,
    f_hat: f64,
}

/// MT-P2 tuning knobs.
#[derive(Debug, Clone)]
pub struct MP2Options {
    /// Batch slack `∈ [0, 1)`: directions are shipped once they reach
    /// `(1 − slack)·(ε/m)·F̂`, while the invariant
    /// `max_x ‖Bjx‖² < (ε/m)·F̂` is still enforced — so each
    /// decomposition is guaranteed a batch of at least `slack·(ε/m)·F̂`
    /// mass. `0` reproduces Algorithm 5.3's per-row behaviour exactly;
    /// the default `0.25` is the paper's own batch-mode ratio (§5.2 uses
    /// send threshold `3ε/4m`) and sends at most `1/(1−slack)`× more
    /// messages.
    pub batch_slack: f64,
}

impl Default for MP2Options {
    fn default() -> Self {
        MP2Options { batch_slack: 0.25 }
    }
}

impl MP2Site {
    fn new(cfg: &MatrixConfig, opts: &MP2Options) -> Self {
        Self::with_thr_frac(cfg, opts, cfg.epsilon / cfg.sites as f64)
    }

    fn with_thr_frac(cfg: &MatrixConfig, opts: &MP2Options, thr_frac: f64) -> Self {
        assert!(
            (0.0..1.0).contains(&opts.batch_slack),
            "MP2Options: batch_slack must be in [0, 1)"
        );
        MP2Site {
            withheld: Withheld::empty(cfg.dim),
            warm: Vec::with_capacity(cfg.dim),
            pending_mass: 0.0,
            smax2: 0.0,
            f_local: 0.0,
            slack: opts.batch_slack,
            thr_frac,
            f_hat: 1.0,
        }
    }

    /// Invariant threshold `(ε/m)·F̂`: `max_x ‖Bjx‖²` must stay below it.
    fn threshold(&self) -> f64 {
        self.thr_frac * self.f_hat
    }

    /// Ship threshold `(1 − slack)·(ε/m)·F̂`.
    fn send_threshold(&self) -> f64 {
        (1.0 - self.slack) * self.threshold()
    }

    /// Withholds a row of squared mass `w` and runs the lazy trigger
    /// (module doc, observations 2 and 4): once the bound could reach the
    /// threshold, the certificate is asked first and a decomposition runs
    /// only when something must ship or the stack is due for compression
    /// (`Withheld::check`).
    fn withhold(&mut self, row: &[f64], w: f64, out: &mut Vec<MP2Msg>) {
        self.withheld.push(row, &mut self.warm);
        self.pending_mass += w;
        if self.smax2 + self.pending_mass >= self.threshold() {
            self.smax2 = self
                .withheld
                .check(self.send_threshold(), &mut self.warm, out);
            self.pending_mass = 0.0;
        }
    }

    /// Tree-aggregation path: withholds a direction row relayed from a
    /// child node under the same lazy trigger as [`MP2Site::observe`] —
    /// but with **no** scalar (`F̂`-tracking) accounting, because the mass
    /// of a relayed direction was already reported by the leaf that
    /// observed it.
    fn absorb_direction(&mut self, row: Row, out: &mut Vec<MP2Msg>) {
        let w = row_weight(&row);
        if w != 0.0 {
            self.withhold(&row, w, out);
        }
    }

    /// Migration hook: one decomposition at a zero send threshold,
    /// certificate or not, ships **every** withheld direction and leaves
    /// the state empty.
    fn drain_all_directions(&mut self, out: &mut Vec<MP2Msg>) {
        self.withheld.decompose(0.0, &mut self.warm, out);
        self.pending_mass = 0.0;
        self.smax2 = 0.0;
    }

    /// Rebuilds merge state from canonical withheld rows (snapshot
    /// decode), with the rows unchecked: that preserves the withheld Gram
    /// exactly and keeps the invariant (`max‖Bx‖² ≤ pending_mass`)
    /// trivially.
    fn from_withheld(thr_frac: f64, f_hat: f64, rows: Matrix) -> Self {
        let mut withheld = Withheld::empty(rows.cols());
        let mut warm = Vec::with_capacity(rows.cols());
        rows.iter_rows().for_each(|r| withheld.push(r, &mut warm));
        MP2Site {
            withheld,
            warm,
            pending_mass: rows.frob_norm_sq(),
            smax2: 0.0,
            f_local: 0.0,
            slack: MP2Options::default().batch_slack,
            thr_frac,
            f_hat,
        }
    }
}

impl Site for MP2Site {
    type Input = Row;
    type UpMsg = MP2Msg;
    type Broadcast = f64;

    fn observe(&mut self, row: Row, out: &mut Vec<MP2Msg>) {
        let w = row_weight(&row);
        if w == 0.0 {
            return;
        }
        self.f_local += w;
        if self.f_local >= self.threshold() {
            out.push(MP2Msg::Scalar(self.f_local));
            self.f_local = 0.0;
        }
        self.withhold(&row, w, out);
    }

    fn on_broadcast(&mut self, f_hat: &f64) {
        self.f_hat = *f_hat;
    }
}

/// MT-P2 coordinator (Algorithm 5.4), holding the Gram `BᵀB` of the
/// received directions instead of their stack `B` (module doc,
/// observation 5).
#[derive(Debug, Clone)]
pub struct MP2Coordinator {
    /// `BᵀB = Σ σ²·vvᵀ` over every received direction `σ·v`: `d×d` and
    /// exactly symmetric (each entry pair adds the same products).
    gram: Matrix,
    f_hat: f64,
    msg_count: usize,
    sites: usize,
}

impl MP2Coordinator {
    fn new(cfg: &MatrixConfig) -> Self {
        MP2Coordinator {
            gram: Matrix::zeros(cfg.dim, cfg.dim),
            f_hat: 1.0,
            msg_count: 0,
            sites: cfg.sites,
        }
    }
}

impl Coordinator for MP2Coordinator {
    type UpMsg = MP2Msg;
    type Broadcast = f64;

    fn receive(&mut self, _from: SiteId, msg: MP2Msg, out: &mut Vec<f64>) {
        match msg {
            MP2Msg::Scalar(fj) => {
                self.f_hat += fj;
                self.msg_count += 1;
                if self.msg_count >= self.sites {
                    self.msg_count = 0;
                    out.push(self.f_hat);
                }
            }
            MP2Msg::Direction(row) => accumulate_outer(&mut self.gram, &row),
        }
    }
}

impl MatrixEstimator for MP2Coordinator {
    /// At most `d` rows `σᵢ·vᵢᵀ` with the Gram of every received
    /// direction, from one `d×d` eigensolve per call. The rows are not
    /// the directions as they arrived: Lemma 8 reads only `BᵀB`.
    fn sketch(&self) -> Matrix {
        gram_rows(&self.gram)
    }
    fn frob_estimate(&self) -> f64 {
        (self.f_hat - 1.0).max(0.0)
    }
    /// `xᵀ(BᵀB)x` in `O(d²)`, however many directions have arrived.
    fn direction_norm_sq(&self, x: &[f64]) -> f64 {
        let q: f64 = self
            .gram
            .iter_rows()
            .zip(x)
            .map(|(g, &xi)| xi * vector::dot_lanes(g, x))
            .sum();
        q.max(0.0)
    }
}

/// Interior tree node of an MT-P2 deployment: a full mergeable
/// sub-coordinator.
///
/// Scalar (`F̂`-tracking) reports coalesce into one pending sum,
/// forwarded at the shared node threshold. Direction rows `σℓ·vℓ` are
/// *merged spectrally*: the node runs the same exact `Σ Vᵀ` machinery
/// as a site ([`MP2Site`]), withholding relayed directions in its own
/// small-side matrix and re-emitting combined top directions once some
/// squared singular value clears the threshold. Each node withholds a
/// PSD Gram of spectral norm below `(ε/(m+I))·F̂`, so the tree-wide
/// deterministic bound `0 ≤ ‖Ax‖² − ‖Bx‖² ≤ ε‖A‖²_F` is the star's
/// Lemma 8 argument summed over `m + I` nodes instead of `m`.
#[derive(Debug, Clone)]
pub struct MP2Aggregator {
    /// The spectral merge state (its scalar fields are unused).
    inner: MP2Site,
    pending_scalar: f64,
    outbox: Vec<MP2Msg>,
    rep: SiteId,
}

impl Aggregator for MP2Aggregator {
    type UpMsg = MP2Msg;
    type Broadcast = f64;

    fn absorb(&mut self, from: SiteId, msg: MP2Msg) {
        self.rep = from;
        match msg {
            MP2Msg::Scalar(f) => self.pending_scalar += f,
            MP2Msg::Direction(row) => self.inner.absorb_direction(row, &mut self.outbox),
        }
    }

    fn flush(&mut self, out: &mut Vec<(SiteId, MP2Msg)>) {
        if self.pending_scalar >= self.inner.threshold() {
            out.push((self.rep, MP2Msg::Scalar(self.pending_scalar)));
            self.pending_scalar = 0.0;
        }
        for msg in self.outbox.drain(..) {
            out.push((self.rep, msg));
        }
    }

    fn on_broadcast(&mut self, f_hat: &f64) {
        self.inner.on_broadcast(f_hat);
    }
}

impl MigratableAggregator for MP2Aggregator {
    /// Drains the pending scalar, anything already in the outbox, and
    /// every direction the spectral merge state withholds
    /// (`MP2Site::drain_all_directions`) — all ignoring thresholds.
    fn split_for_migration(&mut self, out: &mut Vec<(SiteId, MP2Msg)>) {
        if self.pending_scalar > 0.0 {
            out.push((self.rep, MP2Msg::Scalar(self.pending_scalar)));
            self.pending_scalar = 0.0;
        }
        self.inner.drain_all_directions(&mut self.outbox);
        for msg in self.outbox.drain(..) {
            out.push((self.rep, msg));
        }
    }
}

impl ChurnBudget for MP2Site {
    /// The invariant threshold is `ε/(m+I)·F̂` over *all* withholding
    /// nodes, so the re-split scales by the node-count ratio.
    fn rebudget(&mut self, share: &BudgetShare) {
        self.thr_frac *= share.prev.nodes() as f64 / share.next.nodes() as f64;
    }
}

impl ChurnSite for MP2Site {
    /// Ships the unreported scalar mass and every withheld direction
    /// (`drain_all_directions`), leaving the site empty.
    fn depart(&mut self, out: &mut Vec<MP2Msg>) {
        if self.f_local > 0.0 {
            out.push(MP2Msg::Scalar(self.f_local));
            self.f_local = 0.0;
        }
        self.drain_all_directions(out);
    }
}

impl ChurnBudget for MP2Coordinator {
    /// The broadcast trigger counts one scalar report per site.
    fn rebudget(&mut self, share: &BudgetShare) {
        self.sites = share.next.sites;
    }
}

impl ChurnCoordinator for MP2Coordinator {
    fn current_broadcast(&self) -> Option<f64> {
        (self.f_hat > 1.0).then_some(self.f_hat)
    }
}

impl ChurnBudget for MP2Aggregator {
    fn rebudget(&mut self, share: &BudgetShare) {
        self.inner.rebudget(share);
    }
}

/// `Gram (lower triangle), F̂, scalar reports, sites`.
impl WireCodec for MP2Coordinator {
    fn encode(&self, out: &mut Vec<u8>) {
        put_sym(out, &self.gram);
        put_f64(out, self.f_hat);
        put_usize(out, self.msg_count);
        put_usize(out, self.sites);
    }

    fn decode(r: &mut WireReader<'_>) -> Option<Self> {
        let gram = read_gram(r)?;
        let f_hat = read_w_hat(r)?;
        let msg_count = r.usize()?;
        let sites = r.usize()?;
        if sites == 0 {
            return None;
        }
        Some(MP2Coordinator {
            gram,
            f_hat,
            msg_count,
            sites,
        })
    }
}

/// `pending scalar, rep, n, outbox, threshold fraction, F̂, withheld
/// rows`. Decode refuses withheld rows of width 0 and an outbox
/// `Direction` of another width: either would panic the node or its
/// parent at the next row it merges.
impl WireCodec for MP2Aggregator {
    /// The spectral merge state is encoded as its canonical withheld
    /// rows (`Withheld::to_rows`).
    fn encode(&self, out: &mut Vec<u8>) {
        put_f64(out, self.pending_scalar);
        put_usize(out, self.rep);
        put_usize(out, self.outbox.len());
        for msg in &self.outbox {
            msg.encode(out);
        }
        put_f64(out, self.inner.thr_frac);
        put_f64(out, self.inner.f_hat);
        put_matrix(out, &self.inner.withheld.to_rows());
    }

    fn decode(r: &mut WireReader<'_>) -> Option<Self> {
        let pending_scalar = read_mass(r)?;
        let rep = r.usize()?;
        let n = r.usize()?;
        let mut outbox = Vec::with_capacity(r.capacity_for(n));
        for _ in 0..n {
            outbox.push(MP2Msg::decode(r)?);
        }
        let thr_frac = read_fraction(r)?;
        let f_hat = read_w_hat(r)?;
        let rows = read_matrix(r)?;
        let width = rows.cols();
        let fits = |msg: &MP2Msg| !matches!(msg, MP2Msg::Direction(v) if v.len() != width);
        if width == 0 || !outbox.iter().all(fits) {
            return None;
        }
        Some(MP2Aggregator {
            inner: MP2Site::from_withheld(thr_frac, f_hat, rows),
            pending_scalar,
            outbox,
            rep,
        })
    }
}

/// Builds an MT-P2 deployment (exact sites, default batch slack).
pub fn deploy(cfg: &MatrixConfig) -> Runner<MP2Site, MP2Coordinator> {
    deploy_with(cfg, &MP2Options::default())
}

/// Builds an MT-P2 deployment over an arbitrary aggregation topology
/// (exact sites, default batch slack).
///
/// Every withholding node — `m` sites and `I` interior aggregators —
/// shares the invariant threshold `(ε/(m+I))·F̂`, preserving the
/// deterministic `ε‖A‖²_F` contract at any fanout. With no interior
/// nodes this is *identical* to [`deploy`].
pub fn deploy_topology(
    cfg: &MatrixConfig,
    topology: Topology,
) -> Runner<MP2Site, MP2Coordinator, MP2Aggregator> {
    let plan = topology.plan(cfg.sites);
    let nodes = cfg.sites + plan.internal_nodes();
    let thr_frac = cfg.epsilon / nodes as f64;
    let opts = MP2Options::default();
    let sites = (0..cfg.sites)
        .map(|_| MP2Site::with_thr_frac(cfg, &opts, thr_frac))
        .collect();
    Runner::with_topology(
        sites,
        MP2Coordinator::new(cfg),
        topology,
        make_aggregator(cfg, topology),
    )
}

/// Aggregator factory matching [`deploy_topology`]'s budget split (for
/// the engine's topology drivers).
pub fn make_aggregator(
    cfg: &MatrixConfig,
    topology: Topology,
) -> impl FnMut(AggNode) -> MP2Aggregator {
    let plan = topology.plan(cfg.sites);
    let thr_frac = cfg.epsilon / (cfg.sites + plan.internal_nodes()) as f64;
    let cfg = cfg.clone();
    move |_| MP2Aggregator {
        inner: MP2Site::with_thr_frac(&cfg, &MP2Options::default(), thr_frac),
        pending_scalar: 0.0,
        outbox: Vec::new(),
        rep: 0,
    }
}

/// Builds an MT-P2 deployment with explicit options
/// (`batch_slack = 0` reproduces per-row Algorithm 5.3 exactly — the
/// `ablation_lazy_svd` benchmark compares the two).
pub fn deploy_with(cfg: &MatrixConfig, opts: &MP2Options) -> Runner<MP2Site, MP2Coordinator> {
    let sites = (0..cfg.sites).map(|_| MP2Site::new(cfg, opts)).collect();
    Runner::new(sites, MP2Coordinator::new(cfg))
}

/// MT-P2 site, bounded-space variant (paper §5.2, "Bounding space at
/// sites"): two Frequent Directions sketches with `ε' = ε/4m` — one over
/// the full local stream `Aj`, one over the rows sent `Sj` — so that
/// `‖B̃jx‖² = ‖Ãjx‖² − ‖S̃jx‖²` approximates `‖Bjx‖²` within
/// `(ε/4m)‖Aj‖²_F`. Sends when a direction of the *difference* reaches
/// `(3ε/4m)·F̂`, which per the paper at most doubles the message count
/// while preserving the `εW` guarantee.
#[derive(Debug, Clone)]
pub struct MP2BoundedSite {
    fd_a: FrequentDirections,
    fd_s: FrequentDirections,
    /// Upper bound on the largest eigenvalue of the difference Gram since
    /// the last decomposition (same lazy trigger as the exact site).
    smax2: f64,
    pending_mass: f64,
    f_local: f64,
    sites: usize,
    epsilon: f64,
    f_hat: f64,
}

impl MP2BoundedSite {
    fn new(cfg: &MatrixConfig) -> Self {
        // ε' = ε/4m.
        let eps_site = (cfg.epsilon / (4.0 * cfg.sites as f64)).min(1.0);
        MP2BoundedSite {
            fd_a: FrequentDirections::with_error_bound(cfg.dim, eps_site),
            fd_s: FrequentDirections::with_error_bound(cfg.dim, eps_site),
            smax2: 0.0,
            pending_mass: 0.0,
            f_local: 0.0,
            sites: cfg.sites,
            epsilon: cfg.epsilon,
            f_hat: 1.0,
        }
    }

    /// Send threshold `(3ε/4m)·F̂`.
    fn send_threshold(&self) -> f64 {
        0.75 * self.epsilon / self.sites as f64 * self.f_hat
    }

    /// Scalar threshold `(ε/m)·F̂` (unchanged from the exact variant).
    fn scalar_threshold(&self) -> f64 {
        self.epsilon / self.sites as f64 * self.f_hat
    }

    fn decompose_and_send(&mut self, out: &mut Vec<MP2Msg>) {
        self.pending_mass = 0.0;
        let threshold = self.send_threshold();
        // Repeatedly peel the top direction of the difference Gram while
        // it clears the threshold (bounded by d iterations: each send
        // moves that direction's mass into fd_s).
        for _ in 0..self.fd_a.dim() {
            let diff = self.fd_a.sketch().gram().sub(&self.fd_s.sketch().gram());
            let eig = ql_eigen_sym(&diff).expect("MT-P2 bounded: eigensolver failed");
            let Some(&top) = eig.values.first() else {
                break;
            };
            if top < threshold {
                self.smax2 = top.max(0.0);
                return;
            }
            let s = top.sqrt();
            let mut row = eig.vectors.row(0).to_vec();
            for v in &mut row {
                *v *= s;
            }
            out.push(MP2Msg::Direction(row.clone()));
            self.fd_s.update(&row);
        }
        self.smax2 = 0.0;
    }
}

impl Site for MP2BoundedSite {
    type Input = Row;
    type UpMsg = MP2Msg;
    type Broadcast = f64;

    fn observe(&mut self, row: Row, out: &mut Vec<MP2Msg>) {
        let w = row_weight(&row);
        if w == 0.0 {
            return;
        }
        self.f_local += w;
        if self.f_local >= self.scalar_threshold() {
            out.push(MP2Msg::Scalar(self.f_local));
            self.f_local = 0.0;
        }
        self.fd_a.update(&row);
        self.pending_mass += w;
        if self.smax2 + self.pending_mass >= self.send_threshold() {
            self.decompose_and_send(out);
        }
    }

    /// Batched rows hoist both thresholds out of the loop (exact: `F̂`
    /// only changes after a pause). The FD update itself stays per-row —
    /// its shrink cadence is part of the sketch's state evolution.
    fn observe_batch(&mut self, inputs: impl IntoIterator<Item = Row>, out: &mut Vec<MP2Msg>) {
        let send = self.send_threshold();
        let scalar = self.scalar_threshold();
        for row in inputs {
            let w = row_weight(&row);
            if w == 0.0 {
                continue;
            }
            self.f_local += w;
            if self.f_local >= scalar {
                out.push(MP2Msg::Scalar(self.f_local));
                self.f_local = 0.0;
            }
            self.fd_a.update(&row);
            self.pending_mass += w;
            if self.smax2 + self.pending_mass >= send {
                self.decompose_and_send(out);
            }
            if !out.is_empty() {
                return; // pause-on-message
            }
        }
    }

    fn on_broadcast(&mut self, f_hat: &f64) {
        self.f_hat = *f_hat;
    }
}

/// Builds an MT-P2 deployment with bounded-space (FD) sites.
pub fn deploy_bounded(cfg: &MatrixConfig) -> Runner<MP2BoundedSite, MP2Coordinator> {
    let sites = (0..cfg.sites).map(|_| MP2BoundedSite::new(cfg)).collect();
    Runner::new(sites, MP2Coordinator::new(cfg))
}

#[cfg(test)]
mod tests {
    use super::*;
    use cma_data::StreamingGram;
    use cma_linalg::eigen::jacobi_eigen_sym;
    use cma_linalg::random;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// The paper's literal root (Algorithm 5.4) beside the production
    /// one: every direction the root receives, stacked in arrival order —
    /// the oracle the coordinator's answers are pinned against.
    #[derive(Debug, Clone)]
    struct Recording {
        inner: MP2Coordinator,
        stack: Matrix,
    }

    impl Recording {
        fn new(cfg: &MatrixConfig) -> Self {
            Recording {
                inner: MP2Coordinator::new(cfg),
                stack: Matrix::with_cols(cfg.dim),
            }
        }
    }

    impl Coordinator for Recording {
        type UpMsg = MP2Msg;
        type Broadcast = f64;

        fn receive(&mut self, from: SiteId, msg: MP2Msg, out: &mut Vec<f64>) {
            if let MP2Msg::Direction(row) = &msg {
                self.stack.push_row(row);
            }
            self.inner.receive(from, msg, out);
        }
    }

    /// [`deploy_topology`] with a recording root.
    fn deploy_recorded(
        cfg: &MatrixConfig,
        topology: Topology,
    ) -> Runner<MP2Site, Recording, MP2Aggregator> {
        let (sites, _, _) = deploy_topology(cfg, topology).into_parts();
        Runner::with_topology(
            sites,
            Recording::new(cfg),
            topology,
            make_aggregator(cfg, topology),
        )
    }

    fn gaussian_rows(seed: u64, dim: usize, n: usize) -> impl Iterator<Item = Row> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n).map(move |_| -> Row {
            (0..dim)
                .map(|_| random::standard_normal(&mut rng))
                .collect()
        })
    }

    /// Rank 3 in `d = 32`: each row is `c ⊗ (2, −1)` over two blocks.
    fn rank_three_rows(seed: u64, n: usize) -> impl Iterator<Item = Row> {
        gaussian_rows(seed, 3, n).map(|c| {
            let mut row = vec![0.0; 32];
            for (k, c) in c.into_iter().enumerate() {
                row[k] = 2.0 * c;
                row[k + 16] = -c;
            }
            row
        })
    }

    /// The root answers as the stack of every received direction would:
    /// `direction_norm_sq(x)` is the oracle's `‖Bx‖²` and `sketch()` has
    /// the oracle's Gram, both within `10⁻¹²·‖B‖²_F`, on a stream that
    /// saturates the sites' rank and on a rank-3 one, over a star and a
    /// fanout-4 tree. A snapshot of the root decodes to a root whose
    /// answers and re-encoded bytes are bit-identical.
    #[test]
    fn coordinator_answers_as_the_received_stack() {
        let saturating = (MatrixConfig::new(8, 0.05, 12), 21);
        let low_rank = (MatrixConfig::new(8, 0.05, 32), 22);
        for (cfg, seed) in [saturating, low_rank] {
            for topology in [Topology::Star, Topology::Tree { fanout: 4 }] {
                let mut runner = deploy_recorded(&cfg, topology);
                let rows: Vec<Row> = if cfg.dim == 32 {
                    rank_three_rows(seed, 4_000).collect()
                } else {
                    gaussian_rows(seed, cfg.dim, 4_000).collect()
                };
                for (i, row) in rows.into_iter().enumerate() {
                    runner.feed(i % cfg.sites, row);
                }
                let Recording { inner: root, stack } = runner.coordinator();
                let what = format!("d = {}, {topology:?}", cfg.dim);
                assert!(stack.rows() > 2 * cfg.dim, "{what}: too few directions");
                let tol = 1e-12 * stack.frob_norm_sq();
                let mut rng = StdRng::seed_from_u64(seed);
                let xs: Vec<Row> = (0..32)
                    .map(|_| random::unit_vector(&mut rng, cfg.dim))
                    .collect();
                for x in &xs {
                    let (got, want) = (root.direction_norm_sq(x), stack.apply_norm_sq(x));
                    assert!(
                        (got - want).abs() <= tol,
                        "{what}: ‖Bx‖² {got} vs stacked {want}"
                    );
                }
                let diff = root.sketch().gram().sub(&stack.gram()).max_abs();
                assert!(diff <= tol, "{what}: sketch Gram off by {diff}");

                let bytes = root.to_wire();
                let back = MP2Coordinator::decode(&mut WireReader::new(&bytes))
                    .unwrap_or_else(|| panic!("{what}: snapshot failed to decode"));
                assert_eq!(back.to_wire(), bytes, "{what}: re-encoding diverged");
                for x in &xs {
                    assert_eq!(
                        back.direction_norm_sq(x).to_bits(),
                        root.direction_norm_sq(x).to_bits(),
                        "{what}: restored root answers differently"
                    );
                }
                assert_eq!(
                    back.sketch().as_slice(),
                    root.sketch().as_slice(),
                    "{what}: restored sketch differs"
                );
                assert_eq!(back.frob_estimate(), root.frob_estimate());
            }
        }
    }

    fn run_gaussian(
        cfg: &MatrixConfig,
        n: usize,
        seed: u64,
    ) -> (Runner<MP2Site, MP2Coordinator>, StreamingGram) {
        let mut runner = deploy(cfg);
        let mut truth = StreamingGram::new(cfg.dim);
        let mut rng = StdRng::seed_from_u64(seed);
        for i in 0..n {
            let row: Row = (0..cfg.dim)
                .map(|_| random::standard_normal(&mut rng))
                .collect();
            truth.update(&row);
            runner.feed(i % cfg.sites, row);
        }
        (runner, truth)
    }

    #[test]
    fn covariance_error_within_epsilon() {
        let cfg = MatrixConfig::new(4, 0.2, 6);
        let (runner, truth) = run_gaussian(&cfg, 4_000, 1);
        let err = truth
            .error_of_sketch(&runner.coordinator().sketch())
            .unwrap();
        assert!(err <= cfg.epsilon, "covariance error {err} > ε");
    }

    #[test]
    fn sketch_never_overestimates() {
        // Lemma 8's right-hand side: ‖Bx‖² ≤ ‖Ax‖² in every direction.
        let cfg = MatrixConfig::new(3, 0.3, 5);
        let (runner, truth) = run_gaussian(&cfg, 2_500, 2);
        let sketch = runner.coordinator().sketch();
        let mut rng = StdRng::seed_from_u64(7);
        for _ in 0..25 {
            let x = random::unit_vector(&mut rng, 5);
            let ax: f64 = truth
                .gram()
                .apply(&x)
                .iter()
                .zip(&x)
                .map(|(g, xi)| g * xi)
                .sum();
            let bx = sketch.apply_norm_sq(&x);
            assert!(
                bx <= ax + 1e-6 * truth.frob_sq(),
                "‖Bx‖² = {bx} > ‖Ax‖² = {ax}"
            );
        }
    }

    #[test]
    fn site_invariant_no_direction_above_threshold() {
        let cfg = MatrixConfig::new(2, 0.3, 4);
        let (runner, _) = run_gaussian(&cfg, 1_000, 3);
        for site in runner.sites() {
            // After each arrival the site guarantees
            // max‖Bjx‖² ≤ smax2 + pending_mass < threshold.
            assert!(
                site.smax2 + site.pending_mass < site.threshold(),
                "site invariant violated"
            );
        }
    }

    #[test]
    fn frob_estimate_close() {
        let cfg = MatrixConfig::new(4, 0.1, 5);
        let (runner, truth) = run_gaussian(&cfg, 5_000, 4);
        let f = truth.frob_sq();
        let f_hat = runner.coordinator().frob_estimate();
        // Estimate trails by at most m scalar thresholds plus per-site slack.
        assert!(f_hat <= f + 1e-6);
        assert!(f - f_hat <= 2.0 * cfg.epsilon * f, "F̂ {f_hat} vs F {f}");
    }

    #[test]
    fn uses_fewer_messages_than_p1_at_small_epsilon() {
        let cfg = MatrixConfig::new(4, 0.05, 8);
        let n = 6_000;
        let (r2, _) = run_gaussian(&cfg, n, 5);
        let mut r1 = super::super::p1::deploy(&cfg);
        let mut rng = StdRng::seed_from_u64(5);
        for i in 0..n {
            let row: Row = (0..8).map(|_| random::standard_normal(&mut rng)).collect();
            r1.feed(i % 4, row);
        }
        assert!(
            r2.stats().total() < r1.stats().total(),
            "P2 {} should beat P1 {}",
            r2.stats().total(),
            r1.stats().total()
        );
    }

    #[test]
    fn bounded_site_variant_keeps_guarantee() {
        let cfg = MatrixConfig::new(3, 0.3, 5);
        let mut runner = deploy_bounded(&cfg);
        let mut truth = StreamingGram::new(5);
        let mut rng = StdRng::seed_from_u64(6);
        for i in 0..2_000 {
            let row: Row = (0..5).map(|_| random::standard_normal(&mut rng)).collect();
            truth.update(&row);
            runner.feed(i % 3, row);
        }
        let err = truth
            .error_of_sketch(&runner.coordinator().sketch())
            .unwrap();
        assert!(err <= cfg.epsilon, "bounded variant error {err} > ε");
    }

    #[test]
    fn low_rank_stream_concentrates_messages() {
        // A rank-1 stream: only one direction ever crosses the threshold,
        // so direction messages ≈ (m/ε)·log(F) while the sketch stays tiny.
        let cfg = MatrixConfig::new(2, 0.2, 6);
        let mut runner = deploy(&cfg);
        for i in 0..2_000 {
            let mut row = vec![0.0; 6];
            row[0] = 2.0;
            runner.feed(i % 2, row);
        }
        let sketch = runner.coordinator().sketch();
        // The sketch's directions lie (numerically) along e₀.
        for r in sketch.iter_rows() {
            for (j, &v) in r.iter().enumerate() {
                if j != 0 {
                    assert!(v.abs() < 1e-9, "off-axis direction component {v}");
                }
            }
        }
    }

    /// The seed's eager layout, kept as the oracle the certified site is
    /// pinned against: the full `d×d` withheld Gram, decomposed with
    /// cyclic Jacobi at every trigger — Algorithm 5.3 with only the Weyl
    /// elision (module doc, observations 1 and 2).
    #[derive(Debug, Clone)]
    struct EagerSite {
        gram: Matrix,
        pending_mass: f64,
        smax2: f64,
        f_local: f64,
        slack: f64,
        thr_frac: f64,
        f_hat: f64,
    }

    impl Site for EagerSite {
        type Input = Row;
        type UpMsg = MP2Msg;
        type Broadcast = f64;

        fn observe(&mut self, row: Row, out: &mut Vec<MP2Msg>) {
            let w = row_weight(&row);
            if w == 0.0 {
                return;
            }
            let threshold = self.thr_frac * self.f_hat;
            self.f_local += w;
            if self.f_local >= threshold {
                out.push(MP2Msg::Scalar(self.f_local));
                self.f_local = 0.0;
            }
            accumulate_outer(&mut self.gram, &row);
            self.pending_mass += w;
            if self.smax2 + self.pending_mass < threshold {
                return;
            }
            let send = (1.0 - self.slack) * threshold;
            let eig = jacobi_eigen_sym(&self.gram).unwrap();
            self.gram = Matrix::zeros(row.len(), row.len());
            (self.pending_mass, self.smax2) = (0.0, 0.0);
            for (i, &lam) in eig.values.iter().enumerate() {
                let s2 = lam.max(0.0);
                let mut dir = eig.vectors.row(i).to_vec();
                vector::scale(s2.sqrt(), &mut dir);
                if s2 >= send {
                    out.push(MP2Msg::Direction(dir));
                } else {
                    accumulate_outer(&mut self.gram, &dir);
                    self.smax2 = self.smax2.max(s2);
                }
            }
        }

        fn on_broadcast(&mut self, f_hat: &f64) {
            self.f_hat = *f_hat;
        }
    }

    fn deploy_eager(cfg: &MatrixConfig, opts: &MP2Options) -> Runner<EagerSite, Recording> {
        let site = EagerSite {
            gram: Matrix::zeros(cfg.dim, cfg.dim),
            pending_mass: 0.0,
            smax2: 0.0,
            f_local: 0.0,
            slack: opts.batch_slack,
            thr_frac: cfg.epsilon / cfg.sites as f64,
            f_hat: 1.0,
        };
        Runner::new(vec![site; cfg.sites], Recording::new(cfg))
    }

    /// [`deploy_with`] with a recording root.
    fn deploy_with_recorded(cfg: &MatrixConfig, opts: &MP2Options) -> Runner<MP2Site, Recording> {
        let sites = (0..cfg.sites).map(|_| MP2Site::new(cfg, opts)).collect();
        Runner::new(sites, Recording::new(cfg))
    }

    #[test]
    fn kernel_paths_agree_on_stream() {
        // The same stream through the eager oracle (Algorithm 5.3 with
        // only the Weyl elision) and the production site (small-side
        // layout behind the certificate).
        let dim = 7;
        let cfg = MatrixConfig::new(3, 0.25, dim);
        let run = |opts: &MP2Options| {
            let mut eager = deploy_eager(&cfg, opts);
            let mut certified = deploy_with_recorded(&cfg, opts);
            let mut truth = StreamingGram::new(dim);
            let mut rng = StdRng::seed_from_u64(12);
            for i in 0..3_000 {
                let row: Row = (0..dim)
                    .map(|_| random::standard_normal(&mut rng))
                    .collect();
                truth.update(&row);
                eager.feed(i % 3, row.clone());
                certified.feed(i % 3, row);
            }
            for sketch in [
                eager.coordinator().inner.sketch(),
                certified.coordinator().inner.sketch(),
            ] {
                let err = truth.error_of_sketch(&sketch).unwrap();
                assert!(err <= cfg.epsilon, "covariance error {err} > ε");
            }
            (eager, certified, truth)
        };

        // batch_slack = 0 is per-row Algorithm 5.3, and there a sound
        // bound forces a check at the first row where λ_max reaches the
        // threshold: certified-lazy ≡ eager, message for message.
        let (eager, certified, truth) = run(&MP2Options { batch_slack: 0.0 });
        assert_eq!(
            (eager.stats().total(), eager.coordinator().stack.rows()),
            (
                certified.stats().total(),
                certified.coordinator().stack.rows()
            ),
            "certified site diverged from the eager oracle in message schedule"
        );
        let ge = eager.coordinator().inner.sketch().gram();
        let gc = certified.coordinator().inner.sketch().gram();
        let diff = ge.sub(&gc).max_abs();
        assert!(
            diff <= 1e-6 * truth.frob_sq(),
            "sketch Grams diverged: {diff}"
        );

        // With slack a direction ships at the first *check* at which it
        // has reached the send threshold, and the two check at different
        // rows (a certified bound sits up to one bisection step above
        // the exact λ_max) — same guarantee, near-equal cost.
        let (eager, certified, _) = run(&MP2Options::default());
        let (eager, certified) = (
            eager.stats().total() as f64,
            certified.stats().total() as f64,
        );
        assert!(
            (eager - certified).abs() <= 0.02 * eager,
            "message totals {eager} vs {certified}"
        );
    }

    /// Feeds `rows` round-robin and, after **every** arrival, checks the
    /// receiving site against a fresh full-precision eigensolve of what
    /// it withholds: the invariant `λ_max(Bj) < (ε/m)·F̂`, the recorded
    /// bound `λ_max ≤ smax2 + mass since the check`, and `σ² ≥ send` for
    /// every direction the arrival shipped. Returns how often a site
    /// entered the saturated Gram layout and how often it left it.
    fn assert_certified_after_every_arrival(
        cfg: &MatrixConfig,
        opts: &MP2Options,
        rows: impl Iterator<Item = Row>,
    ) -> (usize, usize) {
        let saturated = |s: &MP2Site| matches!(s.withheld, Withheld::Gram(_));
        let mut runner = deploy_with_recorded(cfg, opts);
        let (mut entered, mut left) = (0, 0);
        for (i, row) in rows.enumerate() {
            let j = i % cfg.sites;
            let before = &runner.sites()[j];
            let (send, was_saturated) = (before.send_threshold(), saturated(before));
            let received = runner.coordinator().stack.rows();
            runner.feed(j, row);

            // 1e-9 is the relative accuracy the shipping decomposition
            // itself runs at.
            let site = &runner.sites()[j];
            let tol = 1e-8 * site.threshold();
            let gram = site.withheld.to_rows().gram();
            let top = jacobi_eigen_sym(&gram).unwrap().values[0];
            assert!(
                top < site.threshold() + tol,
                "row {i}: λ_max {top} ≥ threshold {}",
                site.threshold()
            );
            assert!(
                top <= site.smax2 + site.pending_mass + tol,
                "row {i}: λ_max {top} > recorded bound {} + {}",
                site.smax2,
                site.pending_mass
            );
            let b = &runner.coordinator().stack;
            for shipped in (received..b.rows()).map(|k| b.row(k)) {
                let sigma2 = vector::norm_sq(shipped);
                assert!(
                    sigma2 >= send - tol,
                    "row {i}: shipped σ² {sigma2} < {send}"
                );
            }
            entered += usize::from(!was_saturated && saturated(site));
            left += usize::from(was_saturated && !saturated(site));
        }
        (entered, left)
    }

    #[test]
    fn certified_bound_holds_after_every_arrival() {
        let per_row = MP2Options { batch_slack: 0.0 };
        // Flat spectrum at d = 12 with ε/m < 1/d, so directions keep
        // reaching the threshold: sites saturate within a few dozen rows
        // and fall back to rows at every shipping decomposition.
        for opts in [&MP2Options::default(), &per_row] {
            let cfg = MatrixConfig::new(4, 0.05, 12);
            let (entered, left) =
                assert_certified_after_every_arrival(&cfg, opts, gaussian_rows(21, 12, 2_000));
            assert!(
                entered >= 3 && left >= 3,
                "rank saturation entered {entered}×, left {left}×"
            );
        }
        // Rank 3 in d = 32: every doubling of the stack is decomposed
        // back to three rows, so the site never saturates.
        let cfg = MatrixConfig::new(4, 0.05, 32);
        let (entered, _) = assert_certified_after_every_arrival(
            &cfg,
            &MP2Options::default(),
            rank_three_rows(22, 1_500),
        );
        assert_eq!(entered, 0, "rank-3 stream saturated");
        // Rank 1: one repeated row.
        let rank_one = (0..800).map(|_| vec![0.0, 2.0, 0.0, -1.0]);
        let cfg = MatrixConfig::new(2, 0.2, 4);
        assert_certified_after_every_arrival(&cfg, &MP2Options::default(), rank_one);
        // d = 1: the second row already saturates (a 1×1 Gram).
        let cfg = MatrixConfig::new(2, 0.2, 1);
        let (entered, left) =
            assert_certified_after_every_arrival(&cfg, &per_row, gaussian_rows(23, 1, 600));
        assert!(entered >= 3 && left >= 3, "d = 1 never cycled");
    }

    #[test]
    fn zero_rows_ignored() {
        let cfg = MatrixConfig::new(2, 0.3, 4);
        let mut runner = deploy(&cfg);
        runner.feed(0, vec![0.0; 4]);
        assert_eq!(runner.stats().total(), 0);
    }
}
