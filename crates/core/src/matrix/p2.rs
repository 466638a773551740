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
//! Algorithm 5.3 as written decomposes `Bj` on *every* arrival. Two
//! observations make the implementation fast without changing behaviour:
//!
//! 1. Only the Gram of `Bj` matters (both for the send rule and the
//!    guarantee), so after an SVD the site re-expresses `Bj` as
//!    `Σ Vᵀ` — at most `d` rows, losslessly.
//! 2. Appending rows of total squared mass `ΔF` can raise any
//!    `σ²` by at most `ΔF` (Weyl's inequality for the Gram update). So
//!    with `s² = σ²max` after the previous SVD, no direction can reach
//!    the threshold until `s² + ΔF ≥ (ε/m)F̂` — and the SVD is skipped
//!    until then. The send decisions are identical to the per-row
//!    variant's at every row boundary; only wasted decompositions are
//!    elided. The `ablation_lazy_svd` benchmark measures the gap.
//!
//! 3. The `Σ Vᵀ` form has rank at most the number of rows absorbed since
//!    the sketch was last emptied, which on high-dimensional streams is
//!    far below `d`. Under [`KernelPath::Blocked`] the site therefore
//!    keeps only the nonzero directions (`r ≤ d` rows `σᵢ·vᵢᵀ`) plus the
//!    raw pending rows, and decomposes the stacked `s × d` matrix
//!    (`s = r + k`) on its *small side*: one `s×s` outer Gram `S·Sᵀ`
//!    (near-arrow — the `Σ Vᵀ` block is diagonal), a warm `s×s` Jacobi,
//!    and one `s×s · s×d` product recovering the directions. At
//!    `s ≪ d` this replaces the `O(d³)` full-basis eigensolve with
//!    `O(s²d + s³)` — the dominant cost of this protocol at large `d` —
//!    and also deletes the per-row `O(d²)` basis projection (raw rows
//!    need no projection). [`KernelPath::Naive`] retains the previous
//!    implementation (explicit `d × d` basis, warm-started full-`d`
//!    Jacobi) as the measured baseline; the two representations agree to
//!    solver tolerance and the `kernel_paths_agree_on_stream` test pins
//!    an identical message schedule on a reference stream.
//!
//! The paper's bounded-space variant (two Frequent Directions sketches
//! with `ε' = ε/4m` per site) is subsumed by observation 1 — the `Σ Vᵀ`
//! form is already `O(d²)` space *and exact* — but is still provided as
//! [`deploy_bounded`] for fidelity and for the ablation benchmarks.

use super::{row_weight, MatrixEstimator, Row};
use crate::config::MatrixConfig;
use cma_linalg::eigen::jacobi_eigen_sym_with_basis_tol;
use cma_linalg::{KernelPath, Matrix};
use cma_sketch::FrequentDirections;
use cma_stream::{
    put_f64, put_usize, AggNode, Aggregator, BudgetShare, ChurnBudget, ChurnCoordinator, ChurnSite,
    Coordinator, MessageCost, MigratableAggregator, Runner, Site, SiteId, Topology, WireCodec,
    WireReader,
};

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

/// MT-P2 site: exact `Σ Vᵀ` representation.
///
/// The *representation* is the axis along which [`KernelPath`] selects
/// the decomposition algorithm (module doc, observation 3): the naive
/// path keeps the state in its own singular basis so the periodic
/// decomposition is a warm-started full-`d` Jacobi on a near-diagonal
/// matrix; the blocked path keeps the low-rank spectral form and
/// decomposes on the small side of the stacked rows. Both maintain the
/// same Gram and make the same send decisions (to solver tolerance).
#[derive(Debug, Clone)]
enum Rep {
    /// [`KernelPath::Naive`]: explicit orthonormal basis of `R^d`,
    /// squared singular values along it, pending rows *projected into
    /// basis coordinates* (lossless — the basis spans `R^d`). The Gram
    /// in basis coordinates is `diag(σ²) + Σ c cᵀ`, a small perturbation
    /// of a diagonal matrix, so the eigensolve is warm-started and
    /// co-rotates the basis directly
    /// ([`cma_linalg::eigen::jacobi_eigen_sym_with_basis`]).
    Basis {
        /// Orthonormal basis rows (`d × d`).
        basis: Matrix,
        /// Cached `basisᵀ` for the batched projection path; invalidated
        /// whenever a decomposition rotates the basis.
        basis_t: Option<Matrix>,
        /// Squared singular values of `Bj` along `basis` rows.
        sig2: Vec<f64>,
        /// Pending rows in `basis` coordinates.
        pending: Vec<Vec<f64>>,
    },
    /// [`KernelPath::Blocked`]: only the nonzero directions are stored
    /// (`r ≤ d` rows `σᵢ·vᵢᵀ` with `vᵢ` orthonormal) and pending rows
    /// stay raw — appending a row is `O(d)` and the decomposition is
    /// `O(s²d + s³)` on the stacked `s = r + k` rows.
    Spectral {
        /// Rows `σᵢ·vᵢᵀ` of the current `Σ Vᵀ` form (`r × d`).
        dirs: Matrix,
        /// Raw pending rows.
        pending: Vec<Row>,
    },
}

/// MT-P2 site: exact `Σ Vᵀ` representation, in one of two
/// kernel-selected layouts (`Rep` above; module doc, observation 3).
#[derive(Debug, Clone)]
pub struct MP2Site {
    /// Kernel-selected state layout.
    rep: Rep,
    /// Total squared mass of the pending rows.
    pending_mass: f64,
    /// Largest squared singular value retained by the last decomposition.
    smax2: f64,
    /// Scalar-report accumulator `Fj`.
    f_local: f64,
    /// Batch slack (see [`MP2Options::batch_slack`]).
    slack: f64,
    /// Deferred batch trigger (see [`MP2Options::deferred_batch_check`]).
    deferred: bool,
    /// Invariant threshold as a fraction of `F̂`: `ε/m` in a star,
    /// `ε/(m+I)` in a tree with `I` interior nodes.
    thr_frac: f64,
    f_hat: f64,
    /// Kernel dispatch (also the [`Rep`] selector). From
    /// [`MatrixConfig::profile`].
    kernels: KernelPath,
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
    /// Run the decomposition trigger **once per delivered batch** instead
    /// of once per row (`false`, the default, is the exact per-item
    /// semantics pinned down by the `batch_parity` suite).
    ///
    /// With the deferred check a site may exceed the
    /// `max_x ‖Bjx‖² < (ε/m)·F̂` invariant *within* a batch by at most
    /// the batch's squared-Frobenius mass, so the coordinator's error
    /// bound relaxes from `ε‖A‖²_F` to `ε‖A‖²_F + Σⱼ(per-batch mass)` —
    /// a slack that is fixed by the batch size and therefore vanishes
    /// relative to `‖A‖²_F` as the stream grows. In exchange the
    /// eigensolve count drops from one per
    /// `slack·(ε/m)·F̂` of mass to at most one per batch, which is the
    /// dominant cost of this protocol — the `protocols` benchmark's
    /// `+defer` rows measure the resulting throughput win.
    pub deferred_batch_check: bool,
}

impl Default for MP2Options {
    fn default() -> Self {
        MP2Options {
            batch_slack: 0.25,
            deferred_batch_check: false,
        }
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
        let rep = match cfg.profile.kernels {
            KernelPath::Naive => Rep::Basis {
                basis: Matrix::identity(cfg.dim),
                basis_t: None,
                sig2: vec![0.0; cfg.dim],
                pending: Vec::new(),
            },
            KernelPath::Blocked => Rep::Spectral {
                dirs: Matrix::with_cols(cfg.dim),
                pending: Vec::new(),
            },
        };
        MP2Site {
            rep,
            pending_mass: 0.0,
            smax2: 0.0,
            f_local: 0.0,
            slack: opts.batch_slack,
            deferred: opts.deferred_batch_check,
            thr_frac,
            f_hat: 1.0,
            kernels: cfg.profile.kernels,
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

    /// Buffers a single raw row: projected into basis coordinates on the
    /// naive path, stored as-is (`O(d)`) on the spectral path.
    fn push_pending(&mut self, row: Row) {
        match &mut self.rep {
            Rep::Basis { basis, pending, .. } => pending.push(basis.apply(&row)),
            Rep::Spectral { pending, .. } => pending.push(row),
        }
    }

    /// Moves a run of raw rows into the pending buffer. The basis layout
    /// projects them with one matrix product (`R·Vᵀ`, `k×d` by `d×d`)
    /// instead of `k` separate matrix–vector products — exactly
    /// `basis.apply` row-by-row, just batched. The spectral layout keeps
    /// rows raw, so this is a plain move.
    fn project_rows(&mut self, raw: &mut Vec<Row>) {
        let kernels = self.kernels;
        match &mut self.rep {
            Rep::Basis {
                basis,
                basis_t,
                pending,
                ..
            } => match raw.len() {
                0 => {}
                1 => {
                    pending.push(basis.apply(&raw[0]));
                    raw.clear();
                }
                _ => {
                    let bt = basis_t.get_or_insert_with(|| basis.transpose());
                    let prod = kernels.matmul(&Matrix::from_rows(raw), bt);
                    pending.extend(prod.iter_rows().map(<[f64]>::to_vec));
                    raw.clear();
                }
            },
            Rep::Spectral { pending, .. } => pending.append(raw),
        }
    }

    /// Decomposes the site's withheld matrix, ships every direction at or
    /// above the send threshold, and re-expresses the remainder as
    /// `Σ Vᵀ`. Algorithm per [`Rep`] layout; identical send semantics.
    fn decompose_and_send(&mut self, out: &mut Vec<MP2Msg>) {
        self.pending_mass = 0.0;
        let send = self.send_threshold();
        let kernels = self.kernels;
        self.smax2 = 0.0;
        // 1e-9 relative eigensolver accuracy throughout: ample for
        // threshold comparisons at scale ε·F̂/m, and materially faster
        // than full precision.
        match &mut self.rep {
            Rep::Basis {
                basis,
                basis_t,
                sig2,
                pending,
            } => {
                // Warm full-d Jacobi on `diag(σ²) + Σ c cᵀ` in the
                // site's own basis, co-rotating the basis.
                let d = basis.rows();
                let mut g = Matrix::zeros(d, d);
                for i in 0..d {
                    g[(i, i)] = sig2[i];
                }
                if !pending.is_empty() {
                    let pend = Matrix::from_rows(pending);
                    pending.clear();
                    kernels.accumulate_outer_rows(&mut g, &pend);
                }
                let b = std::mem::replace(basis, Matrix::zeros(0, 0));
                let eig = kernels
                    .eigen_sym_with_basis_tol(&g, b, 1e-9)
                    .expect("MT-P2: eigensolver diverged");
                *basis = eig.vectors;
                *basis_t = None; // rotated: the cached transpose is stale
                for (i, &lam) in eig.values.iter().enumerate() {
                    let s2 = lam.max(0.0);
                    if s2 >= send {
                        let s = s2.sqrt();
                        let mut row = basis.row(i).to_vec();
                        for v in &mut row {
                            *v *= s;
                        }
                        out.push(MP2Msg::Direction(row));
                        sig2[i] = 0.0;
                    } else {
                        sig2[i] = s2;
                        self.smax2 = self.smax2.max(s2);
                    }
                }
            }
            Rep::Spectral { dirs, pending } => {
                // Stack the ΣVᵀ rows over the raw pending rows: an s×d
                // matrix S whose Gram is exactly the withheld Gram.
                let d = dirs.cols();
                let mut stack = std::mem::replace(dirs, Matrix::with_cols(d));
                for row in pending.drain(..) {
                    stack.push_row(&row);
                }
                let s = stack.rows();
                if s == 0 {
                    return;
                }
                if s <= d {
                    // Small side: eigen of S·Sᵀ (s×s, near-arrow — the
                    // ΣVᵀ block is diagonal, so the warm Jacobi skips
                    // most pairs), then P = Uᵀ·S has rows σᵢ·vᵢᵀ.
                    // PᵀP = Sᵀ(UUᵀ)S = SᵀS to the orthonormality of the
                    // accumulated rotations (machine precision), so the
                    // re-expression is lossless independently of
                    // eigenvalue accuracy.
                    let outer = stack.outer_gram();
                    let eig = jacobi_eigen_sym_with_basis_tol(&outer, Matrix::identity(s), 1e-9)
                        .expect("MT-P2: eigensolver diverged");
                    let p = eig.vectors.matmul(&stack);
                    let trace: f64 = eig.values.iter().map(|l| l.max(0.0)).sum();
                    let floor = f64::EPSILON * trace;
                    for (i, &lam) in eig.values.iter().enumerate() {
                        let s2 = lam.max(0.0);
                        if s2 >= send {
                            out.push(MP2Msg::Direction(p.row(i).to_vec()));
                        } else if s2 > floor {
                            dirs.push_row(p.row(i));
                            self.smax2 = self.smax2.max(s2);
                        }
                        // λ ≤ ulp(trace): a structurally zero direction —
                        // dropping the row discards at most machine-noise
                        // mass, orders below the 1e-9 solver tolerance
                        // already accepted here.
                    }
                } else {
                    // Rank saturated (s > d): the small side is no longer
                    // small — d-side Gram route, directions from the
                    // eigenvectors.
                    let g = stack.gram();
                    let eig = jacobi_eigen_sym_with_basis_tol(&g, Matrix::identity(d), 1e-9)
                        .expect("MT-P2: eigensolver diverged");
                    let trace: f64 = eig.values.iter().map(|l| l.max(0.0)).sum();
                    let floor = f64::EPSILON * trace;
                    for (i, &lam) in eig.values.iter().enumerate() {
                        let s2 = lam.max(0.0);
                        if s2 <= floor {
                            continue;
                        }
                        let sv = s2.sqrt();
                        let mut row = eig.vectors.row(i).to_vec();
                        for v in &mut row {
                            *v *= sv;
                        }
                        if s2 >= send {
                            out.push(MP2Msg::Direction(row));
                        } else {
                            dirs.push_row(&row);
                            self.smax2 = self.smax2.max(s2);
                        }
                    }
                }
            }
        }
    }
}

impl MP2Site {
    /// Tree-aggregation path: absorbs a direction row relayed from a
    /// child node into the pending buffer and runs the same lazy
    /// decomposition trigger as [`MP2Site::observe`] — but with **no**
    /// scalar (`F̂`-tracking) accounting, because the mass of a relayed
    /// direction was already reported by the leaf that observed it.
    fn absorb_direction(&mut self, row: &Row, out: &mut Vec<MP2Msg>) {
        let w = row_weight(row);
        if w == 0.0 {
            return;
        }
        self.push_pending(row.clone());
        self.pending_mass += w;
        if self.smax2 + self.pending_mass >= self.threshold() {
            self.decompose_and_send(out);
        }
    }

    /// Migration hook: re-expresses the withheld matrix as `Σ Vᵀ` (one
    /// decomposition, folding in any pending rows) and then ships
    /// **every** remaining direction, leaving the state empty. Both
    /// layouts emit rows in `R^d` coordinates — the basis layout's
    /// pending rows are stored in its own basis, and the decomposition
    /// is what rotates them back out.
    fn drain_all_directions(&mut self, out: &mut Vec<MP2Msg>) {
        self.decompose_and_send(out);
        self.smax2 = 0.0;
        match &mut self.rep {
            Rep::Basis { basis, sig2, .. } => {
                for (i, s2) in sig2.iter_mut().enumerate() {
                    if *s2 > 0.0 {
                        let s = s2.sqrt();
                        let mut row = basis.row(i).to_vec();
                        for v in &mut row {
                            *v *= s;
                        }
                        out.push(MP2Msg::Direction(row));
                        *s2 = 0.0;
                    }
                }
            }
            Rep::Spectral { dirs, .. } => {
                let d = dirs.cols();
                let stack = std::mem::replace(dirs, Matrix::with_cols(d));
                for row in stack.iter_rows() {
                    out.push(MP2Msg::Direction(row.to_vec()));
                }
            }
        }
    }

    /// Canonical withheld rows in `R^d` coordinates: the `Σ Vᵀ`
    /// directions plus any pending rows, stacked. Both layouts produce
    /// the same withheld Gram; the basis layout rotates its pending
    /// coordinates back out (`x = Bᵀc` — the basis is orthonormal).
    fn withheld_rows(&self) -> Matrix {
        match &self.rep {
            Rep::Basis {
                basis,
                sig2,
                pending,
                ..
            } => {
                let mut m = Matrix::with_cols(basis.cols());
                for (i, &s2) in sig2.iter().enumerate() {
                    if s2 > 0.0 {
                        let s = s2.sqrt();
                        let mut row = basis.row(i).to_vec();
                        for v in &mut row {
                            *v *= s;
                        }
                        m.push_row(&row);
                    }
                }
                if !pending.is_empty() {
                    let bt = basis.transpose();
                    for c in pending {
                        m.push_row(&bt.apply(c));
                    }
                }
                m
            }
            Rep::Spectral { dirs, pending } => {
                let mut m = dirs.clone();
                for row in pending {
                    m.push_row(row);
                }
                m
            }
        }
    }

    /// Rebuilds merge state from canonical withheld rows (snapshot
    /// decode). The kernel/layout profile is local configuration, not
    /// sketch content — restored state uses the blocked spectral layout
    /// with the rows pending, which preserves the withheld Gram exactly
    /// and keeps the invariant (`max‖Bx‖² ≤ pending_mass`) trivially.
    fn from_withheld(thr_frac: f64, f_hat: f64, rows: Matrix) -> Self {
        let pending_mass: f64 = rows
            .iter_rows()
            .map(|r| r.iter().map(|x| x * x).sum::<f64>())
            .sum();
        MP2Site {
            rep: Rep::Spectral {
                dirs: Matrix::with_cols(rows.cols()),
                pending: rows.iter_rows().map(<[f64]>::to_vec).collect(),
            },
            pending_mass,
            smax2: 0.0,
            f_local: 0.0,
            slack: MP2Options::default().batch_slack,
            deferred: false,
            thr_frac,
            f_hat,
            kernels: KernelPath::Blocked,
        }
    }

    /// [`MP2Options::deferred_batch_check`] batch path: per-row work is
    /// scalar only (mass accounting and the `F̂` report), and the
    /// decomposition trigger runs **once**, after the whole batch has
    /// been absorbed. Consumes the entire iterator — messages are shipped
    /// at the batch boundary, which is exactly the boundary-lag this mode
    /// trades for eliding eigensolves.
    fn observe_batch_deferred(
        &mut self,
        inputs: impl IntoIterator<Item = Row>,
        out: &mut Vec<MP2Msg>,
    ) {
        let threshold = self.threshold();
        let mut raw: Vec<Row> = Vec::new();
        for row in inputs {
            let w = row_weight(&row);
            if w == 0.0 {
                continue;
            }
            self.f_local += w;
            if self.f_local >= threshold {
                out.push(MP2Msg::Scalar(self.f_local));
                self.f_local = 0.0;
            }
            raw.push(row);
            self.pending_mass += w;
        }
        self.project_rows(&mut raw);
        if self.smax2 + self.pending_mass >= threshold {
            self.decompose_and_send(out);
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
        // Buffer the row (the basis layout projects it losslessly into
        // its own coordinates; the spectral layout keeps it raw).
        self.push_pending(row);
        self.pending_mass += w;
        if self.smax2 + self.pending_mass >= self.threshold() {
            self.decompose_and_send(out);
        }
    }

    /// Batched rows defer the `O(d²)` basis projection: both send
    /// triggers (the scalar report and the decomposition) depend only on
    /// row *masses*, so the batch runs on scalar arithmetic and the
    /// buffered rows are projected in bulk — one `k×d · d×d` matrix
    /// product per run (`MP2Site::project_rows`) — exactly when a
    /// decomposition (or the end of the batch) needs them. Thresholds are
    /// hoisted: `F̂` only changes on a broadcast, which only arrives
    /// after a pause. Message contents and timing are identical to
    /// per-item execution.
    fn observe_batch(&mut self, inputs: impl IntoIterator<Item = Row>, out: &mut Vec<MP2Msg>) {
        if self.deferred {
            return self.observe_batch_deferred(inputs, out);
        }
        let threshold = self.threshold();
        let mut raw: Vec<Row> = Vec::new();
        for row in inputs {
            let w = row_weight(&row);
            if w == 0.0 {
                continue;
            }
            self.f_local += w;
            if self.f_local >= threshold {
                out.push(MP2Msg::Scalar(self.f_local));
                self.f_local = 0.0;
            }
            raw.push(row);
            self.pending_mass += w;
            if self.smax2 + self.pending_mass >= threshold {
                self.project_rows(&mut raw);
                self.decompose_and_send(out);
            }
            if !out.is_empty() {
                // Keep site state whole across the pause: everything
                // buffered so far must be in `pending` before broadcasts
                // (and the next batch) arrive.
                self.project_rows(&mut raw);
                return; // pause-on-message
            }
        }
        self.project_rows(&mut raw);
    }

    fn on_broadcast(&mut self, f_hat: &f64) {
        self.f_hat = *f_hat;
    }
}

/// MT-P2 coordinator: stacked received directions (Algorithm 5.4).
#[derive(Debug, Clone)]
pub struct MP2Coordinator {
    b: Matrix,
    f_hat: f64,
    msg_count: usize,
    sites: usize,
}

impl MP2Coordinator {
    fn new(cfg: &MatrixConfig) -> Self {
        MP2Coordinator {
            b: Matrix::with_cols(cfg.dim),
            f_hat: 1.0,
            msg_count: 0,
            sites: cfg.sites,
        }
    }

    /// Number of direction rows received so far.
    pub fn rows_received(&self) -> usize {
        self.b.rows()
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
            MP2Msg::Direction(row) => self.b.push_row(&row),
        }
    }
}

impl MatrixEstimator for MP2Coordinator {
    fn sketch(&self) -> Matrix {
        self.b.clone()
    }
    fn frob_estimate(&self) -> f64 {
        (self.f_hat - 1.0).max(0.0)
    }
}

/// Interior tree node of an MT-P2 deployment: a full mergeable
/// sub-coordinator.
///
/// Scalar (`F̂`-tracking) reports coalesce into one pending sum,
/// forwarded at the shared node threshold. Direction rows `σℓ·vℓ` are
/// *merged spectrally*: the node runs the same exact `Σ Vᵀ` machinery
/// as a site ([`MP2Site`]), accumulating relayed directions in its own
/// singular basis and re-emitting combined top directions once some
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
            MP2Msg::Direction(row) => self.inner.absorb_direction(&row, &mut self.outbox),
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

impl WireCodec for MP2Coordinator {
    fn encode(&self, out: &mut Vec<u8>) {
        crate::wire::put_matrix(out, &self.b);
        put_f64(out, self.f_hat);
        put_usize(out, self.msg_count);
        put_usize(out, self.sites);
    }

    fn decode(r: &mut WireReader<'_>) -> Option<Self> {
        let b = crate::wire::read_matrix(r)?;
        let f_hat = r.f64()?;
        let msg_count = r.usize()?;
        let sites = r.usize()?;
        if sites == 0 {
            return None;
        }
        Some(MP2Coordinator {
            b,
            f_hat,
            msg_count,
            sites,
        })
    }
}

impl WireCodec for MP2Aggregator {
    /// The spectral merge state is encoded as its canonical withheld
    /// rows (`MP2Site::withheld_rows`); the kernel/layout profile is
    /// local configuration and is not snapshotted.
    fn encode(&self, out: &mut Vec<u8>) {
        put_f64(out, self.pending_scalar);
        put_usize(out, self.rep);
        put_usize(out, self.outbox.len());
        for msg in &self.outbox {
            msg.encode(out);
        }
        put_f64(out, self.inner.thr_frac);
        put_f64(out, self.inner.f_hat);
        crate::wire::put_matrix(out, &self.inner.withheld_rows());
    }

    fn decode(r: &mut WireReader<'_>) -> Option<Self> {
        let pending_scalar = r.f64()?;
        let rep = r.usize()?;
        let n = r.usize()?;
        let mut outbox = Vec::with_capacity(n);
        for _ in 0..n {
            outbox.push(MP2Msg::decode(r)?);
        }
        let thr_frac = r.f64()?;
        let f_hat = r.f64()?;
        let rows = crate::wire::read_matrix(r)?;
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
            fd_a: FrequentDirections::with_error_bound(cfg.dim, eps_site)
                .using_shrink(cfg.profile.shrink)
                .using_kernels(cfg.profile.kernels),
            fd_s: FrequentDirections::with_error_bound(cfg.dim, eps_site)
                .using_shrink(cfg.profile.shrink)
                .using_kernels(cfg.profile.kernels),
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
        use cma_linalg::eigen::jacobi_eigen_sym;
        self.pending_mass = 0.0;
        let threshold = self.send_threshold();
        // Repeatedly peel the top direction of the difference Gram while
        // it clears the threshold (bounded by d iterations: each send
        // moves that direction's mass into fd_s).
        for _ in 0..self.fd_a.dim() {
            let diff = self.fd_a.sketch().gram().sub(&self.fd_s.sketch().gram());
            let eig = jacobi_eigen_sym(&diff).expect("MT-P2 bounded: eigensolver diverged");
            let (top, rest) = match eig.values.first() {
                Some(&l) => (l, eig.values.get(1).copied().unwrap_or(0.0)),
                None => break,
            };
            let _ = rest;
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
    use cma_linalg::random;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

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
        // All received directions lie (numerically) along e₀.
        for r in sketch.iter_rows() {
            for (j, &v) in r.iter().enumerate() {
                if j != 0 {
                    assert!(v.abs() < 1e-9, "off-axis direction component {v}");
                }
            }
        }
    }

    #[test]
    fn kernel_paths_agree_on_stream() {
        // The same stream through both site layouts (naive = basis +
        // warm full-d Jacobi, blocked = low-rank spectral): identical
        // message schedule on a reference stream, and coordinator
        // sketches whose Grams agree to solver tolerance.
        use cma_linalg::LinalgProfile;
        let dim = 7;
        let base = MatrixConfig::new(3, 0.25, dim);
        let mut runners = [
            deploy(&base.clone().with_profile(LinalgProfile::naive())),
            deploy(&base.clone().with_profile(LinalgProfile::blocked())),
        ];
        let mut truth = StreamingGram::new(dim);
        let mut rng = StdRng::seed_from_u64(12);
        for i in 0..3_000 {
            let row: Row = (0..dim)
                .map(|_| random::standard_normal(&mut rng))
                .collect();
            truth.update(&row);
            for r in &mut runners {
                r.feed(i % 3, row.clone());
            }
        }
        let [naive, blocked] = &runners;
        assert_eq!(
            naive.stats().total(),
            blocked.stats().total(),
            "kernel paths diverged in message schedule"
        );
        let gn = naive.coordinator().sketch().gram();
        let gb = blocked.coordinator().sketch().gram();
        let mut diff = 0.0_f64;
        for i in 0..dim {
            for j in 0..dim {
                diff = diff.max((gn[(i, j)] - gb[(i, j)]).abs());
            }
        }
        assert!(
            diff <= 1e-6 * truth.frob_sq(),
            "sketch Grams diverged: {diff}"
        );
        for runner in &runners {
            let err = truth
                .error_of_sketch(&runner.coordinator().sketch())
                .unwrap();
            assert!(err <= base.epsilon, "covariance error {err} > ε");
        }
    }

    #[test]
    fn zero_rows_ignored() {
        let cfg = MatrixConfig::new(2, 0.3, 4);
        let mut runner = deploy(&cfg);
        runner.feed(0, vec![0.0; 4]);
        assert_eq!(runner.stats().total(), 0);
    }
}
