//! MT-P2's withheld store: the matrix `Bj` a node has not reported, held
//! on its small side behind a certified lazy trigger.
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
//!    the check is skipped until then. At batch slack 0 the send
//!    decisions are identical to the per-row variant's at every row
//!    boundary (any bound `≥ σ²max` forces a check at the first row where
//!    `σ²max` reaches the threshold); only wasted decompositions are
//!    elided. With slack a direction ships at the first *check* at which
//!    it has reached the send threshold `(1 − slack)·(ε/m)F̂` — what
//!    [`BATCH_SLACK`] describes — while the invariant is still enforced
//!    at every row. The slack-0 oracle of this module's tests measures
//!    the gap.
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
//!    `‖Bx‖² = xᵀ(BᵀB)x`. So the root ([`super::ThresholdCoordinator`])
//!    holds the `d×d` Gram of the received directions, not their stack:
//!    a direction adds in with one `accumulate_outer`, a direction query
//!    costs `O(d²)` however many directions have arrived, the root's
//!    state is `d²` floats instead of one row per message, and the sketch
//!    is at most `d` rows `σᵢ·vᵢᵀ` from one eigensolve. The test-side
//!    recording root keeps the stack as the oracle:
//!    `coordinator_answers_as_the_received_stack` pins answers, sketch
//!    Gram and snapshot against it.
//!
//! The seed's eager layout (the full `d×d` Gram, Jacobi at **every**
//! trigger; observations 1 and 2 only) survives as the tests' oracle.

use super::{Threshold, ThresholdAggregator, ThresholdKind, ThresholdMsg};
use crate::matrix::{row_weight, Row};
use crate::sampling::RowKind;
use crate::wire::{put_matrix, put_sym, read_gram, read_mass, read_matrix};
use cma_linalg::cholesky::bracketed_upper_bound;
use cma_linalg::matrix::accumulate_outer;
use cma_linalg::ql::ql_eigen_sym;
use cma_linalg::{vector, Matrix};
use cma_stream::{put_f64, put_usize, WireCodec, WireReader};
use std::borrow::Cow;

/// Batch slack: directions ship once they reach `(1 − slack)·(ε/m)·F̂`
/// while the invariant holds at `(ε/m)·F̂`, so each decomposition ships
/// at least `slack·(ε/m)·F̂` mass. `0.25` is the paper's batch-mode ratio
/// (§5.2's `3ε/4m`), costing at most `1/(1−slack)`× more messages; `0`,
/// Algorithm 5.3 row for row, is the tests' oracle.
pub const BATCH_SLACK: f64 = 0.25;

/// The withheld matrix `Bj` of an MT-P2 node, held on its smaller side
/// (module doc, observations 3 and 4); only its Gram matters, so neither
/// form keeps the rows orthogonal between decompositions.
#[derive(Debug, Clone)]
enum Withheld {
    /// `s ≤ d` rows in one contiguous matrix: appending is `O(d)`, and a
    /// check works on the `s×s` outer Gram. The first `directions` are
    /// the `σᵢ·vᵢᵀ` the last decomposition kept, the rest raw rows.
    Rows { rows: Matrix, directions: usize },
    /// Rank saturated (a `d+1`-th row arrived): the `d×d` withheld Gram,
    /// updated rank-1 per row until a decomposition hands back rows.
    Gram(Matrix),
}

impl Withheld {
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

    /// The width `d`.
    fn dim(&self) -> usize {
        let (Withheld::Rows { rows: m, .. } | Withheld::Gram(m)) = self;
        m.cols()
    }

    /// The withheld Gram on its small side: `S·Sᵀ` (`s×s`) of the rows,
    /// or the saturated `d×d` Gram; same nonzero spectrum either way.
    fn small_gram(&self) -> Cow<'_, Matrix> {
        match self {
            Withheld::Rows { rows, .. } => Cow::Owned(rows.outer_gram()),
            Withheld::Gram(gram) => Cow::Borrowed(gram),
        }
    }

    /// The certified trigger (module doc, observation 4): an upper bound
    /// on `λ_max` of what stays withheld, certified below `send` when the
    /// certificate passes (nothing is decomposed) and exact after a
    /// decomposition. A stack that has more than doubled is decomposed
    /// outright, which keeps a low-rank stream at `s ≈ rank` (measured at
    /// d = 256, rank 3: 2.3× slower without this rule). `warm` is the
    /// Lanczos start vector: the last check's iterate, zero-padded for the
    /// rows absorbed since, or `e₀` after a decomposition.
    fn check(
        &mut self,
        send: f64,
        warm: &mut Vec<f64>,
        out: &mut Vec<ThresholdMsg<RowKind>>,
    ) -> f64 {
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

    /// Eigen-directions of the withheld Gram, descending: `λᵢ = σᵢ²` and
    /// the rows `σᵢ·vᵢᵀ`, from one QL eigensolve of the small side.
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
        out: &mut Vec<ThresholdMsg<RowKind>>,
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

    /// Canonical withheld rows; a saturated node's take one eigensolve
    /// (snapshot encode only, off the ingest path).
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
pub(crate) fn gram_rows(gram: &Matrix) -> Matrix {
    split_spectrum(f64::INFINITY, gram_spectrum(gram), &mut Vec::new()).0
}

/// Splits eigen-directions `(λᵢ, σᵢ·vᵢᵀ)` at `send`: those at or above
/// it ship, the rest return with their largest `λ`. `λ ≤ ulp(trace)` is
/// structurally zero: dropping it discards the eigensolver's own noise.
fn split_spectrum(
    send: f64,
    (values, dirs): (Vec<f64>, Matrix),
    out: &mut Vec<ThresholdMsg<RowKind>>,
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
            out.push(ThresholdMsg::Delta(dirs.row(i).to_vec()));
        } else {
            kept.push_row(dirs.row(i));
            smax2 = smax2.max(s2);
        }
    }
    (kept, smax2)
}

/// What an MT-P2 node withholds: the exact matrix `Bj` on its small side
/// (`Withheld`; module doc, observations 3 and 4) and the state of its
/// lazy trigger.
#[derive(Debug, Clone)]
pub struct RowStore {
    withheld: Withheld,
    /// The next check's Lanczos start vector: capacity `d`, allocated
    /// once, never encoded.
    warm: Vec<f64>,
    /// Squared mass absorbed since the last check.
    pending_mass: f64,
    /// Bound on `λ_max` as of the last check: exact after a
    /// decomposition, certified otherwise.
    smax2: f64,
    /// [`BATCH_SLACK`], or 0 for the tests' per-row oracle.
    slack: f64,
}

/// MT-P2: the withheld matrix `Bj` behind the certified lazy trigger; a
/// delta message is a direction `σ·v`, and the root sums their Gram.
impl ThresholdKind for RowKind {
    type Delta = Row;
    type Store = RowStore;
    type Root = Matrix;

    const ROOT_LEADS: bool = true;

    fn store(dim: usize) -> RowStore {
        RowStore {
            withheld: Withheld::Rows {
                rows: Matrix::with_cols(dim),
                directions: 0,
            },
            warm: Vec::with_capacity(dim),
            pending_mass: 0.0,
            smax2: 0.0,
            slack: BATCH_SLACK,
        }
    }

    fn root(dim: usize) -> Matrix {
        Matrix::zeros(dim, dim)
    }

    /// Withholds a row of squared mass `w`; once the lazy bound could
    /// reach the threshold (module doc, observation 2), the certified
    /// check runs (`Withheld::check`).
    fn withhold(
        store: &mut RowStore,
        row: Row,
        w: f64,
        threshold: f64,
        out: &mut Vec<ThresholdMsg<Self>>,
    ) {
        store.withheld.push(&row, &mut store.warm);
        store.pending_mass += w;
        if store.smax2 + store.pending_mass >= threshold {
            let send = (1.0 - store.slack) * threshold;
            store.smax2 = store.withheld.check(send, &mut store.warm, out);
            store.pending_mass = 0.0;
        }
    }

    /// A relayed direction runs an arrival's trigger, with no total: the
    /// leaf that observed its mass reported it.
    fn hold(store: &mut RowStore, row: Row, threshold: f64, out: &mut Vec<ThresholdMsg<Self>>) {
        let w = row_weight(&row);
        if w != 0.0 {
            Self::withhold(store, row, w, threshold, out);
        }
    }

    /// One decomposition at a zero send threshold, certificate or not,
    /// ships **every** withheld direction and leaves the store empty.
    fn drain(store: &mut RowStore, out: &mut Vec<ThresholdMsg<Self>>) {
        let spectrum = store.withheld.spectrum(&store.withheld.small_gram());
        store
            .withheld
            .keep_below(0.0, spectrum, &mut store.warm, out);
        store.pending_mass = 0.0;
        store.smax2 = 0.0;
    }

    fn accumulate(gram: &mut Matrix, row: Row) {
        accumulate_outer(gram, &row);
    }

    fn payload(v: &Row) -> &Row {
        v
    }

    /// A direction carries its squared norm.
    fn weight(v: &Row) -> f64 {
        v.iter().map(|x| x * x).sum()
    }

    fn delta(v: Row, _: f64) -> Row {
        v
    }

    /// `d, lower triangle` of the Gram.
    fn put_root(out: &mut Vec<u8>, gram: &Matrix) {
        put_sym(out, gram);
    }

    fn read_root(r: &mut WireReader<'_>) -> Option<Matrix> {
        read_gram(r)
    }

    /// `pending total, rep, n, outbox, threshold fraction, F̂, withheld
    /// rows` — the store as its canonical rows (`Withheld::to_rows`).
    fn put_node(out: &mut Vec<u8>, node: &ThresholdAggregator<Self>) {
        put_f64(out, node.pending_total);
        put_usize(out, node.rep);
        put_usize(out, node.outbox.len());
        for msg in &node.outbox {
            msg.encode(out);
        }
        node.threshold.put(out);
        put_matrix(out, &node.store.withheld.to_rows());
    }

    /// `None` on withheld rows of width 0 or an outbox `Delta` of another
    /// width, either of which would panic the next merge.
    fn read_node(r: &mut WireReader<'_>) -> Option<ThresholdAggregator<Self>> {
        let pending_total = read_mass(r)?;
        let rep = r.usize()?;
        let n = r.usize()?;
        let mut outbox = Vec::with_capacity(r.capacity_for(n));
        for _ in 0..n {
            outbox.push(ThresholdMsg::decode(r)?);
        }
        let threshold = Threshold::read(r)?;
        let rows = read_matrix(r)?;
        let width = rows.cols();
        let fits =
            |msg: &ThresholdMsg<Self>| !matches!(msg, ThresholdMsg::Delta(v) if v.len() != width);
        if width == 0 || !outbox.iter().all(fits) {
            return None;
        }
        // The rows go in unchecked: that keeps the withheld Gram exactly
        // and the invariant (`max‖Bx‖² ≤ pending_mass`) trivially.
        let mut store = Self::store(width);
        for row in rows.iter_rows() {
            store.withheld.push(row, &mut store.warm);
        }
        store.pending_mass = rows.frob_norm_sq();
        Some(ThresholdAggregator {
            pending_total,
            store,
            outbox,
            threshold,
            rep,
        })
    }

    fn root_width(gram: &Matrix) -> Option<usize> {
        Some(gram.rows())
    }

    fn store_width(store: &RowStore) -> Option<usize> {
        Some(store.withheld.dim())
    }
}

#[cfg(test)]
mod tests {
    use super::super::{deploy, deploy_topology, make_aggregator, ThresholdSite};
    use super::*;
    use crate::config::MatrixConfig;
    use crate::matrix::MatrixEstimator;
    use cma_data::StreamingGram;
    use cma_linalg::eigen::jacobi_eigen_sym;
    use cma_linalg::random;
    use cma_stream::{Coordinator, Runner, Site, SiteId, Topology};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    type Msg = ThresholdMsg<RowKind>;
    type Root = super::super::ThresholdCoordinator<RowKind>;

    /// The paper's literal root (Algorithm 5.4) beside the production
    /// one: every direction the root receives, stacked in arrival order —
    /// the oracle the coordinator's answers are pinned against.
    #[derive(Debug, Clone)]
    struct Recording {
        inner: Root,
        stack: Matrix,
    }

    impl Recording {
        fn new(cfg: &MatrixConfig) -> Self {
            Recording {
                inner: deploy(cfg).into_parts().1,
                stack: Matrix::with_cols(cfg.dim),
            }
        }
    }

    impl Coordinator for Recording {
        type UpMsg = Msg;
        type Broadcast = f64;

        fn receive(&mut self, from: SiteId, msg: Msg, out: &mut Vec<f64>) {
            if let ThresholdMsg::Delta(row) = &msg {
                self.stack.push_row(row);
            }
            self.inner.receive(from, msg, out);
        }
    }

    /// [`deploy_topology`] with a recording root.
    fn deploy_recorded(
        cfg: &MatrixConfig,
        topology: Topology,
    ) -> Runner<ThresholdSite<RowKind>, Recording, ThresholdAggregator<RowKind>> {
        let (sites, _, _) = deploy_topology(cfg, topology).into_parts();
        Runner::with_topology(
            sites,
            Recording::new(cfg),
            topology,
            make_aggregator(cfg, topology),
        )
    }

    /// A recorded star whose sites run at batch slack `slack` (0: the
    /// per-row Algorithm 5.3).
    fn deploy_at_slack(
        cfg: &MatrixConfig,
        slack: f64,
    ) -> Runner<ThresholdSite<RowKind>, Recording> {
        let (mut sites, _, _) = deploy_topology(cfg, Topology::Star).into_parts();
        for site in &mut sites {
            site.store.slack = slack;
        }
        Runner::new(sites, Recording::new(cfg))
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
                let back = Root::decode(&mut WireReader::new(&bytes))
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

    #[test]
    fn site_invariant_no_direction_above_threshold() {
        let cfg = MatrixConfig::new(2, 0.3, 4);
        let mut runner = deploy_recorded(&cfg, Topology::Star);
        for (i, row) in gaussian_rows(3, 4, 1_000).enumerate() {
            runner.feed(i % cfg.sites, row);
        }
        for site in runner.sites() {
            // After each arrival the site guarantees
            // max‖Bjx‖² ≤ smax2 + pending_mass < threshold.
            assert!(
                site.store.smax2 + site.store.pending_mass < site.threshold.value(),
                "site invariant violated"
            );
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
        type UpMsg = Msg;
        type Broadcast = f64;

        fn observe(&mut self, row: Row, out: &mut Vec<Msg>) {
            let w = row_weight(&row);
            if w == 0.0 {
                return;
            }
            let threshold = self.thr_frac * self.f_hat;
            self.f_local += w;
            if self.f_local >= threshold {
                out.push(ThresholdMsg::Total(self.f_local));
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
                    out.push(ThresholdMsg::Delta(dir));
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

    fn deploy_eager(cfg: &MatrixConfig, slack: f64) -> Runner<EagerSite, Recording> {
        let site = EagerSite {
            gram: Matrix::zeros(cfg.dim, cfg.dim),
            pending_mass: 0.0,
            smax2: 0.0,
            f_local: 0.0,
            slack,
            thr_frac: cfg.epsilon / cfg.sites as f64,
            f_hat: 1.0,
        };
        Runner::new(vec![site; cfg.sites], Recording::new(cfg))
    }

    #[test]
    fn kernel_paths_agree_on_stream() {
        // The same stream through the eager oracle (Algorithm 5.3 with
        // only the Weyl elision) and the production site (small-side
        // layout behind the certificate).
        let dim = 7;
        let cfg = MatrixConfig::new(3, 0.25, dim);
        let run = |slack: f64| {
            let mut eager = deploy_eager(&cfg, slack);
            let mut certified = deploy_at_slack(&cfg, slack);
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

        // Slack 0 is per-row Algorithm 5.3, and there a sound bound
        // forces a check at the first row where λ_max reaches the
        // threshold: certified-lazy ≡ eager, message for message.
        let (eager, certified, truth) = run(0.0);
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
        let (eager, certified, _) = run(BATCH_SLACK);
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
        slack: f64,
        rows: impl Iterator<Item = Row>,
    ) -> (usize, usize) {
        let saturated = |s: &ThresholdSite<RowKind>| matches!(s.store.withheld, Withheld::Gram(_));
        let mut runner = deploy_at_slack(cfg, slack);
        let (mut entered, mut left) = (0, 0);
        for (i, row) in rows.enumerate() {
            let j = i % cfg.sites;
            let before = &runner.sites()[j];
            let send = (1.0 - slack) * before.threshold.value();
            let was_saturated = saturated(before);
            let received = runner.coordinator().stack.rows();
            runner.feed(j, row);

            // 1e-9 is the relative accuracy the shipping decomposition
            // itself runs at.
            let site = &runner.sites()[j];
            let threshold = site.threshold.value();
            let tol = 1e-8 * threshold;
            let gram = site.store.withheld.to_rows().gram();
            let top = jacobi_eigen_sym(&gram).unwrap().values[0];
            assert!(
                top < threshold + tol,
                "row {i}: λ_max {top} ≥ threshold {threshold}"
            );
            assert!(
                top <= site.store.smax2 + site.store.pending_mass + tol,
                "row {i}: λ_max {top} > recorded bound {} + {}",
                site.store.smax2,
                site.store.pending_mass
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
        // Flat spectrum at d = 12 with ε/m < 1/d, so directions keep
        // reaching the threshold: sites saturate within a few dozen rows
        // and fall back to rows at every shipping decomposition.
        for slack in [BATCH_SLACK, 0.0] {
            let cfg = MatrixConfig::new(4, 0.05, 12);
            let (entered, left) =
                assert_certified_after_every_arrival(&cfg, slack, gaussian_rows(21, 12, 2_000));
            assert!(
                entered >= 3 && left >= 3,
                "rank saturation entered {entered}×, left {left}×"
            );
        }
        // Rank 3 in d = 32: every doubling of the stack is decomposed
        // back to three rows, so the site never saturates.
        let cfg = MatrixConfig::new(4, 0.05, 32);
        let (entered, _) =
            assert_certified_after_every_arrival(&cfg, BATCH_SLACK, rank_three_rows(22, 1_500));
        assert_eq!(entered, 0, "rank-3 stream saturated");
        // Rank 1: one repeated row.
        let rank_one = (0..800).map(|_| vec![0.0, 2.0, 0.0, -1.0]);
        let cfg = MatrixConfig::new(2, 0.2, 4);
        assert_certified_after_every_arrival(&cfg, BATCH_SLACK, rank_one);
        // d = 1: the second row already saturates (a 1×1 Gram).
        let cfg = MatrixConfig::new(2, 0.2, 1);
        let (entered, left) =
            assert_certified_after_every_arrival(&cfg, 0.0, gaussian_rows(23, 1, 600));
        assert!(entered >= 3 && left >= 3, "d = 1 never cycled");
    }
}
