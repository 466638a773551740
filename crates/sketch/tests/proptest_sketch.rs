//! Property-based tests on the sketch crate's guarantees, over
//! adversarial streams (arbitrary item/weight sequences) rather than the
//! benign distributions of the unit tests.

use cma_linalg::svd::svd_from_gram;
use cma_linalg::Matrix;
use cma_sketch::{ExactWeightedCounter, FrequentDirections, MgSummary, SwMg};
use proptest::prelude::*;

fn weighted_stream() -> impl Strategy<Value = Vec<(u64, f64)>> {
    prop::collection::vec((0u64..25, 1.0f64..100.0), 1..300)
}

/// An MG summary of capacity `cap` fed `items` in order.
fn mg_from(cap: usize, items: impl IntoIterator<Item = (u64, f64)>) -> MgSummary {
    let mut mg = MgSummary::new(cap);
    for (e, w) in items {
        mg.update(e, w);
    }
    mg
}

/// A matrix's entries, bit for bit.
fn bits(m: &Matrix) -> Vec<u64> {
    m.as_slice().iter().map(|v| v.to_bits()).collect()
}

/// An FD sketch of dimension `d` and size `ell` fed `cells` as rows.
fn fd_from(d: usize, ell: usize, cells: &[f64]) -> FrequentDirections {
    let mut fd = FrequentDirections::new(d, ell);
    for row in cells.chunks_exact(d) {
        fd.update(row);
    }
    fd
}

/// The nonzero rows of `ΣVᵀ` from the eigendecomposition of `gram`:
/// the rows a Gram-held FD sketch reports as its sketch.
fn gram_factor(gram: &Matrix) -> Matrix {
    let svd = svd_from_gram(gram).expect("eigensolver converges");
    let mut out = Matrix::with_cols(gram.cols());
    for row in svd.sigma_vt().iter_rows() {
        if row.iter().any(|&v| v != 0.0) {
            out.push_row(row);
        }
    }
    out
}

/// An MG summary's whole state, bit for bit: both totals and the
/// counters in item order.
fn mg_bits(mg: &MgSummary) -> (u64, u64, Vec<(u64, u64)>) {
    let mut counters: Vec<(u64, u64)> = mg.counters().map(|(e, c)| (e, c.to_bits())).collect();
    counters.sort_unstable();
    (
        mg.total_weight().to_bits(),
        mg.observed_error_bound().to_bits(),
        counters,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Misra–Gries never overestimates, on any stream.
    #[test]
    fn mg_never_overestimates(stream in weighted_stream(), cap in 2usize..16) {
        let mut mg = MgSummary::new(cap);
        let mut exact = ExactWeightedCounter::new();
        for &(e, w) in &stream {
            mg.update(e, w);
            exact.update(e, w);
        }
        for (e, f) in exact.iter() {
            prop_assert!(mg.estimate(e) <= f + 1e-9);
        }
    }

    /// MG merge order does not affect the guarantee: merging A→B vs B→A
    /// both respect the combined bound.
    #[test]
    fn mg_merge_commutes_on_guarantee(
        s1 in weighted_stream(),
        s2 in weighted_stream(),
        cap in 2usize..10,
    ) {
        let mut exact = ExactWeightedCounter::new();
        let build = |s: &[(u64, f64)]| {
            let mut mg = MgSummary::new(cap);
            for &(e, w) in s {
                mg.update(e, w);
            }
            mg
        };
        for &(e, w) in s1.iter().chain(&s2) {
            exact.update(e, w);
        }
        let mut ab = build(&s1);
        ab.merge(&build(&s2));
        let mut ba = build(&s2);
        ba.merge(&build(&s1));
        for (e, f) in exact.iter() {
            for (name, m) in [("ab", &ab), ("ba", &ba)] {
                let est = m.estimate(e);
                prop_assert!(est <= f + 1e-9, "{}: overestimate", name);
                prop_assert!(f - est <= m.error_bound() + 1e-9, "{}: bound", name);
            }
        }
    }

    /// MG merge association does not affect the guarantee: a left-leaning
    /// chain, a balanced tree and a right-leaning chain over four partial
    /// summaries all respect the combined-stream bound. This is the
    /// property tree aggregation (hh::p1's interior nodes) silently
    /// relies on — partials merge in whatever shape the topology dictates.
    #[test]
    fn mg_merge_association_insensitive(
        s1 in weighted_stream(),
        s2 in weighted_stream(),
        s3 in weighted_stream(),
        s4 in weighted_stream(),
        cap in 2usize..10,
    ) {
        let build = |s: &[(u64, f64)]| {
            let mut mg = MgSummary::new(cap);
            for &(e, w) in s {
                mg.update(e, w);
            }
            mg
        };
        let mut exact = ExactWeightedCounter::new();
        for &(e, w) in s1.iter().chain(&s2).chain(&s3).chain(&s4) {
            exact.update(e, w);
        }
        // ((1·2)·3)·4
        let mut chain = build(&s1);
        chain.merge(&build(&s2));
        chain.merge(&build(&s3));
        chain.merge(&build(&s4));
        // (1·2)·(3·4)
        let mut left = build(&s1);
        left.merge(&build(&s2));
        let mut right = build(&s3);
        right.merge(&build(&s4));
        left.merge(&right);
        // 1·(2·(3·4))
        let mut t34 = build(&s3);
        t34.merge(&build(&s4));
        let mut t234 = build(&s2);
        t234.merge(&t34);
        let mut rchain = build(&s1);
        rchain.merge(&t234);
        for (e, f) in exact.iter() {
            for (name, m) in [("chain", &chain), ("balanced", &left), ("rchain", &rchain)] {
                let est = m.estimate(e);
                prop_assert!(est <= f + 1e-9, "{}: overestimate on {}", name, e);
                prop_assert!(f - est <= m.error_bound() + 1e-9, "{}: bound on {}", name, e);
            }
        }
    }

    /// The by-value merge folds the smaller table into the larger one,
    /// so it runs `merge` either way round; both must equal `a.merge(&b)`
    /// bit for bit. Per-key IEEE addition and the two totals commute,
    /// and the `(ℓ+1)`-th-largest decrement is a function of the summed
    /// multiset. Keys fully overlap, partly overlap or are disjoint;
    /// either side may be empty, larger, or past capacity. A decrement
    /// usually leaves exactly `ℓ` counters, so `a` is a merge of
    /// integer-weighted summaries: ties at the decrement leave it under
    /// capacity while it carries a decrement total, and a swap must keep
    /// that total on either side.
    #[test]
    fn mg_absorb_equals_merge_bitwise(
        s1 in prop::collection::vec((0u64..25, 1u8..4), 0..300),
        s2 in prop::collection::vec((0u64..25, 1.0f64..100.0), 0..300),
        s3 in prop::collection::vec((0u64..25, 1u8..4), 0..300),
        overlap in 0usize..3,
        cap in 1usize..16,
    ) {
        let ints = |s: &[(u64, u8)]| mg_from(cap, s.iter().map(|&(e, w)| (e, f64::from(w))));
        let mut a = ints(&s1);
        a.merge(&ints(&s3));
        let shift = [0, 10, 100][overlap];
        let b = mg_from(cap, s2.iter().map(|&(e, w)| (e + shift, w)));
        let mut want = a.clone();
        want.merge(&b);
        let mut ab = a.clone();
        ab.absorb(b.clone());
        let mut ba = b;
        ba.absorb(a);
        prop_assert_eq!(mg_bits(&ab), mg_bits(&want));
        prop_assert_eq!(mg_bits(&ba), mg_bits(&want));
    }

    /// FD merge (both the sketch–sketch `merge` and the row-stack
    /// `merge_rows` used by tree aggregation) keeps the combined-stream
    /// directional guarantee regardless of merge order.
    #[test]
    fn fd_merge_order_insensitive(
        rows in prop::collection::vec(prop::collection::vec(-4.0f64..4.0, 4), 4..80),
        ell in 4usize..8,
        split in 1usize..3,
    ) {
        let d = 4;
        let cut = rows.len() * split / 3;
        let (ra, rb) = rows.split_at(cut.max(1).min(rows.len() - 1));
        let build = |rs: &[Vec<f64>]| {
            let mut fd = FrequentDirections::new(d, ell);
            for r in rs {
                fd.update(r);
            }
            fd
        };
        let frob: f64 = rows.iter().flat_map(|r| r.iter().map(|v| v * v)).sum();
        let slack = 1e-9 * frob.max(1.0);

        let mut ab = build(ra);
        ab.merge(&build(rb));
        let mut ba = build(rb);
        ba.merge(&build(ra));
        // merge_rows folds the flushed sketch of one side into the other.
        let mut mr = build(ra);
        let (flushed, _) = build(rb).take();
        mr.merge_rows(&flushed);

        for (name, fd) in [("ab", &ab), ("ba", &ba), ("merge_rows", &mr)] {
            prop_assert!(fd.sketch().rows() < ell + rb.len(), "{}: runaway buffer", name);
            let bound = 2.0 * frob / ell as f64 + slack;
            for i in 0..d {
                let mut x = vec![0.0; d];
                x[i] = 1.0;
                let ax: f64 = rows
                    .iter()
                    .map(|r| {
                        let dot: f64 = r.iter().zip(&x).map(|(a, b)| a * b).sum();
                        dot * dot
                    })
                    .sum();
                let bx = fd.query(&x);
                prop_assert!(bx <= ax + slack, "{}: ‖Bx‖² exceeded ‖Ax‖²", name);
                prop_assert!(ax - bx <= bound, "{}: error above 2F/ℓ", name);
            }
        }
    }

    /// FD shrink-loss accounting: the tracked loss always dominates the
    /// worst direction error along every standard basis vector, and stays
    /// within the a-priori 2‖A‖²F/ℓ.
    #[test]
    fn fd_loss_accounting(
        rows in prop::collection::vec(prop::collection::vec(-5.0f64..5.0, 4), 1..120),
        ell in 2usize..7,
    ) {
        let d = 4;
        let mut fd = FrequentDirections::new(d, ell);
        let mut frob = 0.0;
        for r in &rows {
            fd.update(r);
            frob += r.iter().map(|v| v * v).sum::<f64>();
        }
        let slack = 1e-9 * frob.max(1.0);
        prop_assert!(fd.shrink_loss() <= fd.error_bound() + slack);
        for i in 0..d {
            let mut x = vec![0.0; d];
            x[i] = 1.0;
            let ax: f64 = rows
                .iter()
                .map(|r| {
                    let dot: f64 = r.iter().zip(&x).map(|(a, b)| a * b).sum();
                    dot * dot
                })
                .sum();
            let bx = fd.query(&x);
            prop_assert!(bx <= ax + slack);
            prop_assert!(ax - bx <= fd.shrink_loss() + slack);
        }
    }

    /// Sliding-window MG: estimates of every universe item stay within
    /// the reported bound of the exact window content, at every prefix
    /// length (sampled).
    #[test]
    fn sw_mg_window_bound(
        stream in prop::collection::vec((0u64..10, 1.0f64..20.0), 10..200),
        window in 5u64..50,
    ) {
        let mut sw = SwMg::new(8, window, 2);
        for (t, &(e, w)) in stream.iter().enumerate() {
            sw.update(e, w);
            if t % 37 == 36 || t + 1 == stream.len() {
                let start = (t + 1).saturating_sub(window as usize);
                let bound = sw.error_bound() + 1e-9;
                for item in 0u64..10 {
                    let truth: f64 = stream[start..=t]
                        .iter()
                        .filter(|(e, _)| *e == item)
                        .map(|(_, w)| w)
                        .sum();
                    let est = sw.estimate(item);
                    prop_assert!(
                        (est - truth).abs() <= bound,
                        "t={} item={}: {} vs {} (bound {})",
                        t, item, est, truth, bound
                    );
                }
            }
        }
    }

    /// Neither cache outlives what it was computed from: over a random
    /// interleaving of every changing call — `update`, `merge`,
    /// `merge_deferred`, `stack`, `merge_rows`, `settle`, `take`,
    /// `fold_settled`, `from_parts` and `settled` — with both read after
    /// every step (so a warm cache meets each mutation), a row-held
    /// sketch's `gram()` equals a fresh `sketch().gram()` bit for bit,
    /// and a Gram-held sketch's `sketch()` equals a fresh factor of its
    /// `gram()` bit for bit.
    #[test]
    fn fd_gram_cache_tracks_rows(
        ops in prop::collection::vec((0usize..10, prop::collection::vec(-4.0f64..4.0, 24)), 1..40),
        d in 1usize..5,
        ell in 2usize..7,
    ) {
        let mut fd = FrequentDirections::new(d, ell);
        for (step, (op, cells)) in ops.iter().enumerate() {
            let cells = &cells[..cells.len() / d * d];
            // A partner whose own cache is warm, as a folded bucket's is.
            let partner = fd_from(d, ell, &cells[cells.len() / 2 / d * d..]);
            let _ = partner.gram();
            match op {
                0 => fd.update(&cells[..d]),
                1 => fd.merge(&partner),
                2 => fd.merge_deferred(&partner),
                3 => fd.stack(&partner),
                4 => fd.merge_rows(&Matrix::from_vec(cells.len() / d, d, cells.to_vec())),
                5 => fd.settle(),
                6 => {
                    fd.take();
                }
                7 => {
                    let other = fd_from(d, ell, &cells[..cells.len() / 2 / d * d]);
                    fd.fold_settled([&partner, &other]);
                }
                8 => {
                    let settled = fd.settled().into_owned();
                    prop_assert_eq!(bits(settled.gram()), bits(&settled.sketch().gram()));
                    fd = settled;
                }
                _ => {
                    let settled = fd.settled();
                    fd = FrequentDirections::from_parts(
                        d,
                        ell,
                        settled.sketch().clone(),
                        settled.frob_sq_seen(),
                        settled.shrink_loss(),
                    );
                }
            }
            if fd.holds_gram() {
                prop_assert!(
                    bits(fd.sketch()) == bits(&gram_factor(fd.gram())),
                    "step {} (op {}): the cached factor is stale",
                    step,
                    op
                );
            } else {
                prop_assert!(
                    bits(fd.gram()) == bits(&fd.sketch().gram()),
                    "step {} (op {}): the cached Gram is stale",
                    step,
                    op
                );
            }
        }
    }

    /// `fold_settled` is stack-then-settle, with the shrink's `(Σ, V)`
    /// taken from the summed per-part Grams exactly when a tall shrink
    /// is due: below `ℓ` stacked rows the fold returns the stacked rows
    /// unshrunk, and below `d` it takes the outer-Gram route — both bit
    /// for bit. On the Gram route `frob_sq_seen` is still bit-identical,
    /// and the sketch agrees with the stacked shrink's to rounding.
    #[test]
    fn fd_fold_settled_is_stack_then_settle(
        cells in prop::collection::vec(-4.0f64..4.0, 1..240),
        parts in 1usize..8,
        d in 1usize..9,
        ell in 2usize..10,
        warm in 0usize..2,
    ) {
        let cells = &cells[..cells.len() / d * d];
        prop_assume!(!cells.is_empty());
        let rows = cells.len() / d;
        let per = rows.div_ceil(parts) * d;
        let parts: Vec<FrequentDirections> =
            cells.chunks(per).map(|c| fd_from(d, ell, c)).collect();
        if warm == 1 {
            for p in &parts {
                let _ = p.gram();
            }
        }
        let mut stacked = FrequentDirections::new(d, ell);
        for p in &parts {
            stacked.stack(p);
        }
        let height = stacked.sketch().rows();
        let frob_bits = stacked.frob_sq_seen().to_bits();
        let loss_before = stacked.shrink_loss();
        stacked.settle();
        let mut folded = FrequentDirections::new(d, ell);
        folded.fold_settled(&parts);
        prop_assert!(folded.is_settled());
        prop_assert_eq!(folded.frob_sq_seen().to_bits(), frob_bits);
        if height < ell || height < d {
            prop_assert_eq!(bits(folded.sketch()), bits(stacked.sketch()));
            prop_assert_eq!(folded.shrink_loss().to_bits(), stacked.shrink_loss().to_bits());
        } else {
            let tol = 1e-9 * f64::from_bits(frob_bits).max(1.0);
            prop_assert!(folded.shrink_loss() >= loss_before);
            prop_assert!((folded.shrink_loss() - stacked.shrink_loss()).abs() <= tol);
            let gap = folded.sketch().gram().sub(&stacked.sketch().gram()).max_abs();
            prop_assert!(gap <= tol, "sketch Grams differ by {} (height {})", gap, height);
        }
    }
}

/// The reference Misra–Gries table: items hashed by the map, and the
/// `(ℓ+1)`-th largest counter read off a full sort. `MgSummary` must
/// match it bit for bit under any sequence of operations.
#[derive(Debug, Clone)]
struct OracleMg {
    capacity: usize,
    counters: std::collections::HashMap<u64, f64>,
    total_weight: f64,
    decrement_total: f64,
}

impl OracleMg {
    fn new(capacity: usize) -> Self {
        OracleMg {
            capacity,
            counters: Default::default(),
            total_weight: 0.0,
            decrement_total: 0.0,
        }
    }

    fn update(&mut self, item: u64, weight: f64) {
        if weight == 0.0 {
            return;
        }
        self.total_weight += weight;
        if let Some(c) = self.counters.get_mut(&item) {
            *c += weight;
            return;
        }
        if self.counters.len() < self.capacity {
            self.counters.insert(item, weight);
            return;
        }
        let min_counter = self.counters.values().fold(f64::INFINITY, |m, &v| m.min(v));
        let delta = min_counter.min(weight);
        self.decrement_total += delta;
        self.counters.retain(|_, v| {
            *v -= delta;
            *v > 0.0
        });
        let remaining = weight - delta;
        if remaining > 0.0 {
            self.counters.insert(item, remaining);
        }
    }

    fn merge(&mut self, other: &OracleMg) {
        self.total_weight += other.total_weight;
        self.decrement_total += other.decrement_total;
        for (&e, &c) in &other.counters {
            *self.counters.entry(e).or_insert(0.0) += c;
        }
        if self.counters.len() <= self.capacity {
            return;
        }
        let mut values: Vec<f64> = self.counters.values().copied().collect();
        values.sort_by(|a, b| b.partial_cmp(a).unwrap());
        let delta = values[self.capacity];
        self.decrement_total += delta;
        self.counters.retain(|_, v| {
            *v -= delta;
            *v > 0.0
        });
    }

    fn absorb(&mut self, mut other: OracleMg) {
        if other.counters.len() > self.counters.len() {
            std::mem::swap(self, &mut other);
        }
        self.merge(&other);
    }

    fn take(&mut self, item: u64) -> f64 {
        match self.counters.remove(&item) {
            Some(c) => {
                self.total_weight = (self.total_weight - c).max(0.0);
                c
            }
            None => 0.0,
        }
    }

    fn take_all(&mut self) -> OracleMg {
        std::mem::replace(self, OracleMg::new(self.capacity))
    }

    fn bits(&self) -> (u64, u64, Vec<(u64, u64)>) {
        let mut counters: Vec<(u64, u64)> = self
            .counters
            .iter()
            .map(|(&e, c)| (e, c.to_bits()))
            .collect();
        counters.sort_unstable();
        (
            self.total_weight.to_bits(),
            self.decrement_total.to_bits(),
            counters,
        )
    }
}

/// One step on a pool of tables; indices are taken modulo the pool.
#[derive(Debug, Clone)]
enum MgOp {
    Update(usize, u64, f64),
    /// `merge` a copy of the second table into the first.
    Merge(usize, usize),
    /// Hand the second table off with `take_all` and `absorb` it into
    /// the first, as a P1 flush does.
    Absorb(usize, usize),
    Take(usize, u64),
    TakeAll(usize),
}

/// Runs `ops` on `tables` tables of capacity `cap` and on their oracle
/// twins, comparing every table bit for bit after every step, and every
/// value `take` or `take_all` hands back.
fn check_against_oracle(cap: usize, tables: usize, ops: &[MgOp]) -> Result<(), TestCaseError> {
    let mut mg: Vec<MgSummary> = (0..tables).map(|_| MgSummary::new(cap)).collect();
    let mut oracle: Vec<OracleMg> = (0..tables).map(|_| OracleMg::new(cap)).collect();
    for (step, op) in ops.iter().enumerate() {
        match *op {
            MgOp::Update(t, e, w) => {
                mg[t % tables].update(e, w);
                oracle[t % tables].update(e, w);
            }
            MgOp::Merge(t, u) => {
                let (t, u) = (t % tables, u % tables);
                let (theirs, twin) = (mg[u].clone(), oracle[u].clone());
                mg[t].merge(&theirs);
                oracle[t].merge(&twin);
            }
            MgOp::Absorb(t, u) => {
                let (t, u) = (t % tables, u % tables);
                let (theirs, twin) = (mg[u].take_all(), oracle[u].take_all());
                mg[t].absorb(theirs);
                oracle[t].absorb(twin);
            }
            MgOp::Take(t, e) => {
                let (got, want) = (mg[t % tables].take(e), oracle[t % tables].take(e));
                prop_assert!(got.to_bits() == want.to_bits(), "take at step {}", step);
            }
            MgOp::TakeAll(t) => {
                let (got, want) = (mg[t % tables].take_all(), oracle[t % tables].take_all());
                prop_assert!(mg_bits(&got) == want.bits(), "take_all at step {}", step);
            }
        }
        for (t, (m, o)) in mg.iter().zip(&oracle).enumerate() {
            prop_assert!(m.len() <= cap);
            prop_assert!(
                mg_bits(m) == o.bits(),
                "table {} after step {} ({:?}): {:?} vs oracle {:?}",
                t,
                step,
                op,
                mg_bits(m),
                o.bits()
            );
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// `MgSummary` is the reference table bit for bit under any sequence
    /// of `update`, `merge`, `absorb`, `take` and `take_all` on three
    /// tables: hashing each item once and selecting the `(ℓ+1)`-th
    /// counter instead of sorting change no counter, total or decrement
    /// total. Items come from `cap + extra` keys, so a merge overflows by
    /// one counter or by many; integer weights make counter ties common.
    /// With `disjoint`, each table updates its own key range, so merges
    /// bring only new keys; otherwise all three share one range.
    #[test]
    fn mg_matches_sorting_oracle_bitwise(
        cap in 1usize..10,
        extra in 1u64..20,
        disjoint in 0u8..2,
        integer in 0u8..2,
        raw in prop::collection::vec(
            ((0u8..14, 0usize..3, 0usize..3), (0u64..1_000, 0.5f64..100.0, 1u8..4)),
            0..200,
        ),
    ) {
        let universe = cap as u64 + extra;
        let ops: Vec<MgOp> = raw
            .iter()
            .map(|&((kind, t, u), (e, w, small))| {
                let e = e % universe;
                match kind {
                    0..=7 => {
                        let e = if disjoint == 1 { e + 1_000 * t as u64 } else { e };
                        MgOp::Update(t, e, if integer == 1 { f64::from(small) } else { w })
                    }
                    8 | 9 => MgOp::Merge(t, u),
                    10 | 11 => MgOp::Absorb(t, u),
                    12 => MgOp::Take(t, e),
                    _ => MgOp::TakeAll(t),
                }
            })
            .collect();
        check_against_oracle(cap, 3, &ops)?;
    }
}

/// The merge overflows the oracle proptest must reach, spelled out:
/// capacity 1, overflow by exactly one counter and by many, ties at
/// the `(ℓ+1)`-th counter, and identical and disjoint key sets.
#[test]
fn mg_matches_sorting_oracle_at_the_edges() {
    use MgOp::{Absorb, Merge, Update};
    let fill = |t: usize, keys: std::ops::Range<u64>, w: f64| keys.map(move |e| Update(t, e, w));
    let cases: Vec<(&str, usize, Vec<MgOp>)> = vec![
        (
            "capacity 1",
            1,
            vec![
                Update(0, 1, 3.0),
                Update(1, 2, 5.0),
                Merge(0, 1),
                Update(1, 1, 2.0),
                Absorb(0, 1),
            ],
        ),
        (
            "over by one",
            4,
            fill(0, 0..4, 2.0)
                .chain([Update(1, 9, 1.0), Merge(0, 1)])
                .collect(),
        ),
        (
            "over by many, disjoint keys",
            4,
            fill(0, 0..4, 2.0)
                .chain(fill(1, 100..104, 3.0))
                .chain([Absorb(0, 1)])
                .collect(),
        ),
        (
            "ties at the decrement",
            4,
            fill(0, 0..4, 1.0)
                .chain(fill(1, 2..6, 1.0))
                .chain([Merge(0, 1)])
                .collect(),
        ),
        (
            "identical keys",
            4,
            fill(0, 0..4, 1.5)
                .chain(fill(1, 0..4, 2.5))
                .chain([Merge(0, 1), Absorb(1, 0)])
                .collect(),
        ),
    ];
    for (what, cap, ops) in cases {
        if let Err(e) = check_against_oracle(cap, 2, &ops) {
            panic!("{what}: {e:?}");
        }
    }
}
