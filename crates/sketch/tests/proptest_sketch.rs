//! Property-based tests on the sketch crate's guarantees, over
//! adversarial streams (arbitrary item/weight sequences) rather than the
//! benign distributions of the unit tests.

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
}
