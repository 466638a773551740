//! Property-based tests on the sketch crate's guarantees, over
//! adversarial streams (arbitrary item/weight sequences) rather than the
//! benign distributions of the unit tests.

use cma_sketch::{
    CountMin, ExactWeightedCounter, FrequentDirections, MgSummary, SpaceSaving, SwMg,
};
use proptest::prelude::*;

fn weighted_stream() -> impl Strategy<Value = Vec<(u64, f64)>> {
    prop::collection::vec((0u64..25, 1.0f64..100.0), 1..300)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The three counter sketches bracket the truth from their
    /// documented sides simultaneously on the same stream.
    #[test]
    fn counter_sketches_bracket_truth(stream in weighted_stream(), cap in 2usize..16) {
        let mut mg = MgSummary::new(cap);
        let mut ss = SpaceSaving::new(cap);
        let mut cm = CountMin::new(64, 4, 42);
        let mut exact = ExactWeightedCounter::new();
        for &(e, w) in &stream {
            mg.update(e, w);
            ss.update(e, w);
            cm.update(e, w);
            exact.update(e, w);
        }
        for (e, f) in exact.iter() {
            // MG under, CM over, SS over (for monitored items).
            prop_assert!(mg.estimate(e) <= f + 1e-9);
            prop_assert!(cm.estimate(e) + 1e-9 >= f);
            let s = ss.estimate(e);
            if s > 0.0 {
                prop_assert!(s + 1e-9 >= f);
            }
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

    /// SpaceSaving merge: any merge order/association keeps monitored
    /// estimates within the merged 2W/ℓ overcount band of the combined
    /// stream, never undercounting, and never loses an item heavier than
    /// the bound.
    #[test]
    fn ss_merge_order_and_association_insensitive(
        s1 in weighted_stream(),
        s2 in weighted_stream(),
        s3 in weighted_stream(),
        cap in 4usize..12,
    ) {
        let build = |s: &[(u64, f64)]| {
            let mut ss = SpaceSaving::new(cap);
            for &(e, w) in s {
                ss.update(e, w);
            }
            ss
        };
        let mut exact = ExactWeightedCounter::new();
        for &(e, w) in s1.iter().chain(&s2).chain(&s3) {
            exact.update(e, w);
        }
        // (1·2)·3 and 3·(2·1): different order *and* association.
        let mut a = build(&s1);
        a.merge(&build(&s2));
        a.merge(&build(&s3));
        let mut inner = build(&s2);
        inner.merge(&build(&s1));
        let mut b = build(&s3);
        b.merge(&inner);
        for (name, m) in [("ltr", &a), ("rtl", &b)] {
            prop_assert!(m.len() <= cap);
            let bound = 2.0 * m.error_bound() + 1e-9;
            for (e, est) in m.counters() {
                let f = exact.frequency(e);
                prop_assert!(est + 1e-9 >= f, "{}: undercount on {}", name, e);
                prop_assert!(est - f <= bound, "{}: overcount on {}", name, e);
            }
            for (e, f) in exact.iter() {
                if m.estimate(e) == 0.0 {
                    prop_assert!(f <= bound, "{}: lost heavy item {}", name, e);
                }
            }
        }
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
