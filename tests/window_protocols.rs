//! Distributed sliding-window protocol suite (PR 4): parity and
//! guarantee pins for `SwMg` (windowed heavy hitters) and `SwFd`
//! (windowed matrix tracking) through the sequential runner.
//!
//! Two load-bearing claims:
//!
//! 1. **Degenerate parity** — a tree with `fanout = m` has no interior
//!    nodes and must reproduce the star *exactly*: identical
//!    `CommStats`, identical window estimates/sketches. (Bucket
//!    compaction is deterministic — `BTreeMap` level census — which is
//!    what makes this pin possible.)
//! 2. **The two-part window error bound holds, component-wise** — at
//!    window sizes {256, 4096} × fanout {2, 4}: overcount is bounded by
//!    the straddling mass alone, undercount by summary loss plus the
//!    withheld budget (re-split across the `m + I` withholding nodes),
//!    at a mid-stream query point and at the end of the stream.
//! 3. **Deferral at the root is sound** — a generated sweep over
//!    deployments whose root stacks bucket rows up to `2ℓ` and answers
//!    with one eigensolve over the summed bucket Grams keeps the same
//!    bound against the exact window Gram, in the worst direction, with
//!    the fold's tracked loss inside its a-priori `2·mass/ℓ` — and a
//!    root queried at every checkpoint (its bucket Grams cached, then
//!    invalidated by later merges) answers bit for bit as its twin
//!    queried only at the end.

use cma::linalg::eigen::jacobi_eigen_sym;
use cma::linalg::{random, Matrix};
use cma::protocols::window::{fd, mg, SwFdConfig, SwMgConfig};
use cma::stream::partition::RoundRobin;
use cma::stream::Topology;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const WINDOWS: [usize; 2] = [256, 4096];
const FANOUTS: [usize; 2] = [2, 4];

type Weighted = (u64, f64);

fn weighted_stream(n: usize, seed: u64) -> Vec<Weighted> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n)
        .map(|_| {
            let e: u64 = if rng.gen_bool(0.25) {
                1
            } else {
                rng.gen_range(2..40)
            };
            (e, rng.gen_range(1.0..5.0))
        })
        .collect()
}

fn matrix_stream(n: usize, d: usize, seed: u64) -> Vec<Vec<f64>> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n)
        .map(|_| (0..d).map(|_| random::standard_normal(&mut rng)).collect())
        .collect()
}

fn stamp<T: Clone>(stream: &[T]) -> Vec<(u64, T)> {
    stream
        .iter()
        .enumerate()
        .map(|(t, x)| (t as u64, x.clone()))
        .collect()
}

fn window_truth(stream: &[Weighted], t_now: usize, window: usize, item: u64) -> f64 {
    let start = t_now.saturating_sub(window);
    stream[start..t_now]
        .iter()
        .filter(|&&(e, _)| e == item)
        .map(|&(_, w)| w)
        .sum()
}

fn window_matrix(rows: &[Vec<f64>], t_now: usize, window: usize, d: usize) -> Matrix {
    let start = t_now.saturating_sub(window);
    let mut m = Matrix::with_cols(d);
    for r in &rows[start..t_now] {
        m.push_row(r);
    }
    m
}

#[test]
fn swmg_tree_with_full_fanout_reproduces_star_exactly() {
    let m = 16;
    let stream = stamp(&weighted_stream(12_000, 41));
    let cfg = SwMgConfig::new(m, 0.1, 1_024, 32);

    let mut star = mg::deploy(&cfg);
    let mut tree = mg::deploy_topology(&cfg, Topology::Tree { fanout: m });
    assert!(tree.plan().is_flat(), "fanout = m must have no interior");
    star.run_partitioned(stream.iter().cloned(), &mut RoundRobin::new(m), 64);
    tree.run_partitioned(stream.iter().cloned(), &mut RoundRobin::new(m), 64);

    assert_eq!(star.stats(), tree.stats(), "CommStats diverged");
    let t_now = stream.len() as u64;
    let (a, b) = (star.coordinator(), tree.coordinator());
    assert_eq!(a.clock(), b.clock(), "clock diverged");
    assert_eq!(a.window_mass(), b.window_mass(), "window mass diverged");
    assert_eq!(a.bucket_count(), b.bucket_count(), "histogram diverged");
    for item in 0..40u64 {
        assert_eq!(
            a.estimate_at(t_now, item),
            b.estimate_at(t_now, item),
            "estimate diverged on item {item}"
        );
    }
    assert_eq!(a.error_bound_at(t_now), b.error_bound_at(t_now));
}

#[test]
fn swfd_tree_with_full_fanout_reproduces_star_exactly() {
    let m = 8;
    let d = 6;
    let rows = stamp(&matrix_stream(3_000, d, 42));
    let cfg = SwFdConfig::new(m, 0.15, 512, d, 20);

    let mut star = fd::deploy(&cfg);
    let mut tree = fd::deploy_topology(&cfg, Topology::Tree { fanout: m });
    assert!(tree.plan().is_flat());
    star.run_partitioned(rows.iter().cloned(), &mut RoundRobin::new(m), 64);
    tree.run_partitioned(rows.iter().cloned(), &mut RoundRobin::new(m), 64);

    assert_eq!(star.stats(), tree.stats(), "CommStats diverged");
    let t_now = rows.len() as u64;
    let (sa, sb) = (
        star.coordinator().sketch_at(t_now),
        tree.coordinator().sketch_at(t_now),
    );
    assert_eq!(sa.rows(), sb.rows(), "sketch shape diverged");
    assert_eq!(sa.as_slice(), sb.as_slice(), "sketch contents diverged");
}

/// The heart of the suite: the certified two-part error decomposition,
/// pinned component-wise — overcount only through straddling buckets,
/// undercount only through summary loss + the withheld budget — at
/// window {256, 4096} × fanout {2, 4}, mid-stream and at stream end.
#[test]
fn swmg_two_part_bound_across_windows_and_fanouts() {
    let m = 16;
    for &window in &WINDOWS {
        let stream = weighted_stream(3 * window, 43 + window as u64);
        let stamped = stamp(&stream);
        for &fanout in &FANOUTS {
            let cfg = SwMgConfig::new(m, 0.1, window as u64, 32);
            let mut runner = mg::deploy_topology(&cfg, Topology::Tree { fanout });
            let mut fed = 0usize;
            for &query_at in &[2 * window, 3 * window] {
                runner.run_partitioned(
                    stamped[fed..query_at].iter().cloned(),
                    &mut RoundRobin::new(m),
                    64,
                );
                fed = query_at;
                let coord = runner.coordinator();
                let bound = coord.error_bound_at(query_at as u64);
                assert!(
                    bound.straddle >= 0.0 && bound.summary_loss > 0.0 && bound.withheld > 0.0,
                    "W={window} k={fanout}: degenerate bound {bound:?}"
                );
                for item in 0..40u64 {
                    let truth = window_truth(&stream, query_at, window, item);
                    let est = coord.estimate_at(query_at as u64, item);
                    assert!(
                        est - truth <= bound.straddle + 1e-9,
                        "W={window} k={fanout} t={query_at} item {item}: \
                         overcount {} > straddle {}",
                        est - truth,
                        bound.straddle
                    );
                    assert!(
                        truth - est <= bound.summary_loss + bound.withheld + 1e-9,
                        "W={window} k={fanout} t={query_at} item {item}: \
                         undercount {} > summary {} + withheld {}",
                        truth - est,
                        bound.summary_loss,
                        bound.withheld
                    );
                }
            }
            assert_eq!(runner.stats().max_fan_in, fanout as u64);
        }
    }
}

/// Same decomposition for the windowed matrix sketch: for random unit
/// directions, `‖Bx‖²` exceeds the window energy only through
/// straddlers and falls short only through FD loss + withheld mass.
#[test]
fn swfd_two_part_bound_across_windows_and_fanouts() {
    let m = 16;
    let d = 6;
    let mut rng = StdRng::seed_from_u64(77);
    for &window in &WINDOWS {
        let rows = matrix_stream(3 * window, d, 44 + window as u64);
        let stamped = stamp(&rows);
        for &fanout in &FANOUTS {
            let cfg = SwFdConfig::new(m, 0.15, window as u64, d, 24);
            let mut runner = fd::deploy_topology(&cfg, Topology::Tree { fanout });
            runner.run_partitioned(stamped.iter().cloned(), &mut RoundRobin::new(m), 64);
            let t_now = rows.len();
            let a = window_matrix(&rows, t_now, window, d);
            let coord = runner.coordinator();
            let sketch = coord.sketch_at(t_now as u64);
            let bound = coord.error_bound_at(t_now as u64);
            for _ in 0..15 {
                let x = random::unit_vector(&mut rng, d);
                let ax = a.apply_norm_sq(&x);
                let bx = sketch.apply_norm_sq(&x);
                assert!(
                    bx - ax <= bound.straddle + 1e-9,
                    "W={window} k={fanout}: overcount {} > straddle {}",
                    bx - ax,
                    bound.straddle
                );
                assert!(
                    ax - bx <= bound.summary_loss + bound.withheld + 1e-9,
                    "W={window} k={fanout}: undercount {} > summary {} + withheld {}",
                    ax - bx,
                    bound.summary_loss,
                    bound.withheld
                );
            }
        }
    }
}

/// Interior aggregators genuinely coalesce: at fanout 4 the root sees
/// measurably fewer messages than the star's root for the same stream.
#[test]
fn swmg_tree_reduces_root_fan_in() {
    let m = 64;
    let stream = stamp(&weighted_stream(24_000, 45));
    let cfg = SwMgConfig::new(m, 0.1, 4_096, 32);

    let mut star = mg::deploy_topology(&cfg, Topology::Star);
    let mut tree = mg::deploy_topology(&cfg, Topology::Tree { fanout: 4 });
    star.run_partitioned(stream.iter().cloned(), &mut RoundRobin::new(m), 64);
    tree.run_partitioned(stream.iter().cloned(), &mut RoundRobin::new(m), 64);

    let star_root = *star.stats().node_in_msgs.last().unwrap();
    let tree_root = *tree.stats().node_in_msgs.last().unwrap();
    assert!(
        tree_root < star_root,
        "tree root saw {tree_root} msgs vs star {star_root}"
    );
    assert_eq!(tree.stats().max_fan_in, 4);
}

/// Old mass genuinely leaves the distributed window: after a regime
/// change plus a full window of the new regime, the expired regime's
/// estimate is covered by the certified bound.
#[test]
fn swmg_distributed_window_forgets_expired_regime() {
    let m = 8;
    let window = 1_024u64;
    let cfg = SwMgConfig::new(m, 0.1, window, 16);
    let mut runner = mg::deploy_topology(&cfg, Topology::Tree { fanout: 4 });
    let n_old = 4 * window;
    let stream: Vec<(u64, (u64, f64))> = (0..n_old + window)
        .map(|t| {
            let item = if t < n_old { 9 } else { 5 };
            (t, (item, 3.0))
        })
        .collect();
    runner.run_partitioned(stream.iter().cloned(), &mut RoundRobin::new(m), 64);
    let t_now = n_old + window;
    let coord = runner.coordinator();
    let bound = coord.error_bound_at(t_now).total() + 1e-9;
    assert!(
        coord.estimate_at(t_now, 9) <= bound,
        "expired regime estimate {} escapes the bound {bound}",
        coord.estimate_at(t_now, 9)
    );
    assert!((coord.estimate_at(t_now, 5) - 3.0 * window as f64).abs() <= bound);
    // The coordinator's histogram stays logarithmic, not O(W).
    assert!(coord.bucket_count() <= 96);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The root merges its buckets with deferral (at `d < 2ℓ` a bucket
    /// holds the Gram of its rows once they reach `d`, at `d ≥ 2ℓ` rows
    /// stack up to `2ℓ` before a shrink) and a query folds every live
    /// bucket with one shrink of their summed Grams. Over generated
    /// deployments — star or tree, `d` on both sides of `ℓ` and of `2ℓ`,
    /// rows whose norms span two orders of magnitude — the answer keeps
    /// the two-sided window bound in the *worst* direction (the extreme
    /// eigenvalues of `A_WᵀA_W − BᵀB`, not sampled directions):
    /// undercount ≤ the fold's tracked loss + withheld ≤ summary loss +
    /// withheld, overcount ≤ straddle. The tracked loss itself stays
    /// inside `2·mass/ℓ`, the telescoping bound the certificate states. A
    /// twin deployment fed the same rows but queried only at the end —
    /// every bucket Gram computed cold — answers with the same bits as
    /// the queried one, whose Grams were cached at each checkpoint and
    /// partly invalidated by the merges since.
    #[test]
    fn swfd_deferred_root_keeps_window_bound(
        seed in 0u64..1_000_000,
        m in 1usize..9,
        fanout in 1usize..5,
        ell in 2usize..13,
        d in 1usize..17,
        window in 16usize..320,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let rows: Vec<Vec<f64>> = (0..3 * window)
            .map(|_| {
                let scale = rng.gen_range(0.1..10.0);
                (0..d).map(|_| scale * random::standard_normal(&mut rng)).collect()
            })
            .collect();
        let stamped = stamp(&rows);
        let cfg = SwFdConfig::new(m, 0.15, window as u64, d, ell);
        // Fanout 1 stands for the star.
        let topology = if fanout == 1 { Topology::Star } else { Topology::Tree { fanout } };
        let mut runner = fd::deploy_topology(&cfg, topology);
        let mut partitioner = RoundRobin::new(m);
        let mut cold = fd::deploy_topology(&cfg, topology);
        let mut cold_partitioner = RoundRobin::new(m);
        let checkpoints = 6;
        let step = rows.len().div_ceil(checkpoints);
        for start in (0..rows.len()).step_by(step) {
            let t_now = (start + step).min(rows.len());
            runner.run_partitioned(stamped[start..t_now].iter().cloned(), &mut partitioner, 16);
            cold.run_partitioned(stamped[start..t_now].iter().cloned(), &mut cold_partitioner, 16);
            let coord = runner.coordinator();
            let bound = coord.error_bound_at(t_now as u64);
            let fold = coord.window_summary_at(t_now as u64);
            prop_assert!(fold.sketch().rows() < ell, "t={}: fold left unsettled", t_now);
            let exact = window_matrix(&rows, t_now, window, d).gram();
            let slack = 1e-9 * (exact.max_abs() + fold.frob_sq_seen()).max(1.0) * d as f64;
            prop_assert!(
                fold.shrink_loss() <= bound.summary_loss + slack,
                "t={}: tracked loss {} > 2·mass/ℓ = {}",
                t_now, fold.shrink_loss(), bound.summary_loss
            );
            let gap = jacobi_eigen_sym(&exact.sub(&fold.sketch().gram())).unwrap().values;
            let (under, over) = (gap[0], -gap[d - 1]);
            prop_assert!(
                under <= fold.shrink_loss() + bound.withheld + slack,
                "t={}: undercount {} > tracked loss {} + withheld {}",
                t_now, under, fold.shrink_loss(), bound.withheld
            );
            prop_assert!(
                under <= bound.summary_loss + bound.withheld + slack,
                "t={}: undercount {} > summary {} + withheld {}",
                t_now, under, bound.summary_loss, bound.withheld
            );
            prop_assert!(
                over <= bound.straddle + slack,
                "t={}: overcount {} > straddle {}",
                t_now, over, bound.straddle
            );
        }
        let end = rows.len() as u64;
        let (warm, cold) = (runner.coordinator(), cold.coordinator());
        let bits = |m: &Matrix| m.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        prop_assert!(
            bits(&warm.sketch_at(end)) == bits(&cold.sketch_at(end)),
            "warm and cold folds differ"
        );
        let (wb, cb) = (warm.error_bound_at(end), cold.error_bound_at(end));
        for (w, c) in [
            (wb.summary_loss, cb.summary_loss),
            (wb.straddle, cb.straddle),
            (wb.withheld, cb.withheld),
        ] {
            prop_assert_eq!(w.to_bits(), c.to_bits());
        }
    }
}
