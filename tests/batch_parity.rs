//! Batched vs per-item parity for all eight protocols.
//!
//! The batch-first substrate's load-bearing claim: delivering a stream
//! through [`Runner::feed_batch`] / [`Runner::run_partitioned`] is
//! *observably identical* to delivering the same arrivals through
//! per-item [`Runner::feed`] in the same order — identical messages,
//! identical [`CommStats`], identical coordinator state — at every batch
//! size, for deterministic and (seeded) randomized protocols alike.
//! These tests pin that down on seeded Zipf and synthetic-matrix
//! streams, then check the pooled engine (where broadcast lag makes
//! batching a real semantic trade-off) still meets every protocol's
//! error contract at several batch sizes.

use cma::data::{StreamingGram, SyntheticMatrixStream, WeightedZipfStream};
use cma::protocols::hh::{self, HhConfig, HhEstimator};
use cma::protocols::matrix::{self, MatrixConfig, MatrixEstimator};
use cma::sketch::ExactWeightedCounter;
use cma::stream::partition::RoundRobin;
use cma::stream::runner::engine::{self, Executor, ThreadedConfig};
use cma::stream::{Coordinator, MessageCost, Relay, Runner, Site, Topology, WireSized};

const BATCH_SIZES: [usize; 4] = [1, 7, 64, 1024];

/// Replays `stream` through per-item `feed` in exactly the delivery
/// order `run_partitioned(stream, RoundRobin::new(m), batch)` uses:
/// epochs of `batch` arrivals, each grouped by site in ascending site
/// order.
fn feed_in_epoch_order<S, C>(runner: &mut Runner<S, C>, stream: &[S::Input], batch: usize)
where
    S: Site,
    S::Input: Clone,
    C: Coordinator<UpMsg = S::UpMsg, Broadcast = S::Broadcast>,
    S::UpMsg: MessageCost + Clone,
    S::Broadcast: WireSized,
{
    let m = runner.m();
    let mut groups: Vec<Vec<S::Input>> = vec![Vec::new(); m];
    let mut idx = 0usize;
    for epoch in stream.chunks(batch) {
        for item in epoch {
            groups[idx % m].push(item.clone());
            idx += 1;
        }
        for (site, group) in groups.iter_mut().enumerate() {
            for item in group.drain(..) {
                runner.feed(site, item);
            }
        }
    }
}

fn zipf_stream(n: usize, seed: u64) -> Vec<(u64, f64)> {
    WeightedZipfStream::new(2_000, 2.0, 50.0, seed).take_vec(n)
}

fn matrix_stream(n: usize, dim: usize, seed: u64) -> Vec<Vec<f64>> {
    let mut s = SyntheticMatrixStream::new(dim, &[4.0, 2.0, 1.0], 1e6, seed);
    (0..n).map(|_| s.next_row()).collect()
}

/// Asserts a batched run and its per-item replay agree on communication
/// and on every estimator-visible quantity.
macro_rules! assert_hh_parity {
    ($deploy:expr, $stream:expr, $batch:expr) => {{
        let stream = $stream;
        let mut per_item = $deploy;
        feed_in_epoch_order(&mut per_item, &stream, $batch);

        let mut batched = $deploy;
        batched.run_partitioned(
            stream.iter().cloned(),
            &mut RoundRobin::new(batched.m()),
            $batch,
        );

        assert_eq!(
            per_item.stats(),
            batched.stats(),
            "CommStats diverged (batch {})",
            $batch
        );
        let (a, b) = (per_item.coordinator(), batched.coordinator());
        assert_eq!(
            a.total_weight(),
            b.total_weight(),
            "Ŵ diverged (batch {})",
            $batch
        );
        let mut items = a.tracked_items();
        let mut items_b = b.tracked_items();
        items.sort_unstable();
        items_b.sort_unstable();
        assert_eq!(items, items_b, "tracked sets diverged (batch {})", $batch);
        for &e in &items {
            // Estimates that sum a HashMap (P4's per-site report table)
            // depend on iteration order, which differs between coordinator
            // *instances* — allow last-ulp slack, nothing more.
            let (ea, eb) = (a.estimate(e), b.estimate(e));
            assert!(
                (ea - eb).abs() <= 1e-12 * ea.abs().max(1.0),
                "Ŵe diverged on {e} (batch {}): {ea} vs {eb}",
                $batch
            );
        }
    }};
}

macro_rules! assert_matrix_parity {
    ($deploy:expr, $stream:expr, $batch:expr) => {{
        let stream = $stream;
        let mut per_item = $deploy;
        feed_in_epoch_order(&mut per_item, &stream, $batch);

        let mut batched = $deploy;
        batched.run_partitioned(
            stream.iter().cloned(),
            &mut RoundRobin::new(batched.m()),
            $batch,
        );

        assert_eq!(
            per_item.stats(),
            batched.stats(),
            "CommStats diverged (batch {})",
            $batch
        );
        let (a, b) = (per_item.coordinator(), batched.coordinator());
        assert_eq!(
            a.frob_estimate(),
            b.frob_estimate(),
            "F̂ diverged (batch {})",
            $batch
        );
        let (sa, sb) = (a.sketch(), b.sketch());
        assert_eq!(
            sa.rows(),
            sb.rows(),
            "sketch shape diverged (batch {})",
            $batch
        );
        assert_eq!(
            sa.as_slice(),
            sb.as_slice(),
            "sketch contents diverged (batch {})",
            $batch
        );
    }};
}

#[test]
fn hh_p1_batched_identical_to_per_item() {
    let cfg = HhConfig::new(5, 0.1).with_seed(1);
    for batch in BATCH_SIZES {
        assert_hh_parity!(hh::p1::deploy(&cfg), zipf_stream(20_000, 11), batch);
    }
}

#[test]
fn hh_p2_batched_identical_to_per_item() {
    let cfg = HhConfig::new(5, 0.05).with_seed(2);
    for batch in BATCH_SIZES {
        assert_hh_parity!(hh::p2::deploy(&cfg), zipf_stream(20_000, 12), batch);
    }
}

#[test]
fn hh_p3_batched_identical_to_per_item() {
    let cfg = HhConfig::new(4, 0.1).with_seed(3);
    for batch in BATCH_SIZES {
        assert_hh_parity!(hh::p3::deploy(&cfg), zipf_stream(20_000, 13), batch);
    }
}

#[test]
fn hh_p3wr_batched_identical_to_per_item() {
    let cfg = HhConfig::new(4, 0.1).with_seed(4).with_sample_size(200);
    for batch in BATCH_SIZES {
        assert_hh_parity!(hh::p3wr::deploy(&cfg), zipf_stream(10_000, 14), batch);
    }
}

#[test]
fn hh_p4_batched_identical_to_per_item() {
    let cfg = HhConfig::new(9, 0.1).with_seed(5);
    for batch in BATCH_SIZES {
        assert_hh_parity!(hh::p4::deploy(&cfg), zipf_stream(20_000, 15), batch);
    }
}

#[test]
fn matrix_p1_batched_identical_to_per_item() {
    let cfg = MatrixConfig::new(4, 0.2, 6).with_seed(6);
    for batch in BATCH_SIZES {
        assert_matrix_parity!(matrix::p1::deploy(&cfg), matrix_stream(3_000, 6, 21), batch);
    }
}

#[test]
fn matrix_p2_batched_identical_to_per_item() {
    let cfg = MatrixConfig::new(4, 0.2, 6).with_seed(7);
    for batch in BATCH_SIZES {
        assert_matrix_parity!(matrix::p2::deploy(&cfg), matrix_stream(3_000, 6, 22), batch);
    }
}

#[test]
fn matrix_p2_bounded_batched_identical_to_per_item() {
    let cfg = MatrixConfig::new(3, 0.3, 5).with_seed(8);
    for batch in BATCH_SIZES {
        assert_matrix_parity!(
            matrix::p2::deploy_bounded(&cfg),
            matrix_stream(1_500, 5, 23),
            batch
        );
    }
}

#[test]
fn matrix_p3_batched_identical_to_per_item() {
    let cfg = MatrixConfig::new(4, 0.25, 6).with_seed(9);
    for batch in BATCH_SIZES {
        assert_matrix_parity!(matrix::p3::deploy(&cfg), matrix_stream(3_000, 6, 24), batch);
    }
}

#[test]
fn matrix_p3wr_batched_identical_to_per_item() {
    let cfg = MatrixConfig::new(3, 0.3, 5)
        .with_seed(10)
        .with_sample_size(200);
    for batch in BATCH_SIZES {
        assert_matrix_parity!(
            matrix::p3wr::deploy(&cfg),
            matrix_stream(2_000, 5, 25),
            batch
        );
    }
}

#[test]
fn matrix_p4_batched_identical_to_per_item() {
    let cfg = MatrixConfig::new(4, 0.2, 5).with_seed(11);
    for batch in BATCH_SIZES {
        assert_matrix_parity!(matrix::p4::deploy(&cfg), matrix_stream(3_000, 5, 26), batch);
    }
}

/// Error contract through the batched sequential driver: since batched
/// execution equals per-item execution, the ε guarantees transfer
/// verbatim; spot-check them end to end anyway.
#[test]
fn hh_error_within_epsilon_at_every_batch_size() {
    let stream = zipf_stream(30_000, 31);
    let mut exact = ExactWeightedCounter::new();
    for &(e, w) in &stream {
        exact.update(e, w);
    }
    let w = exact.total_weight();
    let cfg = HhConfig::new(5, 0.05).with_seed(41);

    for batch in [1usize, 64, 1024] {
        macro_rules! check {
            ($name:literal, $deploy:expr, $slack:expr) => {{
                let mut runner = $deploy;
                runner.run_partitioned(stream.iter().cloned(), &mut RoundRobin::new(5), batch);
                let coord = runner.coordinator();
                for (e, f) in exact.iter() {
                    let err = (coord.estimate(e) - f).abs();
                    assert!(
                        err <= $slack * cfg.epsilon * w + 1e-6,
                        "{} batch {batch}: item {e} err {err} > {}·εW",
                        $name,
                        $slack
                    );
                }
            }};
        }
        check!("hh-p1", hh::p1::deploy(&cfg), 1.0);
        check!("hh-p2", hh::p2::deploy(&cfg), 1.0);
        // Sampling-based estimates: εW holds with high probability; the
        // fixed seeds make these deterministic regression checks.
        check!("hh-p3", hh::p3::deploy(&cfg), 1.0);
        check!("hh-p4", hh::p4::deploy(&cfg), 1.0);
    }
}

#[test]
fn matrix_error_within_epsilon_at_every_batch_size() {
    let dim = 6;
    let stream = matrix_stream(4_000, dim, 32);
    let mut truth = StreamingGram::new(dim);
    for row in &stream {
        truth.update(row);
    }
    let cfg = MatrixConfig::new(4, 0.2, dim).with_seed(42);

    for batch in [1usize, 64, 1024] {
        macro_rules! check {
            ($name:literal, $deploy:expr, $slack:expr) => {{
                let mut runner = $deploy;
                runner.run_partitioned(stream.iter().cloned(), &mut RoundRobin::new(4), batch);
                let err = truth
                    .error_of_sketch(&runner.coordinator().sketch())
                    .unwrap();
                assert!(
                    err <= $slack * cfg.epsilon,
                    "{} batch {batch}: err {err} > {}·ε",
                    $name,
                    $slack
                );
            }};
        }
        check!("mt-p1", matrix::p1::deploy(&cfg), 1.0);
        check!("mt-p2", matrix::p2::deploy(&cfg), 1.0);
        check!("mt-p3", matrix::p3::deploy(&cfg), 1.0);
        let cfg_wr = cfg.clone().with_sample_size(400);
        check!("mt-p3wr", matrix::p3wr::deploy(&cfg_wr), 1.0);
        // MT-P4 has no guarantee (the paper's negative result) — just
        // confirm the batched path drives it and accounts messages.
        let mut p4 = matrix::p4::deploy(&cfg);
        p4.run_partitioned(stream.iter().cloned(), &mut RoundRobin::new(4), batch);
        assert!(p4.stats().total() > 0);
        assert_eq!(p4.stats().arrivals, stream.len() as u64);
    }
}

/// The full parity + error-contract pass under the *randomized* linalg
/// profile (blocked kernels + certified randomized FD shrink). Parity
/// holds because the randomized shrink is deterministic — its seed
/// derives from the per-sketch shrink counter, never from wall clock —
/// so identical delivery order yields bit-identical sketches; the ε
/// contract holds because the shrink only accepts a random projection
/// whose certified loss keeps the exact accounting
/// (`(keep+1)·charged ≤ destroyed`), falling back to the exact shrink
/// otherwise.
#[test]
fn matrix_protocols_under_randomized_profile() {
    use cma::linalg::LinalgProfile;

    let dim = 6;
    let cfg = MatrixConfig::new(4, 0.2, dim)
        .with_seed(7)
        .with_profile(LinalgProfile::randomized());
    for batch in [1usize, 64] {
        assert_matrix_parity!(
            matrix::p1::deploy(&cfg),
            matrix_stream(3_000, dim, 22),
            batch
        );
        assert_matrix_parity!(
            matrix::p2::deploy(&cfg),
            matrix_stream(3_000, dim, 22),
            batch
        );
    }

    let stream = matrix_stream(4_000, dim, 36);
    let mut truth = StreamingGram::new(dim);
    for row in &stream {
        truth.update(row);
    }
    for batch in [64usize, 1024] {
        macro_rules! check {
            ($name:literal, $deploy:expr) => {{
                let mut runner = $deploy;
                runner.run_partitioned(stream.iter().cloned(), &mut RoundRobin::new(4), batch);
                let err = truth
                    .error_of_sketch(&runner.coordinator().sketch())
                    .unwrap();
                assert!(
                    err <= cfg.epsilon,
                    "{} batch {batch} (randomized profile): err {err} > ε",
                    $name
                );
            }};
        }
        check!("mt-p1", matrix::p1::deploy(&cfg));
        check!("mt-p2", matrix::p2::deploy(&cfg));
    }
}

/// MT-P2's relaxed mode (one decomposition check per batch) is *not*
/// message-identical to per-item execution — that is its point — but its
/// error bound only relaxes by the per-batch mass, so the ε contract
/// must still hold comfortably at practical batch sizes.
#[test]
fn matrix_p2_deferred_check_keeps_error_contract() {
    let dim = 6;
    let stream = matrix_stream(4_000, dim, 35);
    let mut truth = StreamingGram::new(dim);
    for row in &stream {
        truth.update(row);
    }
    let cfg = MatrixConfig::new(4, 0.2, dim).with_seed(43);
    let opts = matrix::p2::MP2Options {
        deferred_batch_check: true,
        ..Default::default()
    };

    let mut exact_msgs = None;
    for batch in [64usize, 1024] {
        let mut runner = matrix::p2::deploy_with(&cfg, &opts);
        runner.run_partitioned(stream.iter().cloned(), &mut RoundRobin::new(4), batch);
        let err = truth
            .error_of_sketch(&runner.coordinator().sketch())
            .unwrap();
        assert!(err <= cfg.epsilon, "deferred batch {batch}: err {err} > ε");
        // Deferred batching must not blow up communication either.
        let msgs = runner.stats().total();
        let exact = *exact_msgs.get_or_insert_with(|| {
            let mut r = matrix::p2::deploy(&cfg);
            r.run_partitioned(stream.iter().cloned(), &mut RoundRobin::new(4), batch);
            r.stats().total()
        });
        assert!(
            msgs <= 2 * exact,
            "deferred batch {batch}: {msgs} msgs vs exact {exact}"
        );
    }
}

/// `(batch_size, pool workers)` cells of the pooled error-contract
/// tests: several batch sizes, each at a single worker, at two, and at
/// more workers than the deployments have sites.
fn pooled_grid() -> impl Iterator<Item = (usize, usize)> {
    [1usize, 16, 256]
        .into_iter()
        .flat_map(|batch| [1usize, 2, 8].map(|workers| (batch, workers)))
}

/// The pooled engine trades threshold freshness for throughput; the
/// deterministic protocols' guarantees hold under arbitrary lag, and the
/// randomized ones hold with high probability. Exercise the whole
/// [`pooled_grid`] end to end.
#[test]
fn threaded_hh_protocols_keep_error_contract_at_several_batch_sizes() {
    let stream = zipf_stream(24_000, 33);
    let m = 4;
    let mut exact = ExactWeightedCounter::new();
    let mut inputs: Vec<Vec<(u64, f64)>> = vec![Vec::new(); m];
    for (i, &(e, w)) in stream.iter().enumerate() {
        exact.update(e, w);
        inputs[i % m].push((e, w));
    }
    let w = exact.total_weight();
    let cfg = HhConfig::new(m, 0.05).with_seed(51);

    for (batch, workers) in pooled_grid() {
        let tcfg = ThreadedConfig {
            batch_size: batch,
            channel_capacity: 4,
            plane: Default::default(),
        };
        macro_rules! check {
            ($name:literal, $deploy:expr, $slack:expr) => {{
                let (sites, coord, _stats) = $deploy.into_parts();
                let parts = engine::run_partitioned_topology_parts(
                    sites,
                    coord,
                    inputs.clone(),
                    &tcfg,
                    Executor::Pool { workers },
                    Topology::Star,
                    |_| Relay::new(),
                );
                assert!(
                    parts.stats.up_msgs > 0,
                    "{} batch {batch} w{workers}: no messages",
                    $name
                );
                for (e, f) in exact.iter() {
                    let err = (parts.coordinator.estimate(e) - f).abs();
                    assert!(
                        err <= $slack * cfg.epsilon * w + 1e-6,
                        "{} batch {batch} w{workers}: item {e} err {err} > {}·εW",
                        $name,
                        $slack
                    );
                }
            }};
        }
        // Deterministic protocols: the εW contract holds under any lag.
        check!("hh-p1", hh::p1::deploy(&cfg), 1.0);
        check!("hh-p2", hh::p2::deploy(&cfg), 1.0);
        // Randomized protocols: allow headroom for scheduling-dependent
        // lag on top of the probabilistic bound.
        check!("hh-p3", hh::p3::deploy(&cfg), 2.0);
        check!("hh-p4", hh::p4::deploy(&cfg), 2.0);
    }
}

#[test]
fn threaded_matrix_protocols_keep_error_contract_at_several_batch_sizes() {
    let dim = 6;
    let stream = matrix_stream(4_000, dim, 34);
    let m = 3;
    let mut truth = StreamingGram::new(dim);
    let mut inputs: Vec<Vec<Vec<f64>>> = vec![Vec::new(); m];
    for (i, row) in stream.iter().enumerate() {
        truth.update(row);
        inputs[i % m].push(row.clone());
    }
    let cfg = MatrixConfig::new(m, 0.2, dim).with_seed(52);

    for (batch, workers) in pooled_grid() {
        let tcfg = ThreadedConfig {
            batch_size: batch,
            channel_capacity: 4,
            plane: Default::default(),
        };
        macro_rules! check {
            ($name:literal, $deploy:expr, $slack:expr) => {{
                let (sites, coord, _stats) = $deploy.into_parts();
                let parts = engine::run_partitioned_topology_parts(
                    sites,
                    coord,
                    inputs.clone(),
                    &tcfg,
                    Executor::Pool { workers },
                    Topology::Star,
                    |_| Relay::new(),
                );
                assert!(
                    parts.stats.up_msgs > 0,
                    "{} batch {batch} w{workers}: no messages",
                    $name
                );
                let err = truth.error_of_sketch(&parts.coordinator.sketch()).unwrap();
                assert!(
                    err <= $slack * cfg.epsilon,
                    "{} batch {batch} w{workers}: err {err} > {}·ε",
                    $name,
                    $slack
                );
            }};
        }
        check!("mt-p1", matrix::p1::deploy(&cfg), 1.0);
        check!("mt-p2", matrix::p2::deploy(&cfg), 1.0);
        check!("mt-p3", matrix::p3::deploy(&cfg), 2.0);
    }
}
