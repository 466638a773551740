//! Asynchronous-delivery integration tests on the paper's star shape:
//! the protocols must tolerate broadcast lag (sites as tasks of the
//! engine's worker pool, threads fewer than, equal to and more than the
//! site count). A lagging — therefore smaller — threshold only makes
//! sites send *sooner*, so the accuracy contracts survive; these tests
//! pin that reasoning down.

use cma::data::{StreamingGram, SyntheticMatrixStream, WeightedZipfStream};
use cma::protocols::hh::{p2, HhConfig, HhEstimator};
use cma::protocols::matrix::{p2 as mp2, MatrixConfig, MatrixEstimator};
use cma::sketch::ExactWeightedCounter;
use cma::stream::runner::engine::{self, Executor, ThreadedConfig};
use cma::stream::{CommStats, Coordinator, MessageCost, Relay, Site, Topology, WireSized};

/// Pool sizes every test sweeps: a single worker (no stealing), CI's
/// two cores, and more workers than the deployment has sites.
const WORKERS: [usize; 3] = [1, 2, 8];

/// Runs a star deployment on the pool with the default batching.
fn run_star<S, C>(
    sites: Vec<S>,
    coordinator: C,
    inputs: Vec<Vec<S::Input>>,
    workers: usize,
) -> (C, CommStats)
where
    S: Site + Send,
    S::Input: Send,
    S::UpMsg: MessageCost + Clone + Send,
    S::Broadcast: Clone + WireSized + Send,
    C: Coordinator<UpMsg = S::UpMsg, Broadcast = S::Broadcast>,
{
    let parts = engine::run_partitioned_topology_parts(
        sites,
        coordinator,
        inputs,
        &ThreadedConfig::default(),
        Executor::Pool { workers },
        Topology::Star,
        |_| Relay::new(),
    );
    (parts.coordinator, parts.stats)
}

#[test]
fn hh_p2_contract_under_async_delivery() {
    let m = 6;
    let eps = 0.05;
    let n = 30_000;
    let cfg = HhConfig::new(m, eps).with_seed(1);

    // Pre-partition the stream round-robin, as the sequential runs do.
    let stream = WeightedZipfStream::new(5_000, 2.0, 100.0, 1).take_vec(n);
    let mut exact = ExactWeightedCounter::new();
    let mut inputs: Vec<Vec<(u64, f64)>> = vec![Vec::new(); m];
    for (i, &(e, w)) in stream.iter().enumerate() {
        exact.update(e, w);
        inputs[i % m].push((e, w));
    }

    let w = exact.total_weight();
    for workers in WORKERS {
        let (sites, coordinator, _) = p2::deploy(&cfg).into_parts();
        let (coordinator, stats) = run_star(sites, coordinator, inputs.clone(), workers);

        for (e, f) in exact.iter() {
            let err = (coordinator.estimate(e) - f).abs();
            assert!(
                err <= eps * w + 1e-9,
                "workers={workers} item {e}: async error {err} > εW"
            );
        }
        assert!(stats.up_msgs > 0);
        // The coordinator still recovered (approximately) the whole weight.
        assert!((coordinator.total_weight() - w).abs() <= 2.0 * eps * w);
    }
}

#[test]
fn matrix_p2_contract_under_async_delivery() {
    let m = 4;
    let eps = 0.2;
    let n = 8_000;
    let dim = 16;
    let cfg = MatrixConfig::new(m, eps, dim).with_seed(2);

    let mut stream = SyntheticMatrixStream::new(dim, &[4.0, 2.0, 1.0], 1e4, 3);
    let mut truth = StreamingGram::new(dim);
    let mut inputs: Vec<Vec<Vec<f64>>> = vec![Vec::new(); m];
    for i in 0..n {
        let row = stream.next_row();
        truth.update(&row);
        inputs[i % m].push(row);
    }

    for workers in WORKERS {
        let (sites, coordinator, _) = mp2::deploy(&cfg).into_parts();
        let (coordinator, stats) = run_star(sites, coordinator, inputs.clone(), workers);

        let err = truth.error_of_sketch(&coordinator.sketch()).unwrap();
        assert!(
            err <= eps,
            "workers={workers}: async matrix error {err} > ε"
        );
        assert!(stats.up_msgs > 0);
    }
}

/// Async delivery may cost extra messages (stale thresholds fire sooner)
/// but never an unbounded amount; sanity-bound it against sequential.
#[test]
fn async_message_overhead_is_bounded() {
    let m = 4;
    let eps = 0.05;
    let n = 20_000;
    let cfg = HhConfig::new(m, eps).with_seed(3);
    let stream = WeightedZipfStream::new(5_000, 2.0, 100.0, 4).take_vec(n);

    // Sequential baseline.
    let mut seq = p2::deploy(&cfg);
    for (i, &(e, w)) in stream.iter().enumerate() {
        seq.feed(i % m, (e, w));
    }
    let seq_msgs = seq.stats().total();

    // Pooled runs on the identical partitioning.
    let mut inputs: Vec<Vec<(u64, f64)>> = vec![Vec::new(); m];
    for (i, &(e, w)) in stream.iter().enumerate() {
        inputs[i % m].push((e, w));
    }
    for workers in WORKERS {
        let (sites, coordinator, _) = p2::deploy(&cfg).into_parts();
        let (_, stats) = run_star(sites, coordinator, inputs.clone(), workers);

        assert!(
            stats.total() <= 20 * seq_msgs,
            "workers={workers}: async messages {} wildly exceed sequential {}",
            stats.total(),
            seq_msgs
        );
    }
}
