//! `hh-p1-bigm-gossip`: HH-P1 at m = 65 536 on a fanout-8 tree (9 362
//! interior nodes) through the inline engine, broadcasting by push–pull
//! gossip.
//!
//! Why it exists: each site sees about 30 arrivals, so `sketch` and
//! `site` do almost nothing; of ~4·10⁸ messages all but ~10⁷ are gossip
//! deliveries (≈ 12× reach — ROADMAP 5a), and set-up builds 74 898
//! nodes. The time sits in `broadcast`, the engine's wave/chunk code and
//! deployment set-up. It bypasses `linalg` and the faulty transport.
//!
//! The traced pass also runs the m = 4096 twin through
//! `Executor::Pool` for the scheduler counters (`engine.*`); those are
//! counts, and one wall ratio that is not comparable between runs on a
//! shared 2-core box.

use cma_core::hh::{self, HhEstimator};
use cma_core::HhConfig;
use cma_sketch::ExactWeightedCounter;
use cma_stream::runner::engine;
use cma_stream::runner::threaded::ThreadedConfig;
use cma_stream::{BroadcastPlane, Executor, Topology, WireCodec};

use super::hh_tree_seq::{answer_ok, err_over_bound, zipf_stream};
use super::{comm_fields, msgs_bound, timed, timed_setup, timing_fields, Fields, Scale};
use crate::layers;
use crate::trace::{self, TracedAggregator, TracedCoordinator, TracedSite};

pub const NAME: &str = "hh-p1-bigm-gossip";

const SITES: usize = 65_536;
const TOPOLOGY: Topology = Topology::Tree { fanout: 8 };
const EPSILON: f64 = 0.05;
const PHI: f64 = 0.05;
const UNIVERSE: usize = 100_000;
const BETA: f64 = 1_000.0;
const ARRIVALS: usize = 2_000_000;
const BATCH: usize = 64;
const QUERIES: usize = 512;
/// A query on a 40-counter summary takes ~0.5 µs, a few clock ticks, so
/// each timed sample is the mean of this many back-to-back queries.
const QUERIES_PER_SAMPLE: usize = 16;
/// The deployment the pool executor is compared on.
const TWIN_SITES: usize = 4_096;

fn plane(seed: u64) -> BroadcastPlane {
    BroadcastPlane::Gossip {
        fanout: 4,
        rounds: 24,
        seed,
    }
}

fn engine_config(seed: u64) -> ThreadedConfig {
    ThreadedConfig {
        batch_size: BATCH,
        plane: plane(seed),
        ..ThreadedConfig::default()
    }
}

/// Round-robin pre-partitioning: site `i mod m` observes arrival `i`.
pub(super) fn partition<T: Clone>(stream: &[T], m: usize) -> Vec<Vec<T>> {
    let mut inputs: Vec<Vec<T>> = (0..m)
        .map(|_| Vec::with_capacity(stream.len() / m + 1))
        .collect();
    for (i, x) in stream.iter().enumerate() {
        inputs[i % m].push(x.clone());
    }
    inputs
}

pub fn rep<const TRACE: bool>(seed: u64, scale: Scale, out: &mut Fields) {
    let n = scale.stream(ARRIVALS);
    let cfg = HhConfig::new(SITES, EPSILON).with_seed(seed);

    let ((stream, checksum, exact, deployment, gen_s, truth_s, deploy_s), setup_s) =
        timed_setup(|| {
            let ((stream, checksum), gen_s) = timed(|| zipf_stream(UNIVERSE, n, seed));
            let (exact, truth_s) = timed(|| {
                let mut exact = ExactWeightedCounter::new();
                stream.iter().for_each(|&(e, w)| exact.update(e, w));
                exact
            });
            let (deployment, deploy_s) = timed(|| {
                let inputs = partition(&stream, SITES);
                let (sites, coordinator, _) = hh::p1::deploy_topology(&cfg, TOPOLOGY).into_parts();
                let sites: Vec<_> = sites.into_iter().map(TracedSite::<_, TRACE>).collect();
                (
                    inputs,
                    sites,
                    TracedCoordinator::<_, TRACE>::new(coordinator),
                )
            });
            (
                stream, checksum, exact, deployment, gen_s, truth_s, deploy_s,
            )
        });
    out.set("checksum", checksum);
    out.set("setup_s", setup_s);
    out.set("data.gen_s", gen_s);
    out.set("data.truth_s", truth_s);
    out.set("data.deploy_s", deploy_s);

    let (inputs, sites, coordinator) = deployment;
    let mut make = hh::p1::make_aggregator(&cfg, TOPOLOGY);
    let (parts, ingest_s) = trace::ingest::<TRACE, _>(|| {
        engine::run_partitioned_topology_parts(
            sites,
            coordinator,
            inputs,
            &engine_config(seed),
            Executor::Inline,
            TOPOLOGY,
            |node| TracedAggregator::<_, TRACE>(make(node)),
        )
    });

    let true_hh = exact.heavy_hitters(PHI);
    let (mut attempted, mut failed) = (0u64, 0u64);
    let mut query_us = Vec::with_capacity(QUERIES);
    for _ in 0..QUERIES {
        let (answers, us) = trace::query::<TRACE, _>(|| {
            [(); QUERIES_PER_SAMPLE].map(|()| parts.coordinator.inner.heavy_hitters(PHI, EPSILON))
        });
        query_us.push(us / QUERIES_PER_SAMPLE as f64);
        for answer in &answers {
            attempted += 1;
            if !answer_ok(answer, &true_hh, &exact, PHI, EPSILON) {
                failed += 1;
            }
        }
    }

    timing_fields(out, &[ingest_s], &query_us);
    out.set(
        "err_over_bound",
        err_over_bound(&parts.coordinator.inner, &exact, EPSILON),
    );
    out.set("attempted", attempted as f64);
    out.set("failed", failed as f64);
    comm_fields(out, &parts.stats, msgs_bound(SITES, EPSILON, BETA, n));
    out.set(
        "coord_state_bytes",
        parts.coordinator.inner.encoded_len() as f64,
    );

    if TRACE {
        let captured = parts.coordinator.captured();
        layers::wire(out, captured);
        layers::transport(out, captured, None);
        layers::disseminate(out, plane(seed), &TOPOLOGY.plan(SITES), 8, 4);
        layers::misra_gries(
            out,
            &stream[..stream.len().min(1_000_000)],
            EPSILON / 2.0,
            captured.iter().map(|m| &m.summary),
        );
        pool_twin(out, &stream, seed);
    }
}

/// `engine.*`: the same stream through the m = 4096 twin, inline and on
/// a pool of `nproc − 1` workers (never more threads than cores).
fn pool_twin(out: &mut Fields, stream: &[(u64, f64)], seed: u64) {
    let cfg = HhConfig::new(TWIN_SITES, EPSILON).with_seed(seed);
    let run = |executor: Executor| {
        let (sites, coordinator, _) = hh::p1::deploy_topology(&cfg, TOPOLOGY).into_parts();
        let inputs = partition(stream, TWIN_SITES);
        timed(|| {
            engine::run_partitioned_topology_parts(
                sites,
                coordinator,
                inputs,
                &engine_config(seed),
                executor,
                TOPOLOGY,
                hh::p1::make_aggregator(&cfg, TOPOLOGY),
            )
        })
    };
    let workers = std::thread::available_parallelism()
        .map_or(1, |n| n.get())
        .saturating_sub(1)
        .max(1);
    let (_, inline_s) = run(Executor::Inline);
    let (pooled, pool_s) = run(Executor::Pool { workers });
    out.set("engine.tasks", pooled.engine.total_tasks() as f64);
    out.set("engine.steals", pooled.engine.total_steals() as f64);
    out.set("engine.parks", pooled.engine.total_parks() as f64);
    out.set("engine.wakeups", pooled.engine.total_wakeups() as f64);
    out.set("engine.pool_wall_over_inline", pool_s / inline_s);
}
