//! `hh-p1-tree-seq`: HH-P1 at the paper's defaults through the
//! sequential `Runner` on a fanout-4 tree.
//!
//! Why it exists: with m = 256 sites and batch 256 every epoch hands
//! each site about one arrival, so the run is ~10⁷ `observe_batch` calls,
//! ~10⁶ Misra–Gries flushes of 2000-counter summaries and their merges
//! up three interior levels — the time sits in `sketch`, `site`,
//! `aggregator` and the runner's routing (ROADMAP 5b tree tax, 5c
//! allocation). It bypasses `linalg` entirely, broadcasts by plain tree
//! cascade, and runs on the transparent transport.

use cma_core::hh::{self, HhEstimator, Item};
use cma_core::HhConfig;
use cma_data::WeightedZipfStream;
use cma_sketch::ExactWeightedCounter;
use cma_stream::partition::RoundRobin;
use cma_stream::{BroadcastPlane, Runner, Topology, WireCodec};

use super::{comm_fields, msgs_bound, timed, timed_setup, timing_fields, Checksum, Fields, Scale};
use crate::layers;
use crate::trace::{self, TracedAggregator, TracedCoordinator, TracedSite};

pub const NAME: &str = "hh-p1-tree-seq";

const SITES: usize = 256;
const TOPOLOGY: Topology = Topology::Tree { fanout: 4 };
const EPSILON: f64 = 1e-3;
const PHI: f64 = 0.05;
const UNIVERSE: usize = 100_000;
const SKEW: f64 = 2.0;
const BETA: f64 = 1_000.0;
const ARRIVALS: usize = 10_000_000;
const BATCH: usize = 256;
const CHECKPOINTS: usize = 64;
const QUERIES_PER_CHECKPOINT: usize = 8;

/// Generates the weighted Zipf stream and its checksum.
pub(super) fn zipf_stream(universe: usize, n: usize, seed: u64) -> (Vec<(u64, f64)>, f64) {
    let stream = WeightedZipfStream::new(universe, SKEW, BETA, seed).take_vec(n);
    let mut sum = Checksum::new();
    for &(e, w) in &stream {
        sum.word(e);
        sum.f64(w);
    }
    (stream, sum.finish())
}

/// Largest `|estimate − truth|` over every item seen or tracked, as a
/// share of the restated bound `ε·W`.
pub(super) fn err_over_bound<E: HhEstimator>(
    coordinator: &E,
    exact: &ExactWeightedCounter,
    epsilon: f64,
) -> f64 {
    let bound = epsilon * exact.total_weight();
    exact
        .iter()
        .map(|(e, f)| (coordinator.estimate(e) - f).abs())
        .fold(0.0, f64::max)
        / bound
}

/// Lemma 1 on one `heavy_hitters(φ, ε)` answer: every true φ-heavy
/// hitter is returned and nothing below `(φ − ε)·W` is.
pub(super) fn answer_ok(
    answer: &[(Item, f64)],
    true_hh: &[(Item, f64)],
    exact: &ExactWeightedCounter,
    phi: f64,
    epsilon: f64,
) -> bool {
    let floor = (phi - epsilon) * exact.total_weight();
    true_hh
        .iter()
        .all(|(e, _)| answer.iter().any(|(a, _)| a == e))
        && answer.iter().all(|&(e, _)| exact.frequency(e) >= floor)
}

pub fn rep<const TRACE: bool>(seed: u64, scale: Scale, out: &mut Fields) {
    let n = scale.stream(ARRIVALS);
    let cfg = HhConfig::new(SITES, EPSILON).with_seed(seed);

    let ((stream, checksum, mut runner, gen_s, deploy_s), setup_s) = timed_setup(|| {
        let ((stream, checksum), gen_s) = timed(|| zipf_stream(UNIVERSE, n, seed));
        let (runner, deploy_s) = timed(|| {
            let (sites, coordinator, _) = hh::p1::deploy_topology(&cfg, TOPOLOGY).into_parts();
            let mut make = hh::p1::make_aggregator(&cfg, TOPOLOGY);
            Runner::with_topology(
                sites.into_iter().map(TracedSite::<_, TRACE>).collect(),
                TracedCoordinator::<_, TRACE>::new(coordinator),
                TOPOLOGY,
                |node| TracedAggregator::<_, TRACE>(make(node)),
            )
        });
        (stream, checksum, runner, gen_s, deploy_s)
    });
    out.set("checksum", checksum);
    out.set("setup_s", setup_s);
    out.set("data.gen_s", gen_s);
    out.set("data.deploy_s", deploy_s);

    let mut partitioner = RoundRobin::new(SITES);
    let mut exact = ExactWeightedCounter::new();
    let (mut truth_s, mut worst) = (0.0, 0.0_f64);
    let (mut attempted, mut failed) = (0u64, 0u64);
    let mut segment_s = Vec::with_capacity(CHECKPOINTS);
    let mut query_us = Vec::with_capacity(CHECKPOINTS * QUERIES_PER_CHECKPOINT);
    for slice in stream.chunks(n.div_ceil(CHECKPOINTS)) {
        let ((), seconds) = trace::ingest::<TRACE, _>(|| {
            runner.run_partitioned(slice.iter().copied(), &mut partitioner, BATCH)
        });
        segment_s.push(seconds);
        let ((), s) = timed(|| slice.iter().for_each(|&(e, w)| exact.update(e, w)));
        truth_s += s;
        let mut answers = Vec::with_capacity(QUERIES_PER_CHECKPOINT);
        for _ in 0..QUERIES_PER_CHECKPOINT {
            let (answer, us) =
                trace::query::<TRACE, _>(|| runner.coordinator().inner.heavy_hitters(PHI, EPSILON));
            query_us.push(us);
            answers.push(answer);
        }
        let ((), s) = timed(|| {
            let true_hh = exact.heavy_hitters(PHI);
            for answer in &answers {
                attempted += 1;
                if !answer_ok(answer, &true_hh, &exact, PHI, EPSILON) {
                    failed += 1;
                }
            }
            worst = worst.max(err_over_bound(&runner.coordinator().inner, &exact, EPSILON));
        });
        truth_s += s;
    }

    timing_fields(out, &segment_s, &query_us);
    out.set("data.truth_s", truth_s);
    out.set("err_over_bound", worst);
    out.set("attempted", attempted as f64);
    out.set("failed", failed as f64);
    comm_fields(out, runner.stats(), msgs_bound(SITES, EPSILON, BETA, n));
    out.set(
        "coord_state_bytes",
        runner.coordinator().inner.encoded_len() as f64,
    );

    if TRACE {
        let captured = runner.coordinator().captured();
        layers::wire(out, captured);
        layers::transport(out, captured, None);
        layers::disseminate(out, BroadcastPlane::TreeCascade, runner.plan(), 8, 4096);
        layers::misra_gries(
            out,
            &stream[..stream.len().min(1_000_000)],
            EPSILON / 2.0,
            captured.iter().map(|m| &m.summary),
        );
    }
}
