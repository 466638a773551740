//! `mt-p2-highrank-star`: MT-P2 on the paper's MSD shape over a star,
//! with direction queries interleaved with ingest.
//!
//! Why it exists: `msd_like` rows (d = 90) have a slowly decaying
//! full-rank spectrum, so every site's `Σ Vᵀ` state saturates its rank
//! and falls back to d-side Jacobi eigensolves (≈ 2 k rows/s against
//! ≈ 40–50 k on low-rank input) — the time sits in `linalg`. Queries run
//! beside the writes and each one materialises the coordinator's sketch,
//! so the query percentiles measure the coordinator's read path. It
//! bypasses the aggregator layer (star), the `sketch` crate (exact
//! sites), and sends few broadcasts.

use cma_core::matrix::{self, MatrixEstimator};
use cma_core::MatrixConfig;
use cma_data::{StreamingGram, SyntheticMatrixStream};
use cma_linalg::{random, LinalgProfile, Matrix};
use cma_stream::partition::RoundRobin;
use cma_stream::{BroadcastPlane, Runner, Topology, WireCodec};
use rand::rngs::StdRng;
use rand::SeedableRng;

use super::{comm_fields, msgs_bound, timed, timed_setup, timing_fields, Checksum, Fields, Scale};
use crate::layers;
use crate::trace::{self, TracedAggregator, TracedCoordinator, TracedSite};

pub const NAME: &str = "mt-p2-highrank-star";

const SITES: usize = 50;
const EPSILON: f64 = 0.1;
const ROWS: usize = 10_000;
const BATCH: usize = 256;
const CHECKPOINTS: usize = 32;
const QUERIES_PER_CHECKPOINT: usize = 16;
/// Slack on the deterministic `0 ≤ ‖Ax‖² − ‖Bx‖² ≤ ε‖A‖²_F`, as a share
/// of `‖A‖²_F`, for floating-point noise in the eigensolves.
const TOLERANCE: f64 = 1e-9;
/// Rows of the final sketch the direct linalg timings run on.
const LINALG_SAMPLE_ROWS: usize = 1024;

/// Materialises `n` rows of `source` with their checksum.
pub(super) fn rows_of(source: SyntheticMatrixStream, n: usize) -> (Vec<Vec<f64>>, f64) {
    let rows: Vec<Vec<f64>> = source.take(n).collect();
    let mut sum = Checksum::new();
    rows.iter().flatten().for_each(|&v| sum.f64(v));
    (rows, sum.finish())
}

/// Unit query directions drawn from the seed.
pub(super) fn directions(seed: u64, dim: usize, n: usize) -> Vec<Vec<f64>> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5eed_d14e_c710_0000);
    (0..n).map(|_| random::unit_vector(&mut rng, dim)).collect()
}

/// `xᵀ G x` for a symmetric Gram matrix.
pub(super) fn quad_form(gram: &Matrix, x: &[f64]) -> f64 {
    gram.apply(x).iter().zip(x).map(|(g, v)| g * v).sum()
}

pub fn rep<const TRACE: bool>(seed: u64, scale: Scale, out: &mut Fields) {
    let n = scale.stream(ROWS);
    let source = SyntheticMatrixStream::msd_like(seed);
    let (dim, beta) = (source.dim(), source.beta());
    let cfg = MatrixConfig::new(SITES, EPSILON, dim)
        .with_seed(seed)
        .with_profile(LinalgProfile::blocked());

    let ((rows, checksum, queries, mut runner, gen_s, deploy_s), setup_s) = timed_setup(|| {
        let ((rows, checksum, queries), gen_s) = timed(|| {
            let (rows, checksum) = rows_of(SyntheticMatrixStream::msd_like(seed), n);
            let queries = directions(seed, dim, CHECKPOINTS * QUERIES_PER_CHECKPOINT);
            (rows, checksum, queries)
        });
        let (runner, deploy_s) = timed(|| {
            let (sites, coordinator, _) =
                matrix::p2::deploy_topology(&cfg, Topology::Star).into_parts();
            let mut make = matrix::p2::make_aggregator(&cfg, Topology::Star);
            Runner::with_topology(
                sites.into_iter().map(TracedSite::<_, TRACE>).collect(),
                TracedCoordinator::<_, TRACE>::new(coordinator),
                Topology::Star,
                |node| TracedAggregator::<_, TRACE>(make(node)),
            )
        });
        (rows, checksum, queries, runner, gen_s, deploy_s)
    });
    out.set("checksum", checksum);
    out.set("setup_s", setup_s);
    out.set("data.gen_s", gen_s);
    out.set("data.deploy_s", deploy_s);

    // The runner takes rows by value; truth keeps its own copy so the
    // timed region clones nothing.
    let truth_rows = rows.clone();
    let mut feed = rows.into_iter();
    let mut partitioner = RoundRobin::new(SITES);
    let mut truth = StreamingGram::new(dim);
    let (mut truth_s, mut worst) = (0.0, 0.0_f64);
    let (mut attempted, mut failed) = (0u64, 0u64);
    let mut segment_s = Vec::with_capacity(CHECKPOINTS);
    let mut query_us = Vec::with_capacity(queries.len());
    for (slice, xs) in truth_rows
        .chunks(n.div_ceil(CHECKPOINTS))
        .zip(queries.chunks(QUERIES_PER_CHECKPOINT))
    {
        let ((), seconds) = trace::ingest::<TRACE, _>(|| {
            runner.run_partitioned(feed.by_ref().take(slice.len()), &mut partitioner, BATCH)
        });
        segment_s.push(seconds);
        let ((), s) = timed(|| slice.iter().for_each(|r| truth.update(r)));
        truth_s += s;
        let mut answers = Vec::with_capacity(xs.len());
        for x in xs {
            let (bx, us) =
                trace::query::<TRACE, _>(|| runner.coordinator().inner.direction_norm_sq(x));
            query_us.push(us);
            answers.push(bx);
        }
        let ((), s) = timed(|| {
            let frob = truth.frob_sq();
            for (x, bx) in xs.iter().zip(&answers) {
                let gap = quad_form(truth.gram(), x) - bx;
                attempted += 1;
                if gap < -TOLERANCE * frob || gap > (EPSILON + TOLERANCE) * frob {
                    failed += 1;
                }
            }
            let err = truth
                .error_of_sketch(&runner.coordinator().inner.sketch())
                .expect("covariance error eigensolve");
            worst = worst.max(err / EPSILON);
        });
        truth_s += s;
    }

    timing_fields(out, &segment_s, &query_us);
    out.set("data.truth_s", truth_s);
    out.set("err_over_bound", worst);
    out.set("attempted", attempted as f64);
    out.set("failed", failed as f64);
    comm_fields(out, runner.stats(), msgs_bound(SITES, EPSILON, beta, n));
    out.set(
        "coord_state_bytes",
        runner.coordinator().inner.encoded_len() as f64,
    );

    if TRACE {
        let captured = runner.coordinator().captured();
        layers::wire(out, captured);
        layers::transport(out, captured, None);
        layers::disseminate(out, BroadcastPlane::TreeCascade, runner.plan(), 8, 4096);
        // The kernels at d = 90 on the coordinator's own sketch — the
        // matrix every query materialises and scans.
        let mut sketch = runner.coordinator().inner.sketch();
        sketch.truncate_rows(LINALG_SAMPLE_ROWS);
        layers::linalg(out, cfg.profile, &sketch, &queries[0]);
    }
}
