//! `swfd-churn-faulty`: the windowed Frequent-Directions protocol under
//! membership churn, a snapshot, a coordinator crash, and a network that
//! drops, duplicates, delays and reorders.
//!
//! Why it exists: it is the only workload whose messages cross a
//! `SimNet` (`transport`), whose root complex is wire-encoded, restored
//! and replayed (`wire`, `churn`), and it uses `sketch` + `linalg`
//! *differently* from `mt-p2-highrank-star`: thousands of small ℓ×d FD
//! shrinks in expiring histogram buckets instead of a few large
//! eigensolves. It barely broadcasts and runs the engine inline, so
//! `broadcast` and scheduling do little.
//!
//! Two phases: the churn driver consumes its whole input in one call
//! (leave, snapshot, join, crash + WAL replay, over the `SimNet`); then
//! the recovered deployment keeps ingesting through the sequential
//! `Runner` while the window slides twice more, with direction queries
//! between its segments — the only way to sample the coordinator's read
//! path at more than one instant from outside `crates/`.

use cma_core::window::{fd, SwFdConfig};
use cma_data::{StreamingGram, SyntheticMatrixStream};
use cma_linalg::{LinalgProfile, Matrix};
use cma_stream::partition::RoundRobin;
use cma_stream::runner::churn::run_churn_partitioned_topology_parts_on;
use cma_stream::runner::threaded::ThreadedConfig;
use cma_stream::{
    BroadcastPlane, ChurnConfig, ChurnEvent, ChurnSchedule, Executor, FaultPlan, LinkFaults,
    Runner, SimNet, Topology, WireCodec,
};

use super::hh_bigm_gossip::partition;
use super::mt_p2_star::{directions, quad_form, rows_of};
use super::{comm_fields, msgs_bound, ratio, timed, timed_setup, timing_fields, Fields, Scale};
use crate::layers;
use crate::trace::{self, TracedAggregator, TracedCoordinator, TracedSite};

pub const NAME: &str = "swfd-churn-faulty";

const SITES: usize = 64;
const TOPOLOGY: Topology = Topology::Tree { fanout: 4 };
const EPSILON: f64 = 0.1;
const WINDOW: usize = 8_192;
const ELL: usize = 40;
/// Rows driven through the churn driver (≈ 3.1 s; 80 000 took 2.7 s).
const ROWS: usize = 90_112;
const SEGMENTS: usize = 8;
const CHURNED_SITE: usize = 5;
const FAULTS: LinkFaults = LinkFaults {
    drop: 0.01,
    duplicate: 0.01,
    delay: 0.05,
    delay_hops: 4,
    reorder: 0.05,
};
/// After the churn run the recovered deployment keeps ingesting while
/// it is queried: the window slides twice over this many further rows.
/// The coordinator's bucket structure — and with it state size, query
/// cost and error — saw-tooths as buckets merge and expire (one
/// end-of-stream sample moved ±25 % between seeds), so the read path is
/// sampled at [`TAIL_CHECKPOINTS`] instants instead of one.
const TAIL_ROWS: usize = 2 * WINDOW;
const TAIL_CHECKPOINTS: usize = 32;
/// 512 timed queries, so p95 has 25 samples beyond it. Each folds every
/// live bucket (≈ 9 ms): the queries take longer than the ingest.
const QUERIES_PER_CHECKPOINT: usize = 16;
const BATCH: usize = 64;
/// Slack on the certified window bound, as a share of the window's
/// `‖A_W‖²_F`, for floating-point noise in the bucket SVDs.
const TOLERANCE: f64 = 1e-9;
/// Input rows the direct sketch timings run over.
const SKETCH_SAMPLE_ROWS: usize = 4_096;

fn churn_config(n: usize) -> ChurnConfig {
    ChurnConfig {
        segment_len: (n / SITES / SEGMENTS).max(1),
        schedule: ChurnSchedule::new()
            .at(2, ChurnEvent::Leave(CHURNED_SITE))
            .at(4, ChurnEvent::Join(CHURNED_SITE)),
        snapshot_at: Some(3),
        crash_at: Some(5),
        ..ChurnConfig::default()
    }
}

/// Exact Gram of the `WINDOW` rows before clock `now`.
fn window_truth(rows: &[Vec<f64>], now: usize, dim: usize) -> StreamingGram {
    let mut truth = StreamingGram::new(dim);
    rows[now.saturating_sub(WINDOW)..now]
        .iter()
        .for_each(|r| truth.update(r));
    truth
}

pub fn rep<const TRACE: bool>(seed: u64, scale: Scale, out: &mut Fields) {
    let n = scale.stream(ROWS);
    let tail = scale.stream(TAIL_ROWS);
    let source = SyntheticMatrixStream::pamap_like(seed);
    let (dim, beta) = (source.dim(), source.beta());
    let profile = LinalgProfile::blocked();
    let cfg = SwFdConfig::new(SITES, EPSILON, WINDOW as u64, dim, ELL).with_profile(profile);
    let churn = churn_config(n);

    let ((rows, checksum, queries, deployment, gen_s, deploy_s), setup_s) = timed_setup(|| {
        let ((rows, checksum, queries), gen_s) = timed(|| {
            let (rows, checksum) = rows_of(SyntheticMatrixStream::pamap_like(seed), n + tail);
            let queries = directions(seed, dim, TAIL_CHECKPOINTS * QUERIES_PER_CHECKPOINT);
            (rows, checksum, queries)
        });
        let (deployment, deploy_s) = timed(|| {
            let stamped: Vec<(u64, Vec<f64>)> = rows[..n]
                .iter()
                .enumerate()
                .map(|(t, r)| (t as u64, r.clone()))
                .collect();
            let inputs = partition(&stamped, SITES);
            let (sites, coordinator, _) = fd::deploy_topology(&cfg, TOPOLOGY).into_parts();
            let sites: Vec<_> = sites.into_iter().map(TracedSite::<_, TRACE>).collect();
            (
                inputs,
                sites,
                TracedCoordinator::<_, TRACE>::new(coordinator),
            )
        });
        (rows, checksum, queries, deployment, gen_s, deploy_s)
    });
    out.set("checksum", checksum);
    out.set("setup_s", setup_s);
    out.set("data.gen_s", gen_s);
    out.set("data.deploy_s", deploy_s);

    // Phase 1: the churn driver over the faulty network.
    let (inputs, sites, coordinator) = deployment;
    let net = SimNet::new(FaultPlan::up_only(seed, FAULTS));
    let engine_cfg = ThreadedConfig {
        batch_size: BATCH,
        plane: BroadcastPlane::TreeCascade,
        ..ThreadedConfig::default()
    };
    let (mut parts, churn_s) = trace::ingest::<TRACE, _>(|| {
        run_churn_partitioned_topology_parts_on(
            sites,
            coordinator,
            inputs,
            &engine_cfg,
            Executor::Inline,
            TOPOLOGY,
            |topology| {
                let mut make = fd::make_aggregator(&cfg, topology);
                move |node| TracedAggregator::<_, TRACE>(make(node))
            },
            &churn,
            &net,
        )
    });
    let mut segment_s = vec![churn_s];
    let report = parts.report.clone();
    assert_eq!(
        report.unfed_inputs, 0,
        "every slot's feed must run dry, or the window truth is wrong"
    );

    // Restate the bound: network faults and the crash's discarded
    // interior mass widen the matching side, for the rest of the run.
    let faults = net.stats();
    parts.coordinator.inner.charge_faults(
        faults.undercount_mass() + report.recovery_lost_mass,
        faults.overcount_mass(),
    );

    // Phase 2: the recovered deployment — same sites, interior nodes and
    // coordinator — keeps ingesting through the sequential runner, with
    // direction queries beside the writes.
    let mut interior = parts.aggregators.into_iter();
    let mut runner = Runner::with_topology(
        parts.sites,
        parts.coordinator,
        report.final_topology,
        |_| {
            interior
                .next()
                .expect("one recovered node per interior slot")
        },
    );
    let mut partitioner = RoundRobin::new(SITES);
    let (mut truth_s, mut worst, mut state_bytes) = (0.0, 0.0_f64, 0.0);
    let (mut attempted, mut failed) = (0u64, 0u64);
    let mut query_us = Vec::with_capacity(queries.len());
    let mut now = n;
    for (slice, xs) in rows[n..]
        .chunks(tail.div_ceil(TAIL_CHECKPOINTS))
        .zip(queries.chunks(QUERIES_PER_CHECKPOINT))
    {
        let stamped: Vec<(u64, Vec<f64>)> = slice
            .iter()
            .enumerate()
            .map(|(i, r)| ((now + i) as u64, r.clone()))
            .collect();
        now += slice.len();
        let ((), seconds) =
            trace::ingest::<TRACE, _>(|| runner.run_partitioned(stamped, &mut partitioner, BATCH));
        segment_s.push(seconds);
        let coordinator = &runner.coordinator().inner;
        let mut answers = Vec::with_capacity(xs.len());
        for x in xs {
            let (bx, us) =
                trace::query::<TRACE, _>(|| coordinator.sketch_at(now as u64).apply_norm_sq(x));
            query_us.push(us);
            answers.push(bx);
        }
        let ((), s) = timed(|| {
            let truth = window_truth(&rows, now, dim);
            let bound = coordinator.error_bound_at(now as u64);
            let (over_bound, under_bound) = (bound.straddle, bound.summary_loss + bound.withheld);
            let slack = TOLERANCE * truth.frob_sq();
            for (x, bx) in xs.iter().zip(&answers) {
                let gap = bx - quad_form(truth.gram(), x);
                attempted += 1;
                if gap > over_bound + slack || -gap > under_bound + slack {
                    failed += 1;
                }
                worst = worst.max(if gap > 0.0 {
                    ratio(gap, over_bound)
                } else {
                    ratio(-gap, under_bound)
                });
            }
            state_bytes += coordinator.encoded_len() as f64;
        });
        truth_s += s;
    }

    timing_fields(out, &segment_s, &query_us);
    out.set("data.truth_s", truth_s);
    out.set("err_over_bound", worst);
    out.set("attempted", attempted as f64);
    out.set("failed", failed as f64);
    let mut stats = parts.stats;
    stats.absorb_reshaped(runner.stats());
    comm_fields(out, &stats, msgs_bound(SITES, EPSILON, beta, n + tail));
    // Mean over the checkpoints: one instant's size is a saw-tooth sample.
    let checkpoints = segment_s.len() - 1;
    out.set("coord_state_bytes", state_bytes / checkpoints as f64);

    if TRACE {
        let fed_mass: f64 = rows[..n].iter().flatten().map(|v| v * v).sum();
        out.set("transport.dropped", faults.dropped as f64);
        out.set("transport.duplicated", faults.duplicated as f64);
        out.set("transport.delayed", faults.delayed as f64);
        out.set("transport.reordered", faults.reordered as f64);
        out.set(
            "transport.undercount_mass_share",
            faults.undercount_mass() / fed_mass,
        );
        out.set(
            "transport.overcount_mass_share",
            faults.overcount_mass() / fed_mass,
        );
        out.set("churn.segments", report.segments as f64);
        out.set("churn.resplits", report.resplits as f64);
        out.set("churn.departed_msgs", report.departed_msgs as f64);
        out.set("churn.replayed_msgs", report.replayed_msgs as f64);
        out.set(
            "churn.recovery_lost_mass_share",
            report.recovery_lost_mass / fed_mass,
        );
        out.set(
            "churn.snapshot_bytes",
            report.snapshot_bytes.unwrap_or(0) as f64,
        );
        layers::snapshot(out, runner.coordinator(), runner.aggregators());

        let captured = runner.coordinator().captured();
        layers::wire(out, captured);
        layers::transport(out, captured, Some((seed, FAULTS)));
        layers::disseminate(out, BroadcastPlane::TreeCascade, runner.plan(), 8, 4096);
        layers::frequent_directions(
            out,
            &rows[..rows.len().min(SKETCH_SAMPLE_ROWS)],
            ELL,
            profile,
            WINDOW as u64,
            cfg.params.per_level,
        );
        // The shrink's kernels at the bucket buffer's shape, 2ℓ × d.
        let buffer = Matrix::from_rows(&rows[..rows.len().min(2 * ELL)]);
        layers::linalg(out, profile, &buffer, &queries[0]);
    }
}
