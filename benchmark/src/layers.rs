//! Direct timings of the lower layers' public functions, on inputs
//! captured from the traced run (sampled up-messages, a prefix of the
//! stream, the final coordinator state) at the workload's own sizes.
//!
//! These layers sit *below* the role boundary the wrappers in
//! [`crate::trace`] can see — a site's `observe_batch` calls the sketch,
//! which calls linalg — so they cannot be spans without instrumenting
//! `crates/`. Each timing is the median over [`BATCHES`] batches of the
//! mean cost of one call.

use std::hint::black_box;
use std::time::Instant;

use cma_linalg::eigen::jacobi_eigen_sym;
use cma_linalg::norms::spectral_norm_sym_power;
use cma_linalg::{LinalgProfile, Matrix};
use cma_sketch::{ExpHistogram, FrequentDirections, MgSummary, WinBucket};
use cma_stream::{
    BroadcastPlane, BroadcastState, ChannelTransport, CommStats, FaultLink, FaultPlan, LinkFaults,
    MessageCost, SimNet, SiteId, Snapshot, TopologyPlan, Transport, WireCodec, WireReader,
};

use crate::workloads::Fields;

const BATCHES: usize = 5;

/// Median of [`BATCHES`] measurements.
fn median_batch(mut batch_ns: impl FnMut() -> f64) -> f64 {
    let mut per: Vec<f64> = (0..BATCHES).map(|_| batch_ns()).collect();
    per.sort_by(|a, b| a.partial_cmp(b).expect("finite time"));
    per[BATCHES / 2]
}

/// Median over [`BATCHES`] batches of the nanoseconds one call of `f`
/// takes; each batch makes `iters` calls.
fn ns_per_call(iters: usize, mut f: impl FnMut()) -> f64 {
    median_batch(|| {
        let t0 = Instant::now();
        for _ in 0..iters {
            f();
        }
        t0.elapsed().as_nanos() as f64 / iters as f64
    })
}

/// `wire.*`: encode and decode every sampled message.
pub fn wire<M: WireCodec>(out: &mut Fields, msgs: &[M]) {
    out.set("wire.msgs_sampled", msgs.len() as f64);
    if msgs.is_empty() {
        return;
    }
    let mut buf = Vec::new();
    let encode = ns_per_call(1, || {
        for m in msgs {
            buf.clear();
            m.encode(&mut buf);
            black_box(&buf);
        }
    });
    let encoded: Vec<Vec<u8>> = msgs.iter().map(WireCodec::to_wire).collect();
    let mut failures = 0u64;
    let decode = ns_per_call(1, || {
        failures = 0;
        for bytes in &encoded {
            if black_box(M::decode(&mut WireReader::new(bytes))).is_none() {
                failures += 1;
            }
        }
    });
    let n = msgs.len() as f64;
    out.set("wire.encode_ns_per_msg", encode / n);
    out.set("wire.decode_ns_per_msg", decode / n);
    out.set(
        "wire.bytes_per_msg",
        encoded.iter().map(Vec::len).sum::<usize>() as f64 / n,
    );
    out.set("wire.decode_failures", failures as f64);
}

/// `transport.channel_ns_per_msg` (and `simnet_ns_per_msg` when the
/// workload runs on a faulty network): one hop of every sampled message
/// through a [`FaultLink`].
pub fn transport<M: Clone + MessageCost>(
    out: &mut Fields,
    msgs: &[M],
    simnet: Option<(u64, LinkFaults)>,
) {
    if msgs.is_empty() {
        return;
    }
    let hop = |net: &dyn Transport| -> f64 {
        median_batch(|| {
            // Messages move through the link by value; the copies are
            // made before the clock starts.
            let batch: Vec<(SiteId, M)> = msgs.iter().cloned().map(|m| (0, m)).collect();
            let mut link = FaultLink::new(net.link(0, 1, true));
            let mut sink = Vec::with_capacity(2 * batch.len());
            let t0 = Instant::now();
            for (sid, m) in batch {
                let mass = m.mass();
                link.receive((sid, m), mass, &mut sink);
            }
            link.close(&mut sink);
            let ns = t0.elapsed().as_nanos() as f64;
            black_box(&sink);
            ns / msgs.len() as f64
        })
    };
    out.set("transport.channel_ns_per_msg", hop(&ChannelTransport));
    if let Some((seed, faults)) = simnet {
        let net = SimNet::new(FaultPlan::up_only(seed, faults));
        out.set("transport.simnet_ns_per_msg", hop(&net));
    }
}

/// `broadcast.disseminate_us_per_event`: the plane's dissemination of
/// `events` broadcasts at the workload's plan, on a clean transport.
pub fn disseminate(
    out: &mut Fields,
    plane: BroadcastPlane,
    plan: &TopologyPlan,
    payload_bytes: u64,
    events: usize,
) {
    let mut state = BroadcastState::new(plane, plan.sites());
    let mut stats = CommStats::for_plan(plan);
    let ns = ns_per_call(events, || {
        black_box(state.disseminate(plan, payload_bytes, &mut stats, &ChannelTransport));
    });
    out.set("broadcast.disseminate_us_per_event", ns * 1e-3);
}

/// `sketch.mg_*`: Misra–Gries updates over a prefix of the stream at the
/// site's capacity, and merges of the sampled flushed summaries.
pub fn misra_gries<'a>(
    out: &mut Fields,
    stream: &[(u64, f64)],
    error_bound: f64,
    flushed: impl Iterator<Item = &'a MgSummary> + Clone,
) {
    let update = ns_per_call(1, || {
        let mut mg = MgSummary::with_error_bound(error_bound);
        for &(e, w) in stream {
            mg.update(e, w);
        }
        black_box(&mg);
    });
    out.set("sketch.mg_update_ns", update / stream.len().max(1) as f64);
    let merges = flushed.clone().count();
    if merges > 0 {
        let merge = ns_per_call(1, || {
            let mut acc = MgSummary::with_error_bound(error_bound);
            for s in flushed.clone() {
                acc.merge(s);
            }
            black_box(&acc);
        });
        out.set("sketch.mg_merge_us", merge * 1e-3 / merges as f64);
    }
}

/// `linalg.*` at the workload's `d`: `a` is a `k × d` sample (the
/// coordinator's sketch or a run of input rows), `x` a unit direction.
pub fn linalg(out: &mut Fields, profile: LinalgProfile, a: &Matrix, x: &[f64]) {
    let k = profile.kernels;
    let gram = k.gram(a);
    out.set(
        "linalg.gram_us",
        ns_per_call(8, || {
            black_box(k.gram(black_box(a)));
        }) * 1e-3,
    );
    out.set(
        "linalg.matmul_us",
        ns_per_call(8, || {
            black_box(k.matmul(black_box(a), &gram));
        }) * 1e-3,
    );
    out.set(
        "linalg.jacobi_eigen_ms",
        ns_per_call(2, || {
            black_box(jacobi_eigen_sym(black_box(&gram)).expect("eigensolve"));
        }) * 1e-6,
    );
    out.set(
        "linalg.gram_svd_ms",
        ns_per_call(2, || {
            black_box(k.svd_values_vectors(black_box(a)).expect("svd"));
        }) * 1e-6,
    );
    out.set(
        "linalg.apply_norm_sq_us",
        ns_per_call(64, || {
            black_box(a.apply_norm_sq(black_box(x)));
        }) * 1e-3,
    );
    out.set(
        "linalg.spectral_norm_power_us",
        ns_per_call(4, || {
            black_box(spectral_norm_sym_power(black_box(&gram), 200));
        }) * 1e-3,
    );
}

/// `sketch.fd_*` and `sketch.eh_*`: Frequent Directions at the window
/// protocol's `(d, ℓ)` over a run of input rows, and the exponential
/// histogram of singleton FD buckets a site keeps.
pub fn frequent_directions(
    out: &mut Fields,
    rows: &[Vec<f64>],
    ell: usize,
    profile: LinalgProfile,
    window: u64,
    per_level: usize,
) {
    let d = rows[0].len();
    let fresh = || {
        FrequentDirections::new(d, ell)
            .using_shrink(profile.shrink)
            .using_kernels(profile.kernels)
    };
    let update = ns_per_call(1, || {
        let mut fd = fresh();
        for r in rows {
            fd.update(r);
        }
        black_box(&fd);
    });
    out.set(
        "sketch.fd_update_us_per_row",
        update * 1e-3 / rows.len() as f64,
    );
    // A shrink is the only thing that raises the sketch's loss.
    let mut fd = fresh();
    let mut shrinks = 0u64;
    for r in rows {
        let before = fd.shrink_loss();
        fd.update(r);
        if fd.shrink_loss() > before {
            shrinks += 1;
        }
    }
    out.set("sketch.fd_shrinks", shrinks as f64);

    let half = rows.len() / 2;
    let (mut left, mut right) = (fresh(), fresh());
    rows[..half].iter().for_each(|r| left.update(r));
    rows[half..].iter().for_each(|r| right.update(r));
    out.set(
        "sketch.fd_merge_us",
        ns_per_call(4, || {
            let mut acc = left.clone();
            acc.merge(black_box(&right));
            black_box(&acc);
        }) * 1e-3,
    );

    let mut buckets = 0usize;
    let insert = ns_per_call(1, || {
        let mut eh: ExpHistogram<FrequentDirections> = ExpHistogram::new(window, per_level);
        for (t, r) in rows.iter().enumerate() {
            let mass: f64 = r.iter().map(|v| v * v).sum();
            let mut fd = fresh();
            fd.update(r);
            eh.insert_bucket(WinBucket::singleton(t as u64, fd, mass));
        }
        buckets = eh.bucket_count();
        black_box(&eh);
    });
    out.set("sketch.eh_insert_us", insert * 1e-3 / rows.len() as f64);
    out.set("sketch.eh_buckets", buckets as f64);
}

/// `churn.snapshot_capture_us` / `churn.snapshot_restore_us`: the root
/// complex's wire snapshot, on the final coordinator and interior nodes.
pub fn snapshot<C: WireCodec, A: WireCodec>(out: &mut Fields, coordinator: &C, aggregators: &[A]) {
    out.set(
        "churn.snapshot_capture_us",
        ns_per_call(4, || {
            black_box(Snapshot::capture(coordinator, aggregators));
        }) * 1e-3,
    );
    let snap = Snapshot::capture(coordinator, aggregators);
    out.set(
        "churn.snapshot_restore_us",
        ns_per_call(4, || {
            black_box(snap.restore::<C, A>().expect("snapshot restores"));
        }) * 1e-3,
    );
}
