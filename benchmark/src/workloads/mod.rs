//! The four workloads and what they share: the named-value record one
//! repetition produces, input checksums, and the per-layer values read
//! off `CommStats` and the trace recorder.
//!
//! A repetition is one child process (`-- rep`). It regenerates its
//! inputs from the seed, sets the deployment up, feeds the whole
//! pre-generated stream from one thread as fast as the deployment accepts
//! it (a closed loop with one client — a batch job), checks every answer
//! against exact ground truth outside the timed region, and prints its
//! [`Fields`].

pub mod hh_bigm_gossip;
pub mod hh_tree_seq;
pub mod mt_p2_star;
pub mod swfd_churn;

use std::collections::BTreeMap;
use std::time::Instant;

use cma_stream::CommStats;

use crate::trace::{self, Kind};

/// Named values measured by one repetition: end-to-end inputs
/// (`arrivals`, `ingest_s`, …) and, from a traced repetition, the
/// per-layer metrics under their dotted names.
#[derive(Debug, Default, Clone)]
pub struct Fields(pub BTreeMap<String, f64>);

impl Fields {
    pub fn set(&mut self, name: &str, value: f64) {
        self.0.insert(name.to_string(), value);
    }

    pub fn get(&self, name: &str) -> f64 {
        *self
            .0
            .get(name)
            .unwrap_or_else(|| panic!("repetition did not report `{name}`"))
    }

    pub fn get_or(&self, name: &str, default: f64) -> f64 {
        self.0.get(name).copied().unwrap_or(default)
    }

    /// Stores `values` as `name.len` and `name.0`, `name.1`, ….
    pub fn set_series(&mut self, name: &str, values: &[f64]) {
        self.set(&format!("{name}.len"), values.len() as f64);
        for (i, v) in values.iter().enumerate() {
            self.set(&format!("{name}.{i}"), *v);
        }
    }

    /// Reads back what [`Fields::set_series`] stored.
    pub fn series(&self, name: &str) -> Vec<f64> {
        (0..self.get(&format!("{name}.len")) as usize)
            .map(|i| self.get(&format!("{name}.{i}")))
            .collect()
    }
}

/// Series every repetition reports: seconds per ingest segment and
/// microseconds per query, in the order they ran. Segment `k` (query
/// `i`) does identical work in every repetition of one (workload, seed).
pub const SEGMENT_S: &str = "segment_s";
pub const QUERY_US: &str = "query_us";

/// Values that must be bit-identical in every repetition of one
/// (workload, seed): the work per repetition is provably the same, which
/// is what makes taking the least-interfered repetition's time legitimate.
pub const IDENTICAL: [&str; 8] = [
    "checksum",
    "arrivals",
    "msgs_total",
    "bytes_total",
    "msgs_bound",
    "err_over_bound",
    "coord_state_bytes",
    "queries",
];

/// Workload sizes: full, or a tenth of the stream for `--quick`.
#[derive(Debug, Clone, Copy)]
pub struct Scale {
    pub quick: bool,
}

impl Scale {
    pub fn stream(&self, full: usize) -> usize {
        if self.quick {
            full / 10
        } else {
            full
        }
    }
}

/// Seed of `run`, `trace` and `self-check` when none is given.
pub const DEFAULT_SEED: u64 = 1;

/// Input checksums at [`DEFAULT_SEED`] and full size. Every repetition
/// regenerates its inputs; at that seed it also asserts they still hash
/// to these, so a drifting generator (`cma-data`, the vendored `rand`)
/// fails loudly instead of silently moving every number.
const PINNED_CHECKSUMS: [(&str, f64); 4] = [
    (hh_tree_seq::NAME, 1_561_492_073_105_296.0),
    (mt_p2_star::NAME, 4_000_366_491_923_296.0),
    (hh_bigm_gossip::NAME, 2_376_618_199_148_699.0),
    (swfd_churn::NAME, 2_240_261_583_691_491.0),
];

/// Runs one repetition of `workload`.
///
/// # Panics
/// Panics on an unknown workload name (checked by the caller), when the
/// deployment itself panics, or when the generated inputs drifted.
pub fn rep(workload: &str, seed: u64, scale: Scale, traced: bool) -> Fields {
    let mut out = Fields::default();
    // Tracing is a const parameter of the wrappers, so both variants of
    // every workload are compiled and one is picked here.
    macro_rules! run {
        ($module:ident) => {
            if traced {
                $module::rep::<true>(seed, scale, &mut out)
            } else {
                $module::rep::<false>(seed, scale, &mut out)
            }
        };
    }
    match workload {
        hh_tree_seq::NAME => run!(hh_tree_seq),
        mt_p2_star::NAME => run!(mt_p2_star),
        hh_bigm_gossip::NAME => run!(hh_bigm_gossip),
        swfd_churn::NAME => run!(swfd_churn),
        _ => panic!("unknown workload {workload}"),
    }
    if seed == DEFAULT_SEED && !scale.quick {
        let (_, pinned) = PINNED_CHECKSUMS
            .iter()
            .find(|(name, _)| *name == workload)
            .expect("every workload has a pinned checksum");
        assert_eq!(
            out.get("checksum"),
            *pinned,
            "{workload}: inputs generated from seed {seed} no longer match the pinned checksum"
        );
    }
    if traced {
        role_fields(&mut out);
    }
    out
}

/// Set-ups are repeated until this much time has passed.
const MIN_SETUP_S: f64 = 0.5;

/// Runs one full set-up (`f`: generate, truth, partition, deploy) and
/// returns its product with the seconds one set-up takes. The set-up is
/// repeated — at least twice, and until [`MIN_SETUP_S`] has passed — and
/// the fastest is reported: every repeat does identical work, so the
/// least-interfered one times it, and `setup_s` is never one
/// few-millisecond sample.
pub fn timed_setup<P>(mut f: impl FnMut() -> P) -> (P, f64) {
    let t0 = Instant::now();
    let mut best = f64::INFINITY;
    let mut runs = 0u32;
    loop {
        let (product, seconds) = timed(&mut f);
        best = best.min(seconds);
        runs += 1;
        if runs >= 2 && t0.elapsed().as_secs_f64() >= MIN_SETUP_S {
            return (product, best);
        }
        // Dropped before the next set-up so peak memory stays one
        // deployment's.
        drop(product);
    }
}

/// Seconds `f` takes, with its result.
pub fn timed<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let t0 = Instant::now();
    let r = f();
    (r, t0.elapsed().as_secs_f64())
}

/// Order-sensitive 52-bit checksum (FNV-1a over words), exact in an f64.
#[derive(Debug, Clone, Copy)]
pub struct Checksum(u64);

impl Checksum {
    pub fn new() -> Self {
        Checksum(0xcbf2_9ce4_8422_2325)
    }

    #[inline]
    pub fn word(&mut self, w: u64) {
        self.0 = (self.0 ^ w).wrapping_mul(0x0000_0100_0000_01b3);
    }

    #[inline]
    pub fn f64(&mut self, x: f64) {
        self.word(x.to_bits());
    }

    pub fn finish(&self) -> f64 {
        (self.0 >> 12) as f64
    }
}

/// The paper's message bound the counts are read against:
/// `(m/ε)·log₂(β·N)`.
pub fn msgs_bound(m: usize, eps: f64, beta: f64, n: usize) -> f64 {
    (m as f64 / eps) * (beta * n as f64).log2()
}

/// `p`-th percentile (nearest rank) of a sample.
pub fn percentile(sample: &[f64], p: f64) -> f64 {
    assert!(!sample.is_empty(), "percentile of nothing");
    let mut sorted = sample.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("finite sample"));
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Records what the repetition timed: every ingest segment and every
/// query.
pub fn timing_fields(out: &mut Fields, segment_s: &[f64], query_us: &[f64]) {
    out.set_series(SEGMENT_S, segment_s);
    out.set_series(QUERY_US, query_us);
    out.set("ingest_s", segment_s.iter().sum());
    out.set("queries", query_us.len() as f64);
}

/// End-to-end counts plus the `comm.*` and `broadcast.*` layer values of
/// a finished run.
pub fn comm_fields(out: &mut Fields, stats: &CommStats, bound: f64) {
    out.set("arrivals", stats.arrivals as f64);
    out.set("msgs_total", stats.total() as f64);
    out.set("bytes_total", (stats.bytes_up + stats.bytes_down) as f64);
    out.set("msgs_bound", bound);
    out.set("comm.up_msgs", stats.up_msgs as f64);
    out.set(
        "comm.root_in_msgs",
        stats.node_in_msgs.last().copied().unwrap_or(0) as f64,
    );
    out.set("comm.max_fan_in", stats.max_fan_in as f64);
    out.set("comm.hops", stats.per_level.len() as f64);
    out.set("comm.bytes_up", stats.bytes_up as f64);
    out.set("comm.bytes_down", stats.bytes_down as f64);
    out.set("broadcast.events", stats.broadcast_events as f64);
    out.set("broadcast.deliveries", stats.broadcast_deliveries as f64);
    out.set("broadcast.reach", stats.broadcast_reach as f64);
    out.set(
        "broadcast.deliveries_per_reach",
        ratio(
            stats.broadcast_deliveries as f64,
            stats.broadcast_reach as f64,
        ),
    );
    out.set("broadcast.peak_out", stats.broadcast_peak_out as f64);
    out.set("broadcast.lag_rounds", stats.broadcast_lag_rounds as f64);
    out.set("broadcast.stale", stats.broadcast_stale as f64);
}

/// `a / b`, or 0 when the layer did no work (`b == 0`).
pub fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// The `site.*`, `aggregator.*`, `coordinator.*`, `runner.*` and
/// `trace.spans` values, read off the recorder after a traced run.
fn role_fields(out: &mut Fields) {
    let arrivals = out.get("arrivals");
    let observe = trace::totals(Kind::SiteObserve);
    out.set("site.observe_calls", observe.calls as f64);
    out.set("site.observe_busy_s", observe.busy_s());
    out.set(
        "site.ns_per_arrival",
        ratio(observe.busy_ns as f64, arrivals),
    );
    out.set("site.up_msgs", observe.produced as f64);
    out.set(
        "site.arrivals_per_up_msg",
        ratio(arrivals, observe.produced as f64),
    );
    let site_bc = trace::totals(Kind::SiteBroadcast);
    out.set("site.on_broadcast_calls", site_bc.calls as f64);
    out.set("site.on_broadcast_busy_s", site_bc.busy_s());

    let absorb = trace::totals(Kind::AggAbsorb);
    let flush = trace::totals(Kind::AggFlush);
    out.set("aggregator.absorb_calls", absorb.calls as f64);
    out.set("aggregator.absorb_busy_s", absorb.busy_s());
    out.set("aggregator.flush_calls", flush.calls as f64);
    out.set("aggregator.flush_busy_s", flush.busy_s());
    out.set("aggregator.msgs_in", absorb.calls as f64);
    out.set("aggregator.msgs_out", flush.produced as f64);
    out.set(
        "aggregator.forward_ratio",
        ratio(flush.produced as f64, absorb.calls as f64),
    );

    let receive = trace::totals(Kind::CoordReceive);
    let query = trace::totals(Kind::CoordQuery);
    out.set("coordinator.receive_calls", receive.calls as f64);
    out.set("coordinator.receive_busy_s", receive.busy_s());
    out.set("coordinator.broadcasts_emitted", receive.produced as f64);
    out.set("coordinator.query_calls", query.calls as f64);
    out.set("coordinator.query_busy_s", query.busy_s());
    out.set("coordinator.state_bytes", out.get("coord_state_bytes"));

    // The driver's own time: the ingest spans minus every call span
    // under them (routing, staging, transport, broadcast dissemination).
    let ingest = trace::totals(Kind::Ingest).busy_s();
    let children = trace::children_busy_s();
    assert!(
        children <= ingest,
        "child spans ({children} s) exceed their ingest spans ({ingest} s)"
    );
    out.set("runner.self_s", ingest - children);
    out.set("runner.self_share", ratio(ingest - children, ingest));
    out.set("trace.spans", trace::span_count() as f64);
}
