//! The benchmark's fixed vocabulary, as the program needs it: workload
//! names with the reason each exists, the end-to-end metrics with unit
//! and regression bound, and the per-layer metrics with the end-to-end
//! metric and workload each is expected to move. `BENCHMARK.json` at the
//! repo root is the hand-maintained source for the driver (it also holds
//! each metric's direction); names, units and bounds here repeat it.

use crate::workloads;

/// Seconds one run in the driver's form measures (`run_seconds`), and so
/// what `run` and `self-check` give each workload.
pub const RUN_SECONDS: f64 = 33.0;

/// The workloads, in the order a round runs them. Why each exists is
/// recorded at the top of its module, in `BENCHMARK.json` and in the
/// README.
pub const WORKLOADS: [&str; 4] = [
    workloads::hh_tree_seq::NAME,
    workloads::mt_p2_star::NAME,
    workloads::hh_bigm_gossip::NAME,
    workloads::swfd_churn::NAME,
];

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    /// Share of the parent's median by which the metric may get worse.
    pub bound: f64,
    /// A count of one seed's work: repeats bit for bit at that seed, so
    /// its bound only covers the spread between seeds.
    pub exact: bool,
}

const fn count(name: &'static str, unit: &'static str, bound: f64) -> EndToEnd {
    EndToEnd {
        name,
        unit,
        bound,
        exact: true,
    }
}

const fn measured(name: &'static str, unit: &'static str, bound: f64) -> EndToEnd {
    EndToEnd {
        name,
        unit,
        bound,
        exact: false,
    }
}

/// The acceptance rule compares runs at ten different seeds, so a count's
/// bound has to cover its spread between seeds (largest seen: 5.0 %, and
/// 8.3 % at the 99.5th percentile of 10-seed draws from 40); one seed's
/// count is compared bit for bit by `self-check`. The wall-clock bounds
/// are what this shared 2-core VM supports, not what ISSUE 12 asked for
/// (5–10 %): fourteen runs of `hh-p1-tree-seq` at one seed, same binary,
/// gave 2.83–3.64 M arrivals/s (README, "Noise"). A change inside that
/// spread is unresolved, not unchanged.
pub const END_TO_END: [EndToEnd; 10] = [
    measured("arrivals_per_s", "1/s", 0.25),
    count("msgs_total", "msgs", 0.10),
    count("bytes_total", "B", 0.10),
    count("msgs_over_bound", "ratio", 0.10),
    count("bound_headroom", "ratio", 0.10),
    measured("query_p50_us", "us", 0.25),
    measured("query_p95_us", "us", 0.25),
    count("coord_state_bytes", "B", 0.10),
    measured("peak_rss_mb", "MiB", 0.05),
    measured("setup_s", "s", 0.25),
];

pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    /// The end-to-end metric(s) this one should move, and on which
    /// workload; "-" where nothing is gated on it.
    pub moves: &'static str,
}

const fn pl(name: &'static str, unit: &'static str, moves: &'static str) -> PerLayer {
    PerLayer { name, unit, moves }
}

const TREE: &str = "arrivals_per_s on hh-p1-tree-seq";
const TREE_MSGS: &str = "arrivals_per_s, msgs_total, bytes_total on hh-p1-tree-seq";
const STAR: &str = "arrivals_per_s on mt-p2-highrank-star";
const STAR_Q: &str = "query_p50_us, query_p95_us on mt-p2-highrank-star";
const GOSSIP: &str =
    "msgs_total, bytes_total, msgs_over_bound, arrivals_per_s on hh-p1-bigm-gossip";
const DEPLOY: &str = "setup_s, peak_rss_mb on hh-p1-bigm-gossip";
const CHURN: &str = "arrivals_per_s on swfd-churn-faulty";
const CHURN_STATE: &str = "arrivals_per_s, coord_state_bytes on swfd-churn-faulty";
const CHURN_ERR: &str = "bound_headroom on swfd-churn-faulty";
const CHURN_BYTES: &str = "bytes_total on swfd-churn-faulty";
const ANY_MSGS: &str = "msgs_total, msgs_over_bound on every workload";
const ANY_BYTES: &str = "bytes_total on every workload";
const NONE: &str = "-";

pub const PER_LAYER: [PerLayer; 83] = [
    pl("site.observe_calls", "count", TREE),
    pl(
        "site.observe_busy_s",
        "s",
        "arrivals_per_s on hh-p1-tree-seq, mt-p2-highrank-star",
    ),
    pl("site.ns_per_arrival", "ns", TREE),
    pl("site.up_msgs", "msgs", ANY_MSGS),
    pl("site.arrivals_per_up_msg", "ratio", ANY_MSGS),
    pl("site.on_broadcast_calls", "count", GOSSIP),
    pl("site.on_broadcast_busy_s", "s", GOSSIP),
    pl("aggregator.absorb_calls", "count", TREE),
    pl("aggregator.absorb_busy_s", "s", TREE),
    pl("aggregator.flush_calls", "count", TREE),
    pl("aggregator.flush_busy_s", "s", TREE),
    pl("aggregator.msgs_in", "msgs", TREE),
    pl("aggregator.msgs_out", "msgs", TREE_MSGS),
    pl("aggregator.forward_ratio", "ratio", TREE_MSGS),
    pl("coordinator.receive_calls", "count", ANY_MSGS),
    pl("coordinator.receive_busy_s", "s", STAR),
    pl("coordinator.broadcasts_emitted", "count", GOSSIP),
    pl("coordinator.query_calls", "count", NONE),
    pl("coordinator.query_busy_s", "s", STAR_Q),
    pl(
        "coordinator.state_bytes",
        "B",
        "coord_state_bytes on every workload",
    ),
    pl("runner.self_s", "s", TREE),
    pl("runner.self_share", "ratio", TREE),
    pl("engine.tasks", "count", NONE),
    pl("engine.steals", "count", NONE),
    pl("engine.parks", "count", NONE),
    pl("engine.wakeups", "count", NONE),
    pl("engine.pool_wall_over_inline", "ratio", NONE),
    pl("comm.up_msgs", "msgs", ANY_MSGS),
    pl("comm.root_in_msgs", "msgs", TREE),
    pl("comm.max_fan_in", "count", NONE),
    pl("comm.hops", "count", NONE),
    pl("comm.bytes_up", "B", ANY_BYTES),
    pl("comm.bytes_down", "B", ANY_BYTES),
    pl("broadcast.events", "count", GOSSIP),
    pl("broadcast.deliveries", "msgs", GOSSIP),
    pl("broadcast.reach", "count", NONE),
    pl("broadcast.deliveries_per_reach", "ratio", GOSSIP),
    pl("broadcast.peak_out", "count", NONE),
    pl("broadcast.lag_rounds", "count", NONE),
    pl(
        "broadcast.stale",
        "count",
        "bound_headroom on hh-p1-bigm-gossip",
    ),
    pl("broadcast.disseminate_us_per_event", "us", GOSSIP),
    pl("transport.channel_ns_per_msg", "ns", TREE),
    pl("transport.simnet_ns_per_msg", "ns", CHURN),
    pl("transport.dropped", "msgs", CHURN_ERR),
    pl("transport.duplicated", "msgs", CHURN_ERR),
    pl("transport.delayed", "msgs", CHURN_ERR),
    pl("transport.reordered", "msgs", CHURN_ERR),
    pl("transport.undercount_mass_share", "ratio", CHURN_ERR),
    pl("transport.overcount_mass_share", "ratio", CHURN_ERR),
    pl("wire.msgs_sampled", "msgs", NONE),
    pl("wire.encode_ns_per_msg", "ns", CHURN),
    pl("wire.decode_ns_per_msg", "ns", CHURN),
    pl("wire.bytes_per_msg", "B", CHURN_BYTES),
    pl("wire.decode_failures", "count", NONE),
    pl("churn.segments", "count", NONE),
    pl("churn.resplits", "count", CHURN),
    pl("churn.departed_msgs", "msgs", NONE),
    pl("churn.replayed_msgs", "msgs", CHURN),
    pl("churn.recovery_lost_mass_share", "ratio", CHURN_ERR),
    pl("churn.snapshot_bytes", "B", CHURN_STATE),
    pl("churn.snapshot_capture_us", "us", CHURN),
    pl("churn.snapshot_restore_us", "us", CHURN),
    pl("sketch.mg_update_ns", "ns", TREE),
    pl("sketch.mg_merge_us", "us", TREE),
    pl("sketch.fd_update_us_per_row", "us", CHURN),
    pl("sketch.fd_shrinks", "count", CHURN),
    pl("sketch.fd_merge_us", "us", CHURN_STATE),
    pl("sketch.eh_insert_us", "us", CHURN),
    pl("sketch.eh_buckets", "count", CHURN_STATE),
    pl("linalg.gram_us", "us", STAR),
    pl("linalg.matmul_us", "us", STAR),
    pl("linalg.jacobi_eigen_ms", "ms", STAR),
    pl("linalg.gram_svd_ms", "ms", CHURN_STATE),
    pl("linalg.apply_norm_sq_us", "us", STAR_Q),
    pl("linalg.spectral_norm_power_us", "us", STAR),
    pl("data.gen_s", "s", "setup_s on every workload"),
    pl("data.truth_s", "s", NONE),
    pl("data.deploy_s", "s", DEPLOY),
    pl("trace.overhead_ratio", "ratio", NONE),
    pl("trace.spans", "count", NONE),
    pl("harness.reps", "count", NONE),
    pl("harness.rep_s_median", "s", NONE),
    pl("harness.rep_s_iqr", "s", NONE),
];

pub fn is_workload(name: &str) -> bool {
    WORKLOADS.contains(&name)
}
