//! `BENCH_protocols.json` recorder — the perf trajectory across PRs.
//!
//! Runs every protocol through the batch-first runner across the batch
//! and topology axes, measuring wall-clock throughput *and* the measured
//! communication profile (total cost, root fan-in, broadcast fan-out,
//! hops). The **workers** axis (`"mode": "pooled"` records) runs the
//! same deployments on the bounded worker-pool execution engine at
//! several pool sizes — fan-in relief at the root measured under real
//! concurrency — including an `m = 1024` deployment (`"sites": 1024`
//! rows), plus `"adaptive8"` topology rows where the fanout is resolved by the
//! two-pass measured-fan-in planner rather than chosen statically.
//! Since PR 9 the grid adds a **churn** axis (`"mode": "churn"`
//! records): representative protocols through the churn/recovery
//! driver under a leave/rejoin schedule with a mid-run coordinator
//! crash and snapshot + WAL-replay recovery, recording the measured
//! snapshot wire size (`"snapshot_bytes"`). Since the gossip PR the
//! grid adds a **broadcast-plane** axis (`"plane"` records): HH-P1 at
//! m ∈ {1024, 65536} under root fan-out, tree cascade, and push–pull
//! anti-entropy gossip, recording the broadcast shape counters
//! (`"broadcast_reach"`, `"broadcast_peak_out"`,
//! `"broadcast_lag_rounds"`, `"broadcast_stale"`) that show gossip's
//! per-node delivery cost staying flat as m grows 64×. One JSON
//! document is
//! written so successive PRs can diff throughput and communication
//! shape (`bench_diff` automates the comparison).
//!
//! Usage:
//! ```text
//! bench_protocols [--out BENCH_protocols.json] [--scale 1.0] [--sites 64]
//! ```
//! Build `--release`; the debug profile underreports throughput ~20×.

use cma_bench::{
    resolve_hh_adaptive, run_hh_churn, run_hh_engine, run_hh_topology, run_matrix_churn,
    run_matrix_engine, run_matrix_timed, run_matrix_topology, run_swfd_engine, run_swfd_timed,
    run_swfd_topology, run_swmg_churn, run_swmg_engine, run_swmg_topology, Args, HhProtocol,
    MatrixProtocol,
};
use cma_core::window::{SwFdConfig, SwMgConfig};
use cma_core::{HhConfig, MatrixConfig, Topology};
use cma_data::{SyntheticMatrixStream, WeightedZipfStream};
use cma_linalg::LinalgProfile;
use cma_stream::runner::engine::ThreadedConfig;
use cma_stream::{BroadcastPlane, ChurnConfig, ChurnEvent, ChurnSchedule, Executor};
use std::fmt::Write as _;
use std::time::Instant;

const BATCHES: [usize; 2] = [64, 1024];

fn topologies() -> [(&'static str, Topology); 3] {
    [
        ("star", Topology::Star),
        ("tree4", Topology::Tree { fanout: 4 }),
        ("tree8", Topology::Tree { fanout: 8 }),
    ]
}

struct Record {
    family: &'static str,
    protocol: &'static str,
    batch: usize,
    topology: &'static str,
    mode: &'static str,
    /// Pool size of a `"pooled"` record; 0 = not applicable (omitted
    /// from the JSON, keeping pre-pooled record keys stable).
    workers: usize,
    /// Site count when it differs from the grid default in `meta`
    /// (the m = 1024 rows); 0 = default (omitted from the JSON).
    sites: usize,
    /// Row dimensionality of a `d`-axis record; 0 = the grid default
    /// `mt_dim` in `meta` (omitted from the JSON).
    dim: usize,
    /// Linalg profile of a `d`-axis record (`"naive"` / `"blocked"`);
    /// empty = the build default (omitted from the JSON).
    profile: &'static str,
    /// Broadcast plane of a plane-axis record (`"fanout"` /
    /// `"cascade"` / `"gossip4x24"`); empty = the grid default
    /// (omitted from the JSON, keeping pre-gossip record keys stable).
    plane: &'static str,
    /// Churn scenario of a churn-driver record (PR 9, e.g.
    /// `"leave+join+crash"`); empty = no churn (omitted from the JSON,
    /// keeping pre-churn record keys stable).
    churn: &'static str,
    /// Measured wire size of the boundary snapshot a churn record
    /// captured; 0 = none taken (omitted from the JSON).
    snapshot_bytes: u64,
    elapsed_s: f64,
    throughput: f64,
    err: f64,
    comm: cma_bench::CommSummary,
}

fn emit(records: &[Record], meta: &str) -> String {
    let mut out = String::from("{\n");
    let _ = writeln!(out, "  \"meta\": {meta},");
    out.push_str("  \"results\": [\n");
    for (i, r) in records.iter().enumerate() {
        let c = &r.comm;
        let _ = write!(
            out,
            "    {{\"family\": \"{}\", \"protocol\": \"{}\", \"batch\": {}, \"topology\": \"{}\", \
             \"mode\": \"{}\", ",
            r.family, r.protocol, r.batch, r.topology, r.mode,
        );
        if r.workers > 0 {
            let _ = write!(out, "\"workers\": {}, ", r.workers);
        }
        if r.sites > 0 {
            let _ = write!(out, "\"sites\": {}, ", r.sites);
        }
        if r.dim > 0 {
            let _ = write!(out, "\"dim\": {}, ", r.dim);
        }
        if !r.profile.is_empty() {
            let _ = write!(out, "\"profile\": \"{}\", ", r.profile);
        }
        if !r.plane.is_empty() {
            let _ = write!(out, "\"plane\": \"{}\", ", r.plane);
        }
        if !r.churn.is_empty() {
            let _ = write!(out, "\"churn\": \"{}\", ", r.churn);
        }
        if r.snapshot_bytes > 0 {
            let _ = write!(out, "\"snapshot_bytes\": {}, ", r.snapshot_bytes);
        }
        let _ = write!(
            out,
            "\"elapsed_s\": {:.4}, \"throughput_per_s\": {:.0}, \"err\": {:.6e}, \
             \"msgs_total\": {}, \"up_msgs\": {}, \"broadcast_events\": {}, \"broadcast_cost\": {}, \
             \"broadcast_reach\": {}, \"broadcast_peak_out\": {}, \"broadcast_lag_rounds\": {}, \
             \"broadcast_stale\": {}, \
             \"max_fan_in\": {}, \"root_in_msgs\": {}, \"hops\": {}, \
             \"bytes_up\": {}, \"bytes_down\": {}",
            r.elapsed_s,
            r.throughput,
            r.err,
            c.total,
            c.up_msgs,
            c.broadcast_events,
            c.broadcast_cost,
            c.broadcast_reach,
            c.broadcast_peak_out,
            c.broadcast_lag_rounds,
            c.broadcast_stale,
            c.max_fan_in,
            c.root_in_msgs,
            c.hops,
            c.bytes_up,
            c.bytes_down,
        );
        // Scheduler telemetry of pooled records (PR 7): totals plus
        // slash-separated per-worker detail (the record schema carries
        // no arrays — see `report.rs`).
        if let Some(e) = &r.comm.engine {
            let _ = write!(
                out,
                ", \"tasks\": {}, \"steals\": {}, \"parks\": {}, \"wakeups\": {}, \
                 \"worker_steals\": \"{}\", \"worker_parks\": \"{}\"",
                e.tasks, e.steals, e.parks, e.wakeups, e.worker_steals, e.worker_parks,
            );
        }
        out.push('}');
        out.push_str(if i + 1 < records.len() { ",\n" } else { "\n" });
    }
    out.push_str("  ]\n}\n");
    out
}

fn main() {
    let args = Args::from_env();
    let scale: f64 = args.get("scale", 1.0);
    let sites: usize = args.get("sites", 64);
    let out_path = args.get_str("out", "BENCH_protocols.json");

    let hh_n = (120_000.0 * scale) as usize;
    let mt_n = (6_000.0 * scale) as usize;
    let hh_cfg = HhConfig::new(sites, 0.05).with_seed(1);
    let mt_cfg = MatrixConfig::new(sites, 0.1, 44).with_seed(2);

    let hh_stream = WeightedZipfStream::new(10_000, 2.0, 1_000.0, 3).take_vec(hh_n);
    let mt_rows: Vec<Vec<f64>> = {
        let mut s = SyntheticMatrixStream::pamap_like(5);
        (0..mt_n).map(|_| s.next_row()).collect()
    };

    let mut records = Vec::new();

    for proto in [
        HhProtocol::P1,
        HhProtocol::P2,
        HhProtocol::P3,
        HhProtocol::P4,
    ] {
        for batch in BATCHES {
            for (tname, topo) in topologies() {
                eprintln!("hh {} batch={batch} {tname}…", proto.name());
                let t0 = Instant::now();
                let (run, comm) = run_hh_topology(proto, &hh_cfg, &hh_stream, 0.05, topo, batch);
                let dt = t0.elapsed().as_secs_f64();
                records.push(Record {
                    plane: "",
                    family: "hh",
                    protocol: proto.name(),
                    batch,
                    topology: tname,
                    mode: "seq",
                    workers: 0,
                    sites: 0,
                    dim: 0,
                    profile: "",
                    churn: "",
                    snapshot_bytes: 0,
                    elapsed_s: dt,
                    throughput: hh_n as f64 / dt,
                    err: run.eval.avg_rel_err,
                    comm,
                });
            }
        }
    }

    for proto in [
        MatrixProtocol::P1,
        MatrixProtocol::P2,
        MatrixProtocol::P3,
        MatrixProtocol::P4,
    ] {
        for batch in BATCHES {
            for (tname, topo) in topologies() {
                eprintln!("matrix {} batch={batch} {tname}…", proto.name());
                let t0 = Instant::now();
                let (run, comm) = run_matrix_topology(
                    proto,
                    &mt_cfg,
                    || mt_rows.iter().cloned(),
                    mt_n,
                    topo,
                    batch,
                );
                let dt = t0.elapsed().as_secs_f64();
                records.push(Record {
                    plane: "",
                    family: "matrix",
                    protocol: proto.name(),
                    batch,
                    topology: tname,
                    mode: "seq",
                    workers: 0,
                    sites: 0,
                    dim: 0,
                    profile: "",
                    churn: "",
                    snapshot_bytes: 0,
                    elapsed_s: dt,
                    throughput: mt_n as f64 / dt,
                    err: run.err,
                    comm,
                });
            }
        }
    }

    // The window axis (PR 4): the two sliding-window protocols over the
    // same workloads, tracking the last `W` global arrivals. Same
    // sequential batch × topology grid.
    let swmg_cfg = SwMgConfig::new(sites, 0.05, 8_192, 64);
    let swfd_cfg = SwFdConfig::new(sites, 0.1, 2_048, mt_cfg.dim, 40);
    for batch in BATCHES {
        for (tname, topo) in topologies() {
            eprintln!("window SwMg batch={batch} {tname}…");
            let t0 = Instant::now();
            let (run, comm) = run_swmg_topology(&swmg_cfg, &hh_stream, 0.05, topo, batch);
            let dt = t0.elapsed().as_secs_f64();
            records.push(Record {
                plane: "",
                family: "window",
                protocol: run.protocol,
                batch,
                topology: tname,
                mode: "seq",
                workers: 0,
                sites: 0,
                dim: 0,
                profile: "",
                churn: "",
                snapshot_bytes: 0,
                elapsed_s: dt,
                throughput: hh_n as f64 / dt,
                err: run.err,
                comm,
            });
            eprintln!("window SwFd batch={batch} {tname}…");
            let t0 = Instant::now();
            let (run, comm) = run_swfd_topology(&swfd_cfg, &mt_rows, topo, batch);
            let dt = t0.elapsed().as_secs_f64();
            records.push(Record {
                plane: "",
                family: "window",
                protocol: run.protocol,
                batch,
                topology: tname,
                mode: "seq",
                workers: 0,
                sites: 0,
                dim: 0,
                profile: "",
                churn: "",
                snapshot_bytes: 0,
                elapsed_s: dt,
                throughput: mt_n as f64 / dt,
                err: run.err,
                comm,
            });
        }
    }

    // The workers axis (PR 5): every protocol family through the pooled
    // execution engine at tree8, pool sizes {2, 8}. Thread count is
    // `workers + 1` regardless of deployment size — which is what makes
    // the m = 1024 rows below recordable at all.
    let tcfg = ThreadedConfig {
        batch_size: 64,
        channel_capacity: 4,
        plane: Default::default(),
    };
    let pool_topo = Topology::Tree { fanout: 8 };
    for proto in [
        HhProtocol::P1,
        HhProtocol::P2,
        HhProtocol::P3,
        HhProtocol::P4,
    ] {
        for workers in [2usize, 8] {
            eprintln!("hh {} pooled tree8 w{workers}…", proto.name());
            let t0 = Instant::now();
            let (run, comm) = run_hh_engine(
                proto,
                &hh_cfg,
                &hh_stream,
                0.05,
                pool_topo,
                &tcfg,
                Executor::Pool { workers },
            );
            let dt = t0.elapsed().as_secs_f64();
            records.push(Record {
                plane: "",
                family: "hh",
                protocol: proto.name(),
                batch: tcfg.batch_size,
                topology: "tree8",
                mode: "pooled",
                workers,
                sites: 0,
                dim: 0,
                profile: "",
                churn: "",
                snapshot_bytes: 0,
                elapsed_s: dt,
                throughput: hh_n as f64 / dt,
                err: run.eval.avg_rel_err,
                comm,
            });
        }
    }
    for proto in [
        MatrixProtocol::P1,
        MatrixProtocol::P2,
        MatrixProtocol::P3,
        MatrixProtocol::P4,
    ] {
        for workers in [2usize, 8] {
            eprintln!("matrix {} pooled tree8 w{workers}…", proto.name());
            let t0 = Instant::now();
            let (run, comm) = run_matrix_engine(
                proto,
                &mt_cfg,
                &mt_rows,
                pool_topo,
                &tcfg,
                Executor::Pool { workers },
            );
            let dt = t0.elapsed().as_secs_f64();
            records.push(Record {
                plane: "",
                family: "matrix",
                protocol: proto.name(),
                batch: tcfg.batch_size,
                topology: "tree8",
                mode: "pooled",
                workers,
                sites: 0,
                dim: 0,
                profile: "",
                churn: "",
                snapshot_bytes: 0,
                elapsed_s: dt,
                throughput: mt_n as f64 / dt,
                err: run.err,
                comm,
            });
        }
    }
    for workers in [2usize, 8] {
        eprintln!("window SwMg pooled tree8 w{workers}…");
        let t0 = Instant::now();
        let (run, comm) = run_swmg_engine(
            &swmg_cfg,
            &hh_stream,
            0.05,
            pool_topo,
            &tcfg,
            Executor::Pool { workers },
        );
        let dt = t0.elapsed().as_secs_f64();
        records.push(Record {
            plane: "",
            family: "window",
            protocol: run.protocol,
            batch: tcfg.batch_size,
            topology: "tree8",
            mode: "pooled",
            workers,
            sites: 0,
            dim: 0,
            profile: "",
            churn: "",
            snapshot_bytes: 0,
            elapsed_s: dt,
            throughput: hh_n as f64 / dt,
            err: run.err,
            comm,
        });
        eprintln!("window SwFd pooled tree8 w{workers}…");
        let t0 = Instant::now();
        let (run, comm) = run_swfd_engine(
            &swfd_cfg,
            &mt_rows,
            pool_topo,
            &tcfg,
            Executor::Pool { workers },
        );
        let dt = t0.elapsed().as_secs_f64();
        records.push(Record {
            plane: "",
            family: "window",
            protocol: run.protocol,
            batch: tcfg.batch_size,
            topology: "tree8",
            mode: "pooled",
            workers,
            sites: 0,
            dim: 0,
            profile: "",
            churn: "",
            snapshot_bytes: 0,
            elapsed_s: dt,
            throughput: mt_n as f64 / dt,
            err: run.err,
            comm,
        });
    }

    // m = 1024 pooled rows: > 1100 nodes on workers + 1 threads. P2
    // only — the P1 m = 1024 w8 row lives in the deployment-scale tier
    // below (same key, same workload).
    let big_m = 1024usize;
    let big_cfg = HhConfig::new(big_m, 0.05).with_seed(1);
    {
        let proto = HhProtocol::P2;
        eprintln!("hh {} pooled tree8 w8 m{big_m}…", proto.name());
        let t0 = Instant::now();
        let (run, comm) = run_hh_engine(
            proto,
            &big_cfg,
            &hh_stream,
            0.05,
            pool_topo,
            &tcfg,
            Executor::Pool { workers: 8 },
        );
        let dt = t0.elapsed().as_secs_f64();
        records.push(Record {
            plane: "",
            family: "hh",
            protocol: proto.name(),
            batch: tcfg.batch_size,
            topology: "tree8",
            mode: "pooled",
            workers: 8,
            sites: big_m,
            dim: 0,
            profile: "",
            churn: "",
            snapshot_bytes: 0,
            elapsed_s: dt,
            throughput: hh_n as f64 / dt,
            err: run.eval.avg_rel_err,
            comm,
        });
    }

    // The deployment-scale tier (PR 7): the work-stealing scheduler at
    // m = 65536 — a tree8 plan with 9362 interior nodes, 74898 node
    // tasks per wave — recorded for HH-P1, MT-P2 (blocked kernels) and
    // SwMg at pool sizes {2, 8, 16}, next to m = 1024 rows over the
    // *same workload* at the same pool sizes, so each pair of rows
    // quantifies what 64× more deployment costs at that worker count.
    // MT-P2 gets a 10× heavier row stream here: at 6 k rows a 65536-site
    // deployment measures site construction, not the protocol.
    let mt_tier_n = (60_000.0 * scale) as usize;
    let mt_tier_rows: Vec<Vec<f64>> = {
        let mut s = SyntheticMatrixStream::pamap_like(7);
        (0..mt_tier_n).map(|_| s.next_row()).collect()
    };
    for &tier_m in &[1024usize, 65_536] {
        let hh_tier = HhConfig::new(tier_m, 0.05).with_seed(1);
        let mt_tier = MatrixConfig::new(tier_m, 0.1, 44)
            .with_seed(2)
            .with_profile(LinalgProfile::blocked());
        let swmg_tier = SwMgConfig::new(tier_m, 0.05, 8_192, 64);
        for &workers in &[2usize, 8, 16] {
            eprintln!("hh P1 pooled tree8 w{workers} m{tier_m}…");
            let t0 = Instant::now();
            let (run, comm) = run_hh_engine(
                HhProtocol::P1,
                &hh_tier,
                &hh_stream,
                0.05,
                pool_topo,
                &tcfg,
                Executor::Pool { workers },
            );
            let dt = t0.elapsed().as_secs_f64();
            records.push(Record {
                plane: "",
                family: "hh",
                protocol: HhProtocol::P1.name(),
                batch: tcfg.batch_size,
                topology: "tree8",
                mode: "pooled",
                workers,
                sites: tier_m,
                dim: 0,
                profile: "",
                churn: "",
                snapshot_bytes: 0,
                elapsed_s: dt,
                throughput: hh_n as f64 / dt,
                err: run.eval.avg_rel_err,
                comm,
            });

            eprintln!("matrix P2 pooled tree8 w{workers} m{tier_m} (blocked)…");
            let t0 = Instant::now();
            let (run, comm) = run_matrix_engine(
                MatrixProtocol::P2,
                &mt_tier,
                &mt_tier_rows,
                pool_topo,
                &tcfg,
                Executor::Pool { workers },
            );
            let dt = t0.elapsed().as_secs_f64();
            records.push(Record {
                plane: "",
                family: "matrix",
                protocol: MatrixProtocol::P2.name(),
                batch: tcfg.batch_size,
                topology: "tree8",
                mode: "pooled",
                workers,
                sites: tier_m,
                dim: 0,
                profile: "blocked",
                churn: "",
                snapshot_bytes: 0,
                elapsed_s: dt,
                throughput: mt_tier_n as f64 / dt,
                err: run.err,
                comm,
            });

            eprintln!("window SwMg pooled tree8 w{workers} m{tier_m}…");
            let t0 = Instant::now();
            let (run, comm) = run_swmg_engine(
                &swmg_tier,
                &hh_stream,
                0.05,
                pool_topo,
                &tcfg,
                Executor::Pool { workers },
            );
            let dt = t0.elapsed().as_secs_f64();
            records.push(Record {
                plane: "",
                family: "window",
                protocol: run.protocol,
                batch: tcfg.batch_size,
                topology: "tree8",
                mode: "pooled",
                workers,
                sites: tier_m,
                dim: 0,
                profile: "",
                churn: "",
                snapshot_bytes: 0,
                elapsed_s: dt,
                throughput: hh_n as f64 / dt,
                err: run.err,
                comm,
            });
        }
    }

    // The broadcast-plane axis (gossip PR): the same HH-P1 deployment
    // at m ∈ {1024, 65536}, workers = 8, under each dissemination
    // plane. `"fanout"` is the paper's O(m)-out-degree root broadcast,
    // `"cascade"` the tree default, `"gossip4x24"` push–pull
    // anti-entropy with fanout 4 for up to 24 rounds — enough for
    // full adoption at m = 65536 (coverage multiplies ≈ (1 + fanout)×
    // per round) while keeping every node's per-event out-degree at
    // most fanout · rounds, independent of m. Reading the two site
    // counts against each other shows `broadcast_peak_out` scaling
    // with m for "fanout" and staying flat for gossip, which is the
    // row this PR's acceptance rests on.
    for &tier_m in &[1024usize, 65_536] {
        let hh_tier = HhConfig::new(tier_m, 0.05).with_seed(1);
        for &(plane_name, plane) in &[
            ("fanout", BroadcastPlane::RootFanOut),
            ("cascade", BroadcastPlane::TreeCascade),
            (
                "gossip4x24",
                BroadcastPlane::Gossip {
                    fanout: 4,
                    rounds: 24,
                    seed: 9,
                },
            ),
        ] {
            eprintln!("hh P1 pooled tree8 w8 m{tier_m} plane {plane_name}…");
            let pcfg = ThreadedConfig {
                plane,
                ..tcfg.clone()
            };
            let t0 = Instant::now();
            let (run, comm) = run_hh_engine(
                HhProtocol::P1,
                &hh_tier,
                &hh_stream,
                0.05,
                pool_topo,
                &pcfg,
                Executor::Pool { workers: 8 },
            );
            let dt = t0.elapsed().as_secs_f64();
            records.push(Record {
                plane: plane_name,
                family: "hh",
                protocol: HhProtocol::P1.name(),
                batch: pcfg.batch_size,
                topology: "tree8",
                mode: "pooled",
                workers: 8,
                sites: tier_m,
                dim: 0,
                profile: "",
                churn: "",
                snapshot_bytes: 0,
                elapsed_s: dt,
                throughput: hh_n as f64 / dt,
                err: run.eval.avg_rel_err,
                comm,
            });
        }
    }

    // Adaptive-topology rows: the two-pass planner resolves the fanout
    // from a measured calibration prefix (at a deployment boundary, so
    // the recorded run itself is an ordinary deterministic tree run).
    let adaptive = Topology::Adaptive { max_fan_in: 8 };
    let calib_n = (hh_n / 6).max(1);
    for proto in [
        HhProtocol::P1,
        HhProtocol::P2,
        HhProtocol::P3,
        HhProtocol::P4,
    ] {
        let resolved = resolve_hh_adaptive(proto, &hh_cfg, &hh_stream[..calib_n], adaptive, 64);
        eprintln!("hh {} adaptive8 → {:?}…", proto.name(), resolved);
        let t0 = Instant::now();
        let (run, comm) = run_hh_topology(proto, &hh_cfg, &hh_stream, 0.05, resolved, 64);
        let dt = t0.elapsed().as_secs_f64();
        records.push(Record {
            plane: "",
            family: "hh",
            protocol: proto.name(),
            batch: 64,
            topology: "adaptive8",
            mode: "seq",
            workers: 0,
            sites: 0,
            dim: 0,
            profile: "",
            churn: "",
            snapshot_bytes: 0,
            elapsed_s: dt,
            throughput: hh_n as f64 / dt,
            err: run.eval.avg_rel_err,
            comm,
        });
    }

    // The d-axis (PR 6): the math-plane A/B. MT-P2 and SwFd at
    // d ∈ {44, 128, 512}, once per linalg profile — `naive` (the retained
    // reference kernels) vs `blocked` (the cache-tiled kernels and the
    // row-pair Jacobi) — with protocol-only timing: the exact-Gram truth
    // evaluation runs outside the clock (`run_matrix_timed` docs), so at
    // d = 512 the rows measure the protocol's eigensolves/projections and
    // not the harness's O(n·d²) accumulation. Same rows, same machine,
    // same run: the throughput ratio between the two profile rows of one
    // (protocol, d) pair is the measured kernel speedup.
    let daxis_n = (3_000.0 * scale) as usize;
    let daxis_dims = [44usize, 128, 512];
    for dim in daxis_dims {
        let spectrum: Vec<f64> = (0..16).map(|i| 10.0 * 0.7_f64.powi(i)).collect();
        let rows_d: Vec<Vec<f64>> = {
            let mut s = SyntheticMatrixStream::new(dim, &spectrum, 100.0, 11);
            (0..daxis_n).map(|_| s.next_row()).collect()
        };
        for profile in [LinalgProfile::naive(), LinalgProfile::blocked()] {
            let cfg_d = MatrixConfig::new(sites, 0.1, dim)
                .with_seed(2)
                .with_profile(profile);
            eprintln!("matrix P2 d={dim} profile={}…", profile.name());
            let run = run_matrix_timed(MatrixProtocol::P2, &cfg_d, &rows_d, 256);
            let dt = run.elapsed.as_secs_f64();
            records.push(Record {
                plane: "",
                family: "matrix",
                protocol: run.protocol,
                batch: 256,
                topology: "star",
                mode: "seq",
                workers: 0,
                sites: 0,
                dim,
                profile: profile.name(),
                churn: "",
                snapshot_bytes: 0,
                elapsed_s: dt,
                throughput: daxis_n as f64 / dt,
                err: run.err,
                comm: run.comm,
            });

            let swfd_cfg_d = SwFdConfig::new(sites, 0.1, 1_024, dim, 40).with_profile(profile);
            eprintln!("window SwFd d={dim} profile={}…", profile.name());
            let run = run_swfd_timed(&swfd_cfg_d, &rows_d, 256);
            let dt = run.elapsed.as_secs_f64();
            records.push(Record {
                plane: "",
                family: "window",
                protocol: run.protocol,
                batch: 256,
                topology: "star",
                mode: "seq",
                workers: 0,
                sites: 0,
                dim,
                profile: profile.name(),
                churn: "",
                snapshot_bytes: 0,
                elapsed_s: dt,
                throughput: daxis_n as f64 / dt,
                err: run.err,
                comm: run.comm,
            });
        }
    }

    // The churn axis (PR 9): representative protocols through the
    // churn/recovery driver on a fanout-4 tree — site 5 leaves at
    // boundary 2 and rejoins at 4, a snapshot of the root complex is
    // captured at boundary 3, and the root crashes and recovers from it
    // (WAL replay) at 5. The leaver's paused feed is delayed, not
    // dropped, and the slot rejoins, so every input is eventually fed
    // and full-stream ground truth stays the right yardstick; the
    // `"snapshot_bytes"` field on these rows is the measured recovery
    // footprint (`bench_diff` summarises it per protocol, advisory).
    // Segment length adapts to the per-site share so the 5-boundary
    // schedule fits any `--scale`.
    let churn_topo = Topology::Tree { fanout: 4 };
    let churn_label = "leave+join+crash";
    let churn_cfg_for = |n: usize| ChurnConfig {
        segment_len: (n / sites / 8).max(1),
        schedule: ChurnSchedule::new()
            .at(2, ChurnEvent::Leave(5))
            .at(4, ChurnEvent::Join(5)),
        snapshot_at: Some(3),
        crash_at: Some(5),
        ..ChurnConfig::default()
    };
    for proto in [HhProtocol::P1, HhProtocol::P2] {
        eprintln!("hh {} churn tree4 ({churn_label})…", proto.name());
        let t0 = Instant::now();
        let (run, comm, churn) = run_hh_churn(
            proto,
            &hh_cfg,
            &hh_stream,
            0.05,
            churn_topo,
            &tcfg,
            &churn_cfg_for(hh_n),
        );
        let dt = t0.elapsed().as_secs_f64();
        records.push(Record {
            plane: "",
            family: "hh",
            protocol: proto.name(),
            batch: tcfg.batch_size,
            topology: "tree4",
            mode: "churn",
            workers: 0,
            sites: 0,
            dim: 0,
            profile: "",
            churn: churn_label,
            snapshot_bytes: churn.snapshot_bytes,
            elapsed_s: dt,
            throughput: hh_n as f64 / dt,
            err: run.eval.avg_rel_err,
            comm,
        });
    }
    {
        eprintln!("matrix P2 churn tree4 ({churn_label})…");
        let t0 = Instant::now();
        let (run, comm, churn) = run_matrix_churn(
            MatrixProtocol::P2,
            &mt_cfg,
            &mt_rows,
            churn_topo,
            &tcfg,
            &churn_cfg_for(mt_n),
        );
        let dt = t0.elapsed().as_secs_f64();
        records.push(Record {
            plane: "",
            family: "matrix",
            protocol: MatrixProtocol::P2.name(),
            batch: tcfg.batch_size,
            topology: "tree4",
            mode: "churn",
            workers: 0,
            sites: 0,
            dim: 0,
            profile: "",
            churn: churn_label,
            snapshot_bytes: churn.snapshot_bytes,
            elapsed_s: dt,
            throughput: mt_n as f64 / dt,
            err: run.err,
            comm,
        });
    }
    {
        eprintln!("window SwMg churn tree4 ({churn_label})…");
        let t0 = Instant::now();
        let (run, comm, churn) = run_swmg_churn(
            &swmg_cfg,
            &hh_stream,
            0.05,
            churn_topo,
            &tcfg,
            &churn_cfg_for(hh_n),
        );
        let dt = t0.elapsed().as_secs_f64();
        records.push(Record {
            plane: "",
            family: "window",
            protocol: run.protocol,
            batch: tcfg.batch_size,
            topology: "tree4",
            mode: "churn",
            workers: 0,
            sites: 0,
            dim: 0,
            profile: "",
            churn: churn_label,
            snapshot_bytes: churn.snapshot_bytes,
            elapsed_s: dt,
            throughput: hh_n as f64 / dt,
            err: run.err,
            comm,
        });
    }

    let meta = format!(
        "{{\"sites\": {sites}, \"hh_n\": {hh_n}, \"mt_n\": {mt_n}, \
         \"hh_epsilon\": {}, \"mt_epsilon\": {}, \"mt_dim\": {}, \
         \"swmg_window\": {}, \"swfd_window\": {}, \
         \"batches\": [64, 1024], \"topologies\": [\"star\", \"tree4\", \"tree8\"], \
         \"pool_workers\": [2, 8], \"pool_sites_big\": {big_m}, \
         \"pool_tier_sites\": [1024, 65536], \"pool_tier_workers\": [2, 8, 16], \
         \"pool_tier_mt_n\": {mt_tier_n}, \
         \"plane_sites\": [1024, 65536], \
         \"planes\": [\"fanout\", \"cascade\", \"gossip4x24\"], \
         \"daxis_dims\": [44, 128, 512], \"daxis_profiles\": [\"naive\", \"blocked\"], \
         \"daxis_n\": {daxis_n}, \
         \"churn\": \"leave(5)@2 join(5)@4 snapshot@3 crash@5, tree4\", \
         \"adaptive\": \"max_fan_in 8, calibration prefix {calib_n}\"}}",
        hh_cfg.epsilon, mt_cfg.epsilon, mt_cfg.dim, swmg_cfg.params.window, swfd_cfg.params.window
    );
    let json = emit(&records, &meta);
    std::fs::write(&out_path, &json).expect("write BENCH_protocols.json");
    eprintln!("wrote {} records to {out_path}", records.len());
}
