//! Criterion throughput across the aggregation-topology axis: the same
//! protocol, stream and batch size through the flat star vs k-ary trees
//! at several fanouts.
//!
//! Tree aggregation exists to bound coordinator fan-in, not to win raw
//! single-process throughput — interior hops add work — so this bench
//! quantifies the price paid per fanout, while the communication-shape
//! benefit (root fan-in, per-hop traffic) is pinned exactly by the
//! golden table in `tests/comm_counts.rs`.
//!
//! `broadcast_disseminate` prints the per-event cost of the broadcast
//! plane at the `hh-p1-bigm-gossip` deployment (m = 65 536 on a
//! fanout-8 tree): the tree cascade as the control, push–pull gossip as
//! the subject.

use cma_core::{hh, matrix, HhConfig, MatrixConfig, Topology};
use cma_data::{SyntheticMatrixStream, WeightedZipfStream};
use cma_stream::partition::RoundRobin;
use cma_stream::{BroadcastPlane, BroadcastState, ChannelTransport, CommStats};
use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use std::hint::black_box;

const HH_N: usize = 20_000;
const MT_N: usize = 3_000;
const SITES: usize = 64;
const BATCH: usize = 256;

fn topologies() -> [(&'static str, Topology); 3] {
    [
        ("star", Topology::Star),
        ("tree4", Topology::Tree { fanout: 4 }),
        ("tree8", Topology::Tree { fanout: 8 }),
    ]
}

fn bench_hh_topologies(c: &mut Criterion) {
    let stream = WeightedZipfStream::new(10_000, 2.0, 1_000.0, 3).take_vec(HH_N);
    let cfg = HhConfig::new(SITES, 0.05).with_seed(1);
    let mut g = c.benchmark_group("hh_topology");
    g.sample_size(10);
    g.throughput(Throughput::Elements(HH_N as u64));

    macro_rules! bench_one {
        ($name:literal, $deploy:path) => {
            for (tname, topo) in topologies() {
                g.bench_function(format!("{}/{tname}", $name), |b| {
                    b.iter(|| {
                        let mut runner = $deploy(&cfg, topo);
                        runner.run_partitioned(
                            stream.iter().copied(),
                            &mut RoundRobin::new(SITES),
                            BATCH,
                        );
                        black_box(runner.stats().total())
                    })
                });
            }
        };
    }
    bench_one!("p1", hh::p1::deploy_topology);
    bench_one!("p2", hh::p2::deploy_topology);
    bench_one!("p3", hh::p3::deploy_topology);
    bench_one!("p4", hh::p4::deploy_topology);
    g.finish();
}

fn bench_matrix_topologies(c: &mut Criterion) {
    let rows: Vec<Vec<f64>> = {
        let mut s = SyntheticMatrixStream::pamap_like(5);
        (0..MT_N).map(|_| s.next_row()).collect()
    };
    let cfg = MatrixConfig::new(SITES, 0.1, 44).with_seed(2);
    let mut g = c.benchmark_group("matrix_topology");
    g.sample_size(10);
    g.throughput(Throughput::Elements(MT_N as u64));

    macro_rules! bench_one {
        ($name:literal, $deploy:path) => {
            for (tname, topo) in topologies() {
                g.bench_function(format!("{}/{tname}", $name), |b| {
                    b.iter(|| {
                        let mut runner = $deploy(&cfg, topo);
                        runner.run_partitioned(
                            rows.iter().cloned(),
                            &mut RoundRobin::new(SITES),
                            BATCH,
                        );
                        black_box(runner.stats().total())
                    })
                });
            }
        };
    }
    bench_one!("p1", matrix::p1::deploy_topology);
    bench_one!("p3", matrix::p3::deploy_topology);
    g.finish();
}

fn bench_broadcast_disseminate(c: &mut Criterion) {
    let m = 65_536;
    let plan = Topology::Tree { fanout: 8 }.plan(m);
    let mut g = c.benchmark_group("broadcast_disseminate");
    g.sample_size(10);
    let planes = [
        ("cascade", BroadcastPlane::TreeCascade),
        (
            "gossip4x24",
            BroadcastPlane::Gossip {
                fanout: 4,
                rounds: 24,
                seed: 1,
            },
        ),
    ];
    for (name, plane) in planes {
        let mut state = BroadcastState::new(plane, m);
        let mut stats = CommStats::for_plan(&plan);
        g.bench_function(format!("{name}/m{m}"), |b| {
            b.iter(|| black_box(state.disseminate(&plan, 8, &mut stats, &ChannelTransport)))
        });
    }
    g.finish();
}

criterion_group!(
    benches,
    bench_hh_topologies,
    bench_matrix_topologies,
    bench_broadcast_disseminate
);
criterion_main!(benches);
