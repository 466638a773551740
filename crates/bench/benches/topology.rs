//! Criterion end-to-end protocol throughput: items (or rows) per second
//! through a full deployment, per protocol, along two axes.
//!
//! * Topology: the same stream at batch 256 through the flat star and
//!   k-ary trees of fanout 4 and 8. Tree aggregation exists to bound
//!   coordinator fan-in, not to win single-process throughput — interior
//!   hops add work — so these rows price each fanout, while the
//!   communication-shape benefit (root fan-in, per-hop traffic) is pinned
//!   exactly by the golden table in `tests/comm_counts.rs`.
//! * Batch size, on the star: per-item [`Runner::feed`] (`star/feed`)
//!   against [`Runner::run_partitioned`] at batch 1024
//!   (`star/batch1024`). Batched execution is observably identical to
//!   per-item execution (the `batch_parity` suite), so the difference is
//!   pure dispatch and locality.
//!
//! `broadcast_disseminate` prints the per-event cost of the broadcast
//! plane at the `hh-p1-bigm-gossip` deployment (m = 65 536 on a
//! fanout-8 tree): the tree cascade as the control, push–pull gossip as
//! the subject, on a transparent wire and over a faulty `SimNet`.

use cma_core::{hh, matrix, HhConfig, MatrixConfig, Topology};
use cma_data::{SyntheticMatrixStream, WeightedZipfStream};
use cma_stream::partition::RoundRobin;
use cma_stream::{
    Aggregator, BroadcastPlane, BroadcastState, ChannelTransport, CommStats, Coordinator,
    FaultPlan, LinkFaults, MessageCost, Runner, SimNet, Site, WireSized,
};
use criterion::{
    criterion_group, criterion_main, BatchSize, BenchmarkGroup, Criterion, Throughput,
};
use std::cell::RefCell;
use std::hint::black_box;

const HH_N: usize = 20_000;
const MT_N: usize = 3_000;
const SITES: usize = 64;
const BATCH: usize = 256;
const TOPOLOGIES: [(&str, Topology); 3] = [
    ("star", Topology::Star),
    ("tree4", Topology::Tree { fanout: 4 }),
    ("tree8", Topology::Tree { fanout: 8 }),
];

/// One protocol's rows: `{star, tree4, tree8}` at batch 256, then the
/// star's batch axis.
fn bench_protocol<S, C, A>(
    g: &mut BenchmarkGroup<'_>,
    name: &str,
    stream: &[S::Input],
    deploy: impl Fn(Topology) -> Runner<S, C, A>,
) where
    S: Site,
    S::Input: Clone,
    C: Coordinator<UpMsg = S::UpMsg, Broadcast = S::Broadcast>,
    S::UpMsg: MessageCost + Clone,
    S::Broadcast: WireSized,
    A: Aggregator<UpMsg = S::UpMsg, Broadcast = S::Broadcast>,
{
    let run = |topology, batch| {
        let mut runner = deploy(topology);
        runner.run_partitioned(stream.iter().cloned(), &mut RoundRobin::new(SITES), batch);
        black_box(runner.stats().total())
    };
    for (tname, topology) in TOPOLOGIES {
        g.bench_function(format!("{name}/{tname}"), |b| {
            b.iter(|| run(topology, BATCH))
        });
    }
    g.bench_function(format!("{name}/star/feed"), |b| {
        b.iter(|| {
            let mut runner = deploy(Topology::Star);
            for (i, x) in stream.iter().enumerate() {
                runner.feed(i % SITES, x.clone());
            }
            black_box(runner.stats().total())
        })
    });
    g.bench_function(format!("{name}/star/batch1024"), |b| {
        b.iter(|| run(Topology::Star, 1024))
    });
}

fn bench_hh(c: &mut Criterion) {
    let stream = WeightedZipfStream::new(10_000, 2.0, 1_000.0, 3).take_vec(HH_N);
    let cfg = HhConfig::new(SITES, 0.05).with_seed(1);
    let mut g = c.benchmark_group("hh_topology");
    g.sample_size(10);
    g.throughput(Throughput::Elements(HH_N as u64));
    bench_protocol(&mut g, "p1", &stream, |t| hh::p1::deploy_topology(&cfg, t));
    bench_protocol(&mut g, "p2", &stream, |t| hh::p2::deploy_topology(&cfg, t));
    bench_protocol(&mut g, "p3", &stream, |t| hh::p3::deploy_topology(&cfg, t));
    bench_protocol(&mut g, "p4", &stream, |t| hh::p4::deploy_topology(&cfg, t));
    g.finish();
}

fn bench_matrix(c: &mut Criterion) {
    let rows: Vec<Vec<f64>> = SyntheticMatrixStream::pamap_like(5).take(MT_N).collect();
    let cfg = MatrixConfig::new(SITES, 0.1, 44).with_seed(2);
    let mut g = c.benchmark_group("matrix_topology");
    g.sample_size(10);
    g.throughput(Throughput::Elements(MT_N as u64));
    bench_protocol(&mut g, "p1", &rows, |t| {
        matrix::p1::deploy_topology(&cfg, t)
    });
    bench_protocol(&mut g, "p2", &rows, |t| {
        matrix::p2::deploy_topology(&cfg, t)
    });
    bench_protocol(&mut g, "p3", &rows, |t| {
        matrix::p3::deploy_topology(&cfg, t)
    });
    bench_protocol(&mut g, "p4", &rows, |t| {
        matrix::p4::deploy_topology(&cfg, t)
    });
    g.finish();
}

fn bench_broadcast_disseminate(c: &mut Criterion) {
    let m = 65_536;
    let plan = Topology::Tree { fanout: 8 }.plan(m);
    let mut g = c.benchmark_group("broadcast_disseminate");
    g.sample_size(10);
    let gossip = BroadcastPlane::Gossip {
        fanout: 4,
        rounds: 24,
        seed: 1,
    };
    let planes = [
        ("cascade", BroadcastPlane::TreeCascade),
        ("gossip4x24", gossip),
    ];
    for (name, plane) in planes {
        let mut state = BroadcastState::new(plane, m);
        let mut stats = CommStats::for_plan(&plan);
        g.bench_function(format!("{name}/m{m}"), |b| {
            b.iter(|| black_box(state.disseminate(&plan, 8, &mut stats, &ChannelTransport)))
        });
    }
    // The same gossip over a dropping, duplicating, delaying and
    // reordering wire. Every event caches a fault link per edge it
    // crosses (≈ 350 k at this m), so each sample is the first event of
    // a fresh plane, and its links are dropped outside the timed region.
    let net = SimNet::new(FaultPlan {
        seed: 13,
        down: LinkFaults {
            drop: 0.05,
            duplicate: 0.05,
            delay: 0.2,
            delay_hops: 3,
            reorder: 0.05,
        },
        ..Default::default()
    });
    let spent = RefCell::new(None);
    g.bench_function(format!("gossip4x24_simnet/m{m}"), |b| {
        b.iter_batched(
            || {
                spent.take();
                BroadcastState::new(gossip, m)
            },
            |mut state| {
                let mut stats = CommStats::for_plan(&plan);
                let set = black_box(state.disseminate(&plan, 8, &mut stats, &net));
                spent.replace(Some(state));
                set
            },
            BatchSize::LargeInput,
        )
    });
    g.finish();
}

criterion_group!(benches, bench_hh, bench_matrix, bench_broadcast_disseminate);
criterion_main!(benches);
