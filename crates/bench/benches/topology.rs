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
//! `hh_tree_seq` runs the `hh-p1-tree-seq` deployment (m = 256 on a
//! fanout-4 tree, ε = 10⁻³, batch 256) on a shorter stream twice: as
//! HH-P1 (`p1/tree_seq`) and as its routing floor (`p1/routing_floor`),
//! the same thresholds over nodes that carry only mass. The floor sends
//! the same messages and broadcasts — checked before timing — so the
//! gap between the rows is the Misra–Gries work, and the floor is the
//! runner's share, read without the traced pass.
//!
//! `broadcast_disseminate` prints the per-event cost of the broadcast
//! plane at the `hh-p1-bigm-gossip` deployment (m = 65 536 on a
//! fanout-8 tree): the tree cascade as the control, push–pull gossip as
//! the subject, on a transparent wire and over a faulty `SimNet`.
//! `bigm_gossip/p1` runs that deployment end to end as HH-P1 through the
//! inline engine on a 2·10⁵-arrival stream, set-up excluded, so the
//! gossip plane's share of ingest reads without the traced pass.

use cma_core::{hh, matrix, HhConfig, MatrixConfig, Topology};
use cma_data::{SyntheticMatrixStream, WeightedZipfStream};
use cma_stream::partition::{partition_round_robin, RoundRobin};
use cma_stream::runner::engine::{self, Executor, ThreadedConfig};
use cma_stream::{
    AggNode, Aggregator, BroadcastPlane, BroadcastState, ChannelTransport, CommStats, Coordinator,
    FaultPlan, LinkFaults, MessageCost, Runner, SimNet, Site, SiteId, WireSized,
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

/// A P1 flush stripped to its mass: what the routing floor ships.
#[derive(Debug, Clone)]
struct Mass(f64);

impl MessageCost for Mass {
    fn cost(&self) -> u64 {
        1
    }

    fn mass(&self) -> f64 {
        self.0
    }
}

/// `cma_core::flush`'s site without its summary: it adds each weight
/// and ships the sum once it reaches `τ = tau_frac·Ŵ`.
struct FloorSite {
    mass: f64,
    tau_frac: f64,
    w_hat: f64,
}

impl Site for FloorSite {
    type Input = (u64, f64);
    type UpMsg = Mass;
    type Broadcast = f64;

    fn observe(&mut self, (_, w): (u64, f64), out: &mut Vec<Mass>) {
        self.mass += w;
        if self.mass >= self.tau_frac * self.w_hat {
            out.push(Mass(std::mem::take(&mut self.mass)));
        }
    }

    fn observe_batch(&mut self, inputs: impl IntoIterator<Item = (u64, f64)>, out: &mut Vec<Mass>) {
        let tau = self.tau_frac * self.w_hat;
        for (_, w) in inputs {
            self.mass += w;
            if self.mass >= tau {
                out.push(Mass(std::mem::take(&mut self.mass)));
                return;
            }
        }
    }

    fn on_broadcast(&mut self, w_hat: &f64) {
        self.w_hat = *w_hat;
    }
}

/// `cma_core::flush`'s aggregator without its summary.
struct FloorAggregator {
    mass: f64,
    hold_frac: f64,
    w_hat: f64,
    rep: SiteId,
}

impl Aggregator for FloorAggregator {
    type UpMsg = Mass;
    type Broadcast = f64;

    fn absorb(&mut self, from: SiteId, msg: Mass) {
        if self.mass == 0.0 {
            self.rep = from;
        }
        self.mass += msg.0;
    }

    fn flush(&mut self, out: &mut Vec<(SiteId, Mass)>) {
        if self.mass > 0.0 && self.mass >= self.hold_frac * self.w_hat {
            out.push((self.rep, Mass(std::mem::take(&mut self.mass))));
        }
    }

    fn on_broadcast(&mut self, w_hat: &f64) {
        self.w_hat = *w_hat;
    }
}

/// `cma_core::flush`'s coordinator without its summary: it adds the
/// masses and re-broadcasts `Ŵ` when they grow by `1 + ε/2`.
struct FloorCoordinator {
    received: f64,
    w_hat: f64,
    epsilon: f64,
}

impl Coordinator for FloorCoordinator {
    type UpMsg = Mass;
    type Broadcast = f64;

    fn receive(&mut self, _from: SiteId, msg: Mass, out: &mut Vec<f64>) {
        self.received += msg.0;
        if self.received / self.w_hat > 1.0 + self.epsilon / 2.0 {
            self.w_hat = self.received;
            out.push(self.w_hat);
        }
    }
}

/// Feeds `stream` round-robin at batch 256 and returns the traffic.
fn run_seq<S, C, A>(mut runner: Runner<S, C, A>, stream: &[(u64, f64)]) -> CommStats
where
    S: Site<Input = (u64, f64), Broadcast = f64>,
    S::UpMsg: MessageCost + Clone,
    C: Coordinator<UpMsg = S::UpMsg, Broadcast = f64>,
    A: Aggregator<UpMsg = S::UpMsg, Broadcast = f64>,
{
    let m = runner.sites().len();
    runner.run_partitioned(stream.iter().copied(), &mut RoundRobin::new(m), BATCH);
    runner.stats().clone()
}

/// HH-P1 at `hh-p1-tree-seq`'s deployment against its routing floor.
fn bench_hh_tree_seq(c: &mut Criterion) {
    const M: usize = 256;
    const EPSILON: f64 = 1e-3;
    const N: usize = 1_000_000;
    let topology = Topology::Tree { fanout: 4 };
    let stream = WeightedZipfStream::new(100_000, 2.0, 1_000.0, 1).take_vec(N);
    let cfg = HhConfig::new(M, EPSILON).with_seed(1);
    let levels = topology.plan(M).internal_levels().max(1) as f64;
    let floor = || {
        let sites = (0..M)
            .map(|_| FloorSite {
                mass: 0.0,
                tau_frac: EPSILON / (4.0 * M as f64),
                w_hat: 1.0,
            })
            .collect();
        let coordinator = FloorCoordinator {
            received: 0.0,
            w_hat: 1.0,
            epsilon: EPSILON,
        };
        Runner::with_topology(sites, coordinator, topology, |node: AggNode| {
            FloorAggregator {
                mass: 0.0,
                hold_frac: EPSILON / (4.0 * levels) * (node.leaves as f64 / M as f64),
                w_hat: 1.0,
                rep: 0,
            }
        })
    };
    let p1 = run_seq(hh::p1::deploy_topology(&cfg, topology), &stream);
    let bare = run_seq(floor(), &stream);
    assert_eq!(p1.up_msgs, bare.up_msgs, "the floor's traffic left P1's");
    assert_eq!(p1.broadcast_events, bare.broadcast_events);

    let mut g = c.benchmark_group("hh_tree_seq");
    g.sample_size(10);
    g.throughput(Throughput::Elements(N as u64));
    g.bench_function("p1/tree_seq", |b| {
        b.iter(|| black_box(run_seq(hh::p1::deploy_topology(&cfg, topology), &stream).up_msgs))
    });
    g.bench_function("p1/routing_floor", |b| {
        b.iter(|| black_box(run_seq(floor(), &stream).up_msgs))
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

/// HH-P1 at `hh-p1-bigm-gossip`'s deployment through the inline engine.
fn bench_bigm_gossip(c: &mut Criterion) {
    const M: usize = 65_536;
    const N: usize = 200_000;
    let topology = Topology::Tree { fanout: 8 };
    let stream = WeightedZipfStream::new(100_000, 2.0, 1_000.0, 1).take_vec(N);
    let cfg = HhConfig::new(M, 0.05).with_seed(1);
    let run_cfg = ThreadedConfig {
        batch_size: 64,
        plane: BroadcastPlane::Gossip {
            fanout: 4,
            rounds: 24,
            seed: 1,
        },
        ..ThreadedConfig::default()
    };
    let inputs = partition_round_robin(&stream, M);
    let mut g = c.benchmark_group("bigm_gossip");
    g.sample_size(10);
    g.throughput(Throughput::Elements(N as u64));
    g.bench_function("p1", |b| {
        b.iter_batched(
            || {
                let (sites, coordinator, _) = hh::p1::deploy_topology(&cfg, topology).into_parts();
                (sites, coordinator, inputs.clone())
            },
            |(sites, coordinator, inputs)| {
                let parts = engine::run_partitioned_topology_parts(
                    sites,
                    coordinator,
                    inputs,
                    &run_cfg,
                    Executor::Inline,
                    topology,
                    hh::p1::make_aggregator(&cfg, topology),
                );
                parts.stats.broadcast_events
            },
            BatchSize::LargeInput,
        )
    });
    g.finish();
}

criterion_group!(
    benches,
    bench_hh,
    bench_matrix,
    bench_hh_tree_seq,
    bench_broadcast_disseminate,
    bench_bigm_gossip
);
criterion_main!(benches);
