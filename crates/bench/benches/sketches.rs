//! Criterion micro-benchmarks for the centralized sketches: the priority
//! sampler, the sliding-window sketches, and the Misra–Gries
//! flush hand-off. The repo benchmark's `sketch.mg_*` rows time MG updates
//! and merges into one fresh table, not a small flush handed off and
//! merged into a large table; `misra_gries/flush_merge` times that,
//! `misra_gries/root_merge` the overflowing merges at a full root, and
//! `misra_gries/update_distinct` updates that mostly miss a full table.
//! Frequent Directions is timed by the repo benchmark's `sketch.fd_*` rows;
//! at the shape of the repo benchmark's `swfd-churn-faulty` workload,
//! `sliding_window/sw_fd/root_receive` times the windowed-FD root's
//! ingest — a replay of every up-message one run delivered to it — and
//! `sliding_window/sw_fd/query/{cold,after_receive,hit}` its read path:
//! the root folds every live bucket once per state and keeps that fold
//! until its next change, so a query either folds or borrows.
//! `sliding_window/sw_mg/estimate_at` is one item estimate at a windowed
//! heavy-hitter root that has kept its fold. `mt_p2/query/{gram,stacked}`
//! times one MT-P2 direction query at `mt-p2-highrank-star`'s shape, from
//! the coordinator's Gram and from the stack of the same directions.

use cma_data::WeightedZipfStream;
use cma_sketch::{MgSummary, PrioritySampler};
use criterion::{criterion_group, criterion_main, BatchSize, Criterion, Throughput};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::hint::black_box;

const STREAM_LEN: usize = 20_000;

fn zipf_stream() -> Vec<(u64, f64)> {
    WeightedZipfStream::new(10_000, 2.0, 1_000.0, 42).take_vec(STREAM_LEN)
}

fn bench_priority_sampler(c: &mut Criterion) {
    let stream = zipf_stream();
    c.bench_function("priority_sampler/update/s=256", |b| {
        b.iter_batched(
            || (PrioritySampler::<u64>::new(256), StdRng::seed_from_u64(1)),
            |(mut ps, mut rng)| {
                for &(e, w) in &stream {
                    ps.update(e, w, &mut rng);
                }
                black_box(ps.estimate_total())
            },
            BatchSize::SmallInput,
        )
    });
}

/// HH-P1's shape at ε = 10⁻³: 2 000-counter tables, a site flush every
/// four arrivals, each handed off and merged into its aggregator's table.
fn bench_misra_gries(c: &mut Criterion) {
    let stream = zipf_stream();
    let mut g = c.benchmark_group("misra_gries");
    g.throughput(Throughput::Elements(STREAM_LEN as u64));
    g.bench_function("flush_merge", |b| {
        b.iter_batched(
            || (MgSummary::new(2_000), MgSummary::new(2_000)),
            |(mut site, mut agg)| {
                for (i, &(e, w)) in stream.iter().enumerate() {
                    site.update(e, w);
                    if i % 4 == 3 {
                        agg.absorb(site.take_all());
                    }
                }
                black_box(agg.len())
            },
            BatchSize::SmallInput,
        )
    });
    g.finish();

    // The root of a P1 tree: a full 2 000-counter table absorbing
    // 64-counter tables whose keys it does not hold, so every merge
    // overflows and reads the (ℓ+1)-th largest counter.
    const ROOT: usize = 2_000;
    const PARTIALS: usize = 64;
    let mut rng = StdRng::seed_from_u64(7);
    let mut root = MgSummary::new(ROOT);
    for e in 0..ROOT as u64 {
        root.update(e, rng.gen_range(1.0..1_000.0));
    }
    let partials: Vec<MgSummary> = (0..PARTIALS as u64)
        .map(|p| {
            let mut t = MgSummary::new(ROOT);
            for k in 0..64 {
                t.update(10_000 + 64 * p + k, rng.gen_range(1.0..1_000.0));
            }
            t
        })
        .collect();
    let mut g = c.benchmark_group("misra_gries");
    g.throughput(Throughput::Elements(PARTIALS as u64));
    g.bench_function("root_merge", |b| {
        b.iter_batched(
            || (root.clone(), partials.clone()),
            |(mut root, partials)| {
                for t in partials {
                    root.absorb(t);
                }
                black_box(root.len())
            },
            BatchSize::SmallInput,
        )
    });
    g.finish();

    // High cardinality: items drawn from 10⁶ keys, so once the table is
    // full nearly every update misses and decrements — O(ℓ) each.
    const DISTINCT_LEN: usize = 5_000;
    let distinct: Vec<(u64, f64)> = (0..DISTINCT_LEN)
        .map(|_| (rng.gen_range(0..1_000_000), rng.gen_range(1.0..1_000.0)))
        .collect();
    let mut g = c.benchmark_group("misra_gries");
    g.throughput(Throughput::Elements(DISTINCT_LEN as u64));
    g.bench_function("update_distinct", |b| {
        b.iter_batched(
            || MgSummary::new(ROOT),
            |mut mg| {
                for &(e, w) in &distinct {
                    mg.update(e, w);
                }
                black_box(mg.len())
            },
            BatchSize::SmallInput,
        )
    });
    g.finish();
}

fn bench_sliding_window(c: &mut Criterion) {
    use cma_sketch::{SwFd, SwMg};
    let stream = zipf_stream();
    let mut g = c.benchmark_group("sliding_window");
    g.sample_size(10);
    g.throughput(Throughput::Elements(STREAM_LEN as u64));
    g.bench_function("sw_mg/update", |b| {
        b.iter_batched(
            || SwMg::new(64, 4_000, 2),
            |mut sw| {
                for &(e, w) in &stream {
                    sw.update(e, w);
                }
                black_box(sw.bucket_count())
            },
            BatchSize::SmallInput,
        )
    });
    let d = 16;
    let mut ms = cma_data::SyntheticMatrixStream::new(d, &[4.0, 2.0, 1.0], 1e6, 9);
    let rows: Vec<Vec<f64>> = (0..2_000).map(|_| ms.next_row()).collect();
    g.throughput(Throughput::Elements(rows.len() as u64));
    g.bench_function("sw_fd/update", |b| {
        b.iter_batched(
            || SwFd::new(d, 12, 500, 2),
            |mut sw| {
                for r in &rows {
                    sw.update(r);
                }
                black_box(sw.bucket_count())
            },
            BatchSize::SmallInput,
        )
    });
    g.finish();
}

/// Queries per iteration of the rows that borrow a kept fold: each
/// takes well under the timer's 1 µs resolution, so those rows' ms/iter
/// reads µs per query.
const REPEATS: u64 = 1_000;

/// An up-message of the windowed-FD protocol.
type SwFdMsg = cma_core::window::SwMsg<cma_sketch::FrequentDirections>;

/// A windowed-FD root that records every message it receives.
struct Recording {
    root: cma_core::window::fd::SwFdCoordinator,
    received: Vec<(usize, SwFdMsg)>,
}

impl cma_stream::Coordinator for Recording {
    type UpMsg = SwFdMsg;
    type Broadcast = f64;

    fn receive(&mut self, from: usize, msg: Self::UpMsg, out: &mut Vec<f64>) {
        self.received.push((from, msg.clone()));
        self.root.receive(from, msg, out);
    }
}

/// The windowed-FD root at `swfd-churn-faulty`'s shape (`pamap_like`,
/// `d = 44`, `ℓ = 40`, window 8 192, 64 sites on a fanout-4 tree, two
/// windows of rows). `root_receive` replays every up-message the root
/// received into a fresh root: its ingest, bucket merges included. Of
/// the reads, `query/cold` is a clone of a root never queried, every
/// row-held bucket's Gram computed; `query/after_receive` a queried root
/// that has received one more recorded up-message since, so it folds
/// again with most Grams cached (the first query at each instant of the
/// workload, what its `query_p95_us` reads); `query/hit` a repeat query
/// with nothing received between, which borrows the kept fold
/// ([`REPEATS`] per iteration).
fn bench_window_root(c: &mut Criterion) {
    use cma_core::window::{fd, SwFdConfig};
    use cma_stream::partition::RoundRobin;
    use cma_stream::{Coordinator, Runner, Topology};
    const SITES: usize = 64;
    const WINDOW: u64 = 8_192;
    const TOPOLOGY: Topology = Topology::Tree { fanout: 4 };
    let mut source = cma_data::SyntheticMatrixStream::pamap_like(1);
    let cfg = SwFdConfig::new(SITES, 0.1, WINDOW, source.dim(), 40);
    let (sites, root, _) = fd::deploy_topology(&cfg, TOPOLOGY).into_parts();
    let fresh = root.clone();
    let recording = Recording {
        root,
        received: Vec::new(),
    };
    let mut runner = Runner::with_topology(
        sites,
        recording,
        TOPOLOGY,
        fd::make_aggregator(&cfg, TOPOLOGY),
    );
    let now = 2 * WINDOW;
    let rows = (0..now).map(|t| (t, source.next_row()));
    runner.run_partitioned(rows, &mut RoundRobin::new(SITES), 64);
    let root_in = *runner.stats().node_in_msgs.last().expect("a root");
    let Recording { root, received } = runner.coordinator();
    assert_eq!(
        received.len() as u64,
        root_in,
        "the recorder missed messages"
    );
    assert!(
        received.len() > 300,
        "{} up-messages received",
        received.len()
    );
    let mut g = c.benchmark_group("sliding_window");
    g.sample_size(20);
    g.bench_function("sw_fd/root_receive", |b| {
        b.iter_batched(
            || (fresh.clone(), received.clone()),
            |(mut root, msgs)| {
                let mut out = Vec::new();
                for (from, msg) in msgs {
                    root.receive(from, msg, &mut out);
                }
                black_box((root.bucket_count(), out.len()))
            },
            BatchSize::SmallInput,
        )
    });
    let bits =
        |m: cma_linalg::Matrix| -> Vec<u64> { m.as_slice().iter().map(|v| v.to_bits()).collect() };
    let cold_bits = bits(root.clone().sketch_at(now));
    let queried = root.clone();
    black_box(queried.sketch_at(now));
    let (from, last) = received.last().cloned().expect("a message");
    let receive_one = |mut root: fd::SwFdCoordinator| {
        root.receive(from, last.clone(), &mut Vec::new());
        root
    };
    assert!(
        bits(receive_one(queried.clone()).sketch_at(now))
            == bits(receive_one(root.clone()).sketch_at(now)),
        "a receive left the queried root's fold in place"
    );
    assert!(
        bits(queried.sketch_at(now)) == cold_bits,
        "a hit answers otherwise"
    );
    g.bench_function("sw_fd/query/cold", |b| {
        b.iter_batched(
            || root.clone(),
            |cold| black_box(cold.sketch_at(now)),
            BatchSize::SmallInput,
        )
    });
    g.bench_function("sw_fd/query/after_receive", |b| {
        b.iter_batched(
            || receive_one(queried.clone()),
            |root| black_box(root.sketch_at(now)),
            BatchSize::SmallInput,
        )
    });
    g.throughput(Throughput::Elements(REPEATS));
    g.bench_function("sw_fd/query/hit", |b| {
        b.iter(|| {
            for _ in 0..REPEATS {
                black_box(queried.sketch_at(now));
            }
        })
    });
    g.finish();
}

/// One item estimate at a windowed heavy-hitter root (64 sites on a
/// fanout-4 tree, 64 counters per bucket, window 8 192, two windows of
/// the Zipf stream) that has kept its fold: a borrowed table lookup
/// ([`REPEATS`] per iteration).
fn bench_window_mg_root(c: &mut Criterion) {
    use cma_core::window::{mg, SwMgConfig};
    use cma_stream::partition::RoundRobin;
    use cma_stream::Topology;
    const SITES: usize = 64;
    const WINDOW: u64 = 8_192;
    const TOPOLOGY: Topology = Topology::Tree { fanout: 4 };
    let cfg = SwMgConfig::new(SITES, 0.1, WINDOW, 64);
    let mut runner = mg::deploy_topology(&cfg, TOPOLOGY);
    let now = 2 * WINDOW;
    let stream = WeightedZipfStream::new(10_000, 2.0, 1_000.0, 42).take_vec(now as usize);
    let stamped = (0..now).zip(stream);
    runner.run_partitioned(stamped, &mut RoundRobin::new(SITES), 64);
    let root = runner.coordinator();
    let item = *root
        .tracked_items_at(now)
        .iter()
        .min()
        .expect("a tracked item");
    let cold = root.clone().estimate_at(now, item);
    let queried = root.clone();
    black_box(queried.estimate_at(now, item));
    assert_eq!(queried.estimate_at(now, item).to_bits(), cold.to_bits());
    let mut g = c.benchmark_group("sliding_window");
    g.throughput(Throughput::Elements(REPEATS));
    g.bench_function("sw_mg/estimate_at", |b| {
        b.iter(|| {
            for _ in 0..REPEATS {
                black_box(queried.estimate_at(now, black_box(item)));
            }
        })
    });
    g.finish();
}

/// The MT-P2 root beside the stack of every direction it received.
struct Stacked {
    root: cma_core::matrix::p2::MP2Coordinator,
    stack: cma_linalg::Matrix,
}

impl cma_stream::Coordinator for Stacked {
    type UpMsg = cma_core::matrix::p2::MP2Msg;
    type Broadcast = f64;

    fn receive(&mut self, from: usize, msg: Self::UpMsg, out: &mut Vec<f64>) {
        if let cma_core::matrix::p2::MP2Msg::Delta(row) = &msg {
            self.stack.push_row(row);
        }
        self.root.receive(from, msg, out);
    }
}

/// One MT-P2 direction query at `mt-p2-highrank-star`'s shape
/// (`msd_like`, `d = 90`, 50 sites, `ε = 0.1`, 10 000 rows, ≈ 1 000
/// directions received): `gram` is the coordinator's `xᵀGx`, `stacked`
/// is `Matrix::apply_norm_sq` over the same directions stacked.
fn bench_mt_p2_query(c: &mut Criterion) {
    use cma_core::matrix::{p2, MatrixConfig, MatrixEstimator};
    use cma_stream::partition::RoundRobin;
    use cma_stream::{Runner, Topology};
    const SITES: usize = 50;
    let source = cma_data::SyntheticMatrixStream::msd_like(1);
    let dim = source.dim();
    let cfg = MatrixConfig::new(SITES, 0.1, dim);
    let (sites, root, _) = p2::deploy_topology(&cfg, Topology::Star).into_parts();
    let stack = cma_linalg::Matrix::with_cols(dim);
    let mut runner = Runner::new(sites, Stacked { root, stack });
    runner.run_partitioned(source.take(10_000), &mut RoundRobin::new(SITES), 256);
    let Stacked { root, stack } = runner.coordinator();
    assert!(stack.rows() > 900, "{} directions received", stack.rows());
    let x = cma_linalg::random::unit_vector(&mut StdRng::seed_from_u64(2), dim);
    let mut g = c.benchmark_group("mt_p2");
    g.bench_function("query/gram", |b| {
        b.iter(|| black_box(root.direction_norm_sq(black_box(&x))))
    });
    g.bench_function("query/stacked", |b| {
        b.iter(|| black_box(stack.apply_norm_sq(black_box(&x))))
    });
    g.finish();
}

criterion_group!(
    benches,
    bench_priority_sampler,
    bench_misra_gries,
    bench_sliding_window,
    bench_window_root,
    bench_window_mg_root,
    bench_mt_p2_query
);
criterion_main!(benches);
