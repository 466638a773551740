//! Criterion micro-benchmarks for the centralized sketches: the priority
//! sampler, the sliding-window sketches, and the Misra–Gries
//! flush hand-off. The repo benchmark's `sketch.mg_*` rows time MG updates
//! and merges into one fresh table, not a small flush handed off and
//! merged into a large table; `misra_gries/flush_merge` times that,
//! `misra_gries/root_merge` the overflowing merges at a full root, and
//! `misra_gries/update_distinct` updates that mostly miss a full table.
//! Frequent Directions is timed by the repo benchmark's `sketch.fd_*` rows;
//! `sliding_window/sw_fd/query/{cold,warm}` times the windowed-FD root's
//! read path — one fold of every live bucket — at the shape of the repo
//! benchmark's `swfd-churn-faulty` workload. `mt_p2/query/{gram,stacked}`
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

/// A windowed-FD query at `swfd-churn-faulty`'s shape (`pamap_like`,
/// `d = 44`, `ℓ = 40`, window 8 192, 64 sites on a fanout-4 tree, two
/// windows of rows): `cold` is the first fold after ingest, every bucket
/// Gram computed; `warm` repeats a fold with nothing ingested between,
/// every bucket Gram cached.
fn bench_window_query(c: &mut Criterion) {
    use cma_core::window::{fd, SwFdConfig};
    use cma_stream::partition::RoundRobin;
    use cma_stream::Topology;
    const SITES: usize = 64;
    const WINDOW: u64 = 8_192;
    let mut source = cma_data::SyntheticMatrixStream::pamap_like(1);
    let cfg = SwFdConfig::new(SITES, 0.1, WINDOW, source.dim(), 40);
    let mut runner = fd::deploy_topology(&cfg, Topology::Tree { fanout: 4 });
    let now = 2 * WINDOW;
    let rows = (0..now).map(|t| (t, source.next_row()));
    runner.run_partitioned(rows, &mut RoundRobin::new(SITES), 64);
    let root = runner.coordinator();
    let mut g = c.benchmark_group("sliding_window");
    g.sample_size(20);
    g.bench_function("sw_fd/query/cold", |b| {
        b.iter_batched(
            || root.clone(),
            |cold| black_box(cold.sketch_at(now)),
            BatchSize::SmallInput,
        )
    });
    black_box(root.sketch_at(now));
    g.bench_function("sw_fd/query/warm", |b| {
        b.iter(|| black_box(root.sketch_at(now)))
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
    bench_window_query,
    bench_mt_p2_query
);
criterion_main!(benches);
