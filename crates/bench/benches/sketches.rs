//! Criterion micro-benchmarks for the centralized sketches the repo
//! benchmark's layer rows do not already time (`sketch.mg_*` and
//! `sketch.fd_*` cover Misra–Gries and Frequent Directions): SpaceSaving,
//! the priority sampler and the sliding-window sketches.

use cma_data::WeightedZipfStream;
use cma_sketch::{PrioritySampler, SpaceSaving};
use criterion::{criterion_group, criterion_main, BatchSize, Criterion, Throughput};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;

const STREAM_LEN: usize = 20_000;

fn zipf_stream() -> Vec<(u64, f64)> {
    WeightedZipfStream::new(10_000, 2.0, 1_000.0, 42).take_vec(STREAM_LEN)
}

fn bench_space_saving(c: &mut Criterion) {
    let stream = zipf_stream();
    let mut g = c.benchmark_group("space_saving");
    g.throughput(Throughput::Elements(STREAM_LEN as u64));
    for cap in [64usize, 1024] {
        g.bench_function(format!("update/cap={cap}"), |b| {
            b.iter_batched(
                || SpaceSaving::new(cap),
                |mut ss| {
                    for &(e, w) in &stream {
                        ss.update(e, w);
                    }
                    black_box(ss.len())
                },
                BatchSize::SmallInput,
            )
        });
    }
    g.finish();
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

criterion_group!(
    benches,
    bench_space_saving,
    bench_priority_sampler,
    bench_sliding_window
);
criterion_main!(benches);
