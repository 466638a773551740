//! Criterion end-to-end protocol throughput: items (or rows) per second
//! through a full site→coordinator deployment, per protocol, across the
//! batch-size axis of the batch-first runner.
//!
//! Every protocol is measured through per-item [`Runner::feed`]
//! (`batch=1`) and through [`Runner::run_partitioned`] at batch sizes 64
//! and 1024. Batched execution is observably identical to per-item
//! execution (same messages, same stats — see the `batch_parity`
//! integration suite), so any throughput difference here is pure
//! dispatch/locality win, not changed protocol behaviour.

use cma_core::{hh, matrix, HhConfig, MatrixConfig};
use cma_data::{SyntheticMatrixStream, WeightedZipfStream};
use cma_stream::partition::RoundRobin;
use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use std::hint::black_box;

const HH_N: usize = 20_000;
const MT_N: usize = 4_000;
const SITES: usize = 10;
const BATCHES: [usize; 2] = [64, 1024];

fn bench_hh_protocols(c: &mut Criterion) {
    let stream = WeightedZipfStream::new(10_000, 2.0, 1_000.0, 3).take_vec(HH_N);
    let cfg = HhConfig::new(SITES, 0.05).with_seed(1);
    let mut g = c.benchmark_group("hh_throughput");
    g.sample_size(10);
    g.throughput(Throughput::Elements(HH_N as u64));

    macro_rules! bench_one {
        ($name:literal, $deploy:expr) => {
            g.bench_function(concat!($name, "/feed"), |b| {
                b.iter(|| {
                    let mut runner = $deploy;
                    for (i, &(e, w)) in stream.iter().enumerate() {
                        runner.feed(i % SITES, (e, w));
                    }
                    black_box(runner.stats().total())
                })
            });
            for batch in BATCHES {
                g.bench_function(format!("{}/batch{batch}", $name), |b| {
                    b.iter(|| {
                        let mut runner = $deploy;
                        runner.run_partitioned(
                            stream.iter().copied(),
                            &mut RoundRobin::new(SITES),
                            batch,
                        );
                        black_box(runner.stats().total())
                    })
                });
            }
        };
    }
    bench_one!("p1", hh::p1::deploy(&cfg));
    bench_one!("p2", hh::p2::deploy(&cfg));
    bench_one!("p3", hh::p3::deploy(&cfg));
    bench_one!("p4", hh::p4::deploy(&cfg));
    g.finish();
}

fn bench_matrix_protocols(c: &mut Criterion) {
    let rows: Vec<Vec<f64>> = {
        let mut s = SyntheticMatrixStream::pamap_like(5);
        (0..MT_N).map(|_| s.next_row()).collect()
    };
    let cfg = MatrixConfig::new(SITES, 0.1, 44).with_seed(2);
    let mut g = c.benchmark_group("matrix_throughput");
    g.sample_size(10);
    g.throughput(Throughput::Elements(MT_N as u64));

    macro_rules! bench_one {
        ($name:literal, $deploy:expr) => {
            g.bench_function(concat!($name, "/feed"), |b| {
                b.iter(|| {
                    let mut runner = $deploy;
                    for (i, row) in rows.iter().enumerate() {
                        runner.feed(i % SITES, row.clone());
                    }
                    black_box(runner.stats().total())
                })
            });
            for batch in BATCHES {
                g.bench_function(format!("{}/batch{batch}", $name), |b| {
                    b.iter(|| {
                        let mut runner = $deploy;
                        runner.run_partitioned(
                            rows.iter().cloned(),
                            &mut RoundRobin::new(SITES),
                            batch,
                        );
                        black_box(runner.stats().total())
                    })
                });
            }
        };
    }
    bench_one!("p1", matrix::p1::deploy(&cfg));
    bench_one!("p2", matrix::p2::deploy(&cfg));
    bench_one!("p3", matrix::p3::deploy(&cfg));
    bench_one!("p4", matrix::p4::deploy(&cfg));
    g.finish();
}

criterion_group!(benches, bench_hh_protocols, bench_matrix_protocols);
criterion_main!(benches);
