//! Ablation benchmarks for the protocols' design choices:
//!
//! * `p3_replacement` — without- vs. with-replacement sampling at equal
//!   sample size (wall-clock; Table 1 shows wr also loses on messages and
//!   error).

use cma_core::{hh, matrix, HhConfig, MatrixConfig};
use cma_data::{SyntheticMatrixStream, WeightedZipfStream};
use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

fn ablation_p3_replacement(c: &mut Criterion) {
    let stream = WeightedZipfStream::new(10_000, 2.0, 1_000.0, 5).take_vec(20_000);
    let cfg = HhConfig::new(5, 0.05).with_seed(5).with_sample_size(500);
    let mut g = c.benchmark_group("ablation_p3_replacement");
    g.sample_size(10);
    g.bench_function("without_replacement", |b| {
        b.iter(|| {
            let mut runner = hh::p3::deploy(&cfg);
            for (i, &(e, w)) in stream.iter().enumerate() {
                runner.feed(i % 5, (e, w));
            }
            black_box(runner.stats().total())
        })
    });
    g.bench_function("with_replacement", |b| {
        b.iter(|| {
            let mut runner = hh::p3wr::deploy(&cfg);
            for (i, &(e, w)) in stream.iter().enumerate() {
                runner.feed(i % 5, (e, w));
            }
            black_box(runner.stats().total())
        })
    });
    g.finish();

    // Matrix flavour at Table 1's shape.
    let rows: Vec<Vec<f64>> = {
        let mut s = SyntheticMatrixStream::msd_like(6);
        (0..2_000).map(|_| s.next_row()).collect()
    };
    let mcfg = MatrixConfig::new(5, 0.1, 90)
        .with_seed(6)
        .with_sample_size(231);
    let mut g = c.benchmark_group("ablation_p3_replacement_matrix");
    g.sample_size(10);
    g.bench_function("without_replacement", |b| {
        b.iter(|| {
            let mut runner = matrix::p3::deploy(&mcfg);
            for (i, row) in rows.iter().enumerate() {
                runner.feed(i % 5, row.clone());
            }
            black_box(runner.stats().total())
        })
    });
    g.bench_function("with_replacement", |b| {
        b.iter(|| {
            let mut runner = matrix::p3wr::deploy(&mcfg);
            for (i, row) in rows.iter().enumerate() {
                runner.feed(i % 5, row.clone());
            }
            black_box(runner.stats().total())
        })
    });
    g.finish();
}

criterion_group!(benches, ablation_p3_replacement);
criterion_main!(benches);
