//! Ablation benchmarks for the protocols' design choices:
//!
//! * `lazy_svd` — MT-P2's batched decomposition (`batch_slack = 0.25`) vs.
//!   the paper's literal per-row Algorithm 5.3 (`batch_slack = 0`).
//! * `site_sketch` — HH-P2 with exact per-site delta maps vs. the paper's
//!   Misra–Gries space reduction.
//! * `p3_replacement` — without- vs. with-replacement sampling at equal
//!   sample size (wall-clock; Table 1 shows wr also loses on messages and
//!   error).

use cma_core::hh::p2::{self as hh_p2, P2Options};
use cma_core::matrix::p2::{self as mt_p2, MP2Options};
use cma_core::{hh, matrix, HhConfig, MatrixConfig};
use cma_data::{SyntheticMatrixStream, WeightedZipfStream};
use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

fn ablation_lazy_svd(c: &mut Criterion) {
    let rows: Vec<Vec<f64>> = {
        let mut s = SyntheticMatrixStream::pamap_like(9);
        (0..1_500).map(|_| s.next_row()).collect()
    };
    let cfg = MatrixConfig::new(5, 0.2, 44).with_seed(3);
    let mut g = c.benchmark_group("ablation_lazy_svd");
    g.sample_size(10);
    g.bench_function("batched_slack_0.25", |b| {
        b.iter(|| {
            let mut runner = mt_p2::deploy_with(&cfg, &MP2Options { batch_slack: 0.25 });
            for (i, row) in rows.iter().enumerate() {
                runner.feed(i % 5, row.clone());
            }
            black_box(runner.stats().total())
        })
    });
    g.bench_function("per_row_slack_0", |b| {
        b.iter(|| {
            let mut runner = mt_p2::deploy_with(&cfg, &MP2Options { batch_slack: 0.0 });
            for (i, row) in rows.iter().enumerate() {
                runner.feed(i % 5, row.clone());
            }
            black_box(runner.stats().total())
        })
    });
    g.finish();
}

fn ablation_site_sketch(c: &mut Criterion) {
    let stream = WeightedZipfStream::new(10_000, 2.0, 1_000.0, 4).take_vec(20_000);
    let cfg = HhConfig::new(5, 0.02).with_seed(4);
    let mg_cap = (2.0 * cfg.sites as f64 / cfg.epsilon).ceil() as usize;
    let mut g = c.benchmark_group("ablation_site_sketch");
    g.sample_size(10);
    g.bench_function("exact_map", |b| {
        b.iter(|| {
            let mut runner = hh_p2::deploy(&cfg);
            for (i, &(e, w)) in stream.iter().enumerate() {
                runner.feed(i % 5, (e, w));
            }
            black_box(runner.stats().total())
        })
    });
    g.bench_function("misra_gries_sites", |b| {
        b.iter(|| {
            let mut runner = hh_p2::deploy_with(
                &cfg,
                &P2Options {
                    mg_site_capacity: Some(mg_cap),
                    ..Default::default()
                },
            );
            for (i, &(e, w)) in stream.iter().enumerate() {
                runner.feed(i % 5, (e, w));
            }
            black_box(runner.stats().total())
        })
    });
    g.finish();
}

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

criterion_group!(
    benches,
    ablation_lazy_svd,
    ablation_site_sketch,
    ablation_p3_replacement
);
criterion_main!(benches);
