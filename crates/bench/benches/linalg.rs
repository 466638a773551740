//! Criterion micro-benchmarks for the linear-algebra substrate: the two
//! SVD routes at the shapes the sketches actually use, the symmetric
//! eigensolvers — the production Householder + QL against the Jacobi
//! oracle at the two Gram shapes the protocols decompose (`eigen` group;
//! `cargo bench -p cma-bench --bench linalg -- eigen`) — the
//! spectral-norm evaluators behind the error metric, and the
//! blocked-vs-naive kernel A/B (`kernels` group) that measures what the
//! cache-tiled `matmul`/`gram`/`apply_transpose` and the row-pair Jacobi
//! buy over the retained reference implementations at the paper's d = 44
//! and the d-axis extremes 128/512, plus the `cholesky certificate` vs
//! `ql eigen` pair at d = 90 — what MT-P2's certified trigger pays
//! against what it skips.

use cma_data::SyntheticMatrixStream;
use cma_linalg::cholesky::{certifies_lambda_max_below, lambda_max_upper_bound};
use cma_linalg::eigen::{
    jacobi_eigen_sym, jacobi_eigen_sym_with_basis_tol, jacobi_eigen_sym_with_basis_tol_naive,
};
use cma_linalg::matrix::{accumulate_outer, accumulate_outer_panel};
use cma_linalg::norms::{spectral_norm_sym_exact, spectral_norm_sym_power};
use cma_linalg::ql::ql_eigen_sym;
use cma_linalg::svd::{gram_svd, jacobi_svd};
use cma_linalg::{random, Matrix};
use criterion::{criterion_group, criterion_main, Criterion};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;

fn bench_svd_routes(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(1);
    let mut g = c.benchmark_group("svd");
    g.sample_size(20);
    // The FD shrink shape: an ℓ×d sketch buffer.
    for &(n, d) in &[(40usize, 44usize), (40, 90), (120, 44)] {
        let a = random::gaussian(&mut rng, n, d);
        g.bench_function(format!("gram_svd/{n}x{d}"), |b| {
            b.iter(|| black_box(gram_svd(&a).unwrap().sigma[0]))
        });
        g.bench_function(format!("jacobi_svd/{n}x{d}"), |b| {
            b.iter(|| black_box(jacobi_svd(&a).unwrap().sigma[0]))
        });
    }
    g.finish();
}

fn bench_eigen(c: &mut Criterion) {
    let mut g = c.benchmark_group("eigen");
    g.sample_size(20);
    // The production shapes, QL against Jacobi: the 44×44 Gram of an
    // 80-row `pamap_like` buffer (every SwFd bucket merge and FD shrink
    // of the window workload) and the 90×90 Gram of `msd_like` rows (a
    // saturated MT-P2 node's decomposition).
    let pamap = SyntheticMatrixStream::pamap_like(1).take_matrix(80).gram();
    let msd = SyntheticMatrixStream::msd_like(1).take_matrix(180).gram();
    for (name, gram) in [("pamap_gram_44", &pamap), ("msd_gram_90", &msd)] {
        g.bench_function(format!("ql/{name}"), |b| {
            b.iter(|| black_box(ql_eigen_sym(gram).unwrap().values[0]))
        });
        g.bench_function(format!("jacobi/{name}"), |b| {
            b.iter(|| black_box(jacobi_eigen_sym(gram).unwrap().values[0]))
        });
    }
    g.finish();
}

fn bench_spectral_norm(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(3);
    let a = random::gaussian(&mut rng, 90, 90);
    let s = a.add(&a.transpose()).scaled(0.5);
    let mut g = c.benchmark_group("spectral_norm");
    g.sample_size(20);
    g.bench_function("exact_eigen/90", |b| {
        b.iter(|| black_box(spectral_norm_sym_exact(&s).unwrap()))
    });
    g.bench_function("power_iteration/90", |b| {
        b.iter(|| black_box(spectral_norm_sym_power(&s, 200)))
    });
    g.finish();
}

/// The kernel A/B: every blocked kernel next to the naive reference it
/// is proven bit-identical to (see the `kernel_paths_agree` tests and
/// the proptest suite), at the paper's d = 44 and at d ∈ {128, 512}.
/// Printed on demand; the protocol-level effect of the kernels is gated
/// by the repo benchmark (`mt-p2-highrank-star/arrivals_per_s` and the
/// `linalg.*` layer rows).
fn bench_kernel_ab(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(5);
    let mut g = c.benchmark_group("kernels");
    g.sample_size(10);
    for &d in &[44usize, 128, 512] {
        // The MT-P2 projection shape: a batch of rows times a dense
        // square basis.
        let rows = random::gaussian(&mut rng, 256, d);
        let basis = random::gaussian(&mut rng, d, d);
        g.bench_function(format!("matmul_blocked/256x{d}x{d}"), |b| {
            b.iter(|| black_box(rows.matmul(&basis).frob_norm_sq()))
        });
        g.bench_function(format!("matmul_naive/256x{d}x{d}"), |b| {
            b.iter(|| black_box(rows.matmul_naive(&basis).frob_norm_sq()))
        });
        g.bench_function(format!("gram_blocked/256x{d}"), |b| {
            b.iter(|| black_box(rows.gram().frob_norm_sq()))
        });
        g.bench_function(format!("gram_naive/256x{d}"), |b| {
            b.iter(|| black_box(rows.gram_naive().frob_norm_sq()))
        });
        let x: Vec<f64> = (0..256).map(|i| (i as f64).sin()).collect();
        g.bench_function(format!("apply_transpose_blocked/256x{d}"), |b| {
            b.iter(|| black_box(rows.apply_transpose(&x)[0]))
        });
        g.bench_function(format!("apply_transpose_naive/256x{d}"), |b| {
            b.iter(|| black_box(rows.apply_transpose_naive(&x)[0]))
        });
        // The MT-P2 Gram update: fold a pending batch into G.
        let gram0 = rows.gram();
        g.bench_function(format!("accumulate_panel/256x{d}"), |b| {
            b.iter(|| {
                let mut acc = gram0.clone();
                accumulate_outer_panel(&mut acc, &rows);
                black_box(acc.frob_norm_sq())
            })
        });
        g.bench_function(format!("accumulate_rowwise/256x{d}"), |b| {
            b.iter(|| {
                let mut acc = gram0.clone();
                for r in 0..rows.rows() {
                    accumulate_outer(&mut acc, rows.row(r));
                }
                black_box(acc.frob_norm_sq())
            })
        });
    }
    // The eigensolver pair at the MT-P2 hot-loop tolerance. d = 512 is
    // excluded: the naive reference at O(d³) per sweep times tens of
    // sweeps is minutes per iteration there, and the 44/128 ratio
    // already exhibits the row-pair rewrite's effect.
    for &d in &[44usize, 128] {
        let a = random::gaussian(&mut rng, d, d);
        let s = a.add(&a.transpose()).scaled(0.5);
        g.bench_function(format!("eigen_fast/{d}"), |b| {
            b.iter(|| {
                let basis = Matrix::identity(d);
                black_box(
                    jacobi_eigen_sym_with_basis_tol(&s, basis, 1e-9)
                        .unwrap()
                        .values[0],
                )
            })
        });
        g.bench_function(format!("eigen_naive/{d}"), |b| {
            b.iter(|| {
                let basis = Matrix::identity(d);
                black_box(
                    jacobi_eigen_sym_with_basis_tol_naive(&s, basis, 1e-9)
                        .unwrap()
                        .values[0],
                )
            })
        });
    }
    // The MT-P2 trigger at the MSD shape: proving `λ_max < send` on a
    // saturated d = 90 withheld Gram (a pass plus the five-halving bound)
    // against the production eigensolve a decomposition pays for the
    // same answer.
    let gram = random::gaussian(&mut rng, 200, 90).gram();
    let send = 1.25 * jacobi_eigen_sym(&gram).unwrap().values[0];
    g.bench_function("cholesky certificate/90", |b| {
        b.iter(|| {
            assert!(certifies_lambda_max_below(&gram, send));
            black_box(lambda_max_upper_bound(&gram, send))
        })
    });
    g.bench_function("ql eigen/90", |b| {
        b.iter(|| black_box(ql_eigen_sym(&gram).unwrap().values[0]))
    });
    g.finish();
}

criterion_group!(
    benches,
    bench_svd_routes,
    bench_eigen,
    bench_spectral_norm,
    bench_kernel_ab
);
criterion_main!(benches);
