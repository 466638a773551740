//! Householder tridiagonalisation + implicit-shift QL: the production
//! symmetric eigensolver.
//!
//! Every decomposition on a protocol hot path — each Frequent Directions
//! shrink and merge ([`crate::svd::gram_svd_blocked`]) and each MT-P2
//! decomposition — eigendecomposes a small dense symmetric Gram matrix
//! (`n ≲ 100`) and needs *all* of its spectrum or an interior part of it:
//! the FD shrink subtracts `σ²_keep`, the `⌈ℓ/2⌉`-th of `ℓ` eigenvalues.
//! This is the EISPACK `tred2`/`tql2` pair (as in JAMA): `n³`-order work in
//! two fixed phases, with no tolerance to choose and no dependence on
//! spectral gaps.
//!
//! 1. **Tridiagonalise.** `n − 2` Householder reflections reduce `S` to
//!    `T = QᵀSQ` and accumulate `Q`.
//! 2. **Diagonalise.** Implicit Wilkinson-shifted QL sweeps chase each
//!    off-diagonal entry of `T` to zero, deflating eigenvalue `l` once
//!    `|eₘ| ≤ u·max_{k ≤ l}(|d_k| + |e_k|)` (`u = 2⁻⁵²`, the running scale
//!    of the tridiagonal), and apply every plane rotation to `Q`.
//!
//! Against cyclic Jacobi ([`crate::eigen`], kept as the oracle) on the
//! production shapes (`cargo bench -p cma-bench --bench linalg -- eigen`,
//! 2-core x86-64 VM): 0.10 ms against 0.85 ms (8.4×) on the 44×44 Gram
//! of an 80-row `pamap_like` buffer, 0.91 ms against 5.4 ms (6.0×) on the
//! 90×90 `msd_like` Gram — with eigenvalues, residuals and orthogonality
//! within `O(n·u)` of exact, as the property tests pin.
//!
//! # Layout
//!
//! The solver works in **one** `n×n` row-major buffer holding `Qᵀ`, never
//! `Q`: because `S` is symmetric, the reduction can run on the transposed
//! index pattern, so every inner loop — the reduction's row updates, the
//! accumulation's dot products, and each QL rotation, which mixes two
//! adjacent *rows* in one `rows_pair_mut` pass — streams contiguous
//! memory. At the end, row `i` of the buffer is the eigenvector of
//! `values[i]` (the [`SymEigen`] convention), after an in-place selection
//! sort by descending eigenvalue.

use crate::eigen::{check_finite, SymEigen};
use crate::error::LinalgError;
use crate::matrix::Matrix;

/// Implicit QL iterations allowed per eigenvalue before
/// [`LinalgError::NoConvergence`] (EISPACK's `tql2` budget). Each
/// iteration converges cubically near the end; finite inputs deflate in
/// one or two on average.
const MAX_ITERATIONS: usize = 30;

/// Eigendecomposition of a symmetric `n × n` matrix by Householder
/// tridiagonalisation and implicit-shift QL.
///
/// Returns eigenvalues in descending order and orthonormal eigenvectors as
/// rows, exactly as [`crate::eigen::jacobi_eigen_sym`] does. The working
/// copy is symmetrised up front, so tiny asymmetries from floating-point
/// accumulation are harmless.
///
/// # Errors
/// [`LinalgError::NonFinite`] if any entry is NaN or infinite;
/// [`LinalgError::NoConvergence`] if some eigenvalue has not deflated
/// after the per-eigenvalue iteration budget (not observed on finite
/// input).
///
/// # Panics
/// Panics if `s` is not square.
pub fn ql_eigen_sym(s: &Matrix) -> Result<SymEigen, LinalgError> {
    assert_eq!(s.rows(), s.cols(), "ql_eigen_sym: matrix must be square");
    check_finite(s, "ql_eigen_sym")?;
    let n = s.rows();
    if n == 0 {
        return Ok(SymEigen {
            values: Vec::new(),
            vectors: Matrix::zeros(0, 0),
        });
    }
    let mut z = s.clone();
    for i in 0..n {
        for j in (i + 1)..n {
            let m = 0.5 * (z[(i, j)] + z[(j, i)]);
            z[(i, j)] = m;
            z[(j, i)] = m;
        }
    }
    let mut d = vec![0.0; n];
    let mut e = vec![0.0; n];
    tridiagonalise(&mut z, &mut d, &mut e);
    diagonalise(&mut z, &mut d, &mut e)?;
    sort_descending(&mut z, &mut d);
    Ok(SymEigen {
        values: d,
        vectors: z,
    })
}

/// `tred2` on the transposed layout: reduces the symmetric `z` to
/// tridiagonal form, leaving the diagonal in `d`, the sub-diagonal in
/// `e[1..]` (`e[0] = 0`) and the accumulated reflections `Qᵀ` in `z`.
///
/// Index map from the textbook (column-oriented) form: its `V[k][j]` is
/// `z[(j, k)]` here, so its lower-triangle working area is this upper
/// triangle, each reflection vector is stored in a row, and the
/// accumulation's column dot products are row dot products.
fn tridiagonalise(z: &mut Matrix, d: &mut [f64], e: &mut [f64]) {
    let n = d.len();
    for (j, dj) in d.iter_mut().enumerate() {
        *dj = z[(j, n - 1)];
    }
    for i in (1..n).rev() {
        let scale: f64 = d[..i].iter().map(|x| x.abs()).sum();
        let mut h = 0.0;
        if scale == 0.0 {
            // Row already reduced: nothing to reflect.
            e[i] = d[i - 1];
            for j in 0..i {
                d[j] = z[(j, i - 1)];
                z[(j, i)] = 0.0;
                z[(i, j)] = 0.0;
            }
        } else {
            // Householder vector, scaled against under/overflow.
            for dk in &mut d[..i] {
                *dk /= scale;
                h += *dk * *dk;
            }
            let f = d[i - 1];
            let g = if f > 0.0 { -h.sqrt() } else { h.sqrt() };
            e[i] = scale * g;
            h -= f * g;
            d[i - 1] = f - g;
            e[..i].fill(0.0);
            // p = S·u over the leading i×i block (upper triangle of z).
            for j in 0..i {
                let f = d[j];
                z[(i, j)] = f;
                let row = &z.row(j)[j + 1..i];
                let mut g = e[j] + z[(j, j)] * f;
                for ((&zjk, &dk), ek) in row.iter().zip(&d[j + 1..i]).zip(&mut e[j + 1..i]) {
                    g += zjk * dk;
                    *ek += zjk * f;
                }
                e[j] = g;
            }
            let mut f = 0.0;
            for (ej, &dj) in e[..i].iter_mut().zip(&d[..i]) {
                *ej /= h;
                f += *ej * dj;
            }
            let hh = f / (h + h);
            for (ej, &dj) in e[..i].iter_mut().zip(&d[..i]) {
                *ej -= hh * dj;
            }
            // Rank-2 update S ← S − u·qᵀ − q·uᵀ of the leading block.
            for j in 0..i {
                let (f, g) = (d[j], e[j]);
                let row = &mut z.row_mut(j)[j..i];
                for ((zjk, &ek), &dk) in row.iter_mut().zip(&e[j..i]).zip(&d[j..i]) {
                    *zjk -= f * ek + g * dk;
                }
                d[j] = z[(j, i - 1)];
                z[(j, i)] = 0.0;
            }
        }
        d[i] = h;
    }

    // Accumulate the reflections into Qᵀ, one leading block at a time.
    for i in 0..n - 1 {
        z[(i, n - 1)] = z[(i, i)];
        z[(i, i)] = 1.0;
        let h = d[i + 1];
        if h != 0.0 {
            for (dk, &u) in d[..=i].iter_mut().zip(&z.row(i + 1)[..=i]) {
                *dk = u / h;
            }
            for j in 0..=i {
                let (row, u) = z.rows_pair_mut(j, i + 1);
                let (row, u) = (&mut row[..=i], &u[..=i]);
                let g: f64 = u.iter().zip(row.iter()).map(|(x, y)| x * y).sum();
                for (x, &dk) in row.iter_mut().zip(&d[..=i]) {
                    *x -= g * dk;
                }
            }
        }
        z.row_mut(i + 1)[..=i].fill(0.0);
    }
    for (j, dj) in d.iter_mut().enumerate() {
        *dj = z[(j, n - 1)];
        z[(j, n - 1)] = 0.0;
    }
    z[(n - 1, n - 1)] = 1.0;
    e[0] = 0.0;
}

/// `tql2`: diagonalises the tridiagonal `(d, e)` by implicit-shift QL,
/// rotating pairs of adjacent rows of `z` (= `Qᵀ`) along. On return `d`
/// holds the eigenvalues (unsorted) and row `i` of `z` the eigenvector of
/// `d[i]`.
fn diagonalise(z: &mut Matrix, d: &mut [f64], e: &mut [f64]) -> Result<(), LinalgError> {
    let n = d.len();
    e.copy_within(1.., 0);
    e[n - 1] = 0.0;
    let mut shift = 0.0;
    let mut scale = 0.0_f64;
    for l in 0..n {
        scale = scale.max(d[l].abs() + e[l].abs());
        // e[n − 1] = 0, so the search always stops at some m < n.
        let m = (l..n)
            .find(|&m| e[m].abs() <= f64::EPSILON * scale)
            .unwrap_or(n - 1);
        let mut iterations = 0;
        while m > l && e[l].abs() > f64::EPSILON * scale {
            if iterations == MAX_ITERATIONS {
                return Err(LinalgError::NoConvergence {
                    routine: "ql_eigen_sym",
                    sweeps: MAX_ITERATIONS,
                });
            }
            iterations += 1;
            // Wilkinson shift from the leading 2×2 of the block.
            let g = d[l];
            let p = (d[l + 1] - g) / (2.0 * e[l]);
            let r = if p < 0.0 { -p.hypot(1.0) } else { p.hypot(1.0) };
            d[l] = e[l] / (p + r);
            d[l + 1] = e[l] * (p + r);
            let dl1 = d[l + 1];
            let h = g - d[l];
            for di in &mut d[l + 2..] {
                *di -= h;
            }
            shift += h;

            // One implicit QL sweep from m − 1 down to l.
            let mut p = d[m];
            let (mut c, mut c2, mut c3) = (1.0, 1.0, 1.0);
            let el1 = e[l + 1];
            let (mut s, mut s2) = (0.0, 0.0);
            for i in (l..m).rev() {
                c3 = c2;
                c2 = c;
                s2 = s;
                let g = c * e[i];
                let h = c * p;
                let r = p.hypot(e[i]);
                e[i + 1] = s * r;
                s = e[i] / r;
                c = p / r;
                p = c * d[i] - s * g;
                d[i + 1] = h + s * (c * g + s * d[i]);
                let (zi, zi1) = z.rows_pair_mut(i, i + 1);
                for (a, b) in zi.iter_mut().zip(zi1.iter_mut()) {
                    let (x, y) = (*a, *b);
                    *b = s * x + c * y;
                    *a = c * x - s * y;
                }
            }
            let p = -s * s2 * c3 * el1 * e[l] / dl1;
            e[l] = s * p;
            d[l] = c * p;
        }
        d[l] += shift;
        e[l] = 0.0;
    }
    Ok(())
}

/// Orders `d` descending, permuting the rows of `z` alongside (selection
/// sort by row swaps: `n` swaps of `n` floats, no second buffer).
fn sort_descending(z: &mut Matrix, d: &mut [f64]) {
    let n = d.len();
    for i in 0..n {
        let mut best = i;
        for k in (i + 1)..n {
            if d[k] > d[best] {
                best = k;
            }
        }
        if best != i {
            d.swap(i, best);
            let (a, b) = z.rows_pair_mut(i, best);
            a.swap_with_slice(b);
        }
    }
}

#[cfg(test)]
mod tests {
    // Accuracy against the Jacobi oracle and the edge cases live in
    // `tests/proptest_linalg.rs` (`ql_matches_jacobi_oracle`,
    // `ql_edge_cases`).
    use super::*;

    #[test]
    fn known_two_by_two() {
        let s = Matrix::from_rows(&[vec![2.0, 1.0], vec![1.0, 2.0]]);
        let e = ql_eigen_sym(&s).unwrap();
        assert!((e.values[0] - 3.0).abs() < 1e-14);
        assert!((e.values[1] - 1.0).abs() < 1e-14);
    }

    #[test]
    fn non_finite_input_is_an_error() {
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let mut s = Matrix::identity(4);
            s[(1, 2)] = bad;
            assert_eq!(
                ql_eigen_sym(&s).unwrap_err(),
                LinalgError::NonFinite {
                    routine: "ql_eigen_sym"
                }
            );
        }
    }
}
