//! Row-major dense matrix.
//!
//! [`Matrix`] is the workhorse container of the workspace: streams deliver
//! *rows*, sketches store a bounded number of rows, and the coordinator
//! stacks received rows. The layout is therefore row-major `Vec<f64>`, so a
//! row is a contiguous slice, appending a row is an `extend_from_slice`,
//! and the Gram matrix `AᵀA` (the only product the protocols take of a
//! tall matrix) streams through rows cache-friendly.

use crate::vector;
use std::fmt;
use std::ops::{Index, IndexMut};

/// Rows of `B` a blocked [`Matrix::matmul`] streams per k-panel. A panel is
/// `KC × cols(B)` doubles — 64 × 512 × 8 B = 256 KiB at the largest bench
/// dimension, sized to stay resident in L2 while every row of `A` reuses it.
const MATMUL_KC: usize = 64;

/// Rows accumulated per pass over the output in [`accumulate_outer_panel`]
/// and the blocked [`Matrix::gram`]. The panel (`32 × d` doubles) stays
/// cache-hot while the `d × d` accumulator is streamed once per panel
/// instead of once per row — a 32× cut in accumulator traffic, which is
/// what dominates `gram` once `d²` doubles outgrow L2 (d ≳ 180).
const GRAM_PANEL: usize = 32;

/// Dense row-major matrix of `f64`.
///
/// Rows are contiguous. Dimension mismatches panic (programming errors);
/// data-dependent failures are reported by the decomposition routines that
/// consume matrices, not by `Matrix` itself.
#[derive(Clone, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Matrix {
    /// A `rows × cols` matrix of zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Matrix {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// The `n × n` identity matrix.
    pub fn identity(n: usize) -> Self {
        let mut m = Matrix::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = 1.0;
        }
        m
    }

    /// Builds a matrix from a flat row-major buffer.
    ///
    /// # Panics
    /// Panics if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f64>) -> Self {
        assert_eq!(data.len(), rows * cols, "from_vec: buffer length mismatch");
        Matrix { rows, cols, data }
    }

    /// Builds a matrix by stacking the given equal-length rows.
    ///
    /// # Panics
    /// Panics if the rows do not all have the same length.
    pub fn from_rows(rows: &[Vec<f64>]) -> Self {
        if rows.is_empty() {
            return Matrix::zeros(0, 0);
        }
        let cols = rows[0].len();
        let mut data = Vec::with_capacity(rows.len() * cols);
        for r in rows {
            assert_eq!(r.len(), cols, "from_rows: ragged rows");
            data.extend_from_slice(r);
        }
        Matrix {
            rows: rows.len(),
            cols,
            data,
        }
    }

    /// An empty matrix with `cols` columns and zero rows; rows can then be
    /// appended with [`Matrix::push_row`]. This is how coordinators
    /// accumulate received rows.
    pub fn with_cols(cols: usize) -> Self {
        Matrix {
            rows: 0,
            cols,
            data: Vec::new(),
        }
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// `true` when the matrix has no entries.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.rows == 0 || self.cols == 0
    }

    /// Row `i` as a contiguous slice.
    #[inline]
    pub fn row(&self, i: usize) -> &[f64] {
        debug_assert!(i < self.rows, "row index out of bounds");
        &self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Mutable row `i`.
    #[inline]
    pub fn row_mut(&mut self, i: usize) -> &mut [f64] {
        debug_assert!(i < self.rows, "row index out of bounds");
        &mut self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Iterator over the rows as slices.
    pub fn iter_rows(&self) -> impl Iterator<Item = &[f64]> {
        self.data.chunks_exact(self.cols.max(1)).take(self.rows)
    }

    /// Appends a row.
    ///
    /// # Panics
    /// Panics if `row.len() != self.cols()`.
    pub fn push_row(&mut self, row: &[f64]) {
        assert_eq!(row.len(), self.cols, "push_row: dimension mismatch");
        self.data.extend_from_slice(row);
        self.rows += 1;
    }

    /// Appends all rows of `other`.
    ///
    /// # Panics
    /// Panics if the column counts differ.
    pub fn stack(&mut self, other: &Matrix) {
        assert_eq!(self.cols, other.cols, "stack: column mismatch");
        self.data.extend_from_slice(&other.data);
        self.rows += other.rows;
    }

    /// Strided, allocation-free traversal of column `j`.
    ///
    /// This is what loops should use: an audit of the workspace found no
    /// remaining hot caller of the allocating [`Matrix::col`] (the QR and
    /// SVD routines already work on cached transposes), and this iterator
    /// keeps it that way.
    pub fn col_iter(&self, j: usize) -> impl Iterator<Item = f64> + '_ {
        assert!(j < self.cols, "col index out of bounds");
        self.data
            .chunks_exact(self.cols.max(1))
            .take(self.rows)
            .map(move |row| row[j])
    }

    /// Copies column `j` into a new vector. Allocates — fine for one-off
    /// extraction, but inside a loop prefer [`Matrix::col_iter`] or a
    /// cached [`Matrix::transpose`].
    pub fn col(&self, j: usize) -> Vec<f64> {
        self.col_iter(j).collect()
    }

    /// The transpose `Aᵀ`.
    pub fn transpose(&self) -> Matrix {
        let mut t = Matrix::zeros(self.cols, self.rows);
        for i in 0..self.rows {
            for j in 0..self.cols {
                t[(j, i)] = self[(i, j)];
            }
        }
        t
    }

    /// Matrix product `A · B`, cache-blocked.
    ///
    /// The naive ikj loop ([`Matrix::matmul_naive`]) streams all of `B`
    /// once per row of `A`; at `B = 512×512` that is 2 MiB of traffic per
    /// row. This version tiles over k-panels of `MATMUL_KC` rows of `B`:
    /// a panel is loaded once and reused by every row of `A` while hot,
    /// with the innermost loop a 4-way k-unrolled fused accumulation over
    /// the contiguous output row, which LLVM autovectorizes.
    ///
    /// **Bit-exactness invariant** (pinned by the `proptest_linalg` suite
    /// and relied on by the MT-P2 batched-projection parity contract):
    /// every output element accumulates its `k` contributions in ascending
    /// order through a single accumulator, exactly as the naive loop does —
    /// panel order ascends, the unroll issues its four adds per element in
    /// `k` order, and the `a[i][k] == 0.0` skip is applied per `k` (the
    /// unrolled body falls back to per-`k` processing whenever the quad
    /// contains a zero). The result is therefore bit-for-bit identical to
    /// [`Matrix::matmul_naive`].
    ///
    /// # Panics
    /// Panics if `self.cols() != b.rows()`.
    pub fn matmul(&self, b: &Matrix) -> Matrix {
        assert_eq!(self.cols, b.rows, "matmul: inner dimension mismatch");
        let mut c = Matrix::zeros(self.rows, b.cols);
        let n = b.cols;
        for k0 in (0..self.cols).step_by(MATMUL_KC) {
            let k1 = (k0 + MATMUL_KC).min(self.cols);
            for i in 0..self.rows {
                let arow = self.row(i);
                let crow = &mut c.data[i * n..(i + 1) * n];
                let mut k = k0;
                while k + 4 <= k1 {
                    let (a0, a1, a2, a3) = (arow[k], arow[k + 1], arow[k + 2], arow[k + 3]);
                    if a0 != 0.0 && a1 != 0.0 && a2 != 0.0 && a3 != 0.0 {
                        let b0 = &b.row(k)[..n];
                        let b1 = &b.row(k + 1)[..n];
                        let b2 = &b.row(k + 2)[..n];
                        let b3 = &b.row(k + 3)[..n];
                        for j in 0..n {
                            // Sequential adds, ascending k — the same
                            // per-element order as four axpy passes.
                            crow[j] += a0 * b0[j];
                            crow[j] += a1 * b1[j];
                            crow[j] += a2 * b2[j];
                            crow[j] += a3 * b3[j];
                        }
                    } else {
                        // A zero in the quad: process per-k so the skip
                        // semantics match the naive loop exactly (adding
                        // 0·b would flip -0.0 to +0.0 and poison on ±inf).
                        for (kk, &aik) in arow.iter().enumerate().take(k + 4).skip(k) {
                            if aik != 0.0 {
                                vector::axpy(aik, b.row(kk), crow);
                            }
                        }
                    }
                    k += 4;
                }
                while k < k1 {
                    let aik = arow[k];
                    if aik != 0.0 {
                        vector::axpy(aik, b.row(k), crow);
                    }
                    k += 1;
                }
            }
        }
        c
    }

    /// Reference ikj triple-loop matrix product — the oracle the blocked
    /// [`Matrix::matmul`] is pinned against.
    ///
    /// # Panics
    /// Panics if `self.cols() != b.rows()`.
    pub fn matmul_naive(&self, b: &Matrix) -> Matrix {
        assert_eq!(self.cols, b.rows, "matmul: inner dimension mismatch");
        let mut c = Matrix::zeros(self.rows, b.cols);
        for i in 0..self.rows {
            let arow = self.row(i);
            for (k, &aik) in arow.iter().enumerate() {
                if aik == 0.0 {
                    continue;
                }
                let brow = b.row(k);
                let crow = c.row_mut(i);
                vector::axpy(aik, brow, crow);
            }
        }
        c
    }

    /// The Gram matrix `AᵀA` (`cols × cols`, symmetric positive
    /// semidefinite), accumulated in panels of `GRAM_PANEL` rows via
    /// `accumulate_outer_panel`. Bit-for-bit identical to the row-by-row
    /// [`Matrix::gram_naive`] (see the invariant documented there).
    pub fn gram(&self) -> Matrix {
        let d = self.cols;
        let mut g = Matrix::zeros(d, d);
        accumulate_outer_panel(&mut g, self);
        g
    }

    /// Reference row-by-row Gram accumulation `AᵀA = Σᵢ aᵢ aᵢᵀ` — the
    /// oracle the panel-blocked [`Matrix::gram`] is pinned against.
    pub fn gram_naive(&self) -> Matrix {
        let d = self.cols;
        let mut g = Matrix::zeros(d, d);
        for row in self.iter_rows() {
            accumulate_outer(&mut g, row);
        }
        g
    }

    /// The outer Gram matrix `AAᵀ` (`rows × rows`): entry `(i, j)` is
    /// `⟨rowᵢ, rowⱼ⟩`. Used by the wide-matrix SVD fast path and MT-P2's
    /// small-side checks, where `rows ≪ cols` makes this much smaller than
    /// [`Matrix::gram`].
    ///
    /// Four entries of row `i` are summed at a time: row `i` is loaded
    /// once per quad and the four independent accumulators hide the add
    /// latency that serialises a single [`vector::dot`]. Each accumulator
    /// still starts from `-0.0` (`Iterator::sum`'s neutral element) and
    /// adds its products in ascending `k` order, so the result is
    /// bit-for-bit [`Matrix::outer_gram_naive`] (pinned by
    /// `proptest_linalg`).
    pub fn outer_gram(&self) -> Matrix {
        let n = self.rows;
        let mut g = Matrix::zeros(n, n);
        for i in 0..n {
            let ri = self.row(i);
            let mut j = 0;
            while j + 4 <= i + 1 {
                let (r0, r1, r2, r3) = (
                    &self.row(j)[..ri.len()],
                    &self.row(j + 1)[..ri.len()],
                    &self.row(j + 2)[..ri.len()],
                    &self.row(j + 3)[..ri.len()],
                );
                let mut acc = [-0.0; 4];
                for (k, &a) in ri.iter().enumerate() {
                    acc[0] += a * r0[k];
                    acc[1] += a * r1[k];
                    acc[2] += a * r2[k];
                    acc[3] += a * r3[k];
                }
                for (q, v) in acc.into_iter().enumerate() {
                    g[(i, j + q)] = v;
                    g[(j + q, i)] = v;
                }
                j += 4;
            }
            for j in j..=i {
                let v = vector::dot(ri, self.row(j));
                g[(i, j)] = v;
                g[(j, i)] = v;
            }
        }
        g
    }

    /// Reference entry-by-entry `AAᵀ`, one [`vector::dot`] per entry of
    /// the lower triangle — the oracle [`Matrix::outer_gram`] is pinned
    /// against.
    pub fn outer_gram_naive(&self) -> Matrix {
        let n = self.rows;
        let mut g = Matrix::zeros(n, n);
        for i in 0..n {
            let ri = self.row(i);
            for j in 0..=i {
                let v = vector::dot(ri, self.row(j));
                g[(i, j)] = v;
                g[(j, i)] = v;
            }
        }
        g
    }

    /// Matrix-vector product `A x`.
    ///
    /// # Panics
    /// Panics if `x.len() != self.cols()`.
    pub fn apply(&self, x: &[f64]) -> Vec<f64> {
        assert_eq!(x.len(), self.cols, "apply: dimension mismatch");
        self.iter_rows().map(|r| vector::dot(r, x)).collect()
    }

    /// Transposed matrix-vector product `Aᵀ x`, 4-way row-fused.
    ///
    /// The accumulator `y` is only `cols` doubles and stays in L1; the win
    /// over the row-by-row [`Matrix::apply_transpose_naive`] is that `y`
    /// is loaded/stored once per four input rows instead of once per row,
    /// and the four multiply-adds per element give the autovectorizer
    /// independent streams. Per element of `y` the adds are issued in
    /// ascending row order — the same order, and the same absence of a
    /// zero-skip, as the naive loop — so the result is bit-for-bit
    /// identical (pinned by `proptest_linalg`).
    ///
    /// # Panics
    /// Panics if `x.len() != self.rows()`.
    pub fn apply_transpose(&self, x: &[f64]) -> Vec<f64> {
        assert_eq!(x.len(), self.rows, "apply_transpose: dimension mismatch");
        let n = self.cols;
        let mut y = vec![0.0; n];
        let mut i = 0;
        while i + 4 <= self.rows {
            let (x0, x1, x2, x3) = (x[i], x[i + 1], x[i + 2], x[i + 3]);
            let r0 = &self.row(i)[..n];
            let r1 = &self.row(i + 1)[..n];
            let r2 = &self.row(i + 2)[..n];
            let r3 = &self.row(i + 3)[..n];
            for j in 0..n {
                y[j] += x0 * r0[j];
                y[j] += x1 * r1[j];
                y[j] += x2 * r2[j];
                y[j] += x3 * r3[j];
            }
            i += 4;
        }
        while i < self.rows {
            vector::axpy(x[i], self.row(i), &mut y);
            i += 1;
        }
        y
    }

    /// Reference row-by-row `Aᵀ x` — the oracle the fused
    /// [`Matrix::apply_transpose`] is pinned against.
    ///
    /// # Panics
    /// Panics if `x.len() != self.rows()`.
    pub fn apply_transpose_naive(&self, x: &[f64]) -> Vec<f64> {
        assert_eq!(x.len(), self.rows, "apply_transpose: dimension mismatch");
        let mut y = vec![0.0; self.cols];
        for (i, row) in self.iter_rows().enumerate() {
            vector::axpy(x[i], row, &mut y);
        }
        y
    }

    /// `‖A x‖²` without materialising `A x`; this is the quantity the
    /// paper's guarantee `|‖Ax‖² − ‖Bx‖²| ≤ ε‖A‖²_F` is stated over.
    pub fn apply_norm_sq(&self, x: &[f64]) -> f64 {
        assert_eq!(x.len(), self.cols, "apply_norm_sq: dimension mismatch");
        self.iter_rows()
            .map(|r| {
                let v = vector::dot(r, x);
                v * v
            })
            .sum()
    }

    /// Squared Frobenius norm `‖A‖²_F = Σᵢⱼ aᵢⱼ²`.
    pub fn frob_norm_sq(&self) -> f64 {
        vector::norm_sq(&self.data)
    }

    /// Frobenius norm `‖A‖_F`.
    pub fn frob_norm(&self) -> f64 {
        self.frob_norm_sq().sqrt()
    }

    /// Entrywise sum `A + B`.
    ///
    /// # Panics
    /// Panics on shape mismatch.
    pub fn add(&self, b: &Matrix) -> Matrix {
        let mut sum = self.clone();
        sum.add_in_place(b);
        sum
    }

    /// `A += B` entrywise, in place.
    ///
    /// # Panics
    /// Panics on shape mismatch.
    pub fn add_in_place(&mut self, b: &Matrix) {
        assert_eq!(
            (self.rows, self.cols),
            (b.rows, b.cols),
            "add: shape mismatch"
        );
        for (x, y) in self.data.iter_mut().zip(&b.data) {
            *x += y;
        }
    }

    /// Entrywise difference `A − B`.
    ///
    /// # Panics
    /// Panics on shape mismatch.
    pub fn sub(&self, b: &Matrix) -> Matrix {
        assert_eq!(
            (self.rows, self.cols),
            (b.rows, b.cols),
            "sub: shape mismatch"
        );
        let data = self.data.iter().zip(&b.data).map(|(x, y)| x - y).collect();
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data,
        }
    }

    /// Scales every entry by `alpha`, in place.
    pub fn scale_in_place(&mut self, alpha: f64) {
        vector::scale(alpha, &mut self.data);
    }

    /// Returns `alpha · A`.
    pub fn scaled(&self, alpha: f64) -> Matrix {
        let mut m = self.clone();
        m.scale_in_place(alpha);
        m
    }

    /// Maximum absolute entry.
    pub fn max_abs(&self) -> f64 {
        vector::max_abs(&self.data)
    }

    /// The flat row-major buffer.
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Consumes the matrix, returning the flat row-major buffer.
    pub fn into_vec(self) -> Vec<f64> {
        self.data
    }

    /// Keeps only the first `k` rows (no reallocation).
    pub fn truncate_rows(&mut self, k: usize) {
        if k < self.rows {
            self.data.truncate(k * self.cols);
            self.rows = k;
        }
    }

    /// Removes all rows, keeping the column count and capacity.
    pub fn clear_rows(&mut self) {
        self.data.clear();
        self.rows = 0;
    }

    /// Mutable access to two distinct rows at once; used by plane-rotation
    /// kernels that mix a pair of rows in place.
    ///
    /// # Panics
    /// Panics if `p == q` or either index is out of bounds.
    pub fn rows_pair_mut(&mut self, p: usize, q: usize) -> (&mut [f64], &mut [f64]) {
        assert!(p != q, "rows_pair_mut: indices must differ");
        assert!(
            p < self.rows && q < self.rows,
            "rows_pair_mut: index out of bounds"
        );
        let cols = self.cols;
        let (lo, hi) = if p < q { (p, q) } else { (q, p) };
        let (head, tail) = self.data.split_at_mut(hi * cols);
        let rlo = &mut head[lo * cols..(lo + 1) * cols];
        let rhi = &mut tail[..cols];
        if p < q {
            (rlo, rhi)
        } else {
            (rhi, rlo)
        }
    }
}

/// Adds the outer product `r rᵀ` into the symmetric accumulator `g`.
///
/// Exposed so streaming ground-truth accumulators (which never materialise
/// the full data matrix) can maintain `AᵀA` row by row.
///
/// # Panics
/// Panics if `g` is not `d × d` for `d = r.len()`.
pub fn accumulate_outer(g: &mut Matrix, r: &[f64]) {
    let d = r.len();
    assert_eq!((g.rows, g.cols), (d, d), "accumulate_outer: shape mismatch");
    for (i, &ri) in r.iter().enumerate() {
        if ri == 0.0 {
            continue;
        }
        let grow = g.row_mut(i);
        vector::axpy(ri, r, grow);
    }
}

/// Adds `Σᵢ rᵢ rᵢᵀ` over all rows of `rows` into `g`, panel-blocked.
///
/// Calling [`accumulate_outer`] per row streams the whole `d × d`
/// accumulator once per row (2 MiB per row at d = 512). This version
/// reorders the loops: for each panel of `GRAM_PANEL` rows, each
/// accumulator row `g[i]` is updated by every panel row in one pass, so
/// `g` is streamed once per *panel* while the panel stays cache-hot.
///
/// **Bit-exactness invariant** (pinned by `proptest_linalg`): for each
/// element `g[i][j]` the contributions `rₖ[i]·rₖ[j]` are added in
/// ascending stream order `k` — panels ascend and the inner loop walks
/// the panel in order — with the same per-`(k, i)` skip when
/// `rₖ[i] == 0.0`. The result is therefore bit-for-bit identical to a
/// row-by-row [`accumulate_outer`] loop over the same rows.
///
/// # Panics
/// Panics if `g` is not `d × d` for `d = rows.cols()`.
pub fn accumulate_outer_panel(g: &mut Matrix, rows: &Matrix) {
    let d = rows.cols;
    assert_eq!(
        (g.rows, g.cols),
        (d, d),
        "accumulate_outer_panel: shape mismatch"
    );
    for p0 in (0..rows.rows).step_by(GRAM_PANEL) {
        let p1 = (p0 + GRAM_PANEL).min(rows.rows);
        for i in 0..d {
            let grow = g.row_mut(i);
            for k in p0..p1 {
                let r = rows.row(k);
                let ri = r[i];
                if ri == 0.0 {
                    continue;
                }
                vector::axpy(ri, r, grow);
            }
        }
    }
}

impl Index<(usize, usize)> for Matrix {
    type Output = f64;
    #[inline]
    fn index(&self, (i, j): (usize, usize)) -> &f64 {
        debug_assert!(i < self.rows && j < self.cols, "index out of bounds");
        &self.data[i * self.cols + j]
    }
}

impl IndexMut<(usize, usize)> for Matrix {
    #[inline]
    fn index_mut(&mut self, (i, j): (usize, usize)) -> &mut f64 {
        debug_assert!(i < self.rows && j < self.cols, "index out of bounds");
        &mut self.data[i * self.cols + j]
    }
}

impl fmt::Debug for Matrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Matrix {}x{} [", self.rows, self.cols)?;
        let show = self.rows.min(8);
        for i in 0..show {
            write!(f, "  [")?;
            let cshow = self.cols.min(8);
            for j in 0..cshow {
                if j > 0 {
                    write!(f, ", ")?;
                }
                write!(f, "{:10.4}", self[(i, j)])?;
            }
            if self.cols > cshow {
                write!(f, ", …")?;
            }
            writeln!(f, "]")?;
        }
        if self.rows > show {
            writeln!(f, "  …")?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn abc() -> Matrix {
        Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0], vec![5.0, 6.0]])
    }

    #[test]
    fn construction_and_shape() {
        let m = abc();
        assert_eq!(m.rows(), 3);
        assert_eq!(m.cols(), 2);
        assert!(!m.is_empty());
        assert!(Matrix::zeros(0, 3).is_empty());
    }

    #[test]
    fn identity_diagonal() {
        let i3 = Matrix::identity(3);
        for i in 0..3 {
            for j in 0..3 {
                assert_eq!(i3[(i, j)], if i == j { 1.0 } else { 0.0 });
            }
        }
    }

    #[test]
    #[should_panic(expected = "buffer length mismatch")]
    fn from_vec_checks_length() {
        Matrix::from_vec(2, 2, vec![1.0, 2.0, 3.0]);
    }

    #[test]
    #[should_panic(expected = "ragged rows")]
    fn from_rows_rejects_ragged() {
        Matrix::from_rows(&[vec![1.0], vec![1.0, 2.0]]);
    }

    #[test]
    fn push_row_grows() {
        let mut m = Matrix::with_cols(2);
        m.push_row(&[1.0, 2.0]);
        m.push_row(&[3.0, 4.0]);
        assert_eq!(m.rows(), 2);
        assert_eq!(m.row(1), &[3.0, 4.0]);
    }

    #[test]
    fn stack_appends_rows() {
        let mut m = abc();
        let n = abc();
        m.stack(&n);
        assert_eq!(m.rows(), 6);
        assert_eq!(m.row(3), &[1.0, 2.0]);
    }

    #[test]
    fn transpose_roundtrip() {
        let m = abc();
        let t = m.transpose();
        assert_eq!(t.rows(), 2);
        assert_eq!(t.cols(), 3);
        assert_eq!(t.transpose(), m);
        assert_eq!(t[(0, 2)], 5.0);
    }

    #[test]
    fn matmul_known_product() {
        let a = Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]);
        let b = Matrix::from_rows(&[vec![5.0, 6.0], vec![7.0, 8.0]]);
        let c = a.matmul(&b);
        assert_eq!(c[(0, 0)], 19.0);
        assert_eq!(c[(0, 1)], 22.0);
        assert_eq!(c[(1, 0)], 43.0);
        assert_eq!(c[(1, 1)], 50.0);
    }

    #[test]
    fn matmul_identity_is_noop() {
        let m = abc();
        let i2 = Matrix::identity(2);
        assert_eq!(m.matmul(&i2), m);
    }

    #[test]
    fn gram_matches_explicit_transpose_product() {
        let m = abc();
        let g = m.gram();
        let g2 = m.transpose().matmul(&m);
        for i in 0..2 {
            for j in 0..2 {
                assert!((g[(i, j)] - g2[(i, j)]).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn gram_is_symmetric() {
        let m = abc();
        let g = m.gram();
        assert_eq!(g[(0, 1)], g[(1, 0)]);
    }

    #[test]
    fn apply_and_apply_norm_sq_agree() {
        let m = abc();
        let x = [0.6, 0.8];
        let ax = m.apply(&x);
        let direct: f64 = ax.iter().map(|v| v * v).sum();
        assert!((m.apply_norm_sq(&x) - direct).abs() < 1e-12);
    }

    #[test]
    fn apply_transpose_matches_transpose_apply() {
        let m = abc();
        let y = [1.0, -1.0, 2.0];
        let got = m.apply_transpose(&y);
        let want = m.transpose().apply(&y);
        assert_eq!(got, want);
    }

    #[test]
    fn frobenius_norm() {
        let m = Matrix::from_rows(&[vec![3.0, 0.0], vec![0.0, 4.0]]);
        assert_eq!(m.frob_norm_sq(), 25.0);
        assert_eq!(m.frob_norm(), 5.0);
    }

    #[test]
    fn add_sub_scale() {
        let m = abc();
        let z = m.sub(&m);
        assert_eq!(z.frob_norm_sq(), 0.0);
        let two = m.add(&m);
        assert_eq!(two, m.scaled(2.0));
    }

    #[test]
    fn truncate_and_clear() {
        let mut m = abc();
        m.truncate_rows(1);
        assert_eq!(m.rows(), 1);
        assert_eq!(m.row(0), &[1.0, 2.0]);
        m.clear_rows();
        assert_eq!(m.rows(), 0);
        assert_eq!(m.cols(), 2);
    }

    #[test]
    fn accumulate_outer_matches_gram() {
        let m = abc();
        let mut g = Matrix::zeros(2, 2);
        for r in m.iter_rows() {
            accumulate_outer(&mut g, r);
        }
        assert_eq!(g, m.gram());
    }

    #[test]
    fn col_extracts_column() {
        let m = abc();
        assert_eq!(m.col(1), vec![2.0, 4.0, 6.0]);
        assert_eq!(m.col_iter(0).collect::<Vec<_>>(), vec![1.0, 3.0, 5.0]);
        // Degenerate: no rows, nonzero cols — iterator is simply empty.
        let empty = Matrix::with_cols(3);
        assert_eq!(empty.col_iter(2).count(), 0);
    }

    /// Deterministic but irregular fill, with planted zeros so the
    /// per-k zero-skip path of the blocked kernels is exercised.
    fn patterned(rows: usize, cols: usize, seed: u64) -> Matrix {
        let mut m = Matrix::zeros(rows, cols);
        let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(1);
        for i in 0..rows {
            for j in 0..cols {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                let v = ((state >> 33) as f64) / (1u64 << 31) as f64 - 1.0;
                m[(i, j)] = if state.is_multiple_of(7) {
                    0.0
                } else {
                    v * 3.0
                };
            }
        }
        m
    }

    #[test]
    fn blocked_matmul_bit_identical_to_naive() {
        // Shapes straddling the panel width, including the remainder paths.
        for &(n, k, d) in &[
            (1usize, 1usize, 1usize),
            (7, 130, 5),
            (65, 64, 67),
            (33, 200, 130),
        ] {
            let a = patterned(n, k, 11 + n as u64);
            let b = patterned(k, d, 23 + d as u64);
            assert_eq!(
                a.matmul(&b).as_slice(),
                a.matmul_naive(&b).as_slice(),
                "blocked matmul diverged from naive at {n}x{k}x{d}"
            );
        }
    }

    #[test]
    fn blocked_gram_bit_identical_to_naive() {
        for &(n, d) in &[(1usize, 1usize), (31, 9), (32, 9), (100, 70), (200, 33)] {
            let a = patterned(n, d, 5 + n as u64);
            assert_eq!(
                a.gram().as_slice(),
                a.gram_naive().as_slice(),
                "panel gram diverged from naive at {n}x{d}"
            );
        }
    }

    #[test]
    fn quad_outer_gram_bit_identical_to_naive() {
        // Rows around the quad width, including the per-entry remainder.
        for &(n, d) in &[(1usize, 1usize), (3, 9), (4, 9), (5, 0), (61, 90)] {
            let a = patterned(n, d, 9 + n as u64);
            assert_eq!(
                a.outer_gram().as_slice(),
                a.outer_gram_naive().as_slice(),
                "quad outer gram diverged from naive at {n}x{d}"
            );
        }
    }

    #[test]
    fn fused_apply_transpose_bit_identical_to_naive() {
        for &(n, d) in &[(1usize, 3usize), (4, 3), (7, 12), (130, 40)] {
            let a = patterned(n, d, 77 + n as u64);
            let x: Vec<f64> = (0..n).map(|i| (i as f64) - 2.5).collect();
            assert_eq!(
                a.apply_transpose(&x),
                a.apply_transpose_naive(&x),
                "fused apply_transpose diverged at {n}x{d}"
            );
        }
    }

    #[test]
    fn accumulate_outer_panel_matches_per_row() {
        let a = patterned(100, 21, 3);
        let mut g_panel = Matrix::zeros(21, 21);
        accumulate_outer_panel(&mut g_panel, &a);
        let mut g_rows = Matrix::zeros(21, 21);
        for r in a.iter_rows() {
            accumulate_outer(&mut g_rows, r);
        }
        assert_eq!(g_panel.as_slice(), g_rows.as_slice());
    }

    #[test]
    fn debug_format_is_bounded() {
        let m = Matrix::zeros(100, 100);
        let s = format!("{m:?}");
        assert!(s.lines().count() < 20);
    }
}
