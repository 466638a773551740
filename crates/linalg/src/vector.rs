//! Free functions on `&[f64]` vectors.
//!
//! The sketches operate on matrix *rows* exposed as slices, so the vector
//! kernels live here as slice functions rather than on a wrapper type. All
//! functions panic on dimension mismatch — a mismatch is always a
//! programming error in this workspace, never a data condition.

/// Dot product `⟨x, y⟩`.
///
/// # Panics
/// Panics if `x.len() != y.len()`.
#[inline]
pub fn dot(x: &[f64], y: &[f64]) -> f64 {
    assert_eq!(x.len(), y.len(), "dot: dimension mismatch");
    x.iter().zip(y).map(|(a, b)| a * b).sum()
}

/// Dot product `⟨x, y⟩` over eight independent accumulator lanes.
/// [`dot`] sums strictly left to right — one dependent add per element,
/// which the compiler may not reorder — so on short hot loops (a
/// Cholesky factorisation, a quadratic form per query) the serial chain
/// sets the speed. Summed in a different order than [`dot`], so the two
/// may differ in the last bits.
///
/// # Panics
/// Panics if `x.len() != y.len()`.
#[inline]
pub fn dot_lanes(x: &[f64], y: &[f64]) -> f64 {
    const LANES: usize = 8;
    assert_eq!(x.len(), y.len(), "dot_lanes: dimension mismatch");
    let (xc, yc) = (x.chunks_exact(LANES), y.chunks_exact(LANES));
    let mut tail = 0.0;
    for (a, b) in xc.remainder().iter().zip(yc.remainder()) {
        tail += a * b;
    }
    let mut acc = [0.0; LANES];
    for (a, b) in xc.zip(yc) {
        for k in 0..LANES {
            acc[k] += a[k] * b[k];
        }
    }
    acc.iter().sum::<f64>() + tail
}

/// Squared Euclidean norm `‖x‖²`.
#[inline]
pub fn norm_sq(x: &[f64]) -> f64 {
    x.iter().map(|a| a * a).sum()
}

/// Euclidean norm `‖x‖`.
#[inline]
pub fn norm(x: &[f64]) -> f64 {
    norm_sq(x).sqrt()
}

/// `y += alpha * x` (the BLAS `axpy` kernel).
///
/// # Panics
/// Panics if `x.len() != y.len()`.
#[inline]
pub fn axpy(alpha: f64, x: &[f64], y: &mut [f64]) {
    assert_eq!(x.len(), y.len(), "axpy: dimension mismatch");
    for (yi, xi) in y.iter_mut().zip(x) {
        *yi += alpha * xi;
    }
}

/// `x *= alpha` in place.
#[inline]
pub fn scale(alpha: f64, x: &mut [f64]) {
    for xi in x.iter_mut() {
        *xi *= alpha;
    }
}

/// Normalizes `x` to unit Euclidean norm in place and returns the original
/// norm. If `x` is (numerically) zero it is left untouched and `0.0` is
/// returned, so callers can detect the degenerate direction.
#[inline]
pub fn normalize(x: &mut [f64]) -> f64 {
    let n = norm(x);
    if n > 0.0 {
        let inv = 1.0 / n;
        scale(inv, x);
    }
    n
}

/// Squared Euclidean distance `‖x − y‖²`.
///
/// # Panics
/// Panics if `x.len() != y.len()`.
#[inline]
pub fn dist_sq(x: &[f64], y: &[f64]) -> f64 {
    assert_eq!(x.len(), y.len(), "dist_sq: dimension mismatch");
    x.iter().zip(y).map(|(a, b)| (a - b) * (a - b)).sum()
}

/// Maximum absolute entry (the `ℓ∞` norm); `0.0` for the empty slice.
#[inline]
pub fn max_abs(x: &[f64]) -> f64 {
    x.iter().fold(0.0_f64, |m, v| m.max(v.abs()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dot_basic() {
        assert_eq!(dot(&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]), 32.0);
    }

    #[test]
    fn dot_empty_is_zero() {
        assert_eq!(dot(&[], &[]), 0.0);
    }

    #[test]
    #[should_panic(expected = "dimension mismatch")]
    fn dot_mismatch_panics() {
        dot(&[1.0], &[1.0, 2.0]);
    }

    #[test]
    fn norms() {
        assert_eq!(norm_sq(&[3.0, 4.0]), 25.0);
        assert_eq!(norm(&[3.0, 4.0]), 5.0);
    }

    #[test]
    fn axpy_accumulates() {
        let mut y = vec![1.0, 1.0];
        axpy(2.0, &[3.0, 4.0], &mut y);
        assert_eq!(y, vec![7.0, 9.0]);
    }

    #[test]
    fn scale_in_place() {
        let mut x = vec![1.0, -2.0];
        scale(-3.0, &mut x);
        assert_eq!(x, vec![-3.0, 6.0]);
    }

    #[test]
    fn normalize_returns_old_norm() {
        let mut x = vec![3.0, 4.0];
        let n = normalize(&mut x);
        assert_eq!(n, 5.0);
        assert!((norm(&x) - 1.0).abs() < 1e-15);
    }

    #[test]
    fn normalize_zero_vector_untouched() {
        let mut x = vec![0.0, 0.0];
        let n = normalize(&mut x);
        assert_eq!(n, 0.0);
        assert_eq!(x, vec![0.0, 0.0]);
    }

    #[test]
    fn dist_sq_symmetric() {
        let a = [1.0, 2.0];
        let b = [4.0, 6.0];
        assert_eq!(dist_sq(&a, &b), 25.0);
        assert_eq!(dist_sq(&b, &a), 25.0);
    }

    #[test]
    fn max_abs_handles_negatives_and_empty() {
        assert_eq!(max_abs(&[1.0, -7.0, 3.0]), 7.0);
        assert_eq!(max_abs(&[]), 0.0);
    }
}
