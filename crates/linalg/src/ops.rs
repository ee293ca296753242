//! Element-wise and row-wise numeric operations shared by `nn` and
//! `anomaly`.

use crate::matrix::Matrix;

/// Row-wise softmax, numerically stabilized by max subtraction.
pub fn softmax_rows(m: &Matrix) -> Matrix {
    let mut out = m.clone();
    softmax_rows_inplace(&mut out);
    out
}

/// In-place row-wise softmax.
pub fn softmax_rows_inplace(m: &mut Matrix) {
    let cols = m.cols();
    for r in 0..m.rows() {
        let row = m.row_mut(r);
        let max = row.iter().copied().fold(f32::NEG_INFINITY, f32::max);
        let mut sum = 0.0;
        for x in row.iter_mut() {
            *x = (*x - max).exp();
            sum += *x;
        }
        let inv = if sum > 0.0 {
            1.0 / sum
        } else {
            1.0 / cols as f32
        };
        for x in row.iter_mut() {
            *x *= inv;
        }
    }
}

/// Euclidean norm of a slice.
pub fn norm(v: &[f32]) -> f32 {
    v.iter().map(|x| x * x).sum::<f32>().sqrt()
}

/// Squared Euclidean distance between two equal-length slices.
///
/// # Panics
///
/// Panics if lengths differ.
pub fn squared_distance(a: &[f32], b: &[f32]) -> f32 {
    assert_eq!(a.len(), b.len(), "squared_distance length mismatch");
    a.iter().zip(b).map(|(x, y)| (x - y) * (x - y)).sum()
}

/// Cosine similarity of two equal-length slices; 0.0 when either is zero.
///
/// # Panics
///
/// Panics if lengths differ.
pub fn cosine_similarity(a: &[f32], b: &[f32]) -> f32 {
    cosine_with_norms(a, norm(a), b, norm(b))
}

/// [`cosine_similarity`] with both Euclidean norms supplied by the
/// caller — the batch-similarity primitive. Index structures compute
/// each candidate's norm once at build time instead of once per query
/// (see `index::ExactIndex`), and the result is bit-identical to
/// [`cosine_similarity`] when the norms come from [`norm`].
///
/// # Panics
///
/// Panics if lengths differ.
pub fn cosine_with_norms(a: &[f32], na: f32, b: &[f32], nb: f32) -> f32 {
    assert_eq!(a.len(), b.len(), "cosine_similarity length mismatch");
    if na == 0.0 || nb == 0.0 {
        return 0.0;
    }
    crate::matrix::dot(a, b) / (na * nb)
}

/// Euclidean norm of every row of `m`, in row order. The companion of
/// [`cosine_with_norms`]: compute once per candidate set, reuse across
/// queries.
pub fn row_norms(m: &Matrix) -> Vec<f32> {
    (0..m.rows()).map(|r| norm(m.row(r))).collect()
}

/// Spearman rank correlation of two equal-length score vectors, with
/// average ranks on ties — the fidelity metric the approximate and
/// quantized index paths are gated on (NaNs order via `total_cmp`, so
/// a stray non-finite score degrades the correlation instead of
/// panicking the comparator).
///
/// # Panics
///
/// Panics if lengths differ.
pub fn spearman(a: &[f32], b: &[f32]) -> f64 {
    assert_eq!(a.len(), b.len(), "spearman length mismatch");
    fn ranks(xs: &[f32]) -> Vec<f64> {
        let mut idx: Vec<usize> = (0..xs.len()).collect();
        idx.sort_by(|&i, &j| xs[i].total_cmp(&xs[j]));
        let mut out = vec![0.0; xs.len()];
        let mut i = 0;
        while i < idx.len() {
            let mut j = i;
            while j + 1 < idx.len() && xs[idx[j + 1]] == xs[idx[i]] {
                j += 1;
            }
            let avg = (i + j) as f64 / 2.0;
            for &k in &idx[i..=j] {
                out[k] = avg;
            }
            i = j + 1;
        }
        out
    }
    let (ra, rb) = (ranks(a), ranks(b));
    let n = ra.len() as f64;
    let mean = (n - 1.0) / 2.0;
    let (mut cov, mut va, mut vb) = (0.0, 0.0, 0.0);
    for (x, y) in ra.iter().zip(&rb) {
        cov += (x - mean) * (y - mean);
        va += (x - mean) * (x - mean);
        vb += (y - mean) * (y - mean);
    }
    cov / (va.sqrt() * vb.sqrt())
}

/// Mean of a slice (0.0 when empty).
pub fn mean(v: &[f32]) -> f32 {
    if v.is_empty() {
        0.0
    } else {
        v.iter().sum::<f32>() / v.len() as f32
    }
}

/// Population variance of a slice (0.0 when empty).
pub fn variance(v: &[f32]) -> f32 {
    if v.is_empty() {
        return 0.0;
    }
    let m = mean(v);
    v.iter().map(|x| (x - m) * (x - m)).sum::<f32>() / v.len() as f32
}

/// Normalizes a vector to unit length in place; leaves zero vectors alone.
pub fn normalize_inplace(v: &mut [f32]) {
    let n = norm(v);
    if n > 0.0 {
        for x in v {
            *x /= n;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn softmax_rows_sum_to_one() {
        let m = Matrix::from_rows(&[&[1.0, 2.0, 3.0], &[-5.0, 0.0, 5.0]]);
        let s = softmax_rows(&m);
        for r in 0..2 {
            let sum: f32 = s.row(r).iter().sum();
            assert!((sum - 1.0).abs() < 1e-5);
        }
        // Monotone in the logits.
        assert!(s[(0, 2)] > s[(0, 1)] && s[(0, 1)] > s[(0, 0)]);
    }

    #[test]
    fn softmax_is_stable_for_large_logits() {
        let m = Matrix::from_rows(&[&[1000.0, 1001.0]]);
        let s = softmax_rows(&m);
        assert!(s.as_slice().iter().all(|x| x.is_finite()));
        assert!((s.row(0).iter().sum::<f32>() - 1.0).abs() < 1e-5);
    }

    #[test]
    fn cosine_basics() {
        assert!((cosine_similarity(&[1.0, 0.0], &[1.0, 0.0]) - 1.0).abs() < 1e-6);
        assert!(cosine_similarity(&[1.0, 0.0], &[0.0, 1.0]).abs() < 1e-6);
        assert!((cosine_similarity(&[1.0, 0.0], &[-1.0, 0.0]) + 1.0).abs() < 1e-6);
        assert_eq!(cosine_similarity(&[0.0, 0.0], &[1.0, 1.0]), 0.0);
    }

    #[test]
    fn distance_and_norm() {
        assert_eq!(squared_distance(&[0.0, 0.0], &[3.0, 4.0]), 25.0);
        assert_eq!(norm(&[3.0, 4.0]), 5.0);
    }

    #[test]
    fn precomputed_norms_are_bit_identical() {
        let a = [0.3f32, -1.7, 2.2, 0.01];
        let b = [1.1f32, 0.4, -0.9, 3.0];
        assert_eq!(
            cosine_similarity(&a, &b),
            cosine_with_norms(&a, norm(&a), &b, norm(&b)),
        );
        assert_eq!(cosine_with_norms(&a, 0.0, &b, norm(&b)), 0.0);
    }

    #[test]
    fn row_norms_match_per_row_norm() {
        let m = Matrix::from_rows(&[&[3.0, 4.0], &[0.0, 0.0], &[1.0, -1.0]]);
        let norms = row_norms(&m);
        assert_eq!(norms.len(), 3);
        for (r, n) in norms.iter().enumerate() {
            assert_eq!(*n, norm(m.row(r)));
        }
    }

    #[test]
    fn mean_variance() {
        assert_eq!(mean(&[]), 0.0);
        assert_eq!(mean(&[2.0, 4.0]), 3.0);
        assert_eq!(variance(&[2.0, 4.0]), 1.0);
    }

    #[test]
    fn normalize_unit_and_zero() {
        let mut v = vec![3.0, 4.0];
        normalize_inplace(&mut v);
        assert!((norm(&v) - 1.0).abs() < 1e-6);
        let mut z = vec![0.0, 0.0];
        normalize_inplace(&mut z);
        assert_eq!(z, vec![0.0, 0.0]);
    }
}
