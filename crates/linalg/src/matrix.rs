//! Row-major dense `f32` matrices.

use serde::{Deserialize, Serialize};
use std::fmt;
use std::ops::{Add, AddAssign, Index, IndexMut, Mul, Sub, SubAssign};

/// A dense row-major matrix of `f32`.
///
/// ```
/// use linalg::Matrix;
///
/// let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
/// let b = Matrix::identity(2);
/// assert_eq!(a.matmul(&b), a);
/// ```
#[derive(Clone, PartialEq, Serialize, Deserialize)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f32>,
}

impl Matrix {
    /// Creates a `rows × cols` matrix of zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Matrix {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Creates a matrix filled with `value`.
    pub fn full(rows: usize, cols: usize, value: f32) -> Self {
        Matrix {
            rows,
            cols,
            data: vec![value; rows * cols],
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

    /// Builds a matrix by evaluating `f(row, col)` at every position.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> f32) -> Self {
        let mut data = Vec::with_capacity(rows * cols);
        for r in 0..rows {
            for c in 0..cols {
                data.push(f(r, c));
            }
        }
        Matrix { rows, cols, data }
    }

    /// Builds a matrix from row slices.
    ///
    /// # Panics
    ///
    /// Panics if rows have differing lengths or the input is empty.
    pub fn from_rows(rows: &[&[f32]]) -> Self {
        assert!(!rows.is_empty(), "from_rows needs at least one row");
        let cols = rows[0].len();
        let mut data = Vec::with_capacity(rows.len() * cols);
        for r in rows {
            assert_eq!(r.len(), cols, "all rows must have equal length");
            data.extend_from_slice(r);
        }
        Matrix {
            rows: rows.len(),
            cols,
            data,
        }
    }

    /// Wraps a flat row-major buffer.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f32>) -> Self {
        assert_eq!(data.len(), rows * cols, "buffer length mismatch");
        Matrix { rows, cols, data }
    }

    /// Appends a row, growing the matrix in place (amortized O(cols) —
    /// the buffer doubles like a `Vec`), for incrementally-built
    /// candidate sets such as live vector-index inserts.
    ///
    /// # Panics
    ///
    /// Panics if `row.len() != cols` (a `0 × 0` matrix adopts the first
    /// row's width).
    pub fn push_row(&mut self, row: &[f32]) {
        if self.rows == 0 && self.cols == 0 {
            self.cols = row.len();
        }
        assert_eq!(row.len(), self.cols, "row width mismatch");
        self.data.extend_from_slice(row);
        self.rows += 1;
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

    /// `(rows, cols)`.
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// The underlying row-major buffer.
    #[inline]
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// Mutable access to the underlying row-major buffer.
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Consumes the matrix, returning its buffer.
    pub fn into_vec(self) -> Vec<f32> {
        self.data
    }

    /// Borrow of row `r` as a slice.
    ///
    /// # Panics
    ///
    /// Panics if `r >= rows`.
    #[inline]
    pub fn row(&self, r: usize) -> &[f32] {
        assert!(r < self.rows, "row {r} out of bounds ({})", self.rows);
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Mutable borrow of row `r`.
    ///
    /// # Panics
    ///
    /// Panics if `r >= rows`.
    #[inline]
    pub fn row_mut(&mut self, r: usize) -> &mut [f32] {
        assert!(r < self.rows, "row {r} out of bounds ({})", self.rows);
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Copies column `c` into a new vector.
    ///
    /// # Panics
    ///
    /// Panics if `c >= cols`.
    pub fn col(&self, c: usize) -> Vec<f32> {
        assert!(c < self.cols, "col {c} out of bounds ({})", self.cols);
        (0..self.rows).map(|r| self[(r, c)]).collect()
    }

    /// Copies columns `[start, start + len)` into a new matrix —
    /// used for per-head slicing in multi-head attention.
    ///
    /// # Panics
    ///
    /// Panics if the range exceeds the column count.
    pub fn col_block(&self, start: usize, len: usize) -> Matrix {
        assert!(start + len <= self.cols, "column block out of bounds");
        let mut out = Matrix::zeros(self.rows, len);
        for r in 0..self.rows {
            out.row_mut(r)
                .copy_from_slice(&self.row(r)[start..start + len]);
        }
        out
    }

    /// Writes `block` into columns `[start, start + block.cols())`.
    ///
    /// # Panics
    ///
    /// Panics if shapes are incompatible.
    pub fn set_col_block(&mut self, start: usize, block: &Matrix) {
        assert_eq!(self.rows, block.rows(), "column block row mismatch");
        assert!(
            start + block.cols() <= self.cols,
            "column block out of bounds"
        );
        for r in 0..self.rows {
            for c in 0..block.cols() {
                self[(r, start + c)] = block[(r, c)];
            }
        }
    }

    /// Copies rows `[start, start + len)` into a new matrix — used for
    /// per-sequence slicing in batched encoder forwards.
    ///
    /// # Panics
    ///
    /// Panics if the range exceeds the row count.
    pub fn row_block(&self, start: usize, len: usize) -> Matrix {
        assert!(start + len <= self.rows, "row block out of bounds");
        Matrix {
            rows: len,
            cols: self.cols,
            data: self.data[start * self.cols..(start + len) * self.cols].to_vec(),
        }
    }

    /// Copies the `nrows × ncols` sub-matrix at `(r0, c0)` — row and
    /// column slicing combined (per-sequence, per-head attention views).
    ///
    /// # Panics
    ///
    /// Panics if the block exceeds either dimension.
    pub fn sub_block(&self, r0: usize, nrows: usize, c0: usize, ncols: usize) -> Matrix {
        assert!(r0 + nrows <= self.rows, "sub block rows out of bounds");
        assert!(c0 + ncols <= self.cols, "sub block cols out of bounds");
        let mut out = Matrix::zeros(nrows, ncols);
        for r in 0..nrows {
            out.row_mut(r)
                .copy_from_slice(&self.row(r0 + r)[c0..c0 + ncols]);
        }
        out
    }

    /// Adds `block` into columns `[start, start + block.cols())`.
    ///
    /// # Panics
    ///
    /// Panics if shapes are incompatible.
    pub fn add_col_block(&mut self, start: usize, block: &Matrix) {
        assert_eq!(self.rows, block.rows(), "column block row mismatch");
        assert!(
            start + block.cols() <= self.cols,
            "column block out of bounds"
        );
        for r in 0..self.rows {
            for c in 0..block.cols() {
                self[(r, start + c)] += block[(r, c)];
            }
        }
    }

    /// Returns the transpose.
    pub fn transpose(&self) -> Matrix {
        let mut out = Matrix::zeros(self.cols, self.rows);
        for r in 0..self.rows {
            for c in 0..self.cols {
                out[(c, r)] = self[(r, c)];
            }
        }
        out
    }

    /// Matrix product `self · other` via the register-tiled micro-kernel
    /// (`kernels::gemm_nn`), split across row blocks when its `m·k·n`
    /// multiply-adds pay for threads ([`crate::par`]). Per-output
    /// k-accumulation order (and the historical zero-skip on A
    /// elements) is that of the old ikj loop whatever the split, so
    /// results are bit-identical to it.
    ///
    /// # Panics
    ///
    /// Panics if `self.cols != other.rows`.
    pub fn matmul(&self, other: &Matrix) -> Matrix {
        assert_eq!(
            self.cols, other.rows,
            "matmul shape mismatch: {}x{} · {}x{}",
            self.rows, self.cols, other.rows, other.cols
        );
        let (inner, ocols) = (self.cols, other.cols);
        let mut out = Matrix::zeros(self.rows, ocols);
        let work = self.rows * inner * ocols;
        crate::par::for_each_chunk_mut(&mut out.data, ocols, work, |first, chunk| {
            let (row_start, nrows) = (first / ocols, chunk.len() / ocols);
            crate::kernels::gemm_nn(
                &self.data,
                &other.data,
                chunk,
                row_start,
                nrows,
                inner,
                ocols,
            );
        });
        out
    }

    /// `self · otherᵀ` without materializing the transpose, via the
    /// register-tiled micro-kernel (`kernels::gemm_nt`). Each output
    /// still accumulates exactly as `dot(self.row(r), other.row(c))`
    /// did — ascending k, sequential fold — so results are
    /// bit-identical to the historical per-output loop.
    ///
    /// # Panics
    ///
    /// Panics if `self.cols != other.cols`.
    pub fn matmul_transposed(&self, other: &Matrix) -> Matrix {
        assert_eq!(
            self.cols, other.cols,
            "matmul_transposed shape mismatch: {}x{} · ({}x{})ᵀ",
            self.rows, self.cols, other.rows, other.cols
        );
        let mut out = Matrix::zeros(self.rows, other.rows);
        crate::kernels::gemm_nt(
            &self.data,
            &other.data,
            &mut out.data,
            self.rows,
            other.rows,
            self.cols,
        );
        out
    }

    /// Element-wise map into a new matrix.
    pub fn map(&self, f: impl Fn(f32) -> f32) -> Matrix {
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data: self.data.iter().map(|&x| f(x)).collect(),
        }
    }

    /// In-place element-wise map.
    pub fn map_inplace(&mut self, f: impl Fn(f32) -> f32) {
        for x in &mut self.data {
            *x = f(*x);
        }
    }

    /// Scales every element by `s`.
    pub fn scale(&self, s: f32) -> Matrix {
        self.map(|x| x * s)
    }

    /// Frobenius norm.
    pub fn frobenius_norm(&self) -> f32 {
        self.data.iter().map(|x| x * x).sum::<f32>().sqrt()
    }

    /// Sum of all elements.
    pub fn sum(&self) -> f32 {
        self.data.iter().sum()
    }

    /// Mean of each column, as a length-`cols` vector.
    pub fn col_mean(&self) -> Vec<f32> {
        let mut mean = vec![0.0f32; self.cols];
        for r in 0..self.rows {
            for (m, v) in mean.iter_mut().zip(self.row(r)) {
                *m += v;
            }
        }
        let n = self.rows.max(1) as f32;
        for m in &mut mean {
            *m /= n;
        }
        mean
    }
}

/// Dot product of two equal-length slices.
///
/// # Panics
///
/// Panics if lengths differ.
#[inline]
pub fn dot(a: &[f32], b: &[f32]) -> f32 {
    assert_eq!(a.len(), b.len(), "dot length mismatch");
    a.iter().zip(b).map(|(x, y)| x * y).sum()
}

impl Index<(usize, usize)> for Matrix {
    type Output = f32;

    #[inline]
    fn index(&self, (r, c): (usize, usize)) -> &f32 {
        &self.data[r * self.cols + c]
    }
}

impl IndexMut<(usize, usize)> for Matrix {
    #[inline]
    fn index_mut(&mut self, (r, c): (usize, usize)) -> &mut f32 {
        &mut self.data[r * self.cols + c]
    }
}

impl Add<&Matrix> for &Matrix {
    type Output = Matrix;

    fn add(self, rhs: &Matrix) -> Matrix {
        assert_eq!(self.shape(), rhs.shape(), "add shape mismatch");
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data: self
                .data
                .iter()
                .zip(&rhs.data)
                .map(|(a, b)| a + b)
                .collect(),
        }
    }
}

impl Sub<&Matrix> for &Matrix {
    type Output = Matrix;

    fn sub(self, rhs: &Matrix) -> Matrix {
        assert_eq!(self.shape(), rhs.shape(), "sub shape mismatch");
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data: self
                .data
                .iter()
                .zip(&rhs.data)
                .map(|(a, b)| a - b)
                .collect(),
        }
    }
}

impl AddAssign<&Matrix> for Matrix {
    fn add_assign(&mut self, rhs: &Matrix) {
        assert_eq!(self.shape(), rhs.shape(), "add_assign shape mismatch");
        for (a, b) in self.data.iter_mut().zip(&rhs.data) {
            *a += b;
        }
    }
}

impl SubAssign<&Matrix> for Matrix {
    fn sub_assign(&mut self, rhs: &Matrix) {
        assert_eq!(self.shape(), rhs.shape(), "sub_assign shape mismatch");
        for (a, b) in self.data.iter_mut().zip(&rhs.data) {
            *a -= b;
        }
    }
}

impl Mul<f32> for &Matrix {
    type Output = Matrix;

    fn mul(self, s: f32) -> Matrix {
        self.scale(s)
    }
}

impl fmt::Debug for Matrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Matrix {}x{} [", self.rows, self.cols)?;
        let max_rows = 6.min(self.rows);
        for r in 0..max_rows {
            let row = self.row(r);
            let shown: Vec<String> = row.iter().take(8).map(|v| format!("{v:.4}")).collect();
            let ellipsis = if self.cols > 8 { ", …" } else { "" };
            writeln!(f, "  [{}{}]", shown.join(", "), ellipsis)?;
        }
        if self.rows > max_rows {
            writeln!(f, "  …")?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_and_identity() {
        let z = Matrix::zeros(2, 3);
        assert_eq!(z.shape(), (2, 3));
        assert!(z.as_slice().iter().all(|&x| x == 0.0));
        let i = Matrix::identity(3);
        assert_eq!(i[(0, 0)], 1.0);
        assert_eq!(i[(0, 1)], 0.0);
    }

    #[test]
    fn matmul_small() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let b = Matrix::from_rows(&[&[5.0, 6.0], &[7.0, 8.0]]);
        let c = a.matmul(&b);
        assert_eq!(c, Matrix::from_rows(&[&[19.0, 22.0], &[43.0, 50.0]]));
    }

    #[test]
    fn matmul_identity_is_noop() {
        let a = Matrix::from_fn(5, 5, |r, c| (r * 5 + c) as f32);
        assert_eq!(a.matmul(&Matrix::identity(5)), a);
        assert_eq!(Matrix::identity(5).matmul(&a), a);
    }

    #[test]
    fn matmul_rectangular() {
        let a = Matrix::from_rows(&[&[1.0, 0.0, 2.0]]);
        let b = Matrix::from_rows(&[&[1.0], &[1.0], &[1.0]]);
        let c = a.matmul(&b);
        assert_eq!(c.shape(), (1, 1));
        assert_eq!(c[(0, 0)], 3.0);
    }

    #[test]
    fn parallel_matches_serial() {
        // 208³ multiply-adds: past `par`'s threshold (2²³), so the row
        // blocks are split wherever there is a second core.
        let n = 208;
        let a = Matrix::from_fn(n, n, |r, c| ((r * 31 + c * 17) % 13) as f32 - 6.0);
        let b = Matrix::from_fn(n, n, |r, c| ((r * 7 + c * 3) % 11) as f32 - 5.0);
        let big = a.matmul(&b);
        // Serial reference.
        let mut reference = Matrix::zeros(n, n);
        for r in 0..n {
            for c in 0..n {
                let mut s = 0.0;
                for k in 0..n {
                    s += a[(r, k)] * b[(k, c)];
                }
                reference[(r, c)] = s;
            }
        }
        for (x, y) in big.as_slice().iter().zip(reference.as_slice()) {
            assert!((x - y).abs() < 1e-3, "parallel/serial mismatch");
        }
    }

    #[test]
    fn matmul_transposed_matches_explicit() {
        let a = Matrix::from_fn(3, 4, |r, c| (r + c) as f32);
        let b = Matrix::from_fn(5, 4, |r, c| (r * c) as f32);
        assert_eq!(a.matmul_transposed(&b), a.matmul(&b.transpose()));
    }

    #[test]
    #[should_panic(expected = "matmul shape mismatch")]
    fn matmul_shape_mismatch_panics() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(2, 3);
        let _ = a.matmul(&b);
    }

    #[test]
    fn transpose_involution() {
        let a = Matrix::from_fn(3, 7, |r, c| (r * 7 + c) as f32);
        assert_eq!(a.transpose().transpose(), a);
    }

    #[test]
    fn row_and_col_access() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        assert_eq!(a.row(1), &[3.0, 4.0]);
        assert_eq!(a.col(0), vec![1.0, 3.0]);
    }

    #[test]
    fn arithmetic_ops() {
        let a = Matrix::from_rows(&[&[1.0, 2.0]]);
        let b = Matrix::from_rows(&[&[3.0, 5.0]]);
        assert_eq!(&a + &b, Matrix::from_rows(&[&[4.0, 7.0]]));
        assert_eq!(&b - &a, Matrix::from_rows(&[&[2.0, 3.0]]));
        assert_eq!(&a * 2.0, Matrix::from_rows(&[&[2.0, 4.0]]));
        let mut c = a.clone();
        c += &b;
        assert_eq!(c, Matrix::from_rows(&[&[4.0, 7.0]]));
        c -= &b;
        assert_eq!(c, a);
    }

    #[test]
    fn col_mean() {
        let a = Matrix::from_rows(&[&[1.0, 10.0], &[3.0, 30.0]]);
        assert_eq!(a.col_mean(), vec![2.0, 20.0]);
    }

    #[test]
    fn frobenius_norm() {
        let a = Matrix::from_rows(&[&[3.0, 4.0]]);
        assert!((a.frobenius_norm() - 5.0).abs() < 1e-6);
    }

    #[test]
    fn debug_is_nonempty_and_truncates() {
        let a = Matrix::zeros(10, 12);
        let s = format!("{a:?}");
        assert!(s.contains("Matrix 10x12"));
        assert!(s.contains('…'));
    }

    #[test]
    fn dot_product() {
        assert_eq!(dot(&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]), 32.0);
    }

    #[test]
    fn tiled_matmuls_are_bit_identical_to_the_naive_loops() {
        // The historical kernels, verbatim: ikj with zero-skip for
        // matmul, per-output sequential dot for matmul_transposed.
        // Shapes straddle the register-tile edges; the last is past
        // `par`'s threshold (2²³ multiply-adds), so it is split over
        // row blocks wherever there is a second core.
        for (m, k, n) in [
            (1, 1, 1),
            (3, 5, 7),
            (13, 9, 17),
            (65, 64, 66),
            (257, 128, 256),
        ] {
            let a = Matrix::from_fn(m, k, |r, c| {
                if (r + c) % 5 == 0 {
                    0.0
                } else {
                    ((r * 31 + c * 17) % 13) as f32 * 0.37 - 2.0
                }
            });
            let b = Matrix::from_fn(k, n, |r, c| ((r * 7 + c * 3) % 11) as f32 * 0.73 - 3.0);
            let mut want = Matrix::zeros(m, n);
            for r in 0..m {
                let out_row = want.row_mut(r);
                for (ki, &aik) in a.row(r).iter().enumerate() {
                    if aik == 0.0 {
                        continue;
                    }
                    for (o, &bkj) in out_row.iter_mut().zip(b.row(ki)) {
                        *o += aik * bkj;
                    }
                }
            }
            assert_eq!(a.matmul(&b), want, "matmul {m}x{k}x{n}");

            let bt = Matrix::from_fn(n, k, |r, c| ((r * 13 + c * 5) % 9) as f32 * 1.1 - 4.0);
            let want_t = Matrix::from_fn(m, n, |r, c| dot(a.row(r), bt.row(c)));
            assert_eq!(
                a.matmul_transposed(&bt),
                want_t,
                "matmul_transposed {m}x{k}x{n}"
            );
        }
    }
}
