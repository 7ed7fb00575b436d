//! Row-major dense `f32` matrix.

use std::fmt;
use std::ops::{Index, IndexMut};

use crate::gemm::{self, View};
use crate::pool;

/// A row-major dense matrix of `f32` values.
///
/// `Matrix` is the workhorse of the training substrate: mini-batches are
/// matrices whose rows are samples, layer weights are matrices, and the
/// convolution helpers in [`crate::conv`] lower convolutions to matrix
/// products over this type.
///
/// # Example
///
/// ```
/// use spyker_tensor::Matrix;
/// let m = Matrix::zeros(2, 3);
/// assert_eq!(m.rows(), 2);
/// assert_eq!(m.cols(), 3);
/// assert_eq!(m[(1, 2)], 0.0);
/// ```
#[derive(Clone, Default, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f32>,
}

impl Matrix {
    /// Creates a `rows x cols` matrix filled with zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Creates a `rows x cols` matrix filled with `value`.
    pub fn filled(rows: usize, cols: usize, value: f32) -> Self {
        Self {
            rows,
            cols,
            data: vec![value; rows * cols],
        }
    }

    /// Creates the `n x n` identity matrix.
    pub fn identity(n: usize) -> Self {
        let mut m = Self::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = 1.0;
        }
        m
    }

    /// Creates a matrix from row slices.
    ///
    /// # Panics
    ///
    /// Panics if the rows do not all have the same length.
    pub fn from_rows(rows: &[&[f32]]) -> Self {
        let r = rows.len();
        let c = rows.first().map_or(0, |row| row.len());
        let mut data = Vec::with_capacity(r * c);
        for row in rows {
            assert_eq!(row.len(), c, "all rows must have the same length");
            data.extend_from_slice(row);
        }
        Self {
            rows: r,
            cols: c,
            data,
        }
    }

    /// Creates a matrix that takes ownership of `data` laid out row-major.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f32>) -> Self {
        assert_eq!(
            data.len(),
            rows * cols,
            "data length {} does not match {}x{}",
            data.len(),
            rows,
            cols
        );
        Self { rows, cols, data }
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Total number of elements (`rows * cols`).
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Returns `true` when the matrix has no elements.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Immutable view of the underlying row-major buffer.
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// Mutable view of the underlying row-major buffer.
    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Consumes the matrix and returns the underlying buffer.
    pub fn into_vec(self) -> Vec<f32> {
        self.data
    }

    /// Immutable view of row `r`.
    ///
    /// # Panics
    ///
    /// Panics if `r >= self.rows()`.
    pub fn row(&self, r: usize) -> &[f32] {
        assert!(
            r < self.rows,
            "row {} out of bounds ({} rows)",
            r,
            self.rows
        );
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Mutable view of row `r`.
    ///
    /// # Panics
    ///
    /// Panics if `r >= self.rows()`.
    pub fn row_mut(&mut self, r: usize) -> &mut [f32] {
        assert!(
            r < self.rows,
            "row {} out of bounds ({} rows)",
            r,
            self.rows
        );
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Re-shapes this matrix to `rows x cols`, reusing the existing buffer
    /// when it is large enough. The contents are unspecified afterwards —
    /// callers must fully overwrite them (every `_into` kernel does).
    pub fn reset_dims(&mut self, rows: usize, cols: usize) {
        let n = rows * cols;
        if self.data.len() != n {
            self.data.resize(n, 0.0);
        }
        self.rows = rows;
        self.cols = cols;
    }

    /// Matrix product `self * rhs`.
    ///
    /// Runs the register-tiled kernel in [`crate::gemm`]: small products
    /// read their operands in place, large ones are packed, cache-blocked
    /// and split into row bands across the persistent worker pool — with
    /// bit-identical results in either regime and at any thread count.
    ///
    /// # Panics
    ///
    /// Panics if `self.cols() != rhs.rows()`.
    pub fn matmul(&self, rhs: &Matrix) -> Matrix {
        let mut out = Matrix::default();
        self.matmul_into(rhs, &mut out);
        out
    }

    /// [`Matrix::matmul`] into a caller-owned output (no allocation when
    /// `out`'s buffer already has capacity).
    ///
    /// # Panics
    ///
    /// Panics if `self.cols() != rhs.rows()`.
    pub fn matmul_into(&self, rhs: &Matrix, out: &mut Matrix) {
        self.matmul_into_threads(rhs, out, pool::configured_threads());
    }

    /// [`Matrix::matmul_into`] with an explicit thread budget for the
    /// blocked regime (the determinism tests pin 1, 2 and 4 threads;
    /// results are bit-identical across budgets).
    ///
    /// # Panics
    ///
    /// Panics if `self.cols() != rhs.rows()`.
    pub fn matmul_into_threads(&self, rhs: &Matrix, out: &mut Matrix, threads: usize) {
        assert_eq!(
            self.cols, rhs.rows,
            "matmul dimension mismatch: {}x{} * {}x{}",
            self.rows, self.cols, rhs.rows, rhs.cols
        );
        out.reset_dims(self.rows, rhs.cols);
        gemm::gemm_into(
            &mut out.data,
            self.rows,
            rhs.cols,
            self.cols,
            View::normal(&self.data, self.cols),
            View::normal(&rhs.data, rhs.cols),
            threads,
        );
    }

    /// Matrix product `self^T * rhs` without materialising the transpose.
    ///
    /// # Panics
    ///
    /// Panics if `self.rows() != rhs.rows()`.
    pub fn matmul_tn(&self, rhs: &Matrix) -> Matrix {
        let mut out = Matrix::default();
        self.matmul_tn_into(rhs, &mut out);
        out
    }

    /// [`Matrix::matmul_tn`] into a caller-owned output.
    ///
    /// # Panics
    ///
    /// Panics if `self.rows() != rhs.rows()`.
    pub fn matmul_tn_into(&self, rhs: &Matrix, out: &mut Matrix) {
        assert_eq!(
            self.rows, rhs.rows,
            "matmul_tn dimension mismatch: ({}x{})^T * {}x{}",
            self.rows, self.cols, rhs.rows, rhs.cols
        );
        out.reset_dims(self.cols, rhs.cols);
        gemm::gemm_into(
            &mut out.data,
            self.cols,
            rhs.cols,
            self.rows,
            View::transposed(&self.data, self.cols),
            View::normal(&rhs.data, rhs.cols),
            pool::configured_threads(),
        );
    }

    /// The SGD step `self += alpha * a^T * b` without the product matrix:
    /// bit-identical to `a.matmul_tn_into(b, &mut g)` followed by
    /// `self.axpy(alpha, &g)`, at every shape and thread budget. Small
    /// products write each finished tile straight into `self`; large ones
    /// go through a thread-local buffer ([`crate::gemm`]).
    ///
    /// # Panics
    ///
    /// Panics if `a.rows() != b.rows()` or `self` is not
    /// `a.cols() x b.cols()`.
    pub fn axpy_tn(&mut self, alpha: f32, a: &Matrix, b: &Matrix) {
        let regime = gemm::Regime::for_shape(a.cols, b.cols, a.rows);
        gemm::axpy_tn_in_regime(regime, self, alpha, a, b, pool::configured_threads());
    }

    /// Matrix product `self * rhs^T` without materialising the transpose.
    ///
    /// # Panics
    ///
    /// Panics if `self.cols() != rhs.cols()`.
    pub fn matmul_nt(&self, rhs: &Matrix) -> Matrix {
        let mut out = Matrix::default();
        self.matmul_nt_into(rhs, &mut out);
        out
    }

    /// [`Matrix::matmul_nt`] into a caller-owned output.
    ///
    /// # Panics
    ///
    /// Panics if `self.cols() != rhs.cols()`.
    pub fn matmul_nt_into(&self, rhs: &Matrix, out: &mut Matrix) {
        assert_eq!(
            self.cols, rhs.cols,
            "matmul_nt dimension mismatch: {}x{} * ({}x{})^T",
            self.rows, self.cols, rhs.rows, rhs.cols
        );
        out.reset_dims(self.rows, rhs.rows);
        gemm::gemm_into(
            &mut out.data,
            self.rows,
            rhs.rows,
            self.cols,
            View::normal(&self.data, self.cols),
            View::transposed(&rhs.data, rhs.cols),
            pool::configured_threads(),
        );
    }

    /// The pre-blocking i-k-j matmul, frozen as the reference kernel.
    ///
    /// Kept for the property tests (the blocked kernel must agree with it)
    /// and as the baseline `bench_smoke` measures speedups against. Note
    /// the `== 0.0` skip branch: it was dropped from the production path —
    /// on dense data it only costs a compare per iteration — but stays here
    /// so the baseline is exactly the kernel this crate used to ship.
    ///
    /// # Panics
    ///
    /// Panics if `self.cols() != rhs.rows()`.
    pub fn matmul_naive(&self, rhs: &Matrix) -> Matrix {
        assert_eq!(
            self.cols, rhs.rows,
            "matmul dimension mismatch: {}x{} * {}x{}",
            self.rows, self.cols, rhs.rows, rhs.cols
        );
        let mut out = Matrix::zeros(self.rows, rhs.cols);
        for i in 0..self.rows {
            let a_row = self.row(i);
            let out_row = &mut out.data[i * rhs.cols..(i + 1) * rhs.cols];
            for (k, &a_ik) in a_row.iter().enumerate() {
                if a_ik == 0.0 {
                    continue;
                }
                let b_row = rhs.row(k);
                for (o, &b_kj) in out_row.iter_mut().zip(b_row) {
                    *o += a_ik * b_kj;
                }
            }
        }
        out
    }

    /// Returns the transposed matrix.
    pub fn transpose(&self) -> Matrix {
        let mut out = Matrix::default();
        self.transpose_into(&mut out);
        out
    }

    /// Blocked (tile-wise) transpose into a caller-owned output.
    ///
    /// Walks 32x32 tiles so both the read and the write side stay within a
    /// few cache lines per tile, instead of striding the whole destination
    /// once per source row.
    pub fn transpose_into(&self, out: &mut Matrix) {
        const TB: usize = 32;
        out.reset_dims(self.cols, self.rows);
        for ib in (0..self.rows).step_by(TB) {
            let imax = (ib + TB).min(self.rows);
            for jb in (0..self.cols).step_by(TB) {
                let jmax = (jb + TB).min(self.cols);
                for i in ib..imax {
                    let src = &self.data[i * self.cols + jb..i * self.cols + jmax];
                    for (j, &v) in (jb..jmax).zip(src) {
                        out.data[j * self.rows + i] = v;
                    }
                }
            }
        }
    }

    /// Adds `rhs` element-wise into `self`.
    ///
    /// # Panics
    ///
    /// Panics if the shapes differ.
    pub fn add_assign(&mut self, rhs: &Matrix) {
        assert_eq!(self.shape(), rhs.shape(), "add_assign shape mismatch");
        for (a, &b) in self.data.iter_mut().zip(&rhs.data) {
            *a += b;
        }
    }

    /// Computes `self += alpha * rhs` element-wise.
    ///
    /// # Panics
    ///
    /// Panics if the shapes differ.
    pub fn axpy(&mut self, alpha: f32, rhs: &Matrix) {
        assert_eq!(self.shape(), rhs.shape(), "axpy shape mismatch");
        for (a, &b) in self.data.iter_mut().zip(&rhs.data) {
            *a += alpha * b;
        }
    }

    /// Multiplies every element by `factor`.
    pub fn scale(&mut self, factor: f32) {
        for a in &mut self.data {
            *a *= factor;
        }
    }

    /// Adds the row vector `bias` to every row of `self`.
    ///
    /// # Panics
    ///
    /// Panics if `bias.len() != self.cols()`.
    pub fn add_row_broadcast(&mut self, bias: &[f32]) {
        assert_eq!(bias.len(), self.cols, "bias length must equal cols");
        for r in 0..self.rows {
            for (a, &b) in self.row_mut(r).iter_mut().zip(bias) {
                *a += b;
            }
        }
    }

    /// Sums the rows of `self` into a single row vector.
    pub fn sum_rows(&self) -> Vec<f32> {
        let mut out = vec![0.0; self.cols];
        self.sum_rows_into(&mut out);
        out
    }

    /// [`Matrix::sum_rows`] into a caller-owned buffer (overwritten, not
    /// accumulated).
    ///
    /// # Panics
    ///
    /// Panics if `out.len() != self.cols()`.
    pub fn sum_rows_into(&self, out: &mut [f32]) {
        assert_eq!(out.len(), self.cols, "sum_rows output length mismatch");
        out.fill(0.0);
        for r in 0..self.rows {
            for (o, &v) in out.iter_mut().zip(self.row(r)) {
                *o += v;
            }
        }
    }

    /// Applies `f` to every element in place.
    pub fn map_inplace<F: FnMut(f32) -> f32>(&mut self, mut f: F) {
        for a in &mut self.data {
            *a = f(*a);
        }
    }

    /// Returns a new matrix with `f` applied to every element.
    pub fn map<F: FnMut(f32) -> f32>(&self, f: F) -> Matrix {
        let mut out = self.clone();
        out.map_inplace(f);
        out
    }

    /// Element-wise (Hadamard) product into `self`.
    ///
    /// # Panics
    ///
    /// Panics if the shapes differ.
    pub fn hadamard_assign(&mut self, rhs: &Matrix) {
        assert_eq!(self.shape(), rhs.shape(), "hadamard shape mismatch");
        for (a, &b) in self.data.iter_mut().zip(&rhs.data) {
            *a *= b;
        }
    }

    /// `(rows, cols)` pair.
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Index of the maximum element of each row.
    pub fn argmax_rows(&self) -> Vec<usize> {
        (0..self.rows)
            .map(|r| {
                let row = self.row(r);
                let mut best = 0;
                for (j, &v) in row.iter().enumerate() {
                    if v > row[best] {
                        best = j;
                    }
                }
                best
            })
            .collect()
    }

    /// Frobenius norm (`sqrt(sum of squares)`).
    pub fn frobenius_norm(&self) -> f32 {
        self.data.iter().map(|v| v * v).sum::<f32>().sqrt()
    }
}

impl Index<(usize, usize)> for Matrix {
    type Output = f32;

    fn index(&self, (r, c): (usize, usize)) -> &f32 {
        assert!(
            r < self.rows && c < self.cols,
            "index ({r},{c}) out of bounds"
        );
        &self.data[r * self.cols + c]
    }
}

impl IndexMut<(usize, usize)> for Matrix {
    fn index_mut(&mut self, (r, c): (usize, usize)) -> &mut f32 {
        assert!(
            r < self.rows && c < self.cols,
            "index ({r},{c}) out of bounds"
        );
        &mut self.data[r * self.cols + c]
    }
}

impl fmt::Debug for Matrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Matrix {}x{} [", self.rows, self.cols)?;
        let max_rows = 8;
        for r in 0..self.rows.min(max_rows) {
            writeln!(f, "  {:?}", self.row(r))?;
        }
        if self.rows > max_rows {
            writeln!(f, "  ... ({} more rows)", self.rows - max_rows)?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_has_expected_shape_and_values() {
        let m = Matrix::zeros(3, 4);
        assert_eq!(m.shape(), (3, 4));
        assert!(m.as_slice().iter().all(|&v| v == 0.0));
    }

    #[test]
    fn identity_is_multiplicative_identity() {
        let a = Matrix::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]);
        let id = Matrix::identity(3);
        assert_eq!(a.matmul(&id), a);
    }

    #[test]
    fn matmul_matches_hand_computation() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let b = Matrix::from_rows(&[&[5.0, 6.0], &[7.0, 8.0]]);
        let c = a.matmul(&b);
        assert_eq!(c, Matrix::from_rows(&[&[19.0, 22.0], &[43.0, 50.0]]));
    }

    #[test]
    fn matmul_tn_matches_explicit_transpose() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0], &[5.0, 6.0]]);
        let b = Matrix::from_rows(&[&[1.0, 0.5], &[2.0, 1.0], &[0.0, 3.0]]);
        assert_eq!(a.matmul_tn(&b), a.transpose().matmul(&b));
    }

    #[test]
    fn matmul_nt_matches_explicit_transpose() {
        let a = Matrix::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]);
        let b = Matrix::from_rows(&[&[1.0, 0.0, 2.0], &[0.5, 1.5, 1.0]]);
        assert_eq!(a.matmul_nt(&b), a.matmul(&b.transpose()));
    }

    #[test]
    fn transpose_is_involution() {
        let a = Matrix::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]);
        assert_eq!(a.transpose().transpose(), a);
    }

    #[test]
    fn axpy_accumulates() {
        let mut a = Matrix::filled(2, 2, 1.0);
        let b = Matrix::filled(2, 2, 2.0);
        a.axpy(0.5, &b);
        assert_eq!(a, Matrix::filled(2, 2, 2.0));
    }

    #[test]
    fn add_row_broadcast_adds_bias_to_every_row() {
        let mut a = Matrix::zeros(3, 2);
        a.add_row_broadcast(&[1.0, -1.0]);
        for r in 0..3 {
            assert_eq!(a.row(r), &[1.0, -1.0]);
        }
    }

    #[test]
    fn sum_rows_matches_manual_sum() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0], &[5.0, 6.0]]);
        assert_eq!(a.sum_rows(), vec![9.0, 12.0]);
    }

    #[test]
    fn argmax_rows_picks_first_max_on_ties() {
        let a = Matrix::from_rows(&[&[0.0, 1.0, 1.0], &[2.0, 0.0, 1.0]]);
        assert_eq!(a.argmax_rows(), vec![1, 0]);
    }

    #[test]
    #[should_panic(expected = "matmul dimension mismatch")]
    fn matmul_panics_on_dimension_mismatch() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(2, 3);
        let _ = a.matmul(&b);
    }

    #[test]
    #[should_panic(expected = "data length")]
    fn from_vec_panics_on_bad_length() {
        let _ = Matrix::from_vec(2, 2, vec![0.0; 3]);
    }

    #[test]
    fn zeros_in_the_input_still_multiply_correctly() {
        // The old kernel special-cased a_ik == 0.0; the blocked kernel has
        // no such branch — zero rows, zero columns and scattered zeros must
        // all come out exact.
        let a = Matrix::from_rows(&[&[0.0, 0.0, 0.0], &[1.0, 0.0, 2.0], &[0.0, -3.0, 0.0]]);
        let b = Matrix::from_rows(&[&[1.0, 0.0], &[0.0, 1.0], &[5.0, 0.0]]);
        let got = a.matmul(&b);
        let want = Matrix::from_rows(&[&[0.0, 0.0], &[11.0, 0.0], &[0.0, -3.0]]);
        assert_eq!(got, want);
        assert_eq!(a.matmul_naive(&b), want);
        // An all-zero operand annihilates regardless of the other side.
        let z = Matrix::zeros(3, 3);
        assert_eq!(z.matmul(&b), Matrix::zeros(3, 2));
    }

    #[test]
    fn blocked_matmul_agrees_with_naive_reference_beyond_tile_sizes() {
        // 70x50x90 exercises edge tiles in every blocking dimension.
        let mk = |rows: usize, cols: usize, seed: u64| {
            let data = (0..rows * cols)
                .map(|i| ((i as u64 * 2654435761 + seed) % 1000) as f32 / 500.0 - 1.0)
                .collect();
            Matrix::from_vec(rows, cols, data)
        };
        let a = mk(70, 90, 3);
        let b = mk(90, 50, 7);
        let got = a.matmul(&b);
        let want = a.matmul_naive(&b);
        for (g, w) in got.as_slice().iter().zip(want.as_slice()) {
            assert!((g - w).abs() < 1e-4, "{g} vs {w}");
        }
    }

    #[test]
    fn matmul_into_reuses_the_output_buffer() {
        let a = Matrix::filled(4, 6, 1.0);
        let b = Matrix::filled(6, 3, 2.0);
        let mut out = Matrix::zeros(4, 3);
        let ptr_before = out.as_slice().as_ptr();
        a.matmul_into(&b, &mut out);
        assert_eq!(out, Matrix::filled(4, 3, 12.0));
        assert_eq!(ptr_before, out.as_slice().as_ptr(), "no realloc");
    }

    #[test]
    fn transpose_into_matches_transpose_and_reuses_buffer() {
        let a = Matrix::from_vec(33, 65, (0..33 * 65).map(|v| v as f32).collect());
        let mut out = Matrix::zeros(65, 33);
        let ptr_before = out.as_slice().as_ptr();
        a.transpose_into(&mut out);
        assert_eq!(out, a.transpose());
        assert_eq!(ptr_before, out.as_slice().as_ptr(), "no realloc");
        for i in 0..33 {
            for j in 0..65 {
                assert_eq!(out[(j, i)], a[(i, j)]);
            }
        }
    }

    #[test]
    fn reset_dims_keeps_capacity_when_shrinking() {
        let mut m = Matrix::zeros(8, 8);
        let ptr = m.as_slice().as_ptr();
        m.reset_dims(4, 4);
        assert_eq!(m.shape(), (4, 4));
        m.reset_dims(8, 8);
        assert_eq!(ptr, m.as_slice().as_ptr());
    }

    #[test]
    fn frobenius_norm_of_unit_vector() {
        let m = Matrix::from_rows(&[&[3.0, 4.0]]);
        assert!((m.frobenius_norm() - 5.0).abs() < 1e-6);
    }

    #[test]
    fn hadamard_is_elementwise() {
        let mut a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let b = Matrix::from_rows(&[&[2.0, 0.5], &[1.0, 0.0]]);
        a.hadamard_assign(&b);
        assert_eq!(a, Matrix::from_rows(&[&[2.0, 1.0], &[3.0, 0.0]]));
    }
}
