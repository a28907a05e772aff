//! Row-major dense `f32` matrix with the primitives required by attention kernels.

use crate::backend::{matmul_backend, MatmulBackend, Operand};
use crate::error::{ShapeError, TensorResult};
use crate::stats::Summary;
use std::fmt;
use std::ops::{Add, Mul, Sub};

/// A row-major dense matrix of `f32` values.
///
/// `Matrix` is the workhorse type of the reproduction: queries, keys, values, attention
/// maps, the ViTALiTy global context matrix `G` and layer weights are all `Matrix`
/// instances. The API favours explicit method names (`matmul_transpose_b`,
/// `broadcast_sub_row`) over operator overloading for the attention-specific patterns so
/// that the algorithm implementations read close to Algorithm 1 in the paper.
///
/// # Example
///
/// ```
/// use vitality_tensor::Matrix;
///
/// let k = Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0], vec![5.0, 6.0]]).unwrap();
/// let mean = k.col_mean();          // 1 x d row vector, the paper's \bar{K}
/// let centered = k.broadcast_sub_row(&mean); // \hat{K} = K - 1_n \bar{K}
/// assert!(centered.col_mean().iter().all(|v| v.abs() < 1e-6));
/// ```
#[derive(Clone, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f32>,
}

impl fmt::Debug for Matrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Matrix({}x{})", self.rows, self.cols)?;
        if self.rows * self.cols <= 36 {
            write!(f, " {:?}", self.data)?;
        }
        Ok(())
    }
}

impl Matrix {
    // ------------------------------------------------------------------
    // Constructors
    // ------------------------------------------------------------------

    /// Creates a `rows x cols` matrix filled with zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Creates a `rows x cols` matrix filled with ones.
    pub fn ones(rows: usize, cols: usize) -> Self {
        Self::filled(rows, cols, 1.0)
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
            m.set(i, i, 1.0);
        }
        m
    }

    /// Creates a matrix by evaluating `f(row, col)` at every position.
    pub fn from_fn<F: FnMut(usize, usize) -> f32>(rows: usize, cols: usize, mut f: F) -> Self {
        let mut data = Vec::with_capacity(rows * cols);
        for i in 0..rows {
            for j in 0..cols {
                data.push(f(i, j));
            }
        }
        Self { rows, cols, data }
    }

    /// Creates a matrix from a flat row-major vector.
    ///
    /// # Errors
    ///
    /// Returns a [`ShapeError`] when `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f32>) -> TensorResult<Self> {
        if data.len() != rows * cols {
            return Err(ShapeError::new("from_vec", (rows, cols), (data.len(), 1)));
        }
        Ok(Self { rows, cols, data })
    }

    /// Creates a matrix from a slice of equally-long rows.
    ///
    /// # Errors
    ///
    /// Returns a [`ShapeError`] when the rows do not all have the same length or when
    /// `rows` is empty.
    pub fn from_rows(rows: &[Vec<f32>]) -> TensorResult<Self> {
        if rows.is_empty() {
            return Err(ShapeError::new("from_rows", (0, 0), (0, 0)));
        }
        let cols = rows[0].len();
        let mut data = Vec::with_capacity(rows.len() * cols);
        for r in rows {
            if r.len() != cols {
                return Err(ShapeError::new(
                    "from_rows",
                    (rows.len(), cols),
                    (1, r.len()),
                ));
            }
            data.extend_from_slice(r);
        }
        Ok(Self {
            rows: rows.len(),
            cols,
            data,
        })
    }

    // ------------------------------------------------------------------
    // Shape and element access
    // ------------------------------------------------------------------

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// `(rows, cols)` pair.
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Total number of elements.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// `true` when the matrix has no elements.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Element at `(row, col)`.
    ///
    /// # Panics
    ///
    /// Panics when the indices are out of bounds.
    #[inline]
    pub fn get(&self, row: usize, col: usize) -> f32 {
        debug_assert!(row < self.rows && col < self.cols);
        self.data[row * self.cols + col]
    }

    /// Sets the element at `(row, col)`.
    ///
    /// # Panics
    ///
    /// Panics when the indices are out of bounds.
    #[inline]
    pub fn set(&mut self, row: usize, col: usize, value: f32) {
        debug_assert!(row < self.rows && col < self.cols);
        self.data[row * self.cols + col] = value;
    }

    /// Borrow of row `row` as a slice.
    ///
    /// # Panics
    ///
    /// Panics when `row >= rows()`.
    pub fn row(&self, row: usize) -> &[f32] {
        assert!(
            row < self.rows,
            "row index {row} out of bounds ({})",
            self.rows
        );
        &self.data[row * self.cols..(row + 1) * self.cols]
    }

    /// Mutable borrow of row `row` as a slice.
    ///
    /// # Panics
    ///
    /// Panics when `row >= rows()`.
    pub fn row_mut(&mut self, row: usize) -> &mut [f32] {
        assert!(
            row < self.rows,
            "row index {row} out of bounds ({})",
            self.rows
        );
        &mut self.data[row * self.cols..(row + 1) * self.cols]
    }

    /// Column `col` copied into a new vector.
    ///
    /// # Panics
    ///
    /// Panics when `col >= cols()`.
    pub fn col(&self, col: usize) -> Vec<f32> {
        assert!(
            col < self.cols,
            "col index {col} out of bounds ({})",
            self.cols
        );
        (0..self.rows).map(|r| self.get(r, col)).collect()
    }

    /// Flat row-major view of the underlying data.
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// Flat mutable row-major view of the underlying data.
    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Consumes the matrix and returns its row-major data.
    pub fn into_vec(self) -> Vec<f32> {
        self.data
    }

    /// Iterator over all elements in row-major order.
    pub fn iter(&self) -> std::slice::Iter<'_, f32> {
        self.data.iter()
    }

    // ------------------------------------------------------------------
    // Elementwise operations
    // ------------------------------------------------------------------

    /// Returns a matrix whose elements are `f(self[i][j])`.
    pub fn map<F: Fn(f32) -> f32>(&self, f: F) -> Self {
        Self {
            rows: self.rows,
            cols: self.cols,
            data: self.data.iter().map(|&v| f(v)).collect(),
        }
    }

    /// Applies `f` to every element in place.
    pub fn map_inplace<F: Fn(f32) -> f32>(&mut self, f: F) {
        for v in &mut self.data {
            *v = f(*v);
        }
    }

    /// Elementwise addition.
    ///
    /// # Errors
    ///
    /// Returns a [`ShapeError`] when shapes differ.
    pub fn try_add(&self, other: &Self) -> TensorResult<Self> {
        self.zip_with(other, "add", |a, b| a + b)
    }

    /// Elementwise subtraction.
    ///
    /// # Errors
    ///
    /// Returns a [`ShapeError`] when shapes differ.
    pub fn try_sub(&self, other: &Self) -> TensorResult<Self> {
        self.zip_with(other, "sub", |a, b| a - b)
    }

    /// Elementwise (Hadamard) product.
    ///
    /// # Errors
    ///
    /// Returns a [`ShapeError`] when shapes differ.
    pub fn try_hadamard(&self, other: &Self) -> TensorResult<Self> {
        self.zip_with(other, "hadamard", |a, b| a * b)
    }

    /// Elementwise (Hadamard) product, panicking on shape mismatch.
    ///
    /// # Panics
    ///
    /// Panics when shapes differ.
    pub fn hadamard(&self, other: &Self) -> Self {
        self.try_hadamard(other).expect("hadamard shape mismatch")
    }

    fn zip_with<F: Fn(f32, f32) -> f32>(
        &self,
        other: &Self,
        op: &'static str,
        f: F,
    ) -> TensorResult<Self> {
        if self.shape() != other.shape() {
            return Err(ShapeError::new(op, self.shape(), other.shape()));
        }
        Ok(Self {
            rows: self.rows,
            cols: self.cols,
            data: self
                .data
                .iter()
                .zip(other.data.iter())
                .map(|(&a, &b)| f(a, b))
                .collect(),
        })
    }

    /// Multiplies every element by `factor`.
    pub fn scale(&self, factor: f32) -> Self {
        self.map(|v| v * factor)
    }

    /// Adds `other` elementwise in place (the allocation-free residual-connection form
    /// of [`Matrix::try_add`]).
    ///
    /// # Panics
    ///
    /// Panics when shapes differ.
    pub fn add_assign(&mut self, other: &Self) {
        assert_eq!(self.shape(), other.shape(), "add_assign shape mismatch");
        for (a, &b) in self.data.iter_mut().zip(other.data.iter()) {
            *a += b;
        }
    }

    /// Overwrites `self` with the contents of an equally-shaped `other`.
    ///
    /// # Panics
    ///
    /// Panics when shapes differ.
    pub fn copy_from(&mut self, other: &Self) {
        assert_eq!(self.shape(), other.shape(), "copy_from shape mismatch");
        self.data.copy_from_slice(&other.data);
    }

    /// Adds `value` to every element.
    pub fn add_scalar(&self, value: f32) -> Self {
        self.map(|v| v + value)
    }

    // ------------------------------------------------------------------
    // Matrix multiplication and transposition
    // ------------------------------------------------------------------

    /// Matrix product `self * other` on the process-wide [`MatmulBackend`].
    ///
    /// # Errors
    ///
    /// Returns a [`ShapeError`] when `self.cols() != other.rows()`.
    pub fn try_matmul(&self, other: &Self) -> TensorResult<Self> {
        if self.cols != other.rows {
            return Err(ShapeError::new("matmul", self.shape(), other.shape()));
        }
        Ok(self.matmul_with(matmul_backend(), other))
    }

    /// Matrix product `self * other`.
    ///
    /// # Panics
    ///
    /// Panics when the inner dimensions disagree.
    pub fn matmul(&self, other: &Self) -> Self {
        self.try_matmul(other).expect("matmul shape mismatch")
    }

    /// Matrix product `self * other` on an explicit backend (used by differential tests
    /// and benches; everyday code should call [`Matrix::matmul`]).
    ///
    /// # Panics
    ///
    /// Panics when the inner dimensions disagree.
    pub fn matmul_with(&self, backend: MatmulBackend, other: &Self) -> Self {
        assert_eq!(
            self.cols,
            other.rows,
            "matmul inner dimension mismatch: {:?} vs {:?}",
            self.shape(),
            other.shape()
        );
        let data = backend.gemm(
            self.rows,
            self.cols,
            other.cols,
            Operand::row_major(&self.data, self.cols),
            Operand::row_major(&other.data, other.cols),
        );
        Self {
            rows: self.rows,
            cols: other.cols,
            data,
        }
    }

    /// Matrix product `self * other` written into `out` (the allocation-free form of
    /// [`Matrix::matmul`], used by the [`crate::Workspace`]-threaded inference hot
    /// paths). `out` is overwritten.
    ///
    /// # Panics
    ///
    /// Panics when the inner dimensions disagree or `out` is not `rows x other.cols`.
    pub fn matmul_into(&self, other: &Self, out: &mut Self) {
        assert_eq!(
            self.cols,
            other.rows,
            "matmul_into inner dimension mismatch: {:?} vs {:?}",
            self.shape(),
            other.shape()
        );
        assert_eq!(
            out.shape(),
            (self.rows, other.cols),
            "matmul_into output shape mismatch"
        );
        matmul_backend().gemm_into(
            &mut out.data,
            self.rows,
            self.cols,
            other.cols,
            Operand::row_major(&self.data, self.cols),
            Operand::row_major(&other.data, other.cols),
        );
    }

    /// Matrix product `self * other` exploiting zeros in `self`.
    ///
    /// Skips inner-product work for exactly-zero entries of `self`, which makes it the
    /// right kernel for *masked* operands — the Sanger-style sparse attention maps whose
    /// rows are mostly structural zeros. Dense operands should use [`Matrix::matmul`]:
    /// the per-element branch that pays off at high sparsity penalises dense GEMM.
    ///
    /// # Panics
    ///
    /// Panics when the inner dimensions disagree.
    pub fn matmul_sparse(&self, other: &Self) -> Self {
        assert_eq!(
            self.cols,
            other.rows,
            "matmul_sparse inner dimension mismatch: {:?} vs {:?}",
            self.shape(),
            other.shape()
        );
        let mut out = Self::zeros(self.rows, other.cols);
        for i in 0..self.rows {
            let a_row = self.row(i);
            let out_row = &mut out.data[i * other.cols..(i + 1) * other.cols];
            for (k, &a_ik) in a_row.iter().enumerate() {
                if a_ik == 0.0 {
                    continue;
                }
                let b_row = &other.data[k * other.cols..(k + 1) * other.cols];
                for (o, &b_kj) in out_row.iter_mut().zip(b_row.iter()) {
                    *o += a_ik * b_kj;
                }
            }
        }
        out
    }

    /// Matrix product `self * other.T` without materialising the transpose.
    ///
    /// This is the access pattern of `Q K^T` in the vanilla attention and of
    /// `Q \hat{k}_{sum}^T` in the Taylor attention.
    ///
    /// # Panics
    ///
    /// Panics when `self.cols() != other.cols()`.
    pub fn matmul_transpose_b(&self, other: &Self) -> Self {
        self.matmul_transpose_b_with(matmul_backend(), other)
    }

    /// Matrix product `self * other.T` on an explicit backend.
    ///
    /// # Panics
    ///
    /// Panics when `self.cols() != other.cols()`.
    pub fn matmul_transpose_b_with(&self, backend: MatmulBackend, other: &Self) -> Self {
        assert_eq!(
            self.cols,
            other.cols,
            "matmul_transpose_b inner dimension mismatch: {:?} vs {:?}",
            self.shape(),
            other.shape()
        );
        let data = backend.gemm(
            self.rows,
            self.cols,
            other.rows,
            Operand::row_major(&self.data, self.cols),
            Operand::transposed(&other.data, other.cols),
        );
        Self {
            rows: self.rows,
            cols: other.rows,
            data,
        }
    }

    /// Matrix product `self.T * other` without materialising the transpose.
    ///
    /// This is the access pattern of the ViTALiTy global context matrix `G = \hat{K}^T V`.
    ///
    /// # Panics
    ///
    /// Panics when `self.rows() != other.rows()`.
    pub fn transpose_matmul(&self, other: &Self) -> Self {
        self.transpose_matmul_with(matmul_backend(), other)
    }

    /// Matrix product `self.T * other` on an explicit backend.
    ///
    /// # Panics
    ///
    /// Panics when `self.rows() != other.rows()`.
    pub fn transpose_matmul_with(&self, backend: MatmulBackend, other: &Self) -> Self {
        assert_eq!(
            self.rows,
            other.rows,
            "transpose_matmul inner dimension mismatch: {:?} vs {:?}",
            self.shape(),
            other.shape()
        );
        let data = backend.gemm(
            self.cols,
            self.rows,
            other.cols,
            Operand::transposed(&self.data, self.cols),
            Operand::row_major(&other.data, other.cols),
        );
        Self {
            rows: self.cols,
            cols: other.cols,
            data,
        }
    }

    /// Returns the transpose of the matrix.
    pub fn transpose(&self) -> Self {
        let mut out = Self::zeros(self.cols, self.rows);
        for i in 0..self.rows {
            for j in 0..self.cols {
                out.set(j, i, self.get(i, j));
            }
        }
        out
    }

    // ------------------------------------------------------------------
    // Reductions
    // ------------------------------------------------------------------

    /// Sum over every element.
    pub fn sum(&self) -> f32 {
        self.data.iter().sum()
    }

    /// Mean over every element. Returns zero for an empty matrix.
    pub fn mean(&self) -> f32 {
        if self.data.is_empty() {
            0.0
        } else {
            self.sum() / self.data.len() as f32
        }
    }

    /// Row sums as an `n x 1` column vector.
    pub fn row_sum(&self) -> Self {
        let data = (0..self.rows)
            .map(|r| self.row(r).iter().sum())
            .collect::<Vec<f32>>();
        Self {
            rows: self.rows,
            cols: 1,
            data,
        }
    }

    /// Column sums as a `1 x d` row vector.
    ///
    /// This is the paper's `1_n^T K` reduction used by the accumulator array of the
    /// ViTALiTy accelerator.
    pub fn col_sum(&self) -> Self {
        let mut data = vec![0.0; self.cols];
        for r in 0..self.rows {
            for (acc, &v) in data.iter_mut().zip(self.row(r).iter()) {
                *acc += v;
            }
        }
        Self {
            rows: 1,
            cols: self.cols,
            data,
        }
    }

    /// Column means as a `1 x d` row vector (`\bar{K}` in the paper).
    pub fn col_mean(&self) -> Self {
        let mut out = Self::zeros(1, self.cols);
        self.col_mean_into(&mut out);
        out
    }

    /// Column means written into a caller-provided `1 x cols` row vector (the
    /// allocation-free form of [`Matrix::col_mean`], used by mean-pooling hot paths).
    ///
    /// # Panics
    ///
    /// Panics when `out.shape() != (1, cols)`.
    pub fn col_mean_into(&self, out: &mut Self) {
        assert_eq!(
            out.shape(),
            (1, self.cols),
            "col_mean_into output shape mismatch"
        );
        out.data.fill(0.0);
        for r in 0..self.rows {
            for (acc, &v) in out.data.iter_mut().zip(self.row(r).iter()) {
                *acc += v;
            }
        }
        let inv_n = 1.0 / self.rows.max(1) as f32;
        for acc in out.data.iter_mut() {
            *acc *= inv_n;
        }
    }

    /// Largest element; `f32::NEG_INFINITY` for an empty matrix.
    pub fn max(&self) -> f32 {
        self.data.iter().copied().fold(f32::NEG_INFINITY, f32::max)
    }

    /// Smallest element; `f32::INFINITY` for an empty matrix.
    pub fn min(&self) -> f32 {
        self.data.iter().copied().fold(f32::INFINITY, f32::min)
    }

    /// Frobenius norm of the matrix.
    pub fn frobenius_norm(&self) -> f32 {
        self.data.iter().map(|v| v * v).sum::<f32>().sqrt()
    }

    /// Fraction of elements that are exactly zero.
    pub fn sparsity(&self) -> f32 {
        if self.data.is_empty() {
            return 0.0;
        }
        let zeros = self.data.iter().filter(|&&v| v == 0.0).count();
        zeros as f32 / self.data.len() as f32
    }

    /// Number of non-zero elements.
    pub fn nnz(&self) -> usize {
        self.data.iter().filter(|&&v| v != 0.0).count()
    }

    /// Summary statistics (mean, standard deviation, min, max) of all elements.
    pub fn summary(&self) -> Summary {
        Summary::of(&self.data)
    }

    // ------------------------------------------------------------------
    // Broadcasting
    // ------------------------------------------------------------------

    /// Subtracts a `1 x cols` row vector from every row (`K - 1_n \bar{K}`).
    ///
    /// # Panics
    ///
    /// Panics when `row.shape() != (1, self.cols())`.
    pub fn broadcast_sub_row(&self, row: &Self) -> Self {
        assert_eq!(row.rows, 1, "broadcast_sub_row expects a 1 x d row vector");
        assert_eq!(row.cols, self.cols, "broadcast_sub_row width mismatch");
        let mut out = self.clone();
        for r in 0..out.rows {
            for (v, &m) in out.row_mut(r).iter_mut().zip(row.data.iter()) {
                *v -= m;
            }
        }
        out
    }

    /// Adds a `1 x cols` row vector to every row.
    ///
    /// # Panics
    ///
    /// Panics when `row.shape() != (1, self.cols())`.
    pub fn broadcast_add_row(&self, row: &Self) -> Self {
        let mut out = self.clone();
        out.add_row_inplace(row);
        out
    }

    /// Adds a `1 x cols` row vector to every row in place (the allocation-free form of
    /// [`Matrix::broadcast_add_row`], used by hot inference paths such as the `x W + b`
    /// projections).
    ///
    /// # Panics
    ///
    /// Panics when `row.shape() != (1, self.cols())`.
    pub fn add_row_inplace(&mut self, row: &Self) {
        assert_eq!(row.rows, 1, "add_row_inplace expects a 1 x d row vector");
        assert_eq!(row.cols, self.cols, "add_row_inplace width mismatch");
        for chunk in self.data.chunks_exact_mut(self.cols) {
            for (v, &m) in chunk.iter_mut().zip(row.data.iter()) {
                *v += m;
            }
        }
    }

    /// Divides every row by the corresponding entry of an `n x 1` column vector.
    ///
    /// This is the Taylor attention's Step 6: `Z = diag^{-1}(t_D) T_N`.
    ///
    /// # Panics
    ///
    /// Panics when `col.shape() != (self.rows(), 1)`.
    pub fn broadcast_div_col(&self, col: &Self) -> Self {
        assert_eq!(
            col.cols, 1,
            "broadcast_div_col expects an n x 1 column vector"
        );
        assert_eq!(col.rows, self.rows, "broadcast_div_col height mismatch");
        let mut out = self.clone();
        for r in 0..out.rows {
            let d = col.get(r, 0);
            for v in out.row_mut(r) {
                *v /= d;
            }
        }
        out
    }

    // ------------------------------------------------------------------
    // Softmax and masking
    // ------------------------------------------------------------------

    /// Numerically-stable softmax applied independently to each row.
    pub fn softmax_rows(&self) -> Self {
        let mut out = self.clone();
        for r in 0..out.rows {
            let row = out.row_mut(r);
            let max = row.iter().copied().fold(f32::NEG_INFINITY, f32::max);
            let mut sum = 0.0;
            for v in row.iter_mut() {
                *v = (*v - max).exp();
                sum += *v;
            }
            if sum > 0.0 {
                for v in row.iter_mut() {
                    *v /= sum;
                }
            }
        }
        out
    }

    /// Zeroes every element whose corresponding mask entry is zero.
    ///
    /// # Panics
    ///
    /// Panics when shapes differ.
    pub fn apply_mask(&self, mask: &Self) -> Self {
        assert_eq!(self.shape(), mask.shape(), "apply_mask shape mismatch");
        let data = self
            .data
            .iter()
            .zip(mask.data.iter())
            .map(|(&v, &m)| if m != 0.0 { v } else { 0.0 })
            .collect();
        Self {
            rows: self.rows,
            cols: self.cols,
            data,
        }
    }

    // ------------------------------------------------------------------
    // Slicing and stacking
    // ------------------------------------------------------------------

    /// Copies columns `start..end` into a new matrix.
    ///
    /// # Panics
    ///
    /// Panics when `start > end` or `end > cols()`.
    pub fn slice_cols(&self, start: usize, end: usize) -> Self {
        assert!(start <= end && end <= self.cols, "slice_cols out of bounds");
        let mut out = Self::zeros(self.rows, end - start);
        self.slice_cols_into(start, end, &mut out);
        out
    }

    /// Copies columns `start..end` into a caller-provided `rows x (end - start)` matrix
    /// (the allocation-free form of [`Matrix::slice_cols`], used to split per-head
    /// slices out of the fused Q/K/V projections).
    ///
    /// # Panics
    ///
    /// Panics when the range is out of bounds or `out` has the wrong shape.
    pub fn slice_cols_into(&self, start: usize, end: usize, out: &mut Self) {
        assert!(
            start <= end && end <= self.cols,
            "slice_cols_into out of bounds"
        );
        assert_eq!(
            out.shape(),
            (self.rows, end - start),
            "slice_cols_into output shape mismatch"
        );
        for r in 0..self.rows {
            out.row_mut(r).copy_from_slice(&self.row(r)[start..end]);
        }
    }

    /// Writes this matrix into columns `start..start + cols()` of a wider `out` matrix
    /// with the same row count (the inverse of [`Matrix::slice_cols_into`], used to
    /// merge per-head attention outputs).
    ///
    /// # Panics
    ///
    /// Panics when the row counts differ or the column range does not fit.
    pub fn place_cols_into(&self, start: usize, out: &mut Self) {
        assert_eq!(self.rows, out.rows, "place_cols_into row count mismatch");
        assert!(
            start + self.cols <= out.cols,
            "place_cols_into column range out of bounds"
        );
        for r in 0..self.rows {
            out.row_mut(r)[start..start + self.cols].copy_from_slice(self.row(r));
        }
    }

    /// Horizontally concatenates `self` with `other`.
    ///
    /// # Panics
    ///
    /// Panics when the row counts differ.
    pub fn hstack(&self, other: &Self) -> Self {
        assert_eq!(self.rows, other.rows, "hstack row count mismatch");
        let mut out = Self::zeros(self.rows, self.cols + other.cols);
        for r in 0..self.rows {
            out.row_mut(r)[..self.cols].copy_from_slice(self.row(r));
            out.row_mut(r)[self.cols..].copy_from_slice(other.row(r));
        }
        out
    }

    // ------------------------------------------------------------------
    // Comparison helpers
    // ------------------------------------------------------------------

    /// `true` when both matrices have the same shape and every pair of elements agrees
    /// within `tol` (absolutely or relatively, see [`crate::approx_eq`]).
    pub fn approx_eq(&self, other: &Self, tol: f32) -> bool {
        self.shape() == other.shape()
            && self
                .data
                .iter()
                .zip(other.data.iter())
                .all(|(&a, &b)| crate::approx_eq(a, b, tol))
    }

    /// Largest absolute elementwise difference between two equally-shaped matrices.
    ///
    /// # Panics
    ///
    /// Panics when shapes differ.
    pub fn max_abs_diff(&self, other: &Self) -> f32 {
        assert_eq!(self.shape(), other.shape(), "max_abs_diff shape mismatch");
        self.data
            .iter()
            .zip(other.data.iter())
            .map(|(&a, &b)| (a - b).abs())
            .fold(0.0, f32::max)
    }
}

impl Add<&Matrix> for &Matrix {
    type Output = Matrix;

    fn add(self, rhs: &Matrix) -> Matrix {
        self.try_add(rhs).expect("matrix addition shape mismatch")
    }
}

impl Sub<&Matrix> for &Matrix {
    type Output = Matrix;

    fn sub(self, rhs: &Matrix) -> Matrix {
        self.try_sub(rhs)
            .expect("matrix subtraction shape mismatch")
    }
}

impl Mul<f32> for &Matrix {
    type Output = Matrix;

    fn mul(self, rhs: f32) -> Matrix {
        self.scale(rhs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Matrix {
        Matrix::from_rows(&[vec![1.0, 2.0, 3.0], vec![4.0, 5.0, 6.0]]).unwrap()
    }

    #[test]
    fn constructors_and_shape() {
        assert_eq!(Matrix::zeros(2, 3).shape(), (2, 3));
        assert_eq!(Matrix::ones(2, 2).sum(), 4.0);
        assert_eq!(Matrix::identity(3).sum(), 3.0);
        assert_eq!(Matrix::filled(2, 2, 0.5).mean(), 0.5);
    }

    #[test]
    fn from_vec_validates_length() {
        assert!(Matrix::from_vec(2, 2, vec![1.0; 4]).is_ok());
        assert!(Matrix::from_vec(2, 2, vec![1.0; 3]).is_err());
    }

    #[test]
    fn from_rows_rejects_ragged_input() {
        assert!(Matrix::from_rows(&[vec![1.0], vec![1.0, 2.0]]).is_err());
        assert!(Matrix::from_rows(&[]).is_err());
    }

    #[test]
    fn matmul_matches_manual_result() {
        let a = sample();
        let b = Matrix::from_rows(&[vec![7.0, 8.0], vec![9.0, 10.0], vec![11.0, 12.0]]).unwrap();
        let c = a.matmul(&b);
        let expected = Matrix::from_rows(&[vec![58.0, 64.0], vec![139.0, 154.0]]).unwrap();
        assert!(c.approx_eq(&expected, 1e-6));
    }

    #[test]
    fn matmul_rejects_bad_shapes() {
        let a = sample();
        assert!(a.try_matmul(&sample()).is_err());
    }

    #[test]
    fn matmul_transpose_b_equals_explicit_transpose() {
        let a = sample();
        let b = Matrix::from_rows(&[vec![1.0, 0.5, -1.0], vec![2.0, -2.0, 0.0]]).unwrap();
        let fused = a.matmul_transpose_b(&b);
        let explicit = a.matmul(&b.transpose());
        assert!(fused.approx_eq(&explicit, 1e-6));
    }

    #[test]
    fn transpose_matmul_equals_explicit_transpose() {
        let a = sample();
        let b = Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]).unwrap();
        let fused = a.transpose_matmul(&b);
        let explicit = a.transpose().matmul(&b);
        assert!(fused.approx_eq(&explicit, 1e-6));
    }

    #[test]
    fn transpose_round_trips() {
        let a = sample();
        assert!(a.transpose().transpose().approx_eq(&a, 0.0));
    }

    #[test]
    fn reductions() {
        let a = sample();
        assert_eq!(a.sum(), 21.0);
        assert_eq!(a.mean(), 3.5);
        let row_sum = a.row_sum();
        assert_eq!(row_sum.shape(), (2, 1));
        assert_eq!(row_sum.as_slice(), &[6.0, 15.0]);
        let col_sum = a.col_sum();
        assert_eq!(col_sum.shape(), (1, 3));
        assert_eq!(col_sum.as_slice(), &[5.0, 7.0, 9.0]);
        assert_eq!(a.col_mean().as_slice(), &[2.5, 3.5, 4.5]);
        assert_eq!(a.max(), 6.0);
        assert_eq!(a.min(), 1.0);
    }

    #[test]
    fn broadcast_sub_row_centres_columns() {
        let a = sample();
        let centred = a.broadcast_sub_row(&a.col_mean());
        assert!(centred.col_mean().iter().all(|v| v.abs() < 1e-6));
    }

    #[test]
    fn broadcast_div_col_matches_diagonal_inverse() {
        let a = sample();
        let d = Matrix::from_vec(2, 1, vec![2.0, 4.0]).unwrap();
        let by_broadcast = a.broadcast_div_col(&d);
        let diag_inv = Matrix::from_rows(&[vec![0.5, 0.0], vec![0.0, 0.25]]).unwrap();
        let by_matmul = diag_inv.matmul(&a);
        assert!(by_broadcast.approx_eq(&by_matmul, 1e-6));
    }

    #[test]
    fn softmax_rows_sum_to_one() {
        let a = Matrix::from_rows(&[vec![0.1, -0.4, 0.3], vec![2.0, 2.0, 2.0]]).unwrap();
        let s = a.softmax_rows();
        for r in 0..s.rows() {
            let sum: f32 = s.row(r).iter().sum();
            assert!((sum - 1.0).abs() < 1e-5);
        }
    }

    #[test]
    fn softmax_invariant_to_constant_row_shift() {
        // Property 1 in the paper: softmax(x - c) == softmax(x).
        let a = Matrix::from_rows(&[vec![0.4, -0.2, 1.3, 0.0]]).unwrap();
        let shifted = a.add_scalar(-3.7);
        assert!(a.softmax_rows().approx_eq(&shifted.softmax_rows(), 1e-5));
    }

    #[test]
    fn masking_and_sparsity() {
        let a = sample();
        let mask = Matrix::from_rows(&[vec![1.0, 0.0, 1.0], vec![0.0, 0.0, 1.0]]).unwrap();
        let masked = a.apply_mask(&mask);
        assert_eq!(masked.nnz(), 3);
        assert!((masked.sparsity() - 0.5).abs() < 1e-6);
        assert_eq!(masked.get(0, 1), 0.0);
        assert_eq!(masked.get(1, 2), 6.0);
    }

    #[test]
    fn slicing_and_stacking() {
        let a = sample();
        assert_eq!(a.slice_cols(0, 2).shape(), (2, 2));
        assert_eq!(a.hstack(&a).shape(), (2, 6));
        assert_eq!(a.hstack(&a).get(0, 4), 2.0);
    }

    #[test]
    fn operator_overloads() {
        let a = sample();
        let sum = &a + &a;
        assert!(sum.approx_eq(&a.scale(2.0), 1e-6));
        let diff = &sum - &a;
        assert!(diff.approx_eq(&a, 1e-6));
        let scaled = &a * 3.0;
        assert!(scaled.approx_eq(&a.scale(3.0), 1e-6));
    }

    #[test]
    fn matmul_into_matches_matmul() {
        let a = sample();
        let b = Matrix::from_rows(&[vec![7.0, 8.0], vec![9.0, 10.0], vec![11.0, 12.0]]).unwrap();
        let mut out = Matrix::filled(2, 2, f32::NAN); // stale contents must be overwritten
        a.matmul_into(&b, &mut out);
        assert!(out.approx_eq(&a.matmul(&b), 0.0));
    }

    #[test]
    fn inplace_add_copy_and_column_placement() {
        let a = sample();
        let mut acc = a.clone();
        acc.add_assign(&a);
        assert!(acc.approx_eq(&a.scale(2.0), 1e-6));
        acc.copy_from(&a);
        assert!(acc.approx_eq(&a, 0.0));

        let mut head = Matrix::zeros(2, 2);
        a.slice_cols_into(1, 3, &mut head);
        assert!(head.approx_eq(&a.slice_cols(1, 3), 0.0));
        let mut merged = Matrix::zeros(2, 4);
        head.place_cols_into(2, &mut merged);
        assert_eq!(merged.get(0, 2), a.get(0, 1));
        assert_eq!(merged.get(1, 3), a.get(1, 2));
        assert_eq!(merged.get(0, 0), 0.0);
    }

    #[test]
    fn max_abs_diff_and_norm() {
        let a = sample();
        let b = a.add_scalar(0.5);
        assert!((a.max_abs_diff(&b) - 0.5).abs() < 1e-6);
        assert!((Matrix::identity(2).frobenius_norm() - 2.0_f32.sqrt()).abs() < 1e-6);
    }
}
