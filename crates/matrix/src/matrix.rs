//! Row-major dense matrix used throughout the reproduction.

use std::fmt;
use std::ops::{Index, IndexMut};

use crate::error::{DimError, Result};

/// A row-major dense `f32` matrix.
///
/// `Matrix` is the common currency between the sparsity algorithms, the
/// training substrate and the hardware simulator. It deliberately stays
/// small: the interesting numerics live in [`crate::gemm`] and the sparsity
/// logic lives in `tbstc-sparsity`.
///
/// # Examples
///
/// ```
/// use tbstc_matrix::Matrix;
///
/// let m = Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]).unwrap();
/// assert_eq!(m[(1, 0)], 3.0);
/// assert_eq!(m.transpose()[(0, 1)], 3.0);
/// ```
#[derive(Clone, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f32>,
}

impl Matrix {
    /// Creates a `rows × cols` matrix filled with zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Matrix {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Creates a `rows × cols` matrix filled with `value`.
    pub fn filled(rows: usize, cols: usize, value: f32) -> Self {
        Matrix {
            rows,
            cols,
            data: vec![value; rows * cols],
        }
    }

    /// Creates the `n × n` identity matrix.
    pub fn identity(n: usize) -> Self {
        let mut m = Matrix::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = 1.0;
        }
        m
    }

    /// Creates a matrix by evaluating `f(row, col)` for every element.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> f32) -> Self {
        let mut data = Vec::with_capacity(rows * cols);
        for r in 0..rows {
            for c in 0..cols {
                data.push(f(r, c));
            }
        }
        Matrix { rows, cols, data }
    }

    /// Creates a matrix from row slices.
    ///
    /// # Errors
    ///
    /// Returns [`DimError`] if the rows do not all have the same length.
    pub fn from_rows(rows: &[Vec<f32>]) -> Result<Self> {
        let ncols = rows.first().map_or(0, Vec::len);
        for r in rows {
            if r.len() != ncols {
                return Err(DimError {
                    op: "from_rows",
                    lhs: (rows.len(), ncols),
                    rhs: (1, r.len()),
                });
            }
        }
        Ok(Matrix {
            rows: rows.len(),
            cols: ncols,
            data: rows.concat(),
        })
    }

    /// Creates a matrix that owns `data` laid out row-major.
    ///
    /// # Errors
    ///
    /// Returns [`DimError`] if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f32>) -> Result<Self> {
        if data.len() != rows * cols {
            return Err(DimError {
                op: "from_vec",
                lhs: (rows, cols),
                rhs: (1, data.len()),
            });
        }
        Ok(Matrix { rows, cols, data })
    }

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

    /// Returns `true` if the matrix has no elements.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Borrows the underlying row-major storage.
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// Mutably borrows the underlying row-major storage.
    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Borrows row `r` as a slice.
    ///
    /// # Panics
    ///
    /// Panics if `r >= self.rows()`.
    pub fn row(&self, r: usize) -> &[f32] {
        assert!(r < self.rows, "row {r} out of bounds ({} rows)", self.rows);
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Mutably borrows row `r` as a slice.
    ///
    /// # Panics
    ///
    /// Panics if `r >= self.rows()`.
    pub fn row_mut(&mut self, r: usize) -> &mut [f32] {
        assert!(r < self.rows, "row {r} out of bounds ({} rows)", self.rows);
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Returns element `(r, c)` or `None` when out of bounds.
    pub fn get(&self, r: usize, c: usize) -> Option<f32> {
        if r < self.rows && c < self.cols {
            Some(self.data[r * self.cols + c])
        } else {
            None
        }
    }

    /// Returns the transposed matrix.
    ///
    /// Walks `self` in cache-friendly square tiles so both the source rows
    /// and the destination rows stay resident while a tile is copied; the
    /// strided writes are confined to one tile-sized working set instead of
    /// sweeping the whole destination per source row.
    pub fn transpose(&self) -> Matrix {
        let mut out = Matrix::zeros(0, 0);
        self.transpose_into(&mut out);
        out
    }

    /// [`Matrix::transpose`] into a caller-owned buffer, reusing its
    /// allocation when the capacity suffices (the zero-realloc variant for
    /// workspaces refreshed every call).
    pub fn transpose_into(&self, out: &mut Matrix) {
        const TILE: usize = 32;
        out.reset(self.cols, self.rows);
        for r0 in (0..self.rows).step_by(TILE) {
            let rend = (r0 + TILE).min(self.rows);
            for c0 in (0..self.cols).step_by(TILE) {
                let cend = (c0 + TILE).min(self.cols);
                for r in r0..rend {
                    let src = &self.data[r * self.cols + c0..r * self.cols + cend];
                    for (c, &v) in (c0..cend).zip(src) {
                        out.data[c * self.rows + r] = v;
                    }
                }
            }
        }
    }

    /// Reshapes `self` to `rows × cols` filled with zeros, reusing the
    /// existing allocation when its capacity suffices.
    ///
    /// This is the zero-realloc counterpart of [`Matrix::zeros`] for
    /// workspace buffers that are resized every call with (eventually)
    /// stable dimensions.
    pub fn reset(&mut self, rows: usize, cols: usize) {
        self.rows = rows;
        self.cols = cols;
        self.data.clear();
        self.data.resize(rows * cols, 0.0);
    }

    /// Makes `self` an element-wise copy of `src`, reusing the existing
    /// allocation when its capacity suffices.
    pub fn copy_from(&mut self, src: &Matrix) {
        self.rows = src.rows;
        self.cols = src.cols;
        self.data.clear();
        self.data.extend_from_slice(&src.data);
    }

    /// Copies the sub-matrix starting at `(row0, col0)` of size
    /// `height × width`, zero-padding parts that fall outside `self`.
    ///
    /// Zero-padding (rather than erroring) matches how the hardware tiles a
    /// matrix whose dimensions are not multiples of the block size. For
    /// hot loops that only *read* a block, prefer [`Matrix::block_view`],
    /// which borrows instead of allocating.
    pub fn block(&self, row0: usize, col0: usize, height: usize, width: usize) -> Matrix {
        Matrix::from_fn(height, width, |r, c| {
            self.get(row0 + r, col0 + c).unwrap_or(0.0)
        })
    }

    /// Borrows the sub-matrix starting at `(row0, col0)` of size
    /// `height × width` without copying; reads outside `self` yield `0.0`,
    /// exactly like the padding in [`Matrix::block`].
    pub fn block_view(
        &self,
        row0: usize,
        col0: usize,
        height: usize,
        width: usize,
    ) -> BlockView<'_> {
        BlockView {
            source: self,
            row0,
            col0,
            height,
            width,
        }
    }

    /// Writes `block` into `self` at `(row0, col0)`, ignoring parts that
    /// fall outside `self` (the inverse of the padding in [`Matrix::block`]).
    pub fn set_block(&mut self, row0: usize, col0: usize, block: &Matrix) {
        for r in 0..block.rows {
            for c in 0..block.cols {
                if row0 + r < self.rows && col0 + c < self.cols {
                    self[(row0 + r, col0 + c)] = block[(r, c)];
                }
            }
        }
    }

    /// Counts elements that are exactly zero.
    pub fn count_zeros(&self) -> usize {
        self.data.iter().filter(|&&x| x == 0.0).count()
    }

    /// Counts non-zero elements.
    pub fn count_nonzeros(&self) -> usize {
        self.len() - self.count_zeros()
    }

    /// Fraction of elements that are zero (the paper's *sparsity degree*).
    ///
    /// Returns `0.0` for an empty matrix.
    pub fn sparsity(&self) -> f64 {
        if self.is_empty() {
            0.0
        } else {
            self.count_zeros() as f64 / self.len() as f64
        }
    }

    /// Sum of `|x|` over all elements (the `L1` mass used by Algorithm 1).
    pub fn l1_norm(&self) -> f64 {
        self.data.iter().map(|&x| f64::from(x.abs())).sum()
    }

    /// Frobenius norm.
    pub fn frobenius_norm(&self) -> f64 {
        self.data
            .iter()
            .map(|&x| f64::from(x) * f64::from(x))
            .sum::<f64>()
            .sqrt()
    }

    /// Element-wise maximum absolute difference to `other`.
    ///
    /// # Errors
    ///
    /// Returns [`DimError`] if the shapes differ.
    pub fn max_abs_diff(&self, other: &Matrix) -> Result<f32> {
        if self.shape() != other.shape() {
            return Err(DimError {
                op: "max_abs_diff",
                lhs: self.shape(),
                rhs: other.shape(),
            });
        }
        Ok(self
            .data
            .iter()
            .zip(&other.data)
            .map(|(a, b)| (a - b).abs())
            .fold(0.0, f32::max))
    }

    /// Applies `f` to every element in place.
    pub fn map_inplace(&mut self, mut f: impl FnMut(f32) -> f32) {
        for x in &mut self.data {
            *x = f(*x);
        }
    }

    /// Returns a new matrix with `f` applied to every element.
    pub fn map(&self, f: impl FnMut(f32) -> f32) -> Matrix {
        let mut out = self.clone();
        out.map_inplace(f);
        out
    }

    /// Element-wise product (Hadamard), used to apply binary masks.
    ///
    /// # Errors
    ///
    /// Returns [`DimError`] if the shapes differ.
    pub fn hadamard(&self, other: &Matrix) -> Result<Matrix> {
        if self.shape() != other.shape() {
            return Err(DimError {
                op: "hadamard",
                lhs: self.shape(),
                rhs: other.shape(),
            });
        }
        let data = self
            .data
            .iter()
            .zip(&other.data)
            .map(|(a, b)| a * b)
            .collect();
        Ok(Matrix {
            rows: self.rows,
            cols: self.cols,
            data,
        })
    }
}

/// A borrowed, zero-padded window into a [`Matrix`].
///
/// Created by [`Matrix::block_view`]. Reads at coordinates whose source
/// position falls outside the underlying matrix return `0.0`, mirroring
/// the padding semantics of [`Matrix::block`] — but without allocating a
/// sub-matrix, which is what makes per-block loops (the TBS sparsifier
/// visits every `M × M` block of every layer) allocation-free.
#[derive(Debug, Clone, Copy)]
pub struct BlockView<'a> {
    source: &'a Matrix,
    row0: usize,
    col0: usize,
    height: usize,
    width: usize,
}

impl BlockView<'_> {
    /// Number of rows in the window (including padding).
    pub fn rows(&self) -> usize {
        self.height
    }

    /// Number of columns in the window (including padding).
    pub fn cols(&self) -> usize {
        self.width
    }

    /// Element `(r, c)` of the window; `0.0` where the window hangs off
    /// the underlying matrix.
    ///
    /// # Panics
    ///
    /// Panics when `(r, c)` is outside the window itself.
    pub fn get(&self, r: usize, c: usize) -> f32 {
        assert!(
            r < self.height && c < self.width,
            "view index ({r}, {c}) out of bounds for {}x{} view",
            self.height,
            self.width
        );
        self.source.get(self.row0 + r, self.col0 + c).unwrap_or(0.0)
    }

    /// Sum of `|x|` over the window (the `L1` mass used by Algorithm 1).
    ///
    /// Padding contributes zero, so this equals
    /// `self.to_matrix().l1_norm()` without the copy.
    pub fn l1_norm(&self) -> f64 {
        let rmax = (self.row0 + self.height).min(self.source.rows);
        let cmax = (self.col0 + self.width).min(self.source.cols);
        let mut sum = 0.0f64;
        for r in self.row0..rmax {
            let row = &self.source.row(r)[self.col0..cmax];
            sum += row.iter().map(|&x| f64::from(x.abs())).sum::<f64>();
        }
        sum
    }

    /// Materializes the window as an owned [`Matrix`] (equivalent to
    /// [`Matrix::block`]).
    pub fn to_matrix(&self) -> Matrix {
        self.source
            .block(self.row0, self.col0, self.height, self.width)
    }
}

impl Index<(usize, usize)> for Matrix {
    type Output = f32;

    fn index(&self, (r, c): (usize, usize)) -> &f32 {
        assert!(
            r < self.rows && c < self.cols,
            "index ({r}, {c}) out of bounds for {}x{} matrix",
            self.rows,
            self.cols
        );
        &self.data[r * self.cols + c]
    }
}

impl IndexMut<(usize, usize)> for Matrix {
    fn index_mut(&mut self, (r, c): (usize, usize)) -> &mut f32 {
        assert!(
            r < self.rows && c < self.cols,
            "index ({r}, {c}) out of bounds for {}x{} matrix",
            self.rows,
            self.cols
        );
        &mut self.data[r * self.cols + c]
    }
}

impl fmt::Debug for Matrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Matrix {}x{} [", self.rows, self.cols)?;
        let show_rows = self.rows.min(8);
        for r in 0..show_rows {
            let row: Vec<String> = self.row(r)[..self.cols.min(8)]
                .iter()
                .map(|x| format!("{x:8.3}"))
                .collect();
            let ellipsis = if self.cols > 8 { " ..." } else { "" };
            writeln!(f, "  [{}{}]", row.join(", "), ellipsis)?;
        }
        if self.rows > 8 {
            writeln!(f, "  ...")?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_and_shape() {
        let m = Matrix::zeros(3, 4);
        assert_eq!(m.shape(), (3, 4));
        assert_eq!(m.len(), 12);
        assert_eq!(m.count_zeros(), 12);
        assert_eq!(m.sparsity(), 1.0);
    }

    #[test]
    fn identity_multiown_diag() {
        let m = Matrix::identity(4);
        for r in 0..4 {
            for c in 0..4 {
                assert_eq!(m[(r, c)], if r == c { 1.0 } else { 0.0 });
            }
        }
    }

    #[test]
    fn from_rows_rejects_ragged() {
        let err = Matrix::from_rows(&[vec![1.0], vec![1.0, 2.0]]).unwrap_err();
        assert_eq!(err.op, "from_rows");
    }

    #[test]
    fn from_vec_checks_length() {
        assert!(Matrix::from_vec(2, 2, vec![0.0; 3]).is_err());
        assert!(Matrix::from_vec(2, 2, vec![0.0; 4]).is_ok());
    }

    #[test]
    fn transpose_involution() {
        let m = Matrix::from_fn(3, 5, |r, c| (r * 5 + c) as f32);
        assert_eq!(m.transpose().transpose(), m);
        assert_eq!(m.transpose()[(4, 2)], m[(2, 4)]);
    }

    #[test]
    fn block_pads_with_zero() {
        let m = Matrix::from_fn(3, 3, |r, c| (r * 3 + c + 1) as f32);
        let b = m.block(2, 2, 2, 2);
        assert_eq!(b[(0, 0)], 9.0);
        assert_eq!(b[(0, 1)], 0.0);
        assert_eq!(b[(1, 0)], 0.0);
        assert_eq!(b[(1, 1)], 0.0);
    }

    #[test]
    fn set_block_roundtrip() {
        let m = Matrix::from_fn(6, 6, |r, c| (r * 6 + c) as f32);
        let mut out = Matrix::zeros(6, 6);
        for r0 in (0..6).step_by(2) {
            for c0 in (0..6).step_by(2) {
                out.set_block(r0, c0, &m.block(r0, c0, 2, 2));
            }
        }
        assert_eq!(out, m);
    }

    #[test]
    fn set_block_ignores_out_of_bounds() {
        let mut m = Matrix::zeros(2, 2);
        m.set_block(1, 1, &Matrix::filled(2, 2, 7.0));
        assert_eq!(m[(1, 1)], 7.0);
        assert_eq!(m[(0, 0)], 0.0);
    }

    #[test]
    fn sparsity_counts() {
        let m = Matrix::from_rows(&[vec![0.0, 1.0], vec![2.0, 0.0]]).unwrap();
        assert_eq!(m.count_zeros(), 2);
        assert_eq!(m.count_nonzeros(), 2);
        assert_eq!(m.sparsity(), 0.5);
    }

    #[test]
    fn norms() {
        let m = Matrix::from_rows(&[vec![3.0, -4.0]]).unwrap();
        assert_eq!(m.l1_norm(), 7.0);
        assert!((m.frobenius_norm() - 5.0).abs() < 1e-12);
    }

    #[test]
    fn hadamard_applies_mask() {
        let m = Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]).unwrap();
        let mask = Matrix::from_rows(&[vec![1.0, 0.0], vec![0.0, 1.0]]).unwrap();
        let out = m.hadamard(&mask).unwrap();
        assert_eq!(out[(0, 1)], 0.0);
        assert_eq!(out[(1, 1)], 4.0);
    }

    #[test]
    fn hadamard_rejects_mismatch() {
        let a = Matrix::zeros(2, 2);
        let b = Matrix::zeros(2, 3);
        assert!(a.hadamard(&b).is_err());
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn index_out_of_bounds_panics() {
        let m = Matrix::zeros(2, 2);
        let _ = m[(2, 0)];
    }

    #[test]
    fn debug_is_nonempty() {
        let dbg = format!("{:?}", Matrix::zeros(1, 1));
        assert!(dbg.contains("Matrix 1x1"));
    }

    #[test]
    fn transpose_matches_naive_on_odd_shapes() {
        // Exercise the tiled path with dimensions straddling tile edges.
        for (rows, cols) in [(1, 1), (7, 3), (33, 65), (64, 64), (100, 37)] {
            let m = Matrix::from_fn(rows, cols, |r, c| (r * cols + c) as f32);
            let t = m.transpose();
            assert_eq!(t.shape(), (cols, rows));
            for r in 0..rows {
                for c in 0..cols {
                    assert_eq!(t[(c, r)], m[(r, c)], "({rows}x{cols}) at ({r},{c})");
                }
            }
        }
    }

    #[test]
    fn block_view_matches_block() {
        let m = Matrix::from_fn(5, 7, |r, c| (r * 7 + c) as f32 - 10.0);
        let v = m.block_view(3, 5, 4, 4);
        let b = m.block(3, 5, 4, 4);
        assert_eq!(v.rows(), 4);
        assert_eq!(v.cols(), 4);
        for r in 0..4 {
            for c in 0..4 {
                assert_eq!(v.get(r, c), b[(r, c)]);
            }
        }
        assert_eq!(v.to_matrix(), b);
        assert!((v.l1_norm() - b.l1_norm()).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn block_view_checks_window_bounds() {
        let m = Matrix::zeros(4, 4);
        let _ = m.block_view(0, 0, 2, 2).get(2, 0);
    }

    #[test]
    fn reset_reuses_allocation() {
        let mut m = Matrix::filled(8, 8, 3.0);
        let cap = m.data.capacity();
        m.reset(4, 4);
        assert_eq!(m.shape(), (4, 4));
        assert!(m.as_slice().iter().all(|&x| x == 0.0));
        assert_eq!(m.data.capacity(), cap, "shrinking reset must not realloc");
    }

    #[test]
    fn copy_from_matches_clone() {
        let src = Matrix::from_fn(3, 4, |r, c| (r + c) as f32);
        let mut dst = Matrix::filled(9, 9, 1.0);
        dst.copy_from(&src);
        assert_eq!(dst, src);
    }

    #[test]
    fn max_abs_diff_detects_difference() {
        let a = Matrix::filled(2, 2, 1.0);
        let mut b = a.clone();
        b[(1, 1)] = 1.5;
        assert_eq!(a.max_abs_diff(&b).unwrap(), 0.5);
    }
}
