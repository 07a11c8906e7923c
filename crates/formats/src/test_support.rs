//! Matrices for the trace property tests: ragged shapes with empty rows
//! and all-zero blocks.

use tbstc_matrix::rng::MatrixRng;
use tbstc_matrix::Matrix;

/// Zeroes every `stride`-th row of `w` (starting at `first`) and the
/// `m × m` block at block coordinates `(br, bc)` (clipped to the matrix),
/// so the counts the traces read include empty rows and an all-zero block.
pub(crate) fn hollow(w: &mut Matrix, first: usize, stride: usize, m: usize, br: usize, bc: usize) {
    let (rows, cols) = w.shape();
    for r in (first..rows).step_by(stride.max(1)) {
        for c in 0..cols {
            w[(r, c)] = 0.0;
        }
    }
    for r in (br * m)..((br + 1) * m).min(rows) {
        for c in (bc * m)..((bc + 1) * m).min(cols) {
            w[(r, c)] = 0.0;
        }
    }
}

/// An unstructured sparse `rows × cols` matrix, hollowed by [`hollow`].
pub(crate) fn ragged(seed: u64, rows: usize, cols: usize, sparsity: f64, m: usize) -> Matrix {
    let mut w = MatrixRng::seed_from(seed).sparse_gaussian(rows, cols, sparsity, 1.0);
    let (first, stride) = (seed as usize % 5, 2 + seed as usize % 4);
    hollow(
        &mut w,
        first,
        stride,
        m,
        seed as usize % 3,
        seed as usize % 2,
    );
    w
}

/// Non-zeros of row `r` of `w` in the column range `[c0, c1)`, clipped.
pub(crate) fn segment_nnz(w: &Matrix, r: usize, c0: usize, c1: usize) -> usize {
    w.row(r)[c0.min(w.cols())..c1.min(w.cols())]
        .iter()
        .filter(|&&v| v != 0.0)
        .count()
}
