//! Single-dimensional compression (SDC) — paper Fig. 7(a).
//!
//! SDC compresses every row to the length of the *longest* row, padding
//! shorter rows with invalid (zero) elements so that all rows have the same
//! stride and memory access stays perfectly regular. On one-dimensional
//! N:M patterns with a fixed N this is free; on TBS, where per-row
//! populations vary widely, the padding becomes redundant traffic (the
//! paper measures >61.5 % redundancy).

use tbstc_matrix::Matrix;

use crate::access::{AccessTrace, MemRequest};
use crate::{INDEX_BYTES, VALUE_BYTES};

/// A matrix stored in single-dimensional (max-row-aligned) compression.
///
/// # Examples
///
/// ```
/// use tbstc_matrix::Matrix;
/// use tbstc_formats::Sdc;
///
/// let w = Matrix::from_rows(&[vec![1.0, 0.0, 2.0], vec![0.0, 3.0, 0.0]]).unwrap();
/// let sdc = Sdc::encode(&w);
/// assert_eq!(sdc.decode(), w);
/// assert_eq!(sdc.row_stride(), 2); // longest row has 2 non-zeros
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Sdc {
    rows: usize,
    cols: usize,
    /// Padded non-zeros per row (max over rows).
    stride: usize,
    /// `rows × stride` values, zero-padded.
    values: Vec<f32>,
    /// `rows × stride` column indices (padding slots repeat the last valid
    /// index, matching hardware that replays a harmless lane).
    indices: Vec<u16>,
    /// Actual non-zero count (for redundancy accounting).
    nnz: usize,
}

impl Sdc {
    /// Encodes a (sparse) matrix.
    pub fn encode(w: &Matrix) -> Self {
        let (rows, cols) = w.shape();
        let per_row: Vec<Vec<(usize, f32)>> = (0..rows)
            .map(|r| {
                (0..cols)
                    .filter_map(|c| {
                        let v = w[(r, c)];
                        (v != 0.0).then_some((c, v))
                    })
                    .collect()
            })
            .collect();
        let stride = per_row.iter().map(Vec::len).max().unwrap_or(0);
        let nnz = per_row.iter().map(Vec::len).sum();
        let mut values = Vec::with_capacity(rows * stride);
        let mut indices = Vec::with_capacity(rows * stride);
        for row in &per_row {
            for &(c, v) in row {
                values.push(v);
                indices.push(c as u16);
            }
            let pad_idx = row.last().map_or(0, |&(c, _)| c as u16);
            for _ in row.len()..stride {
                values.push(0.0);
                indices.push(pad_idx);
            }
        }
        Sdc {
            rows,
            cols,
            stride,
            values,
            indices,
            nnz,
        }
    }

    /// Reconstructs the dense matrix.
    pub fn decode(&self) -> Matrix {
        let mut out = Matrix::zeros(self.rows, self.cols);
        for r in 0..self.rows {
            for s in 0..self.stride {
                let v = self.values[r * self.stride + s];
                if v != 0.0 {
                    let c = self.indices[r * self.stride + s] as usize;
                    out[(r, c)] = v;
                }
            }
        }
        out
    }

    /// The padded per-row element count.
    pub fn row_stride(&self) -> usize {
        self.stride
    }

    /// Stored non-padding non-zeros.
    pub fn nnz(&self) -> usize {
        self.nnz
    }

    /// Total stored bytes: padded values + padded indices.
    pub fn stored_bytes(&self) -> u64 {
        (self.rows * self.stride) as u64 * (VALUE_BYTES + INDEX_BYTES)
    }

    /// Bytes that are pure padding (the redundant traffic of Fig. 7(a)).
    pub fn padding_bytes(&self) -> u64 {
        ((self.rows * self.stride) as u64 - self.nnz as u64) * (VALUE_BYTES + INDEX_BYTES)
    }

    /// Fraction of stored bytes that are padding.
    pub fn redundancy(&self) -> f64 {
        let total = self.stored_bytes();
        if total == 0 {
            0.0
        } else {
            self.padding_bytes() as f64 / total as f64
        }
    }

    /// The consumption access trace: [`access_trace`] over this matrix's
    /// rows and stride.
    pub fn access_trace(&self) -> AccessTrace {
        access_trace(self.rows, self.stride)
    }
}

/// The SDC consumption access trace of a `rows`-row matrix whose longest
/// row holds `stride` non-zeros: one request per row, perfectly
/// sequential (rows are stored back to back at that fixed stride).
///
/// # Examples
///
/// ```
/// use tbstc_formats::sdc;
///
/// let t = sdc::access_trace(4, 3);
/// assert_eq!(t.len(), 4);
/// assert_eq!(t.total_bytes(), 4 * 3 * 3); // value + index per slot
/// assert_eq!(t.contiguity(), 1.0);
/// ```
pub fn access_trace(rows: usize, stride: usize) -> AccessTrace {
    let row_bytes = stride as u64 * (VALUE_BYTES + INDEX_BYTES);
    (0..rows as u64)
        .map(|r| MemRequest {
            addr: r * row_bytes,
            bytes: row_bytes,
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use tbstc_matrix::rng::MatrixRng;

    #[test]
    fn round_trip_dense() {
        let w = MatrixRng::seed_from(1).uniform(5, 7, 0.5, 1.0);
        assert_eq!(Sdc::encode(&w).decode(), w);
    }

    #[test]
    fn round_trip_sparse() {
        let w = MatrixRng::seed_from(2).sparse_gaussian(16, 16, 0.7, 1.0);
        assert_eq!(Sdc::encode(&w).decode(), w);
    }

    #[test]
    fn round_trip_empty_matrix() {
        let w = Matrix::zeros(4, 4);
        let sdc = Sdc::encode(&w);
        assert_eq!(sdc.decode(), w);
        assert_eq!(sdc.row_stride(), 0);
        assert_eq!(sdc.stored_bytes(), 0);
    }

    #[test]
    fn stride_is_max_row_population() {
        let w = Matrix::from_rows(&[vec![1.0, 2.0, 3.0, 4.0], vec![5.0, 0.0, 0.0, 0.0]]).unwrap();
        let sdc = Sdc::encode(&w);
        assert_eq!(sdc.row_stride(), 4);
        assert_eq!(sdc.nnz(), 5);
        // 3 padded slots out of 8.
        assert!((sdc.redundancy() - 3.0 / 8.0).abs() < 1e-12);
    }

    #[test]
    fn uniform_rows_have_no_redundancy() {
        // One-dimensional N:M with fixed N pads nothing — SDC's home turf.
        let w = Matrix::from_fn(8, 8, |_, c| if c < 4 { 1.0 } else { 0.0 });
        assert_eq!(Sdc::encode(&w).redundancy(), 0.0);
    }

    #[test]
    fn imbalanced_rows_are_redundant() {
        // TBS-like imbalance: one dense row forces heavy padding.
        let w = Matrix::from_fn(8, 8, |r, _| if r == 0 { 1.0 } else { 0.0 });
        let mut w = w;
        w[(1, 0)] = 1.0;
        let sdc = Sdc::encode(&w);
        assert!(sdc.redundancy() > 0.6, "{}", sdc.redundancy());
    }

    #[test]
    fn trace_is_fully_contiguous() {
        let w = MatrixRng::seed_from(3).sparse_gaussian(32, 32, 0.5, 1.0);
        let trace = Sdc::encode(&w).access_trace();
        assert_eq!(trace.contiguity(), 1.0);
    }

    #[test]
    fn trace_bytes_match_storage() {
        let w = MatrixRng::seed_from(4).sparse_gaussian(16, 64, 0.8, 1.0);
        let sdc = Sdc::encode(&w);
        assert_eq!(sdc.access_trace().total_bytes(), sdc.stored_bytes());
    }

    /// The trace walk over the encoded rows: one request per stored row of
    /// `values`, at its offset in the padded array.
    fn access_trace_oracle(sdc: &Sdc) -> AccessTrace {
        let slot = VALUE_BYTES + INDEX_BYTES;
        (0..sdc.rows)
            .map(|r| MemRequest {
                addr: (r * sdc.stride) as u64 * slot,
                bytes: sdc.values[r * sdc.stride..(r + 1) * sdc.stride].len() as u64 * slot,
            })
            .collect()
    }

    #[test]
    fn count_trace_of_all_zero_matrix_is_empty_rows() {
        let w = Matrix::zeros(3, 5);
        assert_eq!(access_trace(3, 0), access_trace_oracle(&Sdc::encode(&w)));
    }

    proptest! {
        #[test]
        fn round_trip_any_sparsity(seed in 0u64..200, sp in 0u32..=100) {
            let w = MatrixRng::seed_from(seed)
                .sparse_gaussian(12, 12, f64::from(sp) / 100.0, 1.0);
            prop_assert_eq!(Sdc::encode(&w).decode(), w);
        }

        #[test]
        fn count_trace_equals_encoded_walk(
            seed in 0u64..1000, rows in 1usize..70, cols in 1usize..70, sp in 0u32..=100
        ) {
            let w = crate::test_support::ragged(seed, rows, cols, f64::from(sp) / 100.0, 8);
            let stride = (0..rows)
                .map(|r| crate::test_support::segment_nnz(&w, r, 0, cols))
                .max()
                .unwrap_or(0);
            let sdc = Sdc::encode(&w);
            prop_assert_eq!(access_trace(rows, stride), access_trace_oracle(&sdc));
            prop_assert_eq!(sdc.access_trace(), access_trace_oracle(&sdc));
        }
    }
}
