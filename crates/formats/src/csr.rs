//! Compressed sparse row (CSR) — paper Fig. 7(b).
//!
//! CSR stores only the non-zero values with row pointers and column
//! indices: minimal redundancy. The cost appears at *consumption* time: a
//! block-oriented PE array works on `M`-row × `M`-column blocks, but a
//! block's elements live in `M` separate row segments at unrelated
//! offsets, so the consumer issues many small scattered reads (the paper
//! measures <38.2 % bandwidth utilization on TBS matrices).

use tbstc_matrix::Matrix;

use crate::access::{AccessTrace, MemRequest};
use crate::{INDEX_BYTES, VALUE_BYTES};

/// Per-element index bytes in CSR (full column indices need 2 bytes,
/// unlike intra-tile positions).
const CSR_INDEX_BYTES: u64 = 2 * INDEX_BYTES;
/// Row-pointer entry size.
const ROW_PTR_BYTES: u64 = 4;

/// A matrix in compressed-sparse-row format.
///
/// # Examples
///
/// ```
/// use tbstc_matrix::Matrix;
/// use tbstc_formats::Csr;
///
/// let w = Matrix::from_rows(&[vec![0.0, 7.0], vec![5.0, 0.0]]).unwrap();
/// let csr = Csr::encode(&w);
/// assert_eq!(csr.decode(), w);
/// assert_eq!(csr.nnz(), 2);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Csr {
    rows: usize,
    cols: usize,
    row_ptr: Vec<usize>,
    col_idx: Vec<u16>,
    values: Vec<f32>,
}

impl Csr {
    /// Encodes a (sparse) matrix.
    pub fn encode(w: &Matrix) -> Self {
        let (rows, cols) = w.shape();
        let mut row_ptr = Vec::with_capacity(rows + 1);
        let mut col_idx = Vec::new();
        let mut values = Vec::new();
        row_ptr.push(0);
        for r in 0..rows {
            for c in 0..cols {
                let v = w[(r, c)];
                if v != 0.0 {
                    col_idx.push(c as u16);
                    values.push(v);
                }
            }
            row_ptr.push(values.len());
        }
        Csr {
            rows,
            cols,
            row_ptr,
            col_idx,
            values,
        }
    }

    /// Reconstructs the dense matrix.
    pub fn decode(&self) -> Matrix {
        let mut out = Matrix::zeros(self.rows, self.cols);
        for r in 0..self.rows {
            for i in self.row_ptr[r]..self.row_ptr[r + 1] {
                out[(r, self.col_idx[i] as usize)] = self.values[i];
            }
        }
        out
    }

    /// Number of stored non-zeros.
    pub fn nnz(&self) -> usize {
        self.values.len()
    }

    /// Non-zeros in row `r`.
    ///
    /// # Panics
    ///
    /// Panics when `r >= self.rows`.
    pub fn row_nnz(&self, r: usize) -> usize {
        self.row_ptr[r + 1] - self.row_ptr[r]
    }

    /// Total stored bytes: row pointers + column indices + values.
    pub fn stored_bytes(&self) -> u64 {
        (self.row_ptr.len() as u64) * ROW_PTR_BYTES
            + self.nnz() as u64 * (VALUE_BYTES + CSR_INDEX_BYTES)
    }

    /// The consumption access trace for a block-oriented consumer that
    /// walks `block_cols`-wide column ranges of `block_rows` rows at a
    /// time: [`block_access_trace`] over this matrix's segment counts.
    ///
    /// # Panics
    ///
    /// Panics when either block dimension is zero.
    pub fn block_access_trace(&self, block_rows: usize, block_cols: usize) -> AccessTrace {
        assert!(
            block_rows > 0 && block_cols > 0,
            "block dims must be positive"
        );
        // A strip taller than the matrix walks the same single strip, so
        // clamp it: the segment array never outgrows the matrix.
        let block_rows = block_rows.min(self.rows.max(1));
        let col_blocks = self.cols.div_ceil(block_cols);
        let mut segments = vec![0; self.rows.div_ceil(block_rows) * block_rows * col_blocks];
        for r in 0..self.rows {
            let (br, dr) = (r / block_rows, r % block_rows);
            for &c in &self.col_idx[self.row_ptr[r]..self.row_ptr[r + 1]] {
                let bc = c as usize / block_cols;
                segments[(br * col_blocks + bc) * block_rows + dr] += 1;
            }
        }
        block_access_trace(block_rows, col_blocks, &segments)
    }

    /// The streaming access trace: [`streaming_trace`] over this matrix's
    /// row populations.
    pub fn streaming_trace(&self) -> AccessTrace {
        streaming_trace(self.row_ptr.windows(2).map(|p| p[1] - p[0]))
    }
}

/// The CSR streaming access trace of a matrix whose rows hold `row_nnz`
/// non-zeros: rows in order, which *is* contiguous — but only usable by a
/// row-streaming consumer, not the block-parallel PE array. Empty rows
/// issue no request.
///
/// # Examples
///
/// ```
/// use tbstc_formats::csr;
///
/// let t = csr::streaming_trace([2, 0, 1]);
/// assert_eq!(t.len(), 2);
/// assert_eq!(t.total_bytes(), 3 * 4); // 2-byte value + 2-byte column index
/// assert_eq!(t.contiguity(), 1.0);
/// ```
pub fn streaming_trace(row_nnz: impl IntoIterator<Item = usize>) -> AccessTrace {
    let elem = VALUE_BYTES + CSR_INDEX_BYTES;
    let mut trace = AccessTrace::new();
    let mut start = 0u64;
    for n in row_nnz {
        if n > 0 {
            trace.push(MemRequest {
                addr: start * elem,
                bytes: n as u64 * elem,
            });
        }
        start += n as u64;
    }
    trace
}

/// The CSR block-gather access trace, from segment counts.
///
/// A block-oriented consumer walks the matrix in `block_rows`-row strips
/// and, within a strip, in column blocks; for each block it visits each
/// member row's segment and reads the slice overlapping the block's column
/// range — `block_rows` small reads at scattered offsets per block. This
/// is the non-contiguous behaviour of Fig. 7(b).
///
/// `segments` holds the non-zero count of every (row, column-block)
/// segment in that visiting order: for each strip, for each of the
/// `col_blocks` column blocks, the counts of the strip's `block_rows`
/// rows (rows past the matrix end count 0). Its length is therefore a
/// multiple of `block_rows × col_blocks`. Empty segments issue no request.
///
/// # Examples
///
/// ```
/// use tbstc_formats::csr;
///
/// // Two rows, two 1-row column blocks: row 0 holds 1 + 2 non-zeros,
/// // row 1 holds 0 + 1.
/// let t = csr::block_access_trace(2, 2, &[1, 0, 2, 1]);
/// let addrs: Vec<u64> = t.requests().iter().map(|r| r.addr).collect();
/// assert_eq!(addrs, [0, 4, 12]); // row 1 starts after row 0's 3 elements
/// assert_eq!(t.total_bytes(), 4 * 4);
/// ```
///
/// # Panics
///
/// Panics when `block_rows` is zero.
pub fn block_access_trace(block_rows: usize, col_blocks: usize, segments: &[usize]) -> AccessTrace {
    assert!(block_rows > 0, "block dims must be positive");
    let elem = VALUE_BYTES + CSR_INDEX_BYTES;
    let strip = block_rows.saturating_mul(col_blocks);
    if strip == 0 || segments.is_empty() {
        return AccessTrace::new();
    }
    // Per strip: where each member row's element run starts in the value
    // array, advanced past each segment as the column blocks are walked.
    let mut row_cursor = vec![0u64; block_rows.min(segments.len())];
    let mut next_row = 0u64;
    let mut trace = AccessTrace::new();
    for counts in segments.chunks(strip) {
        for (dr, cursor) in row_cursor.iter_mut().enumerate() {
            *cursor = next_row;
            next_row += counts.iter().skip(dr).step_by(block_rows).sum::<usize>() as u64;
        }
        for block in counts.chunks(block_rows) {
            for (cursor, &n) in row_cursor.iter_mut().zip(block) {
                if n > 0 {
                    trace.push(MemRequest {
                        addr: *cursor * elem,
                        bytes: n as u64 * elem,
                    });
                    *cursor += n as u64;
                }
            }
        }
    }
    trace
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use tbstc_matrix::rng::MatrixRng;

    #[test]
    fn round_trip_sparse() {
        let w = MatrixRng::seed_from(1).sparse_gaussian(16, 16, 0.8, 1.0);
        assert_eq!(Csr::encode(&w).decode(), w);
    }

    #[test]
    fn round_trip_all_zero() {
        let w = Matrix::zeros(4, 6);
        let csr = Csr::encode(&w);
        assert_eq!(csr.nnz(), 0);
        assert_eq!(csr.decode(), w);
    }

    #[test]
    fn row_nnz_counts() {
        let w = Matrix::from_rows(&[vec![1.0, 1.0], vec![0.0, 1.0]]).unwrap();
        let csr = Csr::encode(&w);
        assert_eq!(csr.row_nnz(0), 2);
        assert_eq!(csr.row_nnz(1), 1);
    }

    #[test]
    fn storage_is_minimal() {
        // CSR bytes scale with nnz, not with padding (contrast SDC).
        let w = Matrix::from_fn(8, 8, |r, _| if r == 0 { 1.0 } else { 0.0 });
        let csr = Csr::encode(&w);
        let sdc = crate::sdc::Sdc::encode(&w);
        assert!(csr.stored_bytes() < sdc.stored_bytes());
    }

    #[test]
    fn block_trace_is_scattered_on_tbs_like_data() {
        // A matrix with mixed row populations: the blocked consumer's reads
        // jump between row segments -> low contiguity.
        let w = MatrixRng::seed_from(2).sparse_gaussian(32, 32, 0.6, 1.0);
        let trace = Csr::encode(&w).block_access_trace(8, 8);
        assert!(
            trace.contiguity() < 0.3,
            "blocked CSR reads should be scattered, got {}",
            trace.contiguity()
        );
    }

    #[test]
    fn streaming_trace_is_contiguous() {
        let w = MatrixRng::seed_from(3).sparse_gaussian(16, 16, 0.5, 1.0);
        let trace = Csr::encode(&w).streaming_trace();
        assert_eq!(trace.contiguity(), 1.0);
    }

    #[test]
    fn block_trace_covers_exactly_nnz_bytes() {
        let w = MatrixRng::seed_from(4).sparse_gaussian(24, 24, 0.7, 1.0);
        let csr = Csr::encode(&w);
        let elem = VALUE_BYTES + CSR_INDEX_BYTES;
        assert_eq!(
            csr.block_access_trace(8, 8).total_bytes(),
            csr.nnz() as u64 * elem
        );
    }

    /// The block-gather walk over the encoded arrays: each member row's
    /// slice of each block, located by binary search on `col_idx`.
    fn block_access_trace_oracle(csr: &Csr, block_rows: usize, block_cols: usize) -> AccessTrace {
        let elem = VALUE_BYTES + CSR_INDEX_BYTES;
        let mut trace = AccessTrace::new();
        for br in (0..csr.rows).step_by(block_rows) {
            for bc in (0..csr.cols).step_by(block_cols) {
                for r in br..(br + block_rows).min(csr.rows) {
                    let (start, end) = (csr.row_ptr[r], csr.row_ptr[r + 1]);
                    let cols = &csr.col_idx[start..end];
                    let lo = cols.partition_point(|&c| (c as usize) < bc) + start;
                    let hi = cols.partition_point(|&c| (c as usize) < bc + block_cols) + start;
                    if hi > lo {
                        trace.push(MemRequest {
                            addr: lo as u64 * elem,
                            bytes: (hi - lo) as u64 * elem,
                        });
                    }
                }
            }
        }
        trace
    }

    /// The streaming walk over the encoded row pointers.
    fn streaming_trace_oracle(csr: &Csr) -> AccessTrace {
        let elem = VALUE_BYTES + CSR_INDEX_BYTES;
        (0..csr.rows)
            .filter(|&r| csr.row_nnz(r) > 0)
            .map(|r| MemRequest {
                addr: csr.row_ptr[r] as u64 * elem,
                bytes: csr.row_nnz(r) as u64 * elem,
            })
            .collect()
    }

    /// Per-(row, column-block) counts of `w` in block-gather visiting order.
    fn segments(w: &Matrix, block_rows: usize, block_cols: usize) -> Vec<usize> {
        let (rows, cols) = w.shape();
        let mut out = Vec::new();
        for br in 0..rows.div_ceil(block_rows) {
            for bc in 0..cols.div_ceil(block_cols) {
                for r in br * block_rows..(br + 1) * block_rows {
                    out.push(if r < rows {
                        let c0 = bc * block_cols;
                        crate::test_support::segment_nnz(w, r, c0, c0 + block_cols)
                    } else {
                        0
                    });
                }
            }
        }
        out
    }

    #[test]
    fn count_traces_of_empty_shapes_are_empty() {
        for (rows, cols) in [(0, 0), (0, 5), (5, 0), (3, 4)] {
            let csr = Csr::encode(&Matrix::zeros(rows, cols));
            assert!(csr.streaming_trace().is_empty());
            assert!(csr.block_access_trace(8, 8).is_empty());
            let col_blocks = cols.div_ceil(8);
            assert!(
                block_access_trace(8, col_blocks, &vec![0; rows.div_ceil(8) * 8 * col_blocks])
                    .is_empty()
            );
        }
        // Block dims far beyond the input allocate by the input, not the dims.
        assert_eq!(block_access_trace(usize::MAX, usize::MAX, &[2]).len(), 1);
    }

    proptest! {
        #[test]
        fn count_traces_equal_encoded_walks(
            seed in 0u64..1000,
            rows in 1usize..70,
            cols in 1usize..70,
            sp in 0u32..=100,
            block_rows in 1usize..=12,
            block_cols in 1usize..=12,
        ) {
            let w = crate::test_support::ragged(seed, rows, cols, f64::from(sp) / 100.0, 8);
            let csr = Csr::encode(&w);
            let row_nnz = (0..rows).map(|r| crate::test_support::segment_nnz(&w, r, 0, cols));
            prop_assert_eq!(streaming_trace(row_nnz), streaming_trace_oracle(&csr));
            prop_assert_eq!(csr.streaming_trace(), streaming_trace_oracle(&csr));
            let oracle = block_access_trace_oracle(&csr, block_rows, block_cols);
            let counts = segments(&w, block_rows, block_cols);
            let col_blocks = cols.div_ceil(block_cols);
            prop_assert_eq!(block_access_trace(block_rows, col_blocks, &counts), oracle.clone());
            prop_assert_eq!(csr.block_access_trace(block_rows, block_cols), oracle);
            // Blocks larger than the matrix gather whole rows per column block.
            prop_assert_eq!(
                csr.block_access_trace(usize::MAX, block_cols),
                block_access_trace_oracle(&csr, rows, block_cols)
            );
        }

        #[test]
        fn round_trip_any_sparsity(seed in 0u64..200, sp in 0u32..=100) {
            let w = MatrixRng::seed_from(seed)
                .sparse_gaussian(10, 14, f64::from(sp) / 100.0, 1.0);
            prop_assert_eq!(Csr::encode(&w).decode(), w);
        }

        #[test]
        fn block_trace_bytes_independent_of_block_size(
            seed in 0u64..50, bs in 1usize..16
        ) {
            let w = MatrixRng::seed_from(seed).sparse_gaussian(16, 16, 0.5, 1.0);
            let csr = Csr::encode(&w);
            let a = csr.block_access_trace(bs, bs).total_bytes();
            let b = csr.block_access_trace(16, 16).total_bytes();
            prop_assert_eq!(a, b);
        }
    }
}
