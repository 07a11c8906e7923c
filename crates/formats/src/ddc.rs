//! Dual-dimensional compression (DDC) — the paper's storage format
//! (§V-A, Fig. 8).
//!
//! DDC stores a TBS matrix block-wise in two parts:
//!
//! * **Inter-block**: a 16-bit info word per block —
//!   `[1 bit sparsity dim | 3 bits sparsity ratio | 12 bits element offset]`,
//! * **Intra-block**: the block's non-zeros compressed *along the block's
//!   own sparsity dimension* (row-major for reduction-dim blocks,
//!   column-major for independent-dim blocks), each with its 3–4 bit
//!   intra-lane index.
//!
//! Because blocks are stored in consumption order and carry no padding,
//! DDC is both contiguous and minimal — the property the adaptive codec
//! architecture exploits for its 1.47× bandwidth-utilization gain.

use tbstc_matrix::Matrix;
use tbstc_sparsity::{SparsityDim, TbsPattern};

use crate::access::{AccessTrace, MemRequest};
use crate::VALUE_BYTES;

/// Bytes per info-table entry (16 bits, Fig. 8(a)).
pub const INFO_BYTES: u64 = 2;
/// Bytes per intra-block element index (4-bit indices, two packed per
/// byte; accounted as half a byte each).
pub const PACKED_INDEX_BITS: u64 = 4;

/// One stored element of a DDC block.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DdcElement {
    /// Index along the *storage* dimension (the lane being walked).
    pub lane: usize,
    /// Index within the lane (the stored 4-bit index).
    pub idx: usize,
    /// The non-zero value.
    pub value: f32,
}

impl DdcElement {
    /// Original block-local `(row, col)` given the block's sparsity dim.
    pub fn position(&self, dim: SparsityDim) -> (usize, usize) {
        match dim {
            SparsityDim::Reduction => (self.lane, self.idx),
            SparsityDim::Independent => (self.idx, self.lane),
        }
    }
}

/// One encoded block: the info-word fields plus its element stream.
#[derive(Debug, Clone, PartialEq)]
pub struct DdcBlock {
    /// Block-row in the block grid.
    pub block_row: usize,
    /// Block-column in the block grid.
    pub block_col: usize,
    /// The block's sparsity dimension (the info word's 1-bit field).
    pub dim: SparsityDim,
    /// The block's `N` (the info word's 3-bit ratio field encodes the
    /// index of `N` in the candidate ladder).
    pub n: usize,
    /// Element offset from the start of the value region, in elements.
    pub offset: u64,
    /// The stored elements in storage order (lane-major along `dim`).
    pub elements: Vec<DdcElement>,
}

impl DdcBlock {
    /// Packs the 16-bit info word: `[dim:1 | ratio:3 | offset:12]`.
    ///
    /// The offset field wraps modulo 4096 exactly as the 12-bit hardware
    /// field does; the full offset is tracked separately in software.
    pub fn info_word(&self, n_candidates: &[usize]) -> u16 {
        let dim_bit = u16::from(self.dim == SparsityDim::Independent) << 15;
        #[expect(
            clippy::expect_used,
            reason = "`n` was drawn from this ladder at encode time; a foreign ladder is a caller bug"
        )]
        let ratio = n_candidates
            .iter()
            .position(|&c| c == self.n)
            .expect("block N must be a configured candidate") as u16;
        dim_bit | (ratio << 12) | ((self.offset & 0x0FFF) as u16)
    }
}

/// A TBS matrix in dual-dimensional compression.
///
/// # Examples
///
/// ```
/// use tbstc_matrix::rng::MatrixRng;
/// use tbstc_sparsity::{TbsConfig, TbsPattern};
/// use tbstc_formats::Ddc;
///
/// let w = MatrixRng::seed_from(0).block_structured_weights(32, 32, 8);
/// let pattern = TbsPattern::sparsify(&w, 0.5, &TbsConfig::paper_default());
/// let pruned = pattern.mask().apply(&w);
/// let ddc = Ddc::encode(&pruned, &pattern);
/// assert_eq!(ddc.decode(), pruned);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Ddc {
    rows: usize,
    cols: usize,
    m: usize,
    n_candidates: Vec<usize>,
    blocks: Vec<DdcBlock>,
    nnz: usize,
}

impl Ddc {
    /// Encodes the pruned matrix `w` under `pattern`.
    ///
    /// `w` is expected to already be masked (`pattern.mask().apply(...)`);
    /// any non-zero outside the mask is ignored.
    ///
    /// # Panics
    ///
    /// Panics when `w`'s shape differs from the pattern's mask.
    pub fn encode(w: &Matrix, pattern: &TbsPattern) -> Self {
        assert_eq!(
            w.shape(),
            pattern.mask().shape(),
            "matrix/pattern shape mismatch"
        );
        let m = pattern.config().m;
        let mask = pattern.mask();
        let mut blocks = Vec::with_capacity(pattern.blocks().len());
        let mut offset = 0u64;
        let mut nnz = 0usize;
        for info in pattern.blocks() {
            let (r0, c0) = info.coord.origin(m);
            let mut elements = Vec::new();
            // Walk lanes along the block's own sparsity dimension.
            for lane in 0..m {
                for idx in 0..m {
                    let (r, c) = match info.dim {
                        SparsityDim::Reduction => (r0 + lane, c0 + idx),
                        SparsityDim::Independent => (r0 + idx, c0 + lane),
                    };
                    if r < w.rows() && c < w.cols() && mask.get(r, c) && w[(r, c)] != 0.0 {
                        elements.push(DdcElement {
                            lane,
                            idx,
                            value: w[(r, c)],
                        });
                    }
                }
            }
            nnz += elements.len();
            let len = elements.len() as u64;
            blocks.push(DdcBlock {
                block_row: info.coord.block_row,
                block_col: info.coord.block_col,
                dim: info.dim,
                n: info.n,
                offset,
                elements,
            });
            offset += len;
        }
        Ddc {
            rows: w.rows(),
            cols: w.cols(),
            m,
            n_candidates: pattern.config().n_candidates.clone(),
            blocks,
            nnz,
        }
    }

    /// Reconstructs the pruned dense matrix.
    pub fn decode(&self) -> Matrix {
        let mut out = Matrix::zeros(self.rows, self.cols);
        for b in &self.blocks {
            let (r0, c0) = (b.block_row * self.m, b.block_col * self.m);
            for e in &b.elements {
                let (dr, dc) = e.position(b.dim);
                let (r, c) = (r0 + dr, c0 + dc);
                if r < self.rows && c < self.cols {
                    out[(r, c)] = e.value;
                }
            }
        }
        out
    }

    /// The encoded blocks in storage order.
    pub fn blocks(&self) -> &[DdcBlock] {
        &self.blocks
    }

    /// Stored non-zero count.
    pub fn nnz(&self) -> usize {
        self.nnz
    }

    /// Block size `M`.
    pub fn m(&self) -> usize {
        self.m
    }

    /// The candidate ladder used for the 3-bit ratio field.
    pub fn n_candidates(&self) -> &[usize] {
        &self.n_candidates
    }

    /// Info-table bytes (2 per block).
    pub fn info_bytes(&self) -> u64 {
        self.blocks.len() as u64 * INFO_BYTES
    }

    /// Value + packed-index bytes.
    pub fn data_bytes(&self) -> u64 {
        let value = self.nnz as u64 * VALUE_BYTES;
        let index = (self.nnz as u64 * PACKED_INDEX_BITS).div_ceil(8);
        value + index
    }

    /// Total stored bytes.
    pub fn stored_bytes(&self) -> u64 {
        self.info_bytes() + self.data_bytes()
    }

    /// The consumption access trace: [`access_trace`] over this matrix's
    /// per-block stored counts.
    pub fn access_trace(&self) -> AccessTrace {
        access_trace(self.blocks.iter().map(|b| b.elements.len()))
    }
}

/// The DDC consumption access trace of a matrix whose blocks, in storage
/// order, store `block_nnz` non-zeros: the info table (one 16-bit word per
/// block, empty blocks included) as one contiguous read, followed by each
/// non-empty block's values and packed indices — fully sequential, no
/// padding.
///
/// # Examples
///
/// ```
/// use tbstc_formats::ddc;
///
/// let t = ddc::access_trace([3, 0, 2]);
/// let reqs: Vec<(u64, u64)> = t.requests().iter().map(|r| (r.addr, r.bytes)).collect();
/// // 3 info words, then ceil(2.5 B × nnz) per non-empty block.
/// assert_eq!(reqs, [(0, 6), (6, 8), (14, 5)]);
/// assert_eq!(t.contiguity(), 1.0);
/// ```
pub fn access_trace<I>(block_nnz: I) -> AccessTrace
where
    I: IntoIterator<Item = usize>,
    I::IntoIter: ExactSizeIterator,
{
    let block_nnz = block_nnz.into_iter();
    let info_bytes = block_nnz.len() as u64 * INFO_BYTES;
    let mut trace = AccessTrace::new();
    if info_bytes > 0 {
        trace.push(MemRequest {
            addr: 0,
            bytes: info_bytes,
        });
    }
    let mut cursor = info_bytes;
    for n in block_nnz {
        let n = n as u64;
        let bytes = n * VALUE_BYTES + (n * PACKED_INDEX_BITS).div_ceil(8);
        if bytes > 0 {
            trace.push(MemRequest {
                addr: cursor,
                bytes,
            });
            cursor += bytes;
        }
    }
    trace
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use tbstc_matrix::rng::MatrixRng;
    use tbstc_sparsity::TbsConfig;

    fn make(seed: u64, rows: usize, cols: usize, target: f64) -> (Matrix, TbsPattern) {
        let w = MatrixRng::seed_from(seed).block_structured_weights(rows, cols, 8);
        let p = TbsPattern::sparsify(&w, target, &TbsConfig::paper_default());
        (p.mask().apply(&w), p)
    }

    #[test]
    fn round_trip() {
        let (pruned, pattern) = make(1, 32, 32, 0.5);
        let ddc = Ddc::encode(&pruned, &pattern);
        assert_eq!(ddc.decode(), pruned);
    }

    #[test]
    fn round_trip_non_multiple_shape() {
        let (pruned, pattern) = make(2, 20, 28, 0.6);
        let ddc = Ddc::encode(&pruned, &pattern);
        assert_eq!(ddc.decode(), pruned);
    }

    #[test]
    fn round_trip_extreme_sparsities() {
        for &t in &[0.0, 1.0] {
            let (pruned, pattern) = make(3, 16, 16, t);
            let ddc = Ddc::encode(&pruned, &pattern);
            assert_eq!(ddc.decode(), pruned);
        }
    }

    #[test]
    fn nnz_matches_matrix() {
        let (pruned, pattern) = make(4, 64, 64, 0.75);
        let ddc = Ddc::encode(&pruned, &pattern);
        assert_eq!(ddc.nnz(), pruned.count_nonzeros());
    }

    #[test]
    fn info_word_packs_fields() {
        let b = DdcBlock {
            block_row: 0,
            block_col: 0,
            dim: SparsityDim::Independent,
            n: 4,
            offset: 0x0ABC,
            elements: vec![],
        };
        let word = b.info_word(&[0, 1, 2, 4, 8]);
        assert_eq!(word >> 15, 1, "dim bit");
        assert_eq!((word >> 12) & 0x7, 3, "ratio index of N=4");
        assert_eq!(word & 0x0FFF, 0x0ABC, "offset field");
    }

    #[test]
    fn info_word_offset_wraps_mod_4096() {
        let b = DdcBlock {
            block_row: 0,
            block_col: 0,
            dim: SparsityDim::Reduction,
            n: 2,
            offset: 4096 + 5,
            elements: vec![],
        };
        assert_eq!(b.info_word(&[0, 1, 2, 4, 8]) & 0x0FFF, 5);
    }

    #[test]
    fn storage_beats_sdc_on_tbs() {
        // The Fig. 7 comparison: on a TBS matrix DDC stores close to nnz
        // while SDC pays the max-row padding.
        let (pruned, pattern) = make(5, 64, 64, 0.75);
        let ddc = Ddc::encode(&pruned, &pattern);
        let sdc = crate::sdc::Sdc::encode(&pruned);
        assert!(
            ddc.stored_bytes() < sdc.stored_bytes(),
            "DDC {} < SDC {}",
            ddc.stored_bytes(),
            sdc.stored_bytes()
        );
    }

    #[test]
    fn trace_is_fully_contiguous() {
        let (pruned, pattern) = make(6, 64, 64, 0.5);
        let ddc = Ddc::encode(&pruned, &pattern);
        assert_eq!(ddc.access_trace().contiguity(), 1.0);
    }

    #[test]
    fn offsets_are_cumulative() {
        let (pruned, pattern) = make(7, 32, 32, 0.5);
        let ddc = Ddc::encode(&pruned, &pattern);
        let mut expect = 0u64;
        for b in ddc.blocks() {
            assert_eq!(b.offset, expect);
            expect += b.elements.len() as u64;
        }
    }

    #[test]
    fn storage_order_follows_block_dim() {
        // In a reduction-dim block, storage walks rows; elements of the
        // same lane appear together with increasing idx.
        let (pruned, pattern) = make(8, 32, 32, 0.5);
        let ddc = Ddc::encode(&pruned, &pattern);
        for b in ddc.blocks() {
            let mut prev: Option<(usize, usize)> = None;
            for e in &b.elements {
                if let Some((pl, pi)) = prev {
                    assert!(
                        e.lane > pl || (e.lane == pl && e.idx > pi),
                        "lane-major order violated"
                    );
                }
                prev = Some((e.lane, e.idx));
            }
        }
    }

    /// The trace walk over the encoded blocks: each block's element stream
    /// sized at 2.5 bytes per element in `f64`, rounded up.
    fn access_trace_oracle(ddc: &Ddc) -> AccessTrace {
        let mut trace = AccessTrace::new();
        if ddc.info_bytes() > 0 {
            trace.push(MemRequest {
                addr: 0,
                bytes: ddc.info_bytes(),
            });
        }
        let elem_bytes = VALUE_BYTES as f64 + PACKED_INDEX_BITS as f64 / 8.0;
        let mut cursor = ddc.info_bytes();
        for b in &ddc.blocks {
            let bytes = (b.elements.len() as f64 * elem_bytes).ceil() as u64;
            if bytes > 0 {
                trace.push(MemRequest {
                    addr: cursor,
                    bytes,
                });
                cursor += bytes;
            }
        }
        trace
    }

    /// Non-zeros of each of `pattern`'s blocks in `w`, in storage order.
    fn block_counts(w: &Matrix, pattern: &TbsPattern) -> Vec<usize> {
        let m = pattern.config().m;
        pattern
            .blocks()
            .iter()
            .map(|b| {
                let (r0, c0) = b.coord.origin(m);
                (r0..(r0 + m).min(w.rows()))
                    .map(|r| crate::test_support::segment_nnz(w, r, c0, c0 + m))
                    .sum()
            })
            .collect()
    }

    #[test]
    fn count_trace_of_no_blocks_is_empty() {
        assert!(access_trace(std::iter::empty()).is_empty());
        // All-zero blocks still cost their info words.
        assert_eq!(access_trace([0, 0]).total_bytes(), 2 * INFO_BYTES);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        #[test]
        fn count_trace_equals_encoded_walk(
            seed in 0u64..1000,
            rows in 1usize..70,
            cols in 1usize..70,
            t in 0u32..=100,
            m_log2 in 2u32..=5,
            transposed in 0u32..=1,
        ) {
            let m = 1usize << m_log2;
            let w = MatrixRng::seed_from(seed).block_structured_weights(rows, cols, m);
            let p = TbsPattern::sparsify(&w, f64::from(t) / 100.0, &TbsConfig::with_block_size(m));
            let (w, p) = if transposed == 1 { (w.transpose(), p.transpose()) } else { (w, p) };
            let mut pruned = p.mask().apply(&w);
            let (r, c) = pruned.shape();
            crate::test_support::hollow(&mut pruned, seed as usize % r, 3, m, seed as usize % r.div_ceil(m), 0);
            let ddc = Ddc::encode(&pruned, &p);
            let oracle = access_trace_oracle(&ddc);
            prop_assert_eq!(access_trace(block_counts(&pruned, &p)), oracle.clone());
            prop_assert_eq!(ddc.access_trace(), oracle);
            prop_assert_eq!(ddc.blocks().len(), r.div_ceil(m) * c.div_ceil(m));
        }

        #[test]
        fn both_storage_dims_are_covered(seed in 0u64..1000) {
            let w = MatrixRng::seed_from(seed).block_structured_weights(48, 40, 8);
            let p = TbsPattern::sparsify(&w, 0.75, &TbsConfig::paper_default());
            let ddc = Ddc::encode(&p.mask().apply(&w), &p);
            let dims = |d: SparsityDim| ddc.blocks().iter().any(|b| b.dim == d && !b.elements.is_empty());
            prop_assert!(dims(SparsityDim::Reduction) && dims(SparsityDim::Independent));
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn round_trip_any_target(seed in 0u64..50, t in 0u32..=100) {
            let (pruned, pattern) = make(seed, 24, 24, f64::from(t) / 100.0);
            let ddc = Ddc::encode(&pruned, &pattern);
            prop_assert_eq!(ddc.decode(), pruned);
        }

        #[test]
        fn ddc_never_larger_than_dense(seed in 0u64..50) {
            let (pruned, pattern) = make(seed, 32, 32, 0.5);
            let ddc = Ddc::encode(&pruned, &pattern);
            let dense_bytes = 32 * 32 * VALUE_BYTES;
            prop_assert!(ddc.stored_bytes() <= dense_bytes);
        }
    }
}
