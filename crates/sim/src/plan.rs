//! `BlockPlan`: the batched structure-of-arrays view of a layer's sampled
//! pruned weights.
//!
//! The compute, schedule and memory models all consume per-8×8-block
//! occupancy statistics of the sampled weights. Historically each of them
//! re-derived what Algorithm-1 sparsification had already computed by
//! walking the matrix element-by-element through bounds-checked `get`
//! calls. `BlockPlan` walks the matrix **once**, over contiguous row
//! slices, and stores every statistic in flat parallel columns:
//!
//! * `row_nnz` — per-block packed row occupancy (8 counts per block),
//! * `nnz` / `nonempty_rows` — per-block totals,
//! * `independent_dim` — the TBS sparsity-dimension flag per block,
//! * `dense_slots` / `block_rows` — edge-clipped block geometry,
//! * `matrix_row_nnz` — per-matrix-row totals (grouped-SDC formats),
//! * an occupancy-class histogram (blocks bucketed by `ceil(nnz / 8)`).
//!
//! The plan is the public currency between the sparsify, compute,
//! schedule and memory layers: [`crate::archs::ArchModel::block_works_batch`]
//! prices a whole plan in array passes, `sched::schedule_stream`
//! consumes the resulting flat work list, and the memory model builds
//! every weight-stream trace from the plan's counts (SDC and CSR from
//! `matrix_row_nnz`, the CSR block gather from the packed `row_nnz`, DDC
//! from the per-block `nnz`) instead of re-counting or encoding the
//! matrix. Each pruned layer owns its plan ([`SparseLayer::plan`]), so
//! it is built once however many simulations read it.

use tbstc_matrix::Matrix;
use tbstc_sparsity::{SparsityDim, TbsPattern};

use crate::layer::SparseLayer;

/// Blocks are walked at the simulator's fixed 8×8 granularity.
pub(crate) const BLOCK: usize = 8;

/// Structure-of-arrays per-block statistics of one sampled layer.
///
/// All per-block columns are indexed by the row-major block index
/// `br * grid_cols + bc`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BlockPlan {
    grid_rows: usize,
    grid_cols: usize,
    rows: usize,
    cols: usize,
    /// Packed per-block row occupancy: block `i` owns `row_nnz[i*8..i*8+8]`.
    row_nnz: Vec<usize>,
    nnz: Vec<usize>,
    nonempty_rows: Vec<usize>,
    independent_dim: Vec<bool>,
    dense_slots: Vec<usize>,
    block_rows: Vec<usize>,
    matrix_row_nnz: Vec<usize>,
    occupancy_hist: [usize; BLOCK + 1],
    total_nnz: usize,
}

impl BlockPlan {
    /// Builds the plan from a layer's sampled weights in one row-major
    /// pass over contiguous row slices, plus one aggregation pass over
    /// the packed per-block counts.
    pub fn build(layer: &SparseLayer) -> Self {
        let w = layer.sampled();
        let (row_nnz, matrix_row_nnz) = segment_counts(w);
        Self::from_counts(w.shape(), row_nnz, matrix_row_nnz, layer.tbs())
    }

    /// The plan of a `rows × cols` matrix from its pass-1 counts: the
    /// packed per-(block, block-row) counts and the per-row totals.
    fn from_counts(
        (rows, cols): (usize, usize),
        row_nnz: Vec<usize>,
        matrix_row_nnz: Vec<usize>,
        tbs: Option<&TbsPattern>,
    ) -> Self {
        let grid_rows = rows.div_ceil(BLOCK);
        let grid_cols = cols.div_ceil(BLOCK);
        let n_blocks = grid_rows * grid_cols;

        // Pass 2: per-block aggregates over the packed counts.
        let mut nnz = Vec::with_capacity(n_blocks);
        let mut nonempty_rows = Vec::with_capacity(n_blocks);
        let mut dense_slots = Vec::with_capacity(n_blocks);
        let mut block_rows = Vec::with_capacity(n_blocks);
        let mut occupancy_hist = [0usize; BLOCK + 1];
        let mut total_nnz = 0usize;
        for (i, counts) in row_nnz.chunks_exact(BLOCK).enumerate() {
            let (br, bc) = (i / grid_cols, i % grid_cols);
            let block_nnz: usize = counts.iter().sum();
            nnz.push(block_nnz);
            nonempty_rows.push(counts.iter().filter(|&&c| c > 0).count());
            let h = BLOCK.min(rows - br * BLOCK);
            let w = BLOCK.min(cols - bc * BLOCK);
            block_rows.push(h);
            dense_slots.push(h * w);
            occupancy_hist[block_nnz.div_ceil(BLOCK)] += 1;
            total_nnz += block_nnz;
        }

        // TBS metadata: blocks carry their sparsity dimension; everything
        // else is reduction-dimension by construction. The TBS block list
        // is indexed by the *TBS-config* grid width (which differs from
        // the plan's 8-wide grid when the pattern's M ≠ 8), preserving the
        // historical lookup exactly.
        let mut independent_dim = vec![false; n_blocks];
        if let Some(t) = tbs {
            let blocks = t.blocks();
            let gc = t.mask().cols().div_ceil(t.config().m);
            for (i, flag) in independent_dim.iter_mut().enumerate() {
                let (br, bc) = (i / grid_cols, i % grid_cols);
                *flag = blocks
                    .get(br * gc + bc)
                    .map(|b| b.dim == SparsityDim::Independent)
                    .unwrap_or(false);
            }
        }

        BlockPlan {
            grid_rows,
            grid_cols,
            rows,
            cols,
            row_nnz,
            nnz,
            nonempty_rows,
            independent_dim,
            dense_slots,
            block_rows,
            matrix_row_nnz,
            occupancy_hist,
            total_nnz,
        }
    }

    /// Number of blocks in the plan.
    pub fn len(&self) -> usize {
        self.nnz.len()
    }

    /// Whether the plan covers no blocks.
    pub fn is_empty(&self) -> bool {
        self.nnz.is_empty()
    }

    /// Block-grid shape `(grid_rows, grid_cols)`.
    pub fn grid(&self) -> (usize, usize) {
        (self.grid_rows, self.grid_cols)
    }

    /// Sampled matrix shape `(rows, cols)` the plan was built from.
    pub fn sampled_shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Per-row non-zero counts of block `i` (8 packed counts).
    #[expect(
        clippy::expect_used,
        reason = "the slice is BLOCK long by construction"
    )]
    pub fn row_nnz(&self, i: usize) -> &[usize; BLOCK] {
        self.row_nnz[i * BLOCK..(i + 1) * BLOCK]
            .try_into()
            .expect("chunk is exactly BLOCK long")
    }

    /// Every block's row counts, packed in block order: block `i` owns
    /// `[i * 8, i * 8 + 8)` (the slices [`BlockPlan::row_nnz`] returns).
    /// This is the per-(row, column-block) segment layout of an 8 × 8
    /// CSR block gather.
    pub fn packed_row_nnz(&self) -> &[usize] {
        &self.row_nnz
    }

    /// Per-block non-zero totals.
    pub fn nnz(&self) -> &[usize] {
        &self.nnz
    }

    /// Per-block non-empty row counts.
    pub fn nonempty_rows(&self) -> &[usize] {
        &self.nonempty_rows
    }

    /// Per-block independent-dimension flags (TBS metadata).
    pub fn independent_dim(&self) -> &[bool] {
        &self.independent_dim
    }

    /// Per-block dense MAC slots (edge-clipped geometry).
    pub fn dense_slots(&self) -> &[usize] {
        &self.dense_slots
    }

    /// Per-block clipped heights.
    pub fn block_rows(&self) -> &[usize] {
        &self.block_rows
    }

    /// Per-matrix-row non-zero totals of the sampled weights.
    pub fn matrix_row_nnz(&self) -> &[usize] {
        &self.matrix_row_nnz
    }

    /// Total non-zeros of the sampled weights (`Σ nnz`).
    pub fn total_nnz(&self) -> usize {
        self.total_nnz
    }

    /// Occupancy-class histogram: entry `c` counts blocks whose non-zeros
    /// need `c` 8-wide issue slots (`ceil(nnz / 8)`), from empty (0) to
    /// dense (8).
    pub fn occupancy_histogram(&self) -> &[usize; BLOCK + 1] {
        &self.occupancy_hist
    }
}

/// Pass 1 of [`BlockPlan::build`]: the non-zeros of each (block,
/// block-row) segment, packed in block order, and of each matrix row.
/// Each 8-wide row segment is counted by a branch-free sum. Out-of-bounds
/// padding rows stay zero, matching the historical element walk.
fn segment_counts(w: &Matrix) -> (Vec<usize>, Vec<usize>) {
    let (rows, cols) = w.shape();
    let grid_cols = cols.div_ceil(BLOCK);
    let mut row_nnz = vec![0usize; rows.div_ceil(BLOCK) * grid_cols * BLOCK];
    let mut matrix_row_nnz = Vec::with_capacity(rows);
    for r in 0..rows {
        let (br, dr) = (r / BLOCK, r % BLOCK);
        let mut row_total = 0usize;
        for (bc, segment) in w.row(r).chunks(BLOCK).enumerate() {
            // A `u32` sum vectorises better than a `usize` one; at most
            // eight elements are counted.
            let count = segment.iter().map(|&v| u32::from(v != 0.0)).sum::<u32>() as usize;
            row_nnz[(br * grid_cols + bc) * BLOCK + dr] = count;
            row_total += count;
        }
        matrix_row_nnz.push(row_total);
    }
    (row_nnz, matrix_row_nnz)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arch::Arch;
    use crate::config::HwConfig;
    use tbstc_models::LayerShape;

    /// Pass 1 with a range sliced per block and `filter().count()`: the
    /// oracle of [`segment_counts`].
    fn segment_counts_oracle(w: &Matrix) -> (Vec<usize>, Vec<usize>) {
        let (rows, cols) = w.shape();
        let grid_cols = cols.div_ceil(BLOCK);
        let mut row_nnz = vec![0usize; rows.div_ceil(BLOCK) * grid_cols * BLOCK];
        let mut matrix_row_nnz = vec![0usize; rows];
        for (r, total) in matrix_row_nnz.iter_mut().enumerate() {
            let (br, dr) = (r / BLOCK, r % BLOCK);
            let row = w.row(r);
            let mut row_total = 0usize;
            for bc in 0..grid_cols {
                let c0 = bc * BLOCK;
                let cmax = (c0 + BLOCK).min(cols);
                let count = row[c0..cmax].iter().filter(|&&v| v != 0.0).count();
                row_nnz[(br * grid_cols + bc) * BLOCK + dr] = count;
                row_total += count;
            }
            *total = row_total;
        }
        (row_nnz, matrix_row_nnz)
    }

    /// Values that test `v != 0.0` at its edges: both zeros, NaN
    /// payloads, both infinities, subnormals and ordinary values.
    const EDGE_VALUES: [f32; 12] = [
        0.0,
        -0.0,
        f32::NAN,
        -f32::NAN,
        f32::INFINITY,
        f32::NEG_INFINITY,
        f32::MIN_POSITIVE / 2.0,
        -f32::MIN_POSITIVE / 4.0,
        1e-45,
        f32::MIN_POSITIVE,
        1.0,
        -3.5,
    ];

    fn assert_counts_match_oracle(w: &Matrix) {
        let fast = segment_counts(w);
        let oracle = segment_counts_oracle(w);
        assert_eq!(fast, oracle, "{:?}", w.shape());
        assert_eq!(
            BlockPlan::from_counts(w.shape(), fast.0, fast.1, None),
            BlockPlan::from_counts(w.shape(), oracle.0, oracle.1, None),
        );
    }

    #[test]
    fn branch_free_counts_match_the_filter_oracle_on_edge_values() {
        for (rows, cols) in [(13, 21), (8, 9), (1, 1), (16, 16), (9, 8), (0, 5), (5, 0)] {
            for offset in 0..EDGE_VALUES.len() {
                let w = Matrix::from_fn(rows, cols, |r, c| {
                    EDGE_VALUES[(r * cols + c + offset) % EDGE_VALUES.len()]
                });
                assert_counts_match_oracle(&w);
            }
        }
    }

    proptest::proptest! {
        #[test]
        fn branch_free_counts_match_the_filter_oracle(
            rows in 1usize..=24,
            cols in 1usize..=24,
            picks in proptest::collection::vec(0usize..24, 576..577),
        ) {
            // Half of the picks are zeros, the rest any edge value.
            let w = Matrix::from_fn(rows, cols, |r, c| match picks[r * cols + c] {
                p if p >= EDGE_VALUES.len() => 0.0,
                p => EDGE_VALUES[p],
            });
            assert_counts_match_oracle(&w);
        }
    }

    fn layer(m: usize, k: usize, target: f64) -> SparseLayer {
        let shape = LayerShape {
            name: "plan-test".into(),
            m,
            k,
            n: 32,
            repeats: 1,
            prunable: true,
        };
        crate::LayerSim::new(&shape)
            .arch(Arch::TbStc)
            .sparsity(target)
            .seed(9)
            .build(&HwConfig::paper_default())
    }

    #[test]
    fn plan_matches_element_walk() {
        for (m, k) in [(64, 64), (20, 28), (33, 40)] {
            let l = layer(m, k, 0.6);
            let plan = BlockPlan::build(&l);
            let w = l.sampled();
            let (rows, cols) = w.shape();
            assert_eq!(plan.grid(), (rows.div_ceil(8), cols.div_ceil(8)));
            for i in 0..plan.len() {
                let (br, bc) = (i / plan.grid().1, i % plan.grid().1);
                let mut expect = [0usize; 8];
                for (dr, cnt) in expect.iter_mut().enumerate() {
                    for dc in 0..8 {
                        if let Some(v) = w.get(br * 8 + dr, bc * 8 + dc) {
                            if v != 0.0 {
                                *cnt += 1;
                            }
                        }
                    }
                }
                assert_eq!(plan.row_nnz(i), &expect, "block {i} of {m}x{k}");
                assert_eq!(plan.nnz()[i], expect.iter().sum::<usize>());
                assert_eq!(
                    plan.nonempty_rows()[i],
                    expect.iter().filter(|&&c| c > 0).count()
                );
            }
        }
    }

    #[test]
    fn totals_and_histogram_are_consistent() {
        let l = layer(64, 64, 0.75);
        let plan = BlockPlan::build(&l);
        assert_eq!(plan.total_nnz(), l.sampled().count_nonzeros());
        assert_eq!(plan.total_nnz(), plan.nnz().iter().sum::<usize>());
        assert_eq!(
            plan.total_nnz(),
            plan.matrix_row_nnz().iter().sum::<usize>()
        );
        assert_eq!(plan.occupancy_histogram().iter().sum::<usize>(), plan.len());
        for (i, &n) in plan.nnz().iter().enumerate() {
            assert!(plan.occupancy_histogram()[n.div_ceil(8)] > 0, "block {i}");
        }
    }

    #[test]
    fn independent_dim_mirrors_tbs_metadata() {
        let l = layer(64, 64, 0.75);
        let plan = BlockPlan::build(&l);
        let tbs = l.tbs().expect("TBS layer");
        let gc = tbs.mask().cols().div_ceil(tbs.config().m);
        for i in 0..plan.len() {
            let (br, bc) = (i / plan.grid().1, i % plan.grid().1);
            let expect = tbs
                .blocks()
                .get(br * gc + bc)
                .map(|b| b.dim == SparsityDim::Independent)
                .unwrap_or(false);
            assert_eq!(plan.independent_dim()[i], expect, "block {i}");
        }
        assert!(
            plan.independent_dim().iter().any(|&f| f),
            "some independent"
        );
    }
}
