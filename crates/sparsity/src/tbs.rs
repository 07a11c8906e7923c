//! The Transposable Block-wise N:M (TBS) sparsity pattern — Algorithm 1.
//!
//! TBS (paper §III-A) splits a weight matrix into `M × M` blocks. Each
//! block independently chooses
//!
//! 1. a density level `N ∈ N_candidate` (a divisor chain of `M`, the paper
//!    uses `{0, 1, 2, 4, 8}` for `M = 8`), and
//! 2. a *sparsity dimension*: whether the N:M constraint runs along the
//!    **reduction** dimension (row-wise within the block) or the
//!    **independent** dimension (column-wise within the block).
//!
//! The sparsification procedure (Algorithm 1) finds the TBS pattern closest
//! to the unstructured pattern:
//!
//! * **Step 1** — unstructured pruning at the target sparsity,
//! * **Step 2** — per block, pick the `N` whose density `N/M` is closest to
//!   the block's unstructured density,
//! * **Step 3** — build the N:M mask in both dimensions (keeping top-`N`
//!   absolute values per row / per column) and keep whichever is closer in
//!   `L1` (Hamming) distance to the unstructured mask.
//!
//! A final global adjustment nudges the per-block `N` choices so that the
//! overall sparsity meets the predetermined target, as required by step 2
//! of the paper's algorithm.

use tbstc_matrix::tile::{blocks_along, BlockCoord};
use tbstc_matrix::Matrix;

use crate::mask::Mask;
use crate::pattern::{adjust_to_target, nearest};
use crate::scores::Scores;
use crate::select::{self, UNRANKED};

/// The sparsity dimension a block's N:M constraint runs along.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SparsityDim {
    /// N:M within each row of the block (reduction dimension). This is the
    /// computation-friendly orientation that needs no format conversion.
    Reduction,
    /// N:M within each column of the block (independent dimension); the
    /// codec converts it to computation format on the fly.
    Independent,
}

impl SparsityDim {
    /// The other dimension.
    pub fn flip(self) -> Self {
        match self {
            SparsityDim::Reduction => SparsityDim::Independent,
            SparsityDim::Independent => SparsityDim::Reduction,
        }
    }
}

/// Configuration of the TBS pattern.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TbsConfig {
    /// Block size `M` (the paper uses 8).
    pub m: usize,
    /// Candidate non-zero counts per `M` (the paper uses `{0, 1, 2, 4, 8}`).
    pub n_candidates: Vec<usize>,
}

impl TbsConfig {
    /// The paper's configuration: `M = 8`, `N ∈ {0, 1, 2, 4, 8}`.
    pub fn paper_default() -> Self {
        TbsConfig {
            m: 8,
            n_candidates: vec![0, 1, 2, 4, 8],
        }
    }

    /// A configuration with block size `m` and the power-of-two candidate
    /// ladder `{0, 1, 2, …, m}` (plus `m` itself).
    ///
    /// # Panics
    ///
    /// Panics if `m` is not a power of two or is zero.
    pub fn with_block_size(m: usize) -> Self {
        assert!(
            m > 0 && m.is_power_of_two(),
            "block size must be a power of two"
        );
        let mut n_candidates = vec![0];
        let mut n = 1;
        while n <= m {
            n_candidates.push(n);
            n *= 2;
        }
        TbsConfig { m, n_candidates }
    }

    /// Validates invariants: `m > 0`, candidates sorted, unique, `≤ m`.
    ///
    /// # Panics
    ///
    /// Panics with a description of the violated invariant.
    #[expect(
        clippy::unwrap_used,
        reason = "validate() is the panic point by design; the preceding assert guarantees non-empty"
    )]
    pub fn validate(&self) {
        assert!(self.m > 0, "block size must be positive");
        assert!(
            !self.n_candidates.is_empty(),
            "need at least one N candidate"
        );
        assert!(
            self.n_candidates.windows(2).all(|w| w[0] < w[1]),
            "N candidates must be strictly increasing"
        );
        assert!(
            *self.n_candidates.last().unwrap() <= self.m,
            "N candidates cannot exceed M"
        );
    }
}

/// Per-block metadata of a TBS pattern.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BlockInfo {
    /// Grid position of the block.
    pub coord: BlockCoord,
    /// Chosen `N` (non-zeros per `M` along the sparsity dimension).
    pub n: usize,
    /// Chosen sparsity dimension.
    pub dim: SparsityDim,
}

impl BlockInfo {
    /// The block's density `N/M` for block size `m`.
    pub fn density(&self, m: usize) -> f64 {
        self.n as f64 / m as f64
    }
}

/// A complete TBS pattern: the mask plus per-block metadata.
///
/// # Examples
///
/// ```
/// use tbstc_matrix::rng::MatrixRng;
/// use tbstc_sparsity::{TbsConfig, TbsPattern};
///
/// let w = MatrixRng::seed_from(1).weights(32, 32);
/// let p = TbsPattern::sparsify(&w, 0.75, &TbsConfig::paper_default());
/// // Every block satisfies N:M along its chosen dimension.
/// p.assert_valid();
/// assert!((p.mask().sparsity() - 0.75).abs() < 0.05);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct TbsPattern {
    mask: Mask,
    blocks: Vec<BlockInfo>,
    config: TbsConfig,
}

impl TbsPattern {
    /// Runs Algorithm 1 on importance scores `scores` (higher = more
    /// important) at target sparsity `target` ∈ `[0, 1]`.
    ///
    /// For magnitude pruning pass `w.map(f32::abs)` (or the raw weights —
    /// only `|scores|` ordering matters); for Wanda/SparseGPT pass those
    /// criteria's score matrices (see [`crate::criteria`]).
    ///
    /// # Panics
    ///
    /// Panics when `target` is outside `[0, 1]` or `config` is invalid.
    pub fn sparsify(scores: &Matrix, target: f64, config: &TbsConfig) -> Self {
        Self::from_scores(&mut Scores::new(scores), target, config)
    }

    /// [`TbsPattern::sparsify`] on `scores`, reusing the global top-k and
    /// tile ranks it holds from earlier projections.
    ///
    /// # Panics
    ///
    /// Panics when `target` is outside `[0, 1]` or `config` is invalid.
    pub fn from_scores(scores: &mut Scores, target: f64, config: &TbsConfig) -> Self {
        assert!((0.0..=1.0).contains(&target), "target sparsity in [0, 1]");
        config.validate();
        let m = config.m;
        // Step 1: unstructured pruning at the target sparsity.
        let (abs_scores, top_k, ranks) = scores.ranked_top_k(target, m, true);
        let unstructured = &top_k.mask;
        let (rows, cols) = (abs_scores.rows(), abs_scores.cols());

        // Step 2: choose N per block to match the block's unstructured
        // density, then globally adjust so overall sparsity hits the target.
        // Each block, in row-major order, carries its N as an index into the
        // candidates. Block kept counts come from per-column counts over a
        // band of M rows.
        let grid_rows = blocks_along(rows, m);
        let grid_cols = blocks_along(cols, m);
        let mut chosen: Vec<usize> = Vec::with_capacity(grid_rows * grid_cols);
        let mut kept_at = vec![0u32; cols];
        for br in 0..grid_rows {
            kept_at.fill(0);
            for r in br * m..((br + 1) * m).min(rows) {
                for (k, &u) in kept_at.iter_mut().zip(unstructured.row(r)) {
                    *k += u32::from(u);
                }
            }
            for tile in kept_at.chunks(m) {
                let kept: u64 = tile.iter().map(|&k| u64::from(k)).sum();
                let density = kept as f64 / (m * m) as f64;
                chosen.push(nearest(&config.n_candidates, density, m));
            }
        }
        // A block's importance mass is the L1 norm of its scores.
        let block_mass = || {
            (0..grid_rows * grid_cols)
                .map(|b| {
                    let (r0, c0) = (b / grid_cols * m, b % grid_cols * m);
                    abs_scores.block_view(r0, c0, m, m).l1_norm()
                })
                .collect()
        };
        // Each block keeps N per lane × M lanes.
        adjust_to_target(
            &mut chosen,
            &config.n_candidates,
            m,
            top_k.keep_total,
            block_mass,
        );

        // Step 3: per block, build both directional candidate sets and keep
        // the one closer (L1/Hamming) to the unstructured mask. Each lane
        // keeps the entries whose rank in it is below N: row lanes are the
        // map's row tiles, column lanes its column tiles. Every candidate
        // set keeps exactly N·M positions of the zero-padded block, so
        // comparing Hamming distances |A| + |U| − 2|A ∩ U| is comparing
        // the overlaps |A ∩ U|, which only in-bounds positions reach.
        // Both sets and their overlaps are built a band of blocks (M rows)
        // at a time, along whole rows.
        let mut mask = Mask::none(rows, cols);
        let mut blocks = Vec::with_capacity(chosen.len());
        // Each column's N in the current band (ranks are below 64, so
        // clamping N changes no comparison).
        let mut n_at = vec![0u8; cols];
        let mut by_row = vec![false; m * cols];
        let mut by_col = vec![false; m * cols];
        let mut overlap_row = vec![0u32; cols];
        let mut overlap_col = vec![0u32; cols];
        let mut take_row = vec![false; cols];
        for (band, chosen) in chosen.chunks(grid_cols.max(1)).enumerate() {
            let (r0, rmax) = (band * m, ((band + 1) * m).min(rows));
            for (bc, &i) in chosen.iter().enumerate() {
                let c0 = bc * m;
                let n = config.n_candidates[i].min(usize::from(UNRANKED)) as u8;
                n_at[c0..(c0 + m).min(cols)].fill(n);
            }
            let by_row = &mut by_row[..(rmax - r0) * cols];
            let by_col = &mut by_col[..(rmax - r0) * cols];
            for ((r, keep_row), keep_col) in (r0..rmax)
                .zip(by_row.chunks_exact_mut(cols))
                .zip(by_col.chunks_exact_mut(cols))
            {
                select::keep_ranked_at(ranks.row(r), &n_at, keep_row);
                select::keep_ranked_at(ranks.col(r), &n_at, keep_col);
            }
            if ranks.any_unranked() {
                // Unranked lanes (a NaN, or M > 64) take the comparator
                // sort on the lane zero-padded to M, as Algorithm 1 pads
                // the block.
                for (r, keep_row) in (r0..rmax).zip(by_row.chunks_exact_mut(cols)) {
                    for c0 in (0..cols).step_by(m) {
                        if ranks.row(r)[c0] == UNRANKED {
                            let cmax = (c0 + m).min(cols);
                            let keep = &mut keep_row[c0..cmax];
                            keep.fill(false);
                            let lane = abs_scores.row(r)[c0..cmax].iter().copied();
                            let n = config.n_candidates[chosen[c0 / m]];
                            select::keep_unranked(lane, n, m, |i| keep[i] = true);
                        }
                    }
                }
                for c in 0..cols {
                    if ranks.col(r0)[c] == UNRANKED {
                        by_col
                            .iter_mut()
                            .skip(c)
                            .step_by(cols)
                            .for_each(|k| *k = false);
                        let lane = (r0..rmax).map(|r| abs_scores.row(r)[c]);
                        let n = config.n_candidates[chosen[c / m]];
                        select::keep_unranked(lane, n, m, |i| by_col[i * cols + c] = true);
                    }
                }
            }
            overlap_row.fill(0);
            overlap_col.fill(0);
            for ((r, keep_row), keep_col) in (r0..rmax)
                .zip(by_row.chunks_exact(cols))
                .zip(by_col.chunks_exact(cols))
            {
                let un = unstructured.row(r);
                for ((((u, a), b), o_row), o_col) in un
                    .iter()
                    .zip(keep_row)
                    .zip(keep_col)
                    .zip(&mut overlap_row)
                    .zip(&mut overlap_col)
                {
                    *o_row += u32::from(u & a);
                    *o_col += u32::from(u & b);
                }
            }
            for (bc, &i) in chosen.iter().enumerate() {
                let n = config.n_candidates[i];
                let coord = BlockCoord {
                    block_row: band,
                    block_col: bc,
                };
                let tile = bc * m..((bc + 1) * m).min(cols);
                // A block keeping none or all of itself keeps the same set
                // in both dimensions: the distances tie, and a tie takes
                // the reduction dimension.
                let overlap =
                    |o: &[u32]| o[tile.clone()].iter().map(|&x| u64::from(x)).sum::<u64>();
                let dim = if n == 0 || n == m || overlap(&overlap_row) >= overlap(&overlap_col) {
                    SparsityDim::Reduction
                } else {
                    SparsityDim::Independent
                };
                take_row[tile].fill(dim == SparsityDim::Reduction);
                blocks.push(BlockInfo { coord, n, dim });
            }
            for ((r, keep_row), keep_col) in (r0..rmax)
                .zip(by_row.chunks_exact(cols))
                .zip(by_col.chunks_exact(cols))
            {
                let out = mask.row_mut(r);
                for (((o, &t), &a), &b) in out.iter_mut().zip(&take_row).zip(keep_row).zip(keep_col)
                {
                    *o = if t { a } else { b };
                }
            }
        }

        TbsPattern {
            mask,
            blocks,
            config: config.clone(),
        }
    }

    /// Consumes the pattern and returns its mask without cloning.
    pub fn into_mask(self) -> Mask {
        self.mask
    }

    /// The combined keep/prune mask.
    pub fn mask(&self) -> &Mask {
        &self.mask
    }

    /// Per-block metadata in row-major block order.
    pub fn blocks(&self) -> &[BlockInfo] {
        &self.blocks
    }

    /// The configuration the pattern was built with.
    pub fn config(&self) -> &TbsConfig {
        &self.config
    }

    /// Block-grid shape `(block_rows, block_cols)`.
    pub fn grid(&self) -> (usize, usize) {
        let m = self.config.m;
        (
            blocks_along(self.mask.rows(), m),
            blocks_along(self.mask.cols(), m),
        )
    }

    /// The transposed pattern — the paper's titular property.
    ///
    /// DL training multiplies by `W` in the forward pass and by `Wᵀ` in
    /// the backward pass (§I challenge 1). A TBS pattern stays TBS under
    /// transposition: each `M × M` block transposes in place with its
    /// sparsity dimension flipped (a row-wise N:M block becomes a
    /// column-wise one and vice versa), so the *same* hardware
    /// accelerates both passes. One-dimensional patterns (TS/RS) lose
    /// their structure when transposed — this closure property is what
    /// earns TBS its name.
    ///
    /// # Examples
    ///
    /// ```
    /// use tbstc_matrix::rng::MatrixRng;
    /// use tbstc_sparsity::{TbsConfig, TbsPattern};
    ///
    /// let w = MatrixRng::seed_from(3).block_structured_weights(32, 32, 8);
    /// let p = TbsPattern::sparsify(&w, 0.5, &TbsConfig::paper_default());
    /// let t = p.transpose();
    /// t.assert_valid(); // still a structurally valid TBS pattern
    /// assert_eq!(t.transpose(), p); // involution
    /// ```
    pub fn transpose(&self) -> TbsPattern {
        let mut blocks: Vec<BlockInfo> = self
            .blocks
            .iter()
            .map(|b| BlockInfo {
                coord: BlockCoord {
                    block_row: b.coord.block_col,
                    block_col: b.coord.block_row,
                },
                n: b.n,
                dim: b.dim.flip(),
            })
            .collect();
        // Keep row-major block order in the transposed grid.
        blocks.sort_by_key(|b| (b.coord.block_row, b.coord.block_col));
        TbsPattern {
            mask: self.mask.transpose(),
            blocks,
            config: self.config.clone(),
        }
    }

    /// Checks the structural invariant: every block keeps at most `N`
    /// elements per lane of its sparsity dimension, and `N` is a configured
    /// candidate.
    ///
    /// # Panics
    ///
    /// Panics with a description of the first violated block.
    pub fn assert_valid(&self) {
        let m = self.config.m;
        for info in &self.blocks {
            assert!(
                self.config.n_candidates.contains(&info.n),
                "block {:?} uses non-candidate N {}",
                info.coord,
                info.n
            );
            let (r0, c0) = info.coord.origin(m);
            let block = self.mask.block(r0, c0, m, m);
            for lane in 0..m {
                let kept = match info.dim {
                    SparsityDim::Reduction => block.row_kept(lane),
                    SparsityDim::Independent => block.col_kept(lane),
                };
                assert!(
                    kept <= info.n,
                    "block {:?} lane {} keeps {} > N={} ({:?})",
                    info.coord,
                    lane,
                    kept,
                    info.n,
                    info.dim
                );
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pattern::Pattern;
    use proptest::prelude::*;
    use tbstc_matrix::rng::MatrixRng;

    fn cfg() -> TbsConfig {
        TbsConfig::paper_default()
    }

    #[test]
    fn paper_default_matches_paper() {
        let c = cfg();
        assert_eq!(c.m, 8);
        assert_eq!(c.n_candidates, vec![0, 1, 2, 4, 8]);
    }

    #[test]
    fn with_block_size_ladder() {
        let c = TbsConfig::with_block_size(16);
        assert_eq!(c.n_candidates, vec![0, 1, 2, 4, 8, 16]);
        c.validate();
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn with_block_size_rejects_non_pow2() {
        let _ = TbsConfig::with_block_size(6);
    }

    #[test]
    fn nearest_candidate_matches_density() {
        let cands = vec![0, 1, 2, 4, 8];
        let nearest = |density| cands[nearest(&cands, density, 8)];
        assert_eq!(nearest(0.0), 0);
        assert_eq!(nearest(0.13), 1);
        assert_eq!(nearest(0.5), 4);
        assert_eq!(nearest(1.0), 8);
    }

    #[test]
    fn sparsify_hits_target_sparsity() {
        let w = MatrixRng::seed_from(10).weights(64, 64);
        for &target in &[0.25, 0.5, 0.75, 0.875] {
            let p = TbsPattern::sparsify(&w, target, &cfg());
            p.assert_valid();
            assert!(
                (p.mask().sparsity() - target).abs() < 0.03,
                "target {target} got {}",
                p.mask().sparsity()
            );
        }
    }

    #[test]
    fn sparsify_zero_target_keeps_all() {
        let w = MatrixRng::seed_from(11).weights(16, 16);
        let p = TbsPattern::sparsify(&w, 0.0, &cfg());
        assert_eq!(p.mask().count_kept(), 256);
    }

    #[test]
    fn sparsify_full_target_prunes_all() {
        let w = MatrixRng::seed_from(12).weights(16, 16);
        let p = TbsPattern::sparsify(&w, 1.0, &cfg());
        assert_eq!(p.mask().count_kept(), 0);
    }

    #[test]
    fn blocks_choose_both_dimensions() {
        // A large random matrix should produce a mixture of directions
        // (paper Fig. 17: neither dimension dominates completely).
        let w = MatrixRng::seed_from(13).weights(128, 128);
        let p = TbsPattern::sparsify(&w, 0.6, &cfg());
        let row = p
            .blocks()
            .iter()
            .filter(|b| b.dim == SparsityDim::Reduction)
            .count();
        let col = p.blocks().len() - row;
        assert!(row > 0 && col > 0, "row {row} col {col}");
    }

    #[test]
    fn tbs_closer_to_unstructured_than_tile_pattern() {
        // The motivating claim: TBS mask is closer to the US mask than a
        // fixed-direction tile pattern at the same sparsity.
        let w = MatrixRng::seed_from(14).weights(64, 64);
        let target = 0.5;
        let abs = w.map(f32::abs);
        let us = Mask::top_k(&abs, (64 * 64) / 2);
        let p = TbsPattern::sparsify(&w, target, &cfg());
        let tile = crate::pattern::TileNm::new(4, 8).project(&abs, target);
        assert!(p.mask().hamming(&us) <= tile.hamming(&us));
    }

    #[test]
    fn non_multiple_shapes_are_padded() {
        let w = MatrixRng::seed_from(15).weights(20, 28); // not multiples of 8
        let p = TbsPattern::sparsify(&w, 0.5, &cfg());
        p.assert_valid();
        assert_eq!(p.mask().shape(), (20, 28));
        assert_eq!(p.grid(), (3, 4));
    }

    /// The sort-based per-block step 3 that the banded one replaced: the
    /// top `n` of every lane of `dim` (rows for reduction, columns for
    /// independent) of a square score block, each lane sorted by the
    /// comparator.
    fn nm_block_mask_oracle(block_scores: &Matrix, n: usize, dim: SparsityDim) -> Mask {
        let m = block_scores.rows();
        let mut mask = Mask::none(m, m);
        for lane in 0..m {
            let scores: Vec<f32> = (0..m)
                .map(|i| match dim {
                    SparsityDim::Reduction => block_scores[(lane, i)],
                    SparsityDim::Independent => block_scores[(i, lane)],
                })
                .collect();
            select::tile_top_n_by_comparator(&scores, n, |i| match dim {
                SparsityDim::Reduction => mask.set(lane, i, true),
                SparsityDim::Independent => mask.set(i, lane, true),
            });
        }
        mask
    }

    /// Scores drawn from an alphabet with ties, both zeros and negatives
    /// (and NaN when `nan`), mixed with Gaussian values.
    fn special_scores(seed: u64, rows: usize, cols: usize, nan: bool) -> Matrix {
        const ALPHABET: [f32; 8] = [0.0, -0.0, 1.0, -1.0, 0.5, -2.0, 1e-3, f32::NAN];
        let mut rng = MatrixRng::seed_from(seed);
        let pick = if nan { 8 } else { 7 };
        Matrix::from_fn(rows, cols, |_, _| match rng.index(pick + 3) {
            i if i < pick => ALPHABET[i],
            _ => rng.standard_normal(),
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn sparsify_matches_blockwise_reference(
            seed in 0u64..1000,
            rows in 1usize..30,
            cols in 1usize..30,
            target_pct in 0u32..=100,
            nan in 0usize..4,
            wide in 0usize..5,
        ) {
            // Step 3 must reproduce the allocate-per-block sort reference
            // exactly: same dimension choice, same kept positions.
            let config = TbsConfig::with_block_size([4, 8, 8, 16, 32][wide]);
            let m = config.m;
            let w = special_scores(seed, rows, cols, nan == 0);
            let target = f64::from(target_pct) / 100.0;
            let p = TbsPattern::sparsify(&w, target, &config);

            let abs_scores = w.map(f32::abs);
            let keep_total = ((1.0 - target) * w.len() as f64).round() as usize;
            let unstructured = Mask::top_k(&abs_scores, keep_total);
            for info in p.blocks() {
                let (r0, c0) = info.coord.origin(m);
                let block_scores = abs_scores.block(r0, c0, m, m);
                let block_un = unstructured.block(r0, c0, m, m);
                let row_mask = nm_block_mask_oracle(&block_scores, info.n, SparsityDim::Reduction);
                let col_mask = nm_block_mask_oracle(&block_scores, info.n, SparsityDim::Independent);
                let (dim, best) = if row_mask.hamming(&block_un) <= col_mask.hamming(&block_un) {
                    (SparsityDim::Reduction, row_mask)
                } else {
                    (SparsityDim::Independent, col_mask)
                };
                prop_assert_eq!(info.dim, dim, "block {:?}", info.coord);
                for r in 0..m {
                    for c in 0..m {
                        if r0 + r < w.rows() && c0 + c < w.cols() {
                            prop_assert_eq!(
                                p.mask().get(r0 + r, c0 + c),
                                best.get(r, c),
                                "block {:?} at ({},{})", info.coord, r, c
                            );
                        }
                    }
                }
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn trivial_blocks_match_oracle(
            seed in 0u64..1000,
            rows in 1usize..40,
            cols in 1usize..40,
            target in 0usize..6,
            block in 0usize..3,
            special in 0usize..3,
        ) {
            // Blocks whose N is 0 or M skip step 3's comparison: both
            // candidate sets are then the same, the block takes the
            // reduction dimension, and it keeps what either oracle mask
            // keeps in bounds. Edge targets make such blocks the rule.
            let target = [0.0, 0.02, 0.5, 0.95, 0.98, 1.0][target];
            let config = TbsConfig::with_block_size([4, 8, 16][block]);
            let m = config.m;
            let w = match special {
                0 => MatrixRng::seed_from(seed).block_structured_weights(rows, cols, m),
                s => special_scores(seed, rows, cols, s == 1),
            };
            let p = TbsPattern::sparsify(&w, target, &config);
            let abs_scores = w.map(f32::abs);
            for info in p.blocks().iter().filter(|b| b.n == 0 || b.n == m) {
                prop_assert_eq!(info.dim, SparsityDim::Reduction, "block {:?}", info.coord);
                let (r0, c0) = info.coord.origin(m);
                let block_scores = abs_scores.block(r0, c0, m, m);
                for dim in [SparsityDim::Reduction, SparsityDim::Independent] {
                    let want = nm_block_mask_oracle(&block_scores, info.n, dim);
                    for r in 0..m.min(w.rows() - r0) {
                        for c in 0..m.min(w.cols() - c0) {
                            prop_assert_eq!(p.mask().get(r0 + r, c0 + c), want.get(r, c));
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn into_mask_matches_mask() {
        let w = MatrixRng::seed_from(21).weights(16, 16);
        let p = TbsPattern::sparsify(&w, 0.5, &cfg());
        let mask = p.mask().clone();
        assert_eq!(p.into_mask(), mask);
    }

    #[test]
    fn block_info_density() {
        let b = BlockInfo {
            coord: BlockCoord {
                block_row: 0,
                block_col: 0,
            },
            n: 4,
            dim: SparsityDim::Reduction,
        };
        assert_eq!(b.density(8), 0.5);
    }

    #[test]
    fn sparsity_dim_flip() {
        assert_eq!(SparsityDim::Reduction.flip(), SparsityDim::Independent);
        assert_eq!(SparsityDim::Independent.flip(), SparsityDim::Reduction);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn valid_for_any_target(seed in 0u64..50, target_pct in 0u32..=100) {
            let target = f64::from(target_pct) / 100.0;
            let w = MatrixRng::seed_from(seed).weights(32, 32);
            let p = TbsPattern::sparsify(&w, target, &cfg());
            p.assert_valid();
            // Never keeps more than the dense count, never negative.
            prop_assert!(p.mask().count_kept() <= 32 * 32);
        }

        #[test]
        fn mask_kept_positions_score_above_block_median(seed in 0u64..20) {
            // Kept elements should generally be the important ones: the
            // total kept mass must exceed the mass of a random mask of the
            // same size.
            let w = MatrixRng::seed_from(seed).weights(32, 32);
            let p = TbsPattern::sparsify(&w, 0.5, &cfg());
            let kept_mass: f64 = p
                .mask()
                .iter_kept()
                .map(|(r, c)| f64::from(w[(r, c)].abs()))
                .sum();
            let total = w.l1_norm();
            let frac = kept_mass / total;
            // Random 50% mask keeps ~50% of mass; top-k style keeps much more.
            prop_assert!(frac > 0.6, "kept fraction {frac}");
        }
    }
}

#[cfg(test)]
mod transpose_tests {
    use super::*;
    use crate::pattern::paper_pattern;
    use proptest::prelude::*;
    use tbstc_matrix::rng::MatrixRng;

    #[test]
    fn transpose_is_valid_and_involutive() {
        let w = MatrixRng::seed_from(41).block_structured_weights(48, 64, 8);
        let p = TbsPattern::sparsify(&w, 0.6, &TbsConfig::paper_default());
        let t = p.transpose();
        t.assert_valid();
        assert_eq!(t.mask().shape(), (64, 48));
        assert_eq!(t.transpose(), p);
    }

    #[test]
    fn transpose_flips_every_block_dim() {
        let w = MatrixRng::seed_from(42).block_structured_weights(32, 32, 8);
        let p = TbsPattern::sparsify(&w, 0.5, &TbsConfig::paper_default());
        let t = p.transpose();
        for b in p.blocks() {
            let tb = t
                .blocks()
                .iter()
                .find(|x| {
                    x.coord.block_row == b.coord.block_col && x.coord.block_col == b.coord.block_row
                })
                .expect("transposed block exists");
            assert_eq!(tb.n, b.n);
            assert_eq!(tb.dim, b.dim.flip());
        }
    }

    #[test]
    fn transposed_mask_matches_mask_transpose() {
        let w = MatrixRng::seed_from(43).block_structured_weights(40, 24, 8);
        let p = TbsPattern::sparsify(&w, 0.75, &TbsConfig::paper_default());
        assert_eq!(*p.transpose().mask(), p.mask().transpose());
    }

    #[test]
    fn one_dimensional_patterns_do_not_survive_transposition() {
        // The motivating contrast: a TS (4:8 row-tile) mask transposed is
        // generally NOT a valid 4:8 row-tile mask, while TBS is closed
        // under transposition by construction.
        let w = MatrixRng::seed_from(44).block_structured_weights(64, 64, 8);
        let ts_mask = paper_pattern(crate::PatternKind::TileNm).project(&w, 0.5);
        let t = ts_mask.transpose();
        let mut violated = false;
        'outer: for r in 0..t.rows() {
            for tile0 in (0..t.cols()).step_by(8) {
                let kept = (tile0..(tile0 + 8).min(t.cols()))
                    .filter(|&c| t.get(r, c))
                    .count();
                if kept > 4 {
                    violated = true;
                    break 'outer;
                }
            }
        }
        assert!(violated, "transposed TS mask should violate 4:8 tiles");
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        #[test]
        fn transpose_closure_any_shape(seed in 0u64..100, t_pct in 0u32..=100) {
            let w = MatrixRng::seed_from(seed).block_structured_weights(24, 40, 8);
            let p = TbsPattern::sparsify(&w, f64::from(t_pct) / 100.0, &TbsConfig::paper_default());
            let t = p.transpose();
            t.assert_valid();
            prop_assert_eq!(t.mask().count_kept(), p.mask().count_kept());
        }
    }
}
