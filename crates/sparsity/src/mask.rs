//! Binary pruning masks.
//!
//! A [`Mask`] records which elements of a weight matrix are *kept*
//! (`true`) versus pruned to zero (`false`). Every sparsity pattern in this
//! crate is ultimately a procedure that maps an importance-score matrix to
//! a `Mask` subject to the pattern's structural constraint.

use std::fmt;

use tbstc_matrix::Matrix;

use crate::select;

/// A binary keep/prune mask with the same shape as the matrix it applies to.
///
/// # Examples
///
/// ```
/// use tbstc_matrix::Matrix;
/// use tbstc_sparsity::Mask;
///
/// let w = Matrix::from_rows(&[vec![3.0, -1.0], vec![0.5, 2.0]]).unwrap();
/// // Keep the 2 largest-magnitude elements.
/// let mask = Mask::top_k(&w.map(f32::abs), 2);
/// assert!(mask.get(0, 0) && mask.get(1, 1));
/// assert_eq!(mask.count_kept(), 2);
/// ```
#[derive(Clone, PartialEq, Eq)]
pub struct Mask {
    rows: usize,
    cols: usize,
    keep: Vec<bool>,
}

impl Mask {
    /// An all-pruned (dense-zero) mask.
    pub fn none(rows: usize, cols: usize) -> Self {
        Mask {
            rows,
            cols,
            keep: vec![false; rows * cols],
        }
    }

    /// An all-kept (dense) mask.
    pub fn all(rows: usize, cols: usize) -> Self {
        Mask {
            rows,
            cols,
            keep: vec![true; rows * cols],
        }
    }

    /// Builds a mask by evaluating `f(row, col)`.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> bool) -> Self {
        let mut keep = Vec::with_capacity(rows * cols);
        for r in 0..rows {
            for c in 0..cols {
                keep.push(f(r, c));
            }
        }
        Mask { rows, cols, keep }
    }

    /// Builds the mask of non-zero elements of `m`.
    pub fn nonzeros(m: &Matrix) -> Self {
        Mask::from_fn(m.rows(), m.cols(), |r, c| m[(r, c)] != 0.0)
    }

    /// Keeps the `k` highest-scoring elements of `scores` (global top-k, the
    /// unstructured-pruning projection).
    ///
    /// Ties are broken by position (earlier row-major positions win), which
    /// keeps the procedure deterministic. The ordering `(score desc, index
    /// asc)` is a strict total order, so the kept *set* is unique; the
    /// selection runs on integer keys that fuse each score with its
    /// position.
    pub fn top_k(scores: &Matrix, k: usize) -> Self {
        let data = scores.as_slice();
        let k = k.min(data.len());
        let mut keep = vec![false; data.len()];
        if k == data.len() {
            keep.iter_mut().for_each(|b| *b = true);
        } else if k > 0 {
            select::top_k(data, k, &mut keep);
        }
        Mask {
            rows: scores.rows(),
            cols: scores.cols(),
            keep,
        }
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

    /// Total number of positions.
    pub fn len(&self) -> usize {
        self.keep.len()
    }

    /// Returns `true` when the mask covers no positions.
    pub fn is_empty(&self) -> bool {
        self.keep.is_empty()
    }

    /// Whether position `(r, c)` is kept.
    ///
    /// # Panics
    ///
    /// Panics when the position is out of bounds.
    pub fn get(&self, r: usize, c: usize) -> bool {
        assert!(r < self.rows && c < self.cols, "mask index out of bounds");
        self.keep[r * self.cols + c]
    }

    /// Sets position `(r, c)`.
    ///
    /// # Panics
    ///
    /// Panics when the position is out of bounds.
    pub fn set(&mut self, r: usize, c: usize, kept: bool) {
        assert!(r < self.rows && c < self.cols, "mask index out of bounds");
        self.keep[r * self.cols + c] = kept;
    }

    /// Number of kept positions.
    pub fn count_kept(&self) -> usize {
        self.keep.iter().filter(|&&k| k).count()
    }

    /// Fraction of pruned positions (sparsity degree, paper §II-A).
    ///
    /// Returns `0.0` for an empty mask.
    pub fn sparsity(&self) -> f64 {
        if self.is_empty() {
            0.0
        } else {
            1.0 - self.count_kept() as f64 / self.len() as f64
        }
    }

    /// Number of kept positions in row `r`.
    ///
    /// # Panics
    ///
    /// Panics when `r` is out of bounds.
    pub fn row_kept(&self, r: usize) -> usize {
        self.row(r).iter().filter(|&&k| k).count()
    }

    /// Number of kept positions in column `c`.
    ///
    /// # Panics
    ///
    /// Panics when `c` is out of bounds.
    pub fn col_kept(&self, c: usize) -> usize {
        assert!(c < self.cols, "mask column out of bounds");
        self.keep
            .iter()
            .skip(c)
            .step_by(self.cols)
            .filter(|&&k| k)
            .count()
    }

    /// Borrows row `r` as a slice of keep flags (contiguous, `cols` long).
    ///
    /// # Panics
    ///
    /// Panics when `r` is out of bounds.
    pub fn row(&self, r: usize) -> &[bool] {
        assert!(r < self.rows, "mask row out of bounds");
        &self.keep[r * self.cols..(r + 1) * self.cols]
    }

    /// Mutably borrows row `r` as a slice of keep flags.
    pub(crate) fn row_mut(&mut self, r: usize) -> &mut [bool] {
        &mut self.keep[r * self.cols..(r + 1) * self.cols]
    }

    /// The transposed mask.
    pub fn transpose(&self) -> Mask {
        Mask::from_fn(self.cols, self.rows, |r, c| self.get(c, r))
    }

    /// Copies the `height × width` sub-mask at `(row0, col0)`, treating
    /// out-of-bounds positions as pruned.
    pub fn block(&self, row0: usize, col0: usize, height: usize, width: usize) -> Mask {
        Mask::from_fn(height, width, |r, c| {
            let (rr, cc) = (row0 + r, col0 + c);
            rr < self.rows && cc < self.cols && self.get(rr, cc)
        })
    }

    /// Borrows the `height × width` sub-mask at `(row0, col0)` without
    /// copying; out-of-bounds positions read as pruned, exactly like
    /// [`Mask::block`].
    pub fn block_view(
        &self,
        row0: usize,
        col0: usize,
        height: usize,
        width: usize,
    ) -> MaskBlockView<'_> {
        MaskBlockView {
            source: self,
            row0,
            col0,
            height,
            width,
        }
    }

    /// Writes `block` into `self` at `(row0, col0)`, ignoring out-of-bounds
    /// positions.
    pub fn set_block(&mut self, row0: usize, col0: usize, block: &Mask) {
        for r in 0..block.rows {
            for c in 0..block.cols {
                if row0 + r < self.rows && col0 + c < self.cols {
                    self.set(row0 + r, col0 + c, block.get(r, c));
                }
            }
        }
    }

    /// Hamming distance: number of positions where the masks disagree.
    ///
    /// This is the `L1` distance of Algorithm 1 step 3 when masks are viewed
    /// as 0/1 matrices.
    ///
    /// # Panics
    ///
    /// Panics when shapes differ.
    pub fn hamming(&self, other: &Mask) -> usize {
        assert_eq!(self.shape(), other.shape(), "mask shape mismatch");
        self.keep
            .iter()
            .zip(&other.keep)
            .filter(|(a, b)| a != b)
            .count()
    }

    /// Number of positions kept by both masks.
    ///
    /// # Panics
    ///
    /// Panics when shapes differ.
    pub fn intersection_kept(&self, other: &Mask) -> usize {
        assert_eq!(self.shape(), other.shape(), "mask shape mismatch");
        self.keep
            .iter()
            .zip(&other.keep)
            .filter(|(&a, &b)| a && b)
            .count()
    }

    /// Applies the mask: returns `w` with pruned positions zeroed.
    ///
    /// # Panics
    ///
    /// Panics when shapes differ.
    pub fn apply(&self, w: &Matrix) -> Matrix {
        let mut out = Matrix::zeros(0, 0);
        self.apply_into(w, &mut out);
        out
    }

    /// Applies the mask into `out`, reusing `out`'s allocation — the
    /// zero-realloc path behind the effective-weight cache in
    /// `tbstc-train`.
    ///
    /// # Panics
    ///
    /// Panics when shapes differ.
    pub fn apply_into(&self, w: &Matrix, out: &mut Matrix) {
        assert_eq!(self.shape(), w.shape(), "mask/matrix shape mismatch");
        out.reset(self.rows, self.cols);
        // A select rather than a branch on `kept`, so the loop vectorises
        // and never mispredicts: about half the bits flip at 50 %.
        for ((o, &v), &kept) in out
            .as_mut_slice()
            .iter_mut()
            .zip(w.as_slice())
            .zip(&self.keep)
        {
            *o = if kept { v } else { 0.0 };
        }
    }

    /// Converts the mask to a 0/1 matrix.
    pub fn to_matrix(&self) -> Matrix {
        Matrix::from_fn(self.rows, self.cols, |r, c| {
            f32::from(u8::from(self.get(r, c)))
        })
    }

    /// Iterates over the kept coordinates in row-major order.
    pub fn iter_kept(&self) -> impl Iterator<Item = (usize, usize)> + '_ {
        let cols = self.cols;
        self.keep
            .iter()
            .enumerate()
            .filter(|(_, &k)| k)
            .map(move |(i, _)| (i / cols, i % cols))
    }
}

/// A borrowed, pruned-padded window into a [`Mask`].
///
/// Created by [`Mask::block_view`]. Positions whose source coordinates
/// fall outside the underlying mask read as pruned (`false`), mirroring
/// [`Mask::block`] — but without allocating a sub-mask, which keeps the
/// per-block loops of the TBS sparsifier allocation-free.
#[derive(Debug, Clone, Copy)]
pub struct MaskBlockView<'a> {
    source: &'a Mask,
    row0: usize,
    col0: usize,
    height: usize,
    width: usize,
}

impl MaskBlockView<'_> {
    /// Number of rows in the window (including padding).
    pub fn rows(&self) -> usize {
        self.height
    }

    /// Number of columns in the window (including padding).
    pub fn cols(&self) -> usize {
        self.width
    }

    /// Whether window position `(r, c)` is kept; `false` where the window
    /// hangs off the underlying mask.
    ///
    /// # Panics
    ///
    /// Panics when `(r, c)` is outside the window itself.
    pub fn get(&self, r: usize, c: usize) -> bool {
        assert!(
            r < self.height && c < self.width,
            "view index out of bounds"
        );
        let (rr, cc) = (self.row0 + r, self.col0 + c);
        rr < self.source.rows && cc < self.source.cols && self.source.get(rr, cc)
    }

    /// Number of kept positions in the window (padding counts as pruned),
    /// equal to `self.to_mask().count_kept()` without the copy.
    pub fn count_kept(&self) -> usize {
        let rmax = (self.row0 + self.height).min(self.source.rows);
        let cmax = (self.col0 + self.width).min(self.source.cols);
        let mut kept = 0;
        for r in self.row0..rmax {
            kept += self.source.keep[r * self.source.cols + self.col0..r * self.source.cols + cmax]
                .iter()
                .filter(|&&k| k)
                .count();
        }
        kept
    }

    /// Materializes the window as an owned [`Mask`] (equivalent to
    /// [`Mask::block`]).
    pub fn to_mask(&self) -> Mask {
        self.source
            .block(self.row0, self.col0, self.height, self.width)
    }
}

impl fmt::Debug for Mask {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "Mask {}x{} ({} kept, sparsity {:.3}) [",
            self.rows,
            self.cols,
            self.count_kept(),
            self.sparsity()
        )?;
        for r in 0..self.rows.min(16) {
            let row: String = (0..self.cols.min(64))
                .map(|c| if self.get(r, c) { '#' } else { '.' })
                .collect();
            writeln!(f, "  {row}")?;
        }
        if self.rows > 16 {
            writeln!(f, "  ...")?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use tbstc_matrix::rng::MatrixRng;

    #[test]
    fn none_and_all() {
        assert_eq!(Mask::none(2, 3).count_kept(), 0);
        assert_eq!(Mask::all(2, 3).count_kept(), 6);
        assert_eq!(Mask::none(2, 3).sparsity(), 1.0);
        assert_eq!(Mask::all(2, 3).sparsity(), 0.0);
    }

    #[test]
    fn top_k_keeps_largest() {
        let s = Matrix::from_rows(&[vec![1.0, 9.0, 3.0], vec![7.0, 2.0, 8.0]]).unwrap();
        let m = Mask::top_k(&s, 3);
        assert!(m.get(0, 1) && m.get(1, 0) && m.get(1, 2));
        assert_eq!(m.count_kept(), 3);
    }

    #[test]
    fn top_k_tie_break_is_deterministic() {
        let s = Matrix::filled(2, 2, 1.0);
        let m = Mask::top_k(&s, 2);
        assert!(m.get(0, 0) && m.get(0, 1));
        assert!(!m.get(1, 0) && !m.get(1, 1));
    }

    #[test]
    fn top_k_clamps_to_len() {
        let m = Mask::top_k(&Matrix::zeros(2, 2), 100);
        assert_eq!(m.count_kept(), 4);
    }

    #[test]
    fn apply_zeroes_pruned() {
        let w = Matrix::filled(2, 2, 3.0);
        let mut mask = Mask::all(2, 2);
        mask.set(0, 1, false);
        let out = mask.apply(&w);
        assert_eq!(out[(0, 1)], 0.0);
        assert_eq!(out[(1, 1)], 3.0);
    }

    #[test]
    fn hamming_counts_disagreements() {
        let a = Mask::all(2, 2);
        let mut b = Mask::all(2, 2);
        b.set(0, 0, false);
        b.set(1, 1, false);
        assert_eq!(a.hamming(&b), 2);
        assert_eq!(a.hamming(&a), 0);
    }

    #[test]
    fn transpose_preserves_counts() {
        let s = MatrixRng::seed_from(1).uniform(5, 7, 0.0, 1.0);
        let m = Mask::top_k(&s, 13);
        let t = m.transpose();
        assert_eq!(t.shape(), (7, 5));
        assert_eq!(t.count_kept(), 13);
        assert!(m.get(2, 4) == t.get(4, 2));
    }

    #[test]
    fn block_round_trip() {
        let s = MatrixRng::seed_from(2).uniform(8, 8, 0.0, 1.0);
        let m = Mask::top_k(&s, 20);
        let mut rebuilt = Mask::none(8, 8);
        for r0 in (0..8).step_by(4) {
            for c0 in (0..8).step_by(4) {
                rebuilt.set_block(r0, c0, &m.block(r0, c0, 4, 4));
            }
        }
        assert_eq!(rebuilt, m);
    }

    #[test]
    fn block_out_of_bounds_is_pruned() {
        let m = Mask::all(3, 3);
        let b = m.block(2, 2, 2, 2);
        assert!(b.get(0, 0));
        assert!(!b.get(1, 1));
    }

    #[test]
    fn block_view_matches_block() {
        let s = MatrixRng::seed_from(5).uniform(7, 9, 0.0, 1.0);
        let m = Mask::top_k(&s, 30);
        // Window hanging off both edges.
        let v = m.block_view(5, 6, 4, 4);
        let b = m.block(5, 6, 4, 4);
        assert_eq!(v.rows(), 4);
        assert_eq!(v.cols(), 4);
        for r in 0..4 {
            for c in 0..4 {
                assert_eq!(v.get(r, c), b.get(r, c));
            }
        }
        assert_eq!(v.count_kept(), b.count_kept());
        assert_eq!(v.to_mask(), b);
    }

    #[test]
    fn apply_into_matches_apply() {
        let s = MatrixRng::seed_from(6).uniform(6, 6, -1.0, 1.0);
        let m = Mask::top_k(&s.map(f32::abs), 20);
        let mut out = Matrix::filled(2, 2, 9.0);
        m.apply_into(&s, &mut out);
        assert_eq!(out, m.apply(&s));
    }

    /// The branching loop the select in `apply_into` replaced: zero the
    /// output, then copy each kept weight.
    fn apply_oracle(mask: &Mask, w: &Matrix) -> Matrix {
        let mut out = Matrix::zeros(mask.rows(), mask.cols());
        for ((o, &v), &kept) in out
            .as_mut_slice()
            .iter_mut()
            .zip(w.as_slice())
            .zip(&mask.keep)
        {
            if kept {
                *o = v;
            }
        }
        out
    }

    #[test]
    fn row_col_counts() {
        let m = Mask::from_fn(3, 3, |r, c| r == c);
        assert_eq!(m.row_kept(1), 1);
        assert_eq!(m.col_kept(2), 1);
        // Slice and strided counts agree with element-wise `get` counts.
        let s = MatrixRng::seed_from(9).uniform(7, 5, 0.0, 1.0);
        let m = Mask::top_k(&s, 17);
        for r in 0..7 {
            assert_eq!(m.row_kept(r), (0..5).filter(|&c| m.get(r, c)).count());
        }
        for c in 0..5 {
            assert_eq!(m.col_kept(c), (0..7).filter(|&r| m.get(r, c)).count());
        }
    }

    #[test]
    fn iter_kept_row_major() {
        let m = Mask::from_fn(2, 2, |r, c| r != c);
        let v: Vec<_> = m.iter_kept().collect();
        assert_eq!(v, vec![(0, 1), (1, 0)]);
    }

    #[test]
    fn nonzeros_matches_matrix() {
        let w = Matrix::from_rows(&[vec![0.0, 1.0], vec![-2.0, 0.0]]).unwrap();
        let m = Mask::nonzeros(&w);
        assert!(!m.get(0, 0) && m.get(0, 1) && m.get(1, 0) && !m.get(1, 1));
    }

    #[test]
    fn debug_shows_grid() {
        let m = Mask::all(1, 3);
        assert!(format!("{m:?}").contains("###"));
    }

    proptest! {
        #[test]
        fn top_k_exact_count(k in 0usize..64, seed in 0u64..100) {
            let s = MatrixRng::seed_from(seed).uniform(8, 8, 0.0, 1.0);
            prop_assert_eq!(Mask::top_k(&s, k).count_kept(), k.min(64));
        }

        #[test]
        fn apply_then_nonzeros_subset(seed in 0u64..100) {
            let mut rng = MatrixRng::seed_from(seed);
            let w = rng.uniform(6, 6, 0.5, 1.0); // strictly non-zero weights
            let m = Mask::top_k(&w, 18);
            let kept = Mask::nonzeros(&m.apply(&w));
            prop_assert_eq!(kept, m);
        }

        #[test]
        fn apply_into_matches_branching_oracle(
            seed in 0u64..1000,
            rows in 0usize..20,
            cols in 0usize..20,
            fill in 0usize..4,
        ) {
            // NaN (two payloads), both zeros and both infinities among the
            // weights; random, all-kept and none-kept masks.
            const SPECIAL: [f32; 6] = [
                f32::NAN,
                -0.0,
                0.0,
                f32::INFINITY,
                f32::NEG_INFINITY,
                f32::from_bits(0x7fc0_0001),
            ];
            let mut rng = MatrixRng::seed_from(seed);
            let w = Matrix::from_fn(rows, cols, |_, _| match rng.index(10) {
                i if i < SPECIAL.len() => SPECIAL[i],
                _ => rng.standard_normal(),
            });
            let mask = match fill {
                0 => Mask::all(rows, cols),
                1 => Mask::none(rows, cols),
                _ => Mask::from_fn(rows, cols, |_, _| rng.index(2) == 0),
            };
            // A stale, differently shaped buffer must not leak through.
            let mut out = Matrix::filled(3, 5, 7.0);
            mask.apply_into(&w, &mut out);
            let bits = |m: &Matrix| m.as_slice().iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            prop_assert_eq!(out.shape(), (rows, cols));
            prop_assert_eq!(bits(&out), bits(&apply_oracle(&mask, &w)));
        }

        #[test]
        fn transpose_involution(seed in 0u64..100) {
            let s = MatrixRng::seed_from(seed).uniform(5, 9, 0.0, 1.0);
            let m = Mask::top_k(&s, 11);
            prop_assert_eq!(m.transpose().transpose(), m);
        }
    }
}
