//! [`Scores`]: a score matrix and the work its projections share.
//!
//! Algorithm 1 and the baselines it is compared with read the same few
//! things from a score matrix: its absolute values, the global top-k at
//! the target sparsity (step 1, which US, RS-V and TBS start from), and
//! each score's rank within its `M`-wide row tile and `M`-tall column tile
//! (TS, RS-V and RS-H keep `{i : rank_i < N}` of each row tile, and TBS
//! step 3 of both). A [`Scores`] value holds them and computes each on
//! first use. Every pattern has one projection from it
//! ([`Pattern::project_scores`](crate::Pattern::project_scores),
//! [`TbsPattern::from_scores`](crate::TbsPattern::from_scores)), so a
//! caller that projects one matrix onto several patterns shares that work
//! by passing each the same value, in any order.

use tbstc_matrix::Matrix;

use crate::mask::Mask;
use crate::select::TileRanks;

/// The absolute values of a score matrix, with the global top-k at the
/// last target asked for and the tile-rank map at the last tile size
/// asked for.
///
/// A projection at another target recomputes the top-k, and one at
/// another tile size re-ranks the map in place, so the value holds at
/// most one of each. What a projection returns never depends on what the
/// value held before it.
///
/// # Examples
///
/// ```
/// use tbstc_matrix::rng::MatrixRng;
/// use tbstc_sparsity::pattern::{paper_pattern, Pattern};
/// use tbstc_sparsity::{PatternKind, Scores, TbsConfig, TbsPattern};
///
/// let w = MatrixRng::seed_from(0).weights(32, 32);
/// let mut scores = Scores::new(&w);
/// // RS-V and TBS share the top-k at 0.75 and the row-tile ranks.
/// let rsv = paper_pattern(PatternKind::RowWiseVegeta).project_scores(&mut scores, 0.75);
/// let tbs = TbsPattern::from_scores(&mut scores, 0.75, &TbsConfig::paper_default());
/// assert_eq!(rsv, paper_pattern(PatternKind::RowWiseVegeta).project(&w, 0.75));
/// assert_eq!(tbs, TbsPattern::sparsify(&w, 0.75, &TbsConfig::paper_default()));
/// ```
#[derive(Debug, Clone)]
pub struct Scores {
    abs: Matrix,
    top_k: Option<GlobalTopK>,
    ranks: TileRanks,
}

/// The global top-k at a target sparsity: step 1 of Algorithm 1.
#[derive(Debug, Clone)]
pub(crate) struct GlobalTopK {
    /// The target sparsity it was taken at.
    pub(crate) target: f64,
    /// How many elements the target keeps: `round((1 − target) · len)`.
    pub(crate) keep_total: usize,
    /// The unstructured mask: the `keep_total` largest absolute scores
    /// (ties and NaNs as in [`Mask::top_k`]).
    pub(crate) mask: Mask,
}

impl Scores {
    /// The scores `scores` (higher magnitude = more important), before
    /// any projection.
    pub fn new(scores: &Matrix) -> Self {
        Scores {
            abs: scores.map(f32::abs),
            top_k: None,
            ranks: TileRanks::default(),
        }
    }

    /// The absolute scores.
    pub(crate) fn abs(&self) -> &Matrix {
        &self.abs
    }

    /// The global top-k at `target`.
    pub(crate) fn top_k(&mut self, target: f64) -> &GlobalTopK {
        top_k_at(&mut self.top_k, &self.abs, target)
    }

    /// The absolute scores and their tile ranks at tile size `m`: the row
    /// tiles, and the column tiles too when `columns`.
    pub(crate) fn ranks(&mut self, m: usize, columns: bool) -> (&Matrix, &TileRanks) {
        self.ranks.rank(&self.abs, m, columns);
        (&self.abs, &self.ranks)
    }

    /// [`Scores::top_k`] and [`Scores::ranks`] at once, for the
    /// projections that read both (RS-V, TBS).
    pub(crate) fn ranked_top_k(
        &mut self,
        target: f64,
        m: usize,
        columns: bool,
    ) -> (&Matrix, &GlobalTopK, &TileRanks) {
        let top_k = top_k_at(&mut self.top_k, &self.abs, target);
        self.ranks.rank(&self.abs, m, columns);
        (&self.abs, top_k, &self.ranks)
    }
}

/// The top-k of `abs` at `target` held in `slot`, computed there unless
/// it holds the one at that target already. A stale one is dropped first.
fn top_k_at<'t>(slot: &'t mut Option<GlobalTopK>, abs: &Matrix, target: f64) -> &'t GlobalTopK {
    if slot.as_ref().is_some_and(|t| t.target != target) {
        *slot = None;
    }
    slot.get_or_insert_with(|| {
        let keep_total = ((1.0 - target) * abs.len() as f64).round() as usize;
        GlobalTopK {
            target,
            keep_total,
            mask: Mask::top_k(abs, keep_total),
        }
    })
}
