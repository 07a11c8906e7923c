//! The sparsity-pattern family the paper compares (§II-A, Fig. 4(a)).
//!
//! Every pattern is a projection from an importance-score matrix onto a
//! structurally-constrained binary mask at a target sparsity degree:
//!
//! | Pattern | Paper name | Structure |
//! |---|---|---|
//! | [`Dense`] | Dense | keep everything |
//! | [`Unstructured`] | US | global top-k |
//! | [`TileNm`] | TS | fixed N:M in every M-element tile (NVIDIA STC) |
//! | [`RowWiseVegeta`] | RS-V | per-row N, N:M tiles within the row (VEGETA) |
//! | [`RowWiseHighlight`] | RS-H | hierarchical tile-level + element-level ratio (HighLight) |
//! | [`Tbs`] | TBS | per-block N **and** per-block dimension (this paper) |

use std::fmt;

use tbstc_matrix::Matrix;

use crate::mask::Mask;
use crate::scores::Scores;
use crate::select::{self, TileRanks};
use crate::tbs::{TbsConfig, TbsPattern};

/// Identifies a sparsity pattern for reporting, using the paper's names.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum PatternKind {
    /// No pruning.
    Dense,
    /// Unstructured (element-wise top-k).
    Unstructured,
    /// Tile-wise N:M (NVIDIA Sparse Tensor Core).
    TileNm,
    /// Row-wise N:M with per-row N (VEGETA).
    RowWiseVegeta,
    /// Hierarchical row-wise sparsity (HighLight).
    RowWiseHighlight,
    /// Transposable block-wise N:M (this paper).
    Tbs,
}

impl PatternKind {
    /// All pattern kinds in the order the paper's tables list them.
    pub const ALL: [PatternKind; 6] = [
        PatternKind::Dense,
        PatternKind::Unstructured,
        PatternKind::TileNm,
        PatternKind::RowWiseVegeta,
        PatternKind::RowWiseHighlight,
        PatternKind::Tbs,
    ];

    /// The sparse patterns compared in Tables I and II (everything but
    /// dense).
    pub const SPARSE: [PatternKind; 5] = [
        PatternKind::Unstructured,
        PatternKind::TileNm,
        PatternKind::RowWiseVegeta,
        PatternKind::RowWiseHighlight,
        PatternKind::Tbs,
    ];
}

impl fmt::Display for PatternKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            PatternKind::Dense => "Dense",
            PatternKind::Unstructured => "US",
            PatternKind::TileNm => "TS",
            PatternKind::RowWiseVegeta => "RS-V",
            PatternKind::RowWiseHighlight => "RS-H",
            PatternKind::Tbs => "TBS",
        };
        f.write_str(name)
    }
}

/// A sparsity pattern: a structured projection of importance scores onto a
/// binary mask.
///
/// Implementations must return a mask of the same shape as the scores
/// whose sparsity is as close to `target` as the pattern's structure
/// permits.
pub trait Pattern: fmt::Debug {
    /// Which pattern this is, for reporting.
    fn kind(&self) -> PatternKind;

    /// Projects `scores` onto the pattern's constraint at sparsity
    /// `target`, reusing what `scores` holds from earlier projections.
    fn project_scores(&self, scores: &mut Scores, target: f64) -> Mask;

    /// Projects `scores` onto the pattern's constraint at sparsity `target`.
    fn project(&self, scores: &Matrix, target: f64) -> Mask {
        self.project_scores(&mut Scores::new(scores), target)
    }
}

/// Constructs the paper-default instance of each pattern kind
/// (block/tile size 8, candidate ladder `{0, 1, 2, 4, 8}`).
pub fn paper_pattern(kind: PatternKind) -> Box<dyn Pattern> {
    match kind {
        PatternKind::Dense => Box::new(Dense),
        PatternKind::Unstructured => Box::new(Unstructured),
        PatternKind::TileNm => Box::new(TileNm::for_target(8)),
        PatternKind::RowWiseVegeta => Box::new(RowWiseVegeta::paper_default()),
        PatternKind::RowWiseHighlight => Box::new(RowWiseHighlight::paper_default()),
        PatternKind::Tbs => Box::new(Tbs(TbsConfig::paper_default())),
    }
}

/// The dense non-pattern: keeps everything regardless of target.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Dense;

impl Pattern for Dense {
    fn kind(&self) -> PatternKind {
        PatternKind::Dense
    }

    fn project_scores(&self, scores: &mut Scores, _target: f64) -> Mask {
        Mask::all(scores.abs().rows(), scores.abs().cols())
    }
}

/// Unstructured pruning: global top-k by score.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Unstructured;

impl Pattern for Unstructured {
    fn kind(&self) -> PatternKind {
        PatternKind::Unstructured
    }

    fn project_scores(&self, scores: &mut Scores, target: f64) -> Mask {
        scores.top_k(target).mask.clone()
    }
}

/// Tile-wise N:M sparsity (TS): every `M`-element tile along the reduction
/// dimension keeps at most `N` elements, with the same `N` everywhere.
///
/// This is the NVIDIA Sparse Tensor Core pattern; the hardware supports
/// 2:4 (the paper evaluates its 4:8 equivalent, 50 % sparsity).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TileNm {
    n: usize,
    m: usize,
}

impl TileNm {
    /// A fixed `N:M` tile pattern.
    ///
    /// # Panics
    ///
    /// Panics when `n > m` or `m == 0`.
    pub fn new(n: usize, m: usize) -> Self {
        assert!(m > 0 && n <= m, "need N <= M and M > 0");
        TileNm { n, m }
    }

    /// A tile pattern with tile size `m` whose `N` is chosen per projection
    /// from the target sparsity (`N = round((1 − target) · M)`).
    pub fn for_target(m: usize) -> Self {
        // `n` is recomputed in `project`; stored value marks "adaptive".
        TileNm { n: m, m }
    }

    /// The tile size `M`.
    pub fn m(&self) -> usize {
        self.m
    }

    /// `N` for a given target sparsity (at least the structure allows).
    fn n_for(&self, target: f64) -> usize {
        (((1.0 - target) * self.m as f64).round() as usize).min(self.m)
    }
}

impl Pattern for TileNm {
    fn kind(&self) -> PatternKind {
        PatternKind::TileNm
    }

    fn project_scores(&self, scores: &mut Scores, target: f64) -> Mask {
        let n = self.n.min(self.n_for(target));
        let (abs, ranks) = scores.ranks(self.m, false);
        keep_every_tile(abs, ranks, self.m, n)
    }
}

/// VEGETA's row-wise N:M (RS-V): each row chooses its own `N` from a
/// candidate ladder; tiles within the row share that `N`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RowWiseVegeta {
    m: usize,
    candidates: Vec<usize>,
}

impl RowWiseVegeta {
    /// The paper-default configuration: `M = 8`, `N ∈ {0, 1, 2, 4, 8}`.
    pub fn paper_default() -> Self {
        RowWiseVegeta {
            m: 8,
            candidates: vec![0, 1, 2, 4, 8],
        }
    }

    /// Custom tile size and candidate ladder.
    ///
    /// # Panics
    ///
    /// Panics when candidates are not strictly increasing or exceed `m`.
    #[expect(
        clippy::expect_used,
        reason = "the constructor IS the validation; candidates come from builtin arch tables"
    )]
    pub fn new(m: usize, candidates: Vec<usize>) -> Self {
        assert!(m > 0, "tile size must be positive");
        assert!(
            candidates.windows(2).all(|w| w[0] < w[1]),
            "sorted candidates"
        );
        assert!(*candidates.last().expect("non-empty") <= m, "N <= M");
        RowWiseVegeta { m, candidates }
    }
}

impl Pattern for RowWiseVegeta {
    fn kind(&self) -> PatternKind {
        PatternKind::RowWiseVegeta
    }

    fn project_scores(&self, scores: &mut Scores, target: f64) -> Mask {
        let (abs, top_k, ranks, masses) = scores.ranked_top_k(target, self.m, false);
        let (rows, cols) = abs.shape();
        // Per-row N (as an index into the candidates) matching the row's
        // unstructured density, then adjusted towards the target kept
        // count.
        let mut row_cand: Vec<usize> = (0..rows)
            .map(|r| {
                let density = top_k.mask.row_kept(r) as f64 / cols as f64;
                nearest(&self.candidates, density, self.m)
            })
            .collect();
        let tiles_per_row = cols.div_ceil(self.m);
        adjust_to_target(
            &mut row_cand,
            &self.candidates,
            tiles_per_row,
            top_k.keep_total,
            || masses.rows(abs),
        );

        let mut mask = Mask::none(rows, cols);
        for (r, &i) in row_cand.iter().enumerate() {
            keep_row_tiles(abs, ranks, r, self.m, self.candidates[i], &mut mask);
        }
        mask
    }
}

/// HighLight's hierarchical sparsity (RS-H): a tensor-wide two-level ratio.
/// Level 1 keeps `T` of every `G` tiles (chosen by mass); level 2 keeps
/// `N` of every `M` elements inside kept tiles.
///
/// The achievable density ladder `T/G × N/M` is finer than TS's single
/// ratio, which is where HighLight's flexibility comes from.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RowWiseHighlight {
    m: usize,
    group: usize,
    candidates: Vec<usize>,
}

impl RowWiseHighlight {
    /// The paper-default configuration: `M = 8`, groups of `G = 2` tiles,
    /// element candidates `{1, 2, 4, 8}`.
    pub fn paper_default() -> Self {
        RowWiseHighlight {
            m: 8,
            group: 2,
            candidates: vec![1, 2, 4, 8],
        }
    }

    /// Enumerates achievable `(tiles_kept, n)` configurations with their
    /// densities.
    fn configs(&self) -> Vec<(usize, usize, f64)> {
        let mut v = Vec::new();
        v.push((0, 0, 0.0));
        for t in 1..=self.group {
            for &n in &self.candidates {
                let density = (t as f64 / self.group as f64) * (n as f64 / self.m as f64);
                v.push((t, n, density));
            }
        }
        v
    }

    /// Keeps, per group of `group` tiles in each row of `scores`, the
    /// `tiles_kept` heaviest tiles by `|scores|` and the top `n` elements
    /// inside each, read from `ranks` (the tile ranks of `scores` at `m`).
    fn keep_ranked_tiles(
        &self,
        scores: &Matrix,
        ranks: &TileRanks,
        tiles_kept: usize,
        n: usize,
    ) -> Mask {
        let mut mask = Mask::none(scores.rows(), scores.cols());
        // Per row, every tile's f64 mass is summed once (in column order,
        // as ranking always summed it); each group then stable-sorts its
        // tiles by mass, heaviest first, and keeps the first `tiles_kept`.
        let mut masses: Vec<f64> = Vec::with_capacity(scores.cols().div_ceil(self.m));
        let mut ranked: Vec<usize> = Vec::with_capacity(self.group);
        for r in 0..scores.rows() {
            let row = scores.row(r);
            let row_ranks = ranks.row(r);
            masses.clear();
            masses.extend(
                row.chunks(self.m)
                    .map(|tile| tile.iter().map(|&x| f64::from(x.abs())).sum::<f64>()),
            );
            let out = mask.row_mut(r);
            for g0 in (0..masses.len()).step_by(self.group) {
                ranked.clear();
                ranked.extend(g0..(g0 + self.group).min(masses.len()));
                ranked.sort_by(|&a, &b| {
                    masses[b]
                        .partial_cmp(&masses[a])
                        .unwrap_or(std::cmp::Ordering::Equal)
                });
                for &t in ranked.iter().take(tiles_kept) {
                    let tile = t * self.m..((t + 1) * self.m).min(row.len());
                    select::keep_tile(
                        &row[tile.clone()],
                        &row_ranks[tile.clone()],
                        n,
                        &mut out[tile],
                    );
                }
            }
        }
        mask
    }
}

impl Pattern for RowWiseHighlight {
    fn kind(&self) -> PatternKind {
        PatternKind::RowWiseHighlight
    }

    fn project_scores(&self, scores: &mut Scores, target: f64) -> Mask {
        let density = 1.0 - target;
        // Tensor-wide hierarchical ratio closest to the target density.
        #[expect(
            clippy::expect_used,
            reason = "configs is a non-empty builtin table, min_by cannot return None"
        )]
        let (tiles_kept, n, _) = self
            .configs()
            .into_iter()
            .min_by(|a, b| {
                (a.2 - density)
                    .abs()
                    .partial_cmp(&(b.2 - density).abs())
                    .unwrap_or(std::cmp::Ordering::Equal)
                    // Prefer denser configs on ties (conservative on
                    // accuracy), and among equal densities keep *more
                    // tiles* — spreading the budget (e.g. two 4:8 tiles)
                    // retains far more information than one dense tile.
                    .then(b.2.partial_cmp(&a.2).unwrap_or(std::cmp::Ordering::Equal))
                    .then(b.0.cmp(&a.0))
            })
            .expect("configs non-empty");
        let (abs, ranks) = scores.ranks(self.m, false);
        if tiles_kept < self.group {
            self.keep_ranked_tiles(abs, ranks, tiles_kept, n)
        } else {
            // Keeping every tile of each group (as at the paper's
            // targets) keeps them whatever their masses.
            keep_every_tile(abs, ranks, self.m, n)
        }
    }
}

/// TBS as a [`Pattern`], delegating to [`TbsPattern::from_scores`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Tbs(pub TbsConfig);

impl Pattern for Tbs {
    fn kind(&self) -> PatternKind {
        PatternKind::Tbs
    }

    fn project_scores(&self, scores: &mut Scores, target: f64) -> Mask {
        TbsPattern::from_scores(scores, target, &self.0).into_mask()
    }
}

/// The top `n` of `|scores|` in every `m`-wide tile of every row, read
/// from the tile `ranks` of `scores` at `m`.
fn keep_every_tile(scores: &Matrix, ranks: &TileRanks, m: usize, n: usize) -> Mask {
    let mut mask = Mask::none(scores.rows(), scores.cols());
    for r in 0..scores.rows() {
        keep_row_tiles(scores, ranks, r, m, n, &mut mask);
    }
    mask
}

/// Keeps the top `n` of `|scores|` in every `m`-wide tile of row `r`
/// (the last tile may be narrower), read from the row's tile `ranks`:
/// in one pass over the row when every tile is ranked.
fn keep_row_tiles(
    scores: &Matrix,
    ranks: &TileRanks,
    r: usize,
    m: usize,
    n: usize,
    mask: &mut Mask,
) {
    let out = mask.row_mut(r);
    if ranks.any_unranked() {
        keep_tiles(scores.row(r), ranks.row(r), m, n, out);
    } else {
        // A ranked tile keeps `{i : rank_i < n}`, so one pass keeps them all.
        select::keep_ranked(ranks.row(r), n, out);
    }
}

/// Marks the top `n` of every `m`-wide tile of `row` (absolute scores) in
/// `out` (all `false` on entry), one tile at a time from their `ranks`.
fn keep_tiles(row: &[f32], ranks: &[u8], m: usize, n: usize, out: &mut [bool]) {
    for ((tile, ranks), out) in row.chunks(m).zip(ranks.chunks(m)).zip(out.chunks_mut(m)) {
        select::keep_tile(tile, ranks, n, out);
    }
}

/// The index of the candidate `N` whose density `N/M` is nearest
/// `density`, the denser one on a tie (Algorithm 1 line 6, reading `s_p`
/// as the block *density* — the printed formula `|N_i/M − s_p|` with
/// `s_p` the sparsity degree is a typo: `N/M` is a density, so it must be
/// compared with the density `1 − s_p`).
#[expect(
    clippy::expect_used,
    reason = "callers pass constructor-validated non-empty candidate sets"
)]
pub(crate) fn nearest(candidates: &[usize], density: f64, m: usize) -> usize {
    candidates
        .iter()
        .enumerate()
        .min_by(|&(_, &a), &(_, &b)| {
            let da = (a as f64 / m as f64 - density).abs();
            let db = (b as f64 / m as f64 - density).abs();
            da.partial_cmp(&db)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(b.cmp(&a))
        })
        .expect("candidates non-empty")
        .0
}

/// Adjusts per-unit `N` choices (RS-V rows, TBS blocks), each carried as
/// its index into `candidates`, so that the total kept count, `N · lanes`
/// per unit, is as close as possible to `keep_total` (paper: "ensuring the
/// overall sparsity meets the predetermined target").
///
/// Greedy: while the count is off, move one unit one candidate step
/// towards the target, choosing among the steps that bring the count
/// closer the unit with the most (when increasing) or least (when
/// decreasing) importance mass, the first such unit on a tie. `mass`
/// gives every unit's mass, and is called only when the count is off.
pub(crate) fn adjust_to_target<'m>(
    chosen: &mut [usize],
    candidates: &[usize],
    lanes: usize,
    keep_total: usize,
    mass: impl FnOnce() -> &'m [f64],
) {
    let kept_of = |i: usize| (candidates[i] * lanes) as i64;
    let mut total: i64 = chosen.iter().map(|&i| kept_of(i)).sum();
    let target = keep_total as i64;
    if total == target {
        return;
    }
    let mass = mass();
    loop {
        let deficit = target - total;
        if deficit == 0 {
            break;
        }
        let up = deficit > 0;
        let mut best: Option<(usize, usize, f64)> = None; // (unit, new index, mass)
        for (u, &i) in chosen.iter().enumerate() {
            let stepped = if up {
                Some(i + 1).filter(|&s| s < candidates.len())
            } else {
                i.checked_sub(1)
            };
            let Some(new_i) = stepped else { continue };
            if (total + kept_of(new_i) - kept_of(i) - target).abs() >= deficit.abs() {
                continue;
            }
            let better = match best {
                None => true,
                Some((_, _, best_mass)) if up => mass[u] > best_mass,
                Some((_, _, best_mass)) => mass[u] < best_mass,
            };
            if better {
                best = Some((u, new_i, mass[u]));
            }
        }
        let Some((u, new_i, _)) = best else {
            break;
        };
        total += kept_of(new_i) - kept_of(chosen[u]);
        chosen[u] = new_i;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tbstc_matrix::rng::MatrixRng;

    fn weights(seed: u64) -> Matrix {
        MatrixRng::seed_from(seed).weights(64, 64)
    }

    #[test]
    fn kinds_display_paper_names() {
        assert_eq!(PatternKind::Tbs.to_string(), "TBS");
        assert_eq!(PatternKind::RowWiseVegeta.to_string(), "RS-V");
        assert_eq!(PatternKind::RowWiseHighlight.to_string(), "RS-H");
        assert_eq!(PatternKind::TileNm.to_string(), "TS");
        assert_eq!(PatternKind::Unstructured.to_string(), "US");
    }

    #[test]
    fn dense_keeps_everything() {
        let m = Dense.project(&weights(0), 0.9);
        assert_eq!(m.sparsity(), 0.0);
    }

    #[test]
    fn unstructured_hits_exact_target() {
        let m = Unstructured.project(&weights(1), 0.75);
        assert!((m.sparsity() - 0.75).abs() < 1e-9);
    }

    #[test]
    fn tile_nm_respects_structure() {
        let w = weights(2);
        let mask = TileNm::new(4, 8).project(&w, 0.5);
        for r in 0..w.rows() {
            for t0 in (0..w.cols()).step_by(8) {
                let kept = (t0..t0 + 8).filter(|&c| mask.get(r, c)).count();
                assert!(kept <= 4, "tile at ({r},{t0}) keeps {kept}");
            }
        }
        assert!((mask.sparsity() - 0.5).abs() < 1e-9);
    }

    #[test]
    fn tile_nm_adaptive_n() {
        let w = weights(3);
        let mask = TileNm::for_target(8).project(&w, 0.75);
        assert!((mask.sparsity() - 0.75).abs() < 1e-9);
    }

    #[test]
    fn tile_nm_cannot_exceed_its_ratio() {
        // A 4:8 pattern asked for 25% sparsity still prunes 50%: the
        // hardware ratio is the ceiling (paper Table I footnote).
        let w = weights(4);
        let mask = TileNm::new(4, 8).project(&w, 0.25);
        assert!((mask.sparsity() - 0.5).abs() < 1e-9);
    }

    #[test]
    fn vegeta_rows_use_different_n() {
        // Construct scores with very dense first rows and sparse last rows.
        let w = Matrix::from_fn(16, 64, |r, c| {
            if r < 8 {
                1.0 + (c as f32)
            } else if c % 8 == 0 {
                1.0
            } else {
                0.001
            }
        });
        let mask = RowWiseVegeta::paper_default().project(&w, 0.5);
        let first = mask.row_kept(0);
        let last = mask.row_kept(15);
        assert!(
            first > last,
            "dense row kept {first}, sparse row kept {last}"
        );
    }

    #[test]
    fn vegeta_close_to_target() {
        let mask = RowWiseVegeta::paper_default().project(&weights(5), 0.75);
        assert!((mask.sparsity() - 0.75).abs() < 0.05, "{}", mask.sparsity());
    }

    #[test]
    fn highlight_respects_hierarchy() {
        let w = weights(6);
        let mask = RowWiseHighlight::paper_default().project(&w, 0.75);
        // 75% sparsity => density 0.25 => e.g. keep 1 of 2 tiles at 4:8.
        // Per 16-element group at most 8 kept, and zero tiles are common.
        for r in 0..w.rows() {
            for g0 in (0..w.cols()).step_by(16) {
                let kept = (g0..g0 + 16).filter(|&c| mask.get(r, c)).count();
                assert!(kept <= 8, "group keeps {kept}");
            }
        }
        assert!((mask.sparsity() - 0.75).abs() < 0.1, "{}", mask.sparsity());
    }

    #[test]
    fn highlight_achieves_degrees_ts_cannot() {
        // 1/16 density (93.75% sparsity) is achievable hierarchically.
        let mask = RowWiseHighlight::paper_default().project(&weights(7), 0.9375);
        assert!(
            (mask.sparsity() - 0.9375).abs() < 0.05,
            "{}",
            mask.sparsity()
        );
    }

    #[test]
    fn retained_mass_ordering_matches_paper() {
        // The mechanism behind Tables I and II: patterns with larger
        // mask-space retain more importance mass. Expect
        // US >= TBS >= max(RS-V, RS-H) >= TS at equal sparsity.
        // Uses block-structured weights: on i.i.d. weights all N:M
        // projections coincide and the ordering is vacuous (see
        // MatrixRng::block_structured_weights docs).
        let w = MatrixRng::seed_from(8).block_structured_weights(64, 64, 8);
        let target = 0.75;
        let mass = |kind: PatternKind| -> f64 {
            let mask = paper_pattern(kind).project(&w, target);
            mask.iter_kept()
                .map(|(r, c)| f64::from(w[(r, c)].abs()))
                .sum()
        };
        let us = mass(PatternKind::Unstructured);
        let tbs = mass(PatternKind::Tbs);
        let rsv = mass(PatternKind::RowWiseVegeta);
        let rsh = mass(PatternKind::RowWiseHighlight);
        let ts = mass(PatternKind::TileNm);
        assert!(us >= tbs, "US {us} >= TBS {tbs}");
        assert!(
            tbs >= rsv.max(rsh) * 0.999,
            "TBS {tbs} vs RS {}",
            rsv.max(rsh)
        );
        assert!(rsv >= ts * 0.999, "RS-V {rsv} vs TS {ts}");
    }

    #[test]
    fn paper_pattern_constructs_all() {
        for kind in PatternKind::ALL {
            let p = paper_pattern(kind);
            assert_eq!(p.kind(), kind);
            let mask = p.project(&weights(9), 0.5);
            assert_eq!(mask.shape(), (64, 64));
        }
    }

    /// The per-tile `Vec` + comparator-sort projection of HighLight that
    /// the precomputed-mass, key-selection version replaced.
    fn highlight_oracle(
        p: &RowWiseHighlight,
        scores: &Matrix,
        tiles_kept: usize,
        n: usize,
    ) -> Mask {
        let abs = scores.map(f32::abs);
        let mut mask = Mask::none(scores.rows(), scores.cols());
        let group_span = p.group * p.m;
        for r in 0..scores.rows() {
            for g0 in (0..scores.cols()).step_by(group_span) {
                let tiles: Vec<usize> = (0..p.group)
                    .map(|t| g0 + t * p.m)
                    .filter(|&t0| t0 < scores.cols())
                    .collect();
                let mut ranked = tiles.clone();
                ranked.sort_by(|&a, &b| {
                    let mass = |t0: usize| -> f64 {
                        (t0..(t0 + p.m).min(scores.cols()))
                            .map(|c| f64::from(abs[(r, c)]))
                            .sum()
                    };
                    mass(b)
                        .partial_cmp(&mass(a))
                        .unwrap_or(std::cmp::Ordering::Equal)
                });
                for &t0 in ranked.iter().take(tiles_kept) {
                    let width = p.m.min(scores.cols() - t0);
                    let mut idx: Vec<usize> = (0..width).collect();
                    idx.sort_by(|&a, &b| {
                        abs[(r, t0 + b)]
                            .partial_cmp(&abs[(r, t0 + a)])
                            .unwrap_or(std::cmp::Ordering::Equal)
                            .then(a.cmp(&b))
                    });
                    for &i in idx.iter().take(n) {
                        mask.set(r, t0 + i, true);
                    }
                }
            }
        }
        mask
    }

    /// A `rows × cols` matrix of ties, both zeros and negatives (and NaN
    /// when `nan`) mixed with Gaussian draws.
    fn special_weights(seed: u64, rows: usize, cols: usize, nan: bool) -> Matrix {
        const ALPHABET: [f32; 7] = [0.0, -0.0, 1.0, -1.0, 0.25, -4.0, f32::NAN];
        let mut rng = MatrixRng::seed_from(seed);
        let pick = if nan { 7 } else { 6 };
        Matrix::from_fn(rows, cols, |_, _| match rng.index(pick + 2) {
            i if i < pick => ALPHABET[i],
            _ => rng.standard_normal(),
        })
    }

    /// The per-tile comparator sort TS and RS-V used for `n` per tile.
    fn tile_oracle(scores: &Matrix, m: usize, row_cand: impl Fn(usize) -> usize) -> Mask {
        let abs = scores.map(f32::abs);
        let mut mask = Mask::none(scores.rows(), scores.cols());
        for r in 0..scores.rows() {
            for tile0 in (0..scores.cols()).step_by(m) {
                let width = m.min(scores.cols() - tile0);
                let mut idx: Vec<usize> = (0..width).collect();
                idx.sort_by(|&a, &b| {
                    abs[(r, tile0 + b)]
                        .partial_cmp(&abs[(r, tile0 + a)])
                        .unwrap_or(std::cmp::Ordering::Equal)
                        .then(a.cmp(&b))
                });
                for &i in idx.iter().take(row_cand(r)) {
                    mask.set(r, tile0 + i, true);
                }
            }
        }
        mask
    }

    proptest::proptest! {
        #[test]
        fn tile_projections_match_oracles(
            seed in 0u64..1000,
            rows in 1usize..24,
            cols in 1usize..40,
            nan in 0usize..4,
        ) {
            // Ties, both zeros and negatives (plus NaN in a quarter of the
            // cases) over ragged shapes.
            let w = special_weights(seed, rows, cols, nan == 0);
            for n in 0..=8 {
                proptest::prop_assert_eq!(
                    TileNm::new(n, 8).project(&w, 0.0),
                    tile_oracle(&w, 8, |_| n)
                );
            }
            let hl = RowWiseHighlight::paper_default();
            let mut scores = Scores::new(&w);
            let (abs, ranks) = scores.ranks(hl.m, false);
            for (t, k, _) in hl.configs() {
                proptest::prop_assert_eq!(
                    hl.keep_ranked_tiles(abs, ranks, t, k),
                    highlight_oracle(&hl, &w, t, k)
                );
            }
        }

        #[test]
        fn ranked_projections_match_oracles_at_every_width(
            seed in 0u64..1000,
            rows in 1usize..24,
            cols in 1usize..72,
            width in 0usize..4,
            target_pct in 0u32..=100,
            nan in 0usize..4,
        ) {
            // Tile N:M and RS-V at tile widths 4, 8, 16 and 32 over ragged
            // shapes, against the per-tile comparator sorts; NaN tiles
            // (a quarter of the cases) only up to width 16, where the
            // comparator sort cannot panic.
            let m = [4, 8, 16, 32][width];
            let w = special_weights(seed, rows, cols, nan == 0 && m <= 16);
            for n in [0, 1, m / 2, m - 1, m] {
                proptest::prop_assert_eq!(
                    TileNm::new(n, m).project(&w, 0.0),
                    tile_oracle(&w, m, |_| n)
                );
            }
            // RS-V keeps one N per row: the count its first tile keeps.
            let target = f64::from(target_pct) / 100.0;
            let mut ladder = vec![0, 1];
            while ladder[ladder.len() - 1] < m {
                ladder.push(2 * ladder[ladder.len() - 1]);
            }
            let mask = RowWiseVegeta::new(m, ladder).project(&w, target);
            let row_n: Vec<usize> = (0..rows)
                .map(|r| mask.row(r)[..m.min(cols)].iter().filter(|&&k| k).count())
                .collect();
            proptest::prop_assert_eq!(&mask, &tile_oracle(&w, m, |r| row_n[r]));
        }

        #[test]
        fn whole_row_keeps_match_per_tile_keeps(
            seed in 0u64..1000,
            rows in 1usize..24,
            cols in 1usize..72,
            width in 0usize..4,
            target_pct in 0u32..=100,
            nan in 0usize..4,
        ) {
            // TS at every N and RS-V at a random target, at tile widths 4,
            // 8, 16 and 32 over ragged shapes with ties, ±0 and (in a
            // quarter of the cases) NaN: a whole-row keep marks what the
            // tile-by-tile `keep_tile` path marks.
            let m = [4, 8, 16, 32][width];
            let w = special_weights(seed, rows, cols, nan == 0);
            let mut scores = Scores::new(&w);
            let (abs, ranks) = scores.ranks(m, false);
            let per_tile = |row_n: &dyn Fn(usize) -> usize| {
                let mut mask = Mask::none(rows, cols);
                for r in 0..rows {
                    keep_tiles(abs.row(r), ranks.row(r), m, row_n(r), mask.row_mut(r));
                }
                mask
            };
            for n in 0..=m {
                let whole = keep_every_tile(abs, ranks, m, n);
                let want = per_tile(&|_| n);
                proptest::prop_assert_eq!(&whole, &want, "m={} n={}", m, n);
                let ts = TileNm::new(n, m).project(&w, 0.0);
                proptest::prop_assert_eq!(&ts, &want, "TS m={} n={}", m, n);
            }
            // RS-V keeps one N per row: the count its first tile keeps.
            let mut ladder = vec![0, 1];
            while ladder[ladder.len() - 1] < m {
                ladder.push(2 * ladder[ladder.len() - 1]);
            }
            let target = f64::from(target_pct) / 100.0;
            let mask = RowWiseVegeta::new(m, ladder).project(&w, target);
            let row_n: Vec<usize> = (0..rows)
                .map(|r| mask.row(r)[..m.min(cols)].iter().filter(|&&k| k).count())
                .collect();
            let want = per_tile(&|r| row_n[r]);
            proptest::prop_assert_eq!(&mask, &want, "RS-V m={} at {}", m, target);
        }

        #[test]
        fn highlight_keeping_every_tile_matches_ranked_tiles(
            seed in 0u64..1000,
            rows in 1usize..24,
            cols in 1usize..72,
            width in 0usize..4,
            group in 2usize..4,
            nan in 0usize..4,
        ) {
            // RS-H asked for the density N/M of every candidate N picks
            // `tiles_kept == group` and keeps the top N of every tile; so
            // do the per-group mass sorts, with a short last group (ragged
            // widths, groups of 3) and NaN masses (a quarter of the cases).
            let m = [4, 8, 16, 32][width];
            let w = special_weights(seed, rows, cols, nan == 0);
            let mut candidates = vec![1];
            while candidates[candidates.len() - 1] < m {
                candidates.push(2 * candidates[candidates.len() - 1]);
            }
            let hl = RowWiseHighlight {
                m,
                group,
                candidates: candidates.clone(),
            };
            let mut scores = Scores::new(&w);
            for n in candidates {
                let target = 1.0 - n as f64 / m as f64;
                let got = hl.project_scores(&mut scores, target);
                let (abs, ranks) = scores.ranks(m, false);
                proptest::prop_assert_eq!(
                    got,
                    hl.keep_ranked_tiles(abs, ranks, group, n),
                    "m={} group={} n={}", m, group, n
                );
            }
        }

        #[test]
        fn scores_reuse_matches_fresh_scores(
            seed in 0u64..1000,
            rows in 1usize..40,
            cols in 1usize..40,
            input in 0usize..3,
            weighted in 0usize..2,
            requests in proptest::collection::vec((0usize..6, 0usize..6, 0usize..4), 1..16),
        ) {
            // One `Scores` fed a random sequence of (pattern, target, tile
            // or block size) requests, with repeats and out-of-order
            // targets and sizes, projects what a fresh one per request
            // does: on block-structured weights, and on ties, ±0 and ±inf
            // with and without NaN. Half the sequences mix only RS-V and
            // TBS, which share the held row and block masses.
            const ALPHABET: [f32; 9] = [
                0.0, -0.0, 1.0, -1.0, 0.25, -4.0, f32::INFINITY, f32::NEG_INFINITY, f32::NAN,
            ];
            let mut rng = MatrixRng::seed_from(seed);
            let pick = if input == 2 { 9 } else { 8 };
            let w = match input {
                0 => rng.block_structured_weights(rows, cols, 8),
                _ => Matrix::from_fn(rows, cols, |_, _| match rng.index(pick + 3) {
                    i if i < pick => ALPHABET[i],
                    _ => rng.standard_normal(),
                }),
            };
            let mut shared = Scores::new(&w);
            for (p, t, size) in requests {
                let p = if weighted == 1 { [3, 5][p % 2] } else { p };
                let target = [0.0, 0.3, 0.5, 0.75, 0.95, 1.0][t];
                let m = [4, 8, 16, 32][size];
                let config = TbsConfig::with_block_size(m);
                let what = format!("pattern {p} at {target}, size {m}");
                if p == 5 {
                    proptest::prop_assert_eq!(
                        TbsPattern::from_scores(&mut shared, target, &config),
                        TbsPattern::sparsify(&w, target, &config),
                        "{}", what
                    );
                    continue;
                }
                let ladder = config.n_candidates;
                let pattern: Box<dyn Pattern> = match p {
                    0 => Box::new(Dense),
                    1 => Box::new(Unstructured),
                    2 => Box::new(TileNm::for_target(m)),
                    3 => Box::new(RowWiseVegeta::new(m, ladder)),
                    _ => Box::new(RowWiseHighlight {
                        m,
                        group: 2,
                        candidates: ladder[1..].to_vec(),
                    }),
                };
                proptest::prop_assert_eq!(
                    pattern.project_scores(&mut shared, target),
                    pattern.project(&w, target),
                    "{}", what
                );
            }
        }
    }

    #[test]
    fn patterns_are_object_safe() {
        let patterns: Vec<Box<dyn Pattern>> = vec![
            Box::new(Dense),
            Box::new(Unstructured),
            Box::new(TileNm::new(2, 4)),
        ];
        assert_eq!(patterns.len(), 3);
    }
}
