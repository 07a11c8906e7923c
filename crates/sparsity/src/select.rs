//! Exact top-n selection without comparator closures.
//!
//! Every projection in this crate keeps the highest scores under the order
//! (score descending, index ascending), where scores compare with
//! `f32::partial_cmp` — so `-0.0` equals `0.0` and NaN compares equal to
//! everything. Without NaN that order is strict and total, so the kept
//! *set* is unique: any exact selection under that order returns the set
//! the comparator sorts it replaced returned. [`top_k`] is a radix select
//! on an order-reversing integer image of each score, and [`TileRanks`]
//! ranks every entry of a sample within its row tile and its column tile
//! once, so each tile pattern keeps `{i : rank_i < n}`.
//!
//! NaN breaks transitivity, so what a comparator sort keeps then depends
//! on the sort algorithm itself. Inputs holding a NaN therefore take the
//! comparator path ([`tile_top_n_by_comparator`], [`top_k_by_comparator`]),
//! which is the historical implementation and keeps their behaviour
//! unchanged; the tests use the same functions as oracles for the fast
//! paths.

use std::borrow::Cow;
use std::cmp::Ordering;

use tbstc_matrix::Matrix;

/// An order-reversing `u32` image of a NaN-free score: `a > b` exactly
/// when `desc_image(a) < desc_image(b)`, and `-0.0`, `0.0` share one
/// image.
fn desc_image(score: f32) -> u32 {
    // `-0.0 == 0.0`, so both zeros map onto +0.0's bits.
    let bits = if score == 0.0 { 0 } else { score.to_bits() };
    // Sign-magnitude to an unsigned image that sorts like the float.
    let ascending = if bits >> 31 == 1 {
        !bits
    } else {
        bits | 1 << 31
    };
    !ascending
}

/// The rank of every entry of a tile that is not ranked: one holding a NaN
/// or wider than 64. No ranked entry reaches it (ranks are below 64).
pub(crate) const UNRANKED: u8 = u8::MAX;

/// Sets `out[i]` to whether entry `i` of a ranked tile is in its top `n`.
pub(crate) fn keep_ranked(ranks: &[u8], n: usize, out: &mut [bool]) {
    // Ranks are below 64, so clamping `n` changes no comparison.
    let n = n.min(usize::from(UNRANKED)) as u8;
    for (o, &r) in out.iter_mut().zip(ranks) {
        *o = r < n;
    }
}

/// Sets `out[i]` to whether entry `i`, of a ranked tile, is in the top
/// `n[i]` of its tile: [`keep_ranked`] with a count per entry.
pub(crate) fn keep_ranked_at(ranks: &[u8], n: &[u8], out: &mut [bool]) {
    for ((o, &r), &n) in out.iter_mut().zip(ranks).zip(n) {
        *o = r < n;
    }
}

/// Calls `keep(i)` for the top `n` of an unranked tile's absolute scores,
/// zero-padded to `pad_to` entries as Algorithm 1 pads a block at the
/// matrix edge. Only padding can change a NaN tile's comparator order; a
/// kept pad is not reported.
pub(crate) fn keep_unranked(
    scores: impl Iterator<Item = f32>,
    n: usize,
    pad_to: usize,
    mut keep: impl FnMut(usize),
) {
    let mut lane: Vec<f32> = scores.map(f32::abs).collect();
    let width = lane.len();
    lane.resize(pad_to.max(width), 0.0);
    tile_top_n(&lane, n, |i| {
        if i < width {
            keep(i);
        }
    });
}

/// Marks the top `n` of a tile of `|tile|` in `out` (all `false` on
/// entry) from the tile's ranks: [`keep_ranked`] or, for an unranked
/// tile, [`keep_unranked`] without padding.
pub(crate) fn keep_tile(tile: &[f32], ranks: &[u8], n: usize, out: &mut [bool]) {
    if ranks.first() == Some(&UNRANKED) {
        keep_unranked(tile.iter().copied(), n, tile.len(), |i| out[i] = true);
    } else {
        keep_ranked(ranks, n, out);
    }
}

/// Calls `keep(i)` once for every index of the top `n` entries of
/// `scores` (the tile's kept set; the call order is unspecified). Keeping
/// none or all needs no order; otherwise the comparator sort decides.
pub(crate) fn tile_top_n(scores: &[f32], n: usize, keep: impl FnMut(usize)) {
    let width = scores.len();
    if n == 0 {
        return;
    }
    if n >= width {
        (0..width).for_each(keep);
        return;
    }
    tile_top_n_by_comparator(scores, n, keep);
}

/// Every score's rank within its row tile and within its column tile, in
/// the order (|score| desc, index asc): one ranking that the
/// tile-wise N:M (TS), RS-V and RS-H projections and both lane directions
/// of TBS step 3 share instead of each ranking the same tiles again.
///
/// Row tiles are the `m`-wide runs of a row starting at multiples of `m`,
/// column tiles the `m`-tall runs of a column likewise; the last of each
/// may be shorter. A pattern keeps `{i : rank_i < n}` of a tile. Tiles
/// holding a NaN and tiles wider than 64 are not ranked, and their
/// consumers sort them with the comparator instead.
///
/// The map is two bytes per score (32 KiB for a 128 × 128 sample; one
/// without the column tiles) and depends only on the scores and `m`,
/// never on a target or pattern.
#[derive(Debug, Clone)]
pub struct TileRanks {
    m: usize,
    rows: usize,
    cols: usize,
    row: Vec<u8>,
    col: Vec<u8>,
    unranked: bool,
}

impl TileRanks {
    /// Ranks `|scores|` in `m`-wide row tiles and `m`-tall column tiles.
    ///
    /// # Panics
    ///
    /// Panics when `m == 0`.
    pub fn new(scores: &Matrix, m: usize) -> Self {
        Self::build(scores, m, true)
    }

    /// [`TileRanks::new`] without the column tiles: all that the row-wise
    /// patterns (tile N:M, RS-V, RS-H) read. Given one, TBS ranks the
    /// scores again in a full map of its own.
    ///
    /// # Panics
    ///
    /// Panics when `m == 0`.
    pub fn rows_only(scores: &Matrix, m: usize) -> Self {
        Self::build(scores, m, false)
    }

    fn build(scores: &Matrix, m: usize, columns: bool) -> Self {
        assert!(m > 0, "tile size must be positive");
        let (rows, cols) = scores.shape();
        let mut row = vec![0u8; rows * cols];
        let mut col = vec![0u8; if columns { rows * cols } else { 0 }];
        if m > 64 || row.is_empty() {
            row.fill(UNRANKED);
            col.fill(UNRANKED);
            return TileRanks {
                m,
                rows,
                cols,
                row,
                col,
                unranked: true,
            };
        }
        // No short circuit, so the scan vectorises.
        let nan = scores.as_slice().iter().fold(false, |n, x| n | x.is_nan());
        // Absolute scores are staged one band of tiles at a time.
        let mut band: Vec<f32> = Vec::with_capacity(m * rows.max(cols));
        let mut bands = |scores: &Matrix, ranks: &mut [u8]| {
            let width = scores.cols();
            for (tiles, ranks) in scores
                .as_slice()
                .chunks(m * width)
                .zip(ranks.chunks_mut(m * width))
            {
                band.clear();
                band.extend(tiles.iter().map(|x| x.abs()));
                column_ranks(&band, width, nan, ranks);
            }
        };
        if columns {
            bands(scores, &mut col);
        }
        // Row tiles are the column tiles of the transpose; its ranks go
        // back to row-major one strip of `m` columns at a time.
        let mut by_col = vec![0u8; rows * cols];
        bands(&scores.transpose(), &mut by_col);
        for (strip, lanes) in by_col.chunks(m * rows).enumerate() {
            for (r, out) in row.chunks_exact_mut(cols).enumerate() {
                for (o, lane) in out[strip * m..].iter_mut().zip(lanes.chunks_exact(rows)) {
                    *o = lane[r];
                }
            }
        }
        TileRanks {
            m,
            rows,
            cols,
            row,
            col,
            unranked: nan,
        }
    }

    /// `self` when it ranks the `m`-wide tiles of a matrix of `scores`'
    /// shape (its column tiles too when `columns`), otherwise a map of
    /// `scores` of its own (row tiles only unless `columns`).
    pub(crate) fn or_own(&self, scores: &Matrix, m: usize, columns: bool) -> Cow<'_, TileRanks> {
        let fits = (self.rows, self.cols) == scores.shape()
            && self.m == m
            && (!columns || self.col.len() == self.row.len());
        match (fits, columns) {
            (true, _) => Cow::Borrowed(self),
            (false, true) => Cow::Owned(TileRanks::new(scores, m)),
            (false, false) => Cow::Owned(TileRanks::rows_only(scores, m)),
        }
    }

    /// Whether some tile is unranked.
    pub(crate) fn any_unranked(&self) -> bool {
        self.unranked
    }

    /// Row `r`'s ranks within its row tiles.
    pub(crate) fn row(&self, r: usize) -> &[u8] {
        &self.row[r * self.cols..(r + 1) * self.cols]
    }

    /// Row `r`'s ranks within its column tiles.
    pub(crate) fn col(&self, r: usize) -> &[u8] {
        &self.col[r * self.cols..(r + 1) * self.cols]
    }
}

/// Ranks every column of `band`, at most 64 rows of `width` scores, into
/// `ranks` (the same layout): each entry's rank within its column. All
/// columns are ranked at once, one pair of rows at a time, which
/// vectorises along the row. A column holding a NaN (looked for only when
/// `nan` says the scores hold one) is [`UNRANKED`].
fn column_ranks(band: &[f32], width: usize, nan: bool, ranks: &mut [u8]) {
    let h = band.len() / width;
    debug_assert!(h <= 64 && ranks.len() == band.len());
    ranks.fill(0);
    for i in 1..h {
        let (above, below) = ranks.split_at_mut(i * width);
        let ri = &mut below[..width];
        let si = &band[i * width..(i + 1) * width];
        for (j, rj) in above.chunks_exact_mut(width).enumerate() {
            let sj = &band[j * width..(j + 1) * width];
            // Row j < i precedes row i when it scores at least as high;
            // otherwise (NaN aside) row i precedes row j.
            for (((ri, rj), &a), &b) in ri.iter_mut().zip(rj.iter_mut()).zip(si).zip(sj) {
                let j_first = u8::from(b >= a);
                *ri += j_first;
                *rj += 1 - j_first;
            }
        }
    }
    if nan {
        for c in 0..width {
            if band.iter().skip(c).step_by(width).any(|x| x.is_nan()) {
                ranks
                    .iter_mut()
                    .skip(c)
                    .step_by(width)
                    .for_each(|r| *r = UNRANKED);
            }
        }
    }
}

/// The comparator formulation of a tile's top `n`: sort the in-tile
/// indices by (score desc, index asc) and keep the first `n`.
pub(crate) fn tile_top_n_by_comparator(scores: &[f32], n: usize, keep: impl FnMut(usize)) {
    let mut idx: Vec<usize> = (0..scores.len()).collect();
    idx.sort_by(|&a, &b| {
        scores[b]
            .partial_cmp(&scores[a])
            .unwrap_or(Ordering::Equal)
            .then(a.cmp(&b))
    });
    idx.into_iter().take(n).for_each(keep);
}

/// The digits of a radix select over `u32` images, most significant
/// first, as (shift, width in bits); no digit is wider than 11 bits.
const DIGITS: [(u32, u32); 3] = [(21, 11), (10, 11), (0, 10)];

/// Marks the top `k` entries of `scores` in `keep` (`0 < k < len`, `keep`
/// all `false` on entry).
///
/// A radix select on [`desc_image`]s, most significant digit first. Each
/// level counts the remaining candidates by one digit, keeps every
/// candidate whose digit is below the one the `need`-th falls in, and
/// carries only the candidates at that digit to the next level, in index
/// order. After the last digit the carried candidates tie on the whole
/// image, and the lowest indices fill what is left of `k`.
pub(crate) fn top_k(scores: &[f32], k: usize, keep: &mut [bool]) {
    debug_assert!(0 < k && k < scores.len() && keep.len() == scores.len());
    // No short circuit, so the scan vectorises. Digit counts are `u32`.
    if scores.iter().fold(false, |n, s| n | s.is_nan()) || u32::try_from(scores.len()).is_err() {
        top_k_by_comparator(scores, k, keep);
        return;
    }
    let images: Vec<u32> = scores.iter().map(|&s| desc_image(s)).collect();
    let mut need = k;
    // The first level runs over every index without listing them.
    let mut carried = Vec::new();
    let mut next = Vec::new();
    radix_level(
        &images,
        0..images.len(),
        DIGITS[0],
        &mut need,
        keep,
        &mut carried,
    );
    for digit in &DIGITS[1..] {
        if need == carried.len() {
            break;
        }
        let candidates = carried.iter().copied();
        radix_level(&images, candidates, *digit, &mut need, keep, &mut next);
        std::mem::swap(&mut carried, &mut next);
    }
    for &i in carried.iter().take(need) {
        keep[i] = true;
    }
}

/// One level of [`top_k`]'s radix select: among `candidates` (in index
/// order), marks in `keep` those whose `digit` is below the digit the
/// `need`-th candidate falls in, takes their count off `need`, and leaves
/// the candidates at that digit in `carried`.
fn radix_level(
    images: &[u32],
    candidates: impl Iterator<Item = usize> + Clone,
    (shift, bits): (u32, u32),
    need: &mut usize,
    keep: &mut [bool],
    carried: &mut Vec<usize>,
) {
    let digit = |i: usize| ((images[i] >> shift) & ((1 << bits) - 1)) as usize;
    let mut counts = [0u32; 1 << 11];
    for i in candidates.clone() {
        counts[digit(i)] += 1;
    }
    let mut below = 0;
    let mut split = 0;
    for (d, &c) in counts.iter().enumerate() {
        let c = c as usize;
        if below + c >= *need {
            split = d;
            break;
        }
        below += c;
    }
    carried.clear();
    carried.reserve(counts[split] as usize);
    for i in candidates {
        let d = digit(i);
        keep[i] = d < split;
        if d == split {
            carried.push(i);
        }
    }
    *need -= below;
}

/// The comparator formulation of [`top_k`]: O(n) selection over indices
/// under (score desc, index asc).
pub(crate) fn top_k_by_comparator(scores: &[f32], k: usize, keep: &mut [bool]) {
    let mut idx: Vec<usize> = (0..scores.len()).collect();
    idx.select_nth_unstable_by(k, |&a, &b| {
        scores[b]
            .partial_cmp(&scores[a])
            .unwrap_or(Ordering::Equal)
            .then(a.cmp(&b))
    });
    for &i in &idx[..k] {
        keep[i] = true;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Score alphabet with ties, both zeros, negatives, infinities and
    /// subnormals; index 9 is NaN and only drawn when a case asks for it.
    const ALPHABET: [f32; 10] = [
        0.0,
        -0.0,
        1.0,
        -1.0,
        0.5,
        2.5,
        -3.0,
        f32::INFINITY,
        1e-40,
        f32::NAN,
    ];

    fn scores(picks: &[usize], with_nan: bool) -> Vec<f32> {
        let last = if with_nan { 10 } else { 9 };
        picks.iter().map(|&p| ALPHABET[p % last]).collect()
    }

    /// The kept set a tile selector reports through its callback; no
    /// index may be reported twice.
    fn tile_kept(width: usize, select: impl FnOnce(&mut dyn FnMut(usize))) -> Vec<bool> {
        let mut kept = vec![false; width];
        select(&mut |i| {
            assert!(!kept[i], "index {i} kept twice");
            kept[i] = true;
        });
        kept
    }

    #[test]
    fn images_order_like_partial_cmp() {
        let finite = &ALPHABET[..9];
        for &a in finite {
            for &b in finite {
                let by_cmp = b.partial_cmp(&a).unwrap_or(Ordering::Equal);
                assert_eq!(desc_image(a).cmp(&desc_image(b)), by_cmp, "{a} vs {b}");
            }
        }
    }

    /// The kept set of every `m`-tile of `|scores|` (a 1 × len row, or its
    /// len × 1 transpose for column tiles) as the map reads it: ranked
    /// tiles by rank, unranked ones through the comparator.
    fn map_kept(scores: &[f32], m: usize, n: usize, column: bool) -> Vec<bool> {
        let len = scores.len();
        let matrix = if column {
            Matrix::from_fn(len, 1, |r, _| scores[r])
        } else {
            Matrix::from_fn(1, len, |_, c| scores[c])
        };
        let ranks = TileRanks::new(&matrix, m);
        let ranks: Vec<u8> = if column {
            (0..len).map(|r| ranks.col(r)[0]).collect()
        } else {
            ranks.row(0).to_vec()
        };
        let mut kept = vec![false; len];
        for ((tile, ranks), out) in scores
            .chunks(m)
            .zip(ranks.chunks(m))
            .zip(kept.chunks_mut(m))
        {
            keep_tile(tile, ranks, n, out);
        }
        kept
    }

    /// The comparator's kept set of every `m`-tile of `|scores|`.
    fn comparator_kept(scores: &[f32], m: usize, n: usize) -> Vec<bool> {
        let mut kept = Vec::with_capacity(scores.len());
        for tile in scores.chunks(m) {
            let abs: Vec<f32> = tile.iter().map(|x| x.abs()).collect();
            kept.extend(tile_kept(tile.len(), |keep| {
                tile_top_n_by_comparator(&abs, n, keep)
            }));
        }
        kept
    }

    proptest! {
        #[test]
        fn tile_top_n_matches_comparator(
            picks in proptest::collection::vec(0usize..40, 0..80),
            n in 0usize..12,
            nan in 0usize..4,
        ) {
            // A comparator sort over NaN may panic on wide slices (the
            // standard library detects the order violation), so NaN
            // cases stay at paper tile widths.
            let s = scores(&picks, nan == 0 && picks.len() <= 16);
            let fast = tile_kept(s.len(), |keep| tile_top_n(&s, n, keep));
            let slow = tile_kept(s.len(), |keep| tile_top_n_by_comparator(&s, n, keep));
            prop_assert_eq!(fast, slow, "{:?} n={}", s, n);
        }

        #[test]
        fn tile_ranks_match_comparator(
            picks in proptest::collection::vec(0usize..40, 0..100),
            width in 0usize..5,
            n in 0usize..40,
            nan in 0usize..4,
        ) {
            // Row and column tiles of widths 4, 8, 16 and 32, and wider
            // than 64 (unranked), over ragged lengths: both directions
            // keep what the comparator keeps on every tile. NaN tiles
            // stay at widths up to 16 (see above).
            let m = [4, 8, 16, 32, 80][width];
            let s = scores(&picks, nan == 0 && m <= 16);
            let want = comparator_kept(&s, m, n);
            prop_assert_eq!(&map_kept(&s, m, n, false), &want, "rows {:?} m={} n={}", s, m, n);
            prop_assert_eq!(&map_kept(&s, m, n, true), &want, "cols {:?} m={} n={}", s, m, n);
        }

        #[test]
        fn tile_ranks_rank_every_tile_of_a_matrix(
            seed in 0u64..1000,
            rows in 1usize..40,
            cols in 1usize..40,
            width in 0usize..4,
            nan in 0usize..4,
        ) {
            // Every row tile and column tile of a ragged matrix: a ranked
            // tile holds the ranks 0..len once each, in the comparator's
            // order; an unranked one holds a NaN.
            let m = [4, 8, 16, 32][width];
            let mut rng = tbstc_matrix::rng::MatrixRng::seed_from(seed);
            let alphabet = if nan == 0 { &ALPHABET[..] } else { &ALPHABET[..9] };
            let w = Matrix::from_fn(rows, cols, |_, _| match rng.index(alphabet.len() + 4) {
                i if i < alphabet.len() => alphabet[i],
                _ => rng.standard_normal(),
            });
            let ranks = TileRanks::new(&w, m);
            let check = |tile: Vec<f32>, got: Vec<u8>| {
                if tile.iter().any(|x| x.is_nan()) {
                    assert!(got.iter().all(|&r| r == UNRANKED), "{tile:?} {got:?}");
                    return;
                }
                let abs: Vec<f32> = tile.iter().map(|x| x.abs()).collect();
                let mut order = Vec::with_capacity(tile.len());
                tile_top_n_by_comparator(&abs, tile.len(), |i| order.push(i));
                for (rank, &i) in order.iter().enumerate() {
                    assert_eq!(usize::from(got[i]), rank, "{tile:?} {got:?}");
                }
            };
            for r in 0..rows {
                for c0 in (0..cols).step_by(m) {
                    let c1 = (c0 + m).min(cols);
                    check(w.row(r)[c0..c1].to_vec(), ranks.row(r)[c0..c1].to_vec());
                }
            }
            for r0 in (0..rows).step_by(m) {
                let r1 = (r0 + m).min(rows);
                for c in 0..cols {
                    check(
                        (r0..r1).map(|r| w.row(r)[c]).collect(),
                        (r0..r1).map(|r| ranks.col(r)[c]).collect(),
                    );
                }
            }
        }

        #[test]
        fn top_k_matches_comparator(
            picks in proptest::collection::vec(0usize..40, 2..300),
            k_frac in 0.0f64..1.0,
            nan in 0usize..4,
        ) {
            let s = scores(&picks, nan == 0);
            let k = 1 + ((s.len() - 2) as f64 * k_frac) as usize;
            let mut fast = vec![false; s.len()];
            top_k(&s, k, &mut fast);
            let mut slow = vec![false; s.len()];
            top_k_by_comparator(&s, k, &mut slow);
            prop_assert_eq!(fast, slow, "{:?} k={}", s, k);
        }

        #[test]
        fn radix_top_k_matches_comparator_at_every_digit(
            seed in 0u64..1000,
            len in 2usize..5000,
            k_frac in 0.0f64..1.0,
            spread in 0usize..4,
        ) {
            // Scores that share their high digits to a varying depth, so
            // the select reaches each of its levels and ends on full
            // ties, plus a Gaussian sample like a layer's weights.
            let mut rng = tbstc_matrix::rng::MatrixRng::seed_from(seed);
            let s: Vec<f32> = (0..len)
                .map(|_| match spread {
                    0 => rng.standard_normal(),
                    1 => f32::from_bits(0x3f80_0000 + rng.index(1 << 12) as u32),
                    2 => f32::from_bits(0x3f80_0000 + rng.index(1 << 5) as u32),
                    _ => [1.0, -1.0, 0.5, 0.0, -0.0][rng.index(5)],
                })
                .collect();
            let k = 1 + ((len - 2) as f64 * k_frac) as usize;
            let mut fast = vec![false; len];
            top_k(&s, k, &mut fast);
            let mut slow = vec![false; len];
            top_k_by_comparator(&s, k, &mut slow);
            prop_assert_eq!(fast, slow, "k={}", k);
        }
    }
}
