//! Exact top-n selection without comparator closures.
//!
//! Every projection in this crate keeps the highest scores under the order
//! (score descending, index ascending), where scores compare with
//! `f32::partial_cmp` — so `-0.0` equals `0.0` and NaN compares equal to
//! everything. Without NaN that order is strict and total, so the kept
//! *set* is unique: any exact selection under that order returns the set
//! the comparator sorts it replaced returned. [`top_k`] selects on fused
//! `u64` keys (an order-reversing image of the score above the index), and
//! [`tile_top_n`] ranks small tiles in fixed-width stack arrays.
//!
//! NaN breaks transitivity, so what a comparator sort keeps then depends
//! on the sort algorithm itself. Inputs holding a NaN therefore take the
//! comparator path ([`tile_top_n_by_comparator`], [`top_k_by_comparator`]),
//! which is the historical implementation and keeps their behaviour
//! unchanged; the tests use the same functions as oracles for the fast
//! paths.

use std::cmp::Ordering;

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

/// Calls `keep(i)` once for every index of the top `n` entries of
/// `scores` (the tile's kept set; the call order is unspecified).
///
/// NaN-free tiles up to 64 wide are ranked in a fixed-width stack array
/// (see [`rank_top_n`]); wider tiles, only reachable through non-default
/// tile or block sizes, take the comparator path.
pub(crate) fn tile_top_n(scores: &[f32], n: usize, mut keep: impl FnMut(usize)) {
    let width = scores.len();
    if n == 0 {
        return;
    }
    if n >= width {
        (0..width).for_each(keep);
        return;
    }
    let bits = if scores.iter().any(|s| s.is_nan()) {
        None
    } else {
        match width {
            0..=8 => Some(rank_top_n::<8>(scores, n)),
            9..=16 => Some(rank_top_n::<16>(scores, n)),
            17..=64 => Some(rank_top_n::<64>(scores, n)),
            _ => None,
        }
    };
    match bits {
        Some(mut bits) => {
            while bits != 0 {
                keep(bits.trailing_zeros() as usize);
                bits &= bits - 1;
            }
        }
        None => tile_top_n_by_comparator(scores, n, keep),
    }
}

/// The top `n` of the NaN-free `scores` (`n < scores.len() <= W <= 64`)
/// as a bitmask, bit `i` set when entry `i` is kept.
///
/// Entry `i` is kept when fewer than `n` entries precede it in the order
/// (score desc, index asc): those scoring higher, plus those scoring equal
/// at a lower index. `f32` comparisons already treat `-0.0` and `0.0` as
/// equal. The tile is padded to `W` with `-inf` after its last entry; a
/// pad never precedes a real entry, and all `scores.len() > n` real
/// entries precede every pad, so no pad is kept and no real rank moves.
/// The fixed width lets the compiler unroll and vectorise the O(W²)
/// comparisons, which beats sorting at these sizes.
fn rank_top_n<const W: usize>(scores: &[f32], n: usize) -> u64 {
    let mut s = [f32::NEG_INFINITY; W];
    s[..scores.len()].copy_from_slice(scores);
    let n = n as u32;
    let mut bits = 0u64;
    for (i, &si) in s.iter().enumerate() {
        let mut rank = 0u32;
        for (j, &sj) in s.iter().enumerate() {
            rank += u32::from(if j < i { sj >= si } else { sj > si });
        }
        bits |= u64::from(rank < n) << i;
    }
    bits
}

/// The comparator formulation of [`tile_top_n`]: sort the in-tile indices
/// by (score desc, index asc) and keep the first `n`.
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

/// Marks the top `k` entries of `scores` in `keep` (`0 < k < len`).
pub(crate) fn top_k(scores: &[f32], k: usize, keep: &mut [bool]) {
    debug_assert!(0 < k && k < scores.len() && keep.len() == scores.len());
    // Fused keys: the score image above the index, so one `u64`
    // comparison decides (score desc, index asc).
    let mut keys = Vec::with_capacity(scores.len());
    for (i, &s) in scores.iter().enumerate() {
        match u32::try_from(i) {
            Ok(i) if !s.is_nan() => keys.push(u64::from(desc_image(s)) << 32 | u64::from(i)),
            _ => {
                top_k_by_comparator(scores, k, keep);
                return;
            }
        }
    }
    // O(n) selection: afterwards `keys[..k]` hold exactly the top k.
    keys.select_nth_unstable(k - 1);
    for &key in &keys[..k] {
        keep[(key & u64::from(u32::MAX)) as usize] = true;
    }
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
    }
}
