//! The Mask-Space (MS) measure — paper §III-A2, equations (1)–(4).
//!
//! MS counts, for a given sparsity pattern and granularity, the number of
//! distinct masks the pattern can express on an `X × Y` matrix. The counts
//! are astronomically large (the paper plots them up to 10^4000), so all
//! arithmetic here is done in the **log₂ domain** via the log-gamma
//! function.
//!
//! The paper's notation: `C_p^q = p! / (q!(p−q)!)`, `M` is the sparsity
//! granularity, `k = log₂ M`, and `Y` is the reduction dimension.

/// Natural log of the gamma function (Lanczos approximation, g = 7).
///
/// Accurate to ~1e-13 relative error for positive arguments, which is far
/// beyond what the MS plots need.
pub fn ln_gamma(x: f64) -> f64 {
    // The published Lanczos(g = 7) coefficients, digits kept verbatim.
    #[allow(
        clippy::excessive_precision,
        clippy::inconsistent_digit_grouping,
        reason = "published coefficients, digits kept verbatim"
    )]
    const G: [f64; 9] = [
        0.999_999_999_999_809_93,
        676.520_368_121_885_1,
        -1259.139_216_722_402_8,
        771.323_428_777_653_13,
        -176.615_029_162_140_6,
        12.507_343_278_686_905,
        -0.138_571_095_265_720_12,
        9.984_369_578_019_571_6e-6,
        1.505_632_735_149_311_6e-7,
    ];
    assert!(x > 0.0, "ln_gamma needs a positive argument, got {x}");
    if x < 0.5 {
        // Reflection formula.
        let pi = std::f64::consts::PI;
        return (pi / (pi * x).sin()).ln() - ln_gamma(1.0 - x);
    }
    let x = x - 1.0;
    let mut a = G[0];
    let t = x + 7.5;
    for (i, &g) in G.iter().enumerate().skip(1) {
        a += g / (x + i as f64);
    }
    0.5 * (2.0 * std::f64::consts::PI).ln() + (x + 0.5) * t.ln() - t + a.ln()
}

/// `log₂ C(p, q)`, the log-domain binomial coefficient.
///
/// Returns negative infinity when `q > p` (the combination is impossible).
pub fn log2_choose(p: u64, q: u64) -> f64 {
    if q > p {
        return f64::NEG_INFINITY;
    }
    if q == 0 || q == p {
        return 0.0;
    }
    let ln = ln_gamma(p as f64 + 1.0) - ln_gamma(q as f64 + 1.0) - ln_gamma((p - q) as f64 + 1.0);
    ln / std::f64::consts::LN_2
}

/// `log₂(2^a + 2^b)` computed stably (log-sum-exp in base 2).
pub fn log2_add(a: f64, b: f64) -> f64 {
    if a == f64::NEG_INFINITY {
        return b;
    }
    if b == f64::NEG_INFINITY {
        return a;
    }
    let (hi, lo) = if a >= b { (a, b) } else { (b, a) };
    hi + (1.0 + (lo - hi).exp2()).log2()
}

/// The density candidate ladder the paper sums over: `N = 2^i` for
/// `i = 0..=k` with `k = log₂ M` (i.e. `N ∈ {1, 2, 4, …, M}`).
fn power_candidates(m: u64) -> Vec<u64> {
    assert!(m.is_power_of_two(), "granularity M must be a power of two");
    let k = m.trailing_zeros();
    (0..=k).map(|i| 1u64 << i).collect()
}

/// Equation (1): `MS_TS = Σ_i C(M, 2^i)^(X·Y/M)` in log₂.
///
/// Tile-wise N:M: one global `N`, every tile chooses positions
/// independently.
pub fn ms_tile(x: u64, y: u64, m: u64) -> f64 {
    let tiles = x * y / m;
    power_candidates(m)
        .into_iter()
        .map(|n| log2_choose(m, n) * tiles as f64)
        .fold(f64::NEG_INFINITY, log2_add)
}

/// Equation (2): `MS_RS-V = [Σ_i C(M, 2^i)^(Y/M)]^X` in log₂.
///
/// VEGETA: each row picks its own `N`, tiles within the row choose
/// positions independently.
pub fn ms_rs_vegeta(x: u64, y: u64, m: u64) -> f64 {
    let tiles_per_row = y / m;
    let per_row = power_candidates(m)
        .into_iter()
        .map(|n| log2_choose(m, n) * tiles_per_row as f64)
        .fold(f64::NEG_INFINITY, log2_add);
    per_row * x as f64
}

/// Equation (3): HighLight's hierarchical mask space in log₂:
///
/// `MS_RS-H = Σ_{i=M}^{2M−1} [(C(i, M) · C(M, M/2)^M)^(X·Y/(i·M)) + 2·C(i, M)^(X·Y/(i·M))]`
pub fn ms_rs_highlight(x: u64, y: u64, m: u64) -> f64 {
    assert!(m >= 2, "HighLight needs M >= 2");
    let xy = (x * y) as f64;
    let mut total = f64::NEG_INFINITY;
    for i in m..(2 * m) {
        let exponent = xy / (i as f64 * m as f64);
        let term1 = (log2_choose(i, m) + log2_choose(m, m / 2) * m as f64) * exponent;
        let term2 = 1.0 + log2_choose(i, m) * exponent; // log2(2 · C^e)
        total = log2_add(total, log2_add(term1, term2));
    }
    total
}

/// Equation (4): `MS_TBS = [Σ_i 2 · C(M, 2^i)^M]^(X·Y/M²)` in log₂.
///
/// TBS: each `M × M` block picks `N` (sum), a dimension (factor 2), and
/// positions per lane (`C(M, N)^M`).
pub fn ms_tbs(x: u64, y: u64, m: u64) -> f64 {
    let blocks = (x * y) as f64 / (m * m) as f64;
    let per_block = power_candidates(m)
        .into_iter()
        .map(|n| 1.0 + log2_choose(m, n) * m as f64) // log2(2 · C(M,N)^M)
        .fold(f64::NEG_INFINITY, log2_add);
    per_block * blocks
}

/// The unstructured mask space: every subset of the `X·Y` positions, i.e.
/// `log₂ MS_US = X·Y`.
pub fn ms_unstructured(x: u64, y: u64) -> f64 {
    (x * y) as f64
}

/// Mask-space summary for one matrix size, all patterns (Fig. 4(c) x-axis).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MaskSpaceRow {
    /// Matrix is `x × y`, granularity `m`.
    pub x: u64,
    /// Reduction-dimension size.
    pub y: u64,
    /// Sparsity granularity.
    pub m: u64,
    /// log₂ MS for TS.
    pub ts: f64,
    /// log₂ MS for RS-V.
    pub rs_v: f64,
    /// log₂ MS for RS-H.
    pub rs_h: f64,
    /// log₂ MS for TBS.
    pub tbs: f64,
    /// log₂ MS for US.
    pub us: f64,
}

/// Computes all mask spaces for an `x × y` matrix at granularity `m`.
pub fn mask_space_row(x: u64, y: u64, m: u64) -> MaskSpaceRow {
    MaskSpaceRow {
        x,
        y,
        m,
        ts: ms_tile(x, y, m),
        rs_v: ms_rs_vegeta(x, y, m),
        rs_h: ms_rs_highlight(x, y, m),
        tbs: ms_tbs(x, y, m),
        us: ms_unstructured(x, y),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ln_gamma_known_values() {
        // Γ(n) = (n-1)!
        assert!((ln_gamma(1.0)).abs() < 1e-12);
        assert!((ln_gamma(2.0)).abs() < 1e-12);
        assert!((ln_gamma(5.0) - (24.0f64).ln()).abs() < 1e-10);
        assert!((ln_gamma(11.0) - (3628800.0f64).ln()).abs() < 1e-9);
    }

    #[test]
    fn log2_choose_small_cases() {
        assert_eq!(log2_choose(4, 0), 0.0);
        assert_eq!(log2_choose(4, 4), 0.0);
        assert!((log2_choose(4, 2) - (6.0f64).log2()).abs() < 1e-10);
        assert!((log2_choose(8, 4) - (70.0f64).log2()).abs() < 1e-10);
        assert_eq!(log2_choose(3, 5), f64::NEG_INFINITY);
    }

    #[test]
    fn log2_add_is_stable() {
        assert!((log2_add(10.0, 10.0) - 11.0).abs() < 1e-12);
        assert_eq!(log2_add(f64::NEG_INFINITY, 5.0), 5.0);
        // Huge difference: result is the max.
        assert_eq!(log2_add(1e4, 0.0), 1e4);
    }

    #[test]
    fn tiny_exhaustive_ts_check() {
        // 1x4 matrix, M=4: TS masks = C(4,1)+C(4,2)+C(4,4) = 4+6+1 = 11.
        let ms = ms_tile(1, 4, 4);
        assert!((ms.exp2() - 11.0).abs() < 1e-6, "{}", ms.exp2());
    }

    #[test]
    fn tiny_exhaustive_tbs_check() {
        // 2x2 matrix, M=2, one block: N in {1,2}, 2 dims:
        // N=1: 2 * C(2,1)^2 = 8 ; N=2: 2 * C(2,2)^2 = 2 ; total 10.
        let ms = ms_tbs(2, 2, 2);
        assert!((ms.exp2() - 10.0).abs() < 1e-6, "{}", ms.exp2());
    }

    #[test]
    fn ordering_matches_fig4c() {
        // For the paper's typical setting (X = Y, M = 8):
        // TS < RS-V < TBS < US. (RS-H interleaves between TS and TBS.)
        for &dim in &[64u64, 256, 1024] {
            let row = mask_space_row(dim, dim, 8);
            // TS <= RS-V: can be equal at f64 precision for large matrices,
            // where the sub-dominant terms of Eqs. (1)-(2) differ by less
            // than 2^-100 and vanish in the log-sum. Same for RS-H vs TS.
            assert!(row.ts <= row.rs_v, "TS {} <= RS-V {}", row.ts, row.rs_v);
            assert!(row.rs_h >= row.ts, "RS-H {} >= TS {}", row.rs_h, row.ts);
            // TBS strictly exceeds RS-V thanks to the per-block direction
            // bit (the `2 ·` of Eq. 4), and US strictly exceeds everything.
            assert!(row.rs_v < row.tbs, "RS-V {} < TBS {}", row.rs_v, row.tbs);
            assert!(row.tbs < row.us, "TBS {} < US {}", row.tbs, row.us);
        }
        // At a moderate size the TS < RS-V gap is representable and strict.
        let row = mask_space_row(64, 64, 8);
        assert!(row.ts < row.rs_v, "TS {} < RS-V {}", row.ts, row.rs_v);
    }

    #[test]
    fn tbs_exceeds_vegeta_by_dimension_freedom() {
        // TBS ~ per-block choice beats per-row choice at the same ladder.
        let row = mask_space_row(512, 512, 8);
        assert!(row.tbs > row.rs_v * 1.01);
    }

    #[test]
    fn scaling_with_matrix_size_is_linear_in_log() {
        let small = ms_tbs(64, 64, 8);
        let big = ms_tbs(128, 128, 8);
        assert!((big / small - 4.0).abs() < 1e-9, "log-MS scales with area");
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn rejects_non_pow2_granularity() {
        let _ = ms_tile(8, 8, 6);
    }
}

/// Mask-Diversity (MD), the measure of NM-T the paper's footnote 2
/// discusses: the number of masks a pattern can express *at one fixed
/// sparsity ratio* `n:m` (MS generalizes MD by summing over ratios, which
/// is what lets it compare patterns across sparsity degrees).
pub mod mask_diversity {
    use super::{log2_add, log2_choose};

    /// `log₂ MD` of the tile-wise pattern at fixed `n:m` on `x × y`.
    pub fn md_tile(x: u64, y: u64, m: u64, n: u64) -> f64 {
        log2_choose(m, n) * (x * y / m) as f64
    }

    /// `log₂ MD` of the transposable block-wise pattern at fixed `n:m`:
    /// per block, a direction bit times `C(m, n)^m` placements.
    pub fn md_tbs(x: u64, y: u64, m: u64, n: u64) -> f64 {
        let per_block = if n == 0 || n == m {
            0.0 // direction is immaterial for empty/full blocks
        } else {
            1.0 + log2_choose(m, n) * m as f64
        };
        per_block * ((x * y) as f64 / (m * m) as f64)
    }

    /// `log₂ MD` of the unstructured pattern at a fixed kept count `k`.
    pub fn md_unstructured(x: u64, y: u64, k: u64) -> f64 {
        log2_choose(x * y, k)
    }

    /// `log₂` of the total MS recovered by summing MD over the power-of-
    /// two ratio ladder — sanity link between the two measures.
    pub fn ms_from_md_tile(x: u64, y: u64, m: u64) -> f64 {
        assert!(m.is_power_of_two(), "granularity must be a power of two");
        let mut total = f64::NEG_INFINITY;
        let mut n = 1;
        while n <= m {
            total = log2_add(total, md_tile(x, y, m, n));
            n *= 2;
        }
        total
    }
}

#[cfg(test)]
mod md_tests {
    use super::mask_diversity::*;
    use super::*;

    #[test]
    fn md_tile_small_case() {
        // 1x4, 2:4: C(4,2) = 6 masks.
        assert!((md_tile(1, 4, 4, 2).exp2() - 6.0).abs() < 1e-9);
    }

    #[test]
    fn md_tbs_exceeds_md_tile_at_same_ratio() {
        // The dimension bit and per-lane placement freedom dominate.
        for n in [1u64, 2, 4] {
            assert!(md_tbs(64, 64, 8, n) > md_tile(64, 64, 8, n), "n = {n}");
        }
    }

    #[test]
    fn md_degenerate_ratios_have_one_mask() {
        assert_eq!(md_tbs(64, 64, 8, 0), 0.0);
        assert_eq!(md_tbs(64, 64, 8, 8), 0.0);
        assert_eq!(md_tile(64, 64, 8, 8), 0.0);
    }

    #[test]
    fn md_unstructured_dominates_everything() {
        // At 2:4-equivalent sparsity on a 64x64 matrix.
        let us = md_unstructured(64, 64, 64 * 64 / 2);
        assert!(us > md_tbs(64, 64, 8, 4));
    }

    #[test]
    fn ms_is_sum_of_md_over_ratios() {
        // The footnote's point: MD at one ratio cannot compare patterns
        // across sparsity degrees; summing MD over the ladder recovers MS
        // (up to TS's N=2^i ladder definition).
        let recovered = ms_from_md_tile(64, 64, 8);
        let direct = ms_tile(64, 64, 8);
        assert!((recovered - direct).abs() < 1e-9);
    }
}
