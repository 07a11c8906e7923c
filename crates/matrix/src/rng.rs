//! Deterministic matrix generators.
//!
//! Every experiment in the benchmark harness is seeded so that repeated runs
//! regenerate the same tables. [`MatrixRng`] wraps a seeded [`StdRng`] with
//! matrix-shaped convenience constructors, including generators that mimic
//! trained-weight statistics (approximately Gaussian with a heavy spike near
//! zero), which is what makes magnitude pruning meaningful.

use rand::distributions::{Distribution, Uniform};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::matrix::Matrix;

/// A seeded random generator that produces matrices.
///
/// # Examples
///
/// ```
/// use tbstc_matrix::rng::MatrixRng;
///
/// let mut a = MatrixRng::seed_from(42);
/// let mut b = MatrixRng::seed_from(42);
/// assert_eq!(a.gaussian(4, 4, 0.0, 1.0), b.gaussian(4, 4, 0.0, 1.0));
/// ```
#[derive(Debug, Clone)]
pub struct MatrixRng {
    rng: StdRng,
}

impl MatrixRng {
    /// Creates a generator from a 64-bit seed.
    pub fn seed_from(seed: u64) -> Self {
        MatrixRng {
            rng: StdRng::seed_from_u64(seed),
        }
    }

    /// Uniform values in `[lo, hi)`.
    pub fn uniform(&mut self, rows: usize, cols: usize, lo: f32, hi: f32) -> Matrix {
        let dist = Uniform::new(lo, hi);
        Matrix::from_fn(rows, cols, |_, _| dist.sample(&mut self.rng))
    }

    /// Gaussian values via Box–Muller (mean `mu`, standard deviation `sigma`).
    pub fn gaussian(&mut self, rows: usize, cols: usize, mu: f32, sigma: f32) -> Matrix {
        Matrix::from_fn(rows, cols, |_, _| mu + sigma * self.standard_normal())
    }

    /// One standard-normal sample.
    pub fn standard_normal(&mut self) -> f32 {
        // Box–Muller; u is kept away from 0 to avoid ln(0).
        let u: f32 = self.rng.gen_range(f32::EPSILON..1.0);
        let v: f32 = self.rng.gen_range(0.0..std::f32::consts::TAU);
        (-2.0 * u.ln()).sqrt() * v.cos()
    }

    /// Weight-like values: Gaussian scaled by `1/sqrt(fan_in)` (Kaiming-ish),
    /// matching the magnitude statistics of trained layers closely enough
    /// for pruning experiments.
    pub fn weights(&mut self, rows: usize, cols: usize) -> Matrix {
        let sigma = (2.0 / cols as f32).sqrt();
        self.gaussian(rows, cols, 0.0, sigma)
    }

    /// A matrix whose elements are zero with probability `sparsity`, and
    /// otherwise Gaussian — an *unstructured* sparse matrix.
    pub fn sparse_gaussian(
        &mut self,
        rows: usize,
        cols: usize,
        sparsity: f64,
        sigma: f32,
    ) -> Matrix {
        Matrix::from_fn(rows, cols, |_, _| {
            if self.rng.gen_bool(sparsity) {
                0.0
            } else {
                sigma * self.standard_normal()
            }
        })
    }

    /// Weight-like values with *block-local lane structure*: the matrix is
    /// tiled into `m × m` blocks and each block concentrates its magnitude
    /// in a few random rows or columns (or stays uniform).
    ///
    /// Trained DNN weights exhibit exactly this local heterogeneity — it is
    /// what makes the choice of sparsity *dimension* matter per block
    /// (TB-STC paper Fig. 17 measures ~46 % column-oriented blocks on
    /// ResNet-50). I.i.d. Gaussian weights have no such structure and make
    /// all N:M patterns look alike.
    ///
    /// # Panics
    ///
    /// Panics if `m == 0`.
    pub fn block_structured_weights(&mut self, rows: usize, cols: usize, m: usize) -> Matrix {
        self.block_structured_weights_with(rows, cols, m, 2.0, 0.15, 1.3)
    }

    /// [`MatrixRng::block_structured_weights`] with explicit structure
    /// strength: heavy lanes are scaled by `heavy`, light lanes by
    /// `light`, and per-block magnitudes span `2^±block_range`. Smaller
    /// contrast models late-training weights whose importance is spread
    /// more evenly.
    ///
    /// # Panics
    ///
    /// Panics if `m == 0`.
    pub fn block_structured_weights_with(
        &mut self,
        rows: usize,
        cols: usize,
        m: usize,
        heavy: f32,
        light: f32,
        block_range: f32,
    ) -> Matrix {
        assert!(m > 0, "block size must be positive");
        let sigma = (2.0 / cols as f32).sqrt();
        let grid_rows = rows.div_ceil(m);
        let grid_cols = cols.div_ceil(m);
        // Per block: an overall magnitude scale (blocks of a trained layer
        // differ strongly in importance, which is what lets per-block N
        // selection beat a uniform ratio), an orientation and per-lane
        // scales. `lane_gain[b·m + lane]` is the fused per-(block, lane)
        // factor `sigma · (block_scale · lane_scale)`, multiplied in the
        // same order as the element formula so every element is
        // bit-identical to evaluating it per position.
        let mut lane_gain = vec![0.0f32; grid_rows * grid_cols * m];
        let mut col_heavy = vec![false; grid_rows * grid_cols];
        let mut lane_scale = vec![1.0f32; m];
        let mut lanes: Vec<usize> = Vec::with_capacity(m);
        for b in 0..grid_rows * grid_cols {
            // Log-uniform block magnitude over 2^±block_range.
            let block_scale = f32::powf(2.0, self.rng.gen_range(-block_range..block_range));
            // Trained conv/attention layers concentrate importance in a few
            // *rows* (output channels / heads) of a block more often than in
            // columns — the TB-STC paper measures ~46 % column-direction vs
            // ~19 % row-direction blocks on ResNet-50 (Fig. 17), and
            // row-heavy blocks are the ones that need the column
            // (independent-dimension) constraint.
            let u = self.rng.gen_range(0.0f64..1.0);
            lane_scale.fill(1.0);
            if u < 0.62 {
                // Row-heavy (u < 0.40) scales by block row, col-heavy by
                // block column; a few heavy lanes, the rest attenuated.
                col_heavy[b] = u >= 0.40;
                let heavy_lanes = self.rng.gen_range(1..=m.div_ceil(2));
                lanes.clear();
                lanes.extend(0..m);
                self.shuffle(&mut lanes);
                for (i, &lane) in lanes.iter().enumerate() {
                    lane_scale[lane] = if i < heavy_lanes { heavy } else { light };
                }
            }
            // Flat blocks keep unit lane scales: `block_scale · 1.0` is
            // exactly `block_scale`.
            for (g, &l) in lane_gain[b * m..(b + 1) * m].iter_mut().zip(&lane_scale) {
                *g = sigma * (block_scale * l);
            }
        }
        let mut w = Matrix::zeros(rows, cols);
        if cols == 0 {
            return w;
        }
        // Row-major walk, one RNG draw per element in the order the
        // positions are stored.
        for (r, row) in w.as_mut_slice().chunks_exact_mut(cols).enumerate() {
            let (br, lane) = (r / m, r % m);
            for (bc, seg) in row.chunks_mut(m).enumerate() {
                let b = br * grid_cols + bc;
                let gains = &lane_gain[b * m..(b + 1) * m];
                if col_heavy[b] {
                    for (x, &g) in seg.iter_mut().zip(gains) {
                        *x = g * self.standard_normal();
                    }
                } else {
                    let g = gains[lane];
                    for x in seg.iter_mut() {
                        *x = g * self.standard_normal();
                    }
                }
            }
        }
        w
    }

    /// One uniform sample in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        self.rng.gen_range(0.0..1.0)
    }

    /// One integer sample in `[0, n)`.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn index(&mut self, n: usize) -> usize {
        assert!(n > 0, "index range must be non-empty");
        self.rng.gen_range(0..n)
    }

    /// Fisher–Yates shuffle of a slice.
    pub fn shuffle<T>(&mut self, slice: &mut [T]) {
        for i in (1..slice.len()).rev() {
            let j = self.rng.gen_range(0..=i);
            slice.swap(i, j);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seeding_is_deterministic() {
        let mut a = MatrixRng::seed_from(1);
        let mut b = MatrixRng::seed_from(1);
        assert_eq!(a.uniform(3, 3, 0.0, 1.0), b.uniform(3, 3, 0.0, 1.0));
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = MatrixRng::seed_from(1);
        let mut b = MatrixRng::seed_from(2);
        assert_ne!(a.uniform(8, 8, 0.0, 1.0), b.uniform(8, 8, 0.0, 1.0));
    }

    #[test]
    fn uniform_respects_bounds() {
        let mut rng = MatrixRng::seed_from(3);
        let m = rng.uniform(20, 20, -0.5, 0.5);
        assert!(m.as_slice().iter().all(|&x| (-0.5..0.5).contains(&x)));
    }

    #[test]
    fn gaussian_moments_are_plausible() {
        let mut rng = MatrixRng::seed_from(4);
        let m = rng.gaussian(100, 100, 1.0, 2.0);
        let n = m.len() as f64;
        let mean: f64 = m.as_slice().iter().map(|&x| f64::from(x)).sum::<f64>() / n;
        let var: f64 = m
            .as_slice()
            .iter()
            .map(|&x| (f64::from(x) - mean).powi(2))
            .sum::<f64>()
            / n;
        assert!((mean - 1.0).abs() < 0.1, "mean {mean}");
        assert!((var - 4.0).abs() < 0.4, "var {var}");
    }

    #[test]
    fn sparse_gaussian_hits_target_sparsity() {
        let mut rng = MatrixRng::seed_from(5);
        let m = rng.sparse_gaussian(100, 100, 0.75, 1.0);
        assert!((m.sparsity() - 0.75).abs() < 0.03);
    }

    #[test]
    fn shuffle_is_permutation() {
        let mut rng = MatrixRng::seed_from(6);
        let mut v: Vec<usize> = (0..50).collect();
        rng.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
        assert_ne!(v, (0..50).collect::<Vec<_>>());
    }

    /// The per-element closure formulation `block_structured_weights_with`
    /// replaced: the oracle its row/lane loops must match bit for bit.
    fn block_structured_oracle(
        rng: &mut MatrixRng,
        rows: usize,
        cols: usize,
        m: usize,
        heavy: f32,
        light: f32,
        block_range: f32,
    ) -> Matrix {
        let sigma = (2.0 / cols as f32).sqrt();
        let grid_rows = rows.div_ceil(m);
        let grid_cols = cols.div_ceil(m);
        let mut block_scale = vec![1.0f32; grid_rows * grid_cols];
        let mut lane_scale = vec![vec![1.0f32; m]; grid_rows * grid_cols];
        let mut orient = vec![2u8; grid_rows * grid_cols];
        for b in 0..grid_rows * grid_cols {
            block_scale[b] = f32::powf(2.0, rng.rng.gen_range(-block_range..block_range));
            let u = rng.rng.gen_range(0.0f64..1.0);
            let o = if u < 0.40 {
                0
            } else if u < 0.62 {
                1
            } else {
                2
            };
            orient[b] = o;
            if o != 2 {
                let heavy_lanes = rng.rng.gen_range(1..=m.div_ceil(2));
                let mut lanes: Vec<usize> = (0..m).collect();
                rng.shuffle(&mut lanes);
                for (i, &lane) in lanes.iter().enumerate() {
                    lane_scale[b][lane] = if i < heavy_lanes { heavy } else { light };
                }
            }
        }
        Matrix::from_fn(rows, cols, |r, c| {
            let b = (r / m) * grid_cols + (c / m);
            let scale = block_scale[b]
                * match orient[b] {
                    0 => lane_scale[b][r % m],
                    1 => lane_scale[b][c % m],
                    _ => 1.0,
                };
            sigma * scale * rng.standard_normal()
        })
    }

    fn same_bits(a: &Matrix, b: &Matrix) -> bool {
        a.shape() == b.shape()
            && a.as_slice()
                .iter()
                .zip(b.as_slice())
                .all(|(x, y)| x.to_bits() == y.to_bits())
    }

    proptest::proptest! {
        #[test]
        fn block_structured_matches_oracle(
            seed in 0u64..1000,
            rows in 0usize..41,
            cols in 0usize..41,
            m in 1usize..12,
            contrast in 0usize..3,
        ) {
            let (heavy, light, range) = [(2.0, 0.15, 1.3), (1.4, 0.6, 0.5), (3.0, 0.0, 2.0)][contrast];
            let mut a = MatrixRng::seed_from(seed);
            let mut b = MatrixRng::seed_from(seed);
            let fast = a.block_structured_weights_with(rows, cols, m, heavy, light, range);
            let slow = block_structured_oracle(&mut b, rows, cols, m, heavy, light, range);
            proptest::prop_assert!(same_bits(&fast, &slow), "{rows}x{cols} m={m}");
            // The generators leave the RNG in the same state.
            proptest::prop_assert_eq!(a.unit().to_bits(), b.unit().to_bits());
        }
    }

    #[test]
    fn weights_scale_with_fan_in() {
        let mut rng = MatrixRng::seed_from(7);
        let wide = rng.weights(10, 1000);
        let narrow = rng.weights(10, 10);
        assert!(
            wide.frobenius_norm() / (wide.len() as f64).sqrt()
                < narrow.frobenius_norm() / (narrow.len() as f64).sqrt()
        );
    }
}
