//! Reference matrix-multiplication kernels.
//!
//! These are the golden models for SpMM (`D = A × B + C`, paper §II-A).
//! The cycle-level simulator never *computes* with them (it only counts
//! cycles), but every storage-format round-trip and every dataflow variant
//! is validated against these kernels in the integration tests.

use crate::error::{DimError, Result};
use crate::f16::F16;
use crate::matrix::Matrix;
use crate::pool;

/// Reusable workspace for the blocked kernels.
///
/// [`matmul_at_b_into`] packs strided column panels of its left operand
/// and [`matmul_transb_into`] packs lane-interleaved row tiles of `B` into
/// this buffer so the inner loops run over contiguous memory; keeping the
/// scratch alive across calls (one per training loop, say) means the
/// kernels allocate nothing in steady state.
#[derive(Debug, Clone, Default)]
pub struct GemmScratch {
    packed: Vec<f32>,
}

impl GemmScratch {
    /// Creates an empty workspace; buffers grow on first use and are
    /// reused afterwards.
    pub fn new() -> Self {
        GemmScratch::default()
    }
}

/// Lane width of the packed micro-kernels: the `A·Bᵀ` kernel interleaves
/// `A`-rows in groups of this many, giving the inner loop that many
/// independent accumulation chains (vectorizable without reordering any
/// single element's sum); [`accumulate_row`] uses the same width for its
/// column tiles.
const TILE_J: usize = 32;
/// Column-panel width packed per pass of `Aᵀ·B`.
const PANEL_O: usize = 32;
/// Sub-tile width of the ragged column tails and the f16 kernel: narrow
/// enough to fit any tail, wide enough that the independent accumulation
/// chains still vectorize.
const TAIL_J: usize = 8;
/// Below this many scalar MACs the kernels stay serial: thread spawn and
/// join overhead would dominate.
const PAR_MIN_MACS: usize = 1 << 21;

/// Computes `A × B` with dimension checking.
///
/// # Errors
///
/// Returns [`DimError`] when `A.cols() != B.rows()`.
///
/// # Examples
///
/// ```
/// use tbstc_matrix::{Matrix, gemm};
///
/// let a = Matrix::filled(2, 3, 1.0);
/// let b = Matrix::filled(3, 2, 1.0);
/// let d = gemm::try_matmul(&a, &b)?;
/// assert_eq!(d[(0, 0)], 3.0);
/// # Ok::<(), tbstc_matrix::DimError>(())
/// ```
pub fn try_matmul(a: &Matrix, b: &Matrix) -> Result<Matrix> {
    if a.cols() != b.rows() {
        return Err(DimError {
            op: "matmul",
            lhs: a.shape(),
            rhs: b.shape(),
        });
    }
    let (m, k) = a.shape();
    let n = b.cols();
    let mut d = Matrix::zeros(m, n);
    for i in 0..m {
        let arow = a.row(i);
        let drow = d.row_mut(i);
        for (p, &aval) in arow.iter().enumerate() {
            if aval == 0.0 {
                continue; // skip zeros: same arithmetic, faster golden model
            }
            let brow = b.row(p);
            for (j, out) in drow.iter_mut().enumerate() {
                *out += aval * brow[j];
            }
        }
    }
    debug_assert_eq!(k, b.rows());
    Ok(d)
}

/// Computes `A × B`.
///
/// # Panics
///
/// Panics when `A.cols() != B.rows()`; use [`try_matmul`] to handle the
/// error instead.
#[expect(
    clippy::expect_used,
    reason = "documented panicking wrapper over try_matmul"
)]
pub fn matmul(a: &Matrix, b: &Matrix) -> Matrix {
    try_matmul(a, b).expect("matmul dimension mismatch")
}

/// Computes `A × B` into `out`, reusing `out`'s allocation.
///
/// Identical arithmetic (and accumulation order) to [`try_matmul`]; the
/// only difference is that the result lands in a caller-owned buffer, so a
/// loop that multiplies matrices of stable shape allocates nothing after
/// the first call.
///
/// # Panics
///
/// Panics when `A.cols() != B.rows()`.
pub fn matmul_into(a: &Matrix, b: &Matrix, out: &mut Matrix) {
    assert_eq!(
        a.cols(),
        b.rows(),
        "matmul_into dimension mismatch: {:?} × {:?}",
        a.shape(),
        b.shape()
    );
    let (m, _) = a.shape();
    let n = b.cols();
    out.reset(m, n);
    for i in 0..m {
        accumulate_row(a.row(i), b, out.row_mut(i));
    }
}

/// Register-blocked row accumulation shared by [`matmul_into`] and
/// [`matmul_at_b_into`]: `orow[j] = Σ_p mult[p] * b[p][j]`.
///
/// Full [`TILE_J`]-wide column tiles accumulate into a stack array (the
/// lanes are independent chains, so the loop vectorizes without reordering
/// any element's sum); the ragged remainder runs the same shape at
/// [`TAIL_J`] width, with a scalar loop for the final sub-[`TAIL_J`]
/// columns. Per element, products are added in ascending `p` with `±0`
/// multipliers skipped — exactly [`try_matmul`]'s arithmetic.
fn accumulate_row(mult: &[f32], b: &Matrix, orow: &mut [f32]) {
    let n = orow.len();
    debug_assert_eq!(n, b.cols());
    debug_assert_eq!(mult.len(), b.rows());
    let mut j0 = 0;
    while j0 + TILE_J <= n {
        let mut acc = [0.0f32; TILE_J];
        for (p, &av) in mult.iter().enumerate() {
            if av == 0.0 {
                continue;
            }
            let lanes = &b.row(p)[j0..j0 + TILE_J];
            for (acc_l, &bv) in acc.iter_mut().zip(lanes) {
                *acc_l += av * bv;
            }
        }
        orow[j0..j0 + TILE_J].copy_from_slice(&acc);
        j0 += TILE_J;
    }
    while j0 + TAIL_J <= n {
        let mut acc = [0.0f32; TAIL_J];
        for (p, &av) in mult.iter().enumerate() {
            if av == 0.0 {
                continue;
            }
            let lanes = &b.row(p)[j0..j0 + TAIL_J];
            for (acc_l, &bv) in acc.iter_mut().zip(lanes) {
                *acc_l += av * bv;
            }
        }
        orow[j0..j0 + TAIL_J].copy_from_slice(&acc);
        j0 += TAIL_J;
    }
    if j0 < n {
        for (p, &av) in mult.iter().enumerate() {
            if av == 0.0 {
                continue;
            }
            let lanes = &b.row(p)[j0..];
            for (o, &bv) in orow[j0..].iter_mut().zip(lanes) {
                *o += av * bv;
            }
        }
    }
}

/// Computes `A × Bᵀ` directly from row-major storage — no materialized
/// transpose.
///
/// `A`'s rows are packed lane-interleaved into the scratch workspace
/// ([`TILE_J`] rows per tile, zero-padded at the edge), so the inner loop
/// runs [`TILE_J`] independent accumulation chains over contiguous memory.
/// The multiplier is the `B` element, and `±0` multipliers are skipped —
/// when `B` carries masked weights the kernel does work proportional to
/// the surviving non-zeros. Each output element still receives its
/// non-zero products in ascending-`p` order — skipping `±0` products is
/// bitwise neutral, so the result is bit-identical to [`try_matmul`] on a
/// materialized transpose. Work is split over output-row panels on the
/// [`crate::pool`] above a size threshold; each panel exclusively owns its
/// output rows, so the parallel result is bit-identical to the serial one.
///
/// # Errors
///
/// Returns [`DimError`] when `A.cols() != B.cols()`.
///
/// # Examples
///
/// ```
/// use tbstc_matrix::{Matrix, gemm};
///
/// let a = Matrix::filled(2, 3, 1.0);
/// let b = Matrix::filled(4, 3, 2.0);
/// let d = gemm::try_matmul_transb(&a, &b)?;
/// assert_eq!(d.shape(), (2, 4));
/// assert_eq!(d[(1, 3)], 6.0);
/// # Ok::<(), tbstc_matrix::DimError>(())
/// ```
pub fn try_matmul_transb(a: &Matrix, b: &Matrix) -> Result<Matrix> {
    if a.cols() != b.cols() {
        return Err(DimError {
            op: "matmul_transb",
            lhs: a.shape(),
            rhs: b.shape(),
        });
    }
    let mut out = Matrix::zeros(0, 0);
    let mut scratch = GemmScratch::new();
    matmul_transb_into(a, b, &mut out, &mut scratch);
    Ok(out)
}

/// Computes `A × Bᵀ`.
///
/// # Panics
///
/// Panics when `A.cols() != B.cols()`; use [`try_matmul_transb`] to handle
/// the error instead.
#[expect(
    clippy::expect_used,
    reason = "documented panicking wrapper over try_matmul_transb"
)]
pub fn matmul_transb(a: &Matrix, b: &Matrix) -> Matrix {
    try_matmul_transb(a, b).expect("matmul_transb dimension mismatch")
}

/// Computes `A × Bᵀ` into `out`, packing `B` through `scratch` and reusing
/// both allocations (see [`try_matmul_transb`] for the kernel; this entry
/// adds the automatic parallelism threshold).
///
/// # Panics
///
/// Panics when `A.cols() != B.cols()`.
pub fn matmul_transb_into(a: &Matrix, b: &Matrix, out: &mut Matrix, scratch: &mut GemmScratch) {
    let macs = a.rows() * a.cols() * b.rows();
    let workers = if macs >= PAR_MIN_MACS {
        pool::available_workers()
    } else {
        1
    };
    matmul_transb_with_workers(a, b, out, workers, scratch);
}

/// [`matmul_transb_into`] with an explicit worker count instead of the
/// size-threshold heuristic.
///
/// Exposed so determinism tests can pin the worker count; `workers <= 1`
/// runs inline on the caller's thread. `A` is packed once (serially)
/// before the panels are dispatched, so every worker reads the same
/// packed tiles.
///
/// # Panics
///
/// Panics when `A.cols() != B.cols()`.
pub fn matmul_transb_with_workers(
    a: &Matrix,
    b: &Matrix,
    out: &mut Matrix,
    workers: usize,
    scratch: &mut GemmScratch,
) {
    assert_eq!(
        a.cols(),
        b.cols(),
        "matmul_transb dimension mismatch: {:?} × {:?}ᵀ",
        a.shape(),
        b.shape()
    );
    let m = a.rows();
    let n = b.rows();
    let k = a.cols();
    out.reset(m, n);
    if n == 0 || m == 0 {
        return;
    }
    // Pack A lane-interleaved: tile `it` holds rows `it*TILE_J ..` with
    // element `p` of all TILE_J rows adjacent (edge lanes zero-padded).
    let mtiles = m.div_ceil(TILE_J);
    scratch.packed.clear();
    scratch.packed.resize(mtiles * k * TILE_J, 0.0);
    for it in 0..mtiles {
        let slab = &mut scratch.packed[it * k * TILE_J..(it + 1) * k * TILE_J];
        for lane in 0..TILE_J.min(m - it * TILE_J) {
            for (p, &v) in a.row(it * TILE_J + lane).iter().enumerate() {
                slab[p * TILE_J + lane] = v;
            }
        }
    }
    let packed = &scratch.packed;
    pool::parallel_chunks_mut(out.as_mut_slice(), TILE_J * n, workers, |ci, panel| {
        transb_tile(&packed[ci * k * TILE_J..(ci + 1) * k * TILE_J], b, n, panel);
    });
}

/// Serial `A·Bᵀ` over one output-row panel (one lane tile of `A`-rows),
/// reading the tile's lane-interleaved packed slab.
///
/// The multiplier is the `B` element: rows of masked weights drive work
/// proportional to their non-zeros, and skipping the `±0` multipliers is
/// bitwise neutral (adding `±0` never changes an accumulator that started
/// at `+0`).
fn transb_tile(slab: &[f32], b: &Matrix, n: usize, panel: &mut [f32]) {
    let rows_here = panel.len() / n;
    for j in 0..n {
        let mut acc = [0.0f32; TILE_J];
        for (p, &bv) in b.row(j).iter().enumerate() {
            if bv == 0.0 {
                continue; // bitwise neutral: skipping ±0 products
            }
            let lanes = &slab[p * TILE_J..(p + 1) * TILE_J];
            for (acc_l, &av) in acc.iter_mut().zip(lanes) {
                *acc_l += av * bv;
            }
        }
        for (lane, &v) in acc[..rows_here].iter().enumerate() {
            panel[lane * n + j] = v;
        }
    }
}

/// Computes `Aᵀ × B` directly from row-major storage — no materialized
/// transpose.
///
/// # Errors
///
/// Returns [`DimError`] when `A.rows() != B.rows()`.
///
/// # Examples
///
/// ```
/// use tbstc_matrix::{Matrix, gemm};
///
/// let a = Matrix::filled(3, 2, 1.0);
/// let b = Matrix::filled(3, 4, 2.0);
/// let d = gemm::try_matmul_at_b(&a, &b)?;
/// assert_eq!(d.shape(), (2, 4));
/// assert_eq!(d[(1, 0)], 6.0);
/// # Ok::<(), tbstc_matrix::DimError>(())
/// ```
pub fn try_matmul_at_b(a: &Matrix, b: &Matrix) -> Result<Matrix> {
    if a.rows() != b.rows() {
        return Err(DimError {
            op: "matmul_at_b",
            lhs: a.shape(),
            rhs: b.shape(),
        });
    }
    let mut out = Matrix::zeros(0, 0);
    let mut scratch = GemmScratch::new();
    matmul_at_b_into(a, b, &mut out, &mut scratch);
    Ok(out)
}

/// Computes `Aᵀ × B`.
///
/// # Panics
///
/// Panics when `A.rows() != B.rows()`; use [`try_matmul_at_b`] to handle
/// the error instead.
#[expect(
    clippy::expect_used,
    reason = "documented panicking wrapper over try_matmul_at_b"
)]
pub fn matmul_at_b(a: &Matrix, b: &Matrix) -> Matrix {
    try_matmul_at_b(a, b).expect("matmul_at_b dimension mismatch")
}

/// Computes `Aᵀ × B` into `out`, packing column panels of `A` through
/// `scratch` so the inner loops run over contiguous memory.
///
/// `A`'s columns (rows of `Aᵀ`) are gathered [`PANEL_O`] at a time into
/// the scratch workspace — the only strided traversal in the kernel — and
/// the accumulation then streams rows of `B` and `out` contiguously,
/// skipping zero multipliers exactly like [`try_matmul`] (gradients gated
/// through ReLU are mostly zeros, so the skip is worth a branch).
///
/// # Panics
///
/// Panics when `A.rows() != B.rows()`.
pub fn matmul_at_b_into(a: &Matrix, b: &Matrix, out: &mut Matrix, scratch: &mut GemmScratch) {
    assert_eq!(
        a.rows(),
        b.rows(),
        "matmul_at_b dimension mismatch: {:?}ᵀ × {:?}",
        a.shape(),
        b.shape()
    );
    let nn = a.rows();
    let o_dim = a.cols();
    out.reset(o_dim, b.cols());
    for o0 in (0..o_dim).step_by(PANEL_O) {
        let ow = (o_dim - o0).min(PANEL_O);
        scratch.packed.clear();
        scratch.packed.resize(ow * nn, 0.0);
        for nrow in 0..nn {
            let arow = a.row(nrow);
            for t in 0..ow {
                scratch.packed[t * nn + nrow] = arow[o0 + t];
            }
        }
        for t in 0..ow {
            let acol = &scratch.packed[t * nn..(t + 1) * nn];
            accumulate_row(acol, b, out.row_mut(o0 + t));
        }
    }
}

/// Computes the full SpMM operator `D = A × B + C` (paper §II-A).
///
/// # Errors
///
/// Returns [`DimError`] when the inner dimensions disagree or `C` does not
/// have shape `(A.rows(), B.cols())`.
pub fn try_spmm(a: &Matrix, b: &Matrix, c: &Matrix) -> Result<Matrix> {
    let mut d = try_matmul(a, b)?;
    if c.shape() != d.shape() {
        return Err(DimError {
            op: "spmm bias add",
            lhs: d.shape(),
            rhs: c.shape(),
        });
    }
    for (out, &bias) in d.as_mut_slice().iter_mut().zip(c.as_slice()) {
        *out += bias;
    }
    Ok(d)
}

/// Computes `A × B` with every product and accumulation rounded through
/// binary16, emulating the FP16 DVPE datapath.
///
/// Both operands are rounded through binary16 once up front
/// (`F16::round_trip` is pure, so hoisting it out of the inner loop is
/// bit-identical to rounding at each use) and the columns run in
/// [`TAIL_J`]-wide lane groups — independent accumulation chains, each
/// still rounding every product and every partial sum in ascending-`p`
/// order.
///
/// # Errors
///
/// Returns [`DimError`] when `A.cols() != B.rows()`.
pub fn try_matmul_f16(a: &Matrix, b: &Matrix) -> Result<Matrix> {
    if a.cols() != b.rows() {
        return Err(DimError {
            op: "matmul_f16",
            lhs: a.shape(),
            rhs: b.shape(),
        });
    }
    let (m, k) = a.shape();
    let n = b.cols();
    let ra: Vec<f32> = a.as_slice().iter().map(|&v| F16::round_trip(v)).collect();
    let rb: Vec<f32> = b.as_slice().iter().map(|&v| F16::round_trip(v)).collect();
    let mut d = Matrix::zeros(m, n);
    for i in 0..m {
        let arow = &ra[i * k..(i + 1) * k];
        let drow = d.row_mut(i);
        let mut j0 = 0;
        while j0 + TAIL_J <= n {
            let mut acc = [0.0f32; TAIL_J];
            for (p, &av) in arow.iter().enumerate() {
                let lanes = &rb[p * n + j0..p * n + j0 + TAIL_J];
                for (acc_l, &bv) in acc.iter_mut().zip(lanes) {
                    *acc_l = F16::round_trip(*acc_l + F16::round_trip(av * bv));
                }
            }
            drow[j0..j0 + TAIL_J].copy_from_slice(&acc);
            j0 += TAIL_J;
        }
        for (j, out) in drow.iter_mut().enumerate().skip(j0) {
            let mut acc = 0.0f32;
            for (p, &av) in arow.iter().enumerate() {
                acc = F16::round_trip(acc + F16::round_trip(av * rb[p * n + j]));
            }
            *out = acc;
        }
    }
    Ok(d)
}

/// Number of scalar multiply-accumulate operations a dense `A × B` performs.
pub fn dense_macs(a: &Matrix, b: &Matrix) -> u64 {
    a.rows() as u64 * a.cols() as u64 * b.cols() as u64
}

/// Number of MACs a sparsity-skipping kernel performs: one per non-zero of
/// `A` per column of `B`.
pub fn sparse_macs(a: &Matrix, b_cols: usize) -> u64 {
    a.count_nonzeros() as u64 * b_cols as u64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::MatrixRng;
    use proptest::prelude::*;

    #[test]
    fn identity_is_neutral() {
        let a = Matrix::from_fn(3, 3, |r, c| (r + 2 * c) as f32);
        assert_eq!(matmul(&a, &Matrix::identity(3)), a);
        assert_eq!(matmul(&Matrix::identity(3), &a), a);
    }

    #[test]
    fn known_product() {
        let a = Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]).unwrap();
        let b = Matrix::from_rows(&[vec![5.0, 6.0], vec![7.0, 8.0]]).unwrap();
        let d = matmul(&a, &b);
        assert_eq!(
            d,
            Matrix::from_rows(&[vec![19.0, 22.0], vec![43.0, 50.0]]).unwrap()
        );
    }

    #[test]
    fn spmm_adds_bias() {
        let a = Matrix::identity(2);
        let b = Matrix::filled(2, 2, 1.0);
        let c = Matrix::filled(2, 2, 10.0);
        let d = try_spmm(&a, &b, &c).unwrap();
        assert_eq!(d, Matrix::filled(2, 2, 11.0));
    }

    #[test]
    fn spmm_rejects_bad_bias_shape() {
        let a = Matrix::identity(2);
        let b = Matrix::filled(2, 2, 1.0);
        let c = Matrix::zeros(3, 3);
        assert!(try_spmm(&a, &b, &c).is_err());
    }

    #[test]
    fn mismatch_is_error() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(2, 3);
        let err = try_matmul(&a, &b).unwrap_err();
        assert_eq!(err.lhs, (2, 3));
    }

    #[test]
    fn mac_counts() {
        let a = Matrix::from_rows(&[vec![1.0, 0.0, 2.0]]).unwrap();
        let b = Matrix::zeros(3, 4);
        assert_eq!(dense_macs(&a, &b), 12);
        assert_eq!(sparse_macs(&a, 4), 8);
    }

    #[test]
    fn f16_matmul_close_to_f32() {
        let mut rng = MatrixRng::seed_from(7);
        let a = rng.uniform(8, 8, -1.0, 1.0);
        let b = rng.uniform(8, 8, -1.0, 1.0);
        let exact = matmul(&a, &b);
        let half = try_matmul_f16(&a, &b).unwrap();
        // 8-term fp16 accumulation of O(1) values: generous tolerance.
        assert!(exact.max_abs_diff(&half).unwrap() < 0.05);
    }

    #[test]
    fn transb_known_product() {
        let a = Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]).unwrap();
        let b = Matrix::from_rows(&[vec![5.0, 6.0], vec![7.0, 8.0]]).unwrap();
        // A·Bᵀ == matmul(A, transpose(B))
        assert_eq!(matmul_transb(&a, &b), matmul(&a, &b.transpose()));
    }

    #[test]
    fn at_b_known_product() {
        let a = Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0], vec![5.0, 6.0]]).unwrap();
        let b = Matrix::from_rows(&[vec![1.0, 0.0], vec![0.0, 1.0], vec![1.0, 1.0]]).unwrap();
        assert_eq!(matmul_at_b(&a, &b), matmul(&a.transpose(), &b));
    }

    #[test]
    fn transb_rejects_mismatch() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(2, 4);
        let err = try_matmul_transb(&a, &b).unwrap_err();
        assert_eq!(err.op, "matmul_transb");
    }

    #[test]
    fn at_b_rejects_mismatch() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(3, 4);
        let err = try_matmul_at_b(&a, &b).unwrap_err();
        assert_eq!(err.op, "matmul_at_b");
    }

    #[test]
    fn into_kernels_reuse_allocations() {
        let mut rng = MatrixRng::seed_from(3);
        let a = rng.uniform(24, 17, -1.0, 1.0);
        let b = rng.uniform(24, 9, -1.0, 1.0);
        let mut out = Matrix::zeros(0, 0);
        let mut scratch = GemmScratch::new();
        matmul_at_b_into(&a, &b, &mut out, &mut scratch);
        let first = out.clone();
        // Second call with the same shapes must only rewrite in place.
        matmul_at_b_into(&a, &b, &mut out, &mut scratch);
        assert_eq!(out, first);
        matmul_into(&a.transpose(), &b, &mut out);
        assert_eq!(out, first);
    }

    #[test]
    fn transb_parallel_is_bit_identical_to_serial() {
        let mut rng = MatrixRng::seed_from(41);
        // Enough rows for many panels; odd shapes to stress panel edges.
        let a = rng.uniform(131, 45, -2.0, 2.0);
        let b = rng.uniform(77, 45, -2.0, 2.0);
        let mut scratch = GemmScratch::new();
        let mut serial = Matrix::zeros(0, 0);
        matmul_transb_with_workers(&a, &b, &mut serial, 1, &mut scratch);
        for workers in [2, 3, 8] {
            let mut parallel = Matrix::zeros(0, 0);
            matmul_transb_with_workers(&a, &b, &mut parallel, workers, &mut scratch);
            assert_eq!(parallel, serial, "workers={workers}");
        }
    }

    /// Relative-tolerance comparison against the golden kernel.
    fn assert_close_to_golden(fast: &Matrix, golden: &Matrix) {
        assert_eq!(fast.shape(), golden.shape());
        for r in 0..golden.rows() {
            for c in 0..golden.cols() {
                let (f, g) = (fast[(r, c)], golden[(r, c)]);
                let rel = (f - g).abs() / g.abs().max(1.0);
                assert!(rel <= 1e-5, "({r},{c}): fast={f} golden={g}");
            }
        }
    }

    proptest! {
        #[test]
        fn transb_matches_golden(seed in 0u64..200) {
            // Shapes deliberately include non-multiples of 8 and tiny dims.
            let mut rng = MatrixRng::seed_from(seed);
            let m = 1 + (seed as usize * 7) % 37;
            let k = 1 + (seed as usize * 5) % 29;
            let n = 1 + (seed as usize * 3) % 41;
            let a = rng.uniform(m, k, -2.0, 2.0);
            let b = rng.uniform(n, k, -2.0, 2.0);
            let golden = try_matmul(&a, &b.transpose()).unwrap();
            assert_close_to_golden(&matmul_transb(&a, &b), &golden);
        }

        #[test]
        fn at_b_matches_golden(seed in 0u64..200) {
            let mut rng = MatrixRng::seed_from(seed.wrapping_add(9999));
            let n = 1 + (seed as usize * 7) % 37;
            let o = 1 + (seed as usize * 5) % 29;
            let i = 1 + (seed as usize * 3) % 41;
            let a = rng.uniform(n, o, -2.0, 2.0);
            let b = rng.uniform(n, i, -2.0, 2.0);
            let golden = try_matmul(&a.transpose(), &b).unwrap();
            assert_close_to_golden(&matmul_at_b(&a, &b), &golden);
        }

        #[test]
        fn at_b_skips_gated_gradients(seed in 0u64..100) {
            // Zeroing rows of A (ReLU-gated gradients) must not change the
            // arithmetic relative to the golden model.
            let mut rng = MatrixRng::seed_from(seed);
            let mut a = rng.uniform(16, 11, -1.0, 1.0);
            for r in (0..16).step_by(2) {
                for v in a.row_mut(r) {
                    *v = 0.0;
                }
            }
            let b = rng.uniform(16, 13, -1.0, 1.0);
            let golden = try_matmul(&a.transpose(), &b).unwrap();
            prop_assert_eq!(matmul_at_b(&a, &b), golden);
        }

        #[test]
        fn matmul_distributes_over_transpose(seed in 0u64..1000) {
            // (A B)^T == B^T A^T
            let mut rng = MatrixRng::seed_from(seed);
            let a = rng.uniform(4, 6, -2.0, 2.0);
            let b = rng.uniform(6, 3, -2.0, 2.0);
            let lhs = matmul(&a, &b).transpose();
            let rhs = matmul(&b.transpose(), &a.transpose());
            prop_assert!(lhs.max_abs_diff(&rhs).unwrap() < 1e-4);
        }

        #[test]
        fn zero_rows_skip_is_equivalent(seed in 0u64..1000) {
            // Masking A then multiplying equals multiplying the masked A:
            // exercises the zero-skip fast path against the dense path.
            let mut rng = MatrixRng::seed_from(seed);
            let mut a = rng.uniform(5, 5, -2.0, 2.0);
            for c in 0..5 {
                a[(2, c)] = 0.0;
            }
            let b = rng.uniform(5, 5, -2.0, 2.0);
            let d = matmul(&a, &b);
            for c in 0..5 {
                prop_assert_eq!(d[(2, c)], 0.0);
            }
        }
    }
}
