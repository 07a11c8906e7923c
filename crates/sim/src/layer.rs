//! Sparse-layer construction: from a workload shape to the pruned weights
//! the simulator walks.
//!
//! Real layers can be enormous (OPT-6.7B's fc1 is 4096 × 16384). The
//! simulator's per-block models only need the *block-statistics* of the
//! pruned weights, which are stationary across a layer, so large layers
//! are built at a sampled size and all extensive results (cycles, traffic,
//! MACs, energy) are scaled back up by the exact element-count ratio. The
//! sampled weights use the block-structured generator, which reproduces
//! the local row/column heterogeneity of trained weights (see
//! `MatrixRng::block_structured_weights`).

use tbstc_matrix::rng::MatrixRng;
use tbstc_matrix::Matrix;
use tbstc_models::LayerShape;
use tbstc_sparsity::pattern::{paper_pattern, TileNm};
use tbstc_sparsity::{Mask, Pattern, PatternKind, TbsConfig, TbsPattern};

use crate::config::HwConfig;

/// A pruned layer ready for simulation: sampled weights + pattern
/// metadata + scale factors back to the real size.
#[derive(Debug, Clone)]
pub struct SparseLayer {
    /// Layer name (from the workload).
    pub name: String,
    /// Real weight rows (independent dim).
    pub m: usize,
    /// Real weight cols (reduction dim).
    pub k: usize,
    /// Real activation columns.
    pub n: usize,
    /// The sparsity target requested.
    pub target: f64,
    /// The pattern that produced the mask.
    pub pattern: PatternKind,
    /// Sampled, pruned weights (`sm × sk`).
    sampled: Matrix,
    /// TBS metadata when `pattern == Tbs` (needed for DDC and the codec).
    tbs: Option<TbsPattern>,
    /// Sampled B-column count used by compute models.
    pub sn: usize,
}

/// The dense sampled weights of one layer: the first of the two stages
/// behind [`crate::LayerSim::build`].
///
/// The sample depends only on the layer (its name and size), the seed and
/// the sampling limits — never on the pattern or the sparsity — so one
/// sample can be pruned for every architecture and sparsity that shares
/// the layer and seed ([`LayerWeights::prune`]).
#[derive(Debug, Clone)]
pub struct LayerWeights {
    shape: LayerShape,
    dense: Matrix,
    sn: usize,
}

impl LayerWeights {
    /// Block granularity of the weight generator unless a custom TBS
    /// configuration sizes it.
    pub(crate) const BLOCK: usize = 8;

    /// Samples the dense weights of `shape` deterministically from
    /// `seed`, under the sampling limits in `cfg`.
    pub fn sample(shape: &LayerShape, seed: u64, cfg: &HwConfig) -> Self {
        Self::sample_blocked(shape, seed, cfg, Self::BLOCK)
    }

    /// [`LayerWeights::sample`] at an explicit generator block size (a
    /// custom TBS config sizes the sample by its own block dimension).
    pub(crate) fn sample_blocked(
        shape: &LayerShape,
        seed: u64,
        cfg: &HwConfig,
        block: usize,
    ) -> Self {
        let sm = shape.m.min(cfg.sample_dim).max(block);
        let sk = shape.k.min(cfg.sample_dim).max(block);
        let sn = shape.n.min(cfg.sample_cols).max(1);
        let mut rng = MatrixRng::seed_from(seed ^ fxhash(&shape.name));
        LayerWeights {
            shape: shape.clone(),
            dense: rng.block_structured_weights(sm, sk, block),
            sn,
        }
    }

    /// The layer shape the weights were sampled for.
    pub fn shape(&self) -> &LayerShape {
        &self.shape
    }

    /// Prunes the weights with `pattern` at `target` sparsity: the second
    /// stage behind [`crate::LayerSim::build`].
    ///
    /// # Panics
    ///
    /// Panics when `target` is outside `[0, 1]`.
    pub fn prune(&self, pattern: PatternKind, target: f64) -> SparseLayer {
        self.prune_with(pattern, target, None)
    }

    /// [`LayerWeights::prune`] with an optional custom TBS configuration,
    /// which switches the pattern to TBS at that block size (the
    /// Fig. 15(a) sensitivity path).
    ///
    /// # Panics
    ///
    /// Panics when `target` is outside `[0, 1]` or `tbs_cfg` is invalid.
    pub(crate) fn prune_with(
        &self,
        pattern: PatternKind,
        target: f64,
        tbs_cfg: Option<&TbsConfig>,
    ) -> SparseLayer {
        assert!((0.0..=1.0).contains(&target), "target sparsity in [0, 1]");
        let weights = &self.dense;
        let (pattern, mask, tbs): (PatternKind, Mask, Option<TbsPattern>) = match (pattern, tbs_cfg)
        {
            (_, Some(t)) => {
                let p = TbsPattern::sparsify(weights, target, t);
                (PatternKind::Tbs, p.mask().clone(), Some(p))
            }
            (PatternKind::Tbs, None) => {
                let p = TbsPattern::sparsify(weights, target, &TbsConfig::paper_default());
                (pattern, p.mask().clone(), Some(p))
            }
            (PatternKind::TileNm, None) => {
                // NVIDIA STC hardware supports exactly 2:4/4:8 — its
                // metadata format cannot express other ratios, so the
                // pattern is projected at 50 % regardless of the target
                // (paper Table I footnote and Fig. 12 caption).
                (pattern, TileNm::new(4, 8).project(weights, 0.5), None)
            }
            (other, None) => (other, paper_pattern(other).project(weights, target), None),
        };

        SparseLayer {
            name: self.shape.name.clone(),
            m: self.shape.m,
            k: self.shape.k,
            n: self.shape.n,
            target,
            pattern,
            sampled: mask.apply(weights),
            tbs,
            sn: self.sn,
        }
    }
}

impl SparseLayer {
    /// The sampled pruned weight matrix.
    pub fn sampled(&self) -> &Matrix {
        &self.sampled
    }

    /// TBS metadata (present only for the TBS pattern).
    pub fn tbs(&self) -> Option<&TbsPattern> {
        self.tbs.as_ref()
    }

    /// Sampled rows.
    pub fn sm(&self) -> usize {
        self.sampled.rows()
    }

    /// Sampled reduction columns.
    pub fn sk(&self) -> usize {
        self.sampled.cols()
    }

    /// Factor scaling sampled weight-extensive quantities (block walks,
    /// A-traffic) to the real layer.
    pub fn weight_scale(&self) -> f64 {
        (self.m as f64 * self.k as f64) / (self.sm() as f64 * self.sk() as f64)
    }

    /// Factor scaling sampled activation-extensive quantities to the real
    /// layer.
    pub fn col_scale(&self) -> f64 {
        self.n as f64 / self.sn as f64
    }

    /// The sparsity the projection actually achieved on the sample.
    pub fn actual_sparsity(&self) -> f64 {
        self.sampled.sparsity()
    }

    /// Real (scaled) non-zero weight count.
    pub fn real_nnz(&self) -> f64 {
        self.sampled.count_nonzeros() as f64 * self.weight_scale()
    }

    /// Real useful MACs: one per non-zero weight per activation column.
    pub fn real_useful_macs(&self) -> f64 {
        self.real_nnz() * self.n as f64
    }
}

/// A tiny deterministic string hash so two layers with the same seed but
/// different names get different weights.
fn fxhash(s: &str) -> u64 {
    let mut h = 0xcbf29ce484222325u64;
    for b in s.bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x100000001b3);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::LayerSim;
    use tbstc_models::bert_base;

    fn shape() -> LayerShape {
        bert_base(128).layers[0].clone()
    }

    fn build(shape: &LayerShape, pattern: PatternKind, target: f64, seed: u64) -> SparseLayer {
        LayerSim::new(shape)
            .pattern(pattern)
            .sparsity(target)
            .seed(seed)
            .build(&HwConfig::paper_default())
    }

    #[test]
    fn sampling_caps_dimensions() {
        let l = build(&shape(), PatternKind::Tbs, 0.5, 1);
        assert_eq!(l.sm(), 128);
        assert_eq!(l.sk(), 128);
        assert_eq!(l.m, 768);
        assert!((l.weight_scale() - 36.0).abs() < 1e-9); // (768/128)²
    }

    #[test]
    fn small_layers_not_scaled() {
        let small = LayerShape {
            name: "tiny".into(),
            m: 64,
            k: 64,
            n: 32,
            repeats: 1,
            prunable: true,
        };
        let l = build(&small, PatternKind::Unstructured, 0.5, 2);
        assert_eq!(l.weight_scale(), 1.0);
        assert_eq!(l.col_scale(), 1.0);
    }

    #[test]
    fn target_sparsity_achieved() {
        for kind in [
            PatternKind::Unstructured,
            PatternKind::Tbs,
            PatternKind::RowWiseVegeta,
        ] {
            let l = build(&shape(), kind, 0.75, 3);
            assert!(
                (l.actual_sparsity() - 0.75).abs() < 0.06,
                "{kind}: {}",
                l.actual_sparsity()
            );
        }
    }

    #[test]
    fn stc_pinned_to_half_density() {
        // Target 0.875 but STC executes 4:8.
        let l = build(&shape(), PatternKind::TileNm, 0.875, 4);
        assert!((l.actual_sparsity() - 0.5).abs() < 1e-9);
    }

    #[test]
    fn tbs_layers_carry_metadata() {
        let l = build(&shape(), PatternKind::Tbs, 0.5, 5);
        assert!(l.tbs().is_some());
        let l2 = build(&shape(), PatternKind::Unstructured, 0.5, 5);
        assert!(l2.tbs().is_none());
    }

    #[test]
    fn deterministic_given_seed() {
        let a = build(&shape(), PatternKind::Tbs, 0.5, 7);
        let b = build(&shape(), PatternKind::Tbs, 0.5, 7);
        assert_eq!(a.sampled(), b.sampled());
    }

    #[test]
    fn different_layer_names_differ() {
        let mut s2 = shape();
        s2.name = "other".into();
        let a = build(&shape(), PatternKind::Tbs, 0.5, 7);
        let b = build(&s2, PatternKind::Tbs, 0.5, 7);
        assert_ne!(a.sampled(), b.sampled());
    }

    #[test]
    fn useful_macs_scale() {
        let l = build(&shape(), PatternKind::Unstructured, 0.5, 8);
        let expect = 768.0 * 768.0 * 0.5 * 128.0;
        let got = l.real_useful_macs();
        assert!((got / expect - 1.0).abs() < 0.05, "{got} vs {expect}");
    }
}
