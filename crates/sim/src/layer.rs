//! Sparse-layer construction: from a workload shape to the pruned weights
//! the simulator walks.
//!
//! Real layers can be enormous (OPT-6.7B's fc1 is 4096 × 16384). The
//! simulator's per-block models only need the *block-statistics* of the
//! pruned weights, which are stationary across a layer, so large layers
//! are built at a sampled size and all extensive results (cycles, traffic,
//! MACs, energy) are scaled back up by the exact element-count ratio
//! ([`crate::pipeline::fold`]). The sampled weights use the
//! block-structured generator, which reproduces the local row/column
//! heterogeneity of trained weights (see
//! `MatrixRng::block_structured_weights`).

use std::sync::OnceLock;

use tbstc_matrix::rng::MatrixRng;
use tbstc_matrix::Matrix;
use tbstc_models::LayerShape;
use tbstc_sparsity::pattern::paper_pattern;
use tbstc_sparsity::{PatternKind, Scores, TbsConfig, TbsPattern};

use crate::config::HwConfig;
use crate::plan::BlockPlan;

/// What a prune request actually computes: the pattern and the target
/// sparsity it is projected at. Two requests with equal keys prune a
/// sample into bit-equal layers.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PruneKey {
    /// The pattern the mask is projected onto.
    pub pattern: PatternKind,
    /// The target sparsity the projection runs at.
    pub target: f64,
}

impl PruneKey {
    /// The one rule from a request (the pattern an architecture prunes
    /// with, whether the layer is prunable, the requested sparsity) to
    /// what is computed:
    ///
    /// - a non-prunable layer runs dense: `(Dense, 0)`;
    /// - dense ignores the target: `(Dense, 0)`;
    /// - tile N:M is pinned to 4:8, NVIDIA STC's only ratio (paper
    ///   Table I footnote and Fig. 12 caption): `(TileNm, 0.5)`;
    /// - every other pattern runs at the requested target.
    ///
    /// # Panics
    ///
    /// Panics when `target` is outside `[0, 1]`.
    pub fn new(pattern: PatternKind, prunable: bool, target: f64) -> Self {
        assert!((0.0..=1.0).contains(&target), "target sparsity in [0, 1]");
        let (pattern, target) = match pattern {
            _ if !prunable => (PatternKind::Dense, 0.0),
            PatternKind::Dense => (PatternKind::Dense, 0.0),
            PatternKind::TileNm => (PatternKind::TileNm, 0.5),
            other => (other, target),
        };
        PruneKey { pattern, target }
    }
}

/// What a layer's dense sample is drawn from: the seed, the layer name,
/// the sampled rows and columns, and the generator block. Two layers
/// with equal keys sample bit-equal weights, whatever their real size,
/// so a sweep samples (and prunes) each key once for every model that
/// shares it.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct SampleKey {
    seed: u64,
    name: String,
    rows: usize,
    cols: usize,
    block: usize,
}

impl SampleKey {
    /// The key of `shape` sampled from `seed` under the sampling limits in
    /// `cfg`, at the default generator block.
    pub fn new(shape: &LayerShape, seed: u64, cfg: &HwConfig) -> Self {
        Self::blocked(shape, seed, cfg, LayerWeights::BLOCK)
    }

    /// The one sampling rule: each weight dimension is capped at
    /// `cfg.sample_dim` and padded up to one generator block.
    pub(crate) fn blocked(shape: &LayerShape, seed: u64, cfg: &HwConfig, block: usize) -> Self {
        SampleKey {
            seed,
            name: shape.name.clone(),
            rows: shape.m.min(cfg.sample_dim).max(block),
            cols: shape.k.min(cfg.sample_dim).max(block),
            block,
        }
    }
}

/// Sampled activation columns of `shape` under the limits in `cfg`: the
/// `sn` a pruned sample is measured at for that shape.
pub fn sampled_cols(shape: &LayerShape, cfg: &HwConfig) -> usize {
    shape.n.min(cfg.sample_cols).max(1)
}

/// A pruned layer ready for simulation: the real shape, the sampled
/// weights and their pattern metadata.
#[derive(Debug, Clone)]
pub struct SparseLayer {
    /// The real layer (name and `m × k` weights by `n` activation
    /// columns) the sample stands for.
    pub shape: LayerShape,
    /// The pattern that produced the mask.
    pub pattern: PatternKind,
    /// Sampled B-column count used by compute models.
    pub sn: usize,
    /// Sampled, pruned weights (`sm × sk`).
    sampled: Matrix,
    /// TBS metadata when `pattern == Tbs` (needed for DDC and the codec).
    tbs: Option<TbsPattern>,
    /// Built from `sampled` and `tbs` on first use.
    plan: OnceLock<BlockPlan>,
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
        let key = SampleKey::blocked(shape, seed, cfg, block);
        let mut rng = MatrixRng::seed_from(seed ^ fxhash(&key.name));
        LayerWeights {
            shape: shape.clone(),
            dense: rng.block_structured_weights(key.rows, key.cols, key.block),
            sn: sampled_cols(shape, cfg),
        }
    }

    /// Prunes the weights with `pattern` at `target` sparsity (as keyed by
    /// [`PruneKey::new`] for a prunable layer): the second stage behind
    /// [`crate::LayerSim::build`].
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
        let pattern = if tbs_cfg.is_some() {
            PatternKind::Tbs
        } else {
            pattern
        };
        let key = PruneKey::new(pattern, true, target);
        let paper = TbsConfig::paper_default();
        self.prune_at(
            &mut Scores::new(&self.dense),
            key,
            tbs_cfg.unwrap_or(&paper),
        )
    }

    /// Prunes the weights at `key` from `scores`, the weights' own scores
    /// (TBS at block configuration `tbs_cfg`).
    fn prune_at(&self, scores: &mut Scores, key: PruneKey, tbs_cfg: &TbsConfig) -> SparseLayer {
        let w = &self.dense;
        let (sampled, tbs) = match key.pattern {
            PatternKind::Tbs => {
                let p = TbsPattern::from_scores(scores, key.target, tbs_cfg);
                (p.mask().apply(w), Some(p))
            }
            other => (
                paper_pattern(other)
                    .project_scores(scores, key.target)
                    .apply(w),
                None,
            ),
        };
        self.layer(key.pattern, sampled, tbs)
    }

    fn layer(&self, pattern: PatternKind, sampled: Matrix, tbs: Option<TbsPattern>) -> SparseLayer {
        SparseLayer {
            shape: self.shape.clone(),
            pattern,
            sn: self.sn,
            sampled,
            tbs,
            plan: OnceLock::new(),
        }
    }
}

/// Prunes one layer's sample for a sequence of [`PruneKey`]s: a key
/// equal to the previous one returns the previous layer, and every prune
/// projects from one [`Scores`] value of the sample, which keeps the
/// global top-k at the last target (unstructured, RS-V and TBS start from
/// it), the tile ranks (4:8, RS-V, RS-H and TBS read them) and the row
/// and block masses (RS-V and TBS weigh their rows and blocks by them).
/// Fed keys sorted by (target, pattern), it prunes each distinct key once
/// and takes each target's top-k once.
///
/// It holds at most one top-k, one tile-rank map, one set of masses and
/// one pruned layer; nothing outlives it. Any order of keys gives the same layers as
/// [`LayerWeights::prune`].
#[derive(Debug)]
pub struct LayerPruner<'w> {
    weights: &'w LayerWeights,
    scores: Scores,
    last: Option<(PruneKey, SparseLayer)>,
}

impl<'w> LayerPruner<'w> {
    /// A pruner over `weights` that has done no work yet.
    pub fn new(weights: &'w LayerWeights) -> Self {
        LayerPruner {
            weights,
            scores: Scores::new(&weights.dense),
            last: None,
        }
    }

    /// The weights pruned at `key`.
    pub fn prune(&mut self, key: PruneKey) -> &SparseLayer {
        // A stale layer is dropped before the next one is pruned.
        let last = self.last.take().filter(|(k, _)| *k == key);
        let (_, layer) = self.last.insert(last.unwrap_or_else(|| {
            let paper = TbsConfig::paper_default();
            let layer = self.weights.prune_at(&mut self.scores, key, &paper);
            (key, layer)
        }));
        layer
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

    /// The layer's [`BlockPlan`], built from the pruned sample and its TBS
    /// metadata on first use.
    pub fn plan(&self) -> &BlockPlan {
        self.plan.get_or_init(|| BlockPlan::build(self))
    }

    /// Sampled rows.
    pub fn sm(&self) -> usize {
        self.sampled().rows()
    }

    /// Sampled reduction columns.
    pub fn sk(&self) -> usize {
        self.sampled().cols()
    }

    /// The sparsity the projection actually achieved on the sample.
    pub fn actual_sparsity(&self) -> f64 {
        self.sampled().sparsity()
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
    use tbstc_sparsity::pattern::TileNm;
    use tbstc_sparsity::Pattern;

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
        assert_eq!(l.sn, 64);
        assert_eq!((l.shape.m, l.shape.k, l.shape.n), (768, 768, 128));
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
        assert_eq!((l.sm(), l.sk(), l.sn), (64, 64, 32));
        // The whole layer is simulated: its useful MACs are exact.
        let res = crate::simulate_layer(crate::Arch::RmStc, &l, &HwConfig::paper_default());
        assert_eq!(res.useful_macs, l.sampled().count_nonzeros() as u64 * 32);
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

    /// Bit-level equality of two pruned layers (NaN weights included).
    fn assert_same(got: &SparseLayer, want: &SparseLayer, what: &str) {
        let bits = |l: &SparseLayer| -> Vec<u32> {
            l.sampled().as_slice().iter().map(|x| x.to_bits()).collect()
        };
        assert_eq!(got.pattern, want.pattern, "{what}");
        assert_eq!((&got.shape, got.sn), (&want.shape, want.sn), "{what}");
        assert_eq!(bits(got), bits(want), "{what}");
        assert_eq!(got.tbs(), want.tbs(), "{what}");
    }

    const TARGETS: [f64; 5] = [0.0, 0.5, 0.75, 0.875, 1.0];

    #[test]
    fn prune_key_requests_prune_like_their_keys() {
        let cfg = HwConfig::paper_default();
        for prunable in [true, false] {
            let shape = LayerShape {
                name: "keyed".into(),
                m: 40,
                k: 24,
                n: 8,
                repeats: 1,
                prunable,
            };
            let weights = LayerWeights::sample(&shape, 11, &cfg);
            let w = &weights.dense;
            let mut by_key: Vec<(PruneKey, SparseLayer)> = Vec::new();
            for arch in crate::Arch::ALL {
                for target in TARGETS {
                    let what = format!("{arch} prunable={prunable} at {target}");
                    // The raw request, pruned without a key: the pattern
                    // the arch runs on this layer, projected at the
                    // requested target (STC's hardware runs 4:8 only).
                    let pattern = if prunable {
                        arch.native_pattern()
                    } else {
                        PatternKind::Dense
                    };
                    let (mask, tbs) = match pattern {
                        PatternKind::Tbs => {
                            let p = TbsPattern::sparsify(w, target, &TbsConfig::paper_default());
                            (p.mask().clone(), Some(p))
                        }
                        PatternKind::TileNm => (TileNm::new(4, 8).project(w, 0.5), None),
                        other => (paper_pattern(other).project(w, target), None),
                    };
                    let raw = weights.layer(pattern, mask.apply(w), tbs);

                    let key = PruneKey::new(arch.native_pattern(), prunable, target);
                    assert_eq!(PruneKey::new(key.pattern, true, key.target), key, "{what}");
                    let keyed = weights.prune(key.pattern, key.target);
                    assert_same(&keyed, &raw, &what);
                    match by_key.iter().find(|(k, _)| *k == key) {
                        Some((_, first)) => assert_same(&keyed, first, &what),
                        None => by_key.push((key, keyed)),
                    }
                }
            }
            // Prunable: dense, 4:8 and four patterns at each of the five
            // targets; non-prunable: dense only.
            assert_eq!(
                by_key.len(),
                if prunable { 2 + 4 * TARGETS.len() } else { 1 }
            );
        }
    }

    /// Scores with ties, ±0, tiny values and (optionally) NaNs.
    fn special_scores(seed: u64, rows: usize, cols: usize, nan: bool) -> Matrix {
        const ALPHABET: [f32; 8] = [0.0, -0.0, 1.0, -1.0, 0.5, -2.0, 1e-3, f32::NAN];
        let mut rng = MatrixRng::seed_from(seed);
        let pick = if nan { 8 } else { 7 };
        Matrix::from_fn(rows, cols, |_, _| match rng.index(pick + 3) {
            i if i < pick => ALPHABET[i],
            _ => rng.standard_normal(),
        })
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(48))]

        #[test]
        fn layer_pruner_replays_match_fresh_prunes(
            seed in 0u64..1000,
            rows in 1usize..24,
            cols in 1usize..24,
            special in 0usize..3,
            requests in proptest::collection::vec((0usize..7, 0usize..5, 0usize..4), 1..24),
        ) {
            // Real samples, and special scores with and without NaNs.
            let dense = match special {
                0 => MatrixRng::seed_from(seed).block_structured_weights(rows, cols, 8),
                s => special_scores(seed, rows, cols, s == 1),
            };
            let weights = LayerWeights {
                shape: LayerShape {
                    name: "replay".into(),
                    m: rows,
                    k: cols,
                    n: 4,
                    repeats: 1,
                    prunable: true,
                },
                dense,
                sn: 4,
            };
            let mut pruner = LayerPruner::new(&weights);
            // Small alphabets, so repeats and out-of-order targets are common.
            for (i, (p, t, prunable)) in requests.into_iter().enumerate() {
                let target = TARGETS[t];
                let what = format!("request {i}: pattern {p} at {target}");
                if p == PatternKind::ALL.len() {
                    // A custom TBS block size takes the unshared path.
                    let cfg4 = TbsConfig::with_block_size(4);
                    let got = weights.prune_with(PatternKind::Tbs, target, Some(&cfg4));
                    let p4 = TbsPattern::sparsify(&weights.dense, target, &cfg4);
                    let want = weights.layer(PatternKind::Tbs, p4.mask().apply(&weights.dense), Some(p4));
                    assert_same(&got, &want, &what);
                } else {
                    let key = PruneKey::new(PatternKind::ALL[p], prunable != 0, target);
                    let want = weights.prune(key.pattern, key.target);
                    assert_same(pruner.prune(key), &want, &what);
                }
            }
        }
    }

    #[test]
    fn owned_plan_matches_a_fresh_build() {
        let cfg = HwConfig::paper_default();
        let bert = shape();
        let sims = PatternKind::ALL
            .map(|kind| LayerSim::new(&bert).pattern(kind))
            .into_iter()
            .chain(
                [4, 16, 32].map(|m| LayerSim::new(&bert).tbs_config(TbsConfig::with_block_size(m))),
            );
        for sim in sims {
            let what = format!("{sim:?}");
            let layer = sim.sparsity(0.75).seed(9).build(&cfg);
            assert_eq!(layer.plan(), &BlockPlan::build(&layer), "{what}");
        }
    }

    #[test]
    fn useful_macs_scale() {
        let l = build(&shape(), PatternKind::Unstructured, 0.5, 8);
        let expect = 768.0 * 768.0 * 0.5 * 128.0;
        let res = crate::simulate_layer(crate::Arch::RmStc, &l, &HwConfig::paper_default());
        let got = res.useful_macs as f64;
        assert!((got / expect - 1.0).abs() < 0.05, "{got} vs {expect}");
    }
}
