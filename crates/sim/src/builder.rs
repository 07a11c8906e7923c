//! The unified simulation-entry builder.
//!
//! [`LayerSim`] is the one typed builder for single-layer simulations:
//! start from a workload shape, set the architecture (or an explicit
//! pattern), sparsity and seed, then either [`LayerSim::build`] the
//! pruned layer or [`LayerSim::run`] the full simulation in one call.
//!
//! ```
//! use tbstc_models::bert_base;
//! use tbstc_sim::{Arch, HwConfig, LayerSim};
//!
//! let cfg = HwConfig::paper_default();
//! let shape = &bert_base(128).layers[0];
//! let res = LayerSim::new(shape).arch(Arch::TbStc).sparsity(0.75).seed(42).run(&cfg);
//! assert!(res.cycles > 0);
//! ```

use tbstc_models::LayerShape;
use tbstc_sparsity::{PatternKind, TbsConfig};

use crate::arch::Arch;
use crate::config::HwConfig;
use crate::layer::{LayerWeights, SparseLayer};
use crate::pipeline::simulate_layer;
use crate::result::LayerResult;

/// A fully described single-layer simulation: shape + architecture +
/// sparsity + seed (+ optional pattern/TBS-config overrides).
///
/// The builder is cheap to clone and hashable, so it doubles as the job
/// key of the parallel experiment runner.
#[derive(Debug, Clone, PartialEq)]
pub struct LayerSim {
    shape: LayerShape,
    arch: Arch,
    pattern: Option<PatternKind>,
    sparsity: f64,
    seed: u64,
    tbs_cfg: Option<TbsConfig>,
}

impl LayerSim {
    /// Starts a simulation description for `shape`. Defaults: TB-STC, the
    /// architecture's native pattern, dense (sparsity 0), seed 0.
    pub fn new(shape: &LayerShape) -> Self {
        LayerSim {
            shape: shape.clone(),
            arch: Arch::TbStc,
            pattern: None,
            sparsity: 0.0,
            seed: 0,
            tbs_cfg: None,
        }
    }

    /// Sets the simulated architecture. Unless overridden with
    /// [`LayerSim::pattern`], the layer is pruned with the architecture's
    /// native pattern.
    pub fn arch(mut self, arch: Arch) -> Self {
        self.arch = arch;
        self
    }

    /// Overrides the pruning pattern (by default the architecture's
    /// native pattern).
    pub fn pattern(mut self, pattern: PatternKind) -> Self {
        self.pattern = Some(pattern);
        self
    }

    /// Sets the target sparsity in `[0, 1]`.
    pub fn sparsity(mut self, sparsity: f64) -> Self {
        self.sparsity = sparsity;
        self
    }

    /// Sets the weight-sampling seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Uses a custom TBS block configuration (Fig. 15(a) block-size
    /// sensitivity). Implies the TBS pattern.
    pub fn tbs_config(mut self, cfg: TbsConfig) -> Self {
        self.tbs_cfg = Some(cfg);
        self.pattern = Some(PatternKind::Tbs);
        self
    }

    /// The pattern the layer will be pruned with.
    pub fn effective_pattern(&self) -> PatternKind {
        self.pattern.unwrap_or_else(|| self.arch.native_pattern())
    }

    /// Builds the pruned [`SparseLayer`] (sampling limits from `cfg`):
    /// samples the layer's dense weights ([`LayerWeights::sample`]), then
    /// prunes them ([`LayerWeights::prune`]).
    ///
    /// # Panics
    ///
    /// Panics when the sparsity is outside `[0, 1]` or a custom TBS
    /// config is invalid.
    pub fn build(&self, cfg: &HwConfig) -> SparseLayer {
        let block = self.tbs_cfg.as_ref().map_or(LayerWeights::BLOCK, |t| t.m);
        LayerWeights::sample_blocked(&self.shape, self.seed, cfg, block).prune_with(
            self.effective_pattern(),
            self.sparsity,
            self.tbs_cfg.as_ref(),
        )
    }

    /// Builds the layer and simulates it on the configured architecture.
    ///
    /// # Panics
    ///
    /// Panics when the sparsity is outside `[0, 1]` or a custom TBS
    /// config is invalid.
    pub fn run(&self, cfg: &HwConfig) -> LayerResult {
        simulate_layer(self.arch, &self.build(cfg), cfg)
    }
}

impl std::hash::Hash for LayerSim {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.shape.hash(state);
        self.arch.hash(state);
        self.pattern.hash(state);
        self.sparsity.to_bits().hash(state);
        self.seed.hash(state);
        if let Some(t) = &self.tbs_cfg {
            t.m.hash(state);
            t.n_candidates.hash(state);
        }
    }
}

impl Eq for LayerSim {}

#[cfg(test)]
mod tests {
    use super::*;
    use tbstc_models::bert_base;

    fn shape() -> LayerShape {
        bert_base(128).layers[0].clone()
    }

    #[test]
    fn pattern_override_beats_arch_default() {
        let cfg = HwConfig::paper_default();
        let l = LayerSim::new(&shape())
            .arch(Arch::TbStc)
            .pattern(PatternKind::Unstructured)
            .sparsity(0.5)
            .build(&cfg);
        assert_eq!(l.pattern, PatternKind::Unstructured);
        assert!(l.tbs().is_none());
    }

    #[test]
    fn run_produces_cycles() {
        let cfg = HwConfig::paper_default();
        let res = LayerSim::new(&shape())
            .arch(Arch::Stc)
            .sparsity(0.75)
            .seed(1)
            .run(&cfg);
        assert_eq!(res.arch, Arch::Stc);
        assert!(res.cycles > 0);
    }

    #[test]
    fn tbs_config_implies_tbs_pattern() {
        let cfg = HwConfig::paper_default();
        let sim = LayerSim::new(&shape())
            .arch(Arch::TbStc)
            .sparsity(0.75)
            .tbs_config(TbsConfig::with_block_size(16));
        assert_eq!(sim.effective_pattern(), PatternKind::Tbs);
        let l = sim.build(&cfg);
        assert!(l.tbs().is_some());
        assert_eq!(l.tbs().unwrap().config().m, 16);
    }

    #[test]
    #[expect(clippy::disallowed_types, reason = "tests the Hash impl")]
    fn builder_is_a_usable_hash_key() {
        use std::collections::HashSet;
        let a = LayerSim::new(&shape())
            .arch(Arch::TbStc)
            .sparsity(0.5)
            .seed(1);
        let b = LayerSim::new(&shape())
            .arch(Arch::TbStc)
            .sparsity(0.5)
            .seed(1);
        let c = LayerSim::new(&shape())
            .arch(Arch::TbStc)
            .sparsity(0.75)
            .seed(1);
        let mut set = HashSet::new();
        set.insert(a);
        assert!(set.contains(&b));
        assert!(!set.contains(&c));
    }
}
