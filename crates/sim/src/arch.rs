//! The `Arch` enum: a cheap copyable tag for the architectures in the
//! registry. All behaviour lives in the builtin's spec in
//! [`crate::archs::REGISTRY`], and every method here reads the
//! registered [`ArchModel`].

use std::str::FromStr;
use std::sync::Arc;

use tbstc_energy::components::{DatapathCosts, PeArrayShape};
use tbstc_sparsity::PatternKind;

use crate::archs::{self, ArchModel};

/// A simulated accelerator architecture (§VII-A2 baselines + ablations).
///
/// Discriminant order matches [`archs::REGISTRY`]; the registry's
/// `registry_order_matches_enum` test locks the correspondence.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Arch {
    /// Dense Tensor Core.
    Tc,
    /// NVIDIA Sparse Tensor Core (2:4 / 4:8 tile sparsity only).
    Stc,
    /// VEGETA: row-wise N:M with per-row ratios.
    Vegeta,
    /// HighLight: hierarchical structured sparsity.
    Highlight,
    /// RM-STC: unstructured row-merge sparse tensor core.
    RmStc,
    /// TB-STC: this paper.
    TbStc,
    /// Ablation: TB-STC's DVPEs replaced by SIGMA's FAN reduction
    /// (paper §VII-E2).
    DvpeFan,
    /// SGCN: high-sparsity GNN accelerator (Fig. 15(d) baseline).
    Sgcn,
}

impl Arch {
    /// Every registered architecture, in the registry's (paper plotting)
    /// order.
    pub const ALL: [Arch; 8] = [
        Arch::Tc,
        Arch::Stc,
        Arch::Vegeta,
        Arch::Highlight,
        Arch::RmStc,
        Arch::TbStc,
        Arch::DvpeFan,
        Arch::Sgcn,
    ];

    /// The baselines of the main comparison figures (Fig. 12/13), in the
    /// paper's plotting order.
    pub const MAIN_BASELINES: [Arch; 6] = [
        Arch::Tc,
        Arch::Stc,
        Arch::Vegeta,
        Arch::Highlight,
        Arch::RmStc,
        Arch::TbStc,
    ];

    /// The registered model implementing this architecture.
    pub fn model(self) -> &'static ArchModel {
        archs::model(self)
    }

    /// Canonical lowercase name (job specs, CLI, caches) — the inverse of
    /// [`Arch::from_str`].
    pub fn canonical_name(self) -> &'static str {
        self.model().canonical_name()
    }

    /// Accepted alternate spellings.
    pub fn aliases(self) -> &'static [&'static str] {
        self.model().aliases()
    }

    /// The sparsity pattern this architecture natively executes.
    pub fn native_pattern(self) -> PatternKind {
        self.model().native_pattern()
    }

    /// The datapath cost inventory for this architecture.
    pub fn datapath(self, shape: PeArrayShape) -> DatapathCosts {
        self.model().datapath(shape)
    }

    /// Multiplier-lane count available to this architecture. The paper
    /// keeps peak compute equal across baselines (§VII-A1).
    pub fn lanes(self, shape: PeArrayShape) -> usize {
        self.model().lanes(shape)
    }

    /// Off-chip bandwidth override in GB/s; `None` = platform default.
    pub fn bandwidth_override_gbps(self) -> Option<f64> {
        self.model().spec().bandwidth_gbps
    }

    /// Whether this architecture has the inter/intra-block sparsity-aware
    /// scheduling of §VI (used by the Fig. 16(b) ablation).
    pub fn has_hierarchical_scheduling(self) -> bool {
        self.model().spec().hierarchical_scheduling
    }

    /// Per-MAC dynamic-energy multiplier over the plain FP16 MAC.
    pub fn mac_energy_multiplier(self) -> f64 {
        self.model().spec().mac_energy_multiplier
    }
}

impl std::fmt::Display for Arch {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.model().display_name())
    }
}

/// The identity of any simulated architecture: a registry builtin (a
/// cheap [`Arch`] tag) or a spec-defined custom architecture carrying its
/// declared name. Results ([`crate::LayerResult`], [`crate::ModelResult`])
/// record an `ArchId` so spec-driven and builtin runs flow through the
/// same pipeline.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum ArchId {
    /// A registry architecture.
    Builtin(Arch),
    /// A spec-defined architecture, by its declared canonical name.
    Custom(Arc<str>),
}

impl ArchId {
    /// A custom identity from a declared spec name.
    pub fn custom(name: &str) -> ArchId {
        ArchId::Custom(Arc::from(name))
    }

    /// The builtin tag, when this is a registry architecture.
    pub fn builtin(&self) -> Option<Arch> {
        match self {
            ArchId::Builtin(a) => Some(*a),
            ArchId::Custom(_) => None,
        }
    }

    /// Canonical lowercase name: the registry name for builtins, the
    /// spec's declared name for customs.
    pub fn canonical_name(&self) -> &str {
        match self {
            ArchId::Builtin(a) => a.canonical_name(),
            ArchId::Custom(name) => name,
        }
    }
}

impl From<Arch> for ArchId {
    fn from(a: Arch) -> ArchId {
        ArchId::Builtin(a)
    }
}

impl PartialEq<Arch> for ArchId {
    fn eq(&self, other: &Arch) -> bool {
        self.builtin() == Some(*other)
    }
}

impl PartialEq<ArchId> for Arch {
    fn eq(&self, other: &ArchId) -> bool {
        other.builtin() == Some(*self)
    }
}

impl std::fmt::Display for ArchId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ArchId::Builtin(a) => a.fmt(f),
            ArchId::Custom(name) => f.write_str(name),
        }
    }
}

/// An architecture name that matched no registry entry. Its display lists
/// every valid canonical name.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseArchError {
    name: String,
}

impl std::fmt::Display for ParseArchError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "unknown arch `{}` (valid: {})",
            self.name,
            archs::canonical_names()
        )
    }
}

impl std::error::Error for ParseArchError {}

impl FromStr for Arch {
    type Err = ParseArchError;

    /// Parses a canonical name or alias, backed by the registry.
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        archs::by_name(s)
            .and_then(|m| m.id().builtin())
            .ok_or_else(|| ParseArchError { name: s.into() })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn patterns_match_paper_table() {
        assert_eq!(Arch::Stc.native_pattern(), PatternKind::TileNm);
        assert_eq!(Arch::Vegeta.native_pattern(), PatternKind::RowWiseVegeta);
        assert_eq!(Arch::TbStc.native_pattern(), PatternKind::Tbs);
        assert_eq!(Arch::RmStc.native_pattern(), PatternKind::Unstructured);
    }

    #[test]
    fn sgcn_has_high_bandwidth_ratio() {
        let shape = PeArrayShape::paper_default();
        assert_eq!(Arch::Sgcn.lanes(shape), 1024);
        assert_eq!(Arch::Sgcn.bandwidth_override_gbps(), Some(256.0));
        assert_eq!(Arch::TbStc.bandwidth_override_gbps(), None);
    }

    #[test]
    fn only_tb_stc_has_hierarchical_scheduling() {
        for a in Arch::MAIN_BASELINES {
            assert_eq!(a.has_hierarchical_scheduling(), a == Arch::TbStc);
        }
    }

    #[test]
    fn datapath_costs_are_distinct() {
        let shape = PeArrayShape::paper_default();
        let tb = Arch::TbStc.datapath(shape).total_power_mw();
        let rm = Arch::RmStc.datapath(shape).total_power_mw();
        let tc = Arch::Tc.datapath(shape).total_power_mw();
        assert!(rm > tb, "RM-STC {rm} > TB-STC {tb}");
        assert!(tb > tc, "TB-STC {tb} > TC {tc}");
    }

    #[test]
    fn display_names() {
        assert_eq!(Arch::TbStc.to_string(), "TB-STC");
        assert_eq!(Arch::DvpeFan.to_string(), "DVPE+FAN");
    }

    #[test]
    fn names_roundtrip_through_the_registry() {
        for arch in Arch::ALL {
            assert_eq!(arch.canonical_name().parse::<Arch>(), Ok(arch));
            for alias in arch.aliases() {
                assert_eq!(alias.parse::<Arch>(), Ok(arch));
            }
        }
    }

    #[test]
    fn parse_error_lists_all_valid_names() {
        let err = "tpu".parse::<Arch>().unwrap_err().to_string();
        assert!(err.contains("unknown arch `tpu`"), "{err}");
        for arch in Arch::ALL {
            assert!(err.contains(arch.canonical_name()), "{err}");
        }
    }
}
