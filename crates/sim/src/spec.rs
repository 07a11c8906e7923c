//! The declarative architecture layer: accelerators as data.
//!
//! An [`ArchSpec`] is a small document — pattern constraint, dataflow
//! slot terms, codec choice, lanes, bandwidth and energy multipliers.
//! It is the only description of an architecture: the eight registry
//! builtins are specs too, and [`crate::archs::ArchModel`] interprets
//! every spec through the same code. Serialization to/from canonical
//! JSON lives in the core crate (`tbstc::archspec`), which depends on
//! this one.

use tbstc_energy::components::{self, DatapathCosts, PeArrayShape};
use tbstc_sparsity::PatternKind;

use crate::compute::SchedulePolicy;

/// One term of a dataflow's slot expression. A block's base slot count is
/// the **max** over the spec's terms — structural constraints bind, they
/// don't add (VEGETA pays `max(lockstep, ratio-grouped)`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SlotTerm {
    /// Every MAC slot of the (edge-clipped) block issues.
    Dense,
    /// One slot per non-zero.
    Nnz,
    /// Adjacent groups of `group` rows run in lockstep, each costing
    /// `group × max(row nnz)`.
    Lockstep {
        /// Rows per lockstep group (1–8).
        group: usize,
    },
    /// Rows sharing a non-zero count pack into common `width`-lane
    /// issues; distinct counts need separate issues.
    RatioGrouped {
        /// Lanes per issue (1–8).
        width: usize,
    },
}

/// A dataflow's slot cost: `ceil(max(terms) × multiplier / efficiency)`.
/// When both factors are exactly 1.0 the base count passes through
/// untouched, so a spec without overhead factors prices exactly its
/// base count.
#[derive(Debug, Clone, PartialEq)]
pub struct Dataflow {
    /// Slot terms, combined by max. Must be non-empty.
    pub terms: Vec<SlotTerm>,
    /// Slot overhead multiplier (e.g. HighLight's 1.06 metadata
    /// intersection, FAN's 1.12 pipeline occupancy). Must be ≥ 1.
    pub multiplier: f64,
    /// Packing efficiency divisor in `(0, 1]` (e.g. RM-STC's 0.94 merge
    /// bubbles, SGCN's 0.7 gather efficiency).
    pub efficiency: f64,
}

impl Dataflow {
    /// An nnz-proportional dataflow with no overhead factors.
    pub fn nnz() -> Dataflow {
        Dataflow {
            terms: vec![SlotTerm::Nnz],
            multiplier: 1.0,
            efficiency: 1.0,
        }
    }

    /// Whether both overhead factors are exactly 1.0 (slots pass through).
    fn is_unit(&self) -> bool {
        self.multiplier == 1.0 && self.efficiency == 1.0
    }

    /// Applies the overhead factors to a base slot count.
    pub(crate) fn scale(&self, base: usize) -> usize {
        if self.is_unit() {
            base
        } else {
            ((base as f64) * self.multiplier / self.efficiency).ceil() as usize
        }
    }

    /// Whether a [`SlotTerm::Dense`] term is present — dense dataflows
    /// occupy every (clipped) block row, not just non-empty ones.
    pub(crate) fn has_dense_term(&self) -> bool {
        self.terms.contains(&SlotTerm::Dense)
    }
}

/// The weight-stream storage format the architecture consumes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CodecSpec {
    /// Uncompressed row-major rows, 2 bytes per element.
    DenseRows,
    /// Aligned N:M values + 2-bit position metadata (NVIDIA 4:8).
    AlignedNm,
    /// SDC padded per `group`-row window (VEGETA).
    GroupedSdc {
        /// Rows per alignment window (1–8).
        group: usize,
    },
    /// Whole-matrix-aligned SDC (HighLight).
    Sdc,
    /// Bitmap + packed values (RM-STC).
    Bitmap,
    /// DDC when the layer carries TBS metadata, dense rows otherwise
    /// (TB-STC and ablations).
    DdcOrDense,
    /// CSR stream with per-element indices (SGCN).
    Csr,
}

/// When the weight stream degenerates to a dense row stream, making the
/// full matrix the information content.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DenseInfoPolicy {
    /// Never (compressed formats).
    Never,
    /// Always (dense TC).
    Always,
    /// On layers without TBS metadata under the native format (TB-STC
    /// runs non-prunable layers dense).
    NonTbsNative,
}

/// The datapath cost inventory to price the design against — specs pick
/// from the calibrated Table III component lists rather than inventing
/// component energies.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DatapathKind {
    /// Plain dense Tensor Core.
    TensorCore,
    /// NVIDIA STC (2:4 mux selects).
    NvidiaStc,
    /// VEGETA's vertical SIMD with B-select.
    Vegeta,
    /// HighLight's hierarchical metadata decoders.
    Highlight,
    /// RM-STC's gather/union row-merge frontend.
    RmStc,
    /// TB-STC's DVPEs + adaptive codec.
    TbStc,
    /// TB-STC with SIGMA's FAN reduction (ablation).
    DvpeWithFan,
    /// SGCN's CSR frontend (RM-STC-class gather logic).
    Sgcn,
}

impl DatapathKind {
    /// Builds the component inventory for a PE-array shape.
    pub fn build(self, shape: PeArrayShape) -> DatapathCosts {
        match self {
            DatapathKind::TensorCore => components::tensor_core(shape),
            DatapathKind::NvidiaStc => components::nvidia_stc(shape),
            DatapathKind::Vegeta => components::vegeta(shape),
            DatapathKind::Highlight => components::highlight(shape),
            DatapathKind::RmStc => components::rm_stc(shape),
            DatapathKind::TbStc => components::tb_stc(shape),
            DatapathKind::DvpeWithFan => components::dvpe_with_fan(shape),
            DatapathKind::Sgcn => {
                let mut dp = components::rm_stc(shape);
                dp.name = "SGCN";
                dp
            }
        }
    }
}

/// A complete declarative architecture description — everything
/// [`crate::archs::ArchModel`] needs to simulate it, nothing more.
#[derive(Debug, Clone, PartialEq)]
pub struct ArchSpec {
    /// Canonical lowercase kebab-case name (job specs, CLI, cache keys).
    pub name: String,
    /// Paper-style display name.
    pub display: String,
    /// One-line description.
    pub summary: String,
    /// The sparsity pattern the architecture natively executes.
    pub pattern: PatternKind,
    /// The scheduling policy it ships with.
    pub schedule: SchedulePolicy,
    /// Whether the §VI hierarchical sparsity-aware scheduling is present.
    pub hierarchical_scheduling: bool,
    /// The slot-cost expression of the dataflow.
    pub dataflow: Dataflow,
    /// Whether a per-row frontend decode (SGCN's CSR row setup) adds one
    /// slot-cycle per non-empty row, amortized over the PEs.
    pub row_frontend: bool,
    /// The weight-stream storage format.
    pub codec: CodecSpec,
    /// When the weight stream degenerates to dense rows.
    pub dense_info: DenseInfoPolicy,
    /// Whether the architecture consumes DDC through the adaptive codec.
    pub consumes_ddc: bool,
    /// Off-chip bandwidth override in GB/s; `None` = platform default.
    pub bandwidth_gbps: Option<f64>,
    /// Multiplier-lane count; `None` = the platform's peak-parity count.
    pub lanes: Option<usize>,
    /// The datapath cost inventory.
    pub datapath: DatapathKind,
    /// Per-MAC dynamic-energy multiplier over the plain FP16 MAC.
    pub mac_energy_multiplier: f64,
}

/// Largest lockstep group / ratio width / SDC window: one 8×8 block.
pub const MAX_GROUP: usize = 8;

/// Multiplier lanes of one DVPE (§VI): the scheduler issues whole PEs,
/// so a lane override must fill them.
const DVPE_LANES: usize = 8;

impl ArchSpec {
    /// Semantic validation beyond shape: value ranges, name discipline,
    /// non-empty dataflow. Returns the first violation as
    /// `"<field path>: <problem>"` (the caller prefixes `arch_spec.`).
    pub fn validate(&self) -> Result<(), String> {
        if self.name.is_empty() {
            return Err("name: must be non-empty".into());
        }
        if !self
            .name
            .bytes()
            .all(|b| b.is_ascii_lowercase() || b.is_ascii_digit() || b == b'-')
        {
            return Err(format!(
                "name: `{}` must be lowercase kebab-case ([a-z0-9-])",
                self.name
            ));
        }
        if self.name.starts_with('-') || self.name.ends_with('-') {
            return Err(format!(
                "name: `{}` must not start or end with `-`",
                self.name
            ));
        }
        if self.display.is_empty() {
            return Err("display: must be non-empty".into());
        }
        if self.dataflow.terms.is_empty() {
            return Err("dataflow.terms: must list at least one term".into());
        }
        for (i, term) in self.dataflow.terms.iter().enumerate() {
            let (label, v) = match *term {
                SlotTerm::Lockstep { group } => ("lockstep", group),
                SlotTerm::RatioGrouped { width } => ("ratio-grouped", width),
                _ => continue,
            };
            if !(1..=MAX_GROUP).contains(&v) {
                return Err(format!(
                    "dataflow.terms[{i}]: {label} {v} out of range 1..={MAX_GROUP}"
                ));
            }
        }
        if !self.dataflow.multiplier.is_finite() || self.dataflow.multiplier < 1.0 {
            return Err(format!(
                "dataflow.multiplier: {} must be finite and ≥ 1",
                self.dataflow.multiplier
            ));
        }
        if !self.dataflow.efficiency.is_finite()
            || self.dataflow.efficiency <= 0.0
            || self.dataflow.efficiency > 1.0
        {
            return Err(format!(
                "dataflow.efficiency: {} must be in (0, 1]",
                self.dataflow.efficiency
            ));
        }
        if let CodecSpec::GroupedSdc { group } = self.codec {
            if !(1..=MAX_GROUP).contains(&group) {
                return Err(format!("codec.group: {group} out of range 1..={MAX_GROUP}"));
            }
        }
        if let Some(bw) = self.bandwidth_gbps {
            if !bw.is_finite() || bw <= 0.0 {
                return Err(format!("bandwidth_gbps: {bw} must be finite and positive"));
            }
        }
        if let Some(lanes) = self.lanes {
            if lanes == 0 || lanes % DVPE_LANES != 0 {
                return Err(format!(
                    "lanes: {lanes} must be a positive multiple of the \
                     {DVPE_LANES}-lane DVPE width"
                ));
            }
        }
        if !self.mac_energy_multiplier.is_finite() || self.mac_energy_multiplier < 1.0 {
            return Err(format!(
                "mac_energy_multiplier: {} must be finite and ≥ 1",
                self.mac_energy_multiplier
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arch::{Arch, ArchId};
    use crate::archs::ArchModel;

    fn tb_spec() -> ArchSpec {
        Arch::TbStc.model().spec().clone()
    }

    #[test]
    fn builtin_specs_validate() {
        for arch in Arch::ALL {
            let spec = arch.model().spec();
            spec.validate().unwrap_or_else(|e| {
                panic!("{} spec invalid: {e}", arch.canonical_name());
            });
            assert_eq!(spec.name, arch.canonical_name());
        }
    }

    #[test]
    fn custom_arch_identity_is_custom() {
        let mut spec = tb_spec();
        spec.name = "my-tbs".into();
        let arch = ArchModel::new(spec).unwrap();
        assert_eq!(arch.id(), ArchId::custom("my-tbs"));
        assert_eq!(arch.id().builtin(), None);
        assert_eq!(arch.canonical_name(), "my-tbs");
    }

    #[test]
    fn validation_names_the_field_path() {
        type Mutation = Box<dyn Fn(&mut ArchSpec)>;
        let cases: [(&str, Mutation); 7] = [
            ("name:", Box::new(|s| s.name = "Bad Name".into())),
            ("dataflow.terms:", Box::new(|s| s.dataflow.terms.clear())),
            (
                "dataflow.efficiency:",
                Box::new(|s| s.dataflow.efficiency = 0.0),
            ),
            (
                "dataflow.multiplier:",
                Box::new(|s| s.dataflow.multiplier = f64::NAN),
            ),
            (
                "bandwidth_gbps:",
                Box::new(|s| s.bandwidth_gbps = Some(-1.0)),
            ),
            ("lanes:", Box::new(|s| s.lanes = Some(0))),
            ("lanes:", Box::new(|s| s.lanes = Some(4))),
        ];
        for (needle, mutate) in cases {
            let mut spec = tb_spec();
            mutate(&mut spec);
            let err = spec.validate().unwrap_err();
            assert!(err.starts_with(needle), "{needle} !~ {err}");
            assert!(ArchModel::new(spec).is_err());
        }
    }

    #[test]
    fn unit_dataflow_passes_slots_through() {
        let df = Dataflow::nnz();
        assert_eq!(df.scale(17), 17);
        let scaled = Dataflow {
            terms: vec![SlotTerm::Nnz],
            multiplier: 1.0,
            efficiency: 0.94,
        };
        assert_eq!(scaled.scale(17), ((17.0f64) / 0.94).ceil() as usize);
    }
}
