//! The architecture model: one interpreter over [`ArchSpec`] documents,
//! and the registry of the eight builtins written as specs.
//!
//! Every simulated accelerator (§VII-A2 baselines + ablations) is data:
//! an [`ArchSpec`] naming its pattern, dataflow slot terms, codec,
//! schedule and datapath. [`ArchModel`] interprets one — it prices a
//! [`BlockPlan`] into [`BlockWork`], emits the codec's weight-stream
//! trace, and answers the platform questions (lanes, datapath costs).
//! Builtins and user-submitted specs run the same code; a builtin only
//! adds an [`ArchId::Builtin`] tag and its aliases. [`REGISTRY`] is the
//! single dispatch point — `compute`, `memory`, `pipeline`, the job-spec
//! schema, the CLI and `tbstc-serve` all resolve architectures through
//! it. Adding a ninth architecture is one more spec.

use std::sync::LazyLock;

use tbstc_energy::components::{DatapathCosts, PeArrayShape};
use tbstc_formats::{csr, ddc, sdc, AccessTrace};
use tbstc_sparsity::PatternKind;

use crate::arch::{Arch, ArchId};
use crate::compute::SchedulePolicy;
use crate::layer::SparseLayer;
use crate::plan::{BlockPlan, BLOCK};
use crate::sched::{BlockWork, InterBlockPolicy, IntraBlockPolicy};
use crate::spec::{ArchSpec, CodecSpec, Dataflow, DatapathKind, DenseInfoPolicy, SlotTerm};

/// The sampled weight-stream an architecture's storage format emits:
/// DRAM requests plus the stored byte count.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct WeightTrace {
    /// Requests as `(addr, bytes)`, replayed through the DRAM model.
    pub requests: Vec<(u64, u64)>,
    /// Bytes the format stores (the useful-traffic numerator).
    pub stored_bytes: u64,
}

impl WeightTrace {
    /// A trace from a format's [`AccessTrace`].
    pub fn from_access_trace(t: AccessTrace) -> Self {
        let stored_bytes = t.total_bytes();
        WeightTrace {
            requests: t.requests().iter().map(|r| (r.addr, r.bytes)).collect(),
            stored_bytes,
        }
    }

    /// A perfectly sequential stream of `bytes`, split into
    /// row-buffer-friendly chunks.
    pub fn sequential(bytes: u64) -> Self {
        const CHUNK: u64 = 256;
        let mut requests = Vec::with_capacity((bytes / CHUNK + 1) as usize);
        let mut addr = 0;
        while addr < bytes {
            let len = CHUNK.min(bytes - addr);
            requests.push((addr, len));
            addr += len;
        }
        WeightTrace {
            requests,
            stored_bytes: bytes,
        }
    }
}

/// An architecture the simulator can run: a validated [`ArchSpec`] and
/// the identity results are recorded under.
#[derive(Debug)]
pub struct ArchModel {
    id: ArchId,
    aliases: &'static [&'static str],
    spec: ArchSpec,
}

impl ArchModel {
    /// Interprets a spec as a custom architecture, identified by its
    /// declared name. Returns the validation message on a malformed one,
    /// so every live model is well-formed.
    pub fn new(spec: ArchSpec) -> Result<ArchModel, String> {
        spec.validate()?;
        Ok(ArchModel {
            id: ArchId::custom(&spec.name),
            aliases: &[],
            spec,
        })
    }

    /// The identity this model simulates as: a registry [`Arch`] tag for
    /// builtins, the declared name for spec-defined architectures.
    pub fn id(&self) -> ArchId {
        self.id.clone()
    }

    /// The interpreted spec — what `GET /v1/archs` and
    /// `tbstc-cli arch show` render.
    pub fn spec(&self) -> &ArchSpec {
        &self.spec
    }

    /// Paper-style display name (e.g. `TB-STC`).
    pub fn display_name(&self) -> &str {
        &self.spec.display
    }

    /// Canonical lowercase kebab-case name (job specs, CLI, caches).
    pub fn canonical_name(&self) -> &str {
        &self.spec.name
    }

    /// Accepted alternate spellings (e.g. `tbstc` for `tb-stc`).
    pub fn aliases(&self) -> &'static [&'static str] {
        self.aliases
    }

    /// One-line description for the README architecture table.
    pub fn summary(&self) -> &str {
        &self.spec.summary
    }

    /// The sparsity pattern this architecture natively executes.
    pub fn native_pattern(&self) -> PatternKind {
        self.spec.pattern
    }

    /// The scheduling policy the architecture ships with.
    pub fn native_schedule(&self) -> SchedulePolicy {
        self.spec.schedule
    }

    /// The datapath cost inventory (Table III-style component list).
    pub fn datapath(&self, shape: PeArrayShape) -> DatapathCosts {
        self.spec.datapath.build(shape)
    }

    /// Multiplier-lane count: the spec's override, else the platform's
    /// peak-parity count (§VII-A1).
    pub fn lanes(&self, shape: PeArrayShape) -> usize {
        self.spec.lanes.unwrap_or_else(|| shape.mults())
    }

    /// Prices every block of a [`BlockPlan`] in block order: slots are
    /// `scale(max over the dataflow's terms)`. Nnz-only and dense-only
    /// dataflows zip the plan's flat columns; row-shape terms (lockstep,
    /// ratio grouping) read each block's packed row counts.
    pub fn block_works_batch(&self, plan: &BlockPlan) -> Vec<BlockWork> {
        let df = &self.spec.dataflow;
        let work = |slots, rows, indep| BlockWork {
            slots: df.scale(slots),
            nonempty_rows: rows,
            independent_dim: indep,
        };
        match df.terms.as_slice() {
            [SlotTerm::Nnz] => plan
                .nnz()
                .iter()
                .zip(plan.nonempty_rows())
                .zip(plan.independent_dim())
                .map(|((&nnz, &rows), &indep)| work(nnz, rows, indep))
                .collect(),
            [SlotTerm::Dense] => plan
                .dense_slots()
                .iter()
                .zip(plan.block_rows())
                .zip(plan.independent_dim())
                .map(|((&slots, &rows), &indep)| work(slots, rows, indep))
                .collect(),
            terms => {
                // Dense dataflows occupy every (clipped) block row, not
                // just the non-empty ones.
                let rows = if df.has_dense_term() {
                    plan.block_rows()
                } else {
                    plan.nonempty_rows()
                };
                rows.iter()
                    .zip(plan.independent_dim())
                    .enumerate()
                    .map(|(i, (&rows, &indep))| {
                        let row_nnz = plan.row_nnz(i);
                        let term = |t: &SlotTerm| match *t {
                            SlotTerm::Dense => plan.dense_slots()[i],
                            SlotTerm::Nnz => plan.nnz()[i],
                            SlotTerm::Lockstep { group } => lockstep_slots(row_nnz, group),
                            SlotTerm::RatioGrouped { width } => ratio_grouped_slots(row_nnz, width),
                        };
                        work(
                            terms.iter().map(term).max().unwrap_or_default(),
                            rows,
                            indep,
                        )
                    })
                    .collect()
            }
        }
    }
}

/// Slots a lockstep SIMD engine needs: adjacent groups of `group` rows
/// run together, each costing `group × max(row nnz)`.
fn lockstep_slots(row_nnz: &[usize; 8], group: usize) -> usize {
    row_nnz
        .chunks(group)
        .map(|g| g.len() * g.iter().copied().max().unwrap_or(0))
        .sum()
}

/// Slots a ratio-grouped SIMD engine needs for one block: rows sharing a
/// non-zero count pack into common issues; each distinct count needs its
/// own issues (`width` lanes each).
fn ratio_grouped_slots(row_nnz: &[usize; 8], width: usize) -> usize {
    let mut issues = 0usize;
    for ratio in 1..=width {
        let rows = row_nnz.iter().filter(|&&c| c == ratio).count();
        if rows > 0 {
            issues += (rows * ratio).div_ceil(width);
        }
    }
    issues * width
}

/// The sampled weight-stream trace a codec emits for a layer. Every
/// format's access pattern depends only on occupancy counts, which `plan`
/// carries (total non-zeros, per-row totals, per-block totals), so no
/// format is encoded and the matrix is re-counted only for a TBS block
/// size other than the plan's 8.
pub(crate) fn codec_trace(codec: CodecSpec, layer: &SparseLayer, plan: &BlockPlan) -> WeightTrace {
    match codec {
        CodecSpec::DenseRows => {
            let w = layer.sampled();
            let row_bytes = w.cols() as u64 * 2;
            WeightTrace {
                requests: (0..w.rows() as u64)
                    .map(|r| (r * row_bytes, row_bytes))
                    .collect(),
                stored_bytes: row_bytes * w.rows() as u64,
            }
        }
        CodecSpec::AlignedNm => {
            let nnz = plan.total_nnz() as u64;
            WeightTrace::sequential(nnz * 2 + nnz / 4)
        }
        CodecSpec::GroupedSdc { group } => grouped_sdc_trace(plan.matrix_row_nnz(), group),
        CodecSpec::Sdc => {
            let stride = plan.matrix_row_nnz().iter().copied().max().unwrap_or(0);
            WeightTrace::from_access_trace(sdc::access_trace(plan.sampled_shape().0, stride))
        }
        CodecSpec::Bitmap => {
            let (rows, cols) = plan.sampled_shape();
            let nnz = plan.total_nnz() as u64;
            let bitmap = ((rows * cols) as u64).div_ceil(8);
            WeightTrace::sequential(nnz * 2 + bitmap)
        }
        CodecSpec::DdcOrDense => ddc_or_dense_trace(layer, plan),
        CodecSpec::Csr => WeightTrace::from_access_trace(csr::streaming_trace(
            plan.matrix_row_nnz().iter().copied(),
        )),
    }
}

/// SDC aligned per `group`-row window: each window stores its rows padded
/// to the window's max population (value + 1-byte index per slot),
/// sequentially. `row_nnz` holds the per-matrix-row non-zero counts.
fn grouped_sdc_trace(row_nnz: &[usize], group: usize) -> WeightTrace {
    let mut requests = Vec::with_capacity(row_nnz.len().div_ceil(group.max(1)));
    let mut addr = 0u64;
    for window in row_nnz.chunks(group.max(1)) {
        let max_nnz = window.iter().copied().max().unwrap_or(0) as u64;
        let bytes = window.len() as u64 * max_nnz * 3; // fp16 value + index
        if bytes > 0 {
            requests.push((addr, bytes));
            addr += bytes;
        }
    }
    WeightTrace {
        requests,
        stored_bytes: addr,
    }
}

/// The TBS weight stream: DDC when the layer carries TBS metadata, a
/// dense row stream otherwise (non-prunable layers run dense).
///
/// DDC stores each TBS block's kept elements in `tbs.blocks()` order. At
/// M = 8 those blocks are the plan's row-major 8 × 8 grid, so the plan's
/// per-block totals are the counts; any other M counts the sampled
/// (masked) matrix once per M-block.
fn ddc_or_dense_trace(layer: &SparseLayer, plan: &BlockPlan) -> WeightTrace {
    let w = layer.sampled();
    let Some(tbs) = layer.tbs() else {
        return WeightTrace::sequential(w.len() as u64 * 2);
    };
    let m = tbs.config().m;
    let trace = if m == BLOCK {
        ddc::access_trace(plan.nnz().iter().copied())
    } else {
        ddc::access_trace(tbs.blocks().iter().map(|b| {
            let (r0, c0) = b.coord.origin(m);
            let cols = c0..(c0 + m).min(w.cols());
            (r0..(r0 + m).min(w.rows()))
                .map(|r| w.row(r)[cols.clone()].iter().filter(|&&v| v != 0.0).count())
                .sum()
        }))
    };
    WeightTrace::from_access_trace(trace)
}

/// The architecture registry, in the paper's plotting order. Indexed by
/// the `Arch` discriminant — `registry_order_matches_enum` locks the
/// correspondence.
pub static REGISTRY: LazyLock<[ArchModel; 8]> = LazyLock::new(|| Arch::ALL.map(builtin));

/// The policy of every builtin with uneven per-block work: sparsity-aware
/// inter-block placement, balanced intra-block lane packing.
const SPARSITY_AWARE: SchedulePolicy = SchedulePolicy {
    inter: InterBlockPolicy::SparsityAware,
    intra: IntraBlockPolicy::Balanced,
};

/// The policy of builtins whose blocks carry uniform work: nothing to
/// balance.
const DIRECT: SchedulePolicy = SchedulePolicy {
    inter: InterBlockPolicy::Direct,
    intra: IntraBlockPolicy::Balanced,
};

/// A spec with the settings most builtins share — sparsity-aware
/// scheduling, nnz-proportional slots, a compressed stream, no platform
/// overrides — which each registry entry then adjusts.
fn base_spec(name: &str, display: &str, summary: &str, pattern: PatternKind) -> ArchSpec {
    ArchSpec {
        name: name.into(),
        display: display.into(),
        summary: summary.into(),
        pattern,
        schedule: SPARSITY_AWARE,
        hierarchical_scheduling: false,
        dataflow: Dataflow::nnz(),
        row_frontend: false,
        codec: CodecSpec::DdcOrDense,
        dense_info: DenseInfoPolicy::Never,
        consumes_ddc: false,
        bandwidth_gbps: None,
        lanes: None,
        datapath: DatapathKind::TbStc,
        mac_energy_multiplier: 1.0,
    }
}

/// The builtin spec of one registry architecture, with its aliases.
fn builtin(arch: Arch) -> ArchModel {
    let (aliases, spec): (&'static [&'static str], ArchSpec) = match arch {
        // Dense: every lane slot issues over full rows, and the dense
        // matrix *is* the information content whatever the format.
        Arch::Tc => (
            &[],
            ArchSpec {
                schedule: DIRECT,
                dataflow: Dataflow {
                    terms: vec![SlotTerm::Dense],
                    ..Dataflow::nnz()
                },
                codec: CodecSpec::DenseRows,
                dense_info: DenseInfoPolicy::Always,
                datapath: DatapathKind::TensorCore,
                ..base_spec(
                    "tc",
                    "TC",
                    "Dense Tensor Core; executes every MAC slot, streams full rows",
                    PatternKind::Dense,
                )
            },
        ),
        // Executes its 4:8 mask (already projected at 50 % by layer
        // construction): uniform work, 4:8 values + 2-bit positions.
        Arch::Stc => (
            &[],
            ArchSpec {
                schedule: DIRECT,
                codec: CodecSpec::AlignedNm,
                datapath: DatapathKind::NvidiaStc,
                ..base_spec(
                    "stc",
                    "STC",
                    "NVIDIA Sparse Tensor Core; 4:8 tiles, density floored at 50%",
                    PatternKind::TileNm,
                )
            },
        ),
        // Vertical SIMD with two one-dimensional constraints: adjacent
        // rows run in lockstep and rows of different ratios need separate
        // B-select issues; heterogeneous blocks pay the binding one (the
        // challenge-3 imbalance). Row-wise reordering ships as balanced
        // placement. Weights are SDC aligned per co-scheduled 8-row group.
        Arch::Vegeta => (
            &[],
            ArchSpec {
                dataflow: Dataflow {
                    terms: vec![
                        SlotTerm::Lockstep { group: 4 },
                        SlotTerm::RatioGrouped { width: 8 },
                    ],
                    ..Dataflow::nnz()
                },
                codec: CodecSpec::GroupedSdc { group: 8 },
                datapath: DatapathKind::Vegeta,
                ..base_spec(
                    "vegeta",
                    "VEGETA",
                    "Row-wise N:M; SIMD lockstep + per-ratio B-select issues",
                    PatternKind::RowWiseVegeta,
                )
            },
        ),
        // The uniform hierarchical ratio keeps rows homogeneous (small
        // grouping penalty, whole-matrix SDC pads almost nothing) but
        // pays 6 % two-level metadata intersection on every cluster.
        Arch::Highlight => (
            &[],
            ArchSpec {
                dataflow: Dataflow {
                    terms: vec![SlotTerm::RatioGrouped { width: 8 }],
                    multiplier: 1.06,
                    efficiency: 1.0,
                },
                codec: CodecSpec::Sdc,
                datapath: DatapathKind::Highlight,
                ..base_spec(
                    "highlight",
                    "HighLight",
                    "Hierarchical structured sparsity; uniform ratios, 2-level metadata",
                    PatternKind::RowWiseHighlight,
                )
            },
        ),
        // Row merging packs unstructured work at 94 % (merge bubbles; its
        // speedup gap to TB-STC is small, paper 1.06×), streams bitmap +
        // packed values, and burns gather/union index-matching energy
        // per operand (Fig. 6(d), §VII-C1).
        Arch::RmStc => (
            &["rmstc"],
            ArchSpec {
                dataflow: Dataflow {
                    efficiency: 0.94,
                    ..Dataflow::nnz()
                },
                codec: CodecSpec::Bitmap,
                datapath: DatapathKind::RmStc,
                mac_energy_multiplier: 2.1,
                ..base_spec(
                    "rm-stc",
                    "RM-STC",
                    "Unstructured row-merge; nnz-proportional, pays gather/union energy",
                    PatternKind::Unstructured,
                )
            },
        ),
        // This paper: DDC consumed through the adaptive codec, the §VI
        // hierarchical scheduling (Fig. 11), dense rows on non-prunable
        // layers.
        Arch::TbStc => (
            &["tbstc"],
            ArchSpec {
                hierarchical_scheduling: true,
                dense_info: DenseInfoPolicy::NonTbsNative,
                consumes_ddc: true,
                ..base_spec(
                    "tb-stc",
                    "TB-STC",
                    "This paper: TBS pattern, DDC + codec, hierarchical scheduling",
                    PatternKind::Tbs,
                )
            },
        ),
        // Ablation (§VII-E2): TB-STC's pattern, format, codec and
        // scheduler, but SIGMA's deeper FAN forwarding network costs 12 %
        // pipeline occupancy and forwards operands through extra nodes.
        Arch::DvpeFan => (
            &["dvpefan"],
            ArchSpec {
                dataflow: Dataflow {
                    multiplier: 1.12,
                    ..Dataflow::nnz()
                },
                dense_info: DenseInfoPolicy::NonTbsNative,
                consumes_ddc: true,
                datapath: DatapathKind::DvpeWithFan,
                mac_energy_multiplier: 1.45,
                ..base_spec(
                    "dvpe-fan",
                    "DVPE+FAN",
                    "Ablation: TB-STC with SIGMA's FAN reduction instead of DVPEs",
                    PatternKind::Tbs,
                )
            },
        ),
        // Element-granular CSR processing: 70 % gather efficiency at
        // DNN-range sparsity, a per-row frontend decode, CSR intersection
        // energy, and the 256 GB/s memory system of §VII-D4.
        Arch::Sgcn => (
            &[],
            ArchSpec {
                dataflow: Dataflow {
                    efficiency: 0.7,
                    ..Dataflow::nnz()
                },
                row_frontend: true,
                codec: CodecSpec::Csr,
                bandwidth_gbps: Some(256.0),
                datapath: DatapathKind::Sgcn,
                mac_energy_multiplier: 1.8,
                ..base_spec(
                    "sgcn",
                    "SGCN",
                    "GNN accelerator: CSR element granularity, 256 GB/s, row frontend",
                    PatternKind::Unstructured,
                )
            },
        ),
    };
    ArchModel {
        id: ArchId::Builtin(arch),
        aliases,
        spec,
    }
}

/// Resolves an architecture to its registered model.
pub fn model(arch: Arch) -> &'static ArchModel {
    &REGISTRY[arch as usize]
}

/// The registered model for a canonical name or alias, if any.
pub fn by_name(name: &str) -> Option<&'static ArchModel> {
    REGISTRY
        .iter()
        .find(|m| m.canonical_name() == name || m.aliases().contains(&name))
}

/// All canonical names, registry order, comma-separated — the "valid
/// names" list of parse errors.
pub fn canonical_names() -> String {
    REGISTRY
        .iter()
        .map(|m| m.canonical_name())
        .collect::<Vec<_>>()
        .join(", ")
}

/// Renders the architecture table (README "Architectures" section) from
/// the registry, so documentation cannot drift from the code.
pub fn architecture_table_markdown() -> String {
    let mut out = String::from(
        "| Architecture | Name (CLI/jobs) | Native pattern | Model |\n\
         |---|---|---|---|\n",
    );
    for m in REGISTRY.iter() {
        out.push_str(&format!(
            "| **{}** | `{}` | {} | {} |\n",
            m.display_name(),
            m.canonical_name(),
            m.native_pattern(),
            m.summary()
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_order_matches_enum() {
        for (i, m) in REGISTRY.iter().enumerate() {
            let arch = m.id().builtin().expect("registry entries are builtin");
            assert_eq!(arch as usize, i, "{} out of order", m.display_name());
        }
        for arch in Arch::ALL {
            assert_eq!(model(arch).id(), arch);
        }
    }

    #[test]
    fn names_are_unique_and_resolve() {
        let mut seen = std::collections::BTreeSet::new();
        for m in REGISTRY.iter() {
            assert!(
                seen.insert(m.canonical_name().to_string()),
                "{}",
                m.canonical_name()
            );
            for alias in m.aliases() {
                assert!(seen.insert(alias.to_string()), "alias {alias} collides");
                assert_eq!(by_name(alias).unwrap().id(), m.id());
            }
            assert_eq!(by_name(m.canonical_name()).unwrap().id(), m.id());
        }
        assert!(by_name("tpu").is_none());
    }

    #[test]
    fn table_lists_every_architecture() {
        let table = architecture_table_markdown();
        for m in REGISTRY.iter() {
            assert!(table.contains(m.display_name()), "{}", m.display_name());
            assert!(table.contains(m.canonical_name()));
        }
    }

    #[test]
    fn ratio_grouping_penalizes_mixed_rows() {
        // Uniform rows (all N=2): 2 issues = 16 slots = nnz.
        let uniform = ratio_grouped_slots(&[2; 8], 8);
        assert_eq!(uniform, 16);
        // Mixed rows {8,4,2,1,1,0,0,0}: each ratio its own issues.
        let mixed = ratio_grouped_slots(&[8, 4, 2, 1, 1, 0, 0, 0], 8);
        assert!(mixed > 16, "mixed rows need more slots: {mixed}");
    }

    #[test]
    fn lockstep_free_on_uniform_rows() {
        assert_eq!(lockstep_slots(&[4; 8], 2), 32); // = nnz
        assert_eq!(lockstep_slots(&[4; 8], 4), 32);
        // Heterogeneous neighbours pad to the group max.
        let mixed = lockstep_slots(&[8, 1, 4, 0, 2, 2, 1, 0], 2);
        let nnz = 8 + 1 + 4 + 2 + 2 + 1;
        assert!(mixed > nnz, "{mixed} > {nnz}");
        assert_eq!(mixed, 2 * (8 + 4 + 2 + 1));
        // Wider lockstep pads at least as much.
        assert!(lockstep_slots(&[8, 1, 4, 0, 2, 2, 1, 0], 4) >= mixed);
    }

    #[test]
    fn sequential_trace_covers_exactly() {
        let t = WeightTrace::sequential(1000);
        let total: u64 = t.requests.iter().map(|&(_, b)| b).sum();
        assert_eq!(total, 1000);
        assert_eq!(t.stored_bytes, 1000);
        assert!(t.requests.windows(2).all(|w| w[1].0 == w[0].0 + w[0].1));
    }
}
