//! The layer pipeline: compute ∥ memory ∥ codec → cycles, energy, EDP.
//!
//! A layer executes as a pipeline (paper Fig. 14): weight/activation
//! streams feed the codec, which feeds the PE array. The critical path is
//! `max(compute, memory)`; codec conversion runs at the weight-fetch rate
//! and is hidden underneath, except for the pipeline fill and any
//! throughput shortfall, which are exposed.
//!
//! A simulation runs in two stages: [`SampledCost::measure`] costs the
//! layer's pruned sample, and [`fold`] scales that cost to the real
//! layer shape and runs the pipeline on it.

use tbstc_energy::edp::EnergyBreakdown;
use tbstc_formats::{CodecStats, CodecUnit};
use tbstc_models::{LayerShape, Model};
use tbstc_sparsity::SparsityDim;

use crate::arch::{Arch, ArchId};
use crate::archs::ArchModel;
use crate::compute::{ComputeResult, SampledCompute, SchedulePolicy};
use crate::config::HwConfig;
use crate::layer::{LayerWeights, PruneKey, SparseLayer};
use crate::memory::{FormatOverride, MemoryResult, SampledMemory};
use crate::result::{CycleBreakdown, LayerResult, ModelResult};

/// Elements the codec ingests per cycle: it is provisioned at twice the
/// 64 B/cycle weight-stream line rate (two packed 64 B words per cycle,
/// 16 queue-group slices of 4 — the Fig. 9 example shows one slice at
/// width 2), so conversion drains faster than fetch and stays hidden.
const CODEC_ELEMS_PER_CYCLE: u64 = 64;
/// Pipeline-fill latency of the codec at each layer start, cycles.
const CODEC_FILL_CYCLES: u64 = 8;
/// Efficiency of a perfectly sequential dense stream (pipeline gaps,
/// refresh).
const STREAM_EFFICIENCY: f64 = 0.95;

/// Simulation knobs for [`simulate_layer_on`].
///
/// `Default` (and [`SimOptions::native`]) leaves every knob on the
/// architecture's native behaviour; the ablation entry points override
/// one knob at a time.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SimOptions {
    /// Scheduling override; `None` resolves to the architecture's
    /// [`SchedulePolicy::native`] policy (Fig. 16(b) ablation).
    pub policy: Option<SchedulePolicy>,
    /// Storage-format override (Fig. 16(a) codec ablation, Fig. 15(b)
    /// quantization study).
    pub format: FormatOverride,
}

impl SimOptions {
    /// Native scheduling and format — what [`simulate_layer`] uses.
    pub fn native() -> Self {
        Self::default()
    }

    /// Native options with an explicit scheduling policy.
    pub fn with_policy(policy: SchedulePolicy) -> Self {
        SimOptions {
            policy: Some(policy),
            ..Self::default()
        }
    }

    /// Native options with an explicit storage format.
    pub fn with_format(format: FormatOverride) -> Self {
        SimOptions {
            format,
            ..Self::default()
        }
    }
}

/// Simulates one layer of a registry architecture with explicit
/// scheduling and format knobs (the ablation shorthand for
/// [`simulate_layer_on`]).
pub fn simulate_layer_with(
    arch: Arch,
    layer: &SparseLayer,
    cfg: &HwConfig,
    opts: &SimOptions,
) -> LayerResult {
    simulate_layer_on(arch.model(), layer, cfg, opts)
}

/// Simulates one layer against any [`ArchModel`] — a registry builtin or
/// a user-submitted spec; the builtin shorthands all funnel here. It
/// measures the layer's pruned sample ([`SampledCost::measure`], on the
/// layer's own [`SparseLayer::plan`]) and folds in the layer's shape
/// ([`fold`]).
pub fn simulate_layer_on(
    model: &ArchModel,
    layer: &SparseLayer,
    cfg: &HwConfig,
    opts: &SimOptions,
) -> LayerResult {
    fold(
        &SampledCost::measure(model, layer, layer.sn, cfg, opts),
        &layer.shape,
        cfg,
    )
}

/// Everything one architecture costs on one pruned sample at `sn` sampled
/// activation columns, before the real shape enters: the plan's block
/// pricing and schedule, the weight stream's DRAM replay, the codec's
/// independent-block work and the datapath's power.
///
/// Every layer whose shape samples the same weights with the same `sn`
/// folds one measurement ([`fold`]), so a sweep measures a pruned sample
/// once per architecture, whatever the number of models sharing it.
#[derive(Debug, Clone)]
pub struct SampledCost {
    arch: ArchId,
    /// Sampled weight rows and columns.
    sample: (usize, usize),
    sn: usize,
    compute: SampledCompute,
    /// Int8 weights: each lane runs two MACs per cycle.
    int8: bool,
    memory: SampledMemory,
    /// Conversion cycles of the sample's independent-dimension blocks.
    codec_cycles: u64,
    datapath_power_mw: f64,
    mac_energy_scale: f64,
}

impl SampledCost {
    /// Measures `model` on the pruned sample of `layer` at `sn` sampled
    /// activation columns (the layer's own `sn` for its own shape, or
    /// [`crate::sampled_cols`] of another shape with the same
    /// [`crate::SampleKey`]). The layer's real shape is not read.
    pub fn measure(
        model: &ArchModel,
        layer: &SparseLayer,
        sn: usize,
        cfg: &HwConfig,
        opts: &SimOptions,
    ) -> Self {
        cfg.validate();
        let plan = layer.plan();
        let policy = opts.policy.unwrap_or_else(|| model.native_schedule());
        SampledCost {
            arch: model.id(),
            sample: (layer.sm(), layer.sk()),
            sn,
            compute: SampledCompute::measure(model, plan, sn, cfg, policy),
            int8: opts.format == FormatOverride::Int8,
            memory: SampledMemory::measure(model, layer, plan, cfg, opts.format),
            codec_cycles: codec_cycles(model, layer, opts.format),
            datapath_power_mw: model.datapath(cfg.pe).total_power_mw(),
            mac_energy_scale: model.spec().mac_energy_multiplier,
        }
    }
}

/// Scales a sampled cost to a real layer `shape` and runs the layer
/// pipeline on it: cycles, breakdown, utilizations, traffic and energy.
/// `cfg` is the platform the cost was measured on.
pub fn fold(cost: &SampledCost, shape: &LayerShape, cfg: &HwConfig) -> LayerResult {
    let scale = Scale::new(shape, cost.sample, cost.sn);
    let mut comp = scale.compute(&cost.compute);
    if cost.int8 {
        // Each FP16 multiplier lane executes two int8 MACs per cycle, so
        // int8 weights double compute throughput (Fig. 15(b) "Q+S").
        comp.cycles = comp.cycles.div_ceil(2);
    }
    let mem = scale.memory(&cost.memory, cfg);
    let codec_total = scale.weight(cost.codec_cycles);

    let bottleneck = comp.cycles.max(mem.cycles);
    let codec_exposed = if codec_total == 0 {
        0
    } else {
        CODEC_FILL_CYCLES + codec_total.saturating_sub(bottleneck)
    };
    let codec_hidden = codec_total.min(bottleneck);
    let breakdown = CycleBreakdown {
        compute: comp.cycles,
        memory: mem.cycles,
        codec_hidden,
        codec_exposed,
    };
    let cycles = breakdown.total();

    let energy = EnergyBreakdown {
        macs: comp.issued_macs,
        buffer_bytes: mem.total_bytes() as u64,
        cycles,
        datapath_power_mw: cost.datapath_power_mw,
        active_fraction: comp.utilization,
        dram_energy_pj: mem.energy_pj,
        mac_energy_scale: cost.mac_energy_scale,
    };

    LayerResult {
        name: shape.name.clone(),
        arch: cost.arch.clone(),
        cycles,
        breakdown,
        useful_macs: comp.useful_macs,
        compute_utilization: comp.utilization,
        bandwidth_utilization: mem.a_bandwidth_utilization,
        traffic_bytes: mem.total_bytes(),
        energy_pj: energy.total_pj(),
    }
}

/// How a sample's quantities scale to a real layer shape — the one place
/// that knows. Weight-extensive quantities (block walks, the weight
/// stream, codec work) scale by the element-count ratio
/// `(m·k) / (sm·sk)`, activation-extensive ones by `n / sn` on top, and
/// the dense activation and output streams follow `m`, `k` and `n`
/// directly.
pub(crate) struct Scale<'s> {
    shape: &'s LayerShape,
    weight: f64,
    col: f64,
}

impl<'s> Scale<'s> {
    fn new(shape: &'s LayerShape, (sm, sk): (usize, usize), sn: usize) -> Self {
        Scale {
            shape,
            weight: (shape.m as f64 * shape.k as f64) / (sm as f64 * sk as f64),
            col: shape.n as f64 / sn as f64,
        }
    }

    /// The scale from `layer`'s sample to its own shape.
    pub(crate) fn of(layer: &'s SparseLayer) -> Self {
        Self::new(&layer.shape, (layer.sm(), layer.sk()), layer.sn)
    }

    /// Sampled weight-extensive cycles, scaled up.
    fn weight(&self, sampled: u64) -> u64 {
        (sampled as f64 * self.weight).ceil() as u64
    }

    pub(crate) fn compute(&self, c: &SampledCompute) -> ComputeResult {
        let scale = self.weight * self.col;
        let cycles = (c.cycles as f64 * scale).ceil() as u64;
        let useful_macs = (c.useful_macs as f64 * scale) as u64;
        let issued_macs = (c.issued_macs as f64 * scale) as u64;
        let utilization = if cycles == 0 {
            1.0
        } else {
            (useful_macs as f64) / (cycles as f64 * c.lanes as f64)
        };
        ComputeResult {
            cycles,
            useful_macs,
            issued_macs,
            utilization,
        }
    }

    pub(crate) fn memory(&self, mem: &SampledMemory, cfg: &HwConfig) -> MemoryResult {
        let dram = &mem.dram;
        let a_cycles = self.weight(mem.a.cycles);
        let a_energy = mem.a.energy_pj * self.weight;
        let a_bytes = mem.a.useful_bytes as f64 * self.weight;

        // B is reused across the weight row-strips; when it exceeds the
        // on-chip buffer (half of which is reserved for weight/output
        // double-buffering) it must be re-streamed once per additional
        // pass, up to once per 8-row weight strip.
        let (m, k, n) = (
            self.shape.m as f64,
            self.shape.k as f64,
            self.shape.n as f64,
        );
        let b_once = k * n * 2.0;
        let buffer_budget = (cfg.buffer_kib as f64) * 1024.0 * 0.5;
        let max_passes = (m / 8.0).ceil().max(1.0);
        let passes = (b_once / buffer_budget).ceil().clamp(1.0, max_passes);
        let b_bytes = b_once * passes;
        let d_bytes = m * n * 2.0;
        let bd_bytes = b_bytes + d_bytes;
        let bd_cycles = (bd_bytes / (dram.bytes_per_cycle * STREAM_EFFICIENCY)).ceil() as u64;
        let bd_energy = bd_bytes * dram.read_energy_pj_per_byte
            + (bd_bytes / dram.row_bytes as f64) * dram.act_energy_pj
            + bd_cycles as f64 * dram.background_pj_per_cycle;

        MemoryResult {
            a_bytes,
            b_bytes,
            d_bytes,
            cycles: a_cycles + bd_cycles,
            energy_pj: a_energy + bd_energy,
            a_bandwidth_utilization: mem.a_bandwidth_utilization,
        }
    }
}

/// Simulates one layer with the architecture's native scheduling and
/// format.
pub fn simulate_layer(arch: Arch, layer: &SparseLayer, cfg: &HwConfig) -> LayerResult {
    simulate_layer_with(arch, layer, cfg, &SimOptions::native())
}

/// Simulates a whole model at one target sparsity (non-prunable layers run
/// dense). Layer repeats multiply into the totals.
pub fn simulate_model(
    arch: Arch,
    model: &Model,
    target: f64,
    seed: u64,
    cfg: &HwConfig,
) -> ModelResult {
    simulate_model_on(arch.model(), model, target, seed, cfg)
}

/// Simulates a whole model against any [`ArchModel`]: each layer's
/// weights are sampled ([`LayerWeights::sample`]), pruned at their
/// [`PruneKey`] (non-prunable layers run dense) and simulated, then the
/// layers are folded in order ([`ModelResult::from_layers`]). A sweep
/// runner that shares samples and pruned layers across several
/// architectures and sparsities runs the same steps.
pub fn simulate_model_on(
    arch_model: &ArchModel,
    model: &Model,
    target: f64,
    seed: u64,
    cfg: &HwConfig,
) -> ModelResult {
    let layers = model
        .layers
        .iter()
        .map(|shape| {
            let key = PruneKey::new(arch_model.native_pattern(), shape.prunable, target);
            let layer = LayerWeights::sample(shape, seed, cfg).prune(key.pattern, key.target);
            simulate_layer_on(arch_model, &layer, cfg, &SimOptions::native())
        })
        .collect();
    ModelResult::from_layers(arch_model.id(), model, layers)
}

/// Conversion cycles the codec needs for the sample's weight stream. Only
/// DDC-consuming architectures convert, and only independent-dimension
/// blocks need it (Fig. 9(a) vs 9(b)).
fn codec_cycles(model: &ArchModel, layer: &SparseLayer, fmt: FormatOverride) -> u64 {
    if !model.spec().consumes_ddc || !matches!(fmt, FormatOverride::Native | FormatOverride::Int8) {
        return 0;
    }
    let Some(tbs) = layer.tbs() else { return 0 };
    // Count elements in independent-dimension blocks on the sample.
    let mask = tbs.mask();
    let m = tbs.config().m;
    let mut indep_elems = 0u64;
    for info in tbs.blocks() {
        if info.dim == SparsityDim::Independent {
            let (r0, c0) = info.coord.origin(m);
            indep_elems += mask.block_view(r0, c0, m, m).count_kept() as u64;
        }
    }
    indep_elems.div_ceil(CODEC_ELEMS_PER_CYCLE)
}

/// Detailed codec statistics for one layer's sampled blocks (used by the
/// Fig. 14 analysis and the codec tests).
pub fn codec_stats(layer: &SparseLayer) -> CodecStats {
    let Some(tbs) = layer.tbs() else {
        return CodecStats::default();
    };
    let pruned = tbs.mask().apply(layer.sampled());
    let ddc = tbstc_formats::Ddc::encode(&pruned, tbs);
    let codec = CodecUnit::paper_default();
    let mut total = CodecStats::default();
    for block in ddc.blocks() {
        let (_, stats) = codec.convert_block(block);
        total.merge(&stats);
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;
    use tbstc_models::{bert_base, resnet50, LayerShape};

    fn cfg() -> HwConfig {
        HwConfig::paper_default()
    }

    fn bert_layer() -> LayerShape {
        bert_base(128).layers[0].clone()
    }

    fn run(arch: Arch, target: f64) -> LayerResult {
        crate::LayerSim::new(&bert_layer())
            .arch(arch)
            .sparsity(target)
            .seed(31)
            .run(&cfg())
    }

    #[test]
    fn layerwise_speedup_ordering_matches_fig12() {
        // At 75% sparsity: TB-STC ≥ RM-STC ≥ HighLight ≥ VEGETA ≥ STC ≥ TC
        // in speed (paper Fig. 12 ordering, allowing near-ties).
        let tb = run(Arch::TbStc, 0.75);
        let rm = run(Arch::RmStc, 0.75);
        let hl = run(Arch::Highlight, 0.75);
        let veg = run(Arch::Vegeta, 0.75);
        let stc = run(Arch::Stc, 0.75);
        let tc = run(Arch::Tc, 0.75);
        assert!(
            tb.cycles <= (rm.cycles as f64 * 1.1) as u64,
            "TB {} RM {}",
            tb.cycles,
            rm.cycles
        );
        // RM-STC and HighLight are close (paper: 1.06 vs 1.21); allow a
        // tie margin on this single layer/seed.
        assert!(
            rm.cycles <= (hl.cycles as f64 * 1.1) as u64,
            "RM {} HL {}",
            rm.cycles,
            hl.cycles
        );
        assert!(
            hl.cycles <= veg.cycles,
            "HL {} VEG {}",
            hl.cycles,
            veg.cycles
        );
        assert!(
            veg.cycles <= stc.cycles,
            "VEG {} STC {}",
            veg.cycles,
            stc.cycles
        );
        assert!(
            stc.cycles < tc.cycles,
            "STC {} TC {}",
            stc.cycles,
            tc.cycles
        );
    }

    #[test]
    fn tb_stc_beats_rm_stc_on_edp_but_not_speed() {
        // Paper §VII-C1: similar speed (1.06x) but 1.75x EDP gain.
        let tb = run(Arch::TbStc, 0.75);
        let rm = run(Arch::RmStc, 0.75);
        let speedup = tb.speedup_over(&rm);
        let edp = tb.edp_gain_over(&rm);
        assert!((0.9..1.4).contains(&speedup), "speedup {speedup}");
        assert!(edp > 1.2, "EDP gain {edp}");
        assert!(edp > speedup, "EDP gain comes from energy, not speed");
    }

    #[test]
    fn codec_mostly_hidden() {
        // Paper Fig. 14: conversion ≈3.57% of execution, hidden in the
        // pipeline.
        let sim = crate::LayerSim::new(&bert_layer())
            .arch(Arch::TbStc)
            .sparsity(0.75)
            .seed(32);
        let res = sim.run(&cfg());
        let share = res.breakdown.codec_share();
        assert!(share < 0.15, "codec share {share}");
        assert!(
            res.breakdown.codec_exposed < res.cycles / 20,
            "exposed {} of {}",
            res.breakdown.codec_exposed,
            res.cycles
        );
    }

    #[test]
    fn non_tbs_archs_have_no_codec() {
        let r = run(Arch::Vegeta, 0.75);
        assert_eq!(r.breakdown.codec_hidden + r.breakdown.codec_exposed, 0);
    }

    #[test]
    fn model_simulation_aggregates_repeats() {
        let model = bert_base(128);
        let res = simulate_model(Arch::TbStc, &model, 0.5, 33, &cfg());
        assert_eq!(res.layers.len(), model.layers.len());
        let layer_sum: u64 = res
            .layers
            .iter()
            .zip(&model.layers)
            .map(|(l, s)| l.cycles * s.repeats as u64)
            .sum();
        assert_eq!(res.total_cycles, layer_sum);
        assert!(res.total_energy_pj > 0.0);
    }

    #[test]
    fn dense_layers_stay_dense_in_models() {
        let model = resnet50(32);
        let res = simulate_model(Arch::TbStc, &model, 0.75, 34, &cfg());
        // The stem is not prunable: its useful MACs equal its dense MACs.
        let stem = &res.layers[0];
        let expect = model.layers[0].macs();
        assert!(
            (stem.useful_macs as f64 / expect as f64 - 1.0).abs() < 0.05,
            "stem {} vs {}",
            stem.useful_macs,
            expect
        );
    }

    #[test]
    fn end_to_end_tb_stc_wins_edp_at_iso_sparsity() {
        let model = bert_base(128);
        let tb = simulate_model(Arch::TbStc, &model, 0.75, 35, &cfg());
        for arch in [Arch::Stc, Arch::Vegeta, Arch::Highlight] {
            let base = simulate_model(arch, &model, 0.75, 35, &cfg());
            assert!(
                tb.edp_gain_over(&base) > 1.0,
                "{arch}: gain {}",
                tb.edp_gain_over(&base)
            );
        }
    }

    #[test]
    fn sgcn_wins_only_at_extreme_sparsity() {
        // Paper Fig. 15(d): SGCN overtakes TB-STC at ~95% sparsity but
        // loses across 30–90%.
        let gcn = tbstc_models::gcn_layer(1024, 128).layers[0].clone();
        let at = |arch: Arch, s: f64| {
            crate::LayerSim::new(&gcn)
                .arch(arch)
                .sparsity(s)
                .seed(36)
                .run(&cfg())
                .cycles
        };
        let mid_tb = at(Arch::TbStc, 0.6);
        let mid_sg = at(Arch::Sgcn, 0.6);
        assert!(
            mid_tb < mid_sg,
            "TB-STC wins mid-sparsity: {mid_tb} vs {mid_sg}"
        );
        let hi_tb = at(Arch::TbStc, 0.97);
        let hi_sg = at(Arch::Sgcn, 0.97);
        assert!(
            hi_sg < hi_tb,
            "SGCN wins extreme sparsity: {hi_sg} vs {hi_tb}"
        );
    }

    #[test]
    fn codec_stats_accumulate() {
        let layer = crate::LayerSim::new(&bert_layer())
            .arch(Arch::TbStc)
            .sparsity(0.5)
            .seed(37)
            .build(&cfg());
        let stats = codec_stats(&layer);
        assert!(stats.groups > 0);
        assert!(stats.total_cycles() > 0);
    }
}
