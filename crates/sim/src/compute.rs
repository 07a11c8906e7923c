//! The compute-cycle model: block pricing, scheduling, utilization.
//!
//! Each architecture turns the sampled pruned weights into a list of
//! per-block [`sched::BlockWork`] items reflecting its dataflow's structural
//! constraints, then runs them through the scheduler model. A
//! [`BlockPlan`] gathers the per-block occupancy columns in one pass over
//! the sampled weights, and the architecture's spec prices them
//! ([`ArchModel::block_works_batch`]): TC densely, STC at its 4:8 floor,
//! VEGETA/HighLight with their one-dimensional lockstep/ratio-grouping
//! penalties, RM-STC/SGCN nnz-proportionally with their efficiency
//! factors, and TB-STC (plus the FAN ablation) nnz-proportionally with
//! hierarchical scheduling.

use crate::arch::Arch;
use crate::archs::ArchModel;
use crate::config::HwConfig;
use crate::layer::SparseLayer;
use crate::pipeline::Scale;
use crate::plan::BlockPlan;
use crate::sched::{self, InterBlockPolicy, IntraBlockPolicy};

/// The compute-side result for one layer (already scaled to real size).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ComputeResult {
    /// Compute cycles of the whole layer.
    pub cycles: u64,
    /// Useful MACs (non-zero weight × activation).
    pub useful_macs: u64,
    /// Issued MAC slots (useful + structural padding).
    pub issued_macs: u64,
    /// Compute utilization: useful slots / (lanes × cycles).
    pub utilization: f64,
}

/// Scheduling knobs (for the Fig. 16(b) ablation).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SchedulePolicy {
    /// Inter-block placement.
    pub inter: InterBlockPolicy,
    /// Intra-block lane packing.
    pub intra: IntraBlockPolicy,
}

impl SchedulePolicy {
    /// The policy an architecture ships with.
    pub fn native(arch: Arch) -> Self {
        arch.model().native_schedule()
    }

    /// The non-scheduled ablation point (Fig. 16(b) "w/o scheduling").
    pub fn naive() -> Self {
        SchedulePolicy {
            inter: InterBlockPolicy::Direct,
            intra: IntraBlockPolicy::Naive,
        }
    }
}

/// Runs the compute model for a layer on a registry architecture, on the
/// layer's own [`SparseLayer::plan`].
pub fn simulate_compute(
    arch: Arch,
    layer: &SparseLayer,
    cfg: &HwConfig,
    policy: SchedulePolicy,
) -> ComputeResult {
    simulate_compute_on(arch.model(), layer, layer.plan(), cfg, policy)
}

/// Runs the compute model against any [`ArchModel`] — registry builtin or
/// user-submitted spec — using a pre-built [`BlockPlan`]: the compute
/// half of [`crate::SampledCost::measure`] and [`crate::fold`].
pub fn simulate_compute_on(
    model: &ArchModel,
    layer: &SparseLayer,
    plan: &BlockPlan,
    cfg: &HwConfig,
    policy: SchedulePolicy,
) -> ComputeResult {
    Scale::of(layer).compute(&SampledCompute::measure(model, plan, layer.sn, cfg, policy))
}

/// The compute side of a pruned sample at `sn` sampled activation
/// columns, before any scaling to a real shape.
#[derive(Debug, Clone, Copy)]
pub(crate) struct SampledCompute {
    /// Scheduled cycles of the sample, SGCN's row frontend included.
    pub(crate) cycles: u64,
    /// Useful MAC slots of the sample: non-zeros × `sn`.
    pub(crate) useful_macs: u64,
    /// Issued MAC slots of the sample (useful + structural padding).
    pub(crate) issued_macs: u64,
    /// The architecture's multiplier lanes.
    pub(crate) lanes: usize,
}

impl SampledCompute {
    /// Prices the plan's blocks and schedules them over `sn` columns.
    pub(crate) fn measure(
        model: &ArchModel,
        plan: &BlockPlan,
        sn: usize,
        cfg: &HwConfig,
        policy: SchedulePolicy,
    ) -> Self {
        let works = model.block_works_batch(plan);
        let lanes = model.lanes(cfg.pe);
        let width = cfg.lane_width();
        let pes = lanes / width;

        let mut cycles = sched::schedule_stream(&works, sn, pes, width, policy.inter, policy.intra);
        if model.spec().row_frontend {
            // A per-row frontend setup (SGCN's CSR row decode), amortized
            // over the PEs: one slot-cycle per non-empty row.
            let rows: u64 = works.iter().map(|w| w.nonempty_rows as u64).sum();
            cycles += rows.div_ceil(pes as u64);
        }
        SampledCompute {
            cycles,
            useful_macs: plan.total_nnz() as u64 * sn as u64,
            issued_macs: works.iter().map(|w| w.slots as u64).sum::<u64>() * sn as u64,
            lanes,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tbstc_models::LayerShape;

    fn shape(m: usize, k: usize, n: usize) -> LayerShape {
        LayerShape {
            name: "test".into(),
            m,
            k,
            n,
            repeats: 1,
            prunable: true,
        }
    }

    fn cfg() -> HwConfig {
        HwConfig::paper_default()
    }

    fn run(arch: Arch, target: f64) -> ComputeResult {
        let layer = crate::LayerSim::new(&shape(128, 128, 64))
            .arch(arch)
            .sparsity(target)
            .seed(11)
            .build(&cfg());
        simulate_compute(arch, &layer, &cfg(), SchedulePolicy::native(arch))
    }

    #[test]
    fn dense_tc_full_utilization() {
        let r = run(Arch::Tc, 0.0);
        assert!(r.utilization > 0.9, "{}", r.utilization);
        assert_eq!(r.useful_macs, 128 * 128 * 64);
    }

    #[test]
    fn stc_executes_half_density_regardless_of_target() {
        let lo = run(Arch::Stc, 0.5);
        let hi = run(Arch::Stc, 0.875);
        // Same cycles: the 4:8 floor.
        assert_eq!(lo.cycles, hi.cycles);
        let dense = run(Arch::Tc, 0.0);
        let ratio = dense.cycles as f64 / lo.cycles as f64;
        assert!((1.8..2.2).contains(&ratio), "STC ≈ 2x dense: {ratio}");
    }

    #[test]
    fn tb_stc_scales_with_sparsity() {
        let half = run(Arch::TbStc, 0.5);
        let deep = run(Arch::TbStc, 0.875);
        let ratio = half.cycles as f64 / deep.cycles as f64;
        assert!(ratio > 2.0, "87.5% sparsity much faster than 50%: {ratio}");
    }

    #[test]
    fn tb_stc_near_perfect_utilization() {
        let r = run(Arch::TbStc, 0.75);
        assert!(r.utilization > 0.85, "{}", r.utilization);
    }

    #[test]
    fn tb_stc_beats_lockstep_engines_at_equal_sparsity() {
        let tb = run(Arch::TbStc, 0.75);
        let veg = run(Arch::Vegeta, 0.75);
        assert!(
            veg.cycles as f64 > tb.cycles as f64 * 1.05,
            "VEGETA {} vs TB-STC {}",
            veg.cycles,
            tb.cycles
        );
        assert!(tb.utilization > veg.utilization);
    }

    #[test]
    fn rm_stc_close_to_tb_stc_in_speed() {
        // Paper: RM-STC speedup gap is only ~1.06x.
        let tb = run(Arch::TbStc, 0.75);
        let rm = run(Arch::RmStc, 0.75);
        let ratio = rm.cycles as f64 / tb.cycles as f64;
        assert!((1.0..1.25).contains(&ratio), "{ratio}");
    }

    #[test]
    fn naive_scheduling_hurts_tb_stc() {
        let layer = crate::LayerSim::new(&shape(128, 128, 64))
            .arch(Arch::TbStc)
            .sparsity(0.75)
            .seed(12)
            .build(&cfg());
        let smart = simulate_compute(
            Arch::TbStc,
            &layer,
            &cfg(),
            SchedulePolicy::native(Arch::TbStc),
        );
        let naive = simulate_compute(Arch::TbStc, &layer, &cfg(), SchedulePolicy::naive());
        let gain = naive.cycles as f64 / smart.cycles as f64;
        assert!(
            (1.3..6.0).contains(&gain),
            "scheduling gain {gain} (paper: 1.57x utilization)"
        );
    }

    #[test]
    fn utilization_never_exceeds_one() {
        for arch in Arch::MAIN_BASELINES {
            let r = run(arch, 0.6);
            assert!(r.utilization <= 1.0 + 1e-9, "{arch}: {}", r.utilization);
            assert!(r.issued_macs >= r.useful_macs, "{arch}");
        }
    }

    #[test]
    fn scaling_preserves_per_element_cost() {
        // A 4x larger layer (sampled identically) costs ~4x the cycles.
        let small = crate::LayerSim::new(&shape(128, 128, 64))
            .arch(Arch::TbStc)
            .sparsity(0.5)
            .seed(13)
            .build(&cfg());
        let big = crate::LayerSim::new(&shape(256, 256, 64))
            .arch(Arch::TbStc)
            .sparsity(0.5)
            .seed(13)
            .build(&cfg());
        let a = simulate_compute(
            Arch::TbStc,
            &small,
            &cfg(),
            SchedulePolicy::native(Arch::TbStc),
        );
        let b = simulate_compute(
            Arch::TbStc,
            &big,
            &cfg(),
            SchedulePolicy::native(Arch::TbStc),
        );
        let ratio = b.cycles as f64 / a.cycles as f64;
        assert!((3.0..5.0).contains(&ratio), "{ratio}");
    }

    #[test]
    fn fan_slower_than_dvpe() {
        let tb = run(Arch::TbStc, 0.75);
        let fan = run(Arch::DvpeFan, 0.75);
        assert!(fan.cycles >= tb.cycles);
    }

    #[test]
    fn sgcn_wasteful_at_dnn_sparsity() {
        let tb = run(Arch::TbStc, 0.6);
        let sg = run(Arch::Sgcn, 0.6);
        assert!(
            sg.cycles as f64 > tb.cycles as f64 * 1.2,
            "SGCN {} TB {}",
            sg.cycles,
            tb.cycles
        );
    }
}
