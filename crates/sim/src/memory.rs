//! The memory-traffic model: weight/activation/output streams and DRAM
//! replay.
//!
//! Weight (A-matrix) traffic depends on the storage format each
//! architecture uses — this is where the paper's challenge 2 lives. The
//! native branch of `a_trace` emits the stream of the codec the
//! architecture's spec names (dense rows for TC, 4:8 metadata for STC,
//! grouped/whole-matrix SDC for VEGETA/HighLight, bitmap for RM-STC, DDC
//! for TB-STC, CSR for SGCN), while the explicit [`FormatOverride`]s
//! (codec ablation, quantization study) are applied here, uniformly.
//!
//! Activation (B) and output (D) traffic are identical across
//! architectures (dense streams), so format differences show up purely in
//! the A stream — replayed through the DRAM model and scaled to the real
//! layer size.

use tbstc_dram::{DramConfig, DramModel};
use tbstc_formats::csr;

use crate::arch::Arch;
use crate::archs::{codec_trace, ArchModel, WeightTrace};
use crate::config::HwConfig;
use crate::layer::SparseLayer;
use crate::plan::{BlockPlan, BLOCK};
use crate::spec::{CodecSpec, DenseInfoPolicy};

/// Storage-format override for the Fig. 16(a) codec ablation and the
/// Fig. 15(b) quantization study.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum FormatOverride {
    /// Use the architecture's native format.
    #[default]
    Native,
    /// Force single-dimensional compression (row-aligned padding).
    Sdc,
    /// Force CSR with block-gather consumption.
    Csr,
    /// Native format with int8 weight values (halved value traffic; the
    /// "Q+S" configuration of Fig. 15(b)).
    Int8,
}

/// Memory-side result for one layer (scaled to real size).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MemoryResult {
    /// Weight-stream bytes (format-dependent).
    pub a_bytes: f64,
    /// Activation bytes (dense `K × N` fp16).
    pub b_bytes: f64,
    /// Output bytes (dense `M × N` fp16).
    pub d_bytes: f64,
    /// Total memory cycles.
    pub cycles: u64,
    /// Total DRAM energy, pJ.
    pub energy_pj: f64,
    /// Useful-over-peak bandwidth utilization of the weight stream.
    pub a_bandwidth_utilization: f64,
}

impl MemoryResult {
    /// Total off-chip traffic in bytes.
    pub fn total_bytes(&self) -> f64 {
        self.a_bytes + self.b_bytes + self.d_bytes
    }
}

/// Efficiency of a perfectly sequential dense stream (pipeline gaps,
/// refresh).
const STREAM_EFFICIENCY: f64 = 0.95;

/// Simulates the memory side of a layer on a registry architecture,
/// building a fresh [`BlockPlan`].
pub fn simulate_memory(
    arch: Arch,
    layer: &SparseLayer,
    cfg: &HwConfig,
    fmt: FormatOverride,
) -> MemoryResult {
    simulate_memory_on(arch.model(), layer, &BlockPlan::build(layer), cfg, fmt)
}

/// Simulates the memory side against any [`ArchModel`] — registry builtin
/// or user-submitted spec — using a pre-built [`BlockPlan`].
pub fn simulate_memory_on(
    model: &ArchModel,
    layer: &SparseLayer,
    plan: &BlockPlan,
    cfg: &HwConfig,
    fmt: FormatOverride,
) -> MemoryResult {
    let dram_cfg = match model.spec().bandwidth_gbps {
        Some(gbps) => DramConfig {
            bytes_per_cycle: gbps,
            ..cfg.dram
        },
        None => cfg.dram,
    };

    // --- Weight stream: replay the sampled trace, scale up. ---
    let trace = a_trace(model, layer, plan, fmt);
    let mut dram = DramModel::new(dram_cfg);
    let a_res = dram.replay(trace.requests.iter().copied());
    let ws = layer.weight_scale();
    let a_cycles = (a_res.cycles as f64 * ws).ceil() as u64;
    let a_energy = a_res.energy_pj * ws;
    let a_bytes = a_res.useful_bytes as f64 * ws;
    // Bandwidth utilization counts only *information* bytes: format
    // padding (SDC) and burst waste (CSR) both show up as lost
    // utilization — the paper's challenge-2 metric.
    let info_sampled = info_bytes(model, layer, plan, fmt);
    let a_util = if a_res.cycles == 0 {
        1.0
    } else {
        (info_sampled / (a_res.cycles as f64 * dram_cfg.bytes_per_cycle)).min(1.0)
    };

    // --- Activation and output streams: dense sequential. ---
    // B is reused across the weight row-strips; when it exceeds the
    // on-chip buffer (half of which is reserved for weight/output
    // double-buffering) it must be re-streamed once per additional pass,
    // up to once per 8-row weight strip.
    let b_once = layer.k as f64 * layer.n as f64 * 2.0;
    let buffer_budget = (cfg.buffer_kib as f64) * 1024.0 * 0.5;
    let max_passes = (layer.m as f64 / 8.0).ceil().max(1.0);
    let passes = (b_once / buffer_budget).ceil().clamp(1.0, max_passes);
    let b_bytes = b_once * passes;
    let d_bytes = layer.m as f64 * layer.n as f64 * 2.0;
    let bd_bytes = b_bytes + d_bytes;
    let bd_cycles = (bd_bytes / (dram_cfg.bytes_per_cycle * STREAM_EFFICIENCY)).ceil() as u64;
    let bd_energy = bd_bytes * dram_cfg.read_energy_pj_per_byte
        + (bd_bytes / dram_cfg.row_bytes as f64) * dram_cfg.act_energy_pj
        + bd_cycles as f64 * dram_cfg.background_pj_per_cycle;

    MemoryResult {
        a_bytes,
        b_bytes,
        d_bytes,
        cycles: a_cycles + bd_cycles,
        energy_pj: a_energy + bd_energy,
        a_bandwidth_utilization: a_util,
    }
}

/// The information content of the sampled weight stream: the bytes any
/// format must move at minimum (values + one index per non-zero; the full
/// matrix when the architecture streams dense rows for this layer/format).
fn info_bytes(
    model: &ArchModel,
    layer: &SparseLayer,
    plan: &BlockPlan,
    fmt: FormatOverride,
) -> f64 {
    let dense_stream = match model.spec().dense_info {
        DenseInfoPolicy::Never => false,
        DenseInfoPolicy::Always => true,
        DenseInfoPolicy::NonTbsNative => layer.tbs().is_none() && fmt == FormatOverride::Native,
    };
    if dense_stream {
        let (rows, cols) = plan.sampled_shape();
        return (rows * cols) as f64 * 2.0;
    }
    if fmt == FormatOverride::Int8 {
        return plan.total_nnz() as f64 * 2.0; // 1B value + packed index
    }
    plan.total_nnz() as f64 * 3.0
}

/// Builds the sampled weight-stream trace for an architecture: the
/// override formats here, the native format from the spec's codec.
fn a_trace(
    model: &ArchModel,
    layer: &SparseLayer,
    plan: &BlockPlan,
    fmt: FormatOverride,
) -> WeightTrace {
    match fmt {
        FormatOverride::Sdc => codec_trace(CodecSpec::Sdc, layer, plan),
        // The PE array gathers each 8 × 8 block's row segments: the
        // plan's packed per-block row counts are those segments, in order.
        FormatOverride::Csr => WeightTrace::from_access_trace(csr::block_access_trace(
            BLOCK,
            plan.grid().1,
            plan.packed_row_nnz(),
        )),
        FormatOverride::Int8 => {
            // DDC layout with 1-byte values: info words + nnz × 1.5 bytes.
            let (gr, gc) = plan.grid();
            let blocks = (gr * gc) as u64;
            let bytes = blocks * 2 + (plan.total_nnz() as u64 * 3).div_ceil(2);
            WeightTrace::sequential(bytes)
        }
        FormatOverride::Native => codec_trace(model.spec().codec, layer, plan),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tbstc_models::LayerShape;

    fn shape() -> LayerShape {
        LayerShape {
            name: "mem-test".into(),
            m: 128,
            k: 128,
            n: 64,
            repeats: 1,
            prunable: true,
        }
    }

    fn cfg() -> HwConfig {
        HwConfig::paper_default()
    }

    fn run(arch: Arch, target: f64, fmt: FormatOverride) -> MemoryResult {
        let layer = crate::LayerSim::new(&shape())
            .arch(arch)
            .sparsity(target)
            .seed(21)
            .build(&cfg());
        simulate_memory(arch, &layer, &cfg(), fmt)
    }

    #[test]
    fn dense_reads_full_matrix() {
        let r = run(Arch::Tc, 0.0, FormatOverride::Native);
        assert!((r.a_bytes - 128.0 * 128.0 * 2.0).abs() < 1.0);
        assert!(r.a_bandwidth_utilization > 0.85);
    }

    #[test]
    fn tb_stc_traffic_scales_with_sparsity() {
        let half = run(Arch::TbStc, 0.5, FormatOverride::Native);
        let deep = run(Arch::TbStc, 0.875, FormatOverride::Native);
        assert!(deep.a_bytes < half.a_bytes * 0.5);
    }

    #[test]
    fn ddc_bandwidth_beats_csr_and_sdc_on_tbs() {
        // The §V claim: 1.47x average bandwidth-utilization gain.
        let native = run(Arch::TbStc, 0.75, FormatOverride::Native);
        let sdc = run(Arch::TbStc, 0.75, FormatOverride::Sdc);
        let csr = run(Arch::TbStc, 0.75, FormatOverride::Csr);
        assert!(
            native.a_bandwidth_utilization
                > 1.2 * sdc.a_bandwidth_utilization.min(csr.a_bandwidth_utilization),
            "DDC {} vs SDC {} / CSR {}",
            native.a_bandwidth_utilization,
            sdc.a_bandwidth_utilization,
            csr.a_bandwidth_utilization
        );
        assert!(native.cycles <= sdc.cycles.min(csr.cycles));
    }

    #[test]
    fn csr_utilization_in_paper_band() {
        // Paper: <38.2% bandwidth utilization for CSR on TBS matrices.
        let csr = run(Arch::TbStc, 0.75, FormatOverride::Csr);
        assert!(
            csr.a_bandwidth_utilization < 0.45,
            "{}",
            csr.a_bandwidth_utilization
        );
    }

    #[test]
    fn sdc_pads_on_heterogeneous_rows() {
        let sdc = run(Arch::TbStc, 0.75, FormatOverride::Sdc);
        let native = run(Arch::TbStc, 0.75, FormatOverride::Native);
        assert!(
            sdc.a_bytes > native.a_bytes * 1.2,
            "SDC {} vs DDC {}",
            sdc.a_bytes,
            native.a_bytes
        );
    }

    #[test]
    fn b_and_d_streams_identical_across_archs() {
        let tb = run(Arch::TbStc, 0.75, FormatOverride::Native);
        let tc = run(Arch::Tc, 0.0, FormatOverride::Native);
        assert_eq!(tb.b_bytes, tc.b_bytes);
        assert_eq!(tb.d_bytes, tc.d_bytes);
    }

    #[test]
    fn sgcn_gets_higher_bandwidth() {
        let sg = run(Arch::Sgcn, 0.95, FormatOverride::Native);
        let tb = run(Arch::TbStc, 0.95, FormatOverride::Native);
        // Same B/D bytes but 4x channel: fewer cycles for SGCN.
        assert!(sg.cycles < tb.cycles);
    }

    #[test]
    fn traffic_scales_to_real_size() {
        let small = shape();
        let mut big = shape();
        big.m = 256;
        big.k = 256;
        let cfg = cfg();
        let ls = crate::LayerSim::new(&small)
            .arch(Arch::TbStc)
            .sparsity(0.5)
            .seed(5)
            .build(&cfg);
        let lb = crate::LayerSim::new(&big)
            .arch(Arch::TbStc)
            .sparsity(0.5)
            .seed(5)
            .build(&cfg);
        let rs = simulate_memory(Arch::TbStc, &ls, &cfg, FormatOverride::Native);
        let rb = simulate_memory(Arch::TbStc, &lb, &cfg, FormatOverride::Native);
        let ratio = rb.a_bytes / rs.a_bytes;
        assert!((3.5..4.5).contains(&ratio), "{ratio}");
    }
}

#[cfg(test)]
mod trace_tests {
    use super::*;
    use proptest::prelude::*;
    use tbstc_formats::{Csr, Ddc, Sdc};
    use tbstc_models::LayerShape;
    use tbstc_sparsity::TbsConfig;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        #[test]
        fn plan_fed_traces_equal_encode_fed_traces(
            seed in 0u64..10_000,
            m in 1usize..150,
            k in 1usize..150,
            arch in 0usize..8,
            tbs_m in 0usize..5,
            sp in 0u32..=100,
            prunable in 0u32..=3,
        ) {
            let shape = LayerShape {
                name: format!("trace-{seed}"),
                m,
                k,
                n: 16,
                repeats: 1,
                prunable: prunable > 0,
            };
            let mut sim = crate::LayerSim::new(&shape)
                .arch(Arch::ALL[arch])
                .sparsity(f64::from(sp) / 100.0)
                .seed(seed);
            if tbs_m > 0 {
                // Block sizes 4, 8, 16 and 32.
                sim = sim.tbs_config(TbsConfig::with_block_size(2 << tbs_m));
            }
            let layer = sim.build(&HwConfig::paper_default());
            let plan = BlockPlan::build(&layer);
            // The traces as they were built before the plan fed them:
            // encode the sampled matrix, then walk the encoded format.
            let w = layer.sampled();
            let ddc = match layer.tbs() {
                Some(tbs) => WeightTrace::from_access_trace(Ddc::encode(w, tbs).access_trace()),
                None => WeightTrace::sequential(w.len() as u64 * 2),
            };
            let encoded = [
                (CodecSpec::Sdc, WeightTrace::from_access_trace(Sdc::encode(w).access_trace())),
                (CodecSpec::Csr, WeightTrace::from_access_trace(Csr::encode(w).streaming_trace())),
                (CodecSpec::DdcOrDense, ddc),
            ];
            for (codec, want) in encoded {
                prop_assert_eq!(codec_trace(codec, &layer, &plan), want, "{:?} on {}x{}", codec, m, k);
            }
            prop_assert_eq!(
                a_trace(Arch::ALL[arch].model(), &layer, &plan, FormatOverride::Csr),
                WeightTrace::from_access_trace(Csr::encode(w).block_access_trace(8, 8))
            );
        }
    }
}

#[cfg(test)]
mod buffer_tests {
    use super::*;
    use tbstc_models::LayerShape;

    #[test]
    fn big_activations_reload_when_buffer_small() {
        // K×N×2 = 8 MB of B against a 1 MB half-budget: multiple passes.
        let shape = LayerShape {
            name: "big-b".into(),
            m: 4096,
            k: 16384,
            n: 256,
            repeats: 1,
            prunable: true,
        };
        let small = HwConfig {
            buffer_kib: 2048,
            ..HwConfig::paper_default()
        };
        let big = HwConfig {
            buffer_kib: 16384,
            ..HwConfig::paper_default()
        };
        let layer = crate::LayerSim::new(&shape)
            .arch(crate::Arch::TbStc)
            .sparsity(0.75)
            .seed(1)
            .build(&small);
        let r_small = simulate_memory(crate::Arch::TbStc, &layer, &small, FormatOverride::Native);
        let r_big = simulate_memory(crate::Arch::TbStc, &layer, &big, FormatOverride::Native);
        assert!(
            r_small.b_bytes > r_big.b_bytes * 3.0,
            "small buffer re-streams B: {} vs {}",
            r_small.b_bytes,
            r_big.b_bytes
        );
        assert!(r_small.cycles > r_big.cycles);
    }

    #[test]
    fn small_layers_read_b_once() {
        let shape = LayerShape {
            name: "small-b".into(),
            m: 128,
            k: 128,
            n: 64,
            repeats: 1,
            prunable: true,
        };
        let cfg = HwConfig::paper_default();
        let layer = crate::LayerSim::new(&shape)
            .arch(crate::Arch::TbStc)
            .sparsity(0.5)
            .seed(2)
            .build(&cfg);
        let r = simulate_memory(crate::Arch::TbStc, &layer, &cfg, FormatOverride::Native);
        assert!((r.b_bytes - 128.0 * 64.0 * 2.0).abs() < 1.0);
    }
}
