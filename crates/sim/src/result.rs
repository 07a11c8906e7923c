//! Simulation results: per-layer and per-model.

use tbstc_energy::EdpPoint;
use tbstc_models::Model;

use crate::arch::ArchId;

/// Where the cycles of a layer went (paper Fig. 14).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CycleBreakdown {
    /// Cycles the PE array was the bottleneck.
    pub compute: u64,
    /// Cycles the memory system was the bottleneck.
    pub memory: u64,
    /// Codec conversion cycles hidden under compute/memory.
    pub codec_hidden: u64,
    /// Codec conversion cycles exposed on the critical path.
    pub codec_exposed: u64,
}

impl CycleBreakdown {
    /// Total critical-path cycles.
    pub fn total(&self) -> u64 {
        self.compute.max(self.memory) + self.codec_exposed
    }

    /// The codec's share of the execution (hidden + exposed over total) —
    /// the paper reports an average of 3.57 %.
    pub fn codec_share(&self) -> f64 {
        let t = self.total();
        if t == 0 {
            return 0.0;
        }
        (self.codec_hidden + self.codec_exposed) as f64 / t as f64
    }

    /// Whether the layer is memory-bound.
    pub fn memory_bound(&self) -> bool {
        self.memory > self.compute
    }
}

/// The result of simulating one layer on one architecture.
#[derive(Debug, Clone, PartialEq)]
pub struct LayerResult {
    /// Layer name.
    pub name: String,
    /// Architecture simulated (builtin tag or spec-declared name).
    pub arch: ArchId,
    /// Critical-path cycles.
    pub cycles: u64,
    /// Cycle breakdown.
    pub breakdown: CycleBreakdown,
    /// Useful MACs executed.
    pub useful_macs: u64,
    /// Compute utilization (useful MACs over lane-cycles).
    pub compute_utilization: f64,
    /// Weight-stream bandwidth utilization.
    pub bandwidth_utilization: f64,
    /// Total off-chip traffic, bytes.
    pub traffic_bytes: f64,
    /// Total energy, pJ.
    pub energy_pj: f64,
}

impl LayerResult {
    /// The `(delay, energy)` point for EDP comparisons.
    pub fn edp_point(&self) -> EdpPoint {
        EdpPoint {
            cycles: self.cycles,
            energy_pj: self.energy_pj,
        }
    }

    /// Speedup relative to another result on the same layer.
    pub fn speedup_over(&self, baseline: &LayerResult) -> f64 {
        self.edp_point().speedup_over(&baseline.edp_point())
    }

    /// EDP improvement relative to another result on the same layer.
    pub fn edp_gain_over(&self, baseline: &LayerResult) -> f64 {
        self.edp_point().edp_gain_over(&baseline.edp_point())
    }
}

/// The result of simulating a whole model.
#[derive(Debug, Clone, PartialEq)]
pub struct ModelResult {
    /// Architecture simulated (builtin tag or spec-declared name).
    pub arch: ArchId,
    /// Model name.
    pub model: String,
    /// Per-layer results (repeats already expanded into the totals).
    pub layers: Vec<LayerResult>,
    /// Total cycles over all layers and repeats.
    pub total_cycles: u64,
    /// Total energy over all layers and repeats, pJ.
    pub total_energy_pj: f64,
}

impl ModelResult {
    /// Folds per-layer results (in `model.layers` order) into a model
    /// result: each layer's cycles and energy count once per repeat, and
    /// the totals are summed in layer order.
    pub fn from_layers(arch: ArchId, model: &Model, layers: Vec<LayerResult>) -> Self {
        let mut total_cycles = 0u64;
        let mut total_energy_pj = 0.0f64;
        for (res, shape) in layers.iter().zip(&model.layers) {
            total_cycles += res.cycles * shape.repeats as u64;
            total_energy_pj += res.energy_pj * shape.repeats as f64;
        }
        ModelResult {
            arch,
            model: model.kind.to_string(),
            layers,
            total_cycles,
            total_energy_pj,
        }
    }

    /// The model-level `(delay, energy)` point.
    pub fn edp_point(&self) -> EdpPoint {
        EdpPoint {
            cycles: self.total_cycles,
            energy_pj: self.total_energy_pj,
        }
    }

    /// End-to-end speedup over a baseline run of the same model.
    pub fn speedup_over(&self, baseline: &ModelResult) -> f64 {
        baseline.total_cycles as f64 / self.total_cycles as f64
    }

    /// End-to-end EDP gain over a baseline run of the same model.
    pub fn edp_gain_over(&self, baseline: &ModelResult) -> f64 {
        self.edp_point().edp_gain_over(&baseline.edp_point())
    }

    /// Mean codec share across layers (Fig. 14's average line).
    pub fn mean_codec_share(&self) -> f64 {
        if self.layers.is_empty() {
            return 0.0;
        }
        self.layers
            .iter()
            .map(|l| l.breakdown.codec_share())
            .sum::<f64>()
            / self.layers.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn breakdown_total_is_bottleneck_plus_exposed() {
        let b = CycleBreakdown {
            compute: 100,
            memory: 80,
            codec_hidden: 10,
            codec_exposed: 5,
        };
        assert_eq!(b.total(), 105);
        assert!(!b.memory_bound());
        assert!((b.codec_share() - 15.0 / 105.0).abs() < 1e-12);
    }

    #[test]
    fn empty_breakdown_is_zero() {
        let b = CycleBreakdown::default();
        assert_eq!(b.total(), 0);
        assert_eq!(b.codec_share(), 0.0);
    }

    #[test]
    fn layer_speedup_and_edp() {
        let fast = LayerResult {
            name: "l".into(),
            arch: crate::arch::Arch::TbStc.into(),
            cycles: 100,
            breakdown: CycleBreakdown::default(),
            useful_macs: 0,
            compute_utilization: 1.0,
            bandwidth_utilization: 1.0,
            traffic_bytes: 0.0,
            energy_pj: 50.0,
        };
        let slow = LayerResult {
            cycles: 200,
            energy_pj: 100.0,
            ..fast.clone()
        };
        assert_eq!(fast.speedup_over(&slow), 2.0);
        assert_eq!(fast.edp_gain_over(&slow), 4.0);
    }
}
