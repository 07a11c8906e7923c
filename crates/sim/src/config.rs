//! Hardware configuration shared by all simulated architectures.

use tbstc_dram::DramConfig;
use tbstc_energy::components::PeArrayShape;

/// The simulated hardware platform.
///
/// The paper keeps peak performance, on-chip memory capacity and off-chip
/// bandwidth identical across baselines (§VII-A1) — so all architectures
/// share one `HwConfig` and differ only in their datapath behaviour.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HwConfig {
    /// PE-array shape (8 arrays × 16 DVPEs × 8 multipliers by default).
    pub pe: PeArrayShape,
    /// Core clock in GHz (1.0 in the paper; used only for reporting).
    pub clock_ghz: f64,
    /// Off-chip memory configuration (64 GB/s by default).
    pub dram: DramConfig,
    /// On-chip buffer capacity in KiB (for B-matrix reuse accounting).
    pub buffer_kib: usize,
    /// Rows/cols used when sampling very large layers (see
    /// [`crate::LayerSim::build`]).
    pub sample_dim: usize,
    /// B-columns used when sampling.
    pub sample_cols: usize,
}

impl HwConfig {
    /// The paper's setup.
    pub fn paper_default() -> Self {
        HwConfig {
            pe: PeArrayShape::paper_default(),
            clock_ghz: 1.0,
            dram: DramConfig::paper_default(),
            buffer_kib: 2048,
            sample_dim: 128,
            sample_cols: 64,
        }
    }

    /// Same platform with a different off-chip bandwidth (Fig. 15(c)).
    pub fn with_bandwidth_gbps(gbps: f64) -> Self {
        HwConfig {
            dram: DramConfig::with_bandwidth_gbps(gbps),
            ..Self::paper_default()
        }
    }

    /// Total multiplier lanes.
    pub fn lanes(&self) -> usize {
        self.pe.mults()
    }

    /// Lanes per DVPE (the SIMD width of one PE).
    pub fn lane_width(&self) -> usize {
        self.pe.mults_per_dvpe
    }

    /// Number of DVPEs.
    pub fn dvpes(&self) -> usize {
        self.pe.dvpes()
    }

    /// Validates invariants.
    ///
    /// # Panics
    ///
    /// Panics when any dimension is zero.
    pub fn validate(&self) {
        assert!(self.pe.mults() > 0, "need multipliers");
        assert!(self.sample_dim >= 8, "sample must cover at least one block");
        assert!(self.sample_cols > 0, "need at least one sampled column");
        self.dram.validate();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_default_matches_section7() {
        let c = HwConfig::paper_default();
        assert_eq!(c.lanes(), 1024);
        assert_eq!(c.dvpes(), 128);
        assert_eq!(c.lane_width(), 8);
        assert_eq!(c.dram.bytes_per_cycle, 64.0);
        c.validate();
    }

    #[test]
    fn bandwidth_override() {
        let c = HwConfig::with_bandwidth_gbps(256.0);
        assert_eq!(c.dram.bytes_per_cycle, 256.0);
        assert_eq!(c.lanes(), 1024);
    }
}
