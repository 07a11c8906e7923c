//! Energy and Energy-Delay-Product accounting (Sparseloop-lite).
//!
//! The simulator produces counters (MACs, buffer bytes, cycles, DRAM
//! energy); this module turns them into the energy and EDP numbers the
//! paper's figures plot. Following Sparseloop's methodology, energy is a
//! sum of per-access energies plus component power integrated over time.

use crate::units;

/// The raw activity counters of one simulated run.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct EnergyBreakdown {
    /// FP16 multiply-accumulates executed.
    pub macs: u64,
    /// Bytes moved through the on-chip buffer / register files.
    pub buffer_bytes: u64,
    /// Execution cycles at 1 GHz.
    pub cycles: u64,
    /// Datapath peak power (mW) integrated over the run — pass the
    /// architecture's total from [`crate::components`].
    pub datapath_power_mw: f64,
    /// Fraction of cycles the datapath was actually active (clock gating);
    /// idle cycles burn 20 % of peak.
    pub active_fraction: f64,
    /// DRAM energy from the DRAM model, picojoules.
    pub dram_energy_pj: f64,
    /// Per-MAC energy multiplier over the plain FP16 MAC (index-matching
    /// overhead of unstructured datapaths; 0.0 is treated as 1.0 so that
    /// `Default` stays sane).
    pub mac_energy_scale: f64,
}

impl EnergyBreakdown {
    /// Dynamic compute energy, pJ.
    pub fn compute_pj(&self) -> f64 {
        let scale = if self.mac_energy_scale <= 0.0 {
            1.0
        } else {
            self.mac_energy_scale
        };
        self.macs as f64 * units::FP16_MAC_PJ * scale
    }

    /// On-chip data-movement energy, pJ.
    pub fn buffer_pj(&self) -> f64 {
        self.buffer_bytes as f64 * units::SRAM_READ_PJ_PER_BYTE
            + self.buffer_bytes as f64 * units::REGFILE_PJ_PER_BYTE
    }

    /// Static + clock energy of the datapath over the run, pJ.
    ///
    /// `power · time`, with idle cycles discounted to 20 % of peak.
    pub fn datapath_pj(&self) -> f64 {
        let active = self.active_fraction.clamp(0.0, 1.0);
        let effective = active + (1.0 - active) * 0.2;
        // mW × cycles at 1 GHz = µW·µs = pJ × 1000: 1 mW for 1 ns = 1 pJ.
        self.datapath_power_mw * effective * self.cycles as f64
    }

    /// Total energy, pJ.
    pub fn total_pj(&self) -> f64 {
        self.compute_pj() + self.buffer_pj() + self.datapath_pj() + self.dram_energy_pj
    }
}

/// A `(delay, energy)` point with EDP helpers — one run of one
/// architecture on one workload.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EdpPoint {
    /// Execution cycles.
    pub cycles: u64,
    /// Total energy, pJ.
    pub energy_pj: f64,
}

impl EdpPoint {
    /// Energy-Delay Product in pJ·cycles.
    pub fn edp(&self) -> f64 {
        self.energy_pj * self.cycles as f64
    }

    /// Speedup of `self` relative to `baseline` (>1 means faster).
    pub fn speedup_over(&self, baseline: &EdpPoint) -> f64 {
        baseline.cycles as f64 / self.cycles as f64
    }

    /// EDP improvement of `self` relative to `baseline` (>1 means better).
    pub fn edp_gain_over(&self, baseline: &EdpPoint) -> f64 {
        baseline.edp() / self.edp()
    }

    /// EDP normalized to a baseline (baseline = 1.0; smaller is better).
    pub fn normalized_edp(&self, baseline: &EdpPoint) -> f64 {
        self.edp() / baseline.edp()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn breakdown() -> EnergyBreakdown {
        EnergyBreakdown {
            macs: 1_000_000,
            buffer_bytes: 4_000_000,
            cycles: 10_000,
            datapath_power_mw: 200.0,
            active_fraction: 0.8,
            dram_energy_pj: 5e6,
            mac_energy_scale: 1.0,
        }
    }

    #[test]
    fn energy_components_are_positive_and_sum() {
        let b = breakdown();
        let total = b.total_pj();
        assert!(total > 0.0);
        assert!(
            (total - (b.compute_pj() + b.buffer_pj() + b.datapath_pj() + b.dram_energy_pj)).abs()
                < 1e-6
        );
    }

    #[test]
    fn compute_energy_matches_mac_count() {
        let b = breakdown();
        assert!((b.compute_pj() - 1_000_000.0 * units::FP16_MAC_PJ).abs() < 1e-6);
    }

    #[test]
    fn idle_cycles_cost_less() {
        let mut busy = breakdown();
        busy.active_fraction = 1.0;
        let mut idle = breakdown();
        idle.active_fraction = 0.0;
        assert!(idle.datapath_pj() < busy.datapath_pj());
        assert!(idle.datapath_pj() > 0.0, "leakage never reaches zero");
    }

    #[test]
    fn edp_combines_energy_and_delay() {
        let fast = EdpPoint {
            cycles: 100,
            energy_pj: 1000.0,
        };
        let slow = EdpPoint {
            cycles: 200,
            energy_pj: 1000.0,
        };
        assert_eq!(fast.speedup_over(&slow), 2.0);
        assert_eq!(fast.edp_gain_over(&slow), 2.0);
        assert_eq!(slow.normalized_edp(&fast), 2.0);
    }

    #[test]
    fn equal_speed_lower_power_wins_edp() {
        // The RM-STC vs TB-STC situation (paper §VII-C1): similar speedup,
        // different energy, so TB-STC wins EDP.
        let tb = EdpPoint {
            cycles: 100,
            energy_pj: 1000.0,
        };
        let rm = EdpPoint {
            cycles: 94,
            energy_pj: 1750.0,
        };
        assert!(tb.edp_gain_over(&rm) > 1.5);
        assert!(rm.speedup_over(&tb) > 1.0);
    }

    #[test]
    fn active_fraction_is_clamped() {
        let mut b = breakdown();
        b.active_fraction = 3.0;
        let at_one = {
            let mut c = breakdown();
            c.active_fraction = 1.0;
            c.datapath_pj()
        };
        assert_eq!(b.datapath_pj(), at_one);
    }
}
