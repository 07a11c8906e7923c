//! Analytical area, power and energy models for the TB-STC reproduction.
//!
//! The paper's hardware-overhead numbers come from RTL synthesis (Synopsys
//! DC), Sparseloop, CACTI 7 and DRAMPower, all scaled to 7 nm / 1 GHz.
//! This crate substitutes an analytical model:
//!
//! * [`units`] — per-unit costs (FP16 multiplier, reduction node, queue
//!   byte, MUX leg, SRAM) at 7 nm / 1 GHz,
//! * [`components`] — component inventories for TB-STC and every baseline
//!   datapath (TC, STC, VEGETA, HighLight, RM-STC, SIGMA-FAN), built from
//!   the unit costs,
//! * [`table3`] — regenerates the paper's Table III area/power breakdown,
//! * [`scaling`] — DeepScaleTool-style technology scaling factors,
//! * [`edp`] — energy and Energy-Delay-Product accounting used by the
//!   simulator.
//!
//! # Examples
//!
//! ```
//! use tbstc_energy::table3::tb_stc_breakdown;
//!
//! let t = tb_stc_breakdown();
//! // Paper Table III: 1.47 mm², 200.59 mW.
//! assert!((t.total_area_mm2() - 1.47).abs() < 0.03);
//! assert!((t.total_power_mw() - 200.59).abs() < 4.0);
//! ```

#![warn(missing_docs)]

pub mod components;
pub mod edp;
pub mod scaling;
pub mod table3;
pub mod units;

pub use components::{ComponentCost, DatapathCosts};
pub use edp::{EdpPoint, EnergyBreakdown};
