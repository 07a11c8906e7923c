//! Ramulator-lite: a bank/row-state DRAM timing and energy model.
//!
//! The paper evaluates TB-STC against a 64 GB/s off-chip memory and uses
//! Ramulator [28] for cycle-level DRAM behaviour and DRAMPower [5] for
//! energy. This crate substitutes both with a compact model that captures
//! exactly what the evaluation exercises:
//!
//! * **burst quantization** — every request transfers whole bursts, so
//!   small scattered reads (CSR consumption, Fig. 7(b)) waste bandwidth,
//! * **row-buffer locality** — sequential streams amortize one activation
//!   per DRAM row; random access pays activate/precharge repeatedly,
//! * **bank-level parallelism** — a memory controller with a lookahead
//!   window hides activations of *other* banks behind ongoing transfers,
//!   so streaming stays near peak while same-bank conflicts serialize,
//! * **energy** — per-activation and per-burst energies plus background
//!   power, so traffic and time both show up in the EDP.
//!
//! The model replays a request list (addresses + lengths) and reports
//! cycles, energy and achieved bandwidth utilization.
//!
//! # Examples
//!
//! ```
//! use tbstc_dram::{DramConfig, DramModel};
//!
//! let mut dram = DramModel::new(DramConfig::paper_default());
//! // Stream 1 MiB sequentially: utilization approaches 1.0.
//! let reqs: Vec<(u64, u64)> = (0..16384).map(|i| (i * 64, 64)).collect();
//! let res = dram.replay(reqs.iter().copied());
//! assert!(res.bandwidth_utilization() > 0.9);
//! ```

#![warn(missing_docs)]

mod timing;

pub use timing::{DramConfig, DramModel, DramResult};
