//! Parallel experiment engine for the TB-STC reproduction.
//!
//! Every figure in the paper is a sweep: a grid of (architecture, model,
//! sparsity, seed) points pushed through the simulator. This crate turns
//! those sweeps into first-class jobs:
//!
//! * [`pool`] — a dependency-free scoped thread pool (worker count from
//!   `TBSTC_JOBS` or the machine's parallelism),
//! * [`Memo`] — a keyed result cache so repeated points (e.g. the dense
//!   baseline every figure shares) compute once,
//! * [`Runner`] — deterministic parallel batch execution: dedupe, fan
//!   out, assemble in input order,
//! * [`Sweep`] / [`SweepRunner`] — the simulation-specific layer: grid
//!   building and memoized model/layer sweeps over one [`HwConfig`].
//!
//! # Determinism
//!
//! Parallel output is bit-identical to serial output for the same jobs:
//! each job owns its seed, results are keyed (not ordered) by schedule,
//! and assembly follows input order. `Runner::serial()` is the reference
//! implementation, not a different code path for correctness.
//!
//! # Examples
//!
//! ```
//! use tbstc_runner::{ModelSpec, Sweep, SweepRunner};
//! use tbstc_sim::{Arch, HwConfig};
//!
//! let engine = SweepRunner::new(HwConfig::paper_default());
//! let report = Sweep::new()
//!     .archs([Arch::Tc, Arch::TbStc])
//!     .models([ModelSpec::Gcn { nodes: 64, features: 16 }])
//!     .sparsities([0.0, 0.75])
//!     .run(&engine);
//! assert_eq!(report.results.len(), 4);
//! ```

#![warn(missing_docs)]

pub mod memo;
pub mod pool;
pub mod runner;
mod siblings;
pub mod sweep;

pub use memo::Memo;
pub use pool::{available_workers, parallel_map, JOBS_ENV};
pub use runner::{RunReport, RunStats, Runner};
pub use sweep::{ChunkControl, ModelSpec, SimJob, Sweep, SweepCheckpoint, SweepRunner};
