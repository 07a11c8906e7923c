//! Cycle-level performance simulator for TB-STC and all paper baselines.
//!
//! This crate is the reproduction of the paper's "cycle-level performance
//! simulator to model the hardware behavior and evaluate execution cycles"
//! (§VII-A1), extended with the energy hooks (Sparseloop-lite) so that it
//! also produces EDP.
//!
//! The simulated architectures (§VII-A2):
//!
//! | [`Arch`] | Pattern executed | Key constraint modelled |
//! |---|---|---|
//! | `Tc` | dense | full MACs |
//! | `Stc` | 4:8 tile | density floor at 50 % regardless of target |
//! | `Vegeta` | RS-V | SIMD lockstep across co-scheduled rows |
//! | `Highlight` | RS-H | density ladder rounds *up* off-ladder targets |
//! | `RmStc` | unstructured | nnz-proportional + gather/union power |
//! | `TbStc` | TBS | DDC + hierarchical sparsity-aware scheduling |
//! | `DvpeFan` | TBS | SIGMA's element-level FAN instead (ablation) |
//! | `Sgcn` | unstructured | few lanes, 256 GB/s, per-row overhead |
//!
//! Each of them is a declarative [`spec::ArchSpec`] in the
//! [`archs::REGISTRY`], interpreted by [`archs::ArchModel`] — the same
//! code that runs a user-submitted spec.
//!
//! The flow: describe a single-layer simulation with [`builder::LayerSim`]
//! (shape + architecture + sparsity + seed; large layers are sampled),
//! then [`builder::LayerSim::run`] (or [`pipeline::simulate_layer`] on a
//! pre-built [`layer::SparseLayer`]) produces a [`result::LayerResult`]
//! with cycles, a phase breakdown, utilizations and energy. A simulation
//! is two stages: [`pipeline::SampledCost::measure`] costs the pruned
//! sample, and [`pipeline::fold`] scales that cost to the real layer
//! shape, so layers that share a sample share one measurement.
//!
//! # Examples
//!
//! ```
//! use tbstc_models::bert_base;
//! use tbstc_sim::{Arch, HwConfig, LayerSim};
//!
//! let cfg = HwConfig::paper_default();
//! let layer = &bert_base(128).layers[0];
//! let res = LayerSim::new(layer).arch(Arch::TbStc).sparsity(0.75).seed(42).run(&cfg);
//! assert!(res.cycles > 0);
//! ```

#![warn(missing_docs)]

pub mod arch;
pub mod archs;
pub mod builder;
pub mod compute;
pub mod config;
pub mod dvpe;
pub mod layer;
pub mod mbd;
pub mod memory;
pub mod pipeline;
pub mod plan;
pub mod result;
pub mod sched;
pub mod schedunit;
pub mod spec;

pub use arch::{Arch, ArchId, ParseArchError};
pub use archs::{ArchModel, REGISTRY};
pub use builder::LayerSim;
pub use config::HwConfig;
pub use layer::{sampled_cols, LayerPruner, LayerWeights, PruneKey, SampleKey, SparseLayer};
pub use pipeline::{
    fold, simulate_layer, simulate_layer_on, simulate_layer_with, simulate_model,
    simulate_model_on, SampledCost, SimOptions,
};
pub use plan::BlockPlan;
pub use result::{CycleBreakdown, LayerResult, ModelResult};
pub use spec::{ArchSpec, CodecSpec, Dataflow, DatapathKind, DenseInfoPolicy, SlotTerm};
