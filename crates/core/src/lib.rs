//! # TB-STC — Transposable Block-wise N:M Structured Sparse Tensor Core
//!
//! A full-system Rust reproduction of the HPCA 2025 paper *TB-STC:
//! Transposable Block-wise N:M Structured Sparse Tensor Core*. The crate
//! re-exports every subsystem and adds the cross-cutting experiment
//! helpers ([`experiments`]) used by the examples and the benchmark
//! harness:
//!
//! * [`matrix`] — dense matrices, fp16 emulation, GEMM golden models,
//! * [`sparsity`] — the TBS pattern (Algorithm 1) and all baselines
//!   (US / TS / RS-V / RS-H), mask-space analysis, pruning criteria,
//! * [`formats`] — SDC / CSR / DDC storage formats + the adaptive codec,
//! * [`train`] — the sparse-training substrate and one-shot pruning,
//! * [`models`] — ResNet / BERT / OPT / Llama / GCN workload shapes,
//! * [`dram`] — the Ramulator-lite DRAM timing/energy model,
//! * [`energy`] — area/power models (Table III) and EDP accounting,
//! * [`sim`] — the cycle-level simulator for TB-STC and every baseline.
//!
//! # Quickstart
//!
//! ```
//! use tbstc::prelude::*;
//!
//! // Prune a weight matrix with the paper's TBS pattern at 75% sparsity.
//! let w = MatrixRng::seed_from(0).block_structured_weights(64, 64, 8);
//! let pattern = TbsPattern::sparsify(&w, 0.75, &TbsConfig::paper_default());
//!
//! // Simulate one BERT layer on TB-STC vs. the dense Tensor Core.
//! let cfg = HwConfig::paper_default();
//! let shape = &tbstc::models::bert_base(128).layers[0];
//! let tb = LayerSim::new(shape).arch(Arch::TbStc).sparsity(0.75).run(&cfg);
//! let tc = LayerSim::new(shape).arch(Arch::Tc).run(&cfg);
//! assert!(tb.speedup_over(&tc) > 1.5);
//!
//! // Sweep a grid of (arch, sparsity) points on the parallel runner —
//! // results are bit-identical to a serial run, repeated points are
//! // served from the cache.
//! let report = Sweep::new()
//!     .archs([Arch::TbStc, Arch::Tc])
//!     .models([ModelSpec::BertBase { tokens: 32 }])
//!     .sparsities([0.0, 0.75])
//!     .run(&SweepRunner::new(cfg));
//! assert_eq!(report.results.len(), 4);
//! ```

#![warn(missing_docs)]

pub use tbstc_dram as dram;
pub use tbstc_energy as energy;
pub use tbstc_formats as formats;
pub use tbstc_matrix as matrix;
pub use tbstc_models as models;
pub use tbstc_runner as runner;
pub use tbstc_sim as sim;
pub use tbstc_sparsity as sparsity;
pub use tbstc_train as train;

pub mod archspec;
pub mod error;
pub mod experiments;
pub mod jobspec;
pub mod jobstate;
pub mod json;

pub use error::Error;

/// The most commonly used items, for `use tbstc::prelude::*`.
pub mod prelude {
    pub use tbstc_energy::EdpPoint;
    pub use tbstc_formats::{CodecUnit, Csr, Ddc, Sdc};
    pub use tbstc_matrix::rng::MatrixRng;
    pub use tbstc_matrix::{Matrix, F16};
    pub use tbstc_models::{bert_base, opt_6_7b, resnet18, resnet50};
    pub use tbstc_runner::{
        Memo, ModelSpec, RunReport, RunStats, Runner, SimJob, Sweep, SweepRunner,
    };
    pub use tbstc_sim::{simulate_layer, simulate_model, Arch, HwConfig, LayerSim, SparseLayer};
    pub use tbstc_sparsity::{Mask, Pattern, PatternKind, TbsConfig, TbsPattern};
    pub use tbstc_train::{Dataset, Mlp, MlpConfig, SparseTrainer, TrainConfig};

    pub use crate::error::Error;
    pub use crate::experiments::{AccuracyCurve, ParetoPoint};
    pub use crate::jobspec::{ArchChoice, JobSpec, SimulateSpec, SweepSpec};
    pub use crate::json::Json;
}
