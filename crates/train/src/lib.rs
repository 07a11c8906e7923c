//! From-scratch sparse-training substrate for the TB-STC reproduction.
//!
//! The paper's accuracy results (Tables I and II, Figs. 4(c), 15(a,b),
//! 18) come from training/pruning real models in PyTorch. This crate
//! substitutes a compact but real training stack:
//!
//! * [`net`] — multi-layer perceptrons with manual backpropagation
//!   (linear + ReLU + softmax cross-entropy), SGD with momentum,
//! * [`data`] — synthetic classification datasets with train/test splits:
//!   a Gaussian-mixture "vision" proxy and a token-bag "NLP" proxy,
//! * [`sparse`] — the paper's end-to-end sparse training flow (§III-B1):
//!   dense weights with a pattern-projected mask recomputed every epoch,
//!   straight-through gradients,
//! * [`oneshot`] — Table II's one-shot pruning protocol: train a dense
//!   teacher, prune with Wanda or SparseGPT under each pattern, evaluate
//!   without retraining.
//!
//! The accuracy *ordering* across patterns (US ≥ TBS ≥ RS-H ≈ RS-V ≥ TS)
//! is a property of how much weight importance each projection retains —
//! which these small models measure just as well as a 7 B-parameter one.

#![warn(missing_docs)]

pub mod data;
pub mod net;
pub mod oneshot;
pub mod sparse;

pub use data::Dataset;
pub use net::{Mlp, MlpConfig};
pub use sparse::{SparseTrainer, TrainConfig, TrainRecord};
