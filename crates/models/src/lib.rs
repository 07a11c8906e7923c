//! Workload model zoo: the per-layer GEMM shapes of every model the paper
//! evaluates (§VII-A3).
//!
//! The simulator consumes GEMM shapes, not framework graphs. Convolutions
//! are lowered the standard im2col way: a conv with `C_out` filters over
//! `C_in × k × k` patches on an `H × W` output becomes a GEMM with
//! `M = C_out`, `K = C_in·k²`, `N = H·W`. Attention/FFN projections are
//! GEMMs directly, with `N` = token count.
//!
//! # Examples
//!
//! ```
//! use tbstc_models::{resnet50, ModelKind};
//!
//! let model = resnet50(224);
//! assert_eq!(model.kind, ModelKind::ResNet50);
//! assert!(model.total_macs() > 3_000_000_000); // ~4 GMACs at 224×224
//! ```

#![warn(missing_docs)]

mod shapes;

pub use shapes::{
    bert_base, gcn_layer, llama2_7b, opt_6_7b, resnet18, resnet50, LayerShape, Model, ModelKind,
};
