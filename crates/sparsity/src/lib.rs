//! Sparsity patterns and sparsification algorithms for the TB-STC
//! reproduction.
//!
//! This crate implements the algorithmic contribution of the paper
//! (§III): the **Transposable Block-wise N:M** (TBS) sparsity pattern and
//! its sparsification procedure (Algorithm 1), together with every
//! baseline pattern the paper compares against:
//!
//! * [`pattern::Unstructured`] — element-wise top-k (US),
//! * [`pattern::TileNm`] — tile-wise N:M as in NVIDIA's Sparse Tensor Core
//!   (TS),
//! * [`pattern::RowWiseVegeta`] — VEGETA's row-wise N:M with per-row N
//!   (RS-V),
//! * [`pattern::RowWiseHighlight`] — HighLight's hierarchical two-level
//!   sparsity (RS-H),
//! * [`tbs::TbsPattern`] — the paper's transposable block-wise pattern.
//!
//! Each pattern projects from a [`Scores`] value, which holds what the
//! projections of one score matrix share: its absolute values, the global
//! top-k at a target and the tile-rank map (see [`scores`]).
//!
//! Supporting analyses:
//!
//! * [`mask_space`] — the Mask-Space measure, equations (1)–(4),
//! * [`similarity`] — mask similarity to the unstructured mask (Fig. 4(b)),
//! * [`criteria`] — magnitude / Wanda / SparseGPT pruning criteria,
//! * [`stats`] — block-direction distribution (Fig. 17).
//!
//! # Examples
//!
//! ```
//! use tbstc_matrix::rng::MatrixRng;
//! use tbstc_sparsity::tbs::{TbsConfig, TbsPattern};
//!
//! let w = MatrixRng::seed_from(0).weights(16, 16);
//! let tbs = TbsPattern::sparsify(&w, 0.5, &TbsConfig::paper_default());
//! assert!((tbs.mask().sparsity() - 0.5).abs() < 0.05);
//! ```

#![warn(missing_docs)]

pub mod criteria;
pub mod mask;
pub mod mask_space;
pub mod pattern;
pub mod scores;
mod select;
pub mod similarity;
pub mod stats;
pub mod tbs;

pub use mask::{Mask, MaskBlockView};
pub use pattern::{Pattern, PatternKind};
pub use scores::Scores;
pub use tbs::{SparsityDim, TbsConfig, TbsPattern};
