//! Dense-matrix substrate for the TB-STC reproduction.
//!
//! This crate provides the numeric foundation every other crate builds on:
//!
//! * [`Matrix`] — a row-major `f32` matrix with block/tile views,
//! * [`F16`] — a software emulation of IEEE-754 binary16 (the datatype the
//!   TB-STC datapath computes in),
//! * [`gemm`] — reference dense and masked matrix-multiplication kernels
//!   (`D = A × B + C`), used as the golden model the simulator and the
//!   storage-format round-trips are checked against,
//! * [`tile`] — iterators over `M × M` blocks (the granularity of the TBS
//!   sparsity pattern),
//! * [`pool`] — the scoped thread pool used by the blocked kernels and
//!   re-exported by `tbstc-runner` for experiment fan-out,
//! * [`quant`] — 8-bit weight quantization (paper Fig. 15(b)),
//! * [`rng`] — deterministic matrix generators for workloads and tests.
//!
//! # Examples
//!
//! ```
//! use tbstc_matrix::{Matrix, gemm};
//!
//! let a = Matrix::from_fn(2, 3, |r, c| (r * 3 + c) as f32);
//! let b = Matrix::identity(3);
//! let d = gemm::matmul(&a, &b);
//! assert_eq!(d, a);
//! ```

#![warn(missing_docs)]

mod error;
mod f16;
mod matrix;

pub mod gemm;
pub mod pool;
pub mod quant;
pub mod rng;
pub mod tile;

pub use error::{DimError, Result};
pub use f16::F16;
pub use matrix::{BlockView, Matrix};
