//! Sparse storage formats and the adaptive codec for the TB-STC
//! reproduction (paper §V).
//!
//! The TBS pattern mixes row-compressed and column-compressed blocks in one
//! matrix, which defeats classical formats:
//!
//! * [`sdc::Sdc`] — **single-dimensional compression**: rows padded to the
//!   longest row. Contiguous but redundant (paper: >61.5 % redundant
//!   traffic on TBS matrices).
//! * [`csr::Csr`] — **compressed sparse row**: minimal storage, but a
//!   block-oriented consumer must gather scattered row segments
//!   (paper: <38.2 % bandwidth utilization).
//! * [`ddc::Ddc`] — the paper's **dual-dimensional compression**: a 16-bit
//!   per-block info word (sparsity dimension, ratio, element offset) plus
//!   intra-block data compressed along the block's own sparsity dimension.
//!   Contiguous *and* minimal.
//! * [`codec::CodecUnit`] — the adaptive codec that converts
//!   independent-dimension blocks from storage format to computation
//!   format on the fly (queue group + merger network, paper Fig. 9).
//!
//! Every format round-trips: `decode(encode(w)) == w` for any masked
//! matrix (tested per format and in the cross-format property tests).

#![warn(missing_docs)]

pub mod access;
pub mod codec;
pub mod csr;
pub mod ddc;
pub mod sdc;

#[cfg(test)]
mod test_support;

pub use access::{AccessTrace, MemRequest};
pub use codec::{CodecStats, CodecUnit};
pub use csr::Csr;
pub use ddc::Ddc;
pub use sdc::Sdc;

/// Bytes per stored fp16 value.
pub const VALUE_BYTES: u64 = 2;
/// Bytes per stored element index (intra-tile positions fit in one byte).
pub const INDEX_BYTES: u64 = 1;
