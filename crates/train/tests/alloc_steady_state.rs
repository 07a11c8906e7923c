//! Counting-allocator proof that the training hot path is allocation-free
//! in steady state.
//!
//! The library crates deny `unsafe`, so the `GlobalAlloc` shim lives in
//! this integration test. The counter only tracks `alloc`/`realloc` on the
//! test thread; frees are irrelevant to the "no per-call heap allocation"
//! acceptance criterion.

#![allow(unsafe_code, reason = "a counting GlobalAlloc needs an unsafe impl")]

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use tbstc_matrix::Matrix;
use tbstc_sparsity::Mask;
use tbstc_train::{Mlp, MlpConfig};

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

struct CountingAlloc;

// `try_with` instead of `with`: the allocator runs during TLS teardown too,
// where touching a destroyed thread-local would abort the process.
// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged, so `System`'s guarantees carry over.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
        System.alloc(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

fn allocations() -> u64 {
    ALLOCS.with(|c| c.get())
}

fn masked_net(seed: u64) -> Mlp {
    let mut net = Mlp::new(&MlpConfig::small(16, 4), seed);
    let shape = net.weights(0).shape();
    net.set_mask(
        0,
        Some(Mask::from_fn(shape.0, shape.1, |r, c| (r + c) % 2 == 0)),
    );
    net
}

#[test]
fn forward_steady_state_allocates_nothing() {
    let mut net = masked_net(1);
    let x = Matrix::filled(8, 16, 0.5);
    let mut out = Matrix::zeros(0, 0);
    // Warm-up: scratch buffers grow and the masked-weight cache fills.
    net.forward_into(&x, &mut out);
    net.forward_into(&x, &mut out);
    let before = allocations();
    net.forward_into(&x, &mut out);
    let after = allocations();
    assert_eq!(
        after - before,
        0,
        "steady-state forward_into allocated {} times",
        after - before
    );
}

#[test]
fn train_step_steady_state_allocates_nothing() {
    let mut net = masked_net(2);
    let x = Matrix::from_fn(8, 16, |r, c| ((r * 16 + c) % 7) as f32 * 0.1 - 0.3);
    let labels: Vec<usize> = (0..8).map(|i| i % 4).collect();
    // Warm-up: grows every scratch buffer (including the GEMM pack panel)
    // and leaves the effective-weight cache dirty exactly as a steady-state
    // step would.
    net.train_batch(&x, &labels);
    net.train_batch(&x, &labels);
    let before = allocations();
    net.train_batch(&x, &labels);
    let after = allocations();
    assert_eq!(
        after - before,
        0,
        "steady-state train_batch allocated {} times",
        after - before
    );
}
