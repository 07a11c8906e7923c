//! Allocation budget of the CPU work behind a hot-tier hit: parsing the
//! job spec, deriving its cache key, and serializing the `200` answer.
//!
//! The library crates deny `unsafe`, so the counting `GlobalAlloc` lives
//! in this integration test (the `crates/train/tests/alloc_steady_state.rs`
//! pattern). Each budget sits at what the current code needs, so a
//! return to per-line `format!` temporaries or to a `String` that grows
//! while it is written fails here by name.

#![allow(unsafe_code, reason = "a counting GlobalAlloc needs an unsafe impl")]

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use tbstc::prelude::*;
use tbstc_serve::http::Response;

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

fn allocations_in<T>(f: impl FnOnce() -> T) -> (u64, T) {
    let before = ALLOCS.with(Cell::get);
    let out = f();
    (ALLOCS.with(Cell::get) - before, out)
}

/// A spec as the `serve-hot` workload sends it.
const HOT_SPEC: &str = r#"{"type":"simulate","arch":"tb-stc","model":{"kind":"gcn","nodes":64,"features":16},"sparsity":0.75,"seed":5}"#;

/// Allocations for `JobSpec::from_json(HOT_SPEC)?.cache_key()`: 13 for
/// the parsed document (a string per key and value, a node per map), 18
/// for the canonical value tree, one canonical text buffer and the key.
/// The per-char formatter, with its float temporaries and a growing
/// `to_string`, took 41.
const PARSE_AND_KEY_BUDGET: u64 = 33;

/// Allocations for `Response::serialize` of a hit: the one wire buffer.
/// A head built from a `format!` per line took 15.
const SERIALIZE_BUDGET: u64 = 1;

#[test]
fn spec_parse_and_cache_key_stay_within_budget() {
    let parse_and_key = || JobSpec::from_json(HOT_SPEC).map(|s| s.cache_key());
    // Warm-up: the first arch lookup builds the builtin registry.
    let _ = parse_and_key();
    let (n, key) = allocations_in(parse_and_key);
    assert_eq!(
        key.ok().as_deref(),
        Some("ba5b035127ad755b0c7beb59caf91828")
    );
    assert!(
        n <= PARSE_AND_KEY_BUDGET,
        "from_json + cache_key allocated {n} times, budget {PARSE_AND_KEY_BUDGET}"
    );
}

#[test]
fn hit_response_serializes_within_budget() {
    let body = format!(
        "{{\"schema\":\"tbstc.v1\",\"result\":{}}}\n",
        "1".repeat(500)
    );
    let response = Response::new(200)
        .header("X-Cache", "hit")
        .header("X-Cache-Tier", "mem")
        .header("X-Job-Key", "ba5b035127ad755b0c7beb59caf91828")
        .json(body);
    let (n, wire) = allocations_in(|| response.serialize(true));
    assert!(wire.ends_with(b"}\n"));
    assert!(
        n <= SERIALIZE_BUDGET,
        "serialize allocated {n} times, budget {SERIALIZE_BUDGET}"
    );
}
