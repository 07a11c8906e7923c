//! The host libm behind the weight sampler.
//!
//! `MatrixRng::standard_normal` (Box–Muller) calls `f32::ln` on a uniform
//! draw in [`f32::EPSILON`, 1) and `f32::cos` on one in [0, τ). Rust does
//! not specify the precision of either: both call the platform's libm, so
//! every sampled weight, and with them the golden fixtures, depend on how
//! that libm rounds. These tests digest both functions over every `f32` of
//! those ranges and compare with the digests recorded on x86_64 Linux with
//! glibc 2.36. A host whose libm rounds differently fails here, by name,
//! rather than as a golden-fixture diff.
//!
//! They take a few seconds single-threaded in release mode and are ignored
//! by default:
//!
//! ```sh
//! cargo test --release -p tbstc-matrix --test libm -- --ignored
//! ```

use std::f32::consts::TAU;

/// FNV-1a over the result bits of `f` at every `f32` in `[lo, hi)`, in
/// increasing order (both bounds non-negative, so bit order is value
/// order).
fn digest(lo: f32, hi: f32, f: impl Fn(f32) -> f32) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for bits in lo.to_bits()..hi.to_bits() {
        h ^= u64::from(f(f32::from_bits(bits)).to_bits());
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

fn assert_libm(name: &str, got: u64, want: u64) {
    assert!(
        got == want,
        "the host libm's {name} rounds differently from the libm the golden \
         fixtures were recorded with (digest {got:016x}, expected {want:016x}): \
         sampled weights, and every fixture built from them, will differ"
    );
}

#[test]
#[ignore = "exhaustive over 1.9e8 inputs; run with --release -- --ignored"]
fn libm_ln_matches_the_recorded_digest() {
    assert_libm(
        "f32::ln",
        digest(f32::EPSILON, 1.0, f32::ln),
        0x87c4_bed4_1583_f98b,
    );
}

#[test]
#[ignore = "exhaustive over 1.1e9 inputs; run with --release -- --ignored"]
fn libm_cos_matches_the_recorded_digest() {
    assert_libm(
        "f32::cos",
        digest(0.0, TAU, f32::cos),
        0x9320_e39b_3317_2480,
    );
}
