//! Output checks: a digest of simulated statistics and byte comparison
//! of response bodies against a reference computed in-process.

use tbstc::json::fnv1a_64;
use tbstc::sim::ModelResult;

const FNV_BASIS: u64 = 0xcbf2_9ce4_8422_2325;

/// A digest of every simulated number a speed-only change must leave
/// alone: per point the total cycles and energy bits, and per layer the
/// cycles, energy bits and useful MACs.
pub fn digest(results: &[ModelResult]) -> u64 {
    let mut bytes = Vec::with_capacity(results.len() * 64);
    for r in results {
        bytes.extend_from_slice(r.arch.canonical_name().as_bytes());
        bytes.extend_from_slice(&r.total_cycles.to_le_bytes());
        bytes.extend_from_slice(&r.total_energy_pj.to_bits().to_le_bytes());
        for l in &r.layers {
            bytes.extend_from_slice(&l.cycles.to_le_bytes());
            bytes.extend_from_slice(&l.energy_pj.to_bits().to_le_bytes());
            bytes.extend_from_slice(&l.useful_macs.to_le_bytes());
        }
    }
    fnv1a_64(&bytes, FNV_BASIS)
}

/// Counts the points whose simulated statistics differ from the
/// reference (aligned by position); a length mismatch fails the
/// missing or extra points too.
pub fn mismatched_points(got: &[ModelResult], want: &[ModelResult]) -> usize {
    let differing = got
        .iter()
        .zip(want)
        .filter(|(g, w)| digest(std::slice::from_ref(*g)) != digest(std::slice::from_ref(*w)))
        .count();
    differing + got.len().abs_diff(want.len())
}

/// Whether a response body is byte-identical to the reference body.
pub fn body_matches(got: &[u8], want: &str) -> bool {
    got == want.as_bytes()
}

#[cfg(test)]
mod tests {
    use super::*;
    use tbstc::prelude::*;

    fn points(seed: u64) -> Vec<ModelResult> {
        let engine = SweepRunner::with_runner(HwConfig::paper_default(), Runner::serial());
        let jobs = Sweep::new()
            .archs([Arch::TbStc, Arch::Tc])
            .models([ModelSpec::Gcn {
                nodes: 64,
                features: 16,
            }])
            .sparsities([0.5, 0.75])
            .seeds([seed])
            .jobs();
        engine.run_models(&jobs).results
    }

    #[test]
    fn digest_is_stable_and_seed_sensitive() {
        let a = points(3);
        assert_eq!(digest(&a), digest(&points(3)), "same inputs, same digest");
        assert_ne!(
            digest(&a),
            digest(&points(4)),
            "other weights, other digest"
        );
        // A fixed value pins the digest's definition across releases of
        // this benchmark; a change to the simulator's numbers moves it.
        assert_eq!(digest(&[]), FNV_BASIS);
        assert_eq!(
            digest(&a),
            0xfd0b_0800_f431_551d,
            "pinned digest of the GCN grid at seed 3"
        );
    }

    #[test]
    fn a_wrong_digest_or_body_counts_as_failed() {
        let want = points(3);
        assert_eq!(mismatched_points(&want, &want), 0);
        let mut got = want.clone();
        got[1].layers[0].cycles += 1;
        assert_eq!(mismatched_points(&got, &want), 1, "one perturbed point");
        got[2].total_energy_pj = f64::from_bits(got[2].total_energy_pj.to_bits() ^ 1);
        assert_eq!(mismatched_points(&got, &want), 2, "a one-ulp energy change");
        assert_eq!(mismatched_points(&want[..3], &want), 1, "a missing point");
        assert!(body_matches(b"{\"a\":1}\n", "{\"a\":1}\n"));
        assert!(!body_matches(b"{\"a\":1}", "{\"a\":1}\n"));
    }
}
