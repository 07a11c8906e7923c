//! `SweepRunner::run_models` shares each layer's sampled weights among
//! every fresh point whose layer has the same sample key (seed, layer
//! name, sampled size), across models, and within a sample task each
//! distinct pruned layer, its plan, top-k and (prune key, shape, arch)
//! result. This checks, over random job lists and over full grids that
//! hold every sharing pair, that the grouped run is bit-identical to
//! simulating every point on its own with `simulate_model_on`, and that
//! the memo, its counters and the per-job timings behave exactly as for
//! one-point-at-a-time execution.

use std::collections::BTreeSet;

use proptest::prelude::*;
use tbstc_runner::{ModelSpec, Runner, SimJob, Sweep, SweepRunner};
use tbstc_sim::{simulate_model_on, Arch, HwConfig, ModelResult};

const RESNET18: ModelSpec = ModelSpec::ResNet18 { input: 32 };
const GCN: ModelSpec = ModelSpec::Gcn {
    nodes: 64,
    features: 16,
};

/// Paper models at small inputs, plus the single-layer GCN. ResNet-18
/// and ResNet-50 share eight sampled layers, and BERT at 16 and at 128
/// tokens shares all six with another activation width.
const MODELS: [ModelSpec; 5] = [
    RESNET18,
    ModelSpec::ResNet50 { input: 32 },
    ModelSpec::BertBase { tokens: 16 },
    ModelSpec::BertBase { tokens: 128 },
    GCN,
];
const SPARSITIES: [f64; 3] = [0.5, 0.75, 0.875];

fn reference(job: &SimJob, cfg: &HwConfig) -> ModelResult {
    simulate_model_on(
        job.arch.model(),
        &job.model.build(),
        job.sparsity,
        job.seed,
        cfg,
    )
}

fn assert_bits_equal(got: &ModelResult, want: &ModelResult, job: &SimJob) {
    assert_eq!(got.arch, want.arch, "{job}");
    assert_eq!(got.model, want.model, "{job}");
    assert_eq!(got.layers.len(), want.layers.len(), "{job}");
    for (g, w) in got.layers.iter().zip(&want.layers) {
        assert_eq!(g.name, w.name, "{job}");
        assert_eq!(g.cycles, w.cycles, "{job} {}", w.name);
        assert_eq!(
            g.energy_pj.to_bits(),
            w.energy_pj.to_bits(),
            "{job} {}",
            w.name
        );
        assert_eq!(g.useful_macs, w.useful_macs, "{job} {}", w.name);
    }
    assert_eq!(got.total_cycles, want.total_cycles, "{job}");
    assert_eq!(
        got.total_energy_pj.to_bits(),
        want.total_energy_pj.to_bits(),
        "{job}"
    );
    assert_eq!(got, want, "{job}");
}

/// Every arch at every sparsity: TB-STC/DVPE+FAN and RM-STC/SGCN share
/// pruned layers, STC and TC repeat results across sparsities, and
/// ResNet-18's non-prunable stem and fc run dense for all 24 points. The
/// single-layer GCN grid has fewer sample tasks than three workers, so its
/// siblings are split into chunks.
#[test]
fn full_grids_match_per_point_simulation() {
    let cfg = HwConfig::paper_default();
    assert!(
        RESNET18.build().layers.iter().any(|l| !l.prunable),
        "the grid needs a non-prunable layer"
    );
    for model in [RESNET18, GCN] {
        let jobs = Sweep::new()
            .archs(Arch::ALL)
            .models([model])
            .sparsities(SPARSITIES)
            .seeds([5])
            .jobs();
        assert_eq!(jobs.len(), Arch::ALL.len() * SPARSITIES.len());
        let want: Vec<ModelResult> = jobs.iter().map(|j| reference(j, &cfg)).collect();
        for workers in [1, 3] {
            let engine = SweepRunner::with_runner(cfg, Runner::new().with_workers(workers));
            let rep = engine.run_models(&jobs);
            assert_eq!(rep.stats.unique_jobs, jobs.len());
            assert_eq!(rep.stats.job_wall.len(), jobs.len());
            for ((job, got), want) in jobs.iter().zip(&rep.results).zip(&want) {
                assert_bits_equal(got, want, job);
            }
        }
    }
}

/// Every arch at every sparsity over models whose layers share samples:
/// ResNet-18 with ResNet-50 (the same layer name and sampled size at
/// another real size) and BERT at 16 with 128 tokens (the same weights at
/// a sampled activation width `sn` of 16 and of 64).
#[test]
fn shared_samples_across_models_match_per_point_simulation() {
    let cfg = HwConfig::paper_default();
    let jobs = Sweep::new()
        .archs(Arch::ALL)
        .models(MODELS[..4].iter().copied())
        .sparsities(SPARSITIES)
        .seeds([3])
        .jobs();
    let want: Vec<ModelResult> = jobs.iter().map(|j| reference(j, &cfg)).collect();
    for workers in [1, 2, 3, 8] {
        let engine = SweepRunner::with_runner(cfg, Runner::new().with_workers(workers));
        let rep = engine.run_models(&jobs);
        assert_eq!(rep.stats.unique_jobs, jobs.len());
        assert_eq!(rep.stats.job_wall.len(), jobs.len());
        for ((job, got), want) in jobs.iter().zip(&rep.results).zip(&want) {
            assert_bits_equal(got, want, job);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn grouped_run_models_matches_per_point_simulation(
        raw in proptest::collection::vec((0usize..MODELS.len(), 0usize..8, 0usize..3, 0u64..3), 1..12),
        seeds in 1u64..=3,
        dups in proptest::collection::vec(0usize..64, 0..4),
        preload_bits in 0u32..=u32::MAX,
        workers in 1usize..=4,
        gcn_only in 0usize..3,
    ) {
        let cfg = HwConfig::paper_default();
        // One case in three is all single-layer GCN: it has fewer layer
        // tasks than workers, so the siblings are split into chunks.
        let mut jobs: Vec<SimJob> = raw
            .iter()
            .map(|&(m, a, s, seed)| SimJob {
                arch: Arch::ALL[a],
                model: if gcn_only == 0 { GCN } else { MODELS[m] },
                sparsity: SPARSITIES[s],
                seed: 1 + seed % seeds,
            })
            .collect();
        for d in dups {
            let j = jobs[d % jobs.len()];
            jobs.insert(d % (jobs.len() + 1), j);
        }
        let mut unique: Vec<SimJob> = Vec::new();
        for job in &jobs {
            if !unique.contains(job) {
                unique.push(*job);
            }
        }
        let want: Vec<ModelResult> = unique.iter().map(|j| reference(j, &cfg)).collect();

        // About one point in four is preloaded. Preloaded points carry a
        // marker (one extra cycle) so a recomputation instead of a memo
        // hit would show.
        let preloaded: BTreeSet<usize> = (0..unique.len())
            .filter(|i| preload_bits >> (2 * (i % 16)) & 3 == 0)
            .collect();
        let engine = SweepRunner::with_runner(cfg, Runner::new().with_workers(workers));
        engine.preload_models(preloaded.iter().map(|&i| {
            let mut marked = want[i].clone();
            marked.total_cycles += 1;
            (unique[i], marked)
        }));
        let (hits0, misses0) = engine.cache_stats();

        let rep = engine.run_models(&jobs);
        let fresh = unique.len() - preloaded.len();
        prop_assert_eq!(rep.results.len(), jobs.len());
        prop_assert_eq!(rep.stats.unique_jobs, fresh);
        prop_assert_eq!(rep.stats.cache_hits, jobs.len() - fresh);
        prop_assert_eq!(rep.stats.job_wall.len(), rep.stats.unique_jobs);
        let (hits, misses) = engine.cache_stats();
        prop_assert_eq!(hits - hits0, (jobs.len() - fresh) as u64);
        prop_assert_eq!(misses - misses0, fresh as u64);

        for (job, got) in jobs.iter().zip(&rep.results) {
            let i = unique.iter().position(|u| u == job).expect("job is in the unique list");
            let mut expect = want[i].clone();
            if preloaded.contains(&i) {
                expect.total_cycles += 1;
            }
            assert_bits_equal(got, &expect, job);
        }
    }
}
