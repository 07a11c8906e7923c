//! Criterion microbenchmarks of the reproduction's hot kernels: the
//! Algorithm-1 sparsifier, format encode/decode, the codec conversion,
//! the DRAM replay, the reference GEMM, a sample task's prunes, the
//! block plan and the sparsity-aware schedule replay.
//!
//! One run is not evidence of a change. Each figure is the vendored
//! criterion's 20-sample median, and on a shared host that median moves
//! more than many real changes do: three back-to-back runs of one
//! unchanged kernel (`layer_pruner_paper_walk_128x128`) printed 698, 669
//! and 880 µs. Show a gain with alternating runs of the two commits, and
//! count how many of the pairs the change wins.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use std::hint::black_box;

use tbstc::dram::{DramConfig, DramModel};
use tbstc::matrix::rng::MatrixRng;
use tbstc::matrix::{gemm, Matrix};
use tbstc::prelude::*;

fn bench_sparsify(c: &mut Criterion) {
    let w = MatrixRng::seed_from(1).block_structured_weights(128, 128, 8);
    c.bench_function("alg1_tbs_sparsify_128x128", |b| {
        b.iter(|| TbsPattern::sparsify(black_box(&w), 0.75, &TbsConfig::paper_default()))
    });
}

fn bench_formats(c: &mut Criterion) {
    let w = MatrixRng::seed_from(2).block_structured_weights(128, 128, 8);
    let p = TbsPattern::sparsify(&w, 0.75, &TbsConfig::paper_default());
    let pruned = p.mask().apply(&w);
    c.bench_function("ddc_encode_128x128", |b| {
        b.iter(|| Ddc::encode(black_box(&pruned), black_box(&p)))
    });
    let ddc = Ddc::encode(&pruned, &p);
    c.bench_function("ddc_decode_128x128", |b| {
        b.iter(|| black_box(&ddc).decode())
    });
    c.bench_function("sdc_encode_128x128", |b| {
        b.iter(|| Sdc::encode(black_box(&pruned)))
    });
    c.bench_function("csr_encode_128x128", |b| {
        b.iter(|| Csr::encode(black_box(&pruned)))
    });
}

fn bench_codec(c: &mut Criterion) {
    let w = MatrixRng::seed_from(3).block_structured_weights(128, 128, 8);
    let p = TbsPattern::sparsify(&w, 0.75, &TbsConfig::paper_default());
    let pruned = p.mask().apply(&w);
    let ddc = Ddc::encode(&pruned, &p);
    let codec = CodecUnit::paper_default();
    c.bench_function("codec_convert_all_blocks", |b| {
        b.iter(|| {
            for block in ddc.blocks() {
                black_box(codec.convert_block(black_box(block)));
            }
        })
    });
}

fn bench_dram(c: &mut Criterion) {
    let trace: Vec<(u64, u64)> = (0..4096u64).map(|i| (i * 64, 64)).collect();
    c.bench_function("dram_replay_4096_bursts", |b| {
        b.iter_batched(
            || DramModel::new(DramConfig::paper_default()),
            |mut dram| dram.replay(black_box(trace.iter().copied())),
            BatchSize::SmallInput,
        )
    });
}

fn bench_gemm(c: &mut Criterion) {
    let mut rng = MatrixRng::seed_from(4);
    let a: Matrix = rng.block_structured_weights(128, 128, 8);
    let b_mat = rng.uniform(128, 64, -1.0, 1.0);
    c.bench_function("gemm_128x128x64", |b| {
        b.iter(|| gemm::matmul(black_box(&a), black_box(&b_mat)))
    });
}

fn bench_simulate(c: &mut Criterion) {
    let cfg = HwConfig::paper_default();
    let shape = tbstc::models::bert_base(128).layers[0].clone();
    let layer = LayerSim::new(&shape)
        .arch(Arch::TbStc)
        .sparsity(0.75)
        .seed(5)
        .build(&cfg);
    c.bench_function("simulate_layer_tbstc", |b| {
        b.iter(|| simulate_layer(Arch::TbStc, black_box(&layer), &cfg))
    });
}

/// One sample's prunes as a paper-grid task walks them: every distinct
/// key of the eight archs at 50 / 75 / 87.5 % (14 of them), in (target,
/// pattern) order, through one pruner.
fn bench_layer_pruner(c: &mut Criterion) {
    use tbstc::sim::{LayerPruner, LayerWeights, PruneKey};

    let cfg = HwConfig::paper_default();
    let shape = tbstc::models::bert_base(128).layers[0].clone();
    let weights = LayerWeights::sample(&shape, 1, &cfg);
    let mut keys: Vec<PruneKey> = [0.5, 0.75, 0.875]
        .into_iter()
        .flat_map(|t| Arch::ALL.map(|arch| PruneKey::new(arch.native_pattern(), true, t)))
        .collect();
    keys.sort_by(|a, b| {
        a.target
            .total_cmp(&b.target)
            .then(a.pattern.cmp(&b.pattern))
    });
    keys.dedup();
    assert_eq!(keys.len(), 14, "a paper task prunes 14 keys");
    c.bench_function("layer_pruner_paper_walk_128x128", |b| {
        b.iter(|| {
            let mut pruner = LayerPruner::new(black_box(&weights));
            for &key in &keys {
                black_box(pruner.prune(key));
            }
        })
    });
}

/// A 128 × 128 sample of BERT's first layer, pruned for `arch` at
/// `sparsity`, as a paper-grid task measures it.
fn paper_sample(arch: Arch, sparsity: f64, cfg: &HwConfig) -> SparseLayer {
    let shape = tbstc::models::bert_base(128).layers[0].clone();
    LayerSim::new(&shape)
        .arch(arch)
        .sparsity(sparsity)
        .seed(6)
        .build(cfg)
}

fn bench_block_plan(c: &mut Criterion) {
    use tbstc::sim::BlockPlan;

    let layer = paper_sample(Arch::TbStc, 0.75, &HwConfig::paper_default());
    c.bench_function("block_plan_build_128x128", |b| {
        b.iter(|| BlockPlan::build(black_box(&layer)))
    });
}

/// `schedule_stream` on a sample's priced blocks at the sampled column
/// count (`sn` = 64), under the arch's native policy: TB-STC's blocks
/// vary in occupancy, HighLight's 50 % blocks all cost the same.
fn bench_schedule_stream(c: &mut Criterion) {
    use tbstc::sim::sched::schedule_stream;

    let cfg = HwConfig::paper_default();
    for (name, arch, sparsity) in [
        ("schedule_stream_tbstc_75_128x128", Arch::TbStc, 0.75),
        ("schedule_stream_highlight_50_128x128", Arch::Highlight, 0.5),
    ] {
        let layer = paper_sample(arch, sparsity, &cfg);
        let model = arch.model();
        let works = model.block_works_batch(layer.plan());
        let width = cfg.lane_width();
        let pes = model.lanes(cfg.pe) / width;
        let policy = model.native_schedule();
        let sn = cfg.sample_cols;
        c.bench_function(name, |b| {
            b.iter(|| {
                schedule_stream(
                    black_box(&works),
                    sn,
                    pes,
                    width,
                    policy.inter,
                    policy.intra,
                )
            })
        });
    }
}

criterion_group!(
    name = kernels;
    config = Criterion::default().sample_size(20);
    targets = bench_sparsify, bench_formats, bench_codec, bench_dram, bench_gemm, bench_simulate,
        bench_layer_pruner, bench_block_plan, bench_schedule_stream
);
criterion_main!(kernels);
