//! Fig. 15(b): effect of 8-bit weight quantization on TBS-pruned models.
//!
//! Paper result: quantization on top of sparsity ("Q+S") adds 1.33× /
//! 1.39× speedup on ResNet-50 / BERT with almost negligible accuracy loss
//! (0.13 / 0.41 pts).

#![allow(
    clippy::unwrap_used,
    clippy::expect_used,
    reason = "a bench aborts on a broken setup; the panic lints guard library code"
)]

use tbstc::matrix::quant::QuantizedMatrix;
use tbstc::models::{bert_base, resnet50};
use tbstc::prelude::*;
use tbstc::sim::memory::FormatOverride;
use tbstc::sim::pipeline::{simulate_layer_with, SimOptions};
use tbstc::train::oneshot::SyntheticLlm;
use tbstc_bench::{banner, geomean, paper_vs_measured, section};

fn main() {
    banner(
        "Fig. 15(b)",
        "Effect of int8 weight quantization on TBS-pruned models",
    );
    let cfg = HwConfig::paper_default();

    section("speedup: S (fp16 sparse) vs Q+S (int8 sparse)");
    let mut gains = Vec::new();
    let r50 = resnet50(32);
    let bert = bert_base(128);
    let layer_sets = [("ResNet-50", &r50.layers[3..8]), ("BERT", &bert.layers[..])];
    for (name, layers) in layer_sets {
        let mut per_model = Vec::new();
        for shape in layers {
            let layer = LayerSim::new(shape)
                .arch(Arch::TbStc)
                .sparsity(0.75)
                .seed(11)
                .build(&cfg);
            let fp16 = simulate_layer(Arch::TbStc, &layer, &cfg);
            let int8 = simulate_layer_with(
                Arch::TbStc,
                &layer,
                &cfg,
                &SimOptions::with_format(FormatOverride::Int8),
            );
            per_model.push(fp16.cycles as f64 / int8.cycles as f64);
        }
        let g = geomean(&per_model).expect("ratios are positive");
        println!("  {name:<10} Q+S speedup over S: {g:.2}x");
        gains.push((name, g));
    }

    section("accuracy: quantizing the TBS-pruned synthetic model");
    let llm = SyntheticLlm::new(256, 256, 32, 2048, 801);
    let sparse_acc = llm.prune_sparse_only(0.75);
    let quant_acc = llm.prune_quantize_and_eval(0.75);
    println!(
        "  S accuracy {:.2}%   Q+S accuracy {:.2}%   loss {:.2} pts",
        sparse_acc * 100.0,
        quant_acc * 100.0,
        (sparse_acc - quant_acc) * 100.0
    );

    // Round-trip sanity: int8 error bound on a pruned matrix.
    let w = tbstc::matrix::rng::MatrixRng::seed_from(5).block_structured_weights(64, 64, 8);
    let p = TbsPattern::sparsify(&w, 0.75, &TbsConfig::paper_default());
    let pruned = p.mask().apply(&w);
    let q = QuantizedMatrix::quantize(&pruned);
    println!(
        "  int8 round-trip max error on pruned weights: {:.5}",
        pruned.max_abs_diff(&q.dequantize()).expect("same shape")
    );

    section("paper-vs-measured");
    paper_vs_measured("ResNet-50 Q+S speedup", 1.33, gains[0].1);
    paper_vs_measured("BERT Q+S speedup", 1.39, gains[1].1);
    paper_vs_measured(
        "accuracy loss pts (paper 0.13-0.41)",
        0.41,
        (sparse_acc - quant_acc) * 100.0,
    );
}
