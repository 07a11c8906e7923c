//! Fig. 15(a): effect of the TBS block size on speedup and accuracy.
//!
//! Paper result: speedup growth flattens as the block size increases,
//! while accuracy drops (94.91 % → 93.82 % from block 8 to the largest),
//! so the paper selects block size 8.

#![allow(
    clippy::unwrap_used,
    clippy::expect_used,
    reason = "a bench aborts on a broken setup; the panic lints guard library code"
)]

use tbstc::models::bert_base;
use tbstc::prelude::*;
use tbstc::train::oneshot::SyntheticLlm;
use tbstc_bench::{banner, paper_vs_measured, section};

fn main() {
    banner("Fig. 15(a)", "Effect of block size on speedup and accuracy");
    let cfg = HwConfig::paper_default();
    let shape = bert_base(128).layers[4].clone(); // ffn.fc1

    // Accuracy: one-shot prune synthetic structured models with TBS at
    // each block size (ResNet-50-proxy protocol), averaged over seeds.
    let llms: Vec<SyntheticLlm> = (0..4)
        .map(|s| SyntheticLlm::new(256, 256, 32, 2048, 701 + s))
        .collect();

    // Speedup: TB-STC at 75% sparsity with the block-size-specific
    // pattern, vs the dense Tensor Core.
    let dense = {
        let l = LayerSim::new(&shape)
            .arch(Arch::Tc)
            .sparsity(0.0)
            .seed(7)
            .build(&cfg);
        simulate_layer(Arch::Tc, &l, &cfg)
    };

    println!(
        "  {:<8} {:>10} {:>12} {:>12}",
        "block", "speedup", "accuracy", "Δcycles vs M=8"
    );
    let mut rows = Vec::new();
    for m in [4usize, 8, 16, 32] {
        let tbs_cfg = TbsConfig::with_block_size(m);
        let res = LayerSim::new(&shape)
            .arch(Arch::TbStc)
            .sparsity(0.75)
            .seed(7)
            .tbs_config(tbs_cfg.clone())
            .run(&cfg);
        let speedup = res.speedup_over(&dense);
        let acc = llms
            .iter()
            .map(|l| l.prune_and_eval_with_tbs(&tbs_cfg, 0.75))
            .sum::<f64>()
            / llms.len() as f64;
        rows.push((m, speedup, acc, res.cycles));
    }
    let base_cycles = rows.iter().find(|r| r.0 == 8).expect("m=8").3 as f64;
    for (m, speedup, acc, cycles) in &rows {
        println!(
            "  {:<8} {:>9.2}x {:>11.2}% {:>11.2}%",
            m,
            speedup,
            acc * 100.0,
            (*cycles as f64 / base_cycles - 1.0) * 100.0
        );
    }

    section("paper-vs-measured");
    let acc8 = rows.iter().find(|r| r.0 == 8).expect("m=8").2;
    let acc32 = rows.iter().find(|r| r.0 == 32).expect("m=32").2;
    paper_vs_measured(
        "accuracy drop 8→32 (pts, paper 94.91→93.82 = 1.09)",
        1.09,
        (acc8 - acc32) * 100.0,
    );
    let s8 = rows.iter().find(|r| r.0 == 8).expect("m=8").1;
    let s32 = rows.iter().find(|r| r.0 == 32).expect("m=32").1;
    paper_vs_measured("speedup flattening 32/8 ratio (paper ≈1.0)", 1.0, s32 / s8);
}
