//! Fig. 15(d): effect of the sparsity degree — TB-STC vs SGCN on a GCN
//! workload.
//!
//! Paper result: SGCN (high-sparsity GNN accelerator with a 256 GB/s
//! bandwidth provision) wins at ~95 %+ sparsity; TB-STC is better by
//! 1.32× on average across the 30–90 % range where DNNs live.

#![allow(
    clippy::unwrap_used,
    clippy::expect_used,
    reason = "a bench aborts on a broken setup; the panic lints guard library code"
)]

use tbstc::models::gcn_layer;
use tbstc::prelude::*;
use tbstc_bench::{banner, geomean, paper_vs_measured, section};

fn main() {
    banner(
        "Fig. 15(d)",
        "TB-STC vs SGCN across sparsity degrees (GCN workload)",
    );
    let engine = SweepRunner::new(HwConfig::paper_default());
    let shape = gcn_layer(1024, 128).layers[0].clone();
    let sparsities = [0.3, 0.5, 0.6, 0.7, 0.8, 0.9, 0.95, 0.97];

    // Both architectures over the whole sparsity range as one batch.
    let jobs: Vec<LayerSim> = sparsities
        .iter()
        .enumerate()
        .flat_map(|(i, &s)| {
            [Arch::TbStc, Arch::Sgcn].map(|arch| {
                LayerSim::new(&shape)
                    .arch(arch)
                    .sparsity(s)
                    .seed(900 + i as u64)
            })
        })
        .collect();
    let batch = engine.run_layers(&jobs).results;

    println!(
        "  {:<10} {:>12} {:>12} {:>14}",
        "sparsity", "TB-STC cyc", "SGCN cyc", "TB-STC/SGCN"
    );
    let mut dnn_range = Vec::new();
    let mut extreme = Vec::new();
    for (i, &s) in sparsities.iter().enumerate() {
        let (tb, sg) = (&batch[2 * i], &batch[2 * i + 1]);
        let ratio = sg.cycles as f64 / tb.cycles as f64; // >1 = TB-STC wins
        println!(
            "  {:<10.2} {:>12} {:>12} {:>13.2}x",
            s, tb.cycles, sg.cycles, ratio
        );
        if s <= 0.9 {
            dnn_range.push(ratio);
        } else {
            extreme.push(ratio);
        }
    }

    section("paper-vs-measured");
    paper_vs_measured(
        "TB-STC advantage in 30-90% band (paper 1.32x)",
        1.32,
        geomean(&dnn_range).expect("ratios are positive"),
    );
    let min_extreme = extreme.iter().copied().fold(f64::MAX, f64::min);
    paper_vs_measured(
        "SGCN overtakes at >=95% (ratio < 1, paper: SGCN wins)",
        1.0,
        min_extreme,
    );
}
