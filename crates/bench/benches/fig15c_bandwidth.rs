//! Fig. 15(c): effect of off-chip memory bandwidth on TB-STC performance.
//!
//! Paper result: at 64 GB/s TB-STC is memory-limited for high-sparsity
//! tasks; speedup grows with bandwidth up to ~256 GB/s, beyond which it
//! is compute-limited and stops scaling.

#![allow(
    clippy::unwrap_used,
    clippy::expect_used,
    reason = "a bench aborts on a broken setup; the panic lints guard library code"
)]

use tbstc::models::bert_base;
use tbstc::prelude::*;
use tbstc_bench::{banner, paper_vs_measured, section};

fn main() {
    banner("Fig. 15(c)", "Effect of memory bandwidth on TB-STC");
    // Decode-style GEMM (32 tokens): weight traffic dominates, which is
    // the memory-limited regime the paper describes at 64 GB/s.
    let shape = bert_base(32).layers[4].clone(); // ffn.fc1
    let bandwidths = [32.0, 64.0, 128.0, 256.0, 512.0];
    let sparsities = [0.5, 0.75, 0.875];

    println!(
        "  {:<12} {}",
        "BW (GB/s)",
        sparsities
            .iter()
            .map(|s| format!("{:>16}", format!("{:.1}% norm.speed", s * 100.0)))
            .collect::<String>()
    );

    // Normalized to the 64 GB/s baseline per sparsity.
    let mut table = Vec::new();
    for &gbps in &bandwidths {
        let hw = HwConfig::with_bandwidth_gbps(gbps);
        let row: Vec<u64> = sparsities
            .iter()
            .map(|&s| {
                let layer = LayerSim::new(&shape)
                    .arch(Arch::TbStc)
                    .sparsity(s)
                    .seed(13)
                    .build(&hw);
                simulate_layer(Arch::TbStc, &layer, &hw).cycles
            })
            .collect();
        table.push((gbps, row));
    }
    let base: Vec<u64> = table
        .iter()
        .find(|(g, _)| *g == 64.0)
        .expect("64GB/s")
        .1
        .clone();
    for (gbps, row) in &table {
        print!("  {gbps:<12}");
        for (i, c) in row.iter().enumerate() {
            print!("{:>16.2}", base[i] as f64 / *c as f64);
        }
        println!();
    }

    section("paper-vs-measured");
    let at = |g: f64, i: usize| table.iter().find(|(x, _)| *x == g).expect("bw").1[i];
    // High sparsity (87.5%): clear gain up to 256, then flat.
    let gain_64_to_256 = at(64.0, 2) as f64 / at(256.0, 2) as f64;
    let gain_256_to_512 = at(256.0, 2) as f64 / at(512.0, 2) as f64;
    paper_vs_measured(
        "64→256 GB/s speedup at 87.5% sparsity (paper: >1)",
        1.5,
        gain_64_to_256,
    );
    paper_vs_measured(
        "256→512 GB/s speedup (paper: ≈1, compute-bound)",
        1.0,
        gain_256_to_512,
    );
}
