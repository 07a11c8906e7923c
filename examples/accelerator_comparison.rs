//! End-to-end accelerator comparison: run full ResNet-50, BERT-base and
//! OPT-6.7B through the cycle-level simulator on every baseline
//! architecture at a common sparsity, and print speedup / EDP tables
//! (the Fig. 12/13 machinery, at one operating point).
//!
//! Run with: `cargo run --release --example accelerator_comparison`

#![allow(
    clippy::unwrap_used,
    reason = "examples favour brevity over error handling"
)]

use tbstc::models::{bert_base, opt_6_7b, resnet50};
use tbstc::prelude::*;

fn main() {
    let cfg = HwConfig::paper_default();
    let sparsity = 0.75;
    let models = [resnet50(64), bert_base(128), opt_6_7b(128)];

    for model in &models {
        println!(
            "== {} at {:.0}% weight sparsity ==",
            model.kind,
            sparsity * 100.0
        );
        let dense = simulate_model(Arch::Tc, model, 0.0, 5, &cfg);
        println!(
            "  {:<10} {:>14} cycles {:>10} mJ   (dense baseline)",
            "TC",
            dense.total_cycles,
            format!("{:.2}", dense.total_energy_pj * 1e-9)
        );
        let mut results = Vec::new();
        for arch in [
            Arch::Stc,
            Arch::Vegeta,
            Arch::Highlight,
            Arch::RmStc,
            Arch::TbStc,
        ] {
            let res = simulate_model(arch, model, sparsity, 5, &cfg);
            println!(
                "  {:<10} {:>14} cycles {:>10} mJ   speedup {:>5.2}x  EDP gain {:>5.2}x",
                arch.to_string(),
                res.total_cycles,
                format!("{:.2}", res.total_energy_pj * 1e-9),
                res.speedup_over(&dense),
                res.edp_gain_over(&dense),
            );
            results.push(res);
        }
        let tb = results.last().unwrap().clone();
        println!("  TB-STC vs best structured baseline:");
        for res in &results[..results.len() - 1] {
            println!(
                "    vs {:<9} speedup {:>5.2}x  EDP {:>5.2}x",
                res.arch.to_string(),
                tb.speedup_over(res),
                tb.edp_gain_over(res)
            );
        }
        println!();
    }

    // Cycle breakdown of a BERT layer on TB-STC (Fig. 14 flavour).
    let model = bert_base(128);
    let res = simulate_model(Arch::TbStc, &model, sparsity, 5, &cfg);
    println!("TB-STC cycle breakdown on BERT-base layers:");
    for layer in res.layers.iter().take(6) {
        let b = &layer.breakdown;
        println!(
            "  {:<10} compute {:>8}  memory {:>8}  codec {:>6} ({:.1}% of total, {} exposed)",
            layer.name,
            b.compute,
            b.memory,
            b.codec_hidden + b.codec_exposed,
            b.codec_share() * 100.0,
            b.codec_exposed
        );
    }
    println!(
        "  mean codec share: {:.2}% (paper: 3.57%, hidden in the pipeline)",
        res.mean_codec_share() * 100.0
    );
}
