//! Fig. 12: layer-wise speedup and normalized EDP across sparsity degrees
//! on typical ResNet-50 and BERT layers.
//!
//! Paper result: average speedups of TB-STC over STC / VEGETA /
//! HighLight / RM-STC of 1.55× / 1.29× / 1.21× / 1.06×, and 1.41× EDP
//! over HighLight, 1.75× EDP over RM-STC.

#![allow(
    clippy::unwrap_used,
    clippy::expect_used,
    reason = "a bench aborts on a broken setup; the panic lints guard library code"
)]

use tbstc::models::{bert_base, resnet50};
use tbstc::prelude::*;
use tbstc_bench::{banner, geomean, paper_vs_measured, section};

fn main() {
    banner(
        "Fig. 12",
        "Layer-wise speedup and normalized EDP vs sparsity degree",
    );
    let engine = SweepRunner::new(HwConfig::paper_default());
    let archs = [
        Arch::Tc,
        Arch::Stc,
        Arch::Vegeta,
        Arch::Highlight,
        Arch::RmStc,
        Arch::TbStc,
    ];
    let sparsities = [0.5, 0.625, 0.75, 0.875];

    // Typical layers: a mid-network ResNet-50 conv and the BERT FFN GEMMs.
    let r50 = resnet50(64);
    let bert = bert_base(128);
    let layers = [
        r50.layers
            .iter()
            .find(|l| l.name == "conv3 3x3")
            .expect("conv3"),
        r50.layers
            .iter()
            .find(|l| l.name == "conv4 1x1b")
            .expect("conv4"),
        bert.layers
            .iter()
            .find(|l| l.name == "ffn.fc1")
            .expect("fc1"),
        bert.layers
            .iter()
            .find(|l| l.name == "attn.q")
            .expect("attn"),
    ];

    // gains[arch] = per-(layer, sparsity) speedup and EDP of TB-STC over it.
    let mut speedups: Vec<(Arch, Vec<f64>)> = archs[..5].iter().map(|&a| (a, vec![])).collect();
    let mut edps: Vec<(Arch, Vec<f64>)> = archs[..5].iter().map(|&a| (a, vec![])).collect();

    for layer in layers {
        section(&format!(
            "{} (M={}, K={}, N={})",
            layer.name, layer.m, layer.k, layer.n
        ));
        println!(
            "  {:<10} {}",
            "arch",
            sparsities
                .iter()
                .map(|s| format!("{:>12}", format!("{:.1}% spd/EDP", s * 100.0)))
                .collect::<String>()
        );
        // One batch per layer: arch × sparsity, each job owning its seed.
        // The dense TC row repeats the same point per sparsity column —
        // the engine's cache computes each unique (seed) point once.
        let jobs: Vec<LayerSim> = archs
            .iter()
            .flat_map(|&arch| {
                sparsities.iter().enumerate().map(move |(si, &s)| {
                    let target = if arch == Arch::Tc { 0.0 } else { s };
                    LayerSim::new(layer)
                        .arch(arch)
                        .sparsity(target)
                        .seed(300 + si as u64)
                })
            })
            .collect();
        let batch = engine.run_layers(&jobs).results;
        let mut results = Vec::new();
        for (ai, &arch) in archs.iter().enumerate() {
            print!("  {:<10}", arch.to_string());
            let row: Vec<_> = batch[ai * sparsities.len()..(ai + 1) * sparsities.len()].to_vec();
            for res in &row {
                print!("{:>12}", format!("{}", res.cycles));
            }
            println!();
            results.push((arch, row));
        }
        let tb_row = results.last().expect("tb last").1.clone();
        for (arch, row) in &results[..5] {
            if *arch == Arch::Tc {
                continue;
            }
            for (i, r) in row.iter().enumerate() {
                let s = speedups.iter_mut().find(|(a, _)| a == arch).unwrap();
                s.1.push(r.cycles as f64 / tb_row[i].cycles as f64);
                let e = edps.iter_mut().find(|(a, _)| a == arch).unwrap();
                e.1.push(tb_row[i].edp_gain_over(r));
            }
        }
    }

    section("average TB-STC gains (geomean over layers x sparsities)");
    let get = |v: &[(Arch, Vec<f64>)], a: Arch| {
        geomean(&v.iter().find(|(x, _)| *x == a).unwrap().1).expect("ratios are positive")
    };
    println!(
        "  speedup:  vs STC {:.2}x  vs VEGETA {:.2}x  vs HighLight {:.2}x  vs RM-STC {:.2}x",
        get(&speedups, Arch::Stc),
        get(&speedups, Arch::Vegeta),
        get(&speedups, Arch::Highlight),
        get(&speedups, Arch::RmStc)
    );
    println!(
        "  EDP gain: vs STC {:.2}x  vs VEGETA {:.2}x  vs HighLight {:.2}x  vs RM-STC {:.2}x",
        get(&edps, Arch::Stc),
        get(&edps, Arch::Vegeta),
        get(&edps, Arch::Highlight),
        get(&edps, Arch::RmStc)
    );

    section("paper-vs-measured");
    paper_vs_measured("speedup vs STC", 1.55, get(&speedups, Arch::Stc));
    paper_vs_measured("speedup vs VEGETA", 1.29, get(&speedups, Arch::Vegeta));
    paper_vs_measured(
        "speedup vs HighLight",
        1.21,
        get(&speedups, Arch::Highlight),
    );
    paper_vs_measured("speedup vs RM-STC", 1.06, get(&speedups, Arch::RmStc));
    paper_vs_measured("EDP vs HighLight", 1.41, get(&edps, Arch::Highlight));
    paper_vs_measured("EDP vs RM-STC", 1.75, get(&edps, Arch::RmStc));
}
