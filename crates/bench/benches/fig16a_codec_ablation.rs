//! Fig. 16(a): ablation of the adaptive codec architecture.
//!
//! Deploy the same TBS-pruned model on pipelines without the adaptive
//! codec (SDC- or CSR-based weight streams). Paper result: other
//! architectures trail TB-STC by more than 1.44×, and §V's bandwidth
//! utilization gain is 1.47× on average.

#![allow(
    clippy::unwrap_used,
    clippy::expect_used,
    reason = "a bench aborts on a broken setup; the panic lints guard library code"
)]

use tbstc::models::resnet50;
use tbstc::prelude::*;
use tbstc::sim::memory::{simulate_memory, FormatOverride};
use tbstc::sim::pipeline::{simulate_layer_with, SimOptions};
use tbstc_bench::{banner, geomean, paper_vs_measured, section};

fn main() {
    banner(
        "Fig. 16(a)",
        "Adaptive codec ablation (TBS-pruned ResNet-50)",
    );
    let cfg = HwConfig::paper_default();
    let r50 = resnet50(64);
    let layers: Vec<_> = r50.layers.iter().filter(|l| l.prunable).take(8).collect();

    let mut slowdowns_sdc = Vec::new();
    let mut slowdowns_csr = Vec::new();
    let mut bw_gains = Vec::new();

    println!(
        "  {:<14} {:>10} {:>10} {:>10} {:>9} {:>9} {:>9}",
        "layer", "DDC cyc", "SDC cyc", "CSR cyc", "DDC BW", "SDC BW", "CSR BW"
    );
    for (i, shape) in layers.iter().enumerate() {
        let layer = LayerSim::new(shape)
            .arch(Arch::TbStc)
            .sparsity(0.75)
            .seed(1000 + i as u64)
            .build(&cfg);
        let run =
            |fmt| simulate_layer_with(Arch::TbStc, &layer, &cfg, &SimOptions::with_format(fmt));
        let native = run(FormatOverride::Native);
        let sdc = run(FormatOverride::Sdc);
        let csr = run(FormatOverride::Csr);
        let bw = |fmt| simulate_memory(Arch::TbStc, &layer, &cfg, fmt).a_bandwidth_utilization;
        let (bn, bs, bc) = (
            bw(FormatOverride::Native),
            bw(FormatOverride::Sdc),
            bw(FormatOverride::Csr),
        );
        println!(
            "  {:<14} {:>10} {:>10} {:>10} {:>8.1}% {:>8.1}% {:>8.1}%",
            shape.name,
            native.cycles,
            sdc.cycles,
            csr.cycles,
            bn * 100.0,
            bs * 100.0,
            bc * 100.0
        );
        slowdowns_sdc.push(sdc.cycles as f64 / native.cycles as f64);
        slowdowns_csr.push(csr.cycles as f64 / native.cycles as f64);
        bw_gains.push(bn / bs.max(bc));
    }

    section("paper-vs-measured");
    let worst_alt = geomean(&slowdowns_sdc)
        .expect("ratios are positive")
        .max(geomean(&slowdowns_csr).expect("ratios are positive"));
    paper_vs_measured(
        "performance gap of codec-less pipelines (paper >1.44x)",
        1.44,
        worst_alt,
    );
    paper_vs_measured(
        "bandwidth utilization gain (paper 1.47x)",
        1.47,
        geomean(&bw_gains).expect("ratios are positive"),
    );
    println!(
        "  (SDC slowdown {:.2}x, CSR slowdown {:.2}x)",
        geomean(&slowdowns_sdc).expect("ratios are positive"),
        geomean(&slowdowns_csr).expect("ratios are positive")
    );
}
