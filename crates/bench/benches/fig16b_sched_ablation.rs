//! Fig. 16(b): ablation of the I/O-aware configurable architecture with
//! hierarchical sparsity-aware scheduling.
//!
//! Paper results: 1.57× average compute-utilization improvement over
//! non-scheduled execution, and SIGMA's element-level FAN reduction
//! network yields 1.61× worse normalized EDP than the DVPE.

#![allow(
    clippy::unwrap_used,
    clippy::expect_used,
    reason = "a bench aborts on a broken setup; the panic lints guard library code"
)]

use tbstc::models::{bert_base, resnet50};
use tbstc::prelude::*;
use tbstc::sim::compute::{simulate_compute, SchedulePolicy};
use tbstc_bench::{banner, geomean, paper_vs_measured, section};

fn main() {
    banner(
        "Fig. 16(b)",
        "Hierarchical scheduling + reduction-network ablation",
    );
    let cfg = HwConfig::paper_default();
    let r50 = resnet50(64);
    let bert = bert_base(128);
    let layers: Vec<_> = r50
        .layers
        .iter()
        .filter(|l| l.prunable)
        .take(4)
        .chain(bert.layers.iter().take(4))
        .collect();

    section("compute utilization: hierarchical scheduling vs naive mapping");
    println!(
        "  {:<14} {:>12} {:>12} {:>8}",
        "layer", "sched util", "naive util", "gain"
    );
    let mut util_gains = Vec::new();
    for (i, shape) in layers.iter().enumerate() {
        let layer = LayerSim::new(shape)
            .arch(Arch::TbStc)
            .sparsity(0.75)
            .seed(1100 + i as u64)
            .build(&cfg);
        let smart = simulate_compute(
            Arch::TbStc,
            &layer,
            &cfg,
            SchedulePolicy::native(Arch::TbStc),
        );
        let naive = simulate_compute(Arch::TbStc, &layer, &cfg, SchedulePolicy::naive());
        let gain = smart.utilization / naive.utilization;
        println!(
            "  {:<14} {:>11.1}% {:>11.1}% {:>7.2}x",
            shape.name,
            smart.utilization * 100.0,
            naive.utilization * 100.0,
            gain
        );
        util_gains.push(gain);
    }

    section("reduction network: DVPE vs SIGMA FAN (normalized EDP)");
    let mut edp_ratios = Vec::new();
    for (i, shape) in layers.iter().enumerate() {
        let tb_layer = LayerSim::new(shape)
            .arch(Arch::TbStc)
            .sparsity(0.75)
            .seed(1100 + i as u64)
            .build(&cfg);
        let fan_layer = LayerSim::new(shape)
            .arch(Arch::DvpeFan)
            .sparsity(0.75)
            .seed(1100 + i as u64)
            .build(&cfg);
        let tb = simulate_layer(Arch::TbStc, &tb_layer, &cfg);
        let fan = simulate_layer(Arch::DvpeFan, &fan_layer, &cfg);
        edp_ratios.push(fan.edp_point().edp() / tb.edp_point().edp());
    }
    println!(
        "  DVPE+FAN normalized EDP vs DVPE: {:.2}x (per-layer range {:.2}..{:.2})",
        geomean(&edp_ratios).expect("ratios are positive"),
        edp_ratios.iter().copied().fold(f64::MAX, f64::min),
        edp_ratios.iter().copied().fold(0.0, f64::max)
    );

    section("paper-vs-measured");
    paper_vs_measured(
        "compute utilization gain (paper 1.57x)",
        1.57,
        geomean(&util_gains).expect("ratios are positive"),
    );
    paper_vs_measured(
        "FAN normalized EDP (paper 1.61x)",
        1.61,
        geomean(&edp_ratios).expect("ratios are positive"),
    );
}
