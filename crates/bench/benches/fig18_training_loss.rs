//! Fig. 18: convergence of dense, US and TBS training.
//!
//! Paper result: TBS training reaches almost the same loss as dense
//! training; its wall-clock is shorter than US training because TB-STC
//! accelerates part of the TBS pass while the US search space is larger.

#![allow(
    clippy::unwrap_used,
    clippy::expect_used,
    reason = "a bench aborts on a broken setup; the panic lints guard library code"
)]

use tbstc::prelude::*;
use tbstc::sparsity::PatternKind;
use tbstc_bench::{banner, paper_vs_measured, section};

fn main() {
    banner("Fig. 18", "Training-loss convergence: dense vs US vs TBS");
    let data = tbstc_bench::proxy_task(12, 1301);
    let epochs = 45;

    let mut runs = Vec::new();
    for (kind, sparsity) in [
        (PatternKind::Dense, 0.0),
        (PatternKind::Unstructured, 0.75),
        (PatternKind::Tbs, 0.75),
    ] {
        let mut cfg = tbstc_bench::student_config(&data, kind, sparsity, 4);
        cfg.epochs = epochs;
        let rec = SparseTrainer::new(cfg).train(&data);
        runs.push((kind, rec));
    }

    section("loss curves");
    print!("  {:<8}", "epoch");
    for e in (0..epochs).step_by(5) {
        print!("{:>8}", e);
    }
    println!();
    for (kind, rec) in &runs {
        print!("  {:<8}", kind.to_string());
        for e in (0..epochs).step_by(3) {
            print!("{:>8.4}", rec.losses[e]);
        }
        println!();
    }

    section("TBS sparsity ramp during training");
    print!("  {:<8}", "sparsity");
    let tbs = &runs[2].1;
    for e in (0..epochs).step_by(5) {
        print!("{:>7.1}%", tbs.sparsities[e] * 100.0);
    }
    println!();

    section("relative per-epoch hardware time (TB-STC accelerates TBS)");
    // The sparse forward/backward of the TBS run executes on TB-STC;
    // the US run cannot (unstructured) and the dense run uses TC. Use the
    // simulator to cost one representative layer pass per epoch.
    let hw = HwConfig::paper_default();
    let shape = tbstc::models::bert_base(128).layers[0].clone();
    let t_dense = {
        let l = LayerSim::new(&shape)
            .arch(Arch::Tc)
            .sparsity(0.0)
            .seed(1)
            .build(&hw);
        simulate_layer(Arch::Tc, &l, &hw).cycles as f64
    };
    let t_tbs = {
        let l = LayerSim::new(&shape)
            .arch(Arch::TbStc)
            .sparsity(0.75)
            .seed(1)
            .build(&hw);
        simulate_layer(Arch::TbStc, &l, &hw).cycles as f64
    };
    let t_us = {
        let l = LayerSim::new(&shape)
            .arch(Arch::RmStc)
            .sparsity(0.75)
            .seed(1)
            .build(&hw);
        simulate_layer(Arch::RmStc, &l, &hw).cycles as f64
    };
    println!(
        "  dense {:.2}  TBS-on-TB-STC {:.2}  US-on-RM-STC {:.2}  (normalized to dense)",
        1.0,
        t_tbs / t_dense,
        t_us / t_dense
    );

    section("paper-vs-measured");
    let dense_final = *runs[0].1.losses.last().expect("losses");
    let tbs_final = *runs[2].1.losses.last().expect("losses");
    paper_vs_measured(
        "TBS − dense final loss (paper: ≈0, 'almost the same loss')",
        0.0,
        tbs_final - dense_final,
    );
    paper_vs_measured(
        "TBS epoch time / US epoch time (paper: <1, TBS trains faster)",
        0.9,
        t_tbs / t_us,
    );
}
