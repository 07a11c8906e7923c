//! Fig. 1: the accuracy–EDP Pareto frontier (BERT on sst-2 in the paper).
//!
//! Each architecture is swept over the sparsity degrees its pattern
//! supports; every (accuracy, EDP) operating point is plotted and the
//! Pareto-efficient set marked. Paper result: TB-STC's points dominate
//! the frontier.

#![allow(
    clippy::unwrap_used,
    clippy::expect_used,
    reason = "a bench aborts on a broken setup; the panic lints guard library code"
)]

use tbstc::experiments::{pareto_frontier, AccuracyCurve, ParetoPoint};
use tbstc::prelude::*;
use tbstc::sparsity::criteria::Criterion;
use tbstc::sparsity::PatternKind;
use tbstc::train::oneshot::SyntheticLlm;
use tbstc_bench::{banner, section};

fn main() {
    banner("Fig. 1", "Accuracy-EDP Pareto frontier (BERT/sst-2 proxy)");
    let model = ModelSpec::BertBase { tokens: 128 };
    let llm = SyntheticLlm::with_contrast(256, 256, 32, 4096, 1401, 1.25, 0.75);
    let engine = SweepRunner::new(HwConfig::paper_default());

    // Accuracy curves per pattern from the one-shot protocol (smooth and
    // deterministic), shared across the architectures that execute that
    // pattern.
    let sparsities = [0.4, 0.5, 0.625, 0.75, 0.875];
    let curve = |pattern: PatternKind| AccuracyCurve {
        pattern,
        points: sparsities
            .iter()
            .map(|&s| (s, llm.prune_and_eval(pattern, Criterion::Wanda, s)))
            .collect(),
    };

    // The whole grid — dense anchor + every (arch, sparsity) operating
    // point — goes through the parallel engine as one batch.
    let mut grid: Vec<SimJob> = vec![SimJob {
        arch: Arch::Tc,
        model,
        sparsity: 0.0,
        seed: 14,
    }];
    for arch in [
        Arch::Stc,
        Arch::Vegeta,
        Arch::Highlight,
        Arch::RmStc,
        Arch::TbStc,
    ] {
        let arch_sparsities: &[f64] = if arch == Arch::Stc {
            &[0.5]
        } else {
            &sparsities
        };
        for &s in arch_sparsities {
            grid.push(SimJob {
                arch,
                model,
                sparsity: s,
                seed: 14,
            });
        }
    }
    let report = engine.run_models(&grid);
    let dense = &report.results[0];

    let mut curves: Vec<(PatternKind, AccuracyCurve)> = Vec::new();
    let mut points = Vec::new();
    for (job, res) in grid[1..].iter().zip(&report.results[1..]) {
        let pattern = job.arch.native_pattern();
        if !curves.iter().any(|(p, _)| *p == pattern) {
            curves.push((pattern, curve(pattern)));
        }
        let c = &curves
            .iter()
            .find(|(p, _)| *p == pattern)
            .expect("cached")
            .1;
        points.push(ParetoPoint {
            arch: job.arch,
            edp: res.edp_point().normalized_edp(&dense.edp_point()),
            accuracy: c
                .accuracy_at(job.sparsity)
                .expect("curve has measured points"),
        });
    }
    // The dense point anchors the top-right.
    points.push(ParetoPoint {
        arch: Arch::Tc,
        edp: 1.0,
        accuracy: llm.dense_accuracy(),
    });

    let frontier = pareto_frontier(&points);

    section("operating points (EDP normalized to dense TC; * = Pareto-efficient)");
    println!("  {:<10} {:>12} {:>12}  ", "arch", "norm. EDP", "accuracy");
    let mut sorted: Vec<usize> = (0..points.len()).collect();
    sorted.sort_by(|&a, &b| points[a].edp.partial_cmp(&points[b].edp).expect("finite"));
    for i in sorted {
        let p = &points[i];
        println!(
            "  {:<10} {:>12.4} {:>11.2}% {}",
            p.arch.to_string(),
            p.edp,
            p.accuracy * 100.0,
            if frontier[i] { "*" } else { "" }
        );
    }

    section("shape check");
    let tb_on_frontier = points
        .iter()
        .zip(&frontier)
        .filter(|(p, &f)| f && p.arch == Arch::TbStc)
        .count();
    let others_on_frontier = points
        .iter()
        .zip(&frontier)
        .filter(|(p, &f)| f && !matches!(p.arch, Arch::TbStc | Arch::Tc))
        .count();
    println!(
        "  TB-STC points on the frontier: {tb_on_frontier}; other sparse architectures: {others_on_frontier}"
    );
    println!("  (paper: TB-STC offers an enhanced accuracy-EDP Pareto frontier)");
}
