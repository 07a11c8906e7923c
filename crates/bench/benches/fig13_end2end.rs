//! Fig. 13: end-to-end speedup and normalized EDP at **iso-accuracy** on
//! ResNet-50, BERT and OPT-6.7B.
//!
//! Unlike Fig. 12, each architecture runs at the highest sparsity its
//! pattern sustains at a common accuracy target, so TBS's accuracy
//! advantage converts into extra speed. Paper result: TB-STC improves
//! speedup by 1.22× / 1.06× and EDP by 1.62× / 1.92× over HighLight and
//! RM-STC.
//!
//! Operating points come from accuracy-vs-sparsity curves measured with
//! the one-shot protocol on synthetic structured models (smooth and
//! deterministic; the retraining curves of tiny proxies are too noisy to
//! select operating points from — see EXPERIMENTS.md).

#![allow(
    clippy::unwrap_used,
    clippy::expect_used,
    reason = "a bench aborts on a broken setup; the panic lints guard library code"
)]

use tbstc::experiments::AccuracyCurve;
use tbstc::prelude::*;
use tbstc::sparsity::criteria::Criterion;
use tbstc::sparsity::PatternKind;
use tbstc::train::oneshot::SyntheticLlm;
use tbstc_bench::{banner, geomean, paper_vs_measured, section};

/// Measures a pattern's one-shot accuracy-vs-sparsity curve on `llm`.
fn curve(llm: &SyntheticLlm, pattern: PatternKind, sparsities: &[f64]) -> AccuracyCurve {
    AccuracyCurve {
        pattern,
        points: sparsities
            .iter()
            .map(|&s| (s, llm.prune_and_eval(pattern, Criterion::Wanda, s)))
            .collect(),
    }
}

/// The iso-accuracy operating sparsity per architecture.
fn operating_points(llm: &SyntheticLlm) -> Vec<(Arch, f64)> {
    let sparsities = [0.4, 0.5, 0.5625, 0.625, 0.6875, 0.75, 0.8125, 0.875];
    // Accuracy target: what the least flexible pattern (STC's fixed 4:8)
    // achieves — the paper anchors every architecture to one accuracy and
    // lets the flexible patterns convert headroom into sparsity.
    let target_acc = curve(llm, PatternKind::TileNm, &sparsities)
        .accuracy_at(0.5)
        .expect("curve has measured points");

    [
        Arch::Stc,
        Arch::Vegeta,
        Arch::Highlight,
        Arch::RmStc,
        Arch::TbStc,
    ]
    .iter()
    .map(|&arch| {
        let s = match arch {
            // STC's hardware pins 4:8.
            Arch::Stc => 0.5,
            _ => curve(llm, arch.native_pattern(), &sparsities)
                .max_sparsity_at_accuracy(target_acc)
                .expect("curve has measured points"),
        };
        (arch, s)
    })
    .collect()
}

fn run_model(
    engine: &SweepRunner,
    name: &str,
    model: ModelSpec,
    llm: &SyntheticLlm,
    seed: u64,
) -> Vec<(Arch, f64, f64)> {
    section(&format!("{name} (iso-accuracy operating points)"));
    let points = operating_points(llm);
    // One batch through the parallel engine: the dense anchor + every
    // architecture at its operating point.
    let jobs: Vec<SimJob> = std::iter::once(SimJob {
        arch: Arch::Tc,
        model,
        sparsity: 0.0,
        seed,
    })
    .chain(points.iter().map(|&(arch, sparsity)| SimJob {
        arch,
        model,
        sparsity,
        seed,
    }))
    .collect();
    let report = engine.run_models(&jobs);
    let dense = &report.results[0];
    let mut out = Vec::new();
    for ((arch, sparsity), res) in points.iter().zip(&report.results[1..]) {
        let speedup = res.speedup_over(dense);
        let edp = res.edp_gain_over(dense);
        println!(
            "  {:<10} sparsity {:>5.1}%  speedup {:>5.2}x  EDP gain {:>5.2}x",
            arch.to_string(),
            sparsity * 100.0,
            speedup,
            edp
        );
        out.push((*arch, speedup, edp));
    }
    out
}

fn main() {
    banner(
        "Fig. 13",
        "End-to-end speedup and normalized EDP at iso-accuracy",
    );

    // Mild lane contrast: pre-trained-model weights spread importance
    // more evenly than the default generator (see EXPERIMENTS.md).
    let runs = [
        (
            "ResNet-50*",
            ModelSpec::ResNet50 { input: 64 },
            SyntheticLlm::with_contrast(256, 256, 32, 4096, 401, 1.25, 0.75),
            401u64,
        ),
        (
            "BERT*",
            ModelSpec::BertBase { tokens: 128 },
            SyntheticLlm::with_contrast(256, 256, 32, 4096, 402, 1.25, 0.75),
            402,
        ),
        (
            "OPT-6.7B*",
            ModelSpec::Opt6_7b { tokens: 128 },
            SyntheticLlm::with_contrast(384, 256, 64, 4096, 403, 1.25, 0.75),
            403,
        ),
    ];

    let engine = SweepRunner::new(HwConfig::paper_default());
    let mut hl_speed = Vec::new();
    let mut hl_edp = Vec::new();
    let mut rm_speed = Vec::new();
    let mut rm_edp = Vec::new();
    for (name, model, llm, seed) in runs {
        let rows = run_model(&engine, name, model, &llm, seed);
        let get = |a: Arch| rows.iter().find(|(x, _, _)| *x == a).expect("arch row");
        let tb = get(Arch::TbStc);
        let hl = get(Arch::Highlight);
        let rm = get(Arch::RmStc);
        hl_speed.push(tb.1 / hl.1);
        hl_edp.push(tb.2 / hl.2);
        rm_speed.push(tb.1 / rm.1);
        rm_edp.push(tb.2 / rm.2);
    }

    section("paper-vs-measured (geomean over models)");
    let gm = |v: &[f64]| geomean(v).expect("ratios are positive");
    paper_vs_measured("speedup vs HighLight", 1.22, gm(&hl_speed));
    paper_vs_measured("speedup vs RM-STC", 1.06, gm(&rm_speed));
    paper_vs_measured("EDP vs HighLight", 1.62, gm(&hl_edp));
    paper_vs_measured("EDP vs RM-STC", 1.92, gm(&rm_edp));
}
