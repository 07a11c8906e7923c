//! Table II: one-shot pruning accuracy (OPT-6.7B / Llama2-7B protocol).
//!
//! Paper protocol: prune a trained model in one shot with Wanda and
//! SparseGPT at 50 % sparsity under each pattern, no fine-tuning. Paper
//! result: TBS improves average accuracy by 2.58 pts over TS and narrows
//! the US-vs-structured gap from 2.58–3.24 pts to 0.66 pts.

#![allow(
    clippy::unwrap_used,
    clippy::expect_used,
    reason = "a bench aborts on a broken setup; the panic lints guard library code"
)]

use tbstc::sparsity::PatternKind;
use tbstc::train::oneshot::SyntheticLlm;
use tbstc_bench::{banner, paper_vs_measured, section};

fn main() {
    banner(
        "Table II",
        "One-shot pruning accuracy at 50% (LLM-proxy teachers; see DESIGN.md substitutions)",
    );

    // Two synthetic "pre-trained LLMs" standing in for OPT-6.7B and
    // Llama2-7B: MLPs with block-structured weights (the local structure
    // real trained models exhibit, Fig. 17), evaluated by agreement with
    // their own dense outputs — the analogue of perplexity against the
    // original model (see DESIGN.md substitutions).
    let tasks = [
        ("opt-6.7b*", SyntheticLlm::new(256, 256, 32, 2048, 201)),
        ("llama2-7b*", SyntheticLlm::new(384, 256, 64, 2048, 202)),
    ];

    let mut sums: Vec<(PatternKind, f64, usize)> =
        PatternKind::SPARSE.iter().map(|&k| (k, 0.0, 0)).collect();
    let mut dense_sum = 0.0;

    for (name, llm) in &tasks {
        section(name);
        let dense = llm.dense_accuracy();
        dense_sum += dense;
        println!(
            "  {:<8} Wanda {:>6.2}  SparseGPT {:>6.2}",
            "Dense",
            dense * 100.0,
            dense * 100.0
        );
        for row in llm.one_shot_table(0.5) {
            println!(
                "  {:<8} Wanda {:>6.2}  SparseGPT {:>6.2}",
                row.pattern.to_string(),
                row.wanda * 100.0,
                row.sparsegpt * 100.0
            );
            let e = sums.iter_mut().find(|(k, _, _)| *k == row.pattern).unwrap();
            e.1 += row.wanda + row.sparsegpt;
            e.2 += 2;
        }
    }

    section("averages (paper Table II last column)");
    let avg = |k: PatternKind| {
        let e = sums.iter().find(|(p, _, _)| *p == k).unwrap();
        e.1 / e.2 as f64 * 100.0
    };
    let us = avg(PatternKind::Unstructured);
    println!(
        "  {:<8} {:>7.2}",
        "Dense",
        dense_sum / tasks.len() as f64 * 100.0
    );
    for &k in &PatternKind::SPARSE {
        println!(
            "  {:<8} {:>7.2}  (Δ vs US {:+.2})",
            k.to_string(),
            avg(k),
            avg(k) - us
        );
    }

    section("paper-vs-measured");
    paper_vs_measured(
        "TBS − TS gain (pts, paper 2.58)",
        2.58,
        avg(PatternKind::Tbs) - avg(PatternKind::TileNm),
    );
    paper_vs_measured(
        "US − TBS gap (pts, paper 0.66)",
        0.66,
        us - avg(PatternKind::Tbs),
    );
    paper_vs_measured(
        "US − TS gap (pts, paper 3.24)",
        3.24,
        us - avg(PatternKind::TileNm),
    );
}
