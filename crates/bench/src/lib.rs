//! Shared reporting helpers for the table/figure benchmark harness.
//!
//! Every `benches/*.rs` target regenerates one table or figure of the
//! paper's evaluation section (see DESIGN.md for the index) and prints
//! the same rows/series the paper reports, followed by a
//! paper-vs-measured comparison line for each headline number.

#![warn(missing_docs)]

pub mod loadgen;

/// Prints a banner naming the experiment being regenerated.
pub fn banner(id: &str, title: &str) {
    println!("\n{}", "=".repeat(74));
    println!("{id}: {title}");
    println!("{}", "=".repeat(74));
}

/// Prints a section divider.
pub fn section(title: &str) {
    println!("\n--- {title} ---");
}

/// Prints a paper-vs-measured comparison line. `within` is a free-text
/// note on whether the shape holds.
pub fn paper_vs_measured(claim: &str, paper: f64, measured: f64) {
    let ratio = if paper != 0.0 {
        measured / paper
    } else {
        f64::NAN
    };
    println!(
        "  [paper-vs-measured] {claim}: paper {paper:.3}, measured {measured:.3} (x{ratio:.2} of paper)"
    );
}

/// Geometric mean re-export for the harnesses.
pub use tbstc::experiments::geomean;

use tbstc::prelude::*;
use tbstc::sparsity::PatternKind;

/// The calibrated capacity-bound proxy task used by the accuracy
/// harnesses: a teacher–student dataset (see
/// `Dataset::teacher_student`) whose teacher has 96 hidden units over
/// 128 features.
pub fn proxy_task(classes: usize, seed: u64) -> Dataset {
    Dataset::teacher_student(128, classes, 96, 2048, 2048, seed)
}

/// The student training configuration matched to [`proxy_task`].
pub fn student_config(
    data: &Dataset,
    pattern: PatternKind,
    sparsity: f64,
    seed: u64,
) -> TrainConfig {
    let mut cfg = TrainConfig::new(data, pattern, sparsity, seed);
    cfg.net.hidden = vec![96];
    cfg.epochs = 25;
    cfg
}

#[cfg(test)]
mod tests {
    #[test]
    fn geomean_is_reexported() {
        assert!((super::geomean(&[4.0, 1.0]).unwrap() - 2.0).abs() < 1e-12);
    }
}
