//! Fig. 4(b): mask similarity of each N:M pattern with the unstructured
//! mask on ResNet-50-class weights.
//!
//! Paper result: TBS reaches 85.31 % – 91.62 % similarity with US, far
//! above the other N:M patterns.

#![allow(
    clippy::unwrap_used,
    clippy::expect_used,
    reason = "a bench aborts on a broken setup; the panic lints guard library code"
)]

use tbstc::matrix::rng::MatrixRng;
use tbstc::prelude::*;
use tbstc::sparsity::similarity::similarity_sweep;
use tbstc_bench::{banner, paper_vs_measured, section};

fn main() {
    banner("Fig. 4(b)", "Mask similarity with the unstructured pattern");
    let sparsities = [0.5, 0.625, 0.75, 0.875];
    let mut tbs_range: (f64, f64) = (1.0, 0.0);

    println!(
        "  {:<10} {:>8} {:>8} {:>8} {:>8}",
        "sparsity", "TS", "RS-V", "RS-H", "TBS"
    );
    for (i, &s) in sparsities.iter().enumerate() {
        // ResNet-50-like layer shapes.
        let w = MatrixRng::seed_from(500 + i as u64).block_structured_weights(256, 256, 8);
        let rows = similarity_sweep(&w, s);
        let get = |k: PatternKind| rows.iter().find(|r| r.kind == k).expect("row").similarity;
        let tbs = get(PatternKind::Tbs);
        tbs_range.0 = tbs_range.0.min(tbs);
        tbs_range.1 = tbs_range.1.max(tbs);
        println!(
            "  {:<10.3} {:>7.2}% {:>7.2}% {:>7.2}% {:>7.2}%",
            s,
            get(PatternKind::TileNm) * 100.0,
            get(PatternKind::RowWiseVegeta) * 100.0,
            get(PatternKind::RowWiseHighlight) * 100.0,
            tbs * 100.0
        );
    }

    section("paper-vs-measured");
    paper_vs_measured("TBS similarity lower bound %", 85.31, tbs_range.0 * 100.0);
    paper_vs_measured("TBS similarity upper bound %", 91.62, tbs_range.1 * 100.0);
}
