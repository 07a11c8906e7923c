//! Fig. 4(c): the relationship between mask-space (Eqs. 1–4) and model
//! accuracy.
//!
//! Paper result: with X = Y and M = 8, the mask-space ordering is
//! TS < RS < TBS < US, and accuracy rises with mask-space — TBS reaches
//! near-US accuracy at a much smaller mask-space.

#![allow(
    clippy::unwrap_used,
    clippy::expect_used,
    reason = "a bench aborts on a broken setup; the panic lints guard library code"
)]

use tbstc::sparsity::mask_space::mask_space_row;
use tbstc::sparsity::PatternKind;
use tbstc::train::sparse::accuracy_table;
use tbstc_bench::{banner, section};

fn main() {
    banner("Fig. 4(c)", "Mask-space (log2, Eqs. 1-4) vs model accuracy");

    section("mask-space for X = Y, M = 8 (log2 of mask count)");
    println!(
        "  {:<8} {:>14} {:>14} {:>14} {:>14} {:>14}",
        "X=Y", "TS", "RS-V", "RS-H", "TBS", "US"
    );
    for &dim in &[64u64, 128, 256, 512, 1024] {
        let row = mask_space_row(dim, dim, 8);
        println!(
            "  {:<8} {:>14.0} {:>14.0} {:>14.0} {:>14.0} {:>14.0}",
            dim, row.ts, row.rs_v, row.rs_h, row.tbs, row.us
        );
    }

    section("accuracy at 75% sparsity vs per-element mask-space (ResNet proxy)");
    let data = tbstc_bench::proxy_task(12, 601);
    let accs = accuracy_table(&data, 0.75, 3);
    let ms = mask_space_row(128, 128, 8);
    let per_elem = |log2ms: f64| log2ms / (128.0 * 128.0);
    let pairs = [
        (PatternKind::TileNm, per_elem(ms.ts)),
        (PatternKind::RowWiseVegeta, per_elem(ms.rs_v)),
        (PatternKind::RowWiseHighlight, per_elem(ms.rs_h)),
        (PatternKind::Tbs, per_elem(ms.tbs)),
        (PatternKind::Unstructured, per_elem(ms.us)),
    ];
    println!(
        "  {:<8} {:>18} {:>10}",
        "pattern", "MS bits/element", "accuracy"
    );
    for (kind, bits) in pairs {
        let acc = accs.iter().find(|(k, _)| *k == kind).expect("acc").1;
        println!(
            "  {:<8} {:>18.4} {:>9.2}%",
            kind.to_string(),
            bits,
            acc * 100.0
        );
    }
    println!("\n  shape check: accuracy should rise with mask-space, with TBS");
    println!("  approaching US accuracy at a fraction of US's mask-space.");
}
