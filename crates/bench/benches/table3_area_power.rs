//! Table III: area and power breakdown of TB-STC at 7 nm / 1 GHz, plus
//! the §VII-C4 A100-integration arithmetic.
//!
//! Paper result: 1.47 mm² / 200.59 mW total; DVPE array 97.28 % of area
//! and 98.57 % of power; integration adds 12.96 mm² = 1.57 % of an A100.

#![allow(
    clippy::unwrap_used,
    clippy::expect_used,
    reason = "a bench aborts on a broken setup; the panic lints guard library code"
)]

use tbstc::energy::table3::{a100_integration_overhead, table3_rows};
use tbstc_bench::{banner, paper_vs_measured, section};

fn main() {
    banner("Table III", "Area and power breakdown of TB-STC");

    println!(
        "  {:<12} {:>10} {:>10} {:>10} {:>10}",
        "Component", "Area(mm2)", "Area %", "Power(mW)", "Power %"
    );
    let rows = table3_rows();
    for r in &rows {
        println!(
            "  {:<12} {:>10.2} {:>9.2}% {:>10.2} {:>9.2}%",
            r.component,
            r.area_mm2,
            r.area_share * 100.0,
            r.power_mw,
            r.power_share * 100.0
        );
    }

    let total = rows.last().expect("total row");
    let dvpe = rows
        .iter()
        .find(|r| r.component == "DVPE Array")
        .expect("dvpe");

    section("integration on an A100 (paper §VII-C4)");
    let (added, frac) = a100_integration_overhead();
    println!(
        "  added units x108 tensor-core equivalents: {added:.2} mm2 = {:.2}% of the 826 mm2 die",
        frac * 100.0
    );

    section("paper-vs-measured");
    paper_vs_measured("total area mm2", 1.47, total.area_mm2);
    paper_vs_measured("total power mW", 200.59, total.power_mw);
    paper_vs_measured("DVPE area share %", 97.28, dvpe.area_share * 100.0);
    paper_vs_measured("DVPE power share %", 98.57, dvpe.power_share * 100.0);
    paper_vs_measured("A100 added area mm2", 12.96, added);
    paper_vs_measured("A100 area fraction %", 1.57, frac * 100.0);
}
