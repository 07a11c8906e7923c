//! Two facts about HighLight's paper configuration that decide Fig. 12 and
//! Table I, pinned so that a change to its density ladder or tie-break
//! shows up as a deliberate diff.
//!
//! `RowWiseHighlight::paper_default` (G = 2 tiles, N ∈ {1, 2, 4, 8} of
//! M = 8) picks the achievable density nearest the target, breaking ties
//! toward the denser configuration and then toward more tiles:
//!
//! * at 50, 75 and 87.5 % it keeps both tiles, so RS-H projects exactly
//!   the N:8 tile mask (TS) at those targets;
//! * 62.5 % is not on the ladder, and the tie between 50 % and 75 % goes
//!   to the denser side: it prunes to 50 %.

use tbstc_matrix::rng::MatrixRng;
use tbstc_sparsity::pattern::{RowWiseHighlight, TileNm};
use tbstc_sparsity::Pattern;

const SEEDS: std::ops::Range<u64> = 0..8;

fn sample(seed: u64) -> tbstc_matrix::Matrix {
    MatrixRng::seed_from(seed).block_structured_weights(128, 128, 8)
}

#[test]
fn highlight_equals_tile_nm_at_the_paper_targets() {
    let hl = RowWiseHighlight::paper_default();
    let ts = TileNm::for_target(8);
    for seed in SEEDS {
        let w = sample(seed);
        for target in [0.5, 0.75, 0.875] {
            assert_eq!(
                hl.project(&w, target),
                ts.project(&w, target),
                "seed {seed} at {target}"
            );
        }
    }
}

#[test]
fn highlight_prunes_to_half_when_asked_for_five_eighths() {
    let hl = RowWiseHighlight::paper_default();
    for seed in SEEDS {
        let mask = hl.project(&sample(seed), 0.625);
        assert_eq!(mask.sparsity(), 0.5, "seed {seed}");
    }
}
