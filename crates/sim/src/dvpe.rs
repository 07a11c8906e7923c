//! Functional model of the Diverse Vector PE (paper §VI-A1, Fig. 10(a)
//! and Fig. 11(c,d)).
//!
//! The analytical compute model in [`crate::compute`] only counts cycles;
//! this module *executes* a DVPE cycle by cycle so the intra-block
//! mapping can be validated numerically:
//!
//! * 8 FP16 **multiplier lanes** take `(a, b)` operand pairs, each tagged
//!   with the output row its product belongs to,
//! * the **reduction nodes** form a binary tree whose nodes either
//!   *accumulate* (children belong to the same output row) or *transmit*
//!   (row boundary crosses the node) — the configurable `R` nodes of
//!   Fig. 10(a),
//! * the **alternate unit** buffers partial sums whose rows continue in a
//!   later issue and merges them with the next partial result
//!   (Fig. 10(a): "balances the number of output elements by buffering").
//!
//! [`pack_issues`] implements the intra-block sparsity-aware mapping of
//! Fig. 11(c): the concatenated elements of different rows fill all 8
//! lanes of each issue, so a block costs `ceil(nnz / 8)` issues instead
//! of one per non-empty row.

use std::collections::BTreeMap;

use tbstc_matrix::F16;

/// One operand pair on one multiplier lane, tagged with its output row.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LaneOp {
    /// Weight (matrix A) value.
    pub a: f32,
    /// Activation (matrix B) value the MBD unit selected.
    pub b: f32,
    /// Output row within the block this product accumulates into.
    pub row: usize,
}

/// One SIMD issue: up to `width` lane operations, sorted by row (the
/// mapping concatenates row segments, Fig. 11(c)).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct DvpeIssue {
    /// The occupied lanes in order.
    pub lanes: Vec<LaneOp>,
}

/// Execution statistics of one block.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct DvpeTrace {
    /// Multiply issues executed.
    pub issues: u64,
    /// Reduction-node accumulate operations performed.
    pub accumulates: u64,
    /// Partial sums the alternate unit had to buffer across issues.
    pub alternate_merges: u64,
    /// Peak occupancy of the alternate unit's buffer.
    pub peak_buffered: usize,
}

/// The functional DVPE.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Dvpe {
    width: usize,
    fp16: bool,
}

impl Dvpe {
    /// The paper's DVPE: 8 lanes, fp16 datapath.
    pub fn paper_default() -> Self {
        Dvpe {
            width: 8,
            fp16: true,
        }
    }

    /// A DVPE with exact f32 arithmetic (for golden-model comparison).
    pub fn exact(width: usize) -> Self {
        assert!(width > 0, "need at least one lane");
        Dvpe { width, fp16: false }
    }

    /// Lane count.
    pub fn width(&self) -> usize {
        self.width
    }

    fn round(&self, x: f32) -> f32 {
        if self.fp16 {
            F16::round_trip(x)
        } else {
            x
        }
    }

    /// Executes a block's issue stream and returns `(row, dot-product)`
    /// pairs in row order plus the cycle-level trace.
    ///
    /// # Panics
    ///
    /// Panics when an issue uses more lanes than the DVPE has, or lanes
    /// within an issue are not grouped by row (the segmented reduction
    /// tree requires contiguous row segments).
    pub fn execute(&self, issues: &[DvpeIssue]) -> (Vec<(usize, f32)>, DvpeTrace) {
        let mut trace = DvpeTrace::default();
        // Alternate-unit buffer: row -> partial sum awaiting more elements.
        let mut pending: BTreeMap<usize, f32> = BTreeMap::new();
        let mut finished: BTreeMap<usize, f32> = BTreeMap::new();

        for issue in issues {
            assert!(
                issue.lanes.len() <= self.width,
                "issue uses {} lanes on a {}-wide DVPE",
                issue.lanes.len(),
                self.width
            );
            assert!(
                issue.lanes.windows(2).all(|w| w[0].row <= w[1].row),
                "lanes must be grouped by row for the segmented reduction tree"
            );
            trace.issues += 1;

            // Multipliers then the segmented reduction tree: contiguous
            // same-row lanes accumulate; boundaries transmit.
            let mut segment_row: Option<usize> = None;
            let mut segment_sum = 0.0f32;
            let emit = |row: usize,
                        sum: f32,
                        pending: &mut BTreeMap<usize, f32>,
                        trace: &mut DvpeTrace,
                        rounder: &dyn Fn(f32) -> f32| {
                // The alternate unit merges with any buffered partial.
                if let Some(prev) = pending.remove(&row) {
                    trace.alternate_merges += 1;
                    pending.insert(row, rounder(prev + sum));
                } else {
                    pending.insert(row, sum);
                }
            };
            for lane in &issue.lanes {
                let product = self.round(lane.a * lane.b);
                match segment_row {
                    Some(r) if r == lane.row => {
                        segment_sum = self.round(segment_sum + product);
                        trace.accumulates += 1;
                    }
                    Some(r) => {
                        emit(r, segment_sum, &mut pending, &mut trace, &|x| self.round(x));
                        segment_row = Some(lane.row);
                        segment_sum = product;
                    }
                    None => {
                        segment_row = Some(lane.row);
                        segment_sum = product;
                    }
                }
            }
            if let Some(r) = segment_row {
                emit(r, segment_sum, &mut pending, &mut trace, &|x| self.round(x));
            }
            trace.peak_buffered = trace.peak_buffered.max(pending.len());
        }

        // Drain: every buffered row is final once the stream ends.
        finished.append(&mut pending);
        (finished.into_iter().collect(), trace)
    }
}

/// Packs a computation-format element stream into DVPE issues — the
/// intra-block sparsity-aware mapping of Fig. 11(c): elements of
/// different rows are concatenated so every issue fills up to `width`
/// lanes.
///
/// `elements` must be grouped by row (the codec's computation format
/// already is, up to its merge tail, which this function re-sorts).
pub fn pack_issues(mut elements: Vec<LaneOp>, width: usize) -> Vec<DvpeIssue> {
    assert!(width > 0, "need at least one lane");
    elements.sort_by_key(|e| e.row);
    elements
        .chunks(width)
        .map(|c| DvpeIssue { lanes: c.to_vec() })
        .collect()
}

/// The naive mapping of Fig. 11(c): one issue per non-empty row,
/// regardless of how few lanes the row fills.
pub fn pack_issues_naive(mut elements: Vec<LaneOp>, width: usize) -> Vec<DvpeIssue> {
    assert!(width > 0, "need at least one lane");
    elements.sort_by_key(|e| e.row);
    let mut issues = Vec::new();
    let mut i = 0;
    while i < elements.len() {
        let row = elements[i].row;
        let mut lanes = Vec::new();
        while i < elements.len() && elements[i].row == row && lanes.len() < width {
            lanes.push(elements[i]);
            i += 1;
        }
        issues.push(DvpeIssue { lanes });
    }
    issues
}

#[cfg(test)]
mod tests {
    use super::*;
    use tbstc_matrix::rng::MatrixRng;

    fn ops_from_block(seed: u64, sparsity: f64) -> (Vec<LaneOp>, Vec<f32>) {
        // An 8×8 block with per-element B values; golden row sums.
        let mut rng = MatrixRng::seed_from(seed);
        let a = rng.sparse_gaussian(8, 8, sparsity, 1.0);
        let b = rng.uniform(8, 1, -1.0, 1.0);
        let mut ops = Vec::new();
        let mut golden = vec![0.0f32; 8];
        for r in 0..8 {
            for c in 0..8 {
                if a[(r, c)] != 0.0 {
                    ops.push(LaneOp {
                        a: a[(r, c)],
                        b: b[(c, 0)],
                        row: r,
                    });
                    golden[r] += a[(r, c)] * b[(c, 0)];
                }
            }
        }
        (ops, golden)
    }

    #[test]
    fn exact_dvpe_matches_golden_row_sums() {
        let (ops, golden) = ops_from_block(1, 0.5);
        let dvpe = Dvpe::exact(8);
        let issues = pack_issues(ops, 8);
        let (out, _) = dvpe.execute(&issues);
        for (row, sum) in out {
            assert!(
                (sum - golden[row]).abs() < 1e-5,
                "row {row}: {sum} vs {}",
                golden[row]
            );
        }
    }

    #[test]
    fn fp16_dvpe_close_to_golden() {
        let (ops, golden) = ops_from_block(2, 0.5);
        let dvpe = Dvpe::paper_default();
        let (out, _) = dvpe.execute(&pack_issues(ops, 8));
        for (row, sum) in out {
            assert!((sum - golden[row]).abs() < 0.02, "row {row}");
        }
    }

    #[test]
    fn balanced_mapping_uses_fewer_issues_than_naive() {
        // Fig. 11(c): rows {4,1,2,1} = 8 elements. Balanced: 1 issue;
        // naive: 4.
        let mut ops = Vec::new();
        for (row, count) in [(0usize, 4usize), (1, 1), (2, 2), (3, 1)] {
            for i in 0..count {
                ops.push(LaneOp {
                    a: 1.0,
                    b: (i + 1) as f32,
                    row,
                });
            }
        }
        let balanced = pack_issues(ops.clone(), 8);
        let naive = pack_issues_naive(ops, 8);
        assert_eq!(balanced.len(), 1);
        assert_eq!(naive.len(), 4);
    }

    #[test]
    fn both_mappings_compute_identical_results() {
        let (ops, _) = ops_from_block(3, 0.6);
        let dvpe = Dvpe::exact(8);
        let (a, _) = dvpe.execute(&pack_issues(ops.clone(), 8));
        let (b, _) = dvpe.execute(&pack_issues_naive(ops, 8));
        assert_eq!(a, b);
    }

    #[test]
    fn alternate_unit_merges_split_rows() {
        // A row with 12 elements spans two issues; the alternate unit must
        // merge the partial sums (the Fig. 11(d) R0-accumulate case).
        let ops: Vec<LaneOp> = (0..12)
            .map(|i| LaneOp {
                a: 1.0,
                b: (i + 1) as f32,
                row: 0,
            })
            .collect();
        let dvpe = Dvpe::exact(8);
        let (out, trace) = dvpe.execute(&pack_issues(ops, 8));
        assert_eq!(out, vec![(0, 78.0)]); // 1+2+..+12
        assert!(trace.alternate_merges >= 1);
        assert_eq!(trace.issues, 2);
    }

    #[test]
    fn fig11d_example_timing() {
        // Fig. 11(d): an independent-dimension block whose 8 elements map
        // to rows {0,0,0,0,0,1,1,1} plus a trailing element of row 0 from
        // the merged mapping — one concatenated issue computes both
        // D(0,0) and D(1,0) partial results in the same pass.
        let ops = vec![
            LaneOp {
                a: 1.0,
                b: 2.0,
                row: 0,
            },
            LaneOp {
                a: 3.0,
                b: 1.0,
                row: 0,
            },
            LaneOp {
                a: 2.0,
                b: 2.0,
                row: 0,
            },
            LaneOp {
                a: 1.0,
                b: 1.0,
                row: 1,
            },
        ];
        let dvpe = Dvpe::exact(8);
        let (out, trace) = dvpe.execute(&pack_issues(ops, 8));
        assert_eq!(trace.issues, 1, "one concatenated issue");
        assert_eq!(out, vec![(0, 9.0), (1, 1.0)]);
        // Two accumulates inside row 0's segment; the row-1 boundary is a
        // transmit (not counted as accumulate).
        assert_eq!(trace.accumulates, 2);
    }

    #[test]
    #[should_panic(expected = "grouped by row")]
    fn ungrouped_lanes_rejected() {
        let issue = DvpeIssue {
            lanes: vec![
                LaneOp {
                    a: 1.0,
                    b: 1.0,
                    row: 1,
                },
                LaneOp {
                    a: 1.0,
                    b: 1.0,
                    row: 0,
                },
            ],
        };
        let _ = Dvpe::exact(8).execute(&[issue]);
    }

    #[test]
    #[should_panic(expected = "lanes on a")]
    fn overwide_issue_rejected() {
        let issue = DvpeIssue {
            lanes: (0..9)
                .map(|_| LaneOp {
                    a: 1.0,
                    b: 1.0,
                    row: 0,
                })
                .collect(),
        };
        let _ = Dvpe::exact(8).execute(&[issue]);
    }

    #[test]
    fn empty_stream_is_empty() {
        let (out, trace) = Dvpe::paper_default().execute(&[]);
        assert!(out.is_empty());
        assert_eq!(trace.issues, 0);
    }

    proptest::proptest! {
        #[test]
        fn issue_counts_match_the_analytical_intra_block_model(
            seed in 0u64..1000,
            width in 1usize..=8,
            empty_pct in 0usize..100,
        ) {
            // A random 8 × 8 independent-dimension block with at most
            // `width` elements per computation row, its elements in a
            // random order: the balanced packer issues what
            // `intra_block_cycles` charges under `Balanced`, and the naive
            // one what it charges under `Naive`.
            use crate::sched::{intra_block_cycles, BlockWork, IntraBlockPolicy};
            let mut rng = MatrixRng::seed_from(seed);
            let mut ops = Vec::new();
            let mut nonempty_rows = 0;
            for row in 0..8 {
                let count = if rng.index(100) < empty_pct { 0 } else { 1 + rng.index(width) };
                nonempty_rows += usize::from(count > 0);
                ops.extend((0..count).map(|_| LaneOp {
                    a: rng.standard_normal(),
                    b: rng.standard_normal(),
                    row,
                }));
            }
            for i in (1..ops.len()).rev() {
                ops.swap(i, rng.index(i + 1));
            }
            let work = BlockWork {
                slots: ops.len(),
                nonempty_rows,
                independent_dim: true,
            };
            let balanced = pack_issues(ops.clone(), width);
            let naive = pack_issues_naive(ops, width);
            proptest::prop_assert_eq!(
                balanced.len() as u64,
                intra_block_cycles(&work, IntraBlockPolicy::Balanced, width),
                "{:?}", work
            );
            proptest::prop_assert_eq!(
                naive.len() as u64,
                intra_block_cycles(&work, IntraBlockPolicy::Naive, width),
                "{:?}", work
            );
        }
    }
}
