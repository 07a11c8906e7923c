//! Parity between the interpreter's batched plan pricing
//! (`ArchModel::block_works_batch`) and a per-block reference evaluation
//! of the spec written here, over block statistics counted straight off
//! the sampled matrix; plus bit-identity of the [`tbstc_sim::SimOptions`]
//! entry point against the native one.

#![allow(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    reason = "a test fails by panicking, helpers included"
)]

use tbstc_models::LayerShape;
use tbstc_sim::plan::BlockPlan;
use tbstc_sim::sched::BlockWork;
use tbstc_sim::spec::{ArchSpec, Dataflow, SlotTerm};
use tbstc_sim::{Arch, ArchModel, HwConfig, LayerSim, SimOptions, SparseLayer, REGISTRY};

fn shape(name: &str, m: usize, k: usize, n: usize) -> LayerShape {
    LayerShape {
        name: name.into(),
        m,
        k,
        n,
        repeats: 1,
        prunable: true,
    }
}

/// One 8×8 block of the sampled weights, counted element by element.
struct Block {
    row_nnz: [usize; 8],
    nnz: usize,
    nonempty_rows: usize,
    /// Edge-clipped height.
    rows: usize,
    /// Edge-clipped MAC slots.
    dense_slots: usize,
}

/// The layer's blocks in row-major block order.
fn blocks_of(layer: &SparseLayer) -> Vec<Block> {
    let w = layer.sampled();
    let (rows, cols) = w.shape();
    let mut out = Vec::new();
    for br in 0..rows.div_ceil(8) {
        for bc in 0..cols.div_ceil(8) {
            let mut row_nnz = [0usize; 8];
            for (dr, count) in row_nnz.iter_mut().enumerate() {
                *count = (0..8)
                    .filter(|&dc| w.get(br * 8 + dr, bc * 8 + dc).is_some_and(|v| v != 0.0))
                    .count();
            }
            let h = 8.min(rows - br * 8);
            out.push(Block {
                row_nnz,
                nnz: row_nnz.iter().sum(),
                nonempty_rows: row_nnz.iter().filter(|&&c| c > 0).count(),
                rows: h,
                dense_slots: h * 8.min(cols - bc * 8),
            });
        }
    }
    out
}

/// The spec's slot count for one block: `ceil(max(terms) × multiplier /
/// efficiency)`, with unit factors passing the base count through.
fn reference_slots(df: &Dataflow, b: &Block) -> usize {
    let term = |t: &SlotTerm| match *t {
        SlotTerm::Dense => b.dense_slots,
        SlotTerm::Nnz => b.nnz,
        SlotTerm::Lockstep { group } => b
            .row_nnz
            .chunks(group)
            .map(|g| g.len() * g.iter().max().unwrap())
            .sum(),
        SlotTerm::RatioGrouped { width } => {
            let issues: usize = (1..=width)
                .map(|ratio| {
                    let rows = b.row_nnz.iter().filter(|&&c| c == ratio).count();
                    (rows * ratio).div_ceil(width)
                })
                .sum();
            issues * width
        }
    };
    let base = df.terms.iter().map(term).max().unwrap();
    if df.multiplier == 1.0 && df.efficiency == 1.0 {
        base
    } else {
        (base as f64 * df.multiplier / df.efficiency).ceil() as usize
    }
}

/// Prices every block of the layer one at a time from the spec.
fn reference_works(spec: &ArchSpec, layer: &SparseLayer, plan: &BlockPlan) -> Vec<BlockWork> {
    let dense = spec.dataflow.terms.contains(&SlotTerm::Dense);
    blocks_of(layer)
        .iter()
        .zip(plan.independent_dim())
        .map(|(b, &indep)| BlockWork {
            slots: reference_slots(&spec.dataflow, b),
            nonempty_rows: if dense { b.rows } else { b.nonempty_rows },
            independent_dim: indep,
        })
        .collect()
}

/// Every builtin's batched pricing must reproduce the per-block
/// reference, across sparsities, seeds, and ragged shapes whose sampled
/// dimensions are not multiples of the 8×8 block grid.
#[test]
fn batch_pricing_matches_scalar_pricing() {
    let cfg = HwConfig::paper_default();
    let shapes = [
        shape("square", 64, 64, 16),
        shape("ragged-rows", 20, 64, 16),
        shape("ragged-cols", 64, 28, 16),
        shape("ragged-both", 33, 41, 8),
        shape("tiny", 5, 7, 4),
    ];
    for model in REGISTRY.iter() {
        let arch = model.id().builtin().expect("registry entries are builtin");
        for s in &shapes {
            for (i, &target) in [0.0, 0.5, 0.75, 0.9375].iter().enumerate() {
                let layer = LayerSim::new(s)
                    .arch(arch)
                    .sparsity(target)
                    .seed(900 + i as u64)
                    .build(&cfg);
                let plan = BlockPlan::build(&layer);
                assert_eq!(
                    reference_works(model.spec(), &layer, &plan),
                    model.block_works_batch(&plan),
                    "{arch} {} target {target}: batch pricing diverged from the reference",
                    s.name
                );
            }
        }
    }
}

/// Custom specs whose terms mix row shapes with nnz or dense slots and
/// carry overhead factors take the per-block path; it must match the
/// reference too, including the dense-row occupancy of dense terms.
#[test]
fn custom_arch_batch_matches_scalar() {
    let cfg = HwConfig::paper_default();
    let shapes = [
        shape("square", 64, 64, 16),
        shape("ragged-both", 33, 41, 8),
        shape("tiny", 5, 7, 4),
    ];
    let custom = |name: &str, terms: Vec<SlotTerm>| {
        let mut spec = Arch::TbStc.model().spec().clone();
        spec.name = name.into();
        spec.dataflow = Dataflow {
            terms,
            multiplier: 1.07,
            efficiency: 0.9,
        };
        ArchModel::new(spec).expect("mixed spec valid")
    };
    let customs = [
        custom(
            "mixed-terms",
            vec![
                SlotTerm::Nnz,
                SlotTerm::Lockstep { group: 2 },
                SlotTerm::RatioGrouped { width: 4 },
            ],
        ),
        custom(
            "dense-lockstep",
            vec![SlotTerm::Dense, SlotTerm::Lockstep { group: 3 }],
        ),
    ];

    for custom in &customs {
        for s in &shapes {
            for (i, &target) in [0.0, 0.5, 0.9375].iter().enumerate() {
                let layer = LayerSim::new(s)
                    .arch(Arch::TbStc)
                    .sparsity(target)
                    .seed(400 + i as u64)
                    .build(&cfg);
                let plan = BlockPlan::build(&layer);
                assert_eq!(
                    reference_works(custom.spec(), &layer, &plan),
                    custom.block_works_batch(&plan),
                    "{} {} target {target}: batch pricing diverged from the reference",
                    custom.canonical_name(),
                    s.name
                );
            }
        }
    }
}

/// The plan's flat columns must agree with the element-by-element block
/// walk on ragged shapes.
#[test]
fn plan_columns_consistent_on_ragged_shapes() {
    let cfg = HwConfig::paper_default();
    let layer = LayerSim::new(&shape("ragged", 20, 28, 8))
        .arch(Arch::TbStc)
        .sparsity(0.75)
        .seed(77)
        .build(&cfg);
    let plan = BlockPlan::build(&layer);
    let (gr, gc) = plan.grid();
    assert_eq!(plan.len(), gr * gc);
    let blocks = blocks_of(&layer);
    assert_eq!(blocks.len(), plan.len());
    for (i, b) in blocks.iter().enumerate() {
        assert_eq!(plan.row_nnz(i), &b.row_nnz, "block {i}");
        assert_eq!(plan.nnz()[i], b.nnz, "block {i}");
        assert_eq!(plan.nonempty_rows()[i], b.nonempty_rows, "block {i}");
        assert_eq!(plan.block_rows()[i], b.rows, "block {i}");
        assert_eq!(plan.dense_slots()[i], b.dense_slots, "block {i}");
        assert!(b.nnz <= b.dense_slots, "block {i}");
    }
}

/// `simulate_layer` and `simulate_layer_with(&SimOptions::native())` are
/// the same code path; their results must be bit-identical, per
/// architecture, on the golden-fixture shape.
#[test]
fn sim_options_native_is_bit_identical() {
    let cfg = HwConfig::paper_default();
    let s = shape("bert-ish", 128, 128, 64);
    for model in REGISTRY.iter() {
        let arch = model.id().builtin().expect("registry entries are builtin");
        let layer = LayerSim::new(&s)
            .arch(arch)
            .sparsity(0.75)
            .seed(1234)
            .build(&cfg);
        let a = tbstc_sim::simulate_layer(arch, &layer, &cfg);
        let b = tbstc_sim::simulate_layer_with(arch, &layer, &cfg, &SimOptions::native());
        assert_eq!(a.cycles, b.cycles, "{arch}");
        assert_eq!(a.breakdown, b.breakdown, "{arch}");
        assert_eq!(a.useful_macs, b.useful_macs, "{arch}");
        assert_eq!(
            a.compute_utilization.to_bits(),
            b.compute_utilization.to_bits(),
            "{arch}"
        );
        assert_eq!(
            a.bandwidth_utilization.to_bits(),
            b.bandwidth_utilization.to_bits(),
            "{arch}"
        );
        assert_eq!(
            a.traffic_bytes.to_bits(),
            b.traffic_bytes.to_bits(),
            "{arch}"
        );
        assert_eq!(a.energy_pj.to_bits(), b.energy_pj.to_bits(), "{arch}");
    }
}
