//! Spec-driven architecture parity.
//!
//! Two guarantees:
//!
//! 1. Every registry builtin renders to a byte-canonical `tbstc.v1`
//!    document that parses back to its spec, and a fresh model built
//!    from that document reproduces the registry model's
//!    [`LayerResult`]s **bit-identically** over the grid the sim crate's
//!    golden fixture pins (8 archs × sparsities {0.5, 0.75, 0.9375} ×
//!    two model layers, seed 1234). This is what lets a user fetch a
//!    builtin from `GET /v1/archs` (or `tbstc-cli arch show`), tweak it,
//!    and resubmit it as an inline spec.
//! 2. Any *valid* spec — not just the builtin eight — round-trips
//!    through canonical JSON byte-identically (property test).

use proptest::prelude::*;
use tbstc::archspec::{spec_from_json, spec_to_value};
use tbstc::models::LayerShape;
use tbstc::prelude::*;
use tbstc::sim::compute::SchedulePolicy;
use tbstc::sim::sched::{InterBlockPolicy, IntraBlockPolicy};
use tbstc::sim::{
    simulate_layer_on, ArchModel, ArchSpec, CodecSpec, Dataflow, DatapathKind, DenseInfoPolicy,
    LayerResult, SimOptions, SlotTerm, REGISTRY,
};

const SEED: u64 = 1234;
const SPARSITIES: [f64; 3] = [0.5, 0.75, 0.9375];

fn fixture_layers() -> Vec<LayerShape> {
    vec![
        bert_base(128).layers[0].clone(), // attn.q: 768 x 768 x 128
        resnet50(64).layers[3].clone(),   // conv2 3x3: 64 x 576 x 256
    ]
}

/// Bit-exact comparison of every `LayerResult` field except the arch id
/// (which is `Builtin` in the registry and `Custom` for a resubmitted
/// document, but must agree on the canonical name).
fn assert_bit_identical(native: &LayerResult, custom: &LayerResult, ctx: &str) {
    assert_eq!(
        native.arch.canonical_name(),
        custom.arch.canonical_name(),
        "{ctx}: arch name"
    );
    assert_eq!(native.name, custom.name, "{ctx}: layer name");
    assert_eq!(native.cycles, custom.cycles, "{ctx}: cycles");
    assert_eq!(
        native.breakdown.compute, custom.breakdown.compute,
        "{ctx}: compute"
    );
    assert_eq!(
        native.breakdown.memory, custom.breakdown.memory,
        "{ctx}: memory"
    );
    assert_eq!(
        native.breakdown.codec_hidden, custom.breakdown.codec_hidden,
        "{ctx}: codec_hidden"
    );
    assert_eq!(
        native.breakdown.codec_exposed, custom.breakdown.codec_exposed,
        "{ctx}: codec_exposed"
    );
    assert_eq!(native.useful_macs, custom.useful_macs, "{ctx}: useful_macs");
    let bits = [
        (
            "compute_utilization",
            native.compute_utilization,
            custom.compute_utilization,
        ),
        (
            "bandwidth_utilization",
            native.bandwidth_utilization,
            custom.bandwidth_utilization,
        ),
        ("traffic_bytes", native.traffic_bytes, custom.traffic_bytes),
        ("energy_pj", native.energy_pj, custom.energy_pj),
    ];
    for (field, a, b) in bits {
        assert_eq!(a.to_bits(), b.to_bits(), "{ctx}: {field} {a:e} vs {b:e}");
    }
}

#[test]
fn interpreted_specs_are_bit_identical_to_native() {
    let cfg = HwConfig::paper_default();
    let opts = SimOptions::native();
    for native in REGISTRY.iter() {
        let name = native.canonical_name();
        let arch = native.id().builtin().expect("registry entries are builtin");
        let text = spec_to_value(native.spec()).to_string();
        let spec = spec_from_json(&text).unwrap_or_else(|e| panic!("{name}: {e}"));
        assert_eq!(&spec, native.spec(), "{name}: rendering lost information");
        assert_eq!(
            spec_to_value(&spec).to_string(),
            text,
            "{name}: rendering is not canonical"
        );
        let custom = ArchModel::new(spec).unwrap_or_else(|e| panic!("{name}: {e}"));
        assert_eq!(custom.id().builtin(), None, "{name}: resubmitted as custom");
        for shape in fixture_layers() {
            for sparsity in SPARSITIES {
                let layer = LayerSim::new(&shape)
                    .arch(arch)
                    .sparsity(sparsity)
                    .seed(SEED)
                    .build(&cfg);
                let a = simulate_layer_on(native, &layer, &cfg, &opts);
                let b = simulate_layer_on(&custom, &layer, &cfg, &opts);
                let ctx = format!("{name} sparsity={sparsity} layer={}", shape.name);
                assert_bit_identical(&a, &b, &ctx);
            }
        }
    }
}

/// Builds a valid spec from bounded integer choices — every combination
/// this produces must pass `ArchSpec::validate`.
#[allow(
    clippy::too_many_arguments,
    reason = "one parameter per proptest choice"
)]
fn spec_from_choices(
    name_i: usize,
    pattern_i: usize,
    inter_i: usize,
    intra_i: usize,
    hier: usize,
    n_terms: usize,
    term_kind: usize,
    group: usize,
    mult_c: u32,
    eff_c: u32,
    row_frontend: usize,
    codec_i: usize,
    dense_info_i: usize,
    consumes: usize,
    bw_c: u32,
    lanes_c: usize,
    datapath_i: usize,
    mac_c: u32,
) -> ArchSpec {
    let pattern = match pattern_i {
        0 => PatternKind::Dense,
        1 => PatternKind::Unstructured,
        2 => PatternKind::TileNm,
        3 => PatternKind::RowWiseVegeta,
        4 => PatternKind::RowWiseHighlight,
        _ => PatternKind::Tbs,
    };
    let terms = (0..n_terms)
        .map(|i| match (term_kind + i) % 4 {
            0 => SlotTerm::Dense,
            1 => SlotTerm::Nnz,
            2 => SlotTerm::Lockstep { group },
            _ => SlotTerm::RatioGrouped { width: group },
        })
        .collect();
    let codec = match codec_i {
        0 => CodecSpec::DenseRows,
        1 => CodecSpec::AlignedNm,
        2 => CodecSpec::GroupedSdc { group },
        3 => CodecSpec::Sdc,
        4 => CodecSpec::Bitmap,
        5 => CodecSpec::DdcOrDense,
        _ => CodecSpec::Csr,
    };
    let datapath = match datapath_i {
        0 => DatapathKind::TensorCore,
        1 => DatapathKind::NvidiaStc,
        2 => DatapathKind::Vegeta,
        3 => DatapathKind::Highlight,
        4 => DatapathKind::RmStc,
        5 => DatapathKind::TbStc,
        6 => DatapathKind::DvpeWithFan,
        _ => DatapathKind::Sgcn,
    };
    ArchSpec {
        name: format!("arch-{name_i}"),
        display: format!("Arch {name_i}"),
        summary: "property-generated spec".into(),
        pattern,
        schedule: SchedulePolicy {
            inter: if inter_i == 0 {
                InterBlockPolicy::Direct
            } else {
                InterBlockPolicy::SparsityAware
            },
            intra: if intra_i == 0 {
                IntraBlockPolicy::Naive
            } else {
                IntraBlockPolicy::Balanced
            },
        },
        hierarchical_scheduling: hier != 0,
        dataflow: Dataflow {
            terms,
            multiplier: 1.0 + f64::from(mult_c) / 4.0,
            efficiency: f64::from(eff_c) / 100.0,
        },
        row_frontend: row_frontend != 0,
        codec,
        dense_info: match dense_info_i {
            0 => DenseInfoPolicy::Never,
            1 => DenseInfoPolicy::Always,
            _ => DenseInfoPolicy::NonTbsNative,
        },
        consumes_ddc: consumes != 0,
        bandwidth_gbps: (bw_c > 0).then(|| f64::from(bw_c) * 64.0 + 0.5),
        lanes: (lanes_c > 0).then_some(lanes_c * 8),
        datapath,
        mac_energy_multiplier: 1.0 + f64::from(mac_c) / 16.0,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// A valid random spec renders to canonical JSON, decodes back to an
    /// equal spec, and re-renders to the exact same bytes.
    #[test]
    fn random_specs_round_trip_byte_identically(
        name_i in 0usize..50,
        pattern_i in 0usize..6,
        inter_i in 0usize..2,
        intra_i in 0usize..2,
        hier in 0usize..2,
        n_terms in 1usize..4,
        term_kind in 0usize..4,
        group in 1usize..9,
        mult_c in 0u32..50,
        eff_c in 1u32..101,
        row_frontend in 0usize..2,
        codec_i in 0usize..7,
        dense_info_i in 0usize..3,
        consumes in 0usize..2,
        bw_c in 0u32..5,
        lanes_c in 0usize..5,
        datapath_i in 0usize..8,
        mac_c in 0u32..20,
    ) {
        let spec = spec_from_choices(
            name_i, pattern_i, inter_i, intra_i, hier, n_terms, term_kind, group,
            mult_c, eff_c, row_frontend, codec_i, dense_info_i, consumes, bw_c,
            lanes_c, datapath_i, mac_c,
        );
        prop_assert_eq!(spec.validate(), Ok(()), "generator must only emit valid specs");
        let text = spec_to_value(&spec).to_string();
        let parsed = spec_from_json(&text).expect("canonical rendering must decode");
        prop_assert_eq!(&parsed, &spec);
        prop_assert_eq!(spec_to_value(&parsed).to_string(), text);
    }
}
