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
//!    through canonical JSON byte-identically, and keeps the simulator's
//!    invariants (property tests).

use proptest::prelude::*;
use proptest::test_runner::TestRng;
use tbstc::archspec::{spec_from_json, spec_to_value};
use tbstc::models::LayerShape;
use tbstc::prelude::*;
use tbstc::sim::compute::SchedulePolicy;
use tbstc::sim::sched::{InterBlockPolicy, IntraBlockPolicy};
use tbstc::sim::{
    simulate_layer_on, ArchModel, ArchSpec, CodecSpec, Dataflow, DatapathKind, DenseInfoPolicy,
    LayerResult, LayerWeights, PruneKey, SimOptions, SlotTerm, REGISTRY,
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

/// Builds a valid spec from bounded random choices — every combination
/// this produces must pass `ArchSpec::validate`.
fn spec_from_choices(rng: &mut TestRng) -> ArchSpec {
    let mut draw = |range: std::ops::Range<u32>| range.sample(rng);
    let name_i = draw(0..50);
    let pattern = match draw(0..6) {
        0 => PatternKind::Dense,
        1 => PatternKind::Unstructured,
        2 => PatternKind::TileNm,
        3 => PatternKind::RowWiseVegeta,
        4 => PatternKind::RowWiseHighlight,
        _ => PatternKind::Tbs,
    };
    let schedule = SchedulePolicy {
        inter: if draw(0..2) == 0 {
            InterBlockPolicy::Direct
        } else {
            InterBlockPolicy::SparsityAware
        },
        intra: if draw(0..2) == 0 {
            IntraBlockPolicy::Naive
        } else {
            IntraBlockPolicy::Balanced
        },
    };
    let hierarchical_scheduling = draw(0..2) != 0;
    let (n_terms, term_kind, group) = (draw(1..4), draw(0..4), draw(1..9) as usize);
    let terms = (0..n_terms)
        .map(|i| match (term_kind + i) % 4 {
            0 => SlotTerm::Dense,
            1 => SlotTerm::Nnz,
            2 => SlotTerm::Lockstep { group },
            _ => SlotTerm::RatioGrouped { width: group },
        })
        .collect();
    let dataflow = Dataflow {
        terms,
        multiplier: 1.0 + f64::from(draw(0..50)) / 4.0,
        efficiency: f64::from(draw(1..101)) / 100.0,
    };
    let row_frontend = draw(0..2) != 0;
    let codec = match draw(0..7) {
        0 => CodecSpec::DenseRows,
        1 => CodecSpec::AlignedNm,
        2 => CodecSpec::GroupedSdc { group },
        3 => CodecSpec::Sdc,
        4 => CodecSpec::Bitmap,
        5 => CodecSpec::DdcOrDense,
        _ => CodecSpec::Csr,
    };
    let dense_info = match draw(0..3) {
        0 => DenseInfoPolicy::Never,
        1 => DenseInfoPolicy::Always,
        _ => DenseInfoPolicy::NonTbsNative,
    };
    let consumes_ddc = draw(0..2) != 0;
    let bw_c = draw(0..5);
    let lanes_c = draw(0..5) as usize;
    let datapath = match draw(0..8) {
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
        schedule,
        hierarchical_scheduling,
        dataflow,
        row_frontend,
        codec,
        dense_info,
        consumes_ddc,
        bandwidth_gbps: (bw_c > 0).then(|| f64::from(bw_c) * 64.0 + 0.5),
        lanes: (lanes_c > 0).then_some(lanes_c * 8),
        datapath,
        mac_energy_multiplier: 1.0 + f64::from(draw(0..20)) / 16.0,
    }
}

/// Any valid spec ([`spec_from_choices`]).
struct AnySpec;

impl Strategy for AnySpec {
    type Value = ArchSpec;

    fn sample(&self, rng: &mut TestRng) -> ArchSpec {
        spec_from_choices(rng)
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// A valid random spec renders to canonical JSON, decodes back to an
    /// equal spec, and re-renders to the exact same bytes.
    #[test]
    fn random_specs_round_trip_byte_identically(spec in AnySpec) {
        prop_assert_eq!(spec.validate(), Ok(()), "generator must only emit valid specs");
        let text = spec_to_value(&spec).to_string();
        let parsed = spec_from_json(&text).expect("canonical rendering must decode");
        prop_assert_eq!(&parsed, &spec);
        prop_assert_eq!(spec_to_value(&parsed).to_string(), text);
    }

    /// The simulator's invariants hold for any valid spec, not only the
    /// builtins, on layers sampled whole and scaled up alike: both
    /// utilizations are ratios, energy is non-negative, the useful MACs
    /// are the sample's non-zeros scaled to the layer times its `n`
    /// columns, and more DRAM bandwidth never costs cycles.
    #[test]
    fn random_specs_keep_the_simulator_invariants(
        spec in AnySpec,
        seed in 0u64..1000,
        m in 1usize..400,
        k in 1usize..400,
        n in 1usize..200,
        sparsity in 0u32..=100,
    ) {
        let model = ArchModel::new(spec).expect("generator must only emit valid specs");
        let shape = LayerShape {
            name: format!("prop-{seed}"),
            m,
            k,
            n,
            repeats: 1,
            prunable: true,
        };
        let key = PruneKey::new(model.native_pattern(), true, f64::from(sparsity) / 100.0);
        let layer = LayerWeights::sample(&shape, seed, &HwConfig::paper_default())
            .prune(key.pattern, key.target);
        let per_sample = (m as f64 * k as f64) / (layer.sm() as f64 * layer.sk() as f64);
        let useful = layer.sampled().count_nonzeros() as f64 * per_sample * n as f64;
        let ctx = format!("{} on {m}x{k}x{n} at {key:?}", model.canonical_name());
        let mut prev = u64::MAX;
        for gbps in [32.0, 64.0, 256.0, 1024.0] {
            let res = simulate_layer_on(
                &model,
                &layer,
                &HwConfig::with_bandwidth_gbps(gbps),
                &SimOptions::native(),
            );
            let ctx = format!("{ctx} at {gbps} GB/s");
            prop_assert!((0.0..=1.0).contains(&res.compute_utilization), "{ctx}: {res:?}");
            prop_assert!((0.0..=1.0).contains(&res.bandwidth_utilization), "{ctx}: {res:?}");
            prop_assert!(res.energy_pj >= 0.0, "{ctx}: {res:?}");
            prop_assert!(
                (res.useful_macs as f64 - useful).abs() <= 1.0 + useful * 1e-12,
                "{ctx}: {} useful MACs, not {useful}",
                res.useful_macs
            );
            prop_assert!(res.cycles <= prev, "{ctx}: {} cycles after {prev}", res.cycles);
            prev = res.cycles;
        }
    }
}
