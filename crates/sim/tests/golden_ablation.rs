//! Golden ablation fixture: every [`LayerResult`] field, bit-identical,
//! for the weight-stream paths the native fixture (`golden_parity`) does
//! not reach.
//!
//! `tests/fixtures/golden_ablation_results.txt` covers
//!
//! * the storage-format overrides `Sdc`, `Csr` and `Int8` on all 8
//!   architectures (the Fig. 16(a) codec ablation and the Fig. 15(b)
//!   quantization study), and
//! * TB-STC at TBS block sizes M ∈ {4, 16, 32} (the Fig. 15(a) sweep), under
//!   the native format and each override,
//!
//! at sparsities {0.5, 0.75, 0.9375} on BERT attn.q, ResNet-50 conv2 3x3
//! and a ragged layer whose sampled shape is not a multiple of 8.
//! Floating-point fields are stored as raw IEEE-754 bits.
//!
//! Regenerate (only when a behaviour change is intended and reviewed):
//!
//! ```sh
//! TBSTC_BLESS=1 cargo test -p tbstc-sim --test golden_ablation
//! ```

use tbstc_models::{bert_base, resnet50, LayerShape};
use tbstc_sim::memory::FormatOverride;
use tbstc_sim::{simulate_layer_with, Arch, HwConfig, LayerResult, LayerSim, SimOptions};
use tbstc_sparsity::TbsConfig;

const FIXTURE_REL: &str = "tests/fixtures/golden_ablation_results.txt";
const SEED: u64 = 1234;
const SPARSITIES: [f64; 3] = [0.5, 0.75, 0.9375];
const OVERRIDES: [FormatOverride; 3] = [
    FormatOverride::Sdc,
    FormatOverride::Csr,
    FormatOverride::Int8,
];
const FORMATS: [FormatOverride; 4] = [
    FormatOverride::Native,
    FormatOverride::Sdc,
    FormatOverride::Csr,
    FormatOverride::Int8,
];
const BLOCK_SIZES: [usize; 3] = [4, 16, 32];

fn fixture_layers() -> Vec<LayerShape> {
    vec![
        bert_base(128).layers[0].clone(), // attn.q: 768 x 768 x 128
        resnet50(64).layers[3].clone(),   // conv2 3x3: 64 x 576 x 256
        LayerShape {
            name: "ragged".into(),
            m: 44,
            k: 84,
            n: 32,
            repeats: 1,
            prunable: true,
        },
    ]
}

fn render(case: &str, sparsity: f64, res: &LayerResult) -> String {
    let f = |x: f64| format!("{:016x}({x:.6e})", x.to_bits());
    format!(
        "{case} sparsity={sparsity} layer={name} cycles={cycles} \
         compute={compute} memory={memory} codec_hidden={ch} codec_exposed={ce} \
         useful_macs={macs} compute_util={cu} bandwidth_util={bu} \
         traffic_bytes={tb} energy_pj={en}",
        name = res.name,
        cycles = res.cycles,
        compute = res.breakdown.compute,
        memory = res.breakdown.memory,
        ch = res.breakdown.codec_hidden,
        ce = res.breakdown.codec_exposed,
        macs = res.useful_macs,
        cu = f(res.compute_utilization),
        bu = f(res.bandwidth_utilization),
        tb = f(res.traffic_bytes),
        en = f(res.energy_pj),
    )
}

fn current() -> String {
    let cfg = HwConfig::paper_default();
    let mut out = String::new();
    out.push_str("# Golden ablation fixture: format overrides and TBS block sizes.\n");
    out.push_str("# {Sdc, Csr, Int8} x 8 archs, TB-STC M in {4, 16, 32} x 4 formats;\n");
    out.push_str("# sparsities {0.5, 0.75, 0.9375} x 3 layers, seed 1234.\n");
    for shape in fixture_layers() {
        for sparsity in SPARSITIES {
            for fmt in OVERRIDES {
                for arch in Arch::ALL {
                    let sim = LayerSim::new(&shape)
                        .arch(arch)
                        .sparsity(sparsity)
                        .seed(SEED);
                    let layer = sim.build(&cfg);
                    let res =
                        simulate_layer_with(arch, &layer, &cfg, &SimOptions::with_format(fmt));
                    out.push_str(&render(
                        &format!("arch={arch} format={fmt:?}"),
                        sparsity,
                        &res,
                    ));
                    out.push('\n');
                }
            }
            for m in BLOCK_SIZES {
                let sim = LayerSim::new(&shape)
                    .arch(Arch::TbStc)
                    .tbs_config(TbsConfig::with_block_size(m))
                    .sparsity(sparsity)
                    .seed(SEED);
                let layer = sim.build(&cfg);
                for fmt in FORMATS {
                    let res = simulate_layer_with(
                        Arch::TbStc,
                        &layer,
                        &cfg,
                        &SimOptions::with_format(fmt),
                    );
                    let case = format!("arch={} tbs_m={m} format={fmt:?}", Arch::TbStc);
                    out.push_str(&render(&case, sparsity, &res));
                    out.push('\n');
                }
            }
        }
    }
    out
}

#[test]
fn ablation_results_bit_identical_to_golden_fixture() {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join(FIXTURE_REL);
    let got = current();
    if std::env::var_os("TBSTC_BLESS").is_some() {
        std::fs::write(&path, &got).unwrap();
        return;
    }
    let want = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing golden fixture {}: {e}", path.display()));
    for (w, g) in want.lines().zip(got.lines()) {
        assert_eq!(w, g, "golden ablation fixture mismatch");
    }
    assert_eq!(
        want.lines().count(),
        got.lines().count(),
        "golden ablation fixture case-count mismatch"
    );
}

#[test]
fn ablation_fixture_covers_every_override_and_block_size() {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join(FIXTURE_REL);
    let text = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing golden fixture {}: {e}", path.display()));
    let cases: Vec<&str> = text.lines().filter(|l| l.starts_with("arch=")).collect();
    let per_layer_sparsity = OVERRIDES.len() * Arch::ALL.len() + BLOCK_SIZES.len() * FORMATS.len();
    assert_eq!(
        cases.len(),
        per_layer_sparsity * SPARSITIES.len() * fixture_layers().len(),
        "one fixture line per case"
    );
    for fmt in OVERRIDES {
        for arch in Arch::ALL {
            let prefix = format!("arch={arch} format={fmt:?} ");
            assert!(cases.iter().any(|l| l.starts_with(&prefix)), "{prefix}");
        }
    }
    for m in BLOCK_SIZES {
        let tag = format!(" tbs_m={m} ");
        assert!(cases.iter().any(|l| l.contains(&tag)), "{tag}");
    }
}
