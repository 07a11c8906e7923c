//! Property-based invariants that span crate boundaries.

use proptest::prelude::*;
use tbstc::formats::{Csr, Ddc, Sdc};
use tbstc::matrix::rng::MatrixRng;
use tbstc::prelude::*;
use tbstc::sim::compute::{simulate_compute, SchedulePolicy};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Every storage format round-trips every TBS-pruned matrix.
    #[test]
    fn formats_round_trip(seed in 0u64..500, target_pct in 0u32..=100) {
        let target = f64::from(target_pct) / 100.0;
        let w = MatrixRng::seed_from(seed).block_structured_weights(32, 40, 8);
        let p = TbsPattern::sparsify(&w, target, &TbsConfig::paper_default());
        let pruned = p.mask().apply(&w);
        prop_assert_eq!(Ddc::encode(&pruned, &p).decode(), pruned.clone());
        prop_assert_eq!(Sdc::encode(&pruned).decode(), pruned.clone());
        prop_assert_eq!(Csr::encode(&pruned).decode(), pruned);
    }

    /// DDC never stores more bytes than SDC on the same matrix.
    #[test]
    fn ddc_at_most_sdc(seed in 0u64..200) {
        let w = MatrixRng::seed_from(seed).block_structured_weights(64, 64, 8);
        let p = TbsPattern::sparsify(&w, 0.7, &TbsConfig::paper_default());
        let pruned = p.mask().apply(&w);
        let ddc = Ddc::encode(&pruned, &p).stored_bytes();
        let sdc = Sdc::encode(&pruned).stored_bytes();
        prop_assert!(ddc <= sdc + 128, "DDC {ddc} vs SDC {sdc}");
    }

    /// Deeper sparsity never increases TB-STC cycles (same seed).
    #[test]
    fn tbstc_cycles_monotone_in_sparsity(seed in 0u64..100) {
        let cfg = HwConfig::paper_default();
        let shape = tbstc::models::LayerShape {
            name: "mono".into(), m: 96, k: 96, n: 32, repeats: 1, prunable: true,
        };
        let mut prev = u64::MAX;
        for target in [0.25, 0.5, 0.75, 0.9] {
            let layer = LayerSim::new(&shape).arch(Arch::TbStc).sparsity(target).seed(seed).build(&cfg);
            let res = simulate_layer(Arch::TbStc, &layer, &cfg);
            let slack = prev.saturating_add(prev / 10);
            prop_assert!(res.cycles <= slack, "sparsity {target}: {} > {}", res.cycles, prev);
            prev = res.cycles;
        }
    }

    /// The dense architecture is never faster than TB-STC at >0 sparsity.
    #[test]
    fn sparsity_never_hurts_vs_dense(seed in 0u64..100, target_pct in 30u32..90) {
        let cfg = HwConfig::paper_default();
        let target = f64::from(target_pct) / 100.0;
        let shape = tbstc::models::LayerShape {
            name: "vsdense".into(), m: 96, k: 96, n: 32, repeats: 1, prunable: true,
        };
        let sparse = LayerSim::new(&shape).arch(Arch::TbStc).sparsity(target).seed(seed).build(&cfg);
        let dense = LayerSim::new(&shape).arch(Arch::Tc).sparsity(0.0).seed(seed).build(&cfg);
        let tb = simulate_layer(Arch::TbStc, &sparse, &cfg);
        let tc = simulate_layer(Arch::Tc, &dense, &cfg);
        prop_assert!(tb.cycles <= tc.cycles, "TB {} vs TC {}", tb.cycles, tc.cycles);
    }

    /// Utilization is a true ratio for every architecture and never
    /// exceeds 1; issued MACs dominate useful MACs.
    #[test]
    fn utilization_is_a_ratio(seed in 0u64..50, arch_i in 0usize..8) {
        let arch = Arch::ALL[arch_i];
        let cfg = HwConfig::paper_default();
        let shape = tbstc::models::LayerShape {
            name: "ratio".into(), m: 64, k: 64, n: 16, repeats: 1, prunable: true,
        };
        let layer = LayerSim::new(&shape).arch(arch).sparsity(0.6).seed(seed).build(&cfg);
        let comp = simulate_compute(arch, &layer, &cfg, SchedulePolicy::native(arch));
        prop_assert!(comp.utilization > 0.0 && comp.utilization <= 1.0 + 1e-9);
        prop_assert!(comp.issued_macs >= comp.useful_macs);
    }

    /// More DRAM bandwidth never costs cycles: on every architecture and
    /// sparsity, cycles are non-increasing from 32 to 1024 GB/s.
    #[test]
    fn more_bandwidth_never_costs_cycles(seed in 0u64..50, arch_i in 0usize..8, sp_i in 0usize..4) {
        let arch = Arch::ALL[arch_i];
        let sparsity = [0.0, 0.5, 0.75, 0.875][sp_i];
        let shape = tbstc::models::LayerShape {
            name: "bandwidth".into(), m: 256, k: 256, n: 64, repeats: 1, prunable: true,
        };
        let layer = LayerSim::new(&shape)
            .arch(arch)
            .sparsity(sparsity)
            .seed(seed)
            .build(&HwConfig::paper_default());
        let mut prev = u64::MAX;
        for gbps in [32.0, 64.0, 128.0, 256.0, 512.0, 1024.0] {
            let cycles = simulate_layer(arch, &layer, &HwConfig::with_bandwidth_gbps(gbps)).cycles;
            prop_assert!(cycles <= prev, "{arch:?} at {sparsity}: {cycles} cycles at {gbps} GB/s");
            prev = cycles;
        }
    }

    /// TBS masks retain essentially at least as much |weight| mass as the
    /// TS projection at the same target (the accuracy mechanism). TBS
    /// optimizes closeness to the unstructured mask, not mass directly,
    /// so individual seeds may trail by a sliver — never by much.
    #[test]
    fn tbs_retains_at_least_tile_mass(seed in 0u64..200) {
        use tbstc::sparsity::pattern::paper_pattern;
        let w = MatrixRng::seed_from(seed).block_structured_weights(48, 48, 8);
        let mass = |mask: &Mask| -> f64 {
            mask.iter_kept().map(|(r, c)| f64::from(w[(r, c)].abs())).sum()
        };
        let tbs = TbsPattern::sparsify(&w, 0.5, &TbsConfig::paper_default());
        let ts = paper_pattern(PatternKind::TileNm).project(&w, 0.5);
        prop_assert!(mass(tbs.mask()) >= mass(&ts) * 0.97);
    }

    /// fp16 SpMM through the DDC round trip stays within half-precision
    /// error of the f32 golden model.
    #[test]
    fn f16_datapath_error_bounded(seed in 0u64..50) {
        use tbstc::matrix::gemm;
        let mut rng = MatrixRng::seed_from(seed);
        let w = rng.block_structured_weights(16, 16, 8);
        let p = TbsPattern::sparsify(&w, 0.5, &TbsConfig::paper_default());
        let pruned = p.mask().apply(&w);
        let b = rng.uniform(16, 8, -1.0, 1.0);
        let exact = gemm::matmul(&pruned, &b);
        let half = gemm::try_matmul_f16(&pruned, &b).unwrap();
        prop_assert!(exact.max_abs_diff(&half).unwrap() < 0.05);
    }
}

#[test]
fn mask_space_ordering_predicts_similarity_ordering() {
    // Fig. 4(b) vs Fig. 4(c): the pattern with the larger mask space is
    // also the one whose projected mask is closer to the unstructured
    // mask, on average.
    use tbstc::sparsity::mask_space::mask_space_row;
    use tbstc::sparsity::similarity::similarity_sweep;

    let ms = mask_space_row(128, 128, 8);
    let w = MatrixRng::seed_from(77).block_structured_weights(128, 128, 8);
    let sim = similarity_sweep(&w, 0.75);
    let get = |k: PatternKind| sim.iter().find(|r| r.kind == k).unwrap().similarity;

    assert!(ms.tbs > ms.rs_v && get(PatternKind::Tbs) > get(PatternKind::RowWiseVegeta));
    assert!(ms.rs_v >= ms.ts && get(PatternKind::RowWiseVegeta) >= get(PatternKind::TileNm) - 0.02);
}
