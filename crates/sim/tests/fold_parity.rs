//! One measured sample serves every shape that shares it.
//!
//! A sweep measures a pruned sample once per architecture, options and
//! sampled activation width ([`SampledCost::measure`]) and folds that cost
//! under each real shape whose layer samples the same weights ([`fold`]).
//! This checks that the fold of one shared measurement equals simulating
//! a layer built for each shape on its own, on every `LayerResult` field
//! (floats by bits), for all eight architectures under native, naive-
//! schedule, SDC, CSR and int8 options, with activation widths on both
//! sides of `sample_cols`.

use proptest::prelude::*;
use tbstc_models::LayerShape;
use tbstc_sim::compute::SchedulePolicy;
use tbstc_sim::memory::FormatOverride;
use tbstc_sim::{
    fold, sampled_cols, simulate_layer_on, Arch, HwConfig, LayerResult, LayerSim, LayerWeights,
    PruneKey, SampleKey, SampledCost, SimOptions,
};

fn options() -> [SimOptions; 5] {
    [
        SimOptions::native(),
        SimOptions::with_policy(SchedulePolicy::naive()),
        SimOptions::with_format(FormatOverride::Sdc),
        SimOptions::with_format(FormatOverride::Csr),
        SimOptions::with_format(FormatOverride::Int8),
    ]
}

/// The float fields of a result, by bits.
fn float_bits(r: &LayerResult) -> [u64; 4] {
    [
        r.compute_utilization,
        r.bandwidth_utilization,
        r.traffic_bytes,
        r.energy_pj,
    ]
    .map(f64::to_bits)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn folding_a_shared_sample_matches_simulating_each_shape(
        seed in 0u64..1000,
        sparsity in 0u32..=100,
        m_narrow in 128usize..4096,
        k_narrow in 128usize..4096,
        n_narrow in 1usize..64,
        m_wide in 128usize..4096,
        k_wide in 128usize..4096,
        n_wide in 65usize..256,
    ) {
        let cfg = HwConfig::paper_default();
        let target = f64::from(sparsity) / 100.0;
        let shape = |m, k, n| LayerShape {
            name: "fold".into(),
            m,
            k,
            n,
            repeats: 1,
            prunable: true,
        };
        let sampled = shape(cfg.sample_dim, cfg.sample_dim, cfg.sample_cols);
        let shapes = [
            shape(m_narrow, k_narrow, n_narrow),
            shape(m_wide, k_wide, n_wide),
        ];
        let key = SampleKey::new(&sampled, seed, &cfg);
        for s in &shapes {
            prop_assert_eq!(&SampleKey::new(s, seed, &cfg), &key, "{:?}", s);
        }
        let weights = LayerWeights::sample(&sampled, seed, &cfg);
        for arch in Arch::ALL {
            let prune = PruneKey::new(arch.native_pattern(), true, target);
            let pruned = weights.prune(prune.pattern, prune.target);
            for s in &shapes {
                let own = LayerSim::new(s).arch(arch).sparsity(target).seed(seed).build(&cfg);
                for opts in options() {
                    let cost =
                        SampledCost::measure(arch.model(), &pruned, sampled_cols(s, &cfg), &cfg, &opts);
                    let want = simulate_layer_on(arch.model(), &own, &cfg, &opts);
                    let ctx = format!("{arch} {}x{}x{} at {target} {opts:?}", s.m, s.k, s.n);
                    let got = fold(&cost, s, &cfg);
                    prop_assert_eq!(&got, &want, "{}", ctx);
                    prop_assert_eq!(float_bits(&got), float_bits(&want), "{}", ctx);
                }
            }
        }
    }
}
