//! Sample-keyed sibling tasks: how [`crate::SweepRunner::run_models`]
//! computes its fresh grid points.
//!
//! A layer's sampled weights depend only on its [`SampleKey`] — the seed,
//! the layer name and the sampled rows and columns — not on the
//! architecture, the sparsity, the model or the layer's real size. BERT,
//! OPT and Llama share their attention layers, BERT and OPT their FFN
//! layers, and ResNet-18 and ResNet-50 eight layers. Every (fresh point,
//! layer index) pair whose layer has one key is a *sibling* of that
//! sample, and the unit of parallel work is one sample over a chunk of its
//! siblings: it samples the dense weights once, then prunes, measures and
//! folds them for each sibling in turn.
//!
//! Siblings often prune alike: TB-STC and DVPE+FAN both prune TBS, RM-STC
//! and SGCN both prune unstructured, STC is pinned to 4:8 and TC (like
//! every arch on a non-prunable layer) runs dense. And a pruned sample
//! costs an arch the same under every real shape with the same sampled
//! activation width: the shape only scales that cost. A task therefore
//! walks its siblings in (key target, key pattern, arch, sampled columns)
//! order through one [`LayerPruner`], which prunes only when the
//! [`PruneKey`] changes and shares the global top-k across a target's
//! patterns, and it measures one [`SampledCost`] per (prune key, arch,
//! sampled columns), which every sibling with that key folds under its
//! own shape ([`tbstc_sim::fold`]). The pruned layer builds its
//! [`tbstc_sim::BlockPlan`] on first use, so the plan is built once per
//! pruned layer. Nothing outlives a task, so at most one dense sample,
//! one `Scores`, one pruned layer with its plan and one cost are live per
//! worker, and no weights are kept between tasks.
//!
//! Every per-point result comes from the same steps as
//! [`tbstc_sim::simulate_model_on`] (sample, key and prune, measure and
//! fold the layer, fold the layers in order), so results are
//! bit-identical to simulating each point on its own.

use std::collections::BTreeMap;
use std::ops::Range;
use std::time::{Duration, Instant};

use tbstc_models::{LayerShape, Model};
use tbstc_sim::{
    fold, sampled_cols, Arch, HwConfig, LayerPruner, LayerResult, LayerWeights, ModelResult,
    PruneKey, SampleKey, SampledCost, SimOptions,
};

use crate::pool::parallel_map;
use crate::sweep::{ModelSpec, SimJob};

/// One unit of parallel work: the siblings `samples[sample][siblings]`.
#[derive(Debug)]
pub(crate) struct SampleTask {
    pub(crate) sample: usize,
    pub(crate) siblings: Range<usize>,
}

/// The execution plan of one batch of fresh points.
#[derive(Debug)]
pub(crate) struct Plan {
    /// Each distinct model of the batch, materialized once.
    pub(crate) models: Vec<(ModelSpec, Model)>,
    /// The model of each fresh point: an index into `models`.
    pub(crate) model_of: Vec<usize>,
    /// The siblings of each distinct [`SampleKey`], in first-seen order:
    /// (fresh point, layer index) pairs, in point then layer order.
    pub(crate) samples: Vec<Vec<(usize, usize)>>,
    /// Tasks ordered sample → sibling chunk.
    pub(crate) tasks: Vec<SampleTask>,
}

impl Plan {
    /// Groups the layers of `fresh` by [`SampleKey`] (sampling limits from
    /// `cfg`) and cuts one task per sample. When that gives fewer tasks
    /// than `workers`, each sample's siblings are split into the fewest
    /// contiguous chunks that give every worker a task (or one task per
    /// point and layer, if there are fewer of those than workers).
    pub(crate) fn new(fresh: &[SimJob], cfg: &HwConfig, workers: usize) -> Self {
        // The model count is known only after the scan; it is a handful.
        let mut models: Vec<(ModelSpec, Model)> = Vec::new();
        let mut model_of = Vec::with_capacity(fresh.len());
        let mut samples: Vec<Vec<(usize, usize)>> = Vec::new();
        let mut sample_of: BTreeMap<SampleKey, usize> = BTreeMap::new();
        for (p, job) in fresh.iter().enumerate() {
            let m = match models.iter().position(|(spec, _)| *spec == job.model) {
                Some(m) => m,
                None => {
                    models.push((job.model, job.model.build()));
                    models.len() - 1
                }
            };
            model_of.push(m);
            for (l, shape) in models[m].1.layers.iter().enumerate() {
                let s = *sample_of
                    .entry(SampleKey::new(shape, job.seed, cfg))
                    .or_insert_with(|| {
                        samples.push(Vec::new());
                        samples.len() - 1
                    });
                samples[s].push((p, l));
            }
        }

        let tasks_with =
            |chunks: usize| -> usize { samples.iter().map(|s| chunks.min(s.len())).sum() };
        let most = samples.iter().map(Vec::len).max().unwrap_or(1);
        let wanted = workers.min(tasks_with(most));
        let chunks = (1..most).find(|&c| tasks_with(c) >= wanted).unwrap_or(most);

        let mut tasks = Vec::with_capacity(tasks_with(chunks));
        for (sample, siblings) in samples.iter().enumerate() {
            let n = siblings.len();
            let k = chunks.min(n);
            for c in 0..k {
                tasks.push(SampleTask {
                    sample,
                    siblings: c * n / k..(c + 1) * n / k,
                });
            }
        }
        Plan {
            models,
            model_of,
            samples,
            tasks,
        }
    }

    /// The shape of layer `layer` of fresh point `point`.
    fn shape(&self, (point, layer): (usize, usize)) -> &LayerShape {
        &self.models[self.model_of[point]].1.layers[layer]
    }

    /// What `sibling`, a (fresh point, layer index) pair, measures on its
    /// task's sample.
    fn cost_key(&self, fresh: &[SimJob], sibling: (usize, usize), cfg: &HwConfig) -> CostKey {
        let job = &fresh[sibling.0];
        let shape = self.shape(sibling);
        let key = PruneKey::new(job.arch.native_pattern(), shape.prunable, job.sparsity);
        (key, job.arch, sampled_cols(shape, cfg))
    }
}

/// What a sibling measures on its task's sample: the pruned layer, the
/// architecture and the sampled activation columns. Siblings with equal
/// keys fold one [`SampledCost`].
type CostKey = (PruneKey, Arch, usize);

/// Simulates every fresh point on up to `workers` threads, returning
/// aligned with `fresh` each result and the busy time charged to it: the
/// point's own folds plus an equal share of each task's remaining time
/// (the sampling, top-k, pruning, plans and measured costs its siblings
/// shared), so the charges sum to the tasks' busy time.
#[expect(
    clippy::expect_used,
    reason = "the plan covers every (point, layer) pair once"
)]
pub(crate) fn simulate(
    fresh: &[SimJob],
    cfg: &HwConfig,
    workers: usize,
) -> Vec<(ModelResult, Duration)> {
    let plan = Plan::new(fresh, cfg, workers);
    let done = parallel_map(&plan.tasks, workers, |_, task| {
        let siblings = &plan.samples[task.sample][task.siblings.clone()];
        let mut walk: Vec<(CostKey, &LayerShape, usize)> = siblings
            .iter()
            .enumerate()
            .map(|(i, &sibling)| (plan.cost_key(fresh, sibling, cfg), plan.shape(sibling), i))
            .collect();
        walk.sort_by(|((a, x, m), ..), ((b, y, n), ..)| {
            a.target
                .total_cmp(&b.target)
                .then(a.pattern.cmp(&b.pattern))
                .then(x.cmp(y))
                .then(m.cmp(n))
        });

        // Every sibling's shape samples the same weights.
        let first = siblings[0];
        let weights = LayerWeights::sample(plan.shape(first), fresh[first.0].seed, cfg);
        let mut pruner = LayerPruner::new(&weights);
        let mut measured: Option<(CostKey, SampledCost)> = None;
        let mut out: Vec<(usize, LayerResult, Duration)> = Vec::with_capacity(walk.len());
        for (key, shape, i) in walk {
            let kept = measured.take().filter(|(k, _)| *k == key);
            let (_, cost) = measured.insert(kept.unwrap_or_else(|| {
                // The cost is shared by the siblings that fold it, so it
                // is measured outside the per-sibling timer.
                let (prune, arch, sn) = key;
                let layer = pruner.prune(prune);
                let cost =
                    SampledCost::measure(arch.model(), layer, sn, cfg, &SimOptions::native());
                (key, cost)
            }));
            let t = Instant::now();
            out.push((i, fold(cost, shape, cfg), t.elapsed()));
        }
        out.sort_unstable_by_key(|&(i, ..)| i);
        out.into_iter()
            .map(|(_, res, d)| (res, d))
            .collect::<Vec<_>>()
    });

    let mut layers: Vec<Vec<Option<LayerResult>>> = plan
        .model_of
        .iter()
        .map(|&m| vec![None; plan.models[m].1.layers.len()])
        .collect();
    let mut busy = vec![Duration::ZERO; fresh.len()];
    for (task, (results, wall)) in plan.tasks.iter().zip(done) {
        let siblings = &plan.samples[task.sample][task.siblings.clone()];
        let own: Duration = results.iter().map(|(_, d)| *d).sum();
        let shared = wall.saturating_sub(own);
        // A task has at least one sibling; past 2^32 of them the share
        // saturates and `rest` still keeps the charges summing to `wall`.
        let n = u32::try_from(siblings.len()).unwrap_or(u32::MAX);
        let share = shared / n;
        let mut rest = shared.saturating_sub(share * n);
        for (&(p, l), (res, d)) in siblings.iter().zip(results) {
            layers[p][l] = Some(res);
            busy[p] += d + share + std::mem::take(&mut rest);
        }
    }
    fresh
        .iter()
        .zip(layers)
        .zip(busy)
        .zip(&plan.model_of)
        .map(|(((job, layers), busy), &m)| {
            let layers = layers
                .into_iter()
                .collect::<Option<Vec<_>>>()
                .expect("every layer of every point is simulated");
            (
                ModelResult::from_layers(job.arch.model().id(), &plan.models[m].1, layers),
                busy,
            )
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sweep::Sweep;

    fn job(arch: Arch, model: ModelSpec, sparsity: f64, seed: u64) -> SimJob {
        SimJob {
            arch,
            model,
            sparsity,
            seed,
        }
    }

    const GCN: ModelSpec = ModelSpec::Gcn {
        nodes: 64,
        features: 16,
    };
    const BERT: ModelSpec = ModelSpec::BertBase { tokens: 32 };
    const BERT_LONG: ModelSpec = ModelSpec::BertBase { tokens: 128 };

    fn cfg() -> HwConfig {
        HwConfig::paper_default()
    }

    /// Every (fresh point, layer) pair is a sibling in exactly one task,
    /// and every task's siblings share one sample key.
    fn assert_covers(plan: &Plan, fresh: &[SimJob]) {
        let mut seen: Vec<(usize, usize)> = Vec::new();
        for task in &plan.tasks {
            let siblings = &plan.samples[task.sample][task.siblings.clone()];
            assert!(!siblings.is_empty());
            let key = |&(p, l): &(usize, usize)| {
                SampleKey::new(plan.shape((p, l)), fresh[p].seed, &cfg())
            };
            assert!(siblings.iter().all(|s| key(s) == key(&siblings[0])));
            seen.extend(siblings);
        }
        seen.sort_unstable();
        let want: Vec<(usize, usize)> = fresh
            .iter()
            .enumerate()
            .flat_map(|(p, job)| (0..job.model.build().layers.len()).map(move |l| (p, l)))
            .collect();
        assert_eq!(seen, want, "each point meets each of its layers once");
    }

    #[test]
    fn siblings_group_by_sample_key_across_models_in_first_seen_order() {
        // BERT at 32 and 128 tokens samples the same six layers; GCN's one
        // layer is sampled once per seed.
        let fresh = [
            job(Arch::Tc, BERT, 0.5, 2),
            job(Arch::TbStc, GCN, 0.5, 1),
            job(Arch::Stc, BERT_LONG, 0.75, 2),
            job(Arch::Tc, GCN, 0.5, 2),
            job(Arch::RmStc, GCN, 0.875, 1),
        ];
        let plan = Plan::new(&fresh, &cfg(), 1);
        let mut want: Vec<Vec<(usize, usize)>> = (0..6).map(|l| vec![(0, l), (2, l)]).collect();
        want.push(vec![(1, 0), (4, 0)]);
        want.push(vec![(3, 0)]);
        assert_eq!(plan.samples, want);
        assert_eq!(plan.model_of, vec![0, 1, 2, 1, 1]);
        // Enough sample tasks for one worker: siblings stay whole.
        assert_eq!(plan.tasks.len(), 8);
        assert!(plan
            .tasks
            .iter()
            .all(|t| t.siblings.len() == plan.samples[t.sample].len()));
        assert_covers(&plan, &fresh);
    }

    #[test]
    fn the_paper_grid_samples_each_shared_layer_once_per_seed() {
        let grid = |seeds: &[u64]| {
            Sweep::new()
                .archs(Arch::ALL)
                .models(ModelSpec::paper_set())
                .sparsities([0.5, 0.75, 0.875])
                .seeds(seeds.iter().copied())
                .jobs()
        };
        let fresh = grid(&[1]);
        let layers: usize = ModelSpec::paper_set()
            .iter()
            .map(|m| m.build().layers.len())
            .sum();
        assert_eq!(layers, 53, "one task per (model, layer) before sharing");
        for workers in [1, 2, 8] {
            let plan = Plan::new(&fresh, &cfg(), workers);
            assert_covers(&plan, &fresh);
            assert_eq!(plan.tasks.len(), 35, "on {workers} workers");
        }
        // Each task prunes (and plans) each distinct prune key once, and
        // measures each distinct (prune key, arch, sampled columns) once.
        let plan = Plan::new(&fresh, &cfg(), 2);
        let distinct = |of: &dyn Fn(CostKey) -> CostKey| -> usize {
            plan.tasks
                .iter()
                .map(|task| {
                    let mut keys: Vec<CostKey> = Vec::new();
                    for &sibling in &plan.samples[task.sample][task.siblings.clone()] {
                        let key = of(plan.cost_key(&fresh, sibling, &cfg()));
                        if !keys.contains(&key) {
                            keys.push(key);
                        }
                    }
                    keys.len()
                })
                .sum()
        };
        assert_eq!(distinct(&|(prune, ..)| (prune, Arch::Tc, 0)), 464);
        assert_eq!(distinct(&|key| key), 676);
        let siblings: usize = plan.samples.iter().map(Vec::len).sum();
        assert_eq!(siblings, 1272, "one fold per (point, layer)");

        let fresh = grid(&[1, 7]);
        let plan = Plan::new(&fresh, &cfg(), 2);
        assert_covers(&plan, &fresh);
        assert_eq!(plan.tasks.len(), 70);
        for task in &plan.tasks {
            let siblings = &plan.samples[task.sample][task.siblings.clone()];
            let seed = fresh[siblings[0].0].seed;
            assert!(siblings.iter().all(|&(p, _)| fresh[p].seed == seed));
        }
    }

    #[test]
    fn few_layer_tasks_split_siblings_until_every_worker_has_one() {
        let archs = [Arch::Tc, Arch::Stc, Arch::TbStc, Arch::RmStc];
        for seeds in 1..=3u64 {
            for per_seed in 1..=archs.len() {
                let fresh: Vec<SimJob> = (1..=seeds)
                    .flat_map(|seed| {
                        archs[..per_seed]
                            .iter()
                            .map(move |&a| job(a, GCN, 0.5, seed))
                    })
                    .collect();
                let points = fresh.len();
                for workers in 1..=10 {
                    let plan = Plan::new(&fresh, &cfg(), workers);
                    assert_covers(&plan, &fresh);
                    // One layer per point: at least min(W, points) tasks,
                    // and no more chunks per sample than that needs.
                    let tasks = plan.tasks.len();
                    assert!(
                        tasks >= workers.min(points),
                        "{seeds}×{per_seed} on {workers}"
                    );
                    let chunks = tasks / seeds as usize;
                    assert!(
                        chunks == 1 || (chunks - 1) * (seeds as usize) < workers.min(points),
                        "{seeds}×{per_seed} on {workers}: {tasks} tasks are more than needed"
                    );
                }
            }
        }
    }

    #[test]
    fn mixed_models_get_at_least_min_of_workers_and_point_layers() {
        let fresh = [
            job(Arch::Tc, GCN, 0.5, 1),
            job(Arch::TbStc, GCN, 0.75, 1),
            job(Arch::Vegeta, BERT, 0.5, 3),
        ];
        let point_layers = 2 + BERT.build().layers.len();
        for workers in [1, 2, 3, 4, 8, 64] {
            let plan = Plan::new(&fresh, &cfg(), workers);
            assert_covers(&plan, &fresh);
            assert!(plan.tasks.len() >= workers.min(point_layers));
        }
        assert!(Plan::new(&[], &cfg(), 4).tasks.is_empty());
    }
}
