//! Layer-major sibling tasks: how [`crate::SweepRunner::run_models`]
//! computes its fresh grid points.
//!
//! A layer's sampled weights depend only on the layer, the seed and the
//! sampling limits — not on the architecture or the sparsity. The fresh
//! points that share a model and a seed (*siblings*) can therefore share
//! one sample. The unit of parallel work is one (model, seed, layer) task
//! over a chunk of those siblings: it samples the layer's dense weights
//! once, then prunes and simulates them for each sibling in turn.
//!
//! Siblings often prune alike: TB-STC and DVPE+FAN both prune TBS, RM-STC
//! and SGCN both prune unstructured, STC is pinned to 4:8 and TC (like
//! every arch on a non-prunable layer) runs dense. A task therefore walks
//! its siblings in [`PruneKey`] order — (key target, key pattern, arch) —
//! through one [`LayerPruner`], which prunes only when the key changes and
//! shares the global top-k across a target's patterns, and it reuses the
//! previous [`LayerResult`] when the key and the arch both repeat. Nothing
//! outlives a task, so at most one dense sample, one top-k and one pruned
//! layer are live per worker, and no weights are kept between tasks.
//!
//! Every per-point result comes from the same steps as
//! [`tbstc_sim::simulate_model_on`] (sample, key and prune, simulate the
//! layer, fold the layers in order), so results are bit-identical to
//! simulating each point on its own.

use std::ops::Range;
use std::time::{Duration, Instant};

use tbstc_models::Model;
use tbstc_sim::{
    simulate_layer_on, Arch, HwConfig, LayerPruner, LayerResult, LayerWeights, ModelResult,
    PruneKey, SimOptions,
};

use crate::pool::parallel_map;
use crate::sweep::{ModelSpec, SimJob};

/// The fresh points that share one (model, seed).
#[derive(Debug)]
pub(crate) struct Group {
    /// The model the siblings share.
    pub(crate) spec: ModelSpec,
    /// Its materialized layers.
    pub(crate) model: Model,
    /// The weight-sampling seed the siblings share.
    pub(crate) seed: u64,
    /// The siblings: indices into the fresh jobs, in first-seen order.
    pub(crate) points: Vec<usize>,
}

/// One unit of parallel work: layer `layer` of group `group`, for the
/// siblings `group.points[points]`.
#[derive(Debug)]
pub(crate) struct LayerTask {
    pub(crate) group: usize,
    pub(crate) layer: usize,
    pub(crate) points: Range<usize>,
}

/// The execution plan of one batch of fresh points.
#[derive(Debug)]
pub(crate) struct Plan {
    /// Sibling groups in first-seen order of their (model, seed).
    pub(crate) groups: Vec<Group>,
    /// The group of each fresh point.
    pub(crate) group_of: Vec<usize>,
    /// Tasks ordered group → layer → sibling chunk, so each point meets
    /// its layers in model order.
    pub(crate) tasks: Vec<LayerTask>,
}

impl Plan {
    /// Groups `fresh` by (model, seed) and cuts one task per (group,
    /// layer). When that gives fewer tasks than `workers`, each group's
    /// siblings are split into the fewest contiguous chunks that give
    /// every worker a task (or one task per point and layer, if there are
    /// fewer of those than workers).
    pub(crate) fn new(fresh: &[SimJob], workers: usize) -> Self {
        // The group count is known only after the scan; it is at most
        // models × seeds, a handful.
        let mut groups: Vec<Group> = Vec::new();
        let mut group_of = Vec::with_capacity(fresh.len());
        for (p, job) in fresh.iter().enumerate() {
            let g = match groups
                .iter()
                .position(|g| g.spec == job.model && g.seed == job.seed)
            {
                Some(g) => g,
                None => {
                    groups.push(Group {
                        spec: job.model,
                        model: job.model.build(),
                        seed: job.seed,
                        // The sibling count is known only after the scan.
                        points: Vec::new(),
                    });
                    groups.len() - 1
                }
            };
            groups[g].points.push(p);
            group_of.push(g);
        }

        let tasks_with = |chunks: usize| -> usize {
            groups
                .iter()
                .map(|g| g.model.layers.len() * chunks.min(g.points.len()))
                .sum()
        };
        let most = fresh.len().max(1);
        let wanted = workers.min(tasks_with(most));
        let chunks = (1..most).find(|&c| tasks_with(c) >= wanted).unwrap_or(most);

        let mut tasks = Vec::with_capacity(tasks_with(chunks));
        for (g, group) in groups.iter().enumerate() {
            let n = group.points.len();
            let k = chunks.min(n);
            for layer in 0..group.model.layers.len() {
                for c in 0..k {
                    tasks.push(LayerTask {
                        group: g,
                        layer,
                        points: c * n / k..(c + 1) * n / k,
                    });
                }
            }
        }
        Plan {
            groups,
            group_of,
            tasks,
        }
    }
}

/// Simulates every fresh point on up to `workers` threads, returning
/// aligned with `fresh` each result and the busy time charged to it: the
/// point's own simulate call (or the reuse of an equal result) plus an
/// equal share of each task's remaining time (the sampling, top-k and
/// pruning its siblings shared), so the charges sum to the tasks' busy
/// time.
pub(crate) fn simulate(
    fresh: &[SimJob],
    cfg: &HwConfig,
    workers: usize,
) -> Vec<(ModelResult, Duration)> {
    let plan = Plan::new(fresh, workers);
    let done = parallel_map(&plan.tasks, workers, |_, task| {
        let group = &plan.groups[task.group];
        let shape = &group.model.layers[task.layer];
        let weights = LayerWeights::sample(shape, group.seed, cfg);
        let points = &group.points[task.points.clone()];
        let mut walk: Vec<(PruneKey, Arch, usize)> = points
            .iter()
            .enumerate()
            .map(|(i, &p)| {
                let job = &fresh[p];
                let key = PruneKey::new(job.arch.native_pattern(), shape.prunable, job.sparsity);
                (key, job.arch, i)
            })
            .collect();
        walk.sort_by(|(a, x, _), (b, y, _)| {
            a.target
                .total_cmp(&b.target)
                .then(a.pattern.cmp(&b.pattern))
                .then(x.cmp(y))
        });

        let mut pruner = LayerPruner::new(&weights);
        let mut out: Vec<(usize, LayerResult, Duration)> = Vec::with_capacity(walk.len());
        let mut last = None;
        for (key, arch, i) in walk {
            let layer = pruner.prune(key);
            let t = Instant::now();
            let res = match out.last() {
                Some((_, res, _)) if last == Some((key, arch)) => res.clone(),
                _ => simulate_layer_on(arch.model(), layer, cfg, &SimOptions::native()),
            };
            out.push((i, res, t.elapsed()));
            last = Some((key, arch));
        }
        out.sort_unstable_by_key(|&(i, ..)| i);
        out.into_iter()
            .map(|(_, res, d)| (res, d))
            .collect::<Vec<_>>()
    });

    let mut layers: Vec<Vec<LayerResult>> = plan
        .group_of
        .iter()
        .map(|&g| Vec::with_capacity(plan.groups[g].model.layers.len()))
        .collect();
    let mut busy = vec![Duration::ZERO; fresh.len()];
    for (task, (results, wall)) in plan.tasks.iter().zip(done) {
        let points = &plan.groups[task.group].points[task.points.clone()];
        let own: Duration = results.iter().map(|(_, d)| *d).sum();
        let shared = wall.saturating_sub(own);
        // A task has at least one sibling; past 2^32 of them the share
        // saturates and `rest` still keeps the charges summing to `wall`.
        let n = u32::try_from(points.len()).unwrap_or(u32::MAX);
        let share = shared / n;
        let mut rest = shared.saturating_sub(share * n);
        for (&p, (res, d)) in points.iter().zip(results) {
            debug_assert_eq!(layers[p].len(), task.layer, "layers fold in model order");
            layers[p].push(res);
            busy[p] += d + share + std::mem::take(&mut rest);
        }
    }
    fresh
        .iter()
        .zip(layers)
        .zip(busy)
        .zip(&plan.group_of)
        .map(|(((job, layers), busy), &g)| {
            let model = &plan.groups[g].model;
            (
                ModelResult::from_layers(job.arch.model().id(), model, layers),
                busy,
            )
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

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

    /// Every fresh point meets every layer of its model exactly once, in
    /// one task of its own group.
    fn assert_covers(plan: &Plan, fresh: &[SimJob]) {
        for (p, job) in fresh.iter().enumerate() {
            let g = plan.group_of[p];
            let group = &plan.groups[g];
            assert_eq!((group.spec, group.seed), (job.model, job.seed));
            let mut seen: Vec<usize> = plan
                .tasks
                .iter()
                .filter(|t| t.group == g && group.points[t.points.clone()].contains(&p))
                .map(|t| t.layer)
                .collect();
            let in_order = seen.clone();
            seen.sort_unstable();
            assert_eq!(in_order, seen, "point {p} meets its layers in order");
            assert_eq!(
                seen,
                (0..group.model.layers.len()).collect::<Vec<_>>(),
                "point {p} covers each layer once"
            );
        }
    }

    #[test]
    fn siblings_group_by_model_and_seed_in_first_seen_order() {
        let fresh = [
            job(Arch::Tc, BERT, 0.5, 2),
            job(Arch::TbStc, GCN, 0.5, 1),
            job(Arch::Stc, BERT, 0.75, 2),
            job(Arch::Tc, GCN, 0.5, 2),
            job(Arch::RmStc, GCN, 0.875, 1),
        ];
        let plan = Plan::new(&fresh, 1);
        let groups: Vec<(ModelSpec, u64, Vec<usize>)> = plan
            .groups
            .iter()
            .map(|g| (g.spec, g.seed, g.points.clone()))
            .collect();
        assert_eq!(
            groups,
            vec![
                (BERT, 2, vec![0, 2]),
                (GCN, 1, vec![1, 4]),
                (GCN, 2, vec![3])
            ]
        );
        assert_eq!(plan.group_of, vec![0, 1, 0, 2, 1]);
        // Enough (group, layer) tasks for one worker: siblings stay whole.
        let bert_layers = BERT.build().layers.len();
        assert_eq!(plan.tasks.len(), bert_layers + 2);
        assert!(plan
            .tasks
            .iter()
            .all(|t| t.points.len() == plan.groups[t.group].points.len()));
        assert_covers(&plan, &fresh);
    }

    #[test]
    fn few_layer_tasks_split_siblings_until_every_worker_has_one() {
        let archs = [Arch::Tc, Arch::Stc, Arch::TbStc, Arch::RmStc];
        for seeds in 1..=3u64 {
            for per_group in 1..=archs.len() {
                let fresh: Vec<SimJob> = (1..=seeds)
                    .flat_map(|seed| {
                        archs[..per_group]
                            .iter()
                            .map(move |&a| job(a, GCN, 0.5, seed))
                    })
                    .collect();
                let points = fresh.len();
                for workers in 1..=10 {
                    let plan = Plan::new(&fresh, workers);
                    assert_covers(&plan, &fresh);
                    // One layer per point: at least min(W, points) tasks,
                    // and no more chunks per group than that needs.
                    let tasks = plan.tasks.len();
                    assert!(
                        tasks >= workers.min(points),
                        "{seeds}×{per_group} on {workers}"
                    );
                    let chunks = tasks / seeds as usize;
                    assert!(
                        chunks == 1 || (chunks - 1) * (seeds as usize) < workers.min(points),
                        "{seeds}×{per_group} on {workers}: {tasks} tasks are more than needed"
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
            let plan = Plan::new(&fresh, workers);
            assert_covers(&plan, &fresh);
            assert!(plan.tasks.len() >= workers.min(point_layers));
        }
        assert!(Plan::new(&[], 4).tasks.is_empty());
    }
}
