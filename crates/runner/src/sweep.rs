//! Simulation sweeps: hashable job descriptions + the grid builder.

use std::hash::{Hash, Hasher};
use std::time::Instant;

use tbstc_models::Model;
use tbstc_sim::{Arch, HwConfig, LayerResult, LayerSim, ModelResult};

use crate::memo::Memo;
use crate::runner::{RunReport, RunStats, Runner};
use crate::siblings;

/// A hashable, buildable model identity (the workload axis of a sweep).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ModelSpec {
    /// ResNet-50 at the given input resolution.
    ResNet50 {
        /// Input image height/width in pixels.
        input: usize,
    },
    /// ResNet-18 at the given input resolution.
    ResNet18 {
        /// Input image height/width in pixels.
        input: usize,
    },
    /// BERT-base encoder at the given sequence length.
    BertBase {
        /// Sequence length in tokens.
        tokens: usize,
    },
    /// OPT-6.7B decoder at the given sequence length.
    Opt6_7b {
        /// Sequence length in tokens.
        tokens: usize,
    },
    /// Llama2-7B decoder at the given sequence length.
    Llama2_7b {
        /// Sequence length in tokens.
        tokens: usize,
    },
    /// A single GCN aggregation layer.
    Gcn {
        /// Graph node count.
        nodes: usize,
        /// Feature width.
        features: usize,
    },
}

impl ModelSpec {
    /// The paper's evaluation set at its default shapes.
    pub fn paper_set() -> Vec<ModelSpec> {
        vec![
            ModelSpec::ResNet50 { input: 32 },
            ModelSpec::ResNet18 { input: 32 },
            ModelSpec::BertBase { tokens: 128 },
            ModelSpec::Opt6_7b { tokens: 128 },
            ModelSpec::Llama2_7b { tokens: 128 },
        ]
    }

    /// Materializes the layer shapes.
    pub fn build(&self) -> Model {
        match *self {
            ModelSpec::ResNet50 { input } => tbstc_models::resnet50(input),
            ModelSpec::ResNet18 { input } => tbstc_models::resnet18(input),
            ModelSpec::BertBase { tokens } => tbstc_models::bert_base(tokens),
            ModelSpec::Opt6_7b { tokens } => tbstc_models::opt_6_7b(tokens),
            ModelSpec::Llama2_7b { tokens } => tbstc_models::llama2_7b(tokens),
            ModelSpec::Gcn { nodes, features } => tbstc_models::gcn_layer(nodes, features),
        }
    }
}

impl std::fmt::Display for ModelSpec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match *self {
            ModelSpec::ResNet50 { input } => write!(f, "ResNet-50/{input}"),
            ModelSpec::ResNet18 { input } => write!(f, "ResNet-18/{input}"),
            ModelSpec::BertBase { tokens } => write!(f, "BERT-base/{tokens}"),
            ModelSpec::Opt6_7b { tokens } => write!(f, "OPT-6.7B/{tokens}"),
            ModelSpec::Llama2_7b { tokens } => write!(f, "Llama2-7B/{tokens}"),
            ModelSpec::Gcn { nodes, features } => write!(f, "GCN/{nodes}x{features}"),
        }
    }
}

/// One whole-model simulation point: the memo key of model sweeps.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SimJob {
    /// Architecture to simulate.
    pub arch: Arch,
    /// Workload.
    pub model: ModelSpec,
    /// Target sparsity in `[0, 1]`.
    pub sparsity: f64,
    /// Weight-sampling seed (owned by the job — the determinism anchor).
    pub seed: u64,
}

impl Eq for SimJob {}

impl Hash for SimJob {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.arch.hash(state);
        self.model.hash(state);
        self.sparsity.to_bits().hash(state);
        self.seed.hash(state);
    }
}

impl std::fmt::Display for SimJob {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} on {} @ {:.1}% (seed {})",
            self.model,
            self.arch,
            self.sparsity * 100.0,
            self.seed
        )
    }
}

/// The chunk boundary record of a chunked sweep run, handed to the
/// observer after every chunk — the unit a durable-job layer persists
/// as a checkpoint. Because the memo is keyed at sub-spec granularity
/// (one [`SimJob`] grid point), everything a checkpoint reports is
/// already reusable by any other sweep that shares grid points.
#[derive(Debug)]
pub struct SweepCheckpoint<'a> {
    /// Zero-based index of the chunk that just finished.
    pub chunk_index: usize,
    /// Grid points completed so far (across all chunks).
    pub done: usize,
    /// Total grid points in this run.
    pub total: usize,
    /// The jobs of the finished chunk, in input order.
    pub chunk_jobs: &'a [SimJob],
    /// Their results, aligned with [`SweepCheckpoint::chunk_jobs`].
    pub chunk_results: &'a [ModelResult],
    /// Jobs actually computed in this chunk (the rest were memo hits or
    /// in-chunk duplicates) — strictly less than `chunk_jobs.len()` on a
    /// resumed or overlapping sweep.
    pub computed: usize,
}

/// The observer's verdict after each chunk of
/// [`SweepRunner::run_models_chunked`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChunkControl {
    /// Keep going with the next chunk.
    Continue,
    /// Abandon the run between chunks (cancellation / graceful
    /// shutdown). Completed points stay in the memo, so a later run
    /// resumes from exactly this boundary.
    Stop,
}

/// A [`Runner`] bound to one [`HwConfig`], with persistent caches for
/// model- and layer-level simulation points.
///
/// Binding the hardware config into the engine keeps the memo keys small
/// (jobs describe *what* to simulate; the engine owns *how*); use one
/// `SweepRunner` per hardware configuration.
#[derive(Debug)]
pub struct SweepRunner {
    cfg: HwConfig,
    runner: Runner,
    models: Memo<SimJob, ModelResult>,
    layers: Memo<LayerSim, LayerResult>,
}

impl SweepRunner {
    /// An engine over `cfg` with the default (parallel) [`Runner`].
    pub fn new(cfg: HwConfig) -> Self {
        Self::with_runner(cfg, Runner::new())
    }

    /// An engine over `cfg` with an explicit runner (e.g.
    /// [`Runner::serial`] for determinism checks).
    pub fn with_runner(cfg: HwConfig, runner: Runner) -> Self {
        SweepRunner {
            cfg,
            runner,
            models: Memo::new(),
            layers: Memo::new(),
        }
    }

    /// The bound hardware configuration.
    pub fn config(&self) -> &HwConfig {
        &self.cfg
    }

    /// The underlying job runner.
    pub fn runner(&self) -> &Runner {
        &self.runner
    }

    /// Simulates every model-level job, memoized and in input order.
    ///
    /// Fresh jobs share each layer sample whose [`tbstc_sim::SampleKey`]
    /// (seed, layer name, sampled size) they share, across models: the
    /// unit of parallel work is one sample task that samples the layer
    /// once, then prunes each distinct prune key once and simulates it for
    /// each (job, layer) that has that key (see the `siblings` module).
    /// Results are bit-identical to simulating each job on its own. Each
    /// computed job's [`RunStats::job_wall`] is its own simulate time plus
    /// an equal share of the sampling, pruning and plan building it
    /// shared, so the sum is still the run's busy time.
    pub fn run_models(&self, jobs: &[SimJob]) -> RunReport<ModelResult> {
        self.runner.run_memo_batch(jobs, &self.models, |fresh| {
            siblings::simulate(fresh, &self.cfg, self.runner.workers())
        })
    }

    /// Runs `jobs` in deterministic fixed-size chunks through the same
    /// memo as [`SweepRunner::run_models`], calling `observe` with a
    /// [`SweepCheckpoint`] after every chunk.
    ///
    /// Returns `None` when the observer answers [`ChunkControl::Stop`];
    /// all chunks completed up to that point remain in the memo, so a
    /// later chunked (or monolithic) run over the same jobs recomputes
    /// only the points past the boundary. When the run completes, the
    /// results are bit-identical to one monolithic
    /// [`SweepRunner::run_models`] call: every chunk is reassembled from
    /// the memo in input order, and concatenating per-chunk results in
    /// chunk order reproduces the input order of the whole grid.
    pub fn run_models_chunked(
        &self,
        jobs: &[SimJob],
        chunk_size: usize,
        observe: &mut dyn FnMut(&SweepCheckpoint<'_>) -> ChunkControl,
    ) -> Option<RunReport<ModelResult>> {
        let chunk_size = chunk_size.max(1);
        let start = Instant::now();
        let total = jobs.len();
        let mut results = Vec::with_capacity(total);
        let mut job_wall = Vec::with_capacity(total);
        let mut unique = 0usize;
        for (chunk_index, chunk) in jobs.chunks(chunk_size).enumerate() {
            let rep = self.run_models(chunk);
            unique += rep.stats.unique_jobs;
            job_wall.extend(rep.stats.job_wall);
            let checkpoint = SweepCheckpoint {
                chunk_index,
                done: results.len() + rep.results.len(),
                total,
                chunk_jobs: chunk,
                chunk_results: &rep.results,
                computed: rep.stats.unique_jobs,
            };
            let control = observe(&checkpoint);
            results.extend(rep.results);
            if control == ChunkControl::Stop {
                return None;
            }
        }
        Some(RunReport {
            results,
            stats: RunStats {
                jobs: total,
                unique_jobs: unique,
                cache_hits: total - unique,
                workers: self.runner.workers(),
                wall: start.elapsed(),
                job_wall,
            },
        })
    }

    /// Simulates one model-level job (through the same cache).
    #[expect(clippy::expect_used, reason = "one job in, one result out")]
    pub fn model(&self, job: SimJob) -> ModelResult {
        self.run_models(std::slice::from_ref(&job))
            .results
            .into_iter()
            .next()
            .expect("one job in, one result out")
    }

    /// Simulates every single-layer job ([`LayerSim`] doubles as the
    /// memo key), memoized and in input order.
    pub fn run_layers(&self, jobs: &[LayerSim]) -> RunReport<LayerResult> {
        self.runner
            .run_memo(jobs, &self.layers, |sim| sim.run(&self.cfg))
    }

    /// Simulates one single-layer job (through the same cache).
    #[expect(clippy::expect_used, reason = "one job in, one result out")]
    pub fn layer(&self, job: LayerSim) -> LayerResult {
        self.run_layers(std::slice::from_ref(&job))
            .results
            .into_iter()
            .next()
            .expect("one job in, one result out")
    }

    /// A snapshot of the model-level memo cache, for persistence across
    /// process restarts (the serve subsystem writes these to disk on
    /// shutdown and feeds them back through
    /// [`SweepRunner::preload_models`] on boot).
    pub fn model_memo_entries(&self) -> Vec<(SimJob, ModelResult)> {
        self.models.entries()
    }

    /// Warm-starts the model-level memo cache with persisted entries.
    /// Preloaded jobs are served without recomputation, exactly like
    /// entries computed this process.
    pub fn preload_models(&self, entries: impl IntoIterator<Item = (SimJob, ModelResult)>) {
        self.models.preload(entries);
    }

    /// `(hits, misses)` across both caches since construction.
    pub fn cache_stats(&self) -> (u64, u64) {
        (
            self.models.hits() + self.layers.hits(),
            self.models.misses() + self.layers.misses(),
        )
    }
}

/// The grid builder: cross product of architectures × models ×
/// sparsities × seeds, in a fixed deterministic order.
#[derive(Debug, Clone, Default)]
pub struct Sweep {
    archs: Vec<Arch>,
    models: Vec<ModelSpec>,
    sparsities: Vec<f64>,
    seeds: Vec<u64>,
}

impl Sweep {
    /// An empty grid (defaults to seed 0 until [`Sweep::seeds`] is set).
    pub fn new() -> Self {
        Sweep::default()
    }

    /// Sets the architecture axis.
    pub fn archs(mut self, archs: impl IntoIterator<Item = Arch>) -> Self {
        self.archs = archs.into_iter().collect();
        self
    }

    /// Sets the workload axis.
    pub fn models(mut self, models: impl IntoIterator<Item = ModelSpec>) -> Self {
        self.models = models.into_iter().collect();
        self
    }

    /// Sets the sparsity axis.
    pub fn sparsities(mut self, sparsities: impl IntoIterator<Item = f64>) -> Self {
        self.sparsities = sparsities.into_iter().collect();
        self
    }

    /// Sets the seed axis (defaults to the single seed 0).
    pub fn seeds(mut self, seeds: impl IntoIterator<Item = u64>) -> Self {
        self.seeds = seeds.into_iter().collect();
        self
    }

    /// The job grid, ordered model → sparsity → arch → seed.
    pub fn jobs(&self) -> Vec<SimJob> {
        let seeds: &[u64] = if self.seeds.is_empty() {
            &[0]
        } else {
            &self.seeds
        };
        let mut jobs = Vec::with_capacity(self.len());
        for model in &self.models {
            for &sparsity in &self.sparsities {
                for &arch in &self.archs {
                    for &seed in seeds {
                        jobs.push(SimJob {
                            arch,
                            model: *model,
                            sparsity,
                            seed,
                        });
                    }
                }
            }
        }
        jobs
    }

    /// Grid size.
    pub fn len(&self) -> usize {
        self.models.len() * self.sparsities.len() * self.archs.len() * self.seeds.len().max(1)
    }

    /// Whether the grid has no points.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Runs the grid on `engine`.
    pub fn run(&self, engine: &SweepRunner) -> RunReport<ModelResult> {
        engine.run_models(&self.jobs())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    #[expect(
        clippy::disallowed_types,
        reason = "counts distinct jobs through the Hash impl"
    )]
    fn grid_is_the_full_cross_product() {
        let sweep = Sweep::new()
            .archs([Arch::Tc, Arch::TbStc])
            .models([ModelSpec::BertBase { tokens: 32 }])
            .sparsities([0.5, 0.75])
            .seeds([1, 2, 3]);
        let jobs = sweep.jobs();
        assert_eq!(jobs.len(), 12);
        assert_eq!(jobs.len(), sweep.len());
        let unique: std::collections::HashSet<_> = jobs.iter().cloned().collect();
        assert_eq!(unique.len(), 12);
    }

    #[test]
    fn default_seed_is_zero() {
        let sweep = Sweep::new()
            .archs([Arch::Tc])
            .models([ModelSpec::Gcn {
                nodes: 64,
                features: 16,
            }])
            .sparsities([0.5]);
        let jobs = sweep.jobs();
        assert_eq!(jobs.len(), 1);
        assert_eq!(jobs[0].seed, 0);
    }

    #[test]
    fn model_spec_builds_expected_kind() {
        let m = ModelSpec::BertBase { tokens: 32 }.build();
        assert_eq!(m.kind.to_string(), "BERT-base");
        assert!(!m.layers.is_empty());
    }

    #[test]
    #[expect(clippy::disallowed_types, reason = "tests the Hash impl")]
    fn sim_job_hash_distinguishes_sparsity_bits() {
        use std::collections::HashSet;
        let base = SimJob {
            arch: Arch::TbStc,
            model: ModelSpec::BertBase { tokens: 32 },
            sparsity: 0.5,
            seed: 0,
        };
        let mut other = base;
        other.sparsity = 0.75;
        let mut set = HashSet::new();
        set.insert(base);
        assert!(set.contains(&base));
        assert!(!set.contains(&other));
    }

    #[test]
    fn preloaded_entries_are_served_without_compute() {
        let cfg = HwConfig::paper_default();
        let job = SimJob {
            arch: Arch::Tc,
            model: ModelSpec::Gcn {
                nodes: 64,
                features: 16,
            },
            sparsity: 0.0,
            seed: 0,
        };
        let first = SweepRunner::with_runner(cfg, Runner::serial());
        let result = first.model(job);
        let entries = first.model_memo_entries();
        assert_eq!(entries.len(), 1);

        let second = SweepRunner::with_runner(cfg, Runner::serial());
        second.preload_models(entries);
        let report = second.run_models(std::slice::from_ref(&job));
        assert_eq!(report.results[0], result);
        assert_eq!(report.stats.unique_jobs, 0, "preload must prevent compute");
        assert_eq!(report.stats.cache_hits, 1);
    }

    #[test]
    fn chunked_run_is_bit_identical_to_monolithic() {
        let sweep = Sweep::new()
            .archs([Arch::Tc, Arch::TbStc, Arch::Stc])
            .models([ModelSpec::Gcn {
                nodes: 64,
                features: 16,
            }])
            .sparsities([0.25, 0.5, 0.75]);
        let jobs = sweep.jobs();

        let mono =
            SweepRunner::with_runner(HwConfig::paper_default(), Runner::serial()).run_models(&jobs);

        for chunk_size in [1, 2, 4, 100] {
            let engine = SweepRunner::with_runner(HwConfig::paper_default(), Runner::serial());
            let mut checkpoints = Vec::with_capacity(jobs.len());
            let rep = engine
                .run_models_chunked(&jobs, chunk_size, &mut |cp| {
                    checkpoints.push((cp.chunk_index, cp.done, cp.total));
                    ChunkControl::Continue
                })
                .expect("uninterrupted run completes");
            assert_eq!(
                rep.results, mono.results,
                "chunk_size {chunk_size} must not change results"
            );
            let last = checkpoints.last().copied().unwrap();
            assert_eq!(last.1, jobs.len(), "final checkpoint covers the grid");
            assert_eq!(last.2, jobs.len());
            assert_eq!(checkpoints.len(), jobs.len().div_ceil(chunk_size));
        }
    }

    #[test]
    fn stopped_run_resumes_recomputing_only_the_tail() {
        let sweep = Sweep::new()
            .archs([Arch::Tc, Arch::TbStc])
            .models([ModelSpec::Gcn {
                nodes: 64,
                features: 16,
            }])
            .sparsities([0.25, 0.5, 0.75]);
        let jobs = sweep.jobs();
        assert_eq!(jobs.len(), 6);

        let engine = SweepRunner::with_runner(HwConfig::paper_default(), Runner::serial());
        // Stop after the second chunk of two: 4 points done, 2 pending.
        let stopped = engine.run_models_chunked(&jobs, 2, &mut |cp| {
            if cp.chunk_index == 1 {
                ChunkControl::Stop
            } else {
                ChunkControl::Continue
            }
        });
        assert!(stopped.is_none(), "a stopped run yields no report");

        // The resumed run (same engine ≙ reloaded memo) recomputes only
        // the tail: 4 memo hits, 2 fresh computations.
        let resumed = engine
            .run_models_chunked(&jobs, 2, &mut |_| ChunkControl::Continue)
            .expect("resume completes");
        assert_eq!(resumed.stats.cache_hits, 4);
        assert_eq!(resumed.stats.unique_jobs, 2);

        let mono =
            SweepRunner::with_runner(HwConfig::paper_default(), Runner::serial()).run_models(&jobs);
        assert_eq!(
            resumed.results, mono.results,
            "resume is bit-identical to an uninterrupted run"
        );
    }

    #[test]
    fn overlapping_sweep_reuses_subspec_memo_points() {
        let engine = SweepRunner::with_runner(HwConfig::paper_default(), Runner::serial());
        let first = Sweep::new()
            .archs([Arch::Tc, Arch::TbStc])
            .models([ModelSpec::Gcn {
                nodes: 64,
                features: 16,
            }])
            .sparsities([0.5, 0.75]);
        engine.run_models(&first.jobs());

        // A *different* sweep sharing half its grid: every shared point
        // is a memo hit because the memo key is the single grid point,
        // not the enclosing sweep spec.
        let second = Sweep::new()
            .archs([Arch::Tc, Arch::TbStc, Arch::Stc])
            .models([ModelSpec::Gcn {
                nodes: 64,
                features: 16,
            }])
            .sparsities([0.5, 0.75]);
        let rep = engine.run_models(&second.jobs());
        assert_eq!(rep.stats.cache_hits, 4, "all overlapping points reused");
        assert_eq!(rep.stats.unique_jobs, 2, "only the new arch is computed");
    }

    #[test]
    fn engine_caches_repeated_jobs() {
        let engine = SweepRunner::with_runner(HwConfig::paper_default(), Runner::serial());
        let job = SimJob {
            arch: Arch::Tc,
            model: ModelSpec::Gcn {
                nodes: 64,
                features: 16,
            },
            sparsity: 0.0,
            seed: 0,
        };
        let a = engine.model(job);
        let b = engine.model(job);
        assert_eq!(a, b);
        let (hits, _) = engine.cache_stats();
        assert!(hits >= 1, "second run must be served from cache");
    }
}
