//! Wall-clock performance harness for the hot-path and serve work.
//!
//! Times the three numeric hot paths — the training step, Algorithm-1
//! sparsification and the layer simulation — and compares the optimized
//! training step against [`reference`], a faithful re-implementation of
//! the pre-optimization ("seed") trainer: effective weights cloned and
//! transposed per call, gradients through owned `transpose` + `matmul`,
//! index-loop SGD updates, fresh allocations everywhere. A loopback run
//! against `tbstc-serve` adds end-to-end server throughput and the cache
//! hit rate. A per-architecture `simulate_layer` sweep times the full
//! pipeline once per registry entry, so registry-dispatch regressions show
//! up per baseline. The simulation measurements run on a pre-built
//! [`SparseLayer`] (every measurement gets a warm-up call before timing),
//! so they isolate the simulation core from weight generation and
//! pruning; sparsification has its own measurement, and the
//! `BlockPlan` build cost is reported separately as `plan_build_us`. A
//! full `tbstc-lint` workspace run (`lint_workspace_us`) keeps the
//! analysis pass's cost visible.
//!
//! The serve numbers come from one high-concurrency zipfian run of the
//! event-driven load generator ([`crate::loadgen`]; the `loadgen_*`
//! keys — 1k keep-alive connections by default) that exercises the
//! event loop, coalescing, and both cache tiers at once. The report is
//! written as JSON (hand-rolled; the workspace is offline and carries no
//! serde) to `BENCH_PR10.json`.

use std::time::Instant;

use crate::loadgen::{self, LoadReport, LoadgenConfig};

use tbstc::matrix::gemm;
use tbstc::matrix::pool;
use tbstc::matrix::rng::MatrixRng;
use tbstc::matrix::Matrix;
use tbstc::models::LayerShape;
use tbstc::prelude::*;

/// Knobs for the perf harness.
#[derive(Debug, Clone, PartialEq)]
pub struct PerfConfig {
    /// Timed iterations per measurement (the minimum is reported).
    pub iters: usize,
    /// RNG seed for weights and data.
    pub seed: u64,
    /// Keep-alive connections for the standing zipfian loadgen run.
    pub loadgen_connections: usize,
    /// Total requests for the standing zipfian loadgen run.
    pub loadgen_requests: usize,
}

impl Default for PerfConfig {
    fn default() -> Self {
        PerfConfig {
            iters: 20,
            seed: 42,
            loadgen_connections: 1000,
            loadgen_requests: 8000,
        }
    }
}

/// One timed quantity: best (minimum) time over the iterations, in
/// microseconds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Timing {
    /// Minimum observed time, µs.
    pub best_us: f64,
    /// Mean time, µs.
    pub mean_us: f64,
}

/// The harness output, serialized to `BENCH_PR10.json`.
#[derive(Debug, Clone, PartialEq)]
pub struct PerfReport {
    /// Iterations per measurement.
    pub iters: usize,
    /// Worker threads the parallel GEMM would use (`TBSTC_JOBS` / cores).
    pub workers: usize,
    /// Seed-path training step (pre-PR kernels).
    pub train_step_old: Timing,
    /// Optimized training step (cached masked weights, transpose-free
    /// kernels, reused scratch).
    pub train_step_new: Timing,
    /// `train_step_old.best_us / train_step_new.best_us`.
    pub train_speedup: f64,
    /// Algorithm-1 TBS sparsification of a 128×128 matrix at 75 %.
    pub sparsify: Timing,
    /// `BlockPlan::build` alone on the simulation layer (the one-pass
    /// occupancy scan every `simulate_layer` call starts with).
    pub plan_build: Timing,
    /// Full per-layer simulation (plan + compute + memory + codec) on a
    /// pre-built pruned layer.
    pub simulate_layer: Timing,
    /// The same per-layer simulation, once per registered architecture
    /// (canonical name, timing) in registry order.
    pub simulate_layer_by_arch: Vec<(&'static str, Timing)>,
    /// Whether the parallel GEMM reproduced the serial result bit for bit.
    pub parallel_gemm_bit_identical: bool,
    /// Full `tbstc-lint` run over every workspace source file.
    pub lint: Timing,
    /// Chunked checkpointed sweep time over the monolithic sweep on the
    /// same fresh grid — the price of durable execution (observer calls,
    /// chunk bookkeeping). Must stay near 1.0.
    pub sweep_resume_overhead: f64,
    /// Fraction of a second, overlapping sweep's grid points answered by
    /// the sub-spec memo (grid-point granularity) instead of recomputed.
    pub memo_subspec_hit_rate: f64,
    /// The standing high-concurrency zipfian loadgen run.
    pub loadgen: LoadReport,
}

impl PerfReport {
    /// Hand-rolled JSON encoding of the report.
    pub fn to_json(&self) -> String {
        fn timing(t: &Timing) -> String {
            format!(
                "{{ \"best_us\": {:.2}, \"mean_us\": {:.2} }}",
                t.best_us, t.mean_us
            )
        }
        let by_arch = self
            .simulate_layer_by_arch
            .iter()
            .map(|(name, t)| format!("    \"{name}\": {}", timing(t)))
            .collect::<Vec<_>>()
            .join(",\n");
        format!(
            "{{\n  \"bench\": \"hot paths, lint pass and loopback serve perf\",\n  \"iters\": {},\n  \"workers\": {},\n  \"train_step_old_us\": {},\n  \"train_step_new_us\": {},\n  \"train_speedup\": {:.3},\n  \"sparsify_128x128_us\": {},\n  \"plan_build_us\": {},\n  \"simulate_layer_us\": {},\n  \"simulate_layer_by_arch_us\": {{\n{by_arch}\n  }},\n  \"parallel_gemm_bit_identical\": {},\n  \"lint_workspace_us\": {},\n  \"sweep_resume_overhead\": {:.3},\n  \"memo_subspec_hit_rate\": {:.3},\n  \"loadgen_connections\": {},\n  \"loadgen_requests\": {},\n  \"loadgen_failed\": {},\n  \"loadgen_rps\": {:.2},\n  \"loadgen_p50_us\": {:.1},\n  \"loadgen_p99_us\": {:.1},\n  \"loadgen_p999_us\": {:.1},\n  \"loadgen_hit_rate\": {:.4}\n}}\n",
            self.iters,
            self.workers,
            timing(&self.train_step_old),
            timing(&self.train_step_new),
            self.train_speedup,
            timing(&self.sparsify),
            timing(&self.plan_build),
            timing(&self.simulate_layer),
            self.parallel_gemm_bit_identical,
            timing(&self.lint),
            self.sweep_resume_overhead,
            self.memo_subspec_hit_rate,
            self.loadgen.connections,
            self.loadgen.completed + self.loadgen.failed,
            self.loadgen.failed,
            self.loadgen.rps,
            self.loadgen.p50_us,
            self.loadgen.p99_us,
            self.loadgen.p999_us,
            self.loadgen.hit_rate,
        )
    }
}

/// Times `a` and `b` in alternation (one warm-up call each, then `iters`
/// rounds of one call each) for keys reported as a ratio: host noise then
/// lands on both sides alike instead of on whichever ran during a burst,
/// which matters once a call takes only a few milliseconds.
pub fn time_pair_us(iters: usize, mut a: impl FnMut(), mut b: impl FnMut()) -> (Timing, Timing) {
    a();
    b();
    let mut timings = [(f64::INFINITY, 0.0); 2];
    for _ in 0..iters.max(1) {
        for (side, f) in [&mut a as &mut dyn FnMut(), &mut b].into_iter().enumerate() {
            let t0 = Instant::now();
            f();
            let dt = t0.elapsed().as_secs_f64() * 1e6;
            timings[side].0 = timings[side].0.min(dt);
            timings[side].1 += dt;
        }
    }
    let [a, b] = timings.map(|(best, total)| Timing {
        best_us: best,
        mean_us: total / iters.max(1) as f64,
    });
    (a, b)
}

/// Times `f` over `iters` iterations (after one warm-up call) and returns
/// best/mean in microseconds.
pub fn time_us<F: FnMut()>(iters: usize, mut f: F) -> Timing {
    f(); // warm-up: grows scratch buffers, fills caches
    let mut best = f64::INFINITY;
    let mut total = 0.0;
    for _ in 0..iters.max(1) {
        let t0 = Instant::now();
        f();
        let dt = t0.elapsed().as_secs_f64() * 1e6;
        best = best.min(dt);
        total += dt;
    }
    Timing {
        best_us: best,
        mean_us: total / iters.max(1) as f64,
    }
}

/// The pre-optimization training path, kept verbatim as the perf baseline.
pub mod reference {
    use super::*;

    /// Seed-path linear layer: owned matrices, no caching, no scratch.
    pub struct RefLinear {
        w: Matrix,
        b: Vec<f32>,
        vw: Matrix,
        vb: Vec<f32>,
        mask: Option<Mask>,
    }

    impl RefLinear {
        fn effective_w(&self) -> Matrix {
            match &self.mask {
                Some(m) => m.apply(&self.w),
                None => self.w.clone(),
            }
        }

        fn forward(&self, x: &Matrix) -> Matrix {
            let mut h = gemm::matmul(x, &self.effective_w().transpose());
            for r in 0..h.rows() {
                for c in 0..h.cols() {
                    h[(r, c)] += self.b[c];
                }
            }
            h
        }

        fn backward_update(&mut self, x: &Matrix, dh: &Matrix, lr: f32, momentum: f32) -> Matrix {
            let n = x.rows().max(1) as f32;
            let dw = gemm::matmul(&dh.transpose(), x).map(|g| g / n);
            let dx = gemm::matmul(dh, &self.effective_w());
            for c in 0..self.b.len() {
                let db: f32 = (0..dh.rows()).map(|r| dh[(r, c)]).sum::<f32>() / n;
                self.vb[c] = momentum * self.vb[c] - lr * db;
                self.b[c] += self.vb[c];
            }
            for r in 0..self.w.rows() {
                for c in 0..self.w.cols() {
                    self.vw[(r, c)] = momentum * self.vw[(r, c)] - lr * dw[(r, c)];
                    self.w[(r, c)] += self.vw[(r, c)];
                }
            }
            dx
        }
    }

    /// Seed-path MLP mirroring `tbstc_train::Mlp` before this PR.
    pub struct RefMlp {
        layers: Vec<RefLinear>,
        lr: f32,
        momentum: f32,
    }

    impl RefMlp {
        /// Same initialization order as `Mlp::new`, so both nets start from
        /// identical weights.
        pub fn new(cfg: &MlpConfig, seed: u64) -> Self {
            let mut rng = MatrixRng::seed_from(seed);
            let mut dims = vec![cfg.inputs];
            dims.extend(&cfg.hidden);
            dims.push(cfg.classes);
            let layers = dims
                .windows(2)
                .map(|w| RefLinear {
                    w: rng.weights(w[1], w[0]),
                    b: vec![0.0; w[1]],
                    vw: Matrix::zeros(w[1], w[0]),
                    vb: vec![0.0; w[1]],
                    mask: None,
                })
                .collect();
            RefMlp {
                layers,
                lr: cfg.lr,
                momentum: cfg.momentum,
            }
        }

        /// Sets a layer's mask (seed-path semantics: applied per call).
        pub fn set_mask(&mut self, i: usize, mask: Option<Mask>) {
            self.layers[i].mask = mask;
        }

        /// One SGD step, seed arithmetic and allocation behaviour.
        pub fn train_batch(&mut self, x: &Matrix, labels: &[usize]) -> f64 {
            let mut acts = Vec::with_capacity(self.layers.len());
            let mut h = x.clone();
            for (i, layer) in self.layers.iter().enumerate() {
                acts.push(h.clone());
                h = layer.forward(&h);
                if i + 1 < self.layers.len() {
                    h.map_inplace(|v| v.max(0.0));
                }
            }
            let probs = softmax_rows(&h);

            let n = x.rows();
            let mut loss = 0.0f64;
            let mut grad = probs.clone();
            for (i, &y) in labels.iter().enumerate() {
                loss -= f64::from(probs[(i, y)].max(1e-12).ln());
                grad[(i, y)] -= 1.0;
            }
            loss /= n as f64;

            for li in (0..self.layers.len()).rev() {
                let (lr, mom) = (self.lr, self.momentum);
                let mut dx = self.layers[li].backward_update(&acts[li], &grad, lr, mom);
                if li > 0 {
                    for r in 0..dx.rows() {
                        for c in 0..dx.cols() {
                            if acts[li][(r, c)] <= 0.0 {
                                dx[(r, c)] = 0.0;
                            }
                        }
                    }
                }
                grad = dx;
            }
            loss
        }
    }

    fn softmax_rows(logits: &Matrix) -> Matrix {
        let mut out = logits.clone();
        for r in 0..out.rows() {
            let row = out.row_mut(r);
            let max = row.iter().copied().fold(f32::NEG_INFINITY, f32::max);
            let mut sum = 0.0f32;
            for v in row.iter_mut() {
                *v = (*v - max).exp();
                sum += *v;
            }
            for v in row.iter_mut() {
                *v /= sum.max(1e-12);
            }
        }
        out
    }
}

/// Boots a loopback `tbstc-serve` on a fresh cache directory and runs
/// the load generator against it. Failures degrade to zeroed stats
/// rather than failing the harness.
fn run_loadgen_against_fresh_server(tag: &str, load: &LoadgenConfig) -> LoadReport {
    let zeroed = LoadReport {
        connections: 0,
        completed: 0,
        failed: 0,
        elapsed_s: 0.0,
        rps: 0.0,
        p50_us: 0.0,
        p99_us: 0.0,
        p999_us: 0.0,
        hit_rate: 0.0,
    };
    let dir = std::env::temp_dir().join(format!(
        "tbstc-bench-serve-{tag}-{}-{}",
        std::process::id(),
        load.seed
    ));
    let _ = std::fs::remove_dir_all(&dir);
    let cfg = tbstc_serve::ServeConfig {
        addr: "127.0.0.1:0".into(),
        cache_dir: dir.clone(),
        quiet: true,
        // Enough headroom that a fully cold burst of distinct specs is
        // admitted rather than 429'd; steady state barely uses it.
        queue_capacity: 256,
        ..tbstc_serve::ServeConfig::default()
    };
    let Ok(server) = tbstc_serve::Server::bind(cfg) else {
        return zeroed;
    };
    let Ok(running) = server.spawn() else {
        return zeroed;
    };
    let report = loadgen::run(&LoadgenConfig {
        addr: running.addr.to_string(),
        ..load.clone()
    })
    .unwrap_or(zeroed);
    running.shutdown_and_join();
    let _ = std::fs::remove_dir_all(&dir);
    report
}

/// The standing high-concurrency run: zipfian popularity over 64
/// distinct specs, `loadgen_connections` keep-alive connections.
fn measure_loadgen(cfg: &PerfConfig) -> LoadReport {
    run_loadgen_against_fresh_server(
        "zipf",
        &LoadgenConfig {
            connections: cfg.loadgen_connections,
            requests: cfg.loadgen_requests,
            distinct_specs: 64,
            zipf_exponent: 1.1,
            seed: cfg.seed,
            ..LoadgenConfig::default()
        },
    )
}

/// The MLP shape the train-step measurements use: hidden widths in the
/// range of the paper's transformer workloads (BERT-base/OPT FFN slices),
/// large enough that the GEMMs dominate, small enough to keep the harness
/// under a few seconds.
pub fn perf_net_config() -> MlpConfig {
    MlpConfig {
        inputs: 512,
        hidden: vec![512, 256],
        classes: 16,
        lr: 0.05,
        momentum: 0.9,
    }
}

/// Builds batch data for the train-step measurements.
fn perf_batch(cfg: &MlpConfig, batch: usize, seed: u64) -> (Matrix, Vec<usize>) {
    let x = MatrixRng::seed_from(seed).weights(batch, cfg.inputs);
    let labels = (0..batch).map(|i| i % cfg.classes).collect();
    (x, labels)
}

/// Runs every measurement and assembles the report.
pub fn run(cfg: &PerfConfig) -> PerfReport {
    let net_cfg = perf_net_config();
    // Batch 32 matches the repo's own training configuration (every
    // Dataset-driven test and SparseTrainer run batches of 16–32).
    let (x, labels) = perf_batch(&net_cfg, 32, cfg.seed);

    // Masks on every prunable (non-classifier) layer, as SparseTrainer
    // maintains them during sparse training.
    let mut net = Mlp::new(&net_cfg, cfg.seed);
    let mut old = reference::RefMlp::new(&net_cfg, cfg.seed);
    for li in 0..net.layer_count() - 1 {
        let p = TbsPattern::sparsify(net.weights(li), 0.75, &TbsConfig::paper_default());
        net.set_mask(li, Some(p.mask().clone()));
        old.set_mask(li, Some(p.mask().clone()));
    }

    // Optimized trainer (cached masked weights, transpose-free kernels,
    // reused scratch).
    let train_step_new = time_us(cfg.iters, || {
        net.train_batch(&x, &labels);
    });

    // Seed-path trainer over identical work.
    let train_step_old = time_us(cfg.iters, || {
        old.train_batch(&x, &labels);
    });

    // Algorithm-1 sparsification, the paper's 128×128 block-structured case.
    let w = MatrixRng::seed_from(cfg.seed).block_structured_weights(128, 128, 8);
    let sparsify = time_us(cfg.iters, || {
        std::hint::black_box(TbsPattern::sparsify(&w, 0.75, &TbsConfig::paper_default()));
    });

    // Full layer pipeline on a BERT-sized FFN slice. The layer is built
    // (weights + pruning) once outside the timed region: the measurement
    // isolates the simulation core — plan, compute, memory, codec — which
    // is what serving and sweeps pay per request on memoized layers.
    let shape = LayerShape {
        name: "perf-ffn".into(),
        m: 256,
        k: 256,
        n: 64,
        repeats: 1,
        prunable: true,
    };
    let hw = HwConfig::paper_default();
    let layer = LayerSim::new(&shape)
        .arch(Arch::TbStc)
        .sparsity(0.75)
        .seed(cfg.seed)
        .build(&hw);
    let plan_build = time_us(cfg.iters, || {
        std::hint::black_box(tbstc::sim::BlockPlan::build(&layer));
    });
    let simulate_layer = time_us(cfg.iters, || {
        std::hint::black_box(tbstc::sim::simulate_layer(Arch::TbStc, &layer, &hw));
    });

    // The same layer once per registered architecture (each pruned with
    // its native pattern, pre-built): per-baseline simulation cost
    // through the registry.
    let simulate_layer_by_arch = Arch::ALL
        .iter()
        .map(|&arch| {
            let layer = LayerSim::new(&shape)
                .arch(arch)
                .sparsity(0.75)
                .seed(cfg.seed)
                .build(&hw);
            (
                arch.canonical_name(),
                time_us(cfg.iters, || {
                    std::hint::black_box(tbstc::sim::simulate_layer(arch, &layer, &hw));
                }),
            )
        })
        .collect();

    // Record that the parallel GEMM is bit-identical to serial.
    let a = MatrixRng::seed_from(cfg.seed).weights(192, 96);
    let b = MatrixRng::seed_from(cfg.seed + 1).weights(160, 96);
    let mut scratch = gemm::GemmScratch::new();
    let mut serial = Matrix::zeros(0, 0);
    let mut parallel = Matrix::zeros(0, 0);
    gemm::matmul_transb_with_workers(&a, &b, &mut serial, 1, &mut scratch);
    gemm::matmul_transb_with_workers(
        &a,
        &b,
        &mut parallel,
        pool::available_workers().max(2),
        &mut scratch,
    );
    let parallel_gemm_bit_identical = serial == parallel;

    // A full static-analysis pass over the workspace's own sources. The
    // bench crate sits at crates/bench, so the root is two levels up.
    let lint_root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(std::path::Path::parent)
        .map(std::path::Path::to_path_buf)
        .unwrap_or_default();
    let lint = time_us(cfg.iters, || {
        std::hint::black_box(tbstc_lint::lint_workspace(&tbstc_lint::LintOptions {
            root: lint_root.clone(),
            rules: None,
            baseline: None,
        }))
        .ok();
    });

    // Durable-execution costs on the runner itself. Monolithic vs
    // chunked (chunk size 2, a counting observer) over identical fresh
    // grids: the ratio is the pure overhead of checkpointed execution —
    // both paths compute every point because each iteration starts with
    // a cold SweepRunner.
    let sweep_grid = Sweep::new()
        .archs([Arch::TbStc, Arch::Stc])
        .models([ModelSpec::Gcn {
            nodes: 64,
            features: 16,
        }])
        .sparsities([0.5, 0.75])
        .jobs();
    let (sweep_monolithic, sweep_chunked) = time_pair_us(
        cfg.iters,
        || {
            let engine = SweepRunner::new(HwConfig::paper_default());
            std::hint::black_box(engine.run_models(&sweep_grid));
        },
        || {
            let engine = SweepRunner::new(HwConfig::paper_default());
            let mut chunks = 0usize;
            std::hint::black_box(engine.run_models_chunked(&sweep_grid, 2, &mut |_| {
                chunks += 1;
                tbstc::runner::ChunkControl::Continue
            }));
            std::hint::black_box(chunks);
        },
    );
    let sweep_resume_overhead = sweep_chunked.best_us / sweep_monolithic.best_us.max(1e-9);

    // Sub-spec memoization across overlapping sweeps: warm one grid,
    // then run a second sweep sharing half its points on the same
    // engine; the shared half must come from the memo.
    let memo_engine = SweepRunner::new(HwConfig::paper_default());
    memo_engine.run_models(&sweep_grid);
    let overlapping = Sweep::new()
        .archs([Arch::TbStc, Arch::Stc])
        .models([ModelSpec::Gcn {
            nodes: 64,
            features: 16,
        }])
        .sparsities([0.75, 0.875])
        .jobs();
    let (hits_before, _) = memo_engine.cache_stats();
    memo_engine.run_models(&overlapping);
    let (hits_after, _) = memo_engine.cache_stats();
    let memo_subspec_hit_rate = (hits_after - hits_before) as f64 / overlapping.len().max(1) as f64;

    let loadgen = measure_loadgen(cfg);

    PerfReport {
        iters: cfg.iters,
        workers: pool::available_workers(),
        train_speedup: train_step_old.best_us / train_step_new.best_us.max(1e-9),
        train_step_old,
        train_step_new,
        sparsify,
        plan_build,
        simulate_layer,
        simulate_layer_by_arch,
        parallel_gemm_bit_identical,
        lint,
        sweep_resume_overhead,
        memo_subspec_hit_rate,
        loadgen,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_json_is_well_formed() {
        let t = Timing {
            best_us: 1.5,
            mean_us: 2.0,
        };
        let r = PerfReport {
            iters: 3,
            workers: 2,
            train_step_old: t,
            train_step_new: t,
            train_speedup: 1.0,
            sparsify: t,
            plan_build: t,
            simulate_layer: t,
            simulate_layer_by_arch: vec![("tc", t), ("tb-stc", t)],
            parallel_gemm_bit_identical: true,
            lint: t,
            sweep_resume_overhead: 1.02,
            memo_subspec_hit_rate: 0.5,
            loadgen: LoadReport {
                connections: 1000,
                completed: 7990,
                failed: 10,
                elapsed_s: 2.0,
                rps: 3995.0,
                p50_us: 150.0,
                p99_us: 1200.0,
                p999_us: 4000.0,
                hit_rate: 0.97,
            },
        };
        let json = r.to_json();
        assert!(json.contains("\"train_speedup\": 1.000"));
        assert!(json.contains("\"plan_build_us\""));
        assert!(json.contains("\"simulate_layer_by_arch_us\""));
        assert!(json.contains("\"tb-stc\":"));
        assert!(json.contains("\"parallel_gemm_bit_identical\": true"));
        assert!(json.contains("\"lint_workspace_us\""));
        assert!(json.contains("\"sweep_resume_overhead\": 1.020"));
        assert!(json.contains("\"memo_subspec_hit_rate\": 0.500"));
        assert!(json.contains("\"loadgen_connections\": 1000"));
        assert!(json.contains("\"loadgen_requests\": 8000"));
        assert!(json.contains("\"loadgen_failed\": 10"));
        assert!(json.contains("\"loadgen_p999_us\": 4000.0"));
        assert!(json.contains("\"loadgen_hit_rate\": 0.9700"));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
    }

    #[test]
    fn harness_runs_and_reports_speedup() {
        let r = run(&PerfConfig {
            iters: 2,
            seed: 1,
            // Keep the standing loadgen run test-sized; the real report
            // is generated with the 1k-connection defaults.
            loadgen_connections: 32,
            loadgen_requests: 192,
        });
        assert!(r.train_step_new.best_us > 0.0);
        assert!(r.train_speedup > 1.0, "speedup {}", r.train_speedup);
        assert_eq!(r.simulate_layer_by_arch.len(), Arch::ALL.len());
        assert!(r
            .simulate_layer_by_arch
            .iter()
            .all(|(_, t)| t.best_us > 0.0));
        assert!(r.parallel_gemm_bit_identical);
        assert!(
            r.sweep_resume_overhead > 0.0 && r.sweep_resume_overhead < 1.5,
            "chunked execution costs more than 1.5x the monolithic sweep: {:.3}",
            r.sweep_resume_overhead
        );
        assert!(
            (r.memo_subspec_hit_rate - 0.5).abs() < f64::EPSILON,
            "half the overlapping grid must replay from the memo: {}",
            r.memo_subspec_hit_rate
        );
        assert!(
            r.lint.best_us > 0.0 && r.lint.best_us < 2e6,
            "full lint run must stay under 2 s, got {} us",
            r.lint.best_us
        );
        assert_eq!(r.loadgen.failed, 0, "zipfian run is clean: {:?}", r.loadgen);
        assert_eq!(r.loadgen.completed, 192);
        assert!(r.loadgen.rps > 0.0 && r.loadgen.p999_us >= r.loadgen.p99_us);
    }
}
