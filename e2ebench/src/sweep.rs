//! `sweep-paper`: what a paper-figure user waits for — a cold sweep of
//! the paper's models × all eight architectures × three sparsities —
//! plus the staged replay that times each simulator stage of any list of
//! grid points from outside, through the simulator's public functions.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

use tbstc::prelude::*;
use tbstc::sim::memory::{simulate_memory_on, FormatOverride};
use tbstc::sim::{sched, simulate_layer_on, BlockPlan, ModelResult, SimOptions};
use tbstc::sparsity::PatternKind;

use crate::check::{digest, mismatched_points};
use crate::report::{ARCH_NAMES, SIM_STAGES};
use crate::stats::median;
use crate::window::{self, keep_going, Slicer};
use crate::{Outcome, WORKERS};

/// The sparsities of the paper sweep.
pub const SPARSITIES: [f64; 3] = [0.5, 0.75, 0.875];

/// Set-ups measured after each pass; the median of all is reported.
const SETUP_REPS: usize = 11;

/// The paper grid for `seed`: models × sparsities × archs, the seed
/// choosing the sampled weights of every point.
pub fn paper_grid(seed: u64) -> Vec<SimJob> {
    Sweep::new()
        .archs(Arch::ALL)
        .models(ModelSpec::paper_set())
        .sparsities(SPARSITIES)
        .seeds([seed])
        .jobs()
}

fn engine(runner: Runner) -> SweepRunner {
    SweepRunner::with_runner(HwConfig::paper_default(), runner)
}

/// Per-point digests of one pass, for comparison with the serial replay.
fn point_digests(results: &[ModelResult]) -> Vec<u64> {
    results
        .iter()
        .map(|r| digest(std::slice::from_ref(r)))
        .collect()
}

/// The untraced workload: cold parallel passes over the paper grid until
/// `seconds` have elapsed, then a serial replay as the reference.
pub fn run(seed: u64, seconds: f64) -> Outcome {
    let mut out = Outcome::default();
    // Set-up: engine and grid construction plus model materialisation.
    // It takes microseconds, so a few reps follow every pass: the median
    // then spans the whole window rather than one moment of the host.
    let mut setups = Vec::with_capacity(32 * SETUP_REPS);
    let mut set_up = || {
        for _ in 0..SETUP_REPS {
            let t = Instant::now();
            let jobs = paper_grid(seed);
            let models: Vec<_> = ModelSpec::paper_set()
                .iter()
                .map(ModelSpec::build)
                .collect();
            let e = engine(Runner::new().with_workers(WORKERS));
            black_box((&jobs, &models, &e));
            setups.push(t.elapsed().as_secs_f64());
        }
    };
    let jobs = paper_grid(seed);
    // One pass first as warm-up (allocator arenas, page cache, thread
    // start-up); it is checked but not timed.
    let mut passes: Vec<Vec<u64>> = Vec::with_capacity(32);
    passes.push(point_digests(
        &engine(Runner::new().with_workers(WORKERS))
            .run_models(&jobs)
            .results,
    ));
    set_up();
    // Each pass is one slice: throughput and p50 are means over the
    // middle half of the passes.
    let mut slicer = Slicer::new(jobs.len());
    let window = Instant::now();
    while keep_going(window, seconds, slicer.count()) {
        let rep = engine(Runner::new().with_workers(WORKERS)).run_models(&jobs);
        let end = window.elapsed().as_secs_f64();
        for d in &rep.stats.job_wall {
            slicer.record(end, d.as_secs_f64() * 1e6);
        }
        passes.push(point_digests(&rep.results));
        set_up();
    }
    out.values.insert("setup_s".into(), median(&setups));
    window::record(&mut out, vec![slicer]);
    let points = (passes.len() * jobs.len()) as u64;

    let serial = engine(Runner::serial()).run_models(&jobs).results;
    let reference = point_digests(&serial);
    out.attempted = points;
    out.failed = passes
        .iter()
        .map(|p| {
            p.iter().zip(&reference).filter(|(a, b)| a != b).count() as u64
                + p.len().abs_diff(reference.len()) as u64
        })
        .sum();
    out.notes.push(format!(
        "sweep-paper: {} cold passes (one warm-up) of {} points on {WORKERS} workers; serial-replay digest {:016x}",
        passes.len(),
        jobs.len(),
        digest(&serial)
    ));
    out
}

/// Stage timings of one staged replay.
#[derive(Default)]
struct Stages {
    /// Per-call samples, µs, keyed by stage name.
    samples: BTreeMap<&'static str, Vec<f64>>,
    /// `simulate_layer_on` / `schedule_stream` samples per arch, µs.
    layer_by_arch: BTreeMap<&'static str, Vec<f64>>,
    schedule_by_arch: BTreeMap<&'static str, Vec<f64>>,
    layers: u64,
    blocks: u64,
    tasks: u64,
    point_traced_us: Vec<f64>,
}

fn us(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e6
}

/// The traced replay of `jobs` on the paper platform, reporting every
/// `sim.*` and the bench-side `runner.*` metric into `out`:
///
/// 1. a cold parallel pass gives the runner metrics (`RunStats`),
/// 2. a cold serial pass gives the untraced per-point time and the
///    reference results (the parallel pass must match it),
/// 3. the staged replay re-runs every layer stage by stage — layer
///    build, plan, pricing, schedule, memory — and then whole through
///    `simulate_layer_on`, whose result must equal the reference layer.
///
/// `sim.unattributed_us` is the whole-layer time minus the separately
/// timed stages (codec, energy and the gaps between them); the stage
/// sum plus it equals `sim.layer_us` by construction, and
/// `sim.attributed_ratio` shows how much of the layer the stages explain.
/// `sim.reconcile_ratio` compares layer build + layer time with the
/// untraced point time, and `sim.trace_overhead` the whole traced point
/// (every stage call plus the whole-layer call) with it.
pub fn trace(jobs: &[SimJob], out: &mut Outcome) {
    let cfg = HwConfig::paper_default();
    let par = engine(Runner::new().with_workers(WORKERS)).run_models(jobs);
    let serial = engine(Runner::serial()).run_models(jobs);
    out.attempted += jobs.len() as u64;
    out.failed += mismatched_points(&par.results, &serial.results) as u64;

    let s = &par.stats;
    let wall = s.wall.as_secs_f64().max(1e-12);
    let v = &mut out.values;
    v.insert(
        "runner.worker_utilization".into(),
        s.busy().as_secs_f64() / (wall * s.workers as f64),
    );
    v.insert(
        "runner.memo_hit_ratio".into(),
        s.cache_hits as f64 / s.jobs.max(1) as f64,
    );
    let max = s.job_wall.iter().max().copied().unwrap_or_default();
    v.insert("runner.point_max_ms".into(), max.as_secs_f64() * 1e3);

    let untraced: Vec<f64> = serial
        .stats
        .job_wall
        .iter()
        .map(|d| d.as_secs_f64() * 1e6)
        .collect();
    let untraced_total_us: f64 = untraced.iter().sum();

    let mut st = Stages::default();
    let mut wrong_layers = 0u64;
    for (job, reference) in jobs.iter().zip(&serial.results) {
        let arch_model = job.arch.model();
        let arch_name = job.arch.canonical_name();
        let policy = arch_model.native_schedule();
        let lanes = arch_model.lanes(cfg.pe);
        let width = cfg.lane_width();
        let model = job.model.build();
        let point = Instant::now();
        for (shape, want) in model.layers.iter().zip(&reference.layers) {
            // The same layer the sweep simulates: non-prunable layers
            // (CNN stem, classifier) stay dense.
            let (pattern, sparsity) = if shape.prunable {
                (arch_model.native_pattern(), job.sparsity)
            } else {
                (PatternKind::Dense, 0.0)
            };
            let t = Instant::now();
            let layer = LayerSim::new(shape)
                .arch(job.arch)
                .pattern(pattern)
                .sparsity(sparsity)
                .seed(job.seed)
                .build(&cfg);
            let build = us(t);
            let t = Instant::now();
            let plan = BlockPlan::build(&layer);
            let plan_us = us(t);
            let t = Instant::now();
            let works = arch_model.block_works_batch(&plan);
            let price = us(t);
            let t = Instant::now();
            black_box(sched::schedule_stream(
                &works,
                layer.sn,
                lanes / width,
                width,
                policy.inter,
                policy.intra,
            ));
            let schedule = us(t);
            let t = Instant::now();
            black_box(simulate_memory_on(
                arch_model,
                &layer,
                &plan,
                &cfg,
                FormatOverride::Native,
            ));
            let memory = us(t);
            let t = Instant::now();
            let res = simulate_layer_on(arch_model, &layer, &cfg, &SimOptions::native());
            let whole = us(t);
            if res.cycles != want.cycles
                || res.energy_pj.to_bits() != want.energy_pj.to_bits()
                || res.useful_macs != want.useful_macs
            {
                wrong_layers += 1;
            }
            for (stage, x) in [
                ("layer_build", build),
                ("plan", plan_us),
                ("price", price),
                ("schedule", schedule),
                ("memory", memory),
                ("layer", whole),
                (
                    "unattributed",
                    whole - (plan_us + price + schedule + memory),
                ),
            ] {
                st.samples.entry(stage).or_default().push(x);
            }
            st.layer_by_arch.entry(arch_name).or_default().push(whole);
            st.schedule_by_arch
                .entry(arch_name)
                .or_default()
                .push(schedule);
            st.layers += 1;
            st.blocks += plan.len() as u64;
            st.tasks += (works.len() * layer.sn) as u64;
        }
        st.point_traced_us.push(us(point));
    }
    if wrong_layers > 0 {
        out.checks_failed = true;
        out.notes.push(format!(
            "staged replay: {wrong_layers} layer(s) differ from the serial sweep"
        ));
    }

    let total = |stage: &str| -> f64 { st.samples.get(stage).map_or(0.0, |x| x.iter().sum()) };
    let v = &mut out.values;
    for stage in SIM_STAGES {
        let samples = st.samples.get(stage).map(Vec::as_slice).unwrap_or(&[]);
        v.insert(format!("sim.{stage}_us"), median(samples));
        v.insert(format!("sim.{stage}_total_s"), total(stage) / 1e6);
        v.insert(
            format!("sim.{stage}_share"),
            total(stage) / untraced_total_us.max(1e-9),
        );
    }
    for arch in ARCH_NAMES {
        let m =
            |map: &BTreeMap<&str, Vec<f64>>| median(map.get(arch).map_or(&[][..], Vec::as_slice));
        v.insert(format!("sim.layer_us.{arch}"), m(&st.layer_by_arch));
        v.insert(format!("sim.schedule_us.{arch}"), m(&st.schedule_by_arch));
    }
    v.insert("sim.layers".into(), st.layers as f64);
    v.insert("sim.blocks".into(), st.blocks as f64);
    v.insert("sim.sched_tasks".into(), st.tasks as f64);
    v.insert(
        "sim.schedule_ns_per_task".into(),
        total("schedule") * 1e3 / st.tasks.max(1) as f64,
    );
    v.insert("sim.point_untraced_us".into(), median(&untraced));
    v.insert("sim.point_traced_us".into(), median(&st.point_traced_us));
    let traced_total: f64 = st.point_traced_us.iter().sum();
    v.insert(
        "sim.trace_overhead".into(),
        traced_total / untraced_total_us.max(1e-9),
    );
    v.insert(
        "sim.reconcile_ratio".into(),
        (total("layer_build") + total("layer")) / untraced_total_us.max(1e-9),
    );
    let attributed = total("plan") + total("price") + total("schedule") + total("memory");
    v.insert(
        "sim.attributed_ratio".into(),
        attributed / total("layer").max(1e-9),
    );
    out.notes.push(format!(
        "staged replay of {} points / {} layers: build+layer = {:.3} x untraced point time, \
         stages explain {:.3} of layer time, traced point = {:.3} x untraced",
        jobs.len(),
        st.layers,
        v["sim.reconcile_ratio"],
        v["sim.attributed_ratio"],
        v["sim.trace_overhead"],
    ));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grid_follows_the_seed() {
        let a = paper_grid(7);
        assert_eq!(a.len(), 5 * 3 * 8);
        assert_eq!(a, paper_grid(7), "same seed, same grid");
        let b = paper_grid(8);
        assert_ne!(a, b, "another seed samples other weights");
        assert!(a
            .iter()
            .zip(&b)
            .all(|(x, y)| (x.arch, x.model) == (y.arch, y.model)));
    }
}
