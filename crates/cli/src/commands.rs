//! Subcommand implementations. Each returns its output as a `String` so
//! the commands are unit-testable without capturing stdout.

use std::fmt::Write as _;

use tbstc::energy::table3::{a100_integration_overhead, table3_rows};
use tbstc::formats::{Csr, Ddc, Sdc};
use tbstc::matrix::rng::MatrixRng;
use tbstc::models::{bert_base, llama2_7b, opt_6_7b, resnet18, resnet50};
use tbstc::prelude::*;
use tbstc::sparsity::similarity::similarity_sweep;
use tbstc::sparsity::stats::classify_blocks;

use crate::args::{ArgError, ParsedArgs};

/// The help text.
pub const USAGE: &str = "\
tbstc-cli — TB-STC (HPCA 2025) reproduction toolkit

USAGE:
  tbstc-cli prune    [--rows 128] [--cols 128] [--sparsity 0.75] [--block 8] [--seed 0]
  tbstc-cli formats  [--rows 128] [--cols 128] [--sparsity 0.75] [--seed 0]
  tbstc-cli simulate [--model bert] [--arch tb-stc | --arch-spec FILE]
                     [--sparsity 0.75] [--bandwidth 64] [--seed 0] [--json]
  tbstc-cli archs    [--json]
  tbstc-cli arch     show <name>
  tbstc-cli sweep    [--models bert,resnet50] [--archs tb-stc,rm-stc,highlight]
                     [--sparsities 0.5,0.75] [--seed 0] [--bandwidth 64]
                     [--jobs N] [--verify] [--json]
  tbstc-cli serve    [--addr 127.0.0.1:7878] [--cache-dir .tbstc-cache]
                     [--queue 32] [--job-workers N] [--hold-ms 0] [--quiet]
                     [--chunk-size 16] [--long-job-points 8] [--chunk-hold-ms 0]
                     [--oneshot --job FILE]
  tbstc-cli submit   --job FILE [--addr 127.0.0.1:7878] [--follow]
  tbstc-cli jobs     list|status|cancel|resume [KEY] [--addr 127.0.0.1:7878]
  tbstc-cli loadgen  [--addr HOST:PORT] [--connections 64] [--requests 512]
                     [--specs 16] [--zipf 1.1] [--seed 1] [--min-rps 0] [--json]
  tbstc-cli lint     [--deny-warnings] [--json] [--root DIR]
  tbstc-cli table3
  tbstc-cli models
  tbstc-cli help

Models: resnet50, resnet18, bert, opt, llama, gcn
Archs:  tc, stc, vegeta, highlight, rm-stc, tb-stc, dvpe-fan, sgcn

`sweep` runs the cross product models x archs x sparsities in parallel
(worker count from --jobs, the TBSTC_JOBS env var, or the machine),
adds a dense TC baseline per model, and reports speedup/EDP against it.
--verify simulates every point again on its own (simulate_model_on,
which shares no sample, pruned layer or plan with other points) and
checks the sweep's result is bit-identical to it.

`serve` runs the HTTP job service: POST job specs to /v1/jobs, scrape
Prometheus metrics from /metrics. Results are cached on disk under
--cache-dir keyed by the canonicalized spec, so identical jobs are
byte-identical cache hits even across restarts. --oneshot boots on an
ephemeral port, submits --job FILE twice (the second must be a cache
hit), prints the metrics text, and exits — the CI smoke test.

`submit` posts a job-spec file to a running server and prints the
response body (stdout) plus cache status (stderr). Jobs whose grid
exceeds the server's --long-job-points threshold are accepted 202 into
the durable queue; --follow polls the job until it completes and then
prints the result body, so scripted submits work the same for short
and long jobs.

`jobs` manages durable jobs on a running server: `list` tabulates
every job's lifecycle state, `status KEY` prints the result (or the
progress document while running), `cancel KEY` stops a job at its next
chunk boundary, and `resume KEY` re-enqueues a cancelled or failed job
— completed grid points replay from the sweep memo, so only the
unfinished tail recomputes.

`loadgen` drives an event-driven load generator against a server:
--connections keep-alive connections issue --requests submissions
with zipfian popularity over --specs distinct job specs, seeded by
--seed so the sequence replays exactly. Without --addr it boots a
private server on an ephemeral port first. Reports rps and p50/p99/
p999 latency; exits nonzero if any request fails or rps falls below
--min-rps (CI's floor).

`archs` lists the architecture registry (names, aliases, lane counts);
`arch show <name>` prints a builtin's `tbstc.v1` spec document. Save
it, edit it, and run it with `simulate --arch-spec FILE` (or POST it
inline as `arch_spec` to a server) to simulate your own architecture.

`--json` on simulate/sweep emits the same canonical machine-readable
body the server returns, instead of the human tables.

`lint` runs the workspace's own static analyzer (tbstc-lint) over
crates/*/src: four per-file rules (lock-discipline, hot-path-alloc,
blocking-in-event-loop, store-lock-discipline) plus one
workspace-wide structural rule (lock-order deadlock-cycle detection
over the lock-acquisition graph) with file:line:col output.
Errors always fail; warnings fail only with --deny-warnings (CI's
mode). There is no suppression: fix the code or the rule. The panic,
determinism and unsafe policies are clippy/rustc lints
(`cargo clippy --all-targets -- -D warnings`).
";

/// Dispatches a parsed command line.
///
/// # Errors
///
/// Returns [`ArgError`] for unknown subcommands or invalid options.
pub fn run(args: &ParsedArgs) -> Result<String, ArgError> {
    if !matches!(args.command.as_str(), "arch" | "jobs") {
        if let Some(stray) = args.positionals.first() {
            return Err(ArgError(format!(
                "unexpected argument `{stray}`; options start with --"
            )));
        }
    }
    if let Some(known) = options_of(&args.command) {
        if let Some(unknown) = args.options.keys().find(|k| !known.contains(&k.as_str())) {
            let options = if known.is_empty() {
                "it takes none".to_string()
            } else {
                format!("options are --{}", known.join(", --"))
            };
            return Err(ArgError(format!(
                "{}: unknown option --{unknown}; {options}",
                args.command
            )));
        }
    }
    match args.command.as_str() {
        "prune" => prune(args),
        "formats" => formats(args),
        "simulate" => simulate(args),
        "archs" => Ok(archs(args)),
        "arch" => arch_cmd(args),
        "sweep" => sweep(args),
        "serve" => serve(args),
        "submit" => submit(args),
        "jobs" => jobs_cmd(args),
        "loadgen" => loadgen(args),
        "lint" => lint(args),
        "table3" => Ok(table3()),
        "models" => Ok(models()),
        other => Err(ArgError(format!(
            "unknown subcommand `{other}`; try `help`"
        ))),
    }
}

/// The options each subcommand reads; `None` for an unknown subcommand.
/// Any other `--option` is rejected, so a misspelt flag fails instead of
/// silently running with its default.
fn options_of(command: &str) -> Option<&'static [&'static str]> {
    Some(match command {
        "prune" => &["rows", "cols", "sparsity", "block", "seed"],
        "formats" => &["rows", "cols", "sparsity", "seed"],
        "simulate" => &[
            "model",
            "arch",
            "arch-spec",
            "sparsity",
            "bandwidth",
            "seed",
            "json",
        ],
        "archs" => &["json"],
        "sweep" => &[
            "models",
            "archs",
            "sparsities",
            "seed",
            "bandwidth",
            "jobs",
            "verify",
            "json",
        ],
        "serve" => &[
            "addr",
            "cache-dir",
            "queue",
            "job-workers",
            "hold-ms",
            "quiet",
            "chunk-size",
            "long-job-points",
            "chunk-hold-ms",
            "oneshot",
            "job",
        ],
        "submit" => &["job", "addr", "follow"],
        "jobs" => &["addr"],
        "loadgen" => &[
            "addr",
            "connections",
            "requests",
            "specs",
            "zipf",
            "seed",
            "min-rps",
            "json",
        ],
        "lint" => &["deny-warnings", "json", "root"],
        "arch" | "table3" | "models" => &[],
        _ => return None,
    })
}

fn parse_arch(name: &str) -> Result<Arch, ArgError> {
    // One name table for CLI, server, and caches: the archs registry.
    name.parse::<Arch>().map_err(|e| ArgError(e.to_string()))
}

fn parse_model_spec(name: &str) -> Result<ModelSpec, ArgError> {
    tbstc::jobspec::model_from_name(name).ok_or_else(|| ArgError(format!("unknown model `{name}`")))
}

/// `--bandwidth` in GB/s, under the same rule job specs apply.
fn parse_bandwidth(args: &ParsedArgs) -> Result<f64, ArgError> {
    let gbps: f64 = args.num_or("bandwidth", 64.0)?;
    tbstc::jobspec::checked_bandwidth(gbps)
        .map_err(|_| ArgError(format!("--bandwidth {gbps} must be positive")))
}

fn parse_list<T>(
    raw: &str,
    parse: impl Fn(&str) -> Result<T, ArgError>,
) -> Result<Vec<T>, ArgError> {
    let items: Vec<T> = raw
        .split(',')
        .map(str::trim)
        .filter(|s| !s.is_empty())
        .map(parse)
        .collect::<Result<_, _>>()?;
    if items.is_empty() {
        return Err(ArgError("expected a non-empty comma-separated list".into()));
    }
    Ok(items)
}

fn prune(args: &ParsedArgs) -> Result<String, ArgError> {
    let rows: usize = args.num_or("rows", 128)?;
    let cols: usize = args.num_or("cols", 128)?;
    let sparsity: f64 = args.num_or("sparsity", 0.75)?;
    let block: usize = args.num_or("block", 8)?;
    let seed: u64 = args.num_or("seed", 0)?;
    if !(0.0..=1.0).contains(&sparsity) {
        return Err(ArgError("--sparsity must be in [0, 1]".into()));
    }
    if block == 0 || !block.is_power_of_two() {
        return Err(ArgError("--block must be a power of two".into()));
    }

    let w = MatrixRng::seed_from(seed).block_structured_weights(rows, cols, block.min(8));
    let cfg = TbsConfig::with_block_size(block);
    let p = TbsPattern::sparsify(&w, sparsity, &cfg);
    p.assert_valid();
    let dist = classify_blocks(&p);
    let (r, c, o) = dist.fractions();

    let mut out = String::new();
    writeln!(
        out,
        "TBS pruning {rows}x{cols}, target {:.1}%, block {block}",
        sparsity * 100.0
    )
    .ok();
    writeln!(
        out,
        "  achieved sparsity : {:.2}%",
        p.mask().sparsity() * 100.0
    )
    .ok();
    writeln!(
        out,
        "  blocks            : {} ({} grid)",
        p.blocks().len(),
        {
            let (gr, gc) = p.grid();
            format!("{gr}x{gc}")
        }
    )
    .ok();
    writeln!(
        out,
        "  block directions  : {:.1}% row / {:.1}% column / {:.1}% other",
        r * 100.0,
        c * 100.0,
        o * 100.0
    )
    .ok();
    if block == 8 {
        for row in similarity_sweep(&w, sparsity) {
            writeln!(
                out,
                "  similarity vs US  : {:<5} {:.2}%",
                row.kind.to_string(),
                row.similarity * 100.0
            )
            .ok();
        }
    }
    let t = p.transpose();
    t.assert_valid();
    writeln!(
        out,
        "  transposed pattern: valid (backward pass accelerates too)"
    )
    .ok();
    Ok(out)
}

fn formats(args: &ParsedArgs) -> Result<String, ArgError> {
    let rows: usize = args.num_or("rows", 128)?;
    let cols: usize = args.num_or("cols", 128)?;
    let sparsity: f64 = args.num_or("sparsity", 0.75)?;
    let seed: u64 = args.num_or("seed", 0)?;

    let w = MatrixRng::seed_from(seed).block_structured_weights(rows, cols, 8);
    let p = TbsPattern::sparsify(&w, sparsity, &TbsConfig::paper_default());
    let pruned = p.mask().apply(&w);
    let ddc = Ddc::encode(&pruned, &p);
    let sdc = Sdc::encode(&pruned);
    let csr = Csr::encode(&pruned);
    debug_assert_eq!(ddc.decode(), pruned);

    let mut out = String::new();
    writeln!(
        out,
        "Storage formats for {rows}x{cols} at {:.1}% sparsity:",
        sparsity * 100.0
    )
    .ok();
    writeln!(out, "  dense : {:>8} bytes", pruned.len() * 2).ok();
    writeln!(
        out,
        "  DDC   : {:>8} bytes (info {} + data {})",
        ddc.stored_bytes(),
        ddc.info_bytes(),
        ddc.data_bytes()
    )
    .ok();
    writeln!(
        out,
        "  SDC   : {:>8} bytes ({:.1}% padding)",
        sdc.stored_bytes(),
        sdc.redundancy() * 100.0
    )
    .ok();
    writeln!(
        out,
        "  CSR   : {:>8} bytes (block consumption contiguity {:.2})",
        csr.stored_bytes(),
        csr.block_access_trace(8, 8).contiguity()
    )
    .ok();
    Ok(out)
}

/// Resolves the architecture a `simulate` invocation targets: a builtin
/// by `--arch` name, or an inline `tbstc.v1` document via
/// `--arch-spec FILE` (the declarative path).
fn parse_arch_choice(args: &ParsedArgs) -> Result<ArchChoice, ArgError> {
    match args.options.get("arch-spec") {
        None => Ok(ArchChoice::Builtin(parse_arch(
            &args.str_or("arch", "tb-stc"),
        )?)),
        Some(_) if args.options.contains_key("arch") => Err(ArgError(
            "give either --arch or --arch-spec, not both".into(),
        )),
        Some(path) => {
            let text = std::fs::read_to_string(path)
                .map_err(|e| ArgError(format!("cannot read {path}: {e}")))?;
            let spec = tbstc::archspec::spec_from_json(&text)
                .map_err(|e| ArgError(format!("{path}: {e}")))?;
            Ok(ArchChoice::Custom(Box::new(spec)))
        }
    }
}

fn simulate(args: &ParsedArgs) -> Result<String, ArgError> {
    let choice = parse_arch_choice(args)?;
    let sparsity: f64 = args.num_or("sparsity", 0.75)?;
    let bandwidth = parse_bandwidth(args)?;
    let seed: u64 = args.num_or("seed", 0)?;
    if !(0.0..=1.0).contains(&sparsity) {
        return Err(ArgError("--sparsity must be in [0, 1]".into()));
    }

    let model_spec = parse_model_spec(&args.str_or("model", "bert"))?;
    if args.str_or("json", "false") == "true" {
        // Same schema and bytes the server returns for this job.
        let spec = JobSpec::Simulate(SimulateSpec {
            arch: choice,
            model: model_spec,
            sparsity,
            seed,
            bandwidth_gbps: bandwidth,
        });
        let engine = SweepRunner::new(HwConfig::with_bandwidth_gbps(bandwidth));
        return Ok(format!("{}\n", spec.execute(&engine)));
    }

    let model = model_spec.build();
    let cfg = HwConfig::with_bandwidth_gbps(bandwidth);
    let dense = simulate_model(Arch::Tc, &model, 0.0, seed, &cfg);
    let label = choice.canonical_name().to_string();
    let res = match &choice {
        ArchChoice::Builtin(a) => simulate_model(*a, &model, sparsity, seed, &cfg),
        ArchChoice::Custom(spec) => {
            let custom = tbstc::sim::ArchModel::new((**spec).clone())
                .map_err(|e| ArgError(format!("invalid arch spec: {e}")))?;
            tbstc::sim::simulate_model_on(&custom, &model, sparsity, seed, &cfg)
        }
    };

    let mut out = String::new();
    writeln!(
        out,
        "{} on {} at {:.1}% sparsity, {bandwidth} GB/s:",
        label,
        model.kind,
        sparsity * 100.0
    )
    .ok();
    writeln!(
        out,
        "  {:<12} {:>14} {:>12} {:>10} {:>10}",
        "layer", "cycles", "energy(uJ)", "comp.util", "bw.util"
    )
    .ok();
    for l in &res.layers {
        writeln!(
            out,
            "  {:<12} {:>14} {:>12.1} {:>9.1}% {:>9.1}%",
            l.name,
            l.cycles,
            l.energy_pj * 1e-6,
            l.compute_utilization * 100.0,
            l.bandwidth_utilization * 100.0
        )
        .ok();
    }
    writeln!(
        out,
        "  total: {} cycles, {:.3} mJ",
        res.total_cycles,
        res.total_energy_pj * 1e-9
    )
    .ok();
    writeln!(
        out,
        "  vs dense TC: speedup {:.2}x, EDP gain {:.2}x",
        res.speedup_over(&dense),
        res.edp_gain_over(&dense)
    )
    .ok();
    Ok(out)
}

/// Lists the architecture registry. Both renderings are driven off
/// [`tbstc::sim::REGISTRY`] itself, so the listing cannot drift from
/// what `simulate`/`sweep`/the server actually accept.
fn archs(args: &ParsedArgs) -> String {
    if args.str_or("json", "false") == "true" {
        let entries: Vec<Json> = tbstc::sim::REGISTRY
            .iter()
            .map(|m| {
                Json::obj([
                    ("name", Json::str(m.canonical_name())),
                    ("display", Json::str(m.display_name())),
                    (
                        "aliases",
                        Json::Arr(m.aliases().iter().map(|&a| Json::str(a)).collect()),
                    ),
                    ("summary", Json::str(m.summary())),
                ])
            })
            .collect();
        return format!("{}\n", Json::obj([("archs", Json::Arr(entries))]));
    }
    let mut out = String::new();
    writeln!(
        out,
        "{:<10} {:<10} {:<22} summary",
        "name", "display", "aliases"
    )
    .ok();
    for m in tbstc::sim::REGISTRY.iter() {
        writeln!(
            out,
            "{:<10} {:<10} {:<22} {}",
            m.canonical_name(),
            m.display_name(),
            m.aliases().join(","),
            m.summary()
        )
        .ok();
    }
    out.push_str("\n`arch show <name>` prints a spec document you can edit and run.\n");
    out
}

/// `arch show <name>`: the builtin's `tbstc.v1` spec document, exactly
/// what `simulate --arch-spec` and the server's inline `arch_spec`
/// accept back.
fn arch_cmd(args: &ParsedArgs) -> Result<String, ArgError> {
    match args
        .positionals
        .iter()
        .map(String::as_str)
        .collect::<Vec<_>>()
        .as_slice()
    {
        ["show", name] => {
            let model = tbstc::sim::archs::by_name(name).ok_or_else(|| {
                ArgError(format!(
                    "unknown architecture `{name}`; valid names: {}",
                    tbstc::sim::archs::canonical_names()
                ))
            })?;
            Ok(format!(
                "{}\n",
                tbstc::archspec::spec_to_value(model.spec())
            ))
        }
        _ => Err(ArgError("usage: tbstc-cli arch show <name>".into())),
    }
}

fn sweep(args: &ParsedArgs) -> Result<String, ArgError> {
    let models = parse_list(&args.str_or("models", "bert"), parse_model_spec)?;
    let archs = parse_list(&args.str_or("archs", "tb-stc,rm-stc,highlight"), parse_arch)?;
    let sparsities = parse_list(&args.str_or("sparsities", "0.5,0.75"), |s| {
        s.parse::<f64>()
            .map_err(|_| ArgError(format!("--sparsities expects numbers, got {s}")))
    })?;
    if sparsities.iter().any(|s| !(0.0..=1.0).contains(s)) {
        return Err(ArgError("--sparsities must be in [0, 1]".into()));
    }
    let seed: u64 = args.num_or("seed", 0)?;
    let bandwidth = parse_bandwidth(args)?;
    let jobs_flag: usize = args.num_or("jobs", 0)?; // 0 = auto
    let verify = args.str_or("verify", "false") == "true";

    let runner = if jobs_flag > 0 {
        Runner::new().with_workers(jobs_flag)
    } else {
        Runner::new()
    };
    let engine = SweepRunner::with_runner(HwConfig::with_bandwidth_gbps(bandwidth), runner);

    if args.str_or("json", "false") == "true" {
        let spec = JobSpec::Sweep(SweepSpec {
            archs,
            models,
            sparsities,
            seeds: vec![seed],
            bandwidth_gbps: bandwidth,
        });
        return Ok(format!("{}\n", spec.execute(&engine)));
    }

    // Dense TC baselines lead the batch: they anchor the speedup/EDP
    // columns and are served from the cache if the grid revisits them.
    let grid = Sweep::new()
        .models(models.iter().copied())
        .archs(archs.iter().copied())
        .sparsities(sparsities.iter().copied())
        .seeds([seed]);
    let jobs: Vec<SimJob> = models
        .iter()
        .map(|&model| SimJob {
            arch: Arch::Tc,
            model,
            sparsity: 0.0,
            seed,
        })
        .chain(grid.jobs())
        .collect();
    let report = engine.run_models(&jobs);

    let mut out = String::new();
    writeln!(
        out,
        "Sweep: {} jobs ({} computed, {} cached) on {} workers, {bandwidth} GB/s, seed {seed}",
        report.stats.jobs, report.stats.unique_jobs, report.stats.cache_hits, report.stats.workers
    )
    .ok();
    writeln!(
        out,
        "  {:<16} {:<10} {:>9} {:>14} {:>9} {:>9}",
        "model", "arch", "sparsity", "cycles", "speedup", "EDP gain"
    )
    .ok();
    for (job, res) in jobs.iter().zip(&report.results).skip(models.len()) {
        let Some(mi) = models.iter().position(|m| *m == job.model) else {
            continue; // grid jobs come from `models`; nothing to anchor otherwise
        };
        let dense = &report.results[mi];
        writeln!(
            out,
            "  {:<16} {:<10} {:>8.1}% {:>14} {:>8.2}x {:>8.2}x",
            job.model.to_string(),
            job.arch.to_string(),
            job.sparsity * 100.0,
            res.total_cycles,
            res.speedup_over(dense),
            res.edp_gain_over(dense)
        )
        .ok();
    }
    writeln!(
        out,
        "  wall {:.2?}, busy {:.2?} across {} workers",
        report.stats.wall,
        report.stats.busy(),
        report.stats.workers
    )
    .ok();

    if verify {
        let start = std::time::Instant::now();
        let differ = jobs
            .iter()
            .zip(&report.results)
            .filter(|(job, res)| {
                let alone = tbstc::sim::simulate_model_on(
                    job.arch.model(),
                    &job.model.build(),
                    job.sparsity,
                    job.seed,
                    engine.config(),
                );
                alone != **res
            })
            .count();
        if differ > 0 {
            return Err(ArgError(format!(
                "verify FAILED: {differ} of {} points differ from simulate_model_on",
                jobs.len()
            )));
        }
        writeln!(
            out,
            "  verify: every point bit-identical to simulate_model_on ({} jobs; per-point wall {:.2?}, sweep wall {:.2?})",
            jobs.len(),
            start.elapsed(),
            report.stats.wall
        )
        .ok();
    }
    Ok(out)
}

fn serve_config(args: &ParsedArgs) -> Result<tbstc_serve::ServeConfig, ArgError> {
    let queue: usize = args.num_or("queue", 32)?;
    let job_workers: usize = args.num_or("job-workers", 0)?; // 0 = auto
    let hold_ms: u64 = args.num_or("hold-ms", 0)?;
    let defaults = tbstc_serve::ServeConfig::default();
    let chunk_size: usize = args.num_or("chunk-size", defaults.chunk_size)?;
    let long_job_points: usize = args.num_or("long-job-points", defaults.long_job_points)?;
    let chunk_hold_ms: u64 = args.num_or("chunk-hold-ms", defaults.chunk_hold_ms)?;
    if chunk_size == 0 {
        return Err(ArgError("--chunk-size must be at least 1".into()));
    }
    let mut cfg = tbstc_serve::ServeConfig {
        addr: args.str_or("addr", "127.0.0.1:7878"),
        queue_capacity: queue,
        cache_dir: args.str_or("cache-dir", ".tbstc-cache").into(),
        hold_ms,
        quiet: args.str_or("quiet", "false") == "true",
        chunk_size,
        long_job_points,
        chunk_hold_ms,
        ..defaults
    };
    if job_workers > 0 {
        cfg.job_workers = job_workers;
    }
    Ok(cfg)
}

fn serve(args: &ParsedArgs) -> Result<String, ArgError> {
    let mut cfg = serve_config(args)?;
    if args.str_or("oneshot", "false") == "true" {
        if !args.options.contains_key("addr") {
            cfg.addr = "127.0.0.1:0".into(); // ephemeral: CI-safe
        }
        let job = args
            .options
            .get("job")
            .ok_or_else(|| ArgError("--oneshot needs --job FILE".into()))?;
        return oneshot(cfg, job);
    }
    cfg.watch_signals = true;
    tbstc_serve::signal::install_shutdown_handlers();
    let server = tbstc_serve::Server::bind(cfg).map_err(|e| ArgError(e.to_string()))?;
    server.run(); // blocks until SIGTERM/ctrl-c, then drains and flushes
    Ok(String::new())
}

/// Boot on a private port, submit the canned job twice (the second must
/// be a byte-identical cache hit), print the metrics text, shut down.
/// CI runs this and greps the output.
fn oneshot(cfg: tbstc_serve::ServeConfig, job_path: &str) -> Result<String, ArgError> {
    let body = std::fs::read_to_string(job_path)
        .map_err(|e| ArgError(format!("cannot read {job_path}: {e}")))?;
    // Validate locally so a bad file fails with a parse error, not a 400.
    JobSpec::from_json(&body).map_err(|e| ArgError(format!("{job_path}: {e}")))?;

    let server = tbstc_serve::Server::bind(cfg).map_err(|e| ArgError(e.to_string()))?;
    let running = server.spawn().map_err(|e| ArgError(e.to_string()))?;
    let addr = running.addr.to_string();

    let mut out = String::new();
    let mut first_body = String::new();
    for pass in ["first", "second"] {
        let resp = tbstc_serve::http::request(&addr, "POST", "/v1/jobs", Some(&body))
            .map_err(|e| ArgError(e.to_string()))?;
        let cache = resp.header("x-cache").unwrap_or("-").to_string();
        writeln!(
            out,
            "oneshot {pass} submission: {} X-Cache: {cache} ({} bytes)",
            resp.status,
            resp.body.len()
        )
        .ok();
        if resp.status != 200 {
            running.shutdown_and_join();
            return Err(ArgError(format!(
                "oneshot {pass} submission failed with {}: {}",
                resp.status,
                resp.body.trim()
            )));
        }
        match pass {
            "first" => first_body = resp.body,
            _ => {
                if cache != "hit" || resp.body != first_body {
                    running.shutdown_and_join();
                    return Err(ArgError(
                        "oneshot: second submission was not a byte-identical cache hit".into(),
                    ));
                }
                writeln!(out, "oneshot cache check: byte-identical hit").ok();
            }
        }
    }
    let metrics = tbstc_serve::http::request(&addr, "GET", "/metrics", None)
        .map_err(|e| ArgError(e.to_string()))?;
    running.shutdown_and_join();
    out.push_str(&metrics.body);
    Ok(out)
}

fn submit(args: &ParsedArgs) -> Result<String, ArgError> {
    let addr = args.str_or("addr", "127.0.0.1:7878");
    let job_path = args
        .options
        .get("job")
        .ok_or_else(|| ArgError("submit needs --job FILE".into()))?;
    let body = std::fs::read_to_string(job_path)
        .map_err(|e| ArgError(format!("cannot read {job_path}: {e}")))?;
    let resp = tbstc_serve::http::request(&addr, "POST", "/v1/jobs", Some(&body))
        .map_err(|e| ArgError(e.to_string()))?;
    match resp.status {
        200 => {
            eprintln!(
                "submitted {job_path}: X-Cache: {} key {}",
                resp.header("x-cache").unwrap_or("-"),
                resp.header("x-job-key").unwrap_or("-")
            );
            Ok(resp.body)
        }
        202 => {
            let key = resp.header("x-job-key").unwrap_or("-").to_string();
            let location = resp
                .header("location")
                .map(str::to_string)
                .unwrap_or_else(|| format!("/v1/jobs/{key}"));
            eprintln!("submitted {job_path}: accepted as durable job {key}; poll {location}");
            if args.str_or("follow", "false") == "true" {
                follow_job(&addr, &location)
            } else {
                Ok(resp.body)
            }
        }
        status => Err(ArgError(format!(
            "server answered {status}: {}",
            resp.body.trim()
        ))),
    }
}

/// Polls a durable job's status URL until it finishes, printing progress
/// to stderr, and returns the final result body.
fn follow_job(addr: &str, location: &str) -> Result<String, ArgError> {
    let mut last_progress = String::new();
    // ~10 minutes at 200 ms per poll — generous for any test sweep,
    // finite so a wedged server cannot hang a script forever.
    for _ in 0..3000 {
        let resp = tbstc_serve::http::request(addr, "GET", location, None)
            .map_err(|e| ArgError(e.to_string()))?;
        match resp.status {
            // A result body carries X-Cache; a terminal status document
            // (cancelled/failed) does not.
            200 if resp.header("x-cache").is_some() => {
                eprintln!("follow: job completed");
                return Ok(resp.body);
            }
            200 => {
                return Err(ArgError(format!(
                    "job finished without a result: {}",
                    resp.body.trim()
                )))
            }
            202 => {
                let progress = Json::parse(resp.body.trim_end())
                    .ok()
                    .map(|v| {
                        let state = v
                            .get("state")
                            .and_then(Json::as_str)
                            .unwrap_or("?")
                            .to_string();
                        match (
                            v.get("done").and_then(Json::as_u64),
                            v.get("total").and_then(Json::as_u64),
                        ) {
                            (Some(done), Some(total)) => format!("{state} {done}/{total}"),
                            _ => state,
                        }
                    })
                    .unwrap_or_else(|| "pending".to_string());
                if progress != last_progress {
                    eprintln!("follow: {progress}");
                    last_progress = progress;
                }
                std::thread::sleep(std::time::Duration::from_millis(200));
            }
            status => {
                return Err(ArgError(format!(
                    "server answered {status}: {}",
                    resp.body.trim()
                )))
            }
        }
    }
    Err(ArgError("follow: timed out waiting for the job".into()))
}

/// `jobs list|status|cancel|resume`: durable-job management against a
/// running server.
fn jobs_cmd(args: &ParsedArgs) -> Result<String, ArgError> {
    let addr = args.str_or("addr", "127.0.0.1:7878");
    let sub = args.positionals.first().map(String::as_str).unwrap_or("");
    let key = args.positionals.get(1).map(String::as_str);
    let usage =
        || ArgError("usage: tbstc-cli jobs list|status|cancel|resume [KEY] [--addr]".into());
    if args.positionals.len() > 2 {
        return Err(usage());
    }
    match (sub, key) {
        ("list", None) => {
            let resp = tbstc_serve::http::request(&addr, "GET", "/v1/jobs", None)
                .map_err(|e| ArgError(e.to_string()))?;
            if resp.status != 200 {
                return Err(ArgError(format!(
                    "server answered {}: {}",
                    resp.status,
                    resp.body.trim()
                )));
            }
            let v = Json::parse(resp.body.trim_end()).map_err(|e| ArgError(e.to_string()))?;
            let jobs = v.get("jobs").and_then(Json::as_arr).unwrap_or(&[]);
            let mut out = String::new();
            writeln!(out, "{:<32} {:<10} progress", "job", "state").ok();
            for job in jobs {
                match tbstc::jobstate::JobStatus::from_value(job) {
                    Ok(status) => {
                        writeln!(out, "{:<32} {}", status.id, status.state).ok();
                    }
                    Err(e) => {
                        writeln!(out, "{:<32} <unparseable: {e}>", "?").ok();
                    }
                }
            }
            if jobs.is_empty() {
                writeln!(out, "(no durable jobs)").ok();
            }
            Ok(out)
        }
        ("status", Some(key)) => {
            let resp = tbstc_serve::http::request(&addr, "GET", &format!("/v1/jobs/{key}"), None)
                .map_err(|e| ArgError(e.to_string()))?;
            if resp.status == 200 || resp.status == 202 {
                Ok(resp.body)
            } else {
                Err(ArgError(format!(
                    "server answered {}: {}",
                    resp.status,
                    resp.body.trim()
                )))
            }
        }
        ("cancel", Some(key)) => {
            let resp =
                tbstc_serve::http::request(&addr, "DELETE", &format!("/v1/jobs/{key}"), None)
                    .map_err(|e| ArgError(e.to_string()))?;
            match resp.status {
                200 => {
                    eprintln!("job {key} cancelled");
                    Ok(resp.body)
                }
                202 => {
                    eprintln!("cancel requested; job {key} stops at its next chunk boundary");
                    Ok(resp.body)
                }
                status => Err(ArgError(format!(
                    "server answered {status}: {}",
                    resp.body.trim()
                ))),
            }
        }
        ("resume", Some(key)) => {
            let resp = tbstc_serve::http::request(&addr, "GET", &format!("/v1/jobs/{key}"), None)
                .map_err(|e| ArgError(e.to_string()))?;
            if resp.status == 200 && resp.header("x-cache").is_some() {
                eprintln!("job {key} is already complete");
                return Ok(resp.body);
            }
            if resp.status != 200 && resp.status != 202 {
                return Err(ArgError(format!(
                    "server answered {}: {}",
                    resp.status,
                    resp.body.trim()
                )));
            }
            // The status document embeds the canonical spec: resubmit it
            // and the server re-queues the job under the same key, with
            // every finished grid point replayed from the memo.
            let status = tbstc::jobstate::JobStatus::from_json(resp.body.trim_end())
                .map_err(|e| ArgError(format!("unexpected status document: {e}")))?;
            let spec_body = format!("{}\n", status.spec);
            let posted = tbstc_serve::http::request(&addr, "POST", "/v1/jobs", Some(&spec_body))
                .map_err(|e| ArgError(e.to_string()))?;
            match posted.status {
                200 => Ok(posted.body),
                202 => {
                    eprintln!("job {key} re-queued; poll /v1/jobs/{key}");
                    Ok(posted.body)
                }
                status => Err(ArgError(format!(
                    "server answered {status}: {}",
                    posted.body.trim()
                ))),
            }
        }
        _ => Err(usage()),
    }
}

/// Drives the event-driven load generator, either against `--addr` or
/// against a private server booted on an ephemeral port. Fails (exit
/// nonzero) on any failed request or an rps below `--min-rps`.
fn loadgen(args: &ParsedArgs) -> Result<String, ArgError> {
    let connections: usize = args.num_or("connections", 64)?;
    let requests: usize = args.num_or("requests", 512)?;
    let specs: usize = args.num_or("specs", 16)?;
    let zipf: f64 = args.num_or("zipf", 1.1)?;
    let seed: u64 = args.num_or("seed", 1)?;
    let min_rps: f64 = args.num_or("min-rps", 0.0)?;
    if connections == 0 || requests == 0 || specs == 0 {
        return Err(ArgError(
            "--connections, --requests, and --specs must be at least 1".into(),
        ));
    }
    if !zipf.is_finite() {
        return Err(ArgError(format!("--zipf must be finite, got {zipf}")));
    }

    let load = tbstc_bench::loadgen::LoadgenConfig {
        addr: args.str_or("addr", ""),
        connections,
        requests,
        distinct_specs: specs,
        zipf_exponent: zipf,
        seed,
        ..tbstc_bench::loadgen::LoadgenConfig::default()
    };

    // Self-host when no address was given: a private server on an
    // ephemeral port with a throwaway cache directory.
    let (report, hosted) = if load.addr.is_empty() {
        let dir = std::env::temp_dir().join(format!("tbstc-loadgen-{}-{seed}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let server = tbstc_serve::Server::bind(tbstc_serve::ServeConfig {
            addr: "127.0.0.1:0".into(),
            cache_dir: dir.clone(),
            quiet: true,
            queue_capacity: 256, // headroom for the cold burst
            ..tbstc_serve::ServeConfig::default()
        })
        .map_err(|e| ArgError(e.to_string()))?;
        let running = server.spawn().map_err(|e| ArgError(e.to_string()))?;
        let report = tbstc_bench::loadgen::run(&tbstc_bench::loadgen::LoadgenConfig {
            addr: running.addr.to_string(),
            ..load
        });
        running.shutdown_and_join();
        let _ = std::fs::remove_dir_all(&dir);
        (report.map_err(|e| ArgError(e.to_string()))?, true)
    } else {
        (
            tbstc_bench::loadgen::run(&load).map_err(|e| ArgError(e.to_string()))?,
            false,
        )
    };

    let mut out = String::new();
    if args.str_or("json", "false") == "true" {
        out.push_str(&report.to_json());
    } else {
        writeln!(
            out,
            "loadgen: {} connections, {} requests ({} distinct specs, zipf {zipf}, seed {seed}){}",
            report.connections,
            report.completed + report.failed,
            specs,
            if hosted { " [self-hosted]" } else { "" }
        )
        .ok();
        writeln!(
            out,
            "  completed {} / failed {} in {:.3} s  ->  {:.1} req/s",
            report.completed, report.failed, report.elapsed_s, report.rps
        )
        .ok();
        writeln!(
            out,
            "  latency p50 {:.0} us, p99 {:.0} us, p999 {:.0} us; cache hit rate {:.1}%",
            report.p50_us,
            report.p99_us,
            report.p999_us,
            report.hit_rate * 100.0
        )
        .ok();
    }
    if report.failed > 0 {
        return Err(ArgError(format!(
            "loadgen: {} of {} requests failed\n{out}",
            report.failed,
            report.completed + report.failed
        )));
    }
    if report.rps < min_rps {
        return Err(ArgError(format!(
            "loadgen: {:.1} req/s is below the --min-rps floor of {min_rps}\n{out}",
            report.rps
        )));
    }
    Ok(out)
}

fn lint(args: &ParsedArgs) -> Result<String, ArgError> {
    let root = match args.options.get("root") {
        Some(r) => std::path::PathBuf::from(r),
        None => {
            // Prefer the invocation directory when it looks like a
            // workspace; fall back to this crate's own checkout so the
            // binary works from anywhere in CI.
            let cwd = std::env::current_dir().map_err(|e| ArgError(e.to_string()))?;
            if cwd.join("crates").is_dir() {
                cwd
            } else {
                std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
            }
        }
    };
    let report = tbstc_lint::lint_workspace(&root).map_err(ArgError)?;
    let deny = args.str_or("deny-warnings", "false") == "true";
    let rendered = if args.str_or("json", "false") == "true" {
        tbstc_lint::render_json(&report)
    } else {
        tbstc_lint::render_human(&report, deny)
    };
    if report.fails(deny) {
        Err(ArgError(format!("\n{rendered}")))
    } else {
        Ok(rendered)
    }
}

fn table3() -> String {
    let mut out = String::new();
    writeln!(
        out,
        "{:<12} {:>10} {:>9} {:>10} {:>9}",
        "Component", "Area(mm2)", "Area%", "Power(mW)", "Power%"
    )
    .ok();
    for r in table3_rows() {
        writeln!(
            out,
            "{:<12} {:>10.2} {:>8.2}% {:>10.2} {:>8.2}%",
            r.component,
            r.area_mm2,
            r.area_share * 100.0,
            r.power_mw,
            r.power_share * 100.0
        )
        .ok();
    }
    let (added, frac) = a100_integration_overhead();
    writeln!(
        out,
        "A100 integration: +{added:.2} mm2 = {:.2}% of the die",
        frac * 100.0
    )
    .ok();
    out
}

fn models() -> String {
    let mut out = String::new();
    writeln!(
        out,
        "{:<12} {:>10} {:>12} {:>8}",
        "model", "layers", "weights(M)", "GMACs"
    )
    .ok();
    for m in [
        resnet50(224),
        resnet18(224),
        bert_base(128),
        opt_6_7b(128),
        llama2_7b(128),
    ] {
        writeln!(
            out,
            "{:<12} {:>10} {:>12.1} {:>8.1}",
            m.kind.to_string(),
            m.layers.iter().map(|l| l.repeats).sum::<usize>(),
            m.total_weights() as f64 / 1e6,
            m.total_macs() as f64 / 1e9
        )
        .ok();
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run_line(line: &[&str]) -> Result<String, ArgError> {
        run(&ParsedArgs::parse(line.iter().map(|s| s.to_string())).unwrap())
    }

    #[test]
    fn prune_reports_sparsity_and_directions() {
        let out =
            run_line(&["prune", "--rows", "64", "--cols", "64", "--sparsity", "0.5"]).unwrap();
        assert!(out.contains("achieved sparsity"));
        assert!(out.contains("block directions"));
        assert!(out.contains("transposed pattern: valid"));
    }

    #[test]
    fn prune_rejects_bad_sparsity() {
        assert!(run_line(&["prune", "--sparsity", "1.5"]).is_err());
        assert!(run_line(&["prune", "--block", "6"]).is_err());
    }

    #[test]
    fn formats_lists_all_three() {
        let out = run_line(&["formats", "--rows", "64", "--cols", "64"]).unwrap();
        for f in ["DDC", "SDC", "CSR", "dense"] {
            assert!(out.contains(f), "missing {f}");
        }
    }

    #[test]
    fn simulate_small_model_runs() {
        let out = run_line(&["simulate", "--model", "bert", "--arch", "tb-stc"]).unwrap();
        assert!(out.contains("vs dense TC"));
        assert!(out.contains("speedup"));
    }

    #[test]
    fn simulate_rejects_misspelt_options() {
        let err = run_line(&["simulate", "--arhc", "sgcn", "--sparsity", "0.5"]).unwrap_err();
        assert!(err.0.contains("unknown option --arhc"), "{}", err.0);
        assert!(err.0.contains("--arch,"), "names the options: {}", err.0);
    }

    #[test]
    fn sweep_rejects_misspelt_options() {
        let err = run_line(&["sweep", "--modles", "gcn"]).unwrap_err();
        assert!(err.0.contains("unknown option --modles"), "{}", err.0);
        assert!(err.0.contains("--models,"), "names the options: {}", err.0);
    }

    /// A subcommand's USAGE lines: its `tbstc-cli <command>` line and the
    /// indented lines continuing it.
    fn usage_of(command: &str) -> String {
        let mut out = String::new();
        let mut inside = false;
        for line in USAGE.lines() {
            let mut words = line.split_whitespace();
            if words.next() == Some("tbstc-cli") {
                inside = words.next() == Some(command);
            } else if !line.starts_with("    ") {
                inside = false;
            }
            if inside {
                out.push_str(line);
            }
        }
        out
    }

    #[test]
    fn every_known_option_is_in_the_usage_text() {
        for command in [
            "prune", "formats", "simulate", "archs", "arch", "sweep", "serve", "submit", "jobs",
            "loadgen", "lint", "table3", "models",
        ] {
            let usage = usage_of(command);
            assert!(!usage.is_empty(), "{command} missing from USAGE");
            for option in options_of(command).unwrap() {
                assert!(
                    usage.contains(&format!("--{option}")),
                    "{command} --{option}"
                );
            }
        }
        assert!(options_of("frobnicate").is_none());
    }

    #[test]
    fn simulate_takes_the_sweep_model_names() {
        // One model-name table: `gcn` works for simulate as for sweep.
        let out = run_line(&["simulate", "--model", "gcn", "--sparsity", "0.5"]).unwrap();
        assert!(out.contains("vs dense TC"), "{out}");
    }

    #[test]
    fn simulate_rejects_unknowns() {
        assert!(run_line(&["simulate", "--model", "alexnet"]).is_err());
        assert!(run_line(&["simulate", "--arch", "tpu"]).is_err());
    }

    #[test]
    fn bandwidth_must_be_finite_and_positive() {
        let commands: [&[&str]; 4] = [
            &["simulate", "--model", "bert"],
            &["simulate", "--model", "bert", "--json"],
            &["sweep", "--models", "gcn", "--archs", "tb-stc"],
            &["sweep", "--models", "gcn", "--archs", "tb-stc", "--json"],
        ];
        for bad in ["0", "-3", "nan", "inf"] {
            for command in commands {
                let line = [command, &["--bandwidth", bad]].concat();
                let err = run_line(&line).unwrap_err();
                assert!(err.0.contains("--bandwidth"), "{line:?}: {}", err.0);
            }
        }
    }

    #[test]
    fn stray_positionals_are_rejected() {
        assert!(run_line(&["prune", "stray"]).is_err());
        assert!(run_line(&["simulate", "tb-stc"]).is_err());
    }

    #[test]
    fn archs_lists_the_registry() {
        let out = run_line(&["archs"]).unwrap();
        for name in [
            "tc",
            "stc",
            "vegeta",
            "highlight",
            "rm-stc",
            "tb-stc",
            "dvpe-fan",
            "sgcn",
        ] {
            assert!(out.contains(name), "missing {name}: {out}");
        }
        let json = run_line(&["archs", "--json"]).unwrap();
        let v = tbstc::json::Json::parse(json.trim_end()).unwrap();
        let entries = v.get("archs").and_then(tbstc::json::Json::as_arr).unwrap();
        assert_eq!(entries.len(), tbstc::sim::REGISTRY.len());
        for (entry, m) in entries.iter().zip(tbstc::sim::REGISTRY.iter()) {
            assert_eq!(
                entry.get("name").and_then(tbstc::json::Json::as_str),
                Some(m.canonical_name())
            );
        }
    }

    #[test]
    fn arch_show_roundtrips_through_simulate() {
        let doc = run_line(&["arch", "show", "tb-stc"]).unwrap();
        let spec = tbstc::archspec::spec_from_json(doc.trim_end()).unwrap();
        assert_eq!(spec.name, "tb-stc");
        // Aliases resolve too.
        let via_alias = run_line(&["arch", "show", "tbstc"]).unwrap();
        assert_eq!(doc, via_alias);
        assert!(run_line(&["arch", "show", "tpu"]).is_err());
        assert!(run_line(&["arch"]).is_err());

        // The shown document is runnable via --arch-spec and produces
        // the same result body as the builtin it renders.
        let dir = std::env::temp_dir().join(format!("tbstc-cli-archspec-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("tb-stc.json");
        std::fs::write(&path, &doc).unwrap();
        let custom = run_line(&[
            "simulate",
            "--model",
            "gcn",
            "--arch-spec",
            path.to_str().unwrap(),
            "--sparsity",
            "0.5",
            "--json",
        ])
        .unwrap();
        let builtin = run_line(&[
            "simulate",
            "--model",
            "gcn",
            "--arch",
            "tb-stc",
            "--sparsity",
            "0.5",
            "--json",
        ])
        .unwrap();
        let cv = tbstc::json::Json::parse(custom.trim_end()).unwrap();
        let bv = tbstc::json::Json::parse(builtin.trim_end()).unwrap();
        assert_eq!(cv.get("result"), bv.get("result"), "spec ≡ native");
        assert_ne!(cv.get("job"), bv.get("job"));
        let _ = std::fs::remove_dir_all(&dir);

        // --arch and --arch-spec are mutually exclusive; a missing file
        // errors cleanly.
        assert!(run_line(&[
            "simulate",
            "--arch",
            "tc",
            "--arch-spec",
            "/no/such/spec.json"
        ])
        .is_err());
        assert!(run_line(&["simulate", "--arch-spec", "/no/such/spec.json"]).is_err());
    }

    #[test]
    fn sweep_reports_grid_and_verifies() {
        // ResNet-18 and ResNet-50 share sampled layers, so the sweep
        // shares work across models that the per-point check does not.
        let out = run_line(&[
            "sweep",
            "--models",
            "resnet18,resnet50,gcn",
            "--archs",
            "tb-stc,stc",
            "--sparsities",
            "0.5,0.75",
            "--verify",
        ])
        .unwrap();
        assert!(
            out.contains("Sweep: 15 jobs"),
            "3 dense baselines + 3x2x2 grid: {out}"
        );
        assert!(out.contains("verify: every point bit-identical to simulate_model_on"));
        assert!(out.contains("speedup"));
    }

    #[test]
    fn sweep_rejects_bad_lists() {
        assert!(run_line(&["sweep", "--models", "alexnet"]).is_err());
        assert!(run_line(&["sweep", "--archs", "tpu"]).is_err());
        assert!(run_line(&["sweep", "--sparsities", "1.5"]).is_err());
        assert!(run_line(&["sweep", "--sparsities", ","]).is_err());
    }

    #[test]
    fn table3_and_models_render() {
        assert!(run_line(&["table3"]).unwrap().contains("DVPE Array"));
        assert!(run_line(&["models"]).unwrap().contains("OPT-6.7B"));
    }

    #[test]
    fn unknown_command_errors() {
        assert!(run_line(&["frobnicate"]).is_err());
    }

    #[test]
    fn lint_rejects_unknown_rules() {
        // Every rule always runs (and panic-surface is a clippy lint, not
        // a lint rule): a rule filter must fail, not be ignored.
        let root = concat!(env!("CARGO_MANIFEST_DIR"), "/../..");
        let err = run_line(&["lint", "--rules", "panic-surface", "--root", root]).unwrap_err();
        assert!(err.0.contains("unknown option --rules"), "{}", err.0);
    }

    #[test]
    fn simulate_json_matches_the_server_schema() {
        let out = run_line(&[
            "simulate",
            "--model",
            "gcn",
            "--arch",
            "tb-stc",
            "--sparsity",
            "0.5",
            "--json",
        ])
        .unwrap();
        let v = tbstc::json::Json::parse(out.trim_end()).unwrap();
        assert_eq!(
            v.get("schema").and_then(tbstc::json::Json::as_str),
            Some(tbstc::jobspec::SCHEMA)
        );
        assert!(v.get("result").is_some());
        // Emitting the same job twice gives identical bytes.
        let again = run_line(&[
            "simulate",
            "--model",
            "gcn",
            "--arch",
            "tb-stc",
            "--sparsity",
            "0.5",
            "--json",
        ])
        .unwrap();
        assert_eq!(out, again);
    }

    #[test]
    fn sweep_json_lists_every_grid_point() {
        let out = run_line(&[
            "sweep",
            "--models",
            "gcn",
            "--archs",
            "tb-stc,stc",
            "--sparsities",
            "0.5",
            "--json",
        ])
        .unwrap();
        let v = tbstc::json::Json::parse(out.trim_end()).unwrap();
        let results = v
            .get("results")
            .and_then(tbstc::json::Json::as_arr)
            .unwrap();
        assert_eq!(results.len(), 2, "2 archs x 1 model x 1 sparsity");
    }

    #[test]
    fn oneshot_serves_cached_second_submission() {
        let dir = std::env::temp_dir().join(format!("tbstc-cli-oneshot-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let job = dir.join("job.json");
        std::fs::write(
            &job,
            r#"{"type":"simulate","arch":"tb-stc",
                "model":{"kind":"gcn","nodes":64,"features":16},"sparsity":0.5}"#,
        )
        .unwrap();
        let cache = dir.join("cache");
        let out = run_line(&[
            "serve",
            "--oneshot",
            "--job",
            job.to_str().unwrap(),
            "--cache-dir",
            cache.to_str().unwrap(),
            "--quiet",
        ])
        .unwrap();
        assert!(
            out.contains("oneshot cache check: byte-identical hit"),
            "{out}"
        );
        assert!(
            out.contains("tbstc_requests_total{endpoint=\"jobs\"} 2"),
            "{out}"
        );
        // The second submission is served by the in-memory hot tier
        // sitting above the disk store.
        assert!(
            out.contains("tbstc_cache_hits_total{tier=\"mem\"} 1"),
            "{out}"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn loadgen_self_hosts_and_enforces_floors() {
        let out = run_line(&[
            "loadgen",
            "--connections",
            "4",
            "--requests",
            "32",
            "--specs",
            "2",
            "--seed",
            "1",
        ])
        .unwrap();
        assert!(out.contains("completed 32 / failed 0"), "{out}");
        assert!(out.contains("p999"), "{out}");

        // An absurd rps floor turns the same clean run into a failure.
        let err = run_line(&[
            "loadgen",
            "--connections",
            "4",
            "--requests",
            "32",
            "--specs",
            "2",
            "--seed",
            "1",
            "--min-rps",
            "1000000000",
        ]);
        assert!(err.is_err(), "min-rps floor must fail the run");

        // JSON mode emits the machine-readable report.
        let json = run_line(&[
            "loadgen",
            "--connections",
            "2",
            "--requests",
            "8",
            "--specs",
            "2",
            "--json",
        ])
        .unwrap();
        assert!(json.contains("\"p999_us\""), "{json}");
        assert!(json.contains("\"failed\": 0"), "{json}");
    }

    #[test]
    fn loadgen_rejects_zero_knobs() {
        assert!(run_line(&["loadgen", "--connections", "0"]).is_err());
        assert!(run_line(&["loadgen", "--requests", "0"]).is_err());
    }

    #[test]
    fn loadgen_rejects_a_non_finite_zipf_exponent() {
        for bad in ["nan", "inf", "-inf"] {
            let err = run_line(&["loadgen", "--zipf", bad]).unwrap_err();
            assert!(err.0.contains("--zipf must be finite"), "{bad}: {}", err.0);
        }
    }

    #[test]
    fn submit_requires_a_job_file() {
        assert!(run_line(&["submit"]).is_err());
        assert!(run_line(&["submit", "--job", "/no/such/file.json"]).is_err());
    }

    #[test]
    fn jobs_rejects_bad_subcommands() {
        let err = run_line(&["jobs", "bogus"]).unwrap_err();
        assert!(err.0.contains("usage"), "got: {}", err.0);
        // `status`/`cancel`/`resume` all need a key.
        assert!(run_line(&["jobs", "status"]).is_err());
        assert!(run_line(&["jobs", "cancel"]).is_err());
        assert!(run_line(&["jobs", "resume"]).is_err());
        // Extra positionals are rejected, not silently ignored.
        assert!(run_line(&["jobs", "list", "extra", "junk"]).is_err());
    }

    #[test]
    fn serve_config_parses_durable_options() {
        let args = ParsedArgs::parse(
            [
                "serve",
                "--chunk-size",
                "4",
                "--long-job-points",
                "2",
                "--chunk-hold-ms",
                "5",
            ]
            .iter()
            .map(ToString::to_string),
        )
        .unwrap();
        let cfg = serve_config(&args).unwrap();
        assert_eq!(cfg.chunk_size, 4);
        assert_eq!(cfg.long_job_points, 2);
        assert_eq!(cfg.chunk_hold_ms, 5);
        let bad = ParsedArgs::parse(
            ["serve", "--chunk-size", "0"]
                .iter()
                .map(ToString::to_string),
        )
        .unwrap();
        assert!(serve_config(&bad).is_err(), "chunk size 0 must be rejected");
    }
}
