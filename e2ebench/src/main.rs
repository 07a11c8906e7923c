//! The repository benchmark: end-to-end and per-layer metrics of the
//! TB-STC simulator and its job service, from one process.
//!
//! ```text
//! cargo run --release --offline --manifest-path e2ebench/Cargo.toml -- \
//!     --workload sweep-paper --seed 1 --seconds 45 --trace 0
//! ```
//!
//! Each run builds its inputs from `--seed`, measures one workload for
//! `--seconds`, checks the outputs against an in-process reference and
//! ends its standard output with one JSON line: `correct`, `attempted`,
//! `failed` and the metrics — end to end with `--trace 0`, per layer
//! with `--trace 1`. Every layer is measured from outside: by timing
//! calls into its public functions and by reading counter deltas from
//! the server's `/metrics`. See `README.md` beside this file.

mod check;
mod http;
mod jobs;
mod report;
mod serve;
mod stats;
mod sweep;
mod window;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;

use report::{Report, END_TO_END};

/// The workloads, in `BENCHMARK.json` order.
pub const WORKLOADS: [&str; 2] = ["sweep-paper", "serve-hot"];

/// Worker threads, job workers and client connections: the core count of
/// the machine the benchmark is sized for.
pub const WORKERS: usize = 2;

/// What a workload hands back to the report.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Ops attempted.
    pub attempted: u64,
    /// Ops failed (error, refusal, unfinished, wrong output).
    pub failed: u64,
    /// Set when a check that is not per op failed.
    pub checks_failed: bool,
    /// Measured metric values by name.
    pub values: BTreeMap<String, f64>,
    /// Human-readable lines printed before the result.
    pub notes: Vec<String>,
}

/// The end-to-end metrics a traced phase reports under its own prefix.
const PHASE_METRICS: [&str; 3] = ["throughput_ops_per_s", "latency_p50_us", "latency_p99_us"];

impl Outcome {
    /// Folds a traced phase into this outcome: its ops and checks count,
    /// its end-to-end metrics land as `<prefix>.<name>`, and its per-layer
    /// values as they are.
    pub fn merge(&mut self, prefix: &str, phase: Outcome) {
        self.attempted += phase.attempted;
        self.failed += phase.failed;
        self.checks_failed |= phase.checks_failed;
        for (name, value) in phase.values {
            if PHASE_METRICS.contains(&name.as_str()) {
                self.values.insert(format!("{prefix}.{name}"), value);
            } else if name != "setup_s" {
                self.values.insert(name, value);
            }
        }
        self.notes.extend(phase.notes);
    }
}

/// Peak resident set of this process, MB (`VmHWM`).
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 1u64;
    let mut seconds = 10.0f64;
    let mut trace = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => trace = value()? == "1",
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload `{workload}` (want one of {WORKLOADS:?})"
        ));
    }
    if !seconds.is_finite() || seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("e2ebench: {e}");
            return ExitCode::from(2);
        }
    };
    // Scratch state (server stores) lives under the working directory
    // and is removed when the run ends.
    let work =
        PathBuf::from(".e2ebench-work").join(format!("{}-{}", args.workload, std::process::id()));
    let _ = std::fs::remove_dir_all(&work);
    let outcome = match (args.workload.as_str(), args.trace) {
        ("sweep-paper", false) => Ok(sweep::run(args.seed, args.seconds)),
        ("sweep-paper", true) => {
            let mut out = sweep::run(args.seed, args.seconds);
            sweep::trace(&sweep::paper_grid(args.seed), &mut out);
            Ok(out)
        }
        (_, trace) => serve::run_hot(args.seed, args.seconds, trace, &work),
    };
    let _ = std::fs::remove_dir_all(&work);
    let _ = std::fs::remove_dir(".e2ebench-work");
    let mut out = match outcome {
        Ok(out) => out,
        Err(e) => {
            eprintln!("e2ebench: {}: {e}", args.workload);
            return ExitCode::FAILURE;
        }
    };
    out.values.insert("peak_rss_mb".into(), peak_rss_mb());
    out.values.insert(
        "failed_ratio".into(),
        out.failed as f64 / out.attempted.max(1) as f64,
    );
    let declared: Vec<(String, &str)> = if args.trace {
        report::per_layer()
    } else {
        END_TO_END
            .iter()
            .map(|&(n, u)| (n.to_string(), u))
            .collect()
    };
    let report = Report::new(
        out.attempted,
        out.failed,
        !out.checks_failed,
        &declared,
        &out.values,
    );
    for note in &out.notes {
        println!("# {note}");
    }
    for (name, unit, value) in &report.metrics {
        println!("{name:<34} {value:>16.4} {unit}");
    }
    println!(
        "# {} ops attempted, {} failed, outputs {}",
        report.attempted,
        report.failed,
        if report.correct { "correct" } else { "WRONG" }
    );
    println!("{}", report.to_line());
    ExitCode::SUCCESS
}
