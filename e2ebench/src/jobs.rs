//! The durable phase of the traced `serve-hot` run: sequential distinct
//! sweep jobs, each above the server's `long_job_points`, so each is
//! accepted 202 + `Location`, runs in checkpointed chunks and is polled
//! until done. It measures the durable path from submit to done:
//! lifecycle documents, chunked execution, `memo.jsonl` appends and
//! result writes, with little simulation per point.

use std::path::Path;
use std::time::{Duration, Instant};

use tbstc::jobstate::{JobState, JobStatus};
use tbstc::prelude::*;
use tbstc::runner::ChunkControl;
use tbstc_serve::{MemoEntry, ResultStore, ServeConfig};

use crate::check::body_matches;
use crate::http::Conn;
use crate::serve::{self, Tally};
use crate::stats::median;
use crate::sweep::SPARSITIES;
use crate::window::{keep_going, Slicer};
use crate::Outcome;

/// The client's fixed poll interval. Short, so submit→done measures the
/// job rather than the poll cadence.
pub const POLL_INTERVAL: Duration = Duration::from_millis(1);
/// A job not done after this long counts as unfinished (failed).
const JOB_TIMEOUT: Duration = Duration::from_secs(60);
/// Jobs per slice of the window.
const SLICE_JOBS: usize = 100;
/// Job bodies checked after the window, at most.
const JOB_CHECKS: usize = 8;

/// The `k`-th durable job for `seed`: all eight architectures × one
/// small GCN × the three paper sparsities (24 points, above the default
/// 8-point durable threshold and across two 16-point chunks), with a
/// weight seed no other job shares.
pub fn job_spec(seed: u64, k: u64) -> String {
    let archs: Vec<String> = Arch::ALL
        .iter()
        .map(|a| format!("\"{}\"", a.canonical_name()))
        .collect();
    let sparsities: Vec<String> = SPARSITIES.iter().map(f64::to_string).collect();
    format!(
        r#"{{"type":"sweep","archs":[{}],"models":[{{"kind":"gcn","nodes":64,"features":16}}],"sparsities":[{}],"seeds":[{}]}}"#,
        archs.join(","),
        sparsities.join(","),
        (seed % 1_000_000) * 1_000_000_000 + k
    )
}

/// Submits one job and polls until it is done. Returns the final body,
/// the poll count, and whether a poll saw the terminal `done` status
/// document instead of the result.
///
/// That last case is a race in `GET /v1/jobs/<key>`: the server looks
/// for the result, misses it, and the job finishes before it reads the
/// status, so it answers `done` without the body. The result exists by
/// then (it is written before the status), so the client fetches it
/// once more; the job counts as done, and the run reports how often
/// this happened (`client.done_refetches`).
fn submit_and_wait(conn: &mut Conn, body: &str) -> Result<(Vec<u8>, u64, bool), String> {
    let r = conn
        .request("POST", "/v1/jobs", body)
        .map_err(|e| e.to_string())?;
    let location = match (r.status, r.location) {
        (202, Some(l)) => l,
        (status, _) => return Err(format!("submit answered {status}, not 202 + Location")),
    };
    let started = Instant::now();
    let mut polls = 0u64;
    let mut refetched = false;
    loop {
        if !refetched {
            std::thread::sleep(POLL_INTERVAL);
        }
        polls += 1;
        let r = conn
            .request("GET", &location, "")
            .map_err(|e| e.to_string())?;
        match r.status {
            200 if r.x_cache.is_some() => return Ok((r.body, polls, refetched)),
            200 if !refetched && is_done_status(&r.body) => refetched = true,
            // A terminal status without a result: cancelled or failed.
            200 => {
                return Err(format!(
                    "job ended without a result: {}",
                    String::from_utf8_lossy(&r.body).trim_end()
                ))
            }
            202 if started.elapsed() < JOB_TIMEOUT => {}
            202 => return Err("job unfinished at the timeout".into()),
            other => return Err(format!("poll answered {other}")),
        }
    }
}

/// Whether a body is a job status document in state `done`.
fn is_done_status(body: &[u8]) -> bool {
    let text = String::from_utf8_lossy(body);
    tbstc::json::Json::parse(text.trim_end())
        .ok()
        .and_then(|v| v.get("state").and_then(|s| s.as_str().map(|s| s == "done")))
        .unwrap_or(false)
}

/// Probes of the durable path's layers on bench-owned instances:
/// lifecycle-document writes, memo appends of one chunk, and the
/// chunked runner's per-chunk time.
fn durable_probes(out: &mut Outcome, specs: &[String], work: &Path) -> Result<(), String> {
    let chunk_size = ServeConfig::default().chunk_size;
    let store = ResultStore::open(work.join("probe-jobs")).map_err(|e| e.to_string())?;
    let mut status_put = Vec::with_capacity(specs.len());
    let mut append = Vec::with_capacity(specs.len());
    let mut chunks = Vec::with_capacity(specs.len() * 2);
    for body in specs {
        let spec = JobSpec::from_json(body).map_err(|e| e.to_string())?;
        let grid = spec.grid_jobs();
        let running = JobStatus::queued(&spec).with_state(JobState::Running {
            done: chunk_size as u64,
            total: grid.len() as u64,
        });
        let t = Instant::now();
        store.put_job_status(&running).map_err(|e| e.to_string())?;
        status_put.push(t.elapsed().as_secs_f64() * 1e6);

        let engine = SweepRunner::new(HwConfig::with_bandwidth_gbps(spec.bandwidth_gbps()));
        let mut last = Instant::now();
        let mut entries = Vec::new();
        engine.run_models_chunked(&grid, chunk_size, &mut |cp| {
            chunks.push(last.elapsed().as_secs_f64() * 1e6);
            if entries.is_empty() {
                entries = cp
                    .chunk_jobs
                    .iter()
                    .zip(cp.chunk_results)
                    .map(|(&job, result)| MemoEntry {
                        bandwidth_gbps: spec.bandwidth_gbps(),
                        job,
                        result: result.clone(),
                    })
                    .collect();
            }
            last = Instant::now();
            ChunkControl::Continue
        });
        let t = Instant::now();
        store.append_memo(&entries).map_err(|e| e.to_string())?;
        append.push(t.elapsed().as_secs_f64() * 1e6);
    }
    let v = &mut out.values;
    v.insert("serve.job_status_put_us".into(), median(&status_put));
    v.insert("serve.memo_append_us".into(), median(&append));
    v.insert("runner.chunk_us".into(), median(&chunks));
    Ok(())
}

/// The durable phase of the traced `serve-hot` run: sequential distinct
/// sweep jobs, each polled until done, measuring submit → done.
pub fn durable_phase(seed: u64, seconds: f64, work: &Path) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let running = serve::boot(&work.join("durable-store"))?;
    let addr = running.addr;
    let before = serve::scrape(addr)?;
    let mut conn = Conn::connect(addr).map_err(|e| e.to_string())?;
    let mut tally = Tally::default();
    // Slices of a hundred jobs; the p99 pools every job of the window.
    let mut slicer = Slicer::new(SLICE_JOBS);
    let mut polls = 0u64;
    let mut refetches = 0u64;
    let mut bodies: Vec<(u64, Vec<u8>)> = Vec::with_capacity(JOB_CHECKS);
    let pick = serve::stream(seed, 3).next_u64() % 4;
    let start = Instant::now();
    let mut k = 0u64;
    while keep_going(start, seconds, tally.answered as usize) {
        let body = job_spec(seed, k);
        tally.attempted += 1;
        let t = Instant::now();
        match submit_and_wait(&mut conn, &body) {
            Ok((got, n, refetched)) => {
                let lat = t.elapsed().as_secs_f64() * 1e6;
                tally.answered(&mut slicer, start.elapsed().as_secs_f64(), lat);
                polls += n;
                refetches += u64::from(refetched);
                // A seeded sample of bodies is checked after the window.
                if k % 4 == pick && bodies.len() < JOB_CHECKS {
                    bodies.push((k, got));
                }
            }
            Err(e) => {
                tally.failed += 1;
                if out.notes.len() < 4 {
                    out.notes.push(format!("job {k} failed: {e}"));
                }
                conn = Conn::connect(addr).map_err(|e| e.to_string())?;
            }
        }
        k += 1;
    }
    let elapsed = start.elapsed().as_secs_f64();
    let after = serve::scrape(addr)?;
    drop(conn);
    running.shutdown_and_join();

    let specs: Vec<String> = bodies.iter().map(|(k, _)| job_spec(seed, *k)).collect();
    let expected = serve::reference_bodies(&specs)?;
    let wrong = bodies
        .iter()
        .zip(&expected)
        .filter(|((_, got), (want, _))| !body_matches(got, want))
        .count() as u64;
    tally.failed += wrong;
    let jobs_done = tally.answered as f64;
    tally.streams.push(slicer);
    serve::end_to_end(&mut out, tally);
    let d = serve::Deltas::new(&before, &after);
    let v = &mut out.values;
    v.insert(
        "serve.sweep_chunks".into(),
        d.get("tbstc_sweep_chunks_total"),
    );
    v.insert(
        "client.polls_per_job".into(),
        polls as f64 / jobs_done.max(1.0),
    );
    v.insert(
        "client.poll_interval_ms".into(),
        POLL_INTERVAL.as_secs_f64() * 1e3,
    );
    v.insert("client.done_refetches".into(), refetches as f64);
    durable_probes(&mut out, &specs, work)?;
    out.notes.push(format!(
        "durable phase: {k} jobs in {elapsed:.2} s, {:.2} polls per job at {} ms, \
         {refetches} result(s) fetched after a `done` status, {wrong} of {} sampled bodies wrong",
        polls as f64 / jobs_done.max(1.0),
        POLL_INTERVAL.as_secs_f64() * 1e3,
        bodies.len()
    ));
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn jobs_follow_the_seed_and_go_durable() {
        assert_eq!(job_spec(3, 1), job_spec(3, 1));
        assert_ne!(job_spec(3, 1), job_spec(3, 2));
        assert_ne!(job_spec(3, 1), job_spec(4, 1));
        let spec = JobSpec::from_json(&job_spec(3, 1)).expect("parses");
        assert!(spec.grid_len() > ServeConfig::default().long_job_points);
        assert!(
            spec.grid_len() > ServeConfig::default().chunk_size,
            "more than one chunk"
        );
    }

    #[test]
    fn only_a_done_status_document_is_refetched() {
        let spec = JobSpec::from_json(&job_spec(3, 1)).expect("parses");
        let done = JobStatus::queued(&spec)
            .with_state(JobState::Done)
            .to_json();
        let running = JobStatus::queued(&spec)
            .with_state(JobState::Running { done: 1, total: 24 })
            .to_json();
        assert!(is_done_status(done.as_bytes()));
        assert!(!is_done_status(running.as_bytes()));
        assert!(!is_done_status(b"{\"schema\":\"tbstc.v1\",\"results\":[]}"));
        assert!(!is_done_status(b"not json"));
    }
}
