//! End-to-end tests for durable jobs: real servers on ephemeral ports,
//! a real shared cache directory, chunked checkpointed sweeps.
//!
//! The properties under test are the PR's promises:
//!
//! * a long job answers `202 Accepted` and exposes live progress at its
//!   `Location` until the result is ready;
//! * a server interrupted mid-sweep resumes after restart and produces a
//!   byte-identical result while recomputing strictly fewer points;
//! * two servers sharing one store execute each spec exactly once
//!   fleet-wide (the job flock arbitrates);
//! * cancellation stops a running job at a chunk boundary and a re-submit
//!   finishes it from the memo;
//! * corrupt memo lines are skipped, counted, and exported in /metrics;
//! * a poll racing a job's end answers 202 or the result, never the
//!   terminal `done` status document without the result.

#![allow(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    reason = "a test fails by panicking, helpers included"
)]

use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use tbstc_serve::http::request;
use tbstc_serve::{ServeConfig, Server};

/// 2 archs x 1 model x 3 sparsities = 6 grid points: over every
/// `long_job_points` threshold used below, small enough to finish fast.
const LONG_SWEEP: &str = r#"{"type":"sweep","archs":["tb-stc","stc"],
    "models":[{"kind":"gcn","nodes":64,"features":16}],
    "sparsities":[0.5,0.625,0.75]}"#;

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("tbstc-durable-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// A durable-friendly config: 1-point chunks with a hold between them so
/// tests can deterministically observe (and interrupt) mid-sweep state.
fn durable_cfg(dir: &Path, chunk_hold_ms: u64) -> ServeConfig {
    ServeConfig {
        addr: "127.0.0.1:0".into(),
        cache_dir: dir.to_path_buf(),
        quiet: true,
        chunk_size: 1,
        long_job_points: 2,
        chunk_hold_ms,
        ..ServeConfig::default()
    }
}

/// Polls `GET /v1/jobs/{key}` until `pred(status, body)` holds, failing
/// after `timeout`. Returns the final `(status, body)`.
fn poll_until(
    addr: &str,
    key: &str,
    timeout: Duration,
    pred: impl Fn(u16, &str) -> bool,
) -> (u16, String) {
    let deadline = Instant::now() + timeout;
    loop {
        let resp = request(addr, "GET", &format!("/v1/jobs/{key}"), None).unwrap();
        if pred(resp.status, &resp.body) {
            return (resp.status, resp.body);
        }
        assert!(
            Instant::now() < deadline,
            "timed out polling job {key}; last: {} {}",
            resp.status,
            resp.body
        );
        std::thread::sleep(Duration::from_millis(15));
    }
}

fn metric_value(metrics: &str, name: &str) -> u64 {
    metrics
        .lines()
        .find_map(|l| {
            l.strip_prefix(name)
                .and_then(|rest| rest.trim().parse().ok())
        })
        .unwrap_or_else(|| panic!("metric {name} not found in:\n{metrics}"))
}

#[test]
fn long_jobs_answer_202_with_live_progress_then_the_result() {
    let dir = tmp_dir("progress");
    let running = Server::bind(durable_cfg(&dir, 40))
        .unwrap()
        .spawn()
        .unwrap();
    let addr = running.addr.to_string();

    let accepted = request(&addr, "POST", "/v1/jobs", Some(LONG_SWEEP)).unwrap();
    assert_eq!(accepted.status, 202, "{}", accepted.body);
    let key = accepted.header("x-job-key").unwrap().to_string();
    assert_eq!(
        accepted.header("location"),
        Some(format!("/v1/jobs/{key}").as_str())
    );
    assert!(
        accepted.body.contains(r#""state":"queued""#),
        "{}",
        accepted.body
    );

    // Progress is observable while the sweep runs: a 202 status document
    // in the running state, with done strictly between 0 and total.
    let (_, progress) = poll_until(&addr, &key, Duration::from_secs(10), |code, body| {
        code == 202 && body.contains(r#""state":"running""#) && !body.contains(r#""done":0"#)
    });
    assert!(progress.contains(r#""total":6"#), "{progress}");

    // And the job list shows it too.
    let list = request(&addr, "GET", "/v1/jobs", None).unwrap();
    assert_eq!(list.status, 200);
    assert!(list.body.contains(&key), "{}", list.body);

    // Completion: the same URL now serves the cached result body.
    let (_, result) = poll_until(&addr, &key, Duration::from_secs(10), |code, body| {
        code == 200 && body.contains("\"results\"")
    });

    // A re-submit of the finished spec is an ordinary synchronous cache
    // hit — durable jobs land in the same content-addressed store.
    let again = request(&addr, "POST", "/v1/jobs", Some(LONG_SWEEP)).unwrap();
    assert_eq!(again.status, 200);
    assert_eq!(again.header("x-cache"), Some("hit"));
    assert_eq!(again.body, result, "result is byte-stable");

    running.shutdown_and_join();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn interrupted_sweep_resumes_byte_identically_with_fewer_recomputes() {
    // Control run: the same spec executed start-to-finish, no chunking
    // tricks, in its own store.
    let control_dir = tmp_dir("resume-control");
    let control = Server::bind(ServeConfig {
        addr: "127.0.0.1:0".into(),
        cache_dir: control_dir.clone(),
        quiet: true,
        ..ServeConfig::default()
    })
    .unwrap()
    .spawn()
    .unwrap();
    let control_body = {
        let resp = request(
            &control.addr.to_string(),
            "POST",
            "/v1/jobs",
            Some(LONG_SWEEP),
        )
        .unwrap();
        assert_eq!(resp.status, 200);
        resp.body
    };
    control.shutdown_and_join();
    let _ = std::fs::remove_dir_all(&control_dir);

    // Interrupted run: kill the server mid-sweep, after at least one
    // chunk has checkpointed but before the sweep finishes.
    let dir = tmp_dir("resume");
    let running = Server::bind(durable_cfg(&dir, 60))
        .unwrap()
        .spawn()
        .unwrap();
    let addr = running.addr.to_string();
    let accepted = request(&addr, "POST", "/v1/jobs", Some(LONG_SWEEP)).unwrap();
    assert_eq!(accepted.status, 202, "{}", accepted.body);
    let key = accepted.header("x-job-key").unwrap().to_string();
    poll_until(&addr, &key, Duration::from_secs(10), |code, body| {
        code == 202 && body.contains(r#""state":"running""#) && !body.contains(r#""done":0"#)
    });
    running.shutdown_and_join();

    // The interruption left a non-terminal status document and at least
    // one checkpointed chunk in the memo.
    let status_doc = std::fs::read_to_string(dir.join("jobs").join(format!("{key}.json"))).unwrap();
    assert!(status_doc.contains(r#""state":"running""#), "{status_doc}");
    let memo = std::fs::read_to_string(dir.join("memo.jsonl")).unwrap();
    let checkpointed = memo.lines().count() - 1; // minus header
    assert!(
        (1..6).contains(&checkpointed),
        "expected a partial checkpoint, got {checkpointed} memo lines"
    );

    // Restart on the same store: the boot scan re-queues the job and the
    // controller finishes it without being asked.
    let running = Server::bind(durable_cfg(&dir, 0)).unwrap().spawn().unwrap();
    let addr = running.addr.to_string();
    let (_, resumed_body) = poll_until(&addr, &key, Duration::from_secs(10), |code, body| {
        code == 200 && body.contains("\"results\"")
    });
    assert_eq!(
        resumed_body, control_body,
        "resumed result must be byte-identical to the uninterrupted run"
    );

    let metrics = request(&addr, "GET", "/metrics", None).unwrap().body;
    assert_eq!(metric_value(&metrics, "tbstc_jobs_resumed_total"), 1);
    // Strictly fewer than the full grid recomputed: every checkpointed
    // point replays from the preloaded memo (a memo miss = a recompute).
    let recomputed = metric_value(&metrics, "tbstc_cache_misses_total{tier=\"memo\"}");
    assert!(
        recomputed < 6,
        "resume recomputed all {recomputed} points — checkpoints were not reused"
    );
    assert_eq!(recomputed as usize, 6 - checkpointed);

    running.shutdown_and_join();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn two_servers_sharing_a_store_execute_each_spec_exactly_once() {
    let dir = tmp_dir("fleet");
    let a = Server::bind(durable_cfg(&dir, 10))
        .unwrap()
        .spawn()
        .unwrap();
    let b = Server::bind(durable_cfg(&dir, 10))
        .unwrap()
        .spawn()
        .unwrap();
    let (addr_a, addr_b) = (a.addr.to_string(), b.addr.to_string());

    // Submit the same long spec to both servers concurrently. Both must
    // accept (202, idempotent), but the job flock lets only one execute.
    let (ra, rb) = {
        let (addr_a, addr_b) = (addr_a.clone(), addr_b.clone());
        let ta = std::thread::spawn(move || {
            request(&addr_a, "POST", "/v1/jobs", Some(LONG_SWEEP)).unwrap()
        });
        let tb = std::thread::spawn(move || {
            request(&addr_b, "POST", "/v1/jobs", Some(LONG_SWEEP)).unwrap()
        });
        (ta.join().unwrap(), tb.join().unwrap())
    };
    assert_eq!(
        (ra.status, rb.status),
        (202, 202),
        "{} / {}",
        ra.body,
        rb.body
    );
    let key = ra.header("x-job-key").unwrap().to_string();
    assert_eq!(rb.header("x-job-key"), Some(key.as_str()));

    // Both servers converge on the same completed result.
    let (_, body_a) = poll_until(&addr_a, &key, Duration::from_secs(10), |code, body| {
        code == 200 && body.contains("\"results\"")
    });
    let (_, body_b) = poll_until(&addr_b, &key, Duration::from_secs(10), |code, body| {
        code == 200 && body.contains("\"results\"")
    });
    assert_eq!(body_a, body_b, "torn or divergent result across the fleet");

    // Exactly-once: the sweep ran on one server, not both.
    let ma = request(&addr_a, "GET", "/metrics", None).unwrap().body;
    let mb = request(&addr_b, "GET", "/metrics", None).unwrap().body;
    let executed = metric_value(&ma, "tbstc_jobs_executed_total")
        + metric_value(&mb, "tbstc_jobs_executed_total");
    assert_eq!(executed, 1, "spec executed {executed} times fleet-wide");

    // The same holds on the synchronous path: a short job raced to both
    // servers computes once; the loser serves the winner's bytes.
    let short = r#"{"type":"simulate","arch":"tb-stc",
        "model":{"kind":"gcn","nodes":64,"features":16},"sparsity":0.5}"#;
    let (sa, sb) = {
        let (addr_a, addr_b) = (addr_a.clone(), addr_b.clone());
        let ta =
            std::thread::spawn(move || request(&addr_a, "POST", "/v1/jobs", Some(short)).unwrap());
        let tb =
            std::thread::spawn(move || request(&addr_b, "POST", "/v1/jobs", Some(short)).unwrap());
        (ta.join().unwrap(), tb.join().unwrap())
    };
    assert_eq!((sa.status, sb.status), (200, 200));
    assert_eq!(sa.body, sb.body, "duplicate write tore the short result");
    let ma = request(&addr_a, "GET", "/metrics", None).unwrap().body;
    let mb = request(&addr_b, "GET", "/metrics", None).unwrap().body;
    let executed = metric_value(&ma, "tbstc_jobs_executed_total")
        + metric_value(&mb, "tbstc_jobs_executed_total");
    assert_eq!(executed, 2, "short spec must add exactly one execution");

    a.shutdown_and_join();
    b.shutdown_and_join();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn cancel_stops_between_chunks_and_a_resubmit_finishes_from_the_memo() {
    let dir = tmp_dir("cancel");
    let running = Server::bind(durable_cfg(&dir, 60))
        .unwrap()
        .spawn()
        .unwrap();
    let addr = running.addr.to_string();

    let accepted = request(&addr, "POST", "/v1/jobs", Some(LONG_SWEEP)).unwrap();
    assert_eq!(accepted.status, 202);
    let key = accepted.header("x-job-key").unwrap().to_string();
    poll_until(&addr, &key, Duration::from_secs(10), |code, body| {
        code == 202 && body.contains(r#""state":"running""#) && !body.contains(r#""done":0"#)
    });

    // Cancel while running: acknowledged 202, honored at the next chunk
    // boundary, after which the status is terminal.
    let cancel = request(&addr, "DELETE", &format!("/v1/jobs/{key}"), None).unwrap();
    assert_eq!(cancel.status, 202, "{}", cancel.body);
    poll_until(&addr, &key, Duration::from_secs(10), |code, body| {
        code == 200 && body.contains(r#""state":"cancelled""#)
    });
    let metrics = request(&addr, "GET", "/metrics", None).unwrap().body;
    assert_eq!(metric_value(&metrics, "tbstc_jobs_cancelled_total"), 1);

    // Cancelling a terminal job conflicts.
    let again = request(&addr, "DELETE", &format!("/v1/jobs/{key}"), None).unwrap();
    assert_eq!(again.status, 409, "{}", again.body);

    // Re-submitting the cancelled spec restarts it (202, queued again);
    // the finished prefix replays from the memo and the job completes.
    let resumed = request(&addr, "POST", "/v1/jobs", Some(LONG_SWEEP)).unwrap();
    assert_eq!(resumed.status, 202, "{}", resumed.body);
    poll_until(&addr, &key, Duration::from_secs(10), |code, body| {
        code == 200 && body.contains("\"results\"")
    });

    running.shutdown_and_join();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_finished_job_is_never_answered_by_its_done_status_document() {
    // The job path writes the result before its `done` status, so a poll
    // racing the end of a job must see 202 (running) or the result, never
    // a 200 `done` status without the result (`tbstc-cli submit --follow`
    // fails on one). The server's unit tests force the interleaving; this
    // drives the whole path with back-to-back polls from two clients.
    let dir = tmp_dir("done-race");
    let running = Server::bind(durable_cfg(&dir, 0)).unwrap().spawn().unwrap();
    let addr = running.addr.to_string();
    for job in 0..8 {
        let spec = LONG_SWEEP.replace("0.75", &format!("0.{}", 70 + job));
        let accepted = request(&addr, "POST", "/v1/jobs", Some(&spec)).unwrap();
        assert_eq!(accepted.status, 202, "{}", accepted.body);
        let key = accepted.header("x-job-key").unwrap().to_string();
        std::thread::scope(|scope| {
            for _ in 0..2 {
                scope.spawn(|| {
                    let deadline = Instant::now() + Duration::from_secs(20);
                    loop {
                        let resp = request(&addr, "GET", &format!("/v1/jobs/{key}"), None).unwrap();
                        if resp.status == 200 {
                            assert!(
                                resp.body.contains("\"results\""),
                                "job {key}: {}",
                                resp.body
                            );
                            return;
                        }
                        assert_eq!(resp.status, 202, "{}", resp.body);
                        assert!(Instant::now() < deadline, "timed out polling job {key}");
                    }
                });
            }
        });
    }
    running.shutdown_and_join();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn corrupt_memo_lines_are_skipped_and_exported_in_metrics() {
    let dir = tmp_dir("corrupt");
    let running = Server::bind(durable_cfg(&dir, 0)).unwrap().spawn().unwrap();
    let addr = running.addr.to_string();
    let accepted = request(&addr, "POST", "/v1/jobs", Some(LONG_SWEEP)).unwrap();
    assert_eq!(accepted.status, 202);
    let key = accepted.header("x-job-key").unwrap().to_string();
    poll_until(&addr, &key, Duration::from_secs(10), |code, _| code == 200);
    running.shutdown_and_join();

    // Garble one memo line in the middle of the file.
    let memo_path = dir.join("memo.jsonl");
    let memo = std::fs::read_to_string(&memo_path).unwrap();
    let mut lines: Vec<&str> = memo.lines().collect();
    assert!(lines.len() >= 3, "want header + several entries: {memo}");
    lines[2] = "{not json at all";
    std::fs::write(&memo_path, format!("{}\n", lines.join("\n"))).unwrap();

    // The restarted server skips the bad line, keeps the rest, and
    // exports the count.
    let running = Server::bind(durable_cfg(&dir, 0)).unwrap().spawn().unwrap();
    let addr = running.addr.to_string();
    let metrics = request(&addr, "GET", "/metrics", None).unwrap().body;
    assert_eq!(metric_value(&metrics, "tbstc_memo_corrupt_lines_total"), 1);

    running.shutdown_and_join();
    let _ = std::fs::remove_dir_all(&dir);
}
