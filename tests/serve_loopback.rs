//! End-to-end loopback tests for the job service: a real server on an
//! ephemeral port, real HTTP, a real cache directory.
//!
//! The two properties the PR promises are exercised directly:
//!
//! * identical job specs return byte-identical bodies, the second from
//!   the disk cache (`X-Cache: hit`) — including across a full server
//!   restart on the same cache directory;
//! * a full admission queue answers `429` with a `Retry-After` hint
//!   while the in-flight job still completes.

use std::path::{Path, PathBuf};
use std::time::Duration;

use tbstc_serve::http::request;
use tbstc_serve::{ServeConfig, Server};

const GCN_JOB: &str = r#"{"type":"simulate","arch":"tb-stc",
    "model":{"kind":"gcn","nodes":64,"features":16},"sparsity":0.5}"#;

/// The same job with fields shuffled and defaults spelled out — must hit
/// the same cache entry because the key hashes the canonicalized spec.
const GCN_JOB_SHUFFLED: &str = r#"{"seed":0,"sparsity":0.5,"bandwidth_gbps":64.0,
    "model":{"features":16,"kind":"gcn","nodes":64},
    "arch":"tb-stc","type":"simulate"}"#;

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("tbstc-loopback-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn cfg(dir: &Path) -> ServeConfig {
    ServeConfig {
        addr: "127.0.0.1:0".into(),
        cache_dir: dir.to_path_buf(),
        quiet: true,
        ..ServeConfig::default()
    }
}

#[test]
fn identical_jobs_hit_the_cache_across_restarts() {
    let dir = tmp_dir("restart");

    // First server lifetime: miss, then hit, then a canonicalization hit.
    let running = Server::bind(cfg(&dir)).unwrap().spawn().unwrap();
    let addr = running.addr.to_string();

    let first = request(&addr, "POST", "/v1/jobs", Some(GCN_JOB)).unwrap();
    assert_eq!(first.status, 200);
    assert_eq!(first.header("x-cache"), Some("miss"));
    let key = first.header("x-job-key").unwrap().to_string();
    assert_eq!(key.len(), 32);

    let second = request(&addr, "POST", "/v1/jobs", Some(GCN_JOB)).unwrap();
    assert_eq!(second.status, 200);
    assert_eq!(second.header("x-cache"), Some("hit"));
    assert_eq!(second.body, first.body, "cached body is byte-identical");

    let shuffled = request(&addr, "POST", "/v1/jobs", Some(GCN_JOB_SHUFFLED)).unwrap();
    assert_eq!(
        shuffled.header("x-cache"),
        Some("hit"),
        "field order and explicit defaults do not change the cache key"
    );
    assert_eq!(shuffled.body, first.body);

    // The result is also addressable by key.
    let by_key = request(&addr, "GET", &format!("/v1/jobs/{key}"), None).unwrap();
    assert_eq!(by_key.status, 200);
    assert_eq!(by_key.body, first.body);

    running.shutdown_and_join();

    // Second server lifetime, same cache dir: the very first submission
    // is already a byte-identical hit served from disk.
    let running = Server::bind(cfg(&dir)).unwrap().spawn().unwrap();
    let addr = running.addr.to_string();
    let after_restart = request(&addr, "POST", "/v1/jobs", Some(GCN_JOB)).unwrap();
    assert_eq!(after_restart.status, 200);
    assert_eq!(after_restart.header("x-cache"), Some("hit"));
    assert_eq!(
        after_restart.body, first.body,
        "restart preserves bit-identical responses"
    );
    running.shutdown_and_join();

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn full_queue_rejects_with_429_without_dropping_in_flight_work() {
    let dir = tmp_dir("backpressure");
    let running = Server::bind(ServeConfig {
        queue_capacity: 1,
        job_workers: 1,
        hold_ms: 700, // keep the admitted job in flight deterministically
        ..cfg(&dir)
    })
    .unwrap()
    .spawn()
    .unwrap();
    let addr = running.addr.to_string();

    let slow_addr = addr.clone();
    let slow =
        std::thread::spawn(move || request(&slow_addr, "POST", "/v1/jobs", Some(GCN_JOB)).unwrap());
    // Let the slow job get admitted (it holds its slot for hold_ms).
    std::thread::sleep(Duration::from_millis(200));

    let other_job = r#"{"type":"simulate","arch":"stc",
        "model":{"kind":"gcn","nodes":64,"features":16},"sparsity":0.75}"#;
    let rejected = request(&addr, "POST", "/v1/jobs", Some(other_job)).unwrap();
    assert_eq!(
        rejected.status, 429,
        "queue of 1 is full: {}",
        rejected.body
    );
    let retry_after: u64 = rejected
        .header("retry-after")
        .expect("429 carries Retry-After")
        .parse()
        .expect("Retry-After is integral seconds");
    assert!((1..=60).contains(&retry_after));

    // Still inside the hold: the admitted job is executing, none waits.
    let held = request(&addr, "GET", "/metrics", None).unwrap();
    let gauges: Vec<&str> = held
        .body
        .lines()
        .filter(|l| l.starts_with("tbstc_queue_depth ") || l.starts_with("tbstc_jobs_in_flight "))
        .collect();
    assert_eq!(
        gauges,
        ["tbstc_queue_depth 0", "tbstc_jobs_in_flight 1"],
        "{}",
        held.body
    );

    let done = slow.join().unwrap();
    assert_eq!(done.status, 200, "in-flight job survives the rejection");
    assert_eq!(done.header("x-cache"), Some("miss"));

    let metrics = request(&addr, "GET", "/metrics", None).unwrap();
    assert!(
        metrics.body.contains("tbstc_jobs_rejected_total 1"),
        "{}",
        metrics.body
    );
    assert!(metrics.body.contains("tbstc_jobs_total{outcome=\"ok\"} 1"));

    running.shutdown_and_join();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn malformed_specs_get_400_and_the_server_keeps_serving() {
    let dir = tmp_dir("badspec");
    let running = Server::bind(cfg(&dir)).unwrap().spawn().unwrap();
    let addr = running.addr.to_string();

    // A gallery of malformed submissions: broken JSON, a non-object, a
    // missing discriminant, an unknown type, an out-of-range sparsity and
    // an unknown architecture. Every one must be a clean 400 — never a
    // dropped connection or a crashed worker.
    let bad_specs = [
        r#"{"type":"simulate","#,
        r#"[1,2,3]"#,
        r#"{"arch":"tb-stc","model":{"kind":"gcn","nodes":64,"features":16}}"#,
        r#"{"type":"frobnicate"}"#,
        r#"{"type":"simulate","arch":"tb-stc",
            "model":{"kind":"gcn","nodes":64,"features":16},"sparsity":7.5}"#,
        r#"{"type":"simulate","arch":"not-an-arch",
            "model":{"kind":"gcn","nodes":64,"features":16},"sparsity":0.5}"#,
    ];
    for spec in bad_specs {
        let resp = request(&addr, "POST", "/v1/jobs", Some(spec)).unwrap();
        assert_eq!(resp.status, 400, "spec {spec:?} got: {}", resp.body);
        assert!(
            resp.body.contains("error"),
            "400 body names the problem: {}",
            resp.body
        );
    }

    // The server is still healthy: the very next valid job computes.
    let ok = request(&addr, "POST", "/v1/jobs", Some(GCN_JOB)).unwrap();
    assert_eq!(ok.status, 200, "server survives malformed specs");
    assert_eq!(ok.header("x-cache"), Some("miss"));

    let metrics = request(&addr, "GET", "/metrics", None).unwrap();
    assert!(
        metrics.body.contains(&format!(
            "tbstc_jobs_total{{outcome=\"bad_request\"}} {}",
            bad_specs.len()
        )),
        "every malformed spec is counted: {}",
        metrics.body
    );
    assert!(metrics.body.contains("tbstc_jobs_total{outcome=\"ok\"} 1"));

    running.shutdown_and_join();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn inline_arch_specs_compute_cache_and_reject_cleanly() {
    let dir = tmp_dir("inline-spec");
    let running = Server::bind(cfg(&dir)).unwrap().spawn().unwrap();
    let addr = running.addr.to_string();

    // The TB-STC document as `GET /v1/archs` serves it: the rendering of
    // the registry's spec.
    let catalog = request(&addr, "GET", "/v1/archs", None).unwrap();
    assert_eq!(catalog.status, 200);
    let catalog = tbstc::json::Json::parse(catalog.body.trim()).unwrap();
    let served = catalog
        .get("archs")
        .and_then(tbstc::json::Json::as_arr)
        .and_then(|archs| {
            archs
                .iter()
                .find(|a| a.get("name").and_then(tbstc::json::Json::as_str) == Some("tb-stc"))
        })
        .and_then(|a| a.get("spec"))
        .expect("catalog lists tb-stc with its spec")
        .to_string();
    let rendered =
        tbstc::archspec::spec_to_value(tbstc::sim::Arch::TbStc.model().spec()).to_string();
    assert_eq!(served, rendered);
    let doc = served.as_str();
    let inline_job = format!(
        r#"{{"type":"simulate","arch_spec":{doc},
            "model":{{"kind":"gcn","nodes":64,"features":16}},"sparsity":0.5}}"#
    );

    let first = request(&addr, "POST", "/v1/jobs", Some(&inline_job)).unwrap();
    assert_eq!(first.status, 200, "{}", first.body);
    assert_eq!(first.header("x-cache"), Some("miss"));
    let inline_key = first.header("x-job-key").unwrap().to_string();

    // Resubmission is a pure cache hit: the spec document is
    // content-addressed into the job key like any other field.
    let second = request(&addr, "POST", "/v1/jobs", Some(&inline_job)).unwrap();
    assert_eq!(second.header("x-cache"), Some("hit"));
    assert_eq!(second.body, first.body);

    // The same job through the builtin path keys differently (the body
    // echoes a different job spec) but computes the bit-identical
    // `result` — interpreter parity, observed end-to-end over HTTP.
    let builtin = request(&addr, "POST", "/v1/jobs", Some(GCN_JOB)).unwrap();
    assert_eq!(builtin.status, 200);
    assert_eq!(builtin.header("x-cache"), Some("miss"));
    assert_ne!(builtin.header("x-job-key"), Some(inline_key.as_str()));
    let result_of = |body: &str| {
        tbstc::json::Json::parse(body.trim())
            .unwrap()
            .get("result")
            .cloned()
            .expect("200 body carries a result")
    };
    assert_eq!(
        result_of(&builtin.body),
        result_of(&first.body),
        "spec-interpreted == native"
    );

    // Malformed inline specs are clean 400s that name the field path.
    let mut with_unknown = tbstc::json::Json::parse(doc).unwrap();
    if let tbstc::json::Json::Obj(m) = &mut with_unknown {
        m.insert("wave_size".into(), tbstc::json::Json::Int(32));
    }
    let mut zero_efficiency = tbstc::json::Json::parse(doc).unwrap();
    if let tbstc::json::Json::Obj(m) = &mut zero_efficiency {
        if let Some(tbstc::json::Json::Obj(df)) = m.get_mut("dataflow") {
            df.insert("efficiency".into(), tbstc::json::Json::Num(0.0));
        }
    }
    let mut few_lanes = tbstc::json::Json::parse(doc).unwrap();
    if let tbstc::json::Json::Obj(m) = &mut few_lanes {
        m.insert("lanes".into(), tbstc::json::Json::Int(4));
    }
    let wrap = |spec_doc: String| {
        format!(
            r#"{{"type":"simulate","arch_spec":{spec_doc},
                "model":{{"kind":"gcn","nodes":64,"features":16}},"sparsity":0.5}}"#
        )
    };
    let cases = [
        (wrap(with_unknown.to_string()), "arch_spec.wave_size"),
        (
            wrap(zero_efficiency.to_string()),
            "arch_spec.dataflow.efficiency",
        ),
        (wrap(few_lanes.to_string()), "arch_spec.lanes"),
        (
            format!(
                r#"{{"type":"simulate","arch":"tb-stc","arch_spec":{doc},
                    "model":{{"kind":"gcn","nodes":64,"features":16}},"sparsity":0.5}}"#
            ),
            "not both",
        ),
    ];
    for (bad, needle) in &cases {
        let resp = request(&addr, "POST", "/v1/jobs", Some(bad)).unwrap();
        assert_eq!(resp.status, 400, "{}", resp.body);
        assert!(
            resp.body.contains(needle),
            "400 names `{needle}`: {}",
            resp.body
        );
    }

    running.shutdown_and_join();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn sweep_jobs_cache_and_memo_persists_across_restart() {
    let dir = tmp_dir("sweep");
    let sweep_job = r#"{"type":"sweep","archs":["tb-stc","stc"],
        "models":[{"kind":"gcn","nodes":64,"features":16}],
        "sparsities":[0.5,0.75]}"#;

    let running = Server::bind(cfg(&dir)).unwrap().spawn().unwrap();
    let addr = running.addr.to_string();
    let first = request(&addr, "POST", "/v1/jobs", Some(sweep_job)).unwrap();
    assert_eq!(first.status, 200);
    assert_eq!(first.header("x-cache"), Some("miss"));
    running.shutdown_and_join();

    // The shutdown flush wrote the memo file.
    let memo = std::fs::read_to_string(dir.join("memo.jsonl")).unwrap();
    assert!(memo.starts_with(r#"{"format":"tbstc-memo","version":1}"#));
    assert_eq!(
        memo.lines().count(),
        1 + 4,
        "header + 2 archs x 2 sparsities"
    );

    // A restarted server preloads the memo: a *different* job spec whose
    // grid overlaps (so the disk cache cannot answer it) recomputes
    // nothing — every grid point is a memo hit.
    let running = Server::bind(cfg(&dir)).unwrap().spawn().unwrap();
    let addr = running.addr.to_string();
    let overlapping = r#"{"type":"sweep","archs":["tb-stc"],
        "models":[{"kind":"gcn","nodes":64,"features":16}],
        "sparsities":[0.5,0.75]}"#;
    let resp = request(&addr, "POST", "/v1/jobs", Some(overlapping)).unwrap();
    assert_eq!(resp.status, 200);
    assert_eq!(
        resp.header("x-cache"),
        Some("miss"),
        "different spec, new disk entry"
    );
    let metrics = request(&addr, "GET", "/metrics", None).unwrap();
    assert!(
        metrics
            .body
            .contains("tbstc_cache_hits_total{tier=\"memo\"} 2"),
        "both grid points served from the preloaded memo: {}",
        metrics.body
    );
    running.shutdown_and_join();

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn distinct_cold_simulates_execute_singly_without_memo_hits() {
    use tbstc::jobspec::{JobSpec, DEFAULT_BANDWIDTH_GBPS};
    use tbstc::runner::SweepRunner;
    use tbstc::sim::HwConfig;

    let dir = tmp_dir("single");
    let running = Server::bind(ServeConfig {
        job_workers: 1,
        hold_ms: 300, // the first job holds the worker while the rest queue
        ..cfg(&dir)
    })
    .unwrap()
    .spawn()
    .unwrap();
    let addr = running.addr.to_string();

    let specs: Vec<String> = (0..4)
        .map(|seed| {
            format!(
                r#"{{"type":"simulate","arch":"tb-stc","model":{{"kind":"gcn","nodes":64,"features":16}},"sparsity":0.5,"seed":{seed}}}"#
            )
        })
        .collect();
    let clients: Vec<_> = specs
        .iter()
        .map(|body| {
            let (addr, body) = (addr.clone(), body.clone());
            std::thread::spawn(move || request(&addr, "POST", "/v1/jobs", Some(&body)).unwrap())
        })
        .collect();
    let engine = SweepRunner::new(HwConfig::with_bandwidth_gbps(DEFAULT_BANDWIDTH_GBPS));
    for (body, client) in specs.iter().zip(clients) {
        let resp = client.join().unwrap();
        assert_eq!(resp.status, 200, "{}", resp.body);
        let expected = JobSpec::from_json(body).unwrap().execute(&engine);
        assert_eq!(
            resp.body,
            format!("{expected}\n"),
            "served bytes = direct execution"
        );
    }

    let metrics = request(&addr, "GET", "/metrics", None).unwrap().body;
    assert!(metrics.contains("tbstc_jobs_executed_total 4"), "{metrics}");
    assert!(
        metrics.contains("tbstc_cache_hits_total{tier=\"memo\"} 0"),
        "cold executions are not memo hits: {metrics}"
    );
    running.shutdown_and_join();
    let _ = std::fs::remove_dir_all(&dir);
}
