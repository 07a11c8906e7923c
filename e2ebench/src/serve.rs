//! `serve-hot`: a closed loop of [`WORKERS`] keep-alive connections
//! against a self-hosted `tbstc-serve`, drawing from 64 small `simulate`
//! specs with zipf(1.1) popularity, so after warm-up every request is a
//! hot-tier hit: it loads the HTTP front end, job-spec parsing and the
//! LRU, and almost no simulation. Its traced run adds the cold phase
//! (every request a distinct spec: coalesce → queue → execute → store
//! write) and the durable phase ([`crate::jobs`]). Also here: server
//! set-up, `/metrics` scraping and the serve-side layer probes.

use std::cell::Cell;
use std::collections::BTreeMap;
use std::hint::black_box;
use std::net::SocketAddr;
use std::path::Path;
use std::time::{Duration, Instant};

use tbstc::prelude::*;
use tbstc_bench::loadgen::{XorShift64Star, Zipf};
use tbstc_serve::{
    poll_fds, PollFd, ResultStore, Running, ServeConfig, Server, ShardedLru, POLLIN, POLLOUT,
};

use crate::check::body_matches;
use crate::http::Conn;
use crate::stats::median;
use crate::sweep::SPARSITIES;
use crate::window::{self, keep_going, Slicer, MIN_SAMPLES};
use crate::{Outcome, WORKERS};

/// Distinct specs in the hot workload's popularity universe.
pub const HOT_SPECS: usize = 64;
/// Zipf exponent of the hot workload.
const HOT_ZIPF: f64 = 1.1;
/// Server set-ups measured per run; the median is reported.
const SETUP_REPS: usize = 21;
/// Cold bodies checked after the window, at most.
const COLD_CHECKS: usize = 48;
/// Repetitions per probe input for the microsecond-scale layer probes.
const PROBE_REPS: usize = 50;

/// The GCN sizes the serve workloads simulate: small enough that a cold
/// request's cost is the service path, not the simulator.
const GCN_SIZES: [(usize, usize); 2] = [(64, 16), (128, 32)];

/// A `simulate` job body.
pub fn simulate_body(
    arch: Arch,
    (nodes, features): (usize, usize),
    sparsity: f64,
    seed: u64,
) -> String {
    format!(
        r#"{{"type":"simulate","arch":"{}","model":{{"kind":"gcn","nodes":{nodes},"features":{features}}},"sparsity":{sparsity},"seed":{seed}}}"#,
        arch.canonical_name()
    )
}

/// A value derived from the workload seed and a stream tag, so each
/// stream (specs, connection c, sample choice) is seeded independently.
pub fn stream(seed: u64, tag: u64) -> XorShift64Star {
    XorShift64Star::new(seed.wrapping_mul(0x1000_0000_01b3) ^ tag.wrapping_mul(0x9E37_79B9))
}

fn pick<T: Copy>(rng: &mut XorShift64Star, xs: &[T]) -> T {
    xs[(rng.next_u64() % xs.len() as u64) as usize]
}

/// The hot workload's spec universe for `seed`: 64 distinct small specs.
pub fn hot_specs(seed: u64) -> Vec<String> {
    let mut rng = stream(seed, 1);
    (0..HOT_SPECS as u64)
        .map(|i| {
            let arch = pick(&mut rng, &Arch::ALL);
            let sparsity = pick(&mut rng, &SPARSITIES);
            let weights = (rng.next_u64() % 1_000_000) * HOT_SPECS as u64 + i;
            simulate_body(arch, GCN_SIZES[0], sparsity, weights)
        })
        .collect()
}

/// The `n`-th request of connection `conn` in the hot workload: a spec
/// index under zipf popularity, from a per-connection seeded stream.
pub fn hot_sequence(seed: u64, conn: u64, n: usize) -> Vec<usize> {
    let zipf = Zipf::new(HOT_SPECS, HOT_ZIPF);
    let mut rng = stream(seed, 100 + conn);
    (0..n).map(|_| zipf.sample(rng.next_f64())).collect()
}

/// The `k`-th cold request for `seed`: every architecture and both GCN
/// sizes in turn, with a weight seed no other request shares.
pub fn cold_spec(seed: u64, k: u64) -> String {
    let arch = Arch::ALL[(k % 8) as usize];
    let size = GCN_SIZES[((k / 8) % 2) as usize];
    let sparsity = SPARSITIES[((k / 16) % 3) as usize];
    simulate_body(arch, size, sparsity, (seed % 1_000_000) * 1_000_000_000 + k)
}

/// The response body the server must send for `body`: the spec executed
/// on a fresh engine in-process.
pub fn expected_body(body: &str) -> Result<String, String> {
    let spec = JobSpec::from_json(body).map_err(|e| e.to_string())?;
    let engine = SweepRunner::new(HwConfig::with_bandwidth_gbps(spec.bandwidth_gbps()));
    Ok(format!("{}\n", spec.execute(&engine)))
}

/// Boots a server on an ephemeral port over `dir`.
pub fn boot(dir: &Path) -> Result<Running, String> {
    let cfg = ServeConfig {
        addr: "127.0.0.1:0".into(),
        job_workers: WORKERS,
        cache_dir: dir.to_path_buf(),
        quiet: true,
        ..ServeConfig::default()
    };
    Server::bind(cfg)
        .and_then(Server::spawn)
        .map_err(|e| e.to_string())
}

/// Times `SETUP_REPS` set-ups: bind over a fresh store (the boot scan
/// included) until the first request has been served. Workloads take
/// half before and half after their window, so the reported median
/// spans the window rather than one moment of the host.
pub fn setups(work: &Path, tag: &str, times: &mut Vec<f64>) -> Result<(), String> {
    for i in 0..SETUP_REPS / 2 + 1 {
        let dir = work.join(format!("setup-{tag}-{i}"));
        let t = Instant::now();
        let running = boot(&dir)?;
        let resp = Conn::connect(running.addr)
            .and_then(|mut c| c.request("GET", "/healthz", ""))
            .map_err(|e| format!("first request: {e}"))?;
        times.push(t.elapsed().as_secs_f64());
        running.shutdown_and_join();
        let _ = std::fs::remove_dir_all(&dir);
        if resp.status != 200 {
            return Err(format!("first request answered {}", resp.status));
        }
    }
    Ok(())
}

/// `/metrics` as series → value (`name{labels}` keys).
pub fn scrape(addr: SocketAddr) -> Result<BTreeMap<String, f64>, String> {
    let resp = Conn::connect(addr)
        .and_then(|mut c| c.request("GET", "/metrics", ""))
        .map_err(|e| format!("/metrics: {e}"))?;
    if resp.status != 200 {
        return Err(format!("/metrics answered {}", resp.status));
    }
    Ok(parse_metrics(&String::from_utf8_lossy(&resp.body)))
}

/// Parses Prometheus text exposition into series → value.
pub fn parse_metrics(text: &str) -> BTreeMap<String, f64> {
    text.lines()
        .filter(|l| !l.starts_with('#'))
        .filter_map(|l| {
            let (series, value) = l.rsplit_once(' ')?;
            Some((series.to_string(), value.parse().ok()?))
        })
        .collect()
}

/// Counter deltas over a window.
pub struct Deltas<'a> {
    before: &'a BTreeMap<String, f64>,
    after: &'a BTreeMap<String, f64>,
}

impl<'a> Deltas<'a> {
    /// The window between two scrapes.
    pub fn new(before: &'a BTreeMap<String, f64>, after: &'a BTreeMap<String, f64>) -> Self {
        Deltas { before, after }
    }

    /// The growth of one series across the window.
    pub fn get(&self, series: &str) -> f64 {
        let v = |m: &BTreeMap<String, f64>| m.get(series).copied().unwrap_or(0.0);
        v(self.after) - v(self.before)
    }
}

/// One window's tally over its client streams.
#[derive(Default)]
pub(crate) struct Tally {
    /// One slicer per connection (or sequential client).
    pub streams: Vec<Slicer>,
    pub attempted: u64,
    pub failed: u64,
    /// Sum and count of the latencies of answered ops, for the mean.
    pub latency_sum_us: f64,
    pub answered: u64,
    /// `(request index, body)` of the bodies kept for a later check.
    pub kept: Vec<(u64, Vec<u8>)>,
}

impl Tally {
    /// Records one answered op on stream `slicer`.
    pub fn answered(&mut self, slicer: &mut Slicer, t_done: f64, latency_us: f64) {
        slicer.record(t_done, latency_us);
        self.latency_sum_us += latency_us;
        self.answered += 1;
    }
}

/// How long the loop waits for requests still in flight when the window
/// closes; any not answered by then count as failed.
const DRAIN: Duration = Duration::from_secs(30);

/// One connection of the closed loop.
struct Client {
    conn: Option<Conn>,
    slicer: Slicer,
    sent: usize,
    /// The in-flight request: its index and when it started.
    in_flight: Option<(u64, Instant)>,
}

fn open_conn(addr: SocketAddr) -> Option<Conn> {
    let conn = Conn::connect(addr).ok()?;
    conn.set_nonblocking().ok()?;
    Some(conn)
}

/// Runs the closed loop: [`WORKERS`] keep-alive connections driven from
/// this one thread by `poll(2)`, each sending its next request when the
/// previous response has arrived, until `seconds` pass. One client
/// thread and the server's event-loop thread fit the two cores without
/// contending for one. `next(conn, i)` names the request (an index and
/// its body); `check` judges a 200 body right or wrong, or keeps it for
/// a later check (`None`).
fn closed_loop(
    addr: SocketAddr,
    seconds: f64,
    next: &dyn Fn(u64, usize) -> (u64, String),
    check: &dyn Fn(u64, &[u8]) -> Option<bool>,
) -> Tally {
    let mut tally = Tally::default();
    let mut clients: Vec<Client> = (0..WORKERS)
        .map(|_| Client {
            conn: open_conn(addr),
            slicer: Slicer::new(MIN_SAMPLES),
            sent: 0,
            in_flight: None,
        })
        .collect();
    let mut fds: Vec<PollFd> = Vec::with_capacity(WORKERS);
    let mut ready: Vec<usize> = Vec::with_capacity(WORKERS);
    let start = Instant::now();
    let mut closed_at = None;
    loop {
        let open = keep_going(start, seconds, tally.answered as usize);
        if !open && closed_at.is_none() {
            closed_at = Some(Instant::now());
        }
        for (ci, c) in clients.iter_mut().enumerate() {
            if !open || c.in_flight.is_some() {
                continue;
            }
            let (index, body) = next(ci as u64, c.sent);
            c.sent += 1;
            tally.attempted += 1;
            if c.conn.is_none() {
                c.conn = open_conn(addr);
            }
            match c.conn.as_mut() {
                Some(conn) => {
                    conn.start("POST", "/v1/jobs", &body);
                    c.in_flight = Some((index, Instant::now()));
                }
                None => tally.failed += 1,
            }
        }
        let busy = clients.iter().filter(|c| c.in_flight.is_some()).count() as u64;
        if busy == 0 && !open {
            break;
        }
        if closed_at.is_some_and(|t| t.elapsed() > DRAIN) {
            tally.failed += busy;
            break;
        }
        fds.clear();
        ready.clear();
        for (ci, c) in clients.iter().enumerate() {
            if let (Some(conn), Some(_)) = (&c.conn, c.in_flight) {
                let events = if conn.wants_write() { POLLOUT } else { POLLIN };
                fds.push(PollFd::new(conn.fd(), events));
                ready.push(ci);
            }
        }
        if poll_fds(&mut fds, 100).is_err() {
            continue;
        }
        for (fd, &ci) in fds.iter().zip(&ready) {
            if fd.revents == 0 {
                continue;
            }
            let c = &mut clients[ci];
            let Some(conn) = c.conn.as_mut() else {
                continue;
            };
            let Some((index, t)) = c.in_flight else {
                continue;
            };
            match conn.pump() {
                Ok(None) => {}
                Ok(Some(r)) => {
                    c.in_flight = None;
                    if r.status != 200 {
                        tally.failed += 1;
                        continue;
                    }
                    let lat = t.elapsed().as_secs_f64() * 1e6;
                    tally.answered(&mut c.slicer, start.elapsed().as_secs_f64(), lat);
                    match check(index, &r.body) {
                        Some(true) => {}
                        Some(false) => tally.failed += 1,
                        None => tally.kept.push((index, r.body)),
                    }
                }
                Err(_) => {
                    c.in_flight = None;
                    c.conn = None;
                    tally.failed += 1;
                }
            }
        }
    }
    tally.streams = clients.into_iter().map(|c| c.slicer).collect();
    tally
}

/// Fills the end-to-end metrics from a window's tally and returns the
/// client's mean latency, µs.
pub(crate) fn end_to_end(out: &mut Outcome, tally: Tally) -> f64 {
    out.attempted += tally.attempted;
    out.failed += tally.failed;
    window::record(out, tally.streams);
    tally.latency_sum_us / tally.answered.max(1) as f64
}

/// The front-end per-layer metrics of a window: the server's own mean
/// latency from its histogram, the client's mean, and what the hot and
/// disk tiers answered.
pub fn front_end_counters(out: &mut Outcome, d: &Deltas<'_>, client_mean_us: f64) {
    let requests = d.get("tbstc_requests_total{endpoint=\"jobs\"}").max(1.0);
    let observed = d.get("tbstc_job_latency_seconds_count");
    let v = &mut out.values;
    v.insert("client.mean_us".into(), client_mean_us);
    // Durable jobs are not in the server's latency histogram; with
    // nothing observed there is no front-end share to split off.
    if observed > 0.0 {
        let server_mean_us = d.get("tbstc_job_latency_seconds_sum") * 1e6 / observed;
        v.insert("serve.server_latency_mean_us".into(), server_mean_us);
        v.insert(
            "serve.frontend_mean_us".into(),
            client_mean_us - server_mean_us,
        );
    }
    v.insert(
        "serve.hit_ratio.mem".into(),
        d.get("tbstc_cache_hits_total{tier=\"mem\"}") / requests,
    );
    v.insert(
        "serve.hit_ratio.disk".into(),
        d.get("tbstc_cache_hits_total{tier=\"disk\"}") / requests,
    );
}

/// The coalesce/queue per-layer metrics of a window.
pub fn queue_counters(out: &mut Outcome, d: &Deltas<'_>, window_s: f64) {
    let requests = d.get("tbstc_requests_total{endpoint=\"jobs\"}").max(1.0);
    let executed = d.get("tbstc_jobs_executed_total");
    // Busy worker seconds = utilization × uptime × workers, so its
    // growth over the window gives the window's own utilization.
    let busy = |m: &BTreeMap<String, f64>| {
        m.get("tbstc_worker_utilization").copied().unwrap_or(0.0)
            * m.get("tbstc_uptime_seconds").copied().unwrap_or(0.0)
    };
    let v = &mut out.values;
    v.insert(
        "serve.coalesced_ratio".into(),
        d.get("tbstc_jobs_coalesced_total") / requests,
    );
    v.insert(
        "serve.batched_ratio".into(),
        d.get("tbstc_jobs_batched_total") / executed.max(1.0),
    );
    v.insert("serve.rejected".into(), d.get("tbstc_jobs_rejected_total"));
    v.insert(
        "serve.worker_utilization".into(),
        ((busy(d.after) - busy(d.before)) / (window_s.max(1e-9) * WORKERS as f64)).max(0.0),
    );
}

fn time_us(f: impl FnOnce()) -> f64 {
    let t = Instant::now();
    f();
    t.elapsed().as_secs_f64() * 1e6
}

/// Probes of the request-path layers on bench-owned instances with the
/// workload's real bodies: spec parse + cache key, hot-tier get, and
/// disk-store put (tmp + fsync + rename) and get.
pub fn serve_probes(
    out: &mut Outcome,
    pairs: &[(String, String)],
    work: &Path,
) -> Result<(), String> {
    let mut parse = Vec::with_capacity(pairs.len() * PROBE_REPS);
    let mut keys = Vec::with_capacity(pairs.len());
    for (spec, _) in pairs {
        for _ in 0..PROBE_REPS {
            parse.push(time_us(|| {
                let key = JobSpec::from_json(black_box(spec)).map(|s| s.cache_key());
                black_box(key).ok();
            }));
        }
        let key = JobSpec::from_json(spec)
            .map_err(|e| e.to_string())?
            .cache_key();
        keys.push(key);
    }
    let lru = ShardedLru::default();
    for (key, (_, body)) in keys.iter().zip(pairs) {
        lru.put(key, body);
    }
    let mut lru_get = Vec::with_capacity(keys.len() * PROBE_REPS);
    for key in &keys {
        for _ in 0..PROBE_REPS {
            lru_get.push(time_us(|| {
                black_box(lru.get(black_box(key)));
            }));
        }
    }
    let store = ResultStore::open(work.join("probe-store")).map_err(|e| e.to_string())?;
    let mut put = Vec::with_capacity(keys.len());
    let mut get = Vec::with_capacity(keys.len());
    for (key, (_, body)) in keys.iter().zip(pairs) {
        let mut res = Ok(());
        put.push(time_us(|| res = store.put(key, body)));
        res.map_err(|e| e.to_string())?;
        get.push(time_us(|| {
            black_box(store.get(key));
        }));
    }
    let v = &mut out.values;
    v.insert("core.jobspec_parse_us".into(), median(&parse));
    v.insert("serve.lru_get_us".into(), median(&lru_get));
    v.insert("serve.store_put_us".into(), median(&put));
    v.insert("serve.store_get_us".into(), median(&get));
    Ok(())
}

/// Reference bodies, each with the time its `JobSpec::execute` on a
/// fresh engine took (µs).
pub(crate) fn reference_bodies(specs: &[String]) -> Result<Vec<(String, f64)>, String> {
    specs
        .iter()
        .map(|spec| {
            let t = Instant::now();
            let body = expected_body(spec)?;
            Ok((body, t.elapsed().as_secs_f64() * 1e6))
        })
        .collect()
}

/// The grid points of a list of job bodies, for the staged replay.
pub fn grid_points(specs: &[String]) -> Result<Vec<SimJob>, String> {
    let mut points = Vec::with_capacity(specs.len());
    for s in specs {
        points.extend(
            JobSpec::from_json(s)
                .map_err(|e| e.to_string())?
                .grid_jobs(),
        );
    }
    Ok(points)
}

/// `serve-hot`. Its traced run adds a cold phase and a durable phase of
/// `seconds / 2` each, so the write path and the durable path are
/// measured layer by layer too (as `cold.*` and `durable.*`): their
/// fsync-bound times vary too much on a shared host to gate a change.
pub fn run_hot(seed: u64, seconds: f64, trace: bool, work: &Path) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let specs = hot_specs(seed);
    // Reference bodies come first, outside every timed section.
    let expected = reference_bodies(&specs)?;
    let mut setup = Vec::with_capacity(SETUP_REPS + 1);
    setups(work, "before", &mut setup)?;
    let running = boot(&work.join("store"))?;
    let addr = running.addr;
    // Warm-up: every spec once, so the window sees a filled hot tier.
    let mut warm = Conn::connect(addr).map_err(|e| e.to_string())?;
    for (spec, (want, _)) in specs.iter().zip(&expected) {
        let r = warm
            .request("POST", "/v1/jobs", spec)
            .map_err(|e| e.to_string())?;
        if r.status != 200 || !body_matches(&r.body, want) {
            out.checks_failed = true;
            out.notes.push(format!(
                "warm-up request answered {} or a wrong body",
                r.status
            ));
        }
    }
    drop(warm);
    // Request sequences are drawn up front so the loop does no sampling.
    let sequences: Vec<Vec<usize>> = (0..WORKERS as u64)
        .map(|c| hot_sequence(seed, c, 1 << 16))
        .collect();
    let before = scrape(addr)?;
    let next = |conn: u64, i: usize| {
        let seq = &sequences[conn as usize];
        let idx = seq[i % seq.len()];
        (idx as u64, specs[idx].clone())
    };
    let check = |idx: u64, body: &[u8]| Some(body_matches(body, &expected[idx as usize].0));
    let tally = closed_loop(addr, seconds, &next, &check);
    let after = scrape(addr)?;
    running.shutdown_and_join();
    setups(work, "after", &mut setup)?;
    out.values.insert("setup_s".into(), median(&setup));
    let client_mean = end_to_end(&mut out, tally);
    let d = Deltas::new(&before, &after);
    out.notes.push(format!(
        "serve-hot: {} requests on {WORKERS} connections, {:.4} answered from the hot tier",
        d.get("tbstc_requests_total{endpoint=\"jobs\"}"),
        d.get("tbstc_cache_hits_total{tier=\"mem\"}")
            / d.get("tbstc_requests_total{endpoint=\"jobs\"}").max(1.0)
    ));
    if trace {
        front_end_counters(&mut out, &d, client_mean);
        let pairs: Vec<(String, String)> = specs
            .iter()
            .cloned()
            .zip(expected.into_iter().map(|(body, _)| body))
            .collect();
        serve_probes(&mut out, &pairs, work)?;
        out.merge("cold", cold_phase(seed, seconds / 2.0, work)?);
        out.merge(
            "durable",
            crate::jobs::durable_phase(seed, seconds / 2.0, work)?,
        );
        crate::sweep::trace(&grid_points(&specs)?, &mut out);
    }
    Ok(out)
}

/// The cold phase of the traced `serve-hot` run: the same client, but
/// every request a distinct `simulate` spec, so every request runs
/// coalesce/batch → queue → execute → fsync'd store write.
fn cold_phase(seed: u64, seconds: f64, work: &Path) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let running = boot(&work.join("cold-store"))?;
    let addr = running.addr;
    let before = scrape(addr)?;
    let counter = Cell::new(0u64);
    let next = |_conn: u64, _i: usize| {
        let k = counter.get();
        counter.set(k + 1);
        (k, cold_spec(seed, k))
    };
    // A seeded sample of bodies is kept for checking after the window.
    let sample_tag = stream(seed, 2).next_u64();
    let check = |k: u64, _body: &[u8]| (!(k ^ sample_tag).is_multiple_of(16)).then_some(true);
    let window = Instant::now();
    let mut tally = closed_loop(addr, seconds, &next, &check);
    let elapsed = window.elapsed().as_secs_f64();
    let after = scrape(addr)?;
    running.shutdown_and_join();

    let mut kept = std::mem::take(&mut tally.kept);
    kept.sort_by_key(|(k, _)| *k);
    kept.truncate(COLD_CHECKS);
    let specs: Vec<String> = kept.iter().map(|(k, _)| cold_spec(seed, *k)).collect();
    let expected = reference_bodies(&specs)?;
    let wrong = kept
        .iter()
        .zip(&expected)
        .filter(|((_, got), (want, _))| !body_matches(got, want))
        .count() as u64;
    tally.failed += wrong;
    let exec: Vec<f64> = expected.iter().map(|(_, us)| *us).collect();
    out.values.insert("runner.execute_us".into(), median(&exec));
    end_to_end(&mut out, tally);
    let d = Deltas::new(&before, &after);
    queue_counters(&mut out, &d, elapsed);
    out.notes.push(format!(
        "cold phase: {} requests in {elapsed:.2} s, {} executed, {wrong} of {} sampled bodies wrong",
        d.get("tbstc_requests_total{endpoint=\"jobs\"}"),
        d.get("tbstc_jobs_executed_total"),
        kept.len()
    ));
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_sequences_follow_the_seed() {
        assert_eq!(hot_specs(5), hot_specs(5));
        assert_ne!(hot_specs(5), hot_specs(6));
        let specs = hot_specs(5);
        let distinct: std::collections::BTreeSet<_> = specs.iter().collect();
        assert_eq!(distinct.len(), HOT_SPECS, "64 distinct specs");
        assert_eq!(hot_sequence(5, 0, 256), hot_sequence(5, 0, 256));
        assert_ne!(hot_sequence(5, 0, 256), hot_sequence(6, 0, 256));
        assert_ne!(
            hot_sequence(5, 0, 256),
            hot_sequence(5, 1, 256),
            "connections differ"
        );
        assert_eq!(cold_spec(5, 9), cold_spec(5, 9));
        assert_ne!(cold_spec(5, 9), cold_spec(6, 9));
        let cold: std::collections::BTreeSet<_> = (0..512).map(|k| cold_spec(5, k)).collect();
        assert_eq!(cold.len(), 512, "every cold request is distinct");
        for body in specs
            .iter()
            .chain(&cold.into_iter().take(32).collect::<Vec<_>>())
        {
            JobSpec::from_json(body).expect("generated specs parse");
        }
    }

    #[test]
    fn metrics_text_parses_into_series() {
        let text = "# HELP x y\n# TYPE x counter\ntbstc_cache_hits_total{tier=\"mem\"} 41\ntbstc_uptime_seconds 1.500\n";
        let m = parse_metrics(text);
        assert_eq!(m.get("tbstc_cache_hits_total{tier=\"mem\"}"), Some(&41.0));
        assert_eq!(m.get("tbstc_uptime_seconds"), Some(&1.5));
        let after: BTreeMap<String, f64> = [("tbstc_uptime_seconds".to_string(), 4.0)].into();
        assert_eq!(Deltas::new(&m, &after).get("tbstc_uptime_seconds"), 2.5);
    }

    #[test]
    fn a_wrong_body_from_a_live_server_counts_as_failed() {
        let dir = std::env::temp_dir().join(format!("e2ebench-test-{}", std::process::id()));
        let running = boot(&dir).expect("boot");
        let specs = hot_specs(1);
        let right = expected_body(&specs[0]).expect("reference");
        let wrong = right.replacen("\"cycles\"", "\"cycles \"", 1);
        let next = |_c: u64, _i: usize| (0u64, specs[0].clone());
        let good = closed_loop(running.addr, 0.2, &next, &|_, b| {
            Some(body_matches(b, &right))
        });
        let bad = closed_loop(running.addr, 0.2, &next, &|_, b| {
            Some(body_matches(b, &wrong))
        });
        running.shutdown_and_join();
        let _ = std::fs::remove_dir_all(&dir);
        assert!(good.attempted > 0 && good.failed == 0, "right bodies pass");
        assert_eq!(
            bad.failed, bad.attempted,
            "every wrong body counts as failed"
        );
    }
}
