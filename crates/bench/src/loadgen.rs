//! An event-driven HTTP load generator for `tbstc-serve`.
//!
//! The generator drives N keep-alive connections against a running
//! server from a single thread, using the same `poll(2)` readiness
//! shim the server's own event loop is built on
//! ([`tbstc_serve::poll_fds`]). Each connection runs a closed loop —
//! write one job submission, read the full response, submit the next —
//! so concurrency equals the connection count and per-request latency
//! is measured end to end (first request byte written → last response
//! byte read).
//!
//! Request popularity is zipfian over a configurable universe of
//! distinct job specs: a handful of hot specs dominate (exercising the
//! in-memory hot tier and single-flight coalescing) while the tail
//! stays cold (exercising execution and the disk tier). The RNG is a
//! seeded xorshift64* so a given `(seed, connections, requests)`
//! triple replays the identical request sequence.
//!
//! The report carries throughput (requests per second), the p50/p99/
//! p999 latency percentiles, the failure count, and the observed cache
//! hit rate. `tbstc-cli loadgen` wraps this as a subcommand.

use std::io::{ErrorKind, Read, Write};
use std::net::TcpStream;
use std::os::fd::AsRawFd;
use std::time::{Duration, Instant};

use tbstc::Error;
use tbstc_serve::http::ClientResponse;
use tbstc_serve::{poll_fds, PollFd, POLLERR, POLLHUP, POLLIN, POLLOUT};

/// Knobs for one load-generation run.
#[derive(Debug, Clone, PartialEq)]
pub struct LoadgenConfig {
    /// Server address, e.g. `127.0.0.1:8841`.
    pub addr: String,
    /// Concurrent keep-alive connections.
    pub connections: usize,
    /// Total requests across all connections.
    pub requests: usize,
    /// Distinct job specs in the popularity universe.
    pub distinct_specs: usize,
    /// Zipf exponent (1.0–1.3 is web-like; higher = more skew).
    pub zipf_exponent: f64,
    /// RNG seed; the full request sequence is a function of it.
    pub seed: u64,
    /// Safety deadline for the whole run.
    pub deadline: Duration,
}

impl Default for LoadgenConfig {
    fn default() -> Self {
        LoadgenConfig {
            addr: String::new(),
            connections: 64,
            requests: 512,
            distinct_specs: 16,
            zipf_exponent: 1.1,
            seed: 1,
            deadline: Duration::from_secs(120),
        }
    }
}

/// The measured outcome of a run.
#[derive(Debug, Clone, PartialEq)]
pub struct LoadReport {
    /// Connections the run drove.
    pub connections: usize,
    /// Requests that completed with HTTP 200.
    pub completed: usize,
    /// Requests that failed (non-200, transport error, or never issued
    /// before the deadline/connection loss).
    pub failed: usize,
    /// Wall-clock seconds from first byte written to last response.
    pub elapsed_s: f64,
    /// Completed requests per second.
    pub rps: f64,
    /// Median end-to-end latency, µs.
    pub p50_us: f64,
    /// 99th-percentile latency, µs.
    pub p99_us: f64,
    /// 99.9th-percentile latency, µs.
    pub p999_us: f64,
    /// Fraction of completed requests answered `X-Cache: hit`.
    pub hit_rate: f64,
}

impl LoadReport {
    /// Hand-rolled JSON encoding (the workspace carries no serde).
    pub fn to_json(&self) -> String {
        format!(
            "{{\n  \"connections\": {},\n  \"completed\": {},\n  \"failed\": {},\n  \"elapsed_s\": {:.3},\n  \"rps\": {:.2},\n  \"p50_us\": {:.1},\n  \"p99_us\": {:.1},\n  \"p999_us\": {:.1},\n  \"hit_rate\": {:.4}\n}}\n",
            self.connections,
            self.completed,
            self.failed,
            self.elapsed_s,
            self.rps,
            self.p50_us,
            self.p99_us,
            self.p999_us,
            self.hit_rate,
        )
    }
}

/// Deterministic xorshift64* generator (Vigna 2016) — tiny, seedable,
/// and plenty for popularity sampling.
#[derive(Debug, Clone)]
pub struct XorShift64Star {
    state: u64,
}

impl XorShift64Star {
    /// Seeds the generator; a zero seed is remapped so the state never
    /// sticks at the all-zero fixed point.
    pub fn new(seed: u64) -> Self {
        XorShift64Star {
            state: seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).max(1),
        }
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        let mut x = self.state;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.state = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    /// Uniform draw in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// Zipfian popularity over ranks `0..n`: rank `i` has weight
/// `1/(i+1)^s`. Sampling is a binary search over the precomputed CDF.
#[derive(Debug, Clone)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    /// Builds the CDF for `n` ranks with exponent `s`.
    pub fn new(n: usize, s: f64) -> Self {
        let n = n.max(1);
        let mut cdf = Vec::with_capacity(n);
        let mut total = 0.0f64;
        for i in 1..=n {
            total += 1.0 / (i as f64).powf(s);
            cdf.push(total);
        }
        for v in &mut cdf {
            *v /= total;
        }
        Zipf { cdf }
    }

    /// Maps a uniform draw to a rank.
    pub fn sample(&self, u: f64) -> usize {
        self.cdf
            .partition_point(|&c| c < u)
            .min(self.cdf.len().saturating_sub(1))
    }
}

/// The job spec submitted for popularity rank `rank`: identical shape,
/// distinct seed, so every rank is a distinct cache key with identical
/// execution cost.
pub fn spec_for_rank(rank: usize) -> String {
    format!(
        r#"{{"type":"simulate","arch":"tb-stc","model":{{"kind":"gcn","nodes":64,"features":16}},"sparsity":0.5,"seed":{rank}}}"#
    )
}

/// Incremental client-side response framing: finds each head, reads it
/// with [`ClientResponse::from_head`] and skips its `Content-Length`
/// body (keep-alive).
#[derive(Debug, Default)]
struct RespParser {
    buf: Vec<u8>,
    scanned: usize,
}

/// What one parsed response contributes to the tally.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct RespSummary {
    status: u16,
    cache_hit: bool,
}

impl RespParser {
    fn feed(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Pops the next complete response off the buffer, if one has
    /// fully arrived. Malformed heads are reported as status 0.
    fn next(&mut self) -> Option<RespSummary> {
        let from = self.scanned.saturating_sub(3);
        let rel = self
            .buf
            .get(from..)?
            .windows(4)
            .position(|w| w == b"\r\n\r\n");
        let Some(rel) = rel else {
            self.scanned = self.buf.len();
            return None;
        };
        let head_end = from + rel;
        let head = ClientResponse::from_head(&String::from_utf8_lossy(self.buf.get(..head_end)?));
        let content_length = head
            .header("content-length")
            .and_then(|v| v.parse().ok())
            .unwrap_or(0);
        let total = head_end + 4 + content_length;
        if self.buf.len() < total {
            self.scanned = head_end; // re-find the terminator cheaply
            return None;
        }
        self.buf.drain(..total);
        self.scanned = 0;
        Some(RespSummary {
            status: head.status,
            cache_hit: head.header("x-cache") == Some("hit"),
        })
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ClientState {
    /// Writing the current request.
    Writing,
    /// Request fully written; reading the response.
    Reading,
    /// Request budget exhausted; connection retired.
    Done,
    /// Transport failure; connection abandoned.
    Dead,
}

/// One keep-alive connection's state machine.
struct Client {
    stream: TcpStream,
    state: ClientState,
    out: Vec<u8>,
    out_pos: usize,
    parser: RespParser,
    started: Instant,
}

impl Client {
    fn begin_request(&mut self, addr: &str, body: &str) {
        self.out.clear();
        self.out.extend_from_slice(
            format!(
                "POST /v1/jobs HTTP/1.1\r\nHost: {addr}\r\nContent-Type: application/json\r\nContent-Length: {}\r\nConnection: keep-alive\r\n\r\n{body}",
                body.len()
            )
            .as_bytes(),
        );
        self.out_pos = 0;
        self.state = ClientState::Writing;
        self.started = Instant::now();
    }
}

/// Runs the load against a live server and tallies the results.
///
/// # Errors
///
/// [`Error::Io`] when the initial connection ramp fails outright; mid-
/// run transport failures are tallied as failed requests instead.
pub fn run(cfg: &LoadgenConfig) -> Result<LoadReport, Error> {
    let connections = cfg.connections.max(1);
    let target = cfg.requests;
    let zipf = Zipf::new(cfg.distinct_specs.max(1), cfg.zipf_exponent);
    let mut rng = XorShift64Star::new(cfg.seed);
    let specs: Vec<String> = (0..cfg.distinct_specs.max(1)).map(spec_for_rank).collect();

    // Connection ramp: plain blocking connects, with a short breather
    // every batch so the accept queue never overflows while the server
    // thread shares the CPU with us.
    let mut clients: Vec<Client> = Vec::with_capacity(connections);
    for i in 0..connections {
        let stream = TcpStream::connect(&cfg.addr)
            .map_err(|e| Error::Io(format!("loadgen connect #{i} to {} failed: {e}", cfg.addr)))?;
        stream
            .set_nonblocking(true)
            .map_err(|e| Error::Io(e.to_string()))?;
        let _ = stream.set_nodelay(true);
        clients.push(Client {
            stream,
            state: ClientState::Done,
            out: Vec::with_capacity(512),
            out_pos: 0,
            parser: RespParser::default(),
            started: Instant::now(),
        });
        if i % 64 == 63 {
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    let mut issued = 0usize;
    let mut completed = 0usize;
    let mut failed = 0usize;
    let mut hits = 0usize;
    let mut latencies_us: Vec<f64> = Vec::with_capacity(target);

    // Prime every connection with its first request.
    for client in &mut clients {
        if issued >= target {
            break;
        }
        let rank = zipf.sample(rng.next_f64());
        let body = specs.get(rank).map(String::as_str).unwrap_or("{}");
        client.begin_request(&cfg.addr, body);
        issued += 1;
    }

    let t0 = Instant::now();
    let deadline = t0 + cfg.deadline;
    let mut fds: Vec<PollFd> = Vec::with_capacity(connections);
    let mut idxs: Vec<usize> = Vec::with_capacity(connections);

    while completed + failed < target && Instant::now() < deadline {
        fds.clear();
        idxs.clear();
        for (i, client) in clients.iter().enumerate() {
            let events = match client.state {
                ClientState::Writing => POLLOUT,
                ClientState::Reading => POLLIN,
                ClientState::Done | ClientState::Dead => continue,
            };
            fds.push(PollFd::new(client.stream.as_raw_fd(), events));
            idxs.push(i);
        }
        if fds.is_empty() {
            break; // every connection dead or retired with budget left
        }
        if poll_fds(&mut fds, 100).is_err() {
            break;
        }

        for (entry, &i) in fds.iter().zip(idxs.iter()) {
            if entry.revents == 0 {
                continue;
            }
            let Some(client) = clients.get_mut(i) else {
                continue;
            };
            if entry.revents & POLLOUT != 0 && client.state == ClientState::Writing {
                while let Some(rest) = client.out.get(client.out_pos..) {
                    if rest.is_empty() {
                        client.state = ClientState::Reading;
                        break;
                    }
                    match (&client.stream).write(rest) {
                        Ok(0) => {
                            client.state = ClientState::Dead;
                            failed += 1;
                            break;
                        }
                        Ok(n) => client.out_pos += n,
                        Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                        Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                        Err(_) => {
                            client.state = ClientState::Dead;
                            failed += 1;
                            break;
                        }
                    }
                }
            }
            if entry.revents & (POLLIN | POLLERR | POLLHUP) != 0
                && client.state == ClientState::Reading
            {
                let mut chunk = [0u8; 16 * 1024];
                loop {
                    match (&client.stream).read(&mut chunk) {
                        Ok(0) => {
                            client.state = ClientState::Dead;
                            failed += 1;
                            break;
                        }
                        Ok(n) => {
                            client.parser.feed(chunk.get(..n).unwrap_or(&[]));
                        }
                        Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                        Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                        Err(_) => {
                            client.state = ClientState::Dead;
                            failed += 1;
                            break;
                        }
                    }
                }
                if client.state == ClientState::Reading {
                    if let Some(resp) = client.parser.next() {
                        let waited_us = client.started.elapsed().as_secs_f64() * 1e6;
                        if resp.status == 200 {
                            completed += 1;
                            latencies_us.push(waited_us);
                            if resp.cache_hit {
                                hits += 1;
                            }
                        } else {
                            failed += 1;
                        }
                        if issued < target {
                            let rank = zipf.sample(rng.next_f64());
                            let body = specs.get(rank).map(String::as_str).unwrap_or("{}");
                            client.begin_request(&cfg.addr, body);
                            issued += 1;
                        } else {
                            client.state = ClientState::Done;
                        }
                    }
                }
            }
        }
    }

    let elapsed_s = t0.elapsed().as_secs_f64().max(1e-9);
    // Budget that never completed (dead connections, deadline) counts
    // as failed so `failed == 0` certifies a fully clean run.
    failed += target.saturating_sub(completed + failed);

    latencies_us.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
    Ok(LoadReport {
        connections,
        completed,
        failed,
        elapsed_s,
        rps: completed as f64 / elapsed_s,
        p50_us: percentile(&latencies_us, 0.50),
        p99_us: percentile(&latencies_us, 0.99),
        p999_us: percentile(&latencies_us, 0.999),
        hit_rate: hits as f64 / completed.max(1) as f64,
    })
}

/// Nearest-rank percentile over a sorted slice (`p` in `[0, 1]`).
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let idx = ((sorted.len() - 1) as f64 * p.clamp(0.0, 1.0)).round() as usize;
    sorted.get(idx).copied().unwrap_or(0.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rng_is_deterministic_and_uniformish() {
        let mut a = XorShift64Star::new(7);
        let mut b = XorShift64Star::new(7);
        let xs: Vec<u64> = (0..8).map(|_| a.next_u64()).collect();
        let ys: Vec<u64> = (0..8).map(|_| b.next_u64()).collect();
        assert_eq!(xs, ys, "same seed, same sequence");
        let mut c = XorShift64Star::new(0);
        let mean: f64 = (0..4096).map(|_| c.next_f64()).sum::<f64>() / 4096.0;
        assert!((mean - 0.5).abs() < 0.05, "mean {mean} far from 0.5");
    }

    #[test]
    fn zipf_favors_low_ranks_and_covers_the_tail() {
        let zipf = Zipf::new(16, 1.1);
        let mut rng = XorShift64Star::new(3);
        let mut counts = vec![0usize; 16];
        for _ in 0..8192 {
            counts[zipf.sample(rng.next_f64())] += 1;
        }
        assert!(
            counts[0] > counts[8] && counts[0] > counts[15],
            "rank 0 must dominate: {counts:?}"
        );
        assert!(
            counts.iter().filter(|&&c| c > 0).count() >= 12,
            "the tail must still be sampled: {counts:?}"
        );
        // CDF is monotone and ends at 1.
        assert!(zipf.cdf.windows(2).all(|w| w[0] <= w[1]));
        assert!((zipf.cdf.last().copied().unwrap_or(0.0) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn percentile_nearest_rank() {
        let xs: Vec<f64> = (1..=101).map(f64::from).collect();
        assert_eq!(percentile(&xs, 0.0), 1.0);
        assert_eq!(percentile(&xs, 1.0), 101.0);
        assert_eq!(percentile(&xs, 0.50), 51.0, "odd count: exact median");
        assert_eq!(percentile(&[], 0.5), 0.0);
    }

    #[test]
    fn parser_handles_split_and_back_to_back_responses() {
        let mut p = RespParser::default();
        let one = b"HTTP/1.1 200 OK\r\nX-Cache: hit\r\nContent-Length: 4\r\n\r\nbody";
        let two = b"HTTP/1.1 429 Too Many Requests\r\nContent-Length: 0\r\n\r\n";
        // Feed the first response in two fragments spanning the
        // terminator, then the second back to back.
        p.feed(&one[..20]);
        assert_eq!(p.next(), None);
        p.feed(&one[20..]);
        p.feed(two);
        assert_eq!(
            p.next(),
            Some(RespSummary {
                status: 200,
                cache_hit: true
            })
        );
        assert_eq!(
            p.next(),
            Some(RespSummary {
                status: 429,
                cache_hit: false
            })
        );
        assert_eq!(p.next(), None);
    }

    #[test]
    fn loadgen_drives_a_live_server_cleanly() {
        let dir = std::env::temp_dir().join(format!("tbstc-loadgen-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let running = tbstc_serve::Server::bind(tbstc_serve::ServeConfig {
            addr: "127.0.0.1:0".into(),
            cache_dir: dir.clone(),
            quiet: true,
            ..tbstc_serve::ServeConfig::default()
        })
        .expect("bind")
        .spawn()
        .expect("spawn");

        let report = run(&LoadgenConfig {
            addr: running.addr.to_string(),
            connections: 8,
            requests: 96,
            distinct_specs: 4,
            zipf_exponent: 1.1,
            seed: 1,
            ..LoadgenConfig::default()
        })
        .expect("loadgen run");

        assert_eq!(report.completed, 96, "every request completes");
        assert_eq!(report.failed, 0, "no failures: {report:?}");
        assert!(report.rps > 0.0);
        assert!(report.p50_us > 0.0 && report.p50_us <= report.p99_us);
        assert!(report.p99_us <= report.p999_us);
        assert!(
            report.hit_rate >= 0.5,
            "4 distinct specs over 96 requests must mostly hit: {}",
            report.hit_rate
        );
        let json = report.to_json();
        assert!(json.contains("\"p999_us\""));
        assert_eq!(json.matches('{').count(), json.matches('}').count());

        running.shutdown_and_join();
        let _ = std::fs::remove_dir_all(&dir);
    }
}
