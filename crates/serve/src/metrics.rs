//! Service counters and the `/metrics` Prometheus text rendering.
//!
//! Everything is lock-free atomics so the hot path (one job request)
//! costs a handful of relaxed increments. Gauges that belong to other
//! components (queue depth, in-flight jobs, memo totals) are passed in
//! at render time rather than duplicated here.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// Upper bounds of the job-latency histogram buckets, seconds. One more
/// implicit `+Inf` bucket follows.
pub const LATENCY_BUCKETS_S: [f64; 8] = [0.001, 0.005, 0.025, 0.1, 0.5, 1.0, 5.0, 30.0];

/// Counters the serve subsystem exposes.
#[derive(Debug)]
pub struct Metrics {
    start: Instant,
    /// `POST /v1/jobs` requests received.
    pub requests_jobs: AtomicU64,
    /// `GET /metrics` requests received.
    pub requests_metrics: AtomicU64,
    /// Requests to any other endpoint.
    pub requests_other: AtomicU64,
    /// Jobs answered 200 (computed or cached).
    pub jobs_ok: AtomicU64,
    /// Jobs rejected 400 (malformed spec).
    pub jobs_bad: AtomicU64,
    /// Jobs rejected 429 (admission queue full).
    pub jobs_rejected: AtomicU64,
    /// Jobs answered 500 (panicking execution or poisoned state).
    pub jobs_failed: AtomicU64,
    /// Jobs served verbatim from the on-disk result cache.
    pub disk_hits: AtomicU64,
    /// Jobs that had to execute (disk-cache misses).
    pub disk_misses: AtomicU64,
    /// Jobs served from the in-memory hot tier (no disk read).
    pub mem_hits: AtomicU64,
    /// Distinct executions the engine actually ran.
    pub jobs_executed: AtomicU64,
    /// Requests that attached to an identical in-flight job
    /// (single-flight coalescing) instead of executing.
    pub jobs_coalesced: AtomicU64,
    /// Long jobs accepted 202 into the durable queue.
    pub jobs_accepted: AtomicU64,
    /// Durable jobs cancelled before completion.
    pub jobs_cancelled: AtomicU64,
    /// Durable jobs resumed from a checkpoint after a restart.
    pub jobs_resumed: AtomicU64,
    /// Sweep chunks checkpointed by the durable executor.
    pub sweep_chunks: AtomicU64,
    /// Corrupt `memo.jsonl` lines skipped while preloading the memo.
    pub memo_corrupt_lines: AtomicU64,
    /// Microseconds spent executing jobs (for worker utilization).
    pub busy_us: AtomicU64,
    latency_buckets: [AtomicU64; LATENCY_BUCKETS_S.len() + 1],
    latency_sum_us: AtomicU64,
    latency_count: AtomicU64,
}

impl Default for Metrics {
    fn default() -> Self {
        Self::new()
    }
}

impl Metrics {
    /// Fresh counters; uptime starts now.
    pub fn new() -> Metrics {
        Metrics {
            start: Instant::now(),
            requests_jobs: AtomicU64::new(0),
            requests_metrics: AtomicU64::new(0),
            requests_other: AtomicU64::new(0),
            jobs_ok: AtomicU64::new(0),
            jobs_bad: AtomicU64::new(0),
            jobs_rejected: AtomicU64::new(0),
            jobs_failed: AtomicU64::new(0),
            disk_hits: AtomicU64::new(0),
            disk_misses: AtomicU64::new(0),
            mem_hits: AtomicU64::new(0),
            jobs_executed: AtomicU64::new(0),
            jobs_coalesced: AtomicU64::new(0),
            jobs_accepted: AtomicU64::new(0),
            jobs_cancelled: AtomicU64::new(0),
            jobs_resumed: AtomicU64::new(0),
            sweep_chunks: AtomicU64::new(0),
            memo_corrupt_lines: AtomicU64::new(0),
            busy_us: AtomicU64::new(0),
            latency_buckets: Default::default(),
            latency_sum_us: AtomicU64::new(0),
            latency_count: AtomicU64::new(0),
        }
    }

    /// Records one served job's end-to-end latency.
    pub fn observe_latency(&self, seconds: f64) {
        let idx = LATENCY_BUCKETS_S
            .iter()
            .position(|&b| seconds <= b)
            .unwrap_or(LATENCY_BUCKETS_S.len());
        if let Some(bucket) = self.latency_buckets.get(idx) {
            bucket.fetch_add(1, Ordering::Relaxed);
        }
        self.latency_sum_us
            .fetch_add((seconds * 1e6) as u64, Ordering::Relaxed);
        self.latency_count.fetch_add(1, Ordering::Relaxed);
    }

    /// Mean observed job latency in seconds (used for `Retry-After`
    /// hints); falls back to `default` before any observation.
    pub fn mean_latency_s(&self, default: f64) -> f64 {
        let count = self.latency_count.load(Ordering::Relaxed);
        if count == 0 {
            return default;
        }
        self.latency_sum_us.load(Ordering::Relaxed) as f64 / 1e6 / count as f64
    }

    /// Seconds since the metrics were created.
    pub fn uptime_s(&self) -> f64 {
        self.start.elapsed().as_secs_f64()
    }

    /// Renders the Prometheus text exposition. Gauges owned elsewhere
    /// (queue state, memo totals) come in as arguments.
    pub fn render(&self, gauges: &Gauges) -> String {
        let load = |c: &AtomicU64| c.load(Ordering::Relaxed);
        let mut out = String::with_capacity(2048);
        let mut counter = |name: &str, help: &str, pairs: &[(&str, u64)]| {
            out.push_str(&format!("# HELP {name} {help}\n# TYPE {name} counter\n"));
            for (labels, v) in pairs {
                if labels.is_empty() {
                    out.push_str(&format!("{name} {v}\n"));
                } else {
                    out.push_str(&format!("{name}{{{labels}}} {v}\n"));
                }
            }
        };

        counter(
            "tbstc_requests_total",
            "HTTP requests received, by endpoint.",
            &[
                ("endpoint=\"jobs\"", load(&self.requests_jobs)),
                ("endpoint=\"metrics\"", load(&self.requests_metrics)),
                ("endpoint=\"other\"", load(&self.requests_other)),
            ],
        );
        counter(
            "tbstc_jobs_total",
            "Job submissions by outcome.",
            &[
                ("outcome=\"ok\"", load(&self.jobs_ok)),
                ("outcome=\"accepted\"", load(&self.jobs_accepted)),
                ("outcome=\"bad_request\"", load(&self.jobs_bad)),
                ("outcome=\"rejected\"", load(&self.jobs_rejected)),
                ("outcome=\"internal_error\"", load(&self.jobs_failed)),
            ],
        );
        counter(
            "tbstc_jobs_rejected_total",
            "Jobs turned away with 429 because the admission queue was full.",
            &[("", load(&self.jobs_rejected))],
        );
        counter(
            "tbstc_cache_hits_total",
            "Jobs served from a cache tier without recomputation.",
            &[
                ("tier=\"mem\"", load(&self.mem_hits)),
                ("tier=\"disk\"", load(&self.disk_hits)),
                ("tier=\"memo\"", gauges.memo_hits),
            ],
        );
        counter(
            "tbstc_cache_misses_total",
            "Cache lookups that had to compute, by tier.",
            &[
                ("tier=\"disk\"", load(&self.disk_misses)),
                ("tier=\"memo\"", gauges.memo_misses),
            ],
        );
        counter(
            "tbstc_jobs_executed_total",
            "Distinct executions the engine actually ran (after \
             single-flight dedup and cache hits).",
            &[("", load(&self.jobs_executed))],
        );
        counter(
            "tbstc_jobs_coalesced_total",
            "Requests that shared an identical in-flight execution.",
            &[("", load(&self.jobs_coalesced))],
        );
        counter(
            "tbstc_jobs_cancelled_total",
            "Durable jobs cancelled before completion.",
            &[("", load(&self.jobs_cancelled))],
        );
        counter(
            "tbstc_jobs_resumed_total",
            "Durable jobs resumed from a persisted checkpoint at startup.",
            &[("", load(&self.jobs_resumed))],
        );
        counter(
            "tbstc_sweep_chunks_total",
            "Sweep chunks checkpointed by the durable executor.",
            &[("", load(&self.sweep_chunks))],
        );
        counter(
            "tbstc_memo_corrupt_lines_total",
            "Corrupt memo.jsonl lines skipped while preloading the memo.",
            &[("", load(&self.memo_corrupt_lines))],
        );

        let mut gauge = |name: &str, help: &str, v: String| {
            out.push_str(&format!(
                "# HELP {name} {help}\n# TYPE {name} gauge\n{name} {v}\n"
            ));
        };
        gauge(
            "tbstc_queue_depth",
            "Admitted jobs waiting for a worker slot.",
            gauges.queue_depth.to_string(),
        );
        gauge(
            "tbstc_jobs_in_flight",
            "Jobs currently executing.",
            gauges.in_flight.to_string(),
        );
        let uptime = self.uptime_s().max(1e-9);
        let utilization =
            (load(&self.busy_us) as f64 / 1e6) / (uptime * gauges.job_workers.max(1) as f64);
        gauge(
            "tbstc_worker_utilization",
            "Fraction of worker capacity spent executing jobs since start.",
            format!("{:.6}", utilization.min(1.0)),
        );
        gauge(
            "tbstc_open_connections",
            "Live client connections in the event loop.",
            gauges.open_connections.to_string(),
        );
        gauge(
            "tbstc_uptime_seconds",
            "Seconds since the server started.",
            format!("{uptime:.3}"),
        );

        out.push_str(
            "# HELP tbstc_job_latency_seconds End-to-end job latency (admission to response).\n\
             # TYPE tbstc_job_latency_seconds histogram\n",
        );
        let mut cumulative = 0u64;
        for (bucket, bound) in self.latency_buckets.iter().zip(&LATENCY_BUCKETS_S) {
            cumulative += bucket.load(Ordering::Relaxed);
            out.push_str(&format!(
                "tbstc_job_latency_seconds_bucket{{le=\"{bound}\"}} {cumulative}\n"
            ));
        }
        // The zip above stops at the named buckets; the one extra slot
        // is the overflow bucket.
        cumulative += self
            .latency_buckets
            .last()
            .map_or(0, |b| b.load(Ordering::Relaxed));
        out.push_str(&format!(
            "tbstc_job_latency_seconds_bucket{{le=\"+Inf\"}} {cumulative}\n"
        ));
        out.push_str(&format!(
            "tbstc_job_latency_seconds_sum {:.6}\n",
            self.latency_sum_us.load(Ordering::Relaxed) as f64 / 1e6
        ));
        out.push_str(&format!(
            "tbstc_job_latency_seconds_count {}\n",
            self.latency_count.load(Ordering::Relaxed)
        ));
        out
    }
}

/// Point-in-time gauge values owned by other components, sampled at
/// scrape time.
#[derive(Debug, Clone, Copy, Default)]
pub struct Gauges {
    /// Admitted jobs waiting for a worker slot.
    pub queue_depth: usize,
    /// Jobs currently executing.
    pub in_flight: usize,
    /// Job-worker slots the server schedules onto.
    pub job_workers: usize,
    /// Memo-cache hits across all engines.
    pub memo_hits: u64,
    /// Memo-cache misses across all engines.
    pub memo_misses: u64,
    /// Live client connections in the event loop.
    pub open_connections: usize,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_counters_and_histogram() {
        let m = Metrics::new();
        m.requests_jobs.fetch_add(3, Ordering::Relaxed);
        m.jobs_ok.fetch_add(2, Ordering::Relaxed);
        m.disk_hits.fetch_add(1, Ordering::Relaxed);
        m.observe_latency(0.003);
        m.observe_latency(0.2);
        m.observe_latency(120.0); // lands in +Inf

        m.mem_hits.fetch_add(4, Ordering::Relaxed);
        m.jobs_executed.fetch_add(7, Ordering::Relaxed);
        m.jobs_coalesced.fetch_add(8, Ordering::Relaxed);
        m.jobs_accepted.fetch_add(12, Ordering::Relaxed);
        m.jobs_cancelled.fetch_add(13, Ordering::Relaxed);
        m.jobs_resumed.fetch_add(14, Ordering::Relaxed);
        m.sweep_chunks.fetch_add(15, Ordering::Relaxed);
        m.memo_corrupt_lines.fetch_add(16, Ordering::Relaxed);
        let text = m.render(&Gauges {
            queue_depth: 1,
            in_flight: 2,
            job_workers: 4,
            memo_hits: 5,
            memo_misses: 6,
            open_connections: 11,
        });
        assert!(text.contains("tbstc_requests_total{endpoint=\"jobs\"} 3"));
        assert!(text.contains("tbstc_cache_hits_total{tier=\"disk\"} 1"));
        assert!(text.contains("tbstc_cache_hits_total{tier=\"memo\"} 5"));
        assert!(text.contains("tbstc_cache_hits_total{tier=\"mem\"} 4"));
        assert!(text.contains("tbstc_jobs_executed_total 7"));
        assert!(text.contains("tbstc_jobs_coalesced_total 8"));
        assert!(text.contains("tbstc_jobs_total{outcome=\"accepted\"} 12"));
        assert!(text.contains("tbstc_jobs_cancelled_total 13"));
        assert!(text.contains("tbstc_jobs_resumed_total 14"));
        assert!(text.contains("tbstc_sweep_chunks_total 15"));
        assert!(text.contains("tbstc_memo_corrupt_lines_total 16"));
        assert!(text.contains("tbstc_open_connections 11"));
        assert!(text.contains("tbstc_queue_depth 1"));
        assert!(text.contains("tbstc_jobs_in_flight 2"));
        assert!(text.contains("tbstc_job_latency_seconds_bucket{le=\"+Inf\"} 3"));
        assert!(text.contains("tbstc_job_latency_seconds_count 3"));
        // Histogram buckets are cumulative.
        assert!(text.contains("tbstc_job_latency_seconds_bucket{le=\"0.005\"} 1"));
        assert!(text.contains("tbstc_job_latency_seconds_bucket{le=\"0.5\"} 2"));
    }

    #[test]
    fn mean_latency_defaults_then_tracks() {
        let m = Metrics::new();
        assert_eq!(m.mean_latency_s(1.5), 1.5);
        m.observe_latency(2.0);
        m.observe_latency(4.0);
        assert!((m.mean_latency_s(0.0) - 3.0).abs() < 1e-3);
    }
}
