//! The generic job runner: deterministic parallel execution + memoization.

use std::hash::Hash;
use std::time::{Duration, Instant};

use crate::memo::Memo;
use crate::pool::{available_workers, parallel_map};

/// Executes batches of independent jobs on a scoped thread pool.
///
/// Determinism guarantee: each job's result is a pure function of the job
/// description (each job owns its seed), results are assembled in input
/// order, and repeated jobs are deduplicated *before* execution — so the
/// output of [`Runner::run_memo`] is bit-identical for any worker count,
/// including the serial `workers = 1` path.
#[derive(Debug, Clone)]
pub struct Runner {
    workers: usize,
}

impl Default for Runner {
    fn default() -> Self {
        Self::new()
    }
}

impl Runner {
    /// A runner sized by [`available_workers`] (the `TBSTC_JOBS`
    /// environment variable, else the machine's parallelism).
    pub fn new() -> Self {
        Runner {
            workers: available_workers(),
        }
    }

    /// A single-threaded runner (the reference for determinism checks).
    pub fn serial() -> Self {
        Runner { workers: 1 }
    }

    /// Overrides the worker count (min 1).
    pub fn with_workers(mut self, workers: usize) -> Self {
        self.workers = workers.max(1);
        self
    }

    /// The worker count this runner schedules onto.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Runs jobs through a [`Memo`]: repeated keys (within the batch or
    /// from earlier batches) compute once, everything else fans out over
    /// the pool. Results come back in input order.
    pub fn run_memo<K, R, F>(&self, jobs: &[K], memo: &Memo<K, R>, f: F) -> RunReport<R>
    where
        K: Eq + Hash + Clone + Sync,
        R: Clone + Send,
        F: Fn(&K) -> R + Sync,
    {
        self.run_memo_batch(jobs, memo, |fresh| {
            parallel_map(fresh, self.workers, |_, job| f(job))
        })
    }

    /// [`Runner::run_memo`] with the fresh keys computed by one `batch`
    /// call instead of one call per key, so the batch can share work
    /// between keys. `batch` receives the fresh keys in first-seen order
    /// and returns, aligned with them, each result and the busy time
    /// charged to it.
    ///
    /// # Panics
    ///
    /// Panics when `batch` returns a different number of results than it
    /// was given keys.
    pub(crate) fn run_memo_batch<K, R, B>(
        &self,
        jobs: &[K],
        memo: &Memo<K, R>,
        batch: B,
    ) -> RunReport<R>
    where
        K: Eq + Hash + Clone,
        R: Clone,
        B: FnOnce(&[K]) -> Vec<(R, Duration)>,
    {
        let start = Instant::now();
        // Dedupe before running: first-seen order keeps the schedule
        // deterministic, and only genuinely new keys hit the pool.
        #[expect(
            clippy::disallowed_types,
            reason = "only membership is queried; iteration order never escapes"
        )]
        let mut seen = std::collections::HashSet::new();
        let mut fresh: Vec<K> = Vec::new();
        for job in jobs {
            if !memo.contains(job) && seen.insert(job.clone()) {
                fresh.push(job.clone());
            }
        }
        let n_fresh = fresh.len();
        // One counter update per input job: served-without-computing
        // (memo hits + batch duplicates) vs actually computed.
        memo.record((jobs.len() - n_fresh) as u64, n_fresh as u64);
        let timed = batch(&fresh);
        assert_eq!(timed.len(), n_fresh, "one result per fresh key");
        let mut job_wall = Vec::with_capacity(n_fresh);
        for (key, (r, d)) in fresh.into_iter().zip(timed) {
            memo.insert(key, r);
            job_wall.push(d);
        }
        #[expect(
            clippy::expect_used,
            reason = "every job was inserted into the memo in the loop above; a miss here is a logic bug"
        )]
        let results = jobs
            .iter()
            .map(|job| memo.peek(job).expect("memoized result missing"))
            .collect();
        RunReport {
            results,
            stats: RunStats {
                jobs: jobs.len(),
                unique_jobs: n_fresh,
                cache_hits: jobs.len() - n_fresh,
                workers: self.workers,
                wall: start.elapsed(),
                job_wall,
            },
        }
    }
}

/// Results plus execution statistics of one batch.
#[derive(Debug, Clone)]
pub struct RunReport<R> {
    /// One result per input job, in input order.
    pub results: Vec<R>,
    /// Scheduling and cache statistics.
    pub stats: RunStats,
}

/// Execution statistics of one [`Runner`] batch.
#[derive(Debug, Clone)]
pub struct RunStats {
    /// Jobs requested.
    pub jobs: usize,
    /// Jobs actually computed (after deduplication / cache).
    pub unique_jobs: usize,
    /// Jobs served without computing: batch duplicates + memo hits.
    pub cache_hits: usize,
    /// Workers the batch was scheduled onto.
    pub workers: usize,
    /// Wall time of the whole batch.
    pub wall: Duration,
    /// Per-computed-job busy time (first-seen order of the fresh keys).
    /// A job that shared work with others in one batch (a model sweep's
    /// sampled layer weights, see [`crate::SweepRunner::run_models`]) is
    /// charged its own work plus an equal share of the shared work, so
    /// the sum is still the batch's busy time.
    pub job_wall: Vec<Duration>,
}

impl RunStats {
    /// Total time workers spent inside jobs (sum of per-job walls).
    pub fn busy(&self) -> Duration {
        self.job_wall.iter().sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn run_memo_keeps_input_order() {
        let jobs: Vec<u64> = (0..40).collect();
        let rep = Runner::new()
            .with_workers(8)
            .run_memo(&jobs, &Memo::new(), |&j| j * j);
        assert_eq!(rep.results, jobs.iter().map(|j| j * j).collect::<Vec<_>>());
        assert_eq!(rep.stats.jobs, 40);
        assert_eq!(rep.stats.cache_hits, 0);
    }

    #[test]
    fn memo_dedupes_within_batch() {
        let jobs = vec![1u32, 2, 1, 3, 2, 1];
        let memo = Memo::new();
        let rep = Runner::serial().run_memo(&jobs, &memo, |&j| j * 10);
        assert_eq!(rep.results, vec![10, 20, 10, 30, 20, 10]);
        assert_eq!(rep.stats.unique_jobs, 3);
        assert_eq!(rep.stats.cache_hits, 3);
    }

    #[test]
    fn memo_persists_across_batches() {
        let memo = Memo::new();
        let runner = Runner::serial();
        let first = runner.run_memo(&[7u32, 8], &memo, |&j| j + 1);
        assert_eq!(first.stats.unique_jobs, 2);
        let second = runner.run_memo(&[8u32, 9], &memo, |&j| j + 1);
        assert_eq!(second.stats.unique_jobs, 1);
        assert_eq!(second.stats.cache_hits, 1);
        assert_eq!(second.results, vec![9, 10]);
    }

    #[test]
    fn parallel_equals_serial() {
        let jobs: Vec<u64> = (0..50).map(|i| i % 13).collect();
        let serial = Runner::serial().run_memo(&jobs, &Memo::new(), |&j| j.pow(3));
        let parallel = Runner::new()
            .with_workers(6)
            .run_memo(&jobs, &Memo::new(), |&j| j.pow(3));
        assert_eq!(serial.results, parallel.results);
    }

    #[test]
    fn stats_report_busy_time() {
        let rep = Runner::serial().run_memo(&[1u32, 2, 3], &Memo::new(), |&j| j);
        assert_eq!(rep.stats.job_wall.len(), 3);
        assert!(rep.stats.busy() <= rep.stats.wall + Duration::from_millis(5));
    }
}
