//! Request coalescing and admission: single-flight per content address.
//!
//! The dispatcher sits between the event loop and the engine. A spec
//! is identified by its FNV-1a-128 content address
//! ([`tbstc::jobspec::JobSpec::cache_key`]). While a key is queued or
//! executing, further requests for the same key *attach as waiters*;
//! one execution fans its response out to every waiter. Workers pick
//! up distinct jobs one at a time in FIFO order.
//!
//! The dispatcher is also the admission queue: it admits at most
//! `queue_capacity` distinct keys (queued plus executing) and rejects
//! further new keys, which the server answers `429`. A waiter never
//! needs capacity. A panicking executor cannot strand its key: the
//! worker catches the unwind, removes the key and answers every waiter
//! `500`, so capacity is always returned and the worker lives on.
//!
//! Workers are plain threads (this module is *not* on the event loop's
//! no-blocking path); responses travel back via
//! [`crate::event::Completions`], which wakes the poll loop.

use std::collections::{BTreeMap, VecDeque};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread;
use std::time::{Duration, Instant};

use tbstc::jobspec::JobSpec;

use crate::event::{Completion, Completions, Token};
use crate::http::{error_body, Response};

/// A deduplicated job handed to the executor.
#[derive(Debug)]
pub struct QueuedJob {
    /// Content address (the single-flight key).
    pub key: String,
    /// The canonical spec.
    pub spec: JobSpec,
}

/// Executes one deduplicated spec. Implemented by the server (engine +
/// store + metrics) and by test fakes.
pub trait Executor: Send + Sync {
    /// Runs `job` and returns its response.
    fn execute(&self, job: &QueuedJob) -> Response;
}

/// Called once per delivered waiter with the response and the waiter's
/// queue-to-response latency (the server wires this to metrics).
pub type FinishFn = dyn Fn(&Response, Duration) + Send + Sync;

/// Outcome of [`Dispatcher::submit`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Enqueue {
    /// Admitted as a new job (took an admission slot).
    Queued,
    /// Attached to an identical in-flight or queued job — no new slot,
    /// no new execution.
    Coalesced,
    /// At capacity or closed: answer 429.
    Rejected,
}

type Waiters = Vec<(Token, Instant)>;

#[derive(Default)]
struct DispatchState {
    /// Admitted keys no worker has picked up yet → (spec, waiters).
    queued: BTreeMap<String, (JobSpec, Waiters)>,
    /// FIFO pickup order over `queued` keys.
    order: VecDeque<String>,
    /// Executing keys → waiters (late arrivals attach here too).
    inflight: BTreeMap<String, Waiters>,
    closed: bool,
}

struct Inner {
    state: Mutex<DispatchState>,
    cv: Condvar,
    executor: Arc<dyn Executor>,
    completions: Arc<Completions>,
    finish: Arc<FinishFn>,
    hold: Duration,
}

impl Inner {
    fn guard(&self) -> MutexGuard<'_, DispatchState> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

/// The coalescing dispatcher: owns the worker threads and the admission
/// count.
pub struct Dispatcher {
    inner: Arc<Inner>,
    threads: Vec<thread::JoinHandle<()>>,
    capacity: usize,
}

impl Dispatcher {
    /// Starts `workers` worker threads admitting at most
    /// `queue_capacity` distinct keys (both clamped to ≥ 1). `hold`
    /// artificially extends each job (the `--hold-ms` testing knob);
    /// `finish` is invoked once per delivered waiter.
    pub fn start(
        workers: usize,
        queue_capacity: usize,
        hold: Duration,
        executor: Arc<dyn Executor>,
        completions: Arc<Completions>,
        finish: Arc<FinishFn>,
    ) -> Self {
        let inner = Arc::new(Inner {
            state: Mutex::new(DispatchState::default()),
            cv: Condvar::new(),
            executor,
            completions,
            finish,
            hold,
        });
        let mut threads = Vec::with_capacity(workers.max(1));
        for i in 0..workers.max(1) {
            let inner = Arc::clone(&inner);
            let handle = thread::Builder::new()
                .name(format!("tbstc-worker-{i}"))
                .spawn(move || worker_loop(&inner))
                .ok();
            if let Some(handle) = handle {
                threads.push(handle);
            }
        }
        Self {
            inner,
            threads,
            capacity: queue_capacity.max(1),
        }
    }

    /// Submits a job from the event loop. Never blocks: either attaches
    /// to an identical in-flight/queued job, admits a new one, or
    /// rejects.
    pub fn submit(&self, key: &str, spec: JobSpec, token: Token, started: Instant) -> Enqueue {
        let mut s = self.inner.guard();
        if s.closed {
            return Enqueue::Rejected;
        }
        if let Some(waiters) = s.inflight.get_mut(key) {
            waiters.push((token, started));
            return Enqueue::Coalesced;
        }
        if let Some((_, waiters)) = s.queued.get_mut(key) {
            waiters.push((token, started));
            return Enqueue::Coalesced;
        }
        if s.queued.len() + s.inflight.len() >= self.capacity {
            return Enqueue::Rejected;
        }
        s.queued
            .insert(key.to_string(), (spec, vec![(token, started)]));
        s.order.push_back(key.to_string());
        drop(s);
        self.inner.cv.notify_one();
        Enqueue::Queued
    }

    /// The admission capacity in distinct keys.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// `(queued, executing)` distinct keys right now (the depth and
    /// in-flight gauges).
    pub fn depth(&self) -> (usize, usize) {
        let s = self.inner.guard();
        (s.queued.len(), s.inflight.len())
    }

    /// Stops accepting work, wakes the workers, and joins them after
    /// they finish everything already queued.
    pub fn close_and_join(self) {
        self.inner.guard().closed = true;
        self.inner.cv.notify_all();
        for handle in self.threads {
            let _ = handle.join();
        }
    }
}

/// One worker: pick up the FIFO head, execute, deliver, repeat.
fn worker_loop(inner: &Inner) {
    while let Some(job) = next_job(inner) {
        run_job(inner, &job);
    }
}

/// Blocks until work is queued (or the dispatcher closes and drains),
/// then moves the FIFO head from queued to in-flight.
fn next_job(inner: &Inner) -> Option<QueuedJob> {
    let mut s = inner.guard();
    loop {
        if let Some(key) = s.order.pop_front() {
            // Every ordered key is queued; skip one that is not rather
            // than stall the worker.
            let Some((spec, waiters)) = s.queued.remove(&key) else {
                continue;
            };
            s.inflight.insert(key.clone(), waiters);
            return Some(QueuedJob { key, spec });
        }
        if s.closed {
            return None;
        }
        s = inner.cv.wait(s).unwrap_or_else(PoisonError::into_inner);
    }
}

/// Executes one job and fans its response out to every waiter. A
/// panicking executor costs this job a `500`, not the worker: the key
/// leaves `inflight` either way, which returns its admission slot.
fn run_job(inner: &Inner, job: &QueuedJob) {
    if !inner.hold.is_zero() {
        thread::sleep(inner.hold);
    }
    let response =
        catch_unwind(AssertUnwindSafe(|| inner.executor.execute(job))).unwrap_or_else(|_| {
            Response::new(500).json(error_body("internal error: job execution panicked"))
        });
    let waiters = inner.guard().inflight.remove(&job.key).unwrap_or_default();
    let delivery: Vec<Completion> = waiters
        .into_iter()
        .map(|(token, started)| {
            (inner.finish)(&response, started.elapsed());
            Completion {
                token,
                response: response.clone(),
            }
        })
        .collect();
    inner.completions.push_all(delivery);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::waker_pair;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::mpsc;

    fn spec(seed: u64) -> JobSpec {
        JobSpec::from_json(&format!(
            r#"{{"type":"simulate","arch":"tb-stc","model":{{"kind":"gcn","nodes":64,"features":16}},"sparsity":0.5,"seed":{seed}}}"#
        ))
        .expect("valid spec")
    }

    fn token() -> Token {
        // Tokens are opaque; any value works here since the tests read
        // completions by response, not by token.
        Token::test_token(0, 0, 0)
    }

    /// Executor that blocks until released, recording every call. It
    /// panics once, on the first call for `panic_key`.
    struct GatedExec {
        calls: AtomicUsize,
        keys: Mutex<Vec<String>>,
        gate: Mutex<mpsc::Receiver<()>>,
        panic_key: Mutex<Option<String>>,
    }

    impl Executor for GatedExec {
        fn execute(&self, job: &QueuedJob) -> Response {
            self.calls.fetch_add(1, Ordering::SeqCst);
            self.keys
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .push(job.key.clone());
            let _ = self
                .gate
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .recv_timeout(Duration::from_secs(5));
            let mut panic_key = self
                .panic_key
                .lock()
                .unwrap_or_else(PoisonError::into_inner);
            if panic_key.as_deref() == Some(job.key.as_str()) {
                *panic_key = None;
                drop(panic_key);
                panic!("executor bug on {}", job.key);
            }
            Response::new(200).text(format!("done:{}\n", job.key))
        }
    }

    struct Harness {
        dispatcher: Dispatcher,
        exec: Arc<GatedExec>,
        gate: mpsc::Sender<()>,
        completions: Arc<Completions>,
    }

    fn harness(workers: usize, capacity: usize) -> Harness {
        let (waker, _rx) = waker_pair().expect("waker");
        let completions = Arc::new(Completions::new(waker));
        let (gate, gate_rx) = mpsc::channel();
        let exec = Arc::new(GatedExec {
            calls: AtomicUsize::new(0),
            keys: Mutex::new(Vec::new()),
            gate: Mutex::new(gate_rx),
            panic_key: Mutex::new(None),
        });
        let dispatcher = Dispatcher::start(
            workers,
            capacity,
            Duration::ZERO,
            Arc::clone(&exec) as Arc<dyn Executor>,
            Arc::clone(&completions),
            Arc::new(|_, _| {}),
        );
        Harness {
            dispatcher,
            exec,
            gate,
            completions,
        }
    }

    fn wait_until(deadline_ms: u64, cond: impl Fn() -> bool) {
        for _ in 0..deadline_ms {
            if cond() {
                return;
            }
            thread::sleep(Duration::from_millis(1));
        }
        assert!(cond(), "condition not reached in {deadline_ms}ms");
    }

    impl Harness {
        /// Submits the spec for `seed`.
        fn submit(&self, seed: u64) -> Enqueue {
            let s = spec(seed);
            self.dispatcher
                .submit(&s.cache_key(), s, token(), Instant::now())
        }

        fn calls(&self) -> usize {
            self.exec.calls.load(Ordering::SeqCst)
        }

        /// Lets one gated execution finish.
        fn release(&self) {
            self.gate.send(()).expect("release one job");
        }

        /// Waits for `n` delivered responses and returns their statuses.
        fn delivered(&self, n: usize) -> Vec<u16> {
            let mut got = Vec::new();
            for _ in 0..2000 {
                let batch = self.completions.drain();
                got.extend(batch.into_iter().map(|c| c.response.status()));
                if got.len() >= n {
                    break;
                }
                thread::sleep(Duration::from_millis(1));
            }
            assert_eq!(got.len(), n, "delivered responses: {got:?}");
            got
        }
    }

    #[test]
    fn identical_concurrent_specs_execute_exactly_once() {
        let h = harness(1, 16);
        // Occupy the single worker with a blocker job.
        assert_eq!(h.submit(999), Enqueue::Queued);
        wait_until(2000, || h.calls() == 1);

        // N identical submissions while the worker is busy: one queues,
        // the rest coalesce onto it.
        let n = 8;
        let outcomes: Vec<Enqueue> = (0..n).map(|_| h.submit(7)).collect();
        let queued = outcomes.iter().filter(|o| **o == Enqueue::Queued).count();
        let coalesced = outcomes
            .iter()
            .filter(|o| **o == Enqueue::Coalesced)
            .count();
        assert_eq!((queued, coalesced), (1, n - 1));
        assert_eq!(h.dispatcher.depth(), (1, 1));

        // Release the blocker, then the shared job.
        h.release();
        wait_until(2000, || h.calls() == 2);
        h.release();
        wait_until(2000, || h.dispatcher.depth() == (0, 0));
        // Exactly two executions total: blocker + ONE for the N
        // identical specs.
        assert_eq!(h.calls(), 2);
        h.dispatcher.close_and_join();
    }

    #[test]
    fn distinct_jobs_run_one_call_each_in_fifo_order() {
        let h = harness(1, 16);
        h.submit(999);
        wait_until(2000, || h.calls() == 1);

        // Four distinct specs queue behind the blocker.
        for seed in 0..4 {
            assert_eq!(h.submit(seed), Enqueue::Queued);
        }
        let expected: Vec<String> = [999, 0, 1, 2, 3]
            .into_iter()
            .map(|seed| spec(seed).cache_key())
            .collect();
        for _ in 0..expected.len() {
            h.release();
        }
        wait_until(2000, || h.dispatcher.depth() == (0, 0));
        let keys = h.exec.keys.lock().unwrap_or_else(PoisonError::into_inner);
        assert_eq!(*keys, expected, "one call per job, in submission order");
        drop(keys);
        h.dispatcher.close_and_join();
    }

    #[test]
    fn full_queue_rejects_new_keys_but_still_coalesces() {
        let h = harness(1, 1);
        assert_eq!(h.submit(1), Enqueue::Queued);
        wait_until(2000, || h.calls() == 1);
        // Distinct key: no capacity left.
        assert_eq!(h.submit(2), Enqueue::Rejected);
        // Identical key: attaches without needing capacity.
        assert_eq!(h.submit(1), Enqueue::Coalesced);
        h.release();
        wait_until(2000, || h.dispatcher.depth() == (0, 0));
        // The finished key returned its slot.
        assert_eq!(h.submit(2), Enqueue::Queued);
        h.release();
        h.dispatcher.close_and_join();
    }

    #[test]
    fn panicking_executor_answers_500_and_returns_its_slot() {
        let h = harness(1, 1);
        *h.exec
            .panic_key
            .lock()
            .unwrap_or_else(PoisonError::into_inner) = Some(spec(1).cache_key());
        assert_eq!(h.submit(1), Enqueue::Queued);
        assert_eq!(h.submit(1), Enqueue::Coalesced);
        h.release();
        assert_eq!(h.delivered(2), [500, 500], "every waiter gets the 500");
        wait_until(2000, || h.dispatcher.depth() == (0, 0));

        // The key is admitted afresh, not coalesced onto the dead job,
        // and the surviving worker runs it and a distinct key after it.
        assert_eq!(h.submit(1), Enqueue::Queued);
        h.release();
        assert_eq!(h.delivered(1), [200]);
        assert_eq!(h.submit(2), Enqueue::Queued);
        h.release();
        assert_eq!(h.delivered(1), [200]);
        assert_eq!(h.calls(), 3);
        h.dispatcher.close_and_join();
    }
}
