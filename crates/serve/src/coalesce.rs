//! Request coalescing: single-flight per content address.
//!
//! The dispatcher sits between the event loop and the engine. A spec
//! is identified by its FNV-1a-128 content address
//! ([`tbstc::jobspec::JobSpec::cache_key`]). While a key is queued or
//! executing, further requests for the same key *attach as waiters*
//! instead of taking admission slots; one execution fans its response
//! out to every waiter. Workers pick up distinct jobs one at a time in
//! FIFO order.
//!
//! Workers are plain threads (this module is *not* on the event loop's
//! no-blocking path); responses travel back via
//! [`crate::event::Completions`], which wakes the poll loop.

use std::collections::{BTreeMap, VecDeque};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread;
use std::time::{Duration, Instant};

use tbstc::jobspec::JobSpec;

use crate::event::{Completion, Completions, Token};
use crate::http::Response;
use crate::queue::{AdmissionQueue, OwnedTicket};

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
pub trait BatchExecutor: Send + Sync {
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
    /// Admission queue full or closed: answer 429.
    Rejected,
}

#[derive(Debug)]
struct PendingJob {
    spec: JobSpec,
    waiters: Vec<(Token, Instant)>,
    ticket: OwnedTicket,
}

#[derive(Default)]
struct DispatchState {
    queued: BTreeMap<String, PendingJob>,
    /// FIFO pickup order over `queued` keys.
    order: VecDeque<String>,
    /// Executing keys → waiters (late arrivals attach here too).
    inflight: BTreeMap<String, Vec<(Token, Instant)>>,
    closed: bool,
}

struct Inner {
    state: Mutex<DispatchState>,
    cv: Condvar,
    executor: Arc<dyn BatchExecutor>,
    completions: Arc<Completions>,
    finish: Arc<FinishFn>,
    hold: Duration,
}

impl Inner {
    fn guard(&self) -> MutexGuard<'_, DispatchState> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

/// The coalescing dispatcher: owns the worker threads.
pub struct Dispatcher {
    inner: Arc<Inner>,
    threads: Vec<thread::JoinHandle<()>>,
}

impl Dispatcher {
    /// Starts `workers` worker threads. `hold` artificially extends
    /// each job (the `--hold-ms` testing knob); `finish` is invoked
    /// once per delivered waiter.
    pub fn start(
        workers: usize,
        hold: Duration,
        executor: Arc<dyn BatchExecutor>,
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
        Self { inner, threads }
    }

    /// Submits a job from the event loop. Never blocks: either attaches
    /// to an identical in-flight/queued job, admits a new one, or
    /// rejects.
    pub fn submit(
        &self,
        queue: &Arc<AdmissionQueue>,
        key: &str,
        spec: JobSpec,
        token: Token,
        started: Instant,
    ) -> Enqueue {
        let mut s = self.inner.guard();
        if s.closed {
            return Enqueue::Rejected;
        }
        if let Some(waiters) = s.inflight.get_mut(key) {
            waiters.push((token, started));
            return Enqueue::Coalesced;
        }
        if let Some(pending) = s.queued.get_mut(key) {
            pending.waiters.push((token, started));
            return Enqueue::Coalesced;
        }
        let Some(ticket) = queue.try_enter_owned() else {
            return Enqueue::Rejected;
        };
        s.queued.insert(
            key.to_string(),
            PendingJob {
                spec,
                waiters: vec![(token, started)],
                ticket,
            },
        );
        s.order.push_back(key.to_string());
        drop(s);
        self.inner.cv.notify_one();
        Enqueue::Queued
    }

    /// Queued + in-flight distinct jobs (for the depth gauge).
    pub fn depth(&self) -> usize {
        let s = self.inner.guard();
        s.queued.len() + s.inflight.len()
    }

    /// Stops accepting work, wakes the workers, and joins them after
    /// they finish everything already queued.
    pub fn close_and_join(self) {
        {
            let mut s = self.inner.guard();
            s.closed = true;
        }
        self.inner.cv.notify_all();
        for handle in self.threads {
            let _ = handle.join();
        }
    }
}

/// One worker: pick up the FIFO head, execute, deliver, repeat.
fn worker_loop(inner: &Inner) {
    while let Some((job, ticket)) = next_job(inner) {
        run_job(inner, job, ticket);
    }
}

/// Blocks until work is queued (or the dispatcher closes and drains),
/// then moves the FIFO head from queued to in-flight.
fn next_job(inner: &Inner) -> Option<(QueuedJob, OwnedTicket)> {
    let mut s = inner.guard();
    loop {
        if let Some(key) = s.order.pop_front() {
            // Every ordered key is queued; skip one that is not rather
            // than stall the worker.
            let Some(pending) = s.queued.remove(&key) else {
                continue;
            };
            s.inflight.insert(key.clone(), pending.waiters);
            let job = QueuedJob {
                key,
                spec: pending.spec,
            };
            return Some((job, pending.ticket));
        }
        if s.closed {
            return None;
        }
        s = inner.cv.wait(s).unwrap_or_else(PoisonError::into_inner);
    }
}

/// Executes one job and fans its response out to every waiter.
fn run_job(inner: &Inner, job: QueuedJob, mut ticket: OwnedTicket) {
    ticket.begin();
    if !inner.hold.is_zero() {
        thread::sleep(inner.hold);
    }
    let response = inner.executor.execute(&job);
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
    // The ticket drops here: admission capacity is released only after
    // the responses are queued for delivery.
    drop(ticket);
    inner.cv.notify_all();
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
        // Tokens are opaque; any value works here since nothing drains
        // the completions queue in these tests.
        Token::test_token(0, 0, 0)
    }

    /// Executor that blocks until released, recording every call.
    struct GatedExec {
        calls: AtomicUsize,
        keys: Mutex<Vec<String>>,
        gate: Mutex<mpsc::Receiver<()>>,
    }

    impl BatchExecutor for GatedExec {
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
            Response::new(200).text(format!("done:{}\n", job.key))
        }
    }

    fn harness(
        workers: usize,
        capacity: usize,
    ) -> (
        Dispatcher,
        Arc<AdmissionQueue>,
        Arc<GatedExec>,
        mpsc::Sender<()>,
    ) {
        let (waker, _rx) = waker_pair().expect("waker");
        let completions = Arc::new(Completions::new(waker));
        let (gate_tx, gate_rx) = mpsc::channel();
        let exec = Arc::new(GatedExec {
            calls: AtomicUsize::new(0),
            keys: Mutex::new(Vec::new()),
            gate: Mutex::new(gate_rx),
        });
        let queue = Arc::new(AdmissionQueue::new(capacity, workers));
        let dispatcher = Dispatcher::start(
            workers,
            Duration::ZERO,
            Arc::clone(&exec) as Arc<dyn BatchExecutor>,
            completions,
            Arc::new(|_, _| {}),
        );
        (dispatcher, queue, exec, gate_tx)
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

    #[test]
    fn identical_concurrent_specs_execute_exactly_once() {
        let (dispatcher, queue, exec, gate) = harness(1, 16);
        // Occupy the single worker with a blocker job.
        let blocker = spec(999);
        let key_b = blocker.cache_key();
        assert_eq!(
            dispatcher.submit(&queue, &key_b, blocker, token(), Instant::now()),
            Enqueue::Queued
        );
        wait_until(2000, || exec.calls.load(Ordering::SeqCst) == 1);

        // N identical submissions while the worker is busy: one queues,
        // the rest coalesce onto it.
        let shared = spec(7);
        let key_s = shared.cache_key();
        let n = 8;
        let mut outcomes = Vec::with_capacity(n);
        for _ in 0..n {
            outcomes.push(dispatcher.submit(&queue, &key_s, spec(7), token(), Instant::now()));
        }
        let queued = outcomes.iter().filter(|o| **o == Enqueue::Queued).count();
        let coalesced = outcomes
            .iter()
            .filter(|o| **o == Enqueue::Coalesced)
            .count();
        assert_eq!((queued, coalesced), (1, n - 1));

        // Release the blocker, then the shared job.
        gate.send(()).expect("release blocker");
        wait_until(2000, || exec.calls.load(Ordering::SeqCst) == 2);
        gate.send(()).expect("release shared");
        wait_until(2000, || dispatcher.depth() == 0);
        // Exactly two executions total: blocker + ONE for the N
        // identical specs.
        assert_eq!(exec.calls.load(Ordering::SeqCst), 2);
        dispatcher.close_and_join();
        queue.wait_idle();
    }

    #[test]
    fn distinct_jobs_run_one_call_each_in_fifo_order() {
        let (dispatcher, queue, exec, gate) = harness(1, 16);
        let blocker = spec(999);
        let key_b = blocker.cache_key();
        dispatcher.submit(&queue, &key_b, blocker, token(), Instant::now());
        wait_until(2000, || exec.calls.load(Ordering::SeqCst) == 1);

        // Four distinct specs queue behind the blocker.
        let mut expected = vec![key_b];
        for seed in 0..4 {
            let s = spec(seed);
            let key = s.cache_key();
            assert_eq!(
                dispatcher.submit(&queue, &key, s, token(), Instant::now()),
                Enqueue::Queued
            );
            expected.push(key);
        }
        for _ in 0..expected.len() {
            gate.send(()).expect("release one job");
        }
        wait_until(2000, || dispatcher.depth() == 0);
        let keys = exec
            .keys
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .clone();
        assert_eq!(keys, expected, "one call per job, in submission order");
        dispatcher.close_and_join();
        queue.wait_idle();
    }

    #[test]
    fn full_queue_rejects_new_keys_but_still_coalesces() {
        let (dispatcher, queue, exec, gate) = harness(1, 1);
        let a = spec(1);
        let key_a = a.cache_key();
        assert_eq!(
            dispatcher.submit(&queue, &key_a, a, token(), Instant::now()),
            Enqueue::Queued
        );
        wait_until(2000, || exec.calls.load(Ordering::SeqCst) == 1);
        // Distinct key: no capacity left.
        let b = spec(2);
        let key_b = b.cache_key();
        assert_eq!(
            dispatcher.submit(&queue, &key_b, b, token(), Instant::now()),
            Enqueue::Rejected
        );
        // Identical key: attaches without needing capacity.
        assert_eq!(
            dispatcher.submit(&queue, &key_a, spec(1), token(), Instant::now()),
            Enqueue::Coalesced
        );
        gate.send(()).expect("release");
        wait_until(2000, || dispatcher.depth() == 0);
        dispatcher.close_and_join();
        queue.wait_idle();
    }
}
