//! The job server: event-driven front end, routing, coalesced job
//! execution, graceful drain.
//!
//! Request flow for `POST /v1/jobs`:
//!
//! 1. the event loop ([`crate::event`]) parses the request
//!    incrementally off a non-blocking socket (keep-alive and
//!    pipelining included); malformed specs get 400 *without* closing
//!    the connection,
//! 2. derive the content-addressed cache key and probe the caches —
//!    first the sharded in-memory hot tier ([`crate::lru`],
//!    `X-Cache-Tier: mem`), then the sharded on-disk store
//!    (`X-Cache-Tier: disk`); a hit is answered immediately with
//!    `X-Cache: hit` and the *exact bytes* of the original response,
//! 3. otherwise hand the spec to the coalescing dispatcher
//!    ([`crate::coalesce`]): an identical in-flight spec shares its
//!    execution (single-flight); a dispatcher at capacity (or a server
//!    shutting down) is 429 with a `Retry-After` estimate,
//! 4. a worker picks up the FIFO head, runs it on the
//!    bandwidth-matched [`SweepRunner`], persists the body, and answers
//!    every waiter `X-Cache: miss` through the completion queue.
//!
//! Shutdown (SIGTERM/ctrl-c via [`crate::signal`], or
//! [`Handle::shutdown`]) stops accepting, drains in-flight jobs,
//! flushes the memo cache to `memo.jsonl`, and only then returns.

use std::collections::BTreeMap;
use std::net::{SocketAddr, TcpListener};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::thread;
use std::time::{Duration, Instant};

use tbstc::jobspec::JobSpec;
use tbstc::jobstate::{JobState, JobStatus};
use tbstc::prelude::*;
use tbstc::runner::{available_workers, ChunkControl};
use tbstc::sim::{HwConfig, ModelResult};

use crate::coalesce::{Dispatcher, Enqueue, Executor, FinishFn, QueuedJob};
use crate::event::{self, Action, Completions, LoopOptions, RouteEvent, Token};
use crate::http::{error_body, Request, Response};
use crate::jobs::DurableQueue;
use crate::lru::ShardedLru;
use crate::metrics::{Gauges, Metrics};
use crate::signal;
use crate::store::{MemoEntry, ResultStore};

/// Server configuration.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Listen address, e.g. `127.0.0.1:7878` (port 0 = ephemeral).
    pub addr: String,
    /// Maximum admitted-but-unfinished jobs before 429s start.
    pub queue_capacity: usize,
    /// Concurrently executing jobs (each job parallelizes internally).
    pub job_workers: usize,
    /// Directory of the persistent result cache.
    pub cache_dir: PathBuf,
    /// Artificial per-job delay after admission, milliseconds. A test and
    /// benchmark knob for exercising backpressure deterministically;
    /// 0 (the default) in production.
    pub hold_ms: u64,
    /// Also honor the process-wide SIGINT/SIGTERM flag (the CLI binary
    /// sets this; embedded servers and tests leave it off so signals and
    /// parallel test servers cannot interfere).
    pub watch_signals: bool,
    /// Suppress startup/shutdown stderr chatter.
    pub quiet: bool,
    /// Grid points per checkpointed chunk of a durable sweep.
    pub chunk_size: usize,
    /// Grid-point threshold above which a job goes durable: accepted
    /// 202 into the checkpointed queue instead of computed inline.
    pub long_job_points: usize,
    /// Artificial delay after each durable chunk, milliseconds — a test
    /// knob for catching a sweep mid-run deterministically; 0 in
    /// production.
    pub chunk_hold_ms: u64,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            addr: "127.0.0.1:7878".into(),
            queue_capacity: 32,
            job_workers: available_workers().max(1),
            cache_dir: PathBuf::from(".tbstc-cache"),
            hold_ms: 0,
            watch_signals: false,
            quiet: false,
            chunk_size: 16,
            long_job_points: 8,
            chunk_hold_ms: 0,
        }
    }
}

/// Shared server state (metrics, caches, engines, durable queue).
#[derive(Debug)]
pub struct State {
    cfg: ServeConfig,
    /// Service counters.
    pub metrics: Metrics,
    store: ResultStore,
    /// The bounded in-memory hot tier above the on-disk store.
    hot: ShardedLru,
    /// One engine per platform bandwidth (bit pattern of the GB/s value),
    /// because `SweepRunner` binds its `HwConfig`. Keyed by a `BTreeMap`
    /// so memo flushes walk engines in a stable order.
    engines: Mutex<BTreeMap<u64, Arc<SweepRunner>>>,
    /// Persisted memo entries not yet claimed by an engine.
    preload: Mutex<BTreeMap<u64, Vec<(SimJob, ModelResult)>>>,
    /// Durable long-job queue drained by the controller thread.
    durable: DurableQueue,
    shutdown: AtomicBool,
    connections: AtomicUsize,
}

impl State {
    fn new(cfg: ServeConfig) -> Result<State, Error> {
        let store = ResultStore::open(cfg.cache_dir.clone())?;
        let mut preload: BTreeMap<u64, Vec<(SimJob, ModelResult)>> = BTreeMap::new();
        let (persisted, corrupt_lines) = store.load_memo_counting();
        let preloaded = persisted.len();
        for entry in persisted {
            preload
                .entry(entry.bandwidth_gbps.to_bits())
                .or_default()
                .push((entry.job, entry.result));
        }
        if preloaded > 0 && !cfg.quiet {
            eprintln!("tbstc-serve: reloaded {preloaded} memoized results from disk");
        }
        let metrics = Metrics::new();
        metrics
            .memo_corrupt_lines
            .store(corrupt_lines, Ordering::Relaxed);
        Ok(State {
            metrics,
            store,
            hot: ShardedLru::default(),
            engines: Mutex::new(BTreeMap::new()),
            preload: Mutex::new(preload),
            durable: DurableQueue::new(),
            shutdown: AtomicBool::new(false),
            connections: AtomicUsize::new(0),
            cfg,
        })
    }

    /// Locks the engine table on the request path. Poison (a panic while
    /// inserting) surfaces as [`Error::Internal`] — an HTTP 500 — rather
    /// than unwinding the whole worker.
    fn engines_checked(&self) -> Result<MutexGuard<'_, BTreeMap<u64, Arc<SweepRunner>>>, Error> {
        self.engines
            .lock()
            .map_err(|_| Error::Internal("engine table poisoned".into()))
    }

    /// Locks the engine table off the request path (metrics scrapes, the
    /// shutdown flush), recovering from poison: the map is only ever
    /// inserted into, so a panicking holder cannot leave it inconsistent,
    /// and observability must survive a wounded worker.
    fn engines_recovered(&self) -> MutexGuard<'_, BTreeMap<u64, Arc<SweepRunner>>> {
        self.engines.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Same recovery story for the unclaimed-preload table.
    fn preload_recovered(&self) -> MutexGuard<'_, BTreeMap<u64, Vec<(SimJob, ModelResult)>>> {
        self.preload.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn engine_for(&self, bandwidth_gbps: f64) -> Result<Arc<SweepRunner>, Error> {
        let bits = bandwidth_gbps.to_bits();
        let mut engines = self.engines_checked()?;
        Ok(Arc::clone(engines.entry(bits).or_insert_with(|| {
            let engine = SweepRunner::new(HwConfig::with_bandwidth_gbps(bandwidth_gbps));
            if let Some(entries) = self.preload_recovered().remove(&bits) {
                engine.preload_models(entries);
            }
            Arc::new(engine)
        })))
    }

    fn memo_totals(&self) -> (u64, u64) {
        let engines = self.engines_recovered();
        engines.values().fold((0, 0), |(h, m), e| {
            let (eh, em) = e.cache_stats();
            (h + eh, m + em)
        })
    }

    fn memo_entries(&self) -> Vec<MemoEntry> {
        let engines = self.engines_recovered();
        let mut out = Vec::with_capacity(64);
        for (&bits, engine) in engines.iter() {
            let bandwidth_gbps = f64::from_bits(bits);
            out.extend(
                engine
                    .model_memo_entries()
                    .into_iter()
                    .map(|(job, result)| MemoEntry {
                        bandwidth_gbps,
                        job,
                        result,
                    }),
            );
        }
        // Entries still waiting for an engine survive restarts too.
        for (&bits, entries) in self.preload_recovered().iter() {
            let bandwidth_gbps = f64::from_bits(bits);
            out.extend(entries.iter().cloned().map(|(job, result)| MemoEntry {
                bandwidth_gbps,
                job,
                result,
            }));
        }
        out
    }

    fn shutting_down(&self) -> bool {
        self.shutdown.load(Ordering::SeqCst)
            || (self.cfg.watch_signals && signal::shutdown_requested())
    }

    /// Renders the `/metrics` exposition with live gauges; `depth` is
    /// the dispatcher's `(queued, executing)` pair.
    pub fn render_metrics(&self, depth: (usize, usize)) -> String {
        let (waiting, executing) = depth;
        let (memo_hits, memo_misses) = self.memo_totals();
        self.metrics.render(&Gauges {
            queue_depth: waiting,
            in_flight: executing,
            job_workers: self.cfg.job_workers,
            memo_hits,
            memo_misses,
            open_connections: self.connections.load(Ordering::Relaxed),
        })
    }

    fn retry_after_secs(&self, depth: (usize, usize)) -> u64 {
        // Rough drain time for the backlog ahead of a retry: mean job
        // latency × queue rounds per worker, clamped to something polite.
        let (waiting, executing) = depth;
        let backlog = (waiting + executing) as f64;
        let rounds = (backlog / self.cfg.job_workers.max(1) as f64).ceil();
        let mean = self.metrics.mean_latency_s(1.0);
        (mean * rounds).ceil().clamp(1.0, 60.0) as u64
    }

    /// The on-disk store backing this server.
    pub fn store(&self) -> &ResultStore {
        &self.store
    }

    /// Re-enqueues every non-terminal durable job found in the store at
    /// startup, repairing statuses whose result already landed (another
    /// process finished the job, or we crashed between the final write
    /// and the status update). Returns how many jobs were re-enqueued.
    fn resume_incomplete_jobs(&self) -> usize {
        let mut resumed = 0;
        for status in self.store.list_job_statuses() {
            if status.state.is_terminal() {
                continue;
            }
            if self.store.get(&status.id).is_some() {
                let done = status.clone().with_state(JobState::Done);
                if let Err(e) = self.store.put_job_status(&done) {
                    eprintln!("tbstc-serve: warning: cannot repair job {}: {e}", status.id);
                }
                continue;
            }
            if self.durable.submit(&status.id) {
                self.metrics.jobs_resumed.fetch_add(1, Ordering::Relaxed);
                resumed += 1;
            }
        }
        resumed
    }

    fn flush_memo(&self) {
        let entries = self.memo_entries();
        match self.store.save_memo(&entries) {
            Ok(()) => {
                if !self.cfg.quiet {
                    eprintln!(
                        "tbstc-serve: flushed {} memoized results to {}",
                        entries.len(),
                        self.store.memo_path().display()
                    );
                }
            }
            Err(e) => eprintln!("tbstc-serve: warning: memo flush failed: {e}"),
        }
    }
}

/// A handle for asking a running server to shut down gracefully.
#[derive(Debug, Clone)]
pub struct Handle {
    state: Arc<State>,
}

impl Handle {
    /// Requests a graceful shutdown: stop accepting, drain, flush.
    /// Durable jobs checkpoint and stop at the next chunk boundary;
    /// their progress persists for the next process to resume.
    pub fn shutdown(&self) {
        self.state.shutdown.store(true, Ordering::SeqCst);
        self.state.durable.close();
    }

    /// The shared server state (metrics etc.).
    pub fn state(&self) -> &State {
        &self.state
    }
}

/// A bound-but-not-yet-running server.
#[derive(Debug)]
pub struct Server {
    listener: TcpListener,
    state: Arc<State>,
}

/// A server running on a background thread.
#[derive(Debug)]
pub struct Running {
    /// The bound address (useful with ephemeral ports).
    pub addr: SocketAddr,
    handle: Handle,
    thread: thread::JoinHandle<()>,
}

impl Running {
    /// The shutdown handle.
    pub fn handle(&self) -> Handle {
        self.handle.clone()
    }

    /// Requests shutdown and blocks until the drain + flush complete.
    pub fn shutdown_and_join(self) {
        self.handle.shutdown();
        let _ = self.thread.join();
    }
}

impl Server {
    /// Binds the listener and prepares state (loads the persisted memo
    /// cache).
    ///
    /// # Errors
    ///
    /// [`Error::Io`] when the address cannot be bound or the cache
    /// directory cannot be created.
    pub fn bind(cfg: ServeConfig) -> Result<Server, Error> {
        let listener = TcpListener::bind(&cfg.addr)
            .map_err(|e| Error::Io(format!("cannot bind {}: {e}", cfg.addr)))?;
        listener
            .set_nonblocking(true)
            .map_err(|e| Error::Io(e.to_string()))?;
        let state = Arc::new(State::new(cfg)?);
        Ok(Server { listener, state })
    }

    /// The bound address.
    ///
    /// # Errors
    ///
    /// [`Error::Io`] when the socket has no local address.
    pub fn local_addr(&self) -> Result<SocketAddr, Error> {
        self.listener
            .local_addr()
            .map_err(|e| Error::Io(e.to_string()))
    }

    /// A shutdown handle usable from other threads.
    pub fn handle(&self) -> Handle {
        Handle {
            state: Arc::clone(&self.state),
        }
    }

    /// Runs the event loop on this thread until shutdown, then drains
    /// in-flight jobs and flushes the memo cache.
    pub fn run(self) {
        let state = self.state;
        if !state.cfg.quiet {
            if let Ok(addr) = self.listener.local_addr() {
                eprintln!(
                    "tbstc-serve: listening on http://{addr} (queue {}, {} job workers, cache {})",
                    state.cfg.queue_capacity,
                    state.cfg.job_workers,
                    state.store.dir().display()
                );
            }
        }
        let (waker, waker_rx) = match event::waker_pair() {
            Ok(pair) => pair,
            Err(e) => {
                eprintln!("tbstc-serve: cannot create event-loop waker: {e}");
                return;
            }
        };
        let completions = Arc::new(Completions::new(waker));
        let executor: Arc<dyn Executor> = Arc::new(EngineExecutor {
            state: Arc::clone(&state),
        });
        let finish: Arc<FinishFn> = {
            let state = Arc::clone(&state);
            Arc::new(move |response: &Response, waited: Duration| {
                if response.status() == 200 {
                    state.metrics.jobs_ok.fetch_add(1, Ordering::Relaxed);
                } else {
                    state.metrics.jobs_failed.fetch_add(1, Ordering::Relaxed);
                }
                state.metrics.observe_latency(waited.as_secs_f64());
            })
        };
        let dispatcher = Dispatcher::start(
            state.cfg.job_workers,
            state.cfg.queue_capacity,
            Duration::from_millis(state.cfg.hold_ms),
            executor,
            Arc::clone(&completions),
            finish,
        );
        let resumed = state.resume_incomplete_jobs();
        if resumed > 0 && !state.cfg.quiet {
            eprintln!("tbstc-serve: resuming {resumed} incomplete durable job(s) from checkpoints");
        }
        let controller = {
            let state = Arc::clone(&state);
            thread::Builder::new()
                .name("tbstc-serve-durable".into())
                .spawn(move || durable_controller(&state))
                .map_err(|e| eprintln!("tbstc-serve: warning: no durable controller: {e}"))
                .ok()
        };
        {
            let route_state = Arc::clone(&state);
            let mut route = |ev: RouteEvent, token: Token| -> Action {
                // A panic anywhere in routing answers 500 and keeps the
                // event loop alive.
                catch_unwind(AssertUnwindSafe(|| {
                    route_event(&route_state, &dispatcher, ev, token)
                }))
                .unwrap_or_else(|_| {
                    route_state
                        .metrics
                        .jobs_failed
                        .fetch_add(1, Ordering::Relaxed);
                    Action::Reply(
                        Response::new(500)
                            .json(error_body("internal error: request handler panicked")),
                    )
                })
            };
            let shutdown_state = Arc::clone(&state);
            event::run_loop(
                &self.listener,
                &waker_rx,
                &completions,
                &|| shutdown_state.shutting_down(),
                &mut route,
                &state.connections,
                &LoopOptions::default(),
            );
        }
        drop(self.listener);
        state.durable.close();
        if !state.cfg.quiet {
            eprintln!("tbstc-serve: shutting down — draining in-flight jobs");
        }
        // Drain: workers finish everything already queued, then exit.
        // Durable jobs stop at the next chunk boundary with their
        // progress checkpointed; the controller joins before the memo
        // flush so its appended entries merge into the final file.
        dispatcher.close_and_join();
        if let Some(controller) = controller {
            let _ = controller.join();
        }
        state.flush_memo();
        if !state.cfg.quiet {
            eprintln!("tbstc-serve: drained; bye");
        }
    }

    /// Spawns [`Server::run`] on a background thread.
    ///
    /// # Errors
    ///
    /// [`Error::Io`] when the socket has no local address.
    pub fn spawn(self) -> Result<Running, Error> {
        let addr = self.local_addr()?;
        let handle = self.handle();
        let thread = thread::Builder::new()
            .name("tbstc-serve-events".into())
            .spawn(move || self.run())
            .map_err(|e| Error::Io(e.to_string()))?;
        Ok(Running {
            addr,
            handle,
            thread,
        })
    }
}

/// Routes one event-loop event to a response or a dispatcher handoff.
fn route_event(
    state: &Arc<State>,
    dispatcher: &Dispatcher,
    event: RouteEvent,
    token: Token,
) -> Action {
    match event {
        RouteEvent::Protocol { status, message } => {
            state.metrics.requests_other.fetch_add(1, Ordering::Relaxed);
            Action::Reply(Response::new(status).json(error_body(&message)))
        }
        RouteEvent::Request(request) => route(state, dispatcher, &request, token),
    }
}

fn route(state: &Arc<State>, dispatcher: &Dispatcher, request: &Request, token: Token) -> Action {
    match (request.method.as_str(), request.path.as_str()) {
        ("POST", "/v1/jobs") => {
            state.metrics.requests_jobs.fetch_add(1, Ordering::Relaxed);
            handle_job(state, dispatcher, request, token)
        }
        ("GET", "/metrics") => {
            state
                .metrics
                .requests_metrics
                .fetch_add(1, Ordering::Relaxed);
            Action::Reply(Response::new(200).text(state.render_metrics(dispatcher.depth())))
        }
        ("GET", "/healthz") => {
            state.metrics.requests_other.fetch_add(1, Ordering::Relaxed);
            Action::Reply(Response::new(200).text("ok\n"))
        }
        ("GET", "/v1/archs") => {
            state.metrics.requests_other.fetch_add(1, Ordering::Relaxed);
            Action::Reply(Response::new(200).json(archs_body()))
        }
        ("GET", "/v1/jobs") => {
            state.metrics.requests_jobs.fetch_add(1, Ordering::Relaxed);
            Action::Reply(Response::new(200).json(jobs_list_body(state)))
        }
        ("GET", path)
            if path
                .strip_prefix("/v1/jobs/")
                .is_some_and(|k| !k.is_empty()) =>
        {
            state.metrics.requests_jobs.fetch_add(1, Ordering::Relaxed);
            let key = path.strip_prefix("/v1/jobs/").unwrap_or_default();
            Action::Reply(lookup_cached(state, key))
        }
        ("DELETE", path)
            if path
                .strip_prefix("/v1/jobs/")
                .is_some_and(|k| !k.is_empty()) =>
        {
            state.metrics.requests_jobs.fetch_add(1, Ordering::Relaxed);
            let key = path.strip_prefix("/v1/jobs/").unwrap_or_default();
            Action::Reply(handle_cancel(state, key))
        }
        ("POST" | "GET", _) => {
            state.metrics.requests_other.fetch_add(1, Ordering::Relaxed);
            Action::Reply(Response::new(404).json(error_body("unknown endpoint")))
        }
        _ => {
            state.metrics.requests_other.fetch_add(1, Ordering::Relaxed);
            Action::Reply(Response::new(405).json(error_body("method not allowed")))
        }
    }
}

/// `GET /v1/jobs/{key}`: probe hot tier, then disk; a job without a
/// result yet answers its durable status document — 202 while it can
/// still make progress, 200 once terminal.
fn lookup_cached(state: &State, key: &str) -> Response {
    if let Some(body) = state.hot.get(key) {
        state.metrics.mem_hits.fetch_add(1, Ordering::Relaxed);
        return Response::new(200)
            .header("X-Cache", "hit")
            .header("X-Cache-Tier", "mem")
            .header("X-Job-Key", key.to_string())
            .json(body);
    }
    match probe_disk(|| state.store.get(key), || state.store.get_job_status(key)) {
        DiskProbe::Result(body) => {
            state.metrics.disk_hits.fetch_add(1, Ordering::Relaxed);
            state.hot.put(key, &body);
            Response::new(200)
                .header("X-Cache", "hit")
                .header("X-Cache-Tier", "disk")
                .header("X-Job-Key", key.to_string())
                .json(body)
        }
        DiskProbe::Status(status) => {
            let code = if status.state.is_terminal() { 200 } else { 202 };
            Response::new(code)
                .header("X-Job-Key", key.to_string())
                .json(format!("{}\n", status.to_json()))
        }
        DiskProbe::Missing => Response::new(404).json(error_body("no cached result for this key")),
    }
}

/// What the disk tier holds for a job key.
#[derive(Debug, PartialEq)]
enum DiskProbe {
    /// The result body.
    Result(String),
    /// No result; the job's lifecycle document.
    Status(JobStatus),
    /// Neither.
    Missing,
}

/// Reads a job's result, falling back to its status document.
///
/// The job path writes the result before its `done` status, so a `done`
/// status read after a result miss means the result landed in between:
/// the result is read once more rather than answering `done` without it.
fn probe_disk(
    mut result: impl FnMut() -> Option<String>,
    status: impl FnOnce() -> Option<JobStatus>,
) -> DiskProbe {
    if let Some(body) = result() {
        return DiskProbe::Result(body);
    }
    match status() {
        Some(status) if status.state == JobState::Done => {
            result().map_or(DiskProbe::Status(status), DiskProbe::Result)
        }
        Some(status) => DiskProbe::Status(status),
        None => DiskProbe::Missing,
    }
}

/// `GET /v1/jobs`: every durable job's status document, sorted by id.
fn jobs_list_body(state: &State) -> String {
    let jobs: Vec<Json> = state
        .store
        .list_job_statuses()
        .iter()
        .map(JobStatus::to_value)
        .collect();
    format!("{}\n", Json::obj([("jobs", Json::Arr(jobs))]))
}

/// `DELETE /v1/jobs/{key}`: cancel a durable job. A still-queued job
/// (in this process) cancels immediately (200); a running or
/// foreign-process job gets a cancel marker honored at the next chunk
/// boundary (202); terminal jobs conflict (409).
fn handle_cancel(state: &Arc<State>, key: &str) -> Response {
    if !ResultStore::valid_key(key) {
        return Response::new(400).json(error_body("malformed job key"));
    }
    match state.store.get_job_status(key) {
        Some(status) if !status.state.is_terminal() => {
            if state.durable.remove(key) {
                let cancelled = status.with_state(JobState::Cancelled);
                if let Err(e) = state.store.put_job_status(&cancelled) {
                    return Response::new(500).json(error_body(&e.to_string()));
                }
                state.metrics.jobs_cancelled.fetch_add(1, Ordering::Relaxed);
                Response::new(200)
                    .header("X-Job-Key", key.to_string())
                    .json(format!("{}\n", cancelled.to_json()))
            } else {
                // Running here, or owned by another process sharing the
                // store: mark in memory (fast path for our executor) and
                // on disk (reaches everyone).
                state.durable.request_cancel(key);
                if let Err(e) = state.store.request_cancel(key) {
                    return Response::new(500).json(error_body(&e.to_string()));
                }
                Response::new(202)
                    .header("X-Job-Key", key.to_string())
                    .json(format!("{}\n", status.to_json()))
            }
        }
        Some(status) => Response::new(409).json(error_body(&format!(
            "job is already {} and cannot be cancelled",
            status.state.name()
        ))),
        None if state.store.get(key).is_some() => {
            Response::new(409).json(error_body("job already completed"))
        }
        None => Response::new(404).json(error_body("no such job")),
    }
}

/// Renders the architecture catalog: one entry per registered
/// [`tbstc::sim::ArchModel`], with its canonical name, aliases, lane
/// count at the paper-default PE array, native scheduling policy, and
/// the full `tbstc.v1` spec document — what a client would POST back as
/// an inline `arch_spec` to reproduce the builtin.
fn archs_body() -> String {
    let cfg = HwConfig::paper_default();
    let entries: Vec<Json> = tbstc::sim::REGISTRY
        .iter()
        .map(|model| {
            let policy = model.native_schedule();
            Json::obj([
                ("name", Json::str(model.canonical_name())),
                ("display", Json::str(model.display_name())),
                (
                    "aliases",
                    Json::Arr(model.aliases().iter().map(|&a| Json::str(a)).collect()),
                ),
                ("lanes", Json::Int(model.lanes(cfg.pe) as i64)),
                ("inter_block", Json::str(format!("{:?}", policy.inter))),
                ("intra_block", Json::str(format!("{:?}", policy.intra))),
                ("spec", tbstc::archspec::spec_to_value(model.spec())),
            ])
        })
        .collect();
    format!("{}\n", Json::obj([("archs", Json::Arr(entries))]))
}

fn handle_job(
    state: &Arc<State>,
    dispatcher: &Dispatcher,
    request: &Request,
    token: Token,
) -> Action {
    let started = Instant::now();
    let body = match std::str::from_utf8(&request.body) {
        Ok(b) => b,
        Err(_) => {
            state.metrics.jobs_bad.fetch_add(1, Ordering::Relaxed);
            return Action::Reply(Response::new(400).json(error_body("body is not utf-8")));
        }
    };
    let spec = match JobSpec::from_json(body) {
        Ok(s) => s,
        Err(e) => {
            state.metrics.jobs_bad.fetch_add(1, Ordering::Relaxed);
            return Action::Reply(Response::new(400).json(error_body(&e.to_string())));
        }
    };
    let key = spec.cache_key();

    // Tier 0: the sharded in-memory hot tier — no disk I/O at all.
    if let Some(cached) = state.hot.get(&key) {
        state.metrics.mem_hits.fetch_add(1, Ordering::Relaxed);
        state.metrics.jobs_ok.fetch_add(1, Ordering::Relaxed);
        state
            .metrics
            .observe_latency(started.elapsed().as_secs_f64());
        return Action::Reply(
            Response::new(200)
                .header("X-Cache", "hit")
                .header("X-Cache-Tier", "mem")
                .header("X-Job-Key", key)
                .json(cached),
        );
    }

    // Tier 1: the on-disk response cache — byte-identical across
    // restarts; promote hits into the hot tier.
    if let Some(cached) = state.store.get(&key) {
        state.metrics.disk_hits.fetch_add(1, Ordering::Relaxed);
        state.metrics.jobs_ok.fetch_add(1, Ordering::Relaxed);
        state.hot.put(&key, &cached);
        state
            .metrics
            .observe_latency(started.elapsed().as_secs_f64());
        return Action::Reply(
            Response::new(200)
                .header("X-Cache", "hit")
                .header("X-Cache-Tier", "disk")
                .header("X-Job-Key", key)
                .json(cached),
        );
    }

    // Long jobs go durable: persist a queued status, enqueue for the
    // checkpointed controller, answer 202 + Location for polling.
    if spec.grid_len() > state.cfg.long_job_points {
        return Action::Reply(durable_submit(state, &key, &spec));
    }

    // Tier 2: compute, under admission control, coalesced with any
    // identical in-flight spec. A server shutting down admits nothing.
    let outcome = if state.shutting_down() {
        Enqueue::Rejected
    } else {
        dispatcher.submit(&key, spec, token, started)
    };
    match outcome {
        Enqueue::Queued => Action::Pending,
        Enqueue::Coalesced => {
            state.metrics.jobs_coalesced.fetch_add(1, Ordering::Relaxed);
            Action::Pending
        }
        Enqueue::Rejected => {
            state.metrics.jobs_rejected.fetch_add(1, Ordering::Relaxed);
            let retry = state.retry_after_secs(dispatcher.depth());
            Action::Reply(
                Response::new(429)
                    .header("Retry-After", retry.to_string())
                    .json(error_body(&format!(
                        "admission queue full ({} jobs); retry in ~{retry}s",
                        dispatcher.capacity()
                    ))),
            )
        }
    }
}

/// Accepts a long job into the durable queue: persist `queued` (or keep
/// an existing non-terminal status — resubmits are idempotent), enqueue,
/// answer `202 Accepted` with a `Location` to poll.
fn durable_submit(state: &Arc<State>, key: &str, spec: &JobSpec) -> Response {
    let status = match state.store.get_job_status(key) {
        Some(existing) if !existing.state.is_terminal() => existing,
        _ => {
            // Fresh submission, or a re-run of a cancelled/failed job:
            // reset to queued and drop any stale cancel marks.
            let queued = JobStatus::queued(spec);
            if let Err(e) = state.store.put_job_status(&queued) {
                state.metrics.jobs_failed.fetch_add(1, Ordering::Relaxed);
                return Response::new(500).json(error_body(&e.to_string()));
            }
            state.store.clear_cancel(key);
            state.durable.clear_cancel(key);
            queued
        }
    };
    state.durable.submit(key);
    state.metrics.jobs_accepted.fetch_add(1, Ordering::Relaxed);
    Response::new(202)
        .header("Location", format!("/v1/jobs/{key}"))
        .header("X-Job-Key", key.to_string())
        .json(format!("{}\n", status.to_json()))
}

/// The controller thread: drains the durable queue one job at a time
/// until shutdown. Each job executes in checkpointed chunks, so a
/// SIGTERM mid-sweep loses at most one chunk of work.
fn durable_controller(state: &Arc<State>) {
    while let Some(key) = state.durable.next(&|| state.shutting_down()) {
        execute_durable(state, &key);
    }
}

/// Executes (or resumes) one durable job end to end. The job flock
/// makes the claim exclusive across every process sharing the store;
/// progress persists after each chunk, so whoever claims the key next
/// recomputes only unfinished points (the finished ones are memo hits).
fn execute_durable(state: &Arc<State>, key: &str) {
    if state.shutting_down() {
        return;
    }
    let Some(status) = state.store.get_job_status(key) else {
        return;
    };
    if status.state.is_terminal() {
        return;
    }
    if state.durable.cancel_requested(key) || state.store.cancel_requested(key) {
        finish_cancel(state, key, &status);
        return;
    }
    let spec = match status.job_spec() {
        Ok(spec) => spec,
        Err(e) => {
            let failed = status.with_state(JobState::Failed {
                error: e.to_string(),
            });
            let _ = state.store.put_job_status(&failed);
            return;
        }
    };
    // Claim the job fleet-wide. Waiting is bounded by the current
    // holder's run; shutdown aborts the wait.
    let claim = match state.store.lock_job(key, &|| state.shutting_down()) {
        Ok(Some(claim)) => claim,
        Ok(None) => return,
        Err(e) => {
            eprintln!("tbstc-serve: warning: cannot claim job {key}: {e}");
            return;
        }
    };
    // The previous holder may have finished it while we waited.
    if state.store.get(key).is_some() {
        let _ = state
            .store
            .put_job_status(&status.with_state(JobState::Done));
        return;
    }
    let engine = match state.engine_for(spec.bandwidth_gbps()) {
        Ok(engine) => engine,
        Err(e) => {
            let failed = status.with_state(JobState::Failed {
                error: e.to_string(),
            });
            let _ = state.store.put_job_status(&failed);
            return;
        }
    };
    let grid = spec.grid_jobs();
    let total = grid.len() as u64;
    let bandwidth_gbps = spec.bandwidth_gbps();
    state.metrics.jobs_executed.fetch_add(1, Ordering::Relaxed);
    let _ = state.store.put_job_status(
        &status
            .clone()
            .with_state(JobState::Running { done: 0, total }),
    );
    let compute_started = Instant::now();
    let mut cancelled = false;
    let mut interrupted = false;
    let run = catch_unwind(AssertUnwindSafe(|| {
        engine.run_models_chunked(&grid, state.cfg.chunk_size, &mut |cp| {
            // Checkpoint: persist the chunk's points (memo append) and
            // the progress document before deciding whether to go on.
            let entries: Vec<MemoEntry> = cp
                .chunk_jobs
                .iter()
                .zip(cp.chunk_results)
                .map(|(&job, result)| MemoEntry {
                    bandwidth_gbps,
                    job,
                    result: result.clone(),
                })
                .collect();
            if let Err(e) = state.store.append_memo(&entries) {
                eprintln!("tbstc-serve: warning: checkpoint append failed for {key}: {e}");
            }
            state.metrics.sweep_chunks.fetch_add(1, Ordering::Relaxed);
            let running = status.clone().with_state(JobState::Running {
                done: cp.done as u64,
                total,
            });
            let _ = state.store.put_job_status(&running);
            if state.cfg.chunk_hold_ms > 0 {
                thread::sleep(Duration::from_millis(state.cfg.chunk_hold_ms));
            }
            if state.durable.cancel_requested(key) || state.store.cancel_requested(key) {
                cancelled = true;
                return ChunkControl::Stop;
            }
            if state.shutting_down() {
                interrupted = true;
                return ChunkControl::Stop;
            }
            ChunkControl::Continue
        })
    }));
    state.metrics.busy_us.fetch_add(
        compute_started.elapsed().as_micros() as u64,
        Ordering::Relaxed,
    );
    match run {
        Err(_) => {
            let failed = status.with_state(JobState::Failed {
                error: "job execution panicked".into(),
            });
            let _ = state.store.put_job_status(&failed);
        }
        Ok(None) if cancelled => finish_cancel(state, key, &status),
        Ok(None) => {
            // Shutdown between chunks (or a stop without a cause, which
            // interruption covers): the running{done,total} document and
            // the appended memo chunks are already persisted — the next
            // process resumes from there.
            debug_assert!(interrupted);
        }
        Ok(Some(_warmed)) => {
            // Every grid point is memoized now, so the canonical
            // execution below is pure assembly — byte-identical to the
            // synchronous path's body.
            let executed =
                catch_unwind(AssertUnwindSafe(|| format!("{}\n", spec.execute(&engine))));
            match executed {
                Ok(body) => {
                    persist_result(state, key, &body);
                    let _ = state
                        .store
                        .put_job_status(&status.with_state(JobState::Done));
                }
                Err(_) => {
                    let failed = status.with_state(JobState::Failed {
                        error: "job execution panicked".into(),
                    });
                    let _ = state.store.put_job_status(&failed);
                }
            }
        }
    }
    drop(claim);
}

/// Marks a durable job cancelled and clears both cancel marks. The cancel
/// is counted first, so a client that sees the `cancelled` status also
/// scrapes it in `tbstc_jobs_cancelled_total`.
fn finish_cancel(state: &Arc<State>, key: &str, status: &JobStatus) {
    state.metrics.jobs_cancelled.fetch_add(1, Ordering::Relaxed);
    let cancelled = status.clone().with_state(JobState::Cancelled);
    if let Err(e) = state.store.put_job_status(&cancelled) {
        eprintln!("tbstc-serve: warning: cannot persist cancel of {key}: {e}");
    }
    state.store.clear_cancel(key);
    state.durable.clear_cancel(key);
}

/// Persists a freshly computed body into both cache tiers and counts the
/// disk miss it answered. A failed disk write only warns: the response
/// still goes out, and the hot tier serves repeats until eviction.
fn persist_result(state: &State, key: &str, body: &str) {
    if let Err(e) = state.store.put(key, body) {
        eprintln!("tbstc-serve: warning: cannot cache job {key}: {e}");
    }
    state.hot.put(key, body);
    state.metrics.disk_misses.fetch_add(1, Ordering::Relaxed);
}

/// The dispatcher's executor: runs one deduplicated job on the
/// bandwidth-matched engine and persists its result.
struct EngineExecutor {
    state: Arc<State>,
}

impl Executor for EngineExecutor {
    /// Executes one deduplicated job: fleet-wide claim, engine lookup,
    /// guarded execution, persistence into both cache tiers.
    fn execute(&self, job: &QueuedJob) -> Response {
        let state = &self.state;
        // Claim the key across every process sharing the store — the
        // cross-process face of single-flight. Waiting is bounded by
        // the holder's one execution; shutdown aborts the wait.
        let claim = match state.store.lock_job(&job.key, &|| state.shutting_down()) {
            Ok(claim) => claim,
            Err(e) => return Response::new(500).json(error_body(&e.to_string())),
        };
        // Whoever held the lock may have computed this exact spec.
        if let Some(cached) = state.store.get(&job.key) {
            state.metrics.disk_hits.fetch_add(1, Ordering::Relaxed);
            state.hot.put(&job.key, &cached);
            return Response::new(200)
                .header("X-Cache", "hit")
                .header("X-Cache-Tier", "disk")
                .header("X-Job-Key", job.key.clone())
                .json(cached);
        }
        if claim.is_none() {
            // Shutdown aborted the wait and no result landed.
            return Response::new(503).json(error_body("server is shutting down"));
        }
        state.metrics.jobs_executed.fetch_add(1, Ordering::Relaxed);
        let engine = match state.engine_for(job.spec.bandwidth_gbps()) {
            Ok(engine) => engine,
            Err(e) => return Response::new(500).json(error_body(&e.to_string())),
        };
        let compute_started = Instant::now();
        // Simulation code validates its inputs, but a panic in it must
        // cost one job, not the worker: scoped-thread panics propagate
        // here at scope exit, where catch_unwind turns them into a 500.
        let executed = catch_unwind(AssertUnwindSafe(|| {
            format!("{}\n", job.spec.execute(&engine))
        }));
        state.metrics.busy_us.fetch_add(
            compute_started.elapsed().as_micros() as u64,
            Ordering::Relaxed,
        );
        let response_body = match executed {
            Ok(body) => body,
            Err(_) => {
                return Response::new(500)
                    .json(error_body("internal error: job execution panicked"));
            }
        };
        persist_result(state, &job.key, &response_body);
        Response::new(200)
            .header("X-Cache", "miss")
            .header("X-Job-Key", job.key.clone())
            .json(response_body)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("tbstc-server-test-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn test_cfg(tag: &str) -> ServeConfig {
        ServeConfig {
            addr: "127.0.0.1:0".into(),
            cache_dir: tmp_dir(tag),
            quiet: true,
            ..ServeConfig::default()
        }
    }

    #[test]
    fn a_result_landing_between_the_two_disk_reads_is_served() {
        // The job path writes the result, then its `done` status. A poll
        // whose result read misses and whose status read then sees
        // `done` must answer the result, not the status document.
        let spec = JobSpec::from_json(r#"{"type":"simulate","arch":"tb-stc","model":{"kind":"gcn","nodes":16,"features":8},"sparsity":0.5}"#)
            .expect("valid spec");
        let status = JobStatus::queued(&spec);
        let mut reads = 0;
        let got = probe_disk(
            || {
                reads += 1;
                (reads > 1).then(|| "result\n".to_string())
            },
            || Some(status.clone().with_state(JobState::Done)),
        );
        assert_eq!(got, DiskProbe::Result("result\n".into()));

        // A `done` job whose result write failed still answers its status;
        // other states never re-read the result.
        let done = status.clone().with_state(JobState::Done);
        assert_eq!(
            probe_disk(|| None, || Some(done.clone())),
            DiskProbe::Status(done)
        );
        let running = status.with_state(JobState::Running { done: 1, total: 2 });
        let mut reads = 0;
        let got = probe_disk(
            || {
                reads += 1;
                (reads > 1).then(String::new)
            },
            || Some(running.clone()),
        );
        assert_eq!(got, DiskProbe::Status(running));
        assert_eq!(probe_disk(|| None, || None), DiskProbe::Missing);
    }

    #[test]
    fn healthz_and_metrics_respond() {
        let server = Server::bind(test_cfg("health")).unwrap();
        let running = server.spawn().unwrap();
        let addr = running.addr.to_string();

        let health = crate::http::request(&addr, "GET", "/healthz", None).unwrap();
        assert_eq!(health.status, 200);
        assert_eq!(health.body, "ok\n");

        let metrics = crate::http::request(&addr, "GET", "/metrics", None).unwrap();
        assert_eq!(metrics.status, 200);
        assert!(metrics.body.contains("tbstc_requests_total"));
        assert!(metrics.body.contains("tbstc_worker_utilization"));
        assert!(metrics.body.contains("tbstc_open_connections"));

        let missing = crate::http::request(&addr, "GET", "/nope", None).unwrap();
        assert_eq!(missing.status, 404);

        let cache_dir = running.handle().state().store.dir().to_path_buf();
        running.shutdown_and_join();
        let _ = std::fs::remove_dir_all(cache_dir);
    }

    #[test]
    fn archs_catalog_lists_registry() {
        let server = Server::bind(test_cfg("archs")).unwrap();
        let running = server.spawn().unwrap();
        let addr = running.addr.to_string();

        let resp = crate::http::request(&addr, "GET", "/v1/archs", None).unwrap();
        assert_eq!(resp.status, 200);
        let parsed = Json::parse(resp.body.trim()).unwrap();
        let archs = parsed.get("archs").and_then(Json::as_arr).unwrap();
        assert_eq!(archs.len(), tbstc::sim::REGISTRY.len());
        for (entry, model) in archs.iter().zip(tbstc::sim::REGISTRY.iter()) {
            assert_eq!(
                entry.get("name").and_then(Json::as_str),
                Some(model.canonical_name())
            );
            assert!(entry.get("lanes").and_then(Json::as_u64).unwrap() > 0);
            assert!(entry.get("inter_block").and_then(Json::as_str).is_some());
            assert!(entry.get("intra_block").and_then(Json::as_str).is_some());
            // Each entry embeds the builtin's `tbstc.v1` document — a
            // client can POST it back as an inline `arch_spec`.
            let spec = entry.get("spec").expect("catalog entry carries a spec");
            let doc = tbstc::archspec::spec_to_value(model.spec()).to_string();
            assert_eq!(spec.to_string(), doc);
        }

        let cache_dir = running.handle().state().store.dir().to_path_buf();
        running.shutdown_and_join();
        let _ = std::fs::remove_dir_all(cache_dir);
    }

    #[test]
    fn malformed_job_specs_get_400() {
        let server = Server::bind(test_cfg("badspec")).unwrap();
        let running = server.spawn().unwrap();
        let addr = running.addr.to_string();

        for bad in ["{nope", r#"{"type":"simulate"}"#, r#"{"type":"warp"}"#] {
            let resp = crate::http::request(&addr, "POST", "/v1/jobs", Some(bad)).unwrap();
            assert_eq!(resp.status, 400, "{bad}");
            assert!(resp.body.contains("error"));
        }

        let cache_dir = running.handle().state().store.dir().to_path_buf();
        running.shutdown_and_join();
        let _ = std::fs::remove_dir_all(cache_dir);
    }

    #[test]
    fn keep_alive_pipelined_requests_share_one_connection() {
        use std::io::{Read as _, Write as _};
        let server = Server::bind(test_cfg("keepalive")).unwrap();
        let running = server.spawn().unwrap();
        let mut stream = std::net::TcpStream::connect(running.addr).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(5)))
            .unwrap();

        // Two pipelined requests in one segment, then a third on the
        // same (kept-alive) connection.
        stream
            .write_all(b"GET /healthz HTTP/1.1\r\n\r\nGET /healthz HTTP/1.1\r\n\r\n")
            .unwrap();
        let mut buf = Vec::new();
        let mut chunk = [0u8; 4096];
        while String::from_utf8_lossy(&buf).matches("ok\n").count() < 2 {
            let n = stream.read(&mut chunk).unwrap();
            assert!(
                n > 0,
                "server closed early: {}",
                String::from_utf8_lossy(&buf)
            );
            buf.extend_from_slice(&chunk[..n]);
        }
        let text = String::from_utf8_lossy(&buf);
        assert_eq!(text.matches("HTTP/1.1 200 OK").count(), 2, "{text}");
        assert_eq!(text.matches("Connection: keep-alive").count(), 2, "{text}");

        // Third request on the same socket proves the connection stayed
        // usable — including after a 400 (malformed spec) below.
        stream
            .write_all(b"POST /v1/jobs HTTP/1.1\r\nContent-Length: 5\r\n\r\n{nope")
            .unwrap();
        let mut resp = Vec::new();
        while String::from_utf8_lossy(&resp)
            .matches("HTTP/1.1 400")
            .count()
            < 1
        {
            let n = stream.read(&mut chunk).unwrap();
            assert!(n > 0, "server closed after bad spec");
            resp.extend_from_slice(&chunk[..n]);
        }
        // The 400 must NOT close the connection (application error, not
        // protocol error): a fourth request still works.
        stream.write_all(b"GET /healthz HTTP/1.1\r\n\r\n").unwrap();
        let mut fourth = Vec::new();
        while String::from_utf8_lossy(&fourth).matches("ok\n").count() < 1 {
            let n = stream.read(&mut chunk).unwrap();
            assert!(n > 0, "server closed after 400 response");
            fourth.extend_from_slice(&chunk[..n]);
        }

        let cache_dir = running.handle().state().store.dir().to_path_buf();
        running.shutdown_and_join();
        let _ = std::fs::remove_dir_all(cache_dir);
    }

    #[test]
    fn oversized_request_line_gets_431_and_close() {
        use std::io::{Read as _, Write as _};
        let server = Server::bind(test_cfg("toolong")).unwrap();
        let running = server.spawn().unwrap();
        let mut stream = std::net::TcpStream::connect(running.addr).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(5)))
            .unwrap();
        let long_path = "a".repeat(crate::conn::MAX_REQUEST_LINE_BYTES + 100);
        stream
            .write_all(format!("GET /{long_path} HTTP/1.1\r\n\r\n").as_bytes())
            .unwrap();
        let mut buf = Vec::new();
        let mut chunk = [0u8; 4096];
        loop {
            match stream.read(&mut chunk) {
                Ok(0) => break,
                Ok(n) => buf.extend_from_slice(&chunk[..n]),
                Err(_) => break,
            }
        }
        let text = String::from_utf8_lossy(&buf);
        assert!(text.contains("431"), "expected 431, got: {text}");
        assert!(text.contains("Connection: close"), "{text}");

        let cache_dir = running.handle().state().store.dir().to_path_buf();
        running.shutdown_and_join();
        let _ = std::fs::remove_dir_all(cache_dir);
    }
}
