//! tbstc-serve — a std-only HTTP job service for TB-STC simulations.
//!
//! The server accepts simulation and sweep jobs as JSON over HTTP/1.1
//! (plain `std::net`, no external dependencies), executes them on the
//! existing [`tbstc::runner::SweepRunner`] engine, and returns
//! deterministic, canonically-serialized results. The front end is a
//! non-blocking readiness loop ([`event`]) over `poll(2)` — one thread
//! owns every socket, with per-connection incremental HTTP/1.1 parsing,
//! keep-alive, and pipelining ([`conn`]); there is no `thread::sleep`
//! anywhere on the hot path (enforced by the `blocking-in-event-loop`
//! lint rule). Properties the rest of the workspace leans on:
//!
//! * **Admission control and coalescing** — one structure, the
//!   dispatcher ([`coalesce::Dispatcher`]), holds every queued and
//!   executing job. Identical specs share one execution (single-flight
//!   keyed by the content address); past `queue_capacity` distinct keys
//!   a new key gets `429 Too Many Requests` + `Retry-After` instead of
//!   unbounded memory growth; in-flight jobs are never dropped.
//! * **Persistent, content-addressed results** — the response body for a
//!   job is stored under a hash of its canonicalized spec
//!   ([`store::ResultStore`], sharded by key prefix on disk, every
//!   whole-file write atomic and synced), with a bounded in-memory hot
//!   tier above it ([`lru::ShardedLru`], one lock);
//!   resubmitting the identical job — even across a server restart —
//!   returns byte-identical bytes with `X-Cache: hit`. The engine's
//!   memo cache persists through the same store (`memo.jsonl`).
//! * **Durable jobs** — long sweeps run in checkpointed chunks
//!   ([`jobs::DurableQueue`]); their status documents and cancel
//!   markers live only in the store, so every process sharing it sees
//!   the same state.
//! * **Observability** — `GET /metrics` renders Prometheus text
//!   ([`metrics::Metrics`]): request/job counters, cache hits and misses
//!   by tier (`mem`/`disk`/`memo`), coalescing counters, queue depth,
//!   open connections, worker utilization, and a latency histogram.
//!
//! Graceful shutdown (SIGTERM / ctrl-c, [`signal`]) closes admission,
//! drains in-flight jobs, and flushes the memo cache before exit.
//!
//! The readiness machinery is POSIX-only (`poll(2)` via a bare
//! `extern "C"` declaration, no external crate — same pattern as
//! [`signal`]).
//!
//! See `DESIGN.md` §8 for the job-spec schema, cache-key derivation, and
//! backpressure policy, §12 for the event loop, coalescing, and cache
//! tiers, and §14 for durable jobs; the `tbstc-cli` crate wires this up as the
//! `serve`, `submit`, and `loadgen` subcommands.

#![warn(missing_docs)]

pub mod coalesce;
pub mod conn;
pub mod event;
pub mod http;
pub mod jobs;
pub mod lru;
pub mod metrics;
pub mod server;
pub mod signal;
pub mod store;

pub use coalesce::{Dispatcher, Enqueue, Executor, QueuedJob};
pub use event::{poll_fds, PollFd, Waker, POLLERR, POLLHUP, POLLIN, POLLOUT};
pub use jobs::DurableQueue;
pub use lru::ShardedLru;
pub use metrics::{Gauges, Metrics};
pub use server::{Handle, Running, ServeConfig, Server};
pub use store::{MemoEntry, ResultStore};
