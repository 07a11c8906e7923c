//! The non-blocking readiness loop: `poll(2)` shim, wakeup channel,
//! completion queue, and the connection slab.
//!
//! Architecture: one event-loop thread owns every socket. It polls the
//! listener, a waker pipe, and each live [`crate::conn::Conn`] for
//! readiness, then does single non-blocking `read`/`write` calls —
//! never a blocking syscall, never a `thread::sleep`. Job execution
//! happens on the [`crate::coalesce::Dispatcher`] worker threads; when
//! a job finishes, the worker pushes a [`Completion`] and tickles the
//! [`Waker`], which makes the poll call return so the response can be
//! routed back to its connection.
//!
//! The `poll(2)` binding follows the same pattern as
//! [`crate::signal`]: a bare `extern "C"` declaration against the
//! platform C library that `std` already links, so no external crate
//! is needed. This module is POSIX-only, like the rest of the serve
//! front end's readiness machinery.
//!
//! Tokens carry a slab generation counter so a completion for a
//! connection that died (and whose slot was reused) is dropped instead
//! of being delivered to the new occupant.

use std::collections::VecDeque;
use std::io::{self, ErrorKind, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::os::fd::AsRawFd;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, PoisonError};
use std::time::{Duration, Instant};

use crate::conn::{Conn, ConnEvent};
use crate::http::{Request, Response};

/// Readable readiness (POLLIN).
pub const POLLIN: i16 = 0x001;
/// Writable readiness (POLLOUT).
pub const POLLOUT: i16 = 0x004;
/// Error condition (POLLERR, revents only).
pub const POLLERR: i16 = 0x008;
/// Peer hangup (POLLHUP, revents only).
pub const POLLHUP: i16 = 0x010;

/// One entry for `poll(2)`: fd, requested events, kernel-filled
/// revents. Layout must match the C `struct pollfd`.
#[repr(C)]
#[derive(Clone, Copy, Debug, Default)]
pub struct PollFd {
    /// File descriptor to watch.
    pub fd: i32,
    /// Requested readiness mask ([`POLLIN`] | [`POLLOUT`]).
    pub events: i16,
    /// Kernel-reported readiness, valid after [`poll_fds`] returns.
    pub revents: i16,
}

impl PollFd {
    /// Builds an entry watching `fd` for `events`.
    pub fn new(fd: i32, events: i16) -> Self {
        Self {
            fd,
            events,
            revents: 0,
        }
    }
}

#[cfg(unix)]
#[allow(unsafe_code, reason = "poll(2) shim: the event loop's readiness wait")]
mod sys {
    //! Raw binding to the C library's `poll`, which `std` links anyway.
    use super::PollFd;

    extern "C" {
        fn poll(fds: *mut PollFd, nfds: u64, timeout: i32) -> i32;
    }

    /// Thin safe wrapper; EINTR is reported as zero ready fds so
    /// callers simply re-poll.
    pub fn poll_fds(fds: &mut [PollFd], timeout_ms: i32) -> std::io::Result<usize> {
        // SAFETY: `fds` is an exclusively borrowed slice of repr(C)
        // pollfd records valid for the duration of the call; the kernel
        // only writes `revents` within the `fds.len()` bound we pass.
        let rc = unsafe { poll(fds.as_mut_ptr(), fds.len() as u64, timeout_ms) };
        if rc < 0 {
            let err = std::io::Error::last_os_error();
            if err.kind() == std::io::ErrorKind::Interrupted {
                return Ok(0);
            }
            return Err(err);
        }
        Ok(rc as usize)
    }
}

#[cfg(unix)]
pub use sys::poll_fds;

/// Wakes the event loop from worker threads by writing one byte to a
/// loopback socket pair registered with the poller.
#[derive(Debug)]
pub struct Waker {
    tx: TcpStream,
}

impl Waker {
    /// Makes the blocked `poll` call return. Best-effort: a full pipe
    /// means a wakeup is already pending, which is all we need.
    pub fn wake(&self) {
        let _ = (&self.tx).write(&[1u8]);
    }
}

/// Creates the waker and the receive end the event loop registers and
/// drains. Built on a loopback TCP pair so no platform pipe API is
/// needed.
///
/// # Errors
///
/// Propagates socket setup failures.
pub fn waker_pair() -> io::Result<(Waker, TcpStream)> {
    let listener = TcpListener::bind("127.0.0.1:0")?;
    let tx = TcpStream::connect(listener.local_addr()?)?;
    let (rx, _) = listener.accept()?;
    tx.set_nonblocking(true)?;
    rx.set_nonblocking(true)?;
    let _ = tx.set_nodelay(true);
    Ok((Waker { tx }, rx))
}

/// Routes a finished job's response back to the connection that asked.
#[derive(Debug)]
pub struct Completion {
    /// Which connection slot + pipeline position to fill.
    pub token: Token,
    /// The response to serialize into that slot.
    pub response: Response,
}

/// Thread-safe queue of finished responses, paired with the waker so
/// pushes interrupt the poll wait.
#[derive(Debug)]
pub struct Completions {
    q: Mutex<VecDeque<Completion>>,
    waker: Waker,
}

impl Completions {
    /// Creates the queue around the loop's waker.
    pub fn new(waker: Waker) -> Self {
        Self {
            q: Mutex::new(VecDeque::with_capacity(64)),
            waker,
        }
    }

    /// Enqueues one completion and wakes the loop.
    pub fn push(&self, token: Token, response: Response) {
        {
            let mut q = self.q.lock().unwrap_or_else(PoisonError::into_inner);
            q.push_back(Completion { token, response });
        }
        self.waker.wake();
    }

    /// Enqueues a batch under one lock acquisition and wakes once.
    pub fn push_all(&self, batch: Vec<Completion>) {
        if batch.is_empty() {
            return;
        }
        {
            let mut q = self.q.lock().unwrap_or_else(PoisonError::into_inner);
            q.extend(batch);
        }
        self.waker.wake();
    }

    /// Takes everything queued (event-loop side).
    pub fn drain(&self) -> VecDeque<Completion> {
        let mut q = self.q.lock().unwrap_or_else(PoisonError::into_inner);
        std::mem::take(&mut *q)
    }
}

/// Opaque handle tying an in-flight request to (connection slot,
/// slab generation, pipeline sequence).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Token {
    idx: usize,
    generation: u64,
    seq: u64,
}

impl Token {
    /// Test-only constructor for dispatcher tests that never deliver.
    #[cfg(test)]
    pub(crate) fn test_token(idx: usize, generation: u64, seq: u64) -> Self {
        Self {
            idx,
            generation,
            seq,
        }
    }
}

/// What the router is handed per parsed event.
#[derive(Debug)]
pub enum RouteEvent {
    /// A complete well-formed request.
    Request(Request),
    /// A protocol violation (the connection closes after the reply).
    Protocol {
        /// Suggested response status (400/413/431).
        status: u16,
        /// Reason for the error body.
        message: String,
    },
}

/// The router's verdict for an event.
#[derive(Debug)]
pub enum Action {
    /// Respond immediately (cache hit, metrics, errors, ...).
    Reply(Response),
    /// A worker owns the request; a [`Completion`] will arrive later.
    Pending,
}

/// Tunables for [`run_loop`].
#[derive(Clone, Copy, Debug)]
pub struct LoopOptions {
    /// Hard cap on simultaneously open connections; the listener is
    /// simply not polled while at the cap.
    pub max_connections: usize,
    /// Idle connections (no pending work) past this age are closed.
    pub idle_timeout: Duration,
    /// After shutdown is requested, in-flight jobs get this long to
    /// complete and flush before the loop exits.
    pub drain_grace: Duration,
    /// Poll timeout — the loop's housekeeping tick (shutdown checks,
    /// idle sweeps). This is a readiness wait, not a sleep: any I/O or
    /// completion interrupts it immediately.
    pub tick: Duration,
}

impl Default for LoopOptions {
    fn default() -> Self {
        Self {
            max_connections: 8192,
            idle_timeout: Duration::from_secs(60),
            drain_grace: Duration::from_secs(10),
            tick: Duration::from_millis(200),
        }
    }
}

/// A slab slot: the connection plus the generation stamped into tokens.
#[derive(Debug)]
struct ConnSlot {
    conn: Conn,
    generation: u64,
}

/// What each poll entry refers back to.
#[derive(Clone, Copy, Debug)]
enum PollTarget {
    Listener,
    Waker,
    Conn(usize),
}

/// Runs the readiness loop until `shutting_down` turns true and the
/// drain grace expires (or all connections finish earlier).
///
/// `connections` is kept equal to the number of live sockets for the
/// metrics gauge. `route` is called on the loop thread and must not
/// block: it either replies from cache/static state or hands the job
/// to a dispatcher and returns [`Action::Pending`].
#[cfg(unix)]
pub fn run_loop(
    listener: &TcpListener,
    waker_rx: &TcpStream,
    completions: &Completions,
    shutting_down: &dyn Fn() -> bool,
    route: &mut dyn FnMut(RouteEvent, Token) -> Action,
    connections: &AtomicUsize,
    opts: &LoopOptions,
) {
    let mut slots: Vec<Option<ConnSlot>> = Vec::with_capacity(64);
    let mut free: Vec<usize> = Vec::with_capacity(64);
    let mut generation: u64 = 0;
    let mut fds: Vec<PollFd> = Vec::with_capacity(64);
    let mut targets: Vec<PollTarget> = Vec::with_capacity(64);
    let mut drain_deadline: Option<Instant> = None;
    let tick_ms = i32::try_from(opts.tick.as_millis()).unwrap_or(200).max(1);

    loop {
        let shutting = shutting_down();
        let live = slots.iter().filter(|s| s.is_some()).count();
        connections.store(live, Ordering::Relaxed);
        if shutting {
            let deadline = *drain_deadline.get_or_insert_with(|| Instant::now() + opts.drain_grace);
            let busy = slots
                .iter()
                .flatten()
                .any(|s| s.conn.has_pending() || s.conn.wants_write());
            if !busy || Instant::now() >= deadline {
                break;
            }
        }

        fds.clear();
        targets.clear();
        if !shutting && live < opts.max_connections {
            fds.push(PollFd::new(listener.as_raw_fd(), POLLIN));
            targets.push(PollTarget::Listener);
        }
        fds.push(PollFd::new(waker_rx.as_raw_fd(), POLLIN));
        targets.push(PollTarget::Waker);
        for (idx, slot) in slots.iter().enumerate() {
            let Some(slot) = slot else { continue };
            let mut events: i16 = 0;
            if !shutting && slot.conn.wants_read() {
                events |= POLLIN;
            }
            if slot.conn.wants_write() {
                events |= POLLOUT;
            }
            if events != 0 {
                fds.push(PollFd::new(slot.conn.stream().as_raw_fd(), events));
                targets.push(PollTarget::Conn(idx));
            }
        }

        if poll_fds(&mut fds, tick_ms).is_err() {
            // Unrecoverable poll failure: nothing sane to do but stop.
            break;
        }

        for (entry, target) in fds.iter().zip(targets.iter()) {
            if entry.revents == 0 {
                continue;
            }
            match *target {
                PollTarget::Listener => {
                    accept_ready(
                        listener,
                        &mut slots,
                        &mut free,
                        &mut generation,
                        opts.max_connections,
                    );
                }
                PollTarget::Waker => {
                    drain_waker(waker_rx);
                }
                PollTarget::Conn(idx) => {
                    let readable = entry.revents & (POLLIN | POLLERR | POLLHUP) != 0;
                    let writable = entry.revents & POLLOUT != 0;
                    service_conn(&mut slots, idx, readable, writable, route);
                }
            }
        }

        for done in completions.drain() {
            deliver(&mut slots, done);
        }

        reap(&mut slots, &mut free, shutting, opts.idle_timeout);
    }

    connections.store(0, Ordering::Relaxed);
}

/// Accepts until `WouldBlock`, installing each stream into the slab.
/// No sleeps: a transient accept error just defers to the next poll.
fn accept_ready(
    listener: &TcpListener,
    slots: &mut Vec<Option<ConnSlot>>,
    free: &mut Vec<usize>,
    generation: &mut u64,
    max_connections: usize,
) {
    let mut live = slots.iter().filter(|s| s.is_some()).count();
    loop {
        if live >= max_connections {
            return;
        }
        match listener.accept() {
            Ok((stream, _)) => {
                let Ok(conn) = Conn::new(stream) else {
                    continue;
                };
                *generation += 1;
                let slot = ConnSlot {
                    conn,
                    generation: *generation,
                };
                if let Some(idx) = free.pop() {
                    if let Some(entry) = slots.get_mut(idx) {
                        *entry = Some(slot);
                    }
                } else {
                    slots.push(Some(slot));
                }
                live += 1;
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock => return,
            Err(_) => return,
        }
    }
}

/// Drains wakeup bytes so the pipe never fills.
fn drain_waker(waker_rx: &TcpStream) {
    let mut sink = [0u8; 256];
    loop {
        match (&*waker_rx).read(&mut sink) {
            Ok(0) => return,
            Ok(_) => continue,
            Err(_) => return,
        }
    }
}

/// Reads/parses/routes a ready connection, then flushes.
fn service_conn(
    slots: &mut [Option<ConnSlot>],
    idx: usize,
    readable: bool,
    writable: bool,
    route: &mut dyn FnMut(RouteEvent, Token) -> Action,
) {
    let Some(slot) = slots.get_mut(idx).and_then(Option::as_mut) else {
        return;
    };
    if readable {
        for event in slot.conn.read_ready() {
            let (seq, route_event) = match event {
                ConnEvent::Request { seq, request } => (seq, RouteEvent::Request(request)),
                ConnEvent::Protocol {
                    seq,
                    status,
                    message,
                } => (seq, RouteEvent::Protocol { status, message }),
            };
            let token = Token {
                idx,
                generation: slot.generation,
                seq,
            };
            match route(route_event, token) {
                Action::Reply(response) => slot.conn.complete(seq, &response),
                Action::Pending => {}
            }
        }
    }
    if writable || slot.conn.wants_write() {
        slot.conn.flush();
    }
}

/// Fills a completion into its connection, unless the slot was reused
/// (generation mismatch) or already closed.
fn deliver(slots: &mut [Option<ConnSlot>], done: Completion) {
    let Some(slot) = slots.get_mut(done.token.idx).and_then(Option::as_mut) else {
        return;
    };
    if slot.generation != done.token.generation {
        return;
    }
    slot.conn.complete(done.token.seq, &done.response);
    slot.conn.flush();
}

/// Closes finished and idle connections, returning slots to the free
/// list.
fn reap(
    slots: &mut [Option<ConnSlot>],
    free: &mut Vec<usize>,
    shutting: bool,
    idle_timeout: Duration,
) {
    let now = Instant::now();
    for (idx, entry) in slots.iter_mut().enumerate() {
        let Some(slot) = entry else { continue };
        let idle = !slot.conn.has_pending()
            && !slot.conn.wants_write()
            && now.duration_since(slot.conn.last_activity()) > idle_timeout;
        let drained = shutting && !slot.conn.has_pending() && !slot.conn.wants_write();
        if slot.conn.is_done() || idle || drained {
            *entry = None;
            free.push(idx);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn waker_interrupts_poll_wait() {
        let (waker, rx) = waker_pair().expect("waker pair");
        let mut fds = [PollFd::new(rx.as_raw_fd(), POLLIN)];
        let started = Instant::now();
        waker.wake();
        let n = poll_fds(&mut fds, 5_000).expect("poll");
        assert_eq!(n, 1, "waker byte must make poll return");
        assert!(
            started.elapsed() < Duration::from_secs(2),
            "poll should return promptly"
        );
        drain_waker(&rx);
        // After draining, a short poll times out with nothing ready.
        let mut fds = [PollFd::new(rx.as_raw_fd(), POLLIN)];
        let n = poll_fds(&mut fds, 10).expect("poll");
        assert_eq!(n, 0);
    }

    #[test]
    fn completions_queue_roundtrip_preserves_order() {
        let (waker, _rx) = waker_pair().expect("waker pair");
        let completions = Completions::new(waker);
        let t1 = Token {
            idx: 0,
            generation: 1,
            seq: 0,
        };
        let t2 = Token {
            idx: 3,
            generation: 9,
            seq: 4,
        };
        completions.push(t1, Response::new(200).text("a"));
        completions.push(t2, Response::new(500).text("b"));
        let drained = completions.drain();
        let tokens: Vec<Token> = drained.iter().map(|c| c.token).collect();
        assert_eq!(tokens, vec![t1, t2]);
        assert!(completions.drain().is_empty());
    }
}
