//! The durable job queue: the in-process half of the durable-job
//! controller.
//!
//! `POST /v1/jobs` enqueues long jobs here (after persisting a `queued`
//! [`tbstc::jobstate::JobStatus`] in the store); a controller thread
//! drains the queue one job at a time, executing each sweep in
//! checkpointed chunks. The queue itself is deliberately dumb — ordered
//! keys plus a cancel set — because all durable state (status documents,
//! checkpoints, cross-process claims) lives in the store; this type only
//! coordinates threads inside one process.
//!
//! Cancellation has two faces: [`DurableQueue::request_cancel`] marks a
//! key in memory (checked between chunks by the executor in this
//! process), while the store-level cancel marker file reaches executors
//! in *other* processes sharing the store.

use std::collections::{BTreeSet, VecDeque};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Condvar, Mutex, PoisonError};
use std::time::Duration;

/// FIFO of durable job keys plus the in-memory cancel set (see module
/// docs).
#[derive(Debug, Default)]
pub struct DurableQueue {
    queue: Mutex<VecDeque<String>>,
    wake: Condvar,
    cancels: Mutex<BTreeSet<String>>,
    closed: AtomicBool,
}

impl DurableQueue {
    /// An empty, open queue.
    pub fn new() -> DurableQueue {
        DurableQueue::default()
    }

    /// Enqueues `key` unless it is already waiting. Returns whether the
    /// key was newly enqueued. Keys submitted after [`DurableQueue::close`]
    /// are dropped (the controller is draining).
    pub fn submit(&self, key: &str) -> bool {
        if self.closed.load(Ordering::SeqCst) {
            return false;
        }
        let mut q = self.queue.lock().unwrap_or_else(PoisonError::into_inner);
        if q.iter().any(|k| k == key) {
            return false;
        }
        q.push_back(key.to_string());
        drop(q);
        self.wake.notify_all();
        true
    }

    /// Blocks until a key is available, the queue closes (`None`), or
    /// `should_stop` returns true (`None`). `should_stop` is polled
    /// about every 100 ms, so shutdown never waits on a quiet queue.
    pub fn next(&self, should_stop: &dyn Fn() -> bool) -> Option<String> {
        let mut q = self.queue.lock().unwrap_or_else(PoisonError::into_inner);
        loop {
            if let Some(key) = q.pop_front() {
                return Some(key);
            }
            if self.closed.load(Ordering::SeqCst) || should_stop() {
                return None;
            }
            q = self
                .wake
                .wait_timeout(q, Duration::from_millis(100))
                .unwrap_or_else(PoisonError::into_inner)
                .0;
        }
    }

    /// Removes a still-queued key (a cancel that beat the controller to
    /// it). Returns whether the key was waiting.
    pub fn remove(&self, key: &str) -> bool {
        let mut q = self.queue.lock().unwrap_or_else(PoisonError::into_inner);
        let before = q.len();
        q.retain(|k| k != key);
        q.len() != before
    }

    /// Marks `key` cancelled in this process; the executor checks
    /// between chunks via [`DurableQueue::cancel_requested`].
    pub fn request_cancel(&self, key: &str) {
        self.cancels
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .insert(key.to_string());
    }

    /// Whether an in-memory cancel is pending for `key`.
    pub fn cancel_requested(&self, key: &str) -> bool {
        self.cancels
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .contains(key)
    }

    /// Clears the in-memory cancel mark (after honoring it, or when the
    /// job is re-submitted).
    pub fn clear_cancel(&self, key: &str) {
        self.cancels
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .remove(key);
    }

    /// Closes the queue: `submit` becomes a no-op and blocked `next`
    /// callers drain the backlog, then return `None`.
    pub fn close(&self) {
        self.closed.store(true, Ordering::SeqCst);
        self.wake.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    const NEVER: &dyn Fn() -> bool = &|| false;

    #[test]
    fn submit_dedupes_and_preserves_fifo_order() {
        let q = DurableQueue::new();
        assert!(q.submit("a"));
        assert!(q.submit("b"));
        assert!(!q.submit("a"), "duplicate key must not enqueue twice");
        assert_eq!(q.next(NEVER).as_deref(), Some("a"));
        assert_eq!(q.next(NEVER).as_deref(), Some("b"));
        assert_eq!(q.next(&|| true), None, "exactly two keys were queued");
    }

    #[test]
    fn remove_pulls_a_waiting_key() {
        let q = DurableQueue::new();
        q.submit("a");
        q.submit("b");
        assert!(q.remove("a"));
        assert!(!q.remove("a"), "already removed");
        assert_eq!(q.next(NEVER).as_deref(), Some("b"));
    }

    #[test]
    fn close_wakes_blocked_consumer_and_drops_new_submissions() {
        let q = Arc::new(DurableQueue::new());
        let consumer = {
            let q = Arc::clone(&q);
            std::thread::spawn(move || q.next(NEVER))
        };
        // Give the consumer a moment to block, then close.
        std::thread::sleep(Duration::from_millis(20));
        q.close();
        assert_eq!(consumer.join().unwrap(), None);
        assert!(!q.submit("late"), "closed queue drops submissions");
        assert_eq!(q.next(NEVER), None, "the late key never queued");
    }

    #[test]
    fn backlog_drains_after_close() {
        let q = DurableQueue::new();
        q.submit("a");
        q.close();
        assert_eq!(q.next(NEVER).as_deref(), Some("a"));
        assert_eq!(q.next(NEVER), None);
    }

    #[test]
    fn should_stop_interrupts_an_idle_wait() {
        let q = DurableQueue::new();
        assert_eq!(q.next(&|| true), None);
    }

    #[test]
    fn cancel_marks_roundtrip() {
        let q = DurableQueue::new();
        assert!(!q.cancel_requested("k"));
        q.request_cancel("k");
        assert!(q.cancel_requested("k"));
        q.clear_cancel("k");
        assert!(!q.cancel_requested("k"));
    }
}
