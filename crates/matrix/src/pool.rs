//! The scoped thread pool shared by the GEMM kernels and the experiment
//! runner.
//!
//! Workers pull job indices from a shared atomic counter (work-stealing
//! at index granularity), so the pool needs no channels, no job queue and
//! no dependencies. `W` workers are the calling thread plus `W − 1`
//! `std::thread::scope` threads: the caller would otherwise only wait,
//! and each extra thread costs a stack and a malloc arena. Results land
//! in per-job slots, which makes the output order — and therefore every
//! downstream aggregate — independent of scheduling.
//!
//! The pool lives in `tbstc-matrix` (the bottom of the crate graph) so the
//! cache-blocked kernels in [`crate::gemm`] can split their output over row
//! panels; `tbstc-runner` re-exports everything here unchanged.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, PoisonError};
use std::time::{Duration, Instant};

/// Environment variable overriding the worker count (like `make -jN`).
pub const JOBS_ENV: &str = "TBSTC_JOBS";

/// The worker count the runner uses by default: `TBSTC_JOBS` when set to
/// a positive integer, otherwise [`std::thread::available_parallelism`].
pub fn available_workers() -> usize {
    if let Ok(v) = std::env::var(JOBS_ENV) {
        if let Ok(n) = v.trim().parse::<usize>() {
            if n >= 1 {
                return n;
            }
        }
    }
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Applies `f` to every item on up to `workers` threads, the caller's
/// among them, returning the results **in input order** together with
/// each job's wall time.
///
/// `f` receives `(index, &item)`. With one worker (or one item) the map
/// runs inline on the caller's thread — no spawn at all, and a handy
/// reference implementation for the determinism guarantee: because each
/// result depends only on its item, the parallel output is bit-identical
/// to this serial path. A panic in any job, the caller's included,
/// propagates once every spawned worker has finished.
#[expect(
    clippy::expect_used,
    reason = "scope() already propagated any worker panic; an empty slot is a logic bug"
)]
pub fn parallel_map<T, R, F>(items: &[T], workers: usize, f: F) -> Vec<(R, Duration)>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    let timed = |i: usize, item: &T| {
        let start = Instant::now();
        let r = f(i, item);
        (r, start.elapsed())
    };
    if workers <= 1 || items.len() <= 1 {
        return items.iter().enumerate().map(|(i, t)| timed(i, t)).collect();
    }

    let slots: Vec<Mutex<Option<(R, Duration)>>> = items.iter().map(|_| Mutex::new(None)).collect();
    let next = AtomicUsize::new(0);
    let work = || loop {
        let i = next.fetch_add(1, Ordering::Relaxed);
        let Some(item) = items.get(i) else { break };
        let out = timed(i, item);
        // Poison here only means another worker panicked while writing a
        // *different* slot; this slot's write is whole.
        *slots[i].lock().unwrap_or_else(PoisonError::into_inner) = Some(out);
    };
    std::thread::scope(|s| {
        for _ in 1..workers.min(items.len()) {
            s.spawn(work);
        }
        work();
    });
    slots
        .into_iter()
        .map(|m| {
            m.into_inner()
                .unwrap_or_else(PoisonError::into_inner)
                .expect("worker exited before filling its slot")
        })
        .collect()
}

/// Splits `data` into consecutive chunks of `chunk_len` elements (the last
/// may be shorter) and runs `f(chunk_index, chunk)` on up to `workers`
/// threads, the caller's among them.
///
/// Chunks are disjoint `&mut` slices, so each invocation exclusively owns
/// its output range: the result is **bit-identical** to the serial loop
/// regardless of scheduling. Chunk indices are dealt round-robin before any
/// thread starts, keeping the primitive allocation-light and lock-free.
///
/// With one worker (or a single chunk) the loop runs inline on the caller's
/// thread. A panic in any chunk, the caller's included, propagates once
/// every spawned worker has finished.
///
/// # Panics
///
/// Panics if `chunk_len == 0` and `data` is non-empty.
pub fn parallel_chunks_mut<T, F>(data: &mut [T], chunk_len: usize, workers: usize, f: F)
where
    T: Send,
    F: Fn(usize, &mut [T]) + Sync,
{
    if data.is_empty() {
        return;
    }
    assert!(chunk_len > 0, "chunk_len must be positive");
    let nchunks = data.len().div_ceil(chunk_len);
    if workers <= 1 || nchunks <= 1 {
        for (ci, chunk) in data.chunks_mut(chunk_len).enumerate() {
            f(ci, chunk);
        }
        return;
    }

    let w = workers.min(nchunks);
    let mut buckets: Vec<Vec<(usize, &mut [T])>> = (0..w).map(|_| Vec::new()).collect();
    for (ci, chunk) in data.chunks_mut(chunk_len).enumerate() {
        buckets[ci % w].push((ci, chunk));
    }
    let run = |bucket: Vec<(usize, &mut [T])>| {
        for (ci, chunk) in bucket {
            f(ci, chunk);
        }
    };
    std::thread::scope(|s| {
        let mut buckets = buckets.into_iter();
        let own = buckets.next();
        for bucket in buckets {
            s.spawn(move || run(bucket));
        }
        if let Some(bucket) = own {
            run(bucket);
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preserves_input_order() {
        let items: Vec<usize> = (0..64).collect();
        let out = parallel_map(&items, 8, |_, &x| x * 2);
        let vals: Vec<usize> = out.iter().map(|(r, _)| *r).collect();
        assert_eq!(vals, (0..64).map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn serial_and_parallel_agree() {
        let items: Vec<u64> = (0..33).collect();
        let f = |i: usize, x: &u64| x.wrapping_mul(0x9e3779b97f4a7c15) ^ i as u64;
        let serial: Vec<u64> = parallel_map(&items, 1, f)
            .into_iter()
            .map(|(r, _)| r)
            .collect();
        let parallel: Vec<u64> = parallel_map(&items, 7, f)
            .into_iter()
            .map(|(r, _)| r)
            .collect();
        assert_eq!(serial, parallel);
    }

    #[test]
    fn index_is_passed_through() {
        let items = vec!["a", "b", "c"];
        let out = parallel_map(&items, 2, |i, _| i);
        assert_eq!(
            out.iter().map(|(r, _)| *r).collect::<Vec<_>>(),
            vec![0, 1, 2]
        );
    }

    #[test]
    fn empty_input_is_fine() {
        let out = parallel_map::<u32, u32, _>(&[], 4, |_, &x| x);
        assert!(out.is_empty());
    }

    #[test]
    fn worker_count_floor_is_one() {
        assert!(available_workers() >= 1);
    }

    #[test]
    fn chunks_cover_everything_once() {
        for workers in [1, 3, 8] {
            let mut data = vec![0u32; 103];
            parallel_chunks_mut(&mut data, 10, workers, |ci, chunk| {
                for (off, x) in chunk.iter_mut().enumerate() {
                    *x = (ci * 10 + off) as u32 + 1;
                }
            });
            let expect: Vec<u32> = (1..=103).collect();
            assert_eq!(data, expect, "workers={workers}");
        }
    }

    #[test]
    fn chunks_parallel_matches_serial() {
        let fill = |ci: usize, chunk: &mut [f32]| {
            for (off, x) in chunk.iter_mut().enumerate() {
                *x = (ci as f32).mul_add(1.5, off as f32 * 0.25);
            }
        };
        let mut serial = vec![0.0f32; 77];
        parallel_chunks_mut(&mut serial, 8, 1, fill);
        let mut parallel = vec![0.0f32; 77];
        parallel_chunks_mut(&mut parallel, 8, 5, fill);
        assert_eq!(serial, parallel);
    }

    use std::sync::atomic::AtomicBool;
    use std::sync::Barrier;
    use std::thread::{self, ThreadId};

    /// `ids` holds `workers` distinct threads, the caller among them.
    fn assert_caller_and_distinct(ids: &[ThreadId], workers: usize) {
        let mut distinct: Vec<ThreadId> = Vec::new();
        for id in ids {
            if !distinct.contains(id) {
                distinct.push(*id);
            }
        }
        assert_eq!(distinct.len(), workers, "{ids:?}");
        assert!(ids.contains(&thread::current().id()), "{ids:?}");
    }

    #[test]
    fn caller_is_one_of_w_distinct_workers() {
        for workers in [2, 3, 5] {
            // Every item waits for all the others, so each needs a thread
            // of its own: fewer than `workers` threads would deadlock.
            let barrier = Barrier::new(workers);
            let items: Vec<usize> = (0..workers).collect();
            let ids: Vec<ThreadId> = parallel_map(&items, workers, |_, _| {
                barrier.wait();
                thread::current().id()
            })
            .into_iter()
            .map(|(id, _)| id)
            .collect();
            assert_caller_and_distinct(&ids, workers);

            let barrier = Barrier::new(workers);
            let mut ids = vec![None; workers];
            parallel_chunks_mut(&mut ids, 1, workers, |_, chunk| {
                barrier.wait();
                chunk[0] = Some(thread::current().id());
            });
            let ids: Vec<ThreadId> = ids.into_iter().flatten().collect();
            assert_eq!(ids.len(), workers);
            assert_caller_and_distinct(&ids, workers);
        }
    }

    /// Runs `pool` over two jobs where the caller's job panics and the
    /// other finishes only after that panic, and checks the panic reaches
    /// the caller after the other job has finished.
    fn caller_panic_propagates_after_workers(pool: impl FnOnce(&(dyn Fn() + Sync))) {
        let caller = thread::current().id();
        let barrier = Barrier::new(2);
        let panicked = AtomicBool::new(false);
        let off_caller = AtomicUsize::new(0);
        let finished = AtomicBool::new(false);
        let job = || {
            barrier.wait();
            if thread::current().id() == caller {
                panicked.store(true, Ordering::SeqCst);
                panic!("the caller's own job panics");
            }
            off_caller.fetch_add(1, Ordering::SeqCst);
            while !panicked.load(Ordering::SeqCst) {
                if off_caller.load(Ordering::SeqCst) == 2 {
                    return; // neither job runs on the caller
                }
                thread::yield_now();
            }
            finished.store(true, Ordering::SeqCst);
        };
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| pool(&job)));
        assert!(outcome.is_err(), "the caller's panic propagates");
        assert!(
            finished.load(Ordering::SeqCst),
            "after the spawned worker finished"
        );
    }

    #[test]
    fn a_panic_in_the_callers_job_propagates_after_the_workers_finish() {
        caller_panic_propagates_after_workers(|job| {
            parallel_map(&[0, 1], 2, |_, _| job());
        });
        caller_panic_propagates_after_workers(|job| {
            parallel_chunks_mut(&mut [0, 1], 1, 2, |_, _| job());
        });
    }

    #[test]
    fn chunks_empty_input_is_fine() {
        let mut data: Vec<u8> = Vec::new();
        parallel_chunks_mut(&mut data, 0, 4, |_, _| panic!("no chunk to visit"));
    }
}
