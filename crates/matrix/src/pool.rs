//! The scoped thread pool shared by the GEMM kernels and the experiment
//! runner.
//!
//! Workers are plain `std::thread::scope` threads pulling job indices
//! from a shared atomic counter (work-stealing at index granularity), so
//! the pool needs no channels, no job queue and no dependencies. Results
//! land in per-job slots, which makes the output order — and therefore
//! every downstream aggregate — independent of scheduling.
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

/// Applies `f` to every item on up to `workers` threads, returning the
/// results **in input order** together with each job's wall time.
///
/// `f` receives `(index, &item)`. With one worker (or one item) the map
/// runs inline on the caller's thread — no spawn overhead, and a handy
/// reference implementation for the determinism guarantee: because each
/// result depends only on its item, the parallel output is bit-identical
/// to this serial path.
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
    std::thread::scope(|s| {
        for _ in 0..workers.min(items.len()) {
            s.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                let Some(item) = items.get(i) else { break };
                let out = timed(i, item);
                // Poison here only means another worker panicked while
                // writing a *different* slot; this slot's write is whole.
                *slots[i].lock().unwrap_or_else(PoisonError::into_inner) = Some(out);
            });
        }
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
/// threads.
///
/// Chunks are disjoint `&mut` slices, so each invocation exclusively owns
/// its output range: the result is **bit-identical** to the serial loop
/// regardless of scheduling. Chunk indices are dealt round-robin before any
/// thread starts, keeping the primitive allocation-light and lock-free.
///
/// With one worker (or a single chunk) the loop runs inline on the caller's
/// thread.
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
    std::thread::scope(|s| {
        for bucket in buckets {
            let f = &f;
            s.spawn(move || {
                for (ci, chunk) in bucket {
                    f(ci, chunk);
                }
            });
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

    #[test]
    fn chunks_empty_input_is_fine() {
        let mut data: Vec<u8> = Vec::new();
        parallel_chunks_mut(&mut data, 0, 4, |_, _| panic!("no chunk to visit"));
    }
}
