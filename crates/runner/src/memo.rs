//! Keyed result cache shared across runner invocations.

#![expect(
    clippy::disallowed_types,
    reason = "the memo is a lookup table, never iterated for output: `entries()` callers sort before serializing"
)]

use std::collections::HashMap;
use std::hash::Hash;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};

/// A thread-safe memo table: every key computes once, repeats are served
/// from the cache. Hit/miss counters make cache behaviour observable in
/// sweep reports.
#[derive(Debug, Default)]
pub struct Memo<K, R> {
    map: Mutex<HashMap<K, R>>,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl<K: Eq + Hash + Clone, R: Clone> Memo<K, R> {
    /// Locks the table, recovering from poison: entries are inserted
    /// whole under the lock, so a panicking holder can at worst lose its
    /// own pending insert — stale-but-consistent is exactly what a cache
    /// is allowed to be.
    fn map(&self) -> MutexGuard<'_, HashMap<K, R>> {
        self.map.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// An empty cache.
    pub fn new() -> Self {
        Memo {
            map: Mutex::new(HashMap::new()),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }

    /// Looks `key` up, counting a hit or miss.
    pub fn get(&self, key: &K) -> Option<R> {
        let found = self.map().get(key).cloned();
        let counter = if found.is_some() {
            &self.hits
        } else {
            &self.misses
        };
        counter.fetch_add(1, Ordering::Relaxed);
        found
    }

    /// Looks `key` up without touching the hit/miss counters (for
    /// assembly passes that already accounted for the lookup).
    pub fn peek(&self, key: &K) -> Option<R> {
        self.map().get(key).cloned()
    }

    /// Checks membership without touching the hit/miss counters.
    pub fn contains(&self, key: &K) -> bool {
        self.map().contains_key(key)
    }

    /// Bulk-adjusts the counters: used by batch runners that classify a
    /// whole batch at once (served-without-computing vs computed).
    pub(crate) fn record(&self, hits: u64, misses: u64) {
        self.hits.fetch_add(hits, Ordering::Relaxed);
        self.misses.fetch_add(misses, Ordering::Relaxed);
    }

    /// Stores a computed result.
    pub fn insert(&self, key: K, result: R) {
        self.map().insert(key, result);
    }

    /// Cached entry count.
    pub fn len(&self) -> usize {
        self.map().len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Lookups served from the cache so far.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Lookups that found nothing so far.
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// Drops all entries (counters keep running).
    pub fn clear(&self) {
        self.map().clear();
    }

    /// A snapshot of every cached entry (iteration order unspecified —
    /// persistence layers sort before writing).
    pub fn entries(&self) -> Vec<(K, R)> {
        self.map()
            .iter()
            .map(|(k, r)| (k.clone(), r.clone()))
            .collect()
    }

    /// Bulk-inserts precomputed entries (cache warm-up from a persisted
    /// store). Counters are untouched: preloaded entries count as hits
    /// only when a later lookup finds them.
    pub fn preload(&self, entries: impl IntoIterator<Item = (K, R)>) {
        let mut map = self.map();
        for (k, r) in entries {
            map.insert(k, r);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_hits_and_misses() {
        let memo: Memo<u32, String> = Memo::new();
        assert!(memo.get(&1).is_none());
        memo.insert(1, "one".into());
        assert_eq!(memo.get(&1).as_deref(), Some("one"));
        assert_eq!(memo.get(&1).as_deref(), Some("one"));
        assert_eq!(memo.hits(), 2);
        assert_eq!(memo.misses(), 1);
        assert_eq!(memo.len(), 1);
    }

    #[test]
    fn contains_does_not_count() {
        let memo: Memo<u32, u32> = Memo::new();
        memo.insert(3, 9);
        assert!(memo.contains(&3));
        assert!(!memo.contains(&4));
        assert_eq!(memo.hits() + memo.misses(), 0);
    }

    #[test]
    fn peek_does_not_count_and_record_bulk_adjusts() {
        let memo: Memo<u32, u32> = Memo::new();
        memo.insert(5, 25);
        assert_eq!(memo.peek(&5), Some(25));
        assert_eq!(memo.peek(&6), None);
        assert_eq!(memo.hits() + memo.misses(), 0);
        memo.record(3, 2);
        assert_eq!(memo.hits(), 3);
        assert_eq!(memo.misses(), 2);
    }

    #[test]
    fn entries_snapshot_and_preload_roundtrip() {
        let memo: Memo<u32, u32> = Memo::new();
        memo.insert(1, 10);
        memo.insert(2, 20);
        let mut entries = memo.entries();
        entries.sort_unstable();
        assert_eq!(entries, vec![(1, 10), (2, 20)]);

        let other: Memo<u32, u32> = Memo::new();
        other.preload(entries);
        assert_eq!(other.len(), 2);
        assert_eq!(other.peek(&2), Some(20));
        assert_eq!(other.hits() + other.misses(), 0, "preload leaves counters");
    }

    #[test]
    fn clear_empties() {
        let memo: Memo<u32, u32> = Memo::new();
        memo.insert(1, 1);
        memo.clear();
        assert!(memo.is_empty());
    }
}
