//! Bounded in-memory hot tier above the on-disk result store.
//!
//! One mutex over a recency-stamped map with oldest-entry eviction. The
//! event loop does every per-request read; a worker takes the lock once
//! per execution (its post-claim re-probe and the insert after a miss),
//! so the lock has nothing to split. Capacity is counted in entries
//! because result bodies are uniformly small (simulate ≈ 300 B, sweep
//! grids a few KiB — see DESIGN.md §12 for the sizing argument).

use std::collections::BTreeMap;
use std::sync::{Mutex, MutexGuard, PoisonError};

/// Default entry capacity.
pub const DEFAULT_HOT_CAPACITY: usize = 2048;

#[derive(Debug, Default)]
struct Entries {
    /// Key → (recency stamp, body).
    map: BTreeMap<String, (u64, String)>,
    tick: u64,
    hits: u64,
    misses: u64,
}

/// A bounded, recency-evicting map from content address to response
/// body. (The name predates the single lock; it is kept for importers.)
#[derive(Debug)]
pub struct ShardedLru {
    entries: Mutex<Entries>,
    capacity: usize,
}

impl ShardedLru {
    /// Creates the cache with `capacity` entries (at least one).
    pub fn new(capacity: usize) -> Self {
        Self {
            entries: Mutex::new(Entries::default()),
            capacity: capacity.max(1),
        }
    }

    fn guard(&self) -> MutexGuard<'_, Entries> {
        self.entries.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Looks up `key`, refreshing its recency stamp on a hit.
    pub fn get(&self, key: &str) -> Option<String> {
        let mut guard = self.guard();
        let e = &mut *guard;
        e.tick += 1;
        let body = e.map.get_mut(key).map(|(stamp, body)| {
            *stamp = e.tick;
            body.clone()
        });
        if body.is_some() {
            e.hits += 1;
        } else {
            e.misses += 1;
        }
        body
    }

    /// Inserts (or refreshes) `key`, evicting the oldest entry when at
    /// capacity. The eviction scan is linear in the capacity; only an
    /// insert after a miss pays it, and that miss ran a simulation.
    pub fn put(&self, key: &str, body: &str) {
        let mut guard = self.guard();
        let e = &mut *guard;
        e.tick += 1;
        if !e.map.contains_key(key) && e.map.len() >= self.capacity {
            let oldest = e
                .map
                .iter()
                .min_by_key(|(_, (stamp, _))| *stamp)
                .map(|(k, _)| k.clone());
            if let Some(oldest) = oldest {
                e.map.remove(&oldest);
            }
        }
        e.map.insert(key.to_string(), (e.tick, body.to_string()));
    }

    /// Entries held.
    pub fn len(&self) -> usize {
        self.guard().map.len()
    }

    /// Whether the cache holds nothing.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// (hits, misses) counters since creation.
    pub fn stats(&self) -> (u64, u64) {
        let e = self.guard();
        (e.hits, e.misses)
    }
}

impl Default for ShardedLru {
    fn default() -> Self {
        Self::new(DEFAULT_HOT_CAPACITY)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn get_after_put_hits_and_counts() {
        let lru = ShardedLru::new(64);
        assert_eq!(lru.get("aaaa"), None);
        lru.put("aaaa", "body-a");
        assert_eq!(lru.get("aaaa").as_deref(), Some("body-a"));
        let (hits, misses) = lru.stats();
        assert_eq!((hits, misses), (1, 1));
    }

    #[test]
    fn eviction_drops_least_recently_used() {
        let lru = ShardedLru::new(1);
        lru.put("a1", "one");
        lru.put("b2", "two");
        assert_eq!(lru.get("a1"), None, "oldest entry must be evicted");
        assert_eq!(lru.get("b2").as_deref(), Some("two"));
    }

    #[test]
    fn recency_refresh_protects_hot_entries() {
        let lru = ShardedLru::new(2);
        lru.put("a1", "one");
        lru.put("a2", "two");
        assert!(lru.get("a1").is_some()); // refresh a1
        lru.put("a3", "three"); // evicts a2, not a1
        assert!(lru.get("a1").is_some());
        assert_eq!(lru.get("a2"), None);
        assert!(lru.get("a3").is_some());
    }

    #[test]
    fn full_capacity_of_cache_keys_is_kept() {
        // Keys shaped like real content addresses (32 lowercase hex
        // chars): every one of `DEFAULT_HOT_CAPACITY` of them fits.
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let keys: Vec<String> = (0..DEFAULT_HOT_CAPACITY)
            .map(|i| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                format!("{state:016x}{i:016x}")
            })
            .collect();
        let lru = ShardedLru::default();
        for key in &keys {
            lru.put(key, key);
        }
        assert_eq!(lru.len(), DEFAULT_HOT_CAPACITY);
        for key in &keys {
            assert_eq!(lru.get(key).as_deref(), Some(key.as_str()), "{key}");
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// Random `put`/`get` sequences over a few keys at small
        /// capacities agree with a recency-ordered `Vec` model (most
        /// recent last): the same hits, misses and final contents.
        #[test]
        fn matches_a_reference_lru(
            capacity in 1usize..6,
            ops in proptest::collection::vec((0u8..2, 0u8..8, 0u32..1000), 0..64),
        ) {
            let lru = ShardedLru::new(capacity);
            let mut model: Vec<(String, String)> = Vec::new();
            let (mut hits, mut misses) = (0, 0);
            for (op, k, v) in ops {
                let key = format!("{k:032x}");
                let at = model.iter().position(|(mk, _)| *mk == key);
                if op == 0 {
                    let body = v.to_string();
                    lru.put(&key, &body);
                    match at {
                        Some(i) => {
                            model.remove(i);
                        }
                        None if model.len() == capacity => {
                            model.remove(0);
                        }
                        None => {}
                    }
                    model.push((key, body));
                } else {
                    let expected = at.map(|i| model.remove(i));
                    if let Some(entry) = &expected {
                        model.push(entry.clone());
                        hits += 1;
                    } else {
                        misses += 1;
                    }
                    prop_assert_eq!(lru.get(&key), expected.map(|(_, body)| body));
                }
            }
            prop_assert_eq!(lru.stats(), (hits, misses));
            prop_assert_eq!(lru.len(), model.len());
            let held = lru.guard();
            for (key, body) in &model {
                prop_assert_eq!(held.map.get(key).map(|(_, b)| b), Some(body));
            }
        }
    }
}
