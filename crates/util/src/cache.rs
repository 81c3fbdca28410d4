//! Byte-budgeted LRU cache for fetched fragments.
//!
//! `pqr-progressive`'s pager keeps the compressed fragments of demoted
//! fields here, so a rehydration usually replays from memory instead of
//! going back to the archive's source. The cache is generic over the key:
//! the caller composes keys from whatever addresses its fragments.
//!
//! Values are `Arc<Vec<u8>>` so a hit hands out a reference-counted view
//! without copying the payload. Eviction is least-recently-used by a
//! monotonic access tick, bounded by a *byte* budget rather than an entry
//! count — fragment sizes vary by orders of magnitude (a 20-byte coarse
//! bitplane vs. a megabyte snapshot), so counting entries would make the
//! memory ceiling meaningless.

use std::collections::{BTreeMap, HashMap};
use std::hash::Hash;
use std::sync::{Arc, Mutex, MutexGuard};

/// Running tallies of cache behaviour.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups served from the cache.
    pub hits: u64,
    /// Lookups that missed.
    pub misses: u64,
    /// Bytes served from the cache (sum of hit payload sizes).
    pub hit_bytes: u64,
    /// Entries evicted to stay within the byte budget.
    pub evictions: u64,
    /// Entries currently resident.
    pub entries: usize,
    /// Payload bytes currently resident.
    pub bytes: usize,
}

#[derive(Debug)]
struct Entry {
    data: Arc<Vec<u8>>,
    tick: u64,
}

#[derive(Debug)]
struct Inner<K> {
    map: HashMap<K, Entry>,
    /// Access tick → key, oldest first. Ticks are unique, so this is a
    /// total recency order and eviction pops the first entry.
    recency: BTreeMap<u64, K>,
    tick: u64,
    bytes: usize,
    hits: u64,
    misses: u64,
    hit_bytes: u64,
    evictions: u64,
}

/// A thread-safe least-recently-used cache with a byte-size budget.
///
/// ```
/// use pqr_util::cache::LruCache;
/// use std::sync::Arc;
///
/// let cache: LruCache<u32> = LruCache::new(1024);
/// assert!(cache.get(&7).is_none());
/// cache.insert(7, Arc::new(vec![1, 2, 3]));
/// assert_eq!(cache.get(&7).unwrap().as_slice(), &[1, 2, 3]);
/// let stats = cache.stats();
/// assert_eq!((stats.hits, stats.misses), (1, 1));
/// ```
#[derive(Debug)]
pub struct LruCache<K> {
    cap_bytes: usize,
    inner: Mutex<Inner<K>>,
}

impl<K: Eq + Hash + Clone> LruCache<K> {
    /// Creates a cache that holds at most `cap_bytes` of payload.
    pub fn new(cap_bytes: usize) -> Self {
        Self {
            cap_bytes,
            inner: Mutex::new(Inner {
                map: HashMap::new(),
                recency: BTreeMap::new(),
                tick: 0,
                bytes: 0,
                hits: 0,
                misses: 0,
                hit_bytes: 0,
                evictions: 0,
            }),
        }
    }

    fn lock(&self) -> MutexGuard<'_, Inner<K>> {
        // a panicking holder never leaves Inner half-updated (no unwinding
        // calls between field writes), so poisoning is recoverable
        self.inner.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Looks up `key`, refreshing its recency on a hit. Counts hit/miss.
    pub fn get(&self, key: &K) -> Option<Arc<Vec<u8>>> {
        let mut g = self.lock();
        g.tick += 1;
        let tick = g.tick;
        match g.map.get_mut(key) {
            Some(entry) => {
                let old = std::mem::replace(&mut entry.tick, tick);
                let data = Arc::clone(&entry.data);
                g.recency.remove(&old);
                g.recency.insert(tick, key.clone());
                g.hits += 1;
                g.hit_bytes += data.len() as u64;
                Some(data)
            }
            None => {
                g.misses += 1;
                None
            }
        }
    }

    /// Inserts (or replaces) an entry, evicting least-recently-used entries
    /// until the byte budget holds. A value larger than the whole budget is
    /// not cached at all — evicting everything for an entry that cannot be
    /// reused profitably would just thrash — but it still **displaces** any
    /// existing entry under the same key: the cache must never keep serving
    /// a stale payload the caller just replaced, and the displaced bytes
    /// must leave the resident tally (same-key overwrites, smaller or
    /// larger, keep `stats().bytes` exact).
    pub fn insert(&self, key: K, value: Arc<Vec<u8>>) {
        let mut g = self.lock();
        g.tick += 1;
        let tick = g.tick;
        // drop any previous entry first so replacement accounting cannot
        // drift, whatever the new value's size
        let displaced = if let Some(old) = g.map.remove(&key) {
            g.bytes -= old.data.len();
            g.recency.remove(&old.tick);
            true
        } else {
            false
        };
        if value.len() > self.cap_bytes {
            // the stale entry (if any) is gone and counts as evicted; the
            // oversized value itself is not admitted
            if displaced {
                g.evictions += 1;
            }
            return;
        }
        g.bytes += value.len();
        g.recency.insert(tick, key.clone());
        g.map.insert(key, Entry { data: value, tick });
        while g.bytes > self.cap_bytes {
            let Some((_, victim)) = g.recency.pop_first() else {
                break;
            };
            if let Some(e) = g.map.remove(&victim) {
                g.bytes -= e.data.len();
                g.evictions += 1;
            }
        }
    }

    /// Drops every entry (stats are kept).
    pub fn clear(&self) {
        let mut g = self.lock();
        g.map.clear();
        g.recency.clear();
        g.bytes = 0;
    }

    /// Current tallies.
    pub fn stats(&self) -> CacheStats {
        let g = self.lock();
        CacheStats {
            hits: g.hits,
            misses: g.misses,
            hit_bytes: g.hit_bytes,
            evictions: g.evictions,
            entries: g.map.len(),
            bytes: g.bytes,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn blob(n: usize, fill: u8) -> Arc<Vec<u8>> {
        Arc::new(vec![fill; n])
    }

    #[test]
    fn hit_and_miss_counting() {
        let c: LruCache<&'static str> = LruCache::new(100);
        assert!(c.get(&"a").is_none());
        c.insert("a", blob(10, 1));
        assert_eq!(c.get(&"a").unwrap().len(), 10);
        assert!(c.get(&"b").is_none());
        let s = c.stats();
        assert_eq!(s.hits, 1);
        assert_eq!(s.misses, 2);
        assert_eq!(s.hit_bytes, 10);
        assert_eq!(s.entries, 1);
        assert_eq!(s.bytes, 10);
    }

    #[test]
    fn evicts_least_recently_used_by_bytes() {
        let c: LruCache<u32> = LruCache::new(30);
        c.insert(1, blob(10, 1));
        c.insert(2, blob(10, 2));
        c.insert(3, blob(10, 3));
        // touch 1 so 2 becomes the LRU
        assert!(c.get(&1).is_some());
        c.insert(4, blob(10, 4));
        assert!(c.get(&2).is_none(), "LRU entry should have been evicted");
        assert!(c.get(&1).is_some());
        assert!(c.get(&3).is_some());
        assert!(c.get(&4).is_some());
        let s = c.stats();
        assert_eq!(s.evictions, 1);
        assert!(s.bytes <= 30);
    }

    #[test]
    fn oversized_values_are_not_cached() {
        let c: LruCache<u32> = LruCache::new(8);
        c.insert(1, blob(9, 0));
        assert!(c.get(&1).is_none());
        assert_eq!(c.stats().entries, 0);
    }

    #[test]
    fn replacing_a_key_updates_bytes() {
        let c: LruCache<u32> = LruCache::new(100);
        c.insert(1, blob(40, 0));
        c.insert(1, blob(10, 1));
        let s = c.stats();
        assert_eq!(s.entries, 1);
        assert_eq!(s.bytes, 10);
        assert_eq!(c.get(&1).unwrap()[0], 1);
    }

    #[test]
    fn same_key_overwrite_with_larger_payload_keeps_bytes_exact() {
        let c: LruCache<u32> = LruCache::new(100);
        c.insert(1, blob(10, 0));
        c.insert(2, blob(10, 2));
        c.insert(1, blob(60, 1)); // grow in place, still under budget
        let s = c.stats();
        assert_eq!(s.entries, 2);
        assert_eq!(s.bytes, 70, "resident bytes must track the overwrite");
        assert_eq!(c.get(&1).unwrap().len(), 60);
        assert_eq!(c.get(&1).unwrap()[0], 1, "old payload must not survive");
        // growing past the budget evicts the LRU neighbour, not the tally
        c.insert(1, blob(95, 3));
        let s = c.stats();
        assert_eq!(s.entries, 1);
        assert_eq!(s.bytes, 95);
        assert!(c.get(&2).is_none(), "LRU entry evicted to make room");
        assert_eq!(c.get(&1).unwrap()[0], 3);
    }

    #[test]
    fn oversized_overwrite_displaces_the_stale_entry() {
        let c: LruCache<u32> = LruCache::new(50);
        c.insert(1, blob(20, 0));
        assert_eq!(c.stats().bytes, 20);
        // an over-budget replacement cannot be admitted, but it must not
        // leave the cache serving the superseded payload either
        c.insert(1, blob(51, 1));
        let s = c.stats();
        assert_eq!(s.entries, 0);
        assert_eq!(s.bytes, 0, "displaced bytes must leave the tally");
        assert_eq!(s.evictions, 1, "the displaced entry counts as evicted");
        assert!(c.get(&1).is_none(), "stale payload must be gone");
    }

    #[test]
    fn stats_track_hits_misses_evictions_and_residency() {
        let c: LruCache<u32> = LruCache::new(25);
        c.insert(1, blob(10, 1));
        c.insert(2, blob(10, 2));
        assert!(c.get(&1).is_some());
        assert!(c.get(&3).is_none());
        c.insert(3, blob(10, 3)); // evicts key 2 (LRU)
        let s = c.stats();
        assert_eq!(s.hits, 1);
        assert_eq!(s.misses, 1);
        assert_eq!(s.hit_bytes, 10);
        assert_eq!(s.evictions, 1);
        assert_eq!(s.entries, 2);
        assert_eq!(s.bytes, 20);
    }

    #[test]
    fn clear_keeps_stats() {
        let c: LruCache<u32> = LruCache::new(100);
        c.insert(1, blob(5, 0));
        assert!(c.get(&1).is_some());
        c.clear();
        assert!(c.get(&1).is_none());
        let s = c.stats();
        assert_eq!(s.entries, 0);
        assert_eq!(s.bytes, 0);
        assert_eq!(s.hits, 1);
    }

    #[test]
    fn concurrent_access_is_consistent() {
        let c: Arc<LruCache<usize>> = Arc::new(LruCache::new(1 << 16));
        std::thread::scope(|s| {
            for t in 0..8 {
                let c = Arc::clone(&c);
                s.spawn(move || {
                    for i in 0..200 {
                        let k = (t * 13 + i) % 32;
                        if c.get(&k).is_none() {
                            c.insert(k, Arc::new(vec![k as u8; 64]));
                        }
                    }
                });
            }
        });
        let s = c.stats();
        assert_eq!(s.hits + s.misses, 8 * 200);
        assert!(s.entries <= 32);
        for k in 0..32usize {
            if let Some(v) = c.get(&k) {
                assert!(v.iter().all(|&b| b == k as u8));
            }
        }
    }

    #[test]
    fn concurrent_inserts_under_pressure_keep_byte_accounting_exact() {
        // the compressed-fragment RAM tier hammers one cache from many
        // refinement threads with a budget far below the offered bytes, so
        // the eviction loop runs constantly; the invariant is that the
        // resident tally never drifts from the surviving entries and never
        // exceeds the budget, no matter how inserts interleave
        let cap = 4 << 10;
        let c: Arc<LruCache<(u64, u32)>> = Arc::new(LruCache::new(cap));
        std::thread::scope(|s| {
            for t in 0..8u64 {
                let c = Arc::clone(&c);
                s.spawn(move || {
                    for i in 0..400u32 {
                        // overlapping key ranges force cross-thread
                        // overwrites, varied sizes force evictions
                        let k = (t % 4, i % 64);
                        let len = 64 + ((t as usize * 37 + i as usize * 11) % 512);
                        c.insert(k, Arc::new(vec![(t as u8) ^ (i as u8); len]));
                        if i % 3 == 0 {
                            c.get(&k);
                        }
                    }
                });
            }
        });
        let s = c.stats();
        assert!(s.bytes <= cap, "resident {} over budget {cap}", s.bytes);
        // recount what actually survived: stats().bytes must equal the sum
        // of resident payload lengths (no double-count, no leak)
        let mut actual = 0usize;
        let mut entries = 0usize;
        for a in 0..4u64 {
            for b in 0..64u32 {
                if let Some(v) = c.get(&(a, b)) {
                    actual += v.len();
                    entries += 1;
                }
            }
        }
        assert_eq!(s.bytes, actual, "tally must match resident payloads");
        assert_eq!(s.entries, entries);
        assert!(s.evictions > 0, "pressure this heavy must evict");
    }

    #[test]
    fn concurrent_oversized_overwrites_never_leak_bytes() {
        // the PR 3 oversized path (displace-but-don't-admit) raced from
        // many threads against admissible overwrites of the same keys:
        // whichever insert lands last, the tally must match the survivors
        let cap = 256;
        let c: Arc<LruCache<u32>> = Arc::new(LruCache::new(cap));
        std::thread::scope(|s| {
            for t in 0..8u32 {
                let c = Arc::clone(&c);
                s.spawn(move || {
                    for i in 0..300u32 {
                        let k = i % 8;
                        let len = if (t + i) % 3 == 0 {
                            cap + 1 + (i as usize % 64) // never admissible
                        } else {
                            16 + (i as usize % 32)
                        };
                        c.insert(k, Arc::new(vec![t as u8; len]));
                    }
                });
            }
        });
        let s = c.stats();
        assert!(s.bytes <= cap);
        let mut actual = 0usize;
        for k in 0..8u32 {
            if let Some(v) = c.get(&k) {
                assert!(v.len() <= cap, "an oversized payload was admitted");
                actual += v.len();
            }
        }
        assert_eq!(s.bytes, actual, "tally must match resident payloads");
    }

    #[test]
    fn zero_capacity_caches_nothing_without_panicking() {
        let c: LruCache<u32> = LruCache::new(0);
        c.insert(1, blob(1, 0));
        assert!(c.get(&1).is_none());
        // zero-length values do fit a zero budget
        c.insert(2, blob(0, 0));
        assert!(c.get(&2).is_some());
    }
}
