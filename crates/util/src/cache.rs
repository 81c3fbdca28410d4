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
/// assert_eq!(cache.bytes(), 3);
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
            }),
        }
    }

    fn lock(&self) -> MutexGuard<'_, Inner<K>> {
        // a panicking holder never leaves Inner half-updated (no unwinding
        // calls between field writes), so poisoning is recoverable
        self.inner.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Looks up `key`, refreshing its recency on a hit.
    pub fn get(&self, key: &K) -> Option<Arc<Vec<u8>>> {
        let mut g = self.lock();
        g.tick += 1;
        let tick = g.tick;
        let entry = g.map.get_mut(key)?;
        let old = std::mem::replace(&mut entry.tick, tick);
        let data = Arc::clone(&entry.data);
        g.recency.remove(&old);
        g.recency.insert(tick, key.clone());
        Some(data)
    }

    /// Inserts (or replaces) an entry, evicting least-recently-used entries
    /// until the byte budget holds. A value larger than the whole budget is
    /// not cached at all — evicting everything for an entry that cannot be
    /// reused profitably would just thrash — but it still **displaces** any
    /// existing entry under the same key: the cache must never keep serving
    /// a stale payload the caller just replaced, and the displaced bytes
    /// must leave the resident tally (same-key overwrites, smaller or
    /// larger, keep [`LruCache::bytes`] exact).
    pub fn insert(&self, key: K, value: Arc<Vec<u8>>) {
        let mut g = self.lock();
        g.tick += 1;
        let tick = g.tick;
        // drop any previous entry first so replacement accounting cannot
        // drift, whatever the new value's size
        if let Some(old) = g.map.remove(&key) {
            g.bytes -= old.data.len();
            g.recency.remove(&old.tick);
        }
        if value.len() > self.cap_bytes {
            // the stale entry (if any) is gone; the oversized value itself
            // is not admitted
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
            }
        }
    }

    /// Payload bytes currently resident.
    pub fn bytes(&self) -> usize {
        self.lock().bytes
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn blob(n: usize, fill: u8) -> Arc<Vec<u8>> {
        Arc::new(vec![fill; n])
    }

    #[test]
    fn get_serves_what_was_inserted() {
        let c: LruCache<&'static str> = LruCache::new(100);
        assert!(c.get(&"a").is_none());
        c.insert("a", blob(10, 1));
        assert_eq!(c.get(&"a").unwrap().as_slice(), &[1; 10]);
        assert!(c.get(&"b").is_none());
        assert_eq!(c.bytes(), 10);
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
        assert_eq!(c.bytes(), 30);
        // 1 is now the oldest touch: the next insert evicts it, not 3 or 4
        c.insert(5, blob(10, 5));
        assert!(c.get(&1).is_none());
        assert!([3, 4, 5].iter().all(|k| c.get(k).is_some()));
        assert_eq!(c.bytes(), 30);
    }

    #[test]
    fn oversized_values_are_not_cached() {
        let c: LruCache<u32> = LruCache::new(8);
        c.insert(1, blob(9, 0));
        assert!(c.get(&1).is_none());
        assert_eq!(c.bytes(), 0);
    }

    #[test]
    fn replacing_a_key_updates_bytes() {
        let c: LruCache<u32> = LruCache::new(100);
        c.insert(1, blob(40, 0));
        c.insert(1, blob(10, 1));
        assert_eq!(c.bytes(), 10);
        assert_eq!(c.get(&1).unwrap().as_slice(), &[1; 10]);
    }

    #[test]
    fn same_key_overwrite_with_larger_payload_keeps_bytes_exact() {
        let c: LruCache<u32> = LruCache::new(100);
        c.insert(1, blob(10, 0));
        c.insert(2, blob(10, 2));
        c.insert(1, blob(60, 1)); // grow in place, still under budget
        assert_eq!(c.bytes(), 70, "resident bytes must track the overwrite");
        assert_eq!(c.get(&1).unwrap().len(), 60);
        assert_eq!(c.get(&1).unwrap()[0], 1, "old payload must not survive");
        assert!(c.get(&2).is_some());
        // growing past the budget evicts the LRU neighbour, not the tally
        c.insert(1, blob(95, 3));
        assert_eq!(c.bytes(), 95);
        assert!(c.get(&2).is_none(), "LRU entry evicted to make room");
        assert_eq!(c.get(&1).unwrap()[0], 3);
    }

    #[test]
    fn oversized_overwrite_displaces_the_stale_entry() {
        let c: LruCache<u32> = LruCache::new(50);
        c.insert(1, blob(20, 0));
        c.insert(2, blob(20, 2));
        assert_eq!(c.bytes(), 40);
        // an over-budget replacement cannot be admitted, but it must not
        // leave the cache serving the superseded payload either
        c.insert(1, blob(51, 1));
        assert_eq!(c.bytes(), 20, "displaced bytes must leave the tally");
        assert!(c.get(&1).is_none(), "stale payload must be gone");
        assert_eq!(c.get(&2).unwrap().as_slice(), &[2; 20]);
    }

    /// Sum of the payloads `keys` still resolve to.
    fn resident<K: Eq + Hash + Clone>(c: &LruCache<K>, keys: impl Iterator<Item = K>) -> usize {
        keys.filter_map(|k| c.get(&k)).map(|v| v.len()).sum()
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
        // nothing was evicted: every key is resident with its own bytes
        for k in 0..32usize {
            assert!(c.get(&k).unwrap().iter().all(|&b| b == k as u8));
        }
        assert_eq!(c.bytes(), 32 * 64);
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
        let bytes = c.bytes();
        assert!(bytes <= cap, "resident {bytes} over budget {cap}");
        // recount what actually survived: bytes() must equal the sum of
        // resident payload lengths (no double-count, no leak)
        let keys = (0..4u64).flat_map(|a| (0..64u32).map(move |b| (a, b)));
        assert_eq!(
            bytes,
            resident(&c, keys),
            "tally must match resident payloads"
        );
    }

    #[test]
    fn concurrent_oversized_overwrites_never_leak_bytes() {
        // the oversized path (displace-but-don't-admit) raced from many
        // threads against admissible overwrites of the same keys: whichever
        // insert lands last, the tally must match the survivors
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
        let bytes = c.bytes();
        assert!(bytes <= cap);
        for k in 0..8u32 {
            if let Some(v) = c.get(&k) {
                assert!(v.len() <= cap, "an oversized payload was admitted");
            }
        }
        assert_eq!(
            bytes,
            resident(&c, 0..8u32),
            "tally must match resident payloads"
        );
    }

    #[test]
    fn zero_capacity_caches_nothing_without_panicking() {
        let c: LruCache<u32> = LruCache::new(0);
        c.insert(1, blob(1, 0));
        assert!(c.get(&1).is_none());
        // zero-length values do fit a zero budget
        c.insert(2, blob(0, 0));
        assert!(c.get(&2).is_some());
        assert_eq!(c.bytes(), 0);
    }
}
