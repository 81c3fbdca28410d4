//! Remote store: refactored blocks served fragment-by-fragment + fetch
//! accounting.
//!
//! Models the storage side of Fig. 1: refactored data rests in a (remote)
//! store; retrievals open a [`FragmentSource`] per block
//! ([`RemoteStore::block_source`]) and pull exactly the fragments the QoI
//! engine asks for. The store tallies the bytes and request counts the
//! network model will charge for — and, when a fragment cache is attached
//! ([`RemoteStore::with_cache`]), distinguishes cache hits (served locally,
//! free on the wire) from network fetches.

use pqr_progressive::fragstore::{
    FragmentCache, FragmentId, FragmentSource, Manifest, SourceStats,
};
use pqr_progressive::RefactoredDataset;
use pqr_util::error::{PqrError, Result};
use std::sync::atomic::Ordering;
use std::sync::Arc;

/// A remote store holding refactored blocks (archive side of Fig. 1).
/// Stores are shared behind an `Arc` — block sources own a handle, so
/// retrieval engines on them carry no borrows and run from any thread.
pub struct RemoteStore {
    blocks: Vec<RefactoredDataset>,
    counters: AtomicFetchCounters,
    cache: Option<Arc<FragmentCache>>,
}

pqr_util::tally! {
    /// Tallied fetch activity. Concurrent block retrievals bump the
    /// lock-free twin with atomic adds, so no update is ever lost and no
    /// fetch serializes on a counter lock.
    pub struct FetchCounters / AtomicFetchCounters {
        /// Bytes moved over the (simulated) network.
        bytes,
        /// Network round-trips served by the store: one per single-fragment
        /// fetch, one per [`FragmentSource::read_many`] batch — batched
        /// retrieval is observable as `requests < fragments`.
        requests,
        /// Fragments moved over the network (across all round-trips).
        fragments,
        /// Fetches served from the local fragment cache instead of the
        /// network.
        hits,
        /// Bytes those cache hits would otherwise have moved.
        hit_bytes,
    }
}

impl FetchCounters {
    /// Fetches served from the cache without touching the network.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Fragment fetches that went over the network.
    pub fn misses(&self) -> u64 {
        self.fragments
    }

    /// Network round-trips (single fetches + whole batches).
    pub fn round_trips(&self) -> u64 {
        self.requests
    }
}

impl RemoteStore {
    /// Builds a store over refactored blocks.
    pub fn new(blocks: Vec<RefactoredDataset>) -> Self {
        Self {
            blocks,
            counters: AtomicFetchCounters::default(),
            cache: None,
        }
    }

    /// Attaches a retrieval-side LRU fragment cache with the given byte
    /// budget: repeated fetches of the same fragment are served locally and
    /// tallied as hits instead of network requests.
    pub fn with_cache(mut self, cap_bytes: usize) -> Self {
        self.cache = Some(Arc::new(FragmentCache::new(cap_bytes)));
        self
    }

    /// The attached fragment cache, if any.
    pub fn cache(&self) -> Option<&Arc<FragmentCache>> {
        self.cache.as_ref()
    }

    /// Number of blocks.
    pub fn num_blocks(&self) -> usize {
        self.blocks.len()
    }

    /// Read-only access to a block's refactored representation.
    pub fn block(&self, i: usize) -> Result<&RefactoredDataset> {
        self.blocks
            .get(i)
            .ok_or_else(|| PqrError::InvalidRequest(format!("block {i} out of range")))
    }

    /// Opens the fragment source for block `i` — the **owned** handle a
    /// retrieval engine refines through (it keeps the store alive via its
    /// `Arc`). Fetches count against the store's network tallies; the
    /// attached cache (if any) intercepts repeats.
    pub fn block_source(self: &Arc<Self>, i: usize) -> Result<RemoteBlockSource> {
        if i >= self.blocks.len() {
            return Err(PqrError::InvalidRequest(format!("block {i} out of range")));
        }
        Ok(RemoteBlockSource {
            store: Arc::clone(self),
            block: i,
        })
    }

    /// Records a network fetch of `bytes` (one request, one fragment).
    pub fn record_fetch(&self, bytes: usize) {
        self.counters
            .bytes
            .fetch_add(bytes as u64, Ordering::Relaxed);
        self.counters.requests.fetch_add(1, Ordering::Relaxed);
        self.counters.fragments.fetch_add(1, Ordering::Relaxed);
    }

    /// Records a batched fetch: `fragments` fragments totalling `bytes`
    /// served in **one** network round-trip.
    pub fn record_batch(&self, bytes: usize, fragments: usize) {
        let c = &self.counters;
        c.bytes.fetch_add(bytes as u64, Ordering::Relaxed);
        c.requests.fetch_add(1, Ordering::Relaxed);
        c.fragments.fetch_add(fragments as u64, Ordering::Relaxed);
    }

    /// Records a fetch served by the local cache (`bytes` stayed off the
    /// wire).
    pub fn record_hit(&self, bytes: usize) {
        self.counters.hits.fetch_add(1, Ordering::Relaxed);
        self.counters
            .hit_bytes
            .fetch_add(bytes as u64, Ordering::Relaxed);
    }

    /// Current tallies (an atomic snapshot of the lock-free cells).
    pub fn counters(&self) -> FetchCounters {
        self.counters.snapshot()
    }

    /// Resets tallies (between experiment arms).
    pub fn reset_counters(&self) {
        self.counters.reset();
    }

    /// Total archived bytes across blocks.
    pub fn archived_bytes(&self) -> usize {
        self.blocks.iter().map(|b| b.total_bytes()).sum()
    }

    /// Raw (uncompressed) bytes across blocks — the Fig. 9 baseline payload.
    pub fn raw_bytes(&self) -> usize {
        self.blocks.iter().map(|b| b.raw_bytes()).sum()
    }
}

/// The [`FragmentSource`] view of one stored block: every fetch either hits
/// the store's cache (tallied as a hit) or moves bytes over the simulated
/// network (tallied as a request). Retrieval engines refine through this —
/// the same code path as local and file-backed archives. The view owns an
/// `Arc` to its store, so it is `'static` and crosses threads freely.
pub struct RemoteBlockSource {
    store: Arc<RemoteStore>,
    block: usize,
}

impl RemoteBlockSource {
    /// The block index this source serves.
    pub fn block_index(&self) -> usize {
        self.block
    }
}

impl FragmentSource for RemoteBlockSource {
    fn manifest(&self) -> Result<Manifest> {
        self.store.blocks[self.block].manifest()
    }

    fn fetch(&self, id: FragmentId) -> Result<Arc<Vec<u8>>> {
        let key = (self.block as u64, id.field, id.index);
        if let Some(cache) = &self.store.cache {
            if let Some(hit) = cache.get(&key) {
                self.store.record_hit(hit.len());
                return Ok(hit);
            }
        }
        let payload = self.store.blocks[self.block].fetch(id)?;
        self.store.record_fetch(payload.len());
        if let Some(cache) = &self.store.cache {
            cache.insert(key, Arc::clone(&payload));
        }
        Ok(payload)
    }

    fn read_many(&self, ids: &[FragmentId]) -> Result<Vec<Arc<Vec<u8>>>> {
        // the whole batch rides one round-trip: cache hits are peeled off
        // locally, every miss is served from the block and charged as a
        // single multi-fragment request
        let mut out: Vec<Option<Arc<Vec<u8>>>> = vec![None; ids.len()];
        let mut miss_bytes = 0usize;
        let mut misses = 0usize;
        for (k, &id) in ids.iter().enumerate() {
            let key = (self.block as u64, id.field, id.index);
            if let Some(cache) = &self.store.cache {
                if let Some(hit) = cache.get(&key) {
                    self.store.record_hit(hit.len());
                    out[k] = Some(hit);
                    continue;
                }
            }
            let payload = self.store.blocks[self.block].fetch(id)?;
            miss_bytes += payload.len();
            misses += 1;
            if let Some(cache) = &self.store.cache {
                cache.insert(key, Arc::clone(&payload));
            }
            out[k] = Some(payload);
        }
        if misses > 0 {
            self.store.record_batch(miss_bytes, misses);
        }
        Ok(out
            .into_iter()
            .map(|p| p.expect("every id served"))
            .collect())
    }

    fn stats(&self) -> SourceStats {
        // store-wide view (blocks share the store's tallies)
        let c = self.store.counters();
        SourceStats {
            fetches: c.fragments + c.hits,
            fetched_bytes: c.bytes + c.hit_bytes,
            cache_hits: c.hits,
            cache_misses: c.fragments,
            read_ops: c.requests,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pqr_progressive::engine::{EngineConfig, QoiSpec, RetrievalEngine};
    use pqr_progressive::field::Dataset;
    use pqr_progressive::refactored::Scheme;
    use pqr_qoi::QoiExpr;

    fn store_with_blocks(n: usize) -> Arc<RemoteStore> {
        let blocks = (0..n)
            .map(|b| {
                let mut ds = Dataset::new(&[128]);
                ds.add_field(
                    "f",
                    (0..128).map(|i| ((i + b * 7) as f64 * 0.1).sin()).collect(),
                )
                .unwrap();
                ds.refactor_with_bounds(Scheme::PmgardHb, &[1e-1]).unwrap()
            })
            .collect();
        Arc::new(RemoteStore::new(blocks))
    }

    #[test]
    fn block_access_and_bounds() {
        let store = store_with_blocks(3);
        assert_eq!(store.num_blocks(), 3);
        assert!(store.block(2).is_ok());
        assert!(store.block(3).is_err());
        assert!(store.block_source(2).is_ok());
        assert!(store.block_source(3).is_err());
    }

    #[test]
    fn counters_accumulate_thread_safely() {
        let store = store_with_blocks(1);
        std::thread::scope(|s| {
            for _ in 0..8 {
                let store = &store;
                s.spawn(move || {
                    for _ in 0..100 {
                        store.record_fetch(10);
                    }
                });
            }
        });
        let c = store.counters();
        assert_eq!(c.bytes, 8000);
        assert_eq!(c.requests, 800);
        assert_eq!(c.misses(), 800);
        assert_eq!(c.hits(), 0);
        store.reset_counters();
        assert_eq!(store.counters(), FetchCounters::default());
    }

    #[test]
    fn size_accounting() {
        let store = store_with_blocks(4);
        assert_eq!(store.raw_bytes(), 4 * 128 * 8);
        assert!(store.archived_bytes() > 0);
    }

    #[test]
    fn uncached_fetches_all_go_to_the_network() {
        let store = store_with_blocks(2);
        let src = store.block_source(0).unwrap();
        let mut engine =
            RetrievalEngine::from_source(Arc::new(src), EngineConfig::default()).unwrap();
        engine
            .retrieve(&[QoiSpec::absolute("f", QoiExpr::var(0), 1e-4)])
            .unwrap();
        let c = store.counters();
        assert!(c.requests > 0);
        assert!(c.bytes > 0);
        assert_eq!(c.hits(), 0);
        // the engine's byte accounting equals the store's network bytes
        // (no mask attached, so every counted byte went through the wire)
        assert_eq!(engine.total_fetched(), c.bytes as usize);
    }

    #[test]
    fn cached_store_serves_repeats_locally() {
        let store = {
            let mut blocks = Vec::new();
            let mut ds = Dataset::new(&[128]);
            ds.add_field("f", (0..128).map(|i| (i as f64 * 0.1).sin()).collect())
                .unwrap();
            blocks.push(ds.refactor_with_bounds(Scheme::PmgardHb, &[1e-1]).unwrap());
            Arc::new(RemoteStore::new(blocks).with_cache(1 << 20))
        };
        let spec = QoiSpec::absolute("f", QoiExpr::var(0), 1e-4);

        let src = Arc::new(store.block_source(0).unwrap());
        let mut e1 = RetrievalEngine::from_source(src.clone(), EngineConfig::default()).unwrap();
        e1.retrieve(std::slice::from_ref(&spec)).unwrap();
        let after_first = store.counters();
        assert_eq!(after_first.hits(), 0, "cold cache cannot hit");

        // a second session over the same block re-fetches the same
        // fragments: all hits, zero new network bytes
        let mut e2 = RetrievalEngine::from_source(src, EngineConfig::default()).unwrap();
        e2.retrieve(std::slice::from_ref(&spec)).unwrap();
        let after_second = store.counters();
        assert_eq!(after_second.bytes, after_first.bytes);
        assert_eq!(after_second.misses(), after_first.misses());
        assert!(after_second.hits() > 0);
        assert_eq!(e1.total_fetched(), e2.total_fetched());
        assert_eq!(e1.reconstruction(0), e2.reconstruction(0));
    }
}
