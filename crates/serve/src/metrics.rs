//! Server-side metrics: lock-free counters updated on every frame, plus
//! the snapshot type the `stats` frame ships to clients.
//!
//! The per-request layer already reports queue wait and store decode/reuse
//! deltas on each [`PlanReport`](pqr_progressive::plan::PlanReport); this
//! module aggregates the server view — admission sheds, decode-pool sheds,
//! wire traffic, mid-request disconnects — and folds in the per-dataset
//! [`StoreStats`]/[`SourceStats`] so one `stats` round-trip shows both the
//! contention picture and the decode-sharing picture.

use pqr_progressive::fragstore::SourceStats;
use pqr_progressive::store::StoreStats;
use pqr_util::byteio::{ByteReader, ByteWriter};
use pqr_util::error::{PqrError, Result};
use std::sync::atomic::{AtomicU64, Ordering};

pqr_util::tally! {
    /// The server counters a `stats` frame carries, in wire order.
    pub struct ServeCounters / AtomicServeCounters {
        /// Connections accepted into the worker pool.
        connections,
        /// Frames processed (any kind).
        requests,
        /// Retrieve frames executed (admitted past the decode gate).
        retrieves,
        /// Error frames sent.
        errors,
        /// Connections shed at accept because the pending queue was full.
        shed_admission,
        /// Retrieves shed because the decode pool stayed saturated past the
        /// configured wait.
        shed_busy,
        /// Request bytes read off the wire (headers included).
        bytes_in,
        /// Response bytes written to the wire (headers included).
        bytes_out,
        /// Total milliseconds retrieves waited for a decode permit.
        queue_wait_ms_total,
        /// Worst single decode-permit wait observed, in milliseconds.
        queue_wait_ms_max,
        /// Connections that died mid-request (the peer vanished between a
        /// request frame and its reply).
        disconnects_mid_request,
        /// Coalesced rounds executed: batches of ≥ 2 overlapping retrieves
        /// whose union plan ran once through the shared store.
        coalesced_rounds,
        /// Retrieves served as members of a coalesced round (the union ran on
        /// their behalf; their own execution was a permit-free reply
        /// projection from the shared epoch state).
        coalesced_requests,
        /// Coalesced rounds that fell back to individual gated execution
        /// (union error or no decode permit within the wait).
        coalesce_fallbacks,
        /// Total milliseconds retrieves spent executing (permit grant →
        /// reply built) — `service_ms_total / retrieves_completed` is the
        /// observed per-request service time the dynamic `Busy` retry-after
        /// hint derives from.
        service_ms_total,
    }
}

/// Lock-free server counters (one instance per [`Server`](crate::Server),
/// shared by the accept loop and every worker).
#[derive(Debug, Default)]
pub struct ServeStats {
    /// The counters the `stats` frame serialises.
    pub counters: AtomicServeCounters,
    /// Retrieves that completed execution (the denominator of the
    /// observed service time). Not serialized — server-local.
    pub retrieves_completed: AtomicU64,
    /// Retrieves currently waiting for (or holding) a decode permit — the
    /// live queue-depth gauge behind the dynamic retry-after hint. Not
    /// serialized — server-local.
    pub decode_inflight: AtomicU64,
}

impl ServeStats {
    /// Bumps a counter.
    pub fn inc(counter: &AtomicU64) {
        counter.fetch_add(1, Ordering::Relaxed);
    }

    /// Adds to a counter.
    pub fn add(counter: &AtomicU64, v: u64) {
        counter.fetch_add(v, Ordering::Relaxed);
    }

    /// Records one decode-permit wait.
    pub fn record_queue_wait(&self, ms: u64) {
        let c = &self.counters;
        c.queue_wait_ms_total.fetch_add(ms, Ordering::Relaxed);
        c.queue_wait_ms_max.fetch_max(ms, Ordering::Relaxed);
    }

    /// Records one completed retrieve's service time.
    pub fn record_service(&self, ms: u64) {
        self.counters
            .service_ms_total
            .fetch_add(ms, Ordering::Relaxed);
        self.retrieves_completed.fetch_add(1, Ordering::Relaxed);
    }

    /// The retry-after hint for a `Busy` reply right now: queue depth ×
    /// observed per-request service time over the pool width (see
    /// [`busy_hint`]), falling back to `fallback` until a service time has
    /// been observed.
    pub fn busy_hint_now(&self, extra_waiting: u64, permits: u64, fallback: u64) -> u64 {
        busy_hint(
            self.decode_inflight.load(Ordering::Relaxed) + extra_waiting,
            self.counters.service_ms_total.load(Ordering::Relaxed),
            self.retrieves_completed.load(Ordering::Relaxed),
            permits,
            fallback,
        )
    }

    /// A point-in-time copy of the counters (dataset rows added by the
    /// server, which owns the registry).
    pub fn snapshot(&self) -> StatsSnapshot {
        StatsSnapshot {
            counters: self.counters.snapshot(),
            datasets: Vec::new(),
        }
    }
}

/// The dynamic retry-after hint for a `Busy` reply: how long the queue in
/// front of the caller should take to drain, given the observed per-request
/// service time.
///
/// `waiting` is the number of retrieves ahead (in flight plus queued),
/// `service_ms_total / served` the observed mean service time, and
/// `permits` the decode-pool width draining them. Until the server has
/// observed at least one completed retrieve (or when the pool width is
/// zero), there is nothing to derive from and the configured `fallback`
/// is returned verbatim.
pub fn busy_hint(
    waiting: u64,
    service_ms_total: u64,
    served: u64,
    permits: u64,
    fallback: u64,
) -> u64 {
    if served == 0 || service_ms_total == 0 || permits == 0 {
        return fallback;
    }
    let mean_ms = service_ms_total.div_ceil(served);
    // ceil(waiting / permits) rounds of mean service time, at least one —
    // the caller always waits out the request currently holding a permit.
    let rounds = waiting.div_ceil(permits).max(1);
    rounds.saturating_mul(mean_ms).max(1)
}

/// Per-dataset row of a [`StatsSnapshot`]: the decode-sharing and source
/// counters of one registered [`DatasetService`](pqr_core::archive::DatasetService).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DatasetStats {
    /// Registry name.
    pub name: String,
    /// Shared-store tallies (decode-once proof).
    pub store: StoreStats,
    /// Fragment-source tallies (across all sessions of the service).
    pub source: SourceStats,
}

/// What a `stats` frame returns. The server counters read through
/// [`Deref`](std::ops::Deref): `snap.retrieves` is `snap.counters.retrieves`.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct StatsSnapshot {
    /// The server-wide counters.
    pub counters: ServeCounters,
    /// Per-dataset store/source rows.
    pub datasets: Vec<DatasetStats>,
}

impl std::ops::Deref for StatsSnapshot {
    type Target = ServeCounters;

    fn deref(&self) -> &ServeCounters {
        &self.counters
    }
}

impl StatsSnapshot {
    /// Serialises the snapshot for the `stats` reply frame: the server
    /// counters, then per dataset its name, store and source counters, each
    /// set in declaration order.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut w = ByteWriter::new();
        for v in self.counters.words() {
            w.put_u64(v);
        }
        w.put_u64(self.datasets.len() as u64);
        for d in &self.datasets {
            w.put_bytes(d.name.as_bytes());
            for v in d.store.words().into_iter().chain(d.source.words()) {
                w.put_u64(v);
            }
        }
        w.finish()
    }

    /// Parses a snapshot (count-checked before allocation; trailing bytes
    /// are an error, so a frame with another column count cannot
    /// mis-align its rows silently).
    pub fn from_bytes(bytes: &[u8]) -> Result<Self> {
        let mut r = ByteReader::new(bytes);
        let counters = ServeCounters::from_words(|| r.get_u64())?;
        let raw = r.get_u64()? as usize;
        // each dataset row costs at least a name prefix + its counters
        let n = r.check_count(raw, 8 + 8 * (StoreStats::LEN + SourceStats::LEN))?;
        let mut datasets = Vec::with_capacity(n);
        for _ in 0..n {
            datasets.push(DatasetStats {
                name: crate::wire::get_name(&mut r)?,
                store: StoreStats::from_words(|| r.get_u64())?,
                source: SourceStats::from_words(|| r.get_u64())?,
            });
        }
        if r.remaining() != 0 {
            return Err(PqrError::CorruptStream("trailing stats bytes".into()));
        }
        Ok(Self { counters, datasets })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A snapshot with every counter distinct and two dataset rows.
    fn sample() -> StatsSnapshot {
        let row = |name: &str, k: u64| DatasetStats {
            name: name.into(),
            store: StoreStats {
                fragments_decoded: 10 * k,
                refine_advances: 5 * k,
                refine_reuses: 20 * k,
                adoptions: 7 * k,
                evictions: 2 * k,
                rehydration_decodes: 6 * k,
                rehydration_bytes: 2048 * k,
                snapshot_publishes: 11 * k,
                epoch_short_circuits: 42 * k,
                plan_front_hits: 9 * k,
                plan_front_misses: 3 * k,
                resident_bytes: k << 20,
                budget_bytes: k << 22,
                recompose_passes: 64 * k,
                recon_cache_hits: 13 * k,
                reconstruct_nanos: 1_500_000 * k,
            },
            source: SourceStats {
                fetches: 100 * k,
                fetched_bytes: 4096 * k,
                read_ops: 12 * k,
            },
        };
        StatsSnapshot {
            counters: ServeCounters {
                connections: 3,
                requests: 17,
                retrieves: 9,
                errors: 1,
                shed_admission: 2,
                shed_busy: 4,
                bytes_in: 1234,
                bytes_out: 56789,
                queue_wait_ms_total: 88,
                queue_wait_ms_max: 40,
                disconnects_mid_request: 1,
                coalesced_rounds: 5,
                coalesced_requests: 14,
                coalesce_fallbacks: 1,
                service_ms_total: 260,
            },
            datasets: vec![row("ge", 1), row("s3d", 3)],
        }
    }

    #[test]
    fn snapshot_roundtrips_with_dataset_rows() {
        let snap = sample();
        assert_eq!(StatsSnapshot::from_bytes(&snap.to_bytes()).unwrap(), snap);
    }

    #[test]
    fn counters_accumulate_and_max_tracks() {
        let s = ServeStats::default();
        ServeStats::inc(&s.counters.retrieves);
        ServeStats::add(&s.counters.bytes_out, 100);
        s.record_queue_wait(10);
        s.record_queue_wait(30);
        s.record_queue_wait(20);
        let snap = s.snapshot();
        assert_eq!(snap.retrieves, 1);
        assert_eq!(snap.bytes_out, 100);
        assert_eq!(snap.queue_wait_ms_total, 60);
        assert_eq!(snap.queue_wait_ms_max, 30);
    }

    #[test]
    fn busy_hint_falls_back_without_observations() {
        // no completed retrieve yet: the configured fallback must come back
        // verbatim, whatever the queue depth looks like
        assert_eq!(busy_hint(10, 0, 0, 4, 123), 123);
        assert_eq!(busy_hint(0, 0, 0, 4, 321), 321);
        // degenerate pool width also falls back
        assert_eq!(busy_hint(10, 500, 5, 0, 200), 200);
    }

    #[test]
    fn busy_hint_shrinks_as_load_drains() {
        // mean service time 50 ms, pool of 2 permits; the hint must shrink
        // monotonically as the queue in front of the caller drains
        let at = |waiting| busy_hint(waiting, 500, 10, 2, 200);
        let deep = at(8); // 4 rounds -> 200 ms
        let mid = at(4); // 2 rounds -> 100 ms
        let low = at(1); // 1 round  ->  50 ms
        assert_eq!((deep, mid, low), (200, 100, 50));
        assert!(deep > mid && mid > low);
        // never zero: a caller always waits out the current permit holder
        assert_eq!(busy_hint(0, 500, 10, 2, 200), 50);
    }

    #[test]
    fn busy_hint_now_tracks_recorded_service() {
        let s = ServeStats::default();
        // nothing observed -> exact fallback
        assert_eq!(s.busy_hint_now(3, 4, 123), 123);
        s.record_service(40);
        s.record_service(60);
        s.decode_inflight.store(8, Ordering::Relaxed);
        // mean 50 ms, 8 in flight + 2 extra waiting over 4 permits
        assert_eq!(s.busy_hint_now(2, 4, 123), 150);
        s.decode_inflight.store(0, Ordering::Relaxed);
        assert_eq!(s.busy_hint_now(0, 4, 123), 50);
    }

    #[test]
    fn truncated_snapshot_is_an_error() {
        let mut bytes = sample().to_bytes();
        for len in 0..bytes.len() {
            assert!(
                StatsSnapshot::from_bytes(&bytes[..len]).is_err(),
                "prefix of {len} bytes parsed"
            );
        }
        bytes.push(0);
        assert!(
            StatsSnapshot::from_bytes(&bytes).is_err(),
            "a trailing byte parsed"
        );
    }
}
