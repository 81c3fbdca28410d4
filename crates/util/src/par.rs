//! Chunked parallel map/reduce on scoped threads.
//!
//! The retrieval engine scans every data point for every QoI each iteration
//! (Algorithm 2, lines 14–24); these helpers parallelise such embarrassingly
//! parallel scans without pulling in rayon (not on the approved dependency
//! list). Work is split into contiguous chunks, one logical chunk per worker,
//! so per-point state stays cache-friendly. The calling thread is one of the
//! workers: a fan-out over `n` spawns `n − 1` threads. `std::thread::scope`
//! guarantees workers only borrow — no `Arc`, no data races (if it compiles,
//! it's safe).

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock};

/// Number of worker threads to use: `PQR_THREADS` env override, else the
/// available parallelism, else 1.
///
/// Resolved once and cached — this sits on the plan executor's per-round
/// dispatch path, and `std::env::var` takes a process-global lock on every
/// call. Changing `PQR_THREADS` after the first call has no effect; code
/// that needs a per-call worker count (tests, benches) should thread an
/// explicit count instead (e.g. `EngineConfig::workers`).
pub fn worker_count() -> usize {
    static WORKERS: OnceLock<usize> = OnceLock::new();
    *WORKERS.get_or_init(|| {
        if let Ok(s) = std::env::var("PQR_THREADS") {
            if let Ok(n) = s.parse::<usize>() {
                return n.max(1);
            }
        }
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    })
}

/// Minimum element count below which parallel dispatch is not worth the
/// thread spawn cost for pointwise scans.
const PAR_THRESHOLD: usize = 4096;

/// Runs `run` on every share and returns the results in share order: one
/// spawned thread per share after the first, which the calling thread takes
/// itself instead of parking until the others finish.
fn fork_join<T, R, F>(shares: impl IntoIterator<Item = T>, run: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Sync,
{
    let mut shares = shares.into_iter();
    let Some(own) = shares.next() else {
        return Vec::new();
    };
    let run = &run;
    std::thread::scope(|s| {
        let spawned: Vec<_> = shares.map(|t| s.spawn(move || run(t))).collect();
        let mut results = vec![run(own)];
        results.extend(
            spawned
                .into_iter()
                .map(|h| h.join().expect("pqr worker panicked")),
        );
        results
    })
}

/// Applies `f` to each index chunk `[start, end)` of `0..len` on `workers`
/// threads and reduces the per-chunk results with `reduce`, in chunk order.
/// With `workers <= 1` (or a small `len`) `f` runs once over the whole
/// range on the calling thread.
pub fn par_chunk_reduce<R, F, G>(len: usize, workers: usize, identity: R, f: F, reduce: G) -> R
where
    R: Send,
    F: Fn(usize, usize) -> R + Sync,
    G: Fn(R, R) -> R,
{
    let workers = workers.max(1).min(len.max(1));
    if workers <= 1 || len < PAR_THRESHOLD {
        return reduce(identity, f(0, len));
    }
    let chunk = len.div_ceil(workers);
    fork_join((0..len).step_by(chunk), |start| {
        f(start, (start + chunk).min(len))
    })
    .into_iter()
    .fold(identity, reduce)
}

/// Fills `out[i] = f(i)` in parallel over contiguous chunks.
pub fn par_map_into<T, F>(out: &mut [T], f: F)
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    par_chunk_fill(out, worker_count(), |start, chunk| {
        for (off, slot) in chunk.iter_mut().enumerate() {
            *slot = f(start + off);
        }
    });
}

/// Fills contiguous chunks of `out` on `workers` threads: `f(start, chunk)`
/// writes the values for indices `start..start + chunk.len()` into `chunk`.
///
/// The chunk split is a deterministic function of `out.len()` and `workers`
/// only, and each chunk is written by exactly one closure call — so any
/// per-element pure fill is bit-identical at every worker count. With
/// `workers <= 1` (or a small `out`) the whole slice is filled in one call
/// on the calling thread — the exact serial loop callers compare against.
pub fn par_chunk_fill<T, F>(out: &mut [T], workers: usize, f: F)
where
    T: Send,
    F: Fn(usize, &mut [T]) + Sync,
{
    let len = out.len();
    let workers = workers.max(1).min(len.max(1));
    if workers <= 1 || len < PAR_THRESHOLD {
        f(0, out);
        return;
    }
    let chunk = len.div_ceil(workers);
    fork_join(out.chunks_mut(chunk).enumerate(), |(c, head)| {
        f(c * chunk, head)
    });
}

/// A dynamic index dispenser for irregular per-item costs (used by the
/// 96-block transfer pipeline where block sizes vary).
pub struct IndexDispenser {
    next: AtomicUsize,
    len: usize,
}

impl IndexDispenser {
    /// Dispenser over `0..len`.
    pub fn new(len: usize) -> Self {
        Self {
            next: AtomicUsize::new(0),
            len,
        }
    }

    /// Next unclaimed index, or `None` when exhausted.
    pub fn claim(&self) -> Option<usize> {
        let i = self.next.fetch_add(1, Ordering::Relaxed);
        (i < self.len).then_some(i)
    }
}

/// `workers` threads (the caller among them) each claim indices of `0..len`
/// until none is left and run `work` on them; results come back indexed.
fn dispense<R, F>(len: usize, workers: usize, work: F) -> Vec<R>
where
    R: Send,
    F: Fn(usize) -> R + Sync,
{
    let dispenser = IndexDispenser::new(len);
    let mut pairs: Vec<(usize, R)> = fork_join(0..workers, |_| {
        let mut local = Vec::new();
        while let Some(i) = dispenser.claim() {
            local.push((i, work(i)));
        }
        local
    })
    .into_iter()
    .flatten()
    .collect();
    pairs.sort_by_key(|(i, _)| *i);
    debug_assert_eq!(pairs.len(), len);
    pairs.into_iter().map(|(_, v)| v).collect()
}

/// Runs `work(i)` for every `i` in `0..len` on `workers` threads with dynamic
/// load balancing; results come back indexed by `i`.
pub fn par_dynamic<T, F>(len: usize, workers: usize, work: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let workers = workers.max(1).min(len.max(1));
    if workers <= 1 {
        return (0..len).map(&work).collect();
    }
    dispense(len, workers, work)
}

/// Runs `work(i, &mut items[i])` for every item on `workers` threads with
/// dynamic load balancing; results come back indexed by `i`.
///
/// The mutable-element sibling of [`par_dynamic`], for fan-out over
/// independently owned stateful units (the plan executor advances one
/// decode cursor per field this way). With `workers <= 1` the items are
/// processed sequentially in index order — callers relying on
/// `PQR_THREADS=1` determinism get exactly the serial loop.
pub fn par_dynamic_mut<T, R, F>(items: &mut [T], workers: usize, work: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(usize, &mut T) -> R + Sync,
{
    let workers = workers.max(1).min(items.len().max(1));
    if workers <= 1 {
        return items
            .iter_mut()
            .enumerate()
            .map(|(i, t)| work(i, t))
            .collect();
    }
    // one uncontended Mutex per element hands each worker exclusive &mut
    // access without raw slice partitioning
    let slots: Vec<Mutex<Option<&mut T>>> = items.iter_mut().map(|t| Mutex::new(Some(t))).collect();
    dispense(slots.len(), workers, |i| {
        let item = slots[i]
            .lock()
            .expect("slot poisoned")
            .take()
            .expect("each index claimed once");
        work(i, item)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chunk_reduce_sums_correctly() {
        let data: Vec<f64> = (0..100_000).map(|i| i as f64).collect();
        let total = par_chunk_reduce(
            data.len(),
            worker_count(),
            0.0f64,
            |s, e| data[s..e].iter().sum::<f64>(),
            |a, b| a + b,
        );
        let expect: f64 = data.iter().sum();
        assert_eq!(total, expect);
    }

    #[test]
    fn chunk_reduce_small_input_sequential_path() {
        let v = par_chunk_reduce(10, 4, 0usize, |s, e| e - s, |a, b| a + b);
        assert_eq!(v, 10);
    }

    #[test]
    fn chunk_reduce_max() {
        let data: Vec<f64> = (0..50_000).map(|i| ((i * 37) % 1000) as f64).collect();
        let m = par_chunk_reduce(
            data.len(),
            worker_count(),
            f64::NEG_INFINITY,
            |s, e| data[s..e].iter().copied().fold(f64::NEG_INFINITY, f64::max),
            f64::max,
        );
        assert_eq!(m, 999.0);
    }

    #[test]
    fn map_into_matches_sequential() {
        let mut par = vec![0u64; 100_000];
        par_map_into(&mut par, |i| (i as u64).wrapping_mul(0x9e3779b97f4a7c15));
        for (i, &v) in par.iter().enumerate() {
            assert_eq!(v, (i as u64).wrapping_mul(0x9e3779b97f4a7c15));
        }
    }

    #[test]
    fn chunk_fill_matches_serial_any_worker_count() {
        let fill = |workers| {
            let mut out = vec![0.0f64; 10_000];
            par_chunk_fill(&mut out, workers, |start, chunk| {
                for (k, slot) in chunk.iter_mut().enumerate() {
                    *slot = ((start + k) as f64).sqrt().sin();
                }
            });
            out
        };
        let serial = fill(1);
        for w in [2, 4, 7] {
            assert_eq!(fill(w), serial);
        }
    }

    #[test]
    fn caller_runs_a_share_and_results_keep_their_order() {
        use std::collections::HashSet;
        use std::sync::Barrier;
        use std::thread::{current, ThreadId};
        let caller = current().id();
        let len = 3 * PAR_THRESHOLD + 17;
        let distinct = |ids: &[ThreadId]| ids.iter().collect::<HashSet<_>>().len();
        for workers in [1usize, 2, 3, 8] {
            // chunked: one closure call per chunk, the first on the caller
            let ran = Mutex::new(Vec::new());
            let mut out = vec![0usize; len];
            par_chunk_fill(&mut out, workers, |start, chunk| {
                ran.lock()
                    .unwrap()
                    .push((start, chunk.len(), current().id()));
                for (k, slot) in chunk.iter_mut().enumerate() {
                    *slot = start + k;
                }
            });
            assert!(out.iter().enumerate().all(|(i, &v)| v == i));
            let mut ran = ran.into_inner().unwrap();
            ran.sort_by_key(|r| r.0);
            let chunk = len.div_ceil(workers);
            assert_eq!(ran.len(), len.div_ceil(chunk), "workers={workers}");
            for (c, &(start, n, _)) in ran.iter().enumerate() {
                assert_eq!((start, n), (c * chunk, chunk.min(len - c * chunk)));
            }
            assert_eq!(ran[0].2, caller, "workers={workers}");
            assert_eq!(
                distinct(&ran.iter().map(|r| r.2).collect::<Vec<_>>()),
                ran.len()
            );

            // dynamic: the first `workers` items meet at a barrier, so each
            // of exactly `workers` threads holds one of them — the caller
            // must be one, or the barrier never opens
            let barrier = Barrier::new(workers);
            let out = par_dynamic(64, workers, |i| {
                if i < workers {
                    barrier.wait();
                }
                (i, current().id())
            });
            assert!(out.iter().enumerate().all(|(i, r)| r.0 == i));
            let ids: Vec<ThreadId> = out.iter().map(|r| r.1).collect();
            assert!(ids.contains(&caller), "workers={workers}");
            assert_eq!(distinct(&ids), workers);

            let mut items: Vec<usize> = (0..64).collect();
            let ids = par_dynamic_mut(&mut items, workers, |i, v| {
                if i < workers {
                    barrier.wait();
                }
                *v += i;
                current().id()
            });
            assert!(items.iter().enumerate().all(|(i, &v)| v == 2 * i));
            assert!(ids.contains(&caller), "workers={workers}");
            assert_eq!(distinct(&ids), workers);
        }

        // chunks reduce in index order whichever thread finishes first, and
        // the helper that sizes itself from `worker_count()` fills in order
        let ranges = par_chunk_reduce(
            len,
            3,
            Vec::new(),
            |start, end| vec![(start, end, current().id())],
            |mut a, b| {
                a.extend(b);
                a
            },
        );
        assert_eq!(ranges[0].0, 0);
        assert_eq!(ranges[ranges.len() - 1].1, len);
        assert!(ranges.windows(2).all(|w| w[0].1 == w[1].0));
        assert_eq!(ranges[0].2, caller);
        let mut out = vec![0usize; len];
        par_map_into(&mut out, |i| i * 3);
        assert!(out.iter().enumerate().all(|(i, &v)| v == i * 3));
    }

    #[test]
    fn dispenser_claims_each_index_once() {
        let d = IndexDispenser::new(1000);
        let counts: Vec<AtomicUsize> = (0..1000).map(|_| AtomicUsize::new(0)).collect();
        std::thread::scope(|s| {
            for _ in 0..8 {
                let d = &d;
                let counts = &counts;
                s.spawn(move || {
                    while let Some(i) = d.claim() {
                        counts[i].fetch_add(1, Ordering::Relaxed);
                    }
                });
            }
        });
        assert!(counts.iter().all(|c| c.load(Ordering::Relaxed) == 1));
    }

    #[test]
    fn par_dynamic_preserves_order() {
        let out = par_dynamic(500, 8, |i| i * i);
        for (i, &v) in out.iter().enumerate() {
            assert_eq!(v, i * i);
        }
    }

    #[test]
    fn par_dynamic_mut_mutates_every_item_once() {
        let mut items: Vec<u64> = (0..500).collect();
        let out = par_dynamic_mut(&mut items, 8, |i, v| {
            *v += 1;
            *v * i as u64
        });
        for (i, &v) in items.iter().enumerate() {
            assert_eq!(v, i as u64 + 1);
            assert_eq!(out[i], v * i as u64);
        }
    }

    #[test]
    fn par_dynamic_mut_single_worker_matches_parallel() {
        let run = |workers| {
            let mut items: Vec<u64> = (0..200).map(|i| i * 3).collect();
            let out = par_dynamic_mut(&mut items, workers, |i, v| {
                *v = v.wrapping_mul(0x9e3779b97f4a7c15) ^ i as u64;
                *v
            });
            (items, out)
        };
        assert_eq!(run(1), run(7));
    }

    #[test]
    fn par_dynamic_mut_empty() {
        let mut items: Vec<u8> = Vec::new();
        let out: Vec<()> = par_dynamic_mut(&mut items, 4, |_, _| ());
        assert!(out.is_empty());
    }

    #[test]
    fn par_dynamic_zero_len() {
        let out: Vec<usize> = par_dynamic(0, 4, |i| i);
        assert!(out.is_empty());
    }

    #[test]
    fn par_dynamic_single_worker_matches() {
        let a = par_dynamic(100, 1, |i| i + 1);
        let b = par_dynamic(100, 7, |i| i + 1);
        assert_eq!(a, b);
    }
}
