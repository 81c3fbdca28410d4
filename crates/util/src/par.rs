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

use crate::error::Result;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex, OnceLock};

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

/// Least element count of a refining field that hires helpers into free
/// slots. Its units grow with it: an SZ rung decodes every value, a PZFP
/// plane carries up to a bit per element, a PMGARD plane a bit per
/// coefficient of its level (the finest level holds most of them), and a
/// rebuild slab is a fixed share of the field. A full plane of a field
/// this size RLE-decodes in about 40 µs on one thread, so two such units
/// repay a scoped spawn of about 35 µs; a smaller field refines alone.
pub const HELP_MIN_ELEMENTS: usize = 1 << 17;

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

/// One refinement round's threads, and the slots they give back.
///
/// A round starts `threads` threads (the caller among them), and each
/// claims whole items — fields — until none is left. A thread that finds
/// none gives its slot back; a field still refining hires a scoped helper
/// into a free slot at its next unit boundary ([`Crew::ordered`],
/// [`Crew::each`]), when at least two units nobody claimed are left and
/// the field is large enough to repay the spawn (`HELP_MIN_ELEMENTS`).
/// So a round never runs more threads than it
/// started, a slot never outlives its round, and nothing is spawned while
/// every thread is busy: a crew only lends threads the round already has,
/// and a round over a single field runs on one.
pub struct Crew {
    /// Threads the round starts.
    threads: usize,
    /// Slots of the round no thread holds.
    free: AtomicUsize,
    /// Threads of the round running now, and the most at once.
    running: AtomicUsize,
    peak: AtomicUsize,
    /// Least element count of a field that hires helpers.
    min_elements: usize,
}

impl Crew {
    /// A crew of `threads` threads (at least one) and no free slot.
    pub fn new(threads: usize) -> Self {
        Self {
            threads: threads.max(1),
            free: AtomicUsize::new(0),
            running: AtomicUsize::new(0),
            peak: AtomicUsize::new(0),
            min_elements: HELP_MIN_ELEMENTS,
        }
    }

    /// The crew of a caller that refines alone: it never hires.
    pub fn solo() -> Self {
        Self::new(1)
    }

    /// A one-thread crew that lends `spare` slots from the start, to
    /// fields of any size, so every item it runs hires helpers at its first
    /// unit boundary that leaves two units unclaimed. For tests that force
    /// the helped path on small fields: its results must equal a solo
    /// crew's.
    pub fn with_spare(spare: usize) -> Self {
        Self {
            free: AtomicUsize::new(spare),
            min_elements: 0,
            ..Self::new(1)
        }
    }

    /// The most threads of this crew that ran at once: the round's own,
    /// and the helpers hired into their slots.
    pub fn peak(&self) -> usize {
        self.peak.load(Ordering::Relaxed)
    }

    fn enter(&self) {
        let now = self.running.fetch_add(1, Ordering::Relaxed) + 1;
        self.peak.fetch_max(now, Ordering::Relaxed);
    }

    /// Gives the calling thread's slot back.
    fn leave(&self) {
        self.running.fetch_sub(1, Ordering::Relaxed);
        self.free.fetch_add(1, Ordering::Release);
    }

    /// Takes a free slot for a helper, if there is one.
    fn hire(&self) -> bool {
        let taken = self
            .free
            .fetch_update(Ordering::Acquire, Ordering::Relaxed, |f| f.checked_sub(1))
            .is_ok();
        if taken {
            self.enter();
        }
        taken
    }

    /// Runs `work(i, &mut items[i], self)` for every item on up to
    /// `threads` threads that claim items in index order; results come back
    /// indexed by `i`. With one thread the items run in index order on the
    /// calling thread — the exact serial loop.
    pub fn run<T, R, F>(&self, items: &mut [T], work: F) -> Vec<R>
    where
        T: Send,
        R: Send,
        F: Fn(usize, &mut T, &Crew) -> R + Sync,
    {
        let threads = self.threads.min(items.len().max(1));
        // one uncontended Mutex per element hands each thread exclusive
        // &mut access without raw slice partitioning
        let slots: Vec<Mutex<Option<&mut T>>> =
            items.iter_mut().map(|t| Mutex::new(Some(t))).collect();
        let dispenser = IndexDispenser::new(slots.len());
        let mut pairs: Vec<(usize, R)> = fork_join(0..threads, |_| {
            self.enter();
            let mut local = Vec::new();
            while let Some(i) = dispenser.claim() {
                let item = slots[i]
                    .lock()
                    .expect("slot poisoned")
                    .take()
                    .expect("each index claimed once");
                local.push((i, work(i, item, self)));
            }
            self.leave();
            local
        })
        .into_iter()
        .flatten()
        .collect();
        pairs.sort_by_key(|(i, _)| *i);
        pairs.into_iter().map(|(_, v)| v).collect()
    }

    /// Hires a helper running `help` into `scope` when a slot is free, at
    /// least two units are `unclaimed`, and the field has `elements` enough
    /// to repay the spawn.
    fn maybe_help<'scope>(
        &'scope self,
        scope: &'scope std::thread::Scope<'scope, '_>,
        unclaimed: usize,
        elements: usize,
        help: impl FnOnce() + Send + 'scope,
    ) {
        if unclaimed >= 2
            && elements >= self.min_elements
            && self.free.load(Ordering::Relaxed) > 0
            && self.hire()
        {
            scope.spawn(move || {
                help();
                self.leave();
            });
        }
    }

    /// Runs `apply(i, decode(i))` for every unit `i` of `0..units`, in
    /// order, on the calling thread, and stops at the first error `apply`
    /// returns. `decode` is a pure function of `i`: at each unit boundary
    /// of a field of `elements` elements, the caller hires helpers into
    /// free slots (see [`Crew`]), and they run `decode` on units ahead of
    /// it. Every thread holds at most one decoded unit that is not applied
    /// yet, and a unit's result is applied exactly once, whoever decoded
    /// it, so the outcome is the serial loop's. Only which units were
    /// decoded differs: when `apply` stops early, each thread may have
    /// decoded one unit past it.
    pub fn ordered<D, F, A>(
        &self,
        units: usize,
        elements: usize,
        decode: F,
        mut apply: A,
    ) -> Result<()>
    where
        D: Send,
        F: Fn(usize) -> D + Sync,
        A: FnMut(usize, D) -> Result<()>,
    {
        let line = Line {
            state: Mutex::new(LineState {
                next: 0,
                ready: (0..units).map(|_| None).collect(),
                stop: false,
            }),
            turn: Condvar::new(),
        };
        let (line, decode) = (&line, &decode);
        std::thread::scope(|s| {
            // the caller's own unit decoded ahead while a helper held the
            // one due: at most one, like every helper
            let mut own: Option<(usize, D)> = None;
            let mut out = Ok(());
            for i in 0..units {
                if self.free.load(Ordering::Relaxed) > 0 {
                    let unclaimed = units - line.lock().next.max(i);
                    self.maybe_help(s, unclaimed, elements, move || line.help(decode));
                }
                let decoded = match own.take() {
                    Some((j, d)) if j == i => d,
                    ahead => {
                        own = ahead;
                        line.take(i, &mut own, decode)
                    }
                };
                if let Err(e) = apply(i, decoded) {
                    out = Err(e);
                    break;
                }
            }
            line.lock().stop = true;
            line.turn.notify_all();
            out
        })
    }

    /// Runs `work(i, item)` once for every item of `items`, parts of a
    /// field of `elements` elements, in any order and on any thread: the
    /// calling thread takes them in turn, and at each item boundary hires
    /// helpers into free slots (see [`Crew`]).
    pub fn each<T, F>(&self, items: Vec<T>, elements: usize, work: F)
    where
        T: Send,
        F: Fn(usize, T) + Sync,
    {
        let len = items.len();
        let items: Vec<Mutex<Option<T>>> = items.into_iter().map(|t| Mutex::new(Some(t))).collect();
        let dispenser = IndexDispenser::new(len);
        let take = |i: usize| {
            let item = items[i].lock().expect("item poisoned").take();
            work(i, item.expect("each index claimed once"));
        };
        let (take, dispenser) = (&take, &dispenser);
        std::thread::scope(|s| {
            while let Some(i) = dispenser.claim() {
                // this item and the ones nobody claimed yet
                let unclaimed = len.saturating_sub(dispenser.next.load(Ordering::Relaxed)) + 1;
                self.maybe_help(s, unclaimed, elements, move || {
                    while let Some(j) = dispenser.claim() {
                        take(j);
                    }
                });
                take(i);
            }
        });
    }
}

/// What [`Crew::ordered`]'s threads share: the next unit nobody claimed,
/// the decoded units waiting to be applied, and whether the caller stopped.
struct Line<D> {
    state: Mutex<LineState<D>>,
    /// Signalled when a unit is decoded, taken, or the caller stops.
    turn: Condvar,
}

struct LineState<D> {
    next: usize,
    ready: Vec<Option<D>>,
    stop: bool,
}

impl<D> Line<D> {
    fn lock(&self) -> std::sync::MutexGuard<'_, LineState<D>> {
        self.state.lock().expect("line poisoned")
    }

    /// The caller's unit `i`: decoded here if nobody claimed it yet, else
    /// the helper's result — and while that is not ready, the caller
    /// decodes the next unclaimed unit into `own` (when it holds none)
    /// instead of waiting idle.
    fn take(&self, i: usize, own: &mut Option<(usize, D)>, decode: &impl Fn(usize) -> D) -> D {
        let mut st = self.lock();
        if st.next == i {
            st.next += 1;
            drop(st);
            return decode(i);
        }
        loop {
            if let Some(d) = st.ready[i].take() {
                self.turn.notify_all();
                return d;
            }
            if own.is_none() && st.next < st.ready.len() {
                let j = st.next;
                st.next += 1;
                drop(st);
                *own = Some((j, decode(j)));
                st = self.lock();
                continue;
            }
            st = self.turn.wait(st).expect("line poisoned");
        }
    }

    /// A helper's loop: claims the next unit, decodes it, hands it over,
    /// and waits until the caller has taken it before it claims another.
    fn help(&self, decode: &impl Fn(usize) -> D) {
        loop {
            let j = {
                let mut st = self.lock();
                if st.stop || st.next >= st.ready.len() {
                    return;
                }
                st.next += 1;
                st.next - 1
            };
            let decoded = decode(j);
            let mut st = self.lock();
            st.ready[j] = Some(decoded);
            self.turn.notify_all();
            while st.ready[j].is_some() && !st.stop {
                st = self.turn.wait(st).expect("line poisoned");
            }
            if st.stop {
                return;
            }
        }
    }
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
            let crew = Crew::new(workers);
            let ids = crew.run(&mut items, |i, v, _| {
                if i < workers {
                    barrier.wait();
                }
                *v += i;
                current().id()
            });
            assert_eq!(crew.peak(), workers);
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
    fn crew_run_mutates_every_item_once() {
        let mut items: Vec<u64> = (0..500).collect();
        let out = Crew::new(8).run(&mut items, |i, v, _| {
            *v += 1;
            *v * i as u64
        });
        for (i, &v) in items.iter().enumerate() {
            assert_eq!(v, i as u64 + 1);
            assert_eq!(out[i], v * i as u64);
        }
        let mut none: Vec<u8> = Vec::new();
        let out: Vec<()> = Crew::new(4).run(&mut none, |_, _, _| ());
        assert!(out.is_empty());
    }

    /// A unit of `spin` nanoseconds or so of busy work, returning `i`.
    fn busy(i: usize, spin: u64) -> usize {
        let t0 = std::time::Instant::now();
        while (t0.elapsed().as_nanos() as u64) < spin {
            std::hint::spin_loop();
        }
        i
    }

    /// Waits (up to 10 s) until a thread other than `caller` has logged
    /// itself in `log`.
    fn helper_seen(log: &Mutex<Vec<std::thread::ThreadId>>, caller: std::thread::ThreadId) {
        let t0 = std::time::Instant::now();
        while !log.lock().unwrap().iter().any(|&id| id != caller) && t0.elapsed().as_secs() < 10 {
            std::thread::yield_now();
        }
    }

    #[test]
    fn ordered_applies_every_unit_once_in_order_whoever_decodes() {
        use std::thread::current;
        let caller = current().id();
        for spare in [0usize, 1, 3] {
            let crew = Crew::with_spare(spare);
            crew.enter();
            let decoders = Mutex::new(Vec::new());
            let mut applied = Vec::new();
            crew.ordered(
                12,
                HELP_MIN_ELEMENTS,
                |i| {
                    decoders.lock().unwrap().push(current().id());
                    if i == 0 && spare > 0 {
                        // the caller's first unit waits for a helper, so a
                        // loaded machine cannot finish the line first
                        helper_seen(&decoders, caller);
                    }
                    busy(i, 200_000)
                },
                |i, d| {
                    assert_eq!(current().id(), caller);
                    assert_eq!(i, d);
                    applied.push(i);
                    Ok(())
                },
            )
            .unwrap();
            assert_eq!(applied, (0..12).collect::<Vec<_>>(), "spare={spare}");
            let ids = decoders.into_inner().unwrap();
            assert_eq!(ids.len(), 12, "spare={spare}: a unit decoded twice");
            let helped = ids.iter().any(|&id| id != caller);
            assert_eq!(helped, spare > 0, "spare={spare}");
            assert!(crew.peak() <= 1 + spare, "spare={spare}: {}", crew.peak());
            // every helper gave its slot back
            assert_eq!(crew.free.load(Ordering::Relaxed), spare);
        }
    }

    #[test]
    fn ordered_stops_at_the_first_failed_apply() {
        use crate::error::PqrError;
        for spare in [0usize, 2] {
            let crew = Crew::with_spare(spare);
            let mut applied = Vec::new();
            let out = crew.ordered(
                10,
                HELP_MIN_ELEMENTS,
                |i| busy(i, 50_000),
                |i, _| {
                    if i == 4 {
                        return Err(PqrError::CorruptStream("unit 4".into()));
                    }
                    applied.push(i);
                    Ok(())
                },
            );
            assert!(out.is_err());
            assert_eq!(applied, vec![0, 1, 2, 3], "spare={spare}");
            assert_eq!(crew.free.load(Ordering::Relaxed), spare);
        }
    }

    #[test]
    fn helpers_need_free_slots_two_units_and_a_large_field() {
        use std::thread::current;
        let caller = current().id();
        let run = |crew: &Crew, items: usize, elements: usize| {
            let threads = Mutex::new(Vec::new());
            crew.each((0..items).collect(), elements, |k, i: usize| {
                threads.lock().unwrap().push(current().id());
                if k == 0 && crew.running.load(Ordering::Relaxed) > 1 {
                    helper_seen(&threads, caller);
                }
                busy(i, 100_000);
            });
            threads
                .into_inner()
                .unwrap()
                .into_iter()
                .collect::<std::collections::HashSet<_>>()
        };
        // no free slot: the caller alone, however large the field
        assert_eq!(run(&Crew::solo(), 16, usize::MAX), [caller].into());
        // a round's crew with two slots given back
        let lending = || Crew {
            free: AtomicUsize::new(2),
            ..Crew::new(3)
        };
        // free slots, but a field too small to repay a spawn
        assert_eq!(run(&lending(), 16, HELP_MIN_ELEMENTS - 1), [caller].into());
        // free slots, but one unit: nothing for a helper to take
        assert_eq!(run(&lending(), 1, HELP_MIN_ELEMENTS), [caller].into());
        assert_eq!(run(&Crew::with_spare(2), 1, 0), [caller].into());
        for crew in [lending(), Crew::with_spare(2)] {
            crew.enter();
            assert!(run(&crew, 16, HELP_MIN_ELEMENTS).len() > 1);
            assert!(crew.peak() <= 3);
        }
        // the test crew hires for fields of any size
        let crew = Crew::with_spare(2);
        crew.enter();
        assert!(run(&crew, 16, 1).len() > 1);
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
