//! Shared per-field decode state: the cross-request decode cache of the
//! retrieval **service** layer.
//!
//! The paper's Algorithms 1–4 refine *per request*, but the decoded prefix
//! of a progressive representation is a monotone asset: whatever depth the
//! tightest request so far reached satisfies every looser request for
//! free. A [`ProgressStore`] holds, per field, one **master**
//! [`FieldReader`] (the only place fragments of that field are ever
//! fetched and decoded) plus its last published [`FieldSnapshot`]. Every
//! [`RetrievalEngine`](crate::engine::RetrievalEngine)'s fields are views
//! onto a store — a service's shared one, or the private, unbounded store
//! a solo engine opens for itself: they adopt snapshots and, when they
//! need a tighter bound than any previous request reached, advance the
//! master **once** past the delta — under the field's write lock, so
//! concurrent sessions racing for the same depth decode it exactly once.
//!
//! Two routines read fragments to refine, both here: the advance
//! (`refine_locked`) and the replay (`replay`), which rebuilds a master at
//! a progress marker — for a demoted field's rehydration and for a resumed
//! session's open alike.
//!
//! The store's counters make decode-once *assertable*: master decodes are
//! tallied in [`StoreStats::fragments_decoded`], and a refinement served
//! entirely from existing state bumps [`StoreStats::refine_reuses`]
//! without touching the source (which tests cross-check against the
//! source's own [`SourceStats`](crate::fragstore::SourceStats)).
//!
//! ## Bounded memory
//!
//! Decoded state is charged against a [`StoreBudget`] (see
//! [`crate::pager`]). When the budget trips, the store **demotes** cold
//! fields: the master's state flips from `Resident` (reader + snapshot)
//! to `Demoted` (just the [`ReaderProgress`] marker plus the published
//! bound/byte accounting — a few dozen bytes). Because every bound model
//! is exact and metadata-only, the next request **rehydrates**
//! transparently: a fresh master replays the exact restore plan for the
//! demoted depth — compressed-fragment RAM tier first, then the source —
//! and lands bit-identically on the evicted state. Sessions never observe
//! the difference; only [`StoreStats::evictions`],
//! [`StoreStats::rehydration_decodes`]/[`StoreStats::rehydration_bytes`]
//! and the source tallies move. [`StoreStats::fragments_decoded`] counts
//! *advance* decodes only, so decode-once accounting degrades exactly by
//! the explicitly-counted rehydration replays and nothing else.

use crate::fragstore::{Batch, FragmentId, FragmentSource, Manifest};
use crate::pager::{plan_evictions, EvictionCandidate, StoreBudget};
use crate::refactored::{FieldReader, ReaderProgress};
use pqr_util::error::{PqrError, Result};
use pqr_util::par::Crew;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock, RwLock, RwLockWriteGuard};

/// A published view of one field's shared decode state: everything a
/// session needs to serve requests at this depth without decoding.
#[derive(Debug, Clone)]
pub struct FieldSnapshot {
    /// The reconstruction at this depth (shared — adopting is an `Arc`
    /// clone; the allocation is the master reader's own buffer, so
    /// publication never copies it either).
    pub recon: Arc<Vec<f64>>,
    /// Guaranteed L∞ bound of `recon` versus the original.
    pub bound: f64,
    /// Cumulative bytes the master fetched to reach this state — what a
    /// fresh engine would have fetched to get here, which keeps session
    /// byte accounting identical to the unshared path.
    pub fetched: usize,
    /// True when the representation has no further fragments.
    pub exhausted: bool,
    /// The master reader's resumable progress marker at this depth.
    pub progress: ReaderProgress,
    /// True for the placeholder a session adopts from a **demoted** field:
    /// `recon` is the zero vector and `bound` the always-valid `max|x|`,
    /// while `fetched`/`progress` still carry the true demoted accounting.
    /// A cold view's first refinement always reads through the store
    /// (which rehydrates), so cold state is never served to a request.
    pub cold: bool,
    /// Monotone publication epoch: bumped every time the store publishes a
    /// new state for this field (advance, rehydration, demotion). A view
    /// holding the current epoch is holding the published snapshot, so a
    /// refinement it cannot improve is answered without locking or
    /// adopting anything.
    pub epoch: u64,
}

fn snapshot_of(reader: &FieldReader, epoch: u64) -> FieldSnapshot {
    FieldSnapshot {
        recon: reader.share_recon(),
        bound: reader.guaranteed_bound(),
        fetched: reader.total_fetched(),
        exhausted: reader.exhausted(),
        progress: reader.progress(),
        cold: false,
        epoch,
    }
}

/// `snap` without its reconstruction, marked cold: the marker and
/// accounting a demoted field keeps, and what a view holds — and a parked
/// cell publishes — while a master rebuilds the buffer in place. Sessions
/// never adopt one: [`ProgressStore::adopt`] hands out the cold
/// placeholder over the shared zero reconstruction instead.
fn released(snap: &FieldSnapshot) -> Arc<FieldSnapshot> {
    Arc::new(FieldSnapshot {
        recon: Arc::default(),
        cold: true,
        ..snap.clone()
    })
}

const FLAG_EXHAUSTED: u64 = 1;
const FLAG_COLD: u64 = 1 << 1;

/// `have_epoch` value that can never match a published epoch (epochs start
/// at 1 and increment), so [`ProgressStore::refine_to`] always adopts.
const NO_EPOCH: u64 = u64::MAX;

/// One field's publication cell. Lives **outside** the master field lock,
/// so sessions adopt, compare bounds and test exhaustion without ever
/// contending with a decode in progress. `meta` packs the epoch with the
/// exhausted/cold flags into one word, so the lock-free short-circuit
/// reads a *consistent* (epoch, flags) pair in a single load; the
/// snapshot itself sits behind a tiny `RwLock` that is only ever held for
/// the duration of an `Arc` clone or pointer swap — never across a fetch,
/// a decode, or a memcpy.
struct PublishedField {
    /// `(epoch << 2) | flags` of the published state (epoch is monotone,
    /// starts at 1 at open; flags are [`FLAG_EXHAUSTED`] | [`FLAG_COLD`]).
    meta: AtomicU64,
    /// `to_bits` of the store's **true** bound for the field. For a
    /// demoted field the published snapshot is the cold placeholder at
    /// `max|x|`, but the true demoted bound survives here so
    /// [`ProgressStore::field_bound`] and [`ProgressStore::can_improve`]
    /// stay metadata-exact without rehydrating. Advisory: stored before
    /// `meta`, and every decision taken from it alone is re-checked where
    /// it matters.
    bound_bits: AtomicU64,
    /// Recency tick of the last request that touched the field (the LRU
    /// axis of the eviction policy).
    last_tick: AtomicU64,
    snap: RwLock<Arc<FieldSnapshot>>,
}

fn pack_meta(epoch: u64, exhausted: bool, cold: bool) -> u64 {
    (epoch << 2) | (exhausted as u64 * FLAG_EXHAUSTED) | (cold as u64 * FLAG_COLD)
}

impl PublishedField {
    fn new(snap: Arc<FieldSnapshot>, exhausted: bool) -> Self {
        Self {
            meta: AtomicU64::new(pack_meta(snap.epoch, exhausted, false)),
            bound_bits: AtomicU64::new(snap.bound.to_bits()),
            last_tick: AtomicU64::new(0),
            snap: RwLock::new(snap),
        }
    }

    /// The published snapshot (an `Arc` clone under the tiny read lock).
    fn snapshot(&self) -> Arc<FieldSnapshot> {
        Arc::clone(&self.snap.read().unwrap_or_else(|e| e.into_inner()))
    }

    /// Publishes a new epoch: swaps the snapshot `Arc` in, stores the true
    /// bound, then the packed epoch+flags word last (release) — a reader
    /// that observes the new epoch also observes the new snapshot.
    /// Publications are serialized by the master field lock.
    fn publish(&self, snap: Arc<FieldSnapshot>, true_bound: f64, exhausted: bool, cold: bool) {
        let epoch = snap.epoch;
        *self.snap.write().unwrap_or_else(|e| e.into_inner()) = snap;
        self.bound_bits
            .store(true_bound.to_bits(), Ordering::Relaxed);
        self.meta
            .store(pack_meta(epoch, exhausted, cold), Ordering::Release);
    }

    /// The store's true bound for the field (survives demotion).
    fn bound(&self) -> f64 {
        f64::from_bits(self.bound_bits.load(Ordering::Relaxed))
    }

    fn epoch(&self) -> u64 {
        self.meta.load(Ordering::Acquire) >> 2
    }

    fn is_exhausted(&self) -> bool {
        self.meta.load(Ordering::Acquire) & FLAG_EXHAUSTED != 0
    }

    fn next_epoch(&self) -> u64 {
        self.epoch() + 1
    }
}

// one entry per field: a Demoted marker occupying a Resident-sized slot
// costs nothing at that scale, and boxing the hot variant would put an
// indirection on every refine
#[allow(clippy::large_enum_variant)]
enum MasterState {
    /// Decoded state in RAM: the only reader that ever fetches/decodes
    /// this field's fragments. Its published snapshot lives in the
    /// field's [`PublishedField`] cell, outside this lock.
    Resident { reader: FieldReader },
    /// Decoded state dropped by the pager: only the [`released`] snapshot
    /// survives — the exact restore marker plus the published accounting,
    /// so rehydration and session adoption both stay bit-faithful. A few
    /// dozen bytes against megabytes of decoded state.
    Demoted(Arc<FieldSnapshot>),
}

struct MasterField {
    state: MasterState,
    /// Bytes currently charged against the budget for this field.
    charged: u64,
}

/// The master reader of a field [`ProgressStore::ensure_resident`] has
/// just left resident.
fn resident(g: &mut MasterField) -> &mut FieldReader {
    match &mut g.state {
        MasterState::Resident { reader } => reader,
        MasterState::Demoted(_) => unreachable!("ensure_resident leaves the field resident"),
    }
}

pqr_util::tally! {
    /// Cumulative tallies of a [`ProgressStore`]. `resident_bytes` and
    /// `budget_bytes` are levels, not counts: their `since` is meaningless.
    pub struct StoreStats / AtomicStoreStats {
        /// Payload fragments the masters fetched and decoded **to advance** —
        /// each depth counted exactly once no matter how many sessions needed
        /// it, and never re-counted by rehydration replays.
        fragments_decoded,
        /// Refinement requests that had to advance a master (decode work).
        refine_advances,
        /// Refinement requests fully served by already-decoded state: zero
        /// source fetches, zero decodes.
        refine_reuses,
        /// Snapshots handed to session views (at open and on refinement).
        adoptions,
        /// Fields demoted by the pager (decoded state dropped to the marker).
        evictions,
        /// Fragments re-decoded while rehydrating demoted fields — the exact
        /// price of eviction, kept separate from `fragments_decoded`.
        rehydration_decodes,
        /// Bytes re-fetched **from the source** during rehydration (metadata +
        /// fragments the compressed RAM tier could not serve).
        rehydration_bytes,
        /// Snapshot publications (epoch bumps): every advance, rehydration and
        /// demotion publishes exactly one new epoch. A request served entirely
        /// from published state publishes nothing — the zero-copy assertion of
        /// the epoch design.
        snapshot_publishes,
        /// Refinements answered with "your epoch is current" — the caller's
        /// adopted snapshot already is the published one and nothing tighter
        /// is decodable, so the store takes no lock, clones no `Arc`, copies
        /// nothing.
        epoch_short_circuits,
        /// Refinement schedules the store batched. Every schedule is a
        /// lookup in the master's fetch table, so every one counts as a hit.
        plan_front_hits,
        /// Always 0: no schedule walks a bound model any more. Both front
        /// counters stay only while the benchmark and the serve stats frame
        /// read them (ROADMAP item 1 deletes them).
        plan_front_misses,
        /// Decoded bytes this store currently holds resident (its share of the
        /// budget's global tally).
        resident_bytes,
        /// The budget ceiling in bytes; 0 = unbounded.
        budget_bytes,
        /// Multilevel recompose axis passes the masters performed rebuilding
        /// reconstructions (open + advance + rehydration).
        recompose_passes,
        /// Master refinement rounds answered from the memoized reconstruction
        /// — zero decodes, zero recompose passes.
        recon_cache_hits,
        /// Wall-clock nanoseconds the masters spent rebuilding
        /// reconstructions.
        reconstruct_nanos,
    }
}

/// Shared, monotonically-deepening decode state for every field of one
/// archive. Cheap to share (`Arc`), safe to hit from many sessions: reads
/// are lock-free apart from a per-field `RwLock` read, and decodes
/// serialize per field so each bitplane is decoded once.
pub struct ProgressStore {
    source: Arc<dyn FragmentSource>,
    manifest: Manifest,
    fields: Vec<RwLock<MasterField>>,
    /// One publication cell per field, outside the master locks: the
    /// epoch-swapped snapshot plus the advisory atomics every lock-free
    /// read path answers from.
    published: Vec<PublishedField>,
    /// The zero reconstruction every cold placeholder shares — demoting N
    /// fields (or adopting a demoted field N times) costs one allocation
    /// total, not N.
    zero_recon: OnceLock<Arc<Vec<f64>>>,
    /// The byte budget decoded state is charged against (possibly shared
    /// with other stores — the serving layer hands one budget to every
    /// dataset).
    budget: Arc<StoreBudget>,
    /// This store's id within the budget's fragment-tier key namespace.
    store_id: u64,
    /// A solo engine's own store: one view per field, so an advance may
    /// [`park`](ProgressStore::park) the field's cell.
    private: bool,
    /// Recency clock for the eviction policy.
    tick: AtomicU64,
    /// The tallies [`ProgressStore::stats`] reports; `resident_bytes` is
    /// this store's own decoded-resident bytes (the per-dataset view of
    /// the budget's global tally).
    counters: AtomicStoreStats,
}

/// Snapshot of one reader's reconstruction counters, for delta capture
/// around every master operation (readers are dropped on demotion, so the
/// store absorbs their counters incrementally).
struct ReconCounters(u64, u64, u64);

fn recon_counters(reader: &FieldReader) -> ReconCounters {
    ReconCounters(
        reader.recompose_passes(),
        reader.recon_cache_hits(),
        reader.reconstruct_nanos(),
    )
}

impl ProgressStore {
    /// Opens a store over `source` with the budget taken from the
    /// `PQR_STORE_BUDGET` environment variable (unset = unbounded). One
    /// master reader per field — this fetches each field's metadata
    /// fragment, nothing more.
    pub fn open(source: Arc<dyn FragmentSource>) -> Result<Self> {
        Self::open_with(source, Arc::new(StoreBudget::from_env()?))
    }

    /// Opens a store charging its decoded state against an explicit
    /// (possibly shared) [`StoreBudget`].
    pub fn open_with(source: Arc<dyn FragmentSource>, budget: Arc<StoreBudget>) -> Result<Self> {
        Self::open_at(source, budget, &[], false)
    }

    /// [`ProgressStore::open_with`] with field `i`'s master replayed to
    /// `markers[i]` where one is given — how a resumed session opens its
    /// private store. `private` marks a solo engine's own store.
    pub(crate) fn open_at(
        source: Arc<dyn FragmentSource>,
        budget: Arc<StoreBudget>,
        markers: &[ReaderProgress],
        private: bool,
    ) -> Result<Self> {
        let manifest = source.manifest()?;
        let mut store = Self {
            source,
            manifest,
            fields: Vec::new(),
            published: Vec::new(),
            zero_recon: OnceLock::new(),
            store_id: budget.register_store(),
            private,
            budget,
            tick: AtomicU64::new(0),
            counters: AtomicStoreStats::default(),
        };
        // construct, charge and enforce one master at a time: a reader
        // (recon + decode cursor) costs its full footprint from the moment
        // it is opened, so charging the whole fleet before enforcing once
        // would spike a bounded open to the entire working set
        for i in 0..store.manifest.num_fields() {
            let reader = match markers.get(i) {
                Some(progress) => store.replay(i, progress)?,
                None => FieldReader::open(Arc::clone(&store.source), &store.manifest, i)?,
            };
            store.absorb_recon_counters(&reader, ReconCounters(0, 0, 0));
            let snap = Arc::new(snapshot_of(&reader, 1));
            let cost = master_cost(&reader);
            let exhausted = snap.exhausted;
            store.published.push(PublishedField::new(snap, exhausted));
            store.fields.push(RwLock::new(MasterField {
                state: MasterState::Resident { reader },
                charged: cost,
            }));
            store
                .counters
                .resident_bytes
                .fetch_add(cost, Ordering::Relaxed);
            store.budget.charge(cost);
            store.maybe_enforce(None);
        }
        Ok(store)
    }

    /// The fragment source the masters decode from.
    pub fn source(&self) -> &Arc<dyn FragmentSource> {
        &self.source
    }

    /// The archive manifest the store serves.
    pub fn manifest(&self) -> &Manifest {
        &self.manifest
    }

    /// Number of fields.
    pub fn num_fields(&self) -> usize {
        self.fields.len()
    }

    /// The budget this store charges decoded state against.
    pub fn budget(&self) -> &Arc<StoreBudget> {
        &self.budget
    }

    /// True for a solo engine's own store, false for a shared one.
    pub(crate) fn is_private(&self) -> bool {
        self.private
    }

    fn write_field(&self, field: usize) -> RwLockWriteGuard<'_, MasterField> {
        self.fields[field]
            .write()
            .unwrap_or_else(|e| e.into_inner())
    }

    fn cell(&self, field: usize) -> Result<&PublishedField> {
        self.published.get(field).ok_or_else(|| {
            PqrError::InvalidRequest(format!(
                "field {field} out of range ({} fields)",
                self.fields.len()
            ))
        })
    }

    /// Folds a master reader's reconstruction counters (above `base`) into
    /// the store tallies. Called after every operation that can rebuild —
    /// readers are dropped on demotion, so counters are absorbed
    /// incrementally, never at teardown.
    fn absorb_recon_counters(&self, reader: &FieldReader, base: ReconCounters) {
        self.counters
            .recompose_passes
            .fetch_add(reader.recompose_passes() - base.0, Ordering::Relaxed);
        self.counters
            .recon_cache_hits
            .fetch_add(reader.recon_cache_hits() - base.1, Ordering::Relaxed);
        self.counters
            .reconstruct_nanos
            .fetch_add(reader.reconstruct_nanos() - base.2, Ordering::Relaxed);
    }

    fn touch_cell(&self, cell: &PublishedField) {
        cell.last_tick.store(
            self.tick.fetch_add(1, Ordering::Relaxed) + 1,
            Ordering::Relaxed,
        );
    }

    /// The current snapshot of `field` (what a freshly opened session view
    /// adopts) — a lock-free read of the publication cell, never the
    /// master lock, so adoption cannot wait behind a decode. Demoted
    /// fields hand out a **cold** placeholder — true `fetched`/`progress`
    /// accounting over the shared zero reconstruction at the always-valid
    /// `max|x|` bound — instead of rehydrating, so opening a session on a
    /// large archive never re-materialises evicted fields the session may
    /// not touch; the first refinement through the store rehydrates on
    /// demand.
    pub fn adopt(&self, field: usize) -> Result<Arc<FieldSnapshot>> {
        let cell = self.cell(field)?;
        self.touch_cell(cell);
        self.counters.adoptions.fetch_add(1, Ordering::Relaxed);
        let snap = cell.snapshot();
        if snap.recon.len() == self.manifest.num_elements() {
            return Ok(snap);
        }
        // parked while its master rebuilds in place (see `park`)
        Ok(self.cold(field, &snap))
    }

    /// The cold placeholder for a state with `snap`'s accounting: the
    /// shared zero reconstruction at the always-valid `max|x|` bound.
    fn cold(&self, field: usize, snap: &FieldSnapshot) -> Arc<FieldSnapshot> {
        let max_abs = self.manifest.fields[field].max_abs;
        let zero = self
            .zero_recon
            .get_or_init(|| Arc::new(vec![0.0; self.manifest.num_elements()]));
        Arc::new(FieldSnapshot {
            recon: Arc::clone(zero),
            bound: max_abs,
            exhausted: snap.exhausted && snap.bound >= max_abs,
            cold: true,
            ..snap.clone()
        })
    }

    /// The store's current guaranteed bound for `field` — a single atomic
    /// load, exact even while the field is demoted (the true bound
    /// survives in the publication cell; no rehydration, no lock).
    pub fn field_bound(&self, field: usize) -> f64 {
        self.published
            .get(field)
            .map_or(f64::INFINITY, |c| c.bound())
    }

    /// True when a session view at `current_bound` could still improve by
    /// reading through the store: the store holds (or can re-reach) a
    /// deeper state already, or its master is not exhausted. Two atomic
    /// loads — no lock, and asking never rehydrates.
    pub fn can_improve(&self, field: usize, current_bound: f64) -> bool {
        self.published
            .get(field)
            .map(|c| !c.is_exhausted() || c.bound() < current_bound)
            .unwrap_or(false)
    }

    /// Refines `field` to bound `eb`, sharing work across sessions: if the
    /// store is already at least this deep the call is a lock-free read of
    /// the publication cell (no fetch, no decode, no master lock);
    /// otherwise the master decodes exactly the delta — read through one
    /// [`FragmentSource::read_many`] — under the field's write lock, and a
    /// new epoch is published by `Arc` swap. A demoted field is rehydrated
    /// first (compressed RAM tier, then source) and the replay tallied in
    /// the rehydration counters.
    pub fn refine_to(&self, field: usize, eb: f64) -> Result<Arc<FieldSnapshot>> {
        match self.published_answer(self.cell(field)?, eb, NO_EPOCH) {
            Some(answer) => Ok(answer.expect("NO_EPOCH never matches a published epoch")),
            None => self.advance(field, eb, &Crew::solo()),
        }
    }

    /// The answer a refinement to `eb` gets from the publication cell
    /// alone, for a caller holding the snapshot of epoch `have_epoch`
    /// ([`ProgressStore::refine_to`] holds none; a [`FieldView`] holds
    /// the one it adopted): `Some(None)` keeps the caller's snapshot,
    /// `Some(Some(..))` hands it the published one, and `None` means the
    /// master has to advance — by then the clone taken to decide is gone,
    /// so it cannot pin the reconstruction the advance rebuilds.
    fn published_answer(
        &self,
        cell: &PublishedField,
        eb: f64,
        have_epoch: u64,
    ) -> Option<Option<Arc<FieldSnapshot>>> {
        // Lock-free epoch short-circuit: one load of the packed
        // (epoch, flags) word. When the caller's epoch is current and the
        // published state is exhausted, the caller already holds the
        // representation floor — the store only ever deepens, so no later
        // epoch can be tighter and there is nothing to adopt. The packing
        // makes the pair consistent by construction; a concurrent publish
        // at worst makes the comparison fail and we fall through.
        let meta = cell.meta.load(Ordering::Acquire);
        if meta == pack_meta(have_epoch, true, false) {
            self.touch_cell(cell);
            self.counters.refine_reuses.fetch_add(1, Ordering::Relaxed);
            self.counters
                .epoch_short_circuits
                .fetch_add(1, Ordering::Relaxed);
            return Some(None);
        }
        // Published-snapshot fast path: the tiny snap read-lock for an
        // `Arc` clone — never the master lock, so a decode in progress on
        // this field cannot block it. Decisions are taken from the
        // immutable snapshot itself, so they cannot race.
        let snap = cell.snapshot();
        if snap.cold || (snap.bound > eb && !snap.exhausted) {
            return None;
        }
        self.touch_cell(cell);
        self.counters.refine_reuses.fetch_add(1, Ordering::Relaxed);
        if snap.epoch == have_epoch {
            self.counters
                .epoch_short_circuits
                .fetch_add(1, Ordering::Relaxed);
            return Some(None);
        }
        self.counters.adoptions.fetch_add(1, Ordering::Relaxed);
        Some(Some(snap))
    }

    /// Advances the master of `field` to `eb` (or rehydrates it), with
    /// `crew`'s free slots to hire decode helpers into, then runs the
    /// eviction policy with the field pinned.
    fn advance(&self, field: usize, eb: f64, crew: &Crew) -> Result<Arc<FieldSnapshot>> {
        let out = self.refine_locked(field, eb, crew);
        self.maybe_enforce(Some(field));
        out
    }

    fn refine_locked(&self, field: usize, eb: f64, crew: &Crew) -> Result<Arc<FieldSnapshot>> {
        let mut g = self.write_field(field);
        let cell = &self.published[field];
        self.touch_cell(cell);
        self.ensure_resident(&mut g, field)?;
        let mut published = cell.snapshot();
        let bound = resident(&mut g).guaranteed_bound();
        if published.cold || bound.to_bits() != published.bound.to_bits() {
            // the master's certified state moved without a publication: it
            // advanced under a request that then failed (see below), or a
            // panic left the cell parked. What it certifies now is what
            // sessions get — and what the schedule is planned from
            published = self.publish_master(&mut g, field);
        }
        // another session may have decoded this depth while we waited (or
        // the rehydrated depth already satisfies the request)
        if published.bound <= eb || published.exhausted {
            self.counters.refine_reuses.fetch_add(1, Ordering::Relaxed);
            self.counters.adoptions.fetch_add(1, Ordering::Relaxed);
            return Ok(published);
        }
        drop(published);
        let reader = resident(&mut g);
        // batch the delta schedule, a range of the master's fetch table; a
        // failed batch degrades to the reader's per-fragment fallback
        // fetches
        let plan = reader.plan_refine_to(eb);
        self.counters
            .plan_front_hits
            .fetch_add(1, Ordering::Relaxed);
        let batch = self.read_tiered(field, &plan);
        let parked = self.private && !plan.is_empty() && self.park(field);
        let before = reader.fragments_decoded();
        let recon_base = recon_counters(reader);
        let refined = reader.refine_with(eb, batch, crew);
        self.absorb_recon_counters(reader, recon_base);
        let delta = reader.fragments_decoded() - before;
        self.counters
            .fragments_decoded
            .fetch_add(delta, Ordering::Relaxed);
        if let Err(e) = refined {
            // the master keeps what it decoded before the fault, folded
            // into what it certifies; the next request to get here
            // publishes it — at once if the cell is parked
            if parked {
                self.publish_master(&mut g, field);
            }
            return Err(e);
        }
        self.counters.adoptions.fetch_add(1, Ordering::Relaxed);
        if delta == 0 {
            // nothing decoded ⇒ reader state (and hence the snapshot) is
            // unchanged (and, with an empty front, not parked): keep the
            // published `Arc` — no republish — and count the request as a
            // reuse
            self.counters.refine_reuses.fetch_add(1, Ordering::Relaxed);
            return Ok(cell.snapshot());
        }
        self.counters
            .refine_advances
            .fetch_add(1, Ordering::Relaxed);
        Ok(self.publish_master(&mut g, field))
    }

    /// Publishes the resident master's state as the field's next epoch and
    /// swaps the old epoch's budget charge for the new one's in a single
    /// operation.
    fn publish_master(&self, g: &mut MasterField, field: usize) -> Arc<FieldSnapshot> {
        let reader = resident(g);
        let cell = &self.published[field];
        let snap = Arc::new(snapshot_of(reader, cell.next_epoch()));
        cell.publish(Arc::clone(&snap), snap.bound, snap.exhausted, false);
        self.counters
            .snapshot_publishes
            .fetch_add(1, Ordering::Relaxed);
        let cost = master_cost(reader);
        self.recharge(g, cost);
        snap
    }

    /// Swaps the published snapshot of `field` for its [`released`] form at
    /// the same epoch when nothing but the cell and the master holds its
    /// reconstruction, so the master's next rebuild reuses that buffer
    /// instead of allocating (and, for an incremental backend, copying) a
    /// fresh one. A session that clones the snapshot meanwhile pins the
    /// buffer again, and the rebuild then allocates, as it would have
    /// anyway. Returns whether the cell was parked; the advance publishes
    /// after, and until then adoption hands out the cold placeholder.
    /// Only a private store parks: there each field has one view, which
    /// is the one advancing. In a shared store a session arriving
    /// mid-rebuild would find the cell cold and queue behind the decode
    /// instead of adopting the published state, so a shared master
    /// rebuilds into a fresh buffer.
    fn park(&self, field: usize) -> bool {
        let cell = &self.published[field];
        let snap = cell.snapshot();
        // the cell and `snap` hold the snapshot; the master and the
        // snapshot hold the reconstruction
        if Arc::strong_count(&snap) > 2 || Arc::strong_count(&snap.recon) > 2 {
            return false;
        }
        cell.publish(released(&snap), snap.bound, snap.exhausted, true);
        true
    }

    /// Reads fragments `indices` of `field` through one storage-ordered
    /// [`FragmentSource::read_many`] and offers every payload to the
    /// budget's compressed RAM tier, in storage order. An empty schedule
    /// reads nothing; a failed read gives an empty batch, and the reader
    /// it is handed to fetches fragment by fragment instead.
    fn read_tiered(&self, field: usize, indices: &[u32]) -> Batch {
        let mut ids: Vec<FragmentId> = indices
            .iter()
            .map(|&index| FragmentId {
                field: field as u32,
                index,
            })
            .collect();
        self.manifest.storage_order(&mut ids);
        let mut batch = Batch::new();
        if ids.is_empty() {
            return batch;
        }
        if let Ok(payloads) = self.source.read_many(&ids) {
            for (id, payload) in ids.iter().zip(payloads) {
                self.budget
                    .tier_put((self.store_id, id.field, id.index), Arc::clone(&payload));
                batch.insert(id.index, payload);
            }
        }
        batch
    }

    /// The one replay routine: a fresh master for `field`, brought to
    /// `progress` by the marker's exact restore plan — payloads from the
    /// compressed RAM tier first, the misses read as one batch — so it
    /// lands bit-identically where the marker was taken. Serves both a
    /// demoted field's rehydration and a resumed session's open, and
    /// tallies the replayed fragments and the source bytes the tier could
    /// not absorb. A marker that does not fit the field, or records bytes
    /// its replay cannot account for, is refused.
    fn replay(&self, field: usize, progress: &ReaderProgress) -> Result<FieldReader> {
        let mut reader = FieldReader::open(Arc::clone(&self.source), &self.manifest, field)?;
        let plan = reader.plan_restore(progress)?;
        // whatever opening fetched (a metadata fragment, where the
        // representation has one) is source traffic the replay caused
        let mut refetched = reader.total_fetched() as u64;
        let (mut batch, mut missing) = (Batch::new(), Vec::new());
        for &index in &plan {
            match self.budget.tier_get(&(self.store_id, field as u32, index)) {
                Some(payload) => {
                    batch.insert(index, payload);
                }
                None => missing.push(index),
            }
        }
        batch.extend(self.read_tiered(field, &missing));
        reader.restore_with(progress, batch)?;
        // the restore moved every tier miss from the source, batched or
        // (after a failed batch) one by one: the directory records its bytes
        for &index in &missing {
            let id = FragmentId {
                field: field as u32,
                index,
            };
            refetched += self.manifest.fragment(id).map_or(0, |f| f.len);
        }
        self.counters
            .rehydration_decodes
            .fetch_add(plan.len() as u64, Ordering::Relaxed);
        self.counters
            .rehydration_bytes
            .fetch_add(refetched, Ordering::Relaxed);
        Ok(reader)
    }

    /// Rebuilds a demoted field's decoded state bit-identically through
    /// [`ProgressStore::replay`] and publishes it.
    fn ensure_resident(&self, g: &mut MasterField, field: usize) -> Result<()> {
        let MasterState::Demoted(d) = &g.state else {
            return Ok(());
        };
        let d = Arc::clone(d);
        let reader = self.replay(field, &d.progress)?;
        self.absorb_recon_counters(&reader, ReconCounters(0, 0, 0));
        debug_assert_eq!(
            reader.guaranteed_bound().to_bits(),
            d.bound.to_bits(),
            "rehydration must land on the demoted bound exactly"
        );
        debug_assert_eq!(reader.total_fetched(), d.fetched);
        // publish the rehydrated state as a new epoch: cold views adopt the
        // warm snapshot again
        g.state = MasterState::Resident { reader };
        self.publish_master(g, field);
        Ok(())
    }

    /// Swaps this field's budget charge to `cost` at epoch retirement —
    /// one delta-sized budget operation per publication, so the global
    /// tally never transits through zero (a discharge+charge pair would
    /// let a concurrent enforcement pass see the field as free).
    fn recharge(&self, g: &mut MasterField, cost: u64) {
        self.budget.swap_charge(g.charged, cost);
        if cost >= g.charged {
            self.counters
                .resident_bytes
                .fetch_add(cost - g.charged, Ordering::Relaxed);
        } else {
            self.counters
                .resident_bytes
                .fetch_sub(g.charged - cost, Ordering::Relaxed);
        }
        g.charged = cost;
    }

    /// Demotes `field` if it is resident and not currently locked by a
    /// refinement: decoded state is dropped (sessions holding its
    /// snapshots keep them alive — that memory is session-owned), the
    /// marker survives, and the budget is credited. Returns whether a
    /// demotion happened. Public so operators and chaos tests can force
    /// eviction schedules; normal pressure goes through the budget.
    pub fn demote(&self, field: usize) -> bool {
        let Some(lock) = self.fields.get(field) else {
            return false;
        };
        let Ok(mut g) = lock.try_write() else {
            return false;
        };
        self.demote_locked(&mut g, field)
    }

    fn demote_locked(&self, g: &mut MasterField, field: usize) -> bool {
        let MasterState::Resident { reader } = &g.state else {
            return false;
        };
        // publish the cold placeholder as a new epoch; the true demoted
        // bound and exhaustion survive in the cell's advisory word, so
        // metadata answers stay exact without rehydrating
        let cell = &self.published[field];
        let d = released(&snapshot_of(reader, cell.next_epoch()));
        cell.publish(self.cold(field, &d), d.bound, d.exhausted, true);
        self.counters
            .snapshot_publishes
            .fetch_add(1, Ordering::Relaxed);
        g.state = MasterState::Demoted(d);
        self.budget.discharge(g.charged);
        self.counters
            .resident_bytes
            .fetch_sub(g.charged, Ordering::Relaxed);
        g.charged = 0;
        self.counters.evictions.fetch_add(1, Ordering::Relaxed);
        true
    }

    /// Forces a full, unpinned enforcement pass, demoting cold fields
    /// until the decoded tier is back under its ceiling. Normal pressure
    /// runs automatically after every refinement with the active field
    /// pinned (see [`ProgressStore::demote`] for the policy rationale);
    /// this entry point is for quiesce points — operators, tests, or a
    /// serving layer between request bursts — where nothing is hot.
    pub fn enforce(&self) {
        self.maybe_enforce(None);
    }

    /// Runs the eviction policy when the budget is over its decoded
    /// ceiling. Lock-friendly by construction: candidates are gathered
    /// with `try_read`, demotions use `try_write`, so enforcement can
    /// never block or deadlock a refinement — a busy field simply is not
    /// a candidate this round.
    ///
    /// `exempt` pins the field whose refinement triggered enforcement: a
    /// request's engine re-touches its target field across refinement
    /// rounds, and evicting it mid-request would replay its whole decode
    /// every round. The pin means the decoded tier can exceed its ceiling
    /// by at most one field — the slack the budget's accounting (and the
    /// bench gates) allow for.
    fn maybe_enforce(&self, exempt: Option<usize>) {
        if !self.budget.over_decoded_limit() {
            return;
        }
        let need = self.budget.decoded_overage();
        let mut candidates = Vec::new();
        for (i, lock) in self.fields.iter().enumerate() {
            if Some(i) == exempt {
                continue;
            }
            let Ok(g) = lock.try_read() else { continue };
            if let MasterState::Resident { reader } = &g.state {
                let cost = reader
                    .plan_restore(&reader.progress())
                    .map(|ids| {
                        ids.iter()
                            .map(|&ix| self.manifest.fields[i].fragments[ix as usize].len)
                            .sum()
                    })
                    .unwrap_or(u64::MAX);
                candidates.push(EvictionCandidate {
                    field: i,
                    last_tick: self.published[i].last_tick.load(Ordering::Relaxed),
                    rehydration_cost: cost,
                    resident_bytes: g.charged,
                });
            }
        }
        for f in plan_evictions(candidates, need) {
            if let Ok(mut g) = self.fields[f].try_write() {
                self.demote_locked(&mut g, f);
            }
            if !self.budget.over_decoded_limit() {
                break;
            }
        }
    }

    /// Resolution-progressive view of `field` from the store's current
    /// (deepest) decode state — see
    /// [`FieldReader::reconstruct_at_resolution`]. Rehydrates a demoted
    /// field first.
    pub fn reconstruct_at_resolution(
        &self,
        field: usize,
        drop_finest: usize,
    ) -> Result<(Vec<f64>, Vec<usize>)> {
        self.cell(field)?; // range check
        {
            let g = self.fields[field].read().unwrap_or_else(|e| e.into_inner());
            if let MasterState::Resident { reader } = &g.state {
                return reader.reconstruct_at_resolution(drop_finest);
            }
        }
        let out = {
            let mut g = self.write_field(field);
            self.ensure_resident(&mut g, field)?;
            resident(&mut g).reconstruct_at_resolution(drop_finest)
        };
        self.maybe_enforce(Some(field));
        out
    }

    /// Decoded bytes this store currently holds resident.
    pub fn resident_bytes(&self) -> u64 {
        self.counters.resident_bytes.load(Ordering::Relaxed)
    }

    /// Cumulative store tallies.
    pub fn stats(&self) -> StoreStats {
        StoreStats {
            budget_bytes: self.budget.limit_bytes(),
            ..self.counters.snapshot()
        }
    }
}

/// One field of a session, as a view onto a [`ProgressStore`]: the
/// snapshot it adopted, which it never decodes or fetches past itself —
/// every refinement reads through the store, so a request the store
/// already reached costs zero fetches and zero decodes.
pub(crate) struct FieldView {
    store: Arc<ProgressStore>,
    field: usize,
    snap: Arc<FieldSnapshot>,
    /// Refinements answered from what the view already held.
    recon_cache_hits: u64,
}

impl FieldView {
    /// A view on `field`, adopting the store's current snapshot (cold for
    /// a demoted field — see [`ProgressStore::adopt`]).
    pub(crate) fn open(store: &Arc<ProgressStore>, field: usize) -> Result<Self> {
        Ok(Self {
            snap: store.adopt(field)?,
            store: Arc::clone(store),
            field,
            recon_cache_hits: 0,
        })
    }

    /// The adopted snapshot: reconstruction, bound, byte accounting and
    /// marker.
    pub(crate) fn snapshot(&self) -> &FieldSnapshot {
        &self.snap
    }

    /// Refinements answered from what the view already held.
    pub(crate) fn recon_cache_hits(&self) -> u64 {
        self.recon_cache_hits
    }

    /// True when the store can neither serve nor decode anything deeper
    /// than what the view holds.
    pub(crate) fn exhausted(&self) -> bool {
        !self.store.can_improve(self.field, self.snap.bound)
    }

    /// Refines to bound `eb` through the store, which advances its master
    /// only past what any previous request reached: the view pays at most
    /// the delta, and nothing when the store is already this deep. An
    /// advance may hire decode helpers into `crew`'s free slots. Returns
    /// the newly fetched bytes.
    pub(crate) fn refine_to(&mut self, eb: f64, crew: &Crew) -> Result<usize> {
        if eb < 0.0 || eb.is_nan() {
            return Err(PqrError::InvalidRequest(format!("bad error bound {eb}")));
        }
        let before = self.snap.fetched;
        // whatever is held already satisfies the request — for a cold view
        // (adopted from a demoted field) that is the placeholder bound
        // max|x| over a zero reconstruction: a sound, if coarse, certified
        // state, answered without wiring the field back in
        if self.snap.bound <= eb {
            self.recon_cache_hits += 1;
            self.store
                .counters
                .refine_reuses
                .fetch_add(1, Ordering::Relaxed);
            return Ok(0);
        }
        let store = &self.store;
        match store.published_answer(&store.published[self.field], eb, self.snap.epoch) {
            Some(Some(next)) => self.snap = next,
            Some(None) => self.recon_cache_hits += 1,
            None => {
                // let go of the held reconstruction for the advance: when
                // no other session holds it either, the master rebuilds
                // that very buffer instead of a copy
                self.snap = released(&self.snap);
                match store.advance(self.field, eb, crew) {
                    Ok(next) => self.snap = next,
                    Err(e) => {
                        self.snap = store.adopt(self.field)?;
                        return Err(e);
                    }
                }
            }
        }
        Ok(self.snap.fetched - before)
    }
}

/// Budget cost of one resident field: the master reader's decoded state
/// ([`FieldReader::resident_bytes`]) plus the snapshot header. The
/// published reconstruction is the reader's own buffer — publication is an
/// `Arc` share, never a copy — so that allocation is charged exactly once,
/// through the reader.
fn master_cost(reader: &FieldReader) -> u64 {
    (std::mem::size_of::<FieldSnapshot>() + reader.resident_bytes()) as u64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::field::Dataset;
    use crate::refactored::Scheme;

    fn shared_source(scheme: Scheme) -> Arc<dyn FragmentSource> {
        let n = 1200;
        let mut ds = Dataset::new(&[n]);
        ds.add_field("u", (0..n).map(|i| (i as f64 * 0.01).sin() * 8.0).collect())
            .unwrap();
        ds.add_field("v", (0..n).map(|i| (i as f64 * 0.02).cos() * 3.0).collect())
            .unwrap();
        let ladder: Vec<f64> = (1..=8).map(|i| 10f64.powi(-i)).collect();
        Arc::new(ds.refactor_with_bounds(scheme, &ladder).unwrap())
    }

    #[test]
    fn masters_decode_each_depth_once() {
        for scheme in Scheme::extended() {
            let source = shared_source(scheme);
            let store = ProgressStore::open(Arc::clone(&source)).unwrap();
            let tight = store.refine_to(0, 1e-5).unwrap();
            let after_tight = store.stats();
            let fetched_after_tight = source.stats().fetched_bytes;
            assert!(after_tight.fragments_decoded > 0, "{}", scheme.name());
            assert!(tight.bound <= 1e-5);

            // a looser request afterwards: pure reuse, no new source bytes
            let loose = store.refine_to(0, 1e-2).unwrap();
            let after_loose = store.stats();
            assert_eq!(
                after_loose.fragments_decoded,
                after_tight.fragments_decoded,
                "{}: looser request must not decode",
                scheme.name()
            );
            assert_eq!(after_loose.refine_reuses, after_tight.refine_reuses + 1);
            assert_eq!(source.stats().fetched_bytes, fetched_after_tight);
            // the reuse serves the deepest snapshot (monotone state)
            assert_eq!(loose.bound, tight.bound);
            assert!(Arc::ptr_eq(&loose.recon, &tight.recon));
        }
    }

    #[test]
    fn concurrent_refines_share_the_decode() {
        let source = shared_source(Scheme::PmgardHb);
        let store = Arc::new(ProgressStore::open(Arc::clone(&source)).unwrap());
        std::thread::scope(|s| {
            for k in 0..8 {
                let store = Arc::clone(&store);
                let eb = if k % 2 == 0 { 1e-5 } else { 1e-2 };
                s.spawn(move || {
                    let snap = store.refine_to(0, eb).unwrap();
                    assert!(snap.bound <= eb);
                });
            }
        });
        // sequential oracle: one cold store refined straight to the
        // tightest bound decodes the same fragments the race did
        let oracle_src = shared_source(Scheme::PmgardHb);
        let oracle = ProgressStore::open(oracle_src).unwrap();
        oracle.refine_to(0, 1e-5).unwrap();
        // the racing store may pass through the loose depth first (one
        // extra advance), but never decodes a fragment twice
        assert_eq!(
            store.stats().fragments_decoded,
            oracle.stats().fragments_decoded
        );
        assert_eq!(
            store.field_bound(0).to_bits(),
            oracle.field_bound(0).to_bits()
        );
    }

    #[test]
    fn out_of_range_field_is_an_error() {
        let store = ProgressStore::open(shared_source(Scheme::Psz3Delta)).unwrap();
        assert!(store.adopt(9).is_err());
        assert!(store.refine_to(9, 1e-3).is_err());
        assert!(!store.can_improve(9, 0.0));
    }

    #[test]
    fn demotion_and_rehydration_are_bit_exact() {
        for scheme in Scheme::extended() {
            let source = shared_source(scheme);
            let store = ProgressStore::open(Arc::clone(&source)).unwrap();
            let deep = store.refine_to(0, 1e-5).unwrap();
            let decoded_before = store.stats().fragments_decoded;
            let resident_before = store.resident_bytes();

            assert!(
                store.demote(0),
                "{}: resident field must demote",
                scheme.name()
            );
            assert!(
                !store.demote(0),
                "{}: demoting twice is a no-op",
                scheme.name()
            );
            assert!(
                store.resident_bytes() < resident_before,
                "{}: demotion must release budget",
                scheme.name()
            );
            // metadata answers survive demotion without rehydrating
            assert_eq!(store.field_bound(0).to_bits(), deep.bound.to_bits());
            let (demoted, other) = (store.adopt(0).unwrap(), store.adopt(1).unwrap());
            let s = store.stats();
            assert_eq!(s.evictions, 1);
            assert_eq!(s.rehydration_decodes, 0, "{}", scheme.name());

            // a request at the old depth rehydrates bit-identically
            let back = store.refine_to(0, 1e-5).unwrap();
            assert_eq!(back.recon, deep.recon, "{}", scheme.name());
            assert_eq!(back.bound.to_bits(), deep.bound.to_bits());
            assert_eq!(back.fetched, deep.fetched);
            assert_eq!(back.progress, deep.progress);
            let s = store.stats();
            assert_eq!(
                s.fragments_decoded,
                decoded_before,
                "{}: rehydration must not count as advance decodes",
                scheme.name()
            );
            assert!(s.rehydration_decodes > 0, "{}", scheme.name());

            // resuming at the demoted marker replays to the same state
            let mut w = pqr_util::byteio::ByteWriter::new();
            w.put_raw(b"PQRP");
            w.put_u32(2);
            demoted.progress.write(&mut w);
            other.progress.write(&mut w);
            let cfg = crate::engine::EngineConfig::default();
            let resumed =
                crate::engine::RetrievalEngine::resume_from_source(source, cfg, &w.finish())
                    .unwrap();
            let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(
                bits(resumed.reconstruction(0)),
                bits(&back.recon),
                "{}",
                scheme.name()
            );
            assert_eq!(resumed.field_bound(0).to_bits(), back.bound.to_bits());
            assert_eq!(resumed.total_fetched(), back.fetched + other.fetched);
            assert_eq!(resumed.reader_progress(0), back.progress);
        }
    }

    /// Serves `inner`, except that while the switch is on `bad`'s payload
    /// comes back empty: every batch lands, and decoding `bad` fails.
    struct EmptyPayload {
        inner: Arc<dyn FragmentSource>,
        bad: FragmentId,
        on: std::sync::atomic::AtomicBool,
    }

    impl FragmentSource for EmptyPayload {
        fn manifest(&self) -> Result<Manifest> {
            self.inner.manifest()
        }
        fn fetch(&self, id: FragmentId) -> Result<Arc<Vec<u8>>> {
            if id == self.bad && self.on.load(Ordering::SeqCst) {
                return Ok(Arc::new(Vec::new()));
            }
            self.inner.fetch(id)
        }
    }

    #[test]
    fn failed_refine_and_rehydration_surface_the_fault() {
        let source = Arc::new(EmptyPayload {
            inner: shared_source(Scheme::Psz3Delta),
            bad: FragmentId { field: 0, index: 2 },
            on: true.into(),
        });
        let budget = Arc::new(StoreBudget::unbounded());
        let store = ProgressStore::open_with(source.clone(), budget).unwrap();
        // an advance batches the whole front and fails on its third fragment
        assert!(store.refine_to(0, 0.0).is_err(), "the fault must surface");
        // a rehydration replays the same front and fails there too
        source.on.store(false, Ordering::SeqCst);
        store.refine_to(0, 0.0).unwrap();
        assert!(store.demote(0));
        source.on.store(true, Ordering::SeqCst);
        assert!(store.refine_to(0, 0.0).is_err(), "the fault must surface");
    }

    #[test]
    fn one_fragment_advances_reach_the_ram_tier() {
        for scheme in [Scheme::Psz3Delta, Scheme::PmgardOb, Scheme::PmgardHb] {
            let name = scheme.name();
            let source = shared_source(scheme);
            let budget = Arc::new(StoreBudget::with_limit(1 << 30));
            let store = ProgressStore::open_with(Arc::clone(&source), budget).unwrap();
            let manifest = store.manifest().clone();
            let open_fetches = || {
                let before = source.stats().fetches;
                FieldReader::open(Arc::clone(&source), &manifest, 0).unwrap();
                source.stats().fetches - before
            };
            let opened = open_fetches();
            let reader = FieldReader::open(Arc::clone(&source), &manifest, 0).unwrap();
            let steps = reader.table().rows();
            // four advances of one fragment each, then one of several
            for &(_, eb) in &steps[..4] {
                let decoded = store.stats().fragments_decoded;
                store.refine_to(0, eb).unwrap();
                assert_eq!(store.stats().fragments_decoded, decoded + 1, "{name}");
            }
            let deep = steps[(steps.len() + 4) / 2].1;
            let decoded = store.stats().fragments_decoded;
            store.refine_to(0, deep).unwrap();
            assert!(store.stats().fragments_decoded > decoded + 1, "{name}");
            assert!(store.demote(0));
            // every payload rehydrates from the tier: the source serves
            // only what opening a reader fetches
            let before = source.stats().fetches;
            store.refine_to(0, deep).unwrap();
            assert_eq!(source.stats().fetches - before, opened, "{name}");
        }
    }

    #[test]
    fn exhausted_views_short_circuit_without_publishing() {
        let source = shared_source(Scheme::PmgardHb);
        let store = Arc::new(ProgressStore::open(Arc::clone(&source)).unwrap());
        let mut view = FieldView::open(&store, 0).unwrap();
        // drive the shared state to its representation floor through the view
        view.refine_to(0.0, &Crew::solo()).unwrap();
        let base = store.stats();
        assert!(base.snapshot_publishes > 0);
        let held = Arc::clone(&view.snapshot().recon);

        // repeat-tolerance session: every repeat is answered by the packed
        // epoch word — no adoption, no publish, no recon clone
        for _ in 0..4 {
            assert_eq!(view.refine_to(0.0, &Crew::solo()).unwrap(), 0);
        }
        let after = store.stats();
        assert!(
            after.epoch_short_circuits >= base.epoch_short_circuits + 4,
            "repeats must hit the epoch short-circuit: {} -> {}",
            base.epoch_short_circuits,
            after.epoch_short_circuits
        );
        assert_eq!(after.adoptions, base.adoptions, "no adoption on repeats");
        assert_eq!(
            after.snapshot_publishes, base.snapshot_publishes,
            "no publish on repeats"
        );
        assert!(
            Arc::ptr_eq(&held, &view.snapshot().recon),
            "the view must keep the very same reconstruction Arc"
        );
    }

    #[test]
    fn cold_adoption_never_rehydrates() {
        let source = shared_source(Scheme::PmgardHb);
        let store = ProgressStore::open(Arc::clone(&source)).unwrap();
        let deep = store.refine_to(0, 1e-4).unwrap();
        store.demote(0);
        let bytes_before = source.stats().fetched_bytes;
        let cold = store.adopt(0).unwrap();
        assert!(cold.cold);
        assert_eq!(cold.fetched, deep.fetched, "true accounting survives");
        assert_eq!(cold.progress, deep.progress);
        assert!(cold.recon.iter().all(|&x| x == 0.0));
        assert_eq!(
            source.stats().fetched_bytes,
            bytes_before,
            "adopting a demoted field must not touch the source"
        );
        assert_eq!(store.stats().rehydration_decodes, 0);
    }

    #[test]
    fn tight_budget_evicts_and_stays_bounded() {
        let source = shared_source(Scheme::PmgardHb);
        // room for roughly one decoded field (each ≈ 1200·8·4 B here)
        let budget = Arc::new(StoreBudget::with_limit(48 << 10));
        let store = ProgressStore::open_with(Arc::clone(&source), Arc::clone(&budget)).unwrap();
        store.refine_to(0, 1e-6).unwrap();
        store.refine_to(1, 1e-6).unwrap();
        let s = store.stats();
        assert!(s.evictions > 0, "two deep fields cannot both stay resident");
        // pressure enforcement pins the field being refined, so the tier
        // may end one field over its ceiling; an unpinned pass at a
        // quiesce point always recovers it
        store.enforce();
        assert!(
            !budget.over_decoded_limit(),
            "resident {} over decoded ceiling of {}",
            budget.resident_bytes(),
            budget.limit_bytes()
        );
        // and the answers still match an unbounded oracle byte-for-byte
        let oracle = ProgressStore::open(shared_source(Scheme::PmgardHb)).unwrap();
        for field in 0..2 {
            let a = store.refine_to(field, 1e-6).unwrap();
            let b = oracle.refine_to(field, 1e-6).unwrap();
            assert_eq!(a.recon, b.recon, "field {field}");
            assert_eq!(a.bound.to_bits(), b.bound.to_bits());
            assert_eq!(a.fetched, b.fetched);
        }
    }
}
