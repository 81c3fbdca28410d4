//! QoI-preserved data retrieval — Algorithms 2, 3 and 4 of the paper.
//!
//! The engine holds one view per field onto a
//! [`ProgressStore`] — the private store a solo engine opens for itself,
//! or a service's shared one — and iterates:
//!
//! 1. **Refine** every involved field to its currently requested
//!    primary-data bound (`progressive_construct`, Alg. 2 line 10).
//! 2. **Estimate** the QoI error at every point from the reconstructed
//!    values and the *achieved* bounds, using the §IV calculus
//!    (Alg. 2 lines 13–24); record the max and its location. A state the
//!    engine has just estimated is not scanned again: the executor asks
//!    through `RetrievalEngine::estimate`, which remembers its last result.
//! 3. If some tolerance is exceeded, **tighten** the bounds of the involved
//!    fields by the factor `c` until the estimate *at the worst point*
//!    passes (Alg. 4 / `reassign_eb`), then go to 1.
//!
//! The initial bounds come from `assign_eb` (Alg. 3): each field starts at
//! `range · min(1, min τ_rel over the QoIs that read it)`.
//!
//! Masked points (§V-A) are certified exact zeros on the masked fields:
//! the estimator pins `x = 0, ε = 0` there, which is what keeps √-type QoIs
//! boundable (see [`crate::mask`]).
//!
//! Termination: every tightening divides at least one requested bound by
//! `c > 1`; readers are exhausted after finitely many fetches, and once
//! every involved reader is exhausted with tolerances still unmet the
//! engine returns `satisfied = false` ("full-fidelity representation has
//! been retrieved", Alg. 2's other exit).
//!
//! The refine→estimate→tighten loop itself lives in [`crate::plan`]:
//! [`RetrievalEngine::retrieve`] resolves its specs into a
//! [`crate::plan::RetrievalPlan`] and runs [`RetrievalEngine::execute`],
//! whose rounds refine every field through its store. The store reads each field's delta through one
//! [`FragmentSource::read_many`] — single-target requests, multi-QoI plans,
//! shared sessions and resumed ones share exactly one fetch code path.

// The point-scan loops index several parallel arrays (recons, eps, x) by
// the same point/field index; iterator zips would obscure the correspondence
// with the paper's pseudocode.
#![allow(clippy::needless_range_loop)]

use crate::field::{Dataset, RefactoredDataset};
use crate::fragstore::{FragmentSource, InMemorySource, Manifest, SourceStats};
use crate::pager::StoreBudget;
use crate::refactored::ReaderProgress;
use crate::store::{FieldView, ProgressStore};
use pqr_qoi::program::{sound_estimate, Columns};
use pqr_qoi::{BoundConfig, QoiExpr, QoiProgram};
use pqr_util::error::{PqrError, Result};
use pqr_util::par::{par_chunk_fill, par_chunk_reduce, Crew};
use std::sync::Arc;

/// A requested QoI with its tolerance.
#[derive(Debug, Clone)]
pub struct QoiSpec {
    /// Display name (used in reports and the figure harnesses).
    pub name: String,
    /// The derivable QoI expression over the dataset's field indices.
    pub expr: QoiExpr,
    /// Relative tolerance τ (fraction of the QoI value range).
    pub tol_rel: f64,
    /// QoI value range (refactor-time metadata; 0 ⇒ treat τ as absolute).
    pub range: f64,
    /// Optional half-open index range the tolerance applies to (region of
    /// interest). `None` = the whole domain. Fragments remain global — the
    /// representations stream whole-field segments — but the *error-control
    /// scope* shrinks to the region, so fewer segments satisfy the request.
    pub region: Option<(usize, usize)>,
}

impl QoiSpec {
    /// Builds a spec with a relative tolerance, computing the QoI range from
    /// the original dataset (archive side — Fig. 1's refactor-time metadata).
    pub fn relative(name: &str, expr: QoiExpr, tol_rel: f64, ds: &Dataset) -> Result<Self> {
        let range = ds.qoi_range(&expr)?;
        Ok(Self {
            name: name.to_string(),
            expr,
            tol_rel,
            range,
            region: None,
        })
    }

    /// Builds a spec from a known QoI range (retrieval side, range comes
    /// from stored metadata).
    pub fn with_range(name: &str, expr: QoiExpr, tol_rel: f64, range: f64) -> Self {
        Self {
            name: name.to_string(),
            expr,
            tol_rel,
            range,
            region: None,
        }
    }

    /// Builds a spec with an absolute tolerance.
    pub fn absolute(name: &str, expr: QoiExpr, tol_abs: f64) -> Self {
        Self {
            name: name.to_string(),
            expr,
            tol_rel: tol_abs,
            range: 0.0,
            region: None,
        }
    }

    /// Restricts the tolerance to the half-open linearized index range
    /// `lo..hi` — region-of-interest error control (an extension in the
    /// direction of the paper's related work on RoI-preserving compression).
    /// Points outside the region carry no error constraint from this spec.
    pub fn restrict_to(mut self, lo: usize, hi: usize) -> Self {
        self.region = Some((lo, hi));
        self
    }

    /// The absolute tolerance this spec demands.
    pub fn tol_abs(&self) -> f64 {
        if self.range > 0.0 {
            self.tol_rel * self.range
        } else {
            self.tol_rel
        }
    }

    /// A copy with a different relative tolerance (for progressive request
    /// series).
    pub fn at_tolerance(&self, tol_rel: f64) -> Self {
        Self {
            tol_rel,
            ..self.clone()
        }
    }
}

/// Engine knobs. Defaults mirror the paper's implementation choices.
#[derive(Debug, Clone, Copy)]
pub struct EngineConfig {
    /// Bound-reduction factor `c` of Algorithm 4 (paper: 1.5).
    pub reduction_factor: f64,
    /// Cap on outer refine→estimate iterations.
    pub max_iterations: usize,
    /// Cap on per-QoI tightenings inside one reassign (guards the
    /// `∞`-estimate spiral that the mask is designed to prevent).
    pub max_tightenings: usize,
    /// QoI bound evaluation options (√ estimator variant, float guard).
    pub bound_config: BoundConfig,
    /// Worker-thread budget: how many fields refine at once and how many
    /// chunks the per-point QoI scans split into during plan execution
    /// here, and how many fields encode at once on the write path
    /// (`Dataset::refactor_with_workers` takes the same value; the CLI
    /// feeds both from one `--workers` flag). A round starts one thread
    /// per pending field, up to this count; a thread that finds no field
    /// left helps the fields still refining ([`pqr_util::par::Crew`]), and
    /// each field encodes on one thread, so workers beyond the field count
    /// help only the scans. `0` (the default)
    /// resolves to [`pqr_util::par::worker_count`] (the `PQR_THREADS`
    /// knob); `1` runs everything on the calling thread, which is what a
    /// caller that parallelises at a coarser granularity (the per-block
    /// transfer pipeline) wants. Every count is bit-identical.
    pub workers: usize,
}

impl Default for EngineConfig {
    fn default() -> Self {
        Self {
            reduction_factor: 1.5,
            max_iterations: 64,
            max_tightenings: 512,
            bound_config: BoundConfig::default(),
            workers: 0,
        }
    }
}

/// The QoI-preserving progressive retrieval engine (Fig. 1's retrieval box).
///
/// Every byte the engine moves is pulled through a
/// [`FragmentSource`] — a serialized archive in memory or a lazily opened
/// file drive the identical refinement code path. The engine **owns** a
/// shared handle to its source (`Arc`), so engines carry no borrows: they
/// move across threads, outlive the scope that opened them, and many can
/// share one source concurrently (its [`SourceStats`] tally atomically).
///
/// Every engine's fields are views onto per-field decode state in a
/// [`ProgressStore`] that advances monotonically. A solo engine opens a
/// private, unbounded store; engines built with
/// [`RetrievalEngine::with_store`] share one, so a request the store
/// already reached performs zero fetches and zero decodes.
pub struct RetrievalEngine {
    store: Arc<ProgressStore>,
    views: Vec<FieldView>,
    cfg: EngineConfig,
    /// The last estimate [`RetrievalEngine::estimate`] scanned.
    last_scan: Option<RememberedScan>,
    /// Tests only: every round runs on one thread that lends `.0` slots
    /// from the start, and `.1` is the most threads a round ran at once.
    #[cfg(test)]
    forced: Option<(usize, usize)>,
}

/// A [`RetrievalEngine::scan_qois`] result, with the
/// [`RetrievalEngine::scan_key`] it was a function of.
struct RememberedScan {
    key: Vec<u8>,
    scans: Vec<(f64, usize)>,
}

/// What [`RetrievalEngine::estimate`] hands the plan executor.
pub(crate) struct Estimate {
    /// `(max estimate, first argmax)` per target.
    pub scans: Vec<(f64, usize)>,
    /// The per-field bounds the estimate holds at: every view's bound, read
    /// once.
    pub bounds: Vec<f64>,
    /// True when `scans` is the remembered result and no scan ran.
    pub reused: bool,
}

impl RetrievalEngine {
    /// Opens readers on every field of an encoded archive, serialized into
    /// an [`InMemorySource`] the engine owns — the container path every
    /// archive is read through. To share one source across engines, hand
    /// [`RetrievalEngine::from_source`] an `Arc` you already hold.
    pub fn new(archive: &RefactoredDataset, cfg: EngineConfig) -> Result<Self> {
        Self::from_source(Arc::new(InMemorySource::new(archive.to_bytes())?), cfg)
    }

    /// Opens a solo engine on every field of the archive behind `source`,
    /// fetching only the manifest and the per-field metadata fragments.
    pub fn from_source(source: Arc<dyn FragmentSource>, cfg: EngineConfig) -> Result<Self> {
        Self::solo(source, cfg, &[])
    }

    /// A solo engine: views onto a private, unbounded store, its field
    /// `i` replayed to `markers[i]` where one is given.
    fn solo(
        source: Arc<dyn FragmentSource>,
        cfg: EngineConfig,
        markers: &[ReaderProgress],
    ) -> Result<Self> {
        let budget = Arc::new(StoreBudget::unbounded());
        let store = ProgressStore::open_at(source, budget, markers, true)?;
        Self::build(Arc::new(store), cfg)
    }

    /// Opens an engine whose fields are **views onto a shared
    /// [`ProgressStore`]**: refinement reads through (and monotonically
    /// advances) the store's per-field decode state. All engines on one
    /// store collectively decode each bitplane exactly once.
    pub fn with_store(store: Arc<ProgressStore>, cfg: EngineConfig) -> Result<Self> {
        Self::build(store, cfg)
    }

    fn build(store: Arc<ProgressStore>, cfg: EngineConfig) -> Result<Self> {
        let manifest = store.manifest();
        if cfg.reduction_factor <= 1.0 {
            return Err(PqrError::InvalidRequest(format!(
                "reduction factor must exceed 1, got {}",
                cfg.reduction_factor
            )));
        }
        if let Some(mask) = &manifest.mask {
            if mask.len() != manifest.num_elements() {
                return Err(PqrError::ShapeMismatch(format!(
                    "mask covers {} points, archive has {}",
                    mask.len(),
                    manifest.num_elements()
                )));
            }
        }
        let views = (0..manifest.num_fields())
            .map(|i| FieldView::open(&store, i))
            .collect::<Result<Vec<_>>>()?;
        Ok(Self {
            store,
            views,
            cfg,
            last_scan: None,
            #[cfg(test)]
            forced: None,
        })
    }

    /// The fragment source this engine fetches through.
    pub fn source(&self) -> &dyn FragmentSource {
        self.store.source().as_ref()
    }

    /// A shared handle to the engine's fragment source (for spawning more
    /// engines or querying stats after the engine is gone).
    pub fn shared_source(&self) -> Arc<dyn FragmentSource> {
        Arc::clone(self.store.source())
    }

    /// The shared [`ProgressStore`] this engine refines through, if it was
    /// built with [`RetrievalEngine::with_store`]. Solo engines return
    /// `None`.
    pub fn shared_store(&self) -> Option<&Arc<ProgressStore>> {
        (!self.store.is_private()).then_some(&self.store)
    }

    /// The store this engine refines through: a solo engine's private one
    /// or the shared one it was built with.
    pub(crate) fn store(&self) -> &ProgressStore {
        &self.store
    }

    /// Payload fragments this engine fetched and decoded: a solo engine's
    /// advances plus resume replays. Engines on a shared store report zero
    /// — decodes happen once, in the store ([`crate::store::StoreStats`]).
    pub fn fragments_decoded(&self) -> u64 {
        if !self.store.is_private() {
            return 0;
        }
        let s = self.store.stats();
        s.fragments_decoded + s.rehydration_decodes
    }

    /// Refinement rounds this engine's views answered from the snapshot
    /// they already held (the store's masters count their own in
    /// [`crate::store::StoreStats::recon_cache_hits`]).
    pub(crate) fn recon_cache_hits(&self) -> u64 {
        self.views.iter().map(FieldView::recon_cache_hits).sum()
    }

    /// The archive manifest the engine retrieves against.
    pub fn manifest(&self) -> &Manifest {
        self.store.manifest()
    }

    /// Creates an engine restored to a previously saved progress blob
    /// (from [`RetrievalEngine::save_progress`]) by deterministically
    /// replaying the recorded fetches. The resumed engine continues exactly
    /// where the saved one stopped: same reconstructions, same guaranteed
    /// bounds, same cumulative byte accounting — retrieval sessions survive
    /// process restarts (Fig. 1's long-lived retrieval side).
    ///
    /// The archive is serialized into an [`InMemorySource`], as in
    /// [`RetrievalEngine::new`].
    pub fn resume(archive: &RefactoredDataset, cfg: EngineConfig, progress: &[u8]) -> Result<Self> {
        let source = InMemorySource::new(archive.to_bytes())?;
        Self::resume_from_source(Arc::new(source), cfg, progress)
    }

    /// [`RetrievalEngine::resume`] over an arbitrary fragment source.
    ///
    /// Resuming is opening the private store at the saved markers: each
    /// field's master is replayed by the store's one replay routine — the
    /// one a demoted field rehydrates through — reading its restore
    /// schedule as one batch, with per-fragment fetches when that fails.
    /// A marker that does not fit its field is refused.
    pub fn resume_from_source(
        source: Arc<dyn FragmentSource>,
        cfg: EngineConfig,
        progress: &[u8],
    ) -> Result<Self> {
        let fields = source.manifest()?.num_fields();
        let mut r = pqr_util::byteio::ByteReader::new(progress);
        if r.get_raw(4)? != b"PQRP" {
            return Err(PqrError::CorruptStream("bad progress magic".into()));
        }
        let nv = r.get_u32()? as usize;
        if nv != fields {
            return Err(PqrError::ShapeMismatch(format!(
                "progress has {nv} fields, archive has {fields}"
            )));
        }
        let markers = (0..nv)
            .map(|_| ReaderProgress::read(&mut r))
            .collect::<Result<Vec<_>>>()?;
        if r.remaining() != 0 {
            return Err(PqrError::CorruptStream("trailing progress bytes".into()));
        }
        Self::solo(source, cfg, &markers)
    }

    /// Serializes the engine's retrieval progress (per-field fetch markers)
    /// for [`RetrievalEngine::resume`]. Small — a few bytes per field — and
    /// independent of the data size.
    pub fn save_progress(&self) -> Vec<u8> {
        let mut w = pqr_util::byteio::ByteWriter::new();
        w.put_raw(b"PQRP");
        w.put_u32(self.views.len() as u32);
        for v in &self.views {
            v.snapshot().progress.write(&mut w);
        }
        w.finish()
    }

    /// Current reconstruction of field `i`.
    pub fn reconstruction(&self, i: usize) -> &[f64] {
        &self.views[i].snapshot().recon
    }

    /// The resumable progress marker of field `i` (the per-field unit
    /// [`RetrievalEngine::save_progress`] concatenates).
    pub fn reader_progress(&self, i: usize) -> ReaderProgress {
        self.views[i].snapshot().progress
    }

    /// Resolution-progressive reconstruction of field `i` from the bytes
    /// fetched so far: drops the `drop_finest` finest multilevel levels and
    /// returns the coarse subgrid (PMGARD's second progression axis, §II).
    /// Errors for representations without a resolution hierarchy.
    pub fn reconstruction_at_resolution(
        &self,
        i: usize,
        drop_finest: usize,
    ) -> Result<(Vec<f64>, Vec<usize>)> {
        self.store.reconstruct_at_resolution(i, drop_finest)
    }

    /// Achieved primary-data bound of field `i`.
    pub fn field_bound(&self, i: usize) -> f64 {
        self.views[i].snapshot().bound
    }

    /// Cumulative fetched bytes (metadata + fragments + mask).
    pub fn total_fetched(&self) -> usize {
        let mask_bytes = self
            .manifest()
            .mask
            .as_ref()
            .map_or(0, |m| m.storage_bytes());
        self.views
            .iter()
            .map(|v| v.snapshot().fetched)
            .sum::<usize>()
            + mask_bytes
    }

    /// Runs Algorithm 2 until every spec's tolerance is met or the archive
    /// is exhausted. Engines persist across calls, so issuing progressively
    /// tighter requests retrieves incrementally (§III-B).
    ///
    /// The one-call form of plan execution: the specs resolve into a
    /// [`crate::plan::RetrievalPlan`] without a byte budget and
    /// [`RetrievalEngine::execute`] drives the refine→estimate→tighten
    /// loop with batched fragment I/O. Resolve the plan yourself to cap
    /// the bytes it may fetch.
    pub fn retrieve(&mut self, qois: &[QoiSpec]) -> Result<crate::plan::PlanReport> {
        let plan = crate::plan::RetrievalPlan::resolve(self, qois.to_vec(), None)?;
        self.execute(&plan)
    }

    /// The engine's views, in field order (crate-internal: the plan
    /// executor reports through these; refinement goes through
    /// [`RetrievalEngine::refine_round`]).
    pub(crate) fn views(&self) -> &[FieldView] {
        &self.views
    }

    /// The engine configuration (crate-internal).
    pub(crate) fn config(&self) -> &EngineConfig {
        &self.cfg
    }

    /// The effective worker count: fields refined at once, scan chunks.
    fn workers(&self) -> usize {
        match self.cfg.workers {
            0 => pqr_util::par::worker_count(),
            n => n,
        }
    }

    /// Executes one refinement round: refines every field with a finite
    /// requested bound through its store — in parallel across fields,
    /// since each field advances under its own lock. The round's crew
    /// starts one thread per pending field, up to the worker count; a
    /// thread that finds no field left lends its slot to the fields still
    /// refining, which hire helpers into it at their next unit boundary
    /// (decoding fragments ahead, rebuilding block slabs). A failing field
    /// stops further work: no field starts once a failure is flagged
    /// (sequentially, that is a short-circuit; in parallel, in-flight
    /// fields finish), and the first error in field order is returned.
    ///
    /// Every worker count produces bit-identical reconstructions and byte
    /// accounting (asserted by `prop_plan_equivalence` and the engine tests
    /// below).
    pub(crate) fn refine_round(&mut self, requested: &[f64]) -> Result<()> {
        // Fewer than two fields whose certified bound is still above the
        // request never benefit from parallelism: coalesced serve rounds
        // mostly arrive here with every field already published at depth
        // (adoption-only rounds), and spawning scoped threads to confirm
        // "nothing to do" per field would cost more than the work. Such
        // rounds run on the calling thread — bit-identical by construction,
        // each field refines alone, and a crew of one lends nothing.
        let pending = self
            .views
            .iter()
            .enumerate()
            .filter(|(j, view)| {
                requested
                    .get(*j)
                    .is_some_and(|eb| eb.is_finite() && view.snapshot().bound > *eb)
            })
            .count();
        let crew = if pending < 2 {
            Crew::solo()
        } else {
            Crew::new(self.workers().min(pending))
        };
        #[cfg(test)]
        let crew = match self.forced {
            Some((spare, _)) => Crew::with_spare(spare),
            None => crew,
        };
        let failed = std::sync::atomic::AtomicBool::new(false);
        let results = crew.run(&mut self.views, |j, view, crew| {
            if failed.load(std::sync::atomic::Ordering::Relaxed) {
                return Ok(()); // another field already failed: stop fetching
            }
            match requested.get(j) {
                Some(&eb) if eb.is_finite() => view
                    .refine_to(eb, crew)
                    .map(|_| ())
                    .inspect_err(|_| failed.store(true, std::sync::atomic::Ordering::Relaxed)),
                _ => Ok(()),
            }
        });
        #[cfg(test)]
        if let Some((_, peak)) = &mut self.forced {
            *peak = (*peak).max(crew.peak());
        }
        results.into_iter().collect()
    }

    /// Cumulative fetch tallies of the engine's source.
    pub fn source_stats(&self) -> SourceStats {
        self.source().stats()
    }

    /// `recons` (one reconstruction per field) with the mask overlay, in
    /// the column form a compiled [`QoiProgram`] reads.
    fn columns<'a>(&'a self, recons: &'a [&'a [f64]]) -> Columns<'a> {
        let cols = Columns::new(recons);
        match &self.manifest().mask {
            Some(m) => cols.zeroed(m.fields(), m.words()),
            None => cols,
        }
    }

    /// Max estimated error and its location (the first point attaining it)
    /// for each QoI, under the current reconstructions and the given
    /// per-field bounds.
    ///
    /// The targets compile into one [`QoiProgram`] per call, so subtrees
    /// they share are estimated once per point, and only where some
    /// target's region wants them. Each worker chunk runs
    /// [`QoiProgram::max_bounds`] on it: a branch-and-bound search that
    /// evaluates only the leaves of points whose hull can still beat a
    /// target's running maximum. The maxima and argmaxes are those of
    /// [`QoiExpr::eval_bounded`] at every point, bit for bit. A NaN
    /// estimate — `∞·0` inside a product bound once a value overflows, or
    /// a NaN reconstruction — bounds nothing and counts as `∞`.
    pub fn scan_qois(&self, qois: &[QoiSpec], eps: &[f64]) -> Vec<(f64, usize)> {
        let ne = self.manifest().num_elements();
        if ne == 0 {
            return vec![(0.0, 0); qois.len()];
        }
        let exprs: Vec<&QoiExpr> = qois.iter().map(|q| &q.expr).collect();
        let mut program = QoiProgram::compile(&exprs);
        for (k, q) in qois.iter().enumerate() {
            if let Some((lo, hi)) = q.region {
                program.restrict(k, lo..hi);
            }
        }
        let recons: Vec<&[f64]> = (0..self.views.len())
            .map(|i| self.reconstruction(i))
            .collect();
        let data = self.columns(&recons);
        let cfg = &self.cfg.bound_config;
        par_chunk_reduce(
            ne,
            self.workers(),
            vec![(0.0f64, 0usize); qois.len()],
            |start, end| program.max_bounds(&data, start..end, eps, cfg),
            |mut a, b| {
                for (sa, sb) in a.iter_mut().zip(b) {
                    if sb.0 > sa.0 {
                        *sa = sb;
                    }
                }
                a
            },
        )
    }

    /// Alg. 2 lines 13–24 as the plan executor runs them:
    /// [`RetrievalEngine::scan_qois`] at the readers' own bounds, evaluated
    /// once per state. The scan does not read the tolerances, and a
    /// progressive series mostly asks again over reconstructions its
    /// previous request just certified (Alg. 3's `range·τ` is no tighter
    /// than what the session holds, so round 1 fetches nothing). When
    /// [`RetrievalEngine::scan_key`] is what it was at the previous call,
    /// the remembered `(max estimate, argmax)` per target is what a scan
    /// would return, bit for bit, and comes back marked `reused`;
    /// otherwise this scans and remembers the result. The bounds are read
    /// off the views here, once, for the key, the scan and the caller.
    pub(crate) fn estimate(&mut self, qois: &[QoiSpec]) -> Estimate {
        let bounds: Vec<f64> = self.views.iter().map(|v| v.snapshot().bound).collect();
        let key = self.scan_key(qois, &bounds);
        let (last, reused) = match self.last_scan.take() {
            Some(last) if last.key == key => (last, true),
            _ => {
                let scans = self.scan_qois(qois, &bounds);
                (RememberedScan { key, scans }, false)
            }
        };
        let scans = last.scans.clone();
        self.last_scan = Some(last);
        Estimate {
            scans,
            bounds,
            reused,
        }
    }

    /// Everything `scan_qois(qois, bounds)` is a function of, and nothing
    /// else — the mask and the [`BoundConfig`] being fixed per engine. Per
    /// target: its region and its expression, by exact bits (the serialised
    /// tree; under `PartialEq`, `Const(-0.0) == Const(0.0)`). Per field
    /// some target reads: the bound's bits, the progress marker — the
    /// identity of a reconstruction, as resume and the pager's rehydration
    /// already take it — and whether a store view holds a demoted field's
    /// cold placeholder (zeros under the demoted marker).
    ///
    /// The executor does estimate over a cold placeholder: Alg. 3's bound
    /// is clamped to the view's, and a view answers a refinement from the
    /// placeholder whenever `max|x|` already meets the bound asked, so a
    /// request with `τ·range ≥ max|x|` scans zeros at the marker a
    /// rehydration would replay to. The flag keeps that state's key apart
    /// from its rehydrated twin, which holds the same marker and may hold
    /// the same bound.
    fn scan_key(&self, qois: &[QoiSpec], bounds: &[f64]) -> Vec<u8> {
        let mut w = pqr_util::byteio::ByteWriter::new();
        let mut fields = std::collections::BTreeSet::new();
        w.put_u32(qois.len() as u32);
        for q in qois {
            match q.region {
                Some((lo, hi)) => {
                    w.put_u8(1);
                    w.put_u64(lo as u64);
                    w.put_u64(hi as u64);
                }
                None => w.put_u8(0),
            }
            w.put_bytes(&pqr_qoi::serial::to_bytes(&q.expr));
            fields.extend(q.expr.variables());
        }
        for j in fields {
            let snap = self.views[j].snapshot();
            w.put_u32(j as u32);
            w.put_f64(bounds[j]);
            snap.progress.write(&mut w);
            w.put_u8(snap.cold as u8);
        }
        w.finish()
    }

    /// QoI error estimate at a single point under hypothetical bounds —
    /// the `estimate_error` of Algorithm 4.
    pub fn point_estimate(&self, expr: &QoiExpr, j: usize, eps: &[f64]) -> f64 {
        let nv = self.manifest().num_fields();
        let mut x = vec![0.0f64; nv];
        let mut eps_pt = vec![0.0f64; nv];
        self.point_estimate_scratch(expr, j, eps, &mut x, &mut eps_pt)
    }

    /// [`RetrievalEngine::point_estimate`] with caller-provided scratch
    /// (`x`, `eps_pt`, both `num_fields` long) — the Algorithm-4
    /// tightening loop calls this once per candidate bound vector, so the
    /// per-call temporaries are hoisted out of the loop.
    ///
    /// This is the tree definition [`RetrievalEngine::scan_qois`] is held
    /// to: at the scan's argmax and bounds it returns the scan's estimate
    /// exactly, so the tightening loop always starts above the tolerance
    /// the scan found violated.
    pub(crate) fn point_estimate_scratch(
        &self,
        expr: &QoiExpr,
        j: usize,
        eps: &[f64],
        x: &mut [f64],
        eps_pt: &mut [f64],
    ) -> f64 {
        let nv = self.manifest().num_fields();
        for i in 0..nv {
            x[i] = self.reconstruction(i)[j];
            eps_pt[i] = eps[i];
        }
        if let Some(m) = self.manifest().mask.as_ref() {
            if m.is_masked(j) {
                for &i in m.fields() {
                    x[i] = 0.0;
                    eps_pt[i] = 0.0;
                }
            }
        }
        sound_estimate(expr.eval_bounded(x, eps_pt, &self.cfg.bound_config).bound)
    }

    /// Evaluates a QoI on the current reconstruction (what the analysis
    /// task would consume), with the mask overlay applied. The evaluation
    /// fans across the engine's worker budget; the chunks write disjoint
    /// output ranges, so the result is identical at every worker count.
    pub fn qoi_values(&self, expr: &QoiExpr) -> Vec<f64> {
        let program = QoiProgram::compile(&[expr]);
        let mut out = vec![0.0f64; self.manifest().num_elements()];
        let recons: Vec<&[f64]> = (0..self.views.len())
            .map(|i| self.reconstruction(i))
            .collect();
        let data = self.columns(&recons);
        par_chunk_fill(&mut out, self.workers(), |start, chunk| {
            program.fill_values(&data, start, chunk)
        });
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fragstore::{FragmentId, InMemorySource};
    use crate::refactored::Scheme;
    use pqr_qoi::library::{species_product, velocity_magnitude};
    use pqr_util::stats;

    /// A 3-field velocity dataset with some exact-zero "wall" points.
    fn velocity_dataset(n: usize, with_walls: bool) -> Dataset {
        let mut ds = Dataset::new(&[n]);
        for c in 0..3usize {
            let f: Vec<f64> = (0..n)
                .map(|i| {
                    if with_walls && i % 97 == 0 {
                        0.0
                    } else {
                        ((i + c * 41) as f64 * 0.013).sin() * 30.0 + 40.0
                    }
                })
                .collect();
            ds.add_field(["Vx", "Vy", "Vz"][c], f).unwrap();
        }
        ds
    }

    fn engine_for(archive: &RefactoredDataset) -> RetrievalEngine {
        RetrievalEngine::new(archive, EngineConfig::default()).unwrap()
    }

    /// The headline guarantee: estimated ≥ actual, estimated ≤ tolerance.
    fn assert_guarantee(ds: &Dataset, engine: &RetrievalEngine, spec: &QoiSpec, report_est: f64) {
        let truth = ds.qoi_values(&spec.expr);
        let approx = engine.qoi_values(&spec.expr);
        let actual = stats::max_abs_diff(&truth, &approx);
        assert!(
            actual <= report_est,
            "{}: actual {actual} > estimated {report_est}",
            spec.name
        );
        assert!(
            report_est <= spec.tol_abs(),
            "{}: estimated {report_est} > tolerance {}",
            spec.name,
            spec.tol_abs()
        );
    }

    #[test]
    fn vtot_tolerance_met_across_schemes() {
        let ds = velocity_dataset(2000, false);
        for scheme in Scheme::extended() {
            let archive = ds
                .refactor_with_bounds(
                    scheme,
                    &(1..=10).map(|i| 10f64.powi(-i)).collect::<Vec<_>>(),
                )
                .unwrap();
            let mut engine = engine_for(&archive);
            let spec = QoiSpec::relative("VTOT", velocity_magnitude(0, 3), 1e-4, &ds).unwrap();
            let report = engine.retrieve(std::slice::from_ref(&spec)).unwrap();
            assert!(report.satisfied, "{}: not satisfied", scheme.name());
            assert_guarantee(&ds, &engine, &spec, report.targets[0].max_est_error);
        }
    }

    #[test]
    fn zero_walls_need_the_mask() {
        let ds = velocity_dataset(1500, true);
        let archive_no_mask = ds.refactor(Scheme::PmgardHb).unwrap();
        let mut archive_masked = archive_no_mask.clone();
        archive_masked.set_mask(ds.zero_mask(&[0, 1, 2])).unwrap();

        let spec = QoiSpec::relative("VTOT", velocity_magnitude(0, 3), 1e-3, &ds).unwrap();

        // with the mask: satisfied
        let mut engine = engine_for(&archive_masked);
        let report = engine.retrieve(std::slice::from_ref(&spec)).unwrap();
        assert!(report.satisfied, "masked retrieval should satisfy");
        assert_guarantee(&ds, &engine, &spec, report.targets[0].max_est_error);

        // without the mask: paper-mode √ estimate is unboundable at the
        // exact-zero walls, so the engine must exhaust and report failure
        let mut eng2 = RetrievalEngine::new(
            &archive_no_mask,
            EngineConfig {
                max_iterations: 8,
                max_tightenings: 64,
                ..Default::default()
            },
        )
        .unwrap();
        let r2 = eng2.retrieve(std::slice::from_ref(&spec)).unwrap();
        assert!(!r2.satisfied, "unmasked zeros should be unboundable");
        // masked run must also be cheaper than the futile unmasked one
        assert!(engine.total_fetched() < eng2.total_fetched());
    }

    #[test]
    fn multivariate_product_qoi() {
        let n = 1200;
        let mut ds = Dataset::new(&[n]);
        ds.add_field(
            "H2",
            (0..n)
                .map(|i| 0.1 + 0.05 * (i as f64 * 0.01).sin())
                .collect(),
        )
        .unwrap();
        ds.add_field(
            "O2",
            (0..n)
                .map(|i| 0.2 + 0.1 * (i as f64 * 0.017).cos())
                .collect(),
        )
        .unwrap();
        let archive = ds.refactor(Scheme::Psz3Delta).unwrap();
        let mut engine = engine_for(&archive);
        let spec = QoiSpec::relative("x0*x1", species_product(0, 1), 1e-5, &ds).unwrap();
        let report = engine.retrieve(std::slice::from_ref(&spec)).unwrap();
        assert!(report.satisfied);
        assert_guarantee(&ds, &engine, &spec, report.targets[0].max_est_error);
    }

    #[test]
    fn saved_progress_resumes_identically_across_schemes() {
        let ds = velocity_dataset(1500, false);
        let vtot = velocity_magnitude(0, 3);
        for scheme in Scheme::extended() {
            let archive = ds
                .refactor_with_bounds(
                    scheme,
                    &(1..=10).map(|i| 10f64.powi(-i)).collect::<Vec<_>>(),
                )
                .unwrap();
            // session 1: loose request, then save
            let mut e1 = engine_for(&archive);
            let spec = QoiSpec::relative("VTOT", vtot.clone(), 1e-2, &ds).unwrap();
            e1.retrieve(std::slice::from_ref(&spec)).unwrap();
            let blob = e1.save_progress();

            // session 2: resume, verify state equality, continue tighter
            let mut e2 = RetrievalEngine::resume(&archive, EngineConfig::default(), &blob).unwrap();
            for i in 0..3 {
                assert_eq!(
                    e1.reconstruction(i),
                    e2.reconstruction(i),
                    "{} field {i}: reconstruction drifted",
                    scheme.name()
                );
                assert_eq!(e1.field_bound(i), e2.field_bound(i), "{}", scheme.name());
            }
            assert_eq!(e1.total_fetched(), e2.total_fetched(), "{}", scheme.name());

            let tight = spec.at_tolerance(1e-5);
            let r1 = e1.retrieve(std::slice::from_ref(&tight)).unwrap();
            let r2 = e2.retrieve(std::slice::from_ref(&tight)).unwrap();
            assert!(r1.satisfied && r2.satisfied, "{}", scheme.name());
            assert_eq!(r1.total_fetched, r2.total_fetched, "{}", scheme.name());
            assert_eq!(
                e1.reconstruction(0),
                e2.reconstruction(0),
                "{}: post-resume divergence",
                scheme.name()
            );
        }
    }

    #[test]
    fn resume_rejects_mismatched_or_corrupt_progress() {
        let ds = velocity_dataset(300, false);
        let archive = ds.refactor(Scheme::PmgardHb).unwrap();
        let mut engine = engine_for(&archive);
        let spec = QoiSpec::relative("VTOT", velocity_magnitude(0, 3), 1e-2, &ds).unwrap();
        engine.retrieve(std::slice::from_ref(&spec)).unwrap();
        let blob = engine.save_progress();

        // corrupt magic
        let mut bad = blob.clone();
        bad[0] = b'X';
        assert!(RetrievalEngine::resume(&archive, EngineConfig::default(), &bad).is_err());
        // truncation
        assert!(RetrievalEngine::resume(
            &archive,
            EngineConfig::default(),
            &blob[..blob.len() / 2]
        )
        .is_err());
        // wrong scheme: progress from PMGARD against a PSZ3 archive
        let other = ds
            .refactor_with_bounds(Scheme::Psz3, &[1e-1, 1e-2])
            .unwrap();
        assert!(RetrievalEngine::resume(&other, EngineConfig::default(), &blob).is_err());
        // a hostile byte count in a snapshot marker: more than any field
        // can hold (the engine's byte total would overflow), or less than
        // the marker's own replay moves
        let mut psz3 = engine_for(&other);
        psz3.retrieve(&[spec]).unwrap();
        let saved = psz3.save_progress();
        // past "PQRP", the field count, field 0's tag and snapshot index
        let at = 4 + 4 + 1 + 4;
        for fetched in [u64::MAX - 10, 0] {
            let mut hostile = saved.clone();
            hostile[at..at + 8].copy_from_slice(&fetched.to_le_bytes());
            let resumed = RetrievalEngine::resume(&other, EngineConfig::default(), &hostile);
            assert!(
                matches!(resumed, Err(PqrError::CorruptStream(_))),
                "fetched {fetched} accepted"
            );
        }
        assert!(RetrievalEngine::resume(&other, EngineConfig::default(), &saved).is_ok());
    }

    #[test]
    fn an_advance_rebuilds_in_place() {
        // nothing but a solo engine's own store holds what its master
        // rebuilds, so the rebuild reuses that buffer: the multilevel
        // recompose clears and refills it, the delta rebuild adds into it
        let ds = velocity_dataset(3000, false);
        for scheme in [Scheme::PmgardHb, Scheme::Psz3Delta] {
            let archive = ds.refactor(scheme).unwrap();
            let mut engine = engine_for(&archive);
            let spec = QoiSpec::relative("Vx2", QoiExpr::var(0).pow(2), 1e-2, &ds).unwrap();
            engine.retrieve(std::slice::from_ref(&spec)).unwrap();
            let (held, fetched) = (engine.reconstruction(0).as_ptr(), engine.total_fetched());
            engine.retrieve(&[spec.at_tolerance(1e-6)]).unwrap();
            let name = scheme.name();
            assert!(engine.total_fetched() > fetched, "{name}: no advance");
            assert_eq!(engine.reconstruction(0).as_ptr(), held, "{name}");
        }
    }

    #[test]
    fn region_restricted_spec_costs_less_and_holds_inside() {
        let ds = velocity_dataset(4000, false);
        let vtot = velocity_magnitude(0, 3);
        let range = ds.qoi_range(&vtot).unwrap();

        // global request
        let archive = ds.refactor(Scheme::PmgardHb).unwrap();
        let mut global = engine_for(&archive);
        let g = global
            .retrieve(&[QoiSpec::with_range("VTOT", vtot.clone(), 1e-6, range)])
            .unwrap();
        assert!(g.satisfied);

        // same tolerance, but only over a 5% window
        let archive2 = ds.refactor(Scheme::PmgardHb).unwrap();
        let mut regional = engine_for(&archive2);
        let spec = QoiSpec::with_range("VTOT", vtot.clone(), 1e-6, range).restrict_to(1000, 1200);
        let r = regional.retrieve(std::slice::from_ref(&spec)).unwrap();
        assert!(r.satisfied);
        assert!(
            r.total_fetched <= g.total_fetched,
            "regional {} > global {}",
            r.total_fetched,
            g.total_fetched
        );

        // the guarantee holds inside the region
        let truth = ds.qoi_values(&vtot);
        let derived = regional.qoi_values(&vtot);
        let worst_in = (1000..1200)
            .map(|j| (truth[j] - derived[j]).abs())
            .fold(0.0f64, f64::max);
        assert!(worst_in <= r.targets[0].max_est_error);
        assert!(r.targets[0].max_est_error <= spec.tol_abs());
    }

    #[test]
    fn region_validation() {
        let ds = velocity_dataset(100, false);
        let archive = ds.refactor(Scheme::PmgardHb).unwrap();
        let mut engine = engine_for(&archive);
        let vtot = velocity_magnitude(0, 3);
        let range = ds.qoi_range(&vtot).unwrap();
        // out of bounds
        let bad = QoiSpec::with_range("v", vtot.clone(), 1e-3, range).restrict_to(0, 101);
        assert!(engine.retrieve(&[bad]).is_err());
        // inverted
        let bad = QoiSpec::with_range("v", vtot.clone(), 1e-3, range).restrict_to(50, 10);
        assert!(engine.retrieve(&[bad]).is_err());
        // empty region is trivially satisfied with zero estimate
        let empty = QoiSpec::with_range("v", vtot, 1e-9, range).restrict_to(10, 10);
        let r = engine.retrieve(&[empty]).unwrap();
        assert!(r.satisfied);
        assert_eq!(r.targets[0].max_est_error, 0.0);
    }

    #[test]
    fn multiple_qois_all_respected() {
        let ds = velocity_dataset(1000, false);
        let archive = ds.refactor(Scheme::PmgardHb).unwrap();
        let mut engine = engine_for(&archive);
        let specs = vec![
            QoiSpec::relative("VTOT", velocity_magnitude(0, 3), 1e-4, &ds).unwrap(),
            QoiSpec::relative("Vx2", QoiExpr::var(0).pow(2), 1e-5, &ds).unwrap(),
            QoiSpec::relative("VxVy", species_product(0, 1), 1e-3, &ds).unwrap(),
        ];
        let report = engine.retrieve(&specs).unwrap();
        assert!(report.satisfied);
        for (k, spec) in specs.iter().enumerate() {
            assert_guarantee(&ds, &engine, spec, report.targets[k].max_est_error);
        }
    }

    #[test]
    fn progressive_series_is_incremental() {
        let ds = velocity_dataset(3000, false);
        let archive = ds.refactor(Scheme::PmgardHb).unwrap();
        let mut engine = engine_for(&archive);
        let base = QoiSpec::relative("VTOT", velocity_magnitude(0, 3), 1.0, &ds).unwrap();
        let mut last_bytes = 0usize;
        for i in 1..=6 {
            let spec = base.at_tolerance(10f64.powi(-i));
            let report = engine.retrieve(&[spec]).unwrap();
            assert!(report.satisfied, "τ=1e-{i}");
            assert!(
                report.total_fetched >= last_bytes,
                "cumulative bytes must not shrink"
            );
            last_bytes = report.total_fetched;
        }
    }

    #[test]
    fn uninvolved_fields_are_not_fetched() {
        let n = 800;
        let mut ds = Dataset::new(&[n]);
        ds.add_field("used", (0..n).map(|i| (i as f64 * 0.02).sin()).collect())
            .unwrap();
        ds.add_field("unused", (0..n).map(|i| (i as f64 * 0.03).cos()).collect())
            .unwrap();
        let archive = ds.refactor(Scheme::Psz3).unwrap();
        let mut engine = engine_for(&archive);
        let spec = QoiSpec::relative("sq", QoiExpr::var(0).pow(2), 1e-4, &ds).unwrap();
        engine.retrieve(&[spec]).unwrap();
        // the unused field's reader fetched nothing (snapshot schemes start
        // at 0 fetched bytes)
        assert_eq!(engine.views[1].snapshot().fetched, 0);
        assert!(engine.views[0].snapshot().fetched > 0);
    }

    #[test]
    fn tighter_tolerance_fetches_more() {
        let ds = velocity_dataset(2000, false);
        let archive = ds.refactor(Scheme::PmgardHb).unwrap();
        let spec_loose = QoiSpec::relative("VTOT", velocity_magnitude(0, 3), 1e-2, &ds).unwrap();
        let spec_tight = spec_loose.at_tolerance(1e-6);

        let mut e1 = engine_for(&archive);
        let r1 = e1.retrieve(&[spec_loose]).unwrap();
        let mut e2 = engine_for(&archive);
        let r2 = e2.retrieve(&[spec_tight]).unwrap();
        assert!(r1.satisfied && r2.satisfied);
        assert!(
            r2.total_fetched > r1.total_fetched,
            "tight {} !> loose {}",
            r2.total_fetched,
            r1.total_fetched
        );
    }

    #[test]
    fn invalid_requests_rejected() {
        let ds = velocity_dataset(100, false);
        let archive = ds.refactor(Scheme::PmgardHb).unwrap();
        // bad reduction factor
        assert!(RetrievalEngine::new(
            &archive,
            EngineConfig {
                reduction_factor: 1.0,
                ..Default::default()
            }
        )
        .is_err());
        // arity overflow
        let mut engine = engine_for(&archive);
        let bad = QoiSpec::absolute("bad", QoiExpr::var(9), 1e-3);
        assert!(engine.retrieve(&[bad]).is_err());
        // non-positive tolerance
        let bad2 = QoiSpec::absolute("bad2", QoiExpr::var(0), 0.0);
        assert!(engine.retrieve(&[bad2]).is_err());
    }

    #[test]
    fn parallel_decode_is_bit_identical_to_sequential() {
        // workers = 1 is the legacy sequential field order; more
        // workers must produce byte-identical reconstructions, bounds and
        // byte accounting — fields are independent decode units
        let ds = velocity_dataset(3000, false);
        for scheme in [Scheme::PmgardHb, Scheme::Pzfp, Scheme::Psz3Delta] {
            let archive = ds
                .refactor_with_bounds(scheme, &(1..=8).map(|i| 10f64.powi(-i)).collect::<Vec<_>>())
                .unwrap();
            let run = |workers: usize| {
                let cfg = EngineConfig {
                    workers,
                    ..Default::default()
                };
                let mut engine = RetrievalEngine::new(&archive, cfg).unwrap();
                let spec = QoiSpec::relative("VTOT", velocity_magnitude(0, 3), 1e-5, &ds).unwrap();
                let r = engine.retrieve(std::slice::from_ref(&spec)).unwrap();
                let recons: Vec<Vec<f64>> =
                    (0..3).map(|i| engine.reconstruction(i).to_vec()).collect();
                let bounds: Vec<u64> = (0..3).map(|i| engine.field_bound(i).to_bits()).collect();
                (
                    r.total_fetched,
                    r.targets[0].max_est_error.to_bits(),
                    recons,
                    bounds,
                )
            };
            let seq = run(1);
            for workers in [2, 8] {
                assert_eq!(seq, run(workers), "{} workers={workers}", scheme.name());
            }
        }
    }

    #[test]
    fn helped_rounds_are_bit_identical_to_solo_rounds() {
        // a crew with spare slots from the start hires helpers at every
        // field's first unit boundary: decodes run ahead on other threads
        // and PZFP rebuilds by slab on several, yet every reconstruction,
        // bound, byte count, decode count and marker is the solo crew's
        let dims = [40usize, 40, 40];
        let n: usize = dims.iter().product();
        let mut ds = Dataset::new(&dims);
        for c in 0..3usize {
            let f: Vec<f64> = (0..n)
                .map(|i| ((i + c * 41) as f64 * 0.0013).sin() * 30.0 + (i % 30) as f64 * 0.2)
                .collect();
            ds.add_field(["Vx", "Vy", "Vz"][c], f).unwrap();
        }
        let ladder: Vec<f64> = (1..=10).map(|i| 10f64.powi(-i)).collect();
        let spec = QoiSpec::relative("VTOT", velocity_magnitude(0, 3), 1e-2, &ds).unwrap();
        for scheme in Scheme::extended() {
            let name = scheme.name();
            let archive = ds.refactor_with_bounds(scheme, &ladder).unwrap();
            let run = |forced: Option<usize>| {
                let cfg = EngineConfig {
                    workers: 1,
                    ..Default::default()
                };
                let mut engine = RetrievalEngine::new(&archive, cfg).unwrap();
                engine.forced = forced.map(|spare| (spare, 0));
                let mut states = Vec::new();
                for tol in [1e-2, 1e-5, 1e-9] {
                    let r = engine.retrieve(&[spec.at_tolerance(tol)]).unwrap();
                    let fields: Vec<_> = (0..3)
                        .map(|j| {
                            (
                                engine.reconstruction(j).to_vec(),
                                engine.field_bound(j).to_bits(),
                                engine.reader_progress(j),
                            )
                        })
                        .collect();
                    states.push((
                        r.total_fetched,
                        r.targets[0].max_est_error.to_bits(),
                        engine.fragments_decoded(),
                        fields,
                    ));
                }
                (states, engine.forced.map_or(1, |(_, peak)| peak))
            };
            let (solo, _) = run(None);
            for spare in [1usize, 3] {
                let (helped, peak) = run(Some(spare));
                assert!(helped == solo, "{name} spare={spare}: helped rounds differ");
                // never more threads than the round has: its own plus the
                // slots it lends
                assert!(peak <= 1 + spare, "{name} spare={spare}: {peak} threads");
                // plain PSZ3 fetches one snapshot per refinement: one unit,
                // nothing to help with
                if scheme != Scheme::Psz3 {
                    assert!(peak >= 2, "{name} spare={spare}: no helper was hired");
                }
            }
        }
    }

    /// Serves `inner` with `bad`'s payload emptied: every batch lands, and
    /// decoding `bad` fails.
    struct EmptyPayload {
        inner: InMemorySource,
        bad: FragmentId,
    }

    impl FragmentSource for EmptyPayload {
        fn manifest(&self) -> Result<Manifest> {
            self.inner.manifest()
        }
        fn fetch(&self, id: FragmentId) -> Result<Arc<Vec<u8>>> {
            if id == self.bad {
                return Ok(Arc::new(Vec::new()));
            }
            self.inner.fetch(id)
        }
    }

    #[test]
    fn failed_round_surfaces_the_fault() {
        // field 0's first fragment fails to decode: the round must fail,
        // with the rest of the batch dropped along with it
        let ds = velocity_dataset(1500, false);
        let bytes = ds.refactor(Scheme::Psz3Delta).unwrap().to_bytes();
        let source = EmptyPayload {
            inner: InMemorySource::new(bytes).unwrap(),
            bad: FragmentId { field: 0, index: 0 },
        };
        let cfg = EngineConfig {
            workers: 1,
            ..Default::default()
        };
        let mut engine = RetrievalEngine::from_source(Arc::new(source), cfg).unwrap();
        let spec = QoiSpec::relative("VTOT", velocity_magnitude(0, 3), 1e-5, &ds).unwrap();
        assert!(engine.retrieve(&[spec]).is_err(), "the fault must surface");
    }

    /// Serves `inner` one fragment at a time: every batch read fails.
    struct NoBatches(InMemorySource);

    impl FragmentSource for NoBatches {
        fn manifest(&self) -> Result<Manifest> {
            self.0.manifest()
        }
        fn fetch(&self, id: FragmentId) -> Result<Arc<Vec<u8>>> {
            self.0.fetch(id)
        }
        fn read_many(&self, _ids: &[FragmentId]) -> Result<Vec<Arc<Vec<u8>>>> {
            Err(PqrError::InvalidRequest("batch reads unavailable".into()))
        }
    }

    #[test]
    fn resume_falls_back_to_single_fetches_when_batches_fail() {
        let ds = velocity_dataset(1500, false);
        let spec = QoiSpec::relative("VTOT", velocity_magnitude(0, 3), 1e-5, &ds).unwrap();
        let cfg = EngineConfig::default();
        for scheme in Scheme::extended() {
            let bytes = ds.refactor(scheme).unwrap().to_bytes();
            let healthy = || Arc::new(InMemorySource::new(bytes.clone()).unwrap());
            let mut engine = RetrievalEngine::from_source(healthy(), cfg).unwrap();
            engine.retrieve(std::slice::from_ref(&spec)).unwrap();
            let progress = engine.save_progress();
            let batched = RetrievalEngine::resume_from_source(healthy(), cfg, &progress).unwrap();
            let single = RetrievalEngine::resume_from_source(
                Arc::new(NoBatches(InMemorySource::new(bytes).unwrap())),
                cfg,
                &progress,
            )
            .unwrap();
            assert_eq!(
                single.total_fetched(),
                batched.total_fetched(),
                "{}",
                scheme.name()
            );
            for i in 0..3 {
                assert_eq!(single.reconstruction(i), batched.reconstruction(i));
                assert_eq!(
                    single.field_bound(i).to_bits(),
                    batched.field_bound(i).to_bits(),
                    "{} field {i}",
                    scheme.name()
                );
            }
        }
    }

    #[test]
    fn a_solo_engine_reports_its_private_store_deltas() {
        // one accounting path: a solo engine's report reads the deltas of
        // its private store, exactly as a shared engine's reads its store's
        let ds = velocity_dataset(3000, false);
        let archive = ds.refactor(Scheme::PmgardHb).unwrap();
        let mut engine = engine_for(&archive);
        assert!(engine.shared_store().is_none());
        let spec = QoiSpec::relative("VTOT", velocity_magnitude(0, 3), 1e-4, &ds).unwrap();
        let before = engine.fragments_decoded();
        let first = engine.retrieve(std::slice::from_ref(&spec)).unwrap();
        let decoded = engine.fragments_decoded() - before;
        assert!(decoded > 0);
        assert_eq!(first.store_fragments_decoded, decoded);

        // a repeat is answered by the views from the snapshots they hold
        let repeat = engine.retrieve(std::slice::from_ref(&spec)).unwrap();
        assert_eq!(repeat.store_fragments_decoded, 0);
        assert_eq!(engine.fragments_decoded() - before, decoded);
        assert!(repeat.recon_cache_hits > 0);
        assert!(repeat.store_refine_reuses > 0);

        // past the representation's floor the views ask the store, which
        // answers from its exhausted masters: reuses, no decodes
        let floor = spec.at_tolerance(1e-300);
        engine.retrieve(std::slice::from_ref(&floor)).unwrap();
        let again = engine.retrieve(&[floor]).unwrap();
        assert_eq!(again.store_fragments_decoded, 0);
        assert!(again.store_refine_reuses > 0);
    }

    #[test]
    fn zero_decode_round_performs_zero_recompose() {
        // the epoch-memoization contract: a retrieval round that decodes
        // nothing must also rebuild nothing — repeated (or looser)
        // requests are answered from the cached reconstruction
        let ds = velocity_dataset(3000, false);
        let archive = ds.refactor(Scheme::PmgardHb).unwrap();
        let mut engine = engine_for(&archive);
        let spec = QoiSpec::relative("VTOT", velocity_magnitude(0, 3), 1e-4, &ds).unwrap();
        let r1 = engine.retrieve(std::slice::from_ref(&spec)).unwrap();
        assert!(r1.satisfied);
        assert!(
            r1.recompose_passes > 0,
            "the deep retrieve must have run recompose"
        );
        let recon_before: Vec<Vec<f64>> =
            (0..3).map(|i| engine.reconstruction(i).to_vec()).collect();

        // identical request: zero new bytes, zero recompose passes
        let r2 = engine.retrieve(std::slice::from_ref(&spec)).unwrap();
        assert!(r2.satisfied);
        assert_eq!(r2.bytes_fetched, 0);
        assert_eq!(
            r2.recompose_passes, 0,
            "zero-decode round must perform zero recompose passes"
        );
        assert!(r2.recon_cache_hits > 0);
        // and a looser request is equally free
        let loose = spec.at_tolerance(1e-2);
        assert_eq!(engine.retrieve(&[loose]).unwrap().recompose_passes, 0);
        for i in 0..3 {
            assert_eq!(recon_before[i], engine.reconstruction(i), "field {i}");
        }
    }

    #[test]
    fn scan_is_identical_at_one_and_four_workers() {
        let ds = velocity_dataset(6000, false);
        let archive = ds.refactor(Scheme::PmgardHb).unwrap();
        let spec = QoiSpec::relative("VTOT", velocity_magnitude(0, 3), 1e-4, &ds).unwrap();
        let run = |workers: usize| {
            let cfg = EngineConfig {
                workers,
                ..Default::default()
            };
            let mut engine = RetrievalEngine::new(&archive, cfg).unwrap();
            let r = engine.retrieve(std::slice::from_ref(&spec)).unwrap();
            (r.total_fetched, r.targets[0].max_est_error.to_bits())
        };
        assert_eq!(run(4), run(1));
    }

    #[test]
    fn scan_equals_the_per_point_tree_reference() {
        // the compiled block scan against Alg. 2 as written — every point
        // through the tree (`point_estimate`), strict `>` so the first
        // argmax wins — on domains that end before, on and after a block
        // boundary, with a mask, with regions that start and end mid-block,
        // on one worker and chunk-parallel on four (4097 ≥ the parallel
        // threshold)
        for ne in [0usize, 1, 255, 256, 257, 4097] {
            let ds = velocity_dataset(ne, true);
            let mut archive = ds.refactor(Scheme::Psz3Delta).unwrap();
            // mask two fields only: the walls stay unboundable for the √
            // QoI (equal ∞ estimates — ties), certified for the others
            archive.set_mask(ds.zero_mask(&[0, 1])).unwrap();
            let region = (ne / 3, (ne / 3 + ne / 2 + 1).min(ne));
            let specs = [
                QoiSpec::absolute("VTOT", velocity_magnitude(0, 3), 1e-2),
                // ε₀ at every unmasked point: one long tie
                QoiSpec::absolute("Vx", QoiExpr::var(0), 1e-2).restrict_to(region.0, region.1),
                QoiSpec::absolute("VxVy", species_product(0, 1), 1e-2)
                    .restrict_to(ne.min(250), ne.min(260)),
                QoiSpec::absolute(
                    "Vx/VTOT",
                    QoiExpr::var(0).div(velocity_magnitude(0, 3)),
                    1e-2,
                ),
                QoiSpec::absolute("none", QoiExpr::var(2).pow(2), 1e-2).restrict_to(0, 0),
            ];
            for workers in [4, 1] {
                for estimator in [pqr_qoi::Estimator::Theorems, pqr_qoi::Estimator::Interval] {
                    let cfg = EngineConfig {
                        workers,
                        bound_config: BoundConfig {
                            estimator,
                            ..Default::default()
                        },
                        ..Default::default()
                    };
                    let mut engine = RetrievalEngine::new(&archive, cfg).unwrap();
                    engine.retrieve(&specs[2..3]).unwrap();
                    let achieved: Vec<f64> = (0..3).map(|i| engine.field_bound(i)).collect();
                    for eps in [achieved, vec![0.5, 0.0, 100.0]] {
                        let want: Vec<(f64, usize)> = specs
                            .iter()
                            .map(|q| {
                                let (lo, hi) = q.region.unwrap_or((0, ne));
                                (lo..hi).fold((0.0f64, 0usize), |best, j| {
                                    let est = engine.point_estimate(&q.expr, j, &eps);
                                    if est > best.0 {
                                        (est, j)
                                    } else {
                                        best
                                    }
                                })
                            })
                            .collect();
                        let got = engine.scan_qois(&specs, &eps);
                        let bits = |v: &[(f64, usize)]| -> Vec<(u64, usize)> {
                            v.iter().map(|&(e, j)| (e.to_bits(), j)).collect()
                        };
                        assert_eq!(
                            bits(&got),
                            bits(&want),
                            "ne={ne} workers={workers} {estimator:?} eps={eps:?}: \
                             {got:?} vs {want:?}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn nan_estimate_is_unboundable_not_certified() {
        // x²⁰⁰·2 at x = 1e10: the value overflows, the power bound is ∞ and
        // the product bound computes ∞·0 = NaN. `NaN > tol` is false, so a
        // scan that takes the estimate as-is certifies that point as if its
        // error were 0.
        let n = 300;
        let mut ds = Dataset::new(&[n]);
        let field = (0..n).map(|i| if i == 123 { 1e10 } else { 1.0 });
        ds.add_field("x", field.collect()).unwrap();
        let archive = ds.refactor(Scheme::PmgardHb).unwrap();
        let mut engine = engine_for(&archive);
        let spec = QoiSpec::absolute(
            "2x^200",
            QoiExpr::var(0).pow(200).mul(QoiExpr::constant(2.0)),
            1.0,
        );
        assert!(spec
            .expr
            .eval_bounded(&[1e10], &[1e-3], &BoundConfig::default())
            .bound
            .is_nan());
        let report = engine.retrieve(std::slice::from_ref(&spec)).unwrap();
        assert!(!report.satisfied, "a NaN estimate certifies nothing");
        assert_eq!(report.targets[0].max_est_error, f64::INFINITY);
        assert_eq!(
            engine.scan_qois(&[spec], &[1e-3]),
            vec![(f64::INFINITY, 123)]
        );
    }

    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    #[test]
    fn remembered_estimate_equals_a_memoryless_oracle_over_a_halving_series() {
        // §III-B's incremental requester on one persistent engine, against
        // an engine resumed from its progress before every step — same
        // readers, nothing remembered. Every reply must agree bit for bit,
        // and what the persistent engine reports must be a real scan's.
        let ds = velocity_dataset(2500, true);
        let base = [
            QoiSpec::relative("VTOT", velocity_magnitude(0, 3), 1.0, &ds).unwrap(),
            QoiSpec::relative("Vx2", QoiExpr::var(0).pow(2), 1.0, &ds).unwrap(),
            QoiSpec::relative("VyVz", species_product(1, 2), 1.0, &ds).unwrap(),
        ];
        for scheme in Scheme::extended() {
            let mut archive = ds.refactor(scheme).unwrap();
            archive.set_mask(ds.zero_mask(&[0, 1, 2])).unwrap();
            let mut a = engine_for(&archive);
            let mut reuses = 0;
            for step in 0..12 {
                let specs: Vec<QoiSpec> = base
                    .iter()
                    .map(|q| q.at_tolerance(0.1 * 0.5f64.powi(step)))
                    .collect();
                let mut b =
                    RetrievalEngine::resume(&archive, EngineConfig::default(), &a.save_progress())
                        .unwrap();
                let (ra, rb) = (a.retrieve(&specs).unwrap(), b.retrieve(&specs).unwrap());
                let at = format!("{} step {step}", scheme.name());
                assert!(ra.satisfied, "{at}");
                for (ta, tb) in ra.targets.iter().zip(&rb.targets) {
                    assert_eq!(
                        (ta.max_est_error.to_bits(), ta.satisfied, ta.bytes),
                        (tb.max_est_error.to_bits(), tb.satisfied, tb.bytes),
                        "{at} {}",
                        ta.name
                    );
                }
                assert_eq!(bits(&ra.field_bounds), bits(&rb.field_bounds), "{at}");
                assert_eq!(ra.iterations, rb.iterations, "{at}");
                assert_eq!(ra.bytes_fetched, rb.bytes_fetched, "{at}");
                assert_eq!(rb.estimate_reuses, 0, "{at}: the oracle remembers nothing");
                let direct = a.scan_qois(&specs, &ra.field_bounds);
                for (t, (est, _)) in ra.targets.iter().zip(direct) {
                    assert_eq!(t.max_est_error.to_bits(), est.to_bits(), "{at} {}", t.name);
                }
                reuses += ra.estimate_reuses;
            }
            assert!(reuses > 0, "{}: no step repeated a state", scheme.name());
        }
    }

    #[test]
    fn remembered_estimate_is_keyed_on_all_a_scan_reads() {
        let ds = velocity_dataset(1500, false);
        let archive = ds.refactor(Scheme::PmgardHb).unwrap();
        let mut engine = engine_for(&archive);
        let a = QoiSpec::relative("VTOT", velocity_magnitude(0, 3), 1e-2, &ds).unwrap();
        let b = QoiSpec::relative("Vx2", QoiExpr::var(0).pow(2), 1e-2, &ds).unwrap();
        let zero = |z: f64| {
            let expr = species_product(0, 1).add(QoiExpr::constant(z));
            QoiSpec::absolute("VxVy+0", expr, 10.0)
        };
        assert_eq!(
            zero(0.0).expr,
            zero(-0.0).expr,
            "PartialEq cannot tell them"
        );
        // fetch deep once; every request below is loose, so no reader moves
        let deep: Vec<QoiSpec> = [&a, &b, &zero(0.0)]
            .iter()
            .map(|q| q.at_tolerance(q.tol_rel * 1e-4))
            .collect();
        assert!(engine.retrieve(&deep).unwrap().satisfied);

        let a_roi = a.clone().restrict_to(10, 700);
        // each request differs from the one before it in the one way named
        let series: [(&str, Vec<QoiSpec>, u64); 8] = [
            ("one target dropped", vec![a.clone(), b.clone()], 0),
            ("identical", vec![a.clone(), b.clone()], 1),
            (
                "looser, same targets",
                vec![a.at_tolerance(0.5), b.clone()],
                1,
            ),
            ("a different region", vec![a_roi.clone(), b.clone()], 0),
            (
                "one target added",
                vec![a_roi.clone(), b.clone(), zero(0.0)],
                0,
            ),
            (
                "two targets reordered",
                vec![b.clone(), a_roi.clone(), zero(0.0)],
                0,
            ),
            (
                "Const(-0.0) for Const(0.0)",
                vec![b.clone(), a_roi.clone(), zero(-0.0)],
                0,
            ),
            ("identical again", vec![b.clone(), a_roi, zero(-0.0)], 1),
        ];
        for (what, specs, want) in series {
            let r = engine.retrieve(&specs).unwrap();
            assert_eq!(r.bytes_fetched, 0, "{what}: a reader moved");
            assert_eq!((r.iterations, r.estimate_reuses), (1, want), "{what}");
            let direct = engine.scan_qois(&specs, &r.field_bounds);
            for (t, (est, _)) in r.targets.iter().zip(direct) {
                assert_eq!(
                    t.max_est_error.to_bits(),
                    est.to_bits(),
                    "{what} {}",
                    t.name
                );
            }
        }
    }

    #[test]
    fn remembered_estimate_key_tells_a_cold_placeholder_from_its_rehydrated_snapshot() {
        // a view that adopts a demoted field holds zeros at max|x| under
        // the demoted marker; reading through at the true bound swaps in the
        // rehydrated snapshot at that same marker
        let ds = velocity_dataset(1200, false);
        let archive = ds.refactor(Scheme::PmgardHb).unwrap();
        let store = Arc::new(
            crate::store::ProgressStore::open_with(
                Arc::new(InMemorySource::new(archive.to_bytes()).unwrap()),
                Arc::new(crate::pager::StoreBudget::unbounded()),
            )
            .unwrap(),
        );
        let specs = [QoiSpec::relative("VTOT", velocity_magnitude(0, 3), 1e-4, &ds).unwrap()];
        let mut first =
            RetrievalEngine::with_store(Arc::clone(&store), EngineConfig::default()).unwrap();
        assert!(first.retrieve(&specs).unwrap().satisfied);
        for f in 0..3 {
            assert!(store.demote(f));
        }

        let mut view =
            RetrievalEngine::with_store(Arc::clone(&store), EngineConfig::default()).unwrap();
        assert!(view.views.iter().all(|v| v.snapshot().cold));
        let markers: Vec<_> = (0..3).map(|j| view.reader_progress(j)).collect();
        // same bounds in both keys, so only the flag can tell them apart
        let bounds = [0, 1, 2].map(|j| store.field_bound(j));
        let cold_key = view.scan_key(&specs, &bounds);
        let cold = view.estimate(&specs);
        for (j, v) in view.views.iter_mut().enumerate() {
            v.refine_to(bounds[j], &Crew::solo()).unwrap();
            assert!(!v.snapshot().cold);
            assert_eq!(v.snapshot().progress, markers[j]);
        }
        assert_ne!(view.scan_key(&specs, &bounds), cold_key);
        let warm = view.estimate(&specs);
        assert!(!warm.reused);
        assert_eq!(bits(&warm.bounds), bits(&bounds));
        assert_ne!(cold.scans[0].0.to_bits(), warm.scans[0].0.to_bits());
        assert_eq!(warm.scans, first.scan_qois(&specs, &bounds));
    }

    #[test]
    fn remembered_estimate_over_a_cold_placeholder_is_sound_and_fetches_nothing() {
        // a loose request on a demoted field is answered from the
        // placeholder: no bytes, no rehydration, zeros estimated at max|x|
        let n = 4096;
        let mut ds = Dataset::new(&[n]);
        let x: Vec<f64> = (0..n).map(|i| 5.0 * (0.01 * i as f64).sin()).collect();
        ds.add_field("x0", x.clone()).unwrap();
        let archive = ds.refactor(Scheme::PmgardHb).unwrap();
        let source = InMemorySource::new(archive.to_bytes()).unwrap();
        let store = Arc::new(
            crate::store::ProgressStore::open_with(
                Arc::new(source),
                Arc::new(crate::pager::StoreBudget::unbounded()),
            )
            .unwrap(),
        );
        let mut first =
            RetrievalEngine::with_store(Arc::clone(&store), EngineConfig::default()).unwrap();
        let deep = QoiSpec::absolute("x0", QoiExpr::var(0), 1e-3);
        assert!(first.retrieve(&[deep]).unwrap().satisfied);
        assert!(store.demote(0));

        let mut view =
            RetrievalEngine::with_store(Arc::clone(&store), EngineConfig::default()).unwrap();
        let loose = QoiSpec::relative("x0", QoiExpr::var(0), 0.6, &ds).unwrap();
        let before = store.stats();
        let r = view.retrieve(std::slice::from_ref(&loose)).unwrap();
        let after = store.stats();
        assert!(r.satisfied);
        assert_eq!(r.bytes_fetched, 0);
        assert_eq!(after.rehydration_decodes, before.rehydration_decodes);
        assert!(view.views[0].snapshot().cold);
        assert!(view.reconstruction(0).iter().all(|&v| v == 0.0));
        let max_abs = x.iter().fold(0.0f64, |m, v| m.max(v.abs()));
        let est = r.targets[0].max_est_error;
        assert!(
            est >= max_abs,
            "estimate {est} under the true error {max_abs}"
        );
        assert!(est <= loose.tol_abs());
        // the same request again reuses the estimate made over the zeros
        let again = view.retrieve(std::slice::from_ref(&loose)).unwrap();
        assert_eq!(again.estimate_reuses, 1);
        assert_eq!(again.targets[0].max_est_error.to_bits(), est.to_bits());
    }

    #[test]
    fn absolute_tolerance_spec() {
        let ds = velocity_dataset(400, false);
        let archive = ds.refactor(Scheme::PmgardHb).unwrap();
        let spec = QoiSpec::absolute("Vx", QoiExpr::var(0), 0.5);
        assert_eq!(spec.tol_abs(), 0.5);
        let mut engine = engine_for(&archive);
        let r = engine.retrieve(&[spec]).unwrap();
        assert!(r.satisfied);
        let real = stats::max_abs_diff(ds.field(0), engine.reconstruction(0));
        assert!(real <= 0.5);
    }

    #[test]
    fn shared_fields_across_qois_use_tightest_initial_bound() {
        // Algorithm 3: a field read by two QoIs starts at the tighter of the
        // two relative tolerances
        let ds = velocity_dataset(800, false);
        let archive = ds.refactor(Scheme::PmgardHb).unwrap();
        let loose = QoiSpec::relative("a", QoiExpr::var(0).pow(2), 1e-1, &ds).unwrap();
        let tight = QoiSpec::relative("b", QoiExpr::var(0).abs(), 1e-6, &ds).unwrap();
        let mut engine = engine_for(&archive);
        let r = engine.retrieve(&[loose, tight]).unwrap();
        assert!(r.satisfied);
        // the achieved bound on field 0 must satisfy the tight QoI: since
        // |x| is 1-Lipschitz, ε₀ ≤ 1e-6·range(|Vx|)
        let range = stats::value_range(&ds.qoi_values(&QoiExpr::var(0).abs()));
        assert!(r.field_bounds[0] <= 1e-6 * range * 1.001);
    }

    #[test]
    fn report_accounting_sane() {
        let ds = velocity_dataset(500, false);
        let archive = ds.refactor(Scheme::PmgardHb).unwrap();
        let mut engine = engine_for(&archive);
        let spec = QoiSpec::relative("VTOT", velocity_magnitude(0, 3), 1e-3, &ds).unwrap();
        let report = engine.retrieve(&[spec]).unwrap();
        assert!(report.satisfied);
        assert!(report.iterations >= 1);
        assert_eq!(report.total_fetched, engine.total_fetched());
        assert!(report.bitrate > 0.0);
        assert_eq!(report.field_bounds.len(), 3);
        // bitrate consistent with bytes: bits = bytes*8 / (ne*nv)
        let expect = report.total_fetched as f64 * 8.0 / (500.0 * 3.0);
        assert!((report.bitrate - expect).abs() < 1e-12);
    }
}
