//! Archive + session: the ergonomic wrapper over the retrieval machinery.
//!
//! An [`Archive`] is one [`FragmentSource`] plus its QoI registry. Its
//! bytes are always its serialized container, and every session reads
//! them through the one container reader:
//!
//! * built by [`ArchiveBuilder`] or opened with [`Archive::from_bytes`],
//!   the container is held in memory ([`InMemorySource`]);
//! * opened from a file with [`Archive::open`] ([`FileSource`]), only the
//!   manifest (shape, directories, QoI registry, mask) is read up front,
//!   and every session fetches fragment byte ranges on demand. A loose
//!   tolerance therefore reads only a fraction of the archive from disk.
//!
//! Either way the manifest is parsed and its directory checked at open,
//! each field's structure is checked when a session or service opens it,
//! and the source tallies every fetch.
//!
//! [`Session`]s are **owned**: they hold shared (`Arc`) handles to the
//! archive's fragment source and QoI registry, carry no borrows, and can
//! move across threads. For concurrent traffic, [`Archive::service`]
//! builds a [`DatasetService`] — a cheaply-cloneable handle whose sessions
//! additionally share one
//! [`ProgressStore`], so the
//! deepest-decoded prefix of each field is decoded once and serves every
//! looser request for free.

use crate::request::{RequestTarget, RetrievalRequest, ToleranceMode};
use pqr_progressive::engine::{EngineConfig, QoiSpec, RetrievalEngine};
use pqr_progressive::field::{Dataset, RefactoredDataset};
use pqr_progressive::fragstore::{
    FileSource, FragmentSource, InMemorySource, Manifest, SourceStats,
};
use pqr_progressive::pager::StoreBudget;
use pqr_progressive::plan::{PlanReport, RetrievalPlan};
use pqr_progressive::refactored::{default_snapshot_bounds, Scheme};
use pqr_progressive::store::{ProgressStore, StoreStats};
use pqr_qoi::QoiExpr;
use pqr_util::error::{PqrError, Result};
use std::collections::BTreeMap;
use std::path::Path;
use std::sync::Arc;

/// Builder for [`Archive`]: fields + QoIs + representation choices.
pub struct ArchiveBuilder {
    dataset: Dataset,
    scheme: Scheme,
    rel_bounds: Vec<f64>,
    qois: Vec<(String, QoiExpr)>,
    mask_fields: Option<Vec<String>>,
    engine: EngineConfig,
}

impl ArchiveBuilder {
    /// Starts a builder for fields of the given shape.
    pub fn new(dims: &[usize]) -> Self {
        Self {
            dataset: Dataset::new(dims),
            scheme: Scheme::default(),
            rel_bounds: default_snapshot_bounds(),
            qois: Vec::new(),
            mask_fields: None,
            engine: EngineConfig::default(),
        }
    }

    /// Adds a field. Panics on shape mismatch at [`ArchiveBuilder::build`].
    pub fn field(mut self, name: &str, data: Vec<f64>) -> Self {
        // defer errors to build() so the builder stays chainable
        let _ = self.dataset.add_field(name, data);
        self
    }

    /// Adds a single-precision field, widened to f64. The paper's §VI notes
    /// the method "directly applies to single-precision floating-point
    /// data"; widening is exact, so every guarantee downstream holds against
    /// the f32 values bit-for-bit.
    pub fn field_f32(self, name: &str, data: &[f32]) -> Self {
        self.field(name, data.iter().map(|&v| f64::from(v)).collect())
    }

    /// Registers a QoI; its value range is computed at build time.
    pub fn qoi(mut self, name: &str, expr: QoiExpr) -> Self {
        self.qois.push((name.to_string(), expr));
        self
    }

    /// Chooses the progressive representation (default: PMGARD-HB).
    pub fn scheme(mut self, scheme: Scheme) -> Self {
        self.scheme = scheme;
        self
    }

    /// Overrides the snapshot bound ladder (snapshot schemes only).
    pub fn snapshot_bounds(mut self, rel_bounds: &[f64]) -> Self {
        self.rel_bounds = rel_bounds.to_vec();
        self
    }

    /// Enables the zero-outlier mask over the named fields (§V-A).
    pub fn mask(mut self, field_names: &[&str]) -> Self {
        self.mask_fields = Some(field_names.iter().map(|s| s.to_string()).collect());
        self
    }

    /// Overrides retrieval engine knobs for sessions on this archive.
    pub fn engine_config(mut self, cfg: EngineConfig) -> Self {
        self.engine = cfg;
        self
    }

    /// Refactors everything, computes QoI metadata, and serializes the
    /// archive once into an in-memory container (the bytes
    /// [`Archive::to_bytes`] returns).
    pub fn build(self) -> Result<Archive> {
        let mut qoi_meta = BTreeMap::new();
        for (name, expr) in &self.qois {
            let range = self.dataset.qoi_range(expr)?;
            qoi_meta.insert(name.clone(), (expr.clone(), range));
        }
        let mut refactored = self
            .dataset
            .refactor_with_bounds(self.scheme, &self.rel_bounds)?;
        if let Some(names) = &self.mask_fields {
            let idx: Vec<usize> = names
                .iter()
                .map(|n| {
                    self.dataset.field_index(n).ok_or_else(|| {
                        PqrError::InvalidRequest(format!("mask field '{n}' not found"))
                    })
                })
                .collect::<Result<_>>()?;
            refactored.set_mask(self.dataset.zero_mask(&idx))?;
        }
        let bytes = refactored.to_bytes_with_meta(&registry_to_bytes(&qoi_meta));
        Ok(Archive {
            source: Arc::new(InMemorySource::new(bytes)?),
            qois: Arc::new(qoi_meta),
            engine: self.engine,
        })
    }

    /// Refactors and streams the archive straight to `path` — the
    /// parallel-ingest counterpart of [`ArchiveBuilder::build`] +
    /// [`Archive::save`]. Fields encode one per thread, up to `workers` at
    /// once (`0` resolves to the `PQR_THREADS` worker count) and, with `overlap_io`,
    /// completed fields' fragments hit the disk while later fields are
    /// still encoding. The container is byte-identical for every
    /// workers/overlap combination; reopen it with [`Archive::open`].
    /// Returns the total bytes written.
    pub fn build_to_path(
        self,
        path: impl AsRef<Path>,
        workers: usize,
        overlap_io: bool,
    ) -> Result<u64> {
        let mut qoi_meta = BTreeMap::new();
        for (name, expr) in &self.qois {
            let range = self.dataset.qoi_range(expr)?;
            qoi_meta.insert(name.clone(), (expr.clone(), range));
        }
        let mask_idx = match &self.mask_fields {
            Some(names) => Some(
                names
                    .iter()
                    .map(|n| {
                        self.dataset.field_index(n).ok_or_else(|| {
                            PqrError::InvalidRequest(format!("mask field '{n}' not found"))
                        })
                    })
                    .collect::<Result<Vec<_>>>()?,
            ),
            None => None,
        };
        self.dataset.refactor_to_path(
            self.scheme,
            &self.rel_bounds,
            mask_idx.as_deref(),
            &registry_to_bytes(&qoi_meta),
            path,
            workers,
            overlap_io,
        )
    }
}

/// The shared QoI registry: name → (expression, refactor-time range).
type QoiRegistry = BTreeMap<String, (QoiExpr, f64)>;

/// A refactored archive with its QoI registry (Fig. 1's storage-side box).
pub struct Archive {
    /// Where the fragment bytes live, behind `Arc` so sessions and
    /// services own shared handles instead of borrows.
    source: Arc<dyn FragmentSource>,
    qois: Arc<QoiRegistry>,
    engine: EngineConfig,
}

impl Archive {
    /// The fragment source every session of this archive fetches through.
    pub fn source(&self) -> &dyn FragmentSource {
        self.source.as_ref()
    }

    /// A shared handle to the archive's fragment source — what owned
    /// sessions and services fetch through.
    pub fn shared_source(&self) -> Arc<dyn FragmentSource> {
        Arc::clone(&self.source)
    }

    /// The archive manifest: shape, per-field schemes/ranges/directories,
    /// mask presence — available without fetching any payload fragment.
    pub fn manifest(&self) -> Result<Manifest> {
        self.source().manifest()
    }

    /// Cumulative fetch tallies of the underlying source, in memory and on
    /// file alike.
    pub fn source_stats(&self) -> SourceStats {
        self.source().stats()
    }

    /// Registered QoI names.
    pub fn qoi_names(&self) -> Vec<&str> {
        self.qois.keys().map(String::as_str).collect()
    }

    /// The refactor-time value range of a registered QoI.
    pub fn qoi_range(&self, name: &str) -> Option<f64> {
        self.qois.get(name).map(|(_, r)| *r)
    }

    /// The expression of a registered QoI.
    pub fn qoi_expr(&self, name: &str) -> Option<&QoiExpr> {
        self.qois.get(name).map(|(e, _)| e)
    }

    /// Overrides the engine configuration used by future sessions — e.g. to
    /// switch the error estimator on a deserialized archive (which always
    /// restores with defaults).
    pub fn set_engine_config(&mut self, cfg: EngineConfig) {
        self.engine = cfg;
    }

    /// Opens an **owned, independent** retrieval session (progressive
    /// across requests): a cold engine with its own decode state, sharing
    /// only the fragment source. Sessions on lazily opened archives fetch
    /// fragment byte ranges on demand.
    ///
    /// Sessions that should *share* decode state (many clients, mixed
    /// tolerances, decode-once) come from [`Archive::service`] instead.
    pub fn session(&self) -> Result<Session> {
        Ok(Session {
            engine: RetrievalEngine::from_source(self.shared_source(), self.engine)?,
            qois: Arc::clone(&self.qois),
        })
    }

    /// Reopens a session at a previously saved progress point (from
    /// [`Session::save_progress`]): the replay is deterministic, so the
    /// resumed session continues with identical reconstructions and byte
    /// accounting.
    pub fn resume_session(&self, progress: &[u8]) -> Result<Session> {
        Ok(Session {
            engine: RetrievalEngine::resume_from_source(
                self.shared_source(),
                self.engine,
                progress,
            )?,
            qois: Arc::clone(&self.qois),
        })
    }

    /// Builds the shared-state retrieval service for this archive: a
    /// cheaply-cloneable [`DatasetService`] handle whose sessions all read
    /// through one [`ProgressStore`] (per-field master decode state). The
    /// store is opened here — one metadata fetch per field — and every
    /// bitplane decoded by any session is decoded exactly once for all of
    /// them; a session requesting a tolerance the store already reached
    /// touches neither the source nor a decoder.
    ///
    /// Decoded state is charged against the [`StoreBudget`] the
    /// `PQR_STORE_BUDGET` environment variable sets (unset ⇒ unbounded).
    /// Over budget, cold fields demote to their progress marker and
    /// rehydrate bit-identically on demand. To set the budget explicitly,
    /// or share one across several datasets (as `pqr serve` does), use
    /// [`Archive::service_with_budget`].
    pub fn service(&self) -> Result<DatasetService> {
        self.service_with_budget(Arc::new(StoreBudget::from_env()?))
    }

    /// [`Archive::service`] charging decoded state against an explicit
    /// (possibly shared) [`StoreBudget`] — the serving layer hands one
    /// budget to every registered dataset so eviction pressure is global.
    pub fn service_with_budget(&self, budget: Arc<StoreBudget>) -> Result<DatasetService> {
        let source = self.shared_source();
        let store = Arc::new(ProgressStore::open_with(Arc::clone(&source), budget)?);
        Ok(DatasetService {
            inner: Arc::new(ServiceInner {
                source,
                store,
                qois: Arc::clone(&self.qois),
                engine: self.engine,
            }),
        })
    }

    /// Builds the [`QoiSpec`] for a registered QoI at a relative tolerance.
    pub fn spec(&self, name: &str, tol_rel: f64) -> Result<QoiSpec> {
        let (expr, range) = self
            .qois
            .get(name)
            .ok_or_else(|| PqrError::InvalidRequest(format!("unknown QoI '{name}'")))?;
        Ok(QoiSpec::with_range(name, expr.clone(), tol_rel, *range))
    }

    /// Serializes the whole archive into the fragment-addressed container
    /// format: refactored fields, mask, and the QoI registry (expressions +
    /// refactor-time ranges) ride the manifest, so a lazily opened archive
    /// reconstructs the exact estimator without touching a payload fragment
    /// (Fig. 1's metadata path).
    ///
    /// Every fragment is fetched through the archive's source, so a lazily
    /// opened archive is read whole, which defeats its purpose.
    ///
    /// # Panics
    ///
    /// Panics if the source fails mid-read (e.g. a file truncated after
    /// open) — use [`Archive::save`], whose fallible path reports such
    /// errors instead.
    pub fn to_bytes(&self) -> Vec<u8> {
        self.serialize()
            .expect("archive source failed mid-serialize")
    }

    fn serialize(&self) -> Result<Vec<u8>> {
        let registry = registry_to_bytes(&self.qois);
        Ok(RefactoredDataset::from_source(self.source())?.to_bytes_with_meta(&registry))
    }

    /// Writes the archive to a file (see [`Archive::to_bytes`]); reopen it
    /// lazily with [`Archive::open`]. Unlike [`Archive::to_bytes`], a
    /// source that fails mid-read returns the error.
    pub fn save(&self, path: impl AsRef<Path>) -> Result<()> {
        std::fs::write(path.as_ref(), self.serialize()?).map_err(|e| {
            PqrError::InvalidRequest(format!("cannot write '{}': {e}", path.as_ref().display()))
        })
    }

    /// Opens an archive from [`Archive::to_bytes`], held in memory: the
    /// manifest and QoI registry are parsed here, and each field is
    /// checked when a session or service opens it.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self> {
        Self::from_fragment_source(InMemorySource::new(bytes.to_vec())?)
    }

    /// Opens an archive file **lazily**: reads only the manifest (and the
    /// QoI registry embedded in it); sessions then fetch fragment byte
    /// ranges on demand, so a loose-tolerance retrieval reads far fewer
    /// disk bytes than the archive holds.
    pub fn open(path: impl AsRef<Path>) -> Result<Self> {
        Self::from_fragment_source(FileSource::open(path)?)
    }

    /// Wraps an arbitrary fragment source (file, in-memory container,
    /// remote adapter) as an archive, reading the QoI registry from its
    /// manifest.
    pub fn from_fragment_source(source: impl FragmentSource + 'static) -> Result<Self> {
        let qois = registry_from_bytes(&source.manifest()?.app_meta)?;
        Ok(Self {
            source: Arc::new(source),
            qois: Arc::new(qois),
            engine: EngineConfig::default(),
        })
    }
}

/// A shared-state retrieval service over one archive: the cheaply-cloneable
/// handle a server holds per dataset. All sessions spawned from one service
/// share the fragment source, the QoI registry **and** the
/// [`ProgressStore`] — per-field decode state that only ever deepens, so
/// concurrent mixed-tolerance traffic decodes each bitplane once and
/// requests at or above an already-reached depth are served without
/// touching the source (see [`DatasetService::store_stats`] /
/// [`DatasetService::source_stats`] for the counters that prove it).
///
/// ```
/// use pqr_core::prelude::*;
///
/// let n = 512;
/// let archive = ArchiveBuilder::new(&[n])
///     .field("u", (0..n).map(|i| (i as f64 * 0.02).sin() * 9.0).collect())
///     .qoi("u2", QoiExpr::var(0).pow(2))
///     .build()
///     .unwrap();
/// let service = archive.service().unwrap();
/// // handles clone cheaply; sessions are owned and Send
/// let workers: Vec<_> = (0..4)
///     .map(|k| {
///         let svc = service.clone();
///         std::thread::spawn(move || {
///             let mut session = svc.session().unwrap();
///             let tol = if k % 2 == 0 { 1e-2 } else { 1e-5 };
///             session.execute(&RetrievalRequest::new().qoi("u2", tol)).unwrap().satisfied
///         })
///     })
///     .collect();
/// assert!(workers.into_iter().all(|w| w.join().unwrap()));
/// // four sessions, one decode of the deepest prefix
/// assert!(service.store_stats().fragments_decoded > 0);
/// ```
#[derive(Clone)]
pub struct DatasetService {
    inner: Arc<ServiceInner>,
}

struct ServiceInner {
    source: Arc<dyn FragmentSource>,
    store: Arc<ProgressStore>,
    qois: Arc<QoiRegistry>,
    engine: EngineConfig,
}

impl DatasetService {
    /// Spawns an owned session sharing this service's decode store. The
    /// session adopts the store's current depth at open (a warm service
    /// serves it instantly) and advances the shared state only past what
    /// any prior request reached.
    pub fn session(&self) -> Result<Session> {
        Ok(Session {
            engine: RetrievalEngine::with_store(Arc::clone(&self.inner.store), self.inner.engine)?,
            qois: Arc::clone(&self.inner.qois),
        })
    }

    /// The shared per-field decode store.
    pub fn store(&self) -> &Arc<ProgressStore> {
        &self.inner.store
    }

    /// Decode-sharing tallies: fragments decoded (once, for everyone),
    /// refinements served from existing state, snapshot adoptions.
    pub fn store_stats(&self) -> StoreStats {
        self.inner.store.stats()
    }

    /// Fetch tallies of the shared fragment source — across *all* sessions
    /// of this service.
    pub fn source_stats(&self) -> SourceStats {
        self.inner.source.stats()
    }

    /// The archive manifest the service retrieves against.
    pub fn manifest(&self) -> &Manifest {
        self.inner.store.manifest()
    }

    /// Registered QoI names.
    pub fn qoi_names(&self) -> Vec<&str> {
        self.inner.qois.keys().map(String::as_str).collect()
    }
}

/// Magic guarding the QoI registry blob inside the container manifest.
const REGISTRY_MAGIC: &[u8; 4] = b"PQRA";

fn registry_to_bytes(qois: &BTreeMap<String, (QoiExpr, f64)>) -> Vec<u8> {
    use pqr_util::byteio::ByteWriter;
    let mut w = ByteWriter::new();
    w.put_raw(REGISTRY_MAGIC);
    w.put_u32(qois.len() as u32);
    for (name, (expr, range)) in qois {
        w.put_bytes(name.as_bytes());
        w.put_bytes(&pqr_qoi::serial::to_bytes(expr));
        w.put_f64(*range);
    }
    w.finish()
}

fn registry_from_bytes(bytes: &[u8]) -> Result<BTreeMap<String, (QoiExpr, f64)>> {
    // archives written without a registry (bare `RefactoredDataset`
    // containers) simply expose no named QoIs
    if bytes.is_empty() {
        return Ok(BTreeMap::new());
    }
    use pqr_util::byteio::ByteReader;
    let mut r = ByteReader::new(bytes);
    if r.get_raw(4)? != REGISTRY_MAGIC {
        return Err(PqrError::CorruptStream("bad QoI registry magic".into()));
    }
    let nq = r.get_u32()? as usize;
    let nq = r.check_count(nq, 8 + 8 + 8)?;
    let mut qois = BTreeMap::new();
    for _ in 0..nq {
        let name = String::from_utf8(r.get_bytes()?.to_vec())
            .map_err(|_| PqrError::CorruptStream("bad QoI name".into()))?;
        let expr = pqr_qoi::serial::from_bytes(r.get_bytes()?)?;
        let range = r.get_f64()?;
        qois.insert(name, (expr, range));
    }
    if r.remaining() != 0 {
        return Err(PqrError::CorruptStream("trailing registry bytes".into()));
    }
    Ok(qois)
}

/// A progressive retrieval session: requests accumulate, bytes are fetched
/// incrementally (§III-B's key property).
///
/// Sessions are **owned** (no lifetime parameter — the former
/// `Session<'a>` borrowed its archive): they hold `Arc` handles to the
/// fragment source and QoI registry, so they are `Send`, can outlive the
/// `Archive` value that spawned them, and move freely into worker threads.
/// Sessions from [`DatasetService::session`] additionally read through the
/// service's shared decode store.
pub struct Session {
    engine: RetrievalEngine,
    qois: Arc<QoiRegistry>,
}

impl Session {
    /// Builds the [`QoiSpec`] for a registered QoI at a relative tolerance.
    fn spec(&self, name: &str, tol_rel: f64) -> Result<QoiSpec> {
        let (expr, range) = self
            .qois
            .get(name)
            .ok_or_else(|| PqrError::InvalidRequest(format!("unknown QoI '{name}'")))?;
        Ok(QoiSpec::with_range(name, expr.clone(), tol_rel, *range))
    }

    /// The expression of a registered QoI.
    fn qoi_expr(&self, name: &str) -> Option<&QoiExpr> {
        self.qois.get(name).map(|(e, _)| e)
    }

    /// Resolves a multi-target [`RetrievalRequest`] against the archive's
    /// QoI registry and the session's current progress, without fetching:
    /// which fields each target derives from and the Algorithm-3 per-field
    /// bounds (two targets touching one field bound it once, at the
    /// tighter requirement). Planning walks no refinement front: the store
    /// plans each field's front when the plan executes.
    pub fn plan(&self, request: &RetrievalRequest) -> Result<RetrievalPlan> {
        let specs = self.resolve_targets(request)?;
        RetrievalPlan::resolve(&self.engine, specs, request.budget())
    }

    /// Plans and executes a request — the one way a session retrieves,
    /// whether it names one target or many: each refinement round's
    /// fragments ride one batched [`FragmentSource::read_many`] call per
    /// field (coalesced range reads on files), the §IV error bounds are
    /// re-evaluated after every round, and each target stops refining
    /// as soon as its tolerance certifies. Returns the per-target
    /// [`PlanReport`] with shared-fragment savings and read-op counts.
    pub fn execute(&mut self, request: &RetrievalRequest) -> Result<PlanReport> {
        let specs = self.resolve_targets(request)?;
        let plan = RetrievalPlan::resolve(&self.engine, specs, request.budget())?;
        self.engine.execute(&plan)
    }

    /// Resolves request targets into engine specs via the QoI registry.
    fn resolve_targets(&self, request: &RetrievalRequest) -> Result<Vec<QoiSpec>> {
        if request.is_empty() {
            return Err(PqrError::InvalidRequest(
                "retrieval request has no targets".into(),
            ));
        }
        request
            .targets()
            .iter()
            .map(|t| self.resolve_target(t))
            .collect()
    }

    fn resolve_target(&self, target: &RequestTarget) -> Result<QoiSpec> {
        let mut spec = match target.mode {
            ToleranceMode::Relative => self.spec(&target.name, target.tolerance)?,
            ToleranceMode::Absolute => {
                let expr = self.qoi_expr(&target.name).ok_or_else(|| {
                    PqrError::InvalidRequest(format!("unknown QoI '{}'", target.name))
                })?;
                QoiSpec::absolute(&target.name, expr.clone(), target.tolerance)
            }
        };
        if let Some((lo, hi)) = target.region {
            spec = spec.restrict_to(lo, hi);
        }
        Ok(spec)
    }

    /// Current reconstruction of a field, by name.
    pub fn reconstruction(&self, field_name: &str) -> Result<&[f64]> {
        let i = self
            .engine
            .manifest()
            .field_index(field_name)
            .ok_or_else(|| PqrError::InvalidRequest(format!("unknown field '{field_name}'")))?;
        Ok(self.engine.reconstruction(i))
    }

    /// Resolution-progressive view of a field from the bytes already
    /// fetched: drops the `drop_finest` finest multilevel levels and returns
    /// `(coarse_data, coarse_dims)` — the subgrid of stride `2^drop_finest`.
    /// Available on the PMGARD representations only (the paper's §II
    /// "progression in both categories").
    pub fn reconstruction_at_resolution(
        &self,
        field_name: &str,
        drop_finest: usize,
    ) -> Result<(Vec<f64>, Vec<usize>)> {
        let i = self
            .engine
            .manifest()
            .field_index(field_name)
            .ok_or_else(|| PqrError::InvalidRequest(format!("unknown field '{field_name}'")))?;
        self.engine.reconstruction_at_resolution(i, drop_finest)
    }

    /// Derived values of a registered QoI on the current reconstruction.
    pub fn qoi_values(&self, name: &str) -> Result<Vec<f64>> {
        let expr = self
            .qoi_expr(name)
            .ok_or_else(|| PqrError::InvalidRequest(format!("unknown QoI '{name}'")))?;
        Ok(self.engine.qoi_values(expr))
    }

    /// Cumulative fetched bytes.
    pub fn total_fetched(&self) -> usize {
        self.engine.total_fetched()
    }

    /// Achieved primary-data bound of a field, by name.
    pub fn field_bound(&self, field_name: &str) -> Result<f64> {
        let i = self
            .engine
            .manifest()
            .field_index(field_name)
            .ok_or_else(|| PqrError::InvalidRequest(format!("unknown field '{field_name}'")))?;
        Ok(self.engine.field_bound(i))
    }

    /// Access to the underlying engine for advanced use.
    pub fn engine(&mut self) -> &mut RetrievalEngine {
        &mut self.engine
    }

    /// Payload fragments this session fetched and decoded for itself.
    /// Sessions on a [`DatasetService`] report zero — their decodes happen
    /// once, in the shared store.
    pub fn fragments_decoded(&self) -> u64 {
        self.engine.fragments_decoded()
    }

    /// Serializes the session's retrieval progress — restore against the
    /// same archive with [`Archive::resume_session`] to continue fetching
    /// incrementally after a process restart.
    pub fn save_progress(&self) -> Vec<u8> {
        self.engine.save_progress()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pqr_qoi::library::velocity_magnitude;

    fn build() -> Archive {
        let n = 600;
        let vx: Vec<f64> = (0..n)
            .map(|i| (i as f64 * 0.02).sin() * 30.0 + 50.0)
            .collect();
        let vy: Vec<f64> = (0..n).map(|i| (i as f64 * 0.05).cos() * 15.0).collect();
        ArchiveBuilder::new(&[n])
            .field("Vx", vx)
            .field("Vy", vy)
            .qoi("V", velocity_magnitude(0, 2))
            .qoi("Vx2", QoiExpr::var(0).pow(2))
            .build()
            .unwrap()
    }

    fn one(name: &str, tol: f64) -> RetrievalRequest {
        RetrievalRequest::new().qoi(name, tol)
    }

    #[test]
    fn build_and_query_metadata() {
        let archive = build();
        assert_eq!(archive.qoi_names(), vec!["V", "Vx2"]);
        assert!(archive.qoi_range("V").unwrap() > 0.0);
        assert!(archive.qoi_expr("Vx2").is_some());
        assert!(archive.qoi_range("nope").is_none());
    }

    #[test]
    fn session_requests_and_reads() {
        let archive = build();
        let mut s = archive.session().unwrap();
        let r = s.execute(&one("V", 1e-3)).unwrap();
        assert!(r.satisfied);
        assert_eq!(s.reconstruction("Vx").unwrap().len(), 600);
        assert_eq!(s.qoi_values("V").unwrap().len(), 600);
        assert!(s.field_bound("Vy").unwrap().is_finite());
        assert!(s.total_fetched() > 0);
    }

    #[test]
    fn two_targets_then_incremental() {
        let archive = build();
        let mut s = archive.session().unwrap();
        let r1 = s.execute(&one("V", 1e-2).qoi("Vx2", 1e-2)).unwrap();
        assert!(r1.satisfied);
        let t1 = s.total_fetched();
        let r2 = s.execute(&one("V", 1e-5)).unwrap();
        assert!(r2.satisfied);
        assert!(s.total_fetched() >= t1);
    }

    #[test]
    fn sessions_survive_process_restarts() {
        // archive persists to disk; a session saves its progress; a "new
        // process" restores both and continues incrementally
        let archive = build();
        let archive_bytes = archive.to_bytes();
        let progress = {
            let mut s = archive.session().unwrap();
            s.execute(&one("V", 1e-2)).unwrap();
            s.save_progress()
        };

        let restored = Archive::from_bytes(&archive_bytes).unwrap();
        let mut resumed = restored.resume_session(&progress).unwrap();
        let fetched_at_resume = resumed.total_fetched();
        assert!(fetched_at_resume > 0);
        let r = resumed.execute(&one("V", 1e-6)).unwrap();
        assert!(r.satisfied);
        // only the increment was newly fetched
        assert_eq!(r.total_fetched, resumed.total_fetched());
        assert!(r.bytes_fetched < r.total_fetched);

        // equivalent to a never-interrupted session
        let mut uninterrupted = restored.session().unwrap();
        uninterrupted.execute(&one("V", 1e-2)).unwrap();
        uninterrupted.execute(&one("V", 1e-6)).unwrap();
        assert_eq!(uninterrupted.total_fetched(), resumed.total_fetched());
        assert_eq!(
            uninterrupted.reconstruction("Vx").unwrap(),
            resumed.reconstruction("Vx").unwrap()
        );
    }

    #[test]
    fn region_requests_through_the_facade() {
        let archive = build();
        let mut s = archive.session().unwrap();
        let r = s.execute(&one("V", 1e-6).region(100, 160)).unwrap();
        assert!(r.satisfied);
        let regional_bytes = s.total_fetched();
        // following up with the global request costs extra bytes
        let g = s.execute(&one("V", 1e-6)).unwrap();
        assert!(g.satisfied);
        assert!(s.total_fetched() >= regional_bytes);
        // invalid regions error
        assert!(s.execute(&one("V", 1e-3).region(500, 700)).is_err());
    }

    #[test]
    fn resolution_progression_through_the_facade() {
        let archive = build(); // PMGARD-HB default scheme
        let mut s = archive.session().unwrap();
        s.execute(&one("V", 1e-6)).unwrap();
        let full = s.reconstruction("Vx").unwrap().to_vec();
        let (coarse, dims) = s.reconstruction_at_resolution("Vx", 2).unwrap();
        assert_eq!(dims, vec![150]); // 600 / 2^2
        assert_eq!(coarse.len(), 150);
        // coarse samples sit close to the full reconstruction on the subgrid
        for (k, &c) in coarse.iter().enumerate() {
            let f = full[k * 4];
            assert!((c - f).abs() < 3.0, "k={k}: coarse {c} vs full {f}");
        }
        // unknown field errors
        assert!(s.reconstruction_at_resolution("nope", 1).is_err());
    }

    #[test]
    fn resolution_progression_unsupported_for_snapshots() {
        let n = 200;
        let archive = ArchiveBuilder::new(&[n])
            .field("u", (0..n).map(|i| i as f64).collect())
            .qoi("u2", QoiExpr::var(0).pow(2))
            .scheme(Scheme::Psz3)
            .build()
            .unwrap();
        let mut s = archive.session().unwrap();
        s.execute(&one("u2", 1e-3)).unwrap();
        assert!(matches!(
            s.reconstruction_at_resolution("u", 1),
            Err(PqrError::Unsupported(_))
        ));
    }

    #[test]
    fn unknown_names_are_errors() {
        let archive = build();
        let mut s = archive.session().unwrap();
        assert!(s.execute(&one("missing", 1e-3)).is_err());
        assert!(s.reconstruction("missing").is_err());
        assert!(s.qoi_values("missing").is_err());
        assert!(s.field_bound("missing").is_err());
    }

    #[test]
    fn builder_mask_unknown_field_is_error() {
        let r = ArchiveBuilder::new(&[4])
            .field("a", vec![0.0; 4])
            .mask(&["nope"])
            .build();
        assert!(r.is_err());
    }

    #[test]
    fn archive_serialization_carries_qoi_registry() {
        let archive = build();
        let bytes = archive.to_bytes();
        let restored = Archive::from_bytes(&bytes).unwrap();
        assert_eq!(restored.qoi_names(), archive.qoi_names());
        assert_eq!(restored.qoi_range("V"), archive.qoi_range("V"));
        assert_eq!(
            restored.qoi_expr("Vx2").unwrap(),
            archive.qoi_expr("Vx2").unwrap()
        );
        // restored archive retrieves identically
        let mut s1 = archive.session().unwrap();
        let mut s2 = restored.session().unwrap();
        let r1 = s1.execute(&one("V", 1e-4)).unwrap();
        let r2 = s2.execute(&one("V", 1e-4)).unwrap();
        assert_eq!(r1.total_fetched, r2.total_fetched);
        assert_eq!(
            s1.reconstruction("Vx").unwrap(),
            s2.reconstruction("Vx").unwrap()
        );
        // corruption detected
        assert!(Archive::from_bytes(&bytes[..40]).is_err());
    }

    #[test]
    fn f32_fields_retrieve_with_full_guarantee() {
        let n = 500;
        let data32: Vec<f32> = (0..n)
            .map(|i| (i as f32 * 0.02).sin() * 12.0 + 20.0)
            .collect();
        let archive = ArchiveBuilder::new(&[n])
            .field_f32("u", &data32)
            .qoi("u2", QoiExpr::var(0).pow(2))
            .build()
            .unwrap();
        let mut s = archive.session().unwrap();
        let r = s.execute(&one("u2", 1e-6)).unwrap();
        assert!(r.satisfied);
        // the guarantee holds against the exact widened values
        let truth: Vec<f64> = data32.iter().map(|&v| f64::from(v).powi(2)).collect();
        let derived = s.qoi_values("u2").unwrap();
        let worst = truth
            .iter()
            .zip(&derived)
            .map(|(a, b)| (a - b).abs())
            .fold(0.0f64, f64::max);
        assert!(worst <= r.targets[0].max_est_error);
    }

    #[test]
    fn lazy_open_matches_resident_and_reads_partially() {
        let archive = build();
        let dir = std::env::temp_dir().join("pqr_core_lazy_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("archive.pqrx");
        archive.save(&path).unwrap();
        let file_len = std::fs::metadata(&path).unwrap().len();

        let lazy = Archive::open(&path).unwrap();
        assert_eq!(lazy.qoi_names(), archive.qoi_names());
        assert_eq!(lazy.qoi_range("V"), archive.qoi_range("V"));
        let manifest = lazy.manifest().unwrap();
        assert_eq!(manifest.num_fields(), 2);

        // a loose request through the lazy archive behaves identically to
        // the resident one...
        let mut ls = lazy.session().unwrap();
        let mut rs = archive.session().unwrap();
        let lr = ls.execute(&one("V", 1e-2)).unwrap();
        let rr = rs.execute(&one("V", 1e-2)).unwrap();
        assert!(lr.satisfied && rr.satisfied);
        assert_eq!(lr.total_fetched, rr.total_fetched);
        assert_eq!(
            ls.reconstruction("Vx").unwrap(),
            rs.reconstruction("Vx").unwrap()
        );

        // ...while reading strictly fewer disk bytes than the archive holds
        let stats = lazy.source_stats();
        assert!(stats.fetches > 0);
        assert!(
            stats.fetched_bytes < file_len,
            "lazy session read {} of {} file bytes",
            stats.fetched_bytes,
            file_len
        );
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn execute_multi_target_certifies_each_and_saves_shared_bytes() {
        let archive = build();
        let mut s = archive.session().unwrap();
        let request = RetrievalRequest::new().qoi("V", 1e-3).qoi("Vx2", 1e-4);
        let plan = s.plan(&request).unwrap();
        // both targets read Vx (field 0); V also reads Vy
        assert_eq!(plan.shared_fields(), vec![0]);

        let report = s.execute(&request).unwrap();
        assert!(report.satisfied);
        assert_eq!(report.targets.len(), 2);
        for t in &report.targets {
            assert!(t.satisfied);
            assert!(t.max_est_error <= t.tol_abs);
            assert!(t.bytes > 0);
        }
        assert_eq!(report.targets[0].name, "V");
        assert_eq!(report.targets[1].fields, vec![0]);
        // the shared field's bytes are attributed to both targets but
        // fetched once
        assert!(report.shared_bytes_saved > 0);
        assert!(!report.budget_exhausted);
        // the engine-level accounting rides the same report
        assert_eq!(report.total_fetched, s.total_fetched());
        assert_eq!(report.field_bounds.len(), 2);
    }

    #[test]
    fn execute_absolute_and_region_targets() {
        let archive = build();
        let mut s = archive.session().unwrap();
        let report = s
            .execute(
                &RetrievalRequest::new()
                    .qoi_abs("Vx2", 50.0)
                    .qoi("V", 1e-5)
                    .region(100, 200),
            )
            .unwrap();
        assert!(report.satisfied);
        assert!(report.targets[0].max_est_error <= 50.0);
    }

    #[test]
    fn byte_budget_stops_execution_short() {
        let archive = build();
        // a budget of 1 byte: round 1 runs, then execution must stop with
        // the (tight) tolerance unmet rather than refining to completion
        let mut s = archive.session().unwrap();
        let unbounded = s.execute(&RetrievalRequest::new().qoi("V", 1e-9)).unwrap();
        let mut s2 = archive.session().unwrap();
        let capped = s2
            .execute(&RetrievalRequest::new().qoi("V", 1e-9).byte_budget(1))
            .unwrap();
        if unbounded.iterations > 1 {
            assert!(capped.budget_exhausted);
            assert!(!capped.satisfied);
            assert!(capped.total_fetched < unbounded.total_fetched);
        }
    }

    #[test]
    fn empty_and_unknown_requests_are_errors() {
        let archive = build();
        let mut s = archive.session().unwrap();
        assert!(s.execute(&RetrievalRequest::new()).is_err());
        assert!(s
            .execute(&RetrievalRequest::new().qoi("missing", 1e-3))
            .is_err());
        assert!(s
            .execute(&RetrievalRequest::new().qoi_abs("missing", 1.0))
            .is_err());
        // bad region surfaces at plan time
        assert!(s
            .plan(&RetrievalRequest::new().qoi("V", 1e-3).region(500, 700))
            .is_err());
    }

    #[test]
    fn builder_bad_field_shape_is_swallowed_until_build() {
        // mis-shaped fields are dropped by the builder chain; the dataset
        // simply doesn't contain them
        let archive = ArchiveBuilder::new(&[4])
            .field("good", vec![1.0; 4])
            .field("bad", vec![1.0; 5])
            .build()
            .unwrap();
        assert_eq!(archive.manifest().unwrap().num_fields(), 1);
    }
}
