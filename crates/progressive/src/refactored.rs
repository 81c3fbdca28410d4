//! The three progressive representations of §V-B behind one interface (the
//! per-representation code itself lives in `backend`).
//!
//! | variant | paper name | mechanics |
//! |---|---|---|
//! | [`Scheme::Psz3`] | PSZ3 | independent SZ3 snapshots at pre-set bounds; a request fetches the smallest adequate snapshot *in full* (cross-snapshot redundancy → stair-case rate curves) |
//! | [`Scheme::Psz3Delta`] | PSZ3-delta | snapshot *i* compresses the residual left by snapshots 1..i−1; a request fetches the prefix 1..k (no redundancy) |
//! | [`Scheme::PmgardHb`] | PMGARD-HB | multilevel hierarchical-basis decomposition + bitplanes (the paper's optimised representation) |
//! | [`Scheme::PmgardOb`] | PMGARD | same with MGARD's orthogonal basis (L2 projection) — kept for the Fig. 3 comparison |
//! | [`Scheme::Pzfp`] | (extension) | ZFP-style block transform + negabinary bitplanes — the paper's other progressive-precision family (its ref. \[4\]), exercised by the ablation benches |
//!
//! Every variant satisfies Definition 1: refactor once into fragments,
//! reconstruct from a prefix of fragments under a guaranteed L∞ bound, and
//! recompose incrementally as more fragments arrive.

use crate::backend::{self, Backend, Fragments};
use crate::fragstore::{self, FragmentId, FragmentSource, FragmentStage, Manifest};
use pqr_util::byteio::{ByteReader, ByteWriter};
use pqr_util::error::{PqrError, Result};
use pqr_util::stats;
use std::sync::Arc;

/// Which progressive representation to refactor into.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Scheme {
    /// Multi-snapshot error-bounded compression (PSZ3).
    Psz3,
    /// Residual/delta compression (PSZ3-delta).
    Psz3Delta,
    /// Multilevel + bitplanes, hierarchical basis (PMGARD-HB) — the paper's
    /// recommended representation.
    #[default]
    PmgardHb,
    /// Multilevel + bitplanes, orthogonal basis (PMGARD).
    PmgardOb,
    /// ZFP-style block transform + negabinary bitplanes. An extension beyond
    /// the paper's three evaluated schemes: the paper's related work names
    /// ZFP as the other progressive-precision family, and this variant lets
    /// the benches compare it under the same QoI engine.
    Pzfp,
}

impl Scheme {
    /// Display name matching the paper's figures.
    pub fn name(&self) -> &'static str {
        match self {
            Scheme::Psz3 => "PSZ3",
            Scheme::Psz3Delta => "PSZ3-delta",
            Scheme::PmgardHb => "PMGARD-HB",
            Scheme::PmgardOb => "PMGARD",
            Scheme::Pzfp => "PZFP",
        }
    }

    /// The paper's schemes, in the order its figures list them. The PZFP
    /// extension is deliberately excluded so the figure harnesses reproduce
    /// exactly the paper's curves; use [`Scheme::extended`] to include it.
    pub fn all() -> [Scheme; 4] {
        [
            Scheme::Psz3,
            Scheme::Psz3Delta,
            Scheme::PmgardOb,
            Scheme::PmgardHb,
        ]
    }

    /// Every representation in the workspace, paper schemes first.
    pub fn extended() -> [Scheme; 5] {
        [
            Scheme::Psz3,
            Scheme::Psz3Delta,
            Scheme::PmgardOb,
            Scheme::PmgardHb,
            Scheme::Pzfp,
        ]
    }

    pub(crate) fn tag(self) -> u8 {
        match self {
            Scheme::Psz3 => 0,
            Scheme::Psz3Delta => 1,
            Scheme::PmgardHb => 2,
            Scheme::PmgardOb => 3,
            Scheme::Pzfp => 4,
        }
    }

    pub(crate) fn from_tag(t: u8) -> Option<Self> {
        match t {
            0 => Some(Scheme::Psz3),
            1 => Some(Scheme::Psz3Delta),
            2 => Some(Scheme::PmgardHb),
            3 => Some(Scheme::PmgardOb),
            4 => Some(Scheme::Pzfp),
            _ => None,
        }
    }
}

/// The default pre-set relative error bounds for snapshot-based schemes:
/// `10^-1 … 10^-18` (§VI-C uses 18 because S3D needs high precision).
pub fn default_snapshot_bounds() -> Vec<f64> {
    (1..=18).map(|i| 10f64.powi(-i)).collect()
}

/// A refactored progressive field (archive-side artifact): the ordered
/// fragment list every consumer — the container writer, the resident
/// fragment source, the readers — addresses it by.
#[derive(Debug, Clone)]
pub struct RefactoredField {
    pub(crate) scheme: Scheme,
    pub(crate) dims: Vec<usize>,
    /// `max − min` of the original data (drives relative bounds).
    pub(crate) range: f64,
    /// `max |x|` of the original data (initial zero-vector error bound).
    pub(crate) max_abs: f64,
    pub(crate) frags: Fragments,
}

impl RefactoredField {
    /// Refactors `data` under the chosen scheme with the default snapshot
    /// bound ladder.
    pub fn refactor(scheme: Scheme, data: &[f64], dims: &[usize]) -> Result<Self> {
        Self::refactor_with_bounds(scheme, data, dims, &default_snapshot_bounds())
    }

    /// Refactors with an explicit relative-bound ladder (snapshot schemes
    /// only; ignored by the PMGARD variants, which are ladder-free).
    pub fn refactor_with_bounds(
        scheme: Scheme,
        data: &[f64],
        dims: &[usize],
        rel_bounds: &[f64],
    ) -> Result<Self> {
        Self::refactor_with_bounds_workers(scheme, data, dims, rel_bounds, 1)
    }

    /// [`RefactoredField::refactor_with_bounds`] with round parallelism
    /// *inside* one field: PSZ3 fans the independent per-bound compressions
    /// out, the PMGARD variants encode their levels concurrently, and PZFP
    /// splits its coefficient-block pass. The produced fragments are
    /// byte-identical at every worker count (`workers ≤ 1` runs the exact
    /// serial order); PSZ3-delta's residual chain is inherently sequential
    /// and stays serial regardless of `workers`.
    pub fn refactor_with_bounds_workers(
        scheme: Scheme,
        data: &[f64],
        dims: &[usize],
        rel_bounds: &[f64],
        workers: usize,
    ) -> Result<Self> {
        let n: usize = dims.iter().product();
        if n != data.len() {
            return Err(PqrError::ShapeMismatch(format!(
                "dims {:?} = {n} elements, data has {}",
                dims,
                data.len()
            )));
        }
        let range = stats::value_range(data);
        let (lo, hi) = stats::min_max(data);
        // Degenerate (constant/empty) data still needs a usable ladder.
        let scale = if range > 0.0 { range } else { 1.0 };
        Ok(Self {
            scheme,
            dims: dims.to_vec(),
            range,
            max_abs: lo.abs().max(hi.abs()),
            frags: backend::encode(scheme, data, dims, rel_bounds, scale, workers)?,
        })
    }

    /// The representation this field was refactored into.
    pub fn scheme(&self) -> Scheme {
        self.scheme
    }

    /// Array shape.
    pub fn dims(&self) -> &[usize] {
        &self.dims
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.dims.iter().product()
    }

    /// True for zero-element fields.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// `max − min` of the original data.
    pub fn value_range(&self) -> f64 {
        self.range
    }

    /// `max |x|` of the original data.
    pub fn max_abs(&self) -> f64 {
        self.max_abs
    }

    /// Total archived bytes: the sum of the stored fragment lengths, which
    /// is what the field contributes to a container's
    /// [`Manifest::total_payload_bytes`].
    pub fn total_bytes(&self) -> usize {
        self.frags.iter().map(|(_, p)| p.len()).sum()
    }

    /// Fragment `index` of the field (a shared handle, no copy).
    pub(crate) fn fragment(&self, index: u32) -> Result<Arc<Vec<u8>>> {
        self.frags
            .get(index as usize)
            .map(|(_, payload)| Arc::clone(payload))
            .ok_or_else(|| PqrError::InvalidRequest(format!("fragment {index} out of range")))
    }

    /// Opens a progressive reader at zero fetched fragments, served from
    /// a shared copy of this resident field (which is itself a
    /// [`FragmentSource`]) — the same code path file-backed and remote
    /// readers go through. The field is cloned behind an `Arc` (its
    /// fragments are shared, not copied) so the reader owns its source and
    /// carries no borrow.
    pub fn reader(&self) -> FieldReader {
        let manifest = fragstore::build_manifest(&self.dims, &[("", self)], None, &[], 0);
        FieldReader::open(Arc::new(self.clone()), &manifest, 0)
            .expect("resident field serves its own fragments consistently")
    }

    /// Opens a reader restored to a previously saved [`ReaderProgress`]
    /// (from [`FieldReader::progress`]) by deterministically replaying the
    /// recorded fetches against this archive. The resumed reader's
    /// reconstruction, guaranteed bound and cumulative byte accounting match
    /// the original reader's state exactly.
    pub fn reader_resumed(&self, progress: &ReaderProgress) -> Result<FieldReader> {
        let mut reader = self.reader();
        reader.restore(progress)?;
        Ok(reader)
    }

    /// Serializes the archive artifact into the fragment-addressed
    /// container format (a single-field archive — see [`crate::fragstore`]
    /// for the layout).
    pub fn to_bytes(&self) -> Vec<u8> {
        fragstore::write_container(&self.dims, &[("", self)], None, &[])
    }

    /// Deserializes (fully materialises) a single-field archive written by
    /// [`RefactoredField::to_bytes`].
    pub fn from_bytes(bytes: &[u8]) -> Result<Self> {
        let src = fragstore::InMemorySource::new(bytes.to_vec())?;
        let manifest = src.manifest()?;
        if manifest.num_fields() != 1 {
            return Err(PqrError::CorruptStream(format!(
                "expected a single-field archive, found {} fields",
                manifest.num_fields()
            )));
        }
        fragstore::load_field(&src, &manifest, 0)
    }
}

/// Resumable progress marker of a [`FieldReader`] — everything needed to
/// reconstruct the reader's exact state against the same archive in another
/// process (Fig. 1's retrieval side is long-lived; sessions outlive
/// processes). Replay is deterministic, so restoring reproduces both the
/// reconstruction and the cumulative byte accounting bit-for-bit.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ReaderProgress {
    /// Snapshot schemes: index one past the last fetched snapshot, plus the
    /// session's cumulative fetched bytes (not derivable from the index —
    /// plain PSZ3 may have re-fetched several snapshots on the way).
    Snapshots {
        /// One past the last fetched snapshot index.
        next: u32,
        /// Cumulative fetched bytes at save time.
        fetched: u64,
    },
    /// PMGARD schemes: planes consumed per level.
    Mgard {
        /// Fetched plane count per multilevel level.
        planes: Vec<u32>,
    },
    /// PZFP: global planes consumed.
    Zfp {
        /// Fetched plane count.
        planes: u32,
    },
}

impl ReaderProgress {
    /// Serializes the marker.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut w = ByteWriter::new();
        match self {
            ReaderProgress::Snapshots { next, fetched } => {
                w.put_u8(0);
                w.put_u32(*next);
                w.put_u64(*fetched);
            }
            ReaderProgress::Mgard { planes } => {
                w.put_u8(1);
                w.put_u32(planes.len() as u32);
                for &p in planes {
                    w.put_u32(p);
                }
            }
            ReaderProgress::Zfp { planes } => {
                w.put_u8(2);
                w.put_u32(*planes);
            }
        }
        w.finish()
    }

    /// Deserializes a marker written by [`ReaderProgress::to_bytes`].
    pub fn from_bytes(bytes: &[u8]) -> Result<Self> {
        let mut r = ByteReader::new(bytes);
        let p = Self::read(&mut r)?;
        if r.remaining() != 0 {
            return Err(PqrError::CorruptStream("trailing progress bytes".into()));
        }
        Ok(p)
    }

    pub(crate) fn read(r: &mut ByteReader<'_>) -> Result<Self> {
        Ok(match r.get_u8()? {
            0 => ReaderProgress::Snapshots {
                next: r.get_u32()?,
                fetched: r.get_u64()?,
            },
            1 => {
                let n = r.get_u32()? as usize;
                if n > 64 {
                    return Err(PqrError::CorruptStream(format!("{n} levels in progress")));
                }
                let mut planes = Vec::with_capacity(n);
                for _ in 0..n {
                    planes.push(r.get_u32()?);
                }
                ReaderProgress::Mgard { planes }
            }
            2 => ReaderProgress::Zfp {
                planes: r.get_u32()?,
            },
            t => return Err(PqrError::CorruptStream(format!("unknown progress tag {t}"))),
        })
    }

    pub(crate) fn write(&self, w: &mut ByteWriter) {
        w.put_raw(&self.to_bytes());
    }

    /// The cumulative fetched bytes the marker records, where a replay
    /// cannot re-derive them.
    pub(crate) fn recorded_fetched(&self) -> Option<usize> {
        match self {
            ReaderProgress::Snapshots { fetched, .. } => Some(*fetched as usize),
            _ => None,
        }
    }
}

/// Progressive reader over one field of a fragment-addressed archive.
///
/// Maintains the current reconstruction, the guaranteed L∞ bound, and the
/// cumulative number of fetched bytes. Every byte enters through the
/// [`FragmentSource`] the reader **owns a shared handle to** — a resident
/// dataset, a serialized buffer, a file read by ranges, or a (simulated)
/// remote store all drive this same code path. Readers carry no borrows,
/// so sessions built on them can move across threads and outlive the scope
/// that opened them.
///
/// What the representation is never shows here: a decoding reader drives
/// one crate-private `Backend` per representation —
/// [`FieldReader::refine_to`] and [`FieldReader::restore`] are one consume
/// routine over the backend's front — and everything else is accounting.
///
/// A reader opened through [`FieldReader::open_shared`] is a **view onto a
/// [`ProgressStore`]** instead: it never decodes or fetches itself — every
/// refinement adopts the store's shared decode state, so concurrent
/// sessions pay for each bitplane exactly once.
///
/// [`ProgressStore`]: crate::store::ProgressStore
pub struct FieldReader {
    scheme: Scheme,
    io: Fetcher,
    held: Held,
    /// Refinement rounds answered from the memoized reconstruction —
    /// rounds that rebuilt nothing.
    recon_cache_hits: u64,
    state: State,
}

/// Where a reader's fragments come from, and the tally of what it took.
struct Fetcher {
    source: Arc<dyn FragmentSource>,
    field: u32,
    /// Prefetch stage consulted before the source (plan execution parks
    /// batched payloads here; `None` = always fetch per fragment).
    stage: Option<Arc<FragmentStage>>,
    /// Cumulative fetched bytes.
    fetched: usize,
    /// Payload fragments this reader itself fetched and decoded. Shared
    /// (store-backed) readers never decode, so theirs stays zero — the
    /// counter the decode-once tests assert on.
    consumed: u64,
}

impl Fetcher {
    /// Fetches payload fragment `index` of this field, accounting its bytes.
    /// Staged (batch-prefetched) payloads are consumed first; anything not
    /// staged falls back to a per-fragment source fetch, so the consume
    /// path is correct whether or not a plan prefetched (and whether or not
    /// its batch read succeeded).
    fn fetch(&mut self, index: u32) -> Result<Arc<Vec<u8>>> {
        let id = FragmentId {
            field: self.field,
            index,
        };
        let payload = match self.stage.as_ref().and_then(|s| s.take(id)) {
            Some(staged) => staged,
            None => self.source.fetch(id)?,
        };
        self.fetched += payload.len();
        self.consumed += 1;
        Ok(payload)
    }
}

/// The reconstruction a reader currently holds and certifies, with the
/// work rebuilding it has cost. The buffer is `Arc`-wrapped so a shared
/// store can **publish** its master's reconstruction — and a view adopt a
/// published one — by a refcount bump, never an O(n) copy.
struct Held {
    recon: Arc<Vec<f64>>,
    /// Guaranteed L∞ bound of `recon` versus the original.
    bound: f64,
    /// Worker budget for reconstruction fan-out: PZFP's block decode
    /// splits across it; multilevel rebuilds fold and recompose on the
    /// calling thread and ignore it. `1` until the owner configures it;
    /// every worker count reconstructs bit-identically.
    workers: usize,
    /// Multilevel recompose axis passes performed rebuilding `recon`
    /// (zero for non-multilevel schemes).
    recompose_passes: u64,
    /// Wall-clock nanoseconds spent rebuilding.
    reconstruct_nanos: u64,
}

impl Held {
    /// Rebuilds from `backend` and adopts the result — iff its bound is no
    /// worse than the held one: a conservative early model (PZFP's first
    /// planes) may sit above the zero-vector bound a reader starts from,
    /// and then what is held stands. Returns whether it adopted.
    ///
    /// A uniquely owned buffer is reused in place; one pinned by a
    /// published snapshot is left to its owners and a fresh allocation
    /// starts instead — copied only for a backend that adds to it, since
    /// every other rebuild overwrites each element anyway.
    fn adopt(&mut self, backend: &mut dyn Backend) -> bool {
        let bound = backend.bound();
        if bound > self.bound {
            return false;
        }
        let t0 = std::time::Instant::now();
        let mut buf = Arc::try_unwrap(std::mem::take(&mut self.recon)).unwrap_or_else(|pinned| {
            if backend.incremental() {
                pinned.to_vec()
            } else {
                Vec::new()
            }
        });
        self.recompose_passes += backend.rebuild(&mut buf, self.workers);
        self.reconstruct_nanos += t0.elapsed().as_nanos() as u64;
        self.recon = Arc::new(buf);
        self.bound = bound;
        true
    }
}

enum State {
    /// The reader fetches and decodes for itself.
    Decoding {
        backend: Box<dyn Backend>,
        /// True while the decoded state is ahead of the reconstruction
        /// held: something was pushed that no adopted rebuild reflects.
        ahead: bool,
    },
    /// A view onto a shared per-field decode state: refinement adopts the
    /// store's snapshots instead of fetching/decoding locally.
    View {
        store: Arc<crate::store::ProgressStore>,
        snap: Arc<crate::store::FieldSnapshot>,
    },
}

fn field_entry(manifest: &Manifest, field: usize) -> Result<&fragstore::FieldEntry> {
    manifest.fields.get(field).ok_or_else(|| {
        PqrError::InvalidRequest(format!(
            "field {field} out of range ({} fields)",
            manifest.num_fields()
        ))
    })
}

fn view_only() -> PqrError {
    PqrError::Unsupported(
        "store-backed session views do not replay progress; \
         open a fresh session on the service instead"
            .into(),
    )
}

impl FieldReader {
    /// Opens a reader on field `field` of `manifest`, fetching the field's
    /// metadata fragment (multilevel/transform schemes) through `source`.
    pub fn open(
        source: Arc<dyn FragmentSource>,
        manifest: &Manifest,
        field: usize,
    ) -> Result<Self> {
        let entry = field_entry(manifest, field)?;
        let fid = field as u32;
        let opened = backend::open(entry, &manifest.dims, || {
            source.fetch(FragmentId {
                field: fid,
                index: 0,
            })
        })?;
        let mut reader = Self {
            scheme: entry.scheme,
            io: Fetcher {
                source,
                field: fid,
                stage: None,
                fetched: opened.meta_bytes,
                consumed: 0,
            },
            // Algorithm 2 line 2: zeros, until a rebuild says otherwise
            held: Held {
                recon: Arc::new(vec![0.0; manifest.num_elements()]),
                bound: opened.start_bound,
                workers: 1,
                recompose_passes: 0,
                reconstruct_nanos: 0,
            },
            recon_cache_hits: 0,
            state: State::Decoding {
                backend: opened.backend,
                ahead: true,
            },
        };
        // the opening state may already beat the zero vector (PMGARD's
        // metadata carries the root value)
        reader.consume(&[])?;
        Ok(reader)
    }

    /// Opens a reader as a **view** onto field `field` of a shared
    /// [`ProgressStore`]: no metadata fetch, no local cursor — the reader
    /// adopts the store's current snapshot immediately and every
    /// [`FieldReader::refine_to`] call reads through (and monotonically
    /// advances) the shared decode state. A view never touches the source
    /// itself, so a request the store has already reached costs zero
    /// fetches and zero decodes.
    ///
    /// [`ProgressStore`]: crate::store::ProgressStore
    pub fn open_shared(
        store: Arc<crate::store::ProgressStore>,
        manifest: &Manifest,
        field: usize,
    ) -> Result<Self> {
        let entry = field_entry(manifest, field)?;
        let snap = store.adopt(field)?;
        Ok(Self {
            scheme: entry.scheme,
            io: Fetcher {
                source: Arc::clone(store.source()),
                field: field as u32,
                stage: None,
                fetched: snap.fetched,
                consumed: 0,
            },
            held: Held {
                recon: Arc::clone(&snap.recon),
                bound: snap.bound,
                workers: 1,
                recompose_passes: 0,
                reconstruct_nanos: 0,
            },
            recon_cache_hits: 0,
            state: State::View { store, snap },
        })
    }

    /// Sets the worker budget for reconstruction fan-out (PZFP's block
    /// decode; multilevel rebuilds run on the calling thread).
    /// Reconstructions are bit-identical at every worker count, so this
    /// only affects wall clock, never results.
    pub fn set_workers(&mut self, workers: usize) {
        self.held.workers = workers.max(1);
    }

    /// Multilevel recompose axis passes performed rebuilding this reader's
    /// reconstruction (interp and correction passes each count one).
    pub fn recompose_passes(&self) -> u64 {
        self.held.recompose_passes
    }

    /// Refinement rounds answered from the memoized reconstruction:
    /// zero-decode rounds perform zero recompose work and land here.
    pub fn recon_cache_hits(&self) -> u64 {
        self.recon_cache_hits
    }

    /// Wall-clock nanoseconds spent rebuilding reconstructions.
    pub fn reconstruct_nanos(&self) -> u64 {
        self.held.reconstruct_nanos
    }

    /// Attaches a prefetch stage: subsequent fragment fetches consume
    /// staged payloads before falling back to the source. The retrieval
    /// engine shares one stage across its readers so batched rounds land
    /// where the per-fragment consume path expects them.
    pub(crate) fn attach_stage(&mut self, stage: Arc<FragmentStage>) {
        self.io.stage = Some(stage);
    }

    /// Payload fragments this reader fetched **and decoded** itself.
    /// Store-backed views report zero forever — their decodes happen once,
    /// in the shared [`ProgressStore`](crate::store::ProgressStore).
    pub fn fragments_decoded(&self) -> u64 {
        self.io.consumed
    }

    /// Current reconstruction (zeros before any fetch — Algorithm 2 line 2).
    pub fn data(&self) -> &[f64] {
        &self.held.recon
    }

    /// The current reconstruction as a shareable `Arc` — a refcount bump,
    /// never a copy. This is how a
    /// [`ProgressStore`](crate::store::ProgressStore) publishes its
    /// master's state: the snapshot and the reader share one allocation,
    /// and the reader's next rebuild leaves a buffer an epoch still pins to
    /// that epoch.
    pub fn share_recon(&self) -> Arc<Vec<f64>> {
        Arc::clone(&self.held.recon)
    }

    /// Guaranteed L∞ bound of [`FieldReader::data`] versus the original.
    pub fn guaranteed_bound(&self) -> f64 {
        self.held.bound
    }

    /// Cumulative fetched bytes.
    pub fn total_fetched(&self) -> usize {
        self.io.fetched
    }

    /// The backend of a decoding reader; `None` for a store-backed view.
    fn backend(&self) -> Option<&dyn Backend> {
        match &self.state {
            State::Decoding { backend, .. } => Some(backend.as_ref()),
            State::View { .. } => None,
        }
    }

    /// Approximate heap bytes of this reader's decoded state — what the
    /// shared store charges against its [`StoreBudget`] for a resident
    /// master: the reconstruction in full, plus whatever the backend's
    /// cursor holds. Store-backed views own nothing (their adopted `Arc`s
    /// are charged to the store).
    ///
    /// [`StoreBudget`]: crate::pager::StoreBudget
    pub fn resident_bytes(&self) -> usize {
        self.backend()
            .map_or(0, |b| self.held.recon.len() * 8 + b.state_bytes())
    }

    /// The representation this reader refines.
    pub fn scheme(&self) -> Scheme {
        self.scheme
    }

    /// The reader's resumable progress marker (see [`ReaderProgress`]).
    pub fn progress(&self) -> ReaderProgress {
        match &self.state {
            State::Decoding { backend, .. } => backend.progress(self.io.fetched as u64),
            State::View { snap, .. } => snap.progress.clone(),
        }
    }

    /// True while a store-backed view holds the cold placeholder it adopted
    /// from a demoted field: zeros at `max|x|` under the demoted field's
    /// marker, so [`FieldReader::progress`] alone does not identify the
    /// reconstruction. Decoding readers are never cold.
    pub(crate) fn is_cold(&self) -> bool {
        matches!(&self.state, State::View { snap, .. } if snap.cold)
    }

    /// True when no further refinement is possible. For store-backed views
    /// this asks the shared store: the view can still improve while the
    /// store holds (or can decode) a deeper state than the view adopted.
    pub fn exhausted(&self) -> bool {
        match &self.state {
            State::Decoding { backend, .. } => backend.exhausted(),
            State::View { store, .. } => {
                !store.can_improve(self.io.field as usize, self.held.bound)
            }
        }
    }

    /// Progression in **resolution** (the second PMGARD axis, §II): drops
    /// the `drop_finest` finest levels and reconstructs the coarse subgrid
    /// from the bytes already fetched. Returns `(coarse_data, coarse_dims)`.
    ///
    /// Only multilevel representations carry a resolution hierarchy;
    /// snapshot- and block-transform-based schemes return
    /// [`PqrError::Unsupported`]. A view reads the *shared* cursor — the
    /// store's (deepest) state, at least as refined as what it adopted.
    pub fn reconstruct_at_resolution(&self, drop_finest: usize) -> Result<(Vec<f64>, Vec<usize>)> {
        match &self.state {
            State::Decoding { backend, .. } => {
                backend.at_resolution(drop_finest, self.held.workers)
            }
            State::View { store, .. } => {
                store.reconstruct_at_resolution(self.io.field as usize, drop_finest)
            }
        }
    }

    /// The fragment indices [`FieldReader::refine_to`]`(eb)` would fetch
    /// from the current state, in consume order, **without fetching** —
    /// the per-field refinement front a retrieval plan schedules. Exact by
    /// construction: every representation's bound model is a function of
    /// consumed-fragment counts and directory/metadata values only, never
    /// of payload contents. Store-backed views schedule nothing themselves:
    /// the shared store fetches (and batches) whatever delta it still needs.
    pub fn plan_refine_to(&self, eb: f64) -> Vec<u32> {
        if eb.is_nan() || eb < 0.0 || self.held.bound <= eb {
            return Vec::new(); // mirrors refine_to's early exits
        }
        self.backend().map_or_else(Vec::new, |b| {
            b.front(eb).into_iter().map(|(index, _)| index).collect()
        })
    }

    /// The **full remaining refinement front** from the current state down
    /// to the representation floor, with the guaranteed bound *after* each
    /// fragment — what the shared store's plan-front cache stores once per
    /// epoch so every tighter request cuts a prefix instead of re-walking
    /// the bound model. `None` for representations without a
    /// prefix-monotone front (plain PSZ3, whose schedule depends on the
    /// target, not just the state), and for store-backed views.
    pub fn plan_refine_with_bounds(&self) -> Option<Vec<(u32, f64)>> {
        self.backend()
            .filter(|b| b.prefix_front())
            .map(|b| b.front(0.0))
    }

    /// The fragment indices [`FieldReader::restore`]`(progress)` will fetch
    /// from a *fresh* reader, in consume order, without fetching — the
    /// restore schedule a resumed session batches through
    /// [`FragmentSource::read_many`]. Validates the marker against the
    /// field exactly as `restore` does.
    pub fn plan_restore(&self, progress: &ReaderProgress) -> Result<Vec<u32>> {
        self.backend()
            .ok_or_else(view_only)?
            .restore_front(progress)
    }

    /// Fetches fragments until the guaranteed bound is ≤ `eb` (absolute) or
    /// the representation is exhausted. Returns newly fetched bytes.
    pub fn refine_to(&mut self, eb: f64) -> Result<usize> {
        if eb < 0.0 || eb.is_nan() {
            return Err(PqrError::InvalidRequest(format!("bad error bound {eb}")));
        }
        // whatever is held already satisfies the request — for a cold view
        // (adopted from a demoted field) that is the placeholder bound
        // max|x| over a zero reconstruction: a sound, if coarse, certified
        // state, answered without wiring the field back in
        if self.held.bound <= eb {
            self.recon_cache_hits += 1;
            return Ok(0);
        }
        let before = self.io.fetched;
        if let State::View { store, snap } = &mut self.state {
            // read through the shared decode state: the store advances its
            // master reader only past what any previous request reached, so
            // this view pays (at most) the delta — and nothing at all when
            // a deeper request already decoded this far. The call carries
            // the adopted snapshot's epoch: `None` back means that snapshot
            // still is the published state and nothing tighter is
            // decodable, so the view keeps what it holds — no clone, no
            // adoption
            match store.refine_from(self.io.field as usize, eb, snap.epoch)? {
                Some(next) => {
                    self.held.recon = Arc::clone(&next.recon);
                    self.held.bound = next.bound;
                    self.io.fetched = next.fetched;
                    *snap = next;
                }
                None => self.recon_cache_hits += 1,
            }
        } else if !self.consume(&self.plan_refine_to(eb))? {
            self.recon_cache_hits += 1;
        }
        Ok(self.io.fetched - before)
    }

    /// Restores a *fresh* reader to a previously saved [`ReaderProgress`]
    /// by deterministically replaying the recorded fetches through the
    /// reader's fragment source.
    pub fn restore(&mut self, progress: &ReaderProgress) -> Result<()> {
        let front = self.plan_restore(progress)?;
        self.consume(&front)?;
        if let Some(fetched) = progress.recorded_fetched() {
            self.io.fetched = fetched;
        }
        Ok(())
    }

    /// The one routine behind [`FieldReader::refine_to`] and
    /// [`FieldReader::restore`]: fetches and pushes `front` fragment by
    /// fragment, then rebuilds **whenever the decoded state is ahead of the
    /// reconstruction held** — keyed on the state, not on whether this call
    /// pushed — and adopts the rebuild iff the backend's bound is no worse
    /// than the held one. Returns whether a rebuild was adopted.
    ///
    /// A fetch or decode that fails mid-front stops the pushing, not the
    /// rebuild: what did arrive is folded in before the error surfaces, so
    /// a reader never certifies a reconstruction its marker has moved past.
    fn consume(&mut self, front: &[u32]) -> Result<bool> {
        let State::Decoding { backend, ahead } = &mut self.state else {
            return Err(view_only());
        };
        let mut adopted = false;
        let mut pushed = Ok(());
        for &index in front {
            pushed = self
                .io
                .fetch(index)
                .and_then(|bytes| backend.push(index, &bytes));
            if pushed.is_err() {
                break;
            }
            *ahead = true;
            if backend.incremental() && self.held.adopt(backend.as_mut()) {
                (*ahead, adopted) = (false, true);
            }
        }
        if *ahead && self.held.adopt(backend.as_mut()) {
            (*ahead, adopted) = (false, true);
        }
        pushed.map(|()| adopted)
    }
}

impl FragmentSource for RefactoredField {
    fn manifest(&self) -> Result<Manifest> {
        Ok(fragstore::build_manifest(
            &self.dims,
            &[("", self)],
            None,
            &[],
            0,
        ))
    }

    fn fetch(&self, id: FragmentId) -> Result<Arc<Vec<u8>>> {
        if id.field != 0 {
            return Err(PqrError::InvalidRequest(format!(
                "single-field source has no field {}",
                id.field
            )));
        }
        self.fragment(id.index)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pqr_util::stats::max_abs_diff;

    fn field_data(n: usize) -> Vec<f64> {
        (0..n)
            .map(|i| {
                let x = i as f64 / n as f64;
                (x * 7.0).sin() * 3.0 + (x * 23.0).cos() * 0.4 + x
            })
            .collect()
    }

    fn bounds_short() -> Vec<f64> {
        (1..=8).map(|i| 10f64.powi(-i)).collect()
    }

    #[test]
    fn psz3_refetches_full_snapshots_but_delta_does_not() {
        // the §V-B redundancy argument: under a progressive request series
        // PSZ3 moves more bytes than PSZ3-delta
        let data = field_data(20_000);
        let range = stats::value_range(&data);
        let psz3 =
            RefactoredField::refactor_with_bounds(Scheme::Psz3, &data, &[20_000], &bounds_short())
                .unwrap();
        let delta = RefactoredField::refactor_with_bounds(
            Scheme::Psz3Delta,
            &data,
            &[20_000],
            &bounds_short(),
        )
        .unwrap();
        let mut rp = psz3.reader();
        let mut rd = delta.reader();
        for i in 1..=7 {
            let eb = 10f64.powi(-i) * range;
            rp.refine_to(eb).unwrap();
            rd.refine_to(eb).unwrap();
        }
        assert!(
            rp.total_fetched() > rd.total_fetched(),
            "PSZ3 {} !> delta {}",
            rp.total_fetched(),
            rd.total_fetched()
        );
    }

    #[test]
    fn single_request_psz3_fetches_one_snapshot() {
        let data = field_data(5000);
        let range = stats::value_range(&data);
        let rf =
            RefactoredField::refactor_with_bounds(Scheme::Psz3, &data, &[5000], &bounds_short())
                .unwrap();
        let mut reader = rf.reader();
        reader.refine_to(1e-4 * range).unwrap();
        // exactly the 1e-4 snapshot's bytes
        assert_eq!(reader.total_fetched(), rf.frags[3].1.len());
    }

    #[test]
    fn initial_state_is_zero_vector_with_max_abs_bound() {
        let data = field_data(100);
        for scheme in [Scheme::Psz3, Scheme::Psz3Delta] {
            let rf = RefactoredField::refactor_with_bounds(scheme, &data, &[100], &bounds_short())
                .unwrap();
            let reader = rf.reader();
            assert!(reader.data().iter().all(|&v| v == 0.0));
            assert_eq!(reader.guaranteed_bound(), rf.max_abs());
            let real = max_abs_diff(&data, reader.data());
            assert!(real <= reader.guaranteed_bound());
        }
    }

    #[test]
    fn snapshot_floor_reported_when_ladder_exhausted() {
        let data = field_data(500);
        let range = stats::value_range(&data);
        let rf =
            RefactoredField::refactor_with_bounds(Scheme::Psz3, &data, &[500], &bounds_short())
                .unwrap();
        let mut reader = rf.reader();
        // request beyond the ladder floor (1e-8 rel)
        reader.refine_to(1e-15 * range).unwrap();
        assert!(reader.exhausted());
        // bound floors at the last ladder step, NOT at the request
        assert!(reader.guaranteed_bound() <= 1e-8 * range * 1.001);
        assert!(reader.guaranteed_bound() > 1e-15 * range);
    }

    #[test]
    fn serialization_roundtrip_all_schemes() {
        let data = field_data(800);
        for scheme in Scheme::extended() {
            let rf = RefactoredField::refactor_with_bounds(scheme, &data, &[800], &bounds_short())
                .unwrap();
            let bytes = rf.to_bytes();
            let rf2 = RefactoredField::from_bytes(&bytes).unwrap();
            assert_eq!(rf2.scheme(), scheme);
            assert_eq!(rf2.dims(), rf.dims());
            assert_eq!(rf2.value_range(), rf.value_range());
            assert_eq!(rf2.total_bytes(), rf.total_bytes());
            // readers behave identically
            let range = rf.value_range();
            let mut a = rf.reader();
            let mut b = rf2.reader();
            a.refine_to(1e-4 * range).unwrap();
            b.refine_to(1e-4 * range).unwrap();
            assert_eq!(a.data(), b.data());
            assert_eq!(a.total_fetched(), b.total_fetched());
        }
    }

    #[test]
    fn constant_field_handled() {
        let data = vec![5.0; 300];
        for scheme in Scheme::extended() {
            let rf = RefactoredField::refactor_with_bounds(scheme, &data, &[300], &bounds_short())
                .unwrap();
            let mut reader = rf.reader();
            reader.refine_to(1e-6).unwrap();
            let real = max_abs_diff(&data, reader.data());
            assert!(real <= 1e-6, "{}: {real}", scheme.name());
        }
    }

    #[test]
    fn scheme_names_match_paper() {
        assert_eq!(Scheme::Psz3.name(), "PSZ3");
        assert_eq!(Scheme::Psz3Delta.name(), "PSZ3-delta");
        assert_eq!(Scheme::PmgardHb.name(), "PMGARD-HB");
        assert_eq!(Scheme::PmgardOb.name(), "PMGARD");
        assert_eq!(Scheme::Pzfp.name(), "PZFP");
    }

    #[test]
    fn extended_adds_pzfp_after_paper_schemes() {
        let ext = Scheme::extended();
        assert_eq!(&ext[..4], &Scheme::all());
        assert_eq!(ext[4], Scheme::Pzfp);
    }

    #[test]
    fn pzfp_initial_state_is_sound_zero_vector() {
        let data = field_data(200);
        let rf = RefactoredField::refactor(Scheme::Pzfp, &data, &[200]).unwrap();
        let reader = rf.reader();
        assert!(reader.data().iter().all(|&v| v == 0.0));
        let real = max_abs_diff(&data, reader.data());
        assert!(real <= reader.guaranteed_bound());
        assert!(reader.guaranteed_bound() <= rf.max_abs());
    }

    #[test]
    fn shape_mismatch_rejected() {
        assert!(RefactoredField::refactor(Scheme::Psz3, &[1.0], &[2]).is_err());
    }

    #[test]
    fn repeat_refinement_is_memoized_with_zero_recompose() {
        let data = field_data(20_000);
        let range = stats::value_range(&data);
        let rf = RefactoredField::refactor(Scheme::PmgardHb, &data, &[20_000]).unwrap();
        let mut reader = rf.reader();
        reader.refine_to(1e-4 * range).unwrap();
        let passes = reader.recompose_passes();
        assert!(passes > 0, "a deep refine must run recompose passes");
        let held = reader.share_recon();
        // identical request again: zero fetched bytes, zero recompose
        // passes, and the very same reconstruction allocation
        let hits = reader.recon_cache_hits();
        assert_eq!(reader.refine_to(1e-4 * range).unwrap(), 0);
        assert_eq!(reader.recompose_passes(), passes);
        assert!(reader.recon_cache_hits() > hits);
        assert!(Arc::ptr_eq(&held, &reader.share_recon()));
        // a looser request is also served from the memo
        assert_eq!(reader.refine_to(1e-2 * range).unwrap(), 0);
        assert_eq!(reader.recompose_passes(), passes);
    }

    #[test]
    fn parallel_reader_reconstruction_bit_identical() {
        let data = field_data(20_000);
        let range = stats::value_range(&data);
        for scheme in [Scheme::PmgardHb, Scheme::PmgardOb, Scheme::Pzfp] {
            let rf = RefactoredField::refactor(scheme, &data, &[20_000]).unwrap();
            let run = |workers: usize| {
                let mut reader = rf.reader();
                reader.set_workers(workers);
                for rel in [1e-2, 1e-4, 1e-6] {
                    reader.refine_to(rel * range).unwrap();
                }
                (reader.data().to_vec(), reader.guaranteed_bound().to_bits())
            };
            let serial = run(1);
            for workers in [2usize, 4] {
                assert_eq!(serial, run(workers), "{} w={workers}", scheme.name());
            }
        }
    }
}
