//! The three progressive representations of §V-B behind one interface.
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

use crate::fragstore::{self, FragmentId, FragmentInfo, FragmentSource, FragmentStage, Manifest};
use pqr_mgard::{Basis, MgardCursor, MgardMeta, MgardRefactorer, MgardStream};
use pqr_sz::{SzCompressor, SzConfig};
use pqr_util::byteio::{ByteReader, ByteWriter};
use pqr_util::error::{PqrError, Result};
use pqr_util::par::par_dynamic;
use pqr_util::stats;
use pqr_zfp::{ZfpCursor, ZfpMeta, ZfpRefactorer, ZfpStream};
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

/// One stored snapshot of a snapshot-based scheme.
#[derive(Debug, Clone)]
pub struct Snapshot {
    /// Absolute L∞ bound this snapshot guarantees (cumulatively, for delta).
    pub eb_abs: f64,
    /// Compressed payload.
    pub blob: Vec<u8>,
}

/// A refactored progressive field (archive-side artifact).
#[derive(Debug, Clone)]
pub struct RefactoredField {
    pub(crate) scheme: Scheme,
    pub(crate) dims: Vec<usize>,
    /// `max − min` of the original data (drives relative bounds).
    pub(crate) range: f64,
    /// `max |x|` of the original data (initial zero-vector error bound).
    pub(crate) max_abs: f64,
    pub(crate) body: Body,
}

#[derive(Debug, Clone)]
pub(crate) enum Body {
    Snapshots(Vec<Snapshot>),
    Mgard(MgardStream),
    Zfp(ZfpStream),
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
        let max_abs = lo.abs().max(hi.abs());
        // Degenerate (constant/empty) data still needs a usable ladder.
        let scale = if range > 0.0 { range } else { 1.0 };

        let body = match scheme {
            Scheme::Psz3 => {
                // independent snapshots: each bound compresses the original
                // data, so the 18-compression ladder parallelises freely
                let snaps = par_dynamic(rel_bounds.len(), workers, |k| {
                    let sz = SzCompressor::new(SzConfig::default());
                    let eb = rel_bounds[k] * scale;
                    sz.compress(data, dims, eb)
                        .map(|blob| Snapshot { eb_abs: eb, blob })
                })
                .into_iter()
                .collect::<Result<Vec<_>>>()?;
                Body::Snapshots(snaps)
            }
            Scheme::Psz3Delta => {
                // snapshot i compresses the residual of snapshots 1..i−1:
                // a sequential chain no worker count can split
                let sz = SzCompressor::new(SzConfig::default());
                let mut snaps = Vec::with_capacity(rel_bounds.len());
                let mut residual = data.to_vec();
                for &rb in rel_bounds {
                    let eb = rb * scale;
                    let blob = sz.compress(&residual, dims, eb)?;
                    let (recon, _) = sz.decompress(&blob)?;
                    for (r, d) in residual.iter_mut().zip(&recon) {
                        *r -= d;
                    }
                    snaps.push(Snapshot { eb_abs: eb, blob });
                }
                Body::Snapshots(snaps)
            }
            Scheme::PmgardHb => Body::Mgard(
                MgardRefactorer::new(Basis::Hierarchical)
                    .refactor_with_workers(data, dims, workers)?,
            ),
            Scheme::PmgardOb => Body::Mgard(
                MgardRefactorer::new(Basis::Orthogonal)
                    .refactor_with_workers(data, dims, workers)?,
            ),
            Scheme::Pzfp => {
                Body::Zfp(ZfpRefactorer::new().refactor_with_workers(data, dims, workers)?)
            }
        };
        Ok(Self {
            scheme,
            dims: dims.to_vec(),
            range,
            max_abs,
            body,
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

    /// Total archived bytes.
    pub fn total_bytes(&self) -> usize {
        match &self.body {
            Body::Snapshots(s) => s.iter().map(|x| x.blob.len()).sum(),
            Body::Mgard(m) => m.total_bytes(),
            Body::Zfp(z) => z.total_bytes(),
        }
    }

    /// Opens a progressive reader at zero fetched fragments, served from
    /// a shared copy of this resident field (which is itself a
    /// [`FragmentSource`]) — the same code path file-backed and remote
    /// readers go through. The field is cloned behind an `Arc` so the
    /// reader owns its source and carries no borrow.
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

    /// Sizes of the individually fetchable fragments, in storage order — the
    /// transfer simulator uses this to model per-segment movement.
    pub fn fragment_sizes(&self) -> Vec<usize> {
        match &self.body {
            Body::Snapshots(s) => s.iter().map(|x| x.blob.len()).collect(),
            Body::Mgard(m) => {
                let mut v = vec![m.metadata_bytes()];
                v.extend(m.segment_sizes());
                v
            }
            Body::Zfp(z) => {
                let mut v = vec![z.metadata_bytes()];
                v.extend(z.segment_sizes());
                v
            }
        }
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
/// A reader opened through [`FieldReader::open_shared`] is a **view onto a
/// [`ProgressStore`]** instead: it never decodes or fetches itself — every
/// refinement adopts the store's shared decode state, so concurrent
/// sessions pay for each bitplane exactly once.
///
/// [`ProgressStore`]: crate::store::ProgressStore
pub struct FieldReader {
    source: Arc<dyn FragmentSource>,
    field: u32,
    scheme: Scheme,
    /// The field's fragment directory (from the manifest).
    frags: Vec<FragmentInfo>,
    /// Prefetch stage consulted before the source (plan execution parks
    /// batched payloads here; `None` = always fetch per fragment).
    stage: Option<Arc<FragmentStage>>,
    recon: Recon,
    bound: f64,
    fetched: usize,
    /// Payload fragments this reader itself fetched and decoded. Shared
    /// (store-backed) readers never decode, so theirs stays zero — the
    /// counter the decode-once tests assert on.
    consumed: u64,
    /// Worker budget for reconstruction fan-out (multilevel recompose /
    /// block decode). `1` until the owner configures it; every worker
    /// count reconstructs bit-identically.
    workers: usize,
    /// Multilevel recompose axis passes performed rebuilding this reader's
    /// reconstruction (zero for non-multilevel schemes).
    recompose_passes: u64,
    /// Refinement rounds answered from the memoized reconstruction —
    /// zero-decode rounds that performed zero recompose work.
    recon_cache_hits: u64,
    /// Wall-clock nanoseconds spent rebuilding reconstructions.
    reconstruct_nanos: u64,
    state: ReaderState,
}

/// A reader's current reconstruction. Decoding readers own and mutate
/// their buffer; store-backed views hold the store's published `Arc`, so
/// adopting a snapshot costs a refcount bump, never an O(n) copy. The
/// owned buffer is itself `Arc`-wrapped so a shared store can **publish**
/// its master's reconstruction by sharing the same allocation — mutation
/// goes through [`Arc::make_mut`], which copies only when a published
/// epoch still pins the buffer (and only on the accumulate path; the
/// other schemes replace the reconstruction wholesale).
enum Recon {
    Owned(Arc<Vec<f64>>),
    Adopted(Arc<Vec<f64>>),
}

impl Recon {
    fn as_slice(&self) -> &[f64] {
        match self {
            Recon::Owned(v) => v,
            Recon::Adopted(a) => a,
        }
    }

    /// Mutable access for the decoding states (which only ever hold
    /// `Owned` buffers — shared views never mutate their reconstruction).
    fn owned_mut(&mut self) -> &mut Vec<f64> {
        match self {
            Recon::Owned(v) => Arc::make_mut(v),
            Recon::Adopted(_) => unreachable!("shared views never decode into their buffer"),
        }
    }

    /// The reconstruction as a shareable `Arc` — a refcount bump, no copy.
    fn share(&self) -> Arc<Vec<f64>> {
        match self {
            Recon::Owned(v) => Arc::clone(v),
            Recon::Adopted(a) => Arc::clone(a),
        }
    }
}

enum ReaderState {
    Snapshots {
        /// Next snapshot index to fetch (all below are fetched).
        next: usize,
        /// Delta mode: reconstruction accumulates; plain mode: replaces.
        delta: bool,
    },
    Mgard {
        cursor: MgardCursor,
        /// Fragment index of each level's first plane (index 0 is the
        /// metadata fragment).
        level_base: Vec<u32>,
    },
    Zfp(ZfpCursor),
    /// A view onto a shared per-field decode state: refinement adopts the
    /// store's snapshots instead of fetching/decoding locally.
    Shared {
        store: Arc<crate::store::ProgressStore>,
        snap: Arc<crate::store::FieldSnapshot>,
    },
}

impl FieldReader {
    /// Opens a reader on field `field` of `manifest`, fetching the field's
    /// metadata fragment (multilevel/transform schemes) through `source`.
    pub fn open(
        source: Arc<dyn FragmentSource>,
        manifest: &Manifest,
        field: usize,
    ) -> Result<Self> {
        let entry = manifest.fields.get(field).ok_or_else(|| {
            PqrError::InvalidRequest(format!(
                "field {field} out of range ({} fields)",
                manifest.num_fields()
            ))
        })?;
        let n = manifest.num_elements();
        let frags = entry.fragments.clone();
        let fid = field as u32;
        let fetch_meta = || {
            if frags.is_empty() {
                return Err(PqrError::CorruptStream(format!(
                    "{} field without a metadata fragment",
                    entry.scheme.name()
                )));
            }
            source.fetch(FragmentId {
                field: fid,
                index: 0,
            })
        };
        let (mut open_passes, mut open_nanos) = (0u64, 0u64);
        let (state, recon, bound, fetched) = match entry.scheme {
            Scheme::Psz3 | Scheme::Psz3Delta => (
                ReaderState::Snapshots {
                    next: 0,
                    delta: entry.scheme == Scheme::Psz3Delta,
                },
                vec![0.0; n],
                entry.max_abs,
                0,
            ),
            Scheme::PmgardHb | Scheme::PmgardOb => {
                let meta_bytes = fetch_meta()?;
                let meta = MgardMeta::from_bytes(&meta_bytes)?;
                if meta.dims() != manifest.dims {
                    return Err(PqrError::ShapeMismatch(format!(
                        "field metadata shape {:?} != archive {:?}",
                        meta.dims(),
                        manifest.dims
                    )));
                }
                if frags.len() != 1 + meta.total_planes() {
                    return Err(PqrError::CorruptStream(format!(
                        "directory has {} fragments, metadata implies {}",
                        frags.len(),
                        1 + meta.total_planes()
                    )));
                }
                let mut level_base = Vec::with_capacity(meta.num_levels());
                let mut base = 1u32;
                for lm in meta.levels() {
                    level_base.push(base);
                    base += lm.num_planes;
                }
                let cursor = MgardCursor::new(meta);
                let bound = cursor.guaranteed_bound();
                // the metadata (always fetched) carries the root value, so
                // the zero-plane reconstruction is already meaningful
                let t0 = std::time::Instant::now();
                let mut recon = Vec::new();
                open_passes = cursor.reconstruct_into(&mut recon, 1);
                open_nanos = t0.elapsed().as_nanos() as u64;
                let fetched = meta_bytes.len();
                (
                    ReaderState::Mgard { cursor, level_base },
                    recon,
                    bound,
                    fetched,
                )
            }
            Scheme::Pzfp => {
                let meta_bytes = fetch_meta()?;
                let meta = ZfpMeta::from_bytes(&meta_bytes)?;
                if meta.dims() != manifest.dims {
                    return Err(PqrError::ShapeMismatch(format!(
                        "field metadata shape {:?} != archive {:?}",
                        meta.dims(),
                        manifest.dims
                    )));
                }
                if frags.len() != 1 + meta.num_planes() as usize {
                    return Err(PqrError::CorruptStream(format!(
                        "directory has {} fragments, metadata implies {}",
                        frags.len(),
                        1 + meta.num_planes()
                    )));
                }
                let cursor = ZfpCursor::new(meta);
                // the zfp bound model can exceed max|x| before any plane
                // arrives; the zero-vector bound is the better of the two
                let bound = cursor.guaranteed_bound().min(entry.max_abs);
                let fetched = meta_bytes.len();
                (ReaderState::Zfp(cursor), vec![0.0; n], bound, fetched)
            }
        };
        Ok(Self {
            source,
            field: fid,
            scheme: entry.scheme,
            frags,
            stage: None,
            recon: Recon::Owned(Arc::new(recon)),
            bound,
            fetched,
            consumed: 0,
            workers: 1,
            recompose_passes: open_passes,
            recon_cache_hits: 0,
            reconstruct_nanos: open_nanos,
            state,
        })
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
        let entry = manifest.fields.get(field).ok_or_else(|| {
            PqrError::InvalidRequest(format!(
                "field {field} out of range ({} fields)",
                manifest.num_fields()
            ))
        })?;
        let snap = store.adopt(field)?;
        Ok(Self {
            source: Arc::clone(store.source()),
            field: field as u32,
            scheme: entry.scheme,
            frags: entry.fragments.clone(),
            stage: None,
            recon: Recon::Adopted(Arc::clone(&snap.recon)),
            bound: snap.bound,
            fetched: snap.fetched,
            consumed: 0,
            workers: 1,
            recompose_passes: 0,
            recon_cache_hits: 0,
            reconstruct_nanos: 0,
            state: ReaderState::Shared { store, snap },
        })
    }

    /// Sets the worker budget for reconstruction fan-out. Reconstructions
    /// are bit-identical at every worker count, so this only affects wall
    /// clock, never results.
    pub fn set_workers(&mut self, workers: usize) {
        self.workers = workers.max(1);
    }

    /// Multilevel recompose axis passes performed rebuilding this reader's
    /// reconstruction (interp and correction passes each count one).
    pub fn recompose_passes(&self) -> u64 {
        self.recompose_passes
    }

    /// Refinement rounds answered from the memoized reconstruction:
    /// zero-decode rounds perform zero recompose work and land here.
    pub fn recon_cache_hits(&self) -> u64 {
        self.recon_cache_hits
    }

    /// Wall-clock nanoseconds spent rebuilding reconstructions.
    pub fn reconstruct_nanos(&self) -> u64 {
        self.reconstruct_nanos
    }

    /// Takes the current reconstruction's allocation for an in-place
    /// rebuild: a uniquely owned buffer is reused; one pinned by a
    /// published snapshot (or adopted from a store) is left to its owners
    /// and a fresh allocation starts instead — never an O(n) copy, since
    /// the rebuild overwrites every element anyway.
    fn take_recon_buf(&mut self) -> Vec<f64> {
        match std::mem::replace(&mut self.recon, Recon::Owned(Arc::new(Vec::new()))) {
            Recon::Owned(arc) => Arc::try_unwrap(arc).unwrap_or_default(),
            Recon::Adopted(_) => Vec::new(),
        }
    }

    /// Attaches a prefetch stage: subsequent fragment fetches consume
    /// staged payloads before falling back to the source. The retrieval
    /// engine shares one stage across its readers so batched rounds land
    /// where the per-fragment consume path expects them.
    pub fn attach_stage(&mut self, stage: Arc<FragmentStage>) {
        self.stage = Some(stage);
    }

    /// Fetches payload fragment `index` of this field, accounting its bytes.
    /// Staged (batch-prefetched) payloads are consumed first — blocking
    /// briefly when an overlapped prefetch round has promised the fragment
    /// but not yet delivered it; anything neither staged nor promised falls
    /// back to a per-fragment source fetch, so the consume path is correct
    /// whether or not a plan prefetched (and degrades cleanly if a
    /// prefetcher fails mid-round).
    fn fetch(&mut self, index: u32) -> Result<Arc<Vec<u8>>> {
        let id = FragmentId {
            field: self.field,
            index,
        };
        let payload = match self.stage.as_ref().and_then(|s| s.take_or_wait(id)) {
            Some(staged) => staged,
            None => self.source.fetch(id)?,
        };
        self.fetched += payload.len();
        self.consumed += 1;
        Ok(payload)
    }

    /// Payload fragments this reader fetched **and decoded** itself.
    /// Store-backed views report zero forever — their decodes happen once,
    /// in the shared [`ProgressStore`](crate::store::ProgressStore).
    pub fn fragments_decoded(&self) -> u64 {
        self.consumed
    }

    /// Current reconstruction (zeros before any fetch — Algorithm 2 line 2).
    pub fn data(&self) -> &[f64] {
        self.recon.as_slice()
    }

    /// The current reconstruction as a shareable `Arc` — a refcount bump,
    /// never a copy. This is how a
    /// [`ProgressStore`](crate::store::ProgressStore) publishes its
    /// master's state: the snapshot and the reader share one allocation,
    /// and the reader copies-on-write only if it later mutates in place
    /// while an epoch still pins the buffer.
    pub fn share_recon(&self) -> Arc<Vec<f64>> {
        self.recon.share()
    }

    /// Guaranteed L∞ bound of [`FieldReader::data`] versus the original.
    pub fn guaranteed_bound(&self) -> f64 {
        self.bound
    }

    /// Cumulative fetched bytes.
    pub fn total_fetched(&self) -> usize {
        self.fetched
    }

    /// Approximate heap bytes of this reader's decoded state — what the
    /// shared store charges against its [`StoreBudget`] for a resident
    /// master. Owned reconstructions count in full; the multilevel /
    /// block-transform cursors additionally hold coefficient and
    /// accumulator buffers on the order of two field copies. Store-backed
    /// views own nothing (their adopted `Arc`s are charged to the store).
    ///
    /// [`StoreBudget`]: crate::pager::StoreBudget
    pub fn resident_bytes(&self) -> usize {
        let recon = match &self.recon {
            Recon::Owned(v) => v.len() * 8,
            Recon::Adopted(_) => 0,
        };
        let cursor = match &self.state {
            ReaderState::Mgard { .. } | ReaderState::Zfp(_) => self.recon.as_slice().len() * 16,
            _ => 0,
        };
        recon + cursor
    }

    /// The representation this reader refines.
    pub fn scheme(&self) -> Scheme {
        self.scheme
    }

    /// The reader's resumable progress marker (see [`ReaderProgress`]).
    pub fn progress(&self) -> ReaderProgress {
        match &self.state {
            ReaderState::Snapshots { next, .. } => ReaderProgress::Snapshots {
                next: *next as u32,
                fetched: self.fetched as u64,
            },
            ReaderState::Mgard { cursor, .. } => ReaderProgress::Mgard {
                planes: cursor.planes_read(),
            },
            ReaderState::Zfp(z) => ReaderProgress::Zfp {
                planes: z.planes_read(),
            },
            ReaderState::Shared { snap, .. } => snap.progress.clone(),
        }
    }

    /// True while a store-backed view holds the cold placeholder it adopted
    /// from a demoted field: zeros at `max|x|` under the demoted field's
    /// marker, so [`FieldReader::progress`] alone does not identify the
    /// reconstruction. Decoding readers are never cold.
    pub(crate) fn is_cold(&self) -> bool {
        matches!(&self.state, ReaderState::Shared { snap, .. } if snap.cold)
    }

    /// True when no further refinement is possible. For store-backed views
    /// this asks the shared store: the view can still improve while the
    /// store holds (or can decode) a deeper state than the view adopted.
    pub fn exhausted(&self) -> bool {
        match &self.state {
            ReaderState::Snapshots { next, .. } => *next >= self.frags.len(),
            ReaderState::Mgard { cursor, .. } => cursor.fully_fetched(),
            ReaderState::Zfp(z) => z.fully_fetched(),
            ReaderState::Shared { store, .. } => {
                !store.can_improve(self.field as usize, self.bound)
            }
        }
    }

    /// Progression in **resolution** (the second PMGARD axis, §II): drops
    /// the `drop_finest` finest levels and reconstructs the coarse subgrid
    /// from the bytes already fetched. Returns `(coarse_data, coarse_dims)`.
    ///
    /// Only multilevel representations carry a resolution hierarchy;
    /// snapshot- and block-transform-based schemes return
    /// [`PqrError::Unsupported`].
    pub fn reconstruct_at_resolution(&self, drop_finest: usize) -> Result<(Vec<f64>, Vec<usize>)> {
        match &self.state {
            ReaderState::Mgard { cursor, .. } => {
                let mut out = Vec::new();
                let dims =
                    cursor.reconstruct_at_resolution_into(drop_finest, &mut out, self.workers);
                Ok((out, dims))
            }
            ReaderState::Snapshots { .. } => Err(PqrError::Unsupported(format!(
                "{} has no resolution hierarchy",
                self.scheme.name()
            ))),
            ReaderState::Zfp(_) => Err(PqrError::Unsupported(
                "PZFP has no resolution hierarchy".into(),
            )),
            // the resolution view reads the *shared* cursor — it reflects
            // the store's (deepest) state, which is at least as refined as
            // this view's adopted snapshot
            ReaderState::Shared { store, .. } => {
                store.reconstruct_at_resolution(self.field as usize, drop_finest)
            }
        }
    }

    /// The fragment indices [`FieldReader::refine_to`]`(eb)` would fetch
    /// from the current state, in consume order, **without fetching** —
    /// the per-field refinement front a retrieval plan schedules. Exact by
    /// construction: every representation's bound model is a function of
    /// consumed-fragment counts and directory/metadata values only
    /// (snapshot directory bounds, MGARD truncation exponents, ZFP
    /// `bound_after`), never of payload contents.
    pub fn plan_refine_to(&self, eb: f64) -> Vec<u32> {
        if eb.is_nan() || eb < 0.0 || self.bound <= eb {
            return Vec::new(); // mirrors refine_to's early exits
        }
        match &self.state {
            ReaderState::Snapshots { next, delta } => {
                if self.frags.is_empty() {
                    return Vec::new(); // born exhausted
                }
                let target = self
                    .frags
                    .iter()
                    .position(|s| s.eb_abs <= eb)
                    .unwrap_or(self.frags.len() - 1);
                if *delta {
                    (*next..=target).map(|i| i as u32).collect()
                } else if target >= *next {
                    vec![target as u32]
                } else {
                    Vec::new()
                }
            }
            ReaderState::Mgard { cursor, level_base } => cursor
                .plan_to_bound(eb)
                .into_iter()
                .map(|(l, p)| level_base[l] + p as u32)
                .collect(),
            ReaderState::Zfp(cursor) => {
                let meta = cursor.meta();
                let mut k = cursor.planes_read();
                let mut out = Vec::new();
                while meta.bound_after(k) > eb && k < meta.num_planes() {
                    out.push(1 + k);
                    k += 1;
                }
                out
            }
            // store-backed views schedule nothing themselves: the shared
            // store fetches (and batches) whatever delta it still needs
            ReaderState::Shared { .. } => Vec::new(),
        }
    }

    /// The **full remaining refinement front** from the current state down
    /// to the representation floor, with the guaranteed bound *after* each
    /// fragment — what the shared store's plan-front cache stores once per
    /// epoch so every tighter request cuts a prefix instead of re-walking
    /// the bound model. `None` for representations without a
    /// prefix-monotone front: plain PSZ3 re-fetches one
    /// adequate-per-request snapshot (the schedule depends on the target,
    /// not just the state), and store-backed views schedule nothing.
    pub fn plan_refine_with_bounds(&self) -> Option<Vec<(u32, f64)>> {
        match &self.state {
            ReaderState::Snapshots { next, delta: true } => Some(
                (*next..self.frags.len())
                    .map(|i| (i as u32, self.frags[i].eb_abs))
                    .collect(),
            ),
            ReaderState::Snapshots { .. } => None,
            ReaderState::Mgard { cursor, level_base } => Some(
                cursor
                    .plan_to_bound_with_bounds(0.0)
                    .into_iter()
                    .map(|(l, p, after)| (level_base[l] + p as u32, after))
                    .collect(),
            ),
            ReaderState::Zfp(cursor) => {
                let meta = cursor.meta();
                Some(
                    (cursor.planes_read()..meta.num_planes())
                        .map(|k| (1 + k, meta.bound_after(k + 1)))
                        .collect(),
                )
            }
            ReaderState::Shared { .. } => None,
        }
    }

    /// The fragment indices [`FieldReader::restore`]`(progress)` will fetch
    /// from a *fresh* reader, in consume order, without fetching — the
    /// restore schedule a resumed session batches through
    /// [`FragmentSource::read_many`]. Validates the marker against the
    /// directory exactly as `restore` does.
    pub fn plan_restore(&self, progress: &ReaderProgress) -> Result<Vec<u32>> {
        match (&self.state, progress) {
            (
                ReaderState::Snapshots { delta, .. },
                ReaderProgress::Snapshots { next: want, .. },
            ) => {
                let want = *want as usize;
                if want > self.frags.len() {
                    return Err(PqrError::InvalidRequest(format!(
                        "progress wants snapshot {want}, archive has {}",
                        self.frags.len()
                    )));
                }
                Ok(if *delta {
                    (0..want as u32).collect()
                } else if want > 0 {
                    vec![(want - 1) as u32]
                } else {
                    Vec::new()
                })
            }
            (ReaderState::Mgard { cursor, level_base }, ReaderProgress::Mgard { planes }) => {
                if planes.len() != cursor.meta().num_levels() {
                    return Err(PqrError::InvalidRequest(format!(
                        "progress has {} levels, stream has {}",
                        planes.len(),
                        cursor.meta().num_levels()
                    )));
                }
                let mut out = Vec::new();
                for (l, &k) in planes.iter().enumerate() {
                    if k > cursor.meta().levels()[l].num_planes {
                        return Err(PqrError::InvalidRequest(format!(
                            "progress wants {k} planes of level {l}, stream has {}",
                            cursor.meta().levels()[l].num_planes
                        )));
                    }
                    out.extend((0..k).map(|p| level_base[l] + p));
                }
                Ok(out)
            }
            (ReaderState::Zfp(cursor), ReaderProgress::Zfp { planes }) => {
                if *planes > cursor.meta().num_planes() {
                    return Err(PqrError::InvalidRequest(format!(
                        "progress wants {planes} planes, archive has {}",
                        cursor.meta().num_planes()
                    )));
                }
                Ok((0..*planes).map(|p| 1 + p).collect())
            }
            (ReaderState::Shared { .. }, _) => Err(PqrError::Unsupported(
                "store-backed session views do not replay progress; \
                 open a fresh session on the service instead"
                    .into(),
            )),
            _ => Err(PqrError::InvalidRequest(format!(
                "progress marker does not match scheme {}",
                self.scheme.name()
            ))),
        }
    }

    /// Fetches fragments until the guaranteed bound is ≤ `eb` (absolute) or
    /// the representation is exhausted. Returns newly fetched bytes.
    pub fn refine_to(&mut self, eb: f64) -> Result<usize> {
        if eb < 0.0 || eb.is_nan() {
            return Err(PqrError::InvalidRequest(format!("bad error bound {eb}")));
        }
        if let ReaderState::Shared { store, snap } = &mut self.state {
            // a cold view (adopted from a demoted field) carries the
            // placeholder bound max|x| over a zero reconstruction — a
            // sound, if coarse, certified state. Anything satisfied by it
            // is answered without wiring the field back in; the first
            // request that needs tighter (eb < max|x|) reads through, and
            // the store rehydrates and serves the true snapshot
            if self.bound <= eb {
                self.recon_cache_hits += 1;
                return Ok(0);
            }
            // read through the shared decode state: the store advances its
            // master reader only past what any previous request reached, so
            // this view pays (at most) the delta — and nothing at all when
            // a deeper request already decoded this far. The call carries
            // the adopted snapshot's epoch: `None` back means that snapshot
            // still is the published state and nothing tighter is decodable,
            // so the view keeps what it holds — no clone, no adoption
            let Some(next) = store.refine_from(self.field as usize, eb, snap.epoch)? else {
                self.recon_cache_hits += 1;
                return Ok(0);
            };
            let before = self.fetched;
            self.recon = Recon::Adopted(Arc::clone(&next.recon));
            self.bound = next.bound;
            self.fetched = next.fetched;
            *snap = next;
            return Ok(self.fetched - before);
        }
        if self.bound <= eb {
            self.recon_cache_hits += 1;
            return Ok(0);
        }
        let before = self.fetched;
        // the state is moved out so `self.fetch` can borrow mutably; every
        // arm puts it back
        let mut state = std::mem::replace(
            &mut self.state,
            ReaderState::Snapshots {
                next: 0,
                delta: false,
            },
        );
        let result = self.refine_state(&mut state, eb);
        self.state = state;
        result?;
        Ok(self.fetched - before)
    }

    fn refine_state(&mut self, state: &mut ReaderState, eb: f64) -> Result<()> {
        match state {
            ReaderState::Snapshots { next, delta } => {
                // a ladder-less (zero-snapshot) field is born exhausted: the
                // zero-vector reconstruction at the max|x| bound is all it
                // can ever offer
                if self.frags.is_empty() {
                    return Ok(());
                }
                let sz = SzCompressor::new(SzConfig::default());
                // target: smallest index with eb_abs ≤ eb (ladder is sorted
                // descending); if none, the last (floor).
                let target = match self.frags.iter().position(|s| s.eb_abs <= eb) {
                    Some(i) => i,
                    None => self.frags.len() - 1,
                };
                if *delta {
                    // fetch the prefix ..=target that is still missing
                    while *next <= target && *next < self.frags.len() {
                        let eb_abs = self.frags[*next].eb_abs;
                        let blob = self.fetch(*next as u32)?;
                        let (part, _) = sz.decompress(&blob)?;
                        for (acc, p) in self.recon.owned_mut().iter_mut().zip(&part) {
                            *acc += p;
                        }
                        self.bound = eb_abs;
                        *next += 1;
                    }
                } else if target >= *next {
                    // plain PSZ3 re-fetches the full adequate snapshot —
                    // the cross-snapshot redundancy of §V-B
                    let eb_abs = self.frags[target].eb_abs;
                    let blob = self.fetch(target as u32)?;
                    let (recon, _) = sz.decompress(&blob)?;
                    self.recon = Recon::Owned(Arc::new(recon));
                    self.bound = eb_abs;
                    *next = target + 1;
                }
            }
            ReaderState::Mgard { cursor, level_base } => {
                let mut pushed = false;
                while cursor.guaranteed_bound() > eb {
                    let Some((l, p)) = cursor.next_plane() else {
                        break; // exhausted
                    };
                    let bytes = self.fetch(level_base[l] + p as u32)?;
                    cursor.push_plane(l, &bytes)?;
                    pushed = true;
                }
                if pushed {
                    let t0 = std::time::Instant::now();
                    let mut buf = self.take_recon_buf();
                    self.recompose_passes += cursor.reconstruct_into(&mut buf, self.workers);
                    self.reconstruct_nanos += t0.elapsed().as_nanos() as u64;
                    self.recon = Recon::Owned(Arc::new(buf));
                } else {
                    // zero-decode round: the memoized reconstruction stands,
                    // zero recompose passes run
                    self.recon_cache_hits += 1;
                }
                self.bound = cursor.guaranteed_bound().min(self.bound);
            }
            ReaderState::Zfp(cursor) => {
                let mut pushed = false;
                while cursor.guaranteed_bound() > eb && !cursor.fully_fetched() {
                    let bytes = self.fetch(1 + cursor.planes_read())?;
                    cursor.push_plane(&bytes)?;
                    pushed = true;
                }
                // The zfp bound model is conservative: for the first few
                // planes it can exceed the zero-vector bound max|x| this
                // reader starts from. Only adopt the zfp reconstruction
                // once its guarantee beats the current one; the fetched
                // planes are retained in the cursor either way. A
                // zero-decode round leaves the cursor (and hence the
                // reconstruction) unchanged, so the memoized buffer stands.
                let zb = cursor.guaranteed_bound();
                if pushed && zb <= self.bound {
                    let t0 = std::time::Instant::now();
                    let mut buf = self.take_recon_buf();
                    cursor.reconstruct_into(&mut buf, self.workers);
                    self.reconstruct_nanos += t0.elapsed().as_nanos() as u64;
                    self.recon = Recon::Owned(Arc::new(buf));
                    self.bound = zb;
                } else if !pushed {
                    self.recon_cache_hits += 1;
                }
            }
            // refine_to short-circuits shared views through the store
            ReaderState::Shared { .. } => unreachable!("shared views refine through the store"),
        }
        Ok(())
    }

    /// Restores a *fresh* reader to a previously saved [`ReaderProgress`]
    /// by deterministically replaying the recorded fetches through the
    /// reader's fragment source.
    pub fn restore(&mut self, progress: &ReaderProgress) -> Result<()> {
        let mut state = std::mem::replace(
            &mut self.state,
            ReaderState::Snapshots {
                next: 0,
                delta: false,
            },
        );
        let result = self.restore_state(&mut state, progress);
        self.state = state;
        result
    }

    fn restore_state(&mut self, state: &mut ReaderState, progress: &ReaderProgress) -> Result<()> {
        match (state, progress) {
            (
                ReaderState::Snapshots { next, delta },
                ReaderProgress::Snapshots {
                    next: want,
                    fetched,
                },
            ) => {
                let want = *want as usize;
                if want > self.frags.len() {
                    return Err(PqrError::InvalidRequest(format!(
                        "progress wants snapshot {want}, archive has {}",
                        self.frags.len()
                    )));
                }
                let sz = SzCompressor::new(SzConfig::default());
                if *delta {
                    for i in 0..want {
                        let eb_abs = self.frags[i].eb_abs;
                        let blob = self.fetch(i as u32)?;
                        let (part, _) = sz.decompress(&blob)?;
                        for (acc, p) in self.recon.owned_mut().iter_mut().zip(&part) {
                            *acc += p;
                        }
                        self.bound = eb_abs;
                    }
                } else if want > 0 {
                    let eb_abs = self.frags[want - 1].eb_abs;
                    let blob = self.fetch((want - 1) as u32)?;
                    let (recon, _) = sz.decompress(&blob)?;
                    self.recon = Recon::Owned(Arc::new(recon));
                    self.bound = eb_abs;
                }
                *next = want;
                // not derivable from the index: plain PSZ3 may have
                // re-fetched several snapshots on the way
                self.fetched = *fetched as usize;
            }
            (ReaderState::Mgard { cursor, level_base }, ReaderProgress::Mgard { planes }) => {
                if planes.len() != cursor.meta().num_levels() {
                    return Err(PqrError::InvalidRequest(format!(
                        "progress has {} levels, stream has {}",
                        planes.len(),
                        cursor.meta().num_levels()
                    )));
                }
                for (l, &k) in planes.iter().enumerate() {
                    if k > cursor.meta().levels()[l].num_planes {
                        return Err(PqrError::InvalidRequest(format!(
                            "progress wants {k} planes of level {l}, stream has {}",
                            cursor.meta().levels()[l].num_planes
                        )));
                    }
                    for p in 0..k {
                        let bytes = self.fetch(level_base[l] + p)?;
                        cursor.push_plane(l, &bytes)?;
                    }
                }
                let t0 = std::time::Instant::now();
                let mut buf = self.take_recon_buf();
                self.recompose_passes += cursor.reconstruct_into(&mut buf, self.workers);
                self.reconstruct_nanos += t0.elapsed().as_nanos() as u64;
                self.recon = Recon::Owned(Arc::new(buf));
                self.bound = cursor.guaranteed_bound();
            }
            (ReaderState::Zfp(cursor), ReaderProgress::Zfp { planes }) => {
                if *planes > cursor.meta().num_planes() {
                    return Err(PqrError::InvalidRequest(format!(
                        "progress wants {planes} planes, archive has {}",
                        cursor.meta().num_planes()
                    )));
                }
                for p in 0..*planes {
                    let bytes = self.fetch(1 + p)?;
                    cursor.push_plane(&bytes)?;
                }
                // mirror refine_to: adopt the zfp reconstruction only once
                // its guarantee beats the zero-vector bound
                let zb = cursor.guaranteed_bound();
                if zb <= self.bound {
                    let t0 = std::time::Instant::now();
                    let mut buf = self.take_recon_buf();
                    cursor.reconstruct_into(&mut buf, self.workers);
                    self.reconstruct_nanos += t0.elapsed().as_nanos() as u64;
                    self.recon = Recon::Owned(Arc::new(buf));
                    self.bound = zb;
                }
            }
            (ReaderState::Shared { .. }, _) => {
                return Err(PqrError::Unsupported(
                    "store-backed session views do not replay progress; \
                     open a fresh session on the service instead"
                        .into(),
                ))
            }
            _ => {
                return Err(PqrError::InvalidRequest(format!(
                    "progress marker does not match scheme {}",
                    self.scheme.name()
                )))
            }
        }
        Ok(())
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
        Ok(Arc::new(fragstore::fetch_field_payload(self, id.index)?))
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
    fn every_scheme_meets_requested_bounds() {
        let data = field_data(3000);
        let range = stats::value_range(&data);
        for scheme in Scheme::extended() {
            let rf = RefactoredField::refactor_with_bounds(scheme, &data, &[3000], &bounds_short())
                .unwrap();
            let mut reader = rf.reader();
            for rel in [1e-1, 1e-3, 1e-6] {
                let eb = rel * range;
                reader.refine_to(eb).unwrap();
                assert!(
                    reader.guaranteed_bound() <= eb,
                    "{}: bound {} > {eb}",
                    scheme.name(),
                    reader.guaranteed_bound()
                );
                let real = max_abs_diff(&data, reader.data());
                assert!(
                    real <= reader.guaranteed_bound(),
                    "{}: real {real} > guarantee {}",
                    scheme.name(),
                    reader.guaranteed_bound()
                );
            }
        }
    }

    #[test]
    fn byte_accounting_is_cumulative_and_monotone() {
        let data = field_data(4000);
        let range = stats::value_range(&data);
        for scheme in Scheme::extended() {
            let rf = RefactoredField::refactor_with_bounds(scheme, &data, &[4000], &bounds_short())
                .unwrap();
            let mut reader = rf.reader();
            let mut last = reader.total_fetched();
            for rel in [1e-1, 1e-2, 1e-4, 1e-6] {
                reader.refine_to(rel * range).unwrap();
                assert!(reader.total_fetched() >= last, "{}", scheme.name());
                last = reader.total_fetched();
            }
        }
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
        if let Body::Snapshots(snaps) = &rf.body {
            assert_eq!(reader.total_fetched(), snaps[3].blob.len());
        } else {
            panic!("wrong body");
        }
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
    fn pzfp_meets_requested_bounds() {
        let data = field_data(3000);
        let range = stats::value_range(&data);
        let rf = RefactoredField::refactor(Scheme::Pzfp, &data, &[3000]).unwrap();
        let mut reader = rf.reader();
        for rel in [1e-1, 1e-3, 1e-6, 1e-9] {
            let eb = rel * range;
            reader.refine_to(eb).unwrap();
            assert!(reader.guaranteed_bound() <= eb, "rel={rel}");
            let real = max_abs_diff(&data, reader.data());
            assert!(real <= reader.guaranteed_bound(), "rel={rel}: {real}");
        }
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
    fn pzfp_serialization_roundtrip() {
        let data = field_data(900);
        let rf = RefactoredField::refactor(Scheme::Pzfp, &data, &[900]).unwrap();
        let rf2 = RefactoredField::from_bytes(&rf.to_bytes()).unwrap();
        assert_eq!(rf2.scheme(), Scheme::Pzfp);
        let range = rf.value_range();
        let mut a = rf.reader();
        let mut b = rf2.reader();
        a.refine_to(1e-5 * range).unwrap();
        b.refine_to(1e-5 * range).unwrap();
        assert_eq!(a.data(), b.data());
        assert_eq!(a.total_fetched(), b.total_fetched());
    }

    #[test]
    fn pzfp_bound_never_regresses_while_refining() {
        // the conservative early-plane model must never push the reported
        // bound above the zero-vector bound the reader starts from
        let data = field_data(2048);
        let range = stats::value_range(&data);
        let rf = RefactoredField::refactor(Scheme::Pzfp, &data, &[2048]).unwrap();
        let mut reader = rf.reader();
        let mut prev = reader.guaranteed_bound();
        for i in 1..=25 {
            let eb = 0.5 * (2.0f64).powi(-i) * range;
            reader.refine_to(eb).unwrap();
            assert!(reader.guaranteed_bound() <= prev, "i={i}");
            let real = max_abs_diff(&data, reader.data());
            assert!(real <= reader.guaranteed_bound(), "i={i}");
            prev = reader.guaranteed_bound();
        }
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
