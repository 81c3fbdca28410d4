//! Component-expansion backends: everything this crate knows about one
//! progressive representation, behind one trait.
//!
//! "A General Framework for Progressive Data Compression and Retrieval"
//! models every progressive scheme as a multi-component expansion
//! `x̃ᵢ = x̃ᵢ₋₁ + decode(cᵢ)` with per-component error metadata, and the
//! paper's Alg. 2 line 10 calls one `progressive_construct(field, ε)`
//! whatever the representation underneath (§V swaps four). Here a
//! *component* is a fragment of the field's directory, and a [`Backend`]
//! answers the four questions a reader asks of a representation:
//!
//! * which components, in which order, reach a bound — [`Backend::front`],
//!   computed from metadata alone, each step annotated with the bound that
//!   holds after it (the per-component error metadata);
//! * what a component decodes to — [`Backend::push`];
//! * what the components consumed so far reconstruct to, and within what
//!   bound — [`Backend::rebuild`], [`Backend::bound`];
//! * how to name that state and get back to it — [`Backend::progress`],
//!   [`Backend::restore_front`].
//!
//! Three implementations cover the five [`Scheme`]s: [`Ladder`] (PSZ3 and
//! PSZ3-delta snapshots), [`Multilevel`] (both PMGARD bases) and
//! [`BlockTransform`] (PZFP). The encode side lives here too
//! ([`encode`], [`max_fragments`]), so this module and `impl Scheme` are the
//! only non-test code in the crate that names a scheme: the reader, the
//! container, the store and the planner see fragments and bounds. A further
//! representation is one more `impl Backend` plus an arm in [`encode`],
//! [`max_fragments`] and [`open`].

use crate::fragstore::FieldEntry;
use crate::refactored::{ReaderProgress, Scheme};
use pqr_mgard::{Basis, MgardCursor, MgardMeta, MgardRefactorer};
use pqr_sz::{SzCompressor, SzConfig};
use pqr_util::error::{PqrError, Result};
use pqr_zfp::{ZfpCursor, ZfpMeta, ZfpRefactorer};
use std::sync::Arc;

/// A field's fragments in directory order, each with its directory bound
/// (`eb_abs`: a snapshot's guarantee; `0.0` for metadata and plane
/// fragments, whose bounds come from the decode model).
pub(crate) type Fragments = Vec<(f64, Arc<Vec<u8>>)>;

/// The decode state of one field under one representation. Fragment indices
/// are directory indices; every method but `push` and `rebuild` is pure.
pub(crate) trait Backend: Send + Sync {
    /// Guaranteed L∞ bound of what [`Backend::rebuild`] produces now.
    fn bound(&self) -> f64;

    /// The fragments a refinement to `eb` consumes from the current state,
    /// in consume order, each with the bound that holds after it — down to
    /// the representation floor when `eb` is out of reach. Exact: every
    /// bound model reads consumed-fragment counts and metadata only, never
    /// payload contents.
    fn front(&self, eb: f64) -> Vec<(u32, f64)>;

    /// Whether `front(eb)` is a prefix of `front(0.0)` for every `eb`, so a
    /// cached full front can be cut instead of re-walked. Plain PSZ3
    /// fetches the one adequate snapshot per request: its schedule depends
    /// on the target, not only on the state.
    fn prefix_front(&self) -> bool {
        true
    }

    /// The fragments a *fresh* backend consumes to reach `progress`, in
    /// consume order, validated against this field's structure.
    fn restore_front(&self, progress: &ReaderProgress) -> Result<Vec<u32>>;

    /// Decodes fragment `index` into the state. Fragments must arrive in a
    /// front's order; a failed push leaves the state as it was.
    fn push(&mut self, index: u32, bytes: &[u8]) -> Result<()>;

    /// True when [`Backend::rebuild`] folds what was pushed *into* the
    /// reconstruction it is handed (`x̃ᵢ = x̃ᵢ₋₁ + decode(cᵢ)` taken
    /// literally) instead of overwriting it: the reader then hands it the
    /// held values, after every push, so no decoded component outlives the
    /// next and the sums run in fragment order.
    fn incremental(&self) -> bool {
        false
    }

    /// Writes the reconstruction of the current state into `out` on the
    /// calling thread (parallelism lives across fields, one rebuild per
    /// thread). Returns the multilevel recompose passes run.
    fn rebuild(&mut self, out: &mut Vec<f64>) -> u64;

    /// The resumable marker of the current state. `fetched` is the
    /// reader's cumulative byte count, which the snapshot marker carries.
    fn progress(&self, fetched: u64) -> ReaderProgress;

    /// True when no fragment is left to consume.
    fn exhausted(&self) -> bool;

    /// Approximate heap bytes of the decode state, beyond the
    /// reconstruction the reader holds.
    fn state_bytes(&self) -> usize;

    /// Progression in resolution: the reconstruction on the subgrid that
    /// drops the `drop_finest` finest levels, with its shape.
    fn at_resolution(&self, _drop_finest: usize) -> Result<(Vec<f64>, Vec<usize>)> {
        Err(PqrError::Unsupported(
            "this representation has no resolution hierarchy".into(),
        ))
    }
}

fn marker_mismatch() -> PqrError {
    PqrError::InvalidRequest("progress marker belongs to another representation".into())
}

fn out_of_order(index: u32) -> PqrError {
    PqrError::InvalidRequest(format!("fragment {index} pushed out of order"))
}

// ---------------------------------------------------------------------------
// Snapshot ladders (PSZ3, PSZ3-delta)
// ---------------------------------------------------------------------------

/// Error-bounded snapshots at a descending ladder of bounds. In delta mode
/// snapshot *i* compresses the residual of snapshots `..i` and a request
/// consumes a prefix; in plain mode every snapshot compresses the original
/// and a request fetches the one adequate snapshot in full, replacing what
/// was held (the cross-snapshot redundancy of §V-B).
struct Ladder {
    /// The directory bound of each snapshot.
    ebs: Vec<f64>,
    delta: bool,
    /// Elements per snapshot.
    n: usize,
    /// One past the last consumed snapshot.
    next: usize,
    bound: f64,
    /// A decoded snapshot `rebuild` has not folded in yet.
    pending: Option<Vec<f64>>,
}

impl Backend for Ladder {
    fn bound(&self) -> f64 {
        self.bound
    }

    fn front(&self, eb: f64) -> Vec<(u32, f64)> {
        // the smallest index whose bound suffices (the ladder descends), or
        // the floor; a ladder-less field is born exhausted
        let Some(floor) = self.ebs.len().checked_sub(1) else {
            return Vec::new();
        };
        let target = self.ebs.iter().position(|&e| e <= eb).unwrap_or(floor);
        let from = if self.delta {
            self.next
        } else {
            target.max(self.next)
        };
        (from..=target).map(|i| (i as u32, self.ebs[i])).collect()
    }

    fn prefix_front(&self) -> bool {
        self.delta
    }

    fn restore_front(&self, progress: &ReaderProgress) -> Result<Vec<u32>> {
        let ReaderProgress::Snapshots { next, .. } = progress else {
            return Err(marker_mismatch());
        };
        if *next as usize > self.ebs.len() {
            return Err(PqrError::InvalidRequest(format!(
                "progress wants snapshot {next}, archive has {}",
                self.ebs.len()
            )));
        }
        Ok(if self.delta {
            (0..*next).collect()
        } else {
            next.checked_sub(1).into_iter().collect()
        })
    }

    fn push(&mut self, index: u32, bytes: &[u8]) -> Result<()> {
        let i = index as usize;
        if i >= self.ebs.len() || i < self.next || (self.delta && i != self.next) {
            return Err(out_of_order(index));
        }
        let (part, _) = SzCompressor::new(SzConfig::default()).decompress(bytes)?;
        if part.len() != self.n {
            return Err(PqrError::CorruptStream(format!(
                "snapshot {index} holds {} elements, field has {}",
                part.len(),
                self.n
            )));
        }
        match &mut self.pending {
            // only when the reader declined the previous residual (a ladder
            // that does not descend): keep the sum, not the last term
            Some(unfolded) if self.delta => {
                for (acc, p) in unfolded.iter_mut().zip(&part) {
                    *acc += p;
                }
            }
            pending => *pending = Some(part),
        }
        self.next = i + 1;
        self.bound = self.ebs[i];
        Ok(())
    }

    fn incremental(&self) -> bool {
        self.delta
    }

    fn rebuild(&mut self, out: &mut Vec<f64>) -> u64 {
        match self.pending.take() {
            Some(part) if self.delta => {
                for (acc, p) in out.iter_mut().zip(&part) {
                    *acc += p;
                }
            }
            Some(snapshot) => *out = snapshot,
            None => {}
        }
        0
    }

    fn progress(&self, fetched: u64) -> ReaderProgress {
        ReaderProgress::Snapshots {
            next: self.next as u32,
            fetched,
        }
    }

    fn exhausted(&self) -> bool {
        self.next >= self.ebs.len()
    }

    fn state_bytes(&self) -> usize {
        0
    }
}

// ---------------------------------------------------------------------------
// Multilevel decomposition + bitplanes (PMGARD-HB, PMGARD)
// ---------------------------------------------------------------------------

/// An [`MgardCursor`] addressed by fragment index: fragment 0 is the
/// metadata, the planes follow level-major, MSB first within a level.
struct Multilevel {
    cursor: MgardCursor,
    /// Fragment index of each level's first plane.
    level_base: Vec<u32>,
}

impl Backend for Multilevel {
    fn bound(&self) -> f64 {
        self.cursor.guaranteed_bound()
    }

    fn front(&self, eb: f64) -> Vec<(u32, f64)> {
        self.cursor
            .front(eb)
            .into_iter()
            .map(|(l, p, after)| (self.level_base[l] + p as u32, after))
            .collect()
    }

    fn restore_front(&self, progress: &ReaderProgress) -> Result<Vec<u32>> {
        let ReaderProgress::Mgard { planes } = progress else {
            return Err(marker_mismatch());
        };
        let levels = self.cursor.meta().levels();
        if planes.len() != levels.len() {
            return Err(PqrError::InvalidRequest(format!(
                "progress has {} levels, stream has {}",
                planes.len(),
                levels.len()
            )));
        }
        let mut out = Vec::new();
        for (l, (&k, lm)) in planes.iter().zip(levels).enumerate() {
            if k > lm.num_planes {
                return Err(PqrError::InvalidRequest(format!(
                    "progress wants {k} planes of level {l}, stream has {}",
                    lm.num_planes
                )));
            }
            out.extend((0..k).map(|p| self.level_base[l] + p));
        }
        Ok(out)
    }

    fn push(&mut self, index: u32, bytes: &[u8]) -> Result<()> {
        // the last level starting at or before `index` (an all-zero level
        // stores no planes and shares its base with the next one)
        let level = self
            .level_base
            .partition_point(|&base| base <= index)
            .checked_sub(1)
            .ok_or_else(|| out_of_order(index))?;
        // the cursor takes a level's planes strictly in order
        if index - self.level_base[level] != self.cursor.planes_read()[level] {
            return Err(out_of_order(index));
        }
        self.cursor.push_plane(level, bytes)
    }

    fn rebuild(&mut self, out: &mut Vec<f64>) -> u64 {
        self.cursor.fold();
        self.cursor.reconstruct_into(out)
    }

    fn progress(&self, _fetched: u64) -> ReaderProgress {
        ReaderProgress::Mgard {
            planes: self.cursor.planes_read(),
        }
    }

    fn exhausted(&self) -> bool {
        self.cursor.fully_fetched()
    }

    fn state_bytes(&self) -> usize {
        // what the decoders hold between rebuilds: 8 B per coefficient of
        // folded magnitudes plus one sign and one significance word per 64
        // coefficients (0.25 B) — a field has one coefficient per element
        // bar the root. The planes pushed since the last rebuild wait as
        // packed words (1/8 B per coefficient per plane, ≤ 60 planes:
        // 7.5 B) until the rebuild folds and drops them, so 16 B per
        // element bounds the peak as well
        self.cursor.meta().dims().iter().product::<usize>() * 16
    }

    fn at_resolution(&self, drop_finest: usize) -> Result<(Vec<f64>, Vec<usize>)> {
        Ok(self.cursor.reconstruct_at_resolution(drop_finest))
    }
}

// ---------------------------------------------------------------------------
// Block transform + negabinary bitplanes (PZFP)
// ---------------------------------------------------------------------------

/// A [`ZfpCursor`] addressed by fragment index: fragment 0 is the metadata,
/// plane `k` is fragment `1 + k`.
struct BlockTransform {
    cursor: ZfpCursor,
}

impl Backend for BlockTransform {
    fn bound(&self) -> f64 {
        self.cursor.guaranteed_bound()
    }

    fn front(&self, eb: f64) -> Vec<(u32, f64)> {
        self.cursor
            .front(eb)
            .into_iter()
            .map(|(k, after)| (1 + k, after))
            .collect()
    }

    fn restore_front(&self, progress: &ReaderProgress) -> Result<Vec<u32>> {
        let ReaderProgress::Zfp { planes } = progress else {
            return Err(marker_mismatch());
        };
        if *planes > self.cursor.meta().num_planes() {
            return Err(PqrError::InvalidRequest(format!(
                "progress wants {planes} planes, archive has {}",
                self.cursor.meta().num_planes()
            )));
        }
        Ok((1..=*planes).collect())
    }

    fn push(&mut self, index: u32, bytes: &[u8]) -> Result<()> {
        if index != 1 + self.cursor.planes_read() {
            return Err(out_of_order(index));
        }
        self.cursor.push_plane(bytes)
    }

    fn rebuild(&mut self, out: &mut Vec<f64>) -> u64 {
        self.cursor.reconstruct_into(out, 1);
        0
    }

    fn progress(&self, _fetched: u64) -> ReaderProgress {
        ReaderProgress::Zfp {
            planes: self.cursor.planes_read(),
        }
    }

    fn exhausted(&self) -> bool {
        self.cursor.fully_fetched()
    }

    fn state_bytes(&self) -> usize {
        // digit words and plane buffers on the order of two field copies
        self.cursor.meta().dims().iter().product::<usize>() * 16
    }
}

// ---------------------------------------------------------------------------
// Opening and encoding
// ---------------------------------------------------------------------------

/// A freshly opened backend and what opening it cost.
pub(crate) struct Opened {
    pub backend: Box<dyn Backend>,
    /// The bound a reader's all-zero starting reconstruction holds at:
    /// `max|x|`. `∞` instead when the opening state supersedes the zero
    /// vector outright — PMGARD's metadata carries the root value, and its
    /// readers have always started from that reconstruction at the model's
    /// bound, which may exceed `max|x|` — so the reader's first rebuild
    /// adopts it whatever its bound.
    pub start_bound: f64,
    /// Bytes of the metadata fragment opening fetched (0 without one).
    pub meta_bytes: usize,
}

/// Opens the backend of the field `entry` describes, in an archive of shape
/// `dims`, at zero consumed payload fragments. `fetch_meta` fetches the
/// field's fragment 0 and is called only for representations that keep
/// their metadata there. This is the one structural validation of a field:
/// its metadata must parse, agree with the archive's shape, and imply
/// exactly the directory's fragment count.
pub(crate) fn open(
    entry: &FieldEntry,
    dims: &[usize],
    fetch_meta: impl FnOnce() -> Result<Arc<Vec<u8>>>,
) -> Result<Opened> {
    let nfrags = entry.fragments.len();
    // metadata-bearing representations: fragment 0 must exist, describe the
    // archive's shape, and account for every other fragment
    let meta = || {
        if nfrags == 0 {
            return Err(PqrError::CorruptStream(format!(
                "{} field without a metadata fragment",
                entry.scheme.name()
            )));
        }
        fetch_meta()
    };
    let check = |meta_dims: &[usize], planes: usize| {
        if meta_dims != dims {
            return Err(PqrError::ShapeMismatch(format!(
                "field '{}' metadata shape {meta_dims:?} != archive {dims:?}",
                entry.name
            )));
        }
        if nfrags != 1 + planes {
            return Err(PqrError::CorruptStream(format!(
                "directory has {nfrags} fragments, metadata implies {}",
                1 + planes
            )));
        }
        Ok(())
    };
    Ok(match entry.scheme {
        Scheme::Psz3 | Scheme::Psz3Delta => Opened {
            backend: Box::new(Ladder {
                ebs: entry.fragments.iter().map(|f| f.eb_abs).collect(),
                delta: entry.scheme == Scheme::Psz3Delta,
                n: dims.iter().product(),
                next: 0,
                bound: entry.max_abs,
                pending: None,
            }),
            start_bound: entry.max_abs,
            meta_bytes: 0,
        },
        Scheme::PmgardHb | Scheme::PmgardOb => {
            let bytes = meta()?;
            let meta = MgardMeta::from_bytes(&bytes)?;
            check(meta.dims(), meta.total_planes())?;
            let mut level_base = Vec::with_capacity(meta.num_levels());
            let mut base = 1u32;
            for lm in meta.levels() {
                level_base.push(base);
                base += lm.num_planes;
            }
            Opened {
                backend: Box::new(Multilevel {
                    cursor: MgardCursor::new(meta),
                    level_base,
                }),
                start_bound: f64::INFINITY,
                meta_bytes: bytes.len(),
            }
        }
        Scheme::Pzfp => {
            let bytes = meta()?;
            let meta = ZfpMeta::from_bytes(&bytes)?;
            check(meta.dims(), meta.num_planes() as usize)?;
            Opened {
                backend: Box::new(BlockTransform {
                    cursor: ZfpCursor::new(meta),
                }),
                start_bound: entry.max_abs,
                meta_bytes: bytes.len(),
            }
        }
    })
}

/// Refactors `data` into `scheme`'s fragments. `rel_bounds` is the snapshot
/// ladder as fractions of `scale` (the value range; ignored by the
/// ladder-free representations). Runs on the calling thread: the write
/// path parallelises across fields, one encode per thread.
pub(crate) fn encode(
    scheme: Scheme,
    data: &[f64],
    dims: &[usize],
    rel_bounds: &[f64],
    scale: f64,
) -> Result<Fragments> {
    // metadata first, then the plane payloads in storage order
    fn with_meta(meta: Vec<u8>, planes: impl Iterator<Item = Vec<u8>>) -> Fragments {
        std::iter::once(meta)
            .chain(planes)
            .map(|p| (0.0, Arc::new(p)))
            .collect()
    }
    let mgard = |basis| -> Result<Fragments> {
        let stream = MgardRefactorer::new(basis).refactor(data, dims)?;
        Ok(with_meta(
            stream.meta().to_bytes(),
            stream.into_plane_payloads(),
        ))
    };
    match scheme {
        Scheme::Psz3 => {
            let sz = SzCompressor::new(SzConfig::default());
            rel_bounds
                .iter()
                .map(|&rb| {
                    let eb = rb * scale;
                    Ok((eb, Arc::new(sz.compress(data, dims, eb)?)))
                })
                .collect()
        }
        Scheme::Psz3Delta => {
            let sz = SzCompressor::new(SzConfig::default());
            let mut snaps = Vec::with_capacity(rel_bounds.len());
            let mut residual = data.to_vec();
            for &rb in rel_bounds {
                let eb = rb * scale;
                let (blob, recon) = sz.compress_with_recon(&residual, dims, eb)?;
                for (r, d) in residual.iter_mut().zip(&recon) {
                    *r -= d;
                }
                snaps.push((eb, Arc::new(blob)));
            }
            Ok(snaps)
        }
        Scheme::PmgardHb => mgard(Basis::Hierarchical),
        Scheme::PmgardOb => mgard(Basis::Orthogonal),
        Scheme::Pzfp => {
            let stream = ZfpRefactorer::new().refactor(data, dims)?;
            Ok(with_meta(
                stream.meta().to_bytes(),
                stream.into_plane_payloads().into_iter(),
            ))
        }
    }
}

/// Upper bound on how many fragments a field of `scheme` over `dims` can
/// produce from a `num_bounds`-step ladder. The streaming writer sizes its
/// manifest reservation from this before any field has been encoded.
pub(crate) fn max_fragments(scheme: Scheme, dims: &[usize], num_bounds: usize) -> usize {
    match scheme {
        // one snapshot (or residual) per requested bound
        Scheme::Psz3 | Scheme::Psz3Delta => num_bounds,
        // metadata + one fragment per (level, bitplane)
        Scheme::PmgardHb | Scheme::PmgardOb => {
            1 + pqr_mgard::hierarchy::level_strides(dims).len()
                * pqr_mgard::bitplane::PLANES as usize
        }
        // metadata + one fragment per digit plane
        Scheme::Pzfp => 1 + pqr_zfp::MAX_TOTAL_PLANES as usize,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fragstore::{FragmentId, FragmentSource, Manifest};
    use crate::refactored::{FieldReader, RefactoredField};
    use pqr_util::stats::{max_abs_diff, value_range};
    use std::sync::Mutex;

    /// Serves a resident field and logs the payload fragments fetched.
    struct Recording {
        field: RefactoredField,
        log: Mutex<Vec<u32>>,
    }

    impl Recording {
        fn take_log(&self) -> Vec<u32> {
            std::mem::take(&mut self.log.lock().unwrap())
        }
    }

    impl FragmentSource for Recording {
        fn manifest(&self) -> Result<Manifest> {
            self.field.manifest()
        }
        fn fetch(&self, id: FragmentId) -> Result<Arc<Vec<u8>>> {
            self.log.lock().unwrap().push(id.index);
            self.field.fetch(id)
        }
    }

    /// The contract every backend is held to, one table row per scheme:
    /// what is consumed is `front(eb)` in order, each step lands on the
    /// bound the front announced, the true error is within `bound()` after
    /// every prefix, no bound ever regresses, and `restore(progress())`
    /// replays to the same bits and the same byte count.
    #[test]
    fn every_backend_conforms() {
        const N: usize = 3000;
        let data: Vec<f64> = (0..N)
            .map(|i| {
                let x = i as f64 / N as f64;
                (x * 7.0).sin() * 3.0 + (x * 23.0).cos() * 0.4 + x
            })
            .collect();
        let range = value_range(&data);
        let ladder: Vec<f64> = (1..=12).map(|i| 10f64.powi(-i)).collect();
        // 0.25·range down to ~7e-9·range, every step within every ladder
        let series: Vec<f64> = (1..=25).map(|i| 0.5 * 0.5f64.powi(i) * range).collect();

        for scheme in Scheme::extended() {
            let name = scheme.name();
            let field =
                RefactoredField::refactor_with_bounds(scheme, &data, &[N], &ladder).unwrap();
            let manifest = field.manifest().unwrap();

            // --- the backend alone: one push at a time
            let mut backend = open(&manifest.fields[0], &manifest.dims, || field.fragment(0))
                .unwrap()
                .backend;
            let mut recon = vec![0.0; N];
            backend.rebuild(&mut recon);
            assert!(
                max_abs_diff(&data, &recon) <= backend.bound(),
                "{name}: open"
            );
            for &eb in &series {
                let front = backend.front(eb);
                if backend.prefix_front() {
                    let full = backend.front(0.0);
                    assert_eq!(front[..], full[..front.len()], "{name} eb={eb}");
                }
                for (index, after) in front {
                    let before = backend.bound();
                    backend
                        .push(index, &field.fragment(index).unwrap())
                        .unwrap();
                    assert_eq!(
                        backend.bound().to_bits(),
                        after.to_bits(),
                        "{name} #{index}"
                    );
                    assert!(
                        backend.bound() <= before,
                        "{name} #{index}: bound regressed"
                    );
                    backend.rebuild(&mut recon);
                    let real = max_abs_diff(&data, &recon);
                    assert!(real <= backend.bound(), "{name} #{index}: {real}");
                }
                assert!(backend.bound() <= eb, "{name} eb={eb}: {}", backend.bound());
                assert!(backend.front(eb).is_empty(), "{name} eb={eb}");
            }
            assert!(backend.push(0, &[]).is_err(), "{name}: out-of-order push");

            // --- the reader over it: what it fetches, certifies and replays
            let source = Arc::new(Recording {
                field,
                log: Mutex::new(Vec::new()),
            });
            let shared: Arc<dyn FragmentSource> = source.clone();
            let mut reader = FieldReader::open(Arc::clone(&shared), &manifest, 0).unwrap();
            assert_eq!(reader.total_fetched(), reader_meta_bytes(&source), "{name}");
            let mut consumed = Vec::new();
            for &eb in &series {
                let planned = reader.plan_refine_to(eb);
                let (held, fetched) = (reader.guaranteed_bound(), reader.total_fetched());
                let newly = reader.refine_to(eb).unwrap();
                assert_eq!(source.take_log(), planned, "{name} eb={eb}: consumed order");
                assert_eq!(reader.total_fetched(), fetched + newly, "{name} eb={eb}");
                assert!(
                    reader.guaranteed_bound() <= held,
                    "{name} eb={eb}: regressed"
                );
                assert!(reader.guaranteed_bound() <= eb, "{name} eb={eb}");
                let real = max_abs_diff(&data, reader.data());
                assert!(real <= reader.guaranteed_bound(), "{name} eb={eb}: {real}");
                consumed.extend(planned);

                let marker = reader.progress();
                let mut fresh = FieldReader::open(Arc::clone(&shared), &manifest, 0).unwrap();
                source.take_log();
                let replay = fresh.plan_restore(&marker).unwrap();
                fresh.restore(&marker).unwrap();
                assert_eq!(source.take_log(), replay, "{name} eb={eb}: replay order");
                assert_eq!(fresh.data(), reader.data(), "{name} eb={eb}: replay");
                assert_eq!(
                    fresh.guaranteed_bound().to_bits(),
                    reader.guaranteed_bound().to_bits(),
                    "{name} eb={eb}"
                );
                assert_eq!(
                    fresh.total_fetched(),
                    reader.total_fetched(),
                    "{name} eb={eb}"
                );
                assert_eq!(fresh.progress(), marker, "{name} eb={eb}");
            }
            // a marker of another representation is refused, not replayed
            let foreign = match reader.progress() {
                ReaderProgress::Zfp { .. } => ReaderProgress::Mgard { planes: vec![1] },
                _ => ReaderProgress::Zfp { planes: 1 },
            };
            assert!(reader.plan_restore(&foreign).is_err(), "{name}");
            assert!(!consumed.is_empty(), "{name}");
        }
    }

    /// The metadata fetch `open` logged, in bytes.
    fn reader_meta_bytes(source: &Recording) -> usize {
        source
            .take_log()
            .iter()
            .map(|&i| source.field.fragment(i).unwrap().len())
            .sum()
    }
}
