//! Component-expansion backends: everything this crate knows about one
//! progressive representation.
//!
//! "A General Framework for Progressive Data Compression and Retrieval"
//! models every progressive scheme as a multi-component expansion
//! `x̃ᵢ = x̃ᵢ₋₁ + decode(cᵢ)` with per-component error metadata, and the
//! paper's Alg. 2 line 10 calls one `progressive_construct(field, ε)`
//! whatever the representation underneath (§V swaps four). Here a
//! *component* is a fragment of the field's directory, and [`open`] turns a
//! field into two things:
//!
//! * its [`Table`]: the order a reader consumes fragments in, each row
//!   annotated with the bound that holds after it (the per-component error
//!   metadata), built once from metadata alone. A reader's state is how
//!   many rows it has consumed; which rows a refinement takes, which a
//!   restore replays, the bound and exhaustion are reads of the table;
//! * its [`Backend`]: what differs between representations — what a
//!   fragment decodes to ([`Backend::push`]) and what the fragments
//!   consumed so far reconstruct to ([`Backend::rebuild`]).
//!
//! Three backends cover the five [`Scheme`]s: [`Ladder`] (PSZ3 and
//! PSZ3-delta snapshots), [`Multilevel`] (both PMGARD bases) and
//! [`BlockTransform`] (PZFP). The encode side lives here too
//! ([`encode`], [`max_fragments`]), so this module and `impl Scheme` are the
//! only non-test code in the crate that names a scheme: the reader, the
//! container, the store and the planner see fragments and bounds. A further
//! representation is one more `impl Backend` plus an arm in [`encode`],
//! [`max_fragments`] and [`open`].

use crate::fragstore::FieldEntry;
use crate::refactored::Scheme;
use pqr_mgard::{Basis, MgardCursor, MgardMeta, MgardRefactorer};
use pqr_sz::{SzCompressor, SzConfig};
use pqr_util::error::{PqrError, Result};
use pqr_zfp::{ZfpCursor, ZfpMeta, ZfpRefactorer};
use std::ops::Range;
use std::sync::Arc;

/// A field's fragments in directory order, each with its directory bound
/// (`eb_abs`: a snapshot's guarantee; `0.0` for metadata and plane
/// fragments, whose bounds come from the decode model).
pub(crate) type Fragments = Vec<(f64, Arc<Vec<u8>>)>;

/// A field's fetch order, built once by [`open`] from metadata alone: row
/// `i` is the `i`-th fragment a reader consumes, with the guaranteed bound
/// that holds once it has. Exact: every bound model reads consumed-fragment
/// counts and metadata only, never payload contents. A reader's state is
/// the number of rows it has consumed.
pub(crate) struct Table {
    /// `(fragment index, bound after it)`, in consume order.
    rows: Vec<(u32, f64)>,
    /// The bound before any row.
    start: f64,
    /// Plain PSZ3: each snapshot replaces what was held, so a refinement
    /// fetches its target row alone, and the state `k` rows in is row
    /// `k − 1` alone.
    one_row: bool,
}

impl Table {
    /// Fragment index of `row`.
    pub fn fragment(&self, row: usize) -> u32 {
        self.rows[row].0
    }

    /// The bound that holds `consumed` rows in.
    pub fn bound(&self, consumed: u32) -> f64 {
        match consumed.checked_sub(1) {
            Some(last) => self.rows[last as usize].1,
            None => self.start,
        }
    }

    /// True when no row is left after `consumed`.
    pub fn exhausted(&self, consumed: u32) -> bool {
        consumed as usize >= self.rows.len()
    }

    /// The rows a refinement to `eb` consumes from `consumed` rows in:
    /// none when the bound already holds; else up to the first row at or
    /// after `consumed` whose bound is ≤ `eb`, or the last row when none is
    /// — that row alone when `one_row` is set.
    pub fn cut(&self, consumed: u32, eb: f64) -> Range<usize> {
        let from = consumed as usize;
        if self.bound(consumed) <= eb || self.exhausted(consumed) {
            return from..from;
        }
        let target = self.rows[from..]
            .iter()
            .position(|&(_, after)| after <= eb)
            .map_or(self.rows.len() - 1, |i| from + i);
        if self.one_row {
            target..target + 1
        } else {
            from..target + 1
        }
    }

    /// The rows a fresh reader replays to stand `consumed` rows in.
    pub fn restore(&self, consumed: u32) -> Result<Range<usize>> {
        let k = consumed as usize;
        if k > self.rows.len() {
            return Err(PqrError::InvalidRequest(format!(
                "progress wants {k} fragments consumed, the field has {}",
                self.rows.len()
            )));
        }
        Ok(if self.one_row {
            k.saturating_sub(1)..k
        } else {
            0..k
        })
    }
}

/// The decode state of one field under one representation. Fragment indices
/// are directory indices, and fragments arrive in their [`Table`]'s order.
pub(crate) trait Backend: Send + Sync {
    /// Decodes fragment `index` into the state. A failed push leaves the
    /// state as it was.
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
    delta: bool,
    /// Elements per snapshot.
    n: usize,
    /// What `push` decoded and `rebuild` has not taken yet: delta mode's
    /// residual (the sum of residuals, when the reader declined one) or
    /// plain mode's snapshot. Empty from a rebuild to the next push, so no
    /// field holds a second `n`-element buffer beside its reconstruction.
    decoded: Vec<f64>,
    /// `decoded` holds what `rebuild` has not folded in yet.
    pending: bool,
}

impl Backend for Ladder {
    fn push(&mut self, index: u32, bytes: &[u8]) -> Result<()> {
        let (part, _) = SzCompressor::new(SzConfig::default()).decompress(bytes)?;
        if part.len() != self.n {
            return Err(PqrError::CorruptStream(format!(
                "snapshot {index} holds {} elements, field has {}",
                part.len(),
                self.n
            )));
        }
        if self.delta && self.pending {
            // only when the reader declined the previous residual (a ladder
            // that does not descend): keep the sum, not the last term
            for (acc, p) in self.decoded.iter_mut().zip(&part) {
                *acc += p;
            }
        } else {
            self.decoded = part;
        }
        self.pending = true;
        Ok(())
    }

    fn incremental(&self) -> bool {
        self.delta
    }

    fn rebuild(&mut self, out: &mut Vec<f64>) -> u64 {
        if std::mem::take(&mut self.pending) {
            let decoded = std::mem::take(&mut self.decoded);
            if self.delta {
                for (acc, p) in out.iter_mut().zip(&decoded) {
                    *acc += p;
                }
            } else {
                *out = decoded;
            }
        }
        0
    }

    fn state_bytes(&self) -> usize {
        self.decoded.capacity() * 8
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

    fn state_bytes(&self) -> usize {
        // digit words and plane buffers on the order of two field copies
        self.cursor.meta().dims().iter().product::<usize>() * 16
    }
}

// ---------------------------------------------------------------------------
// Opening and encoding
// ---------------------------------------------------------------------------

/// A freshly opened field and what opening it cost.
pub(crate) struct Opened {
    pub backend: Box<dyn Backend>,
    pub table: Table,
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

/// A directory bound a reader would adopt and certify: refused unless it
/// is a number ≥ 0.
fn certifiable(what: &str, bound: f64) -> Result<f64> {
    if bound >= 0.0 {
        Ok(bound)
    } else {
        Err(PqrError::CorruptStream(format!("{what} bound {bound}")))
    }
}

/// Opens the field `entry` describes, in an archive of shape `dims`, at
/// zero consumed fragments, and builds its [`Table`]. `fetch_meta` fetches
/// the field's fragment 0 and is called only for representations that keep
/// their metadata there. This is the one structural validation of a field:
/// its metadata must parse, agree with the archive's shape, and imply
/// exactly the directory's fragment count, and every bound the directory
/// gives must be certifiable.
pub(crate) fn open(
    entry: &FieldEntry,
    dims: &[usize],
    fetch_meta: impl FnOnce() -> Result<Arc<Vec<u8>>>,
) -> Result<Opened> {
    let nfrags = entry.fragments.len();
    let max_abs = certifiable("max|x|", entry.max_abs)?;
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
        Scheme::Psz3 | Scheme::Psz3Delta => {
            let delta = entry.scheme == Scheme::Psz3Delta;
            let rows = (0u32..)
                .zip(&entry.fragments)
                .map(|(i, f)| Ok((i, certifiable("snapshot", f.eb_abs)?)))
                .collect::<Result<_>>()?;
            Opened {
                backend: Box::new(Ladder {
                    delta,
                    n: dims.iter().product(),
                    decoded: Vec::new(),
                    pending: false,
                }),
                table: Table {
                    rows,
                    start: max_abs,
                    one_row: !delta,
                },
                start_bound: max_abs,
                meta_bytes: 0,
            }
        }
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
            let (start, order) = pqr_mgard::retrieve::plane_order(&meta);
            let rows = order
                .into_iter()
                .map(|(l, p, after)| (level_base[l] + p, after))
                .collect();
            Opened {
                backend: Box::new(Multilevel {
                    cursor: MgardCursor::new(meta),
                    level_base,
                }),
                table: Table {
                    rows,
                    start,
                    one_row: false,
                },
                start_bound: f64::INFINITY,
                meta_bytes: bytes.len(),
            }
        }
        Scheme::Pzfp => {
            let bytes = meta()?;
            let meta = ZfpMeta::from_bytes(&bytes)?;
            check(meta.dims(), meta.num_planes() as usize)?;
            let rows = (1..=meta.num_planes())
                .map(|k| (k, meta.bound_after(k)))
                .collect();
            Opened {
                table: Table {
                    rows,
                    start: meta.bound_after(0),
                    one_row: false,
                },
                backend: Box::new(BlockTransform {
                    cursor: ZfpCursor::new(meta),
                }),
                start_bound: max_abs,
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
impl Table {
    /// Every `(fragment index, bound after it)` row.
    pub fn rows(&self) -> &[(u32, f64)] {
        &self.rows
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fragstore::{FragmentId, FragmentSource, InMemorySource, Manifest};
    use crate::refactored::{FieldReader, ReaderProgress, RefactoredField};
    use pqr_util::stats::{max_abs_diff, value_range};
    use std::sync::Mutex;

    /// Serves a field's container and logs the payload fragments fetched.
    struct Recording {
        source: InMemorySource,
        log: Mutex<Vec<u32>>,
    }

    impl Recording {
        fn take_log(&self) -> Vec<u32> {
            std::mem::take(&mut self.log.lock().unwrap())
        }
    }

    impl FragmentSource for Recording {
        fn manifest(&self) -> Result<Manifest> {
            self.source.manifest()
        }
        fn fetch(&self, id: FragmentId) -> Result<Arc<Vec<u8>>> {
            self.log.lock().unwrap().push(id.index);
            self.source.fetch(id)
        }
    }

    /// The contract every backend is held to, one table row per scheme:
    /// what is consumed is the table's cut for `eb` in order — a prefix
    /// scheme's extends the consumed prefix, and every cut stops at its
    /// first row that reaches `eb` — the true error is within the table's
    /// bound after every push, no bound ever regresses, and
    /// `restore(progress())` replays to the same bits and the same byte
    /// count.
    #[test]
    fn ladders_hold_no_second_buffer_between_refinements() {
        // the snapshot or residual a push decodes is moved or folded into
        // the reconstruction by the rebuild that adopts it, and released
        // there: a refined reader holds one field-sized buffer
        let dims = [9usize, 10, 11];
        let data: Vec<f64> = (0..990)
            .map(|i| (i as f64 * 0.05).sin() * 3.0 + (i % 11) as f64 * 0.1)
            .collect();
        let range = value_range(&data);
        for scheme in [Scheme::Psz3Delta, Scheme::Psz3] {
            let field = RefactoredField::refactor(scheme, &data, &dims).unwrap();
            let mut reader = field.reader();
            for rel in [1e-1, 1e-3, 1e-6] {
                reader.refine_to(rel * range).unwrap();
                assert_eq!(reader.resident_bytes(), data.len() * 8, "{scheme:?} {rel}");
            }
        }
    }

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
            let source = Arc::new(Recording {
                source: InMemorySource::new(field.to_bytes()).unwrap(),
                log: Mutex::new(Vec::new()),
            });
            let manifest = source.manifest().unwrap();

            // --- the backend alone, driven through its table one push at a time
            let meta = Arc::clone(&field.frags[0].1);
            let Opened {
                mut backend, table, ..
            } = open(&manifest.fields[0], &manifest.dims, || Ok(meta)).unwrap();
            let mut consumed = 0u32;
            let mut recon = vec![0.0; N];
            backend.rebuild(&mut recon);
            assert!(
                max_abs_diff(&data, &recon) <= table.bound(0),
                "{name}: open"
            );
            for &eb in &series {
                let rows = table.cut(consumed, eb);
                if !table.one_row {
                    assert_eq!(rows.start, consumed as usize, "{name} eb={eb}");
                }
                for row in rows.start..rows.end.saturating_sub(1) {
                    assert!(table.rows[row].1 > eb, "{name} eb={eb}: cut past row {row}");
                }
                for row in rows {
                    let index = table.fragment(row);
                    let before = table.bound(consumed);
                    backend.push(index, &field.frags[index as usize].1).unwrap();
                    consumed = row as u32 + 1;
                    assert!(
                        table.bound(consumed) <= before,
                        "{name} #{index}: bound regressed"
                    );
                    backend.rebuild(&mut recon);
                    let real = max_abs_diff(&data, &recon);
                    assert!(real <= table.bound(consumed), "{name} #{index}: {real}");
                }
                assert!(
                    table.bound(consumed) <= eb,
                    "{name} eb={eb}: {}",
                    table.bound(consumed)
                );
                assert!(table.cut(consumed, eb).is_empty(), "{name} eb={eb}");
            }
            assert!(backend.push(0, &[]).is_err(), "{name}: out-of-order push");

            // --- the reader over it: what it fetches, certifies and replays
            let shared: Arc<dyn FragmentSource> = source.clone();
            let mut reader = FieldReader::open(Arc::clone(&shared), &manifest, 0).unwrap();
            assert_eq!(
                reader.total_fetched(),
                reader_meta_bytes(&source, &manifest),
                "{name}"
            );
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
            let foreign = Scheme::extended()
                .into_iter()
                .find(|&other| other != scheme)
                .unwrap();
            let foreign = ReaderProgress {
                scheme: foreign,
                ..reader.progress()
            };
            assert!(reader.plan_restore(&foreign).is_err(), "{name}");
            assert!(!consumed.is_empty(), "{name}");
        }
    }

    /// The metadata fetch `open` logged, in bytes.
    fn reader_meta_bytes(source: &Recording, manifest: &Manifest) -> usize {
        let directory = &manifest.fields[0].fragments;
        source
            .take_log()
            .iter()
            .map(|&i| directory[i as usize].len as usize)
            .sum()
    }
}
