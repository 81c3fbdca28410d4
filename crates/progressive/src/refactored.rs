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

use crate::backend::{self, Backend, Fragments, Table};
use crate::fragstore::{self, Batch, FragmentId, FragmentSource, InMemorySource, Manifest};
use pqr_util::byteio::{ByteReader, ByteWriter};
use pqr_util::error::{PqrError, Result};
use pqr_util::stats;
use std::ops::Range;
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
/// fragment list the container writer lays out, and readers address by
/// index once it is serialized.
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
            frags: backend::encode(scheme, data, dims, rel_bounds, scale)?,
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

    /// Opens a progressive reader at zero fetched fragments over an
    /// [`InMemorySource`] of this field's container
    /// ([`RefactoredField::to_bytes`]) — the parse and fetch path every
    /// archive goes through. The reader owns its source and carries no
    /// borrow.
    ///
    /// A field whose metadata fragment does not parse cannot be opened,
    /// and this panics; [`FieldReader::open`] reports it instead.
    pub fn reader(&self) -> FieldReader {
        let source = InMemorySource::new(self.to_bytes()).expect("a field's own container parses");
        let manifest = source.manifest().expect("an in-memory manifest");
        FieldReader::open(Arc::new(source), &manifest, 0)
            .expect("a refactored field opens on its own container")
    }

    /// Serializes the archive artifact into the fragment-addressed
    /// container format (a single-field archive — see [`crate::fragstore`]
    /// for the layout).
    pub fn to_bytes(&self) -> Vec<u8> {
        fragstore::container_bytes(
            &self.dims,
            &[String::new()],
            std::slice::from_ref(self),
            None,
            &[],
        )
    }

    /// Deserializes (fully materialises) a single-field archive written by
    /// [`RefactoredField::to_bytes`].
    pub fn from_bytes(bytes: &[u8]) -> Result<Self> {
        let src = InMemorySource::new(bytes.to_vec())?;
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
/// processes). A reader's state is a prefix length of its field's fetch
/// order, and replay is deterministic, so restoring reproduces both the
/// reconstruction and the cumulative byte accounting bit-for-bit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReaderProgress {
    /// The representation the marker was taken under; a reader of another
    /// refuses it.
    pub scheme: Scheme,
    /// Rows of the field's fetch order consumed.
    pub consumed: u32,
    /// Cumulative fetched bytes at save time (not derivable from
    /// `consumed` for plain PSZ3, which may have fetched several snapshots
    /// on the way).
    pub fetched: u64,
}

/// Wire tag of a [`ReaderProgress`]. Tags 0–2 named the per-family markers
/// of earlier releases (snapshot index, planes per level, global planes),
/// and are refused rather than misread.
const PROGRESS_TAG: u8 = 3;

impl ReaderProgress {
    /// Serializes the marker: tag, `consumed`, `fetched`, scheme.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut w = ByteWriter::new();
        self.write(&mut w);
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
        match r.get_u8()? {
            PROGRESS_TAG => {}
            old @ 0..=2 => {
                return Err(PqrError::InvalidRequest(format!(
                    "progress marker in the retired per-family format (tag {old}); \
                     markers now record a prefix of the field's fetch order, so \
                     save the progress again"
                )))
            }
            t => return Err(PqrError::CorruptStream(format!("unknown progress tag {t}"))),
        }
        let consumed = r.get_u32()?;
        let fetched = r.get_u64()?;
        let scheme = Scheme::from_tag(r.get_u8()?)
            .ok_or_else(|| PqrError::CorruptStream("unknown progress scheme".into()))?;
        Ok(Self {
            scheme,
            consumed,
            fetched,
        })
    }

    pub(crate) fn write(&self, w: &mut ByteWriter) {
        w.put_u8(PROGRESS_TAG);
        w.put_u32(self.consumed);
        w.put_u64(self.fetched);
        w.put_u8(self.scheme.tag());
    }
}

/// Largest cumulative byte count a progress marker may record for one
/// field: 2^48 B (256 TiB). Far above any archive, and low enough that a
/// field's tally plus everything it can still fetch, summed over up to
/// 2^15 fields, stays within a 64-bit count.
const MAX_RECORDED_FETCHED: u64 = 1 << 48;

/// Progressive reader over one field of a fragment-addressed archive.
///
/// Maintains the current reconstruction, the guaranteed L∞ bound, and the
/// cumulative number of fetched bytes. Every byte enters through the
/// [`FragmentSource`] the reader **owns a shared handle to** — a container
/// in memory or a file read by ranges drive this same code path. Readers
/// carry no borrows,
/// so sessions built on them can move across threads and outlive the scope
/// that opened them.
///
/// What the representation is never shows here: the reader walks its
/// field's fetch table (built once at open) and pushes what it fetches into
/// one crate-private `Backend` per representation —
/// [`FieldReader::refine_to`] and [`FieldReader::restore`] are one consume
/// routine over a range of the table's rows — and everything else is
/// accounting.
///
/// This is the decoding reader behind every session: a
/// [`ProgressStore`] holds one per field as its master, and an engine's
/// fields are views onto those masters.
///
/// [`ProgressStore`]: crate::store::ProgressStore
pub struct FieldReader {
    scheme: Scheme,
    io: Fetcher,
    held: Held,
    /// Refinement rounds answered from the memoized reconstruction —
    /// rounds that rebuilt nothing.
    recon_cache_hits: u64,
    backend: Box<dyn Backend>,
    /// The field's fetch order.
    table: Table,
    /// Rows of `table` consumed: the reader's whole decode position.
    consumed: u32,
    /// True while the decoded state is ahead of the reconstruction held:
    /// something was pushed that no adopted rebuild reflects.
    ahead: bool,
}

/// Where a reader's fragments come from — the batch a call hands in, then
/// the source — and the tally of what it took.
struct Fetcher {
    source: Arc<dyn FragmentSource>,
    field: u32,
    /// Cumulative fetched bytes.
    fetched: usize,
    /// Payload fragments this reader fetched and decoded.
    consumed: u64,
}

impl Fetcher {
    /// Fetches payload fragment `index` of this field, accounting its bytes.
    /// A payload the call's `batch` holds is taken from it; anything else
    /// falls back to a per-fragment source fetch, so the consume path is
    /// correct whether or not the round batched (and whether or not its
    /// batch read succeeded).
    fn fetch(&mut self, index: u32, batch: &mut Batch) -> Result<Arc<Vec<u8>>> {
        let payload = match batch.remove(&index) {
            Some(batched) => batched,
            None => self.source.fetch(FragmentId {
                field: self.field,
                index,
            })?,
        };
        self.fetched += payload.len();
        self.consumed += 1;
        Ok(payload)
    }
}

/// The reconstruction a reader currently holds and certifies, with the
/// work rebuilding it has cost. The buffer is `Arc`-wrapped so a store can
/// **publish** its master's reconstruction — and a view adopt a published
/// one — by a refcount bump, never an O(n) copy.
struct Held {
    recon: Arc<Vec<f64>>,
    /// Guaranteed L∞ bound of `recon` versus the original.
    bound: f64,
    /// Multilevel recompose axis passes performed rebuilding `recon`
    /// (zero for non-multilevel schemes).
    recompose_passes: u64,
    /// Wall-clock nanoseconds spent rebuilding.
    reconstruct_nanos: u64,
}

impl Held {
    /// Rebuilds from `backend`, whose state certifies `bound`, and adopts
    /// the result — iff `bound` is no worse than the held one: a
    /// conservative early model (PZFP's first planes) may sit above the
    /// zero-vector bound a reader starts from, and then what is held
    /// stands. Returns whether it adopted.
    ///
    /// A uniquely owned buffer is reused in place; one pinned by a
    /// published snapshot is left to its owners and a fresh allocation
    /// starts instead — copied only for a backend that adds to it, since
    /// every other rebuild overwrites each element anyway.
    fn adopt(&mut self, backend: &mut dyn Backend, bound: f64) -> bool {
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
        self.recompose_passes += backend.rebuild(&mut buf);
        self.reconstruct_nanos += t0.elapsed().as_nanos() as u64;
        self.recon = Arc::new(buf);
        self.bound = bound;
        true
    }
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
                fetched: opened.meta_bytes,
                consumed: 0,
            },
            // Algorithm 2 line 2: zeros, until a rebuild says otherwise
            held: Held {
                recon: Arc::new(vec![0.0; manifest.num_elements()]),
                bound: opened.start_bound,
                recompose_passes: 0,
                reconstruct_nanos: 0,
            },
            recon_cache_hits: 0,
            backend: opened.backend,
            table: opened.table,
            consumed: 0,
            ahead: true,
        };
        // the opening state may already beat the zero vector (PMGARD's
        // metadata carries the root value)
        reader.consume(0..0, Batch::new())?;
        Ok(reader)
    }

    /// Does nothing: every rebuild runs on the calling thread, and
    /// parallelism lives across fields (the engine refines one field per
    /// thread). It stays only because the `benchmark` package's replay
    /// still calls it.
    pub fn set_workers(&mut self, _workers: usize) {}

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

    /// Payload fragments this reader fetched **and decoded**.
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

    /// Approximate heap bytes of this reader's decoded state — what a
    /// store charges against its [`StoreBudget`] for a resident master:
    /// the reconstruction in full, plus whatever the backend's cursor
    /// holds.
    ///
    /// [`StoreBudget`]: crate::pager::StoreBudget
    pub fn resident_bytes(&self) -> usize {
        self.held.recon.len() * 8 + self.backend.state_bytes()
    }

    /// The representation this reader refines.
    pub fn scheme(&self) -> Scheme {
        self.scheme
    }

    /// The reader's resumable progress marker (see [`ReaderProgress`]).
    pub fn progress(&self) -> ReaderProgress {
        ReaderProgress {
            scheme: self.scheme,
            consumed: self.consumed,
            fetched: self.io.fetched as u64,
        }
    }

    /// True when no further refinement is possible.
    pub fn exhausted(&self) -> bool {
        self.table.exhausted(self.consumed)
    }

    /// Progression in **resolution** (the second PMGARD axis, §II): drops
    /// the `drop_finest` finest levels and reconstructs the coarse subgrid
    /// from the bytes already fetched. Returns `(coarse_data, coarse_dims)`.
    ///
    /// Only multilevel representations carry a resolution hierarchy;
    /// snapshot- and block-transform-based schemes return
    /// [`PqrError::Unsupported`].
    pub fn reconstruct_at_resolution(&self, drop_finest: usize) -> Result<(Vec<f64>, Vec<usize>)> {
        self.backend.at_resolution(drop_finest)
    }

    /// The fragment indices [`FieldReader::refine_to`]`(eb)` would fetch
    /// from the current state, in consume order, **without fetching** —
    /// the per-field refinement front a retrieval plan schedules: a range
    /// of the field's fetch table, cut where its bound first reaches `eb`.
    pub fn plan_refine_to(&self, eb: f64) -> Vec<u32> {
        self.fragments(self.refine_rows(eb))
    }

    /// The table rows a refinement to `eb` consumes (none on an invalid
    /// `eb`, or once the held bound reaches it).
    fn refine_rows(&self, eb: f64) -> Range<usize> {
        if eb.is_nan() || eb < 0.0 || self.held.bound <= eb {
            return 0..0;
        }
        self.table.cut(self.consumed, eb)
    }

    fn fragments(&self, rows: Range<usize>) -> Vec<u32> {
        rows.map(|row| self.table.fragment(row)).collect()
    }

    /// The fragment indices [`FieldReader::restore`]`(progress)` will fetch
    /// from a *fresh* reader, in consume order, without fetching — the
    /// restore schedule a replay batches through
    /// [`FragmentSource::read_many`]. Validates the marker against the
    /// field exactly as `restore` does.
    pub fn plan_restore(&self, progress: &ReaderProgress) -> Result<Vec<u32>> {
        self.restore_rows(progress).map(|rows| self.fragments(rows))
    }

    /// The table rows a fresh reader replays to reach `progress`, which
    /// must be a marker of this representation.
    fn restore_rows(&self, progress: &ReaderProgress) -> Result<Range<usize>> {
        if progress.scheme != self.scheme {
            return Err(PqrError::InvalidRequest(format!(
                "{} progress marker for a {} field",
                progress.scheme.name(),
                self.scheme.name()
            )));
        }
        self.table.restore(progress.consumed)
    }

    /// Fetches fragments until the guaranteed bound is ≤ `eb` (absolute) or
    /// the representation is exhausted. Returns newly fetched bytes.
    pub fn refine_to(&mut self, eb: f64) -> Result<usize> {
        self.refine_with(eb, Batch::new())
    }

    /// [`FieldReader::refine_to`] consuming the payloads of `batch` (this
    /// field's share of a batched read) before fetching the rest.
    pub(crate) fn refine_with(&mut self, eb: f64, batch: Batch) -> Result<usize> {
        if eb < 0.0 || eb.is_nan() {
            return Err(PqrError::InvalidRequest(format!("bad error bound {eb}")));
        }
        let before = self.io.fetched;
        let rows = self.refine_rows(eb);
        if rows.is_empty() || !self.consume(rows, batch)? {
            self.recon_cache_hits += 1;
        }
        Ok(self.io.fetched - before)
    }

    /// Restores a *fresh* reader to a previously saved [`ReaderProgress`]
    /// by deterministically replaying the recorded fetches through the
    /// reader's fragment source.
    pub fn restore(&mut self, progress: &ReaderProgress) -> Result<()> {
        self.restore_with(progress, Batch::new())
    }

    /// [`FieldReader::restore`] consuming the payloads of `batch` before
    /// fetching the rest.
    ///
    /// A marker is outside input (a resume file, a wire frame): the bytes
    /// it records may neither undercount what its own replay moved nor
    /// exceed [`MAX_RECORDED_FETCHED`].
    pub(crate) fn restore_with(&mut self, progress: &ReaderProgress, batch: Batch) -> Result<()> {
        let rows = self.restore_rows(progress)?;
        self.consume(rows, batch)?;
        // the marker records the bytes a replay cannot re-derive (plain
        // PSZ3's skipped snapshots); a prefix scheme's replay moves them all
        let fetched = progress.fetched;
        if fetched < self.io.fetched as u64 || fetched > MAX_RECORDED_FETCHED {
            return Err(PqrError::CorruptStream(format!(
                "progress records {fetched} fetched bytes; its replay moved {}",
                self.io.fetched
            )));
        }
        self.io.fetched = fetched as usize;
        Ok(())
    }

    /// The one routine behind [`FieldReader::refine_to`] and
    /// [`FieldReader::restore`]: takes the table's `rows` fragment by
    /// fragment from `batch` or, failing that, the source, and pushes each;
    /// then rebuilds **whenever the decoded state is ahead of the
    /// reconstruction held** — keyed on the state, not on whether this call
    /// pushed — and adopts the rebuild iff the table's bound for the state
    /// is no worse than the held one. Returns whether a rebuild was adopted.
    ///
    /// A fetch or decode that fails mid-range stops the pushing, not the
    /// rebuild: what did arrive is folded in before the error surfaces, so
    /// a reader never certifies a reconstruction its marker has moved past.
    fn consume(&mut self, rows: Range<usize>, mut batch: Batch) -> Result<bool> {
        let backend = self.backend.as_mut();
        let mut adopted = false;
        let mut pushed = Ok(());
        for row in rows {
            let index = self.table.fragment(row);
            pushed = self
                .io
                .fetch(index, &mut batch)
                .and_then(|bytes| backend.push(index, &bytes));
            if pushed.is_err() {
                break;
            }
            self.consumed = row as u32 + 1;
            self.ahead = true;
            if backend.incremental() && self.held.adopt(backend, self.table.bound(self.consumed)) {
                (self.ahead, adopted) = (false, true);
            }
        }
        if self.ahead && self.held.adopt(backend, self.table.bound(self.consumed)) {
            (self.ahead, adopted) = (false, true);
        }
        pushed.map(|()| adopted)
    }
}

#[cfg(test)]
impl FieldReader {
    /// The field's fetch table.
    pub(crate) fn table(&self) -> &Table {
        &self.table
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

    /// Serves a field's container and logs the fragments fetched.
    struct Recording {
        source: InMemorySource,
        log: std::sync::Mutex<Vec<u32>>,
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

    /// What each request of the series fetched, and the bound bits after it.
    type Recorded = [(&'static [u32], u64); 12];
    const RECORDED_NON_DESCENDING: [(Scheme, Recorded); 2] = [
        (
            Scheme::Psz3,
            [
                (&[0], 0x3fb00d5d2b839d56),
                (&[], 0x3fb00d5d2b839d56),
                (&[], 0x3fb00d5d2b839d56),
                (&[], 0x3fb00d5d2b839d56),
                (&[1], 0x3f448bfc60a87778),
                (&[], 0x3f448bfc60a87778),
                (&[], 0x3f448bfc60a87778),
                (&[], 0x3f448bfc60a87778),
                (&[3], 0x3eda4cc829cd65b8),
                (&[], 0x3eda4cc829cd65b8),
                (&[], 0x3eda4cc829cd65b8),
                (&[], 0x3eda4cc829cd65b8),
            ],
        ),
        (
            Scheme::Psz3Delta,
            [
                (&[0], 0x3fb00d5d2b839d56),
                (&[], 0x3fb00d5d2b839d56),
                (&[], 0x3fb00d5d2b839d56),
                (&[], 0x3fb00d5d2b839d56),
                (&[1], 0x3f448bfc60a87778),
                (&[], 0x3f448bfc60a87778),
                (&[], 0x3f448bfc60a87778),
                (&[], 0x3f448bfc60a87778),
                (&[2, 3], 0x3eda4cc829cd65b8),
                (&[], 0x3eda4cc829cd65b8),
                (&[], 0x3eda4cc829cd65b8),
                (&[], 0x3eda4cc829cd65b8),
            ],
        ),
    ];

    #[test]
    fn non_descending_ladders_fetch_what_they_always_did() {
        // `refactor_with_bounds` takes any ladder order; what a reader
        // fetches per request and certifies after it was recorded when
        // each field's order was re-derived on demand, before it became a
        // table searched from the consumed prefix
        let data = field_data(3000);
        let range = stats::value_range(&data);
        let ladder = [1e-2, 1e-4, 1e-3, 1e-6];
        let series: Vec<f64> = (1..=12)
            .map(|i| 10f64.powf(-0.5 * i as f64) * range)
            .collect();
        for (scheme, want) in RECORDED_NON_DESCENDING {
            let field =
                RefactoredField::refactor_with_bounds(scheme, &data, &[3000], &ladder).unwrap();
            let source = Arc::new(Recording {
                source: InMemorySource::new(field.to_bytes()).unwrap(),
                log: Default::default(),
            });
            let manifest = source.manifest().unwrap();
            let mut reader = FieldReader::open(source.clone(), &manifest, 0).unwrap();
            for (step, (&eb, (frags, bits))) in series.iter().zip(want).enumerate() {
                reader.refine_to(eb).unwrap();
                let got = std::mem::take(&mut *source.log.lock().unwrap());
                let bound = reader.guaranteed_bound().to_bits();
                assert_eq!(got, frags, "{} step {step}", scheme.name());
                assert_eq!(bound, bits, "{} step {step}: {bound:#018x}", scheme.name());
            }
        }
    }

    #[test]
    fn resume_markers_refuse_what_they_cannot_replay() {
        let data = field_data(1000);
        let range = stats::value_range(&data);
        for scheme in Scheme::extended() {
            let name = scheme.name();
            let field =
                RefactoredField::refactor_with_bounds(scheme, &data, &[1000], &bounds_short())
                    .unwrap();
            let mut reader = field.reader();
            reader.refine_to(1e-3 * range).unwrap();
            let marker = reader.progress();
            let end = {
                let mut deep = field.reader();
                deep.refine_to(0.0).unwrap();
                assert!(deep.exhausted(), "{name}");
                deep.progress().consumed
            };
            let invalid = |p: &ReaderProgress| {
                matches!(field.reader().restore(p), Err(PqrError::InvalidRequest(_)))
            };
            let corrupt = |p: &ReaderProgress| {
                matches!(field.reader().restore(p), Err(PqrError::CorruptStream(_)))
            };
            // the honest marker replays; one past the table's end does not
            assert!(field.reader().restore(&marker).is_ok(), "{name}");
            for consumed in [end + 1, u32::MAX] {
                assert!(invalid(&ReaderProgress { consumed, ..marker }), "{name}");
            }
            // nor does a marker of another representation
            for other in Scheme::extended().into_iter().filter(|&o| o != scheme) {
                let foreign = ReaderProgress {
                    scheme: other,
                    ..marker
                };
                assert!(invalid(&foreign), "{name}: {} marker", other.name());
            }
            // nor a byte count below what the replay moves, or beyond any
            // archive
            for fetched in [0, marker.fetched - 1, MAX_RECORDED_FETCHED + 1, u64::MAX] {
                assert!(
                    corrupt(&ReaderProgress { fetched, ..marker }),
                    "{name}: fetched {fetched}"
                );
            }
            // the per-family markers of earlier releases are refused when
            // read, never mapped onto a prefix
            let old: [&[u8]; 3] = [
                &[0, 2, 0, 0, 0, 9, 0, 0, 0, 0, 0, 0, 0],
                &[1, 2, 0, 0, 0, 3, 0, 0, 0, 1, 0, 0, 0],
                &[2, 4, 0, 0, 0],
            ];
            for bytes in old {
                let read = ReaderProgress::from_bytes(bytes);
                assert!(
                    matches!(&read, Err(PqrError::InvalidRequest(m)) if m.contains("tag")),
                    "{name}: {read:?}"
                );
                let mut retagged = marker.to_bytes();
                retagged[0] = bytes[0];
                assert!(matches!(
                    ReaderProgress::from_bytes(&retagged),
                    Err(PqrError::InvalidRequest(_))
                ));
            }
            assert_eq!(
                ReaderProgress::from_bytes(&marker.to_bytes()).unwrap(),
                marker
            );
        }
    }

    #[test]
    fn hostile_sz_headers_fail_a_delta_refine() {
        // a snapshot fragment is an SZ blob; a header its predictor walk
        // cannot run on (no axis, a tag naming no predictor, extents whose
        // product wraps to the symbol count) is an error, not a panic
        let one = RefactoredField::refactor(Scheme::Psz3Delta, &[1.0], &[1]).unwrap();
        let four =
            RefactoredField::refactor(Scheme::Psz3Delta, &[1.0, 2.0, 4.0, 8.0], &[4]).unwrap();
        // magic (4) version (1) predictor tag (1) radius (4) eb (8) nd (1),
        // then one u64 per extent; tag 2 names no predictor
        let rewrite = |field: &RefactoredField, tag: u8, extents: &[u64]| {
            let blob = &field.frags[0].1;
            let mut out = blob[..18].to_vec();
            out[5] = tag;
            out.push(extents.len() as u8);
            extents
                .iter()
                .for_each(|d| out.extend_from_slice(&d.to_le_bytes()));
            out.extend_from_slice(&blob[19 + 8 * usize::from(blob[18])..]);
            out
        };
        for (field, hostile) in [
            (&one, rewrite(&one, 0, &[])),
            (&one, rewrite(&one, 2, &[])),
            (&four, rewrite(&four, 2, &[1, 1, 1, 4])),
            (&four, rewrite(&four, 0, &[(1 << 62) + 1, 4])),
        ] {
            let mut field = field.clone();
            field.frags[0].1 = Arc::new(hostile);
            assert!(field.reader().refine_to(0.0).is_err());
        }
    }
}
