//! Fragment-addressed storage: where the bytes of a progressive archive
//! actually live.
//!
//! The paper's premise is that a retrieval moves *only the fragments a
//! derived QoI bound needs* — so the storage layer must be able to hand out
//! individual fragments without materialising the whole archive. This
//! module decouples the progressive representations from their bytes:
//!
//! * A **fragment** is one independently fetchable unit, addressed by
//!   [`FragmentId`] `(field, index)`. Index `0` is the field's metadata
//!   fragment for the multilevel/transform schemes (PMGARD level headers,
//!   ZFP exponent table); the remaining indices are the per-(level,
//!   bitplane) segments in storage order. Snapshot schemes have no metadata
//!   fragment — every fragment is one snapshot blob, and its error bound
//!   rides in the directory ([`FragmentInfo::eb_abs`]).
//! * A [`Manifest`] is the archive's always-resident header: shape, field
//!   names/schemes/ranges, the per-field fragment *directory* (offset,
//!   length, bound), the zero-outlier mask, and an opaque application
//!   metadata blob (`pqr-core` stores its QoI registry there).
//! * A [`FragmentSource`] serves fragments by id. Three backends share the
//!   one retrieval code path: resident datasets
//!   ([`RefactoredDataset`](crate::field::RefactoredDataset) /
//!   [`RefactoredField`] implement the trait directly), a serialized
//!   in-memory archive ([`InMemorySource`]), and a file opened lazily with
//!   byte-range reads ([`FileSource`]). [`CachedSource`] wraps any of them
//!   (typically a remote or disk source) with a shared LRU fragment cache.
//!
//! ## Serialized container
//!
//! ```text
//! "PQRX" u8:version  u64:manifest_len  manifest  fragment payloads...
//! ```
//!
//! The manifest stores absolute payload offsets, so a reader can fetch any
//! fragment with one range read and never has to scan the payload region.
//! Parsing validates the directory hostile-stream-hard: counts are checked
//! against the bytes that could back them, offsets must be in bounds,
//! ascending and non-overlapping — a corrupt or malicious directory fails
//! at parse time, not as an allocation bomb or an out-of-range read later.

use crate::backend;
use crate::mask::ZeroMask;
use crate::refactored::{RefactoredField, Scheme};
use pqr_util::byteio::{ByteReader, ByteWriter};
use pqr_util::cache::LruCache;
use pqr_util::error::{PqrError, Result};
use std::collections::HashMap;
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Container magic.
const MAGIC: &[u8; 4] = b"PQRX";
/// Container format version.
const VERSION: u8 = 1;
/// Bytes before the manifest: magic + version + manifest length.
const PREAMBLE: usize = 4 + 1 + 8;

/// Address of one fragment: which field, which fragment of that field.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct FragmentId {
    /// Field index within the archive.
    pub field: u32,
    /// Fragment index within the field (see module docs for the layout).
    pub index: u32,
}

/// One directory entry: where a fragment's bytes live and what it is.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FragmentInfo {
    /// Absolute byte offset of the payload within the container.
    pub offset: u64,
    /// Payload length in bytes.
    pub len: u64,
    /// For snapshot-scheme fragments: the absolute L∞ bound this snapshot
    /// guarantees (cumulative for delta). `0.0` for metadata/plane
    /// fragments, whose bounds come from the decode model instead.
    pub eb_abs: f64,
}

/// Per-field manifest entry: identity, refactor-time metadata, directory.
#[derive(Debug, Clone, PartialEq)]
pub struct FieldEntry {
    /// Field name.
    pub name: String,
    /// Progressive representation of this field.
    pub scheme: Scheme,
    /// `max − min` of the original data (drives relative bounds).
    pub range: f64,
    /// `max |x|` of the original data (initial zero-vector error bound).
    pub max_abs: f64,
    /// The fragment directory, in storage order.
    pub fragments: Vec<FragmentInfo>,
}

impl FieldEntry {
    /// Total payload bytes across this field's fragments.
    pub fn total_bytes(&self) -> usize {
        self.fragments.iter().map(|f| f.len as usize).sum()
    }
}

/// The archive's always-resident header: everything a retrieval session
/// must hold before fetching a single payload fragment.
#[derive(Debug, Clone, PartialEq)]
pub struct Manifest {
    /// Shape shared by every field.
    pub dims: Vec<usize>,
    /// Per-field entries, in field-index order.
    pub fields: Vec<FieldEntry>,
    /// The zero-outlier mask (§V-A), if attached.
    pub mask: Option<ZeroMask>,
    /// Opaque application metadata (e.g. `pqr-core`'s QoI registry).
    pub app_meta: Vec<u8>,
}

impl Manifest {
    /// Number of fields.
    pub fn num_fields(&self) -> usize {
        self.fields.len()
    }

    /// Elements per field.
    pub fn num_elements(&self) -> usize {
        self.dims.iter().product()
    }

    /// Total payload bytes across all fields (the archived size minus the
    /// manifest itself).
    pub fn total_payload_bytes(&self) -> usize {
        self.fields.iter().map(FieldEntry::total_bytes).sum()
    }

    /// Raw (uncompressed f64) size of the dataset the archive refactors.
    pub fn raw_bytes(&self) -> usize {
        self.num_fields() * self.num_elements() * 8
    }

    /// Field index by name.
    pub fn field_index(&self, name: &str) -> Option<usize> {
        self.fields.iter().position(|f| f.name == name)
    }

    /// Sorts fragment ids into storage order (ascending directory offset;
    /// ids the directory does not hold go last) so a batch presents the
    /// backend maximal coalescing opportunities.
    pub fn storage_order(&self, ids: &mut [FragmentId]) {
        ids.sort_by_key(|&id| self.fragment(id).map_or(u64::MAX, |f| f.offset));
    }

    /// The directory entry for `id`, or a corrupt-request error.
    pub fn fragment(&self, id: FragmentId) -> Result<&FragmentInfo> {
        self.fields
            .get(id.field as usize)
            .and_then(|f| f.fragments.get(id.index as usize))
            .ok_or_else(|| {
                PqrError::InvalidRequest(format!(
                    "fragment ({}, {}) not in directory",
                    id.field, id.index
                ))
            })
    }
}

pqr_util::tally! {
    /// Cumulative fetch tallies of a [`FragmentSource`].
    pub struct SourceStats / AtomicSourceStats {
        /// Fragment fetches served (including cache hits).
        fetches,
        /// Payload bytes handed out (including cache hits).
        fetched_bytes,
        /// Fetches served from a cache without touching the backend.
        cache_hits,
        /// Fetches that had to go to the backend.
        cache_misses,
        /// Backend read operations performed: one per single-fragment fetch,
        /// one per *coalesced range* in a [`FragmentSource::read_many`] batch
        /// (adjacent fragments collapse into one seek+read), so batched
        /// execution is observable as `read_ops < fetches`.
        read_ops,
    }
}

/// Serves progressive fragments by id — the seam between the retrieval
/// engine and wherever the archive's bytes live.
///
/// Every retrieval path (resident, serialized in memory, file-backed,
/// cached) pulls bytes through this trait, so partial retrieval
/// is partial *in bytes read*, not just in bytes counted.
pub trait FragmentSource: Send + Sync {
    /// The archive's manifest (owned: sources may synthesise it on demand).
    fn manifest(&self) -> Result<Manifest>;

    /// Fetches one fragment's payload. The returned buffer length must
    /// equal the directory-declared length.
    fn fetch(&self, id: FragmentId) -> Result<Arc<Vec<u8>>>;

    /// Fetches a whole batch of fragments in one call, returning payloads
    /// in request order. This is the batched entry point plan execution
    /// drives: backends override it to coalesce adjacent byte ranges into
    /// single reads ([`FileSource`]) or consult a cache before batching the
    /// misses into one round trip ([`CachedSource`]). The default degrades
    /// to a per-fragment loop, so every source stays correct.
    fn read_many(&self, ids: &[FragmentId]) -> Result<Vec<Arc<Vec<u8>>>> {
        ids.iter().map(|&id| self.fetch(id)).collect()
    }

    /// Cumulative fetch tallies. Sources that do not track (e.g. resident
    /// datasets, where a "fetch" is a memory copy) report zeros.
    fn stats(&self) -> SourceStats {
        SourceStats::default()
    }
}

impl<S: FragmentSource + ?Sized> FragmentSource for &S {
    fn manifest(&self) -> Result<Manifest> {
        (**self).manifest()
    }
    fn fetch(&self, id: FragmentId) -> Result<Arc<Vec<u8>>> {
        (**self).fetch(id)
    }
    fn read_many(&self, ids: &[FragmentId]) -> Result<Vec<Arc<Vec<u8>>>> {
        (**self).read_many(ids)
    }
    fn stats(&self) -> SourceStats {
        (**self).stats()
    }
}

/// One field's batched read, by fragment index: handed by value to the
/// reader that consumes it for that one call, which falls back to
/// [`FragmentSource::fetch`] for any fragment the batch lacks and drops
/// whatever it did not take when the call returns.
pub(crate) type Batch = HashMap<u32, Arc<Vec<u8>>>;

/// One coalesced read: `(run_offset, run_len, members)` where each member
/// is `(position_in_request, directory_entry)`.
type CoalescedRun = (u64, usize, Vec<(usize, FragmentInfo)>);

/// Resolves `ids` against the directory and groups them into maximal runs
/// of adjacent/overlapping byte ranges, each run carrying the positions of
/// its fragments in the original request. The directory guarantees
/// ascending non-overlapping fragment ranges, so a run's length is exactly
/// the sum of its fragments' lengths — coalescing never over-reads.
fn coalesce_ranges(manifest: &Manifest, ids: &[FragmentId]) -> Result<Vec<CoalescedRun>> {
    let mut resolved: Vec<(usize, FragmentInfo)> = ids
        .iter()
        .enumerate()
        .map(|(k, &id)| manifest.fragment(id).map(|info| (k, *info)))
        .collect::<Result<_>>()?;
    resolved.sort_by_key(|(_, info)| info.offset);
    let mut runs: Vec<CoalescedRun> = Vec::new();
    for (k, info) in resolved {
        match runs.last_mut() {
            Some((start, len, members)) if info.offset <= *start + *len as u64 => {
                let end = (info.offset + info.len).max(*start + *len as u64);
                *len = (end - *start) as usize;
                members.push((k, info));
            }
            _ => runs.push((info.offset, info.len as usize, vec![(k, info)])),
        }
    }
    Ok(runs)
}

// ---------------------------------------------------------------------------
// Splitting a resident field into fragments
// ---------------------------------------------------------------------------

/// Builds a field's directory entry with offsets starting at `*offset`
/// (advanced past the field's payloads).
fn entry_for(name: &str, field: &RefactoredField, offset: &mut u64) -> FieldEntry {
    let fragments = field
        .frags
        .iter()
        .map(|(eb_abs, payload)| {
            let info = FragmentInfo {
                offset: *offset,
                len: payload.len() as u64,
                eb_abs: *eb_abs,
            };
            *offset += info.len;
            info
        })
        .collect();
    FieldEntry {
        name: name.to_string(),
        scheme: field.scheme,
        range: field.range,
        max_abs: field.max_abs,
        fragments,
    }
}

/// Builds the manifest of a resident collection, with payload offsets laid
/// out as [`write_container`] would place them starting at `payload_start`.
pub(crate) fn build_manifest(
    dims: &[usize],
    fields: &[(&str, &RefactoredField)],
    mask: Option<&ZeroMask>,
    app_meta: &[u8],
    payload_start: u64,
) -> Manifest {
    let mut offset = payload_start;
    Manifest {
        dims: dims.to_vec(),
        fields: fields
            .iter()
            .map(|(name, f)| entry_for(name, f, &mut offset))
            .collect(),
        mask: mask.cloned(),
        app_meta: app_meta.to_vec(),
    }
}

// ---------------------------------------------------------------------------
// Serialized container
// ---------------------------------------------------------------------------

fn manifest_to_bytes(m: &Manifest) -> Vec<u8> {
    let mut w = ByteWriter::new();
    w.put_u8(m.dims.len() as u8);
    for &d in &m.dims {
        w.put_u64(d as u64);
    }
    w.put_u32(m.fields.len() as u32);
    for f in &m.fields {
        w.put_bytes(f.name.as_bytes());
        w.put_u8(f.scheme.tag());
        w.put_f64(f.range);
        w.put_f64(f.max_abs);
        w.put_u32(f.fragments.len() as u32);
        for frag in &f.fragments {
            w.put_u64(frag.offset);
            w.put_u64(frag.len);
            w.put_f64(frag.eb_abs);
        }
    }
    match &m.mask {
        Some(mask) => {
            w.put_u8(1);
            w.put_bytes(&mask.to_bytes());
        }
        None => w.put_u8(0),
    }
    w.put_bytes(&m.app_meta);
    w.finish()
}

/// Parses and validates a manifest blob. `payload_start` is where the
/// payload region begins and `total_len` the container's total size — the
/// directory must describe in-bounds, ascending, non-overlapping ranges.
fn manifest_from_bytes(bytes: &[u8], payload_start: u64, total_len: u64) -> Result<Manifest> {
    let mut r = ByteReader::new(bytes);
    let nd = r.get_u8()? as usize;
    let mut dims = Vec::with_capacity(nd);
    for _ in 0..nd {
        dims.push(r.get_u64()? as usize);
    }
    pqr_util::byteio::check_dims(&dims)?;
    // each field entry needs at least a name length, a scheme tag, two
    // f64s and a fragment count
    let nf = r.get_u32()? as usize;
    let nf = r.check_count(nf, 8 + 1 + 8 + 8 + 4)?;
    let mut fields = Vec::with_capacity(nf);
    let mut cursor = payload_start; // end of the previous fragment
    for _ in 0..nf {
        let name = String::from_utf8(r.get_bytes()?.to_vec())
            .map_err(|_| PqrError::CorruptStream("bad field name".into()))?;
        let scheme = Scheme::from_tag(r.get_u8()?)
            .ok_or_else(|| PqrError::CorruptStream("unknown scheme".into()))?;
        let range = r.get_f64()?;
        let max_abs = r.get_f64()?;
        let nfrag = r.get_u32()? as usize;
        let nfrag = r.check_count(nfrag, 8 + 8 + 8)?;
        let mut fragments = Vec::with_capacity(nfrag);
        for _ in 0..nfrag {
            let offset = r.get_u64()?;
            let len = r.get_u64()?;
            let eb_abs = r.get_f64()?;
            // in bounds, after the previous fragment (ascending implies
            // non-overlapping), and no arithmetic overflow on a hostile
            // offset/len pair
            let end = offset
                .checked_add(len)
                .filter(|&e| offset >= cursor && e <= total_len)
                .ok_or_else(|| {
                    PqrError::CorruptStream(format!(
                        "fragment range {offset}+{len} escapes container \
                         (payload region {cursor}..{total_len})"
                    ))
                })?;
            cursor = end;
            fragments.push(FragmentInfo {
                offset,
                len,
                eb_abs,
            });
        }
        fields.push(FieldEntry {
            name,
            scheme,
            range,
            max_abs,
            fragments,
        });
    }
    let mask = if r.get_u8()? == 1 {
        Some(ZeroMask::from_bytes(r.get_bytes()?)?)
    } else {
        None
    };
    let app_meta = r.get_bytes()?.to_vec();
    if r.remaining() != 0 {
        return Err(PqrError::CorruptStream("trailing manifest bytes".into()));
    }
    Ok(Manifest {
        dims,
        fields,
        mask,
        app_meta,
    })
}

/// Serializes fields into the fragment-addressed container format.
pub(crate) fn write_container(
    dims: &[usize],
    fields: &[(&str, &RefactoredField)],
    mask: Option<&ZeroMask>,
    app_meta: &[u8],
) -> Vec<u8> {
    // Offsets are fixed-width, so the manifest's size is independent of
    // their values: measure with zero offsets, then lay out for real.
    let probe = manifest_to_bytes(&build_manifest(dims, fields, mask, app_meta, 0));
    let payload_start = (PREAMBLE + probe.len()) as u64;
    let manifest = build_manifest(dims, fields, mask, app_meta, payload_start);
    let mbytes = manifest_to_bytes(&manifest);
    debug_assert_eq!(mbytes.len(), probe.len());

    let total = payload_start as usize + manifest.total_payload_bytes();
    let mut w = ByteWriter::with_capacity(total);
    w.put_raw(MAGIC);
    w.put_u8(VERSION);
    w.put_u64(mbytes.len() as u64);
    w.put_raw(&mbytes);
    for (_, field) in fields {
        for (_, payload) in &field.frags {
            w.put_raw(payload);
        }
    }
    debug_assert_eq!(w.len(), total);
    w.finish()
}

/// Streams a container to `path` while fields are still being encoded.
///
/// `encode(i)` produces field `i`; with `overlap_io` the closure runs on
/// `workers` encoder threads while this thread writes completed fields'
/// payloads to disk in field order, so the disk is busy during the bulk of
/// the encode. Without overlap, all fields are encoded first (still across
/// `workers` threads) and written afterwards.
///
/// The manifest must precede the payloads it addresses, so its space is
/// reserved up front: fragment directory entries are fixed-width, which
/// means a manifest carrying every field at its [`backend::max_fragments`] ceiling
/// upper-bounds the real one byte-for-byte. Payloads start right after the
/// reservation and the actual manifest is back-patched at the end, with the
/// slack zero-filled. [`manifest_from_bytes`] only requires fragment offsets
/// to sit at-or-after the manifest's end, so readers accept the gap.
///
/// The resulting file depends only on the encoded content and field order —
/// every `workers` / `overlap_io` combination yields identical bytes
/// (though, unlike [`write_container`]'s output, with a padded directory).
/// Returns the total file size. The file is left behind on error; callers
/// own cleanup.
#[allow(clippy::too_many_arguments)]
pub(crate) fn write_container_streaming<F>(
    path: &Path,
    dims: &[usize],
    names: &[String],
    scheme: Scheme,
    num_bounds: usize,
    mask: Option<&ZeroMask>,
    app_meta: &[u8],
    workers: usize,
    overlap_io: bool,
    encode: F,
) -> Result<u64>
where
    F: Fn(usize) -> Result<RefactoredField> + Sync,
{
    let io = |what: &str, e: std::io::Error| io_err(path, what, e);
    let reserve = {
        let frags = vec![
            FragmentInfo {
                offset: 0,
                len: 0,
                eb_abs: 0.0,
            };
            backend::max_fragments(scheme, dims, num_bounds)
        ];
        let probe = Manifest {
            dims: dims.to_vec(),
            fields: names
                .iter()
                .map(|name| FieldEntry {
                    name: name.clone(),
                    scheme,
                    range: 0.0,
                    max_abs: 0.0,
                    fragments: frags.clone(),
                })
                .collect(),
            mask: mask.cloned(),
            app_meta: app_meta.to_vec(),
        };
        manifest_to_bytes(&probe).len()
    };
    let payload_start = (PREAMBLE + reserve) as u64;

    let mut file = std::fs::File::create(path).map_err(|e| io("cannot create", e))?;
    file.seek(SeekFrom::Start(payload_start))
        .map_err(|e| io("cannot seek in", e))?;

    let nfields = names.len();
    let workers = workers.clamp(1, nfields.max(1));
    let mut offset = payload_start;
    let mut entries: Vec<FieldEntry> = Vec::with_capacity(nfields);
    let write_field = |file: &mut std::fs::File,
                       entries: &mut Vec<FieldEntry>,
                       offset: &mut u64,
                       i: usize,
                       field: &RefactoredField|
     -> Result<()> {
        entries.push(entry_for(&names[i], field, offset));
        for (_, payload) in &field.frags {
            file.write_all(payload).map_err(|e| io("cannot write", e))?;
        }
        Ok(())
    };

    if overlap_io && nfields > 0 {
        let (tx, rx) = std::sync::mpsc::channel::<(usize, Result<RefactoredField>)>();
        let dispenser = pqr_util::par::IndexDispenser::new(nfields);
        std::thread::scope(|s| -> Result<()> {
            for _ in 0..workers {
                let tx = tx.clone();
                let (dispenser, encode) = (&dispenser, &encode);
                s.spawn(move || {
                    while let Some(i) = dispenser.claim() {
                        // a send error means the writer bailed; stop encoding
                        if tx.send((i, encode(i))).is_err() {
                            return;
                        }
                    }
                });
            }
            drop(tx);
            // Fields finish out of order but the container layout is
            // field-ordered: park early arrivals, flush whenever the next
            // expected field lands. On failure, surface the error of the
            // *earliest* failing field so the outcome doesn't depend on
            // thread timing.
            let mut parked = std::collections::BTreeMap::new();
            let mut next = 0usize;
            let mut first_err: Option<(usize, PqrError)> = None;
            for (i, res) in rx {
                match res {
                    Ok(field) => {
                        parked.insert(i, field);
                    }
                    Err(e) if first_err.as_ref().is_none_or(|(j, _)| i < *j) => {
                        first_err = Some((i, e));
                    }
                    Err(_) => {}
                }
                while first_err.is_none()
                    && parked.first_key_value().is_some_and(|(&k, _)| k == next)
                {
                    let field = parked.remove(&next).unwrap();
                    write_field(&mut file, &mut entries, &mut offset, next, &field)?;
                    next += 1;
                }
            }
            match first_err {
                Some((_, e)) => Err(e),
                None => Ok(()),
            }
        })?;
    } else {
        let fields = pqr_util::par::par_dynamic(nfields, workers, &encode)
            .into_iter()
            .collect::<Result<Vec<_>>>()?;
        for (i, field) in fields.iter().enumerate() {
            write_field(&mut file, &mut entries, &mut offset, i, field)?;
        }
    }

    let manifest = Manifest {
        dims: dims.to_vec(),
        fields: entries,
        mask: mask.cloned(),
        app_meta: app_meta.to_vec(),
    };
    let mbytes = manifest_to_bytes(&manifest);
    debug_assert!(mbytes.len() <= reserve);
    if mbytes.len() > reserve {
        return Err(PqrError::CorruptStream(
            "manifest outgrew its reservation".into(),
        ));
    }
    file.seek(SeekFrom::Start(0))
        .map_err(|e| io("cannot seek in", e))?;
    let mut head = ByteWriter::with_capacity(payload_start as usize);
    head.put_raw(MAGIC);
    head.put_u8(VERSION);
    head.put_u64(mbytes.len() as u64);
    head.put_raw(&mbytes);
    let head = head.finish();
    file.write_all(&head).map_err(|e| io("cannot write", e))?;
    // zero the slack so the file is fully determined by its content
    file.write_all(&vec![0u8; payload_start as usize - head.len()])
        .map_err(|e| io("cannot write", e))?;
    file.flush().map_err(|e| io("cannot flush", e))?;
    Ok(offset)
}

/// Reads the container preamble, returning `(manifest_bytes_range,
/// payload_start)` after validating magic/version and the manifest length.
fn read_preamble(head: &[u8], total_len: u64) -> Result<(usize, u64)> {
    let mut r = ByteReader::new(head);
    if r.get_raw(4)? != MAGIC {
        return Err(PqrError::CorruptStream("bad container magic".into()));
    }
    if r.get_u8()? != VERSION {
        return Err(PqrError::CorruptStream("unsupported container".into()));
    }
    let mlen = r.get_u64()?;
    let payload_start = (PREAMBLE as u64)
        .checked_add(mlen)
        .filter(|&p| p <= total_len)
        .ok_or_else(|| PqrError::CorruptStream(format!("manifest length {mlen} escapes file")))?;
    Ok((mlen as usize, payload_start))
}

/// Rebuilds one resident [`RefactoredField`] by fetching every fragment of
/// field `i` through `source` — the materialising path (deserialization,
/// debugging); retrieval paths should refine through readers instead. The
/// field passes the structural validation a reader's open would run on it,
/// so a hostile archive fails here, not at the first retrieval.
pub(crate) fn load_field(
    source: &dyn FragmentSource,
    manifest: &Manifest,
    i: usize,
) -> Result<RefactoredField> {
    let entry = &manifest.fields[i];
    let frags = entry
        .fragments
        .iter()
        .enumerate()
        .map(|(index, info)| {
            let id = FragmentId {
                field: i as u32,
                index: index as u32,
            };
            Ok((info.eb_abs, source.fetch(id)?))
        })
        .collect::<Result<backend::Fragments>>()?;
    backend::open(entry, &manifest.dims, || Ok(Arc::clone(&frags[0].1)))?;
    Ok(RefactoredField {
        scheme: entry.scheme,
        dims: manifest.dims.clone(),
        range: entry.range,
        max_abs: entry.max_abs,
        frags,
    })
}

// ---------------------------------------------------------------------------
// Backends
// ---------------------------------------------------------------------------

impl AtomicSourceStats {
    fn record(&self, bytes: usize, hit: bool) {
        self.fetches.fetch_add(1, Ordering::Relaxed);
        self.fetched_bytes
            .fetch_add(bytes as u64, Ordering::Relaxed);
        if hit {
            self.cache_hits.fetch_add(1, Ordering::Relaxed);
        } else {
            self.cache_misses.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Tallies `ops` backend read operations (seeks/range reads/batch
    /// round-trips — whatever the backend's unit of real I/O is).
    fn record_ops(&self, ops: u64) {
        self.read_ops.fetch_add(ops, Ordering::Relaxed);
    }
}

/// A serialized fragment-addressed archive held fully in memory. Fetches
/// are slice copies; counters still track them, so tests and benches can
/// compare byte movement across backends.
#[derive(Debug)]
pub struct InMemorySource {
    bytes: Vec<u8>,
    manifest: Manifest,
    stats: AtomicSourceStats,
}

impl InMemorySource {
    /// Parses a serialized container (from [`RefactoredDataset::to_bytes`]
    /// or a file read into memory).
    ///
    /// [`RefactoredDataset::to_bytes`]: crate::field::RefactoredDataset::to_bytes
    pub fn new(bytes: Vec<u8>) -> Result<Self> {
        let total = bytes.len() as u64;
        if bytes.len() < PREAMBLE {
            return Err(PqrError::CorruptStream("container too short".into()));
        }
        let (mlen, payload_start) = read_preamble(&bytes[..PREAMBLE], total)?;
        let mbytes = bytes
            .get(PREAMBLE..PREAMBLE + mlen)
            .ok_or_else(|| PqrError::CorruptStream("truncated manifest".into()))?;
        let manifest = manifest_from_bytes(mbytes, payload_start, total)?;
        Ok(Self {
            bytes,
            manifest,
            stats: AtomicSourceStats::default(),
        })
    }

    /// Total container size in bytes.
    pub fn total_bytes(&self) -> usize {
        self.bytes.len()
    }
}

impl FragmentSource for InMemorySource {
    fn manifest(&self) -> Result<Manifest> {
        Ok(self.manifest.clone())
    }

    fn fetch(&self, id: FragmentId) -> Result<Arc<Vec<u8>>> {
        let info = self.manifest.fragment(id)?;
        // parse-time validation guarantees the range is in bounds
        let payload = self.bytes[info.offset as usize..(info.offset + info.len) as usize].to_vec();
        self.stats.record(payload.len(), false);
        self.stats.record_ops(1);
        Ok(Arc::new(payload))
    }

    fn read_many(&self, ids: &[FragmentId]) -> Result<Vec<Arc<Vec<u8>>>> {
        // memory "reads" are slice copies; coalescing only changes the op
        // tally, keeping read-op accounting comparable across backends
        let runs = coalesce_ranges(&self.manifest, ids)?;
        let mut out: Vec<Option<Arc<Vec<u8>>>> = vec![None; ids.len()];
        for (_, _, members) in &runs {
            for &(k, info) in members {
                let payload =
                    self.bytes[info.offset as usize..(info.offset + info.len) as usize].to_vec();
                self.stats.record(payload.len(), false);
                out[k] = Some(Arc::new(payload));
            }
        }
        self.stats.record_ops(runs.len() as u64);
        Ok(out
            .into_iter()
            .map(|p| p.expect("every id resolved"))
            .collect())
    }

    fn stats(&self) -> SourceStats {
        self.stats.snapshot()
    }
}

/// A fragment source over an archive file, opened lazily: only the
/// preamble and manifest are read at open; every fragment fetch is one
/// `seek + read_exact` of the directory-declared byte range. The file is
/// never loaded whole — this is what makes partial retrieval partial in
/// *disk bytes read*.
#[derive(Debug)]
pub struct FileSource {
    path: PathBuf,
    file: Mutex<std::fs::File>,
    manifest: Manifest,
    header_bytes: usize,
    stats: AtomicSourceStats,
}

fn io_err(path: &Path, op: &str, e: std::io::Error) -> PqrError {
    PqrError::InvalidRequest(format!("{op} '{}': {e}", path.display()))
}

impl FileSource {
    /// Opens an archive file, reading and validating only the manifest.
    pub fn open(path: impl AsRef<Path>) -> Result<Self> {
        let path = path.as_ref().to_path_buf();
        let mut file = std::fs::File::open(&path).map_err(|e| io_err(&path, "cannot open", e))?;
        let total = file
            .metadata()
            .map_err(|e| io_err(&path, "cannot stat", e))?
            .len();
        let mut head = [0u8; PREAMBLE];
        file.read_exact(&mut head)
            .map_err(|e| io_err(&path, "cannot read preamble of", e))?;
        let (mlen, payload_start) = read_preamble(&head, total)?;
        let mut mbytes = vec![0u8; mlen];
        file.read_exact(&mut mbytes)
            .map_err(|e| io_err(&path, "cannot read manifest of", e))?;
        let manifest = manifest_from_bytes(&mbytes, payload_start, total)?;
        Ok(Self {
            path,
            file: Mutex::new(file),
            manifest,
            header_bytes: PREAMBLE + mlen,
            stats: AtomicSourceStats::default(),
        })
    }

    /// The archive file's path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Bytes read at open time (preamble + manifest).
    pub fn header_bytes(&self) -> usize {
        self.header_bytes
    }

    /// Total disk bytes this source has read: the always-read header plus
    /// every fetched fragment range.
    pub fn disk_bytes_read(&self) -> u64 {
        self.header_bytes as u64 + self.stats.snapshot().fetched_bytes
    }
}

impl FragmentSource for FileSource {
    fn manifest(&self) -> Result<Manifest> {
        Ok(self.manifest.clone())
    }

    fn fetch(&self, id: FragmentId) -> Result<Arc<Vec<u8>>> {
        let info = self.manifest.fragment(id)?;
        let mut payload = vec![0u8; info.len as usize];
        {
            let mut f = self.file.lock().unwrap_or_else(|e| e.into_inner());
            f.seek(SeekFrom::Start(info.offset))
                .map_err(|e| io_err(&self.path, "cannot seek", e))?;
            f.read_exact(&mut payload)
                .map_err(|e| io_err(&self.path, "cannot read fragment from", e))?;
        }
        self.stats.record(payload.len(), false);
        self.stats.record_ops(1);
        Ok(Arc::new(payload))
    }

    fn read_many(&self, ids: &[FragmentId]) -> Result<Vec<Arc<Vec<u8>>>> {
        // one seek + read per coalesced run: fragments of one refinement
        // front sit adjacently in the container, so a batch of n fragments
        // typically costs far fewer than n read operations
        let runs = coalesce_ranges(&self.manifest, ids)?;
        let mut out: Vec<Option<Arc<Vec<u8>>>> = vec![None; ids.len()];
        for (start, len, members) in &runs {
            let mut buf = vec![0u8; *len];
            {
                let mut f = self.file.lock().unwrap_or_else(|e| e.into_inner());
                f.seek(SeekFrom::Start(*start))
                    .map_err(|e| io_err(&self.path, "cannot seek", e))?;
                f.read_exact(&mut buf)
                    .map_err(|e| io_err(&self.path, "cannot read fragment run from", e))?;
            }
            for &(k, info) in members {
                let rel = (info.offset - start) as usize;
                let payload = buf[rel..rel + info.len as usize].to_vec();
                self.stats.record(payload.len(), false);
                out[k] = Some(Arc::new(payload));
            }
        }
        self.stats.record_ops(runs.len() as u64);
        Ok(out
            .into_iter()
            .map(|p| p.expect("every id resolved"))
            .collect())
    }

    fn stats(&self) -> SourceStats {
        self.stats.snapshot()
    }
}

/// Key type of the shared fragment cache: a per-source salt plus the
/// fragment address, so several archives can share one [`LruCache`].
pub type FragmentCacheKey = (u64, u32, u32);

/// The LRU fragment cache shared between [`CachedSource`]s.
pub type FragmentCache = LruCache<FragmentCacheKey>;

/// Distinguishes sources sharing one cache.
static NEXT_SALT: AtomicU64 = AtomicU64::new(0);

/// Wraps a backend with a (shareable) LRU fragment cache: repeated fetches
/// of the same fragment are served locally and tallied as cache hits.
#[derive(Debug)]
pub struct CachedSource<S> {
    inner: S,
    cache: Arc<FragmentCache>,
    salt: u64,
    stats: AtomicSourceStats,
}

impl<S: FragmentSource> CachedSource<S> {
    /// Wraps `inner` with `cache` (shareable across sources).
    pub fn new(inner: S, cache: Arc<FragmentCache>) -> Self {
        Self {
            inner,
            cache,
            salt: NEXT_SALT.fetch_add(1, Ordering::Relaxed),
            stats: AtomicSourceStats::default(),
        }
    }

    /// The wrapped backend.
    pub fn inner(&self) -> &S {
        &self.inner
    }

    /// The shared cache.
    pub fn cache(&self) -> &Arc<FragmentCache> {
        &self.cache
    }
}

impl<S: FragmentSource> FragmentSource for CachedSource<S> {
    fn manifest(&self) -> Result<Manifest> {
        self.inner.manifest()
    }

    fn fetch(&self, id: FragmentId) -> Result<Arc<Vec<u8>>> {
        let key = (self.salt, id.field, id.index);
        if let Some(hit) = self.cache.get(&key) {
            self.stats.record(hit.len(), true);
            return Ok(hit);
        }
        let payload = self.inner.fetch(id)?;
        self.cache.insert(key, Arc::clone(&payload));
        self.stats.record(payload.len(), false);
        self.stats.record_ops(1);
        Ok(payload)
    }

    fn read_many(&self, ids: &[FragmentId]) -> Result<Vec<Arc<Vec<u8>>>> {
        // consult the LRU first; only the misses ride one batched backend
        // read (which the inner source may further coalesce)
        let mut out: Vec<Option<Arc<Vec<u8>>>> = vec![None; ids.len()];
        let mut miss_ids = Vec::new();
        let mut miss_pos = Vec::new();
        for (k, &id) in ids.iter().enumerate() {
            let key = (self.salt, id.field, id.index);
            if let Some(hit) = self.cache.get(&key) {
                self.stats.record(hit.len(), true);
                out[k] = Some(hit);
            } else {
                miss_ids.push(id);
                miss_pos.push(k);
            }
        }
        if !miss_ids.is_empty() {
            let payloads = self.inner.read_many(&miss_ids)?;
            self.stats.record_ops(1);
            for ((id, payload), k) in miss_ids.iter().zip(payloads).zip(miss_pos) {
                let key = (self.salt, id.field, id.index);
                self.cache.insert(key, Arc::clone(&payload));
                self.stats.record(payload.len(), false);
                out[k] = Some(payload);
            }
        }
        Ok(out
            .into_iter()
            .map(|p| p.expect("every id resolved"))
            .collect())
    }

    fn stats(&self) -> SourceStats {
        self.stats.snapshot()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::field::Dataset;

    fn dataset(n: usize) -> Dataset {
        let mut ds = Dataset::new(&[n]);
        for (c, name) in ["u", "v"].iter().enumerate() {
            ds.add_field(
                name,
                (0..n)
                    .map(|i| ((i + c * 17) as f64 * 0.02).sin() * 5.0)
                    .collect(),
            )
            .unwrap();
        }
        ds
    }

    fn archive_bytes(scheme: Scheme) -> Vec<u8> {
        dataset(400)
            .refactor_with_bounds(scheme, &[1e-1, 1e-3, 1e-5])
            .unwrap()
            .to_bytes()
    }

    #[test]
    fn container_roundtrips_across_schemes() {
        for scheme in Scheme::extended() {
            let bytes = archive_bytes(scheme);
            let src = InMemorySource::new(bytes).unwrap();
            let m = src.manifest().unwrap();
            assert_eq!(m.num_fields(), 2, "{}", scheme.name());
            assert_eq!(m.dims, vec![400]);
            for (i, f) in m.fields.iter().enumerate() {
                assert_eq!(f.scheme, scheme);
                assert!(!f.fragments.is_empty());
                let rebuilt = load_field(&src, &m, i).unwrap();
                assert_eq!(rebuilt.scheme(), scheme);
                assert_eq!(rebuilt.dims(), &[400]);
                // a field's archived size is what the directory stores
                assert_eq!(rebuilt.total_bytes(), f.total_bytes());
            }
            let resident = dataset(400)
                .refactor_with_bounds(scheme, &[1e-1, 1e-3, 1e-5])
                .unwrap();
            assert_eq!(resident.total_bytes(), m.total_payload_bytes());
        }
    }

    #[test]
    fn fetch_returns_directory_declared_lengths() {
        let src = InMemorySource::new(archive_bytes(Scheme::PmgardHb)).unwrap();
        let m = src.manifest().unwrap();
        for (fi, f) in m.fields.iter().enumerate() {
            for (ki, info) in f.fragments.iter().enumerate() {
                let payload = src
                    .fetch(FragmentId {
                        field: fi as u32,
                        index: ki as u32,
                    })
                    .unwrap();
                assert_eq!(payload.len() as u64, info.len);
            }
        }
        let s = src.stats();
        assert!(s.fetches > 0);
        assert_eq!(s.cache_hits, 0);
    }

    #[test]
    fn out_of_directory_fetch_is_an_error() {
        let src = InMemorySource::new(archive_bytes(Scheme::Psz3)).unwrap();
        assert!(src.fetch(FragmentId { field: 9, index: 0 }).is_err());
        assert!(src
            .fetch(FragmentId {
                field: 0,
                index: 999,
            })
            .is_err());
    }

    #[test]
    fn truncated_containers_fail_cleanly() {
        let bytes = archive_bytes(Scheme::Psz3Delta);
        for cut in [0, 3, PREAMBLE - 1, PREAMBLE + 4, bytes.len() / 2] {
            assert!(
                InMemorySource::new(bytes[..cut].to_vec()).is_err(),
                "cut at {cut} should fail"
            );
        }
        // cutting payloads (but not the manifest) must fail the directory
        // bound check at parse time, not at fetch time
        let head_only = bytes[..bytes.len() - 10].to_vec();
        assert!(InMemorySource::new(head_only).is_err());
    }

    /// Crafts a minimal container whose single field's directory is
    /// attacker-controlled.
    /// A one-field snapshot container whose directory gives the field
    /// `max_abs` and every snapshot `eb_abs`.
    fn crafted(fragments: &[(u64, u64)], scheme: Scheme, max_abs: f64, eb_abs: f64) -> Vec<u8> {
        let mut m = ByteWriter::new();
        m.put_u8(1); // nd
        m.put_u64(4); // dim
        m.put_u32(1); // one field
        m.put_bytes(b"f");
        m.put_u8(scheme.tag());
        m.put_f64(1.0);
        m.put_f64(max_abs);
        m.put_u32(fragments.len() as u32);
        for &(offset, len) in fragments {
            m.put_u64(offset);
            m.put_u64(len);
            m.put_f64(eb_abs);
        }
        m.put_u8(0); // no mask
        m.put_bytes(&[]); // app meta
        let mbytes = m.finish();
        let mut w = ByteWriter::new();
        w.put_raw(MAGIC);
        w.put_u8(VERSION);
        w.put_u64(mbytes.len() as u64);
        w.put_raw(&mbytes);
        w.put_raw(&[0xAB; 64]); // payload region
        w.finish()
    }

    /// Payload-region start of a crafted container with `n` fragments (the
    /// manifest grows with the directory, so it depends on `n`).
    fn crafted_payload_start(n: usize) -> u64 {
        crafted(&vec![(0, 0); n], Scheme::Psz3, 1.0, 0.1).len() as u64 - 64
    }

    #[test]
    fn hostile_directories_rejected_at_parse_time() {
        let ps1 = crafted_payload_start(1);
        let ps2 = crafted_payload_start(2);
        // a well-formed directory parses
        assert!(InMemorySource::new(crafted(
            &[(ps2, 10), (ps2 + 10, 20)],
            Scheme::Psz3,
            1.0,
            0.1
        ))
        .is_ok());
        // overlapping ranges
        assert!(
            InMemorySource::new(crafted(&[(ps2, 10), (ps2 + 5, 10)], Scheme::Psz3, 1.0, 0.1))
                .is_err()
        );
        // descending offsets
        assert!(InMemorySource::new(crafted(
            &[(ps2 + 30, 10), (ps2, 10)],
            Scheme::Psz3,
            1.0,
            0.1
        ))
        .is_err());
        // range escaping the container
        assert!(InMemorySource::new(crafted(&[(ps1, 65)], Scheme::Psz3, 1.0, 0.1)).is_err());
        // offset before the payload region (inside the manifest)
        assert!(InMemorySource::new(crafted(&[(0, 8)], Scheme::Psz3, 1.0, 0.1)).is_err());
        // offset+len overflowing u64
        assert!(
            InMemorySource::new(crafted(&[(u64::MAX - 3, 10)], Scheme::Psz3, 1.0, 0.1)).is_err()
        );
        // absurd fragment count that the remaining bytes cannot back
        let mut bomb = crafted(&[(ps1, 10)], Scheme::Psz3, 1.0, 0.1);
        // fragment-count field sits right after dims+field header; craft via
        // direct byte surgery is brittle — instead check the count guard
        // through a directory that *claims* more fragments than fit
        let claim_pos = {
            // find the u32 fragment count (value 1) preceding the first
            // fragment's offset bytes
            let needle = 1u32.to_le_bytes();
            let mut pos = None;
            for i in (0..bomb.len() - 4).rev() {
                if bomb[i..i + 4] == needle && i > PREAMBLE {
                    pos = Some(i);
                    break;
                }
            }
            pos.unwrap()
        };
        bomb[claim_pos..claim_pos + 4].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(InMemorySource::new(bomb).is_err());
    }

    #[test]
    fn hostile_directory_bounds_refused_at_open() {
        // a snapshot bound or a max|x| that is NaN or negative parses, but
        // a reader would adopt and certify it: opening the field refuses it
        let ps = crafted_payload_start(1);
        for scheme in [Scheme::Psz3, Scheme::Psz3Delta] {
            for (max_abs, eb_abs) in [
                (f64::NAN, 0.1),
                (-1.0, 0.1),
                (1.0, f64::NAN),
                (1.0, -0.1),
                (1.0, f64::NEG_INFINITY),
            ] {
                let container = crafted(&[(ps, 10)], scheme, max_abs, eb_abs);
                let src = Arc::new(InMemorySource::new(container).unwrap());
                let manifest = src.manifest().unwrap();
                let opened = crate::refactored::FieldReader::open(src, &manifest, 0);
                assert!(
                    matches!(opened, Err(PqrError::CorruptStream(_))),
                    "{} max|x| {max_abs} eb {eb_abs} opened",
                    scheme.name()
                );
            }
        }
        // and the bounds our writer produces open
        let src =
            Arc::new(InMemorySource::new(crafted(&[(ps, 10)], Scheme::Psz3, 0.0, 0.0)).unwrap());
        let manifest = src.manifest().unwrap();
        assert!(crate::refactored::FieldReader::open(src, &manifest, 0).is_ok());
    }

    #[test]
    fn zero_snapshot_field_is_exhausted_not_a_panic() {
        // a container declaring a snapshot field with an empty directory is
        // legal (ladder-less archive); refinement must degrade to "born
        // exhausted at the zero-vector bound", not index an empty ladder
        let src = Arc::new(InMemorySource::new(crafted(&[], Scheme::Psz3, 1.0, 0.1)).unwrap());
        let manifest = src.manifest().unwrap();
        let mut reader = crate::refactored::FieldReader::open(src, &manifest, 0).unwrap();
        assert!(reader.exhausted());
        reader.refine_to(1e-9).unwrap();
        assert_eq!(reader.total_fetched(), 0);
        assert_eq!(reader.guaranteed_bound(), 1.0); // the crafted max_abs
    }

    #[test]
    fn meta_dims_disagreeing_with_manifest_rejected() {
        // a two-field archive whose manifests we cross-wire: field 0's
        // metadata fragment describes the right dims, so loading succeeds;
        // but a manifest lying about the shape must fail load_field
        let bytes = archive_bytes(Scheme::PmgardHb);
        let src = InMemorySource::new(bytes).unwrap();
        let mut m = src.manifest().unwrap();
        assert!(load_field(&src, &m, 0).is_ok());
        m.dims = vec![999];
        assert!(load_field(&src, &m, 0).is_err());
    }

    #[test]
    fn cached_source_hits_on_refetch() {
        let src = InMemorySource::new(archive_bytes(Scheme::PmgardHb)).unwrap();
        let cache = Arc::new(FragmentCache::new(1 << 20));
        let cached = CachedSource::new(src, Arc::clone(&cache));
        let id = FragmentId { field: 0, index: 1 };
        let a = cached.fetch(id).unwrap();
        let b = cached.fetch(id).unwrap();
        assert_eq!(a, b);
        let s = cached.stats();
        assert_eq!(s.cache_misses, 1);
        assert_eq!(s.cache_hits, 1);
        // the inner source was only touched once
        assert_eq!(cached.inner().stats().fetches, 1);
    }

    #[test]
    fn concurrent_read_many_tallies_exactly() {
        // 8 threads hammering one CachedSource with batched reads: the
        // atomic stats must lose no update — every served payload is
        // tallied, hits + misses == fetches, and byte counts add up to
        // the directory-declared sizes exactly
        let src = InMemorySource::new(archive_bytes(Scheme::PmgardHb)).unwrap();
        let manifest = src.manifest().unwrap();
        let cached = CachedSource::new(src, Arc::new(FragmentCache::new(64 << 20)));
        let ids: Vec<FragmentId> = manifest
            .fields
            .iter()
            .enumerate()
            .flat_map(|(fi, f)| {
                (0..f.fragments.len()).map(move |ki| FragmentId {
                    field: fi as u32,
                    index: ki as u32,
                })
            })
            .collect();
        let batch_bytes: u64 = ids
            .iter()
            .map(|&id| manifest.fragment(id).unwrap().len)
            .sum();
        const THREADS: u64 = 8;
        const ROUNDS: u64 = 25;
        std::thread::scope(|s| {
            for _ in 0..THREADS {
                let (cached, ids) = (&cached, &ids);
                s.spawn(move || {
                    for _ in 0..ROUNDS {
                        let payloads = cached.read_many(ids).unwrap();
                        for (&id, p) in ids.iter().zip(&payloads) {
                            assert_eq!(
                                p.len() as u64,
                                cached.manifest().unwrap().fragment(id).unwrap().len
                            );
                        }
                    }
                });
            }
        });
        let stats = cached.stats();
        assert_eq!(stats.fetches, THREADS * ROUNDS * ids.len() as u64);
        assert_eq!(stats.fetched_bytes, THREADS * ROUNDS * batch_bytes);
        assert_eq!(stats.cache_hits + stats.cache_misses, stats.fetches);
        // the cache is big enough to hold the archive: once everything is
        // resident, whole batches hit without a backend read — misses stay
        // a small fraction of the total (racing first-round threads may
        // each miss, but never lose a tally)
        assert!(stats.cache_misses >= ids.len() as u64);
        assert!(stats.cache_misses <= THREADS * ids.len() as u64);
    }

    #[test]
    fn shared_cache_does_not_leak_across_sources() {
        let cache = Arc::new(FragmentCache::new(1 << 20));
        let a = CachedSource::new(
            InMemorySource::new(archive_bytes(Scheme::PmgardHb)).unwrap(),
            Arc::clone(&cache),
        );
        let b = CachedSource::new(
            InMemorySource::new(archive_bytes(Scheme::Psz3)).unwrap(),
            Arc::clone(&cache),
        );
        let id = FragmentId { field: 0, index: 0 };
        let pa = a.fetch(id).unwrap();
        let pb = b.fetch(id).unwrap();
        // same address, different archives: the salt keeps them apart
        assert_ne!(pa, pb);
        assert_eq!(b.stats().cache_hits, 0);
    }

    #[test]
    fn file_source_reads_only_requested_ranges() {
        let bytes = archive_bytes(Scheme::PmgardHb);
        let total = bytes.len() as u64;
        let dir = std::env::temp_dir().join("pqr_fragstore_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("unit.pqrx");
        std::fs::write(&path, &bytes).unwrap();

        let src = FileSource::open(&path).unwrap();
        assert!(
            src.disk_bytes_read() < total,
            "open must not slurp the file"
        );
        let payload = src.fetch(FragmentId { field: 0, index: 0 }).unwrap();
        let info = *src
            .manifest()
            .unwrap()
            .fragment(FragmentId { field: 0, index: 0 })
            .unwrap();
        assert_eq!(payload.len() as u64, info.len);
        assert_eq!(src.disk_bytes_read(), src.header_bytes() as u64 + info.len);
        // the fetched range matches the in-memory container byte for byte
        assert_eq!(
            payload.as_slice(),
            &bytes[info.offset as usize..(info.offset + info.len) as usize]
        );
        std::fs::remove_file(&path).ok();
    }
}
