//! Progressive ZFP-style streams: refactoring, storage, and retrieval.
//!
//! ## Refactoring
//!
//! Each 4^d block is aligned to a per-block exponent `e_b` (the smallest
//! integer with `max|x| ≤ 2^{e_b}`), quantized to [`Q`]-bit fixed point,
//! decorrelated with the reversible transform of [`crate::transform`], and
//! mapped to negabinary digits. Digits are then regrouped into **global
//! absolute bitplanes**: plane `p` carries, for every block, the digit whose
//! absolute weight is `2^{A_max − p}` (blocks whose magnitude is small join
//! late and leave early — the per-block-exponent adaptivity that makes ZFP
//! effective on data with spatially varying scale). Each plane is one
//! independently fetchable segment, RLE-compressed.
//!
//! ## Error model
//!
//! After fetching `k` planes, every dropped digit of every block weighs at
//! most `2^{A_max − k}`, so each coefficient is off by strictly less than
//! `ε = 2^{A_max − k + 1}` (negabinary truncation, see
//! [`crate::negabinary`]). The inverse transform amplifies this by at most
//! [`recon_error_factor`], and fixed-point rounding adds at most
//! `0.5 · 2^{max_e − Q}`:
//!
//! ```text
//! L∞ ≤ recon_error_factor(d) · 2^{A_max + 1 − k}  +  0.75 · 2^{max_e − Q}
//! ```
//!
//! (the floor-term constant is 0.75 rather than 0.5 to absorb the f64
//! round-off of casting large partially-reconstructed integers; once every
//! plane is fetched the coefficients are *exact* integers and the bound
//! collapses to the pure rounding floor `0.5 · 2^{max_e − Q}` — roughly
//! `2^{-53}` relative, the same near-lossless floor as the PMGARD coder).

use crate::block::{BlockGrid, SIDE};
use crate::negabinary;
use crate::transform::{self, recon_error_factor};
use pqr_util::bitplane_simd::{deposit_bits, extract_bits, scalar_kernels, transpose64};
use pqr_util::byteio::{ByteReader, ByteWriter};
use pqr_util::error::{PqrError, Result};
use pqr_util::par::Crew;
use pqr_util::rle;
use std::ops::Range;
use std::sync::Arc;

/// Fixed-point fraction bits. 52 keeps `|q| ≤ 2^52 < 2^53`, so the scaled
/// values and their rounding are exact in `f64`.
pub const Q: i32 = 52;

/// Hard cap on the number of stored planes. Uncapped, a field whose blocks
/// span `Δe` binades needs `COEFF_BITS + Δe` planes; pathological dynamic
/// range (one block ~1e300, one ~1e-300) would explode that, so we stop at
/// 160 and fold the never-streamed tail into the error floor.
pub const MAX_TOTAL_PLANES: u32 = 160;

/// Exponent floor for block alignment: magnitudes below `2^-900` quantize
/// against this exponent instead of their own, keeping the fixed-point
/// scale factor `2^{Q − e}` finite. The rounding bound `0.5·2^{e−Q}` only
/// shrinks when `e` is clamped upward, so correctness is unaffected.
const MIN_EXPONENT: i32 = -900;

/// Sentinel for an all-zero block: stores nothing, reconstructs exactly.
const EMPTY: i32 = i32::MIN;

/// `2^e` without powi domain checks.
#[inline]
fn exp2(e: i32) -> f64 {
    f64::from(e).exp2()
}

/// A refactored ZFP-style progressive stream (archive-side artifact). It has
/// no serialized form of its own: an archive stores [`ZfpStream::meta`] and
/// each plane payload as separate fragments.
#[derive(Debug, Clone)]
pub struct ZfpStream {
    dims: Vec<usize>,
    /// Per-block alignment exponents ([`EMPTY`] for all-zero blocks).
    exponents: Vec<i32>,
    /// Largest exponent over non-empty blocks (meaningless if none).
    max_e: i32,
    /// Absolute weight exponent of plane 0 (`2^{a_max}`).
    a_max: i32,
    /// Negabinary digits per block coefficient.
    coeff_bits: u32,
    /// Whether [`MAX_TOTAL_PLANES`] truncated the plane ladder.
    capped: bool,
    /// Plane segments, most significant absolute plane first.
    planes: Vec<Vec<u8>>,
}

/// Refactors arrays into [`ZfpStream`]s.
///
/// Stateless today; a struct so configuration (alternative transforms,
/// plane caps) can land without an API break.
#[derive(Debug, Clone, Copy, Default)]
pub struct ZfpRefactorer;

impl ZfpRefactorer {
    /// Creates a refactorer with default settings.
    pub fn new() -> Self {
        Self
    }

    /// Refactors `data` (shape `dims`, 1–3-D row-major) into a progressive
    /// stream. Rejects non-finite values: a NaN/Inf cannot be bounded by any
    /// L∞ ladder and would poison every block statistic downstream.
    pub fn refactor(&self, data: &[f64], dims: &[usize]) -> Result<ZfpStream> {
        self.refactor_impl(data, dims, scalar_kernels())
    }

    /// [`ZfpRefactorer::refactor`] pinned to the scalar reference plane
    /// encoder regardless of `PQR_SCALAR_KERNELS` — the oracle the
    /// word-parallel encode is property-tested against.
    pub fn refactor_scalar(&self, data: &[f64], dims: &[usize]) -> Result<ZfpStream> {
        self.refactor_impl(data, dims, true)
    }

    fn refactor_impl(&self, data: &[f64], dims: &[usize], scalar: bool) -> Result<ZfpStream> {
        if dims.is_empty() || dims.len() > 3 {
            return Err(PqrError::ShapeMismatch(format!(
                "zfp supports 1-3 dims, got {dims:?}"
            )));
        }
        let n: usize = dims.iter().product();
        if n != data.len() {
            return Err(PqrError::ShapeMismatch(format!(
                "dims {dims:?} = {n} elements, data has {}",
                data.len()
            )));
        }
        if data.iter().any(|v| !v.is_finite()) {
            return Err(PqrError::InvalidRequest(
                "zfp refactor requires finite data".into(),
            ));
        }
        let grid = BlockGrid::new(dims);
        let nd = grid.ndims();
        let blen = grid.block_len();
        let nblocks = grid.num_blocks();
        let coeff_bits =
            negabinary::digits_for_magnitude_bits(Q as u32 + transform::growth_bits(nd));

        // Pass 1: per-block fixed point + transform + negabinary.
        let mut exponents = vec![EMPTY; nblocks];
        let mut words = vec![0u64; nblocks * blen];
        let mut fblk = vec![0.0f64; blen];
        let mut iblk = vec![0i64; blen];
        let (mut max_e, mut min_e) = (i32::MIN, i32::MAX);
        for (b, (exp_slot, wblk)) in exponents
            .iter_mut()
            .zip(words.chunks_exact_mut(blen))
            .enumerate()
        {
            grid.gather(data, b, &mut fblk);
            let m = fblk.iter().fold(0.0f64, |acc, v| acc.max(v.abs()));
            if m == 0.0 {
                continue;
            }
            let e = alignment_exponent(m);
            *exp_slot = e;
            max_e = max_e.max(e);
            min_e = min_e.min(e);
            let scale = exp2(Q - e);
            for (q, &x) in iblk.iter_mut().zip(fblk.iter()) {
                *q = (x * scale).round() as i64;
                debug_assert!(q.unsigned_abs() <= 1u64 << Q);
            }
            transform::forward(&mut iblk, nd);
            for (w, &c) in wblk.iter_mut().zip(iblk.iter()) {
                debug_assert!(c.unsigned_abs() < 1u64 << (coeff_bits - 1));
                *w = negabinary::encode(c);
            }
        }

        if max_e == i32::MIN {
            // all-zero field: nothing to stream, error identically 0
            return Ok(ZfpStream {
                dims: dims.to_vec(),
                exponents,
                max_e: 0,
                a_max: 0,
                coeff_bits,
                capped: false,
                planes: Vec::new(),
            });
        }

        let a_max = coeff_bits as i32 - 1 + max_e - Q;
        let uncapped = coeff_bits + (max_e - min_e) as u32;
        let p_total = uncapped.min(MAX_TOTAL_PLANES);
        let capped = uncapped > MAX_TOTAL_PLANES;

        // Pass 2: regroup digits into global absolute planes. Word-parallel
        // by default; `PQR_SCALAR_KERNELS=1` pins the scalar reference the
        // property tests compare against.
        let geom = PlaneGeometry {
            blen,
            coeff_bits,
            a_max,
            p_total,
        };
        let planes = if scalar {
            encode_planes_scalar(&exponents, &words, &geom)
        } else {
            let (participants, bufs) = build_plane_bufs(&exponents, &words, &geom);
            bufs.iter()
                .zip(&participants)
                .map(|(buf, &k)| rle::encode_bits_auto_words(buf, k * blen))
                .collect()
        };

        Ok(ZfpStream {
            dims: dims.to_vec(),
            exponents,
            max_e,
            a_max,
            coeff_bits,
            capped,
            planes,
        })
    }
}

/// Smallest `e` with `m ≤ 2^e`, floored at [`MIN_EXPONENT`].
fn alignment_exponent(m: f64) -> i32 {
    debug_assert!(m > 0.0 && m.is_finite());
    let mut e = m.log2().ceil() as i32;
    // log2 float slack: enforce the invariant exactly
    while m > exp2(e) {
        e += 1;
    }
    while e > MIN_EXPONENT && m <= exp2(e - 1) {
        e -= 1;
    }
    e.max(MIN_EXPONENT)
}

/// Maps a block exponent to its compact i16 wire form. Exponents of f64
/// data live in `[MIN_EXPONENT, ~1025]`, comfortably inside i16; the
/// [`EMPTY`] sentinel maps to `i16::MIN`.
#[inline]
fn exponent_to_i16(e: i32) -> i16 {
    if e == EMPTY {
        i16::MIN
    } else {
        debug_assert!((MIN_EXPONENT..=1100).contains(&e));
        e as i16
    }
}

/// Inverse of [`exponent_to_i16`].
#[inline]
fn exponent_from_i16(v: i16) -> i32 {
    if v == i16::MIN {
        EMPTY
    } else {
        i32::from(v)
    }
}

/// The digit index of block-exponent `e` holding absolute weight `2^{a}`,
/// or `None` if the block has no such digit ([`EMPTY`] blocks never do).
#[inline]
fn digit_index(a: i32, e: i32, coeff_bits: u32) -> Option<u32> {
    if e == EMPTY {
        return None;
    }
    let j = a - (e - Q);
    (0..coeff_bits as i32).contains(&j).then_some(j as u32)
}

/// The plane-ladder geometry shared by the plane encoders.
struct PlaneGeometry {
    /// Coefficients per block (`4^d`).
    blen: usize,
    /// Negabinary digits per coefficient.
    coeff_bits: u32,
    /// Absolute weight exponent of plane 0.
    a_max: i32,
    /// Stored plane count (post-cap).
    p_total: u32,
}

impl PlaneGeometry {
    /// The geometry of a decoded stream.
    fn of(meta: &ZfpMeta) -> Self {
        Self {
            blen: SIDE.pow(meta.dims.len() as u32),
            coeff_bits: meta.coeff_bits,
            a_max: meta.a_max,
            p_total: meta.num_planes,
        }
    }
}

/// The scalar reference plane regrouping: one coefficient bit per step.
/// Kept callable so tests and benches can assert/measure the word-parallel
/// path against it.
fn encode_planes_scalar(exponents: &[i32], words: &[u64], geom: &PlaneGeometry) -> Vec<Vec<u8>> {
    let blen = geom.blen;
    let mut planes = Vec::with_capacity(geom.p_total as usize);
    let mut bits: Vec<bool> = Vec::new();
    for p in 0..geom.p_total {
        bits.clear();
        let a_p = geom.a_max - p as i32;
        for (b, &e) in exponents.iter().enumerate() {
            let Some(j) = digit_index(a_p, e, geom.coeff_bits) else {
                continue;
            };
            for &w in &words[b * blen..(b + 1) * blen] {
                bits.push((w >> j) & 1 == 1);
            }
        }
        planes.push(rle::encode_bits_auto(&bits));
    }
    planes
}

/// Word-parallel plane regrouping — the RLE encode of each returned buffer
/// is byte-identical to [`encode_planes_scalar`]'s corresponding plane.
///
/// Runs block-major instead of plane-major: groups of `64 / blen`
/// consecutive blocks share one [`transpose64`] tile that yields every
/// digit row of every block in the group at once, and each row (the
/// `blen`-bit slice a block contributes to one plane) is deposited at that
/// plane's running bit cursor. A block's digits occupy a contiguous plane
/// interval, so per-plane participant counts — and therefore the exact
/// buffer sizes and deposit order — fall out of a histogram over those
/// intervals without ever touching payload bits.
fn build_plane_bufs(
    exponents: &[i32],
    words: &[u64],
    geom: &PlaneGeometry,
) -> (Vec<usize>, Vec<Vec<u64>>) {
    let blen = geom.blen;
    let coeff_bits = geom.coeff_bits as usize;
    let p_total = geom.p_total as usize;
    let participants = plane_participants(exponents, geom);
    let mut bufs: Vec<Vec<u64>> = participants
        .iter()
        .map(|&c| vec![0u64; (c * blen).div_ceil(64)])
        .collect();
    let mut cursors = vec![0usize; p_total];

    let group = 64 / blen; // blen ∈ {4, 16, 64}
    let row_mask = if blen == 64 {
        u64::MAX
    } else {
        (1u64 << blen) - 1
    };
    let nblocks = exponents.len();
    let mut tile = [0u64; 64];
    let mut b0 = 0usize;
    while b0 < nblocks {
        let gend = (b0 + group).min(nblocks);
        if exponents[b0..gend].iter().all(|&e| e == EMPTY) {
            b0 = gend; // all-zero region: nothing participates
            continue;
        }
        tile.fill(0);
        for (g, b) in (b0..gend).enumerate() {
            tile[g * blen..g * blen + blen].copy_from_slice(&words[b * blen..(b + 1) * blen]);
        }
        transpose64(&mut tile);
        // tile[j] bit (g·blen + s) is digit j of block b0+g, coefficient s
        for (g, b) in (b0..gend).enumerate() {
            let e = exponents[b];
            if e == EMPTY {
                continue;
            }
            let base_p = geom.a_max - (e - Q); // digit j lands in plane base_p − j
            for (j, &row_word) in tile.iter().enumerate().take(coeff_bits) {
                let p = base_p - j as i32;
                if p < 0 || p >= p_total as i32 {
                    continue; // capped (or never-stored) plane
                }
                let p = p as usize;
                deposit_bits(
                    &mut bufs[p],
                    cursors[p],
                    (row_word >> (g * blen)) & row_mask,
                    blen,
                );
                cursors[p] += blen;
            }
        }
        b0 = gend;
    }
    (participants, bufs)
}

/// Everything a decoder must hold *before* any plane payload arrives:
/// shape, per-block exponents, the plane-ladder geometry and the stored
/// plane count. This is the stream minus its plane payloads — the unit a
/// fragment-addressed store serves as the field's metadata fragment, and
/// what [`ZfpCursor`] decodes against while plane bytes are pushed in from
/// elsewhere.
#[derive(Debug, Clone, PartialEq)]
pub struct ZfpMeta {
    dims: Vec<usize>,
    exponents: Vec<i32>,
    max_e: i32,
    a_max: i32,
    coeff_bits: u32,
    capped: bool,
    num_planes: u32,
}

impl ZfpMeta {
    /// Array shape.
    pub fn dims(&self) -> &[usize] {
        &self.dims
    }

    /// Number of stored plane segments.
    pub fn num_planes(&self) -> u32 {
        self.num_planes
    }

    /// The guaranteed L∞ bound after `k` fetched planes — the error model
    /// of the module docs, and what the retrieval engine consumes as the
    /// primary-data ε.
    pub fn bound_after(&self, k: u32) -> f64 {
        if self.num_planes == 0 {
            return 0.0; // all-zero field
        }
        let rounding = 0.5 * exp2(self.max_e - Q);
        if !self.capped && k >= self.num_planes {
            // every digit fetched ⇒ integer-exact coefficients
            return rounding * (1.0 + 1e-12);
        }
        let trunc = recon_error_factor(self.dims.len())
            * exp2(self.a_max + 1 - k.min(self.num_planes) as i32);
        (trunc + 1.5 * rounding) * (1.0 + 1e-12)
    }

    /// Serializes the metadata (the field's always-fetched fragment).
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut w = ByteWriter::new();
        w.put_raw(b"PQZM");
        w.put_u8(self.dims.len() as u8);
        for &d in &self.dims {
            w.put_u64(d as u64);
        }
        w.put_i64(i64::from(self.max_e));
        w.put_i64(i64::from(self.a_max));
        w.put_u32(self.coeff_bits);
        w.put_u8(u8::from(self.capped));
        w.put_bytes(&encode_exponent_table(&self.exponents));
        w.put_u32(self.num_planes);
        w.finish()
    }

    /// Deserializes metadata, validating every structural invariant the
    /// cursor relies on (rank, digit width, plane count, and an exponent
    /// table exactly as long as the shape's block grid).
    pub fn from_bytes(bytes: &[u8]) -> Result<Self> {
        let mut r = ByteReader::new(bytes);
        if r.get_raw(4)? != b"PQZM" {
            return Err(PqrError::CorruptStream("bad zfp meta magic".into()));
        }
        let nd = r.get_u8()? as usize;
        if !(1..=3).contains(&nd) {
            return Err(PqrError::CorruptStream(format!("zfp ndims {nd}")));
        }
        let mut dims = Vec::with_capacity(nd);
        for _ in 0..nd {
            dims.push(r.get_u64()? as usize);
        }
        let max_e = i32::try_from(r.get_i64()?)
            .map_err(|_| PqrError::CorruptStream("max_e out of range".into()))?;
        let a_max = i32::try_from(r.get_i64()?)
            .map_err(|_| PqrError::CorruptStream("a_max out of range".into()))?;
        let coeff_bits = r.get_u32()?;
        if coeff_bits == 0 || coeff_bits > 64 {
            return Err(PqrError::CorruptStream(format!("coeff_bits {coeff_bits}")));
        }
        let capped = r.get_u8()? != 0;
        // Hostile dims must not overflow the block/element products (the
        // exponent-table length check below bounds the real size, but only
        // if `num_blocks * 2` itself cannot panic first).
        pqr_util::byteio::check_dims(&dims)?;
        let grid = BlockGrid::new(&dims);
        let eb = rle::decode_bytes(r.get_bytes()?)?;
        if eb.len() != grid.num_blocks() * 2 {
            return Err(PqrError::CorruptStream(format!(
                "exponent table {} B for {} blocks",
                eb.len(),
                grid.num_blocks()
            )));
        }
        let mut prev = 0i16;
        let exponents: Vec<i32> = eb
            .chunks_exact(2)
            .map(|c| {
                let d = i16::from_le_bytes(c.try_into().unwrap());
                prev = prev.wrapping_add(d);
                exponent_from_i16(prev)
            })
            .collect();
        let num_planes = r.get_u32()?;
        if num_planes > MAX_TOTAL_PLANES {
            return Err(PqrError::CorruptStream(format!("{num_planes} planes")));
        }
        if r.remaining() != 0 {
            return Err(PqrError::CorruptStream("trailing zfp meta bytes".into()));
        }
        Ok(Self {
            dims,
            exponents,
            max_e,
            a_max,
            coeff_bits,
            capped,
            num_planes,
        })
    }
}

/// Delta-codes + RLE-compresses the per-block exponent table. Exponents
/// travel as delta-coded i16: neighbouring blocks of smooth data share
/// exponents, so the delta stream is mostly zero bytes and the byte-RLE
/// collapses the table to a few bytes per long run — the per-block metadata
/// tax matters for 1-D data (one block per 4 samples).
fn encode_exponent_table(exponents: &[i32]) -> Vec<u8> {
    let mut eb = Vec::with_capacity(exponents.len() * 2);
    let mut prev = 0i16;
    for &e in exponents {
        let cur = exponent_to_i16(e);
        eb.extend_from_slice(&cur.wrapping_sub(prev).to_le_bytes());
        prev = cur;
    }
    rle::encode_bytes(&eb)
}

impl ZfpStream {
    /// Array shape.
    pub fn dims(&self) -> &[usize] {
        &self.dims
    }

    /// The stream's metadata — everything except the plane payloads.
    pub fn meta(&self) -> ZfpMeta {
        ZfpMeta {
            dims: self.dims.clone(),
            exponents: self.exponents.clone(),
            max_e: self.max_e,
            a_max: self.a_max,
            coeff_bits: self.coeff_bits,
            capped: self.capped,
            num_planes: self.planes.len() as u32,
        }
    }

    /// Number of stored plane segments.
    pub fn num_planes(&self) -> usize {
        self.planes.len()
    }

    /// The plane payloads in fetch order — the fragments that follow the
    /// metadata.
    pub fn plane_payloads(&self) -> impl Iterator<Item = &[u8]> {
        self.planes.iter().map(Vec::as_slice)
    }

    /// [`ZfpStream::plane_payloads`] by value, for an archive writer that
    /// keeps the payloads and drops the stream.
    pub fn into_plane_payloads(self) -> Vec<Vec<u8>> {
        self.planes
    }

    /// The `i`-th plane payload in fetch order, addressed in O(1).
    pub fn plane(&self, i: usize) -> Option<&[u8]> {
        self.planes.get(i).map(Vec::as_slice)
    }

    /// Opens a progressive reader at zero fetched planes. Byte accounting
    /// starts at the size of the serialized metadata fragment.
    pub fn reader(&self) -> ZfpReader<'_> {
        let meta = self.meta();
        ZfpReader {
            stream: self,
            fetched: meta.to_bytes().len(),
            cursor: ZfpCursor::new(meta),
        }
    }
}

/// Push-based progressive decoder over [`ZfpMeta`].
///
/// A cursor holds only the stream's *metadata* plus accumulated digit
/// words — it never sees where the plane payloads live. Planes are strictly
/// ordered (most significant absolute plane first), so the owner fetches
/// plane `planes_read()` from wherever the stream is stored and pushes its
/// bytes in with [`ZfpCursor::push_plane`]. The borrowing [`ZfpReader`]
/// and the fragment-addressed sources in `pqr-progressive` both drive the
/// same cursor, so the error model cannot drift between local and remote
/// paths.
///
/// A push is two halves: [`PlaneDecoder::decode`], a pure function of the
/// plane's bytes that any thread can run, and [`ZfpCursor::apply_plane`],
/// which takes decoded planes in order.
#[derive(Debug, Clone)]
pub struct ZfpCursor {
    meta: ZfpMeta,
    grid: BlockGrid,
    state: DecodeState,
    decoder: PlaneDecoder,
    planes_read: u32,
}

/// How a [`ZfpCursor`] accumulates pushed planes.
///
/// The scalar reference scatters every plane straight into block-major
/// digit words, touching `O(participants × blen)` bits per push. The word
/// path keeps each decoded plane in its packed plane-major form — a push is
/// just the RLE word decode, `O(payload)` — and regroups the bit matrix
/// block-major, one [`transpose64`] tile at a time, only when a
/// reconstruction is requested.
#[derive(Debug, Clone)]
enum DecodeState {
    /// Scalar oracle: digits accumulate straight into block-major words
    /// (`num_blocks × block_len`).
    Scalar { words: Vec<u64> },
    /// Word path: decoded packed plane payloads (`participants[p] × blen`
    /// bits each), plane-major, in push order.
    Words { planes: Vec<Vec<u64>> },
}

/// Decodes a [`ZfpCursor`]'s planes without borrowing it: owned and
/// `Sync`, so helper threads decode planes while the cursor applies the
/// ones before them.
#[derive(Debug, Clone)]
pub struct PlaneDecoder {
    /// A scalar cursor takes each plane's bytes as they are.
    scalar: bool,
    blen: usize,
    /// Per-plane participating block counts, from the same interval
    /// histogram [`build_plane_bufs`] sizes its buffers with.
    participants: Arc<[usize]>,
}

/// One plane as far as it decodes without the cursor's state.
#[derive(Debug)]
pub struct DecodedPlane {
    index: u32,
    body: PlaneBody,
}

#[derive(Debug)]
enum PlaneBody {
    /// The payload as fetched (scalar cursors decode in `apply_plane`).
    Bytes(Vec<u8>),
    /// The plane's packed bits.
    Words(Vec<u64>),
}

impl PlaneDecoder {
    /// Decodes plane `index` from its payload.
    pub fn decode(&self, index: u32, bytes: &[u8]) -> Result<DecodedPlane> {
        let Some(&participants) = self.participants.get(index as usize) else {
            return Err(PqrError::InvalidRequest(
                "zfp stream already fully fetched".into(),
            ));
        };
        let body = if self.scalar {
            PlaneBody::Bytes(bytes.to_vec())
        } else {
            PlaneBody::Words(rle::decode_bits_auto_words(
                bytes,
                participants * self.blen,
            )?)
        };
        Ok(DecodedPlane { index, body })
    }
}

/// Per-plane participating-block counts over `0..p_total`: block `b`
/// contributes one `blen`-bit row to plane `p` iff `p` lies in the block's
/// digit interval. Shared by the word-parallel encoder (buffer sizing) and
/// the word-parallel cursor (payload lengths), and provably equal to the
/// scalar paths' per-plane participant enumeration.
fn plane_participants(exponents: &[i32], geom: &PlaneGeometry) -> Vec<usize> {
    let p_total = geom.p_total as usize;
    let mut diff = vec![0i64; p_total + 1];
    for &e in exponents {
        if e == EMPTY {
            continue;
        }
        let hi = (geom.a_max - (e - Q)).min(p_total as i32 - 1);
        let lo = (geom.a_max - (e - Q) - (geom.coeff_bits as i32 - 1)).max(0);
        if lo <= hi {
            diff[lo as usize] += 1;
            diff[hi as usize + 1] -= 1;
        }
    }
    let mut participants = vec![0usize; p_total];
    let mut acc = 0i64;
    for (p, slot) in participants.iter_mut().enumerate() {
        acc += diff[p];
        *slot = acc as usize;
    }
    participants
}

/// Elements a rebuild slab covers at least: whole outer block rows, enough
/// of them that a slab's cursor bookkeeping stays small beside its decode.
const SLAB_ELEMENTS: usize = 16 * 1024;

impl ZfpCursor {
    /// Creates a cursor at zero consumed planes, using the word-parallel
    /// plane decode (scalar under `PQR_SCALAR_KERNELS=1`).
    pub fn new(meta: ZfpMeta) -> Self {
        Self::with_mode(meta, scalar_kernels())
    }

    /// Creates a cursor pinned to the scalar reference decode path — the
    /// oracle the word-parallel kernel is property-tested against. The
    /// accumulated state and reconstructions are bit-identical either way.
    pub fn new_scalar(meta: ZfpMeta) -> Self {
        Self::with_mode(meta, true)
    }

    fn with_mode(meta: ZfpMeta, scalar: bool) -> Self {
        let grid = BlockGrid::new(&meta.dims);
        let decoder = PlaneDecoder {
            scalar,
            blen: grid.block_len(),
            participants: plane_participants(&meta.exponents, &PlaneGeometry::of(&meta)).into(),
        };
        let state = if scalar {
            DecodeState::Scalar {
                words: vec![0u64; grid.num_blocks() * grid.block_len()],
            }
        } else {
            DecodeState::Words {
                planes: Vec::with_capacity(meta.num_planes as usize),
            }
        };
        Self {
            meta,
            grid,
            state,
            decoder,
            planes_read: 0,
        }
    }

    /// The metadata this cursor decodes against.
    pub fn meta(&self) -> &ZfpMeta {
        &self.meta
    }

    /// Guaranteed L∞ bound of [`ZfpCursor::reconstruct`] at the current
    /// state.
    pub fn guaranteed_bound(&self) -> f64 {
        self.meta.bound_after(self.planes_read)
    }

    /// True when every stored plane has been consumed.
    pub fn fully_fetched(&self) -> bool {
        self.planes_read >= self.meta.num_planes
    }

    /// Planes consumed so far — also the index of the next wanted plane.
    pub fn planes_read(&self) -> u32 {
        self.planes_read
    }

    /// Consumes the next plane's bytes (planes must arrive in order; the
    /// plane index is implicit in the decode state).
    pub fn push_plane(&mut self, bytes: &[u8]) -> Result<()> {
        let plane = self.decoder.decode(self.planes_read, bytes)?;
        self.apply_plane(plane)
    }

    /// The decoder of this cursor's planes, for decoding off the cursor's
    /// thread.
    pub fn plane_decoder(&self) -> PlaneDecoder {
        self.decoder.clone()
    }

    /// Takes a plane its [`ZfpCursor::plane_decoder`] decoded; it must be
    /// plane `planes_read()`. A refused plane leaves the cursor as it was.
    pub fn apply_plane(&mut self, plane: DecodedPlane) -> Result<()> {
        if plane.index != self.planes_read {
            return Err(PqrError::InvalidRequest(format!(
                "zfp plane {} applied at plane {}",
                plane.index, self.planes_read
            )));
        }
        let blen = self.grid.block_len();
        match (&mut self.state, plane.body) {
            (DecodeState::Scalar { words }, PlaneBody::Bytes(bytes)) => {
                // which blocks participate, in order, and their digit index
                let a_p = self.meta.a_max - plane.index as i32;
                let mut participants = Vec::new();
                for (b, &e) in self.meta.exponents.iter().enumerate() {
                    if let Some(j) = digit_index(a_p, e, self.meta.coeff_bits) {
                        participants.push((b, j));
                    }
                }
                let bits = rle::decode_bits_auto(&bytes, participants.len() * blen)?;
                for (pi, &(b, j)) in participants.iter().enumerate() {
                    let base = b * blen;
                    for (s, &bit) in bits[pi * blen..(pi + 1) * blen].iter().enumerate() {
                        if bit {
                            words[base + s] |= 1u64 << j;
                        }
                    }
                }
            }
            // word path: the plane stays plane-major until a
            // reconstruction regroups it
            (DecodeState::Words { planes }, PlaneBody::Words(plane)) => planes.push(plane),
            _ => {
                return Err(PqrError::InvalidRequest(
                    "zfp plane decoded for the other kernel".into(),
                ))
            }
        }
        self.planes_read += 1;
        Ok(())
    }

    /// The accumulated negabinary digit words, block-major
    /// (`num_blocks × block_len`) — identical between the scalar and
    /// word-parallel cursors at every plane depth, which is exactly what
    /// the cross-check suites assert.
    pub fn digit_words(&self) -> Vec<u64> {
        self.digit_words_cow().into_owned()
    }

    /// Block-major digit words without cloning the scalar state.
    fn digit_words_cow(&self) -> std::borrow::Cow<'_, [u64]> {
        match &self.state {
            DecodeState::Scalar { words } => std::borrow::Cow::Borrowed(words),
            DecodeState::Words { .. } => {
                let blen = self.grid.block_len();
                let mut words = vec![0u64; self.grid.num_blocks() * blen];
                self.for_each_block(0..self.meta.exponents.len(), None, |b, digits| {
                    words[b * blen..(b + 1) * blen].copy_from_slice(digits);
                });
                std::borrow::Cow::Owned(words)
            }
        }
    }

    /// Calls `emit(b, digits)` with the `block_len` negabinary digit words
    /// of the blocks of `blocks`, in order; blocks of an all-zero group may
    /// be left out. A scalar cursor reads its words. The word path undoes
    /// the [`build_plane_bufs`] regrouping sweep: it walks groups of
    /// `64 / blen` blocks, rebuilds each group's digit-major 64×64 tile by
    /// pulling one packed row per (block, digit) from the pushed planes,
    /// starting at their bit `cursors` for `blocks.start` (zero when
    /// `None`), and transposes the tile back to coefficient-major digit
    /// words. Planes beyond `planes_read` simply contribute zero digits —
    /// per-plane cursors make the skip free.
    ///
    /// Groups whose blocks all share one exponent (the common case on
    /// smooth data) collapse to a single 64-bit extract per digit row.
    fn for_each_block(
        &self,
        blocks: Range<usize>,
        cursors: Option<&[usize]>,
        mut emit: impl FnMut(usize, &[u64]),
    ) {
        let blen = self.grid.block_len();
        let planes = match &self.state {
            DecodeState::Scalar { words } => {
                for b in blocks {
                    emit(b, &words[b * blen..(b + 1) * blen]);
                }
                return;
            }
            DecodeState::Words { planes } => planes,
        };
        let coeff_bits = self.meta.coeff_bits as usize;
        let p_total = self.meta.num_planes as i32;
        let k = planes.len();
        let exponents = &self.meta.exponents;
        let mut cursors = cursors.map_or_else(|| vec![0usize; k], <[usize]>::to_vec);
        let group = 64 / blen; // blen ∈ {4, 16, 64}
        let mut tile = [0u64; 64];
        let mut b0 = blocks.start;
        while b0 < blocks.end {
            let gend = (b0 + group).min(blocks.end);
            if exponents[b0..gend].iter().all(|&e| e == EMPTY) {
                b0 = gend; // all-zero region: no digits anywhere
                continue;
            }
            tile.fill(0);
            if gend - b0 == group && exponents[b0 + 1..gend].iter().all(|&e| e == exponents[b0]) {
                // uniform full group: every block maps digit j to the same
                // plane, and the group's 64 bits sit contiguously there
                let base_p = self.meta.a_max - (exponents[b0] - Q);
                for (j, row) in tile.iter_mut().enumerate().take(coeff_bits) {
                    let p = base_p - j as i32;
                    if p < 0 || p >= p_total {
                        continue;
                    }
                    let p = p as usize;
                    if p >= k {
                        continue; // plane not pushed yet
                    }
                    *row = extract_bits(&planes[p], cursors[p], 64);
                    cursors[p] += 64;
                }
            } else {
                for (g, b) in (b0..gend).enumerate() {
                    let e = exponents[b];
                    if e == EMPTY {
                        continue;
                    }
                    let base_p = self.meta.a_max - (e - Q);
                    for (j, row) in tile.iter_mut().enumerate().take(coeff_bits) {
                        let p = base_p - j as i32;
                        if p < 0 || p >= p_total {
                            continue;
                        }
                        let p = p as usize;
                        if p >= k {
                            continue;
                        }
                        *row |= extract_bits(&planes[p], cursors[p], blen) << (g * blen);
                        cursors[p] += blen;
                    }
                }
            }
            transpose64(&mut tile);
            // tile[g·blen + s] now holds the digit word of block b0+g,
            // coefficient s
            for (g, b) in (b0..gend).enumerate() {
                emit(b, &tile[g * blen..(g + 1) * blen]);
            }
            b0 = gend;
        }
    }

    /// Each slab's starting bit cursor in each of the first `k` planes:
    /// `blen` bits for every block before the slab's first (`starts[s]`)
    /// that takes part in the plane.
    fn slab_cursors(&self, starts: &[usize], k: usize) -> Vec<Vec<usize>> {
        let geom = PlaneGeometry::of(&self.meta);
        let exponents = &self.meta.exponents;
        let mut running = vec![0usize; k];
        let mut out = Vec::with_capacity(starts.len());
        for (s, &start) in starts.iter().enumerate() {
            out.push(running.clone());
            let end = starts.get(s + 1).copied().unwrap_or(exponents.len());
            let participants = plane_participants(&exponents[start..end], &geom);
            for (run, p) in running.iter_mut().zip(participants) {
                *run += p * geom.blen;
            }
        }
        out
    }

    /// Reconstructs the data representation from the planes consumed so far.
    pub fn reconstruct(&self) -> Vec<f64> {
        let mut out = Vec::new();
        self.reconstruct_into(&mut out, 1);
        out
    }

    /// [`ZfpCursor::reconstruct`] into a caller-provided (pooled) buffer, on
    /// the calling thread alone. `workers` is ignored; it stays because the
    /// `benchmark` package's replay passes it, and that replay times the
    /// serial rebuild.
    pub fn reconstruct_into(&self, out: &mut Vec<f64>, _workers: usize) {
        self.reconstruct_with(out, &Crew::solo());
    }

    /// [`ZfpCursor::reconstruct_into`] one slab of whole outer block rows
    /// at a time: each slab regroups its blocks' digits, decodes them and
    /// writes them straight into its own disjoint part of `out`, so no
    /// full-size digit array is built, and `crew` may hire helpers to take
    /// slabs. Every element is written by exactly one slab, so the result
    /// is the same bits whoever decodes which slab.
    pub fn reconstruct_with(&self, out: &mut Vec<f64>, crew: &Crew) {
        let n = self.grid.num_elements();
        if n == 0 {
            out.clear();
            return;
        }
        out.resize(n, 0.0);
        let row_elements = SIDE * self.grid.dims[1..].iter().product::<usize>();
        let rows = SLAB_ELEMENTS.div_ceil(row_elements);
        let slab_elements = rows * row_elements;
        let row_blocks: usize = self.grid.blocks[1..].iter().product();
        let starts: Vec<usize> = (0..self.grid.blocks[0])
            .step_by(rows)
            .map(|r| r * row_blocks)
            .collect();
        let cursors = match &self.state {
            DecodeState::Words { planes } => self.slab_cursors(&starts, planes.len()),
            DecodeState::Scalar { .. } => Vec::new(),
        };
        let nblocks = self.meta.exponents.len();
        let blen = self.grid.block_len();
        crew.each(out.chunks_mut(slab_elements).collect(), n, |s, slab| {
            slab.fill(0.0);
            let blocks = starts[s]..starts.get(s + 1).copied().unwrap_or(nblocks);
            let offset = s * slab_elements;
            let mut iblk = vec![0i64; blen];
            let mut fblk = vec![0.0f64; blen];
            self.for_each_block(blocks, cursors.get(s).map(Vec::as_slice), |b, digits| {
                if self.decode_block(digits, b, &mut iblk, &mut fblk) {
                    self.grid.scatter_at(slab, offset, b, &fblk);
                }
            });
        });
    }

    /// Decodes block `b` from its `block_len` negabinary `digits` into
    /// `fblk`, using `iblk` as integer scratch. Returns `false` (leaving
    /// `fblk` untouched) for all-zero blocks.
    fn decode_block(&self, digits: &[u64], b: usize, iblk: &mut [i64], fblk: &mut [f64]) -> bool {
        let e = self.meta.exponents[b];
        if e == EMPTY {
            return false;
        }
        let nd = self.grid.ndims();
        for (c, &w) in iblk.iter_mut().zip(digits) {
            *c = negabinary::decode(w);
        }
        transform::inverse(iblk, nd);
        let scale = exp2(e - Q);
        for (f, &q) in fblk.iter_mut().zip(iblk.iter()) {
            *f = q as f64 * scale;
        }
        true
    }

    /// Decodes one block of the block-major digit `words` into `out`
    /// (full-array buffer). All-zero blocks are skipped — `out` is expected
    /// to be zero there already.
    fn reconstruct_block_into(&self, words: &[u64], b: usize, out: &mut [f64]) {
        let blen = self.grid.block_len();
        let mut iblk = vec![0i64; blen];
        let mut fblk = vec![0.0f64; blen];
        if self.decode_block(&words[b * blen..(b + 1) * blen], b, &mut iblk, &mut fblk) {
            self.grid.scatter(out, b, &fblk);
        }
    }
}

/// Progressive reader over a [`ZfpStream`]: a [`ZfpCursor`] whose plane
/// fetches are served from the borrowed, fully resident stream.
///
/// Byte accounting starts at the size of the metadata fragment (a remote
/// retrieval always moves the header and exponent table first).
#[derive(Debug, Clone)]
pub struct ZfpReader<'a> {
    stream: &'a ZfpStream,
    cursor: ZfpCursor,
    fetched: usize,
}

impl ZfpReader<'_> {
    /// Guaranteed L∞ bound of [`ZfpReader::reconstruct`] at the current
    /// fetch state.
    pub fn guaranteed_bound(&self) -> f64 {
        self.cursor.guaranteed_bound()
    }

    /// Total bytes this reader has "moved" (metadata + fetched planes).
    pub fn total_fetched(&self) -> usize {
        self.fetched
    }

    /// True when every stored plane has been fetched.
    pub fn fully_fetched(&self) -> bool {
        self.cursor.fully_fetched()
    }

    /// Planes consumed so far — the reader's resumable progress marker
    /// (restore with [`ZfpReader::fetch_planes`] on a fresh reader).
    pub fn planes_read(&self) -> u32 {
        self.cursor.planes_read()
    }

    /// Fetches planes in order until the guaranteed bound is ≤ `eb` or the
    /// stream is exhausted. Returns newly fetched bytes.
    pub fn refine_to(&mut self, eb: f64) -> Result<usize> {
        if eb < 0.0 || eb.is_nan() {
            return Err(PqrError::InvalidRequest(format!("bad error bound {eb}")));
        }
        self.consume(eb, usize::MAX)
    }

    /// Fetches `k` more planes regardless of a target — fixed-budget mode.
    pub fn fetch_planes(&mut self, k: usize) -> Result<usize> {
        self.consume(f64::NEG_INFINITY, k)
    }

    /// Serves at most `limit` next planes from the resident stream, while
    /// the bound still exceeds `eb`.
    fn consume(&mut self, eb: f64, limit: usize) -> Result<usize> {
        let before = self.fetched;
        for _ in 0..limit {
            if self.cursor.fully_fetched() || self.cursor.guaranteed_bound() <= eb {
                break;
            }
            let seg = &self.stream.planes[self.cursor.planes_read() as usize];
            self.cursor.push_plane(seg)?;
            self.fetched += seg.len();
        }
        Ok(self.fetched - before)
    }

    /// Reconstructs the data representation from the planes fetched so far.
    pub fn reconstruct(&self) -> Vec<f64> {
        self.cursor.reconstruct()
    }

    /// Reconstructs only the axis-aligned region `lo[a]..hi[a]` (half-open
    /// per axis), returning it as a dense row-major array of shape
    /// `hi[a] − lo[a]`.
    ///
    /// This is the ZFP-signature **random access** property: only the 4^d
    /// blocks intersecting the region are decoded, so the compute cost
    /// scales with the region, not the array. The precision (and therefore
    /// the error bound, [`ZfpReader::guaranteed_bound`]) is whatever the
    /// fetched planes provide — region decoding composes with progressive
    /// precision.
    ///
    /// ```
    /// use pqr_zfp::ZfpRefactorer;
    /// let data: Vec<f64> = (0..400).map(|i| (i as f64 * 0.1).sin()).collect();
    /// let stream = ZfpRefactorer::new().refactor(&data, &[20, 20]).unwrap();
    /// let mut reader = stream.reader();
    /// reader.refine_to(1e-6).unwrap();
    /// let window = reader.reconstruct_region(&[5, 5], &[9, 15]).unwrap();
    /// assert_eq!(window.len(), 4 * 10);
    /// assert!((window[0] - data[5 * 20 + 5]).abs() <= reader.guaranteed_bound());
    /// ```
    pub fn reconstruct_region(&self, lo: &[usize], hi: &[usize]) -> Result<Vec<f64>> {
        self.cursor.reconstruct_region(lo, hi)
    }
}

impl ZfpCursor {
    /// Region decode at the current precision — see
    /// [`ZfpReader::reconstruct_region`] for the semantics.
    pub fn reconstruct_region(&self, lo: &[usize], hi: &[usize]) -> Result<Vec<f64>> {
        let dims = self.meta.dims.clone();
        if lo.len() != dims.len() || hi.len() != dims.len() {
            return Err(PqrError::ShapeMismatch(format!(
                "region rank {} vs array rank {}",
                lo.len(),
                dims.len()
            )));
        }
        for a in 0..dims.len() {
            if lo[a] > hi[a] || hi[a] > dims[a] {
                return Err(PqrError::InvalidRequest(format!(
                    "region {}..{} out of bounds for axis {a} (dim {})",
                    lo[a], hi[a], dims[a]
                )));
            }
        }
        // Decode the intersecting blocks into a scratch full-array buffer,
        // then copy the window out. The scratch is O(array) in memory but
        // only the touched blocks cost transform compute; the word-parallel
        // cursor additionally pays one O(bit-matrix / 64) regrouping sweep
        // per call. A production variant would scatter straight into the
        // window.
        let words = self.digit_words_cow();
        let mut scratch = vec![0.0f64; self.grid.num_elements()];
        let nd = dims.len();
        let mut bc_lo = vec![0usize; nd];
        let mut bc_hi = vec![0usize; nd];
        for a in 0..nd {
            bc_lo[a] = lo[a] / crate::block::SIDE;
            bc_hi[a] = hi[a].div_ceil(crate::block::SIDE).max(bc_lo[a] + 1);
        }
        // iterate block coordinates in the window
        let mut bc = bc_lo.clone();
        'blocks: loop {
            // row-major block index
            let mut b = 0usize;
            for (&nblocks, &c) in self.grid.blocks.iter().zip(&bc) {
                b = b * nblocks + c;
            }
            self.reconstruct_block_into(&words, b, &mut scratch);
            let mut a = nd;
            loop {
                if a == 0 {
                    break 'blocks;
                }
                a -= 1;
                bc[a] += 1;
                if bc[a] < bc_hi[a].min(self.grid.blocks[a]) {
                    break;
                }
                bc[a] = bc_lo[a];
            }
        }
        // copy the window
        let window: Vec<usize> = (0..nd).map(|a| hi[a] - lo[a]).collect();
        let wn: usize = window.iter().product();
        let mut out = Vec::with_capacity(wn);
        let mut strides = vec![1usize; nd];
        for a in (0..nd.saturating_sub(1)).rev() {
            strides[a] = strides[a + 1] * dims[a + 1];
        }
        let mut coord = vec![0usize; nd];
        if wn > 0 {
            'copy: loop {
                let idx: usize = (0..nd).map(|a| (lo[a] + coord[a]) * strides[a]).sum();
                out.push(scratch[idx]);
                let mut a = nd;
                loop {
                    if a == 0 {
                        break 'copy;
                    }
                    a -= 1;
                    coord[a] += 1;
                    if coord[a] < window[a] {
                        break;
                    }
                    coord[a] = 0;
                }
            }
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pqr_util::stats::max_abs_diff;

    fn field(n: usize) -> Vec<f64> {
        (0..n)
            .map(|i| {
                let x = i as f64 / n as f64;
                (x * 11.0).sin() * 2.5 + (x * 41.0).cos() * 0.3 - 1.7 * x
            })
            .collect()
    }

    /// Rebuilds a stream's planes through the scalar reference encoder.
    fn scalar_planes(data: &[f64], dims: &[usize]) -> Vec<Vec<u8>> {
        // re-run pass 1 to recover the intermediate words/exponents
        let grid = BlockGrid::new(dims);
        let (nd, blen) = (grid.ndims(), grid.block_len());
        let coeff_bits =
            negabinary::digits_for_magnitude_bits(Q as u32 + transform::growth_bits(nd));
        let mut exponents = vec![EMPTY; grid.num_blocks()];
        let mut words = vec![0u64; grid.num_blocks() * blen];
        let mut fblk = vec![0.0f64; blen];
        let mut iblk = vec![0i64; blen];
        let (mut max_e, mut min_e) = (i32::MIN, i32::MAX);
        for b in 0..grid.num_blocks() {
            grid.gather(data, b, &mut fblk);
            let m = fblk.iter().fold(0.0f64, |acc, v| acc.max(v.abs()));
            if m == 0.0 {
                continue;
            }
            let e = alignment_exponent(m);
            exponents[b] = e;
            max_e = max_e.max(e);
            min_e = min_e.min(e);
            let scale = exp2(Q - e);
            for (q, &x) in iblk.iter_mut().zip(fblk.iter()) {
                *q = (x * scale).round() as i64;
            }
            transform::forward(&mut iblk, nd);
            for (w, &c) in words[b * blen..].iter_mut().zip(iblk.iter()) {
                *w = negabinary::encode(c);
            }
        }
        let a_max = coeff_bits as i32 - 1 + max_e - Q;
        let uncapped = coeff_bits + (max_e - min_e) as u32;
        let geom = PlaneGeometry {
            blen,
            coeff_bits,
            a_max,
            p_total: uncapped.min(MAX_TOTAL_PLANES),
        };
        encode_planes_scalar(&exponents, &words, &geom)
    }

    #[test]
    fn word_plane_encoder_is_byte_identical_to_scalar() {
        // every block width (4, 16, 64), mixed scales, all-zero blocks, and
        // ragged trailing blocks
        for dims in [
            vec![257usize],
            vec![64],
            vec![23, 17],
            vec![40, 25],
            vec![9, 10, 11],
        ] {
            let n: usize = dims.iter().product();
            let mut data = field(n);
            for v in data.iter_mut().skip(7).step_by(13) {
                *v *= 1e-7; // spread block exponents
            }
            for v in data.iter_mut().take(n / 5) {
                *v = 0.0; // all-zero blocks up front
            }
            let stream = ZfpRefactorer::new().refactor(&data, &dims).unwrap();
            let scalar = scalar_planes(&data, &dims);
            assert_eq!(stream.planes.len(), scalar.len(), "dims {dims:?}");
            for (p, (w, s)) in stream.planes.iter().zip(&scalar).enumerate() {
                assert_eq!(w, s, "dims {dims:?} plane {p}");
            }
        }
    }

    #[test]
    fn word_cursor_matches_scalar_cursor_bit_for_bit() {
        for dims in [vec![300usize], vec![23, 17], vec![9, 10, 11]] {
            let n: usize = dims.iter().product();
            let data = field(n);
            let stream = ZfpRefactorer::new().refactor(&data, &dims).unwrap();
            let mut cw = ZfpCursor::new(stream.meta());
            let mut cs = ZfpCursor::new_scalar(stream.meta());
            assert!(!cs.fully_fetched() || stream.num_planes() == 0);
            for (p, plane) in stream.plane_payloads().enumerate() {
                cw.push_plane(plane).unwrap();
                cs.push_plane(plane).unwrap();
                if p % 7 == 0 || p + 1 == stream.num_planes() {
                    assert_eq!(
                        cw.digit_words(),
                        cs.digit_words(),
                        "dims {dims:?} plane {p}"
                    );
                    let expect = cs.reconstruct();
                    assert_eq!(cw.reconstruct(), expect, "dims {dims:?} plane {p}");
                    // dirty pooled buffer: reconstruct_into must fully reset it
                    let mut out = vec![f64::NAN; 7];
                    cw.reconstruct_into(&mut out, 1);
                    assert_eq!(out, expect, "dims {dims:?} plane {p} pooled");
                }
            }
        }
    }

    #[test]
    fn slab_rebuild_matches_the_whole_array_decode() {
        // several slabs per array: 1-D runs of 16 Ki elements, 2-D and 3-D
        // slabs of whole outer block rows, extents not multiples of 4
        for dims in [vec![70_001usize], vec![301, 250], vec![70, 30, 29]] {
            let n: usize = dims.iter().product();
            let data = field(n);
            let stream = ZfpRefactorer::new().refactor(&data, &dims).unwrap();
            let lo = vec![0usize; dims.len()];
            let mut cw = ZfpCursor::new(stream.meta());
            let mut cs = ZfpCursor::new_scalar(stream.meta());
            let decoder = cw.plane_decoder();
            for (p, plane) in stream.plane_payloads().enumerate() {
                // decoded on another thread, applied here
                let decoded = std::thread::scope(|s| {
                    s.spawn(|| decoder.decode(p as u32, plane)).join().unwrap()
                });
                cw.apply_plane(decoded.unwrap()).unwrap();
                cs.push_plane(plane).unwrap();
                if p % 9 != 4 && p + 1 != stream.num_planes() {
                    continue;
                }
                // the whole array's digit words, decoded block by block
                let oracle = cw.reconstruct_region(&lo, &dims).unwrap();
                for cursor in [&cw, &cs] {
                    let mut solo = vec![f64::NAN; 3];
                    cursor.reconstruct_into(&mut solo, 1);
                    assert_eq!(solo, oracle, "dims {dims:?} plane {p}");
                    let crew = Crew::with_spare(2);
                    let mut helped = vec![f64::NAN; n + 5];
                    cursor.reconstruct_with(&mut helped, &crew);
                    assert_eq!(helped, oracle, "dims {dims:?} plane {p} helped");
                    assert!(crew.peak() <= 2, "{}", crew.peak());
                }
            }
            // a plane out of order is refused and changes nothing
            let again = decoder.decode(0, stream.plane(0).unwrap()).unwrap();
            assert!(cw.apply_plane(again).is_err());
            assert!(decoder.decode(stream.num_planes() as u32, &[]).is_err());
        }
    }

    #[test]
    fn hostile_planes_fail_identically_through_both_cursors() {
        let data = field(400);
        let stream = ZfpRefactorer::new().refactor(&data, &[400]).unwrap();
        let seg = stream.plane(5).unwrap();
        let mut hostile: Vec<Vec<u8>> = Vec::new();
        for cut in [0usize, 1, seg.len() / 2, seg.len().saturating_sub(1)] {
            hostile.push(seg[..cut.min(seg.len())].to_vec());
        }
        let mut oversized = seg.to_vec();
        oversized.extend_from_slice(&[0x55; 9]);
        hostile.push(oversized);
        let mut bad_mode = seg.to_vec();
        bad_mode[0] = 0x44;
        hostile.push(bad_mode);

        for (i, bad) in hostile.iter().enumerate() {
            let advance = |mut c: ZfpCursor| -> (Result<()>, Vec<u64>) {
                for p in 0..5 {
                    c.push_plane(stream.plane(p).unwrap()).unwrap();
                }
                let r = c.push_plane(bad);
                let words = c.digit_words();
                (r, words)
            };
            let (rw, ww) = advance(ZfpCursor::new(stream.meta()));
            let (rs, ws) = advance(ZfpCursor::new_scalar(stream.meta()));
            assert_eq!(rw.is_err(), rs.is_err(), "case {i}: {rw:?} vs {rs:?}");
            if rw.is_ok() {
                assert_eq!(ww, ws, "case {i}");
            }
        }
    }

    #[test]
    fn truncated_plane_payloads_fail_identically_at_every_depth() {
        // hostile truncation of *each* plane in turn: the word path's
        // participant histogram must demand exactly the bit count the
        // scalar enumeration demands, so both cursors accept/reject the
        // same prefixes and keep identical digit state afterwards
        let mut data = field(500);
        for v in data.iter_mut().skip(3).step_by(11) {
            *v *= 1e-6; // mixed block exponents → ragged participant ramps
        }
        let stream = ZfpRefactorer::new().refactor(&data, &[500]).unwrap();
        for target in (0..stream.num_planes()).step_by(9) {
            let seg = stream.plane(target).unwrap();
            for cut in [0usize, seg.len() / 3, seg.len().saturating_sub(1)] {
                let bad = &seg[..cut.min(seg.len())];
                let drive = |mut c: ZfpCursor| {
                    for p in 0..target {
                        c.push_plane(stream.plane(p).unwrap()).unwrap();
                    }
                    let r = c.push_plane(bad);
                    let words = c.digit_words();
                    (r.is_err(), c.planes_read(), words)
                };
                let w = drive(ZfpCursor::new(stream.meta()));
                let s = drive(ZfpCursor::new_scalar(stream.meta()));
                assert_eq!(w, s, "plane {target} cut {cut}");
            }
        }
    }

    #[test]
    fn corrupt_exponent_tables_fail_identically_through_both_cursors() {
        // a corrupt exponent table shifts every block's digit interval, so
        // the expected per-plane payload sizes change; whatever the
        // word-parallel cursor then accepts or rejects must match the
        // scalar oracle exactly, plane by plane
        let data = field(600);
        let stream = ZfpRefactorer::new().refactor(&data, &[600]).unwrap();
        type Tweak = Box<dyn Fn(&mut Vec<i32>)>;
        let tweaks: Vec<Tweak> = vec![
            Box::new(|e| e[0] += 13),
            Box::new(|e| e[7] -= 9),
            Box::new(|e| e[3] = EMPTY),
            Box::new(|e| {
                let n = e.len();
                e[n - 1] += 40;
            }),
            Box::new(|e| {
                for v in e.iter_mut() {
                    *v += 2;
                }
            }),
        ];
        for (i, tweak) in tweaks.iter().enumerate() {
            let mut meta = stream.meta();
            tweak(&mut meta.exponents);
            let drive = |mut c: ZfpCursor| {
                let mut outcome = Vec::new();
                for p in 0..stream.num_planes() {
                    match c.push_plane(stream.plane(p).unwrap()) {
                        Ok(()) => outcome.push(Ok(())),
                        Err(e) => {
                            outcome.push(Err(format!("{e}")));
                            break;
                        }
                    }
                }
                let words = c.digit_words();
                (outcome, c.planes_read(), words)
            };
            let w = drive(ZfpCursor::new(meta.clone()));
            let s = drive(ZfpCursor::new_scalar(meta));
            assert_eq!(w, s, "tweak {i}");
        }
    }

    #[test]
    fn refactor_is_byte_identical_to_scalar_oracle() {
        for dims in [vec![2048usize], vec![40, 25], vec![9, 10, 11]] {
            let n: usize = dims.iter().product();
            let mut data = field(n);
            for v in data.iter_mut().skip(5).step_by(17) {
                *v *= 1e-9;
            }
            let r = ZfpRefactorer::new();
            let stored = |s: ZfpStream| (s.meta().to_bytes(), s.planes);
            let word = stored(r.refactor(&data, &dims).unwrap());
            let scalar = stored(r.refactor_scalar(&data, &dims).unwrap());
            assert_eq!(scalar, word, "dims {dims:?} scalar oracle");
        }
    }

    #[test]
    fn alignment_exponent_invariants() {
        for m in [1e-12, 0.5, 1.0, 1.0000001, 3.7, 4.0, 1e12, 2.2e-308] {
            let e = alignment_exponent(m);
            assert!(m <= exp2(e), "m={m} e={e}");
            assert!(
                e == MIN_EXPONENT || m > exp2(e - 1),
                "m={m}: e={e} not minimal"
            );
        }
    }

    #[test]
    fn refine_meets_bounds_and_real_error_below_guarantee() {
        let data = field(3000);
        let stream = ZfpRefactorer::new().refactor(&data, &[3000]).unwrap();
        let mut reader = stream.reader();
        for eb in [1e-1, 1e-3, 1e-6, 1e-10] {
            reader.refine_to(eb).unwrap();
            assert!(reader.guaranteed_bound() <= eb, "eb={eb}");
            let real = max_abs_diff(&data, &reader.reconstruct());
            assert!(
                real <= reader.guaranteed_bound(),
                "eb={eb}: real {real} > guarantee {}",
                reader.guaranteed_bound()
            );
        }
    }

    #[test]
    fn full_fetch_reaches_rounding_floor() {
        let data = field(500);
        let stream = ZfpRefactorer::new().refactor(&data, &[500]).unwrap();
        let mut reader = stream.reader();
        reader.refine_to(0.0).unwrap();
        assert!(reader.fully_fetched());
        let real = max_abs_diff(&data, &reader.reconstruct());
        assert!(real <= reader.guaranteed_bound());
        assert!(real < 1e-14, "residual {real}");
    }

    #[test]
    fn multidimensional_roundtrip() {
        for dims in [vec![40, 25], vec![9, 10, 11]] {
            let n: usize = dims.iter().product();
            let data = field(n);
            let stream = ZfpRefactorer::new().refactor(&data, &dims).unwrap();
            let mut reader = stream.reader();
            reader.refine_to(1e-6).unwrap();
            let real = max_abs_diff(&data, &reader.reconstruct());
            assert!(real <= reader.guaranteed_bound(), "dims {dims:?}");
            assert!(reader.guaranteed_bound() <= 1e-6, "dims {dims:?}");
        }
    }

    #[test]
    fn byte_accounting_cumulative() {
        let data = field(4000);
        let stream = ZfpRefactorer::new().refactor(&data, &[4000]).unwrap();
        let mut reader = stream.reader();
        assert_eq!(reader.total_fetched(), stream.meta().to_bytes().len());
        let b1 = reader.refine_to(1e-2).unwrap();
        let t1 = reader.total_fetched();
        let b2 = reader.refine_to(1e-8).unwrap();
        assert!(b1 > 0 && b2 > 0);
        assert_eq!(reader.total_fetched(), t1 + b2);
        assert_eq!(reader.refine_to(1e-5).unwrap(), 0, "already satisfied");
    }

    #[test]
    fn bitrate_grows_smoothly_not_staircase() {
        let data = field(8192);
        let stream = ZfpRefactorer::new().refactor(&data, &[8192]).unwrap();
        let mut sizes = Vec::new();
        for i in 1..=20 {
            let eb = 0.1 * (2.0f64).powi(-i);
            let mut reader = stream.reader();
            reader.refine_to(eb).unwrap();
            sizes.push(reader.total_fetched());
        }
        let distinct: std::collections::BTreeSet<_> = sizes.iter().collect();
        assert!(
            distinct.len() >= 12,
            "only {} distinct sizes",
            distinct.len()
        );
        for w in sizes.windows(2) {
            assert!(w[1] >= w[0]);
        }
    }

    #[test]
    fn all_zero_field_is_free() {
        let stream = ZfpRefactorer::new().refactor(&[0.0; 256], &[256]).unwrap();
        assert_eq!(stream.num_planes(), 0);
        let mut reader = stream.reader();
        assert_eq!(reader.guaranteed_bound(), 0.0);
        reader.refine_to(0.0).unwrap();
        assert!(reader.reconstruct().iter().all(|&v| v == 0.0));
    }

    #[test]
    fn mixed_scale_blocks_join_planes_late() {
        // one large block, the rest tiny: early planes should be almost
        // free because only the large block participates
        let mut data = vec![1e-6; 4096];
        for v in data.iter_mut().take(4) {
            *v = 1000.0;
        }
        let stream = ZfpRefactorer::new().refactor(&data, &[4096]).unwrap();
        let sizes: Vec<usize> = stream.plane_payloads().map(<[u8]>::len).collect();
        let early: usize = sizes[..10].iter().sum();
        let late: usize = sizes[sizes.len() - 10..].iter().sum();
        assert!(early * 4 < late, "early {early} B vs late {late} B");
    }

    #[test]
    fn metadata_roundtrips() {
        let mut data = field(777);
        for v in data.iter_mut().skip(5).step_by(17) {
            *v *= 1e-9; // mixed block exponents
        }
        let meta = ZfpRefactorer::new().refactor(&data, &[777]).unwrap().meta();
        assert_eq!(ZfpMeta::from_bytes(&meta.to_bytes()).unwrap(), meta);
    }

    #[test]
    fn hostile_metadata_rejected_not_panicking() {
        // `ZfpMeta::from_bytes` is the parser every archive open runs; the
        // cursor sizes its digit state from what it returns
        let data = field(64);
        let meta = ZfpRefactorer::new().refactor(&data, &[64]).unwrap().meta();
        let good = meta.to_bytes();
        assert!(ZfpMeta::from_bytes(&good).is_ok());
        let mut bad = good.clone();
        bad[0] = b'X';
        assert!(ZfpMeta::from_bytes(&bad).is_err());
        // trailing bytes, and every strict prefix
        let mut long = good.clone();
        long.push(0);
        assert!(ZfpMeta::from_bytes(&long).is_err());
        for cut in 0..good.len() {
            assert!(ZfpMeta::from_bytes(&good[..cut]).is_err(), "cut {cut}");
        }
        // field offsets in the 1-D layout: magic 4, nd 1, dim 8, max_e 8,
        // a_max 8, coeff_bits 4, capped 1, then the exponent table
        let patch = |at: usize, bytes: &[u8]| {
            let mut b = good.clone();
            b[at..at + bytes.len()].copy_from_slice(bytes);
            ZfpMeta::from_bytes(&b)
        };
        // rank outside 1..=3
        assert!(patch(4, &[0]).is_err());
        assert!(patch(4, &[4]).is_err());
        // a shape whose block grid the exponent table cannot back — the
        // allocation bomb: 2^60 elements declared over a 16-block table
        assert!(patch(5, &(1u64 << 60).to_le_bytes()).is_err());
        assert!(patch(5, &u64::MAX.to_le_bytes()).is_err());
        // one block more than the table holds
        assert!(patch(5, &68u64.to_le_bytes()).is_err());
        // digit widths the word kernels cannot shift by
        assert!(patch(29, &0u32.to_le_bytes()).is_err());
        assert!(patch(29, &65u32.to_le_bytes()).is_err());
        // exponents beyond i32
        assert!(patch(13, &i64::MAX.to_le_bytes()).is_err());
        // more planes than the ladder cap (the last four bytes)
        assert!(patch(good.len() - 4, &(MAX_TOTAL_PLANES + 1).to_le_bytes()).is_err());
    }

    #[test]
    fn non_finite_data_rejected() {
        assert!(ZfpRefactorer::new()
            .refactor(&[1.0, f64::NAN], &[2])
            .is_err());
        assert!(ZfpRefactorer::new()
            .refactor(&[f64::INFINITY; 4], &[4])
            .is_err());
    }

    #[test]
    fn shape_mismatch_rejected() {
        assert!(ZfpRefactorer::new().refactor(&[1.0; 5], &[6]).is_err());
        assert!(ZfpRefactorer::new()
            .refactor(&[1.0; 16], &[2, 2, 2, 2])
            .is_err());
    }

    #[test]
    fn bound_decreases_monotonically() {
        let data = field(1000);
        let meta = ZfpRefactorer::new()
            .refactor(&data, &[1000])
            .unwrap()
            .meta();
        let mut prev = f64::INFINITY;
        for k in 0..=meta.num_planes() {
            let b = meta.bound_after(k);
            assert!(b <= prev, "k={k}: {b} > {prev}");
            prev = b;
        }
    }

    #[test]
    fn region_reconstruction_matches_full_window() {
        for dims in [vec![100usize], vec![23, 17], vec![9, 10, 11]] {
            let n: usize = dims.iter().product();
            let data = field(n);
            let stream = ZfpRefactorer::new().refactor(&data, &dims).unwrap();
            let mut reader = stream.reader();
            reader.refine_to(1e-8).unwrap();
            let full = reader.reconstruct();
            // a window strictly inside the array, not block-aligned
            let lo: Vec<usize> = dims.iter().map(|&d| (d / 3).min(d - 1)).collect();
            let hi: Vec<usize> = dims.iter().map(|&d| (2 * d / 3).max(d / 3 + 1)).collect();
            let region = reader.reconstruct_region(&lo, &hi).unwrap();
            // compare against the window of the full reconstruction
            let nd = dims.len();
            let mut strides = vec![1usize; nd];
            for a in (0..nd.saturating_sub(1)).rev() {
                strides[a] = strides[a + 1] * dims[a + 1];
            }
            let window: Vec<usize> = (0..nd).map(|a| hi[a] - lo[a]).collect();
            let wn: usize = window.iter().product();
            assert_eq!(region.len(), wn, "dims {dims:?}");
            let mut coord = vec![0usize; nd];
            for r in &region {
                let idx: usize = (0..nd).map(|a| (lo[a] + coord[a]) * strides[a]).sum();
                assert_eq!(*r, full[idx], "dims {dims:?} coord {coord:?}");
                let mut a = nd;
                loop {
                    if a == 0 {
                        break;
                    }
                    a -= 1;
                    coord[a] += 1;
                    if coord[a] < window[a] {
                        break;
                    }
                    coord[a] = 0;
                }
            }
        }
    }

    #[test]
    fn region_error_honours_the_global_bound() {
        let dims = vec![30usize, 40];
        let data = field(1200);
        let stream = ZfpRefactorer::new().refactor(&data, &dims).unwrap();
        let mut reader = stream.reader();
        reader.refine_to(1e-5).unwrap();
        let region = reader.reconstruct_region(&[5, 10], &[25, 30]).unwrap();
        let mut worst = 0.0f64;
        let mut k = 0;
        for i in 5..25 {
            for j in 10..30 {
                worst = worst.max((region[k] - data[i * 40 + j]).abs());
                k += 1;
            }
        }
        assert!(worst <= reader.guaranteed_bound());
    }

    #[test]
    fn region_edge_cases() {
        let data = field(64);
        let stream = ZfpRefactorer::new().refactor(&data, &[64]).unwrap();
        let reader = stream.reader();
        // empty window
        assert_eq!(reader.reconstruct_region(&[5], &[5]).unwrap().len(), 0);
        // full window at zero planes = all zeros
        let w = reader.reconstruct_region(&[0], &[64]).unwrap();
        assert_eq!(w.len(), 64);
        // bad requests
        assert!(reader.reconstruct_region(&[5], &[3]).is_err());
        assert!(reader.reconstruct_region(&[0], &[65]).is_err());
        assert!(reader.reconstruct_region(&[0, 0], &[1, 1]).is_err());
    }

    #[test]
    fn real_error_below_guarantee_at_every_plane_depth() {
        let data = field(600);
        let stream = ZfpRefactorer::new().refactor(&data, &[600]).unwrap();
        let mut reader = stream.reader();
        loop {
            let real = max_abs_diff(&data, &reader.reconstruct());
            assert!(
                real <= reader.guaranteed_bound(),
                "k={}: real {real} > bound {}",
                reader.planes_read(),
                reader.guaranteed_bound()
            );
            if reader.fully_fetched() {
                break;
            }
            reader.fetch_planes(1).unwrap();
        }
    }
}
