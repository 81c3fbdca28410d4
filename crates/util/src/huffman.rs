//! Canonical Huffman coding over `u32` symbols.
//!
//! This is the entropy stage of the SZ3 stand-in (`pqr-sz`): quantization
//! codes are Huffman-coded exactly as in SZ/SZ3. The implementation is
//! canonical-code based so only the code lengths need to be serialized.
//!
//! Code lengths are capped at [`MAX_CODE_LEN`] by flattening the tree with
//! the classic depth-limited reassignment; for the symbol distributions the
//! quantizer produces (sharply peaked around the zero code) this never costs
//! measurable rate.
//!
//! A blob is `alphabet:u32`, `count:u64`, the run-length-coded code lengths
//! (`runs:u32`, then `(length:u8, run:u32)` per run) and a length-prefixed
//! payload (`u64` bytes). The payload codes the symbols as four bitstreams,
//! as zstd's Huff0 does: stream `i` holds quarter `i` of the symbols
//! (`⌈count/4⌉` each, the last quarter the rest, so short inputs leave
//! trailing quarters empty), MSB-first and zero-padded to a byte. A jump
//! table of three `u32` byte lengths for streams 0–2 comes first; stream 3
//! runs to the payload's end. The code lengths are the same as for one
//! stream, so the four streams cost only the 12-byte jump table and up to
//! three bytes of padding.
//!
//! Decoding looks up the next 12 bits of a stream in a per-blob table. Each
//! entry holds the symbol whose code starts those bits and, when one fits,
//! the symbol of a second whole code that follows inside them, so one
//! lookup often yields two symbols. While every stream has a whole 64-bit
//! window and room for a step's symbols left, one loop takes four lookups
//! per stream per step, round-robin, so the four lookup chains overlap.
//! Whatever the table does not cover (longer codes, unassigned prefixes, a
//! stream's last window) is decoded one stream at a time: codes are matched
//! length by length against one peeked window with the test of the
//! bit-serial canonical loop that defines the format, so every path accepts
//! the same streams and returns the same symbols and errors.

use crate::bitio::{BitReader, BitWriter};
use crate::byteio::{ByteReader, ByteWriter};
use crate::error::{PqrError, Result};
use std::collections::BinaryHeap;

/// Maximum admitted code length (bits). 32 keeps decode tables small and
/// lets codes fit in a `u32`.
pub const MAX_CODE_LEN: u32 = 32;

/// A built Huffman code book: per-symbol code length and canonical code.
#[derive(Debug, Clone)]
pub struct CodeBook {
    /// Code length per symbol (0 = symbol absent).
    pub lengths: Vec<u32>,
    /// Canonical code per symbol, MSB-aligned within `lengths[i]` bits.
    pub codes: Vec<u32>,
}

#[derive(PartialEq, Eq)]
struct HeapNode {
    weight: u64,
    idx: usize,
}

impl Ord for HeapNode {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // BinaryHeap is a max-heap; invert for min-heap behaviour. Tie-break
        // on index for determinism.
        other
            .weight
            .cmp(&self.weight)
            .then_with(|| other.idx.cmp(&self.idx))
    }
}

impl PartialOrd for HeapNode {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

/// Computes code lengths with a Huffman tree over symbol frequencies.
fn code_lengths(freqs: &[u64]) -> Vec<u32> {
    let n = freqs.len();
    let present: Vec<usize> = (0..n).filter(|&i| freqs[i] > 0).collect();
    let mut lengths = vec![0u32; n];
    match present.len() {
        0 => return lengths,
        1 => {
            lengths[present[0]] = 1;
            return lengths;
        }
        _ => {}
    }

    // Internal tree: nodes 0..m are leaves (present symbols), then internals.
    let m = present.len();
    let mut weight = Vec::with_capacity(2 * m);
    let mut parent = vec![usize::MAX; 2 * m];
    let mut heap = BinaryHeap::with_capacity(m);
    for (leaf, &sym) in present.iter().enumerate() {
        weight.push(freqs[sym]);
        heap.push(HeapNode {
            weight: freqs[sym],
            idx: leaf,
        });
    }
    while heap.len() > 1 {
        let a = heap.pop().unwrap();
        let b = heap.pop().unwrap();
        let node = weight.len();
        weight.push(a.weight + b.weight);
        parent[a.idx] = node;
        parent[b.idx] = node;
        heap.push(HeapNode {
            weight: a.weight + b.weight,
            idx: node,
        });
    }

    // Depth of each leaf = chain length to the root.
    for (leaf, &sym) in present.iter().enumerate() {
        let mut d = 0u32;
        let mut cur = leaf;
        while parent[cur] != usize::MAX {
            cur = parent[cur];
            d += 1;
        }
        lengths[sym] = d;
    }

    limit_lengths(&mut lengths, MAX_CODE_LEN);
    lengths
}

/// Enforces a maximum code length while keeping the Kraft sum ≤ 1.
fn limit_lengths(lengths: &mut [u32], max_len: u32) {
    if lengths.iter().all(|&l| l <= max_len) {
        return;
    }
    // Clamp, then repair the Kraft inequality by deepening the shallowest
    // repairable codes (standard length-limited fixup).
    let mut kraft: f64 = 0.0;
    for l in lengths.iter_mut() {
        if *l > max_len {
            *l = max_len;
        }
        if *l > 0 {
            kraft += (0.5f64).powi(*l as i32);
        }
    }
    while kraft > 1.0 + 1e-12 {
        // Find the longest code shorter than max_len and lengthen it.
        let mut best: Option<usize> = None;
        for (i, &l) in lengths.iter().enumerate() {
            if l > 0 && l < max_len {
                let better = match best {
                    None => true,
                    Some(b) => lengths[b] < l,
                };
                if better {
                    best = Some(i);
                }
            }
        }
        let Some(i) = best else { break };
        kraft -= (0.5f64).powi(lengths[i] as i32);
        lengths[i] += 1;
        kraft += (0.5f64).powi(lengths[i] as i32);
    }
}

/// Present symbols in canonical order, by (length, symbol).
fn canonical_order(lengths: &[u32]) -> Vec<u32> {
    let mut order: Vec<u32> = (0..lengths.len() as u32)
        .filter(|&s| lengths[s as usize] > 0)
        .collect();
    // stable, so equal lengths keep ascending symbol order
    order.sort_by_key(|&s| lengths[s as usize]);
    order
}

/// Assigns canonical codes from lengths: symbols sorted by (length, symbol).
fn canonical_codes(lengths: &[u32]) -> Vec<u32> {
    let mut codes = vec![0u32; lengths.len()];
    let mut code = 0u32;
    let mut prev_len = 0u32;
    for sym in canonical_order(lengths) {
        let len = lengths[sym as usize];
        code <<= len - prev_len;
        codes[sym as usize] = code;
        code += 1;
        prev_len = len;
    }
    codes
}

impl CodeBook {
    /// Builds a canonical code book from symbol frequencies.
    pub fn from_freqs(freqs: &[u64]) -> Self {
        let lengths = code_lengths(freqs);
        let codes = canonical_codes(&lengths);
        Self { lengths, codes }
    }
}

/// Number of bitstreams a blob's symbols are split over.
const STREAMS: usize = 4;

/// Bytes of the jump table that opens the payload: the byte lengths of all
/// streams but the last.
const JUMP_BYTES: usize = 4 * (STREAMS - 1);

/// Where each stream's quarter of `count` symbols starts and ends: stream
/// `i` codes symbols `ends[i]..ends[i + 1]`.
fn quarter_ends(count: usize) -> [usize; STREAMS + 1] {
    let quarter = count.div_ceil(STREAMS);
    std::array::from_fn(|i| (i * quarter).min(count))
}

/// Encodes `symbols` (values `< alphabet`) into a self-describing byte blob
/// (the layout is in the module docs). Returns an error if any symbol is out
/// of range.
pub fn encode(symbols: &[u32], alphabet: u32) -> Result<Vec<u8>> {
    let mut freqs = vec![0u64; alphabet as usize];
    for &s in symbols {
        let i = s as usize;
        if i >= freqs.len() {
            return Err(PqrError::InvalidRequest(format!(
                "symbol {s} out of alphabet {alphabet}"
            )));
        }
        freqs[i] += 1;
    }
    let book = CodeBook::from_freqs(&freqs);

    let mut w = ByteWriter::new();
    w.put_u32(alphabet);
    w.put_u64(symbols.len() as u64);

    // Serialize lengths with a tiny run-length scheme: (len:u8, run:u32)*.
    let mut runs: Vec<(u32, u32)> = Vec::new();
    for &l in &book.lengths {
        match runs.last_mut() {
            Some((ll, r)) if *ll == l && *r < u32::MAX => *r += 1,
            _ => runs.push((l, 1)),
        }
    }
    w.put_u32(runs.len() as u32);
    for (l, r) in &runs {
        w.put_u8(*l as u8);
        w.put_u32(*r);
    }

    // The payload's length and jump table are patched in once the streams,
    // each coded straight after the last into the blob, are done.
    let mut out = w.finish();
    let at = out.len();
    out.reserve(8 + JUMP_BYTES + symbols.len() / 2 + STREAMS);
    out.resize(at + 8 + JUMP_BYTES, 0);
    let ends = quarter_ends(symbols.len());
    for i in 0..STREAMS {
        let start = out.len();
        let mut bits = BitWriter::appending(out);
        for &s in &symbols[ends[i]..ends[i + 1]] {
            let len = book.lengths[s as usize];
            debug_assert!(len > 0, "encoding absent symbol");
            bits.put_bits(u64::from(book.codes[s as usize]), len);
        }
        out = bits.finish();
        if i + 1 < STREAMS {
            let len = u32::try_from(out.len() - start)
                .map_err(|_| PqrError::InvalidRequest("a huffman stream exceeds 4 GiB".into()))?;
            out[at + 8 + 4 * i..][..4].copy_from_slice(&len.to_le_bytes());
        }
    }
    let payload = (out.len() - at - 8) as u64;
    out[at..at + 8].copy_from_slice(&payload.to_le_bytes());
    Ok(out)
}

/// Largest alphabet [`decode`] will accept. Quantizer alphabets in this
/// workspace are `2·radius` (≤ ~2²⁰); a larger claim in a stream header is
/// corruption, and rejecting it keeps hostile headers from forcing
/// multi-gigabyte length-table allocations.
pub const MAX_ALPHABET: usize = 1 << 24;

/// Decodes a blob produced by [`encode`].
pub fn decode(bytes: &[u8]) -> Result<Vec<u32>> {
    let mut r = ByteReader::new(bytes);
    let alphabet = r.get_u32()? as usize;
    let count = r.get_u64()? as usize;
    let nruns = r.get_u32()? as usize;
    if alphabet > MAX_ALPHABET {
        return Err(PqrError::CorruptStream(format!(
            "claimed alphabet {alphabet} exceeds limit"
        )));
    }
    let mut lengths = Vec::with_capacity(alphabet.min(1 << 16));
    for _ in 0..nruns {
        let l = u32::from(r.get_u8()?);
        let run = r.get_u32()? as usize;
        if l > MAX_CODE_LEN {
            return Err(PqrError::CorruptStream(format!("code length {l}")));
        }
        if run > alphabet - lengths.len() {
            return Err(PqrError::CorruptStream(
                "length table exceeds alphabet".into(),
            ));
        }
        lengths.resize(lengths.len() + run, l);
    }
    if lengths.len() != alphabet {
        return Err(PqrError::CorruptStream(format!(
            "length table covers {} of {alphabet} symbols",
            lengths.len()
        )));
    }
    let streams = split_streams(r.get_bytes()?)?;
    let Some(dec) = Decoder::new(&lengths) else {
        return if count == 0 {
            Ok(Vec::new())
        } else {
            Err(PqrError::CorruptStream("no codes but nonzero count".into()))
        };
    };

    // Every symbol consumes at least one bit of its stream, so a quarter
    // longer than its stream's bit length can only come from a corrupt
    // header or jump table.
    let ends = quarter_ends(count);
    for (i, stream) in streams.iter().enumerate() {
        if ends[i + 1] - ends[i] > stream.len().saturating_mul(8) {
            return Err(PqrError::CorruptStream(format!(
                "claimed symbol count {count} exceeds huffman stream {i}"
            )));
        }
    }
    let mut out = vec![0; count];
    let mut pos = [0usize; STREAMS];
    let mut next: [usize; STREAMS] = std::array::from_fn(|i| ends[i]);
    dec.decode_interleaved(&streams, &ends, &mut pos, &mut next, &mut out)?;
    for i in 0..STREAMS {
        let mut bits = BitReader::new(streams[i]);
        bits.skip(pos[i]);
        dec.decode_stream(&mut bits, &mut out[next[i]..ends[i + 1]])?;
    }
    Ok(out)
}

/// Splits a payload at its jump table into the four streams.
fn split_streams(payload: &[u8]) -> Result<[&[u8]; STREAMS]> {
    let Some((jump, mut rest)) = payload.split_at_checked(JUMP_BYTES) else {
        return Err(PqrError::CorruptStream(
            "huffman payload shorter than its jump table".into(),
        ));
    };
    let mut streams = [&[][..]; STREAMS];
    for (i, stream) in streams[..STREAMS - 1].iter_mut().enumerate() {
        let len = u32::from_le_bytes(jump[4 * i..4 * i + 4].try_into().unwrap()) as usize;
        let Some((head, tail)) = rest.split_at_checked(len) else {
            return Err(PqrError::CorruptStream(format!(
                "huffman stream {i} of {len} bytes passes the payload"
            )));
        };
        (*stream, rest) = (head, tail);
    }
    streams[STREAMS - 1] = rest;
    Ok(streams)
}

/// One entry of the decode table: up to two symbols whose codes lie back to
/// back in the indexing bits. Bits 0–23 and 24–47 hold the symbols (they are
/// below [`MAX_ALPHABET`] = 2²⁴), bits 48–55 the first code's length, bits
/// 56–61 both codes' lengths together and bits 62–63 how many symbols the
/// entry holds. The first is absent (all zero) when no code of at most the
/// table width matches, the second when the first leaves too few bits for a
/// whole second code.
#[derive(Clone, Copy, Default)]
struct Entry(u64);

impl Entry {
    fn single(symbol: u32, len: u32) -> Self {
        Self(u64::from(symbol) | u64::from(len) << 48 | u64::from(len) << 56 | 1 << 62)
    }
    /// `self` followed by the first code of `second`.
    fn pair(self, second: Entry) -> Self {
        let (symbol, len) = (u64::from(second.first()), u64::from(second.first_len()));
        Self(self.0 + (symbol << 24) + (len << 56) + (1 << 62))
    }
    fn first(self) -> u32 {
        self.0 as u32 & 0xff_ffff
    }
    fn second(self) -> u32 {
        (self.0 >> 24) as u32 & 0xff_ffff
    }
    fn first_len(self) -> u32 {
        (self.0 >> 48) as u32 & 0xff
    }
    /// Both codes' lengths together.
    fn bits(self) -> u32 {
        (self.0 >> 56) as u32 & 0x3f
    }
    /// Symbols the entry holds: 0, 1 or 2.
    fn symbols(self) -> usize {
        (self.0 >> 62) as usize
    }
}

/// Width of the decode table: codes up to this long decode with one
/// lookup.
const TABLE_BITS: u32 = 12;

/// Canonical decoding state for one blob's length table.
struct Decoder {
    /// Present symbols by (length, symbol).
    order: Vec<u32>,
    max_len: u32,
    /// Per length: the first canonical code, its index in `order`, and how
    /// many codes have that length.
    first_code: Vec<u64>,
    first_idx: Vec<usize>,
    count_at: Vec<usize>,
    /// Indexed by the next [`TABLE_BITS`] bits of a stream: the symbols
    /// [`Decoder::decode_canonical`] would match first, and second from the
    /// bits the first leaves, as far as the index covers them.
    table: Box<[Entry; 1 << TABLE_BITS]>,
}

impl Decoder {
    /// `None` when no symbol has a code.
    fn new(lengths: &[u32]) -> Option<Self> {
        let max_len = lengths.iter().copied().max().unwrap_or(0);
        if max_len == 0 {
            return None;
        }
        let order = canonical_order(lengths);
        let slots = (max_len + 2) as usize;
        let (mut first_code, mut first_idx, mut count_at) =
            (vec![0u64; slots], vec![0usize; slots], vec![0usize; slots]);
        for &s in &order {
            count_at[lengths[s as usize] as usize] += 1;
        }
        let mut code = 0u64;
        let mut i = 0usize;
        for len in 1..=max_len as usize {
            code <<= 1;
            first_code[len] = code;
            first_idx[len] = i;
            code += count_at[len] as u64;
            i += count_at[len];
        }

        // The first half of each entry: one code's symbol and length.
        // Canonical ranges never share a prefix (`first_code` doubles past every
        // shorter range), so each index gets at most one code. A hostile
        // length table can assign codes wider than their length; the
        // canonical match never matches those, so they get no entry.
        let size = 1usize << TABLE_BITS;
        let mut table = Box::new([Entry::default(); 1 << TABLE_BITS]);
        for len in 1..=max_len.min(TABLE_BITS) {
            let (lo, cnt) = (first_code[len as usize], count_at[len as usize] as u64);
            let hi = (lo + cnt).min(1 << len);
            let shift = TABLE_BITS - len;
            for c in lo..hi {
                let sym = order[first_idx[len as usize] + (c - lo) as usize];
                table[(c << shift) as usize..((c + 1) << shift) as usize]
                    .fill(Entry::single(sym, len));
            }
        }
        // The second half: the second code starts where the first ends. Its
        // lookup index has the first's `len` bits shifted out and zeros
        // shifted in, so the entry found there is the right one only if its
        // code fits in the `TABLE_BITS − len` real bits. Only second halves
        // are written, so every first half read here is still the
        // single-code entry.
        for idx in 0..size {
            let len = table[idx].first_len();
            if len != 0 && len < TABLE_BITS {
                let second = table[(idx << len) & (size - 1)];
                let len2 = second.first_len();
                if len2 != 0 && len + len2 <= TABLE_BITS {
                    table[idx] = table[idx].pair(second);
                }
            }
        }
        Some(Self {
            order,
            max_len,
            first_code,
            first_idx,
            count_at,
            table,
        })
    }

    /// Decodes the four streams in lockstep while every one has a whole
    /// 64-bit window left (`pos` + 64 bits inside it) and room for the eight
    /// symbols a step can write. A step loads each stream's window once and
    /// takes four lookups per stream, round-robin; four lookups use at most
    /// 48 of the window's ≥ 57 real bits, so every code a lookup takes ends
    /// inside its stream, and an entry with no symbol leaves its stream where
    /// it is. A stream that took no bits in a step stands at a code the
    /// table does not hold, which [`Decoder::decode_canonical`] decodes
    /// before the next step. On return `pos` and `next` are where each
    /// stream's rest starts, for [`Decoder::decode_stream`].
    fn decode_interleaved(
        &self,
        streams: &[&[u8]; STREAMS],
        ends: &[usize; STREAMS + 1],
        pos: &mut [usize; STREAMS],
        next: &mut [usize; STREAMS],
        out: &mut [u32],
    ) -> Result<()> {
        let table = &*self.table;
        loop {
            for i in 0..STREAMS {
                if pos[i] + 64 > streams[i].len() * 8 || next[i] + 8 > ends[i + 1] {
                    return Ok(());
                }
            }
            let window: [u64; STREAMS] = std::array::from_fn(|i| {
                let at = pos[i] / 8;
                u64::from_be_bytes(streams[i][at..at + 8].try_into().unwrap()) << (pos[i] % 8)
            });
            let mut used = [0u32; STREAMS];
            for _ in 0..4 {
                for i in 0..STREAMS {
                    let entry = table[((window[i] << used[i]) >> (64 - TABLE_BITS)) as usize];
                    out[next[i]..next[i] + 2].copy_from_slice(&[entry.first(), entry.second()]);
                    next[i] += entry.symbols();
                    used[i] += entry.bits();
                }
            }
            for i in 0..STREAMS {
                pos[i] += used[i] as usize;
                if used[i] == 0 {
                    let mut bits = BitReader::new(streams[i]);
                    bits.skip(pos[i]);
                    out[next[i]] = self.decode_canonical(&mut bits)?;
                    next[i] += 1;
                    pos[i] = bits.position();
                }
            }
        }
    }

    /// Decodes `out.len()` symbols from one stream. While a whole table
    /// width is left in a 64-bit window a lookup yields one symbol, or two
    /// when both codes fit in the table width; each code must end inside the
    /// stream. Anything else goes to [`Decoder::decode_canonical`], one
    /// symbol at a time.
    fn decode_stream(&self, bits: &mut BitReader<'_>, out: &mut [u32]) -> Result<()> {
        let (tb, count) = (TABLE_BITS, out.len());
        let mut k = 0;
        while k < count {
            let window = bits.peek_bits(64);
            let limit = bits.remaining_bits().min(64) as u32;
            let mut used = 0u32;
            while used + tb <= 64 && k < count {
                let entry = self.table[((window << used) >> (64 - tb)) as usize];
                let (first, second) = (entry.first_len(), entry.bits() - entry.first_len());
                if first == 0 || used + first > limit {
                    break;
                }
                out[k] = entry.first();
                if second != 0 && used + first + second <= limit && k + 1 < count {
                    out[k + 1] = entry.second();
                    k += 2;
                    used += first + second;
                } else {
                    k += 1;
                    used += first;
                }
            }
            bits.skip(used as usize);
            if used == 0 {
                out[k] = self.decode_canonical(bits)?;
                k += 1;
            }
        }
        Ok(())
    }

    /// Decodes one symbol the table could not: codes longer than the
    /// table, prefixes no code matches, and codes that reach the end of the
    /// stream (whose first bit may be the phantom zero past it). Every code
    /// fits in one peeked window, so each length is tested on that window
    /// in turn, as the bit-serial canonical loop tests it after reading one
    /// more bit; that loop reports truncation before reading a code's
    /// second or later bit at the stream's end.
    fn decode_canonical(&self, bits: &mut BitReader<'_>) -> Result<u32> {
        let window = bits.peek_bits(64);
        let remaining = bits.remaining_bits();
        for len in 1..=self.max_len as usize {
            if len >= 2 && remaining < len {
                return Err(PqrError::CorruptStream("huffman payload truncated".into()));
            }
            let code = window >> (64 - len);
            let (fc, cnt) = (self.first_code[len], self.count_at[len] as u64);
            if code >= fc && code - fc < cnt {
                bits.skip(len);
                return Ok(self.order[self.first_idx[len] + (code - fc) as usize]);
            }
        }
        if remaining <= self.max_len as usize {
            return Err(PqrError::CorruptStream("huffman payload truncated".into()));
        }
        Err(PqrError::CorruptStream("invalid huffman code".into()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_simple() {
        let syms = vec![0u32, 1, 1, 2, 2, 2, 2, 3];
        let blob = encode(&syms, 4).unwrap();
        assert_eq!(decode(&blob).unwrap(), syms);
    }

    #[test]
    fn roundtrip_single_symbol_stream() {
        let syms = vec![5u32; 1000];
        let blob = encode(&syms, 8).unwrap();
        assert_eq!(decode(&blob).unwrap(), syms);
        // Single-symbol stream costs ~1 bit/symbol + header.
        assert!(blob.len() < 1000 / 8 + 64);
    }

    #[test]
    fn roundtrip_empty() {
        let blob = encode(&[], 16).unwrap();
        assert!(decode(&blob).unwrap().is_empty());
    }

    #[test]
    fn skewed_distribution_compresses() {
        // 95% zeros — entropy ≈ 0.29 bits/symbol.
        let mut syms = vec![0u32; 9500];
        syms.extend(std::iter::repeat_n(1u32, 300));
        syms.extend(std::iter::repeat_n(2u32, 200));
        let blob = encode(&syms, 65536).unwrap();
        assert_eq!(decode(&blob).unwrap(), syms);
        assert!(blob.len() < 10_000 / 4, "blob {} too large", blob.len());
    }

    #[test]
    fn out_of_range_symbol_rejected() {
        assert!(encode(&[4], 4).is_err());
    }

    #[test]
    fn corrupt_payload_detected() {
        let syms: Vec<u32> = (0..64).map(|i| i % 7).collect();
        let blob = encode(&syms, 7).unwrap();
        let truncated = &blob[..blob.len() - 2];
        assert!(decode(truncated).is_err());
    }

    /// The bit-serial definition of [`decode`]: header parsing, the jump
    /// table, a sorted canonical order and one bit per loop iteration, each
    /// quarter decoded from its own stream in turn, with no table.
    fn decode_reference(bytes: &[u8]) -> Result<Vec<u32>> {
        let mut r = ByteReader::new(bytes);
        let alphabet = r.get_u32()? as usize;
        let count = r.get_u64()? as usize;
        let nruns = r.get_u32()? as usize;
        if alphabet > MAX_ALPHABET {
            return Err(PqrError::CorruptStream("alphabet".into()));
        }
        let mut lengths = Vec::new();
        for _ in 0..nruns {
            let l = u32::from(r.get_u8()?);
            let run = r.get_u32()? as usize;
            if l > MAX_CODE_LEN || run > alphabet - lengths.len() {
                return Err(PqrError::CorruptStream("length table".into()));
            }
            lengths.resize(lengths.len() + run, l);
        }
        if lengths.len() != alphabet {
            return Err(PqrError::CorruptStream("length table".into()));
        }
        let payload = r.get_bytes()?;
        if payload.len() < 12 {
            return Err(PqrError::CorruptStream("jump table".into()));
        }
        let mut streams = Vec::new();
        let mut at = 12usize;
        for i in 0..3 {
            let len = u32::from_le_bytes(payload[4 * i..4 * i + 4].try_into().unwrap()) as usize;
            if len > payload.len() - at {
                return Err(PqrError::CorruptStream("jump table".into()));
            }
            streams.push(&payload[at..at + len]);
            at += len;
        }
        streams.push(&payload[at..]);
        let max_len = lengths.iter().copied().max().unwrap_or(0);
        if max_len == 0 {
            return match count {
                0 => Ok(Vec::new()),
                _ => Err(PqrError::CorruptStream("no codes".into())),
            };
        }
        let mut order: Vec<usize> = (0..alphabet).filter(|&i| lengths[i] > 0).collect();
        order.sort_by_key(|&i| (lengths[i], i));
        let slots = (max_len + 2) as usize;
        let (mut first_code, mut first_idx, mut count_at) =
            (vec![0u64; slots], vec![0usize; slots], vec![0usize; slots]);
        let (mut code, mut i) = (0u64, 0usize);
        for len in 1..=max_len {
            code <<= 1;
            first_code[len as usize] = code;
            first_idx[len as usize] = i;
            while i < order.len() && lengths[order[i]] == len {
                count_at[len as usize] += 1;
                code += 1;
                i += 1;
            }
        }
        let quarter = count.div_ceil(4);
        let owed: Vec<usize> = (0..4)
            .map(|q| ((q + 1) * quarter).min(count) - (q * quarter).min(count))
            .collect();
        for (stream, &owed) in streams.iter().zip(&owed) {
            if owed > stream.len().saturating_mul(8) {
                return Err(PqrError::CorruptStream("count".into()));
            }
        }
        let mut out = Vec::new();
        for (stream, owed) in streams.into_iter().zip(owed) {
            let mut bits = BitReader::new(stream);
            for _ in 0..owed {
                let (mut code, mut len) = (0u64, 0usize);
                loop {
                    if bits.remaining_bits() == 0 && len > 0 {
                        return Err(PqrError::CorruptStream("truncated".into()));
                    }
                    code = (code << 1) | u64::from(bits.get_bit());
                    len += 1;
                    if len > max_len as usize {
                        return Err(PqrError::CorruptStream("invalid code".into()));
                    }
                    let (fc, cnt) = (first_code[len], count_at[len] as u64);
                    if cnt > 0 && code >= fc && code < fc + cnt {
                        out.push(order[first_idx[len] + (code - fc) as usize] as u32);
                        break;
                    }
                }
            }
        }
        Ok(out)
    }

    /// Quantizer-like symbols peaked at `centre`, within `spread` of it.
    fn peaked(n: usize, spread: u32, centre: u32) -> Vec<u32> {
        let mut s = 0xfeed_beefu64;
        (0..n)
            .map(|_| {
                s ^= s << 13;
                s ^= s >> 7;
                s ^= s << 17;
                // squaring a uniform draw concentrates mass at the centre
                let u = ((s >> 11) as f64) / (1u64 << 53) as f64;
                let g = (u * u * f64::from(spread)) as i64;
                let g = if s & 1 == 0 { g } else { -g };
                (i64::from(centre) + g) as u32
            })
            .collect()
    }

    /// A blob with a hand-written length table (`(length, run)` pairs) and
    /// payload (jump table included).
    fn crafted(runs: &[(u8, u32)], count: u64, payload: &[u8]) -> Vec<u8> {
        let mut w = ByteWriter::new();
        w.put_u32(runs.iter().map(|&(_, r)| r).sum());
        w.put_u64(count);
        w.put_u32(runs.len() as u32);
        for &(l, r) in runs {
            w.put_u8(l);
            w.put_u32(r);
        }
        w.put_bytes(payload);
        w.finish()
    }

    /// A payload of four streams behind the jump table that gives their
    /// lengths.
    fn four(streams: [&[u8]; 4]) -> Vec<u8> {
        let mut payload = Vec::new();
        for s in &streams[..3] {
            payload.extend_from_slice(&(s.len() as u32).to_le_bytes());
        }
        for s in streams {
            payload.extend_from_slice(s);
        }
        payload
    }

    /// Where `blob`'s payload starts (after its `u64` length) and its
    /// four streams.
    fn payload_of(blob: &[u8]) -> (usize, [&[u8]; 4]) {
        let nruns = u32::from_le_bytes(blob[12..16].try_into().unwrap()) as usize;
        let at = 16 + 5 * nruns + 8;
        (at, split_streams(&blob[at..]).unwrap())
    }

    /// A complete code with one symbol at every length 1..=32, and four
    /// streams of `count / 4` bytes each.
    fn deepest_code_blob(count: u64) -> Vec<u8> {
        let mut runs: Vec<(u8, u32)> = (1..MAX_CODE_LEN as u8).map(|l| (l, 1)).collect();
        runs.push((MAX_CODE_LEN as u8, 2));
        let mut s = 0x1234_5678u64;
        // the code of length l is l − 1 ones then a zero (the last is all
        // ones), so stretches of ones walk the deep end of the code
        let bytes: Vec<u8> = (0..count)
            .map(|i| {
                s ^= s << 13;
                s ^= s >> 7;
                s ^= s << 17;
                if (i / 8) % 2 == 0 {
                    0xff
                } else {
                    s as u8
                }
            })
            .collect();
        let q = bytes.len() / 4;
        let streams = std::array::from_fn(|i| &bytes[i * q..(i + 1) * q]);
        crafted(&runs, count, &four(streams))
    }

    /// Both decoders on `bytes`: both fail, or both return the same symbols.
    fn assert_agrees(bytes: &[u8], what: &str) {
        let (table, reference) = (decode(bytes), decode_reference(bytes));
        assert_eq!(table.is_err(), reference.is_err(), "{what}: {table:?}");
        if let (Ok(t), Ok(r)) = (table, reference) {
            assert_eq!(t, r, "{what}");
        }
    }

    #[test]
    fn table_decode_equals_the_bit_serial_reference_on_valid_streams() {
        let mut blobs: Vec<Vec<u8>> = [2u32, 64, 2048]
            .iter()
            .map(|&spread| encode(&peaked(20_000, spread, 32768), 65536).unwrap())
            .collect();
        blobs.push(encode(&[7u32; 999], 16).unwrap());
        blobs.push(encode(&[0u32], 1).unwrap());
        // frequencies 2^k give code lengths up to 16, past the table
        let mut geometric = Vec::new();
        for k in 0..16u32 {
            geometric.extend(std::iter::repeat_n(k, 1 << k));
        }
        blobs.push(encode(&geometric, 16).unwrap());
        // counts 0–5 leave trailing quarters empty
        for count in 0..=5 {
            blobs.push(encode(&peaked(count, 3, 4), 9).unwrap());
        }
        // codes up to MAX_CODE_LEN
        blobs.push(deepest_code_blob(4000));
        for blob in &blobs {
            let want = decode_reference(blob).unwrap();
            assert_eq!(decode(blob).unwrap(), want);
        }
        for count in 0..=5 {
            let syms = peaked(count, 3, 4);
            assert_eq!(decode(&encode(&syms, 9).unwrap()).unwrap(), syms);
        }
        let deep = decode(blobs.last().unwrap()).unwrap();
        assert!(
            deep.iter().any(|&s| s >= 30),
            "no code of length ≥ 30 decoded"
        );
    }

    #[test]
    fn table_decode_fails_exactly_when_the_reference_does() {
        let blobs = [
            encode(&peaked(300, 2, 3), 6).unwrap(),
            encode(&peaked(200, 64, 65), 130).unwrap(),
            encode(&peaked(64, 2048, 2049), 4098).unwrap(),
            encode(&[5u32; 40], 8).unwrap(),
            deepest_code_blob(24),
        ];
        for blob in &blobs {
            let mut hostile: Vec<Vec<u8>> =
                (0..blob.len()).map(|cut| blob[..cut].to_vec()).collect();
            // each stream cut short under a consistent jump table and
            // payload length, so codes and pairs straddle its end at every
            // byte
            let (at, streams) = payload_of(blob);
            for i in 0..4 {
                for cut in 0..streams[i].len() {
                    let mut short = streams;
                    short[i] = &streams[i][..cut];
                    let payload = four(short);
                    let mut bytes = blob[..at - 8].to_vec();
                    bytes.extend_from_slice(&(payload.len() as u64).to_le_bytes());
                    bytes.extend_from_slice(&payload);
                    hostile.push(bytes);
                }
            }
            for bit in 0..blob.len() * 8 {
                let mut bad = blob.clone();
                bad[bit / 8] ^= 0x80 >> (bit % 8);
                hostile.push(bad);
            }
            for bytes in &hostile {
                assert_agrees(bytes, &format!("blob len {}", bytes.len()));
            }
        }
    }

    #[test]
    fn hostile_jump_tables_are_refused() {
        // 5 symbols of lengths 1, 2, 3, 4, 4: a one-bit code of zeros
        // decodes from the phantom bit past an empty stream, so only the
        // owed-symbol check refuses an empty stream owed symbols
        let runs = [(1, 1), (2, 1), (3, 1), (4, 2)];
        let stream = [0x5a_u8, 0xc3];
        let jump = |lens: [u32; 3], tail: usize| {
            let mut p: Vec<u8> = lens.iter().flat_map(|l| l.to_le_bytes()).collect();
            p.resize(12 + tail, 0x5a);
            p
        };
        let cases: Vec<(&str, Vec<u8>)> = vec![
            (
                "payload shorter than the jump table",
                crafted(&runs, 0, &[0; 11]),
            ),
            (
                "a length past the payload",
                crafted(&runs, 4, &jump([9, 0, 0], 8)),
            ),
            (
                "lengths summing past the payload",
                crafted(&runs, 4, &jump([5, 4, 0], 8)),
            ),
            (
                "lengths overflowing u32",
                crafted(&runs, 4, &jump([u32::MAX, u32::MAX, 2], 8)),
            ),
            (
                "a quarter owed symbols with an empty stream",
                crafted(&runs, 8, &four([&stream, &stream, &[], &stream])),
            ),
        ];
        for (what, blob) in &cases {
            assert!(
                matches!(decode(blob), Err(PqrError::CorruptStream(_))),
                "{what}"
            );
            assert!(decode_reference(blob).is_err(), "{what}");
        }
        // the same streams with nothing owed to the empty one decode
        let fine = crafted(&runs, 6, &four([&stream, &stream, &stream, &[]]));
        assert_eq!(decode(&fine).unwrap(), decode_reference(&fine).unwrap());
        assert_eq!(decode(&fine).unwrap().len(), 6);
    }

    #[test]
    fn the_payload_is_four_streams_over_the_quarters() {
        // each stream alone codes its quarter in the book's codes, padded
        // to a byte, and the layout costs the jump table over the streams
        let syms = peaked(1003, 64, 70);
        let blob = encode(&syms, 140).unwrap();
        let (at, streams) = payload_of(&blob);
        let mut freqs = vec![0u64; 140];
        for &s in &syms {
            freqs[s as usize] += 1;
        }
        let book = CodeBook::from_freqs(&freqs);
        let dec = Decoder::new(&book.lengths).unwrap();
        let quarter = syms.len().div_ceil(4);
        for (i, stream) in streams.iter().enumerate() {
            let part = &syms[i * quarter..((i + 1) * quarter).min(syms.len())];
            let bits: u32 = part.iter().map(|&s| book.lengths[s as usize]).sum();
            assert_eq!(stream.len(), bits.div_ceil(8) as usize, "stream {i}");
            let mut got = vec![0; part.len()];
            dec.decode_stream(&mut BitReader::new(stream), &mut got)
                .unwrap();
            assert_eq!(got, part, "stream {i}");
        }
        let streamed: usize = streams.iter().map(|s| s.len()).sum();
        assert_eq!(blob.len(), at + 12 + streamed);
    }

    #[test]
    fn canonical_codes_are_prefix_free() {
        let freqs = vec![10, 3, 0, 7, 1, 1, 25, 0, 2];
        let book = CodeBook::from_freqs(&freqs);
        let present: Vec<usize> = (0..freqs.len()).filter(|&i| freqs[i] > 0).collect();
        for &a in &present {
            for &b in &present {
                if a == b {
                    continue;
                }
                let (la, lb) = (book.lengths[a], book.lengths[b]);
                if la <= lb {
                    let prefix = book.codes[b] >> (lb - la);
                    assert_ne!(prefix, book.codes[a], "code {a} is prefix of {b}");
                }
            }
        }
    }

    #[test]
    fn kraft_inequality_holds() {
        let freqs: Vec<u64> = (1..200u64).collect();
        let book = CodeBook::from_freqs(&freqs);
        let kraft: f64 = book
            .lengths
            .iter()
            .filter(|&&l| l > 0)
            .map(|&l| (0.5f64).powi(l as i32))
            .sum();
        assert!(kraft <= 1.0 + 1e-9, "kraft = {kraft}");
    }
}
