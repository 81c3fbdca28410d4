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
//! Decoding looks up the next 12 payload bits in a per-blob table. Each
//! entry holds the symbol whose code starts those bits and, when a second
//! whole code follows inside them, that symbol too, so one lookup often
//! yields two symbols. Whatever the table does not cover (longer codes,
//! unassigned prefixes, codes that run into the end of the payload) is
//! matched length by length against one peeked window with the test of the
//! bit-serial canonical loop that defines the format, so both paths accept
//! the same streams and return the same symbols and errors.

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

/// Encodes `symbols` (values `< alphabet`) into a self-describing byte blob.
///
/// Layout: `alphabet:u32`, `count:u64`, run-length-coded lengths, padded
/// bitstream. Returns an error if any symbol is out of range.
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

    let mut bits = BitWriter::with_capacity_bits(symbols.len() * 4);
    for &s in symbols {
        let len = book.lengths[s as usize];
        debug_assert!(len > 0, "encoding absent symbol");
        bits.put_bits(u64::from(book.codes[s as usize]), len);
    }
    w.put_bytes(&bits.finish());
    Ok(w.finish())
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
    let payload = r.get_bytes()?;
    let Some(dec) = Decoder::new(&lengths) else {
        return if count == 0 {
            Ok(Vec::new())
        } else {
            Err(PqrError::CorruptStream("no codes but nonzero count".into()))
        };
    };

    // Every symbol consumes at least one payload bit, so a count beyond the
    // payload's bit length can only come from a corrupt header.
    if count > payload.len().saturating_mul(8) {
        return Err(PqrError::CorruptStream(format!(
            "claimed symbol count {count} exceeds payload"
        )));
    }
    let mut bits = BitReader::new(payload);
    let mut out = vec![0; count];
    let mut k = 0;
    let tb = dec.table_bits;
    while k < count {
        // Decode from one 64-bit window while a whole table width is left
        // in it. A lookup yields one symbol, or two when both codes fit in
        // the table width; each code must end inside the payload. Anything
        // else goes to `decode_canonical`, one symbol at a time.
        let window = bits.peek_bits(64);
        let limit = bits.remaining_bits().min(64) as u32;
        let mut used = 0u32;
        while used + tb <= 64 && k < count {
            let entry = dec.table[((window << used) >> (64 - tb)) as usize];
            let (first, second) = (entry.first_len(), entry.second_len());
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
            out[k] = dec.decode_canonical(&mut bits)?;
            k += 1;
        }
    }
    Ok(out)
}

/// One entry of the decode table: up to two symbols whose codes lie back to
/// back in the indexing bits. Bits 0–23 and 24–47 hold the symbols (they are
/// below [`MAX_ALPHABET`] = 2²⁴), bits 48–55 and 56–63 their code lengths. A
/// zero length means no symbol: the first is absent when no code of at most
/// the table width matches, the second when the first leaves too few bits
/// for a whole second code.
#[derive(Clone, Copy)]
struct Entry(u64);

impl Entry {
    fn first(self) -> u32 {
        self.0 as u32 & 0xff_ffff
    }
    fn second(self) -> u32 {
        (self.0 >> 24) as u32 & 0xff_ffff
    }
    fn first_len(self) -> u32 {
        (self.0 >> 48) as u32 & 0xff
    }
    fn second_len(self) -> u32 {
        (self.0 >> 56) as u32
    }
}

/// Width of the first-level decode table: codes up to this long decode
/// with one lookup.
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
    /// `min(max_len, TABLE_BITS)`.
    table_bits: u32,
    /// Indexed by the next `table_bits` payload bits: the symbols
    /// [`Decoder::decode_canonical`] would match first, and second from the
    /// bits the first leaves, as far as the index covers them.
    table: Vec<Entry>,
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

        // `single` holds `symbol << 8 | len` per index. Canonical ranges
        // never share a prefix (`first_code` doubles past every shorter
        // range), so each index gets at most one code. A hostile length
        // table can assign codes wider than their length; the canonical
        // match never matches those, so they get no entry.
        let table_bits = max_len.min(TABLE_BITS);
        let size = 1usize << table_bits;
        let mut single = vec![0u32; size];
        for len in 1..=table_bits {
            let (lo, cnt) = (first_code[len as usize], count_at[len as usize] as u64);
            let hi = (lo + cnt).min(1 << len);
            let shift = table_bits - len;
            for c in lo..hi {
                let sym = order[first_idx[len as usize] + (c - lo) as usize];
                let entry = (sym << 8) | len;
                single[(c << shift) as usize..((c + 1) << shift) as usize].fill(entry);
            }
        }
        // The second code starts where the first ends. Its lookup index
        // has the first's `len` bits shifted out and zeros shifted in, so
        // the entry found there is the right one only if its code fits in
        // the `table_bits − len` real bits.
        let table = (0..size)
            .map(|idx| {
                let first = single[idx];
                let len = first & 0xff;
                let mut entry = u64::from(first >> 8) | u64::from(len) << 48;
                if len != 0 && len < table_bits {
                    let second = single[(idx << len) & (size - 1)];
                    let len2 = second & 0xff;
                    if len2 != 0 && len + len2 <= table_bits {
                        entry |= u64::from(second >> 8) << 24 | u64::from(len2) << 56;
                    }
                }
                Entry(entry)
            })
            .collect();
        Some(Self {
            order,
            max_len,
            first_code,
            first_idx,
            count_at,
            table_bits,
            table,
        })
    }

    /// Decodes one symbol the table could not: codes longer than the
    /// table, prefixes no code matches, and codes that reach the end of the
    /// payload (whose first bit may be the phantom zero past it). Every code
    /// fits in one peeked window, so each length is tested on that window
    /// in turn, as the bit-serial canonical loop tests it after reading one
    /// more bit; that loop reports truncation before reading a code's
    /// second or later bit at the payload end.
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

    /// The bit-serial definition of [`decode`]: header parsing, a sorted
    /// canonical order and one bit per loop iteration, with no table.
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
        if count > payload.len().saturating_mul(8) {
            return Err(PqrError::CorruptStream("count".into()));
        }
        let mut bits = BitReader::new(payload);
        let mut out = Vec::new();
        for _ in 0..count {
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

    /// A blob with a hand-written length table (`(length, run)` pairs).
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

    /// A complete code with one symbol at every length 1..=32.
    fn deepest_code_blob(count: u64) -> Vec<u8> {
        let mut runs: Vec<(u8, u32)> = (1..MAX_CODE_LEN as u8).map(|l| (l, 1)).collect();
        runs.push((MAX_CODE_LEN as u8, 2));
        let mut s = 0x1234_5678u64;
        // the code of length l is l − 1 ones then a zero (the last is all
        // ones), so stretches of ones walk the deep end of the code
        let payload: Vec<u8> = (0..count)
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
        crafted(&runs, count, &payload)
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
        // codes up to MAX_CODE_LEN
        blobs.push(deepest_code_blob(4000));
        for blob in &blobs {
            let want = decode_reference(blob).unwrap();
            assert_eq!(decode(blob).unwrap(), want);
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
            // the payload cut short under a consistent length field, so
            // codes and pairs straddle its end at every byte
            let nruns = u32::from_le_bytes(blob[12..16].try_into().unwrap()) as usize;
            let header = 16 + 5 * nruns;
            let payload = &blob[header + 8..];
            for cut in 0..payload.len() {
                let mut short = blob[..header].to_vec();
                short.extend_from_slice(&(cut as u64).to_le_bytes());
                short.extend_from_slice(&payload[..cut]);
                hostile.push(short);
            }
            for bit in 0..blob.len() * 8 {
                let mut bad = blob.clone();
                bad[bit / 8] ^= 0x80 >> (bit % 8);
                hostile.push(bad);
            }
            for bytes in &hostile {
                let (table, reference) = (decode(bytes), decode_reference(bytes));
                assert_eq!(
                    table.is_err(),
                    reference.is_err(),
                    "blob len {}",
                    bytes.len()
                );
                if let (Ok(t), Ok(r)) = (table, reference) {
                    assert_eq!(t, r);
                }
            }
        }
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
