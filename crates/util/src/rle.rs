//! Zero-run run-length coding.
//!
//! Two codecs live here:
//!
//! * [`encode_bytes`]/[`decode_bytes`] — a byte-oriented zero-run codec used
//!   as the lossless backend of the SZ3 stand-in (standing in for zstd: the
//!   Huffman stage already removed entropy, long zero runs are what's left).
//! * [`encode_bits`]/[`decode_bits`] — a bit-oriented Elias-gamma run codec
//!   used on bitplanes, where high planes of smooth-field coefficients are
//!   overwhelmingly zero.

use crate::bitio::{BitReader, BitWriter};
use crate::byteio::{ByteReader, ByteWriter};
use crate::error::{PqrError, Result};

/// Run trigger: after this many identical literal bytes, a varint with the
/// remaining run length follows. Classic "packed RLE" — no escape byte, so
/// any byte value (0x00 and 0xFF runs from Huffman streams alike) collapses.
const RUN_TRIGGER: usize = 3;

/// Compresses runs of any repeated byte: a run of `b × N` (N ≥ 3) is coded
/// as `b b b varint(N−3)`. Shorter repeats pass through verbatim.
pub fn encode_bytes(input: &[u8]) -> Vec<u8> {
    let mut w = ByteWriter::with_capacity(input.len() / 2 + 16);
    w.put_u64(input.len() as u64);
    let mut i = 0;
    while i < input.len() {
        let b = input[i];
        let mut run = 1usize;
        while i + run < input.len() && input[i + run] == b {
            run += 1;
        }
        if run >= RUN_TRIGGER {
            for _ in 0..RUN_TRIGGER {
                w.put_u8(b);
            }
            put_varint(&mut w, (run - RUN_TRIGGER) as u64);
        } else {
            for _ in 0..run {
                w.put_u8(b);
            }
        }
        i += run;
    }
    w.finish()
}

/// Largest decoded size [`decode_bytes`] will accept from a stream's length
/// header. Every blob in this workspace is a per-variable entropy stream and
/// stays far below this; a larger claim is treated as corruption so hostile
/// headers cannot trigger exabyte allocations.
pub const MAX_DECODED_BYTES: usize = 1 << 31;

/// Decompresses a blob from [`encode_bytes`].
///
/// The stream alternates literal spans and runs. A span ends at its first
/// three identical bytes, counted from the span's own start (a run's byte
/// does not carry into the next span), and a varint run length follows
/// it. Each span is copied whole and each run expanded whole. Bytes
/// are taken only while the output is short of `n`: a span is cut at `n`,
/// and a triple that ends exactly at `n` still reads its varint.
pub fn decode_bytes(input: &[u8]) -> Result<Vec<u8>> {
    let mut r = ByteReader::new(input);
    let n = r.get_u64()? as usize;
    if n > MAX_DECODED_BYTES {
        return Err(PqrError::CorruptStream(format!(
            "claimed decoded size {n} exceeds limit"
        )));
    }
    let mut rest = &input[input.len() - r.remaining()..];
    // Capacity hint only: bounded by the input size so a corrupt header that
    // passes the limit check still cannot force a large pre-allocation.
    let mut out = Vec::with_capacity(n.min(rest.len().saturating_mul(4) + 64));
    while out.len() < n {
        let window = &rest[..rest.len().min(n - out.len())];
        let Some(at) = window
            .windows(RUN_TRIGGER)
            .position(|w| w[0] == w[1] && w[1] == w[2])
        else {
            // no triple before `n`: the rest of the output is literal
            out.extend_from_slice(window);
            if out.len() < n {
                return Err(PqrError::CorruptStream(format!(
                    "byte stream ends {} bytes short",
                    n - out.len()
                )));
            }
            break;
        };
        let span = at + RUN_TRIGGER;
        out.extend_from_slice(&window[..span]);
        let mut tail = ByteReader::new(&rest[span..]);
        let extra = get_varint(&mut tail)? as usize;
        if extra > n - out.len() {
            return Err(PqrError::CorruptStream("byte run overflows output".into()));
        }
        out.try_reserve(extra).map_err(|_| {
            PqrError::CorruptStream(format!("cannot allocate run of {extra} bytes"))
        })?;
        out.resize(out.len() + extra, window[at]);
        rest = &rest[rest.len() - tail.remaining()..];
    }
    Ok(out)
}

fn put_varint(w: &mut ByteWriter, mut v: u64) {
    loop {
        let b = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            w.put_u8(b);
            break;
        }
        w.put_u8(b | 0x80);
    }
}

fn get_varint(r: &mut ByteReader<'_>) -> Result<u64> {
    let mut v = 0u64;
    let mut shift = 0u32;
    loop {
        let b = r.get_u8()?;
        if shift >= 64 {
            return Err(PqrError::CorruptStream("varint too long".into()));
        }
        v |= u64::from(b & 0x7f) << shift;
        if b & 0x80 == 0 {
            return Ok(v);
        }
        shift += 7;
    }
}

/// Encodes a bit vector as alternating zero/one run lengths in Elias-gamma.
///
/// The stream starts with the first bit value, then gamma-coded run lengths.
/// Ideal for sparse bitplanes (mostly-zero planes shrink dramatically); for
/// dense planes the caller should fall back to raw packing — see
/// [`encode_bits_auto`].
pub fn encode_bits(bits: &[bool]) -> Vec<u8> {
    let mut w = BitWriter::with_capacity_bits(bits.len() / 4 + 64);
    if bits.is_empty() {
        return w.finish();
    }
    w.put_bit(bits[0]);
    let mut run_val = bits[0];
    let mut run_len = 0u64;
    for &b in bits {
        if b == run_val {
            run_len += 1;
        } else {
            put_gamma(&mut w, run_len);
            run_val = b;
            run_len = 1;
        }
    }
    put_gamma(&mut w, run_len);
    w.finish()
}

/// Decodes `n` bits from an [`encode_bits`] stream.
pub fn decode_bits(bytes: &[u8], n: usize) -> Result<Vec<bool>> {
    let mut out = Vec::with_capacity(n);
    if n == 0 {
        return Ok(out);
    }
    let mut r = BitReader::new(bytes);
    let mut val = r.get_bit();
    while out.len() < n {
        if r.remaining_bits() == 0 {
            return Err(PqrError::CorruptStream("bit-run stream truncated".into()));
        }
        let run = get_gamma(&mut r)? as usize;
        if run == 0 || out.len() + run > n {
            return Err(PqrError::CorruptStream("bad bit-run length".into()));
        }
        out.resize(out.len() + run, val);
        val = !val;
    }
    Ok(out)
}

/// Mode byte for [`encode_bits_auto`]: raw bit packing.
const MODE_RAW: u8 = 0;
/// Mode byte for [`encode_bits_auto`]: gamma run-length coding.
const MODE_RLE: u8 = 1;

/// Exact size in bits of the gamma code for `v ≥ 1`.
#[inline]
fn gamma_bits(v: u64) -> u64 {
    let n = u64::from(64 - v.leading_zeros());
    2 * n - 1
}

/// Encodes bits with whichever of {raw packing, run-length} is smaller.
/// The first byte is the mode tag. The run-length size is computed exactly
/// with a cheap counting pass first, so dense planes never pay for a gamma
/// encoding that would be thrown away (bitplane encoding is the refactor
/// hot path).
pub fn encode_bits_auto(bits: &[bool]) -> Vec<u8> {
    let raw_len = bits.len().div_ceil(8);
    let rle_smaller = if bits.is_empty() {
        false
    } else {
        // exact RLE size: 1 bit for the initial value + Σ gamma(run)
        let mut rle_bits = 1u64;
        let mut run_val = bits[0];
        let mut run_len = 0u64;
        for &b in bits {
            if b == run_val {
                run_len += 1;
            } else {
                rle_bits += gamma_bits(run_len);
                run_val = b;
                run_len = 1;
            }
            if rle_bits > 8 * raw_len as u64 {
                break; // already worse than raw
            }
        }
        rle_bits += gamma_bits(run_len.max(1));
        rle_bits.div_ceil(8) < raw_len as u64
    };
    if rle_smaller {
        let rle = encode_bits(bits);
        let mut out = Vec::with_capacity(rle.len() + 1);
        out.push(MODE_RLE);
        out.extend_from_slice(&rle);
        out
    } else {
        let mut w = BitWriter::with_capacity_bits(bits.len());
        for &b in bits {
            w.put_bit(b);
        }
        let mut out = Vec::with_capacity(raw_len + 1);
        out.push(MODE_RAW);
        out.extend_from_slice(&w.finish());
        out
    }
}

/// Decodes `n` bits from an [`encode_bits_auto`] stream.
pub fn decode_bits_auto(bytes: &[u8], n: usize) -> Result<Vec<bool>> {
    if bytes.is_empty() {
        return if n == 0 {
            Ok(Vec::new())
        } else {
            Err(PqrError::CorruptStream("empty auto-bit stream".into()))
        };
    }
    match bytes[0] {
        MODE_RLE => decode_bits(&bytes[1..], n),
        MODE_RAW => {
            if (bytes.len() - 1) * 8 < n {
                return Err(PqrError::CorruptStream("raw bit stream truncated".into()));
            }
            let mut r = BitReader::new(&bytes[1..]);
            Ok((0..n).map(|_| r.get_bit()).collect())
        }
        m => Err(PqrError::CorruptStream(format!("unknown bit mode {m}"))),
    }
}

// ---------------------------------------------------------------------------
// Word-parallel bit codecs
//
// Same wire formats as `encode_bits_auto`/`decode_bits_auto`, but operating
// on the LSB-first packed-word layout of `crate::bitplane_simd` instead of
// `Vec<bool>`: runs are counted 64 bits per `trailing_zeros`, raw planes
// move byte-at-a-time through `reverse_bits`, and RLE runs fill whole words.
// Byte-identical streams and identical error behaviour are asserted by the
// property tests below — these are the fast paths of the bitplane coders,
// not a new format.
// ---------------------------------------------------------------------------

/// Calls `f(value, run_length)` for each maximal bit run of the `n`-bit
/// packed sequence, in order; `f` returns `false` to stop early.
fn for_each_word_run(words: &[u64], n: usize, mut f: impl FnMut(bool, u64) -> bool) {
    if n == 0 {
        return;
    }
    let mut val = words[0] & 1 == 1;
    let mut run = 0u64;
    let mut pos = 0usize;
    while pos < n {
        let off = pos % 64;
        let avail = (64 - off).min(n - pos);
        // z bit t is 0 exactly when logical bit pos+t equals `val`
        let w = words[pos / 64] >> off;
        let z = if val { !w } else { w };
        let same = (z.trailing_zeros() as usize).min(avail);
        run += same as u64;
        pos += same;
        if same < avail {
            if !f(val, run) {
                return;
            }
            val = !val;
            run = 0;
        }
    }
    f(val, run);
}

/// Sets bits `[pos, pos + len)` of an LSB-first packed word slice.
fn fill_ones(words: &mut [u64], pos: usize, len: usize) {
    let mut w = pos / 64;
    let mut off = pos % 64;
    let mut left = len;
    while left > 0 {
        let take = (64 - off).min(left);
        let mask = if take == 64 {
            u64::MAX
        } else {
            ((1u64 << take) - 1) << off
        };
        words[w] |= mask;
        left -= take;
        w += 1;
        off = 0;
    }
}

/// Word `i` of the whole bit buffer `src` logically shifted right by `s`
/// bits (reads past the end as zero).
#[inline]
fn shifted_word(src: &[u64], i: usize, s: usize) -> u64 {
    let (ws, bs) = (s / 64, s % 64);
    let lo = src.get(i + ws).copied().unwrap_or(0);
    if bs == 0 {
        lo
    } else {
        let hi = src.get(i + ws + 1).copied().unwrap_or(0);
        (lo >> bs) | (hi << (64 - bs))
    }
}

/// Zeroes every bit at logical index `>= k` of the packed buffer.
fn zero_bits_from(words: &mut [u64], k: usize) {
    let (w, b) = (k / 64, k % 64);
    if w >= words.len() {
        return;
    }
    if b > 0 {
        words[w] &= (1u64 << b) - 1;
        for slot in &mut words[w + 1..] {
            *slot = 0;
        }
    } else {
        for slot in &mut words[w..] {
            *slot = 0;
        }
    }
}

/// Whether the gamma run-length coding of the `n`-bit packed sequence is
/// strictly smaller than raw packing — the mode decision of
/// [`encode_bits_auto`], computed word-parallel.
///
/// The exact RLE size is `1 + Σ gamma(runᵢ)` and
/// `gamma(r) = 2⌊log₂ r⌋ + 1`, so with `R` runs the total is
/// `1 + R + 2·Σ_{k≥1} #{runs of length ≥ 2^k}`. `R` falls out of one
/// popcount pass over the pair-equality mask, and each `#{runs ≥ 2^k}`
/// term is the popcount of `starts & A` for a doubling cascade of
/// "`2^k − 1` consecutive equal pairs" masks — dense planes (the common
/// case for low bitplanes) cross the worse-than-raw threshold after two
/// or three cascade levels, sparse planes exhaust the cascade after a
/// handful, so the decision costs a few word passes instead of one
/// `trailing_zeros` step per run. The decision (including the partial-sum
/// early exit) is identical to the scalar coder's: every partial sum is a
/// lower bound on the exact size, and the full cascade computes it
/// exactly.
fn rle_smaller_words(words: &[u64], n: usize) -> bool {
    debug_assert!(n > 0);
    let raw_len = n.div_ceil(8) as u64;
    let limit = 8 * raw_len;
    let nw = n.div_ceil(64);
    // pair-equality mask: bit i set iff logical bits i and i+1 agree
    // (defined for the n−1 adjacent pairs; tail bits forced to zero so
    // garbage beyond n and the final run cannot leak in)
    let mut eq = vec![0u64; nw];
    for (i, slot) in eq.iter_mut().enumerate() {
        let x = words[i];
        let nxt = words.get(i + 1).copied().unwrap_or(0);
        *slot = !(x ^ ((x >> 1) | (nxt << 63)));
    }
    zero_bits_from(&mut eq, n - 1);
    let equal_pairs: u64 = eq.iter().map(|w| u64::from(w.count_ones())).sum();
    let runs = 1 + (n as u64 - 1 - equal_pairs);
    let mut rle_bits = 1 + runs; // 1 initial-value bit + 1 gamma bit per run
    if rle_bits > limit {
        return false;
    }
    if runs <= (nw as u64).max(64) {
        // sparse plane: the per-run walk is O(words + runs), cheaper than
        // the cascade's log(max-run) full passes
        let mut rle_bits = 1u64;
        for_each_word_run(words, n, |_, run| {
            rle_bits += gamma_bits(run.max(1));
            true
        });
        return rle_bits.div_ceil(8) < raw_len;
    }
    // run-start mask: bit 0, plus every bit whose preceding pair differs
    let mut starts = vec![0u64; nw];
    let mut carry = 1u64;
    for (i, slot) in starts.iter_mut().enumerate() {
        let t = !eq[i];
        *slot = (t << 1) | carry;
        carry = t >> 63;
    }
    zero_bits_from(&mut starts, n);
    // doubling cascade: `a` holds "j consecutive equal pairs from here",
    // visiting j = 2^k − 1 so popcount(starts & a) = #{runs ≥ 2^k}
    let mut a = eq;
    let mut j = 1usize;
    loop {
        let c: u64 = starts
            .iter()
            .zip(&a)
            .map(|(&s, &w)| u64::from((s & w).count_ones()))
            .sum();
        if c == 0 {
            break; // no run reaches 2^k ⇒ the gamma sum is complete
        }
        rle_bits += 2 * c;
        if rle_bits > limit {
            return false; // partial sum already worse than raw
        }
        // A_{2j+1}(i) = A_j(i) ∧ A_j(i+j) ∧ A_j(i+j+1)
        if 2 * j + 1 >= n {
            break;
        }
        for i in 0..nw {
            let v = a[i] & shifted_word(&a, i, j) & shifted_word(&a, i, j + 1);
            a[i] = v;
        }
        j = 2 * j + 1;
    }
    rle_bits.div_ceil(8) < raw_len
}

/// [`encode_bits_auto`] over the packed-word layout: byte-identical output
/// for the sequence whose logical bit `i` is `words[i / 64] >> (i % 64) & 1`.
/// Bits of `words` beyond `n` are ignored.
pub fn encode_bits_auto_words(words: &[u64], n: usize) -> Vec<u8> {
    debug_assert!(words.len() >= n.div_ceil(64));
    let raw_len = n.div_ceil(8);
    let rle_smaller = n != 0 && rle_smaller_words(words, n);
    if rle_smaller {
        let mut w = BitWriter::with_capacity_bits(n / 4 + 64);
        w.put_bit(words[0] & 1 == 1);
        for_each_word_run(words, n, |_, run| {
            put_gamma(&mut w, run);
            true
        });
        let rle = w.finish();
        let mut out = Vec::with_capacity(rle.len() + 1);
        out.push(MODE_RLE);
        out.extend_from_slice(&rle);
        out
    } else {
        // MSB-first raw packing: logical bits 8k..8k+8 sit byte-aligned in
        // the LSB-first words, so each output byte is one reverse_bits
        let mut out = Vec::with_capacity(raw_len + 1);
        out.push(MODE_RAW);
        for k in 0..raw_len {
            let chunk = (words[k / 8] >> ((k % 8) * 8)) as u8;
            let rem = n - 8 * k;
            let masked = if rem >= 8 {
                chunk
            } else {
                chunk & ((1u8 << rem) - 1)
            };
            out.push(masked.reverse_bits());
        }
        out
    }
}

/// [`decode_bits_auto`] into the packed-word layout: identical acceptance
/// and error behaviour, with bits beyond `n` in the last word left zero.
pub fn decode_bits_auto_words(bytes: &[u8], n: usize) -> Result<Vec<u64>> {
    if bytes.is_empty() {
        return if n == 0 {
            Ok(Vec::new())
        } else {
            Err(PqrError::CorruptStream("empty auto-bit stream".into()))
        };
    }
    match bytes[0] {
        MODE_RLE => decode_bits_words(&bytes[1..], n),
        MODE_RAW => {
            if (bytes.len() - 1) * 8 < n {
                return Err(PqrError::CorruptStream("raw bit stream truncated".into()));
            }
            let mut words = vec![0u64; n.div_ceil(64)];
            for (k, &b) in bytes[1..1 + n.div_ceil(8)].iter().enumerate() {
                words[k / 8] |= u64::from(b.reverse_bits()) << ((k % 8) * 8);
            }
            mask_tail(&mut words, n);
            Ok(words)
        }
        m => Err(PqrError::CorruptStream(format!("unknown bit mode {m}"))),
    }
}

/// Zeroes the bits beyond `n` in the last word (hostile raw padding must
/// not leak into word-level significance tracking).
fn mask_tail(words: &mut [u64], n: usize) {
    if !n.is_multiple_of(64) {
        if let Some(last) = words.last_mut() {
            *last &= (1u64 << (n % 64)) - 1;
        }
    }
}

/// [`decode_bits`] into the packed-word layout (same stream, same errors).
fn decode_bits_words(bytes: &[u8], n: usize) -> Result<Vec<u64>> {
    let mut words = vec![0u64; n.div_ceil(64)];
    if n == 0 {
        return Ok(words);
    }
    let mut r = BitReader::new(bytes);
    let mut val = r.get_bit();
    let mut pos = 0usize;
    while pos < n {
        if r.remaining_bits() == 0 {
            return Err(PqrError::CorruptStream("bit-run stream truncated".into()));
        }
        let run = get_gamma(&mut r)?;
        if run == 0 || run > (n - pos) as u64 {
            return Err(PqrError::CorruptStream("bad bit-run length".into()));
        }
        if val {
            fill_ones(&mut words, pos, run as usize);
        }
        pos += run as usize;
        val = !val;
    }
    Ok(words)
}

fn put_gamma(w: &mut BitWriter, v: u64) {
    debug_assert!(v >= 1);
    let nbits = 64 - v.leading_zeros();
    w.put_bits(0, nbits - 1);
    w.put_bits(v, nbits);
}

/// Reads one gamma code. The zero count comes from `leading_zeros` of a
/// peeked window whenever the whole code lies inside it; otherwise
/// [`get_gamma_bitwise`] reads it. Bits past the end peek as zero, so a
/// leading one found in the window is a real bit, every zero before it is
/// followed by one, and the bit loop would return the same value and
/// position (its tail bits may run past the end too).
fn get_gamma(r: &mut BitReader<'_>) -> Result<u64> {
    let window = r.peek_bits(64);
    let zeros = window.leading_zeros();
    if zeros < 32 {
        let len = 2 * zeros + 1;
        r.skip(len as usize);
        return Ok(window >> (64 - len));
    }
    get_gamma_bitwise(r)
}

/// The bit-at-a-time gamma reader: the definition [`get_gamma`] reproduces,
/// and its path for codes longer than one window (or with no one before
/// the end of the stream).
fn get_gamma_bitwise(r: &mut BitReader<'_>) -> Result<u64> {
    let mut zeros = 0u32;
    while !r.get_bit() {
        zeros += 1;
        // a u64 has at most 63 zeros before its leading one
        if zeros > 63 {
            return Err(PqrError::CorruptStream("gamma code too long".into()));
        }
        if r.remaining_bits() == 0 {
            return Err(PqrError::CorruptStream("gamma code truncated".into()));
        }
    }
    let rest = r.get_bits(zeros);
    Ok((1u64 << zeros) | rest)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn byte_roundtrip_mixed() {
        let mut data = vec![1u8, 2, 3];
        data.extend(vec![0u8; 1000]);
        data.extend(vec![9u8, 0, 0, 7]);
        let enc = encode_bytes(&data);
        assert!(enc.len() < data.len() / 4);
        assert_eq!(decode_bytes(&enc).unwrap(), data);
    }

    #[test]
    fn byte_roundtrip_ff_runs() {
        // all-ones Huffman bitstreams produce 0xFF runs — must collapse too
        let data = vec![0xffu8; 10_000];
        let enc = encode_bytes(&data);
        assert!(enc.len() < 32, "enc len {}", enc.len());
        assert_eq!(decode_bytes(&enc).unwrap(), data);
    }

    #[test]
    fn byte_roundtrip_no_zeros() {
        let data: Vec<u8> = (1..=255).cycle().take(4096).collect();
        let enc = encode_bytes(&data);
        assert_eq!(decode_bytes(&enc).unwrap(), data);
    }

    #[test]
    fn byte_roundtrip_runs_at_trigger_boundaries() {
        for run in 1..=10usize {
            let mut data = vec![7u8; run];
            data.push(8);
            data.extend(vec![9u8; run]);
            let enc = encode_bytes(&data);
            assert_eq!(decode_bytes(&enc).unwrap(), data, "run={run}");
        }
    }

    #[test]
    fn byte_roundtrip_empty() {
        let enc = encode_bytes(&[]);
        assert!(decode_bytes(&enc).unwrap().is_empty());
    }

    /// The byte-serial definition of [`decode_bytes`]: one byte per loop
    /// iteration, a repeat counter, and a varint after every third
    /// identical byte.
    fn decode_bytes_reference(input: &[u8]) -> Result<Vec<u8>> {
        let mut r = ByteReader::new(input);
        let n = r.get_u64()? as usize;
        if n > MAX_DECODED_BYTES {
            return Err(PqrError::CorruptStream("claimed size".into()));
        }
        let mut out = Vec::new();
        let mut repeat = 0usize; // consecutive identical bytes seen so far
        let mut last: u16 = 256; // impossible byte value
        while out.len() < n {
            let b = r.get_u8()?;
            out.push(b);
            if u16::from(b) == last {
                repeat += 1;
            } else {
                last = u16::from(b);
                repeat = 1;
            }
            if repeat == RUN_TRIGGER {
                let extra = get_varint(&mut r)? as usize;
                if extra > n - out.len() {
                    return Err(PqrError::CorruptStream("run overflows".into()));
                }
                out.resize(out.len() + extra, b);
                repeat = 0;
                last = 256;
            }
        }
        Ok(out)
    }

    /// `decode_bytes` and the reference agree on `input`: equal bytes, or
    /// both a `CorruptStream`.
    fn assert_matches_reference(input: &[u8]) {
        match (decode_bytes(input), decode_bytes_reference(input)) {
            (Ok(got), Ok(want)) => assert_eq!(got, want, "input {input:?}"),
            (Err(PqrError::CorruptStream(_)), Err(PqrError::CorruptStream(_))) => {}
            (got, want) => panic!("input {input:?}: {got:?} against {want:?}"),
        }
    }

    /// An [`encode_bytes`] stream's header with `n` replaced.
    fn with_len(enc: &[u8], n: u64) -> Vec<u8> {
        let mut out = n.to_le_bytes().to_vec();
        out.extend_from_slice(&enc[8..]);
        out
    }

    #[test]
    fn run_copy_decode_matches_the_byte_serial_reference() {
        let mut inputs: Vec<Vec<u8>> = vec![
            Vec::new(),
            vec![1, 2, 3],
            vec![7; 3],
            vec![7; 4],
            vec![7, 7, 8, 8, 8, 8, 9, 9],
            // a run's byte right after its run starts a new span
            [vec![4u8; 300], vec![4, 4, 5, 4, 4, 4]].concat(),
            (0..=255).cycle().take(700).collect(),
            [vec![0u8; 1000], vec![9, 0, 0, 7], vec![0xff; 130]].concat(),
        ];
        let mut s = 0x1357_9bdfu64;
        inputs.push(
            (0..2000)
                .map(|_| {
                    s ^= s << 13;
                    s ^= s >> 7;
                    s ^= s << 17;
                    (s % 3) as u8
                })
                .collect(),
        );
        for data in &inputs {
            let enc = encode_bytes(data);
            assert_eq!(decode_bytes(&enc).unwrap(), *data);
            for bytes in prefixes_and_flips(&enc) {
                assert_matches_reference(&bytes);
            }
            // length headers that stop short of, or run past, the stream
            for n in [0, 1, 2, 3, 4, data.len() / 2, data.len() + 1] {
                assert_matches_reference(&with_len(&enc, n as u64));
            }
        }
    }

    #[test]
    fn a_run_ending_exactly_at_n_reads_its_varint() {
        // `1 2 7 7 7 varint(2)`: the run fills the output to n exactly
        let enc = encode_bytes(&[1, 2, 7, 7, 7, 7, 7]);
        assert_eq!(enc[8..], [1, 2, 7, 7, 7, 2]);
        assert_matches_reference(&enc);
        assert_eq!(decode_bytes(&enc).unwrap(), [1, 2, 7, 7, 7, 7, 7]);
        // a triple ending at n needs its (zero) varint; without it both fail
        let enc = encode_bytes(&[5, 5, 5]);
        assert_eq!(enc[8..], [5, 5, 5, 0]);
        assert_eq!(decode_bytes(&enc).unwrap(), [5, 5, 5]);
        let cut = &enc[..enc.len() - 1];
        assert!(matches!(decode_bytes(cut), Err(PqrError::CorruptStream(_))));
        assert_matches_reference(cut);
        // a run one byte longer than what is left of n
        let mut over = with_len(&encode_bytes(&[1, 2, 7, 7, 7, 7, 7]), 6);
        assert_matches_reference(&over);
        over[13] = 1;
        assert_eq!(decode_bytes(&over).unwrap(), [1, 2, 7, 7, 7, 7]);
        assert_matches_reference(&over);
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(128))]

        #[test]
        fn run_copy_decode_matches_the_reference_on_random_streams(
            junk in proptest::collection::vec(proptest::prelude::any::<u8>(), 0..512),
            runs in proptest::collection::vec((0u8..4, 0usize..40), 0..40),
            cut in 0usize..4096,
        ) {
            // raw junk (a header of anything), junk behind a small length
            // header, and a runny stream cut at an arbitrary byte
            assert_matches_reference(&junk);
            let small = (junk.len() as u64 * 2).to_le_bytes();
            assert_matches_reference(&[&small[..], &junk].concat());
            let mut data = Vec::new();
            for (b, len) in runs {
                data.extend(std::iter::repeat_n(b, len));
            }
            let enc = encode_bytes(&data);
            proptest::prop_assert_eq!(decode_bytes(&enc).unwrap(), data);
            assert_matches_reference(&enc[..cut.min(enc.len())]);
        }
    }

    #[test]
    fn bit_roundtrip_sparse() {
        let mut bits = vec![false; 10_000];
        for i in (0..10_000).step_by(997) {
            bits[i] = true;
        }
        let enc = encode_bits(&bits);
        assert!(enc.len() < 10_000 / 8 / 4, "enc len {}", enc.len());
        assert_eq!(decode_bits(&enc, bits.len()).unwrap(), bits);
    }

    #[test]
    fn bit_roundtrip_dense_via_auto() {
        let bits: Vec<bool> = (0..4096).map(|i| i % 2 == 0).collect();
        let enc = encode_bits_auto(&bits);
        // Alternating bits defeat RLE; auto must pick raw (≤ n/8 + 1 + slack).
        assert!(enc.len() <= 4096 / 8 + 2);
        assert_eq!(decode_bits_auto(&enc, bits.len()).unwrap(), bits);
    }

    #[test]
    fn bit_roundtrip_all_ones() {
        let bits = vec![true; 777];
        let enc = encode_bits_auto(&bits);
        assert!(enc.len() < 16);
        assert_eq!(decode_bits_auto(&enc, 777).unwrap(), bits);
    }

    #[test]
    fn truncated_bit_stream_is_error() {
        let bits = vec![true; 100];
        let enc = encode_bits(&bits);
        assert!(decode_bits(&enc, 200).is_err());
    }

    /// Deterministic bit patterns spanning sparse, dense and run-heavy
    /// shapes — the regimes where the auto codec picks different modes.
    fn test_patterns() -> Vec<Vec<bool>> {
        let mut out = vec![
            Vec::new(),
            vec![true],
            vec![false],
            vec![true; 64],
            vec![false; 64],
            vec![true; 1000],
            (0..4096).map(|i| i % 2 == 0).collect(),
            (0..777).map(|i| i % 97 == 0).collect(),
            (0..513).map(|i| (i / 64) % 2 == 0).collect(),
            // one giant run then a dense alternating tail: forces the
            // cascade decision down many doubling levels before the
            // alternation pushes the exact size over the raw limit
            (0..3000).map(|i| i < 1500 || i % 2 == 0).collect(),
            // run lengths straddling powers of two (gamma-width edges)
            (0..1024)
                .map(|i| !matches!(i, 63 | 64 | 127 | 255 | 256 | 511 | 512))
                .collect(),
            // many runs of exactly 64 bits (word-aligned transitions)
            (0..4096).map(|i| (i / 63) % 2 == 0).collect(),
        ];
        let mut s = 0x2468_ace0u64;
        for density in [2u64, 5, 17, 63] {
            out.push(
                (0..2000)
                    .map(|_| {
                        s ^= s << 13;
                        s ^= s >> 7;
                        s ^= s << 17;
                        s % 64 < density
                    })
                    .collect(),
            );
        }
        out
    }

    #[test]
    fn word_encode_is_byte_identical_to_scalar() {
        for bits in test_patterns() {
            let words = crate::bitplane_simd::pack_bits(&bits);
            assert_eq!(
                encode_bits_auto_words(&words, bits.len()),
                encode_bits_auto(&bits),
                "pattern len {}",
                bits.len()
            );
        }
    }

    #[test]
    fn word_encode_ignores_garbage_past_n() {
        // callers may hand a buffer whose tail bits are stale; the stream
        // must depend on the first n bits only
        let bits: Vec<bool> = (0..100).map(|i| i % 3 == 0).collect();
        let mut words = crate::bitplane_simd::pack_bits(&bits);
        let clean = encode_bits_auto_words(&words, 100);
        if let Some(w) = words.last_mut() {
            *w |= !0u64 << 36; // poison bits 100.. of the last word
        }
        assert_eq!(encode_bits_auto_words(&words, 100), clean);
    }

    #[test]
    fn word_decode_matches_scalar_on_valid_streams() {
        for bits in test_patterns() {
            let enc = encode_bits_auto(&bits);
            let words = decode_bits_auto_words(&enc, bits.len()).unwrap();
            assert_eq!(crate::bitplane_simd::unpack_bits(&words, bits.len()), bits);
            // tail bits beyond n stay zero (significance tracking relies
            // on it)
            if bits.len() % 64 != 0 {
                if let Some(last) = words.last() {
                    assert_eq!(last >> (bits.len() % 64), 0);
                }
            }
        }
    }

    #[test]
    fn word_decode_fails_exactly_when_scalar_does() {
        // truncations, mode corruption and length lies must fail (or
        // succeed) identically through both decoders
        for bits in test_patterns() {
            let enc = encode_bits_auto(&bits);
            let n = bits.len();
            let mut hostile: Vec<(Vec<u8>, usize)> = Vec::new();
            for cut in [0usize, 1, enc.len() / 2, enc.len().saturating_sub(1)] {
                hostile.push((enc[..cut.min(enc.len())].to_vec(), n));
            }
            hostile.push((enc.clone(), n + 1)); // claim one bit too many
            hostile.push((enc.clone(), n * 2 + 64));
            if !enc.is_empty() {
                let mut bad = enc.clone();
                bad[0] = 9; // unknown mode
                hostile.push((bad, n));
            }
            for (bytes, want) in hostile {
                let scalar = decode_bits_auto(&bytes, want);
                let word = decode_bits_auto_words(&bytes, want);
                assert_eq!(
                    scalar.is_err(),
                    word.is_err(),
                    "divergence for len {} want {want}",
                    bytes.len()
                );
                if let (Ok(s), Ok(w)) = (&scalar, &word) {
                    assert_eq!(s, &crate::bitplane_simd::unpack_bits(w, want));
                }
            }
        }
    }

    /// Every strict prefix and every single-bit flip of `enc`.
    fn prefixes_and_flips(enc: &[u8]) -> Vec<Vec<u8>> {
        let mut out: Vec<Vec<u8>> = (0..enc.len()).map(|cut| enc[..cut].to_vec()).collect();
        for bit in 0..enc.len() * 8 {
            let mut bad = enc.to_vec();
            bad[bit / 8] ^= 0x80 >> (bit % 8);
            out.push(bad);
        }
        out
    }

    /// [`decode_bits`] with every gamma code read by the bit loop alone.
    fn decode_bits_bitwise(bytes: &[u8], n: usize) -> Result<Vec<bool>> {
        let mut out = Vec::with_capacity(n);
        if n == 0 {
            return Ok(out);
        }
        let mut r = BitReader::new(bytes);
        let mut val = r.get_bit();
        while out.len() < n {
            if r.remaining_bits() == 0 {
                return Err(PqrError::CorruptStream("bit-run stream truncated".into()));
            }
            let run = get_gamma_bitwise(&mut r)? as usize;
            if run == 0 || out.len() + run > n {
                return Err(PqrError::CorruptStream("bad bit-run length".into()));
            }
            out.resize(out.len() + run, val);
            val = !val;
        }
        Ok(out)
    }

    #[test]
    fn gamma_fast_path_matches_the_bit_loop_at_every_position() {
        // the patterns' run codes, plus codes past one window's reach
        let mut long = BitWriter::new();
        for v in [
            1u64,
            1 << 31,
            3,
            (1 << 32) + 5,
            1 << 40,
            7,
            1 << 63,
            u64::MAX,
            2,
        ] {
            put_gamma(&mut long, v);
        }
        let mut streams: Vec<Vec<u8>> = test_patterns().iter().map(|b| encode_bits(b)).collect();
        streams.push(long.finish());
        for enc in streams {
            for start in 0..=enc.len() * 8 {
                let mut fast = BitReader::new(&enc);
                fast.skip(start);
                let mut slow = fast.clone();
                match (get_gamma(&mut fast), get_gamma_bitwise(&mut slow)) {
                    (Ok(a), Ok(b)) => {
                        assert_eq!(a, b, "start {start}");
                        assert_eq!(fast.position(), slow.position());
                    }
                    (a, b) => assert_eq!(a.is_err(), b.is_err(), "start {start}"),
                }
            }
        }
    }

    #[test]
    fn gamma_fast_path_fails_exactly_when_the_bit_loop_does() {
        // valid streams, their strict prefixes and single-bit flips, each
        // decoded through the fast gamma path (scalar and word decoders)
        // and through the bit loop alone
        for bits in test_patterns() {
            let n = bits.len();
            let enc = encode_bits(&bits);
            let mut streams = prefixes_and_flips(&enc);
            streams.push(enc);
            for bytes in streams {
                let reference = decode_bits_bitwise(&bytes, n);
                let scalar = decode_bits(&bytes, n);
                let word = decode_bits_words(&bytes, n);
                assert_eq!(scalar.is_err(), reference.is_err(), "len {n}");
                assert_eq!(word.is_err(), reference.is_err(), "len {n}");
                if let (Ok(r), Ok(s), Ok(w)) = (&reference, &scalar, &word) {
                    assert_eq!(s, r);
                    assert_eq!(&crate::bitplane_simd::unpack_bits(w, n), r);
                }
            }
        }
    }

    #[test]
    fn sixty_four_zero_gamma_prefix_is_corrupt() {
        // a start bit, 64 zeros, a one, then 64 bits: no u64 has a gamma
        // code this long, so both decoders must reject it (it used to
        // overflow `1 << zeros`)
        let mut w = BitWriter::new();
        w.put_bit(false);
        w.put_bits(0, 64);
        w.put_bit(true);
        w.put_bits(0, 64);
        let mut stream = vec![MODE_RLE];
        stream.extend(w.finish());
        for n in [1usize, 2, 1000] {
            assert!(matches!(
                decode_bits_auto(&stream, n),
                Err(PqrError::CorruptStream(_))
            ));
            assert!(matches!(
                decode_bits_auto_words(&stream, n),
                Err(PqrError::CorruptStream(_))
            ));
        }
    }

    #[test]
    fn word_raw_decode_masks_hostile_padding() {
        // a raw stream's final-byte padding is attacker-controlled; the
        // word decoder must not leak it past n
        let bits: Vec<bool> = (0..9).map(|i| i % 2 == 0).collect(); // defeats RLE
        let mut enc = encode_bits_auto(&bits);
        assert_eq!(enc[0], MODE_RAW);
        *enc.last_mut().unwrap() |= 0x7f; // set the padding
        let words = decode_bits_auto_words(&enc, 9).unwrap();
        assert_eq!(words[0], 0b1_0101_0101);
    }

    #[test]
    fn varint_roundtrip_extremes() {
        let mut w = ByteWriter::new();
        for v in [0u64, 1, 127, 128, 16_383, u64::MAX] {
            put_varint(&mut w, v);
        }
        let bytes = w.finish();
        let mut r = ByteReader::new(&bytes);
        for v in [0u64, 1, 127, 128, 16_383, u64::MAX] {
            assert_eq!(get_varint(&mut r).unwrap(), v);
        }
    }
}
