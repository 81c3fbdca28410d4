//! MSB-first bit-level I/O.
//!
//! Used by the bitplane encoder (`pqr-mgard`) and the Huffman coder. Bits are
//! packed most-significant-bit first within each byte, which keeps the
//! encoded planes byte-aligned per plane and makes the streams easy to
//! inspect in tests.
//!
//! Both sides move whole words: the writer stages bits in a `u64` and
//! appends it once full, the reader serves
//! [`BitReader::peek_bits`] from one big-endian word load, so table-driven
//! decoders pay per symbol rather than per bit.

/// Accumulates bits MSB-first into a byte vector.
#[derive(Debug, Default, Clone)]
pub struct BitWriter {
    buf: Vec<u8>,
    /// Pending bits: the low `nbits` bits of `acc`, oldest most significant.
    acc: u64,
    /// Number of pending bits (0..64 between calls).
    nbits: u32,
}

impl BitWriter {
    /// Creates an empty writer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a writer with space reserved for `bits` bits.
    pub fn with_capacity_bits(bits: usize) -> Self {
        Self {
            buf: Vec::with_capacity(bits / 8 + 8),
            acc: 0,
            nbits: 0,
        }
    }

    /// Creates a writer that appends to `buf`, whose bytes [`BitWriter::finish`]
    /// returns ahead of the new ones.
    pub fn appending(buf: Vec<u8>) -> Self {
        Self {
            buf,
            acc: 0,
            nbits: 0,
        }
    }

    /// Appends a single bit.
    #[inline]
    pub fn put_bit(&mut self, bit: bool) {
        self.put_bits(u64::from(bit), 1);
    }

    /// Appends the low `n` bits of `v`, most-significant first. `n <= 64`.
    /// Bits are staged in one word, which is appended whole once full.
    #[inline]
    pub fn put_bits(&mut self, v: u64, n: u32) {
        debug_assert!(n <= 64);
        if n == 0 {
            return;
        }
        let v = if n == 64 { v } else { v & ((1u64 << n) - 1) };
        let free = 64 - self.nbits;
        if n < free {
            self.acc = (self.acc << n) | v;
            self.nbits += n;
            return;
        }
        // the top `free` bits of `v` complete the staged word
        let rest = n - free;
        let word = if free == 64 {
            v
        } else {
            (self.acc << free) | (v >> rest)
        };
        self.buf.extend_from_slice(&word.to_be_bytes());
        self.acc = v & ((1u64 << rest) - 1);
        self.nbits = rest;
    }

    /// Total number of bits written so far.
    pub fn len_bits(&self) -> usize {
        self.buf.len() * 8 + self.nbits as usize
    }

    /// Flushes the staged bits (zero-padded to a byte) and returns the
    /// byte stream.
    pub fn finish(mut self) -> Vec<u8> {
        if self.nbits > 0 {
            let tail = (self.acc << (64 - self.nbits)).to_be_bytes();
            self.buf
                .extend_from_slice(&tail[..self.nbits.div_ceil(8) as usize]);
        }
        self.buf
    }
}

/// Reads bits MSB-first from a byte slice.
#[derive(Debug, Clone)]
pub struct BitReader<'a> {
    buf: &'a [u8],
    /// Next bit index (absolute, from the start of `buf`).
    pos: usize,
}

impl<'a> BitReader<'a> {
    /// Wraps a byte slice. Reading past the end yields zeros; use
    /// [`BitReader::remaining_bits`] to detect truncation where it matters.
    pub fn new(buf: &'a [u8]) -> Self {
        Self { buf, pos: 0 }
    }

    /// Reads one bit; returns `false` past the end of the stream.
    #[inline]
    pub fn get_bit(&mut self) -> bool {
        let byte = self.pos / 8;
        if byte >= self.buf.len() {
            self.pos += 1;
            return false;
        }
        let shift = 7 - (self.pos % 8) as u32;
        self.pos += 1;
        (self.buf[byte] >> shift) & 1 == 1
    }

    /// Reads `n` bits MSB-first into the low bits of the result. `n <= 64`.
    #[inline]
    pub fn get_bits(&mut self, n: u32) -> u64 {
        let v = self.peek_bits(n);
        self.skip(n as usize);
        v
    }

    /// The next `k` bits MSB-first in the low bits of the result, without
    /// consuming them; bits past the end read as zero. `k <= 64`.
    #[inline]
    pub fn peek_bits(&self, k: u32) -> u64 {
        debug_assert!(k <= 64);
        if k == 0 {
            return 0;
        }
        self.window() >> (64 - k)
    }

    /// Advances past `k` bits (past the end is allowed, as with
    /// [`BitReader::get_bit`]).
    #[inline]
    pub fn skip(&mut self, k: usize) {
        self.pos += k;
    }

    /// The next 64 bits MSB-first, zero past the end.
    #[inline]
    fn window(&self) -> u64 {
        let byte = self.pos / 8;
        let off = (self.pos % 8) as u32;
        let word = self.be_word(byte);
        if off == 0 {
            word
        } else {
            let next = self.buf.get(byte + 8).copied().unwrap_or(0);
            (word << off) | (u64::from(next) >> (8 - off))
        }
    }

    /// Big-endian load of bytes `byte..byte + 8`, zero past the end.
    #[inline]
    fn be_word(&self, byte: usize) -> u64 {
        match self.buf.get(byte..byte + 8) {
            Some(b) => u64::from_be_bytes(b.try_into().unwrap()),
            None => {
                let mut tail = [0u8; 8];
                if let Some(rest) = self.buf.get(byte..) {
                    tail[..rest.len()].copy_from_slice(rest);
                }
                u64::from_be_bytes(tail)
            }
        }
    }

    /// Number of bits left before the physical end of the buffer.
    pub fn remaining_bits(&self) -> usize {
        (self.buf.len() * 8).saturating_sub(self.pos)
    }

    /// Absolute bit position.
    pub fn position(&self) -> usize {
        self.pos
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_single_bits() {
        let mut w = BitWriter::new();
        let pattern = [true, false, true, true, false, false, true, false, true];
        for &b in &pattern {
            w.put_bit(b);
        }
        assert_eq!(w.len_bits(), 9);
        let bytes = w.finish();
        assert_eq!(bytes.len(), 2);
        let mut r = BitReader::new(&bytes);
        for &b in &pattern {
            assert_eq!(r.get_bit(), b);
        }
    }

    #[test]
    fn roundtrip_multi_bit_values() {
        let mut w = BitWriter::new();
        w.put_bits(0b1011, 4);
        w.put_bits(0xdead_beef, 32);
        w.put_bits(1, 1);
        w.put_bits(u64::MAX, 64);
        let bytes = w.finish();
        let mut r = BitReader::new(&bytes);
        assert_eq!(r.get_bits(4), 0b1011);
        assert_eq!(r.get_bits(32), 0xdead_beef);
        assert_eq!(r.get_bits(1), 1);
        assert_eq!(r.get_bits(64), u64::MAX);
    }

    #[test]
    fn reading_past_end_returns_zeros() {
        let bytes = BitWriter::new().finish();
        assert!(bytes.is_empty());
        let mut r = BitReader::new(&bytes);
        assert!(!r.get_bit());
        assert_eq!(r.get_bits(16), 0);
        assert_eq!(r.remaining_bits(), 0);
    }

    #[test]
    fn zero_bit_write_is_noop() {
        let mut w = BitWriter::new();
        w.put_bits(0xff, 0);
        assert_eq!(w.len_bits(), 0);
        assert!(w.finish().is_empty());
    }

    #[test]
    fn peek_and_skip_match_bit_serial_reads_at_every_offset() {
        // 11 bytes: every offset forces the window across a ninth byte,
        // and the last offsets read zeros past the end
        let bytes: Vec<u8> = (0..11u8).map(|i| i.wrapping_mul(0x9d) ^ 0x5a).collect();
        for start in 0..bytes.len() * 8 + 3 {
            for k in [0u32, 1, 7, 12, 33, 57, 64] {
                let mut serial = BitReader::new(&bytes);
                let mut fast = BitReader::new(&bytes);
                serial.skip(start);
                fast.skip(start);
                let want = (0..k).fold(0u64, |v, _| (v << 1) | u64::from(serial.get_bit()));
                assert_eq!(fast.peek_bits(k), want, "start {start} k {k}");
                assert_eq!(fast.get_bits(k), want, "start {start} k {k}");
                assert_eq!(fast.position(), serial.position());
                assert_eq!(fast.remaining_bits(), serial.remaining_bits());
            }
        }
    }

    #[test]
    fn chunked_writes_equal_bit_serial_writes() {
        // every width at every staged offset, so writes straddle the
        // staged word at every split point
        let mut chunked = BitWriter::new();
        let mut serial = BitWriter::new();
        let mut v = 0x0123_4567_89ab_cdefu64;
        for n in (0..=64u32).chain((0..=64).rev()) {
            v = v.rotate_left(7) ^ 0x9e37_79b9_7f4a_7c15;
            chunked.put_bits(v, n);
            for i in (0..n).rev() {
                serial.put_bit((v >> i) & 1 == 1);
            }
            assert_eq!(chunked.len_bits(), serial.len_bits());
        }
        assert_eq!(chunked.finish(), serial.finish());
    }

    #[test]
    fn position_tracks_reads() {
        let mut w = BitWriter::new();
        w.put_bits(0xabcd, 16);
        let bytes = w.finish();
        let mut r = BitReader::new(&bytes);
        r.get_bits(5);
        assert_eq!(r.position(), 5);
        assert_eq!(r.remaining_bits(), 11);
    }
}
