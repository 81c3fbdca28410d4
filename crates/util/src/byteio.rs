//! Little-endian byte cursors for segment (de)serialisation.
//!
//! Progressive segments are stored as self-describing byte blobs; these
//! cursors keep the format code free of ad-hoc index arithmetic and turn
//! truncation into a recoverable [`PqrError::CorruptStream`].

use crate::error::{PqrError, Result};

/// Append-only little-endian writer.
#[derive(Debug, Default, Clone)]
pub struct ByteWriter {
    buf: Vec<u8>,
}

impl ByteWriter {
    /// Creates an empty writer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a writer with `cap` bytes reserved.
    pub fn with_capacity(cap: usize) -> Self {
        Self {
            buf: Vec::with_capacity(cap),
        }
    }

    /// Appends a `u8`.
    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Appends a `u32`.
    pub fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a `u64`.
    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends an `i64`.
    pub fn put_i64(&mut self, v: i64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends an `f64` as its IEEE-754 bit pattern.
    pub fn put_f64(&mut self, v: f64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a length-prefixed byte slice (`u64` length).
    pub fn put_bytes(&mut self, v: &[u8]) {
        self.put_u64(v.len() as u64);
        self.buf.extend_from_slice(v);
    }

    /// Appends raw bytes without a length prefix.
    pub fn put_raw(&mut self, v: &[u8]) {
        self.buf.extend_from_slice(v);
    }

    /// Appends a length-prefixed `f64` slice.
    pub fn put_f64_slice(&mut self, v: &[f64]) {
        self.put_u64(v.len() as u64);
        for &x in v {
            self.put_f64(x);
        }
    }

    /// Appends a length-prefixed `u64` slice.
    pub fn put_u64_slice(&mut self, v: &[u64]) {
        self.put_u64(v.len() as u64);
        for &x in v {
            self.put_u64(x);
        }
    }

    /// Current length in bytes.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Consumes the writer and returns the bytes.
    pub fn finish(self) -> Vec<u8> {
        self.buf
    }
}

/// Little-endian reader over a byte slice.
#[derive(Debug, Clone)]
pub struct ByteReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> ByteReader<'a> {
    /// Wraps a byte slice.
    pub fn new(buf: &'a [u8]) -> Self {
        Self { buf, pos: 0 }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8]> {
        // `pos <= len` is an invariant, so the subtraction cannot underflow;
        // comparing this way keeps a hostile `n` from overflowing `pos + n`.
        if n > self.buf.len() - self.pos {
            return Err(PqrError::CorruptStream(format!(
                "need {n} bytes at offset {}, have {}",
                self.pos,
                self.buf.len() - self.pos
            )));
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Reads a `u8`.
    pub fn get_u8(&mut self) -> Result<u8> {
        Ok(self.take(1)?[0])
    }

    /// Reads a `u32`.
    pub fn get_u32(&mut self) -> Result<u32> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    /// Reads a `u64`.
    pub fn get_u64(&mut self) -> Result<u64> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    /// Reads an `i64`.
    pub fn get_i64(&mut self) -> Result<i64> {
        Ok(i64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    /// Reads an `f64`.
    pub fn get_f64(&mut self) -> Result<f64> {
        Ok(f64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    /// Reads a length-prefixed byte slice.
    pub fn get_bytes(&mut self) -> Result<&'a [u8]> {
        let n = self.get_u64()? as usize;
        self.take(n)
    }

    /// Reads `n` raw bytes.
    pub fn get_raw(&mut self, n: usize) -> Result<&'a [u8]> {
        self.take(n)
    }

    /// Reads a length-prefixed `f64` vector.
    pub fn get_f64_vec(&mut self) -> Result<Vec<f64>> {
        let n = self.get_u64()? as usize;
        if n > self.buf.len() / 8 + 1 {
            return Err(PqrError::CorruptStream(format!(
                "f64 vec length {n} exceeds stream"
            )));
        }
        let mut v = Vec::with_capacity(n);
        for _ in 0..n {
            v.push(self.get_f64()?);
        }
        Ok(v)
    }

    /// Reads a length-prefixed `u64` vector.
    pub fn get_u64_vec(&mut self) -> Result<Vec<u64>> {
        let n = self.get_u64()? as usize;
        if n > self.buf.len() / 8 + 1 {
            return Err(PqrError::CorruptStream(format!(
                "u64 vec length {n} exceeds stream"
            )));
        }
        let mut v = Vec::with_capacity(n);
        for _ in 0..n {
            v.push(self.get_u64()?);
        }
        Ok(v)
    }

    /// Validates an element count read from the stream against the bytes
    /// that could plausibly back it: each element must occupy at least
    /// `min_entry_bytes` of the remaining input. Deserializers call this
    /// before `Vec::with_capacity(n)` so a hostile header cannot drive a
    /// multi-gigabyte preallocation.
    pub fn check_count(&self, n: usize, min_entry_bytes: usize) -> Result<usize> {
        debug_assert!(min_entry_bytes > 0);
        if n > self.remaining() / min_entry_bytes {
            return Err(PqrError::CorruptStream(format!(
                "count {n} implies at least {min_entry_bytes} B each but only {} B remain",
                self.remaining()
            )));
        }
        Ok(n)
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Current offset.
    pub fn position(&self) -> usize {
        self.pos
    }
}

/// Validates an array shape read from an untrusted stream and returns its
/// element count (counting zero extents as 1, so degenerate empty shapes
/// stay representable). Rejects shapes whose product overflows or exceeds
/// the [`MAX_ELEMENTS`] policy ceiling, so hostile dims cannot panic
/// element-count arithmetic. Deserializers share this so the plausibility
/// rule cannot drift between codecs.
///
/// This is a *policy* bound, not a full defense: readers eagerly allocate
/// O(elements) state, so a well-formed stream declaring a huge (but
/// accepted) shape still costs memory proportional to that shape — the
/// ceiling caps the damage at "large", not "absurd".
pub fn check_dims(dims: &[usize]) -> Result<usize> {
    dims.iter()
        .try_fold(1usize, |acc, &d| acc.checked_mul(d.max(1)))
        .filter(|&n| n <= MAX_ELEMENTS)
        .ok_or_else(|| PqrError::CorruptStream(format!("implausible dims {dims:?}")))
}

/// Largest element count [`check_dims`] accepts: 2^33 ≈ 8.6 G elements
/// (a 64 GiB raw `f64` field) — comfortably above the paper's largest
/// dataset (GE-large, ≈1 G points) with room for growth.
pub const MAX_ELEMENTS: usize = 1 << 33;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_scalars() {
        let mut w = ByteWriter::new();
        w.put_u8(7);
        w.put_u32(0xdead_beef);
        w.put_u64(u64::MAX - 3);
        w.put_i64(-42);
        w.put_f64(-1.5e-300);
        let bytes = w.finish();
        let mut r = ByteReader::new(&bytes);
        assert_eq!(r.get_u8().unwrap(), 7);
        assert_eq!(r.get_u32().unwrap(), 0xdead_beef);
        assert_eq!(r.get_u64().unwrap(), u64::MAX - 3);
        assert_eq!(r.get_i64().unwrap(), -42);
        assert_eq!(r.get_f64().unwrap(), -1.5e-300);
        assert_eq!(r.remaining(), 0);
    }

    #[test]
    fn roundtrip_slices() {
        let mut w = ByteWriter::new();
        w.put_bytes(b"hello");
        w.put_f64_slice(&[1.0, f64::NEG_INFINITY, 0.0]);
        w.put_u64_slice(&[3, 2, 1]);
        let bytes = w.finish();
        let mut r = ByteReader::new(&bytes);
        assert_eq!(r.get_bytes().unwrap(), b"hello");
        let f = r.get_f64_vec().unwrap();
        assert_eq!(f.len(), 3);
        assert_eq!(f[0], 1.0);
        assert!(f[1].is_infinite() && f[1] < 0.0);
        assert_eq!(r.get_u64_vec().unwrap(), vec![3, 2, 1]);
    }

    #[test]
    fn truncation_is_an_error_not_a_panic() {
        let mut w = ByteWriter::new();
        w.put_u64(123);
        let bytes = w.finish();
        let mut r = ByteReader::new(&bytes[..4]);
        assert!(matches!(r.get_u64(), Err(PqrError::CorruptStream(_))));
    }

    #[test]
    fn bogus_length_prefix_is_rejected() {
        let mut w = ByteWriter::new();
        w.put_u64(u64::MAX); // absurd element count
        let bytes = w.finish();
        let mut r = ByteReader::new(&bytes);
        assert!(r.get_f64_vec().is_err());
    }

    #[test]
    fn nan_roundtrips_bit_exact() {
        let nan = f64::from_bits(0x7ff8_0000_0000_0001);
        let mut w = ByteWriter::new();
        w.put_f64(nan);
        let bytes = w.finish();
        let mut r = ByteReader::new(&bytes);
        assert_eq!(r.get_f64().unwrap().to_bits(), nan.to_bits());
    }
}
