//! Mask-based outlier management (§V-A).
//!
//! Points where the masked fields are exactly zero make √-type QoI
//! estimates unboundable (Theorem 2's denominator vanishes as the
//! reconstruction approaches zero). The paper records such points in a
//! bitmap at refactor time; because the archive *certifies* their value is
//! exactly zero, the retrieval side can treat them as known — value 0,
//! ε = 0 — and the estimator never sees the pathological case.
//!
//! Deviation from the paper, documented in DIVERGENCES.md ("Outlier
//! mask"): the paper compacts the arrays (refactors only unmasked points);
//! we keep points in place (exact zeros cost virtually nothing under any of
//! our representations) and pin them at retrieval. The estimator-facing behaviour — the reason the mask
//! exists — is identical.

use pqr_util::byteio::{ByteReader, ByteWriter};
use pqr_util::error::{PqrError, Result};

/// Bitmap of points whose listed fields are exactly zero in the original
/// data.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ZeroMask {
    /// The field indices the mask certifies (e.g. Vx, Vy, Vz).
    fields: Vec<usize>,
    /// Packed bitmap, one bit per point.
    bits: Vec<u64>,
    len: usize,
}

impl ZeroMask {
    /// Builds a mask from a per-point boolean vector.
    pub fn new(fields: Vec<usize>, mask: Vec<bool>) -> Self {
        let len = mask.len();
        let mut bits = vec![0u64; len.div_ceil(64)];
        for (j, &m) in mask.iter().enumerate() {
            if m {
                bits[j / 64] |= 1u64 << (j % 64);
            }
        }
        Self { fields, bits, len }
    }

    /// Number of points covered.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when the mask covers no points.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The field indices this mask certifies as exactly zero.
    pub fn fields(&self) -> &[usize] {
        &self.fields
    }

    /// Whether point `j` is masked (certified all-zero).
    #[inline]
    pub fn is_masked(&self, j: usize) -> bool {
        debug_assert!(j < self.len);
        (self.bits[j / 64] >> (j % 64)) & 1 == 1
    }

    /// The packed bitmap: point `j` is masked iff bit `j % 64` of word
    /// `j / 64` is set.
    pub fn words(&self) -> &[u64] {
        &self.bits
    }

    /// Whether field `i` is covered by this mask.
    #[inline]
    pub fn covers_field(&self, i: usize) -> bool {
        self.fields.contains(&i)
    }

    /// Number of masked points.
    pub fn masked_count(&self) -> usize {
        self.bits.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Storage cost in bytes (what a retrieval moves for the mask).
    pub fn storage_bytes(&self) -> usize {
        8 + 8 * self.fields.len() + self.bits.len() * 8
    }

    /// Serializes the mask.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut w = ByteWriter::new();
        w.put_u64(self.len as u64);
        w.put_u64_slice(&self.fields.iter().map(|&f| f as u64).collect::<Vec<_>>());
        w.put_u64_slice(&self.bits);
        w.finish()
    }

    /// Deserializes a mask.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self> {
        let mut r = ByteReader::new(bytes);
        let len = r.get_u64()? as usize;
        let fields: Vec<usize> = r.get_u64_vec()?.into_iter().map(|v| v as usize).collect();
        let bits = r.get_u64_vec()?;
        if bits.len() != len.div_ceil(64) {
            return Err(PqrError::CorruptStream("mask bitmap size mismatch".into()));
        }
        Ok(Self { fields, bits, len })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bitmap_semantics() {
        let mask = ZeroMask::new(vec![0, 2], vec![true, false, true, true, false]);
        assert_eq!(mask.len(), 5);
        assert!(mask.is_masked(0));
        assert!(!mask.is_masked(1));
        assert!(mask.is_masked(3));
        assert_eq!(mask.masked_count(), 3);
        assert!(mask.covers_field(0));
        assert!(!mask.covers_field(1));
        assert!(mask.covers_field(2));
    }

    #[test]
    fn crosses_word_boundaries() {
        let mut v = vec![false; 130];
        v[63] = true;
        v[64] = true;
        v[129] = true;
        let mask = ZeroMask::new(vec![0], v);
        assert!(mask.is_masked(63));
        assert!(mask.is_masked(64));
        assert!(mask.is_masked(129));
        assert!(!mask.is_masked(65));
        assert_eq!(mask.masked_count(), 3);
    }

    #[test]
    fn serialization_roundtrip() {
        let v: Vec<bool> = (0..1000).map(|i| i % 7 == 0).collect();
        let mask = ZeroMask::new(vec![1, 3, 5], v);
        let bytes = mask.to_bytes();
        let back = ZeroMask::from_bytes(&bytes).unwrap();
        assert_eq!(mask, back);
    }

    #[test]
    fn corrupt_mask_rejected() {
        let mask = ZeroMask::new(vec![0], vec![true; 100]);
        let bytes = mask.to_bytes();
        assert!(ZeroMask::from_bytes(&bytes[..bytes.len() - 4]).is_err());
    }

    #[test]
    fn empty_mask() {
        let mask = ZeroMask::new(vec![], vec![]);
        assert!(mask.is_empty());
        assert_eq!(mask.masked_count(), 0);
        let back = ZeroMask::from_bytes(&mask.to_bytes()).unwrap();
        assert!(back.is_empty());
    }

    #[test]
    fn storage_cost_is_about_one_bit_per_point() {
        let mask = ZeroMask::new(vec![0, 1, 2], vec![false; 64_000]);
        assert!(mask.storage_bytes() < 64_000 / 8 + 64);
    }
}
