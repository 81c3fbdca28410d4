//! Refactoring: decompose → per-level bitplane segments + metadata.

use crate::bitplane::{encode_level, encode_level_scalar, EncodedLevel, PLANES};
use crate::hierarchy::{level_coefficient_count, level_strides};
use crate::retrieve::MgardReader;
use crate::transform::{decompose, gather_level, Basis};
use pqr_util::byteio::{ByteReader, ByteWriter};
use pqr_util::error::{PqrError, Result};

/// Metadata format version.
const VERSION: u8 = 1;

/// Produces progressive multilevel streams (PMGARD / PMGARD-HB refactoring,
/// Algorithm 1's `refactor` for this representation).
#[derive(Debug, Clone, Copy, Default)]
pub struct MgardRefactorer {
    basis: Basis,
}

impl MgardRefactorer {
    /// Creates a refactorer with the given decomposition basis.
    pub fn new(basis: Basis) -> Self {
        Self { basis }
    }

    /// The basis in use.
    pub fn basis(&self) -> Basis {
        self.basis
    }

    /// Refactors a row-major array into a progressive multilevel stream.
    pub fn refactor(&self, data: &[f64], dims: &[usize]) -> Result<MgardStream> {
        self.refactor_impl(data, dims, false)
    }

    /// [`MgardRefactorer::refactor`] pinned to the scalar reference plane
    /// encoder regardless of `PQR_SCALAR_KERNELS` — the oracle the
    /// word-parallel encode is property-tested against.
    pub fn refactor_scalar(&self, data: &[f64], dims: &[usize]) -> Result<MgardStream> {
        self.refactor_impl(data, dims, true)
    }

    fn refactor_impl(&self, data: &[f64], dims: &[usize], scalar: bool) -> Result<MgardStream> {
        let n: usize = dims.iter().product();
        if n != data.len() {
            return Err(PqrError::ShapeMismatch(format!(
                "dims {:?} = {n} elements, data has {}",
                dims,
                data.len()
            )));
        }
        if n == 0 {
            return Ok(MgardStream {
                basis: self.basis,
                dims: dims.to_vec(),
                root: 0.0,
                levels: Vec::new(),
            });
        }
        if data.iter().any(|v| !v.is_finite()) {
            return Err(PqrError::InvalidRequest(
                "multilevel refactoring requires finite data (mask specials first)".into(),
            ));
        }
        let mut work = data.to_vec();
        decompose(&mut work, dims, self.basis);
        let root = work[0];
        let strides = level_strides(dims);
        let encode = if scalar {
            encode_level_scalar
        } else {
            encode_level
        };
        let levels = strides
            .iter()
            .map(|&s| encode(&gather_level(&work, dims, s)))
            .collect();
        Ok(MgardStream {
            basis: self.basis,
            dims: dims.to_vec(),
            root,
            levels,
        })
    }
}

/// A refactored multilevel stream: metadata + per-(level, plane) segments.
///
/// The stream is the archive-side artifact; [`MgardStream::reader`] opens a
/// progressive reader that fetches segments on demand and accounts for the
/// bytes a remote retrieval would move. It has no serialized form of its
/// own: an archive stores [`MgardStream::meta`] and each plane payload as
/// separate fragments.
#[derive(Debug, Clone)]
pub struct MgardStream {
    pub(crate) basis: Basis,
    pub(crate) dims: Vec<usize>,
    pub(crate) root: f64,
    /// Finest level first (index `l` ↔ stride `2^l`).
    pub(crate) levels: Vec<EncodedLevel>,
}

/// Everything a decoder must hold *before* any plane payload arrives:
/// basis, shape, root value, and the per-level structure (exponent,
/// coefficient count, number of stored planes). This is the stream minus
/// its plane payloads — the unit a fragment-addressed store serves as the
/// field's metadata fragment, and what [`crate::retrieve::MgardCursor`]
/// decodes against while plane bytes are pushed in from elsewhere.
#[derive(Debug, Clone, PartialEq)]
pub struct MgardMeta {
    pub(crate) basis: Basis,
    pub(crate) dims: Vec<usize>,
    pub(crate) root: f64,
    pub(crate) levels: Vec<LevelMeta>,
}

/// Per-level decode structure (see [`MgardMeta`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LevelMeta {
    /// Level exponent (`None` for an all-zero level with no planes).
    pub exponent: Option<i32>,
    /// Coefficient count (fully determined by the shape; revalidated on
    /// parse).
    pub count: usize,
    /// Number of stored plane segments.
    pub num_planes: u32,
}

/// Magic bytes identifying a serialized [`MgardMeta`].
const META_MAGIC: &[u8; 4] = b"PQMM";

impl MgardMeta {
    /// The decomposition basis.
    pub fn basis(&self) -> Basis {
        self.basis
    }

    /// Array shape.
    pub fn dims(&self) -> &[usize] {
        &self.dims
    }

    /// Number of multilevel levels.
    pub fn num_levels(&self) -> usize {
        self.levels.len()
    }

    /// The root (coarsest) node value.
    pub fn root(&self) -> f64 {
        self.root
    }

    /// Per-level decode structure, finest level first.
    pub fn levels(&self) -> &[LevelMeta] {
        &self.levels
    }

    /// Total stored plane segments across levels.
    pub fn total_planes(&self) -> usize {
        self.levels.iter().map(|l| l.num_planes as usize).sum()
    }

    /// Serializes the metadata (the field's always-fetched fragment).
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut w = ByteWriter::new();
        w.put_raw(META_MAGIC);
        w.put_u8(VERSION);
        w.put_u8(self.basis.tag());
        w.put_u8(self.dims.len() as u8);
        for &d in &self.dims {
            w.put_u64(d as u64);
        }
        w.put_f64(self.root);
        w.put_u32(self.levels.len() as u32);
        for lvl in &self.levels {
            match lvl.exponent {
                Some(e) => {
                    w.put_u8(1);
                    w.put_u32(e as u32);
                }
                None => {
                    w.put_u8(0);
                    w.put_u32(0);
                }
            }
            w.put_u64(lvl.count as u64);
            w.put_u32(lvl.num_planes);
        }
        w.finish()
    }

    /// Deserializes metadata. The level structure is fully determined by
    /// the shape: the cursor indexes one decoder per stride and
    /// `scatter_level` trusts each level's exact coefficient count, so
    /// metadata that disagrees with `level_strides(dims)` would panic (or
    /// allocate without bound) downstream and is rejected here.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self> {
        let mut r = ByteReader::new(bytes);
        if r.get_raw(4)? != META_MAGIC {
            return Err(PqrError::CorruptStream("bad mgard meta magic".into()));
        }
        if r.get_u8()? != VERSION {
            return Err(PqrError::CorruptStream("unsupported mgard meta".into()));
        }
        let basis = Basis::from_tag(r.get_u8()?)
            .ok_or_else(|| PqrError::CorruptStream("unknown basis".into()))?;
        let nd = r.get_u8()? as usize;
        let mut dims = Vec::with_capacity(nd);
        for _ in 0..nd {
            dims.push(r.get_u64()? as usize);
        }
        pqr_util::byteio::check_dims(&dims)?;
        let root = r.get_f64()?;
        let expected = level_strides(&dims);
        let nlevels = r.get_u32()? as usize;
        if nlevels != expected.len() {
            return Err(PqrError::CorruptStream(format!(
                "{nlevels} levels for dims {dims:?} (shape implies {})",
                expected.len()
            )));
        }
        let nlevels = r.check_count(nlevels, 17)?;
        let mut levels = Vec::with_capacity(nlevels);
        for &stride in &expected {
            let has_exp = r.get_u8()? != 0;
            let e = r.get_u32()? as i32;
            let exponent = has_exp.then_some(e);
            let count = r.get_u64()? as usize;
            let want = level_coefficient_count(&dims, stride);
            if count != want {
                return Err(PqrError::CorruptStream(format!(
                    "level stride {stride} declares {count} coefficients, shape implies {want}"
                )));
            }
            let num_planes = r.get_u32()?;
            if num_planes > PLANES {
                return Err(PqrError::CorruptStream(format!(
                    "plane count {num_planes} exceeds {PLANES}"
                )));
            }
            if exponent.is_none() && num_planes != 0 {
                return Err(PqrError::CorruptStream(
                    "all-zero level declares planes".into(),
                ));
            }
            levels.push(LevelMeta {
                exponent,
                count,
                num_planes,
            });
        }
        if r.remaining() != 0 {
            return Err(PqrError::CorruptStream("trailing mgard meta bytes".into()));
        }
        Ok(Self {
            basis,
            dims,
            root,
            levels,
        })
    }
}

impl MgardStream {
    /// The decomposition basis of this stream.
    pub fn basis(&self) -> Basis {
        self.basis
    }

    /// Array shape.
    pub fn dims(&self) -> &[usize] {
        &self.dims
    }

    /// Number of levels.
    pub fn num_levels(&self) -> usize {
        self.levels.len()
    }

    /// Opens a progressive reader positioned at zero fetched planes.
    pub fn reader(&self) -> MgardReader<'_> {
        MgardReader::new(self)
    }

    /// The stream's metadata — everything except the plane payloads.
    pub fn meta(&self) -> MgardMeta {
        MgardMeta {
            basis: self.basis,
            dims: self.dims.clone(),
            root: self.root,
            levels: self
                .levels
                .iter()
                .map(|l| LevelMeta {
                    exponent: l.exponent,
                    count: l.count,
                    num_planes: l.planes.len() as u32,
                })
                .collect(),
        }
    }

    /// The plane payloads in storage order (level-major, MSB plane first
    /// within a level) — the fragments that follow the metadata.
    pub fn plane_payloads(&self) -> impl Iterator<Item = &[u8]> {
        self.levels
            .iter()
            .flat_map(|l| l.planes.iter().map(Vec::as_slice))
    }

    /// [`MgardStream::plane_payloads`] by value, for an archive writer that
    /// keeps the payloads and drops the stream.
    pub fn into_plane_payloads(self) -> impl Iterator<Item = Vec<u8>> {
        self.levels.into_iter().flat_map(|l| l.planes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn field(n: usize) -> Vec<f64> {
        (0..n)
            .map(|i| (i as f64 * 0.002).sin() * 10.0 + (i as f64 * 0.05).cos())
            .collect()
    }

    #[test]
    fn refactor_produces_expected_level_count() {
        let data = field(1000);
        let s = MgardRefactorer::new(Basis::Hierarchical)
            .refactor(&data, &[1000])
            .unwrap();
        assert_eq!(s.num_levels(), 10); // strides 1..512
        assert_eq!(s.dims(), &[1000]);
    }

    #[test]
    fn metadata_roundtrips() {
        let data = field(257);
        for basis in [Basis::Hierarchical, Basis::Orthogonal] {
            let meta = MgardRefactorer::new(basis)
                .refactor(&data, &[257])
                .unwrap()
                .meta();
            assert_eq!(MgardMeta::from_bytes(&meta.to_bytes()).unwrap(), meta);
        }
    }

    #[test]
    fn shape_mismatch_rejected() {
        let r = MgardRefactorer::default();
        assert!(r.refactor(&[1.0, 2.0], &[3]).is_err());
    }

    #[test]
    fn non_finite_data_rejected() {
        let r = MgardRefactorer::default();
        assert!(r.refactor(&[1.0, f64::NAN], &[2]).is_err());
        assert!(r.refactor(&[1.0, f64::INFINITY], &[2]).is_err());
    }

    #[test]
    fn empty_array_ok() {
        let s = MgardRefactorer::default().refactor(&[], &[0]).unwrap();
        assert_eq!(s.num_levels(), 0);
        let meta = MgardMeta::from_bytes(&s.meta().to_bytes()).unwrap();
        assert_eq!(meta.dims(), &[0]);
        // the degenerate stream must also be readable, not just parseable
        assert!(s.reader().reconstruct().is_empty());
    }

    #[test]
    fn a_zero_extent_beside_a_longer_one_round_trips() {
        // the writer emits no levels for a zero-element shape; the parser
        // must expect none, not the longer extent's
        for dims in [[2usize, 0, 0], [0, 2, 2]] {
            let s = MgardRefactorer::default().refactor(&[], &dims).unwrap();
            assert_eq!(s.num_levels(), 0);
            let meta = MgardMeta::from_bytes(&s.meta().to_bytes()).unwrap();
            assert_eq!(meta.dims(), &dims);
            assert!(s.reader().reconstruct().is_empty());
        }
    }

    /// Builds metadata bytes for dims `[16]` with the given level headers
    /// (`(count, nplanes)` per level).
    fn crafted_meta(level_counts: &[(u64, u32)]) -> Vec<u8> {
        let mut w = ByteWriter::new();
        w.put_raw(META_MAGIC);
        w.put_u8(VERSION);
        w.put_u8(Basis::Hierarchical.tag());
        w.put_u8(1); // nd
        w.put_u64(16); // dim
        w.put_f64(0.0); // root
        w.put_u32(level_counts.len() as u32);
        for &(count, nplanes) in level_counts {
            w.put_u8(1); // has exponent
            w.put_u32(0); // exponent
            w.put_u64(count);
            w.put_u32(nplanes);
        }
        w.finish()
    }

    #[test]
    fn hostile_level_structure_rejected() {
        // The cursor's decoders allocate `count` slots and `scatter_level`
        // trusts the exact per-level counts, so metadata whose declared
        // structure disagrees with the shape must fail at parse time — this
        // is the parser every archive open runs — or opening a reader would
        // become an abort or an index panic.

        // u64::MAX coefficients in a single level (allocation bomb)
        assert!(MgardMeta::from_bytes(&crafted_meta(&[(u64::MAX, 0)])).is_err());
        // a level count the remaining bytes cannot back
        let mut bomb = crafted_meta(&[]);
        let at = bomb.len() - 4;
        bomb[at..].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(MgardMeta::from_bytes(&bomb).is_err());
        // too few levels for the shape ([16] implies strides 1,2,4,8)
        assert!(MgardMeta::from_bytes(&crafted_meta(&[(5, 0)])).is_err());
        // right level count, one wrong coefficient count (true: 8,4,2,1)
        assert!(MgardMeta::from_bytes(&crafted_meta(&[(8, 0), (5, 0), (2, 0), (1, 0)])).is_err());
        // more planes than the coder has
        assert!(
            MgardMeta::from_bytes(&crafted_meta(&[(8, PLANES + 1), (4, 0), (2, 0), (1, 0)]))
                .is_err()
        );
        // the structurally correct headers parse fine...
        let good = crafted_meta(&[(8, 3), (4, 0), (2, 0), (1, 0)]);
        let ok = MgardMeta::from_bytes(&good);
        assert!(ok.is_ok(), "{ok:?}");
        // ...and a cursor over them rebuilds without panicking
        let cursor = crate::retrieve::MgardCursor::new(ok.unwrap());
        assert_eq!(cursor.reconstruct().len(), 16);
        // trailing bytes, and every strict prefix
        let mut long = good.clone();
        long.push(0);
        assert!(MgardMeta::from_bytes(&long).is_err());
        for cut in 0..good.len() {
            assert!(MgardMeta::from_bytes(&good[..cut]).is_err(), "cut {cut}");
        }
    }

    #[test]
    fn corrupt_metadata_rejected() {
        let data = field(64);
        let s = MgardRefactorer::default().refactor(&data, &[64]).unwrap();
        let bytes = s.meta().to_bytes();
        assert!(MgardMeta::from_bytes(&bytes[..20]).is_err());
        let mut bad = bytes.clone();
        bad[0] = b'Z';
        assert!(MgardMeta::from_bytes(&bad).is_err());
    }

    #[test]
    fn multidimensional_refactor() {
        let data = field(24 * 18);
        let s = MgardRefactorer::new(Basis::Orthogonal)
            .refactor(&data, &[24, 18])
            .unwrap();
        assert!(s.num_levels() >= 4);
        assert!(s.plane_payloads().count() > 0);
    }
}
