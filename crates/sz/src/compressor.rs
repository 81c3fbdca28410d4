//! The full compression pipeline: predict → quantize → Huffman → zero-RLE.

use crate::config::{Predictor, SzConfig};
use crate::predictor::traverse;
use crate::quantizer::{Quantized, Quantizer, ESCAPE};
use pqr_util::byteio::{self, ByteReader, ByteWriter};
use pqr_util::error::{PqrError, Result};
use pqr_util::{huffman, rle};

/// Magic bytes identifying a pqr-sz blob.
const MAGIC: &[u8; 4] = b"PQSZ";
/// Format version: 2 since the Huffman payload holds four streams behind a
/// jump table; a version-1 blob (one stream) is refused, not misread.
const VERSION: u8 = 2;

/// Error-bounded lossy compressor (SZ3 stand-in).
///
/// The compressor is stateless and cheap to clone; all per-call state lives
/// on the stack. See the crate docs for the pipeline description and the
/// guarantee: `max |xᵢ − x̂ᵢ| ≤ eb` for every point.
#[derive(Debug, Clone, Copy, Default)]
pub struct SzCompressor {
    cfg: SzConfig,
}

impl SzCompressor {
    /// Creates a compressor with the given configuration.
    pub fn new(cfg: SzConfig) -> Self {
        Self { cfg }
    }

    /// The configuration in use.
    pub fn config(&self) -> &SzConfig {
        &self.cfg
    }

    /// Compresses `data` (row-major, shape `dims`) under the absolute error
    /// bound `eb`. Returns a self-describing blob.
    pub fn compress(&self, data: &[f64], dims: &[usize], eb: f64) -> Result<Vec<u8>> {
        Ok(self.compress_with_recon(data, dims, eb)?.0)
    }

    /// [`SzCompressor::compress`], also returning the reconstruction its
    /// predictor loop ran on. That is bit for bit what
    /// [`SzCompressor::decompress`] returns for the blob: both sides
    /// traverse in the same order, code the same predictions with the same
    /// arithmetic, and escapes travel as their exact bits.
    pub fn compress_with_recon(
        &self,
        data: &[f64],
        dims: &[usize],
        eb: f64,
    ) -> Result<(Vec<u8>, Vec<f64>)> {
        if dims.is_empty() {
            return Err(PqrError::ShapeMismatch(
                "the predictor walk needs at least one axis".into(),
            ));
        }
        let n: usize = dims.iter().product();
        if n != data.len() {
            return Err(PqrError::ShapeMismatch(format!(
                "dims {:?} = {n} elements, data has {}",
                dims,
                data.len()
            )));
        }
        // NaN-safe positivity check (NaN fails the comparison)
        if !(eb.is_finite() && eb > 0.0) {
            return Err(PqrError::InvalidRequest(format!(
                "error bound must be positive and finite, got {eb}"
            )));
        }

        let quant = Quantizer::new(eb, self.cfg.quant_radius);
        let mut symbols: Vec<u32> = Vec::with_capacity(n);
        let mut escapes: Vec<f64> = Vec::new();
        let mut recon = vec![0.0f64; n];
        traverse(
            self.cfg.predictor,
            dims,
            &mut recon,
            |idx, pred| match quant.quantize(data[idx], pred) {
                Quantized::Code { symbol, recon } => {
                    symbols.push(symbol);
                    recon
                }
                Quantized::Escape => {
                    symbols.push(ESCAPE);
                    escapes.push(data[idx]);
                    data[idx]
                }
            },
        );

        let huff = huffman::encode(&symbols, quant.alphabet())?;
        let packed = rle::encode_bytes(&huff);

        let mut w = ByteWriter::with_capacity(packed.len() + escapes.len() * 8 + 64);
        w.put_raw(MAGIC);
        w.put_u8(VERSION);
        w.put_u8(self.cfg.predictor.tag());
        w.put_u32(self.cfg.quant_radius);
        w.put_f64(eb);
        w.put_u8(dims.len() as u8);
        for &d in dims {
            w.put_u64(d as u64);
        }
        w.put_bytes(&packed);
        w.put_f64_slice(&escapes);
        Ok((w.finish(), recon))
    }

    /// Decompresses a blob from [`SzCompressor::compress`]; returns the
    /// reconstruction and its shape. Works regardless of the predictor this
    /// instance was configured with (the blob is self-describing).
    pub fn decompress(&self, blob: &[u8]) -> Result<(Vec<f64>, Vec<usize>)> {
        let mut r = ByteReader::new(blob);
        if r.get_raw(4)? != MAGIC {
            return Err(PqrError::CorruptStream("bad magic".into()));
        }
        let version = r.get_u8()?;
        if version != VERSION {
            return Err(PqrError::CorruptStream(format!(
                "unsupported version {version}"
            )));
        }
        let predictor = Predictor::from_tag(r.get_u8()?)
            .ok_or_else(|| PqrError::CorruptStream("unknown predictor tag".into()))?;
        let radius = r.get_u32()?;
        let eb = r.get_f64()?;
        if !(eb.is_finite() && eb > 0.0) || radius < 2 {
            return Err(PqrError::CorruptStream("invalid header".into()));
        }
        // the walk needs an axis and an element count that fits: a wrapped
        // product would pass the symbol count check below and send the walk
        // out of bounds
        let nd = r.get_u8()? as usize;
        if nd == 0 {
            return Err(PqrError::CorruptStream("stream with no axis".into()));
        }
        let mut dims = Vec::with_capacity(nd);
        for _ in 0..nd {
            dims.push(r.get_u64()? as usize);
        }
        byteio::check_dims(&dims)?;
        let n: usize = dims.iter().product();
        let packed = r.get_bytes()?;
        let escapes = r.get_f64_vec()?;

        let huff = rle::decode_bytes(packed)?;
        let symbols = huffman::decode(&huff)?;
        if symbols.len() != n {
            return Err(PqrError::CorruptStream(format!(
                "symbol count {} != element count {n}",
                symbols.len()
            )));
        }

        let quant = Quantizer::new(eb, radius);
        let mut recon = vec![0.0; n];
        // one symbol per point (checked above), in visit order
        let mut at = 0;
        let mut escaped = escapes.iter();
        let mut short = false;
        traverse(predictor, &dims, &mut recon, |_, pred| {
            let s = symbols[at];
            at += 1;
            if s != ESCAPE {
                return quant.reconstruct(s, pred);
            }
            escaped.next().copied().unwrap_or_else(|| {
                short = true;
                0.0
            })
        });
        if short {
            return Err(PqrError::CorruptStream("escape list truncated".into()));
        }
        Ok((recon, dims))
    }

    /// Convenience: compressed size in bytes for `data` under `eb`.
    pub fn compressed_size(&self, data: &[f64], dims: &[usize], eb: f64) -> Result<usize> {
        Ok(self.compress(data, dims, eb)?.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pqr_util::stats::max_abs_diff;

    fn smooth_1d(n: usize) -> Vec<f64> {
        (0..n)
            .map(|i| {
                let x = i as f64 / n as f64;
                (x * 12.0).sin() + 0.3 * (x * 40.0).cos() + 2.0 * x
            })
            .collect()
    }

    fn smooth_3d(d: [usize; 3]) -> (Vec<f64>, Vec<usize>) {
        let mut v = Vec::with_capacity(d[0] * d[1] * d[2]);
        for i in 0..d[0] {
            for j in 0..d[1] {
                for k in 0..d[2] {
                    let (x, y, z) = (
                        i as f64 / d[0] as f64,
                        j as f64 / d[1] as f64,
                        k as f64 / d[2] as f64,
                    );
                    v.push((3.0 * x).sin() * (2.0 * y).cos() + z * z);
                }
            }
        }
        (v, d.to_vec())
    }

    #[test]
    fn roundtrip_respects_error_bound_1d() {
        let data = smooth_1d(5000);
        for eb in [1e-1, 1e-3, 1e-6, 1e-10] {
            for cfg in [SzConfig::default(), SzConfig::interp_linear()] {
                let c = SzCompressor::new(cfg);
                let blob = c.compress(&data, &[5000], eb).unwrap();
                let (recon, dims) = c.decompress(&blob).unwrap();
                assert_eq!(dims, vec![5000]);
                let err = max_abs_diff(&data, &recon);
                assert!(err <= eb, "{cfg:?} eb={eb}: err {err}");
            }
        }
    }

    #[test]
    fn roundtrip_respects_error_bound_3d() {
        let (data, dims) = smooth_3d([20, 24, 17]);
        for eb in [1e-2, 1e-5] {
            for cfg in [SzConfig::default(), SzConfig::interp_linear()] {
                let c = SzCompressor::new(cfg);
                let blob = c.compress(&data, &dims, eb).unwrap();
                let (recon, rdims) = c.decompress(&blob).unwrap();
                assert_eq!(rdims, dims);
                assert!(max_abs_diff(&data, &recon) <= eb);
            }
        }
    }

    #[test]
    fn smaller_eb_larger_blob() {
        let data = smooth_1d(20_000);
        let c = SzCompressor::default();
        let mut last = 0usize;
        for eb in [1e-1, 1e-3, 1e-5, 1e-7, 1e-9] {
            let size = c.compressed_size(&data, &[20_000], eb).unwrap();
            assert!(size > last, "eb={eb}: {size} !> {last}");
            last = size;
        }
    }

    #[test]
    fn smooth_data_compresses_well() {
        let data = smooth_1d(100_000);
        let c = SzCompressor::default();
        let blob = c.compress(&data, &[100_000], 1e-4).unwrap();
        let ratio = (100_000.0 * 8.0) / blob.len() as f64;
        assert!(ratio > 8.0, "ratio {ratio} too low for smooth data");
    }

    #[test]
    fn random_noise_still_bounded() {
        // xorshift noise — incompressible but the bound must still hold
        let mut s = 42u64;
        let data: Vec<f64> = (0..4096)
            .map(|_| {
                s ^= s << 13;
                s ^= s >> 7;
                s ^= s << 17;
                (s as f64 / u64::MAX as f64) * 200.0 - 100.0
            })
            .collect();
        let c = SzCompressor::default();
        let blob = c.compress(&data, &[4096], 1e-2).unwrap();
        let (recon, _) = c.decompress(&blob).unwrap();
        assert!(max_abs_diff(&data, &recon) <= 1e-2);
    }

    #[test]
    fn constant_field_is_tiny() {
        let data = vec![3.25; 50_000];
        let c = SzCompressor::default();
        let blob = c.compress(&data, &[50_000], 1e-8).unwrap();
        assert!(blob.len() < 2500, "constant field blob {} B", blob.len());
        let (recon, _) = c.decompress(&blob).unwrap();
        assert!(max_abs_diff(&data, &recon) <= 1e-8);
    }

    #[test]
    fn special_values_survive() {
        let mut data = smooth_1d(100);
        data[10] = f64::NAN;
        data[50] = f64::INFINITY;
        data[70] = -1e300;
        let c = SzCompressor::default();
        let blob = c.compress(&data, &[100], 1e-3).unwrap();
        let (recon, _) = c.decompress(&blob).unwrap();
        assert!(recon[10].is_nan());
        assert!(recon[50].is_infinite() && recon[50] > 0.0);
        for (i, (&a, &b)) in data.iter().zip(&recon).enumerate() {
            if a.is_finite() {
                assert!((a - b).abs() <= 1e-3, "idx {i}");
            }
        }
    }

    #[test]
    fn returned_reconstruction_is_what_decompress_returns() {
        // the reconstruction `compress_with_recon` hands back must be the
        // decoder's, bit for bit, including escapes: NaN, ±∞, magnitudes
        // the quantizer cannot code, and a radius small enough that large
        // residuals escape
        let mut escapes = smooth_1d(600);
        escapes[3] = f64::NAN;
        escapes[4] = f64::from_bits(0x7ff0_0000_dead_beef); // signalling NaN
        escapes[100] = f64::INFINITY;
        escapes[101] = f64::NEG_INFINITY;
        escapes[200] = 1e18 + 0.5;
        escapes[201] = -1e300;
        escapes[400] = 5.0e3;
        let (cube, cube_dims) = smooth_3d([9, 12, 7]);
        let mut noisy_cube = cube.clone();
        noisy_cube[17] = f64::NAN;
        noisy_cube[300] = -f64::INFINITY;
        noisy_cube[500] = 3e15;
        let cases: Vec<(Vec<f64>, Vec<usize>)> = vec![
            (smooth_1d(1000), vec![1000]),
            (escapes.clone(), vec![600]),
            (cube, cube_dims.clone()),
            (noisy_cube, cube_dims),
            (Vec::new(), vec![0]),
        ];
        let small_radius = SzConfig {
            quant_radius: 8,
            ..SzConfig::default()
        };
        for cfg in [SzConfig::default(), SzConfig::interp_linear(), small_radius] {
            let c = SzCompressor::new(cfg);
            for (data, dims) in &cases {
                for eb in [1e-1, 1e-6] {
                    let (blob, recon) = c.compress_with_recon(data, dims, eb).unwrap();
                    assert_eq!(blob, c.compress(data, dims, eb).unwrap());
                    let (decoded, _) = c.decompress(&blob).unwrap();
                    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                    assert_eq!(bits(&recon), bits(&decoded), "{cfg:?} {dims:?} eb={eb}");
                }
            }
        }
    }

    /// The integer-xorshift 13×22×19 field the recorded hashes are of.
    fn hashed_field() -> (Vec<f64>, Vec<usize>) {
        let dims = vec![13usize, 22, 19];
        let mut s = 0x9e37_79b9_7f4a_7c15u64;
        let data = (0..dims.iter().product::<usize>())
            .map(|i| {
                s ^= s << 13;
                s ^= s >> 7;
                s ^= s << 17;
                ((s >> 11) as f64 / (1u64 << 53) as f64 - 0.5) * 0.5
                    + (i % 19) as f64
                    + (i / 19 % 22) as f64 * 0.25
            })
            .collect();
        (data, dims)
    }

    #[test]
    fn compressed_3d_bytes_match_the_recorded_hashes() {
        // 64-bit FNV-1a of the blob for an integer-xorshift field (no libm
        // call, so the same bits on every platform) on a shape with no
        // power-of-two extent; recorded before the row-wise walk replaced
        // the per-point odometer, so the walk's order and arithmetic are
        // pinned in 3-D, where every axis is active at some stride; re-recorded
        // when the Huffman payload became four streams (format version 2),
        // with every reconstruction bit for bit the version-1 blob's
        let fnv1a = |bytes: &[u8]| {
            bytes.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, &b| {
                (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
            })
        };
        let (data, dims) = hashed_field();
        let golden: [(SzConfig, f64, u64); 4] = [
            (SzConfig::default(), 1e-2, 0x8d408401717dea4d),
            (SzConfig::default(), 1e-7, 0x66ccc6baaa6130f1),
            (SzConfig::interp_linear(), 1e-2, 0x03c36b4dd1b87a95),
            (SzConfig::interp_linear(), 1e-7, 0x7b624b99cdfcb285),
        ];
        for (cfg, eb, want) in golden {
            let got = fnv1a(&SzCompressor::new(cfg).compress(&data, &dims, eb).unwrap());
            assert_eq!(got, want, "{:?} eb={eb}: {got:#018x}", cfg.predictor);
        }
    }

    #[test]
    fn shape_mismatch_rejected() {
        let c = SzCompressor::default();
        assert!(matches!(
            c.compress(&[1.0, 2.0], &[3], 1e-3),
            Err(PqrError::ShapeMismatch(_))
        ));
        // a rank `decompress` refuses is not written either
        assert!(matches!(
            c.compress(&[1.0], &[], 1e-3),
            Err(PqrError::ShapeMismatch(_))
        ));
    }

    #[test]
    fn invalid_eb_rejected() {
        let c = SzCompressor::default();
        for eb in [0.0, -1.0, f64::NAN, f64::INFINITY] {
            assert!(c.compress(&[1.0], &[1], eb).is_err(), "eb={eb}");
        }
    }

    #[test]
    fn a_version_1_blob_is_refused_as_unsupported() {
        // version 1 coded one Huffman stream; read as four it would be
        // misparsed, so the version byte refuses it first
        let mut blob = SzCompressor::default()
            .compress(&smooth_1d(256), &[256], 1e-3)
            .unwrap();
        blob[4] = 1;
        assert!(matches!(
            SzCompressor::default().decompress(&blob),
            Err(PqrError::CorruptStream(m)) if m.contains("unsupported version 1")
        ));
    }

    #[test]
    fn corrupt_blob_rejected() {
        let data = smooth_1d(256);
        let c = SzCompressor::default();
        let blob = c.compress(&data, &[256], 1e-3).unwrap();
        assert!(c.decompress(&blob[..10]).is_err());
        let mut bad = blob.clone();
        bad[0] = b'X';
        assert!(c.decompress(&bad).is_err());
    }

    /// A blob of `dims` (all ones) whose header is rewritten to carry
    /// `tag` and `hostile` extents; the symbol stream still holds
    /// `∏dims` codes.
    fn with_header(dims: &[usize], tag: u8, hostile: &[u64]) -> Vec<u8> {
        // magic (4) version (1) tag (1) radius (4) eb (8) nd (1) extents
        const TAG: usize = 5;
        const ND: usize = 18;
        let n = dims.iter().product();
        let blob = SzCompressor::default()
            .compress(&vec![1.0; n], dims, 1e-3)
            .unwrap();
        let mut out = blob[..ND].to_vec();
        out[TAG] = tag;
        out.push(hostile.len() as u8);
        for d in hostile {
            out.extend_from_slice(&d.to_le_bytes());
        }
        out.extend_from_slice(&blob[ND + 1 + 8 * dims.len()..]);
        out
    }

    /// Headers the walk cannot run on, each with as many symbols as its
    /// (empty or wrapped) element count claims.
    fn hostile_headers() -> Vec<(&'static str, Vec<u8>)> {
        // tag 2 names no predictor (it was the retired Lorenzo walk's)
        let (cubic, unknown) = (Predictor::InterpCubic.tag(), 2);
        vec![
            // the empty product is one element
            ("nd = 0", with_header(&[1], cubic, &[])),
            ("tag 2, nd = 0", with_header(&[1], unknown, &[])),
            (
                "tag 2, nd = 4",
                with_header(&[1, 1, 1, 4], unknown, &[1, 1, 1, 4]),
            ),
            // (2⁶² + 1)·4 wraps to 4 elements when overflow is unchecked
            (
                "overflowing extents",
                with_header(&[4], cubic, &[(1 << 62) + 1, 4]),
            ),
        ]
    }

    #[test]
    fn hostile_headers_are_refused() {
        let c = SzCompressor::default();
        assert!(c
            .decompress(&with_header(&[1, 1, 1, 4], 0, &[1, 1, 1, 4]))
            .is_ok());
        for (what, blob) in hostile_headers() {
            assert!(
                matches!(c.decompress(&blob), Err(PqrError::CorruptStream(_))),
                "{what}"
            );
        }
    }

    #[test]
    fn truncated_escape_list_is_refused() {
        // an odd index is visited at the finest stride and predicts no
        // other point, so the blob carries exactly one escape
        let mut data = smooth_1d(64);
        data[63] = f64::NAN;
        let c = SzCompressor::default();
        let blob = c.compress(&data, &[64], 1e-3).unwrap();
        // the escape list closes the blob: a u64 count, then the values
        let mut cut = blob[..blob.len() - 16].to_vec();
        cut.extend_from_slice(&0u64.to_le_bytes());
        assert!(c.decompress(&blob).unwrap().0[63].is_nan());
        assert!(matches!(
            c.decompress(&cut),
            Err(PqrError::CorruptStream(m)) if m.contains("escape")
        ));
    }

    #[test]
    fn every_prefix_and_bit_flip_of_a_3d_blob_decodes_or_is_refused() {
        // hostile extents, bounds, counts and payloads reach the walk's
        // per-segment bounds check only through a header that passed, so
        // none may panic: each decodes to its own shape or is corrupt
        let (mut cube, dims) = smooth_3d([5, 6, 7]);
        cube[11] = f64::NAN;
        cube[100] = -1e300;
        let c = SzCompressor::default();
        let blob = c.compress(&cube, &dims, 1e-3).unwrap();
        let mut hostile: Vec<Vec<u8>> = (0..blob.len()).map(|cut| blob[..cut].to_vec()).collect();
        for bit in 0..blob.len() * 8 {
            let mut bad = blob.clone();
            bad[bit / 8] ^= 0x80 >> (bit % 8);
            hostile.push(bad);
        }
        for bytes in &hostile {
            match c.decompress(bytes) {
                Ok((recon, dims)) => assert_eq!(recon.len(), dims.iter().product::<usize>()),
                Err(e) => assert!(matches!(e, PqrError::CorruptStream(_)), "{e:?}"),
            }
        }
    }

    #[test]
    fn empty_input_roundtrips() {
        let c = SzCompressor::default();
        let blob = c.compress(&[], &[0], 1e-3).unwrap();
        let (recon, dims) = c.decompress(&blob).unwrap();
        assert!(recon.is_empty());
        assert_eq!(dims, vec![0]);
    }

    #[test]
    fn decompress_ignores_local_config() {
        // blob self-describes its predictor: decompress with a differently
        // configured instance must still work
        let data = smooth_1d(1000);
        let blob = SzCompressor::new(SzConfig::interp_linear())
            .compress(&data, &[1000], 1e-4)
            .unwrap();
        let (recon, _) = SzCompressor::new(SzConfig::default())
            .decompress(&blob)
            .unwrap();
        assert!(max_abs_diff(&data, &recon) <= 1e-4);
    }
}
