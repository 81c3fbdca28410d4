//! # pqr-sz — SZ3-like error-bounded lossy compressor
//!
//! The paper's PSZ3 / PSZ3-delta progressive representations (§V-B) are
//! built on SZ3, the interpolation-based error-bounded compressor. This
//! crate is the from-scratch Rust stand-in: it guarantees the same contract
//! (`max |xᵢ − x̂ᵢ| ≤ eb` for every point, strictly) through the same
//! pipeline shape:
//!
//! 1. **Prediction** — level-by-level cubic/linear interpolation on the
//!    dyadic grid, dimension by dimension (the SZ3 flagship predictor) —
//!    see [`predictor`].
//! 2. **Linear-scaling quantization** of the prediction residual with an
//!    escape code for unpredictable points ([`quantizer`]).
//! 3. **Entropy coding** — canonical Huffman over quantization codes
//!    (`pqr_util::huffman`) followed by a zero-run RLE byte stage standing in
//!    for zstd (`pqr_util::rle`).
//!
//! What this reproduction preserves (all that PSZ3 needs): the strict L∞
//! bound, decompression determinism (prediction runs on *reconstructed*
//! neighbours on both sides), and the rate-distortion monotonicity that
//! shapes the paper's figures. Absolute ratios differ from the C++ SZ3.
//!
//! ## Example
//!
//! ```
//! use pqr_sz::{SzCompressor, SzConfig};
//!
//! let data: Vec<f64> = (0..1000).map(|i| (i as f64 * 0.01).sin()).collect();
//! let comp = SzCompressor::new(SzConfig::default());
//! let blob = comp.compress(&data, &[1000], 1e-4).unwrap();
//! let (recon, dims) = comp.decompress(&blob).unwrap();
//! assert_eq!(dims, vec![1000]);
//! let max_err = data.iter().zip(&recon).map(|(a, b)| (a - b).abs()).fold(0.0, f64::max);
//! assert!(max_err <= 1e-4);
//! assert!(blob.len() < 8 * data.len() / 2); // smooth data compresses
//! ```

pub mod compressor;
pub mod config;
pub mod predictor;
pub mod quantizer;

pub use compressor::SzCompressor;
pub use config::{Predictor, SzConfig};
