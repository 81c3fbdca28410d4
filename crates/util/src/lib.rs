//! # pqr-util — shared kernels for the PQR workspace
//!
//! Low-level building blocks used by every other crate in the
//! progressive-QoI-retrieval (PQR) reproduction:
//!
//! * [`bitio`] — MSB-first bit-level reader/writer used by the bitplane and
//!   Huffman coders.
//! * [`bitplane_simd`] — word-parallel bitplane primitives (64×64 bit-matrix
//!   transpose, packed-word bit windows) behind the fast coder paths.
//! * [`byteio`] — little-endian byte cursors for segment (de)serialisation.
//! * [`cache`] — byte-budgeted LRU cache shared by the fragment-storage
//!   backends (hit/miss accounting for the transfer experiments).
//! * [`huffman`] — canonical Huffman coding over integer symbols (the entropy
//!   stage of the SZ3 stand-in).
//! * [`rle`] — zero-run run-length coding (the lossless backend standing in
//!   for zstd, and the bitplane post-pass).
//! * [`stats`] — L∞/L2 error metrics, value ranges, bitrate accounting.
//! * [`par`] — chunked parallel map/reduce built on std scoped threads
//!   (rayon is not on the approved dependency list).
//! * [`tally`](mod@tally) — counter sets declared once ([`tally!`]): snapshot, atomic
//!   twin, saturating delta and wire words from one field list.
//! * [`timer`] — wall-clock helpers for the table/figure harnesses.
//! * [`error`] — the shared error type.

pub mod bitio;
pub mod bitplane_simd;
pub mod byteio;
pub mod cache;
pub mod error;
pub mod huffman;
pub mod par;
pub mod rle;
pub mod stats;
pub mod tally;
pub mod timer;

pub use error::{PqrError, Result};
