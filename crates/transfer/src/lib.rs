//! # pqr-transfer — wide-area transfer simulation + frame codec
//!
//! §VI-D of the paper measures end-to-end retrieval of the GE-large dataset
//! from MCC (Kentucky) to Anvil (Purdue) over Globus with 96 cores, one
//! block per core. We cannot measure a WAN here, so this crate simulates
//! the wire and keeps everything else real:
//!
//! * **real**: the refactored representations, the QoI retrieval engine that
//!   decides *how many bytes* each block needs (the paper's claim is a
//!   bytes-moved argument), and the per-block retrieval compute time
//!   (measured wall clock). Each block is any
//!   [`FragmentSource`](pqr_progressive::fragstore::FragmentSource) — its
//!   serialized container, in memory or on file — whose
//!   [`SourceStats`](pqr_progressive::fragstore::SourceStats) count the
//!   fetches and round trips a remote store would see.
//! * **simulated**: the pipe. [`NetworkModel`] charges
//!   `latency + requests·overhead + bytes/bandwidth`, calibrated to the
//!   paper's own measurement (4.67 GB of raw data in ≈11.7 s ⇒ ≈3.2 Gb/s
//!   effective Globus throughput).
//!
//! The [`pipeline`] module runs one retrieval per block on a worker pool
//! (dynamic scheduling over `pqr_util::par` scoped threads) and reports
//! the same decomposition as Fig. 9: retrieval time + transfer time vs the
//! raw-data baseline. The [`wire`] module is the length-prefixed frame
//! codec `pqr-serve` speaks.

pub mod network;
pub mod pipeline;
pub mod wire;

pub use network::NetworkModel;
pub use pipeline::{run_pipeline, BlockResult, PipelineConfig, PipelineResult};
