//! # pqr-core — the high-level PQR API
//!
//! One import, three steps: **build** an archive from your fields,
//! **register** the QoIs your analyses derive, **retrieve** with guaranteed
//! QoI error control — moving only as many bytes as the tolerance requires.
//!
//! ```
//! use pqr_core::prelude::*;
//!
//! // 1. archive side: refactor fields + register QoIs (ranges are computed
//! //    here, while the original data is still available)
//! let n = 1000;
//! let vx: Vec<f64> = (0..n).map(|i| (i as f64 * 0.01).sin() * 30.0 + 50.0).collect();
//! let vy: Vec<f64> = (0..n).map(|i| (i as f64 * 0.013).cos() * 20.0).collect();
//! let archive = ArchiveBuilder::new(&[n])
//!     .field("Vx", vx)
//!     .field("Vy", vy)
//!     .qoi("V", velocity_magnitude(0, 2))
//!     .scheme(Scheme::PmgardHb)
//!     .build()
//!     .unwrap();
//!
//! // 2. retrieval side: open a session and execute a retrieval request —
//! //    one target here; add more with `.qoi(..)`, and targets sharing
//! //    fields schedule those fields' fragments once
//! let mut session = archive.session().unwrap();
//! let report = session
//!     .execute(&RetrievalRequest::new().qoi("V", 1e-4))
//!     .unwrap();
//! assert!(report.satisfied);
//! assert!(report.targets[0].max_est_error <= report.targets[0].tol_abs);
//!
//! // 3. consume: reconstructed fields and derived QoI values, both within
//! //    the guaranteed bounds
//! let v = session.qoi_values("V").unwrap();
//! assert_eq!(v.len(), n);
//! assert!(session.total_fetched() < archive.manifest().unwrap().raw_bytes());
//! ```
//!
//! The lower-level building blocks (compressors, decompositions, the
//! retrieval engine, dataset generators, the transfer simulator) are
//! re-exported from their crates — see [`prelude`].

pub mod archive;
pub mod prelude;
pub mod request;

pub use archive::{Archive, ArchiveBuilder, DatasetService, Session};
pub use request::{merge_requests, RequestTarget, RetrievalRequest, ToleranceMode};
