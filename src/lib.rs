//! # PQR — Error-controlled Progressive Retrieval under Derivable QoIs
//!
//! A from-scratch Rust reproduction of *"Error-controlled Progressive
//! Retrieval of Scientific Data under Derivable Quantities of Interest"*
//! (SC 2024). The umbrella crate re-exports the whole workspace:
//!
//! | crate | contents |
//! |---|---|
//! | [`qoi`] | §IV error-bound calculus over QoI expression trees |
//! | [`sz`] | SZ3-like error-bounded compressor (PSZ3 substrate) |
//! | [`mgard`] | multilevel decomposition + bitplanes (PMGARD substrate) |
//! | [`progressive`] | the three representations + Algorithms 1–4 |
//! | [`datagen`] | synthetic GE / Hurricane / NYX / S3D datasets |
//! | [`transfer`] | Globus-like WAN simulation + 96-worker pipeline |
//! | [`core`] | the ergonomic archive/session facade |
//! | [`serve`] | multi-tenant TCP serving layer over `DatasetService` |
//!
//! Start with [`prelude`]:
//!
//! ```
//! use pqr::prelude::*;
//!
//! let n = 500;
//! let field: Vec<f64> = (0..n).map(|i| (i as f64 * 0.02).sin()).collect();
//! let archive = ArchiveBuilder::new(&[n])
//!     .field("f", field)
//!     .qoi("f2", QoiExpr::var(0).pow(2))
//!     .build()
//!     .unwrap();
//! let mut session = archive.session().unwrap();
//! assert!(session.execute(&RetrievalRequest::new().qoi("f2", 1e-4)).unwrap().satisfied);
//! ```
//!
//! The repository's `README.md` gives the workspace tour (building, the
//! figure/table harnesses, environment knobs); `DIVERGENCES.md` catalogues
//! the known paper-vs-implementation gaps; `CHANGES.md` is the per-PR log.

pub use pqr_core as core;
pub use pqr_datagen as datagen;
pub use pqr_mgard as mgard;
pub use pqr_progressive as progressive;
pub use pqr_qoi as qoi;
pub use pqr_serve as serve;
pub use pqr_sz as sz;
pub use pqr_transfer as transfer;
pub use pqr_util as util;
pub use pqr_zfp as zfp;

pub use pqr_core::prelude;
