//! # pqr-progressive — progressive representations + QoI-preserving retrieval
//!
//! This crate is the paper's primary contribution: a generic framework that
//! retrieves *just enough* progressive data to guarantee user-prescribed
//! error tolerances on derivable quantities of interest (§III, §V).
//!
//! ## Pieces
//!
//! * [`field`] — named fields and multi-field datasets with refactor-time
//!   metadata (value ranges, QoI ranges).
//! * [`refactored`] — the three §V-B progressive representations behind one
//!   interface (underneath, one crate-private component-expansion `Backend`
//!   per representation — the only code that tells them apart):
//!   [`Scheme::Psz3`] (multi-snapshot error-bounded compression),
//!   [`Scheme::Psz3Delta`] (residual/delta compression),
//!   [`Scheme::PmgardHb`] / [`Scheme::PmgardOb`] (multilevel + bitplanes),
//!   plus the [`Scheme::Pzfp`] extension (ZFP-style block transform +
//!   negabinary bitplanes — the paper's other progressive-precision family).
//! * [`mask`] — the zero-outlier bitmap of §V-A that keeps near-zero points
//!   from blowing up √-type QoI estimates.
//! * [`fragstore`] — fragment-addressed storage: archives serialize as a
//!   manifest + directory + independently addressable fragments, and every
//!   retrieval path pulls bytes through the [`fragstore::FragmentSource`]
//!   trait — one container reader over a buffer in memory or a file read
//!   by byte ranges — so partial retrieval is partial in bytes *read*, not
//!   just bytes counted.
//! * [`engine`] — Algorithms 2–4: iterative QoI-preserved retrieval with a
//!   primary-data error-bound assigner and a QoI error estimator.
//! * [`store`] — the cross-request decode cache every engine refines
//!   through: one master [`FieldReader`] per field behind a `RwLock`,
//!   advanced monotonically. A solo engine views a private store; the
//!   sessions of a service view one shared [`store::ProgressStore`], so
//!   they decode every bitplane exactly once and serve looser requests
//!   without touching the source.
//! * [`pager`] — the bounded-memory tier manager behind the store: decoded
//!   state is charged against a global [`StoreBudget`]; over budget, cold
//!   fields demote to their [`ReaderProgress`] marker (backed by a
//!   compressed-fragment RAM tier, then the source) and rehydrate
//!   bit-identically on demand by replaying the exact restore plan.
//! * [`plan`] — the plan/execute pipeline over the engine: multi-QoI
//!   requests resolve into per-field Algorithm-3 bounds (a field shared by
//!   several targets is bounded once, at the tightest), and execution has
//!   the store plan each field's refinement front and read it through
//!   [`fragstore::FragmentSource::read_many`], with per-target
//!   certification, byte budgets and shared-fragment accounting.
//!
//! ## Flow (mirrors Fig. 1)
//!
//! ```
//! use pqr_progressive::engine::{EngineConfig, QoiSpec, RetrievalEngine};
//! use pqr_progressive::field::Dataset;
//! use pqr_progressive::refactored::Scheme;
//! use pqr_qoi::library::velocity_magnitude;
//!
//! // archive side: refactor three velocity fields
//! let n = 512;
//! let fields: Vec<Vec<f64>> = (0..3)
//!     .map(|c| (0..n).map(|i| ((i + c * 37) as f64 * 0.01).sin() + 1.5).collect())
//!     .collect();
//! let names = ["Vx", "Vy", "Vz"];
//! let mut ds = Dataset::new(&[n]);
//! for (name, f) in names.iter().zip(&fields) {
//!     ds.add_field(name, f.clone()).unwrap();
//! }
//! let archive = ds.refactor(Scheme::PmgardHb).unwrap();
//!
//! // retrieval side: VTOT within 1e-4 of truth, guaranteed
//! let qoi = QoiSpec::relative("VTOT", velocity_magnitude(0, 3), 1e-4, &ds).unwrap();
//! let mut engine = RetrievalEngine::new(&archive, EngineConfig::default()).unwrap();
//! let report = engine.retrieve(&[qoi]).unwrap();
//! assert!(report.satisfied);
//!
//! // the guarantee: estimated ≥ actual error, estimated ≤ tolerance
//! let recon = engine.reconstruction(0);
//! assert_eq!(recon.len(), n);
//! ```

mod backend;
pub mod engine;
pub mod field;
pub mod fragstore;
pub mod mask;
pub mod pager;
pub mod plan;
pub mod refactored;
pub mod store;

pub use engine::{EngineConfig, QoiSpec, RetrievalEngine};
pub use field::{Dataset, RefactoredDataset};
pub use fragstore::{
    FileSource, FragmentId, FragmentSource, InMemorySource, Manifest, SourceStats,
};
pub use mask::ZeroMask;
pub use pager::{parse_budget, StoreBudget};
pub use plan::{PlanReport, RetrievalPlan, TargetReport};
pub use refactored::{FieldReader, ReaderProgress, RefactoredField, Scheme};
pub use store::{FieldSnapshot, ProgressStore, StoreStats};
