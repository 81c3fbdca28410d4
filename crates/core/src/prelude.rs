//! Everything a typical PQR user needs, one `use` away.
//!
//! ```
//! use pqr_core::prelude::*;
//! let q = velocity_magnitude(0, 3);
//! assert_eq!(q.arity(), 3);
//! ```

pub use crate::archive::{Archive, ArchiveBuilder, DatasetService, Session};
pub use crate::request::{merge_requests, RequestTarget, RetrievalRequest, ToleranceMode};

pub use pqr_progressive::engine::{EngineConfig, QoiSpec, RetrievalEngine};
pub use pqr_progressive::field::{Dataset, RefactoredDataset};
pub use pqr_progressive::fragstore::{
    FileSource, FragmentId, FragmentSource, InMemorySource, Manifest, SourceStats,
};
pub use pqr_progressive::mask::ZeroMask;
pub use pqr_progressive::pager::{parse_budget, StoreBudget};
pub use pqr_progressive::plan::{PlanReport, RetrievalPlan, TargetReport};
pub use pqr_progressive::refactored::{RefactoredField, Scheme};
pub use pqr_progressive::store::{FieldSnapshot, ProgressStore, StoreStats};

pub use pqr_qoi::ge::{self as ge_qoi};
pub use pqr_qoi::library::{
    arrhenius, kinetic_energy, momentum, rate_of_progress, species_product, species_product_many,
    velocity_magnitude,
};
pub use pqr_qoi::{BoundConfig, Bounded, Estimator, QoiExpr, SqrtMode};

pub use pqr_mgard::{Basis, MgardRefactorer, MgardStream};
pub use pqr_sz::{Predictor, SzCompressor, SzConfig};
pub use pqr_zfp::{ZfpRefactorer, ZfpStream};

pub use pqr_transfer::{run_pipeline, NetworkModel, PipelineConfig};

pub use pqr_util::error::{PqrError, Result};
pub use pqr_util::stats;
