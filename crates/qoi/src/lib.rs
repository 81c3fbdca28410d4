//! # pqr-qoi — derivable-QoI error-bound calculus
//!
//! Implementation of §IV of *"Error-controlled Progressive Retrieval of
//! Scientific Data under Derivable Quantities of Interest"* (SC'24): given a
//! reconstructed value (vector) `x` and the L∞ error bound(s) `ε` used during
//! progressive retrieval, compute a **guaranteed upper bound** on the error
//! of any *derivable QoI* — a function composed from the basis families of
//! Table II:
//!
//! | family | formula | theorem |
//! |---|---|---|
//! | polynomial | `Σ aᵢxⁱ` | Thm 1 (+7, +8) |
//! | square root | `√x` | Thm 2 |
//! | radical | `1/(x+c)` | Thm 3 |
//! | addition | `Σ aᵢxᵢ` | Thm 4 |
//! | multiplication | `x₁·x₂` | Thm 5 |
//! | division | `x₁/x₂` | Thm 6 |
//! | composition | `f∘g` | Thm 9, Lem 1, Lem 2 |
//!
//! The crate provides:
//!
//! * [`bounds`] — the theorem formulas as standalone, unit-tested functions;
//! * [`expr`] — a QoI expression tree ([`QoiExpr`]) whose recursive
//!   evaluation applies the composition rules (Thm 9 / Lemmas 1–2) to return
//!   a [`Bounded`] `{value, bound}` pair;
//! * [`program`] — the QoIs of one request compiled into a shared
//!   subexpression DAG and evaluated a block of points at a time: what the
//!   retrieval engine's whole-domain scans run, bit-identical to the trees;
//! * [`ge`] — the six GE CFD QoIs of Eq. (1)–(6), pre-built;
//! * [`library`] — additional ready-made QoIs (kinetic energy, momentum,
//!   species products, …) demonstrating genericity (§IV-D).
//!
//! ## The key invariant
//!
//! For any derivable QoI `f`, reconstructed input `x`, bounds `ε`, and any
//! "true" input `x'` with `|x'ᵢ − xᵢ| ≤ εᵢ` for all `i`:
//!
//! ```text
//! |f(x') − f(x)|  ≤  f.eval_bounded(x, ε, cfg).bound
//! ```
//!
//! This invariant is what lets the retrieval engine stop fetching data the
//! moment the *estimated* QoI error meets the user's tolerance — without ever
//! seeing the original data. It is enforced by unit tests on every theorem
//! and by property-based tests on random expression trees.
//!
//! A bound of [`f64::INFINITY`] means the theorem preconditions failed at
//! this point (e.g. Thm 3/6 with `ε ≥ |denominator|`, or `√` near zero); the
//! engine reacts by refining the primary data further, exactly as the paper
//! prescribes.
//!
//! ## Example
//!
//! ```
//! use pqr_qoi::ge;
//!
//! let vtot = ge::v_total();
//! // reconstructed (Vx,Vy,Vz,P,D) and the error bounds used to retrieve them
//! let x = [3.0, 4.0, 12.0, 101_325.0, 1.2];
//! let eps = [1e-3, 1e-3, 1e-3, 1.0, 1e-4];
//! let out = vtot.eval_bounded(&x, &eps, &Default::default());
//! assert!((out.value - 13.0).abs() < 1e-12);
//! // any true velocity within ±1e-3 per component has |Vtot' − 13| ≤ bound
//! assert!(out.bound >= 1.4e-3 && out.bound < 3.0e-3);
//! ```

pub mod bounds;
pub mod expr;
pub mod ge;
pub mod interval;
pub mod library;
pub mod parse;
pub mod program;
pub mod serial;

pub use bounds::{BoundConfig, Estimator, SqrtMode};
pub use expr::{Bounded, QoiExpr};
pub use interval::{eval_interval, interval_bound, Interval};
pub use parse::parse;
pub use program::QoiProgram;
