//! Ablation studies beyond the paper's figures — each section isolates one
//! design choice DESIGN.md calls out and prints a tab-separated series.
//!
//! 1. **Representation** — the paper's three schemes + PMGARD(OB) + the
//!    PZFP extension, single-request bitrates on VTOT (the Fig. 7 protocol
//!    with the scheme axis widened).
//! 2. **Estimator** — the paper's §IV theorems vs the exact-supremum √
//!    variant vs generic interval arithmetic: retrieval cost and the
//!    estimated-vs-actual gap each estimator leaves on the table.
//! 3. **Reduction factor** — Algorithm 4's `c` (paper: 1.5): iteration
//!    count vs over-retrieval for gentler/harsher tightening.
//!
//! Run: `cargo run -p pqr-bench --release --bin ablation`

use pqr_bench::{ge_small_dataset, print_header, qoi_single_requests, refactor_with_mask};
use pqr_progressive::engine::{EngineConfig, QoiSpec, RetrievalEngine};
use pqr_progressive::refactored::Scheme;
use pqr_qoi::bounds::{BoundConfig, Estimator, SqrtMode};
use pqr_util::stats;

fn main() {
    let ds = ge_small_dataset();
    let vtot = pqr_qoi::ge::v_total();
    let range = ds.qoi_range(&vtot).expect("range");
    let tols: Vec<f64> = (0..=16).map(|i| 0.1 * (2.0f64).powi(-i)).collect();

    // ---- 1. representation ablation -------------------------------------
    println!("# Ablation 1 — representation (single-request VTOT bitrates)");
    print_header(&["scheme", "req_tol", "bitrate"]);
    for scheme in Scheme::extended() {
        let archive = refactor_with_mask(&ds, scheme);
        for (tol, bitrate) in qoi_single_requests(&archive, "VTOT", &vtot, range, &tols) {
            println!("{}\t{tol:.6e}\t{bitrate:.4}", scheme.name());
        }
    }

    // ---- 2. estimator ablation -------------------------------------------
    println!();
    println!("# Ablation 2 — estimator (PMGARD-HB, six GE QoIs, tol 1e-4)");
    print_header(&["qoi", "estimator", "bitrate", "est_rel", "actual_rel"]);
    let archive = refactor_with_mask(&ds, Scheme::PmgardHb);
    let estimators: [(&str, BoundConfig); 3] = [
        ("paper", BoundConfig::default()),
        (
            "exact-sqrt",
            BoundConfig {
                sqrt_mode: SqrtMode::Exact,
                ..Default::default()
            },
        ),
        (
            "interval",
            BoundConfig {
                estimator: Estimator::Interval,
                ..Default::default()
            },
        ),
    ];
    for (name, expr) in pqr_qoi::ge::all() {
        let qrange = ds.qoi_range(&expr).expect("range");
        let truth = ds.qoi_values(&expr);
        for (label, bc) in &estimators {
            let cfg = EngineConfig {
                bound_config: *bc,
                ..Default::default()
            };
            let mut engine = RetrievalEngine::new(&archive, cfg).expect("engine");
            let spec = QoiSpec::with_range(name, expr.clone(), 1e-4, qrange);
            let report = engine.retrieve(&[spec]).expect("retrieve");
            let actual = stats::max_abs_diff(&truth, &engine.qoi_values(&expr));
            println!(
                "{name}\t{label}\t{:.4}\t{:.3e}\t{:.3e}",
                report.bitrate,
                report.targets[0].max_est_error / qrange,
                actual / qrange,
            );
        }
    }

    // ---- 2b. estimator ablation at the √ pole (no mask) -------------------
    // The interesting regime: without the zero-outlier mask, the paper's
    // Theorem 2 estimate is ∞ at exact-zero wall nodes, so paper-mode
    // retrieval can only exhaust the stream and give up; the exact-supremum
    // and interval estimators stay finite and converge. This quantifies
    // what §V-A's mask buys each estimator.
    println!();
    println!("# Ablation 2b — VTOT without the zero mask (tol 1e-3)");
    print_header(&["estimator", "satisfied", "bitrate", "iterations"]);
    let unmasked = ds
        .refactor_with_bounds(Scheme::PmgardHb, &pqr_bench::paper_ladder())
        .expect("refactor");
    for (label, bc) in &estimators {
        let cfg = EngineConfig {
            bound_config: *bc,
            max_iterations: 10,
            ..Default::default()
        };
        let mut engine = RetrievalEngine::new(&unmasked, cfg).expect("engine");
        let spec = QoiSpec::with_range("VTOT", vtot.clone(), 1e-3, range);
        let report = engine.retrieve(&[spec]).expect("retrieve");
        println!(
            "{label}\t{}\t{:.4}\t{}",
            report.satisfied, report.bitrate, report.iterations
        );
    }

    // ---- 2c. region-of-interest scope -------------------------------------
    // Restricting the tolerance to a window (the RoI thread of the paper's
    // related work) shrinks the *error-control scope*. The effect depends on
    // the QoI's sensitivity profile: for VTOT (gradient ≡ 1) every point is
    // equally hard and a region saves nothing on homogeneous data; for u²
    // (sensitivity 2|u|) excluding the violent zone relaxes ε by the
    // amplitude ratio. A two-zone field makes both regimes visible.
    println!();
    println!("# Ablation 2c — region-restricted u^2 on a two-zone field (tol 1e-5)");
    print_header(&["scope", "bitrate"]);
    let n = 40_000;
    let (zoned, zone_ranges) =
        pqr_datagen::zones::generate(&pqr_datagen::zones::ZonesConfig::quiet_violent(n));
    let mut zds = pqr_progressive::field::Dataset::new(&[n]);
    zds.add_field("u", zoned.field("u").expect("field").to_vec())
        .expect("field");
    let usq = pqr_qoi::QoiExpr::var(0).pow(2);
    let urange = zds.qoi_range(&usq).expect("range");
    for (label, region) in [
        ("global", None),
        ("quiet half", Some(zone_ranges[0])),
        ("violent half", Some(zone_ranges[1])),
    ] {
        let archive = zds.refactor(Scheme::PmgardHb).expect("refactor");
        let mut engine = RetrievalEngine::new(&archive, EngineConfig::default()).expect("engine");
        let mut spec = QoiSpec::with_range("u2", usq.clone(), 1e-5, urange);
        if let Some((lo, hi)) = region {
            spec = spec.restrict_to(lo, hi);
        }
        let report = engine.retrieve(&[spec]).expect("retrieve");
        println!("{label}\t{:.4}", report.bitrate);
    }

    // ---- 3. reduction-factor ablation -------------------------------------
    println!();
    println!("# Ablation 3 — Algorithm 4 reduction factor c (VTOT, tol sweep)");
    print_header(&["c", "req_tol", "bitrate", "iterations"]);
    for c in [1.25, 1.5, 2.0, 4.0] {
        let archive = refactor_with_mask(&ds, Scheme::PmgardHb);
        for &tol in &[1e-2, 1e-4, 1e-6] {
            let cfg = EngineConfig {
                reduction_factor: c,
                ..Default::default()
            };
            let mut engine = RetrievalEngine::new(&archive, cfg).expect("engine");
            let spec = QoiSpec::with_range("VTOT", vtot.clone(), tol, range);
            let report = engine.retrieve(&[spec]).expect("retrieve");
            println!(
                "{c}\t{tol:.1e}\t{:.4}\t{}",
                report.bitrate, report.iterations
            );
        }
    }
}
