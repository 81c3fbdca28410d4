//! # pqr-bench — the table/figure harness
//!
//! One binary per paper table/figure (`cargo run -p pqr-bench --release
//! --bin figN`), printing tab-separated series that mirror the paper's
//! plots, plus Criterion micro-benches for the kernels (`cargo bench`).
//!
//! Sizes default to laptop scale; set `PQR_SCALE` (a float ≥ 1) to grow
//! every dataset toward paper scale. The rate-distortion and error-control
//! *shapes* are scale-invariant for the generated spectra — see
//! EXPERIMENTS.md for the recorded paper-vs-measured comparison.

use pqr_datagen::ge::{self, GeConfig};
use pqr_datagen::RawDataset;
use pqr_progressive::engine::{EngineConfig, QoiSpec, RetrievalEngine};
use pqr_progressive::field::Dataset;
use pqr_progressive::refactored::Scheme;
use pqr_qoi::QoiExpr;
use pqr_util::stats;

/// Global size multiplier from the `PQR_SCALE` env var (default 1.0).
pub fn scale() -> f64 {
    std::env::var("PQR_SCALE")
        .ok()
        .and_then(|s| s.parse::<f64>().ok())
        .filter(|s| *s > 0.0)
        .unwrap_or(1.0)
}

/// Scales a base element count by `PQR_SCALE`.
pub fn scaled(base: usize) -> usize {
    ((base as f64) * scale()) as usize
}

/// The GE-small stand-in as a single linearized dataset.
pub fn ge_small_dataset() -> Dataset {
    let cfg = GeConfig::small().with_block_len(scaled(3_400));
    let raw = ge::concat(&ge::generate(&cfg));
    to_dataset(&raw)
}

/// Converts a generated RawDataset into a progressive Dataset.
pub fn to_dataset(raw: &RawDataset) -> Dataset {
    let mut ds = Dataset::new(&raw.dims);
    for (name, data) in &raw.fields {
        ds.add_field(name, data.clone()).unwrap();
    }
    ds
}

/// The paper's pre-set snapshot ladder (§VI-C): 10^-1 … 10^-18.
pub fn paper_ladder() -> Vec<f64> {
    (1..=18).map(|i| 10f64.powi(-i)).collect()
}

/// The paper's progressive primary-data bound series: 0.1·2^-i, i = 1..=20.
pub fn primary_bound_series() -> Vec<f64> {
    (1..=20).map(|i| 0.1 * (2.0f64).powi(-i)).collect()
}

/// The paper's QoI tolerance series: 0.1·2^-i, i = 0..=19.
pub fn qoi_tolerance_series() -> Vec<f64> {
    (0..=19).map(|i| 0.1 * (2.0f64).powi(-i)).collect()
}

/// Prints a tab-separated header + rows helper.
pub fn print_header(cols: &[&str]) {
    println!("{}", cols.join("\t"));
}

/// One row of a figure's series.
pub fn print_row(vals: &[String]) {
    println!("{}", vals.join("\t"));
}

/// Runs a progressive QoI tolerance sweep with a persistent engine
/// (cumulative bytes, as the paper's progressive retrieval does) and
/// reports, per tolerance: bitrate, max estimated error, max actual error.
///
/// Returns `(tolerance, bitrate, est_rel, actual_rel)` rows; errors are
/// relative to the QoI range.
pub fn qoi_sweep(
    ds: &Dataset,
    archive: &pqr_progressive::field::RefactoredDataset,
    name: &str,
    expr: &QoiExpr,
    tolerances: &[f64],
    engine_cfg: EngineConfig,
) -> Vec<(f64, f64, f64, f64)> {
    let range = ds.qoi_range(expr).expect("QoI range");
    let truth = ds.qoi_values(expr);
    let mut engine = RetrievalEngine::new(archive, engine_cfg).expect("engine");
    let mut out = Vec::with_capacity(tolerances.len());
    for &tol in tolerances {
        let spec = QoiSpec::with_range(name, expr.clone(), tol, range);
        let report = engine.retrieve(&[spec]).expect("retrieve");
        let derived = engine.qoi_values(expr);
        let actual = stats::max_abs_diff(&truth, &derived);
        out.push((
            tol,
            report.bitrate,
            report.targets[0].max_est_error / range,
            actual / range,
        ));
    }
    out
}

/// Runs a *single-request* QoI retrieval per tolerance (fresh engine each
/// time — the Fig. 7/8 "generic case" of §VI-C) and reports bitrates.
pub fn qoi_single_requests(
    archive: &pqr_progressive::field::RefactoredDataset,
    name: &str,
    expr: &QoiExpr,
    range: f64,
    tolerances: &[f64],
) -> Vec<(f64, f64)> {
    tolerances
        .iter()
        .map(|&tol| {
            let mut engine =
                RetrievalEngine::new(archive, EngineConfig::default()).expect("engine");
            let spec = QoiSpec::with_range(name, expr.clone(), tol, range);
            let report = engine.retrieve(&[spec]).expect("retrieve");
            (tol, report.bitrate)
        })
        .collect()
}

/// Refactors a dataset under a scheme with the paper ladder and the
/// velocity zero-mask when the dataset has the GE field layout.
pub fn refactor_with_mask(
    ds: &Dataset,
    scheme: Scheme,
) -> pqr_progressive::field::RefactoredDataset {
    let mut archive = ds
        .refactor_with_bounds(scheme, &paper_ladder())
        .expect("refactor");
    if ds.num_fields() >= 3 && ds.field_index("VelocityX").is_some() {
        archive.set_mask(ds.zero_mask(&[0, 1, 2])).expect("mask");
    }
    archive
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn series_match_paper_definitions() {
        assert_eq!(paper_ladder().len(), 18);
        assert!((paper_ladder()[0] - 0.1).abs() < 1e-15);
        assert_eq!(primary_bound_series().len(), 20);
        assert!((primary_bound_series()[0] - 0.05).abs() < 1e-15);
        assert_eq!(qoi_tolerance_series().len(), 20);
        assert!((qoi_tolerance_series()[0] - 0.1).abs() < 1e-15);
    }

    #[test]
    fn scale_default_is_one() {
        // (runs without PQR_SCALE in the test environment)
        if std::env::var("PQR_SCALE").is_err() {
            assert_eq!(scale(), 1.0);
            assert_eq!(scaled(100), 100);
        }
    }

    #[test]
    fn qoi_sweep_smoke() {
        let mut ds = Dataset::new(&[300]);
        ds.add_field(
            "f",
            (0..300).map(|i| (i as f64 * 0.05).sin() + 2.0).collect(),
        )
        .unwrap();
        let archive = refactor_with_mask(&ds, Scheme::PmgardHb);
        let rows = qoi_sweep(
            &ds,
            &archive,
            "f2",
            &QoiExpr::var(0).pow(2),
            &[1e-2, 1e-4],
            EngineConfig::default(),
        );
        assert_eq!(rows.len(), 2);
        for (tol, bitrate, est, actual) in rows {
            assert!(bitrate > 0.0);
            assert!(actual <= est, "actual > est");
            assert!(est <= tol, "est > tol");
        }
    }
}
