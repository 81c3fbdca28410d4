//! # pqr-bench — the table/figure harness
//!
//! One binary, `repro`, reproduces every paper table and figure
//! (`cargo run -p pqr-bench --release --bin repro -- fig4 table3`, or `all`),
//! printing tab-separated series that mirror the paper's plots; Criterion
//! micro-benches cover the kernels (`cargo bench`). [`sections`] holds one
//! short function per table or figure; this module holds what they share:
//! the dataset stand-ins, the three sweep loops and the [`Tsv`] writer.
//!
//! Sizes default to laptop scale; `repro` reads `PQR_SCALE` (a float ≥ 1/32)
//! and every constructor here grows its dataset by that factor toward paper
//! scale. The rate-distortion and error-control *shapes* are
//! scale-invariant for the generated spectra — see DIVERGENCES.md,
//! "Datasets".

pub mod sections;

use pqr_datagen::ge::{self, GeConfig};
use pqr_datagen::{hurricane, nyx, s3d, RawDataset};
use pqr_progressive::engine::{EngineConfig, QoiSpec, RetrievalEngine};
use pqr_progressive::field::{Dataset, RefactoredDataset};
use pqr_progressive::plan::PlanReport;
use pqr_progressive::refactored::Scheme;
use pqr_qoi::QoiExpr;
use pqr_util::stats;
use std::fmt::Display;
use std::io::Write;

/// Scales a base element count by `scale`, never below one element: a
/// zero extent would leave a stand-in empty.
fn scaled(base: usize, scale: f64) -> usize {
    (((base as f64) * scale) as usize).max(1)
}

/// The GE-small stand-in's generator config: 200 blocks of ~3 400 points.
pub fn ge_small_config(scale: f64) -> GeConfig {
    GeConfig::small().with_block_len(scaled(3_400, scale))
}

/// The GE-large stand-in's generator config: 96 blocks of ~12 000 points.
pub fn ge_large_config(scale: f64) -> GeConfig {
    GeConfig::large().with_block_len(scaled(12_000, scale))
}

/// The GE-small stand-in as a single linearized dataset.
pub fn ge_small(scale: f64) -> Dataset {
    to_dataset(&ge::concat(&ge::generate(&ge_small_config(scale))))
}

/// The Hurricane stand-in: a 25 × 120 × 120 vortex.
pub fn hurricane(scale: f64) -> Dataset {
    to_dataset(&hurricane::generate(&hurricane::HurricaneConfig {
        dims: [scaled(25, scale), scaled(120, scale), scaled(120, scale)],
        ..hurricane::HurricaneConfig::small()
    }))
}

/// The NYX stand-in: a 64³ velocity cube.
pub fn nyx(scale: f64) -> Dataset {
    to_dataset(&nyx::generate(&nyx::NyxConfig {
        n: scaled(64, scale),
        ..nyx::NyxConfig::small()
    }))
}

/// The S3D stand-in: eight species on a 120 × 34 × 20 flame.
pub fn s3d(scale: f64) -> Dataset {
    to_dataset(&s3d::generate(&s3d::S3dConfig {
        dims: [scaled(120, scale), scaled(34, scale), scaled(20, scale)],
        ..s3d::S3dConfig::small()
    }))
}

/// Converts a generated RawDataset into a progressive Dataset.
fn to_dataset(raw: &RawDataset) -> Dataset {
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

/// Refactors a dataset under a scheme with the paper ladder, adding the
/// zero mask over fields 0–2 (the velocity components, §V-A) when `masked`.
pub fn refactor(ds: &Dataset, scheme: Scheme, masked: bool) -> RefactoredDataset {
    let mut archive = ds
        .refactor_with_bounds(scheme, &paper_ladder())
        .expect("refactor");
    if masked {
        archive.set_mask(ds.zero_mask(&[0, 1, 2])).expect("mask");
    }
    archive
}

/// The writer every section prints through: a table is a `# title` line
/// and a header line — after a blank line unless it opens the output —
/// followed by one line per row.
pub struct Tsv<'a> {
    out: &'a mut dyn Write,
    started: bool,
}

impl<'a> Tsv<'a> {
    /// A writer that has printed nothing yet.
    pub fn new(out: &'a mut dyn Write) -> Self {
        Self {
            out,
            started: false,
        }
    }

    /// Opens a table; `cols` names its columns, separated by spaces.
    pub fn table(&mut self, title: impl Display, cols: &str) {
        if self.started {
            self.row("");
        }
        self.row(format_args!("# {title}"));
        self.row(cols.split(' ').collect::<Vec<_>>().join("\t"));
    }

    /// Prints one row, its cells already joined by tabs.
    pub fn row(&mut self, cells: impl Display) {
        writeln!(self.out, "{cells}").expect("write output");
        self.started = true;
    }
}

/// One request, answered by a fresh engine on `archive`.
pub fn request(archive: &RefactoredDataset, cfg: EngineConfig, spec: QoiSpec) -> PlanReport {
    let mut engine = RetrievalEngine::new(archive, cfg).expect("engine");
    engine.retrieve(&[spec]).expect("retrieve")
}

/// The Fig. 2/3 loop. For each of the four GE fields and each
/// representation in `reps`, `series(rep, data, range)` refines one
/// persistent reader through [`primary_bound_series`] (cumulative bytes,
/// as progressive retrieval accrues them) and returns the trailing cells of
/// one row per bound; rows print as `field\trep\treq_rel\t…`.
pub fn primary_sweep<R: Copy>(
    t: &mut Tsv,
    ds: &Dataset,
    reps: &[(&str, R)],
    mut series: impl FnMut(R, &[f64], f64) -> Vec<String>,
) {
    for field in ["VelocityX", "VelocityZ", "Pressure", "Density"] {
        let data = ds.field(ds.field_index(field).expect("field"));
        let range = stats::value_range(data);
        for &(label, rep) in reps {
            for (rel, cells) in primary_bound_series().iter().zip(series(rep, data, range)) {
                t.row(format_args!("{field}\t{label}\t{rel:.6e}\t{cells}"));
            }
        }
    }
}

/// The Fig. 4–6 loop: one persistent engine serves the QoI tolerance series
/// in order (cumulative bytes), and each step prints
/// `label\treq_tol\tbitrate\test_rel\tactual_rel`, both errors relative to
/// the QoI range.
pub fn qoi_sweep(
    t: &mut Tsv,
    label: &str,
    ds: &Dataset,
    archive: &RefactoredDataset,
    expr: &QoiExpr,
) {
    let range = ds.qoi_range(expr).expect("QoI range");
    let truth = ds.qoi_values(expr);
    let mut engine = RetrievalEngine::new(archive, EngineConfig::default()).expect("engine");
    for tol in qoi_tolerance_series() {
        let spec = QoiSpec::with_range(label, expr.clone(), tol, range);
        let report = engine.retrieve(&[spec]).expect("retrieve");
        let est = report.targets[0].max_est_error / range;
        let actual = stats::max_abs_diff(&truth, &engine.qoi_values(expr)) / range;
        t.row(format_args!(
            "{label}\t{tol:.6e}\t{:.4}\t{est:.6e}\t{actual:.6e}",
            report.bitrate
        ));
    }
}

/// The Fig. 7/8 loop — the "generic case" of §VI-C. For each scheme the
/// dataset is refactored (with the velocity mask when `masked`), and each
/// QoI at each tolerance is one request to a fresh engine. Rows print as
/// `qoi\tscheme\treq_tol\tbitrate`; with a single QoI, which the table's
/// title names, the `qoi` column is left out.
pub fn single_requests(
    t: &mut Tsv,
    ds: &Dataset,
    schemes: &[Scheme],
    qois: &[(impl AsRef<str>, QoiExpr)],
    tols: &[f64],
    masked: bool,
) {
    for &scheme in schemes {
        let archive = refactor(ds, scheme, masked);
        for (name, expr) in qois {
            let (name, range) = (name.as_ref(), ds.qoi_range(expr).expect("range"));
            let qoi = if qois.len() > 1 {
                format!("{name}\t")
            } else {
                String::new()
            };
            for &tol in tols {
                let spec = QoiSpec::with_range(name, expr.clone(), tol, range);
                let report = request(&archive, EngineConfig::default(), spec);
                t.row(format_args!(
                    "{qoi}{}\t{tol:.6e}\t{:.4}",
                    scheme.name(),
                    report.bitrate
                ));
            }
        }
    }
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
    fn scaled_multiplies_and_truncates() {
        assert_eq!(scaled(100, 1.0), 100);
        assert_eq!(scaled(3_400, 0.5), 1_700);
        assert_eq!(scaled(25, 0.1), 2);
        assert_eq!(scaled(25, 0.02), 1);
    }

    #[test]
    fn qoi_sweep_smoke() {
        let mut ds = Dataset::new(&[300]);
        ds.add_field(
            "f",
            (0..300).map(|i| (i as f64 * 0.05).sin() + 2.0).collect(),
        )
        .unwrap();
        let archive = refactor(&ds, Scheme::PmgardHb, false);
        let mut out = Vec::new();
        qoi_sweep(
            &mut Tsv::new(&mut out),
            "f2",
            &ds,
            &archive,
            &QoiExpr::var(0).pow(2),
        );
        let out = String::from_utf8(out).unwrap();
        let rows: Vec<Vec<f64>> = out
            .lines()
            .map(|l| l.split('\t').skip(1).map(|c| c.parse().unwrap()).collect())
            .collect();
        assert_eq!(rows.len(), qoi_tolerance_series().len());
        for row in rows {
            let [tol, bitrate, est, actual] = row[..] else {
                panic!("row {row:?}")
            };
            assert!(bitrate > 0.0);
            assert!(actual <= est, "actual > est");
            assert!(est <= tol, "est > tol");
        }
    }
}
