//! The paper's tables and figures, one section each: `fig2` … `fig9`,
//! `table3`, `table4`, and `ablation` for the studies beyond the paper.
//! [`run`] is the entry point `repro` calls for each section it is given.

use crate::{
    ge_large_config, ge_small, ge_small_config, hurricane, nyx, paper_ladder, primary_bound_series,
    primary_sweep, qoi_sweep, qoi_tolerance_series, refactor, request, s3d, single_requests, Tsv,
};
use pqr_datagen::ge;
use pqr_datagen::s3d::{FIELD_NAMES, PRODUCT_PAIRS};
use pqr_mgard::{Basis, MgardRefactorer};
use pqr_progressive::engine::{EngineConfig, QoiSpec, RetrievalEngine};
use pqr_progressive::field::Dataset;
use pqr_progressive::fragstore::{FileSource, FragmentSource};
use pqr_progressive::refactored::{RefactoredField, Scheme};
use pqr_qoi::bounds::{BoundConfig, Estimator, SqrtMode};
use pqr_qoi::library::{species_product, velocity_magnitude};
use pqr_qoi::QoiExpr;
use pqr_transfer::pipeline::baseline_transfer_secs;
use pqr_transfer::{run_pipeline, NetworkModel, PipelineConfig};
use pqr_util::stats;
use pqr_util::timer::time_it;
use std::sync::Arc;

/// The smallest scale every section runs at: below it the NYX stand-in's
/// 64³ cube shrinks to one point, whose zero value range leaves Fig. 5's
/// relative errors undefined. `repro` refuses a smaller `PQR_SCALE`.
pub const MIN_SCALE: f64 = 2.0 / 64.0;

/// Every section, in the order `all` runs them.
pub const SECTIONS: [&str; 11] = [
    "fig2", "fig3", "fig4", "fig5", "fig6", "fig7", "fig8", "fig9", "table3", "table4", "ablation",
];

/// Runs section `name` on the stand-ins grown by `scale`, printing through
/// `t`; `no_mask` drops Fig. 4's velocity mask. Panics on a name not in
/// [`SECTIONS`].
pub fn run(name: &str, scale: f64, no_mask: bool, t: &mut Tsv) {
    match name {
        "fig2" => fig2(t, scale),
        "fig3" => fig3(t, scale),
        "fig4" => fig4(t, scale, no_mask),
        "fig5" => fig5(t, scale),
        "fig6" => fig6(t, scale),
        "fig7" => fig7(t, scale),
        "fig8" => fig8(t, scale),
        "fig9" => fig9(t, scale),
        "table3" => table3(t, scale),
        "table4" => table4(t, scale),
        "ablation" => ablation(t, scale),
        _ => panic!("unknown section {name}"),
    }
}

/// The paper's three progressive approaches, in the order Figs. 7 and 8 print them.
const PAPER_SCHEMES: [Scheme; 3] = [Scheme::Psz3, Scheme::Psz3Delta, Scheme::PmgardHb];
const QOI_SWEEP_COLS: &str = "qoi req_tol bitrate est_rel actual_rel";
const SINGLE_REQUEST_COLS: &str = "qoi scheme req_tol bitrate";

/// The four §VI-A S3D molar-concentration products (O₂·H, O·OH, H₂·O,
/// H·OH), named `A*B`.
fn s3d_products() -> Vec<(String, QoiExpr)> {
    PRODUCT_PAIRS
        .iter()
        .map(|&(a, b)| {
            (
                format!("{}*{}", FIELD_NAMES[a], FIELD_NAMES[b]),
                species_product(a, b),
            )
        })
        .collect()
}

/// Fig. 2 — primary-data rate-distortion of PSZ3, PSZ3-delta, PMGARD and
/// PMGARD-HB on the GE fields: cumulative bytes against a persistent
/// reader, the scenario that exposes PSZ3's snapshot redundancy and
/// staircases.
fn fig2(t: &mut Tsv, scale: f64) {
    let ds = ge_small(scale);
    t.table(
        "Fig. 2 — requested relative error vs bitrate (cumulative progressive requests)",
        "field scheme req_rel_eb bitrate",
    );
    let reps = Scheme::all().map(|s| (s.name(), s));
    primary_sweep(t, &ds, &reps, |scheme, data, range| {
        let rf =
            RefactoredField::refactor_with_bounds(scheme, data, &[data.len()], &paper_ladder())
                .expect("refactor");
        let mut reader = rf.reader();
        primary_bound_series()
            .iter()
            .map(|rel| {
                reader.refine_to(rel * range).expect("refine");
                format!("{:.4}", stats::bitrate(reader.total_fetched(), data.len()))
            })
            .collect()
    });
}

/// Fig. 3 — the decomposition basis on GE-small: requested tolerance,
/// guaranteed bound and real error for PMGARD (orthogonal, OB) and
/// PMGARD-HB (hierarchical, HB). OB over-retrieves (estimated ≫ real); HB
/// tracks closely.
fn fig3(t: &mut Tsv, scale: f64) {
    let ds = ge_small(scale);
    t.table(
        "Fig. 3 — requested vs estimated vs real error, OB vs HB",
        "field basis req_rel bitrate est_rel real_rel",
    );
    let reps = [("OB", Basis::Orthogonal), ("HB", Basis::Hierarchical)];
    primary_sweep(t, &ds, &reps, |basis, data, range| {
        let stream = MgardRefactorer::new(basis)
            .refactor(data, &[data.len()])
            .expect("refactor");
        let mut reader = stream.reader();
        primary_bound_series()
            .iter()
            .map(|rel| {
                reader.refine_to(rel * range).expect("refine");
                let est = reader.guaranteed_bound() / range;
                let real = stats::max_abs_diff(data, &reader.reconstruct()) / range;
                let bitrate = stats::bitrate(reader.total_fetched(), data.len());
                format!("{bitrate:.4}\t{est:.6e}\t{real:.6e}")
            })
            .collect()
    });
}

/// Fig. 4 — PMGARD-HB QoI error control on GE-small, all six QoIs. On
/// display: actual ≤ estimated ≤ requested (§VI-B). Without the zero mask
/// (§V-A ablation) √-type QoIs become unboundable at wall nodes.
fn fig4(t: &mut Tsv, scale: f64, no_mask: bool) {
    let ds = ge_small(scale);
    let archive = refactor(&ds, Scheme::PmgardHb, !no_mask);
    t.table(
        format_args!(
            "Fig. 4 — PMGARD-HB QoI error control on GE-small (mask: {})",
            !no_mask
        ),
        QOI_SWEEP_COLS,
    );
    for (name, expr) in pqr_qoi::ge::all() {
        qoi_sweep(t, name, &ds, &archive, &expr);
    }
}

/// Fig. 5 — the Fig. 4 sweep of VTOT on the cosmology and climate
/// stand-ins: generality beyond the GE case study.
fn fig5(t: &mut Tsv, scale: f64) {
    t.table(
        "Fig. 5 — PMGARD-HB VTOT error control on NYX and Hurricane",
        "dataset req_tol bitrate est_rel actual_rel",
    );
    for (label, ds) in [("NYX", nyx(scale)), ("Hurricane", hurricane(scale))] {
        let archive = refactor(&ds, Scheme::PmgardHb, false);
        qoi_sweep(t, label, &ds, &archive, &velocity_magnitude(0, 3));
    }
}

/// Fig. 6 — the Fig. 4 sweep of the S3D species products.
fn fig6(t: &mut Tsv, scale: f64) {
    let ds = s3d(scale);
    let archive = refactor(&ds, Scheme::PmgardHb, false);
    t.table(
        "Fig. 6 — PMGARD-HB error control on S3D species products",
        QOI_SWEEP_COLS,
    );
    for (name, expr) in s3d_products() {
        qoi_sweep(t, &name, &ds, &archive, &expr);
    }
}

/// Fig. 7 — single-request bitrates of the three progressive approaches
/// for the six GE QoIs.
fn fig7(t: &mut Tsv, scale: f64) {
    let ds = ge_small(scale);
    t.table(
        "Fig. 7 — single-request retrieval efficiency on GE-small",
        SINGLE_REQUEST_COLS,
    );
    let qois = pqr_qoi::ge::all();
    single_requests(t, &ds, &PAPER_SCHEMES, &qois, &qoi_tolerance_series(), true);
}

/// Fig. 8 — single-request bitrates for the S3D species products.
fn fig8(t: &mut Tsv, scale: f64) {
    let ds = s3d(scale);
    t.table(
        "Fig. 8 — single-request retrieval efficiency on S3D",
        SINGLE_REQUEST_COLS,
    );
    let qois = s3d_products();
    single_requests(
        t,
        &ds,
        &PAPER_SCHEMES,
        &qois,
        &qoi_tolerance_series(),
        false,
    );
}

/// Fig. 9 — remote transfer time over the simulated MCC→Anvil Globus pipe:
/// GE-large, 96 blocks on 96 workers, VTOT at τ = 1e-1 … 1e-5, against
/// the raw-data baseline (the paper's dashed line: 11.7 s for 4.67 GB).
/// The pipe's fixed costs scale with the dataset, which keeps the paper's
/// bandwidth-dominated regime at laptop sizes (see DIVERGENCES.md,
/// "Network and transfer experiment").
fn fig9(t: &mut Tsv, scale: f64) {
    let cfg = ge_large_config(scale);
    let raw_blocks = ge::generate(&cfg);
    let raw_bytes = 96.0 * cfg.mean_block_len as f64 * 3.0 * 8.0;
    let factor = raw_bytes / 4.67e9;
    let mut network = NetworkModel::globus_mcc_to_anvil();
    network.latency_s *= factor;
    network.per_request_overhead_s *= factor;
    let vtot = velocity_magnitude(0, 3);

    // Retrieval compute is reconstructed as the 96-core makespan from
    // measured per-block times (the paper has 96 physical Anvil cores; a
    // laptop oversubscribes them and would overstate compute ~12×).
    t.table(
        "Fig. 9 — simulated Globus transfer, GE-large, 96 workers, VTOT",
        "scheme req_tol bytes retrieval96_s transfer_s total_s speedup_vs_raw",
    );
    for scheme in [Scheme::PmgardHb, Scheme::Psz3, Scheme::Psz3Delta] {
        // refactor each block (3 velocity fields + mask) under this scheme
        let mut ranges = Vec::new();
        let blocks: Vec<Arc<dyn FragmentSource>> = raw_blocks
            .iter()
            .map(|b| {
                let mut ds = Dataset::new(&b.dims);
                for name in ["VelocityX", "VelocityY", "VelocityZ"] {
                    ds.add_field(name, b.field(name).unwrap().to_vec()).unwrap();
                }
                ranges.push(ds.qoi_range(&vtot).unwrap());
                refactor(&ds, scheme, true)
            })
            .collect();
        let cfg = PipelineConfig {
            workers: 96,
            network,
            ..Default::default()
        };
        let baseline = baseline_transfer_secs(&blocks, &cfg, 3).expect("block manifests");
        if scheme == Scheme::PmgardHb {
            let raw: usize = blocks
                .iter()
                .map(|b| b.manifest().expect("block manifest").raw_bytes())
                .sum();
            t.row(format_args!(
                "raw-baseline\t-\t{raw}\t0.000\t{baseline:.3}\t{baseline:.3}\t1.00"
            ));
        }
        for i in 1..=5 {
            let tol = 10f64.powi(-i);
            let result = run_pipeline(&blocks, &cfg, |b| {
                vec![QoiSpec::with_range("VTOT", vtot.clone(), tol, ranges[b])]
            })
            .expect("pipeline");
            assert!(result.all_satisfied(), "{} τ=1e-{i}", scheme.name());
            let total = result.total_secs_at(96);
            t.row(format_args!(
                "{}\t1e-{i}\t{}\t{:.4}\t{:.4}\t{total:.4}\t{:.2}",
                scheme.name(),
                result.total_bytes,
                result.makespan_secs(96),
                result.transfer_secs,
                baseline / total
            ));
        }
    }
}

/// Table III — the generated stand-ins at `scale`, with the paper's sizes
/// for comparison.
fn table3(t: &mut Tsv, scale: f64) {
    t.table(
        format_args!("Table III — datasets and QoIs (stand-ins at PQR_SCALE={scale})"),
        "dataset dims nv type size_MB paper_size qois",
    );
    let mb = |bytes: usize| bytes as f64 / 1_000_000.0;
    let size = |ds: &Dataset| ds.num_fields() * ds.num_elements() * 8;
    let (small_cfg, large_cfg) = (ge_small_config(scale), ge_large_config(scale));
    let small = ge_small(scale);
    t.row(format_args!(
        "GE-small\t{}x~{} ({} pts)\t5\tdouble\t{:.2}\t137.96 MB\tEq.(1)-(6)",
        small_cfg.blocks,
        small_cfg.mean_block_len,
        small.num_elements(),
        mb(size(&small))
    ));
    for (label, ds, paper, qois) in [
        ("Hurricane", hurricane(scale), "572.20 MB", "Total velocity"),
        ("NYX", nyx(scale), "3.00 GB", "Total velocity"),
        (
            "S3D",
            s3d(scale),
            "4.78 GB",
            "Molar concentration multiplication",
        ),
    ] {
        t.row(format_args!(
            "{label}\t{:?}\t{}\tdouble\t{:.2}\t{paper}\t{qois}",
            ds.dims(),
            ds.num_fields(),
            mb(size(&ds))
        ));
    }
    let large = ge::generate(&large_cfg);
    t.row(format_args!(
        "GE-large\t{}x~{} ({} blocks)\t5\tdouble\t{:.2}\t7.79 GB\tEq.(1)-(6)",
        large_cfg.blocks,
        large_cfg.mean_block_len,
        large.len(),
        mb(large.iter().map(|b| b.raw_bytes()).sum())
    ));
}

/// Table IV — refactoring and retrieval wall time on GE-small. PSZ3 and
/// PSZ3-delta pay the 18-snapshot ladder; PMGARD-HB pays one decomposition
/// and bitplane pass. VTOT retrieval is timed per request (fresh engine per
/// cell, as the paper's table is), then retrieved from a file-backed
/// archive to compare the disk bytes read with the bytes reconstructed.
fn table4(t: &mut Tsv, scale: f64) {
    let ds = ge_small(scale);
    let expr = velocity_magnitude(0, 3);
    let range = ds.qoi_range(&expr).expect("range");
    let spec = |i: i32| QoiSpec::with_range("VTOT", expr.clone(), 10f64.powi(-i), range);

    t.table(
        "Table IV — refactor and retrieval time (seconds), GE-small, VTOT",
        "scheme refactor_s 1e-1 1e-2 1e-3 1e-4 1e-5",
    );
    let mut archives = Vec::new();
    for scheme in [Scheme::PmgardHb, Scheme::Psz3, Scheme::Psz3Delta] {
        // refactor timing includes the ladder for snapshot schemes
        let (archive, refactor_s) = time_it(|| refactor(&ds, scheme, true));
        let mut cells = Vec::new();
        for i in 1..=5 {
            let spec = spec(i);
            let (report, secs) = time_it(|| request(&archive, EngineConfig::default(), spec));
            assert!(report.satisfied, "{} τ=1e-{i}", scheme.name());
            cells.push(format!("{secs:.3}"));
        }
        t.row(format_args!(
            "{}\t{refactor_s:.3}\t{}",
            scheme.name(),
            cells.join("\t")
        ));
        archives.push((scheme, archive));
    }

    t.table(
        "partial retrieval — disk bytes read vs bytes reconstructed (file-backed, VTOT)",
        "scheme tol disk_read_B archive_B recon_B read_frac",
    );
    let dir = std::env::temp_dir().join("pqr_table4");
    std::fs::create_dir_all(&dir).expect("temp dir");
    let recon_bytes = ds.num_fields() * ds.num_elements() * 8;
    for (scheme, archive) in &archives {
        let path = dir.join(format!(
            "table4_{}_{}.pqrx",
            scheme.name(),
            std::process::id()
        ));
        let mut file = std::fs::File::create(&path).expect("create archive");
        archive.copy_to(&mut file).expect("write archive");
        let archive_size = std::fs::metadata(&path).expect("stat").len();
        for i in 1..=5 {
            let source = Arc::new(FileSource::open(&path).expect("open"));
            let mut engine = RetrievalEngine::from_source(source.clone(), EngineConfig::default())
                .expect("engine");
            let report = engine.retrieve(&[spec(i)]).expect("retrieve");
            assert!(report.satisfied, "{} τ=1e-{i}", scheme.name());
            let disk = source.disk_bytes_read();
            t.row(format_args!(
                "{}\t1e-{i}\t{disk}\t{archive_size}\t{recon_bytes}\t{:.4}",
                scheme.name(),
                disk as f64 / archive_size as f64
            ));
        }
        std::fs::remove_file(&path).ok();
    }
}

/// Studies beyond the paper's figures, each isolating one design choice:
///
/// 1. **Representation** — the paper's three schemes + PMGARD (OB) + the
///    PZFP extension, single-request VTOT bitrates (Fig. 7's protocol).
/// 2. **Estimator** — the paper's §IV theorems vs the exact-supremum √
///    variant vs generic interval arithmetic: retrieval cost and the
///    estimated-vs-actual gap each leaves; then (2b) the same without the
///    zero mask and (2c) a region-restricted tolerance.
/// 3. **Reduction factor** — Algorithm 4's `c` (paper: 1.5): iteration
///    count vs over-retrieval for gentler/harsher tightening.
fn ablation(t: &mut Tsv, scale: f64) {
    let ds = ge_small(scale);
    let vtot = pqr_qoi::ge::v_total();
    let range = ds.qoi_range(&vtot).expect("range");
    let tols: Vec<f64> = (0..=16).map(|i| 0.1 * (2.0f64).powi(-i)).collect();

    t.table(
        "Ablation 1 — representation (single-request VTOT bitrates)",
        "scheme req_tol bitrate",
    );
    let qois = [("VTOT", vtot.clone())];
    single_requests(t, &ds, &Scheme::extended(), &qois, &tols, true);

    t.table(
        "Ablation 2 — estimator (PMGARD-HB, six GE QoIs, tol 1e-4)",
        "qoi estimator bitrate est_rel actual_rel",
    );
    let archive = refactor(&ds, Scheme::PmgardHb, true);
    let paper = BoundConfig::default();
    let exact = BoundConfig {
        sqrt_mode: SqrtMode::Exact,
        ..paper
    };
    let interval = BoundConfig {
        estimator: Estimator::Interval,
        ..paper
    };
    let estimators = [
        ("paper", paper),
        ("exact-sqrt", exact),
        ("interval", interval),
    ];
    for (name, expr) in pqr_qoi::ge::all() {
        let qrange = ds.qoi_range(&expr).expect("range");
        let truth = ds.qoi_values(&expr);
        for (label, bc) in &estimators {
            let cfg = EngineConfig {
                bound_config: *bc,
                ..Default::default()
            };
            let mut engine = RetrievalEngine::from_source(archive.clone(), cfg).expect("engine");
            let spec = QoiSpec::with_range(name, expr.clone(), 1e-4, qrange);
            let report = engine.retrieve(&[spec]).expect("retrieve");
            let actual = stats::max_abs_diff(&truth, &engine.qoi_values(&expr));
            t.row(format_args!(
                "{name}\t{label}\t{:.4}\t{:.3e}\t{:.3e}",
                report.bitrate,
                report.targets[0].max_est_error / qrange,
                actual / qrange,
            ));
        }
    }

    // Without the zero-outlier mask the paper's Theorem 2 estimate is ∞ at
    // exact-zero wall nodes, so paper-mode retrieval can only exhaust the
    // stream and give up; the exact-supremum and interval estimators stay
    // finite and converge. This quantifies what §V-A's mask buys each
    // estimator.
    t.table(
        "Ablation 2b — VTOT without the zero mask (tol 1e-3)",
        "estimator satisfied bitrate iterations",
    );
    let unmasked = refactor(&ds, Scheme::PmgardHb, false);
    for (label, bc) in &estimators {
        let cfg = EngineConfig {
            bound_config: *bc,
            max_iterations: 10,
            ..Default::default()
        };
        let spec = QoiSpec::with_range("VTOT", vtot.clone(), 1e-3, range);
        let report = request(&unmasked, cfg, spec);
        t.row(format_args!(
            "{label}\t{}\t{:.4}\t{}",
            report.satisfied, report.bitrate, report.iterations
        ));
    }

    // Restricting the tolerance to a window (the RoI thread of the paper's
    // related work) shrinks the *error-control scope*. The effect depends on
    // the QoI's sensitivity profile: for VTOT (gradient ≡ 1) every point is
    // equally hard and a region saves nothing on homogeneous data; for u²
    // (sensitivity 2|u|) excluding the violent zone relaxes ε by the
    // amplitude ratio. A two-zone field makes both regimes visible.
    t.table(
        "Ablation 2c — region-restricted u^2 on a two-zone field (tol 1e-5)",
        "scope bitrate",
    );
    let n = 40_000;
    let (zoned, zone_ranges) =
        pqr_datagen::zones::generate(&pqr_datagen::zones::ZonesConfig::quiet_violent(n));
    let mut zds = Dataset::new(&[n]);
    zds.add_field("u", zoned.field("u").expect("field").to_vec())
        .expect("field");
    let usq = QoiExpr::var(0).pow(2);
    let urange = zds.qoi_range(&usq).expect("range");
    let zarchive: Arc<dyn FragmentSource> =
        Arc::new(zds.refactor(Scheme::PmgardHb).expect("refactor"));
    for (label, region) in [
        ("global", None),
        ("quiet half", Some(zone_ranges[0])),
        ("violent half", Some(zone_ranges[1])),
    ] {
        let mut spec = QoiSpec::with_range("u2", usq.clone(), 1e-5, urange);
        if let Some((lo, hi)) = region {
            spec = spec.restrict_to(lo, hi);
        }
        let report = request(&zarchive, EngineConfig::default(), spec);
        t.row(format_args!("{label}\t{:.4}", report.bitrate));
    }

    t.table(
        "Ablation 3 — Algorithm 4 reduction factor c (VTOT, tol sweep)",
        "c req_tol bitrate iterations",
    );
    for c in [1.25, 1.5, 2.0, 4.0] {
        for tol in [1e-2, 1e-4, 1e-6] {
            let cfg = EngineConfig {
                reduction_factor: c,
                ..Default::default()
            };
            let spec = QoiSpec::with_range("VTOT", vtot.clone(), tol, range);
            let report = request(&archive, cfg, spec);
            t.row(format_args!(
                "{c}\t{tol:.1e}\t{:.4}\t{}",
                report.bitrate, report.iterations
            ));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Smallest scale at which every section's own checks hold.
    const TEST_SCALE: f64 = 0.05;

    fn render(section: &str, scale: f64) -> String {
        let mut out = Vec::new();
        run(section, scale, false, &mut Tsv::new(&mut out));
        String::from_utf8(out).unwrap()
    }

    #[test]
    fn table3_prints_every_dims_cell() {
        let out = render("table3", TEST_SCALE);
        assert!(!out.contains("{}"), "{out}");
        let dims: Vec<&str> = out
            .lines()
            .skip(2)
            .map(|l| l.split('\t').nth(1).unwrap())
            .collect();
        assert_eq!(dims.len(), 5);
        assert!(dims[0].starts_with("200x~170 "), "{}", dims[0]);
        assert!(dims[4].starts_with("96x~600 "), "{}", dims[4]);
    }

    #[test]
    fn fig6_prints_numbers_below_the_minimum_scale() {
        // S3D shrinks to [2, 1, 1] here: every extent stays at least one
        let out = render("fig6", 0.02);
        assert!(!out.contains("NaN"), "{out}");
    }

    #[test]
    fn no_section_prints_nan_at_the_minimum_scale() {
        for section in SECTIONS {
            let out = render(section, MIN_SCALE);
            assert!(!out.contains("NaN"), "{section}: {out}");
        }
    }

    #[test]
    fn every_section_prints_a_header_and_rows() {
        for section in SECTIONS {
            let out = render(section, TEST_SCALE);
            let lines: Vec<&str> = out.lines().collect();
            assert!(lines[0].starts_with("# "), "{section}: {out}");
            let cols = lines[1].split('\t').count();
            assert!(cols > 1, "{section}: {out}");
            assert!(lines.len() > 2, "{section} printed no row");
            assert_eq!(lines[2].split('\t').count(), cols, "{section}: {out}");
        }
    }
}
