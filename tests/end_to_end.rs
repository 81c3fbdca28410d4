//! End-to-end integration: archive → progressive retrieval → guarantee,
//! across all five representations and three generated datasets.

use pqr::datagen::{ge, hurricane, nyx, s3d};
use pqr::prelude::*;

/// Builds a Dataset from a RawDataset (all fields).
fn to_dataset(raw: &pqr::datagen::RawDataset) -> Dataset {
    let mut ds = Dataset::new(&raw.dims);
    for (name, data) in &raw.fields {
        ds.add_field(name, data.clone()).unwrap();
    }
    ds
}

/// Asserts the paper's central guarantee for one QoI on one archive:
/// actual ≤ estimated ≤ tolerance.
fn assert_guarantee(ds: &Dataset, archive: &RefactoredDataset, spec: &QoiSpec) {
    let mut engine = RetrievalEngine::new(archive, EngineConfig::default()).unwrap();
    let report = engine.retrieve(std::slice::from_ref(spec)).unwrap();
    assert!(report.satisfied, "{} not satisfied", spec.name);
    let truth = ds.qoi_values(&spec.expr);
    let derived = engine.qoi_values(&spec.expr);
    let actual = stats::max_abs_diff(&truth, &derived);
    assert!(
        actual <= report.targets[0].max_est_error,
        "{}: actual {actual} > estimated {}",
        spec.name,
        report.targets[0].max_est_error
    );
    assert!(
        report.targets[0].max_est_error <= spec.tol_abs(),
        "{}: estimated {} > tolerance {}",
        spec.name,
        report.targets[0].max_est_error,
        spec.tol_abs()
    );
}

#[test]
fn ge_all_qois_all_schemes() {
    let blocks = ge::generate(&ge::GeConfig {
        blocks: 12,
        mean_block_len: 400,
        wall_fraction: 0.03,
        seed: 7,
    });
    let raw = ge::concat(&blocks);
    let ds = to_dataset(&raw);
    let ladder: Vec<f64> = (1..=10).map(|i| 10f64.powi(-i)).collect();
    for scheme in Scheme::extended() {
        let mut archive = ds.refactor_with_bounds(scheme, &ladder).unwrap();
        archive.set_mask(ds.zero_mask(&[0, 1, 2])).unwrap();
        for (name, expr) in ge_qoi::all() {
            let spec = QoiSpec::relative(name, expr, 1e-4, &ds).unwrap();
            assert_guarantee(&ds, &archive, &spec);
        }
    }
}

#[test]
fn hurricane_vtot() {
    let raw = hurricane::generate(&hurricane::HurricaneConfig {
        dims: [6, 32, 32],
        v_max: 70.0,
        eye_radius: 0.15,
        seed: 3,
    });
    let ds = to_dataset(&raw);
    let archive = ds.refactor(Scheme::PmgardHb).unwrap();
    let spec = QoiSpec::relative("VTOT", velocity_magnitude(0, 3), 1e-5, &ds).unwrap();
    assert_guarantee(&ds, &archive, &spec);
}

#[test]
fn nyx_vtot() {
    let raw = nyx::generate(&nyx::NyxConfig {
        n: 20,
        v_rms: 9.0e6,
        bulk: 2.0e6,
        seed: 5,
    });
    let ds = to_dataset(&raw);
    let archive = ds.refactor(Scheme::Psz3Delta).unwrap();
    let spec = QoiSpec::relative("VTOT", velocity_magnitude(0, 3), 1e-5, &ds).unwrap();
    assert_guarantee(&ds, &archive, &spec);
}

#[test]
fn s3d_products() {
    let raw = s3d::generate(&s3d::S3dConfig {
        dims: [40, 12, 8],
        front_thickness: 0.05,
        seed: 11,
    });
    let ds = to_dataset(&raw);
    let archive = ds.refactor(Scheme::PmgardHb).unwrap();
    for (a, b) in s3d::PRODUCT_PAIRS {
        let spec =
            QoiSpec::relative(&format!("x{a}x{b}"), species_product(a, b), 1e-6, &ds).unwrap();
        assert_guarantee(&ds, &archive, &spec);
    }
}

#[test]
fn facade_roundtrip_through_serialization() {
    // archive → bytes → archive → session must behave identically
    let n = 400;
    let field: Vec<f64> = (0..n).map(|i| (i as f64 * 0.03).sin() * 5.0).collect();
    let mut ds = Dataset::new(&[n]);
    ds.add_field("f", field).unwrap();
    let archive = ds.refactor(Scheme::PmgardHb).unwrap();
    let restored = RefactoredDataset::from_bytes(&archive.to_bytes()).unwrap();

    let spec = QoiSpec::relative("f2", QoiExpr::var(0).pow(2), 1e-5, &ds).unwrap();
    let mut e1 = RetrievalEngine::new(&archive, EngineConfig::default()).unwrap();
    let mut e2 = RetrievalEngine::new(&restored, EngineConfig::default()).unwrap();
    let r1 = e1.retrieve(std::slice::from_ref(&spec)).unwrap();
    let r2 = e2.retrieve(std::slice::from_ref(&spec)).unwrap();
    assert_eq!(r1.total_fetched, r2.total_fetched);
    assert_eq!(e1.reconstruction(0), e2.reconstruction(0));
}

#[test]
fn progressive_series_monotone_bitrate_vs_tolerance() {
    // the retrieval-efficiency backbone of Figs. 4/7: tighter τ ⇒ more bits
    let blocks = ge::generate(&ge::GeConfig {
        blocks: 6,
        mean_block_len: 500,
        wall_fraction: 0.02,
        seed: 21,
    });
    let raw = ge::concat(&blocks);
    let ds = to_dataset(&raw);
    let mut archive = ds.refactor(Scheme::PmgardHb).unwrap();
    archive.set_mask(ds.zero_mask(&[0, 1, 2])).unwrap();
    let base = QoiSpec::relative("VTOT", velocity_magnitude(0, 3), 1.0, &ds).unwrap();
    let mut engine = RetrievalEngine::new(&archive, EngineConfig::default()).unwrap();
    let mut last = 0usize;
    for i in 1..=8 {
        let spec = base.at_tolerance(0.1 * (2.0f64).powi(-i));
        let report = engine.retrieve(&[spec]).unwrap();
        assert!(report.satisfied, "τ step {i}");
        assert!(report.total_fetched >= last);
        last = report.total_fetched;
    }
}
