//! 3-D–specific integration coverage: the dimension-by-dimension multilevel
//! transform, 3-D SZ compression, and full QoI retrieval on volumetric
//! datasets (the Hurricane/NYX/S3D path of the paper, §VI).

use pqr::datagen::{hurricane, nyx};
use pqr::prelude::*;

#[test]
fn mgard_3d_bound_holds_on_anisotropic_volume() {
    // deliberately awkward extents (non powers of two, strong anisotropy)
    let dims = [7usize, 33, 12];
    let n: usize = dims.iter().product();
    let data: Vec<f64> = (0..n)
        .map(|i| {
            let k = i % dims[2];
            let j = (i / dims[2]) % dims[1];
            let l = i / (dims[1] * dims[2]);
            (l as f64 * 0.9).sin() + (j as f64 * 0.21).cos() * 2.0 + (k as f64 * 0.5).sin() * 0.3
        })
        .collect();
    for basis in [Basis::Hierarchical, Basis::Orthogonal] {
        let stream = MgardRefactorer::new(basis).refactor(&data, &dims).unwrap();
        let mut reader = stream.reader();
        for eb in [1e-2, 1e-5, 1e-9] {
            reader.refine_to(eb).unwrap();
            assert!(reader.guaranteed_bound() <= eb, "{basis:?} eb={eb}");
            let recon = reader.reconstruct();
            let real = stats::max_abs_diff(&data, &recon);
            assert!(
                real <= reader.guaranteed_bound(),
                "{basis:?} eb={eb}: {real} > {}",
                reader.guaranteed_bound()
            );
        }
    }
}

#[test]
fn sz_3d_volume_with_singleton_axes() {
    let comp = SzCompressor::default();
    for dims in [vec![1usize, 40, 40], vec![40, 1, 40], vec![40, 40, 1]] {
        let n: usize = dims.iter().product();
        let data: Vec<f64> = (0..n).map(|i| (i as f64 * 0.02).sin() * 7.0).collect();
        let blob = comp.compress(&data, &dims, 1e-5).unwrap();
        let (recon, rdims) = comp.decompress(&blob).unwrap();
        assert_eq!(rdims, dims);
        assert!(stats::max_abs_diff(&data, &recon) <= 1e-5, "{dims:?}");
    }
}

#[test]
fn hurricane_engine_guarantee_through_3d_pipeline() {
    let raw = hurricane::generate(&hurricane::HurricaneConfig {
        dims: [5, 40, 40],
        v_max: 70.0,
        eye_radius: 0.15,
        seed: 77,
    });
    let mut ds = Dataset::new(&raw.dims);
    for (name, data) in &raw.fields {
        ds.add_field(name, data.clone()).unwrap();
    }
    for scheme in [Scheme::PmgardHb, Scheme::Psz3Delta] {
        let archive = ds
            .refactor_with_bounds(
                scheme,
                &(1..=10).map(|i| 10f64.powi(-i)).collect::<Vec<_>>(),
            )
            .unwrap();
        let spec = QoiSpec::relative("VTOT", velocity_magnitude(0, 3), 1e-4, &ds).unwrap();
        let mut engine = RetrievalEngine::new(&archive, EngineConfig::default()).unwrap();
        let report = engine.retrieve(std::slice::from_ref(&spec)).unwrap();
        assert!(report.satisfied, "{}", scheme.name());
        let truth = ds.qoi_values(&spec.expr);
        let derived = engine.qoi_values(&spec.expr);
        let actual = stats::max_abs_diff(&truth, &derived);
        assert!(actual <= report.targets[0].max_est_error);
    }
}

#[test]
fn nyx_kinetic_energy_multifield_3d() {
    // a 4-variable QoI on a 3-D dataset: ½·ρ·(vx²+vy²+vz²) with a synthetic
    // density bolted on (NYX has baryon density in the real dataset)
    let raw = nyx::generate(&nyx::NyxConfig {
        n: 14,
        v_rms: 9.0e6,
        bulk: 2.0e6,
        seed: 9,
    });
    let mut ds = Dataset::new(&raw.dims);
    for (name, data) in &raw.fields {
        ds.add_field(name, data.clone()).unwrap();
    }
    let n = ds.num_elements();
    let rho: Vec<f64> = (0..n)
        .map(|i| 1.0 + 0.3 * ((i as f64) * 0.01).sin())
        .collect();
    ds.add_field("density", rho).unwrap();

    let ke = kinetic_energy(3, 0, 3);
    let archive = ds.refactor(Scheme::PmgardHb).unwrap();
    let spec = QoiSpec::relative("KE", ke.clone(), 1e-4, &ds).unwrap();
    let mut engine = RetrievalEngine::new(&archive, EngineConfig::default()).unwrap();
    let report = engine.retrieve(&[spec]).unwrap();
    assert!(report.satisfied);
    let truth = ds.qoi_values(&ke);
    let derived = engine.qoi_values(&ke);
    assert!(stats::max_abs_diff(&truth, &derived) <= report.targets[0].max_est_error);
}

#[test]
fn progressive_3d_resolution_of_structure() {
    // coarse-to-fine: at loose tolerance the hurricane eye is already
    // localised correctly even though the field error is large — the use
    // case progressive retrieval exists for
    let raw = hurricane::generate(&hurricane::HurricaneConfig {
        dims: [3, 48, 48],
        v_max: 70.0,
        eye_radius: 0.15,
        seed: 5,
    });
    let mut ds = Dataset::new(&raw.dims);
    for (name, data) in &raw.fields {
        ds.add_field(name, data.clone()).unwrap();
    }
    let archive = ds.refactor(Scheme::PmgardHb).unwrap();
    let vtot = velocity_magnitude(0, 3);
    let truth = ds.qoi_values(&vtot);

    let argmax = |v: &[f64]| {
        v.iter()
            .enumerate()
            .max_by(|a, b| a.1.total_cmp(b.1))
            .unwrap()
            .0
    };
    let true_peak = argmax(&truth[..48 * 48]); // z = 0 slab

    let mut engine = RetrievalEngine::new(&archive, EngineConfig::default()).unwrap();
    let spec = QoiSpec::relative("VTOT", vtot.clone(), 3e-2, &ds).unwrap();
    let report = engine.retrieve(&[spec]).unwrap();
    assert!(report.satisfied);
    let approx = engine.qoi_values(&vtot);
    let approx_peak = argmax(&approx[..48 * 48]);
    // peak location within a couple of cells at 3% tolerance
    let (ty, tx) = (true_peak / 48, true_peak % 48);
    let (ay, ax) = (approx_peak / 48, approx_peak % 48);
    let dist = ((ty as f64 - ay as f64).powi(2) + (tx as f64 - ax as f64).powi(2)).sqrt();
    assert!(dist <= 4.0, "eyewall peak drifted {dist} cells at 3% tol");
}

#[test]
fn pzfp_3d_volume_through_the_engine() {
    // the block-transform representation on a NYX-like volume: QoI
    // retrieval must satisfy the same guarantee as the multilevel schemes
    let raw = nyx::generate(&nyx::NyxConfig {
        n: 20,
        ..nyx::NyxConfig::small()
    });
    let mut ds = Dataset::new(&raw.dims);
    for (name, data) in &raw.fields {
        ds.add_field(name, data.clone()).unwrap();
    }
    let archive = ds.refactor(Scheme::Pzfp).unwrap();
    let vtot = velocity_magnitude(0, 3);
    let range = ds.qoi_range(&vtot).unwrap();
    let truth = ds.qoi_values(&vtot);

    let mut engine = RetrievalEngine::new(&archive, EngineConfig::default()).unwrap();
    for tol in [1e-2, 1e-4, 1e-6] {
        let spec = QoiSpec::with_range("VTOT", vtot.clone(), tol, range);
        let report = engine.retrieve(&[spec]).unwrap();
        assert!(report.satisfied, "tol {tol}");
        let derived = engine.qoi_values(&vtot);
        let actual = stats::max_abs_diff(&truth, &derived);
        assert!(actual <= report.targets[0].max_est_error, "tol {tol}");
        assert!(report.targets[0].max_est_error <= tol * range, "tol {tol}");
    }
}
