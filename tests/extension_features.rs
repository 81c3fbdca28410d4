//! Integration tests for the beyond-the-paper extensions working together:
//! the PZFP representation, the ln/exp basis operators, and the
//! interval-arithmetic estimator — all through the public facade.

use pqr::prelude::*;
use pqr::qoi::parse::parse;

fn flame(n: usize) -> (Vec<f64>, Vec<f64>) {
    let t = (0..n)
        .map(|i| {
            let x = i as f64 / n as f64;
            900.0 + 1100.0 / (1.0 + (-40.0 * (x - 0.4)).exp()) + 30.0 * (x * 130.0).sin()
        })
        .collect();
    let c = (0..n)
        .map(|i| {
            let x = i as f64 / n as f64;
            0.12 * (1.0 - 1.0 / (1.0 + (-40.0 * (x - 0.4)).exp())) + 0.01 * (x * 57.0).cos().abs()
        })
        .collect();
    (t, c)
}

fn one(name: &str, tol: f64) -> RetrievalRequest {
    RetrievalRequest::new().qoi(name, tol)
}

#[test]
fn pzfp_archive_serves_extension_qois() {
    let n = 8000;
    let (t, c) = flame(n);
    let rate = parse("x1 * exp(0 - 2000 * radical(x0, 0))").unwrap();
    let archive = ArchiveBuilder::new(&[n])
        .field("T", t.clone())
        .field("c", c.clone())
        .qoi("rate", rate.clone())
        .scheme(Scheme::Pzfp)
        .build()
        .unwrap();

    let mut session = archive.session().unwrap();
    let report = session.execute(&one("rate", 1e-5)).unwrap();
    assert!(report.satisfied);

    let truth: Vec<f64> = t
        .iter()
        .zip(&c)
        .map(|(&a, &b)| rate.eval(&[a, b]))
        .collect();
    let derived = session.qoi_values("rate").unwrap();
    let actual = stats::max_abs_diff(&truth, &derived);
    assert!(actual <= report.targets[0].max_est_error);
}

#[test]
fn pzfp_archive_roundtrips_through_serialization() {
    let n = 5000;
    let (t, _) = flame(n);
    let archive = ArchiveBuilder::new(&[n])
        .field("T", t)
        .qoi("lnT", QoiExpr::var(0).ln())
        .scheme(Scheme::Pzfp)
        .build()
        .unwrap();
    let restored = Archive::from_bytes(&archive.to_bytes()).unwrap();
    // ln/exp expressions survive the registry serialization
    assert_eq!(
        restored.qoi_expr("lnT").unwrap(),
        archive.qoi_expr("lnT").unwrap()
    );
    let mut a = archive.session().unwrap();
    let mut b = restored.session().unwrap();
    let ra = a.execute(&one("lnT", 1e-6)).unwrap();
    let rb = b.execute(&one("lnT", 1e-6)).unwrap();
    assert!(ra.satisfied && rb.satisfied);
    assert_eq!(ra.total_fetched, rb.total_fetched);
    assert_eq!(a.qoi_values("lnT").unwrap(), b.qoi_values("lnT").unwrap());
}

#[test]
fn all_schemes_and_estimators_agree_on_the_guarantee() {
    // the full matrix: 5 representations × 3 estimators, one QoI
    let n = 3000;
    let (t, c) = flame(n);
    let qoi = parse("sqrt(x0 * x1 + 1)").unwrap();
    let truth: Vec<f64> = t.iter().zip(&c).map(|(&a, &b)| qoi.eval(&[a, b])).collect();
    let range = stats::value_range(&truth);

    for scheme in Scheme::extended() {
        for est in [Estimator::Theorems, Estimator::Interval] {
            let archive = ArchiveBuilder::new(&[n])
                .field("T", t.clone())
                .field("c", c.clone())
                .qoi("q", qoi.clone())
                .scheme(scheme)
                .engine_config(EngineConfig {
                    bound_config: BoundConfig {
                        estimator: est,
                        ..Default::default()
                    },
                    ..Default::default()
                })
                .build()
                .unwrap();
            let mut session = archive.session().unwrap();
            let report = session.execute(&one("q", 1e-4)).unwrap();
            assert!(report.satisfied, "{:?}/{est:?}", scheme.name());
            let derived = session.qoi_values("q").unwrap();
            let actual = stats::max_abs_diff(&truth, &derived);
            let bound = report.targets[0].max_est_error;
            assert!(
                actual <= bound && bound <= 1e-4 * range,
                "{}/{est:?}: actual {actual}, est {bound}, tol {}",
                scheme.name(),
                1e-4 * range
            );
        }
    }
}

#[test]
fn pzfp_multidimensional_through_facade() {
    let dims = [40usize, 30, 20];
    let n: usize = dims.iter().product();
    let data: Vec<f64> = (0..n)
        .map(|i| {
            let x = i as f64 / n as f64;
            (x * 17.0).sin() * 4.0 + (x * 3.0).cos()
        })
        .collect();
    let archive = ArchiveBuilder::new(&dims)
        .field("u", data.clone())
        .qoi("u2", QoiExpr::var(0).pow(2))
        .scheme(Scheme::Pzfp)
        .build()
        .unwrap();
    let mut session = archive.session().unwrap();
    let report = session.execute(&one("u2", 1e-6)).unwrap();
    assert!(report.satisfied);
    let recon = session.reconstruction("u").unwrap();
    assert_eq!(recon.len(), n);
    let truth: Vec<f64> = data.iter().map(|v| v * v).collect();
    let derived = session.qoi_values("u2").unwrap();
    assert!(stats::max_abs_diff(&truth, &derived) <= report.targets[0].max_est_error);
}

#[test]
fn interval_estimator_composes_with_the_mask() {
    // mask pins exact zeros; the interval estimator must honour them the
    // same way the theorem estimator does (ε = 0 at masked points)
    let n = 1500;
    let mk = |phase: f64| -> Vec<f64> {
        (0..n)
            .map(|i| {
                if i % 61 < 2 {
                    0.0
                } else {
                    ((i as f64) * 0.017 + phase).sin() * 12.0 + 15.0
                }
            })
            .collect()
    };
    let qoi = pqr::qoi::library::velocity_magnitude(0, 3);
    let archive = ArchiveBuilder::new(&[n])
        .field("Vx", mk(0.0))
        .field("Vy", mk(1.0))
        .field("Vz", mk(2.0))
        .qoi("VTOT", qoi.clone())
        .mask(&["Vx", "Vy", "Vz"])
        .engine_config(EngineConfig {
            bound_config: BoundConfig {
                estimator: Estimator::Interval,
                ..Default::default()
            },
            ..Default::default()
        })
        .build()
        .unwrap();
    let mut s = archive.session().unwrap();
    let r = s.execute(&one("VTOT", 1e-5)).unwrap();
    assert!(r.satisfied);
    // masked points reconstruct to exactly zero VTOT
    let derived = s.qoi_values("VTOT").unwrap();
    for i in (0..n).filter(|i| i % 61 < 2) {
        assert_eq!(derived[i], 0.0, "masked point {i}");
    }
}

#[test]
fn interval_estimator_succeeds_where_paper_blows_up() {
    // VTOT over fields with exact-zero walls, *without* the mask: the
    // paper-mode √ bound is ∞ at the walls, interval mode stays finite
    let n = 2000;
    let mk = |phase: f64| -> Vec<f64> {
        (0..n)
            .map(|i| {
                if i % 97 < 3 {
                    0.0 // wall nodes
                } else {
                    ((i as f64) * 0.013 + phase).sin() * 25.0 + 30.0
                }
            })
            .collect()
    };
    let qoi = pqr::qoi::library::velocity_magnitude(0, 3);
    let build = |est: Estimator| {
        ArchiveBuilder::new(&[n])
            .field("Vx", mk(0.0))
            .field("Vy", mk(1.0))
            .field("Vz", mk(2.0))
            .qoi("VTOT", qoi.clone())
            .engine_config(EngineConfig {
                bound_config: BoundConfig {
                    estimator: est,
                    ..Default::default()
                },
                max_iterations: 8,
                ..Default::default()
            })
            .build()
            .unwrap()
    };

    let paper = build(Estimator::Theorems);
    let mut sp = paper.session().unwrap();
    let rp = sp.execute(&one("VTOT", 1e-3)).unwrap();
    assert!(!rp.satisfied, "paper estimator must fail without the mask");

    let interval = build(Estimator::Interval);
    let mut si = interval.session().unwrap();
    let ri = si.execute(&one("VTOT", 1e-3)).unwrap();
    assert!(ri.satisfied, "interval estimator must succeed");
    assert!(si.total_fetched() < sp.total_fetched());
}
