//! Property-based tests of the end-to-end retrieval guarantee: random
//! multi-field data, random scheme, random tolerance — when the engine
//! reports `satisfied`, the actual QoI error is within the estimate and the
//! estimate is within the tolerance.

use pqr_progressive::engine::{EngineConfig, QoiSpec, RetrievalEngine};
use pqr_progressive::field::Dataset;
use pqr_progressive::refactored::Scheme;
use pqr_qoi::library::{species_product, velocity_magnitude};
use pqr_qoi::QoiExpr;
use pqr_util::stats;
use proptest::prelude::*;

fn arb_scheme() -> impl Strategy<Value = Scheme> {
    prop_oneof![
        Just(Scheme::Psz3),
        Just(Scheme::Psz3Delta),
        Just(Scheme::PmgardHb),
        Just(Scheme::PmgardOb),
        Just(Scheme::Pzfp),
    ]
}

fn make_dataset(n: usize, seed: u64, offset: f64) -> Dataset {
    let mut ds = Dataset::new(&[n]);
    let mut s = seed.wrapping_mul(0x9e3779b97f4a7c15) | 1;
    for name in ["a", "b", "c"] {
        let field: Vec<f64> = (0..n)
            .map(|i| {
                s ^= s << 13;
                s ^= s >> 7;
                s ^= s << 17;
                (s as f64 / u64::MAX as f64 - 0.5) * 4.0 + ((i as f64) * 0.07).sin() * 10.0 + offset
            })
            .collect();
        ds.add_field(name, field).unwrap();
    }
    ds
}

fn arb_qoi() -> impl Strategy<Value = QoiExpr> {
    prop_oneof![
        Just(velocity_magnitude(0, 3)),
        Just(species_product(0, 1)),
        Just(QoiExpr::var(2).pow(2)),
        Just(
            QoiExpr::var(0)
                .pow(2)
                .add(QoiExpr::var(1).mul(QoiExpr::var(2)))
        ),
        Just(QoiExpr::var(0).abs().add(QoiExpr::var(1).abs())),
    ]
}

/// Fully random derivable-QoI trees over 3 variables. Leaves are variables
/// or small constants; inner nodes draw from the whole Table II basis plus
/// the ln/exp extension. Trees that turn out unboundable on the data (e.g. a
/// division straddling zero) are filtered at the call site via
/// `prop_assume!(report.satisfied)` — the guarantee property only concerns
/// retrievals the engine claims to have satisfied.
fn arb_random_tree() -> impl Strategy<Value = QoiExpr> {
    let leaf = prop_oneof![
        (0usize..3).prop_map(QoiExpr::var),
        (0.5f64..3.0).prop_map(QoiExpr::constant),
    ];
    leaf.prop_recursive(3, 24, 4, |inner| {
        prop_oneof![
            (inner.clone(), 2u32..4).prop_map(|(e, n)| e.pow(n)),
            inner.clone().prop_map(|e| e.pow(2).sqrt()),
            inner.clone().prop_map(QoiExpr::abs),
            // exp of a damped argument keeps values finite
            inner.clone().prop_map(|e| e.scale(0.01).exp()),
            // ln of 20 + |e|·small stays away from the pole
            inner
                .clone()
                .prop_map(|e| (QoiExpr::constant(20.0) + e.abs().scale(0.1)).ln()),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| a + b),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| a * b),
            (inner.clone(), inner.clone())
                .prop_map(|(a, b)| a / (QoiExpr::constant(25.0) + b.abs())),
            (inner, -3.0f64..3.0).prop_map(|(e, a)| e.scale(a)),
        ]
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn satisfied_retrieval_honours_the_guarantee(
        n in 64usize..400,
        seed in 0u64..1000,
        scheme in arb_scheme(),
        qoi in arb_qoi(),
        tol_exp in -6..-1i32,
    ) {
        // offset 20 keeps VTOT away from the √ blow-up without a mask
        let ds = make_dataset(n, seed, 20.0);
        let ladder: Vec<f64> = (1..=10).map(|i| 10f64.powi(-i)).collect();
        let archive = ds.refactor_with_bounds(scheme, &ladder).unwrap();
        let tol = 10f64.powi(tol_exp);
        let spec = QoiSpec::relative("q", qoi.clone(), tol, &ds).unwrap();
        let tol_abs = spec.tol_abs();
        prop_assume!(tol_abs > 0.0);

        let mut engine = RetrievalEngine::new(&archive, EngineConfig::default()).unwrap();
        let report = engine.retrieve(&[spec]).unwrap();
        prop_assume!(report.satisfied); // unsatisfiable = representation floor

        let truth = ds.qoi_values(&qoi);
        let derived = engine.qoi_values(&qoi);
        let actual = stats::max_abs_diff(&truth, &derived);
        prop_assert!(
            actual <= report.targets[0].max_est_error,
            "actual {actual} > estimated {}",
            report.targets[0].max_est_error
        );
        prop_assert!(
            report.targets[0].max_est_error <= tol_abs,
            "estimated {} > tolerance {tol_abs}",
            report.targets[0].max_est_error
        );
    }

    #[test]
    fn random_qoi_trees_honour_the_guarantee(
        n in 64usize..256,
        seed in 0u64..1000,
        qoi in arb_random_tree(),
        tol_exp in -5..-1i32,
    ) {
        let ds = make_dataset(n, seed, 20.0);
        prop_assume!(qoi.arity() <= 3);
        // reject trees that are non-finite on the true data
        let truth = ds.qoi_values(&qoi);
        prop_assume!(truth.iter().all(|v| v.is_finite()));
        let range = truth.iter().cloned().fold(f64::NEG_INFINITY, f64::max)
            - truth.iter().cloned().fold(f64::INFINITY, f64::min);
        prop_assume!(range.is_finite() && range > 1e-9);

        let archive = ds.refactor(Scheme::PmgardHb).unwrap();
        let tol = 10f64.powi(tol_exp);
        let spec = QoiSpec::with_range("rand", qoi.clone(), tol, range);
        let tol_abs = spec.tol_abs();
        let mut engine = RetrievalEngine::new(&archive, EngineConfig::default()).unwrap();
        let report = engine.retrieve(&[spec]).unwrap();
        prop_assume!(report.satisfied);

        let derived = engine.qoi_values(&qoi);
        let actual = stats::max_abs_diff(&truth, &derived);
        prop_assert!(
            actual <= report.targets[0].max_est_error,
            "qoi {qoi}: actual {actual} > estimated {}",
            report.targets[0].max_est_error
        );
        prop_assert!(report.targets[0].max_est_error <= tol_abs);
    }

    #[test]
    fn interval_estimator_honours_the_guarantee(
        n in 64usize..256,
        seed in 0u64..1000,
        scheme in arb_scheme(),
        qoi in arb_qoi(),
        tol_exp in -5..-1i32,
    ) {
        // same contract as the theorem estimator, generic machinery
        let ds = make_dataset(n, seed, 20.0);
        let ladder: Vec<f64> = (1..=10).map(|i| 10f64.powi(-i)).collect();
        let archive = ds.refactor_with_bounds(scheme, &ladder).unwrap();
        let tol = 10f64.powi(tol_exp);
        let spec = QoiSpec::relative("q", qoi.clone(), tol, &ds).unwrap();
        let tol_abs = spec.tol_abs();
        prop_assume!(tol_abs > 0.0);

        let cfg = EngineConfig {
            bound_config: pqr_qoi::BoundConfig {
                estimator: pqr_qoi::Estimator::Interval,
                ..Default::default()
            },
            ..Default::default()
        };
        let mut engine = RetrievalEngine::new(&archive, cfg).unwrap();
        let report = engine.retrieve(&[spec]).unwrap();
        prop_assume!(report.satisfied);

        let truth = ds.qoi_values(&qoi);
        let derived = engine.qoi_values(&qoi);
        let actual = stats::max_abs_diff(&truth, &derived);
        prop_assert!(
            actual <= report.targets[0].max_est_error,
            "interval: actual {actual} > estimated {}",
            report.targets[0].max_est_error
        );
        prop_assert!(report.targets[0].max_est_error <= tol_abs);
    }

    #[test]
    fn primary_data_bound_always_honoured(
        n in 32usize..300,
        seed in 0u64..1000,
        scheme in arb_scheme(),
        rel_exp in -7..-1i32,
    ) {
        let ds = make_dataset(n, seed, 0.0);
        let ladder: Vec<f64> = (1..=10).map(|i| 10f64.powi(-i)).collect();
        let archive = ds.refactor_with_bounds(scheme, &ladder).unwrap();
        for f in 0..3 {
            let field = archive.field(f);
            let mut reader = field.reader();
            reader.refine_to(10f64.powi(rel_exp) * field.value_range()).unwrap();
            let real = stats::max_abs_diff(ds.field(f), reader.data());
            prop_assert!(
                real <= reader.guaranteed_bound(),
                "field {f}: real {real} > bound {}",
                reader.guaranteed_bound()
            );
        }
    }

    #[test]
    fn resume_is_transparent_at_any_save_point(
        n in 64usize..300,
        seed in 0u64..500,
        scheme in arb_scheme(),
        save_tol_exp in -4..-1i32,
        final_tol_exp in -7..-4i32,
    ) {
        // save after an arbitrary first request, resume, finish: the
        // resumed engine must be indistinguishable from one that never
        // stopped — same bytes, same reconstructions
        let ds = make_dataset(n, seed, 20.0);
        let ladder: Vec<f64> = (1..=10).map(|i| 10f64.powi(-i)).collect();
        let archive = ds.refactor_with_bounds(scheme, &ladder).unwrap();
        let qoi = velocity_magnitude(0, 3);
        let range = ds.qoi_range(&qoi).unwrap();
        let first = QoiSpec::with_range("v", qoi.clone(), 10f64.powi(save_tol_exp), range);
        let last = QoiSpec::with_range("v", qoi.clone(), 10f64.powi(final_tol_exp), range);

        let mut straight = RetrievalEngine::new(&archive, EngineConfig::default()).unwrap();
        straight.retrieve(std::slice::from_ref(&first)).unwrap();
        let blob = straight.save_progress();
        straight.retrieve(std::slice::from_ref(&last)).unwrap();

        let mut resumed =
            RetrievalEngine::resume(&archive, EngineConfig::default(), &blob).unwrap();
        resumed.retrieve(std::slice::from_ref(&last)).unwrap();

        prop_assert_eq!(straight.total_fetched(), resumed.total_fetched());
        for i in 0..3 {
            prop_assert_eq!(straight.reconstruction(i), resumed.reconstruction(i));
        }
    }

    #[test]
    fn hostile_archive_bytes_never_panic(
        junk in proptest::collection::vec(any::<u8>(), 0..600),
    ) {
        use pqr_progressive::refactored::RefactoredField;
        use pqr_progressive::field::RefactoredDataset;
        let _ = RefactoredField::from_bytes(&junk);
        let _ = RefactoredDataset::from_bytes(&junk);
        // junk behind valid magic digs deeper into each parser
        for magic in [&b"PQRF"[..], &b"PQRD"[..]] {
            let mut prefixed = magic.to_vec();
            prefixed.extend_from_slice(&junk);
            let _ = RefactoredField::from_bytes(&prefixed);
            let _ = RefactoredDataset::from_bytes(&prefixed);
        }
    }

    #[test]
    fn truncated_real_archives_error_cleanly(
        n in 50usize..200,
        seed in 0u64..100,
        scheme in arb_scheme(),
        cut_frac in 0.01f64..0.99,
    ) {
        // a *real* archive truncated anywhere must return Err, never panic
        // and never silently succeed with wrong content
        let ds = make_dataset(n, seed, 5.0);
        let ladder = vec![1e-1, 1e-3];
        let archive = ds.refactor_with_bounds(scheme, &ladder).unwrap();
        let bytes = archive.field(0).to_bytes();
        let cut = ((bytes.len() as f64 * cut_frac) as usize).min(bytes.len() - 1);
        let result = pqr_progressive::refactored::RefactoredField::from_bytes(&bytes[..cut]);
        prop_assert!(result.is_err(), "{}: truncation at {cut} accepted", scheme.name());
    }

    #[test]
    fn cumulative_bytes_monotone_under_any_request_sequence(
        n in 64usize..300,
        seed in 0u64..1000,
        scheme in arb_scheme(),
        // arbitrary (possibly non-monotone) tolerance walk
        tols in proptest::collection::vec(-6..-1i32, 1..6),
    ) {
        let ds = make_dataset(n, seed, 20.0);
        let ladder: Vec<f64> = (1..=10).map(|i| 10f64.powi(-i)).collect();
        let archive = ds.refactor_with_bounds(scheme, &ladder).unwrap();
        let mut engine = RetrievalEngine::new(&archive, EngineConfig::default()).unwrap();
        let qoi = velocity_magnitude(0, 3);
        let range = ds.qoi_range(&qoi).unwrap();
        let mut last = 0usize;
        for t in tols {
            let spec = QoiSpec::with_range("v", qoi.clone(), 10f64.powi(t), range);
            let report = engine.retrieve(&[spec]).unwrap();
            prop_assert!(report.total_fetched >= last, "bytes shrank");
            last = report.total_fetched;
        }
    }
}
