//! Property test of the plan/execute API's contract (`prop_plan_equivalence`):
//! for random archives, schemes, QoI mixes and tolerances, a multi-QoI
//! [`RetrievalRequest`] must certify the **same per-target outcomes** as
//! independent single-target execution — each target satisfied exactly
//! when a one-target request at the same tolerance on its own fresh
//! session satisfies, with the certified bound within the same tolerance —
//! while reading **no more** than those sessions' total bytes, across the
//! in-memory and file-backed backends.
//!
//! The same cases also pin the parallel decode pipeline: executing the
//! request with sequential decode (`workers: 1`) versus 8 decode workers
//! must produce byte-identical reconstructions, identical `PlanReport`
//! bounds/certifications, and identical byte accounting.

use pqr_core::prelude::*;
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

/// Target mixes that all derive from field 0 (and some from field 1), so
/// a batched plan always has a shared field to dedup.
fn arb_targets() -> impl Strategy<Value = Vec<&'static str>> {
    prop_oneof![
        Just(vec!["V", "Vx2"]),
        Just(vec!["V", "Vx2", "VxVy"]),
        Just(vec!["Vx2", "VxVy"]),
        Just(vec!["V", "VxVy", "Vx2"]),
    ]
}

fn build_archive_bytes(n: usize, seed: u64, scheme: Scheme) -> Vec<u8> {
    let mut s = seed.wrapping_mul(0x9e3779b97f4a7c15) | 1;
    let mut field = |phase: f64| -> Vec<f64> {
        (0..n)
            .map(|i| {
                s ^= s << 13;
                s ^= s >> 7;
                s ^= s << 17;
                (s as f64 / u64::MAX as f64 - 0.5) * 2.0 + ((i as f64) * phase).sin() * 9.0 + 20.0
            })
            .collect()
    };
    ArchiveBuilder::new(&[n])
        .field("Vx", field(0.013))
        .field("Vy", field(0.029))
        .qoi("V", velocity_magnitude(0, 2))
        .qoi("Vx2", QoiExpr::var(0).pow(2))
        .qoi("VxVy", species_product(0, 1))
        .scheme(scheme)
        .snapshot_bounds(&(1..=8).map(|i| 10f64.powi(-i)).collect::<Vec<_>>())
        .build()
        .unwrap()
        .to_bytes()
}

fn one(name: &str, tol: f64) -> RetrievalRequest {
    RetrievalRequest::new().qoi(name, tol)
}

fn temp_archive(bytes: &[u8], tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join("pqr_prop_plan");
    std::fs::create_dir_all(&dir).unwrap();
    let unique = format!(
        "{tag}_{}_{}.pqrx",
        std::process::id(),
        std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .unwrap()
            .as_nanos()
    );
    let path = dir.join(unique);
    std::fs::write(&path, bytes).unwrap();
    path
}

/// The two lazily-served backends under test, rebuilt per use so every
/// arm starts cold.
fn open_backend(bytes: &[u8], path: &std::path::Path, which: usize) -> Archive {
    match which {
        0 => Archive::from_fragment_source(InMemorySource::new(bytes.to_vec()).unwrap()).unwrap(),
        _ => Archive::open(path).unwrap(),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(18))]

    #[test]
    fn prop_plan_equivalence(
        n in 128usize..512,
        seed in 0u64..1000,
        scheme in arb_scheme(),
        targets in arb_targets(),
        tol_exp in -5..-1i32,
        backend in 0usize..2,
    ) {
        let bytes = build_archive_bytes(n, seed, scheme);
        let path = temp_archive(&bytes, scheme.name());
        // stagger tolerances so targets genuinely differ
        let tols: Vec<f64> = (0..targets.len())
            .map(|k| 10f64.powi(tol_exp - k as i32))
            .collect();

        // batched plan: one session, all targets at once
        let batched = open_backend(&bytes, &path, backend);
        let mut session = batched.session().unwrap();
        let mut request = RetrievalRequest::new();
        for (name, &tol) in targets.iter().zip(&tols) {
            request = request.qoi(name, tol);
        }
        let plan = session.plan(&request).unwrap();
        prop_assert!(
            plan.shared_fields().contains(&0),
            "field 0 must be shared by construction"
        );
        let report = session.execute(&request).unwrap();
        let batched_bytes = session.total_fetched();

        // parallel decode must be invisible in results: sequential vs 8
        // workers, byte for byte
        let run_parallel_arm = |workers: usize| {
            let mut archive = open_backend(&bytes, &path, backend);
            archive.set_engine_config(EngineConfig {
                workers,
                ..Default::default()
            });
            let mut s = archive.session().unwrap();
            let r = s.execute(&request).unwrap();
            let recons: Vec<Vec<f64>> = ["Vx", "Vy"]
                .iter()
                .map(|f| s.reconstruction(f).unwrap().to_vec())
                .collect();
            let bounds: Vec<u64> = r.field_bounds.iter().map(|b| b.to_bits()).collect();
            let ests: Vec<u64> = r.targets.iter().map(|t| t.max_est_error.to_bits()).collect();
            let sats: Vec<bool> = r.targets.iter().map(|t| t.satisfied).collect();
            (recons, bounds, ests, sats, r.bytes_fetched, s.total_fetched())
        };
        let sequential = run_parallel_arm(1);
        let parallel = run_parallel_arm(8);
        prop_assert_eq!(
            &sequential, &parallel,
            "{}: parallel decode pipeline changed results", scheme.name()
        );

        // shared-store arm: the targets issued as K session requests
        // through one DatasetService, run sequentially, must be
        // byte-identical — per-request certified bounds, reconstructions
        // and cumulative byte accounting — to the same request series on
        // one fresh persistent session (the service's sharing layer is
        // invisible in results); and the K sessions run *concurrently*
        // must certify identically while never decoding a fragment twice
        {
            let service_archive = open_backend(&bytes, &path, backend);
            let service = service_archive.service().unwrap();
            let legacy_archive = open_backend(&bytes, &path, backend);
            let mut persistent = legacy_archive.session().unwrap();
            for (name, &tol) in targets.iter().zip(&tols) {
                let mut s = service.session().unwrap();
                let rs = s.execute(&one(name, tol)).unwrap();
                let rl = persistent.execute(&one(name, tol)).unwrap();
                prop_assert_eq!(rs.satisfied, rl.satisfied, "{}: {}@{}", scheme.name(), name, tol);
                prop_assert_eq!(
                    rs.targets[0].max_est_error.to_bits(),
                    rl.targets[0].max_est_error.to_bits(),
                    "{}: {}@{} certified bound drifted", scheme.name(), name, tol
                );
                prop_assert_eq!(rs.total_fetched, rl.total_fetched);
                prop_assert_eq!(s.fragments_decoded(), 0);
                for f in ["Vx", "Vy"] {
                    prop_assert!(
                        s.reconstruction(f).unwrap() == persistent.reconstruction(f).unwrap(),
                        "{}: {}@{} field {} drifted", scheme.name(), name, tol, f
                    );
                }
            }
            prop_assert_eq!(
                service_archive.source_stats().fetched_bytes,
                legacy_archive.source_stats().fetched_bytes,
                "{}: sharing layer changed source traffic", scheme.name()
            );

            // concurrent arm: same targets, racing sessions
            let concurrent_archive = open_backend(&bytes, &path, backend);
            let concurrent = concurrent_archive.service().unwrap();
            let outcomes: Vec<(bool, u64)> = std::thread::scope(|scope| {
                let handles: Vec<_> = targets
                    .iter()
                    .zip(&tols)
                    .map(|(name, &tol)| {
                        let svc = concurrent.clone();
                        let name = name.to_string();
                        scope.spawn(move || {
                            let mut s = svc.session().unwrap();
                            let r = s.execute(&one(&name, tol)).unwrap();
                            (r.satisfied, s.fragments_decoded())
                        })
                    })
                    .collect();
                handles.into_iter().map(|h| h.join().unwrap()).collect()
            });
            for ((name, &tol), (sat, decoded)) in targets.iter().zip(&tols).zip(&outcomes) {
                // satisfiability is a property of the archive + request,
                // not of scheduling: the concurrent run must certify
                // exactly where the sequential one did
                let solo = open_backend(&bytes, &path, backend);
                let mut s = solo.session().unwrap();
                let expect = s.execute(&one(name, tol)).unwrap().satisfied;
                prop_assert_eq!(*sat, expect, "{}: {}@{} concurrent", scheme.name(), name, tol);
                prop_assert_eq!(*decoded, 0u64);
            }
            // racing sessions never read more than independent cold ones
            let mut cold_sum = 0u64;
            for (name, &tol) in targets.iter().zip(&tols) {
                let solo = open_backend(&bytes, &path, backend);
                let mut s = solo.session().unwrap();
                s.execute(&one(name, tol)).unwrap();
                cold_sum += solo.source_stats().fetched_bytes;
            }
            prop_assert!(
                concurrent_archive.source_stats().fetched_bytes <= cold_sum,
                "{}: concurrent sharing read more than cold sum", scheme.name()
            );
        }

        // independent: every target as a one-target request on its own
        // fresh session
        let mut legacy_bytes = 0usize;
        let mut legacy = Vec::new();
        for (name, &tol) in targets.iter().zip(&tols) {
            let solo = open_backend(&bytes, &path, backend);
            let mut s = solo.session().unwrap();
            let r = s.execute(&one(name, tol)).unwrap();
            legacy_bytes += s.total_fetched();
            legacy.push(r);
        }
        std::fs::remove_file(&path).ok();

        // same per-target certification, bounds within the same tolerance
        prop_assert_eq!(report.targets.len(), legacy.len());
        for (t, l) in report.targets.iter().zip(&legacy) {
            prop_assert_eq!(
                t.satisfied, l.satisfied,
                "{}: batched and legacy must certify alike", t.name
            );
            if t.satisfied {
                prop_assert!(t.max_est_error <= t.tol_abs);
                prop_assert!(l.targets[0].max_est_error <= t.tol_abs);
            }
        }
        // ...while never reading more than the legacy total
        prop_assert!(
            batched_bytes <= legacy_bytes,
            "{}: batched {batched_bytes} B > legacy {legacy_bytes} B",
            scheme.name()
        );
    }
}
