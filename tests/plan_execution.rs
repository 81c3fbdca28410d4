//! Integration test of the plan/execute retrieval API's headline claims:
//!
//! 1. A 3-QoI [`RetrievalRequest`] over QoIs sharing a field reads
//!    **strictly fewer source bytes** than the same three tolerances
//!    executed as independent one-target requests on separate sessions
//!    (the shared field's fragments move once instead of three times).
//! 2. Batched execution over a [`FileSource`] performs **strictly fewer
//!    read operations** than per-fragment execution for identical bytes
//!    (adjacent fragments coalesce into single range reads).
//!
//! Both are asserted by counters, not by timing.

use pqr::prelude::*;

/// Three QoIs all deriving from field 0 (`Vx`), two of them from more:
/// V = √(Vx²+Vy²), KE-ish Vx² and the product Vx·Vy.
const TOLS: [(&str, f64); 3] = [("V", 1e-4), ("Vx2", 1e-4), ("VxVy", 1e-3)];

fn build_archive(scheme: Scheme) -> Archive {
    let n = 3000;
    let vx: Vec<f64> = (0..n)
        .map(|i| (i as f64 * 0.013).sin() * 30.0 + 50.0)
        .collect();
    let vy: Vec<f64> = (0..n).map(|i| (i as f64 * 0.021).cos() * 15.0).collect();
    ArchiveBuilder::new(&[n])
        .scheme(scheme)
        .field("Vx", vx)
        .field("Vy", vy)
        .qoi("V", velocity_magnitude(0, 2))
        .qoi("Vx2", QoiExpr::var(0).pow(2))
        .qoi("VxVy", species_product(0, 1))
        .build()
        .unwrap()
}

fn one(name: &str, tol: f64) -> RetrievalRequest {
    RetrievalRequest::new().qoi(name, tol)
}

fn save_archive(tag: &str, scheme: Scheme) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join("pqr_plan_execution_test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join(format!(
        "{tag}_{}_{}.pqrx",
        scheme.name(),
        std::process::id()
    ));
    build_archive(scheme).save(&path).unwrap();
    path
}

/// Opens the archive at `path`; when the environment sets a store budget
/// its sessions refine one field at a time. Under a tight
/// `PQR_STORE_BUDGET` the pager demotes whichever of two fields refined in
/// parallel it finds unlocked — a race — and a test that holds a store's
/// state against another run field by field needs the demotion order fixed.
fn open_with_a_fixed_demotion_order(path: &std::path::Path) -> Archive {
    let mut archive = Archive::open(path).unwrap();
    if StoreBudget::from_env().unwrap().is_bounded() {
        archive.set_engine_config(EngineConfig {
            workers: 1,
            ..Default::default()
        });
    }
    archive
}

#[test]
fn batched_multi_qoi_reads_strictly_fewer_bytes_than_sequential_requests() {
    let path = save_archive("bytes", Scheme::default());

    // batched: one session, one 3-target request
    let batched = Archive::open(&path).unwrap();
    let mut session = batched.session().unwrap();
    let mut request = RetrievalRequest::new();
    for (name, tol) in TOLS {
        request = request.qoi(name, tol);
    }
    let plan = session.plan(&request).unwrap();
    assert!(
        plan.shared_fields().contains(&0),
        "the three QoIs must share field Vx"
    );
    let report = session.execute(&request).unwrap();
    assert!(report.satisfied);
    assert!(report.shared_bytes_saved > 0);
    let batched_bytes = batched.source_stats().fetched_bytes;

    // sequential: the same three tolerances, each as a one-target request
    // on its own session over its own lazily opened archive, where every
    // request re-reads the shared field
    let mut sequential_bytes = 0u64;
    for (name, tol) in TOLS {
        let solo = Archive::open(&path).unwrap();
        let mut s = solo.session().unwrap();
        let r = s.execute(&one(name, tol)).unwrap();
        assert!(r.satisfied);
        sequential_bytes += solo.source_stats().fetched_bytes;
    }

    assert!(
        batched_bytes < sequential_bytes,
        "batched plan read {batched_bytes} B, sequential requests {sequential_bytes} B"
    );
    // the guarantee still holds per target
    for t in &report.targets {
        assert!(t.satisfied && t.max_est_error <= t.tol_abs);
    }
    std::fs::remove_file(&path).ok();
}

#[test]
fn file_batched_execution_uses_strictly_fewer_read_ops_for_identical_bytes() {
    let path = save_archive("readops", Scheme::default());
    let archive = Archive::open(&path).unwrap();
    let mut session = archive.session().unwrap();
    let mut request = RetrievalRequest::new();
    for (name, tol) in TOLS {
        request = request.qoi(name, tol);
    }
    let report = session.execute(&request).unwrap();
    assert!(report.satisfied);
    let stats = archive.source_stats();
    // the source handed out exactly the bytes the session accounts for
    // (no mask on this archive), one fetch per fragment...
    assert_eq!(stats.fetched_bytes as usize, session.total_fetched());
    // ...but coalesced ranges collapse the operation count: fetching the
    // same fragments one by one pays one op per fragment
    assert!(
        stats.read_ops < stats.fetches,
        "batched {} read ops !< {} fragments",
        stats.read_ops,
        stats.fetches
    );
    std::fs::remove_file(&path).ok();
}

#[test]
fn decode_workers_do_not_change_results() {
    // the decode parallelism matrix — fields refined at once — over a
    // real file-backed archive of every scheme: reconstructions, certified
    // bounds and byte accounting must be identical in every cell (CI
    // re-runs this whole file under PQR_THREADS=1 and =4, which covers the
    // env-driven default worker count as well)
    let run = |path: &std::path::Path, workers: usize| {
        let mut archive = Archive::open(path).unwrap();
        archive.set_engine_config(EngineConfig {
            workers,
            ..Default::default()
        });
        let mut session = archive.session().unwrap();
        let mut request = RetrievalRequest::new();
        for (name, tol) in TOLS {
            request = request.qoi(name, tol);
        }
        let report = session.execute(&request).unwrap();
        assert!(report.satisfied);
        let stats = archive.source_stats();
        (
            session.reconstruction("Vx").unwrap().to_vec(),
            session.reconstruction("Vy").unwrap().to_vec(),
            report
                .field_bounds
                .iter()
                .map(|b| b.to_bits())
                .collect::<Vec<_>>(),
            report
                .targets
                .iter()
                .map(|t| (t.satisfied, t.max_est_error.to_bits(), t.bytes))
                .collect::<Vec<_>>(),
            report.bytes_fetched,
            stats.fetches,
            stats.fetched_bytes,
        )
    };
    for scheme in Scheme::extended() {
        let path = save_archive("matrix", scheme);
        let baseline = run(&path, 1); // the pre-parallel executor, exactly
        for workers in [2, 4, 8] {
            assert_eq!(
                baseline,
                run(&path, workers),
                "{} workers={workers} changed results",
                scheme.name()
            );
        }
        std::fs::remove_file(&path).ok();
    }
}

#[test]
fn plan_report_read_ops_reflect_the_backend() {
    let path = save_archive("report_ops", Scheme::default());
    let archive = Archive::open(&path).unwrap();
    let mut session = archive.session().unwrap();
    let report = session
        .execute(&RetrievalRequest::new().qoi("V", 1e-3).qoi("Vx2", 1e-3))
        .unwrap();
    assert!(report.satisfied);
    assert!(report.fragments_read > 0);
    assert!(report.read_ops > 0);
    assert!(
        report.read_ops < report.fragments_read,
        "coalescing must collapse ops ({} ops for {} fragments)",
        report.read_ops,
        report.fragments_read
    );
    std::fs::remove_file(&path).ok();
}

#[test]
fn shared_store_decodes_once_and_serves_looser_sessions_for_free() {
    // the service acceptance criterion, counter-asserted: session 1 pulls
    // the store to a tight depth; session 2 at a looser tolerance must
    // perform 0 source fetches and 0 bitplane decodes — served entirely
    // from the shared decode state
    let path = save_archive("decode_once", Scheme::default());
    let archive = Archive::open(&path).unwrap();
    let service = archive.service().unwrap();

    let mut tight = service.session().unwrap();
    let r1 = tight.execute(&one("V", 1e-5)).unwrap();
    assert!(r1.satisfied);
    assert_eq!(
        tight.fragments_decoded(),
        0,
        "service sessions never decode themselves"
    );
    let store_after_tight = service.store_stats();
    let source_after_tight = service.source_stats();
    assert!(store_after_tight.fragments_decoded > 0);

    let mut loose = service.session().unwrap();
    let r2 = loose.execute(&one("V", 1e-2)).unwrap();
    assert!(r2.satisfied);
    let store_after_loose = service.store_stats();
    let source_after_loose = service.source_stats();
    // 0 source fetches — except the explicitly-counted rehydration bytes a
    // tight PQR_STORE_BUDGET forces (the CI matrix re-runs this file with
    // one; unbounded, the delta is exactly zero)
    let rehydration_delta =
        store_after_loose.rehydration_bytes - store_after_tight.rehydration_bytes;
    if rehydration_delta == 0 {
        assert_eq!(
            source_after_loose.fetches, source_after_tight.fetches,
            "looser session touched the source"
        );
    }
    assert_eq!(
        source_after_loose.fetched_bytes,
        source_after_tight.fetched_bytes + rehydration_delta
    );
    // ...and 0 decodes — every byte of state was reused
    assert_eq!(
        store_after_loose.fragments_decoded, store_after_tight.fragments_decoded,
        "looser session decoded bitplanes the store already held"
    );
    assert_eq!(loose.fragments_decoded(), 0);
    // the looser session adopted the deepest state: same reconstruction
    assert_eq!(
        tight.reconstruction("Vx").unwrap(),
        loose.reconstruction("Vx").unwrap()
    );
    std::fs::remove_file(&path).ok();
}

#[test]
fn sequential_service_sessions_match_one_legacy_engine_byte_for_byte() {
    // the sharing layer must be invisible in results: K sessions run one
    // after another through the service reproduce exactly what a single
    // persistent independent session produces for the same request series
    // — reconstructions, certified bounds and cumulative byte accounting
    let path = save_archive("service_equiv", Scheme::default());
    let requests: [(&str, f64); 4] = [("V", 1e-2), ("Vx2", 1e-3), ("V", 1e-5), ("VxVy", 1e-3)];

    let service_archive = open_with_a_fixed_demotion_order(&path);
    let service = service_archive.service().unwrap();
    let legacy_archive = Archive::open(&path).unwrap();
    let mut legacy = legacy_archive.session().unwrap();

    for (name, tol) in requests {
        let mut s = service.session().unwrap();
        let rs = s.execute(&one(name, tol)).unwrap();
        let rl = legacy.execute(&one(name, tol)).unwrap();
        assert_eq!(rs.satisfied, rl.satisfied, "{name}@{tol}");
        assert_eq!(
            rs.targets[0].max_est_error.to_bits(),
            rl.targets[0].max_est_error.to_bits(),
            "{name}@{tol}: certified bound drifted"
        );
        assert_eq!(rs.total_fetched, rl.total_fetched, "{name}@{tol}");
        for field in ["Vx", "Vy"] {
            assert_eq!(
                s.reconstruction(field).unwrap(),
                legacy.reconstruction(field).unwrap(),
                "{name}@{tol}: {field} reconstruction drifted"
            );
        }
    }
    // the service read exactly the bytes the single engine read — plus,
    // under a tight store budget, exactly its counted rehydration bytes:
    // sharing never re-fetches anything it doesn't explicitly account for
    assert_eq!(
        service_archive.source_stats().fetched_bytes,
        legacy_archive.source_stats().fetched_bytes + service.store_stats().rehydration_bytes
    );
    std::fs::remove_file(&path).ok();
}

#[test]
fn concurrent_mixed_tolerance_sessions_stress() {
    // 8 threads, mixed tolerances, one shared store (CI re-runs this file
    // under PQR_THREADS=1 and =4): every session certifies, the guarantee
    // holds per session, and the shared arm reads no more source bytes
    // than the per-session sum of independent cold engines
    let path = save_archive("stress", Scheme::default());
    let tols = [1e-2, 1e-5, 1e-3, 1e-4, 1e-2, 1e-5, 1e-4, 1e-3];

    let shared_archive = Archive::open(&path).unwrap();
    let service = shared_archive.service().unwrap();
    std::thread::scope(|scope| {
        for (k, &tol) in tols.iter().enumerate() {
            let service = service.clone();
            let name = ["V", "Vx2", "VxVy"][k % 3];
            scope.spawn(move || {
                let mut session = service.session().unwrap();
                let report = session.execute(&one(name, tol)).unwrap();
                assert!(report.satisfied, "session {k}: {name}@{tol}");
                assert_eq!(session.fragments_decoded(), 0);
            });
        }
    });
    let shared_bytes = shared_archive.source_stats().fetched_bytes;

    let mut cold_bytes = 0u64;
    for (k, &tol) in tols.iter().enumerate() {
        let solo = Archive::open(&path).unwrap();
        let mut s = solo.session().unwrap();
        let r = s.execute(&one(["V", "Vx2", "VxVy"][k % 3], tol)).unwrap();
        assert!(r.satisfied);
        cold_bytes += solo.source_stats().fetched_bytes;
    }
    // under a tight store budget the shared arm may additionally pay its
    // explicitly-counted rehydration bytes; it must never exceed the cold
    // sum by more than that
    let rehydrated = service.store_stats().rehydration_bytes;
    assert!(
        shared_bytes <= cold_bytes + rehydrated,
        "shared {shared_bytes} B read more than cold sum {cold_bytes} B + rehydrated {rehydrated} B"
    );
    std::fs::remove_file(&path).ok();
}

#[test]
fn remembered_estimate_survives_demotion_and_never_crosses_sessions() {
    // a session's views keep the snapshots they adopted when the pager
    // demotes the fields under them, so the identical request again is
    // answered from the remembered estimate; a fresh session adopts cold
    // placeholders, rehydrates on its first refinement, remembers nothing —
    // and certifies the very same numbers
    let path = save_archive("estimate_reuse", Scheme::default());
    let archive = Archive::open(&path).unwrap();
    let service = archive.service().unwrap();
    let mut request = RetrievalRequest::new();
    for (name, tol) in TOLS {
        request = request.qoi(name, tol);
    }
    let reply = |r: &PlanReport| {
        let per_target: Vec<(u64, bool)> = r
            .targets
            .iter()
            .map(|t| (t.max_est_error.to_bits(), t.satisfied))
            .collect();
        let bounds: Vec<u64> = r.field_bounds.iter().map(|b| b.to_bits()).collect();
        (per_target, bounds, r.satisfied, r.total_fetched)
    };

    let mut session = service.session().unwrap();
    let first = session.execute(&request).unwrap();
    assert!(first.satisfied);
    for field in 0..service.store().num_fields() {
        service.store().demote(field); // already demoted under a tight budget
    }
    let again = session.execute(&request).unwrap();
    assert_eq!(reply(&again), reply(&first));
    assert_eq!(again.store_fragments_decoded, 0);
    assert_eq!((again.iterations, again.estimate_reuses), (1, 1));

    let mut fresh = service.session().unwrap();
    let cold_start = fresh.execute(&request).unwrap();
    assert_eq!(reply(&cold_start), reply(&first));
    assert_eq!(cold_start.estimate_reuses, 0);
    assert!(service.store_stats().rehydration_decodes > 0);
    std::fs::remove_file(&path).ok();
}
