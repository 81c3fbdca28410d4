//! Integration test of the bounded-memory tiered progress store
//! (`pqr_progressive::pager` + the `Resident | Demoted` store rework).
//!
//! Headline property: **eviction is invisible**. Under a randomized
//! demotion schedule — forced demotions interleaved with requests, on top
//! of a budget of ⅛ of the measured working set — every reply a service
//! session produces is byte-identical to the unbounded store, across all
//! five schemes and both the in-memory and file backends. Decode-once
//! accounting degrades only by the explicitly-counted rehydration
//! decodes: `fragments_decoded` stays exactly equal, and the bounded
//! arm's extra source bytes equal `rehydration_bytes` to the byte.
//!
//! A second test interleaves a chaos-demotion thread with concurrent
//! mixed-tolerance sessions: every certified reply still meets its
//! tolerance against ground truth, and advance decodes never exceed the
//! archive's fragment count (decode-once survives the chaos).
//!
//! A third test bounds residency: on a six-field archive under a budget of
//! ⅛ of the working set, a series that streams every field and then
//! revisits some must evict, rehydrate, and never hold more than the
//! budget plus one field.

use pqr::prelude::*;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

fn field_vx(n: usize) -> Vec<f64> {
    (0..n)
        .map(|i| (i as f64 * 0.013).sin() * 30.0 + 50.0)
        .collect()
}

fn field_vy(n: usize) -> Vec<f64> {
    (0..n).map(|i| (i as f64 * 0.021).cos() * 15.0).collect()
}

fn build_archive(scheme: Scheme) -> Archive {
    let n = 2400;
    ArchiveBuilder::new(&[n])
        .field("Vx", field_vx(n))
        .field("Vy", field_vy(n))
        .qoi("V", velocity_magnitude(0, 2))
        .qoi("Vx2", QoiExpr::var(0).pow(2))
        .qoi("VxVy", species_product(0, 1))
        .scheme(scheme)
        .build()
        .unwrap()
}

/// Deterministic schedule driver (`Date`-free, seed-stable): a 64-bit LCG.
struct Lcg(u64);

impl Lcg {
    fn next(&mut self) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        self.0 >> 33
    }
}

/// The mixed-tolerance request series; per request, the fields its QoI
/// derives from (the only fields whose session state the request defines).
const SERIES: [(&str, f64, &[&str]); 5] = [
    ("V", 1e-2, &["Vx", "Vy"]),
    ("Vx2", 1e-3, &["Vx"]),
    ("V", 1e-5, &["Vx", "Vy"]),
    ("VxVy", 1e-3, &["Vx", "Vy"]),
    ("V", 1e-4, &["Vx", "Vy"]),
];

/// Everything a reply exposes, bit-exact.
#[derive(Debug, PartialEq)]
struct ReplyFingerprint {
    satisfied: bool,
    target: (bool, u64, u64, u64), // (satisfied, tol_abs, max_est_error, bytes)
    bytes_fetched: usize,
    total_fetched: usize,
    recons: Vec<Vec<u64>>,
    qoi_values: Vec<u64>,
    progress_blob: Vec<u8>,
}

fn run_series(
    service: &DatasetService,
    mut demote: impl FnMut(usize, &DatasetService),
) -> Vec<ReplyFingerprint> {
    SERIES
        .iter()
        .enumerate()
        .map(|(step, (name, tol, fields))| {
            demote(step, service);
            let mut session = service.session().unwrap();
            let report = session
                .execute(&RetrievalRequest::new().qoi(name, *tol))
                .unwrap();
            assert!(report.satisfied, "{name}@{tol}");
            let t = &report.targets[0];
            ReplyFingerprint {
                satisfied: report.satisfied,
                target: (
                    t.satisfied,
                    t.tol_abs.to_bits(),
                    t.max_est_error.to_bits(),
                    t.bytes as u64,
                ),
                bytes_fetched: report.bytes_fetched,
                total_fetched: session.total_fetched(),
                recons: fields
                    .iter()
                    .map(|f| {
                        session
                            .reconstruction(f)
                            .unwrap()
                            .iter()
                            .map(|x| x.to_bits())
                            .collect()
                    })
                    .collect(),
                qoi_values: session
                    .qoi_values(name)
                    .unwrap()
                    .iter()
                    .map(|x| x.to_bits())
                    .collect(),
                progress_blob: session.save_progress(),
            }
        })
        .collect()
}

#[test]
fn randomized_evictions_are_invisible_across_schemes_and_backends() {
    let dir = std::env::temp_dir().join("pqr_store_pager_test");
    std::fs::create_dir_all(&dir).unwrap();
    for scheme in Scheme::extended() {
        let path = dir.join(format!("{}_{}.pqrx", scheme.name(), std::process::id()));
        build_archive(scheme).save(&path).unwrap();
        #[allow(clippy::type_complexity)] // two labelled archive factories
        let backends: [(&str, Box<dyn Fn() -> Archive>); 2] = [
            ("file", {
                let p = path.clone();
                Box::new(move || Archive::open(&p).unwrap())
            }),
            ("mem", {
                let bytes = std::fs::read(&path).unwrap();
                Box::new(move || Archive::from_bytes(&bytes).unwrap())
            }),
        ];
        for (backend, open) in &backends {
            let ctx = format!("{} / {backend}", scheme.name());

            // unbounded oracle: also measures the working set via the
            // budget's peak tracking (tracking is free, eviction is off)
            let free_archive = open();
            let free_budget = Arc::new(StoreBudget::unbounded());
            let free = free_archive
                .service_with_budget(Arc::clone(&free_budget))
                .unwrap();
            let oracle = run_series(&free, |_, _| {});
            let free_stats = free.store_stats();
            let free_bytes = free_archive.source_stats().fetched_bytes;
            let working_set = free_budget.peak_resident_bytes();
            assert!(working_set > 0, "{ctx}: peak tracking is broken");

            // bounded arm: ⅛ of the working set, plus a seeded schedule of
            // forced demotions injected between (and before) requests
            let tight_archive = open();
            let tight = tight_archive
                .service_with_budget(Arc::new(StoreBudget::with_limit((working_set / 8).max(1))))
                .unwrap();
            let mut lcg = Lcg(0x5eed ^ scheme.tag_for_tests());
            let replies = run_series(&tight, |_, svc| {
                for _ in 0..(lcg.next() % 3) {
                    let field = (lcg.next() % 2) as usize;
                    svc.store().demote(field);
                }
            });

            // every reply byte-identical to the unbounded store
            assert_eq!(replies, oracle, "{ctx}: replies diverged under eviction");

            let tight_stats = tight.store_stats();
            assert!(
                tight_stats.evictions > 0,
                "{ctx}: an eighth-budget run must evict"
            );
            assert!(tight_stats.rehydration_decodes > 0, "{ctx}");
            // decode-once degrades ONLY by the counted rehydration decodes:
            // the advance tally is exactly the unbounded one...
            assert_eq!(
                tight_stats.fragments_decoded, free_stats.fragments_decoded,
                "{ctx}: rehydration replays leaked into the advance tally"
            );
            // ...and the extra source traffic is exactly the counted
            // rehydration bytes (the resident backend doesn't meter
            // bytes, so the exact-accounting claim is checked on file)
            if *backend == "file" {
                assert_eq!(
                    tight_archive.source_stats().fetched_bytes,
                    free_bytes + tight_stats.rehydration_bytes,
                    "{ctx}: unaccounted source bytes"
                );
            }
        }
        std::fs::remove_file(&path).ok();
    }
}

/// `Scheme` has no public stable integer id; derive one for seeding only.
trait SchemeSeed {
    fn tag_for_tests(&self) -> u64;
}

impl SchemeSeed for Scheme {
    fn tag_for_tests(&self) -> u64 {
        Scheme::extended().iter().position(|s| s == self).unwrap() as u64
    }
}

#[test]
fn chaos_demotions_under_concurrent_sessions_keep_every_guarantee() {
    let archive = build_archive(Scheme::PmgardHb);
    let truth_v: Vec<f64> = field_vx(2400)
        .iter()
        .zip(&field_vy(2400))
        .map(|(x, y)| (x * x + y * y).sqrt())
        .collect();
    // a budget small enough that natural eviction joins the forced chaos
    let service = archive
        .service_with_budget(Arc::new(StoreBudget::with_limit(64 << 10)))
        .unwrap();

    // Every session keeps requesting until one of its requests *started
    // after* a chaos demotion that landed after its first reply — when the
    // fields it reads had decoded state to lose — so each session provably
    // ran against the chaos instead of merely beside it, however fast a
    // request is. The chaos thread counts a demotion only after `demote`
    // returns, so the count can trail a landed demotion by one: a request
    // that starts at `mark + 2` started after demotion `mark + 2` began,
    // which was after `mark` was read.
    let landed = AtomicU64::new(0);
    let stop = AtomicBool::new(false);
    std::thread::scope(|s| {
        // chaos: demote pseudo-random fields as fast as the locks allow
        let chaos_service = service.clone();
        let (stop, landed) = (&stop, &landed);
        s.spawn(move || {
            let mut lcg = Lcg(0xc4a05);
            while !stop.load(Ordering::SeqCst) {
                if chaos_service.store().demote((lcg.next() % 2) as usize) {
                    landed.fetch_add(1, Ordering::SeqCst);
                }
                std::thread::yield_now();
            }
        });

        let tols = [1e-2, 1e-5, 1e-3, 1e-4];
        let sessions: Vec<_> = tols
            .iter()
            .enumerate()
            .cycle()
            .take(8)
            .map(|(k, &tol)| {
                let service = service.clone();
                let name = ["V", "Vx2", "VxVy"][k % 3];
                let truth_v = &truth_v;
                s.spawn(move || {
                    let began = std::time::Instant::now();
                    let mut mark = None;
                    loop {
                        let before = landed.load(Ordering::SeqCst);
                        let mut session = service.session().unwrap();
                        let report = session
                            .execute(&RetrievalRequest::new().qoi(name, tol))
                            .unwrap();
                        assert!(report.satisfied, "{name}@{tol}");
                        let t = &report.targets[0];
                        assert!(t.max_est_error <= t.tol_abs);
                        // sessions never decode, chaos or not
                        assert_eq!(session.fragments_decoded(), 0);
                        // the certified estimate really bounds the actual error
                        if name == "V" {
                            let worst = session
                                .qoi_values("V")
                                .unwrap()
                                .iter()
                                .zip(truth_v)
                                .map(|(a, b)| (a - b).abs())
                                .fold(0.0f64, f64::max);
                            assert!(
                                worst <= t.tol_abs,
                                "{name}@{tol}: actual error {worst} > certified {}",
                                t.tol_abs
                            );
                        }
                        match mark {
                            None => mark = Some(landed.load(Ordering::SeqCst)),
                            Some(m) if before >= m + 2 => break,
                            Some(_) => assert!(
                                began.elapsed() < std::time::Duration::from_secs(60),
                                "{name}@{tol}: chaos landed no demotion after the first reply"
                            ),
                        }
                    }
                })
            })
            .collect();
        // the chaos loop races the sessions for as long as any is running
        let results: Vec<_> = sessions.into_iter().map(|h| h.join()).collect();
        stop.store(true, Ordering::SeqCst);
        for r in results {
            if let Err(panic) = r {
                std::panic::resume_unwind(panic);
            }
        }
    });

    let stats = service.store_stats();
    let landed = landed.into_inner();
    assert!(landed >= 2, "chaos never landed a demotion");
    assert!(stats.evictions >= landed);
    // a demotion landed on decoded state a later request needed back
    assert!(stats.rehydration_decodes > 0);
    // decode-once under chaos: advance decodes never exceed the number of
    // distinct fragments in the archive (8 cold engines would have paid
    // a multiple of this)
    let total_fragments: u64 = service
        .manifest()
        .fields
        .iter()
        .map(|f| f.fragments.len() as u64)
        .sum();
    assert!(stats.fragments_decoded > 0);
    assert!(
        stats.fragments_decoded <= total_fragments,
        "advance decodes {} exceed the archive's {} fragments",
        stats.fragments_decoded,
        total_fragments
    );
    // pressure enforcement pins whichever field was hot last; an unpinned
    // pass at this quiesce point recovers the tier to its ceiling
    service.store().enforce();
    assert!(!service.store().budget().over_decoded_limit());
}

/// Streams all six fields, revisits three tight, then one loose: each
/// request derives from one field, the store's eviction granularity.
const RESIDENCY_SERIES: [(&str, f64); 10] = [
    ("Vx2", 1e-4),
    ("Vy2", 1e-4),
    ("Vz2", 1e-4),
    ("P2", 1e-4),
    ("T2", 1e-4),
    ("Rho2", 1e-4),
    ("Vx2", 1e-7),
    ("Vy2", 1e-7),
    ("Vz2", 1e-7),
    ("Vx2", 1e-2),
];

/// Runs [`RESIDENCY_SERIES`], one session per request, under `budget`.
fn run_residency_series(archive: &Archive, budget: &Arc<StoreBudget>) -> StoreStats {
    let service = archive.service_with_budget(Arc::clone(budget)).unwrap();
    for (name, tol) in RESIDENCY_SERIES {
        let report = service
            .session()
            .unwrap()
            .execute(&RetrievalRequest::new().qoi(name, tol))
            .unwrap();
        assert!(report.satisfied, "{name}@{tol}");
    }
    service.store_stats()
}

#[test]
fn eighth_budget_peak_stays_within_one_field_of_the_limit() {
    let n = 3000;
    let mut builder = ArchiveBuilder::new(&[n]);
    for (f, name) in ["Vx", "Vy", "Vz", "P", "T", "Rho"].iter().enumerate() {
        // smooth flow plus xorshift noise, so deep planes carry real decode
        let mut s = 0x9e37_79b9_7f4a_7c15u64 ^ (f as u64);
        let values = (0..n)
            .map(|i| {
                s ^= s << 13;
                s ^= s >> 7;
                s ^= s << 17;
                let noise = (s as f64 / u64::MAX as f64 - 0.5) * 2.0;
                let x = i as f64 / n as f64;
                (x * (7.0 + f as f64)).sin() * 20.0 + (x * 31.0).cos() * 3.0 + noise + 40.0
            })
            .collect();
        builder = builder
            .field(name, values)
            .qoi(&format!("{name}2"), QoiExpr::var(f).pow(2));
    }
    let archive = builder.build().unwrap();

    let free = Arc::new(StoreBudget::unbounded());
    run_residency_series(&archive, &free);
    let working_set = free.peak_resident_bytes();
    assert!(working_set > 0, "peak tracking is broken");

    let limit = working_set / 8;
    let tight = Arc::new(StoreBudget::with_limit(limit));
    let stats = run_residency_series(&archive, &tight);
    assert!(stats.evictions > 0, "an eighth budget must evict");
    assert!(stats.rehydration_decodes > 0, "revisits must rehydrate");
    // eviction is per field, so a field being charged can overshoot the
    // limit before enforcement runs: by at most one field of six
    let slack = working_set / 4;
    let peak = tight.peak_resident_bytes();
    assert!(
        peak <= limit + slack,
        "peak {peak} B over limit {limit} B + slack {slack} B (working set {working_set} B)"
    );
}
