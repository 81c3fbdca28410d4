//! A fetch that fails mid-round must never leave a reader, an engine or a
//! shared store certifying a reconstruction its decoded state has moved
//! past. Each level is driven through a [`FragmentSource`] that fails a
//! chosen set of fragments while a switch is on: refine loose, fail deep in
//! a tight front, heal, ask for something in between — the paper's
//! guarantee has to hold on what comes back, and the state has to be the
//! one a fresh reader replays to.

use pqr_progressive::engine::{EngineConfig, QoiSpec, RetrievalEngine};
use pqr_progressive::field::Dataset;
use pqr_progressive::fragstore::{
    FragmentId, FragmentSource, InMemorySource, Manifest, SourceStats,
};
use pqr_progressive::pager::StoreBudget;
use pqr_progressive::plan::{PlanReport, RetrievalPlan};
use pqr_progressive::refactored::{FieldReader, Scheme};
use pqr_progressive::store::{FieldSnapshot, ProgressStore};
use pqr_qoi::QoiExpr;
use pqr_util::error::{PqrError, Result};
use pqr_util::par::HELP_MIN_ELEMENTS;
use pqr_util::stats::max_abs_diff;
use std::collections::HashSet;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};

/// Serves `inner`, except that while the switch is on every fetch or batch
/// touching one of the chosen fragment indices (of any field) fails.
struct FlakySource {
    inner: InMemorySource,
    failing: Mutex<HashSet<u32>>,
    on: AtomicBool,
}

impl FlakySource {
    fn fail(&self, indices: &[u32]) {
        *self.failing.lock().unwrap() = indices.iter().copied().collect();
        self.on.store(true, Ordering::SeqCst);
    }

    fn heal(&self) {
        self.on.store(false, Ordering::SeqCst);
    }

    fn check(&self, id: FragmentId) -> Result<()> {
        if self.on.load(Ordering::SeqCst) && self.failing.lock().unwrap().contains(&id.index) {
            return Err(PqrError::InvalidRequest(format!(
                "injected fault on fragment ({}, {})",
                id.field, id.index
            )));
        }
        Ok(())
    }
}

impl FragmentSource for FlakySource {
    fn manifest(&self) -> Result<Manifest> {
        self.inner.manifest()
    }
    fn fetch(&self, id: FragmentId) -> Result<Arc<Vec<u8>>> {
        self.check(id)?;
        self.inner.fetch(id)
    }
    fn read_many(&self, ids: &[FragmentId]) -> Result<Vec<Arc<Vec<u8>>>> {
        ids.iter().try_for_each(|&id| self.check(id))?;
        self.inner.read_many(ids)
    }
    fn stats(&self) -> SourceStats {
        self.inner.stats()
    }
}

const N: usize = 4096;

fn truth() -> Vec<f64> {
    (0..N)
        .map(|i| {
            let x = i as f64 / N as f64;
            (x * 7.0).sin() * 3.0 + (x * 23.0).cos() * 0.4 + x
        })
        .collect()
}

fn flaky_archive(scheme: Scheme) -> Arc<FlakySource> {
    let mut ds = Dataset::new(&[N]);
    ds.add_field("x", truth()).unwrap();
    let ladder: Vec<f64> = (1..=12).map(|i| 10f64.powi(-i)).collect();
    Arc::new(FlakySource {
        inner: ds.refactor_with_bounds(scheme, &ladder).unwrap(),
        failing: Mutex::new(HashSet::new()),
        on: AtomicBool::new(false),
    })
}

/// Two fragments three quarters of the way down `front` (the one fragment
/// of a one-fragment front).
fn deep_in(front: &[u32]) -> Vec<u32> {
    assert!(!front.is_empty(), "the tight request must have a front");
    front
        .iter()
        .skip(front.len() * 3 / 4)
        .take(2)
        .copied()
        .collect()
}

#[test]
fn reader_stays_certified_and_replayable_across_a_failed_front() {
    let truth = truth();
    let range = pqr_util::stats::value_range(&truth);
    let (loose, mid, tight) = (1e-1 * range, 1e-4 * range, 1e-9 * range);
    for scheme in Scheme::extended() {
        let name = scheme.name();
        let source = flaky_archive(scheme);
        let manifest = source.manifest().unwrap();
        let shared: Arc<dyn FragmentSource> = source.clone();
        let mut reader = FieldReader::open(Arc::clone(&shared), &manifest, 0).unwrap();
        reader.refine_to(loose).unwrap();

        source.fail(&deep_in(&reader.plan_refine_to(tight)));
        assert!(
            reader.refine_to(tight).is_err(),
            "{name}: fault must surface"
        );
        source.heal();
        if scheme == Scheme::Psz3Delta {
            // each rung's residual is dropped once folded in, so a ladder
            // that failed mid-refinement holds its reconstruction alone
            assert_eq!(
                reader.resident_bytes(),
                N * 8,
                "{name}: a residual outlived the failed refinement"
            );
        }

        reader.refine_to(mid).unwrap();
        let real = max_abs_diff(&truth, reader.data());
        assert!(
            real <= reader.guaranteed_bound(),
            "{name}: true error {real} above the certified {}",
            reader.guaranteed_bound()
        );
        assert!(
            reader.guaranteed_bound() <= mid,
            "{name}: bound {} stuck above a reachable {mid}",
            reader.guaranteed_bound()
        );
        // the state is the one its own marker replays to
        let mut fresh = FieldReader::open(shared, &manifest, 0).unwrap();
        fresh.restore(&reader.progress()).unwrap();
        assert_eq!(fresh.data(), reader.data(), "{name}: reconstruction");
        assert_eq!(
            fresh.guaranteed_bound().to_bits(),
            reader.guaranteed_bound().to_bits(),
            "{name}: bound"
        );
    }
}

fn execute(engine: &mut RetrievalEngine, tol_abs: f64) -> Result<PlanReport> {
    let spec = QoiSpec::absolute("x2", QoiExpr::var(0).pow(2), tol_abs);
    let plan = RetrievalPlan::resolve(engine, vec![spec], None)?;
    engine.execute(&plan)
}

/// `satisfied ⇒ max|truth − derived| ≤ max_est_error` on the engine's
/// current reconstruction.
fn assert_certified(name: &str, engine: &RetrievalEngine, report: &PlanReport) {
    let derived = engine.qoi_values(&QoiExpr::var(0).pow(2));
    let want: Vec<f64> = truth().iter().map(|x| x * x).collect();
    let real = max_abs_diff(&want, &derived);
    let est = report.targets[0].max_est_error;
    assert!(
        !report.satisfied || real <= est,
        "{name}: satisfied at estimate {est} while the true QoI error is {real}"
    );
}

/// The fragments a fresh reader's first round at `tol` schedules (Alg. 3
/// starts an absolute tolerance at `min(τ, 1)·range`).
fn first_round_front(source: &Arc<FlakySource>, tol: f64) -> Vec<u32> {
    let manifest = source.manifest().unwrap();
    let shared: Arc<dyn FragmentSource> = source.clone();
    FieldReader::open(shared, &manifest, 0)
        .unwrap()
        .plan_refine_to(tol * manifest.fields[0].range)
}

#[test]
fn engine_does_not_certify_a_stale_reconstruction_after_a_failed_round() {
    for scheme in Scheme::extended() {
        let name = scheme.name();
        let source = flaky_archive(scheme);
        let mut engine =
            RetrievalEngine::from_source(source.clone(), EngineConfig::default()).unwrap();
        source.fail(&deep_in(&first_round_front(&source, 1e-9)));
        assert!(
            execute(&mut engine, 1e-9).is_err(),
            "{name}: fault must surface"
        );
        source.heal();
        let report = execute(&mut engine, 1e-2).unwrap();
        assert!(report.satisfied, "{name}: 1e-2 is reachable");
        assert_certified(name, &engine, &report);
    }
}

#[test]
fn store_serves_a_fresh_session_after_a_failed_advance() {
    for scheme in Scheme::extended() {
        let name = scheme.name();
        let source = flaky_archive(scheme);
        let store = Arc::new(ProgressStore::open(source.clone()).unwrap());
        let mut first =
            RetrievalEngine::with_store(Arc::clone(&store), EngineConfig::default()).unwrap();
        source.fail(&deep_in(&first_round_front(&source, 1e-9)));
        assert!(
            execute(&mut first, 1e-9).is_err(),
            "{name}: fault must surface"
        );
        source.heal();
        // a tolerance between what the store had published and what the
        // failed advance was after
        let mut fresh =
            RetrievalEngine::with_store(Arc::clone(&store), EngineConfig::default()).unwrap();
        let report = execute(&mut fresh, 1e-3).unwrap();
        assert!(
            report.satisfied,
            "{name}: 1e-3 is reachable, bound stuck at {}",
            report.field_bounds[0]
        );
        assert_certified(name, &fresh, &report);
        // and the session the fault hit recovers on the same store
        let report = execute(&mut first, 1e-6).unwrap();
        assert!(report.satisfied, "{name}: 1e-6 after healing");
        assert_certified(name, &first, &report);
    }
}

/// Serves `inner`, except fragment `bad` (of one field): while the switch
/// is on, fetching it — or a batch holding it — fails, or (`corrupt`) it
/// arrives cut in half, so every batch lands and its decode fails.
struct OneBad {
    inner: InMemorySource,
    bad: FragmentId,
    corrupt: bool,
    on: AtomicBool,
}

impl FragmentSource for OneBad {
    fn manifest(&self) -> Result<Manifest> {
        self.inner.manifest()
    }
    fn fetch(&self, id: FragmentId) -> Result<Arc<Vec<u8>>> {
        let bytes = self.inner.fetch(id)?;
        if id != self.bad || !self.on.load(Ordering::SeqCst) {
            return Ok(bytes);
        }
        if self.corrupt {
            return Ok(Arc::new(bytes[..bytes.len() / 2].to_vec()));
        }
        Err(PqrError::InvalidRequest(format!(
            "injected fault on fragment ({}, {})",
            id.field, id.index
        )))
    }
    fn read_many(&self, ids: &[FragmentId]) -> Result<Vec<Arc<Vec<u8>>>> {
        ids.iter().map(|&id| self.fetch(id)).collect()
    }
    fn stats(&self) -> SourceStats {
        self.inner.stats()
    }
}

/// Elements of each field of [`three_field_bytes`]: the least a crew
/// hires helpers for.
const HELPED: usize = HELP_MIN_ELEMENTS;

/// Three fields; the request holds `x` and `y` loose and `z` tight, so a
/// round's `z` starts after one of the others and inherits the thread that
/// finishes the other: its tight front is the one a crew helps.
fn three_field_bytes(scheme: Scheme) -> Vec<u8> {
    let mut ds = Dataset::new(&[HELPED]);
    for (c, name) in ["x", "y", "z"].into_iter().enumerate() {
        let f = (0..HELPED)
            .map(|i| {
                let x = (i + c * 977) as f64 / HELPED as f64;
                (x * 7.0).sin() * 3.0 + (x * 23.0).cos() * 0.4 + x
            })
            .collect();
        ds.add_field(name, f).unwrap();
    }
    let ladder: Vec<f64> = (1..=12).map(|i| 10f64.powi(-i)).collect();
    let mut bytes = Vec::new();
    let archive = ds.refactor_with_bounds(scheme, &ladder).unwrap();
    archive.copy_to(&mut bytes).unwrap();
    bytes
}

#[test]
fn a_helped_round_fails_exactly_where_a_solo_round_does() {
    const TIGHT: f64 = 1e-9;
    let specs = || {
        ["x", "y", "z"]
            .into_iter()
            .enumerate()
            .map(|(j, name)| {
                let tol = if j == 2 { TIGHT } else { 1e-2 };
                QoiSpec::absolute(name, QoiExpr::var(j).pow(2), tol)
            })
            .collect::<Vec<_>>()
    };
    for scheme in Scheme::extended() {
        let name = scheme.name();
        let bytes = three_field_bytes(scheme);
        // a fragment three quarters down `z`'s first-round front
        let front = {
            let source: Arc<dyn FragmentSource> =
                Arc::new(InMemorySource::new(bytes.clone()).unwrap());
            let manifest = source.manifest().unwrap();
            FieldReader::open(source, &manifest, 2)
                .unwrap()
                .plan_refine_to(TIGHT * manifest.fields[2].range)
        };
        let bad = FragmentId {
            field: 2,
            index: deep_in(&front)[0],
        };
        for corrupt in [false, true] {
            // solo (one worker) and helped (a round of two workers, whose
            // thread that finds no field left helps `z`)
            let run = |workers: usize| {
                let source = Arc::new(OneBad {
                    inner: InMemorySource::new(bytes.clone()).unwrap(),
                    bad,
                    corrupt,
                    on: AtomicBool::new(true),
                });
                let cfg = EngineConfig {
                    workers,
                    ..EngineConfig::default()
                };
                let store = Arc::new(
                    ProgressStore::open_with(source.clone(), Arc::new(StoreBudget::unbounded()))
                        .unwrap(),
                );
                let mut engine = RetrievalEngine::with_store(Arc::clone(&store), cfg).unwrap();
                let plan = RetrievalPlan::resolve(&engine, specs(), None).unwrap();
                assert!(engine.execute(&plan).is_err(), "{name}: fault must surface");
                let moved = source.stats();
                if scheme == Scheme::Psz3Delta {
                    // no decoded residual outlives the fault: each field
                    // holds its reconstruction (N·8 bytes) and its snapshot
                    // header, nothing beside them
                    let field = size_of::<FieldSnapshot>() + HELPED * 8;
                    assert_eq!(store.resident_bytes(), 3 * field as u64, "{name}");
                }
                let manifest = source.manifest().unwrap();
                let shared: Arc<dyn FragmentSource> = source.clone();
                let fields: Vec<_> = (0..3)
                    .map(|j| {
                        let marker = engine.reader_progress(j);
                        // each field is certified at, and replays bit for
                        // bit from, its marker
                        let mut fresh =
                            FieldReader::open(Arc::clone(&shared), &manifest, j).unwrap();
                        fresh.restore(&marker).unwrap();
                        assert_eq!(fresh.data(), engine.reconstruction(j), "{name} field {j}");
                        assert_eq!(
                            fresh.guaranteed_bound().to_bits(),
                            engine.field_bound(j).to_bits(),
                            "{name} field {j}"
                        );
                        (engine.reconstruction(j).to_vec(), marker)
                    })
                    .collect();
                (
                    (
                        fields,
                        engine.total_fetched(),
                        engine.fragments_decoded(),
                        store.resident_bytes(),
                    ),
                    moved,
                )
            };
            let (solo, solo_moved) = run(1);
            assert!(
                solo.0[2].1.consumed < front.len() as u32,
                "{name}: the fault stopped nothing"
            );
            let (helped, helped_moved) = run(2);
            assert!(
                helped == solo,
                "{name} corrupt={corrupt}: helped differs from solo"
            );
            // the source saw what the solo round fetched, and at most one
            // row past the fault per thread of the round (each fetches one
            // row ahead of the field's own at most); what the engine counts
            // is the solo round's alone (above)
            assert!(
                (solo_moved.fetches..=solo_moved.fetches + 2).contains(&helped_moved.fetches),
                "{name} corrupt={corrupt}: {solo_moved:?} solo, {helped_moved:?} helped"
            );
            assert!(
                helped_moved.fetched_bytes >= solo_moved.fetched_bytes,
                "{name} corrupt={corrupt}"
            );
        }
    }
}
