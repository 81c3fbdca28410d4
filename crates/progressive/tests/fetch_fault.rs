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
use pqr_progressive::plan::{PlanReport, RetrievalPlan};
use pqr_progressive::refactored::{FieldReader, Scheme};
use pqr_progressive::store::ProgressStore;
use pqr_qoi::QoiExpr;
use pqr_util::error::{PqrError, Result};
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
    let bytes = ds.refactor_with_bounds(scheme, &ladder).unwrap().to_bytes();
    Arc::new(FlakySource {
        inner: InMemorySource::new(bytes).unwrap(),
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
