//! Property tests of the fragment-addressed storage layer: for random
//! fields, schemes and tolerances, retrieval must be **backend-invariant**
//! — a container in memory and a file read by byte ranges produce
//! byte-identical reconstructions with identical fetch accounting and
//! source tallies, and a suspended session resumes identically across
//! backends.

use pqr_progressive::engine::{EngineConfig, QoiSpec, RetrievalEngine};
use pqr_progressive::field::Dataset;
use pqr_progressive::fragstore::{FileSource, FragmentSource, InMemorySource};
use pqr_progressive::refactored::{ReaderProgress, Scheme};
use pqr_qoi::library::velocity_magnitude;
use pqr_qoi::QoiExpr;
use proptest::prelude::*;
use std::sync::Arc;

fn arb_scheme() -> impl Strategy<Value = Scheme> {
    prop_oneof![
        Just(Scheme::Psz3),
        Just(Scheme::Psz3Delta),
        Just(Scheme::PmgardHb),
        Just(Scheme::PmgardOb),
        Just(Scheme::Pzfp),
    ]
}

fn arb_qoi() -> impl Strategy<Value = QoiExpr> {
    prop_oneof![
        Just(velocity_magnitude(0, 2)),
        Just(QoiExpr::var(0).pow(2)),
        Just(QoiExpr::var(0).mul(QoiExpr::var(1))),
        Just(QoiExpr::var(1).abs()),
    ]
}

fn make_dataset(n: usize, seed: u64) -> Dataset {
    let mut ds = Dataset::new(&[n]);
    let mut s = seed.wrapping_mul(0x9e3779b97f4a7c15) | 1;
    for name in ["a", "b"] {
        let field: Vec<f64> = (0..n)
            .map(|i| {
                s ^= s << 13;
                s ^= s >> 7;
                s ^= s << 17;
                (s as f64 / u64::MAX as f64 - 0.5) * 3.0 + ((i as f64) * 0.11).sin() * 8.0 + 15.0
            })
            .collect();
        ds.add_field(name, field).unwrap();
    }
    ds
}

/// Copies `archive` to a unique temp file and returns its path.
fn temp_archive(archive: &InMemorySource, tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join("pqr_prop_fragstore");
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
    archive
        .copy_to(&mut std::fs::File::create(&path).unwrap())
        .unwrap();
    path
}

/// Runs a retrieval through `source` and returns
/// (per-field reconstructions, per-field bounds, total fetched bytes).
fn retrieve_via(
    source: Arc<dyn FragmentSource>,
    spec: &QoiSpec,
) -> (Vec<Vec<f64>>, Vec<f64>, usize) {
    let mut engine = RetrievalEngine::from_source(source, EngineConfig::default()).unwrap();
    engine.retrieve(std::slice::from_ref(spec)).unwrap();
    let nv = engine.manifest().num_fields();
    let recons = (0..nv).map(|i| engine.reconstruction(i).to_vec()).collect();
    let bounds = (0..nv).map(|i| engine.field_bound(i)).collect();
    (recons, bounds, engine.total_fetched())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The acceptance property of the storage layer: both backends drive
    /// the one engine code path to bit-identical results, and the one
    /// container reader tallies them alike.
    #[test]
    fn backends_agree_bit_for_bit(
        n in 96usize..512,
        seed in 0u64..1000,
        scheme in arb_scheme(),
        qoi in arb_qoi(),
        tol_exp in -6..-1i32,
    ) {
        let ds = make_dataset(n, seed);
        let ladder: Vec<f64> = (1..=8).map(|i| 10f64.powi(-i)).collect();
        let mem = Arc::new(ds.refactor_with_bounds(scheme, &ladder).unwrap());
        let range = ds.qoi_range(&qoi).unwrap();
        prop_assume!(range.is_finite() && range > 0.0);
        let spec = QoiSpec::with_range("q", qoi, 10f64.powi(tol_exp), range);

        let path = temp_archive(&mem, scheme.name());
        let len = std::fs::metadata(&path).unwrap().len();
        let file = Arc::new(FileSource::open(&path).unwrap());

        let (recon_b, bounds_b, fetched_b) = retrieve_via(mem.clone(), &spec);
        let (recon_c, bounds_c, fetched_c) = retrieve_via(file.clone(), &spec);
        std::fs::remove_file(&path).ok();

        // byte-identical reconstructions (bit patterns, not approx)
        for (i, (b, c)) in recon_b.iter().zip(&recon_c).enumerate() {
            prop_assert!(b == c, "{}: field {i} in-memory != file-backed", scheme.name());
        }
        prop_assert_eq!(&bounds_b, &bounds_c);
        prop_assert_eq!(fetched_b, fetched_c);
        prop_assert_eq!(mem.stats(), file.stats());
        prop_assert!(mem.stats().fetches > 0);

        // partial in actual bytes read: the file source touched fewer
        // bytes than the archive holds whenever the request was partial
        let disk = file.disk_bytes_read();
        prop_assert!(
            disk <= len,
            "{}: read {disk} of a {len}-byte archive",
            scheme.name()
        );
    }

    /// Suspend/resume across a process boundary and across backends:
    /// progress saved against one backend restores against another, and
    /// `ReaderProgress` round-trips through its wire form.
    #[test]
    fn progress_roundtrips_across_suspend_resume(
        n in 96usize..384,
        seed in 0u64..1000,
        scheme in arb_scheme(),
        tol_exp in -5..-1i32,
    ) {
        let ds = make_dataset(n, seed);
        let ladder: Vec<f64> = (1..=8).map(|i| 10f64.powi(-i)).collect();
        let archive = Arc::new(ds.refactor_with_bounds(scheme, &ladder).unwrap());
        let qoi = QoiExpr::var(0).pow(2);
        let range = ds.qoi_range(&qoi).unwrap();
        prop_assume!(range.is_finite() && range > 0.0);
        let loose = QoiSpec::with_range("q", qoi.clone(), 10f64.powi(tol_exp), range);
        let tight = QoiSpec::with_range("q", qoi, 10f64.powi(tol_exp - 2), range);

        // session 1 runs against the archive in memory, then suspends
        let mut e1 = RetrievalEngine::from_source(archive.clone(), EngineConfig::default()).unwrap();
        e1.retrieve(std::slice::from_ref(&loose)).unwrap();
        let blob = e1.save_progress();

        // per-reader markers round-trip through their wire form
        for i in 0..2 {
            let p = e1.reader_progress(i);
            let back = ReaderProgress::from_bytes(&p.to_bytes()).unwrap();
            prop_assert_eq!(&p, &back, "{}: reader {i} marker drifted", scheme.name());
        }

        // session 2 resumes *against the file-backed source*
        let path = temp_archive(&archive, "resume");
        let file = Arc::new(FileSource::open(&path).unwrap());
        let mut e2 =
            RetrievalEngine::resume_from_source(file, EngineConfig::default(), &blob).unwrap();
        prop_assert_eq!(e1.total_fetched(), e2.total_fetched());
        for i in 0..2 {
            prop_assert!(
                e1.reconstruction(i) == e2.reconstruction(i),
                "{}: field {i} diverged across suspend/resume",
                scheme.name()
            );
        }

        // both continue to a tighter tolerance identically
        let r1 = e1.retrieve(std::slice::from_ref(&tight)).unwrap();
        let r2 = e2.retrieve(std::slice::from_ref(&tight)).unwrap();
        std::fs::remove_file(&path).ok();
        prop_assert_eq!(r1.satisfied, r2.satisfied);
        prop_assert_eq!(r1.total_fetched, r2.total_fetched);
        for i in 0..2 {
            prop_assert!(e1.reconstruction(i) == e2.reconstruction(i));
        }
    }
}
