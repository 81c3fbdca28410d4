//! The storage-layer acceptance test: partial retrieval must be partial in
//! *bytes actually read*, not just bytes counted, and the one container
//! reader — over a buffer in memory or a file read by ranges — must drive
//! the one `FragmentSource` code path to identical results and tallies.

use pqr::prelude::*;
use std::sync::Arc;

fn velocity_archive(n: usize) -> Archive {
    let vx: Vec<f64> = (0..n)
        .map(|i| (i as f64 * 0.011).sin() * 30.0 + 50.0)
        .collect();
    let vy: Vec<f64> = (0..n).map(|i| (i as f64 * 0.017).cos() * 20.0).collect();
    let vz: Vec<f64> = (0..n).map(|i| (i as f64 * 0.007).sin() * 10.0).collect();
    ArchiveBuilder::new(&[n])
        .field("Vx", vx)
        .field("Vy", vy)
        .field("Vz", vz)
        .qoi("VTOT", velocity_magnitude(0, 3))
        .build()
        .unwrap()
}

fn temp_path(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join("pqr_partial_retrieval_test");
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(format!("{name}_{}.pqrx", std::process::id()))
}

/// Acceptance criterion: a loose-tolerance QoI retrieval from a
/// file-backed archive reads demonstrably fewer fragment bytes than the
/// archive holds, asserted through the source's byte counters.
#[test]
fn loose_retrieval_reads_a_fraction_of_the_archive() {
    let archive = velocity_archive(20_000);
    let path = temp_path("loose");
    archive.save(&path).unwrap();
    let archive_size = std::fs::metadata(&path).unwrap().len();

    let lazy = Archive::open(&path).unwrap();
    let mut session = lazy.session().unwrap();
    let report = session
        .execute(&RetrievalRequest::new().qoi("VTOT", 1e-2))
        .unwrap();
    assert!(report.satisfied);

    let stats = lazy.source_stats();
    assert!(stats.fetches > 0, "retrieval must go through the source");
    assert!(
        stats.fetched_bytes * 4 < archive_size,
        "loose retrieval read {} B of a {} B archive — not partial",
        stats.fetched_bytes,
        archive_size
    );
    // the engine's logical accounting and the source's physical accounting
    // describe the same fragments
    assert_eq!(stats.fetched_bytes as usize, session.total_fetched());
    std::fs::remove_file(&path).ok();
}

/// Tightening the tolerance reads more disk bytes — the directory lets the
/// session fetch exactly the increment.
#[test]
fn tighter_tolerances_read_more_disk_bytes_incrementally() {
    let archive = velocity_archive(8_000);
    let path = temp_path("incremental");
    archive.save(&path).unwrap();
    let archive_size = std::fs::metadata(&path).unwrap().len();

    let lazy = Archive::open(&path).unwrap();
    let mut session = lazy.session().unwrap();
    let mut last = 0u64;
    for tol in [1e-1, 1e-2, 1e-3, 1e-4] {
        let report = session
            .execute(&RetrievalRequest::new().qoi("VTOT", tol))
            .unwrap();
        assert!(report.satisfied, "τ={tol}");
        let read = lazy.source_stats().fetched_bytes;
        assert!(read >= last, "disk reads must be cumulative");
        last = read;
    }
    assert!(last < archive_size, "even τ=1e-4 stays below full archive");
    std::fs::remove_file(&path).ok();
}

/// All three backends — resident dataset, in-memory container and
/// file-backed source — produce identical retrievals through the single
/// engine code path.
#[test]
fn all_backends_share_one_code_path() {
    let n = 6_000;
    let mut ds = Dataset::new(&[n]);
    ds.add_field(
        "u",
        (0..n)
            .map(|i| (i as f64 * 0.013).sin() * 7.0 + 9.0)
            .collect(),
    )
    .unwrap();
    ds.add_field(
        "w",
        (0..n).map(|i| (i as f64 * 0.019).cos() * 4.0).collect(),
    )
    .unwrap();
    let mem = Arc::new(
        ds.refactor_with_bounds(Scheme::PmgardHb, &[1e-1, 1e-3])
            .unwrap(),
    );
    let spec = QoiSpec::with_range(
        "uw",
        QoiExpr::var(0).mul(QoiExpr::var(1)),
        1e-4,
        ds.qoi_range(&QoiExpr::var(0).mul(QoiExpr::var(1))).unwrap(),
    );

    let run = |source: Arc<dyn FragmentSource>| {
        let mut engine = RetrievalEngine::from_source(source, EngineConfig::default()).unwrap();
        let report = engine.retrieve(std::slice::from_ref(&spec)).unwrap();
        assert!(report.satisfied);
        (
            engine.reconstruction(0).to_vec(),
            engine.reconstruction(1).to_vec(),
            engine.total_fetched(),
        )
    };

    let path = temp_path("backends");
    mem.copy_to(&mut std::fs::File::create(&path).unwrap())
        .unwrap();
    let file = Arc::new(FileSource::open(&path).unwrap());
    let (in_memory, on_file) = (run(mem.clone()), run(file.clone()));
    assert!(
        in_memory.0 == on_file.0 && in_memory.1 == on_file.1,
        "reconstruction drifted"
    );
    assert_eq!(in_memory.2, on_file.2, "byte accounting drifted");
    // one reader, one tally: a buffer in memory counts what a file reads
    assert_eq!(mem.stats(), file.stats());
    assert!(mem.stats().fetches > 0);
    std::fs::remove_file(&path).ok();
}
