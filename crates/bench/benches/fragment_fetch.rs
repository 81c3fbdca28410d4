//! Criterion: fragment access through the container reader over each
//! storage backend — a buffer in memory and a file read by byte ranges —
//! on one loose-tolerance retrieval.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use pqr_progressive::engine::{EngineConfig, QoiSpec, RetrievalEngine};
use pqr_progressive::field::Dataset;
use pqr_progressive::fragstore::{FileSource, FragmentSource, InMemorySource};
use pqr_progressive::refactored::Scheme;
use pqr_qoi::library::velocity_magnitude;
use std::sync::Arc;

fn dataset(n: usize) -> Dataset {
    let mut ds = Dataset::new(&[n]);
    for c in 0..3usize {
        ds.add_field(
            ["Vx", "Vy", "Vz"][c],
            (0..n)
                .map(|i| ((i + c * 41) as f64 * 0.006).sin() * 25.0 + 40.0)
                .collect(),
        )
        .unwrap();
    }
    ds
}

/// One full loose-tolerance retrieval through `source` — the unit of work
/// whose fragment-fetch cost the backends differ in.
fn retrieve_once(source: Arc<dyn FragmentSource>, spec: &QoiSpec) -> usize {
    let mut engine = RetrievalEngine::from_source(source, EngineConfig::default()).unwrap();
    let report = engine.retrieve(std::slice::from_ref(spec)).unwrap();
    assert!(report.satisfied);
    report.total_fetched
}

fn bench_fragment_fetch(c: &mut Criterion) {
    let ds = dataset(30_000);
    let expr = velocity_magnitude(0, 3);
    let range = ds.qoi_range(&expr).unwrap();
    let bytes = ds.refactor(Scheme::PmgardHb).unwrap().to_bytes();
    let spec = QoiSpec::with_range("VTOT", expr, 1e-3, range);

    let dir = std::env::temp_dir().join("pqr_fragment_fetch_bench");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join(format!("bench_{}.pqrx", std::process::id()));
    std::fs::write(&path, &bytes).unwrap();

    let mem = Arc::new(InMemorySource::new(bytes).unwrap());
    let file = Arc::new(FileSource::open(&path).unwrap());

    let mut g = c.benchmark_group("fragment_fetch");
    g.sample_size(10);
    g.bench_function(BenchmarkId::new("backend", "in_memory"), |b| {
        b.iter(|| retrieve_once(mem.clone(), &spec))
    });
    g.bench_function(BenchmarkId::new("backend", "file"), |b| {
        b.iter(|| retrieve_once(file.clone(), &spec))
    });
    g.finish();
    std::fs::remove_file(&path).ok();
}

criterion_group!(benches, bench_fragment_fetch);
criterion_main!(benches);
