//! Criterion: plan/execute retrieval — one QoI versus three QoIs deriving
//! from shared fields, per storage backend. The 3-QoI batched plan
//! schedules each shared field's fragments once, so its cost should sit
//! far closer to the 1-QoI arm than to 3× it.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use pqr_progressive::engine::{EngineConfig, QoiSpec, RetrievalEngine};
use pqr_progressive::field::Dataset;
use pqr_progressive::fragstore::{FileSource, FragmentSource, InMemorySource};
use pqr_progressive::plan::RetrievalPlan;
use pqr_progressive::refactored::Scheme;
use pqr_qoi::library::{species_product, velocity_magnitude};
use pqr_qoi::QoiExpr;

fn dataset(n: usize) -> Dataset {
    let mut ds = Dataset::new(&[n]);
    for c in 0..3usize {
        ds.add_field(
            ["Vx", "Vy", "Vz"][c],
            (0..n)
                .map(|i| ((i + c * 37) as f64 * 0.007).sin() * 22.0 + 35.0)
                .collect(),
        )
        .unwrap();
    }
    ds
}

/// The 3-QoI target mix: all three read `Vx`, two read `Vy`/`Vz`.
fn specs(ds: &Dataset, many: bool) -> Vec<QoiSpec> {
    let mut v = vec![QoiSpec::relative("VTOT", velocity_magnitude(0, 3), 1e-4, ds).unwrap()];
    if many {
        v.push(QoiSpec::relative("Vx2", QoiExpr::var(0).pow(2), 1e-4, ds).unwrap());
        v.push(QoiSpec::relative("VxVy", species_product(0, 1), 1e-3, ds).unwrap());
    }
    v
}

fn execute_plan(
    source: std::sync::Arc<dyn FragmentSource>,
    specs: &[QoiSpec],
    cfg: EngineConfig,
) -> usize {
    let mut engine = RetrievalEngine::from_source(source, cfg).unwrap();
    let plan = RetrievalPlan::resolve(&engine, specs.to_vec(), None).unwrap();
    let report = engine.execute(&plan).unwrap();
    assert!(report.satisfied);
    report.total_fetched
}

fn bench_multi_qoi_plan(c: &mut Criterion) {
    let ds = dataset(20_000);
    let bytes = ds.refactor(Scheme::PmgardHb).unwrap().to_bytes();
    let dir = std::env::temp_dir().join("pqr_multi_qoi_plan_bench");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join(format!("bench_{}.pqrx", std::process::id()));
    std::fs::write(&path, &bytes).unwrap();
    let mem = std::sync::Arc::new(InMemorySource::new(bytes).unwrap());
    let file = std::sync::Arc::new(FileSource::open(&path).unwrap());

    let mut g = c.benchmark_group("multi_qoi_plan");
    g.sample_size(10);
    for (arm, many) in [("1qoi", false), ("3qoi_shared", true)] {
        let sp = specs(&ds, many);
        g.bench_function(BenchmarkId::new(arm, "in_memory"), |b| {
            b.iter(|| execute_plan(mem.clone(), &sp, EngineConfig::default()))
        });
        g.bench_function(BenchmarkId::new(arm, "file_batched"), |b| {
            b.iter(|| execute_plan(file.clone(), &sp, EngineConfig::default()))
        });
    }
    g.finish();
    std::fs::remove_file(&path).ok();
}

criterion_group!(benches, bench_multi_qoi_plan);
criterion_main!(benches);
