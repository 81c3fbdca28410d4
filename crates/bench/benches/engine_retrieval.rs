//! Criterion: the full QoI-preserving retrieval loop, plus the Algorithm 4
//! reduction-factor ablation (c = 1.25 / 1.5 / 2.0 — the paper fixes 1.5).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use pqr_progressive::engine::{EngineConfig, QoiSpec, RetrievalEngine};
use pqr_progressive::field::Dataset;
use pqr_progressive::refactored::Scheme;
use pqr_qoi::library::velocity_magnitude;

fn dataset(n: usize) -> Dataset {
    let mut ds = Dataset::new(&[n]);
    for c in 0..3usize {
        ds.add_field(
            ["Vx", "Vy", "Vz"][c],
            (0..n)
                .map(|i| ((i + c * 37) as f64 * 0.004).sin() * 30.0 + 50.0)
                .collect(),
        )
        .unwrap();
    }
    ds
}

fn bench_retrieve(c: &mut Criterion) {
    let ds = dataset(50_000);
    let expr = velocity_magnitude(0, 3);
    let range = ds.qoi_range(&expr).unwrap();
    let mut g = c.benchmark_group("engine_retrieve");
    g.sample_size(10);
    for scheme in [Scheme::PmgardHb, Scheme::Psz3Delta] {
        // one shared source per scheme: engine construction inside the
        // timed loop must not re-serialize the whole archive
        let ladder: Vec<f64> = (1..=10).map(|i| 10f64.powi(-i)).collect();
        let archive = std::sync::Arc::new(ds.refactor_with_bounds(scheme, &ladder).unwrap());
        for tol in [1e-2, 1e-5] {
            g.bench_function(
                BenchmarkId::new(scheme.name(), format!("tol={tol:.0e}")),
                |b| {
                    b.iter(|| {
                        let mut engine =
                            RetrievalEngine::from_source(archive.clone(), EngineConfig::default())
                                .unwrap();
                        let spec = QoiSpec::with_range("VTOT", expr.clone(), tol, range);
                        engine.retrieve(&[spec]).unwrap()
                    })
                },
            );
        }
    }
    g.finish();
}

fn bench_reduction_factor_ablation(c: &mut Criterion) {
    let ds = dataset(50_000);
    let expr = velocity_magnitude(0, 3);
    let range = ds.qoi_range(&expr).unwrap();
    let archive = std::sync::Arc::new(ds.refactor(Scheme::PmgardHb).unwrap());
    let mut g = c.benchmark_group("reduction_factor");
    g.sample_size(10);
    for factor in [1.25, 1.5, 2.0] {
        g.bench_function(BenchmarkId::from_parameter(factor), |b| {
            b.iter(|| {
                let cfg = EngineConfig {
                    reduction_factor: factor,
                    ..Default::default()
                };
                let mut engine = RetrievalEngine::from_source(archive.clone(), cfg).unwrap();
                let spec = QoiSpec::with_range("VTOT", expr.clone(), 1e-4, range);
                let r = engine.retrieve(&[spec]).unwrap();
                assert!(r.satisfied);
                r.total_fetched
            })
        });
    }
    g.finish();
}

criterion_group!(benches, bench_retrieve, bench_reduction_factor_ablation);
criterion_main!(benches);
