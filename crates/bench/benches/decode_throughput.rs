//! Criterion: the decode acceleration stack in isolation — scalar vs
//! word-parallel bitplane kernels (PMGARD level coder, ZFP negabinary
//! planes) and plan execution at 1 vs N decode workers.
//!
//! End-to-end figures live with the standalone benchmark under
//! `benchmark/`; this bench is the interactive magnifying glass over the
//! kernels it replays.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use pqr_mgard::bitplane::{encode_level, encode_level_scalar, LevelDecoder};
use pqr_progressive::engine::{EngineConfig, QoiSpec, RetrievalEngine};
use pqr_progressive::field::Dataset;
use pqr_progressive::fragstore::InMemorySource;
use pqr_progressive::refactored::Scheme;
use pqr_qoi::library::velocity_magnitude;
use pqr_zfp::{ZfpCursor, ZfpRefactorer};

fn coeffs(n: usize) -> Vec<f64> {
    let mut s = 0x1234_5678u64;
    (0..n)
        .map(|_| {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            ((s as f64 / u64::MAX as f64) * 2.0 - 1.0) * 3.0
        })
        .collect()
}

fn bench_mgard_kernels(c: &mut Criterion) {
    let n = 100_000;
    let data = coeffs(n);
    let enc = encode_level(&data);
    let mut g = c.benchmark_group("decode_throughput/mgard");
    g.throughput(Throughput::Bytes((n * 8) as u64));
    g.bench_function("encode/scalar", |b| b.iter(|| encode_level_scalar(&data)));
    g.bench_function("encode/word", |b| b.iter(|| encode_level(&data)));
    let full_decode = |scalar: bool| {
        let mut d = if scalar {
            LevelDecoder::new_scalar(enc.exponent, enc.count)
        } else {
            LevelDecoder::new(enc.exponent, enc.count)
        };
        for p in &enc.planes {
            d.push_plane(p).unwrap();
        }
        d.coefficients()
    };
    g.bench_function("decode/scalar", |b| b.iter(|| full_decode(true)));
    g.bench_function("decode/word", |b| b.iter(|| full_decode(false)));
    g.finish();
}

fn bench_zfp_kernels(c: &mut Criterion) {
    let n = 60_000;
    let data = coeffs(n);
    let stream = ZfpRefactorer::new().refactor(&data, &[n]).unwrap();
    let mut g = c.benchmark_group("decode_throughput/zfp");
    g.throughput(Throughput::Bytes((n * 8) as u64));
    let full_decode = |scalar: bool| {
        let mut cur = if scalar {
            ZfpCursor::new_scalar(stream.meta())
        } else {
            ZfpCursor::new(stream.meta())
        };
        for p in stream.plane_payloads() {
            cur.push_plane(p).unwrap();
        }
        cur.reconstruct()
    };
    g.bench_function("decode/scalar", |b| b.iter(|| full_decode(true)));
    g.bench_function("decode/word", |b| b.iter(|| full_decode(false)));
    g.finish();
}

fn bench_plan_decode_workers(c: &mut Criterion) {
    let n = 20_000;
    let mut ds = Dataset::new(&[n]);
    for (f, name) in ["Vx", "Vy", "Vz"].iter().enumerate() {
        ds.add_field(
            name,
            (0..n)
                .map(|i| ((i + f * 37) as f64 * 0.011).sin() * 25.0 + 40.0)
                .collect(),
        )
        .unwrap();
    }
    let bytes = ds.refactor(Scheme::PmgardHb).unwrap().to_bytes();
    let archive = std::sync::Arc::new(InMemorySource::new(bytes).unwrap());
    let spec = QoiSpec::relative("VTOT", velocity_magnitude(0, 3), 1e-6, &ds).unwrap();
    let mut g = c.benchmark_group("decode_throughput/plan");
    g.throughput(Throughput::Bytes((3 * n * 8) as u64));
    for workers in [1usize, 4] {
        g.bench_function(format!("retrieve/{workers}t"), |b| {
            b.iter(|| {
                let cfg = EngineConfig {
                    workers,
                    ..Default::default()
                };
                let mut engine = RetrievalEngine::from_source(archive.clone(), cfg).unwrap();
                engine.retrieve(std::slice::from_ref(&spec)).unwrap()
            })
        });
    }
    g.finish();
}

criterion_group!(
    benches,
    bench_mgard_kernels,
    bench_zfp_kernels,
    bench_plan_decode_workers
);
criterion_main!(benches);
