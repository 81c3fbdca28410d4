//! Criterion: bitplane encode + progressive plane decode — PMGARD's
//! fragment coder.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use pqr_mgard::bitplane::{encode_level, LevelDecoder, PLANES};

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

fn encode(c: &mut Criterion) {
    let n = 100_000;
    let data = coeffs(n);
    let mut g = c.benchmark_group("bitplane");
    g.throughput(Throughput::Bytes((n * 8) as u64));
    g.bench_function("encode_level", |b| b.iter(|| encode_level(&data)));
    g.finish();
}

fn progressive_decode(c: &mut Criterion) {
    let n = 100_000;
    let data = coeffs(n);
    let enc = encode_level(&data);
    let mut g = c.benchmark_group("bitplane_decode");
    for planes in [8u32, 24, PLANES] {
        g.bench_function(BenchmarkId::from_parameter(planes), |b| {
            b.iter(|| {
                let mut d = LevelDecoder::new(enc.exponent, enc.count);
                for p in 0..planes as usize {
                    d.push_plane(&enc.planes[p]).unwrap();
                }
                d.coefficients()
            })
        });
    }
    g.finish();
}

criterion_group!(benches, encode, progressive_decode);
criterion_main!(benches);
