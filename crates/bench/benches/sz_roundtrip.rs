//! Criterion: SZ3 stand-in compress/decompress throughput by predictor and
//! error bound — the kernel behind PSZ3 / PSZ3-delta refactoring and every
//! snapshot fetch (Table IV's cost driver) — and decompression of a
//! PSZ3-delta deep-rung residual at about 4 bits per symbol.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use pqr_sz::{SzCompressor, SzConfig};

fn field(n: usize) -> Vec<f64> {
    (0..n)
        .map(|i| {
            let x = i as f64 / n as f64;
            (x * 11.0).sin() * 3.0 + (x * 53.0).cos() * 0.4 + 2.0 * x
        })
        .collect()
}

fn bench_compress(c: &mut Criterion) {
    let n = 200_000;
    let data = field(n);
    let mut g = c.benchmark_group("sz_compress");
    g.throughput(Throughput::Bytes((n * 8) as u64));
    for (label, cfg) in [
        ("interp_cubic", SzConfig::default()),
        ("interp_linear", SzConfig::interp_linear()),
    ] {
        let comp = SzCompressor::new(cfg);
        g.bench_function(BenchmarkId::new(label, "eb=1e-6"), |b| {
            b.iter(|| comp.compress(&data, &[n], 1e-6).unwrap())
        });
    }
    g.finish();
}

fn bench_decompress(c: &mut Criterion) {
    let n = 200_000;
    let data = field(n);
    let comp = SzCompressor::default();
    let mut g = c.benchmark_group("sz_decompress");
    g.throughput(Throughput::Bytes((n * 8) as u64));
    for eb in [1e-3, 1e-9] {
        let blob = comp.compress(&data, &[n], eb).unwrap();
        g.bench_function(BenchmarkId::from_parameter(format!("eb={eb:.0e}")), |b| {
            b.iter(|| comp.decompress(&blob).unwrap())
        });
    }
    // a 1-D walk has one axis; a volume runs the interpolation along every
    // axis, rows of the outer axes included
    let dims = [40, 56, 72];
    let volume: Vec<f64> = (0..dims.iter().product())
        .map(|i| {
            let (x, y, z) = (i / (56 * 72), i / 72 % 56, i % 72);
            let (x, y, z) = (x as f64 / 40.0, y as f64 / 56.0, z as f64 / 72.0);
            (x * 5.0).sin() * (y * 3.0).cos() * 2.0 + (z * 9.0).sin() * 0.5 + x * y
        })
        .collect();
    g.throughput(Throughput::Bytes((volume.len() * 8) as u64));
    for eb in [1e-3, 1e-9] {
        let blob = comp.compress(&volume, &dims, eb).unwrap();
        let id = format!("3d_40x56x72/eb={eb:.0e}");
        g.bench_function(BenchmarkId::from_parameter(id), |b| {
            b.iter(|| comp.decompress(&blob).unwrap())
        });
    }
    // A PSZ3-delta deep rung: the volume's residual after the default
    // ladder's first six rungs (10⁻¹ … 10⁻⁶ of the value range), coded at
    // the seventh. Its codes take about 3.9 bits each, the regime of the
    // deep rungs a tight request fetches; the volume's own blobs above
    // take about one, and the residual after two rungs about one too.
    let (lo, hi) = volume
        .iter()
        .fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), &v| {
            (lo.min(v), hi.max(v))
        });
    let mut residual = volume;
    for k in 1..=6 {
        let eb = 10f64.powi(-k) * (hi - lo);
        let (_, recon) = comp.compress_with_recon(&residual, &dims, eb).unwrap();
        residual.iter_mut().zip(&recon).for_each(|(r, d)| *r -= d);
    }
    let blob = comp.compress(&residual, &dims, 1e-7 * (hi - lo)).unwrap();
    g.bench_function(
        BenchmarkId::from_parameter("3d_40x56x72/delta_rung7"),
        |b| b.iter(|| comp.decompress(&blob).unwrap()),
    );
    g.finish();
}

criterion_group!(benches, bench_compress, bench_decompress);
criterion_main!(benches);
