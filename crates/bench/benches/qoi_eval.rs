//! Criterion: bounded QoI evaluation — the per-point cost of the §IV
//! estimator that Algorithm 2 pays on every scan, for each GE QoI, plus
//! the √-estimator ablation (paper formula vs exact supremum) and the
//! theorem-vs-interval estimator ablation.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use pqr_qoi::program::Columns;
use pqr_qoi::{ge, BoundConfig, Estimator, QoiProgram, SqrtMode};

fn bench_ge_qois(c: &mut Criterion) {
    let x = [30.0, 40.0, 5.0, 101_325.0, 1.2];
    let eps = [1e-3, 1e-3, 1e-3, 0.5, 1e-5];
    let cfg = BoundConfig::default();
    let mut g = c.benchmark_group("qoi_eval_bounded");
    g.throughput(Throughput::Elements(1));
    for (name, expr) in ge::all() {
        g.bench_function(BenchmarkId::from_parameter(name), |b| {
            b.iter(|| expr.eval_bounded(&x, &eps, &cfg))
        });
    }
    g.finish();
}

fn bench_sqrt_mode_ablation(c: &mut Criterion) {
    let expr = ge::v_total();
    let x = [30.0, 40.0, 5.0, 0.0, 0.0];
    let eps = [1e-3; 5];
    let mut g = c.benchmark_group("sqrt_mode");
    for (label, mode) in [("paper", SqrtMode::Paper), ("exact", SqrtMode::Exact)] {
        let cfg = BoundConfig {
            sqrt_mode: mode,
            ..Default::default()
        };
        g.bench_function(label, |b| b.iter(|| expr.eval_bounded(&x, &eps, &cfg)));
    }
    g.finish();
}

fn bench_estimator_ablation(c: &mut Criterion) {
    // per-point cost of the generic interval estimator vs the theorems,
    // on the deepest GE composition (PT)
    let expr = ge::pt();
    let x = [30.0, 40.0, 5.0, 101_325.0, 1.2];
    let eps = [1e-3, 1e-3, 1e-3, 0.5, 1e-5];
    let mut g = c.benchmark_group("estimator");
    for (label, est) in [
        ("theorems", Estimator::Theorems),
        ("interval", Estimator::Interval),
    ] {
        let cfg = BoundConfig {
            estimator: est,
            ..Default::default()
        };
        g.bench_function(label, |b| b.iter(|| expr.eval_bounded(&x, &eps, &cfg)));
    }
    g.finish();
}

fn bench_scan_like_loop(c: &mut Criterion) {
    // the shape of Algorithm 2's inner loop: the max estimate of 6 QoIs over
    // a point range — per point through each QoI's tree (the single-point
    // definition, kept as the oracle's cost), and as the engine runs it: one
    // compiled program's branch-and-bound `max_bounds`. Two inputs: smooth
    // flow, where hulls rule most leaves out, and velocity components that
    // change sign, where the hulls of `VTOT` and `Mach` stay loose
    let qois = ge::all();
    let cfg = BoundConfig::default();
    let n = 10_000;
    let eps = [1e-3, 1e-3, 1e-3, 0.5, 1e-5];
    let exprs: Vec<_> = qois.iter().map(|(_, q)| q).collect();
    let mut g = c.benchmark_group("scan_loop");
    g.throughput(Throughput::Elements(n as u64));
    for (input, v0) in [("smooth", [30.0, 40.0, 5.0]), ("sign_changing", [0.0; 3])] {
        let points: Vec<[f64; 5]> = (0..n)
            .map(|i| {
                let t = i as f64 * 0.001;
                [
                    v0[0] + t.sin(),
                    v0[1] + t.cos(),
                    v0[2] + (2.0 * t).sin(),
                    101_325.0 * (1.0 + 0.01 * (3.0 * t).cos()),
                    1.2 + 0.01 * t.sin(),
                ]
            })
            .collect();
        g.bench_function(format!("six_qois_per_point/{input}"), |b| {
            b.iter(|| {
                let mut worst = 0.0f64;
                for p in &points {
                    for (_, q) in &qois {
                        let est = q.eval_bounded(p, &eps, &cfg).bound;
                        if est > worst {
                            worst = est;
                        }
                    }
                }
                worst
            })
        });
        let fields: Vec<Vec<f64>> = (0..5)
            .map(|i| points.iter().map(|p| p[i]).collect())
            .collect();
        let cols: Vec<&[f64]> = fields.iter().map(Vec::as_slice).collect();
        let data = Columns::new(&cols);
        g.bench_function(format!("six_qois_compiled_program/{input}"), |b| {
            b.iter(|| QoiProgram::compile(&exprs).max_bounds(&data, 0..n, &eps, &cfg))
        });
    }
    g.finish();
}

criterion_group!(
    benches,
    bench_ge_qois,
    bench_sqrt_mode_ablation,
    bench_estimator_ablation,
    bench_scan_like_loop
);
criterion_main!(benches);
