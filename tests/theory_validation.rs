//! Numerical validation of the §IV theory against brute-force search:
//! for each theorem's function family, compare the analytical bound to the
//! empirical supremum obtained by dense grid search over the admissible
//! box. The bound must dominate (soundness) and, where the paper's proof is
//! tight, be close (quality) — both matter for the retrieval size story.

use pqr::prelude::*;
use pqr::qoi::bounds;
use std::sync::Arc;

/// Dense grid supremum of |f(x') − f(x)| over |x' − x| ≤ eps.
fn sup_1d(f: impl Fn(f64) -> f64, x: f64, eps: f64) -> f64 {
    let f0 = f(x);
    let mut worst = 0.0f64;
    let steps = 4000;
    for k in 0..=steps {
        let xp = (x - eps + 2.0 * eps * k as f64 / steps as f64).clamp(x - eps, x + eps);
        let v = (f(xp) - f0).abs();
        if v.is_finite() {
            worst = worst.max(v);
        }
    }
    worst
}

#[test]
fn theorem1_power_tightness() {
    // Δ(xⁿ) = (|x|+ε)ⁿ − |x|ⁿ is attained at x' = x ± ε (sign of x):
    // the bound should be within ~1.0001× of the empirical supremum when
    // x > 0 (the |x| relaxation only loses when signs mix).
    for &(n, x, eps) in &[(2u32, 1.5, 0.1), (3, 2.0, 0.05), (5, 0.9, 0.02)] {
        let b = bounds::power_bound(n, x, eps);
        let s = sup_1d(|v| v.powi(n as i32), x, eps);
        assert!(s <= b * (1.0 + 1e-12), "soundness n={n}");
        assert!(b <= s * 1.001, "tightness n={n}: bound {b} vs sup {s}");
    }
}

#[test]
fn theorem2_sqrt_exact_when_x_ge_eps() {
    for &(x, eps) in &[(1.0, 0.5), (4.0, 3.9), (100.0, 1.0)] {
        let b = bounds::sqrt_bound(SqrtMode::Paper, x, eps);
        let s = sup_1d(|v| v.max(0.0).sqrt(), x, eps);
        assert!(s <= b * (1.0 + 1e-12));
        assert!(b <= s * 1.0001, "paper √ bound should be exact here");
    }
}

#[test]
fn theorem2_exact_mode_tight_below_eps() {
    // in the x < ε regime the paper's formula is loose (∞ at x = 0 exactly,
    // finite-but-overestimating for 0 < x < ε) while the exact supremum
    // stays tight — the quantified version of the Fig. 4 near-zero gap
    for &(x, eps) in &[(0.0, 0.01), (0.005, 0.01), (0.0099, 0.01)] {
        let exact = bounds::sqrt_bound(SqrtMode::Exact, x, eps);
        let s = sup_1d(|v| v.max(0.0).sqrt(), x, eps);
        assert!(s <= exact * (1.0 + 1e-12));
        assert!(exact <= s * 1.001, "exact √: bound {exact} vs sup {s}");
        let paper = bounds::sqrt_bound(SqrtMode::Paper, x, eps);
        assert!(
            paper >= exact * (1.0 - 1e-12),
            "paper bound {paper} below exact {exact}"
        );
        if x == 0.0 {
            assert!(paper.is_infinite());
        }
    }
}

#[test]
fn theorem3_radical_tightness() {
    for &(c, x, eps) in &[(110.4, 300.0, 10.0), (0.0, 5.0, 1.0), (-2.0, 10.0, 3.0)] {
        let b = bounds::radical_bound(c, x, eps);
        let s = sup_1d(|v| 1.0 / (v + c), x, eps);
        assert!(s <= b * (1.0 + 1e-12));
        assert!(b <= s * 1.0001, "radical: bound {b} vs sup {s}");
    }
}

#[test]
fn theorem5_product_2d_grid() {
    let (x1, e1, x2, e2) = (3.0, 0.3, -2.0, 0.2);
    let b = bounds::product_bound(x1, e1, x2, e2);
    let mut s = 0.0f64;
    for i in 0..=200 {
        for j in 0..=200 {
            let a = x1 - e1 + 2.0 * e1 * i as f64 / 200.0;
            let c = x2 - e2 + 2.0 * e2 * j as f64 / 200.0;
            s = s.max((a * c - x1 * x2).abs());
        }
    }
    assert!(s <= b * (1.0 + 1e-12));
    // product bound is attained at a corner: near-tight
    assert!(b <= s * 1.01, "product: bound {b} vs sup {s}");
}

#[test]
fn theorem6_quotient_2d_grid() {
    let (x1, e1, x2, e2) = (5.0, 0.4, 3.0, 0.5);
    let b = bounds::quotient_bound(x1, e1, x2, e2);
    let mut s = 0.0f64;
    for i in 0..=200 {
        for j in 0..=200 {
            let a = x1 - e1 + 2.0 * e1 * i as f64 / 200.0;
            let c = x2 - e2 + 2.0 * e2 * j as f64 / 200.0;
            s = s.max((a / c - x1 / x2).abs());
        }
    }
    assert!(s <= b * (1.0 + 1e-12));
    assert!(b <= s * 1.35, "quotient bound slack too large: {b} vs {s}");
}

#[test]
fn ge_qois_bound_vs_monte_carlo_supremum() {
    // For each GE QoI at a realistic state, the analytical bound must
    // dominate a 100k-sample Monte-Carlo search and stay within a
    // documented slack budget (the retrieval-size cost of the composition).
    let x = [30.0f64, 40.0, 5.0, 101_325.0, 1.204];
    let eps = [0.01, 0.01, 0.01, 5.0, 1e-4];
    let cfg = BoundConfig::default();
    // (name, max admitted bound/sup slack): deeper compositions get more
    let slack = [
        ("VTOT", 2.0),
        ("T", 1.5),
        ("C", 2.0),
        ("Mach", 4.0),
        ("PT", 8.0),
        ("mu", 8.0),
    ];
    let mut rng = 0x8badf00du64;
    let mut next = move || {
        rng ^= rng << 13;
        rng ^= rng >> 7;
        rng ^= rng << 17;
        (rng as f64 / u64::MAX as f64) * 2.0 - 1.0
    };
    for ((name, q), (sname, max_slack)) in pqr::qoi::ge::all().into_iter().zip(slack) {
        assert_eq!(name, sname);
        let out = q.eval_bounded(&x, &eps, &cfg);
        let f0 = q.eval(&x);
        let mut sup = 0.0f64;
        for _ in 0..100_000 {
            let xp: Vec<f64> = (0..5).map(|i| x[i] + eps[i] * next()).collect();
            sup = sup.max((q.eval(&xp) - f0).abs());
        }
        assert!(sup <= out.bound, "{name}: sup {sup} > bound {}", out.bound);
        assert!(
            out.bound <= sup * max_slack,
            "{name}: bound {} vs sup {sup} exceeds {max_slack}x slack budget",
            out.bound
        );
    }
}

#[test]
fn composition_lemma_nesting_depth() {
    // Lemma 1/2 chains: bound a deeply nested expression and verify
    // domination — exercised at depth ~12 (beyond anything in the paper).
    let mut expr = QoiExpr::var(0);
    for _ in 0..6 {
        expr = expr.pow(2).poly(&[0.5, 0.25]).sqrt().add(QoiExpr::var(1));
    }
    let x = [1.2, 0.7];
    let eps = [1e-6, 1e-6];
    let out = expr.eval_bounded(&x, &eps, &BoundConfig::default());
    assert!(out.bound.is_finite());
    let f0 = expr.eval(&x);
    for corner in 0..4 {
        let xp = [
            x[0] + if corner & 1 == 1 { 1e-6 } else { -1e-6 },
            x[1] + if corner & 2 == 2 { 1e-6 } else { -1e-6 },
        ];
        assert!((expr.eval(&xp) - f0).abs() <= out.bound);
    }
}

#[test]
fn mask_points_contribute_zero_error_budget() {
    // a dataset that is all walls: every point masked ⇒ any tolerance is
    // satisfiable with zero fragment bytes beyond metadata
    let n = 256;
    let mut ds = Dataset::new(&[n]);
    for name in ["Vx", "Vy", "Vz"] {
        ds.add_field(name, vec![0.0; n]).unwrap();
    }
    // PMGARD-HB is ladder-free: no snapshot bounds
    let archive = ds.refactor_in_memory(Scheme::PmgardHb, &[], Some(&[0, 1, 2]), &[], 0);
    let spec = QoiSpec::with_range("VTOT", velocity_magnitude(0, 3), 1e-12, 1.0);
    let archive = Arc::new(archive.unwrap());
    let mut engine = RetrievalEngine::from_source(archive, EngineConfig::default()).unwrap();
    let report = engine.retrieve(&[spec]).unwrap();
    assert!(report.satisfied);
    assert_eq!(report.targets[0].max_est_error, 0.0);
}
