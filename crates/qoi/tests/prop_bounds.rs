//! Property-based tests of THE invariant of the paper (§IV): for any
//! derivable QoI `f`, reconstructed input `x`, bounds `ε`, and any true
//! input `x'` with `|x'ᵢ − xᵢ| ≤ εᵢ`:
//!
//! ```text
//!   |f(x') − f(x)| ≤ f.eval_bounded(x, ε).bound
//! ```
//!
//! Expression trees, inputs, bounds and perturbations are all generated
//! randomly; both √-estimator modes are exercised.
//!
//! The last properties hold the compiled block evaluator
//! ([`pqr_qoi::program`]) to the trees bit for bit, and its pruned
//! max-finding scan to the block pass it prunes.

use pqr_qoi::program::{sound_estimate, Columns, Pass, LEAF};
use pqr_qoi::{BoundConfig, Estimator, QoiExpr, QoiProgram, SqrtMode};
use proptest::prelude::*;

const NVARS: usize = 4;

/// Random derivable QoI expression over `NVARS` variables, with bounded
/// depth so evaluation stays fast and bounds stay finite often enough.
fn arb_expr(depth: u32) -> impl Strategy<Value = QoiExpr> {
    let leaf = prop_oneof![
        (0..NVARS).prop_map(QoiExpr::var),
        (-3.0..3.0f64).prop_map(QoiExpr::constant),
    ];
    leaf.prop_recursive(depth, 24, 4, |inner| {
        prop_oneof![
            // power (small n: higher powers explode the magnitudes)
            (inner.clone(), 1u32..4).prop_map(|(e, n)| e.pow(n)),
            // polynomial with small coefficients
            (inner.clone(), proptest::collection::vec(-2.0..2.0f64, 1..4))
                .prop_map(|(e, c)| e.poly(&c)),
            // sqrt of a square keeps the argument non-negative
            inner.clone().prop_map(|e| e.pow(2).sqrt()),
            // radical shifted away from the pole
            (inner.clone(), 4.0..9.0f64).prop_map(|(e, c)| e.pow(2).radical(c)),
            // weighted sum
            (inner.clone(), inner.clone(), -2.0..2.0f64, -2.0..2.0f64)
                .prop_map(|(a, b, wa, wb)| QoiExpr::sum(vec![(wa, a), (wb, b)])),
            // product
            (inner.clone(), inner.clone()).prop_map(|(a, b)| a.mul(b)),
            // quotient with a denominator kept away from zero
            (inner.clone(), inner.clone(), 3.0..8.0f64).prop_map(|(a, b, c)| a.div(QoiExpr::sum(
                vec![(1.0, b.pow(2)), (1.0, QoiExpr::constant(c))]
            ))),
            // absolute value
            inner.clone().prop_map(|e| e.abs()),
            // ln of a strictly positive argument (pole kept out of reach)
            (inner.clone(), 4.0..9.0f64).prop_map(|(e, c)| (e.pow(2) + QoiExpr::constant(c)).ln()),
            // exp with a damped argument so magnitudes stay tame
            inner.prop_map(|e| e.scale(0.05).exp()),
        ]
    })
}

/// Random QoI trees evaluated through the interval estimator must satisfy
/// the identical domination invariant — the machinery differs, the
/// guarantee must not.
fn interval_cfg() -> BoundConfig {
    BoundConfig {
        estimator: pqr_qoi::Estimator::Interval,
        ..Default::default()
    }
}

/// Points generated per case — enough for two full blocks and a tail.
const MAX_POINTS: usize = 600;

/// Mostly tame values, salted with what breaks estimators: exact zeros of
/// both signs (zeros under `√`, poles of `1/x`) and magnitudes whose
/// powers and exponentials overflow to `∞`.
fn arb_value() -> impl Strategy<Value = f64> {
    prop_oneof![
        -2.0..2.0f64,
        -2.0..2.0f64,
        -2.0..2.0f64,
        Just(0.0),
        Just(-0.0),
        1e100..1e200f64,
    ]
}

/// Retrieval bounds including `ε = 0` (exact inputs) and bounds wide enough
/// to reach the poles.
fn arb_eps() -> impl Strategy<Value = f64> {
    prop_oneof![Just(0.0), 0.0..0.1f64, 0.0..0.1f64, 1.0..3.0f64]
}

/// Equal bits — with every NaN equal to every other: which operand's
/// payload a NaN-producing `+`/`·` keeps is the code generator's choice, and
/// the engine reads any NaN estimate as `∞`.
fn same_bits(a: f64, b: f64) -> bool {
    a.to_bits() == b.to_bits() || (a.is_nan() && b.is_nan())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// The compiled program is the trees, evaluated differently: for a set
    /// of QoIs that share subtrees, over blocks that start and end anywhere,
    /// with and without a zero mask, under every estimator configuration,
    /// the value pass equals `eval` and the bounded pass equals
    /// `eval_bounded`.
    #[test]
    fn program_matches_tree_bit_for_bit(
        a in arb_expr(2),
        b in arb_expr(2),
        c in arb_expr(1),
        cols in proptest::collection::vec(
            proptest::collection::vec(arb_value(), MAX_POINTS), NVARS),
        eps in proptest::collection::vec(arb_eps(), NVARS),
        range in (0..MAX_POINTS, 1..MAX_POINTS),
        mask in (proptest::bool::ANY, 0..NVARS,
            proptest::collection::vec(proptest::arbitrary::any::<u64>(), MAX_POINTS.div_ceil(64))),
        modes in (proptest::bool::ANY, 0..4usize),
        regions in proptest::collection::vec((0..MAX_POINTS, 0..MAX_POINTS), 3),
    ) {
        let set = [
            a.clone(),
            b.clone(),
            a.clone().mul(b.clone()),
            a.clone().sqrt(),                      // zeros and negatives under √
            c.clone().div(a.clone()),              // Thm 6 pole wherever a = 0
            b.clone().radical(0.0).add(a.clone()), // Thm 3 pole
            // overflow: value ∞, bound ∞·0 = NaN
            a.clone().scale(300.0).exp().mul(QoiExpr::constant(2.0)),
            a.clone().mul(b.clone()).ln(),
            QoiExpr::sum(vec![(1.0, a.clone()), (-1.0, a.clone()), (0.5, c.clone())]),
            QoiExpr::sum(vec![]),
            a.clone(),                             // the same root twice
        ];
        let exprs: Vec<&QoiExpr> = set.iter().collect();
        let mut program = QoiProgram::compile(&exprs);
        prop_assert!(program.num_slots() < set.iter().map(QoiExpr::node_count).sum::<usize>());
        // three roots wanted on part of the domain only (possibly none of
        // it): slots only they read are skipped elsewhere
        let mut wanted = vec![0..MAX_POINTS; set.len()];
        for (k, &(from, len)) in [2, 5, 7].into_iter().zip(&regions) {
            wanted[k] = from..from + len;
            program.restrict(k, wanted[k].clone());
        }

        let cfg = scan_cfg(modes.0, modes.1 == 0);
        let (lo, hi) = (range.0, (range.0 + range.1).min(MAX_POINTS));
        let (masked, zero_var, bitmap) = (mask.0, [mask.1], mask.2);
        let col_refs: Vec<&[f64]> = cols.iter().map(Vec::as_slice).collect();
        let data = Columns::new(&col_refs);
        let data = if masked { data.zeroed(&zero_var, &bitmap) } else { data };
        // the tree's inputs at point j: a per-point gather with the mask pinned
        let point = |j: usize| {
            let mut x: Vec<f64> = cols.iter().map(|c| c[j]).collect();
            let mut e = eps.clone();
            if masked && (bitmap[j / 64] >> (j % 64)) & 1 == 1 {
                x[zero_var[0]] = 0.0;
                e[zero_var[0]] = 0.0;
            }
            (x, e)
        };

        // the visitor cannot return early: collect the first mismatch
        let mut failure = None;
        let mut covered = vec![0usize; set.len()];
        program.for_each_block(&data, lo..hi, Pass::Values, |block| {
            for (k, expr) in set.iter().enumerate() {
                let (first, values) = block.values(k);
                covered[k] += values.len();
                for (j, &got) in (first..).zip(values) {
                    let want = expr.eval(&point(j).0);
                    if !same_bits(got, want) {
                        failure.get_or_insert(format!("eval {expr} @ {j}: {got:e} vs {want:e}"));
                    }
                }
            }
        });
        let want_covered: Vec<usize> = wanted
            .iter()
            .map(|w| w.end.min(hi).saturating_sub(w.start.max(lo)))
            .collect();
        prop_assert_eq!(&covered, &want_covered);
        let pass = Pass::Bounded { eps: &eps, cfg: &cfg };
        program.for_each_block(&data, lo..hi, pass, |block| {
            for (k, expr) in set.iter().enumerate() {
                let ((first, values), (_, bounds)) = (block.values(k), block.bounds(k));
                covered[k] += bounds.len();
                for (j, (&value, &bound)) in (first..).zip(values.iter().zip(bounds)) {
                    let (x, e) = point(j);
                    let want = expr.eval_bounded(&x, &e, &cfg);
                    if !(same_bits(value, want.value) && same_bits(bound, want.bound)) {
                        failure.get_or_insert(format!(
                            "eval_bounded {expr} @ {j} x={x:?} eps={e:?} {cfg:?}: \
                             ({value:e}, {bound:e}) vs ({:e}, {:e})",
                            want.value, want.bound
                        ));
                    }
                }
            }
        });
        let twice: Vec<usize> = want_covered.iter().map(|c| 2 * c).collect();
        prop_assert_eq!(&covered, &twice);
        prop_assert!(failure.is_none(), "{}", failure.unwrap());
    }
}

/// Reconstructions that make leaves worth pruning — a smooth wave per
/// field, so neighbouring points are alike — salted at random points with
/// what breaks estimators: zeros of both signs (under `√`, at poles),
/// negatives under `√`, magnitudes that overflow, and NaN.
fn arb_recons() -> impl Strategy<Value = Vec<Vec<f64>>> {
    let special = prop_oneof![
        Just(0.0),
        Just(-0.0),
        Just(-1.0),
        Just(1e200),
        Just(f64::NAN)
    ];
    let salt = proptest::collection::vec((0..MAX_POINTS, special), 0..6);
    let field =
        (-3.0..3.0f64, 0.0..2.0f64, 0.001..0.2f64, salt).prop_map(|(mid, amp, freq, salt)| {
            let mut col: Vec<f64> = (0..MAX_POINTS)
                .map(|j| mid + amp * (freq * j as f64).sin())
                .collect();
            for (j, v) in salt {
                col[j] = v;
            }
            col
        });
    proptest::collection::vec(field, NVARS)
}

/// The roots the pruning properties scan: three random trees, and
/// compositions that put poles, zeros under `√` and overflow in reach.
fn pruning_roots(a: &QoiExpr, b: &QoiExpr, c: &QoiExpr) -> Vec<QoiExpr> {
    vec![
        a.clone(),
        b.clone(),
        c.clone(),
        a.clone().mul(b.clone()),
        QoiExpr::sum(vec![(1.0, a.clone().pow(2)), (1.0, b.clone().pow(2))]).sqrt(),
        a.clone().sqrt(),
        c.clone().div(a.clone()),
        b.clone().radical(0.5),
        a.clone().scale(300.0).exp().mul(QoiExpr::constant(2.0)),
        a.clone().mul(b.clone()).ln(),
    ]
}

/// A scan's configuration from two random switches: √ mode and (one time
/// in four) the interval estimator.
fn scan_cfg(exact_sqrt: bool, interval: bool) -> BoundConfig {
    BoundConfig {
        sqrt_mode: if exact_sqrt {
            SqrtMode::Exact
        } else {
            SqrtMode::Paper
        },
        estimator: if interval {
            Estimator::Interval
        } else {
            Estimator::Theorems
        },
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// `max_bounds` prunes but does not change the answer: per root, the
    /// same max bits and first argmax as a strict-`>` fold over the full
    /// block pass, on ranges that start and end anywhere, with and without
    /// a zero mask, with roots restricted to regions, under every
    /// estimator configuration.
    #[test]
    fn pruned_max_equals_the_full_block_pass(
        a in arb_expr(2),
        b in arb_expr(2),
        c in arb_expr(1),
        cols in arb_recons(),
        eps in proptest::collection::vec(arb_eps(), NVARS),
        range in (0..MAX_POINTS, 1..MAX_POINTS),
        mask in (proptest::bool::ANY, 0..NVARS, 0..MAX_POINTS, 0..MAX_POINTS),
        modes in (proptest::bool::ANY, 0..4usize),
        regions in proptest::collection::vec((0..MAX_POINTS, 0..MAX_POINTS), 3),
    ) {
        let set = pruning_roots(&a, &b, &c);
        let exprs: Vec<&QoiExpr> = set.iter().collect();
        let mut program = QoiProgram::compile(&exprs);
        for (k, &(from, len)) in [1, 4, 6].into_iter().zip(&regions) {
            program.restrict(k, from..from + len);
        }
        let cfg = scan_cfg(modes.0, modes.1 == 0);
        let (lo, hi) = (range.0, (range.0 + range.1).min(MAX_POINTS));
        // a run of masked points, as walls are: whole leaves and mixed ones
        let (masked, zero_var) = (mask.0, [mask.1]);
        let mut bitmap = vec![0u64; MAX_POINTS.div_ceil(64)];
        for j in mask.2..(mask.2 + mask.3).min(MAX_POINTS) {
            bitmap[j / 64] |= 1 << (j % 64);
        }
        let col_refs: Vec<&[f64]> = cols.iter().map(Vec::as_slice).collect();
        let data = Columns::new(&col_refs);
        let data = if masked { data.zeroed(&zero_var, &bitmap) } else { data };

        let mut want = vec![(0.0f64, 0usize); set.len()];
        let pass = Pass::Bounded { eps: &eps, cfg: &cfg };
        program.for_each_block(&data, lo..hi, pass, |block| {
            for (k, best) in want.iter_mut().enumerate() {
                let (first, bounds) = block.bounds(k);
                for (j, &bound) in (first..).zip(bounds) {
                    let est = sound_estimate(bound);
                    if est > best.0 {
                        *best = (est, j);
                    }
                }
            }
        });
        let got = program.max_bounds(&data, lo..hi, &eps, &cfg);
        let bits = |v: &[(f64, usize)]| -> Vec<(u64, usize)> {
            v.iter().map(|&(e, j)| (e.to_bits(), j)).collect()
        };
        prop_assert_eq!(bits(&got), bits(&want), "{:?} vs {:?} under {:?}", got, want, cfg);
    }

    /// Every leaf's hull is at least every estimate the tree computes at a
    /// point of that leaf where the root is wanted (NaN read as `∞`), and
    /// `-∞` exactly where the root is wanted nowhere in the leaf.
    #[test]
    fn leaf_hull_dominates_every_point_estimate(
        a in arb_expr(2),
        b in arb_expr(2),
        c in arb_expr(1),
        cols in arb_recons(),
        eps in proptest::collection::vec(arb_eps(), NVARS),
        range in (0..MAX_POINTS, 1..MAX_POINTS),
        mask in (proptest::bool::ANY, 0..NVARS, 0..MAX_POINTS, 0..MAX_POINTS),
        exact_sqrt in proptest::bool::ANY,
        region in (0..MAX_POINTS, 0..MAX_POINTS),
    ) {
        let set = pruning_roots(&a, &b, &c);
        let exprs: Vec<&QoiExpr> = set.iter().collect();
        let mut program = QoiProgram::compile(&exprs);
        let region = region.0..region.0 + region.1;
        program.restrict(2, region.clone());
        let cfg = scan_cfg(exact_sqrt, false);
        let (lo, hi) = (range.0, (range.0 + range.1).min(MAX_POINTS));
        let (masked, zero_var) = (mask.0, mask.1);
        let is_masked = |j: usize| masked && (mask.2..mask.2 + mask.3).contains(&j);
        let mut bitmap = vec![0u64; MAX_POINTS.div_ceil(64)];
        for j in (0..MAX_POINTS).filter(|&j| is_masked(j)) {
            bitmap[j / 64] |= 1 << (j % 64);
        }
        let col_refs: Vec<&[f64]> = cols.iter().map(Vec::as_slice).collect();
        let data = Columns::new(&col_refs);
        let data = if masked { data.zeroed(std::slice::from_ref(&zero_var), &bitmap) } else { data };

        let hulls = program.leaf_hulls(&data, lo..hi, &eps, &cfg);
        let starts: Vec<usize> = (lo..hi).step_by(LEAF).collect();
        prop_assert_eq!(hulls.len(), starts.len() * set.len());
        for (l, &start) in starts.iter().enumerate() {
            let leaf = start..(start + LEAF).min(hi);
            for (k, expr) in set.iter().enumerate() {
                let hull = hulls[l * set.len() + k];
                let wanted = if k == 2 { region.clone() } else { 0..usize::MAX };
                let points: Vec<usize> = leaf.clone().filter(|j| wanted.contains(j)).collect();
                prop_assert_eq!(hull == f64::NEG_INFINITY, points.is_empty(), "root {} leaf {}", k, start);
                for j in points {
                    let mut x: Vec<f64> = cols.iter().map(|c| c[j]).collect();
                    let mut e = eps.clone();
                    if is_masked(j) {
                        x[zero_var] = 0.0;
                        e[zero_var] = 0.0;
                    }
                    let est = sound_estimate(expr.eval_bounded(&x, &e, &cfg).bound);
                    prop_assert!(
                        est <= hull,
                        "{expr} @ {j} x={x:?} eps={e:?} {cfg:?}: estimate {est:e} > hull {hull:e}"
                    );
                }
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn bound_dominates_true_error(
        expr in arb_expr(3),
        x in proptest::collection::vec(-2.0..2.0f64, NVARS),
        eps in proptest::collection::vec(0.0..0.1f64, NVARS),
        // perturbation direction per variable in [-1, 1]
        dirs in proptest::collection::vec(proptest::collection::vec(-1.0..1.0f64, NVARS), 16),
        exact_sqrt in proptest::bool::ANY,
    ) {
        let cfg = BoundConfig {
            sqrt_mode: if exact_sqrt { SqrtMode::Exact } else { SqrtMode::Paper },
            ..Default::default()
        };
        let out = expr.eval_bounded(&x, &eps, &cfg);
        prop_assume!(out.value.is_finite());
        if !out.bound.is_finite() {
            // ∞ = "cannot bound here"; trivially sound
            return Ok(());
        }
        let f0 = expr.eval(&x);
        for dir in &dirs {
            let xp: Vec<f64> = (0..NVARS)
                .map(|i| (x[i] + eps[i] * dir[i]).clamp(x[i] - eps[i], x[i] + eps[i]))
                .collect();
            let fp = expr.eval(&xp);
            if !fp.is_finite() || !f0.is_finite() {
                continue;
            }
            let err = (fp - f0).abs();
            prop_assert!(
                err <= out.bound,
                "expr {expr}: err {err} > bound {} at x={x:?} eps={eps:?}",
                out.bound
            );
        }
    }

    #[test]
    fn interval_bound_dominates_true_error(
        expr in arb_expr(3),
        x in proptest::collection::vec(-2.0..2.0f64, NVARS),
        eps in proptest::collection::vec(0.0..0.1f64, NVARS),
        dirs in proptest::collection::vec(proptest::collection::vec(-1.0..1.0f64, NVARS), 16),
    ) {
        let out = expr.eval_bounded(&x, &eps, &interval_cfg());
        prop_assume!(out.value.is_finite());
        if !out.bound.is_finite() {
            return Ok(());
        }
        let f0 = expr.eval(&x);
        for dir in &dirs {
            let xp: Vec<f64> = (0..NVARS)
                .map(|i| (x[i] + eps[i] * dir[i]).clamp(x[i] - eps[i], x[i] + eps[i]))
                .collect();
            let fp = expr.eval(&xp);
            if !fp.is_finite() || !f0.is_finite() {
                continue;
            }
            let err = (fp - f0).abs();
            prop_assert!(
                err <= out.bound,
                "expr {expr}: interval err {err} > bound {} at x={x:?} eps={eps:?}",
                out.bound
            );
        }
    }

    #[test]
    fn zero_eps_zero_bound(
        expr in arb_expr(3),
        x in proptest::collection::vec(-2.0..2.0f64, NVARS),
    ) {
        let cfg = BoundConfig::default();
        let out = expr.eval_bounded(&x, &[0.0; NVARS], &cfg);
        prop_assume!(out.value.is_finite() && out.bound.is_finite());
        // with exact inputs the bound collapses to (near) zero
        prop_assert!(
            out.bound <= 1e-9 * out.value.abs().max(1.0),
            "expr {expr}: zero-eps bound {}",
            out.bound
        );
    }

    #[test]
    fn bound_monotone_in_eps(
        expr in arb_expr(3),
        x in proptest::collection::vec(-2.0..2.0f64, NVARS),
        eps in proptest::collection::vec(1e-6..0.05f64, NVARS),
    ) {
        let cfg = BoundConfig::default();
        let loose = expr.eval_bounded(&x, &eps, &cfg);
        let tight_eps: Vec<f64> = eps.iter().map(|e| e / 4.0).collect();
        let tight = expr.eval_bounded(&x, &tight_eps, &cfg);
        prop_assume!(loose.bound.is_finite());
        prop_assert!(
            tight.bound <= loose.bound * (1.0 + 1e-9),
            "expr {expr}: tighter eps gave looser bound ({} vs {})",
            tight.bound,
            loose.bound
        );
    }

    #[test]
    fn eval_bounded_value_equals_eval(
        expr in arb_expr(3),
        x in proptest::collection::vec(-2.0..2.0f64, NVARS),
        eps in proptest::collection::vec(0.0..0.1f64, NVARS),
    ) {
        let out = expr.eval_bounded(&x, &eps, &BoundConfig::default());
        let direct = expr.eval(&x);
        if direct.is_finite() {
            prop_assert!(
                (out.value - direct).abs() <= 1e-12 * direct.abs().max(1.0),
                "value mismatch: {} vs {direct}",
                out.value
            );
        }
    }

    #[test]
    fn variables_is_consistent_with_eval_sensitivity(
        expr in arb_expr(2),
        x in proptest::collection::vec(0.5..1.5f64, NVARS),
    ) {
        // perturbing a variable NOT in variables() never changes the value
        let vars = expr.variables();
        let f0 = expr.eval(&x);
        prop_assume!(f0.is_finite());
        for i in 0..NVARS {
            if vars.contains(&i) {
                continue;
            }
            let mut xp = x.clone();
            xp[i] += 0.37;
            prop_assert_eq!(expr.eval(&xp), f0);
        }
    }
}
