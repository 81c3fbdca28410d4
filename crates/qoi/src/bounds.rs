//! Theorem-level error-bound formulas (§IV of the paper).
//!
//! Every function takes *reconstructed* values and the L∞ error bound(s) used
//! during retrieval, and returns a guaranteed upper bound on the QoI error —
//! never the true error, which is unobservable during progressive retrieval.
//!
//! ## Floating-point soundness
//!
//! The paper's proofs are in exact arithmetic. Evaluated in `f64`, a bound
//! can round *down* by a few ulps and an actual error can round *up*, so a
//! naively computed bound could be violated at the ~1e-15 relative level
//! after deep compositions. Every combinator therefore inflates its result by
//! [`INFLATE`] (a multiplicative 1+4e-14 plus one sub-denormal), which is
//! orders of magnitude below any tolerance the retrieval engine works with
//! but restores "estimated ≥ actual" in floating point; [`guard`] applies it.

/// Relative inflation applied to every bound to absorb `f64` round-off in
/// the estimator itself. See the module docs.
pub const INFLATE: f64 = 4e-14;

/// How to bound `√x` near zero — the paper's formula vs the exact supremum.
///
/// The paper's Theorem 2 bound `ε/(√max(x−ε,0)+√x)` is *exact* when
/// `x ≥ ε`, but blows up to `∞` as `x → 0`. The exact supremum over the
/// admissible interval `[max(x−ε,0), x+ε]` is
/// `max(√x − √max(x−ε,0), √(x+ε) − √x)`, which stays finite (≤ `√ε`).
/// The paper handles the blow-up with the zero-outlier mask (§V-A); keeping
/// both modes lets the ablation benches quantify how much retrieval the
/// loose estimator costs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SqrtMode {
    /// Theorem 2 verbatim: `ε/(√max(x−ε,0)+√x)`; `∞` when `x ≤ 0 < ε`.
    #[default]
    Paper,
    /// The exact supremum; finite for all `x ≥ 0`.
    Exact,
}

/// Which error-estimation machinery to run (ablation switch).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Estimator {
    /// The paper's per-basis-function theorems (§IV), composed per
    /// Theorem 9 / Lemmas 1–2.
    #[default]
    Theorems,
    /// Generic outward-rounded interval arithmetic over the admissible box
    /// (see [`crate::interval`]) — no per-function derivation, different
    /// tightness trade-offs.
    Interval,
}

/// Configuration threaded through bound evaluation.
#[derive(Debug, Clone, Copy)]
pub struct BoundConfig {
    /// Square-root estimator variant (paper formula vs exact supremum).
    /// Only consulted by [`Estimator::Theorems`].
    pub sqrt_mode: SqrtMode,
    /// Theorem-based (paper) vs interval-arithmetic estimation.
    pub estimator: Estimator,
}

impl Default for BoundConfig {
    fn default() -> Self {
        Self {
            sqrt_mode: SqrtMode::Paper,
            estimator: Estimator::Theorems,
        }
    }
}

/// Inflates `b` by [`INFLATE`]; `∞`/NaN pass through untouched.
///
/// An exactly-zero bound stays exactly zero: it can only arise from
/// all-exact inputs (ε = 0 everywhere below), where IEEE arithmetic on
/// zeros is exact and no round-off guard is needed — and inflating it
/// would wrongly re-trigger the √-at-zero blow-up on masked points.
#[inline]
pub fn guard(b: f64) -> f64 {
    if !b.is_finite() || b == 0.0 {
        return b;
    }
    // One multiplicative nudge for large bounds + the smallest positive
    // denormal for bounds near (but not at) zero.
    b * (1.0 + INFLATE) + f64::MIN_POSITIVE
}

/// Theorem 1 — power function `f(x) = xⁿ`.
///
/// `Δ ≤ Σᵢ₌₁ⁿ C(n,i)·|x|^{n−i}·εⁱ = (|x|+ε)ⁿ − |x|ⁿ`, computed as the
/// positive-term sum (no cancellation).
pub fn power_bound(n: u32, x: f64, eps: f64) -> f64 {
    if n == 0 {
        return 0.0;
    }
    if eps == 0.0 {
        return 0.0;
    }
    let ax = x.abs();
    // Σ C(n,i) ax^{n-i} eps^i, i=1..=n, built by Horner-like accumulation.
    let mut sum = 0.0f64;
    let mut binom = 1.0f64; // C(n,0)
    let mut eps_pow = 1.0f64;
    // term_i = C(n,i) * ax^(n-i) * eps^i
    for i in 1..=n {
        binom = binom * f64::from(n - i + 1) / f64::from(i);
        eps_pow *= eps;
        let ax_pow = if n - i == 0 {
            1.0
        } else {
            ax.powi((n - i) as i32)
        };
        sum += binom * ax_pow * eps_pow;
    }
    sum
}

/// Theorem 1 extended to a general polynomial `f(x) = Σ aᵢxⁱ` via the
/// additive (Thm 7) and multiplicative (Thm 8) properties:
/// `Δ ≤ Σ |aᵢ|·Δ(xⁱ)`.
pub fn poly_bound(coeffs: &[f64], x: f64, eps: f64) -> f64 {
    coeffs
        .iter()
        .enumerate()
        .skip(1) // constant term has zero error
        .map(|(i, &a)| a.abs() * power_bound(i as u32, x, eps))
        .sum()
}

/// Evaluates `Σ aᵢxⁱ` (Horner).
pub fn poly_eval(coeffs: &[f64], x: f64) -> f64 {
    let mut acc = 0.0;
    for &a in coeffs.iter().rev() {
        acc = acc * x + a;
    }
    acc
}

/// Theorem 2 — square root `f(x) = √x`, per [`SqrtMode`].
///
/// Returns `∞` if the bound cannot be established (paper mode with
/// `x − ε < 0` and `x = 0`), and NaN-propagates for `x < 0` (the QoI itself
/// is undefined there; callers treat it as unboundable).
pub fn sqrt_bound(mode: SqrtMode, x: f64, eps: f64) -> f64 {
    if x < 0.0 {
        return f64::INFINITY;
    }
    if eps == 0.0 {
        return 0.0;
    }
    match mode {
        SqrtMode::Paper => {
            let denom = (x - eps).max(0.0).sqrt() + x.sqrt();
            if denom == 0.0 {
                f64::INFINITY
            } else {
                eps / denom
            }
        }
        SqrtMode::Exact => {
            let down = x.sqrt() - (x - eps).max(0.0).sqrt();
            let up = (x + eps).sqrt() - x.sqrt();
            down.max(up)
        }
    }
}

/// Theorem 3 — radical `f(x) = 1/(x+c)`.
///
/// `Δ ≤ ε / (min(|x+c−ε|, |x+c+ε|)·|x+c|)`, valid only when `ε < |x+c|`
/// (otherwise the true value could sit on a pole and no bound exists: `∞`).
pub fn radical_bound(c: f64, x: f64, eps: f64) -> f64 {
    let d = x + c;
    if eps == 0.0 && d != 0.0 {
        return 0.0;
    }
    if d == 0.0 || eps >= d.abs() {
        return f64::INFINITY;
    }
    let m = (d - eps).abs().min((d + eps).abs());
    eps / (m * d.abs())
}

/// Theorem 5 — product `g(x₁,x₂) = x₁x₂`:
/// `Δ ≤ |x₁|ε₂ + |x₂|ε₁ + ε₁ε₂`.
///
/// Sound even when the two factors share underlying variables (the proof
/// never uses independence), which is what makes composite products like
/// `Mach²` valid.
pub fn product_bound(x1: f64, eps1: f64, x2: f64, eps2: f64) -> f64 {
    x1.abs() * eps2 + x2.abs() * eps1 + eps1 * eps2
}

/// Theorem 6 — quotient `g(x₁,x₂) = x₁/x₂`:
/// `Δ ≤ (|x₁|ε₂ + |x₂|ε₁)/(|x₂|·min(|x₂−ε₂|, |x₂+ε₂|))`, requires
/// `ε₂ < |x₂|` (otherwise `∞`).
pub fn quotient_bound(x1: f64, eps1: f64, x2: f64, eps2: f64) -> f64 {
    quotient_bound_split(x1, eps1, x2, x2, eps2)
}

/// [`quotient_bound`] with `|x₂|` split by where it appears: `x2_num` in
/// the numerator, `x2_den` in the denominator and the precondition. The
/// formula grows with the former and shrinks with the latter, so over a
/// set of points `max |x₂|` and `min |x₂|` bound every point's estimate.
pub(crate) fn quotient_bound_split(x1: f64, eps1: f64, x2_num: f64, x2_den: f64, eps2: f64) -> f64 {
    if x2_den == 0.0 || eps2 >= x2_den.abs() {
        return f64::INFINITY;
    }
    if eps1 == 0.0 && eps2 == 0.0 {
        return 0.0;
    }
    let m = (x2_den - eps2).abs().min((x2_den + eps2).abs());
    (x1.abs() * eps2 + x2_num.abs() * eps1) / (x2_den.abs() * m)
}

/// Extension — natural logarithm `f(x) = ln(x)`.
///
/// The paper's §IV-D notes the theory "can extend to new operators with
/// derivable error control"; `ln` is such an operator. The exact supremum
/// over the admissible interval is attained on the left edge:
/// `Δ = ln(x) − ln(x−ε) = ln(1 + ε/(x−ε))`, valid when `ε < x` (otherwise
/// the true value could sit on the pole at 0: `∞`).
pub fn ln_bound(x: f64, eps: f64) -> f64 {
    if x <= 0.0 {
        return f64::INFINITY;
    }
    if eps == 0.0 {
        return 0.0;
    }
    if eps >= x {
        return f64::INFINITY;
    }
    (eps / (x - eps)).ln_1p()
}

/// Extension — exponential `f(x) = eˣ`.
///
/// The exact supremum is attained on the right edge:
/// `Δ = e^{x+ε} − eˣ = eˣ·(e^ε − 1)`. Always finite in exact arithmetic;
/// overflows to `∞` (= unboundable, keep refining) for extreme `x`.
pub fn exp_bound(x: f64, eps: f64) -> f64 {
    if eps == 0.0 {
        return 0.0;
    }
    x.exp() * eps.exp_m1()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Dense sampling of admissible perturbations; returns the worst true
    /// error observed — must stay below the theorem bound.
    fn worst_err_1d(f: impl Fn(f64) -> f64, x: f64, eps: f64, steps: usize) -> f64 {
        let fx = f(x);
        let mut worst = 0.0f64;
        for k in 0..=steps {
            // clamp: float arithmetic must not push samples outside the box
            let xi = (x - eps + 2.0 * eps * (k as f64) / (steps as f64)).clamp(x - eps, x + eps);
            let e = (f(xi) - fx).abs();
            if e.is_finite() && e > worst {
                worst = e;
            }
        }
        worst
    }

    #[test]
    fn power_bound_dominates_true_error() {
        for &(n, x, eps) in &[
            (1u32, 2.0, 0.5),
            (2, -3.0, 0.1),
            (3, 0.7, 0.2),
            (5, -1.2, 0.05),
            (7, 10.0, 1e-6),
        ] {
            let b = power_bound(n, x, eps);
            let w = worst_err_1d(|v| v.powi(n as i32), x, eps, 1000);
            assert!(w <= b * (1.0 + 1e-12), "n={n} x={x} eps={eps}: {w} > {b}");
        }
    }

    #[test]
    fn power_bound_matches_binomial_identity() {
        // Σ C(n,i)|x|^{n-i}ε^i == (|x|+ε)^n − |x|^n
        let (n, x, eps) = (4u32, 2.5f64, 0.3f64);
        let direct = (x.abs() + eps).powi(4) - x.abs().powi(4);
        let b = power_bound(n, x, eps);
        assert!((b - direct).abs() < 1e-10 * direct);
    }

    #[test]
    fn power_bound_edge_cases() {
        assert_eq!(power_bound(0, 5.0, 1.0), 0.0);
        assert_eq!(power_bound(3, 5.0, 0.0), 0.0);
        assert_eq!(power_bound(1, 0.0, 0.25), 0.25); // linear: Δ = ε
    }

    #[test]
    fn poly_bound_dominates_true_error() {
        let coeffs = [1.0, -2.0, 0.5, 3.0]; // 1 − 2x + 0.5x² + 3x³
        for &(x, eps) in &[(0.0, 0.1), (1.5, 0.25), (-2.0, 0.01)] {
            let b = poly_bound(&coeffs, x, eps);
            let w = worst_err_1d(|v| poly_eval(&coeffs, v), x, eps, 2000);
            assert!(w <= b * (1.0 + 1e-12), "x={x}: {w} > {b}");
        }
    }

    #[test]
    fn poly_eval_horner() {
        assert_eq!(poly_eval(&[1.0, 2.0, 3.0], 2.0), 1.0 + 4.0 + 12.0);
        assert_eq!(poly_eval(&[], 3.0), 0.0);
    }

    #[test]
    fn sqrt_bound_paper_exact_when_x_ge_eps() {
        let (x, eps) = (4.0, 1.0);
        let paper = sqrt_bound(SqrtMode::Paper, x, eps);
        // identity: ε/(√(x−ε)+√x) = √x − √(x−ε)
        let expect = x.sqrt() - (x - eps).sqrt();
        assert!((paper - expect).abs() < 1e-14);
        let w = worst_err_1d(|v| v.max(0.0).sqrt(), x, eps, 2000);
        assert!(w <= paper * (1.0 + 1e-12));
    }

    #[test]
    fn sqrt_bound_paper_blows_up_at_zero() {
        assert!(sqrt_bound(SqrtMode::Paper, 0.0, 1e-3).is_infinite());
    }

    #[test]
    fn sqrt_bound_exact_finite_at_zero_and_dominates() {
        let b = sqrt_bound(SqrtMode::Exact, 0.0, 1e-4);
        assert!((b - 1e-2).abs() < 1e-12); // √ε
        for &(x, eps) in &[(0.0, 0.01), (1e-5, 0.01), (0.5, 0.7), (2.0, 0.1)] {
            let b = sqrt_bound(SqrtMode::Exact, x, eps);
            let w = worst_err_1d(|v| v.max(0.0).sqrt(), x, eps, 2000);
            assert!(w <= b * (1.0 + 1e-12), "x={x} eps={eps}: {w} > {b}");
        }
    }

    #[test]
    fn sqrt_modes_agree_away_from_zero() {
        let p = sqrt_bound(SqrtMode::Paper, 9.0, 0.5);
        let e = sqrt_bound(SqrtMode::Exact, 9.0, 0.5);
        assert!((p - e).abs() < 1e-14);
    }

    #[test]
    fn sqrt_negative_reconstruction_unboundable() {
        assert!(sqrt_bound(SqrtMode::Paper, -0.1, 0.01).is_infinite());
        assert!(sqrt_bound(SqrtMode::Exact, -0.1, 0.01).is_infinite());
    }

    #[test]
    fn radical_bound_dominates_true_error() {
        for &(c, x, eps) in &[(110.4, 300.0, 5.0), (0.0, 2.0, 0.5), (-1.0, 3.0, 0.9)] {
            let b = radical_bound(c, x, eps);
            let w = worst_err_1d(|v| 1.0 / (v + c), x, eps, 2000);
            assert!(w <= b * (1.0 + 1e-12), "c={c} x={x}: {w} > {b}");
        }
    }

    #[test]
    fn radical_precondition_violation_gives_infinity() {
        assert!(radical_bound(0.0, 1.0, 1.0).is_infinite()); // ε == |x+c|
        assert!(radical_bound(0.0, 1.0, 2.0).is_infinite()); // ε > |x+c|
        assert!(radical_bound(-1.0, 1.0, 0.1).is_infinite()); // pole at x+c=0
    }

    #[test]
    fn radical_negative_denominator_ok() {
        // x + c < 0 is fine as long as ε < |x+c|.
        let b = radical_bound(-10.0, 2.0, 1.0);
        assert!(b.is_finite());
        let w = worst_err_1d(|v| 1.0 / (v - 10.0), 2.0, 1.0, 2000);
        assert!(w <= b * (1.0 + 1e-12));
    }

    #[test]
    fn product_bound_dominates_corner_search() {
        let (x1, e1, x2, e2) = (3.0, 0.2, -5.0, 0.4);
        let b = product_bound(x1, e1, x2, e2);
        let mut worst = 0.0f64;
        for i in 0..=50 {
            for j in 0..=50 {
                let a = x1 - e1 + 2.0 * e1 * i as f64 / 50.0;
                let c = x2 - e2 + 2.0 * e2 * j as f64 / 50.0;
                worst = worst.max((a * c - x1 * x2).abs());
            }
        }
        assert!(worst <= b * (1.0 + 1e-12));
        // corner ξ₁=e1·sign, ξ₂=−e2·sign attains |x1|e2+|x2|e1+e1e2? close:
        assert!(b - worst < 1e-9 + 0.3 * b); // bound is near-tight
    }

    #[test]
    fn quotient_bound_dominates_corner_search() {
        let (x1, e1, x2, e2) = (7.0, 0.5, 4.0, 0.25);
        let b = quotient_bound(x1, e1, x2, e2);
        let mut worst = 0.0f64;
        for i in 0..=50 {
            for j in 0..=50 {
                let a = x1 - e1 + 2.0 * e1 * i as f64 / 50.0;
                let c = x2 - e2 + 2.0 * e2 * j as f64 / 50.0;
                worst = worst.max((a / c - x1 / x2).abs());
            }
        }
        assert!(worst <= b * (1.0 + 1e-12), "{worst} > {b}");
    }

    #[test]
    fn quotient_precondition() {
        assert!(quotient_bound(1.0, 0.0, 0.0, 0.0).is_infinite());
        assert!(quotient_bound(1.0, 0.1, 1.0, 1.0).is_infinite());
        assert_eq!(quotient_bound(1.0, 0.0, 2.0, 0.0), 0.0);
    }

    #[test]
    fn guard_inflates_without_changing_infinity() {
        assert!(guard(1.0) > 1.0);
        // exact zero must stay exact zero (masked points: ε = 0)
        assert_eq!(guard(0.0), 0.0);
        assert!(guard(f64::INFINITY).is_infinite());
    }

    #[test]
    fn zero_eps_gives_zero_bound_everywhere() {
        assert_eq!(power_bound(5, 3.0, 0.0), 0.0);
        assert_eq!(sqrt_bound(SqrtMode::Paper, 2.0, 0.0), 0.0);
        assert_eq!(radical_bound(1.0, 2.0, 0.0), 0.0);
        assert_eq!(product_bound(2.0, 0.0, 3.0, 0.0), 0.0);
        assert_eq!(quotient_bound(2.0, 0.0, 3.0, 0.0), 0.0);
        assert_eq!(ln_bound(2.0, 0.0), 0.0);
        assert_eq!(exp_bound(2.0, 0.0), 0.0);
    }

    #[test]
    fn ln_bound_dominates_true_error() {
        for &(x, eps) in &[(1.0, 0.5), (300.0, 5.0), (0.01, 0.005), (2.0, 1.999)] {
            let b = ln_bound(x, eps);
            let w = worst_err_1d(|v| v.ln(), x, eps, 4000);
            assert!(w <= b * (1.0 + 1e-12), "x={x} eps={eps}: {w} > {b}");
        }
    }

    #[test]
    fn ln_bound_is_the_exact_supremum() {
        let (x, eps) = (5.0f64, 2.0f64);
        let sup = x.ln() - (x - eps).ln();
        assert!((ln_bound(x, eps) - sup).abs() < 1e-14);
    }

    #[test]
    fn ln_precondition_violation_gives_infinity() {
        assert!(ln_bound(1.0, 1.0).is_infinite()); // pole reachable
        assert!(ln_bound(0.0, 0.1).is_infinite());
        assert!(ln_bound(-1.0, 0.1).is_infinite());
    }

    #[test]
    fn exp_bound_dominates_true_error() {
        for &(x, eps) in &[(0.0, 1.0), (-4.0, 0.25), (3.0, 0.5), (10.0, 1e-6)] {
            let b = exp_bound(x, eps);
            let w = worst_err_1d(|v| v.exp(), x, eps, 4000);
            assert!(w <= b * (1.0 + 1e-12), "x={x} eps={eps}: {w} > {b}");
        }
    }

    #[test]
    fn exp_bound_is_the_exact_supremum() {
        let (x, eps) = (1.5f64, 0.3f64);
        let sup = (x + eps).exp() - x.exp();
        assert!((exp_bound(x, eps) - sup).abs() < 1e-13 * sup);
    }

    #[test]
    fn exp_overflow_propagates_to_unboundable() {
        assert!(exp_bound(800.0, 1.0).is_infinite());
    }
}
