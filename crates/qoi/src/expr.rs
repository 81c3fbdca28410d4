//! QoI expression trees and bounded evaluation.
//!
//! A [`QoiExpr`] is the machine representation of a *derivable QoI*
//! (Definitions 2–3 of the paper): a composition of the Table II basis
//! functions over a set of input variables. Evaluating an expression with
//! [`QoiExpr::eval_bounded`] returns both the QoI value computed from the
//! reconstructed data and a guaranteed upper bound of its error — the
//! recursion *is* the composition rule (Theorem 9 and Lemmas 1–2): the
//! child's error bound becomes the ε of the parent's basis-function theorem.

use crate::bounds::{self, BoundConfig};
use std::collections::BTreeSet;
use std::fmt;

/// A QoI value together with a guaranteed upper bound on its error.
///
/// For the expression `f`, reconstructed inputs `x` and retrieval bounds `ε`:
/// `value = f(x)` and `|f(x') − f(x)| ≤ bound` for every admissible true
/// input `x'` (`|x'ᵢ − xᵢ| ≤ εᵢ`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Bounded {
    /// QoI value derived from the reconstructed data.
    pub value: f64,
    /// Guaranteed upper bound of `|f(x') − f(x)|`; `∞` if unboundable at
    /// this point under the current ε.
    pub bound: f64,
}

impl Bounded {
    /// An exactly-known value (zero error bound).
    pub fn exact(value: f64) -> Self {
        Self { value, bound: 0.0 }
    }
}

/// A derivable QoI expression (Definitions 2–3, Table II).
///
/// Build expressions with the constructor methods; they compose freely:
///
/// ```
/// use pqr_qoi::QoiExpr;
///
/// // kinetic energy density: 0.5 · ρ · (vx² + vy²)
/// let ke = QoiExpr::sum(vec![
///     (1.0, QoiExpr::var(0).pow(2)),
///     (1.0, QoiExpr::var(1).pow(2)),
/// ])
/// .mul(QoiExpr::var(2))
/// .scale(0.5);
/// assert_eq!(ke.eval(&[3.0, 4.0, 2.0]), 25.0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub enum QoiExpr {
    /// The `i`-th input variable (a primary-data field value at a point).
    Var(usize),
    /// A constant (exact, zero error).
    Const(f64),
    /// `argⁿ` — Theorem 1.
    Pow { n: u32, arg: Box<QoiExpr> },
    /// `Σ coeffs[i]·argⁱ` — general polynomial (Thm 1 + 7 + 8).
    Poly { coeffs: Vec<f64>, arg: Box<QoiExpr> },
    /// `√arg` — Theorem 2.
    Sqrt(Box<QoiExpr>),
    /// `1/(arg + c)` — Theorem 3.
    Radical { c: f64, arg: Box<QoiExpr> },
    /// `Σ aᵢ·exprᵢ` — weighted sum (Thm 4 + 7 + 8).
    Sum(Vec<(f64, QoiExpr)>),
    /// `lhs · rhs` — Theorem 5.
    Mul(Box<QoiExpr>, Box<QoiExpr>),
    /// `lhs / rhs` — Theorem 6.
    Div(Box<QoiExpr>, Box<QoiExpr>),
    /// `|arg|` — extension beyond the paper's Table II: absolute value is
    /// 1-Lipschitz so `Δ(|f|) ≤ Δ(f)`; included because magnitude QoIs are
    /// common and the proof is one line (reverse triangle inequality).
    Abs(Box<QoiExpr>),
    /// `ln(arg)` — extension per §IV-D ("extend to new operators with
    /// derivable error control"): the supremum over the admissible interval
    /// is `ln(1 + ε/(x−ε))`, derivable when `ε < x`. Entropy- and
    /// log-density-style QoIs need this.
    Ln(Box<QoiExpr>),
    /// `exp(arg)` — extension per §IV-D: supremum `eˣ(e^ε − 1)`, always
    /// derivable. Arrhenius-rate-style QoIs in combustion need this.
    Exp(Box<QoiExpr>),
}

impl QoiExpr {
    /// Variable `i`.
    pub fn var(i: usize) -> Self {
        QoiExpr::Var(i)
    }

    /// Constant `c`.
    pub fn constant(c: f64) -> Self {
        QoiExpr::Const(c)
    }

    /// `selfⁿ`.
    pub fn pow(self, n: u32) -> Self {
        QoiExpr::Pow {
            n,
            arg: Box::new(self),
        }
    }

    /// `Σ coeffs[i]·selfⁱ` (`coeffs[0]` is the constant term).
    pub fn poly(self, coeffs: &[f64]) -> Self {
        QoiExpr::Poly {
            coeffs: coeffs.to_vec(),
            arg: Box::new(self),
        }
    }

    /// `√self`.
    pub fn sqrt(self) -> Self {
        QoiExpr::Sqrt(Box::new(self))
    }

    /// `1/(self + c)`.
    pub fn radical(self, c: f64) -> Self {
        QoiExpr::Radical {
            c,
            arg: Box::new(self),
        }
    }

    /// `self · rhs` (also available as the `*` operator).
    #[allow(clippy::should_implement_trait)] // by-value builder; ops traits exist too
    pub fn mul(self, rhs: QoiExpr) -> Self {
        QoiExpr::Mul(Box::new(self), Box::new(rhs))
    }

    /// `self / rhs` (also available as the `/` operator).
    #[allow(clippy::should_implement_trait)]
    pub fn div(self, rhs: QoiExpr) -> Self {
        QoiExpr::Div(Box::new(self), Box::new(rhs))
    }

    /// `a · self` (Theorem 8).
    pub fn scale(self, a: f64) -> Self {
        QoiExpr::Sum(vec![(a, self)])
    }

    /// `self + rhs` (also available as the `+` operator).
    #[allow(clippy::should_implement_trait)]
    pub fn add(self, rhs: QoiExpr) -> Self {
        QoiExpr::Sum(vec![(1.0, self), (1.0, rhs)])
    }

    /// `self − rhs` (also available as the `-` operator).
    #[allow(clippy::should_implement_trait)]
    pub fn sub(self, rhs: QoiExpr) -> Self {
        QoiExpr::Sum(vec![(1.0, self), (-1.0, rhs)])
    }

    /// Weighted sum `Σ aᵢ·exprᵢ`.
    pub fn sum(terms: Vec<(f64, QoiExpr)>) -> Self {
        QoiExpr::Sum(terms)
    }

    /// `|self|`.
    pub fn abs(self) -> Self {
        QoiExpr::Abs(Box::new(self))
    }

    /// `ln(self)` — extension operator with the exact-supremum bound
    /// `Δ = ln(1 + ε/(x−ε))` (unboundable when `ε ≥ x`, i.e. the pole is
    /// reachable).
    ///
    /// ```
    /// use pqr_qoi::QoiExpr;
    /// let q = QoiExpr::var(0).ln();
    /// let out = q.eval_bounded(&[10.0], &[1.0], &Default::default());
    /// assert!((out.value - 10.0f64.ln()).abs() < 1e-12);
    /// // exact supremum: ln(10) − ln(9), plus the float-soundness guard
    /// assert!(out.bound >= 10.0f64.ln() - 9.0f64.ln());
    /// assert!(out.bound < 0.12);
    /// ```
    pub fn ln(self) -> Self {
        QoiExpr::Ln(Box::new(self))
    }

    /// `exp(self)` — extension operator with the exact-supremum bound
    /// `Δ = eˣ(e^ε − 1)` (always derivable).
    ///
    /// ```
    /// use pqr_qoi::QoiExpr;
    /// let q = QoiExpr::var(0).exp();
    /// let out = q.eval_bounded(&[0.0], &[0.1], &Default::default());
    /// assert!((out.value - 1.0).abs() < 1e-12);
    /// assert!(out.bound >= 0.1f64.exp_m1());
    /// ```
    pub fn exp(self) -> Self {
        QoiExpr::Exp(Box::new(self))
    }

    /// Evaluates the QoI from (reconstructed) inputs.
    ///
    /// Panics if a variable index exceeds `x.len()` — that is a wiring bug,
    /// not a data condition.
    pub fn eval(&self, x: &[f64]) -> f64 {
        match self {
            QoiExpr::Var(i) => x[*i],
            QoiExpr::Const(c) => *c,
            QoiExpr::Pow { n, arg } => arg.eval(x).powi(*n as i32),
            QoiExpr::Poly { coeffs, arg } => bounds::poly_eval(coeffs, arg.eval(x)),
            QoiExpr::Sqrt(arg) => arg.eval(x).sqrt(),
            QoiExpr::Radical { c, arg } => 1.0 / (arg.eval(x) + c),
            QoiExpr::Sum(terms) => terms.iter().map(|(a, e)| a * e.eval(x)).sum(),
            QoiExpr::Mul(l, r) => l.eval(x) * r.eval(x),
            QoiExpr::Div(l, r) => l.eval(x) / r.eval(x),
            QoiExpr::Abs(arg) => arg.eval(x).abs(),
            QoiExpr::Ln(arg) => arg.eval(x).ln(),
            QoiExpr::Exp(arg) => arg.eval(x).exp(),
        }
    }

    /// Evaluates the QoI *and* a guaranteed upper bound of its error, given
    /// the per-variable L∞ error bounds `eps` used during retrieval.
    ///
    /// This is the paper's §IV composition machinery: each basis function's
    /// theorem consumes the child's `(value, bound)` as its `(x, ε)`
    /// (Theorem 9 / Lemmas 1–2).
    pub fn eval_bounded(&self, x: &[f64], eps: &[f64], cfg: &BoundConfig) -> Bounded {
        debug_assert_eq!(x.len(), eps.len(), "value/eps length mismatch");
        if cfg.estimator == crate::bounds::Estimator::Interval {
            return Bounded {
                value: self.eval(x),
                bound: crate::interval::interval_bound(self, x, eps),
            };
        }
        match self {
            QoiExpr::Var(i) => Bounded {
                value: x[*i],
                bound: eps[*i],
            },
            QoiExpr::Const(c) => Bounded::exact(*c),
            QoiExpr::Pow { n, arg } => {
                let a = arg.eval_bounded(x, eps, cfg);
                Bounded {
                    value: a.value.powi(*n as i32),
                    bound: bounds::guard(bounds::power_bound(*n, a.value, a.bound)),
                }
            }
            QoiExpr::Poly { coeffs, arg } => {
                let a = arg.eval_bounded(x, eps, cfg);
                Bounded {
                    value: bounds::poly_eval(coeffs, a.value),
                    bound: bounds::guard(bounds::poly_bound(coeffs, a.value, a.bound)),
                }
            }
            QoiExpr::Sqrt(arg) => {
                let a = arg.eval_bounded(x, eps, cfg);
                Bounded {
                    value: a.value.sqrt(),
                    bound: bounds::guard(bounds::sqrt_bound(cfg.sqrt_mode, a.value, a.bound)),
                }
            }
            QoiExpr::Radical { c, arg } => {
                let a = arg.eval_bounded(x, eps, cfg);
                Bounded {
                    value: 1.0 / (a.value + c),
                    bound: bounds::guard(bounds::radical_bound(*c, a.value, a.bound)),
                }
            }
            QoiExpr::Sum(terms) => {
                let mut value = 0.0;
                let mut bound = 0.0;
                for (a, e) in terms {
                    let t = e.eval_bounded(x, eps, cfg);
                    value += a * t.value;
                    bound += a.abs() * t.bound;
                }
                Bounded {
                    value,
                    bound: bounds::guard(bound),
                }
            }
            QoiExpr::Mul(l, r) => {
                let a = l.eval_bounded(x, eps, cfg);
                let b = r.eval_bounded(x, eps, cfg);
                Bounded {
                    value: a.value * b.value,
                    bound: bounds::guard(bounds::product_bound(a.value, a.bound, b.value, b.bound)),
                }
            }
            QoiExpr::Div(l, r) => {
                let a = l.eval_bounded(x, eps, cfg);
                let b = r.eval_bounded(x, eps, cfg);
                Bounded {
                    value: a.value / b.value,
                    bound: bounds::guard(bounds::quotient_bound(
                        a.value, a.bound, b.value, b.bound,
                    )),
                }
            }
            QoiExpr::Abs(arg) => {
                let a = arg.eval_bounded(x, eps, cfg);
                Bounded {
                    value: a.value.abs(),
                    bound: a.bound, // reverse triangle inequality: 1-Lipschitz
                }
            }
            QoiExpr::Ln(arg) => {
                let a = arg.eval_bounded(x, eps, cfg);
                Bounded {
                    value: a.value.ln(),
                    bound: bounds::guard(bounds::ln_bound(a.value, a.bound)),
                }
            }
            QoiExpr::Exp(arg) => {
                let a = arg.eval_bounded(x, eps, cfg);
                Bounded {
                    value: a.value.exp(),
                    bound: bounds::guard(bounds::exp_bound(a.value, a.bound)),
                }
            }
        }
    }

    /// The set of variable indices this QoI reads (Algorithm 3 needs this to
    /// know which fields a tolerance applies to).
    pub fn variables(&self) -> BTreeSet<usize> {
        let mut s = BTreeSet::new();
        self.collect_vars(&mut s);
        s
    }

    fn collect_vars(&self, s: &mut BTreeSet<usize>) {
        match self {
            QoiExpr::Var(i) => {
                s.insert(*i);
            }
            QoiExpr::Const(_) => {}
            QoiExpr::Pow { arg, .. }
            | QoiExpr::Poly { arg, .. }
            | QoiExpr::Sqrt(arg)
            | QoiExpr::Radical { arg, .. }
            | QoiExpr::Abs(arg)
            | QoiExpr::Ln(arg)
            | QoiExpr::Exp(arg) => arg.collect_vars(s),
            QoiExpr::Sum(terms) => {
                for (_, e) in terms {
                    e.collect_vars(s);
                }
            }
            QoiExpr::Mul(l, r) | QoiExpr::Div(l, r) => {
                l.collect_vars(s);
                r.collect_vars(s);
            }
        }
    }

    /// Largest variable index + 1 (the arity the input slice must have).
    pub fn arity(&self) -> usize {
        self.variables().last().map_or(0, |m| m + 1)
    }

    /// Number of nodes in the expression tree (complexity metric used by the
    /// benches).
    pub fn node_count(&self) -> usize {
        match self {
            QoiExpr::Var(_) | QoiExpr::Const(_) => 1,
            QoiExpr::Pow { arg, .. }
            | QoiExpr::Poly { arg, .. }
            | QoiExpr::Sqrt(arg)
            | QoiExpr::Radical { arg, .. }
            | QoiExpr::Abs(arg)
            | QoiExpr::Ln(arg)
            | QoiExpr::Exp(arg) => 1 + arg.node_count(),
            QoiExpr::Sum(terms) => 1 + terms.iter().map(|(_, e)| e.node_count()).sum::<usize>(),
            QoiExpr::Mul(l, r) | QoiExpr::Div(l, r) => 1 + l.node_count() + r.node_count(),
        }
    }
}

impl std::ops::Add for QoiExpr {
    type Output = QoiExpr;
    fn add(self, rhs: QoiExpr) -> QoiExpr {
        QoiExpr::add(self, rhs)
    }
}

impl std::ops::Sub for QoiExpr {
    type Output = QoiExpr;
    fn sub(self, rhs: QoiExpr) -> QoiExpr {
        QoiExpr::sub(self, rhs)
    }
}

impl std::ops::Mul for QoiExpr {
    type Output = QoiExpr;
    fn mul(self, rhs: QoiExpr) -> QoiExpr {
        QoiExpr::mul(self, rhs)
    }
}

impl std::ops::Div for QoiExpr {
    type Output = QoiExpr;
    fn div(self, rhs: QoiExpr) -> QoiExpr {
        QoiExpr::div(self, rhs)
    }
}

impl std::ops::Mul<QoiExpr> for f64 {
    type Output = QoiExpr;
    fn mul(self, rhs: QoiExpr) -> QoiExpr {
        rhs.scale(self)
    }
}

impl fmt::Display for QoiExpr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            QoiExpr::Var(i) => write!(f, "x{i}"),
            QoiExpr::Const(c) => write!(f, "{c}"),
            QoiExpr::Pow { n, arg } => write!(f, "({arg})^{n}"),
            QoiExpr::Poly { coeffs, arg } => {
                write!(f, "poly[")?;
                for (i, c) in coeffs.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{c}")?;
                }
                write!(f, "]({arg})")
            }
            QoiExpr::Sqrt(arg) => write!(f, "sqrt({arg})"),
            QoiExpr::Radical { c, arg } => write!(f, "1/(({arg}) + {c})"),
            QoiExpr::Sum(terms) => {
                write!(f, "(")?;
                for (i, (a, e)) in terms.iter().enumerate() {
                    if i > 0 {
                        write!(f, " + ")?;
                    }
                    if (*a - 1.0).abs() > f64::EPSILON {
                        write!(f, "{a}·")?;
                    }
                    write!(f, "{e}")?;
                }
                write!(f, ")")
            }
            QoiExpr::Mul(l, r) => write!(f, "({l} · {r})"),
            QoiExpr::Div(l, r) => write!(f, "({l} / {r})"),
            QoiExpr::Abs(arg) => write!(f, "|{arg}|"),
            QoiExpr::Ln(arg) => write!(f, "ln({arg})"),
            QoiExpr::Exp(arg) => write!(f, "exp({arg})"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bounds::SqrtMode;

    fn cfg() -> BoundConfig {
        BoundConfig::default()
    }

    #[test]
    fn var_and_const() {
        let x = [1.5, -2.0];
        let eps = [0.1, 0.2];
        let v = QoiExpr::var(1).eval_bounded(&x, &eps, &cfg());
        assert_eq!(v.value, -2.0);
        assert_eq!(v.bound, 0.2);
        let c = QoiExpr::constant(7.0).eval_bounded(&x, &eps, &cfg());
        assert_eq!(c.value, 7.0);
        assert_eq!(c.bound, 0.0);
    }

    #[test]
    fn composition_theorem9_sqrt_of_square() {
        // f₁∘f₂ with f₁=√, f₂=x²: Δ = Δ(√, x², Δ(x², x, ε))
        let e = QoiExpr::var(0).pow(2).sqrt();
        let out = e.eval_bounded(&[3.0], &[0.1], &cfg());
        assert!((out.value - 3.0).abs() < 1e-14);
        let inner = crate::bounds::power_bound(2, 3.0, 0.1);
        let outer = crate::bounds::sqrt_bound(SqrtMode::Paper, 9.0, inner);
        assert!((out.bound - outer).abs() / outer < 1e-10);
        // and the bound dominates the true error on the admissible box
        for k in 0..=100 {
            let xp: f64 = 3.0 - 0.1 + 0.2 * k as f64 / 100.0;
            assert!(((xp * xp).sqrt() - 3.0f64).abs() <= out.bound);
        }
    }

    #[test]
    fn sum_accumulates_weighted_bounds() {
        let e = QoiExpr::sum(vec![
            (2.0, QoiExpr::var(0)),
            (-3.0, QoiExpr::var(1)),
            (1.0, QoiExpr::constant(10.0)),
        ]);
        let out = e.eval_bounded(&[1.0, 1.0], &[0.1, 0.2], &cfg());
        assert!((out.value - (2.0 - 3.0 + 10.0)).abs() < 1e-14);
        assert!((out.bound - (0.2 + 0.6)).abs() < 1e-12);
    }

    #[test]
    fn mul_div_bounds_dominate_sampling() {
        // (x0·x1)/x2 — three-variable composite
        let e = QoiExpr::var(0).mul(QoiExpr::var(1)).div(QoiExpr::var(2));
        let x = [2.0, -3.0, 4.0];
        let eps = [0.05, 0.1, 0.2];
        let out = e.eval_bounded(&x, &eps, &cfg());
        let f0 = e.eval(&x);
        let mut worst = 0.0f64;
        for i in 0..=20 {
            for j in 0..=20 {
                for k in 0..=20 {
                    let xp = [
                        x[0] - eps[0] + 2.0 * eps[0] * i as f64 / 20.0,
                        x[1] - eps[1] + 2.0 * eps[1] * j as f64 / 20.0,
                        x[2] - eps[2] + 2.0 * eps[2] * k as f64 / 20.0,
                    ];
                    worst = worst.max((e.eval(&xp) - f0).abs());
                }
            }
        }
        assert!(worst <= out.bound, "{worst} > {}", out.bound);
        assert!(out.bound < worst * 2.0, "bound too loose: {}", out.bound);
    }

    #[test]
    fn shared_variable_correlation_is_still_sound() {
        // x·x vs x² — Mul does not assume independence
        let e = QoiExpr::var(0).mul(QoiExpr::var(0));
        let out = e.eval_bounded(&[5.0], &[0.5], &cfg());
        for k in 0..=200 {
            let xp: f64 = 4.5 + k as f64 / 200.0;
            assert!((xp * xp - 25.0f64).abs() <= out.bound);
        }
    }

    #[test]
    fn abs_is_one_lipschitz() {
        let e = QoiExpr::var(0).abs();
        let out = e.eval_bounded(&[-3.0], &[0.25], &cfg());
        assert_eq!(out.value, 3.0);
        assert_eq!(out.bound, 0.25);
    }

    #[test]
    fn radical_in_context_sutherland_style() {
        // (Tr+S)/(T+S) with T reconstructed
        let tr_s = 273.15 + 110.4;
        let e = QoiExpr::var(0).radical(110.4).scale(tr_s);
        let out = e.eval_bounded(&[300.0], &[5.0], &cfg());
        let f0 = tr_s / (300.0 + 110.4);
        assert!((out.value - f0).abs() < 1e-12);
        for k in 0..=100 {
            let t = 295.0 + 10.0 * k as f64 / 100.0;
            assert!((tr_s / (t + 110.4) - f0).abs() <= out.bound);
        }
    }

    #[test]
    fn infinity_propagates_through_composition() {
        // √ at reconstructed 0 with nonzero ε (paper mode) → ∞ bound,
        // and stays ∞ through subsequent ops
        let e = QoiExpr::var(0).sqrt().mul(QoiExpr::var(1));
        let out = e.eval_bounded(&[0.0, 2.0], &[0.1, 0.1], &cfg());
        assert!(out.bound.is_infinite());
    }

    #[test]
    fn exact_sqrt_mode_keeps_bound_finite_at_zero() {
        let e = QoiExpr::var(0).sqrt();
        let cfg = BoundConfig {
            sqrt_mode: SqrtMode::Exact,
            ..Default::default()
        };
        let out = e.eval_bounded(&[0.0], &[0.01], &cfg);
        assert!(out.bound.is_finite());
        assert!(out.bound >= 0.1); // √ε
    }

    #[test]
    fn variables_and_arity() {
        let e = QoiExpr::var(3)
            .mul(QoiExpr::var(1))
            .add(QoiExpr::var(3).pow(2));
        let vars: Vec<usize> = e.variables().into_iter().collect();
        assert_eq!(vars, vec![1, 3]);
        assert_eq!(e.arity(), 4);
    }

    #[test]
    fn node_count_counts_every_node() {
        let e = QoiExpr::var(0).pow(2).sqrt(); // Var + Pow + Sqrt
        assert_eq!(e.node_count(), 3);
    }

    #[test]
    fn display_is_readable() {
        let e = QoiExpr::var(0).pow(2).add(QoiExpr::var(1).pow(2)).sqrt();
        let s = format!("{e}");
        assert!(s.contains("sqrt"));
        assert!(s.contains("x0"));
        assert!(s.contains("x1"));
    }

    #[test]
    fn operator_overloads_match_builders() {
        let a = QoiExpr::var(0);
        let b = QoiExpr::var(1);
        assert_eq!(
            (a.clone() + b.clone()).eval(&[2.0, 3.0]),
            a.clone().add(b.clone()).eval(&[2.0, 3.0])
        );
        assert_eq!((a.clone() - b.clone()).eval(&[2.0, 3.0]), -1.0);
        assert_eq!((a.clone() * b.clone()).eval(&[2.0, 3.0]), 6.0);
        assert_eq!((a.clone() / b.clone()).eval(&[3.0, 2.0]), 1.5);
        assert_eq!((2.5 * a).eval(&[4.0, 0.0]), 10.0);
        let _ = b;
    }

    #[test]
    fn zero_eps_reproduces_exact_evaluation() {
        let e = QoiExpr::var(0)
            .poly(&[1.0, 0.0, 0.7])
            .sqrt()
            .div(QoiExpr::var(1));
        let x = [2.0, 3.0];
        let out = e.eval_bounded(&x, &[0.0, 0.0], &cfg());
        assert_eq!(out.value, e.eval(&x));
        // inflation guard adds only a denormal-scale epsilon
        assert!(out.bound < 1e-300 * 10.0 + 1e-12);
    }
}
