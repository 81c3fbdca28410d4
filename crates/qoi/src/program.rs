//! Compiled QoI programs — one shared-subexpression DAG for all the QoIs
//! of a request, evaluated a block of points at a time.
//!
//! Algorithm 2 (lines 13–24) estimates every requested QoI at every point
//! after every refinement round. Walking each target's [`QoiExpr`] tree per
//! point re-derives whatever the targets share: the six GE QoIs of
//! Eq. (1)–(6) contain `T = P/(D·R)` six times and `Vtotal` three times —
//! 68 tree nodes, 26 distinct ones.
//!
//! [`QoiProgram::compile`] hash-conses structurally equal subtrees (constants
//! and coefficients compared by exact `f64` bits, `Sum` term order kept) into
//! one topologically ordered slot list. [`QoiProgram::for_each_block`] then
//! walks a point range a block at a time, filling one value column and (in a
//! [`Pass::Bounded`] pass) one bound column per slot: each slot is a tight
//! loop over the *same* [`bounds`] formula and [`BoundConfig::guard`] the
//! tree recursion applies, reading its arguments' columns. The block size is
//! the module's business; callers see each root's columns through a
//! [`Block`], already clipped to the points that root is wanted on
//! ([`QoiProgram::restrict`]) — slots no wanted root reads are skipped.
//!
//! ## Exactness
//!
//! Every node of a tree is a pure function of `(x, ε, cfg)`, so two equal
//! subtrees produce equal bits wherever they sit, and a slot evaluated once
//! stands for all of them. Each slot applies the formula of its tree node to
//! the same argument bits in the same order, so the columns equal
//! [`QoiExpr::eval`] / [`QoiExpr::eval_bounded`] **bit for bit** — those two
//! stay the single-point definition of §IV and the oracle this module is
//! tested against (`tests/prop_bounds.rs`).
//!
//! The two tree evaluators differ in one place and so do the two passes:
//! `eval` folds a `Sum` with [`Iterator::sum`], `eval_bounded` accumulates
//! from `0.0` (the sign of a zero sum can differ). [`Pass::Values`] follows
//! the former, [`Pass::Bounded`] the latter.
//!
//! ```
//! use pqr_qoi::program::{Columns, Pass, QoiProgram};
//! use pqr_qoi::{ge, BoundConfig};
//!
//! let qois = ge::all();
//! let exprs: Vec<_> = qois.iter().map(|(_, e)| e).collect();
//! let program = QoiProgram::compile(&exprs);
//! assert_eq!(exprs.iter().map(|e| e.node_count()).sum::<usize>(), 68);
//! assert_eq!(program.num_slots(), 26);
//!
//! // two points, five fields (Vx, Vy, Vz, P, D), stored one slice per field
//! let fields = [[3.0, 30.0], [4.0, 40.0], [12.0, 5.0], [101_325.0, 99_000.0], [1.2, 1.1]];
//! let cols: Vec<&[f64]> = fields.iter().map(|f| &f[..]).collect();
//! let eps = [1e-3, 1e-3, 1e-3, 1.0, 1e-4];
//! let cfg = BoundConfig::default();
//! let pass = Pass::Bounded { eps: &eps, cfg: &cfg };
//! program.for_each_block(&Columns::new(&cols), 0..2, pass, |block| {
//!     for (k, e) in exprs.iter().enumerate() {
//!         let at_p1 = e.eval_bounded(&[30.0, 40.0, 5.0, 99_000.0, 1.1], &eps, &cfg);
//!         let ((first, values), (_, bounds)) = (block.values(k), block.bounds(k));
//!         assert_eq!(first, 0);
//!         assert_eq!(values[1].to_bits(), at_p1.value.to_bits());
//!         assert_eq!(bounds[1].to_bits(), at_p1.bound.to_bits());
//!     }
//! });
//! ```

use crate::bounds::{self, BoundConfig, Estimator};
use crate::expr::QoiExpr;
use crate::interval::interval_bound;
use std::collections::HashMap;
use std::ops::Range;

/// Points per evaluated block: columns of this length keep a GE-sized
/// program's scratch (2 × slots × `BLOCK` × 8 B) cache-resident while
/// amortising the per-slot dispatch.
const BLOCK: usize = 256;

/// `(block start, block length)` pairs covering `range` in order.
fn blocks(range: Range<usize>) -> impl Iterator<Item = (usize, usize)> {
    let end = range.end;
    range.step_by(BLOCK).map(move |s| (s, BLOCK.min(end - s)))
}

/// The data a program is evaluated over, stored one slice per variable.
#[derive(Clone, Copy)]
pub struct Columns<'a> {
    /// `cols[i][j]` is variable `i` at point `j`; all slices equally long.
    cols: &'a [&'a [f64]],
    /// `(variables, bitmap)` of [`Columns::zeroed`].
    zeroed: Option<(&'a [usize], &'a [u64])>,
}

impl<'a> Columns<'a> {
    /// Plain data, nothing certified zero: `cols[i][j]` is variable `i` at
    /// point `j`, all slices equally long.
    pub fn new(cols: &'a [&'a [f64]]) -> Self {
        Self { cols, zeroed: None }
    }

    /// Overlays the §V-A mask: at every point `j` whose bit
    /// (`bitmap[j / 64] >> (j % 64) & 1`) is set, the variables in `vars`
    /// are certified exactly zero and read `x = 0`, `ε = 0` whatever the
    /// slices hold.
    pub fn zeroed(self, vars: &'a [usize], bitmap: &'a [u64]) -> Self {
        Self {
            zeroed: Some((vars, bitmap)),
            ..self
        }
    }
}

/// What [`QoiProgram::for_each_block`] computes per block.
#[derive(Clone, Copy)]
pub enum Pass<'a> {
    /// Value columns only, equal to [`QoiExpr::eval`].
    Values,
    /// Value and bound columns under per-variable bounds `eps`, equal to
    /// [`QoiExpr::eval_bounded`].
    Bounded {
        /// `eps[i]` bounds the error of variable `i` at every point.
        eps: &'a [f64],
        /// Estimator configuration, as the tree takes it.
        cfg: &'a BoundConfig,
    },
}

/// One node of the DAG; `usize` operands are slot indices below its own.
#[derive(Debug)]
enum Op {
    Var(usize),
    Const(f64),
    Pow { n: u32, arg: usize },
    Poly { coeffs: Vec<f64>, arg: usize },
    Sqrt(usize),
    Radical { c: f64, arg: usize },
    Sum(Vec<(f64, usize)>),
    Mul(usize, usize),
    Div(usize, usize),
    Abs(usize),
    Ln(usize),
    Exp(usize),
}

impl Op {
    /// Hash-consing key: a tag plus every operand, floats by exact bits —
    /// two ops with equal keys compute the same function of the same slots.
    fn key(&self) -> Vec<u64> {
        match self {
            Op::Var(i) => vec![0, *i as u64],
            Op::Const(c) => vec![1, c.to_bits()],
            Op::Pow { n, arg } => vec![2, u64::from(*n), *arg as u64],
            Op::Poly { coeffs, arg } => [3, *arg as u64]
                .into_iter()
                .chain(coeffs.iter().map(|c| c.to_bits()))
                .collect(),
            Op::Sqrt(a) => vec![4, *a as u64],
            Op::Radical { c, arg } => vec![5, c.to_bits(), *arg as u64],
            Op::Sum(terms) => std::iter::once(6)
                .chain(terms.iter().flat_map(|(a, s)| [a.to_bits(), *s as u64]))
                .collect(),
            Op::Mul(l, r) => vec![7, *l as u64, *r as u64],
            Op::Div(l, r) => vec![8, *l as u64, *r as u64],
            Op::Abs(a) => vec![9, *a as u64],
            Op::Ln(a) => vec![10, *a as u64],
            Op::Exp(a) => vec![11, *a as u64],
        }
    }

    /// Calls `f` with every slot this op reads.
    fn for_each_arg(&self, mut f: impl FnMut(usize)) {
        match self {
            Op::Var(_) | Op::Const(_) => {}
            Op::Pow { arg, .. } | Op::Poly { arg, .. } | Op::Radical { arg, .. } => f(*arg),
            Op::Sqrt(a) | Op::Abs(a) | Op::Ln(a) | Op::Exp(a) => f(*a),
            Op::Sum(terms) => terms.iter().for_each(|(_, t)| f(*t)),
            Op::Mul(l, r) | Op::Div(l, r) => {
                f(*l);
                f(*r);
            }
        }
    }
}

/// The QoIs of one request compiled into a shared slot list.
#[derive(Debug)]
pub struct QoiProgram<'e> {
    /// Topologically ordered: every operand precedes its user.
    ops: Vec<Op>,
    /// Slot of each compiled expression, in `compile` order.
    roots: Vec<usize>,
    /// The points each root is wanted on (see [`QoiProgram::restrict`]).
    regions: Vec<Range<usize>>,
    /// The source trees — [`Estimator::Interval`] has no per-node bound to
    /// share and evaluates these per point.
    exprs: Vec<&'e QoiExpr>,
}

impl<'e> QoiProgram<'e> {
    /// Compiles `exprs` into one DAG; root `k` of the program is `exprs[k]`.
    pub fn compile(exprs: &[&'e QoiExpr]) -> Self {
        let mut ops = Vec::new();
        let mut seen = HashMap::new();
        let roots = exprs
            .iter()
            .map(|e| intern(e, &mut ops, &mut seen))
            .collect();
        Self {
            ops,
            roots,
            regions: vec![0..usize::MAX; exprs.len()],
            exprs: exprs.to_vec(),
        }
    }

    /// Distinct nodes across all compiled expressions.
    pub fn num_slots(&self) -> usize {
        self.ops.len()
    }

    /// Wants root `k` on points `region` only: its [`Block`] columns are
    /// clipped to it, and a block none of whose points a root is wanted on
    /// skips the slots only that root reads.
    pub fn restrict(&mut self, k: usize, region: Range<usize>) {
        self.regions[k] = region;
    }

    /// Evaluates the program over points `range` of `data`, a block at a
    /// time in ascending order, and hands each evaluated [`Block`] to
    /// `visit` (blocks on which no root is wanted are skipped).
    pub fn for_each_block(
        &self,
        data: &Columns,
        range: Range<usize>,
        pass: Pass,
        mut visit: impl FnMut(&Block),
    ) {
        let mut block = Block::new(self);
        for (start, len) in blocks(range) {
            if block.enter(start, len) {
                block.evaluate(data, pass);
                visit(&block);
            }
        }
    }

    /// Evaluates root 0 for points `start..start + out.len()` into `out` —
    /// the whole-domain form of [`QoiExpr::eval`].
    pub fn fill_values(&self, data: &Columns, start: usize, out: &mut [f64]) {
        self.for_each_block(data, start..start + out.len(), Pass::Values, |block| {
            let (first, values) = block.values(0);
            out[first - start..][..values.len()].copy_from_slice(values);
        });
    }
}

/// Returns the slot computing `e`, appending the slots it still lacks.
fn intern(e: &QoiExpr, ops: &mut Vec<Op>, seen: &mut HashMap<Vec<u64>, usize>) -> usize {
    let mut slot = |e: &QoiExpr| intern(e, ops, seen);
    let op = match e {
        QoiExpr::Var(i) => Op::Var(*i),
        QoiExpr::Const(c) => Op::Const(*c),
        QoiExpr::Pow { n, arg } => Op::Pow {
            n: *n,
            arg: slot(arg),
        },
        QoiExpr::Poly { coeffs, arg } => Op::Poly {
            coeffs: coeffs.clone(),
            arg: slot(arg),
        },
        QoiExpr::Sqrt(arg) => Op::Sqrt(slot(arg)),
        QoiExpr::Radical { c, arg } => Op::Radical {
            c: *c,
            arg: slot(arg),
        },
        QoiExpr::Sum(terms) => Op::Sum(terms.iter().map(|(a, t)| (*a, slot(t))).collect()),
        QoiExpr::Mul(l, r) => Op::Mul(slot(l), slot(r)),
        QoiExpr::Div(l, r) => Op::Div(slot(l), slot(r)),
        QoiExpr::Abs(arg) => Op::Abs(slot(arg)),
        QoiExpr::Ln(arg) => Op::Ln(slot(arg)),
        QoiExpr::Exp(arg) => Op::Exp(slot(arg)),
    };
    *seen.entry(op.key()).or_insert_with(|| {
        ops.push(op);
        ops.len() - 1
    })
}

/// How a `Sum` slot folds its terms — the one place the two tree
/// evaluators differ.
#[derive(Clone, Copy)]
enum SumFold {
    /// [`Iterator::sum`], as [`QoiExpr::eval`].
    IterSum,
    /// `0.0 + t₀ + t₁ + …`, as [`QoiExpr::eval_bounded`].
    FromZero,
}

/// One evaluated block of a [`QoiProgram::for_each_block`] walk: a value
/// column and a bound column per slot, read through the roots.
pub struct Block<'p, 'e> {
    program: &'p QoiProgram<'e>,
    vals: Vec<f64>,
    bnds: Vec<f64>,
    /// Which points of the block are zeroed (see [`Columns::zeroed`]).
    zeroed: Vec<bool>,
    /// First point and length of the block.
    start: usize,
    len: usize,
    /// Per root, the part of the block it is wanted on (empty: not at all).
    wanted: Vec<Range<usize>>,
    /// Per slot, whether a wanted root reads it in this block.
    live: Vec<bool>,
}

impl<'p, 'e> Block<'p, 'e> {
    /// Scratch sized for `program`.
    fn new(program: &'p QoiProgram<'e>) -> Self {
        Self {
            program,
            vals: vec![0.0; program.ops.len() * BLOCK],
            bnds: vec![0.0; program.ops.len() * BLOCK],
            zeroed: vec![false; BLOCK],
            start: 0,
            len: 0,
            wanted: vec![0..0; program.roots.len()],
            live: Vec::new(),
        }
    }

    /// Root `k`'s values over the points it is wanted on in this block:
    /// the first such point and one value per point from there.
    pub fn values(&self, k: usize) -> (usize, &[f64]) {
        self.column(&self.vals, k)
    }

    /// Root `k`'s error bounds over the points it is wanted on in this
    /// block (filled by a [`Pass::Bounded`] pass only).
    pub fn bounds(&self, k: usize) -> (usize, &[f64]) {
        self.column(&self.bnds, k)
    }

    fn column<'a>(&self, columns: &'a [f64], k: usize) -> (usize, &'a [f64]) {
        let Range { start, end } = self.wanted[k];
        let col = self.program.roots[k] * BLOCK;
        (
            start,
            &columns[col + start - self.start..col + end - self.start],
        )
    }

    /// Moves to points `start..start + len` (`len ≤ BLOCK`) and marks the
    /// slots its wanted roots read; `false` when no root is wanted here.
    fn enter(&mut self, start: usize, len: usize) -> bool {
        assert!(len <= BLOCK, "block of {len} points exceeds {BLOCK}");
        (self.start, self.len) = (start, len);
        // liveness changes only where a region starts or ends
        let mut changed = self.live.is_empty();
        for (w, r) in self.wanted.iter_mut().zip(&self.program.regions) {
            let (lo, hi) = (r.start.max(start), r.end.min(start + len));
            changed |= (w.start == w.end) != (lo >= hi);
            *w = if lo < hi { lo..hi } else { start..start };
        }
        let is_live = |w: &Range<usize>| !w.is_empty();
        if changed {
            let ops = &self.program.ops;
            self.live.clear();
            self.live.resize(ops.len(), false);
            for (w, &root) in self.wanted.iter().zip(&self.program.roots) {
                self.live[root] |= is_live(w);
            }
            for slot in (0..ops.len()).rev() {
                if self.live[slot] {
                    ops[slot].for_each_arg(|a| self.live[a] = true);
                }
            }
        }
        self.wanted.iter().any(is_live)
    }

    fn evaluate(&mut self, data: &Columns, pass: Pass) {
        match pass {
            Pass::Values => self.value_pass(data, SumFold::IterSum),
            Pass::Bounded { eps, cfg } => {
                debug_assert_eq!(data.cols.len(), eps.len(), "value/eps length mismatch");
                match cfg.estimator {
                    Estimator::Theorems => {
                        self.value_pass(data, SumFold::FromZero);
                        self.bound_pass(data, eps, cfg);
                    }
                    Estimator::Interval => {
                        self.value_pass(data, SumFold::IterSum);
                        self.interval_bound_pass(data, eps);
                    }
                }
            }
        }
    }

    fn value_pass(&mut self, data: &Columns, fold: SumFold) {
        let (start, len) = (self.start, self.len);
        if let Some((_, bitmap)) = data.zeroed {
            for (j, z) in (start..).zip(&mut self.zeroed[..len]) {
                *z = (bitmap[j / 64] >> (j % 64)) & 1 == 1;
            }
        }
        let live = self.program.ops.iter().zip(&self.live).enumerate();
        for (slot, (op, _)) in live.filter(|(_, (_, &live))| live) {
            let (before, rest) = self.vals.split_at_mut(slot * BLOCK);
            let out = &mut rest[..len];
            let col = |a: usize| &before[a * BLOCK..a * BLOCK + len];
            match op {
                Op::Var(v) => {
                    out.copy_from_slice(&data.cols[*v][start..start + len]);
                    if data.zeroed.is_some_and(|(vars, _)| vars.contains(v)) {
                        zero_where(out, &self.zeroed);
                    }
                }
                Op::Const(c) => out.fill(*c),
                Op::Pow { n, arg } => map1(out, col(*arg), |a| a.powi(*n as i32)),
                Op::Poly { coeffs, arg } => map1(out, col(*arg), |a| bounds::poly_eval(coeffs, a)),
                Op::Sqrt(arg) => map1(out, col(*arg), f64::sqrt),
                Op::Radical { c, arg } => map1(out, col(*arg), |a| 1.0 / (a + c)),
                Op::Sum(terms) => match fold {
                    SumFold::IterSum => {
                        for (p, o) in out.iter_mut().enumerate() {
                            *o = terms.iter().map(|(a, t)| a * before[t * BLOCK + p]).sum();
                        }
                    }
                    SumFold::FromZero => {
                        out.fill(0.0);
                        for (a, t) in terms {
                            for (o, v) in out.iter_mut().zip(col(*t)) {
                                *o += a * v;
                            }
                        }
                    }
                },
                Op::Mul(l, r) => map2(out, col(*l), col(*r), |a, b| a * b),
                Op::Div(l, r) => map2(out, col(*l), col(*r), |a, b| a / b),
                Op::Abs(arg) => map1(out, col(*arg), f64::abs),
                Op::Ln(arg) => map1(out, col(*arg), f64::ln),
                Op::Exp(arg) => map1(out, col(*arg), f64::exp),
            }
        }
    }

    /// The theorem estimator over the block: slot by slot, the formula and
    /// guard of the matching arm of [`QoiExpr::eval_bounded`].
    fn bound_pass(&mut self, data: &Columns, eps: &[f64], cfg: &BoundConfig) {
        let len = self.len;
        let vals = &self.vals;
        let live = self.program.ops.iter().zip(&self.live).enumerate();
        for (slot, (op, _)) in live.filter(|(_, (_, &live))| live) {
            let (before, rest) = self.bnds.split_at_mut(slot * BLOCK);
            let out = &mut rest[..len];
            let val = |a: usize| &vals[a * BLOCK..a * BLOCK + len];
            let bnd = |a: usize| &before[a * BLOCK..a * BLOCK + len];
            match op {
                Op::Var(v) => {
                    out.fill(eps[*v]);
                    if data.zeroed.is_some_and(|(vars, _)| vars.contains(v)) {
                        zero_where(out, &self.zeroed);
                    }
                }
                Op::Const(_) => out.fill(0.0),
                Op::Pow { n, arg } => {
                    let f = |x, e| bounds::power_bound(*n, x, e);
                    bound1(out, cfg, val(*arg), bnd(*arg), f)
                }
                Op::Poly { coeffs, arg } => {
                    let f = |x, e| bounds::poly_bound(coeffs, x, e);
                    bound1(out, cfg, val(*arg), bnd(*arg), f)
                }
                Op::Sqrt(arg) => {
                    let f = |x, e| bounds::sqrt_bound(cfg.sqrt_mode, x, e);
                    bound1(out, cfg, val(*arg), bnd(*arg), f)
                }
                Op::Radical { c, arg } => {
                    let f = |x, e| bounds::radical_bound(*c, x, e);
                    bound1(out, cfg, val(*arg), bnd(*arg), f)
                }
                Op::Sum(terms) => {
                    out.fill(0.0);
                    for (a, t) in terms {
                        for (o, e) in out.iter_mut().zip(bnd(*t)) {
                            *o += a.abs() * e;
                        }
                    }
                    for o in out.iter_mut() {
                        *o = cfg.guard(*o);
                    }
                }
                Op::Mul(l, r) => {
                    let (l, r) = ((val(*l), bnd(*l)), (val(*r), bnd(*r)));
                    bound2(out, cfg, l, r, bounds::product_bound)
                }
                Op::Div(l, r) => {
                    let (l, r) = ((val(*l), bnd(*l)), (val(*r), bnd(*r)));
                    bound2(out, cfg, l, r, bounds::quotient_bound)
                }
                // reverse triangle inequality: 1-Lipschitz, no guard
                Op::Abs(arg) => out.copy_from_slice(bnd(*arg)),
                Op::Ln(arg) => bound1(out, cfg, val(*arg), bnd(*arg), bounds::ln_bound),
                Op::Exp(arg) => bound1(out, cfg, val(*arg), bnd(*arg), bounds::exp_bound),
            }
        }
    }

    /// The interval estimator has no per-node bound: each root's tree is
    /// enclosed per point it is wanted on, exactly as
    /// [`QoiExpr::eval_bounded`] does.
    fn interval_bound_pass(&mut self, data: &Columns, eps: &[f64]) {
        let mut x = vec![0.0; data.cols.len()];
        let mut eps_pt = eps.to_vec();
        for p in 0..self.len {
            let j = self.start + p;
            for (i, col) in data.cols.iter().enumerate() {
                x[i] = col[j];
                eps_pt[i] = eps[i];
            }
            if let Some((vars, _)) = data.zeroed.filter(|_| self.zeroed[p]) {
                for &i in vars {
                    x[i] = 0.0;
                    eps_pt[i] = 0.0;
                }
            }
            let roots = self.program.roots.iter().zip(&self.program.exprs);
            for ((&root, expr), _) in roots.zip(&self.wanted).filter(|(_, w)| w.contains(&j)) {
                self.bnds[root * BLOCK + p] = interval_bound(expr, &x, &eps_pt);
            }
        }
    }
}

fn map1(out: &mut [f64], a: &[f64], f: impl Fn(f64) -> f64) {
    for (o, &a) in out.iter_mut().zip(a) {
        *o = f(a);
    }
}

fn map2(out: &mut [f64], a: &[f64], b: &[f64], f: impl Fn(f64, f64) -> f64) {
    for ((o, &a), &b) in out.iter_mut().zip(a).zip(b) {
        *o = f(a, b);
    }
}

/// `out = guard(f(value, bound))` over one argument's columns.
fn bound1(out: &mut [f64], cfg: &BoundConfig, x: &[f64], e: &[f64], f: impl Fn(f64, f64) -> f64) {
    for ((o, &x), &e) in out.iter_mut().zip(x).zip(e) {
        *o = cfg.guard(f(x, e));
    }
}

/// `out = guard(f(value₁, bound₁, value₂, bound₂))` over two arguments'
/// `(value, bound)` columns.
fn bound2(
    out: &mut [f64],
    cfg: &BoundConfig,
    (x1, e1): (&[f64], &[f64]),
    (x2, e2): (&[f64], &[f64]),
    f: impl Fn(f64, f64, f64, f64) -> f64,
) {
    let cols = x1.iter().zip(e1).zip(x2.iter().zip(e2));
    for (o, ((&x1, &e1), (&x2, &e2))) in out.iter_mut().zip(cols) {
        *o = cfg.guard(f(x1, e1, x2, e2));
    }
}

fn zero_where(out: &mut [f64], zeroed: &[bool]) {
    for (o, &z) in out.iter_mut().zip(zeroed) {
        if z {
            *o = 0.0;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ge;

    #[test]
    fn equal_subtrees_share_a_slot_and_float_bits_decide_equality() {
        let t = ge::temperature();
        let twice = t.clone().mul(t.clone());
        let p = QoiProgram::compile(&[&t, &twice]);
        // Var(P), Var(D), Sum, Div, then one Mul over the shared Div
        assert_eq!(p.num_slots(), 5);
        assert_eq!(p.roots, vec![3, 4]);

        let (pos, neg) = (QoiExpr::constant(0.0), QoiExpr::constant(-0.0));
        assert_eq!(QoiProgram::compile(&[&pos, &neg]).num_slots(), 2);
        assert_eq!(QoiProgram::compile(&[&pos, &pos]).num_slots(), 1);
        // term order is part of a Sum's identity (float addition order)
        let ab = QoiExpr::var(0).add(QoiExpr::var(1));
        let ba = QoiExpr::var(1).add(QoiExpr::var(0));
        assert_eq!(QoiProgram::compile(&[&ab, &ba]).num_slots(), 4);
    }

    #[test]
    fn blocks_cover_the_range_in_order() {
        let got: Vec<_> = blocks(10..10 + 2 * BLOCK + 1).collect();
        assert_eq!(
            got,
            vec![(10, BLOCK), (10 + BLOCK, BLOCK), (10 + 2 * BLOCK, 1)]
        );
        assert_eq!(blocks(7..7).count(), 0);
    }

    #[test]
    fn zeroed_points_read_exact_zero_on_the_listed_variables_only() {
        let e = QoiExpr::var(0).add(QoiExpr::var(1));
        let program = QoiProgram::compile(&[&e]);
        let (a, b) = ([5.0, 6.0, 7.0], [1.0, 1.0, 1.0]);
        let cols: [&[f64]; 2] = [&a, &b];
        let data = Columns::new(&cols).zeroed(&[0], &[0b010]);
        let cfg = BoundConfig {
            inflate: false,
            ..Default::default()
        };
        let pass = Pass::Bounded {
            eps: &[0.5, 0.25],
            cfg: &cfg,
        };
        let mut visits = 0;
        program.for_each_block(&data, 0..3, pass, |block| {
            visits += 1;
            assert_eq!(block.values(0), (0, &[6.0, 1.0, 8.0][..]));
            assert_eq!(block.bounds(0), (0, &[0.75, 0.25, 0.75][..]));
        });
        assert_eq!(visits, 1);
        let mut out = [0.0; 2];
        program.fill_values(&data, 1, &mut out);
        assert_eq!(out, [1.0, 8.0]);
    }

    #[test]
    fn a_restricted_root_is_clipped_and_costs_nothing_outside_its_region() {
        // root 0 everywhere, root 1 on a region that starts and ends
        // mid-block, root 2 nowhere; ln(x1) is read by root 1 only
        let exprs = [
            QoiExpr::var(0).pow(2),
            QoiExpr::var(1).ln().mul(QoiExpr::var(0)),
            QoiExpr::var(1).exp(),
        ];
        let refs: Vec<&QoiExpr> = exprs.iter().collect();
        let mut program = QoiProgram::compile(&refs);
        let n = 3 * BLOCK + 7;
        let region = BLOCK + 5..2 * BLOCK + 9;
        program.restrict(1, region.clone());
        program.restrict(2, 0..0);
        let x0: Vec<f64> = (0..n).map(|j| 1.0 + j as f64).collect();
        let x1: Vec<f64> = (0..n).map(|j| 2.0 + (j % 17) as f64).collect();
        let cols: [&[f64]; 2] = [&x0, &x1];
        let (eps, cfg) = ([1e-3, 1e-2], BoundConfig::default());
        let pass = Pass::Bounded {
            eps: &eps,
            cfg: &cfg,
        };
        let ln_slot = program.roots[1] - 1;
        assert!(matches!(program.ops[ln_slot], Op::Ln(_)));
        let mut seen = [Vec::new(), Vec::new(), Vec::new()];
        program.for_each_block(&Columns::new(&cols), 3..n, pass, |block| {
            // the slots only root 1 reads run in the blocks it reaches
            let reaches = block.start < region.end && region.start < block.start + block.len;
            assert_eq!(block.live[ln_slot], reaches, "block at {}", block.start);
            assert!(!block.live[program.roots[2]]);
            for (k, expr) in exprs.iter().enumerate() {
                let ((first, values), (_, bounds)) = (block.values(k), block.bounds(k));
                for (j, (v, b)) in (first..).zip(values.iter().zip(bounds)) {
                    let want = expr.eval_bounded(&[x0[j], x1[j]], &eps, &cfg);
                    assert_eq!(
                        (v.to_bits(), b.to_bits()),
                        (want.value.to_bits(), want.bound.to_bits())
                    );
                    seen[k].push(j);
                }
            }
        });
        assert_eq!(seen[0], (3..n).collect::<Vec<_>>());
        assert_eq!(seen[1], region.collect::<Vec<_>>());
        assert!(seen[2].is_empty());
        // a range no root is wanted on visits nothing
        program.restrict(0, 0..3);
        program.for_each_block(&Columns::new(&cols), 3..BLOCK, pass, |_| panic!("visited"));
    }
}
