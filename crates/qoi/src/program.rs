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
//! loop over the *same* [`bounds`] formula and [`bounds::guard`] the
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
//! ## Pruning
//!
//! Algorithm 2 uses only each QoI's largest estimate and the first point
//! attaining it. [`QoiProgram::max_bounds`] finds both without evaluating
//! every point. It splits the range into [`LEAF`]-point leaves and gives
//! each leaf a *hull* per root ([`QoiProgram::leaf_hulls`]): an upper bound
//! on every estimate the block pass would compute there. The hull starts
//! from each field's min and max over the leaf and encloses every slot's
//! computed values in an [`Interval`]. It then applies the slot's own
//! [`bounds`] formula and guard at the extreme arguments: max `|x|` where
//! the formula grows with `|x|` (`Pow`, `Poly`, `Mul`, `Exp`, a quotient's
//! numerator), min `|x|` where it shrinks (`Sqrt`, `Radical`, `Ln`, a
//! quotient's denominator), and max `ε` throughout. Zeroed points read
//! other values, so each side of the mask gets a hull of its own. A hull is
//! `∞` wherever a precondition may fail (a pole in reach, a negative under
//! `√`, `ε ≥ min |d|`), wherever a field in the leaf is NaN, and under
//! [`Estimator::Interval`] and [`SqrtMode::Exact`], whose formulas have no
//! monotone form to enclose.
//!
//! The search seeds each root's running best from its highest-hull leaf,
//! then walks the leaves in order. It evaluates a leaf with the block pass,
//! and only for the roots whose hull can still beat their best: a larger
//! hull, or an equal one on a leaf before the current argmax. Estimates
//! update the best on `>` or on `=` at an earlier point, so the result is
//! the full pass's maximum and first argmax **bit for bit**, in whatever
//! order leaves are visited. A pruned root's slots are not evaluated at
//! all. The hull table holds one `f64` per leaf and root, and lives for
//! one call.
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

use crate::bounds::{self, BoundConfig, Estimator, SqrtMode, INFLATE};
use crate::expr::QoiExpr;
use crate::interval::{interval_bound, Interval};
use std::collections::HashMap;
use std::ops::Range;

/// Points per evaluated block: columns of this length keep a GE-sized
/// program's scratch (2 × slots × `BLOCK` × 8 B) cache-resident while
/// amortising the per-slot dispatch.
const BLOCK: usize = 256;

/// Points per leaf of [`QoiProgram::max_bounds`]: the unit a hull rules in
/// or out. A block holds eight.
pub const LEAF: usize = 32;

/// The largest power (of a `Pow`, or degree of a `Poly`) a hull encloses:
/// one guard step covers `powi`'s rounding only while `2·n·2⁻⁵³` stays
/// below [`INFLATE`]. Higher powers get an `∞` hull.
const HULL_MAX_POWER: usize = 128;

/// `(block start, block length)` pairs covering `range` in order.
fn blocks(range: Range<usize>) -> impl Iterator<Item = (usize, usize)> {
    let end = range.end;
    range.step_by(BLOCK).map(move |s| (s, BLOCK.min(end - s)))
}

/// `(leaf start, leaf length)` pairs covering `range` in order.
fn leaves(range: Range<usize>) -> impl Iterator<Item = (usize, usize)> {
    let end = range.end;
    range.step_by(LEAF).map(move |s| (s, LEAF.min(end - s)))
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

    /// Whether point `j` is zeroed by [`Columns::zeroed`].
    fn is_zeroed(&self, j: usize) -> bool {
        self.zeroed
            .is_some_and(|(_, bitmap)| (bitmap[j / 64] >> (j % 64)) & 1 == 1)
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
        let every_root = vec![true; self.roots.len()];
        for (start, len) in blocks(range) {
            if block.enter(start, len, &every_root) {
                block.evaluate(data, pass);
                visit(&block);
            }
        }
    }

    /// Per root, the largest estimate over the points of `range` it is
    /// wanted on, and the first point attaining it — `(0.0, 0)` when none
    /// is positive. An estimate is the root's [`Pass::Bounded`] bound, NaN
    /// read as `∞` ([`sound_estimate`]).
    ///
    /// The result equals a fold over [`QoiProgram::for_each_block`]'s bound
    /// columns bit for bit; only leaves whose hull can still beat a root's
    /// running best are evaluated, and for that root only (see "Pruning").
    pub fn max_bounds(
        &self,
        data: &Columns,
        range: Range<usize>,
        eps: &[f64],
        cfg: &BoundConfig,
    ) -> Vec<(f64, usize)> {
        let nr = self.roots.len();
        let leaves: Vec<(usize, usize)> = leaves(range.clone()).collect();
        let hulls = self.leaf_hulls(data, range, eps, cfg);
        let hull = |l: usize, k: usize| hulls[l * nr + k];
        let pass = Pass::Bounded { eps, cfg };
        let mut best = vec![(0.0f64, 0usize); nr];
        let mut block = Block::new(self);
        // seed each root from its highest-hull leaf, so that the walk below
        // starts from a best worth comparing against
        let seeds: Vec<Option<usize>> = (0..nr)
            .map(|k| {
                let top =
                    (0..leaves.len()).reduce(|t, l| if hull(l, k) > hull(t, k) { l } else { t });
                top.filter(|&t| hull(t, k) > 0.0)
            })
            .collect();
        let mut roots = vec![false; nr];
        let mut seeded: Vec<usize> = seeds.iter().flatten().copied().collect();
        seeded.sort_unstable();
        seeded.dedup();
        for l in seeded {
            for (r, s) in roots.iter_mut().zip(&seeds) {
                *r = *s == Some(l);
            }
            let (start, len) = leaves[l];
            block.fold_max(data, start..start + len, &roots, pass, &mut best);
        }
        // then every leaf in order, for the roots it can still change;
        // adjacent leaves needed by the same roots run as one block
        let mut run: Option<Range<usize>> = None;
        let mut run_roots = vec![false; nr];
        for (l, &(start, len)) in leaves.iter().enumerate() {
            for (k, r) in roots.iter_mut().enumerate() {
                let (h, (top, at)) = (hull(l, k), best[k]);
                *r = seeds[k] != Some(l) && (h > top || (h == top && start < at));
            }
            match &mut run {
                Some(r) if r.end == start && r.len() + len <= BLOCK && roots == run_roots => {
                    r.end += len
                }
                _ => {
                    if let Some(r) = run.take() {
                        block.fold_max(data, r, &run_roots, pass, &mut best);
                    }
                    if roots.contains(&true) {
                        run = Some(start..start + len);
                        run_roots.copy_from_slice(&roots);
                    }
                }
            }
        }
        if let Some(r) = run {
            block.fold_max(data, r, &run_roots, pass, &mut best);
        }
        best
    }

    /// An upper bound on each root's estimate over each [`LEAF`]-point leaf
    /// of `range`, leaf-major: entry `l · roots + k` covers root `k` on
    /// points `range.start + l·LEAF ..` (the last leaf may be shorter). It
    /// is `-∞` where the root is not wanted on any point of the leaf, and
    /// `∞` where nothing smaller is certain — always under
    /// [`Estimator::Interval`], which has no per-node formula to enclose.
    pub fn leaf_hulls(
        &self,
        data: &Columns,
        range: Range<usize>,
        eps: &[f64],
        cfg: &BoundConfig,
    ) -> Vec<f64> {
        let nr = self.roots.len();
        let mut hulls = Vec::with_capacity(range.len().div_ceil(LEAF) * nr);
        let mut slots: Vec<SlotHull> = vec![None; self.ops.len()];
        let mut wanted = vec![false; nr];
        for (start, len) in leaves(range) {
            let leaf = start..start + len;
            for (w, r) in wanted.iter_mut().zip(&self.regions) {
                *w = r.start.max(start) < r.end.min(start + len);
            }
            let row = hulls.len();
            hulls.extend(wanted.iter().map(|_| f64::NEG_INFINITY));
            let row = &mut hulls[row..];
            if cfg.estimator == Estimator::Interval {
                for (h, _) in row.iter_mut().zip(&wanted).filter(|(_, &w)| w) {
                    *h = f64::INFINITY;
                }
                continue;
            }
            // zeroed points read other values than the rest: each side of
            // the mask gets a hull of its own
            let groups: &[Option<bool>] = match data.zeroed {
                None => &[None],
                Some(_) => {
                    let masked = leaf.clone().filter(|&j| data.is_zeroed(j)).count();
                    match masked {
                        0 => &[Some(false)],
                        m if m == len => &[Some(true)],
                        _ => &[Some(false), Some(true)],
                    }
                }
            };
            for &group in groups {
                self.hull_pass(data, leaf.clone(), group, eps, cfg, &mut slots);
                let roots = self.roots.iter().zip(&wanted).zip(row.iter_mut());
                for ((&root, _), h) in roots.filter(|((_, &w), _)| w) {
                    *h = h.max(slots[root].map_or(f64::INFINITY, |(_, b)| b));
                }
            }
        }
        hulls
    }

    /// Fills `slots` with each slot's hull over the points of `leaf` on
    /// side `group` of the mask (`None`: every point).
    fn hull_pass(
        &self,
        data: &Columns,
        leaf: Range<usize>,
        group: Option<bool>,
        eps: &[f64],
        cfg: &BoundConfig,
        slots: &mut [SlotHull],
    ) {
        for (slot, op) in self.ops.iter().enumerate() {
            let (before, rest) = slots.split_at_mut(slot);
            rest[0] = match op {
                Op::Var(v) => {
                    let zeroed = data.zeroed.filter(|(vars, _)| vars.contains(v));
                    match (group, zeroed) {
                        (Some(true), Some(_)) => Some((Interval::point(0.0), 0.0)),
                        _ => {
                            let on = |j: usize| group.is_none_or(|g| data.is_zeroed(j) == g);
                            let col = data.cols[*v][leaf.clone()].iter().zip(leaf.clone());
                            var_hull(col.filter(|&(_, j)| on(j)).map(|(x, _)| x), eps[*v])
                        }
                    }
                }
                op => op_hull(op, |a| before[a], cfg),
            };
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
    /// slots read by the roots flagged in `roots` that are wanted here;
    /// `false` when there are none.
    fn enter(&mut self, start: usize, len: usize, roots: &[bool]) -> bool {
        assert!(len <= BLOCK, "block of {len} points exceeds {BLOCK}");
        (self.start, self.len) = (start, len);
        // liveness changes only where a region or the root set does
        let mut changed = self.live.is_empty();
        let regions = self.program.regions.iter().zip(roots);
        for (w, (r, &on)) in self.wanted.iter_mut().zip(regions) {
            let (lo, hi) = (r.start.max(start), r.end.min(start + len));
            let lo = if on { lo } else { hi };
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

    /// Evaluates points `range` for the roots flagged in `roots` and folds
    /// each one's estimates into its `(max, first argmax)` in `best`. An
    /// equal estimate at an earlier point moves the argmax, so the result
    /// does not depend on the order ranges are folded in.
    fn fold_max(
        &mut self,
        data: &Columns,
        range: Range<usize>,
        roots: &[bool],
        pass: Pass,
        best: &mut [(f64, usize)],
    ) {
        if !self.enter(range.start, range.len(), roots) {
            return;
        }
        self.evaluate(data, pass);
        for (k, best) in best.iter_mut().enumerate() {
            let (first, bounds) = self.bounds(k);
            for (j, &b) in (first..).zip(bounds) {
                let est = sound_estimate(b);
                if est > best.0 || (est == best.0 && j < best.1) {
                    *best = (est, j);
                }
            }
        }
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
        if data.zeroed.is_some() {
            for (j, z) in (start..).zip(&mut self.zeroed[..len]) {
                *z = data.is_zeroed(j);
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
                    bound1(out, val(*arg), bnd(*arg), f)
                }
                Op::Poly { coeffs, arg } => {
                    let f = |x, e| bounds::poly_bound(coeffs, x, e);
                    bound1(out, val(*arg), bnd(*arg), f)
                }
                Op::Sqrt(arg) => {
                    let f = |x, e| bounds::sqrt_bound(cfg.sqrt_mode, x, e);
                    bound1(out, val(*arg), bnd(*arg), f)
                }
                Op::Radical { c, arg } => {
                    let f = |x, e| bounds::radical_bound(*c, x, e);
                    bound1(out, val(*arg), bnd(*arg), f)
                }
                Op::Sum(terms) => {
                    out.fill(0.0);
                    for (a, t) in terms {
                        for (o, e) in out.iter_mut().zip(bnd(*t)) {
                            *o += a.abs() * e;
                        }
                    }
                    for o in out.iter_mut() {
                        *o = bounds::guard(*o);
                    }
                }
                Op::Mul(l, r) => {
                    let (l, r) = ((val(*l), bnd(*l)), (val(*r), bnd(*r)));
                    bound2(out, l, r, bounds::product_bound)
                }
                Op::Div(l, r) => {
                    let (l, r) = ((val(*l), bnd(*l)), (val(*r), bnd(*r)));
                    bound2(out, l, r, bounds::quotient_bound)
                }
                // reverse triangle inequality: 1-Lipschitz, no guard
                Op::Abs(arg) => out.copy_from_slice(bnd(*arg)),
                Op::Ln(arg) => bound1(out, val(*arg), bnd(*arg), bounds::ln_bound),
                Op::Exp(arg) => bound1(out, val(*arg), bnd(*arg), bounds::exp_bound),
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

/// An estimate the scan or the tightening loop may compare to a tolerance.
///
/// A NaN bound (`∞·0` inside a product bound once a value overflows, or a
/// NaN reconstruction) compares false against everything, so taken as-is it
/// would certify the point as if its error were 0. It bounds nothing:
/// treat it as unboundable, like the `∞` the theorems return.
#[inline]
pub fn sound_estimate(bound: f64) -> f64 {
    if bound.is_nan() {
        f64::INFINITY
    } else {
        bound
    }
}

/// What a leaf's hull knows of one slot: every value the slot computes at
/// the leaf's points lies in the interval, and every bound it computes is
/// at most the `f64`. `None`: nothing — some point's bound may be `∞` or
/// NaN, or its value non-finite.
type SlotHull = Option<(Interval, f64)>;

/// `Some((enc, bound))` when all three are finite.
fn known(enc: Interval, bound: f64) -> SlotHull {
    (enc.lo.is_finite() && enc.hi.is_finite() && bound.is_finite()).then_some((enc, bound))
}

/// A `Var` slot's hull over its values at the points of one side of a
/// leaf, at bound `eps`.
fn var_hull<'a>(values: impl Iterator<Item = &'a f64>, eps: f64) -> SlotHull {
    let (mut lo, mut hi, mut nan) = (f64::INFINITY, f64::NEG_INFINITY, false);
    for &x in values {
        (lo, hi, nan) = (lo.min(x), hi.max(x), nan | x.is_nan());
    }
    known(Interval { lo, hi }, eps).filter(|_| !nan)
}

/// One extra step of [`bounds::guard`]'s inflation on a formula `b` computed from bound `e` with a function that is not
/// correctly rounded (`powi`, `ln_1p`, `exp`, `exp_m1`). At `e = 0` every
/// formula returns an exact 0 and needs none.
fn step(e: f64, b: f64) -> f64 {
    if e == 0.0 {
        b
    } else {
        b * (1.0 + INFLATE) + f64::MIN_POSITIVE
    }
}

/// The largest `|x|` over `x`.
fn mag(x: Interval) -> f64 {
    x.lo.abs().max(x.hi.abs())
}

/// The smallest `|x|` over `x`.
fn mig(x: Interval) -> f64 {
    if x.contains_zero() {
        0.0
    } else {
        x.lo.abs().min(x.hi.abs())
    }
}

/// The smallest interval holding `v`.
fn span(v: [f64; 4]) -> Interval {
    Interval {
        lo: v.into_iter().fold(f64::INFINITY, f64::min),
        hi: v.into_iter().fold(f64::NEG_INFINITY, f64::max),
    }
}

// Correctly rounded `+ × ÷` are monotone in each argument (on each side of
// a pole), so the same operation on the ends of the arguments' enclosures
// encloses every value computed from points inside them — no outward step.

fn add(a: Interval, b: Interval) -> Interval {
    Interval {
        lo: a.lo + b.lo,
        hi: a.hi + b.hi,
    }
}

fn mul(a: Interval, b: Interval) -> Interval {
    span([a.lo * b.lo, a.lo * b.hi, a.hi * b.lo, a.hi * b.hi])
}

/// `a / b` for `b` clear of 0.
fn div(a: Interval, b: Interval) -> Interval {
    span([a.lo / b.lo, a.lo / b.hi, a.hi / b.lo, a.hi / b.hi])
}

/// `x` with its lower end raised to 0: for functions whose computed values
/// are never negative, whatever the outward step did to the enclosure.
fn non_negative(x: Interval) -> Interval {
    Interval {
        lo: x.lo.max(0.0),
        hi: x.hi,
    }
}

/// The hull of a non-`Var` slot from its arguments' hulls (`arg`): the
/// enclosure of its computed values, and its own bound formula and guard
/// at the arguments' extremes — max `|x|` (or max `x`) where the formula
/// grows with `|x|`, min `|x|` where it shrinks, max `ε` everywhere.
fn op_hull(op: &Op, arg: impl Fn(usize) -> SlotHull, cfg: &BoundConfig) -> SlotHull {
    let g = bounds::guard;
    match op {
        Op::Var(_) => unreachable!("a Var's hull reads the data"),
        Op::Const(c) => known(Interval::point(*c), 0.0),
        Op::Pow { n, arg: a } => {
            let (x, e) = arg(*a)?;
            if *n as usize > HULL_MAX_POWER {
                return None;
            }
            let enc = x.pow(*n);
            let enc = if n % 2 == 0 { non_negative(enc) } else { enc };
            known(enc, g(step(e, bounds::power_bound(*n, mag(x), e))))
        }
        Op::Poly { coeffs, arg: a } => {
            let (x, e) = arg(*a)?;
            if coeffs.len() > HULL_MAX_POWER + 1 || !coeffs.iter().all(|c| c.is_finite()) {
                return None;
            }
            let horner = |acc, &c| add(mul(acc, x), Interval::point(c));
            let enc = coeffs.iter().rev().fold(Interval::point(0.0), horner);
            known(enc, g(step(e, bounds::poly_bound(coeffs, mag(x), e))))
        }
        Op::Sqrt(a) => {
            let (x, e) = arg(*a)?;
            // the exact-supremum formula is a difference of square roots,
            // not monotone as computed: no hull
            if cfg.sqrt_mode == SqrtMode::Exact || x.lo < 0.0 {
                return None;
            }
            let enc = Interval {
                lo: x.lo.sqrt(),
                hi: x.hi.sqrt(),
            };
            known(enc, g(bounds::sqrt_bound(SqrtMode::Paper, x.lo, e)))
        }
        Op::Radical { c, arg: a } => {
            let (x, e) = arg(*a)?;
            let d = add(x, Interval::point(*c));
            if d.contains_zero() || !d.lo.is_finite() || !d.hi.is_finite() {
                return None;
            }
            let enc = Interval {
                lo: 1.0 / d.hi,
                hi: 1.0 / d.lo,
            };
            known(enc, g(bounds::radical_bound(0.0, mig(d), e)))
        }
        Op::Sum(terms) => {
            let (mut enc, mut b) = (Interval::point(0.0), 0.0);
            for (a, t) in terms {
                let (x, e) = arg(*t)?;
                enc = add(enc, mul(x, Interval::point(*a)));
                b += a.abs() * e;
            }
            known(enc, g(b))
        }
        Op::Mul(l, r) => {
            let ((x1, e1), (x2, e2)) = (arg(*l)?, arg(*r)?);
            known(
                mul(x1, x2),
                g(bounds::product_bound(mag(x1), e1, mag(x2), e2)),
            )
        }
        Op::Div(l, r) => {
            let ((x1, e1), (x2, e2)) = (arg(*l)?, arg(*r)?);
            if x2.contains_zero() {
                return None;
            }
            let b = bounds::quotient_bound_split(mag(x1), e1, mag(x2), mig(x2), e2);
            known(div(x1, x2), g(b))
        }
        Op::Abs(a) => {
            let (x, e) = arg(*a)?;
            known(
                Interval {
                    lo: mig(x),
                    hi: mag(x),
                },
                e,
            )
        }
        Op::Ln(a) => {
            let (x, e) = arg(*a)?;
            known(x.ln(), g(step(e, bounds::ln_bound(x.lo, e))))
        }
        Op::Exp(a) => {
            let (x, e) = arg(*a)?;
            known(
                non_negative(x.exp()),
                g(step(e, bounds::exp_bound(x.hi, e))),
            )
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
fn bound1(out: &mut [f64], x: &[f64], e: &[f64], f: impl Fn(f64, f64) -> f64) {
    for ((o, &x), &e) in out.iter_mut().zip(x).zip(e) {
        *o = bounds::guard(f(x, e));
    }
}

/// `out = guard(f(value₁, bound₁, value₂, bound₂))` over two arguments'
/// `(value, bound)` columns.
fn bound2(
    out: &mut [f64],
    (x1, e1): (&[f64], &[f64]),
    (x2, e2): (&[f64], &[f64]),
    f: impl Fn(f64, f64, f64, f64) -> f64,
) {
    let cols = x1.iter().zip(e1).zip(x2.iter().zip(e2));
    for (o, ((&x1, &e1), (&x2, &e2))) in out.iter_mut().zip(cols) {
        *o = bounds::guard(f(x1, e1, x2, e2));
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
    fn smooth_leaves_are_ruled_out_and_the_answer_stays() {
        // the six GE QoIs over smooth flow with a wall: most hulls sit
        // below the maximum, a wall leaf's √ hull stays finite, and the
        // pruned search returns the full pass's answer
        let qois = ge::all();
        let exprs: Vec<&QoiExpr> = qois.iter().map(|(_, e)| e).collect();
        let program = QoiProgram::compile(&exprs);
        let n = 4 * BLOCK + 3;
        let wave = |a: f64, b: f64, f: f64| (0..n).map(move |j| a + b * (f * j as f64).sin());
        let fields: Vec<Vec<f64>> = vec![
            wave(30.0, 1.0, 0.01).collect(),
            wave(40.0, 1.0, 0.02).collect(),
            wave(5.0, 1.0, 0.03).collect(),
            wave(101_325.0, 5000.0, 0.01).collect(),
            wave(1.2, 0.1, 0.007).collect(),
        ];
        let cols: Vec<&[f64]> = fields.iter().map(Vec::as_slice).collect();
        let mut wall = vec![0u64; n.div_ceil(64)];
        wall[1] = u64::MAX;
        let data = Columns::new(&cols).zeroed(&[0, 1, 2], &wall);
        let (eps, cfg) = ([1e-3, 1e-3, 1e-3, 0.5, 1e-5], BoundConfig::default());
        let mut want = vec![(0.0f64, 0usize); exprs.len()];
        let pass = Pass::Bounded {
            eps: &eps,
            cfg: &cfg,
        };
        program.for_each_block(&data, 0..n, pass, |block| {
            for (k, best) in want.iter_mut().enumerate() {
                let (first, bounds) = block.bounds(k);
                for (j, &b) in (first..).zip(bounds) {
                    if b > best.0 {
                        *best = (b, j);
                    }
                }
            }
        });
        assert_eq!(program.max_bounds(&data, 0..n, &eps, &cfg), want);

        let hulls = program.leaf_hulls(&data, 0..n, &eps, &cfg);
        let rows: Vec<&[f64]> = hulls.chunks(exprs.len()).collect();
        assert_eq!(rows.len(), n.div_ceil(LEAF));
        // leaves 2 and 3 are all wall, and VTOT there is exactly 0
        assert_eq!((rows[2][0], rows[3][0]), (0.0, 0.0));
        for (k, &(max, _)) in want.iter().enumerate() {
            assert!(rows.iter().all(|r| r[k].is_finite()), "root {k}");
            let below = rows.iter().filter(|r| r[k] < max).count();
            assert!(2 * below > rows.len(), "root {k}: {below} leaves ruled out");
        }
        let interval = BoundConfig {
            estimator: Estimator::Interval,
            ..cfg
        };
        let hulls = program.leaf_hulls(&data, 0..n, &eps, &interval);
        assert!(hulls.iter().all(|&h| h == f64::INFINITY));
    }

    #[test]
    fn zeroed_points_read_exact_zero_on_the_listed_variables_only() {
        let e = QoiExpr::var(0).add(QoiExpr::var(1));
        let program = QoiProgram::compile(&[&e]);
        let (a, b) = ([5.0, 6.0, 7.0], [1.0, 1.0, 1.0]);
        let cols: [&[f64]; 2] = [&a, &b];
        let data = Columns::new(&cols).zeroed(&[0], &[0b010]);
        let cfg = BoundConfig::default();
        let pass = Pass::Bounded {
            eps: &[0.5, 0.25],
            cfg: &cfg,
        };
        let (full, zeroed) = (bounds::guard(0.75), bounds::guard(0.25));
        let mut visits = 0;
        program.for_each_block(&data, 0..3, pass, |block| {
            visits += 1;
            assert_eq!(block.values(0), (0, &[6.0, 1.0, 8.0][..]));
            assert_eq!(block.bounds(0), (0, &[full, zeroed, full][..]));
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
