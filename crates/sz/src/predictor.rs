//! Decorrelating predictors with a shared, deterministic traversal.
//!
//! Compression and decompression must visit points in the *same* order and
//! predict from the *same* (reconstructed) neighbour values — otherwise the
//! error bound breaks. Both sides therefore drive the single [`traverse`]
//! function and differ only in the visitor closure: the compressor quantizes
//! `original − prediction`, the decompressor applies the decoded code.
//!
//! The predictor is SZ3's **level-by-level interpolation**: points on the
//! dyadic grid are refined from stride `2s` to stride `s`, dimension by
//! dimension; each new point is predicted by cubic interpolation along the active axis
//! where four neighbours exist, linear where two exist, nearest otherwise.
//! At stride `s` with active axis `a`, the points visited are those with an
//! odd multiple of `s` on axis `a`, a multiple of `s` on every earlier axis
//! and of `2s` on every later one, in row-major order.
//!
//! The walk goes row by row. The outer axes (all but the last) advance
//! once per row and fix that row's base index; the last axis is walked
//! with a constant step `2s` (an odd multiple of `s` when it is the active
//! axis, a multiple of `2s` otherwise) and an incremental index. Each
//! axis's set of coordinates is an arithmetic progression that does not
//! depend on the other axes, so nesting one loop per axis, last innermost,
//! enumerates exactly the row-major order of a per-point odometer. Which
//! stencil applies depends only on the coordinate along the active axis:
//! when that axis is an outer one the stencil is fixed for the whole row,
//! and when it is the last axis the row splits into a head (`c = s`, no
//! `−3s` neighbour), a cubic middle, a linear stretch and at most one
//! left-copy point at the edge. Each stencil evaluates the odometer's
//! expression with the same operands in the same order, so the codes and
//! reconstructions are bit for bit the odometer's; the test module keeps
//! that odometer as the definition of the order and checks the two agree.
//!
//! Each constant-step run of one stencil (a *segment*) is bounds-checked
//! once, before its loop, by an `assert!` that stays in release builds:
//! its first point is at least the stencil's reach (`d` to the left, `3d`
//! for the cubic) from the start of the buffer, and its last point plus
//! that reach to the right lies inside it. The points between are the
//! first plus multiples of the step, so every neighbour read and every
//! store of the segment lies between those two extremes; the loop indexes
//! unchecked (`debug_assert!`ed per access). It is the one exception to
//! the workspace lint that denies unchecked code everywhere else.

use crate::config::Predictor;

/// Drives `visit(flat_index, prediction) -> reconstructed_value` over every
/// point of a `dims`-shaped row-major array exactly once, maintaining the
/// reconstruction in `recon` (which must be zero-filled, `len == ∏dims`).
/// `dims` needs at least one axis.
pub fn traverse<F>(predictor: Predictor, dims: &[usize], recon: &mut [f64], visit: F)
where
    F: FnMut(usize, f64) -> f64,
{
    let n: usize = dims.iter().product();
    assert_eq!(recon.len(), n, "recon buffer size mismatch");
    if n == 0 {
        return;
    }
    match predictor {
        Predictor::InterpCubic => traverse_interp(dims, recon, visit, true),
        Predictor::InterpLinear => traverse_interp(dims, recon, visit, false),
    }
}

/// Row-major strides of a shape.
fn strides(dims: &[usize]) -> Vec<usize> {
    let mut s = vec![1usize; dims.len()];
    for i in (0..dims.len().saturating_sub(1)).rev() {
        s[i] = s[i + 1] * dims[i + 1];
    }
    s
}

// ---------------------------------------------------------------------------
// Level-by-level interpolation (SZ3 style)
// ---------------------------------------------------------------------------

/// Cubic interpolation weights for neighbours at −3s, −s, +s, +3s.
const CUBIC_W: [f64; 4] = [-1.0 / 16.0, 9.0 / 16.0, 9.0 / 16.0, -1.0 / 16.0];

/// Which neighbours along the active axis predict a point.
#[derive(Clone, Copy)]
enum Stencil {
    /// Only `c − s` exists: copy it.
    Left,
    /// `c ± s`: their midpoint.
    Linear,
    /// `c ± s` and `c ± 3s`: the cubic weights.
    Cubic,
}

impl Stencil {
    /// The stencil for position `c` at stride `s` along an axis of extent
    /// `dim` (`c ≥ s` always).
    fn at(c: usize, s: usize, dim: usize, cubic: bool) -> Self {
        if c + s >= dim {
            Stencil::Left
        } else if cubic && c >= 3 * s && c + 3 * s < dim {
            Stencil::Cubic
        } else {
            Stencil::Linear
        }
    }
}

/// Visits flat indices `from, from + step, …` below `end` in order, each
/// predicted by `stencil` from its neighbours `d` apart (`d = s·stride` of
/// the active axis). Returns the first index on the progression at or past
/// `end`, where the next segment of the same row starts.
///
/// The segment's lowest and highest reads are asserted in bounds before its
/// loop, in release builds too; the loop then indexes unchecked.
#[allow(unsafe_code)]
#[inline(always)]
fn sweep<F>(
    recon: &mut [f64],
    visit: &mut F,
    from: usize,
    end: usize,
    step: usize,
    d: usize,
    stencil: Stencil,
) -> usize
where
    F: FnMut(usize, f64) -> f64,
{
    if from >= end {
        return from;
    }
    // the last point visited, and how far the stencil reaches either side
    let last = from + (end - 1 - from) / step * step;
    let (below, above) = match stencil {
        Stencil::Left => (d, 0),
        Stencil::Linear => (d, d),
        Stencil::Cubic => (d.saturating_mul(3), d.saturating_mul(3)),
    };
    assert!(
        from >= below && last < recon.len() && recon.len() - last > above,
        "segment {from}..={last} with reach {below}/{above} leaves {} points",
        recon.len()
    );
    let mut i = from;
    // SAFETY (every unchecked access below): `i` runs over `from, from +
    // step, …, last` and stops at `last` (never stepping past it, so it
    // cannot wrap), so `from ≤ i ≤ last`. The assert above gives
    // `below ≤ from` and `last + above < recon.len()`, hence every read
    // `i − below ≤ j ≤ i + above` and the store at `i` are in bounds.
    // `below` and `above` are the stencil's widest offsets (`3d` for the
    // cubic, `d` otherwise; a left copy reads nothing to the right).
    match stencil {
        Stencil::Left => {
            loop {
                debug_assert!(i >= d && i < recon.len());
                // SAFETY: `d ≤ i ≤ last < recon.len()`, see above.
                let left = unsafe { *recon.get_unchecked(i - d) };
                let v = visit(i, left);
                // SAFETY: `i ≤ last < recon.len()`.
                unsafe { *recon.get_unchecked_mut(i) = v };
                if i == last {
                    break;
                }
                i += step;
            }
        }
        Stencil::Linear => {
            loop {
                debug_assert!(i >= d && i + d < recon.len());
                // SAFETY: `d ≤ i` and `i + d ≤ last + d < recon.len()`.
                let pred =
                    unsafe { 0.5 * (*recon.get_unchecked(i - d) + *recon.get_unchecked(i + d)) };
                let v = visit(i, pred);
                // SAFETY: `i ≤ last < recon.len()`.
                unsafe { *recon.get_unchecked_mut(i) = v };
                if i == last {
                    break;
                }
                i += step;
            }
        }
        Stencil::Cubic => {
            loop {
                debug_assert!(i >= 3 * d && i + 3 * d < recon.len());
                // SAFETY: `3d ≤ i` and `i + 3d ≤ last + 3d < recon.len()`.
                let (ll, left, right, rr) = unsafe {
                    (
                        *recon.get_unchecked(i - 3 * d),
                        *recon.get_unchecked(i - d),
                        *recon.get_unchecked(i + d),
                        *recon.get_unchecked(i + 3 * d),
                    )
                };
                let pred =
                    CUBIC_W[0] * ll + CUBIC_W[1] * left + CUBIC_W[2] * right + CUBIC_W[3] * rr;
                let v = visit(i, pred);
                // SAFETY: `i ≤ last < recon.len()`.
                unsafe { *recon.get_unchecked_mut(i) = v };
                if i == last {
                    break;
                }
                i += step;
            }
        }
    }
    last + step
}

fn traverse_interp<F>(dims: &[usize], recon: &mut [f64], mut visit: F, cubic: bool)
where
    F: FnMut(usize, f64) -> f64,
{
    // Anchor: origin point, predicted as 0 (the quantizer escape-codes it if
    // the value is large).
    recon[0] = visit(0, 0.0);
    let max_dim = dims.iter().copied().max().unwrap_or(1);
    if max_dim <= 1 {
        return;
    }
    let st = strides(dims);
    let last = dims.len() - 1;
    let len = dims[last];
    // Top stride: smallest power of two p with p >= max_dim, start at p/2 so
    // that the only coordinate multiple of 2·s_top in range is 0 (the anchor
    // is then the entire known coarse grid).
    let mut s = max_dim.next_power_of_two() / 2;

    // Coordinates of the outer axes (all but the last) of the current row.
    let mut coord = vec![0usize; last];
    loop {
        for axis in 0..=last {
            if s >= dims[axis] {
                continue; // no coordinate ≥ s exists along this axis
            }
            // coord[axis] ∈ {s, 3s, …}; coord[b<axis] multiples of s;
            // coord[b>axis] multiples of 2s
            let first = |b: usize| if b == axis { s } else { 0 };
            let step = |b: usize| if b < axis { s } else { 2 * s };
            for (b, c) in coord.iter_mut().enumerate() {
                *c = first(b);
            }
            'rows: loop {
                let base: usize = coord.iter().zip(&st).map(|(c, k)| c * k).sum();
                if axis == last {
                    // the stencil changes along the row: head (c = s lacks
                    // its −3s neighbour), cubic middle, linear, left edge
                    let mut i = base + s;
                    if cubic && 2 * s < len {
                        i = sweep(recon, &mut visit, i, i + 1, 2 * s, s, Stencil::Linear);
                        let end = base + len.saturating_sub(3 * s);
                        i = sweep(recon, &mut visit, i, end, 2 * s, s, Stencil::Cubic);
                    }
                    let end = base + len.saturating_sub(s);
                    i = sweep(recon, &mut visit, i, end, 2 * s, s, Stencil::Linear);
                    sweep(recon, &mut visit, i, base + len, 2 * s, s, Stencil::Left);
                } else {
                    // the active coordinate is fixed along the row
                    let stencil = Stencil::at(coord[axis], s, dims[axis], cubic);
                    let d = s * st[axis];
                    sweep(recon, &mut visit, base, base + len, 2 * s, d, stencil);
                }
                // advance the outer axes (innermost fastest)
                let mut b = last;
                loop {
                    if b == 0 {
                        break 'rows;
                    }
                    b -= 1;
                    coord[b] += step(b);
                    if coord[b] < dims[b] {
                        break;
                    }
                    coord[b] = first(b);
                }
            }
        }
        if s == 1 {
            break;
        }
        s /= 2;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Traversal must visit every index exactly once, for any shape.
    fn assert_visits_all(predictor: Predictor, dims: &[usize]) {
        let n: usize = dims.iter().product();
        let mut seen = vec![0u32; n];
        let mut recon = vec![0.0; n];
        traverse(predictor, dims, &mut recon, |idx, _| {
            seen[idx] += 1;
            idx as f64
        });
        for (i, &c) in seen.iter().enumerate() {
            assert_eq!(c, 1, "{predictor:?} {dims:?}: index {i} visited {c}×");
        }
    }

    fn awkward_shapes() -> Vec<Vec<usize>> {
        vec![
            vec![1],
            vec![2],
            vec![3],
            vec![17],
            vec![64],
            vec![65],
            vec![5, 9],
            vec![16, 16],
            vec![7, 1],
            vec![1, 7],
            vec![4, 3, 7],
            vec![8, 8, 8],
            vec![1, 1, 1],
            vec![2, 5, 3],
        ]
    }

    #[test]
    fn interp_visits_every_point_once_awkward_shapes() {
        for dims in awkward_shapes() {
            assert_visits_all(Predictor::InterpCubic, &dims);
            assert_visits_all(Predictor::InterpLinear, &dims);
        }
    }

    /// The per-point odometer the row walk replaced, kept as the definition
    /// of the interpolation order: for each stride `s` (coarse to fine) and
    /// each axis, every point with an odd multiple of `s` on that axis,
    /// multiples of `s` on earlier axes and of `2s` on later ones, in
    /// row-major order; each predicted by [`odometer_predict`].
    fn odometer<F>(dims: &[usize], recon: &mut [f64], mut visit: F, cubic: bool)
    where
        F: FnMut(usize, f64) -> f64,
    {
        let nd = dims.len();
        let st = strides(dims);
        recon[0] = visit(0, 0.0);
        let max_dim = *dims.iter().max().unwrap();
        if max_dim <= 1 {
            return;
        }
        let mut s = max_dim.next_power_of_two() / 2;
        let mut coord = vec![0usize; nd];
        while s >= 1 {
            for axis in 0..nd {
                if s >= dims[axis] {
                    continue;
                }
                coord.iter_mut().for_each(|c| *c = 0);
                coord[axis] = s;
                'outer: loop {
                    let idx: usize = coord.iter().zip(&st).map(|(c, k)| c * k).sum();
                    let pred =
                        odometer_predict(recon, dims[axis], st[axis], idx, coord[axis], s, cubic);
                    recon[idx] = visit(idx, pred);
                    let mut a = nd;
                    loop {
                        if a == 0 {
                            break 'outer;
                        }
                        a -= 1;
                        coord[a] += if a < axis { s } else { 2 * s };
                        if coord[a] < dims[a] {
                            break;
                        }
                        coord[a] = if a == axis { s } else { 0 };
                    }
                }
            }
            if s == 1 {
                break;
            }
            s /= 2;
        }
    }

    /// Predicts the value at 1-D position `c` (flat `idx`) along an axis
    /// with element stride `stride` and extent `dim`, from known neighbours
    /// at `c ± s`, `c ± 3s`.
    fn odometer_predict(
        recon: &[f64],
        dim: usize,
        stride: usize,
        idx: usize,
        c: usize,
        s: usize,
        cubic: bool,
    ) -> f64 {
        let left = recon[idx - s * stride];
        if c + s >= dim {
            return left;
        }
        let right = recon[idx + s * stride];
        if cubic && c >= 3 * s && c + 3 * s < dim {
            let ll = recon[idx - 3 * s * stride];
            let rr = recon[idx + 3 * s * stride];
            return CUBIC_W[0] * ll + CUBIC_W[1] * left + CUBIC_W[2] * right + CUBIC_W[3] * rr;
        }
        0.5 * (left + right)
    }

    #[test]
    fn row_walk_matches_the_odometer_bit_for_bit() {
        // each visit returns a fixed pseudo-random value of its index, so a
        // prediction read from a wrong or not-yet-visited neighbour shows
        // in its bits
        let value = |idx: usize| {
            let h = (idx as u64 + 1).wrapping_mul(0x9e37_79b9_7f4a_7c15);
            (h >> 11) as f64 / (1u64 << 53) as f64 - 0.5
        };
        let mut shapes = awkward_shapes();
        shapes.extend([
            vec![2, 3, 2, 4],
            vec![13, 1, 29],
            vec![3, 33, 5],
            vec![32, 96, 96],
        ]);
        for dims in shapes {
            let n = dims.iter().product();
            for (predictor, cubic) in [
                (Predictor::InterpCubic, true),
                (Predictor::InterpLinear, false),
            ] {
                let mut want = Vec::with_capacity(n);
                odometer(
                    &dims,
                    &mut vec![0.0; n],
                    |i, p| {
                        want.push((i, p.to_bits()));
                        value(i)
                    },
                    cubic,
                );
                let mut got = Vec::with_capacity(n);
                traverse(predictor, &dims, &mut vec![0.0; n], |i, p| {
                    got.push((i, p.to_bits()));
                    value(i)
                });
                assert_eq!(got.len(), n, "{predictor:?} {dims:?}");
                assert!(
                    got == want,
                    "{predictor:?} {dims:?}: the walk left the odometer's order"
                );
            }
        }
    }

    #[test]
    fn interp_prediction_order_is_causal() {
        // Every prediction must only read already-visited points: run with a
        // sentinel and check predictions never see the sentinel.
        let dims = [33usize];
        let n = 33;
        let mut recon = vec![f64::NAN; n]; // NaN = not yet visited
        traverse(Predictor::InterpCubic, &dims, &mut recon, |idx, pred| {
            assert!(
                !pred.is_nan(),
                "prediction for {idx} read an unvisited point"
            );
            idx as f64
        });
    }

    #[test]
    fn interp_exactly_reproduces_linear_ramp_with_linear_interp() {
        // A linear function is predicted exactly by linear interpolation
        // except at the anchor and boundary-copy points.
        let dims = [65usize];
        let data: Vec<f64> = (0..65).map(|i| 2.0 * i as f64 + 1.0).collect();
        let mut recon = vec![0.0; 65];
        let mut exact = 0usize;
        traverse(Predictor::InterpLinear, &dims, &mut recon, |idx, pred| {
            if (pred - data[idx]).abs() < 1e-12 {
                exact += 1;
            }
            data[idx] // perfect reconstruction feed-back
        });
        // all interior midpoints are exact; only anchor (pred 0) and
        // right-edge copies may differ
        assert!(exact >= 60, "only {exact} exact predictions");
    }

    #[test]
    fn cubic_stencil_reproduces_cubic_polynomial_exactly() {
        // The 4-point weights (−1/16, 9/16, 9/16, −1/16) interpolate degree-3
        // polynomials exactly. Stride-1 predictions (odd indices) with a full
        // stencil (3 ≤ c ≤ dim−4) must therefore be exact when the feedback
        // values are exact.
        let dims = [129usize];
        let f = |x: f64| 0.5 * x * x * x - x * x + 3.0;
        let data: Vec<f64> = (0..129).map(|i| f(i as f64 / 64.0)).collect();
        let mut recon = vec![0.0; 129];
        let mut checked = 0usize;
        traverse(Predictor::InterpCubic, &dims, &mut recon, |idx, pred| {
            if idx % 2 == 1 && (3..=125).contains(&idx) {
                assert!(
                    (pred - data[idx]).abs() < 1e-12,
                    "idx {idx}: pred {pred} vs {}",
                    data[idx]
                );
                checked += 1;
            }
            data[idx]
        });
        assert!(checked >= 60, "only {checked} cubic predictions checked");
    }

    #[test]
    #[should_panic(expected = "leaves 10 points")]
    fn a_segment_reaching_past_the_end_is_refused() {
        // last point 9, and the cubic reads 9 + 3
        let mut recon = vec![0.0; 10];
        sweep(&mut recon, &mut |_, p| p, 3, 10, 2, 1, Stencil::Cubic);
    }

    #[test]
    #[should_panic(expected = "leaves 10 points")]
    fn a_segment_reaching_before_the_start_is_refused() {
        // the first point 2 reads 2 − 3
        let mut recon = vec![0.0; 10];
        sweep(&mut recon, &mut |_, p| p, 2, 5, 2, 1, Stencil::Cubic);
    }

    #[test]
    fn strides_row_major() {
        assert_eq!(strides(&[4, 3, 2]), vec![6, 2, 1]);
        assert_eq!(strides(&[10]), vec![1]);
    }

    #[test]
    fn interp_handles_4d() {
        assert_visits_all(Predictor::InterpCubic, &[2, 3, 2, 4]);
    }

    #[test]
    fn empty_array_is_noop() {
        let mut r: Vec<f64> = vec![];
        traverse(Predictor::InterpCubic, &[0], &mut r, |_, _| unreachable!());
    }
}
