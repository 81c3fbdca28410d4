//! Multilevel decomposition and recomposition (both bases).
//!
//! Decomposition runs fine→coarse: at each level stride `s` (1, 2, 4, …) and
//! for each axis in *reverse* order, fine nodes are replaced by their
//! interpolation residual; with [`Basis::Orthogonal`] the coarse nodes of the
//! pass then receive the L2-projection correction. Recomposition runs the
//! exact mirror (coarse→fine, forward axis order, correction subtracted
//! before interpolation), so `recompose(decompose(x)) == x` up to float
//! round-off.
//!
//! Every pass runs on the calling thread, walking its fine nodes in runs
//! along the last axis ([`for_each_pass_row`]). Retrieval refines fields
//! in parallel, one field per worker, and a round's idle threads help a
//! field decode its planes; the recompose of a multilevel rebuild stays on
//! the field's own thread.

use crate::hierarchy::{
    for_each_level_row, for_each_line, for_each_pass_row, level_strides, strides,
};
use crate::projection::{load_vector, solve_mass_tridiagonal};

/// Decomposition basis (§V-B of the paper).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Basis {
    /// Hierarchical basis — interpolation residuals only (PMGARD-HB).
    #[default]
    Hierarchical,
    /// Orthogonal basis — hierarchical + L2 projection (PMGARD/MGARD).
    Orthogonal,
}

impl Basis {
    /// Stable on-disk tag.
    pub(crate) fn tag(self) -> u8 {
        match self {
            Basis::Hierarchical => 0,
            Basis::Orthogonal => 1,
        }
    }

    /// Inverse of [`Basis::tag`].
    pub(crate) fn from_tag(t: u8) -> Option<Self> {
        match t {
            0 => Some(Basis::Hierarchical),
            1 => Some(Basis::Orthogonal),
            _ => None,
        }
    }
}

/// In-place multilevel decomposition of a row-major array.
///
/// On return, `data[0]` holds the root nodal value and every other entry
/// holds the multilevel coefficient of its (level, axis) fine set. Returns
/// the number of axis passes (interpolation + correction) executed.
pub fn decompose(data: &mut [f64], dims: &[usize], basis: Basis) -> u64 {
    let n: usize = dims.iter().product();
    assert_eq!(data.len(), n, "shape mismatch");
    let st = strides(dims);
    let mut passes = 0u64;
    for &s in &level_strides(dims) {
        for axis in (0..dims.len()).rev() {
            if s >= dims[axis] {
                continue;
            }
            interp_pass(data, dims, &st, axis, s, false);
            passes += 1;
            if basis == Basis::Orthogonal {
                apply_correction(data, dims, &st, axis, s, 1.0);
                passes += 1;
            }
        }
    }
    passes
}

/// In-place recomposition — the exact inverse of [`decompose`]. Returns
/// the number of axis passes executed.
pub fn recompose(data: &mut [f64], dims: &[usize], basis: Basis) -> u64 {
    let n: usize = dims.iter().product();
    assert_eq!(data.len(), n, "shape mismatch");
    let st = strides(dims);
    let mut passes = 0u64;
    for &s in level_strides(dims).iter().rev() {
        for axis in 0..dims.len() {
            if s >= dims[axis] {
                continue;
            }
            if basis == Basis::Orthogonal {
                apply_correction(data, dims, &st, axis, s, -1.0);
                passes += 1;
            }
            interp_pass(data, dims, &st, axis, s, true);
            passes += 1;
        }
    }
    passes
}

/// [`decompose`]; `workers` is ignored (the passes run on the calling
/// thread). Kept for callers written against the former per-pass fan-out.
pub fn decompose_with_workers(
    data: &mut [f64],
    dims: &[usize],
    basis: Basis,
    _workers: usize,
) -> u64 {
    decompose(data, dims, basis)
}

/// [`recompose`]; `workers` is ignored, as in [`decompose_with_workers`].
pub fn recompose_with_workers(
    data: &mut [f64],
    dims: &[usize],
    basis: Basis,
    _workers: usize,
) -> u64 {
    recompose(data, dims, basis)
}

/// One interpolation pass over the fine nodes of `(axis, s)`, run by run
/// along the last axis: `add == false` is the decompose residual
/// (`value -= interp`), `add == true` the recompose inverse
/// (`value += interp`). The interpolant is linear in the two coarse
/// neighbours along the axis (the left copy at the right edge) — a convex
/// combination, amplification ≤ 1, the fact behind the tight HB error
/// estimate. A fine node reads only coarse nodes, which the pass never
/// writes, so the visiting order does not change a bit.
fn interp_pass(data: &mut [f64], dims: &[usize], st: &[usize], axis: usize, s: usize, add: bool) {
    let dim = dims[axis];
    let off = s * st[axis];
    let along = axis == dims.len() - 1;
    for_each_pass_row(dims, axis, s, |first, len| {
        // the run's coordinate along `axis`: stepping when the run lies
        // along it, fixed otherwise
        let (c0, dc) = if along {
            (s, 2 * s)
        } else {
            ((first / st[axis]) % dim, 0)
        };
        for k in 0..len {
            let idx = first + 2 * s * k;
            let left = data[idx - off];
            let pred = if c0 + dc * k + s < dim {
                0.5 * (left + data[idx + off])
            } else {
                left
            };
            if add {
                data[idx] += pred;
            } else {
                data[idx] -= pred;
            }
        }
    });
}

/// Applies `sign · w` to the coarse nodes of the (axis, s) pass, where `w`
/// solves the per-line mass system built from the pass's fine coefficients.
fn apply_correction(
    data: &mut [f64],
    dims: &[usize],
    st: &[usize],
    axis: usize,
    s: usize,
    sign: f64,
) {
    let dim = dims[axis];
    let stride = st[axis];
    // coarse positions: 0, 2s, …; fine positions: s, 3s, …
    let n_coarse = (dim - 1) / (2 * s) + 1;
    let n_fine = if s >= dim {
        0
    } else {
        (dim - 1 - s) / (2 * s) + 1
    };
    if n_fine == 0 {
        return;
    }
    for_each_line(dims, axis, s, |base| {
        let mut w = load_vector(n_coarse, n_fine, |k| data[base + (s + 2 * s * k) * stride]);
        solve_mass_tridiagonal(&mut w);
        for (j, wj) in w.iter().enumerate() {
            data[base + 2 * s * j * stride] += sign * wj;
        }
    });
}

/// Gathers the coefficients of the level with stride `s` into a vector, in
/// the canonical (axis-ascending, odometer) order used everywhere.
pub fn gather_level(data: &[f64], dims: &[usize], s: usize) -> Vec<f64> {
    let mut out = Vec::new();
    for_each_level_row(dims, s, |first, len| {
        out.extend(data[first..].iter().step_by(2 * s).take(len));
    });
    out
}

/// Scatters a level's coefficients back into their array positions —
/// the inverse of [`gather_level`].
pub fn scatter_level(data: &mut [f64], dims: &[usize], s: usize, coeffs: &[f64]) {
    scatter_tiles(data, dims, s, |c, tile| {
        let src = &coeffs[64 * c..coeffs.len().min(64 * c + 64)];
        tile[..src.len()].copy_from_slice(src);
        src.len()
    });
}

/// [`scatter_level`] drawing the coefficients 64 at a time from
/// `tile(c, buf)`, which fills `buf` with coefficients `64c..` and returns
/// how many it wrote; they are written run by run along the last axis.
pub(crate) fn scatter_tiles(
    data: &mut [f64],
    dims: &[usize],
    s: usize,
    mut tile: impl FnMut(usize, &mut [f64; 64]) -> usize,
) {
    let mut buf = [0.0; 64];
    let (mut next, mut pos, mut have) = (0usize, 0usize, 0usize);
    for_each_level_row(dims, s, |first, len| {
        let (mut dst, mut left) = (first, len);
        while left > 0 {
            if pos == have {
                have = tile(next, &mut buf);
                assert!(have > 0, "level has fewer coefficients than positions");
                (next, pos) = (next + 1, 0);
            }
            let take = left.min(have - pos);
            for (x, &v) in data[dst..]
                .iter_mut()
                .step_by(2 * s)
                .zip(&buf[pos..pos + take])
            {
                *x = v;
            }
            (dst, pos, left) = (dst + 2 * s * take, pos + take, left - take);
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hierarchy::{for_each_point, PointSet};
    use pqr_util::stats::max_abs_diff;
    use proptest::prelude::*;

    /// The per-point reference of both transforms: every pass enumerates
    /// its fine nodes one by one through [`for_each_point`]'s odometer.
    fn pointwise(data: &mut [f64], dims: &[usize], basis: Basis, inverse: bool) {
        let st = strides(dims);
        let mut levels = level_strides(dims);
        let mut axes: Vec<usize> = (0..dims.len()).collect();
        if !inverse {
            axes.reverse();
        } else {
            levels.reverse();
        }
        let sign = if inverse { -1.0 } else { 1.0 };
        for &s in &levels {
            for &axis in &axes {
                if s >= dims[axis] {
                    continue;
                }
                if inverse && basis == Basis::Orthogonal {
                    apply_correction(data, dims, &st, axis, s, sign);
                }
                let (dim, off) = (dims[axis], s * st[axis]);
                for_each_point(dims, axis, s, PointSet::Fine, |idx, c| {
                    let left = data[idx - off];
                    let pred = if c + s < dim {
                        0.5 * (left + data[idx + off])
                    } else {
                        left
                    };
                    data[idx] -= sign * pred;
                });
                if !inverse && basis == Basis::Orthogonal {
                    apply_correction(data, dims, &st, axis, s, sign);
                }
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        #[test]
        fn row_passes_are_bit_identical_to_the_pointwise_reference(
            rank in 1usize..=3,
            d0 in 1usize..40,
            d1 in 1usize..24,
            d2 in 1usize..12,
            hb in any::<bool>(),
        ) {
            let dims = match rank {
                1 => vec![d0 * d1],
                2 => vec![d0, d1],
                _ => vec![d0, d1, d2],
            };
            let basis = if hb { Basis::Hierarchical } else { Basis::Orthogonal };
            let orig = wavy_nd(&dims);
            let (mut rows, mut points) = (orig.clone(), orig);
            decompose(&mut rows, &dims, basis);
            pointwise(&mut points, &dims, basis, false);
            let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            prop_assert_eq!(bits(&rows), bits(&points), "decompose {:?} {:?}", dims, basis);
            recompose(&mut rows, &dims, basis);
            pointwise(&mut points, &dims, basis, true);
            prop_assert_eq!(bits(&rows), bits(&points), "recompose {:?} {:?}", dims, basis);
        }
    }

    fn wavy(n: usize) -> Vec<f64> {
        (0..n)
            .map(|i| {
                let x = i as f64 * 0.01;
                (x * 3.0).sin() + 0.2 * (x * 11.0).cos() + 0.5 * x
            })
            .collect()
    }

    fn wavy_nd(dims: &[usize]) -> Vec<f64> {
        let n: usize = dims.iter().product();
        (0..n)
            .map(|i| {
                let x = i as f64 * 0.37;
                (x * 0.1).sin() + ((i % 17) as f64) * 0.01
            })
            .collect()
    }

    #[test]
    fn decompose_recompose_identity_1d() {
        for n in [1usize, 2, 3, 16, 17, 100, 1025] {
            for basis in [Basis::Hierarchical, Basis::Orthogonal] {
                let orig = wavy(n);
                let mut v = orig.clone();
                decompose(&mut v, &[n], basis);
                recompose(&mut v, &[n], basis);
                let err = max_abs_diff(&orig, &v);
                assert!(err < 1e-11, "n={n} {basis:?}: err {err}");
            }
        }
    }

    #[test]
    fn decompose_recompose_identity_nd() {
        for dims in [vec![5usize, 9], vec![16, 16], vec![4, 3, 7], vec![8, 9, 10]] {
            for basis in [Basis::Hierarchical, Basis::Orthogonal] {
                let orig = wavy_nd(&dims);
                let mut v = orig.clone();
                decompose(&mut v, &dims, basis);
                recompose(&mut v, &dims, basis);
                let err = max_abs_diff(&orig, &v);
                assert!(err < 1e-10, "dims {dims:?} {basis:?}: err {err}");
            }
        }
    }

    #[test]
    fn smooth_data_coefficients_decay_by_level() {
        // For a smooth function, finer levels must have smaller coefficients
        // (the whole point of multilevel decorrelation).
        let n = 1025;
        let data: Vec<f64> = (0..n).map(|i| (i as f64 / 200.0).sin()).collect();
        let mut v = data.clone();
        decompose(&mut v, &[n], Basis::Hierarchical);
        let levels = level_strides(&[n]);
        let max_at = |s: usize| {
            gather_level(&v, &[n], s)
                .iter()
                .fold(0.0f64, |m, c| m.max(c.abs()))
        };
        // finest vs coarsest: several orders of magnitude apart
        let fine = max_at(levels[0]);
        let coarse = max_at(*levels.last().unwrap());
        assert!(
            fine * 100.0 < coarse,
            "no decay: fine {fine}, coarse {coarse}"
        );
    }

    #[test]
    fn hierarchical_coefficient_perturbation_error_bounded() {
        // Perturb every coefficient of every level by ±e_l and verify the
        // reconstruction error stays below d·Σ e_l — the HB estimator claim.
        let dims = [33usize, 17];
        let orig = wavy_nd(&dims);
        let mut v = orig.clone();
        decompose(&mut v, &dims, Basis::Hierarchical);

        let levels = level_strides(&dims);
        let mut budget = 0.0;
        let mut rng = 0xabcdef12u64;
        for (li, &s) in levels.iter().enumerate() {
            let e = 1e-4 / (li + 1) as f64;
            budget += 2.0 * e; // d = 2 axes
            let mut coeffs = gather_level(&v, &dims, s);
            for c in &mut coeffs {
                rng ^= rng << 13;
                rng ^= rng >> 7;
                rng ^= rng << 17;
                let delta = (rng as f64 / u64::MAX as f64) * 2.0 - 1.0;
                *c += e * delta;
            }
            scatter_level(&mut v, &dims, s, &coeffs);
        }
        recompose(&mut v, &dims, Basis::Hierarchical);
        let err = max_abs_diff(&orig, &v);
        assert!(err <= budget, "err {err} exceeds HB budget {budget}");
    }

    #[test]
    fn orthogonal_perturbation_error_within_conservative_model() {
        // Same experiment for OB: the error must stay below the κ-compounded
        // model of error_est (checked there too; here a coarse sanity factor).
        let dims = [65usize];
        let orig = wavy(65);
        let mut v = orig.clone();
        decompose(&mut v, &dims, Basis::Orthogonal);
        let levels = level_strides(&dims);
        let e = 1e-5;
        for &s in &levels {
            let mut coeffs = gather_level(&v, &dims, s);
            for c in &mut coeffs {
                *c += e;
            }
            scatter_level(&mut v, &dims, s, &coeffs);
        }
        recompose(&mut v, &dims, Basis::Orthogonal);
        let err = max_abs_diff(&orig, &v);
        // honest propagation bound: (1+κ)·e per level (1-D)
        let honest: f64 = crate::error_est::OB_PASS * e * levels.len() as f64;
        assert!(err <= honest, "err {err} exceeds honest OB bound {honest}");
        // and therefore below the κ-compounded guaranteed model too
        let model = crate::error_est::recon_bound(Basis::Orthogonal, &dims, &vec![e; levels.len()]);
        assert!(err <= model, "err {err} exceeds OB model {model}");
    }

    #[test]
    fn gather_scatter_roundtrip() {
        let dims = [7usize, 5];
        let mut v = wavy_nd(&dims);
        let before = v.clone();
        for &s in &level_strides(&dims) {
            let coeffs = gather_level(&v, &dims, s);
            scatter_level(&mut v, &dims, s, &coeffs);
        }
        assert_eq!(before, v);
    }

    #[test]
    fn basis_tag_roundtrip() {
        for b in [Basis::Hierarchical, Basis::Orthogonal] {
            assert_eq!(Basis::from_tag(b.tag()), Some(b));
        }
        assert_eq!(Basis::from_tag(7), None);
    }

    #[test]
    fn single_point_array_is_identity() {
        let mut v = vec![42.0];
        decompose(&mut v, &[1], Basis::Orthogonal);
        assert_eq!(v, vec![42.0]);
        recompose(&mut v, &[1], Basis::Orthogonal);
        assert_eq!(v, vec![42.0]);
    }

    #[test]
    fn ob_differs_from_hb_on_coarse_values() {
        let n = 65;
        let data = wavy(n);
        let mut hb = data.clone();
        let mut ob = data.clone();
        decompose(&mut hb, &[n], Basis::Hierarchical);
        decompose(&mut ob, &[n], Basis::Orthogonal);
        assert!(
            (hb[0] - ob[0]).abs() > 1e-12,
            "L2 projection should move the root value"
        );
    }
}
