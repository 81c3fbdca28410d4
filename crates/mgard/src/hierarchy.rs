//! Dyadic level hierarchy and point enumeration on arbitrary extents.
//!
//! A level step transforms the grid of stride `s` (all coordinates multiples
//! of `s`) into the grid of stride `2s` plus *fine-node coefficients*. Fine
//! nodes along `axis` at level `s` have `coord[axis] ≡ s (mod 2s)`; axes
//! *before* the active one have already been refined this level (multiples
//! of `s`), axes *after* it have not (multiples of `2s`). Both the
//! decomposition (fine→coarse, reverse axis order) and the recomposition
//! (coarse→fine, forward axis order) enumerate exactly these sets — the two
//! directions are mirror images, which is what makes the transform exactly
//! invertible.

/// Row-major element strides of a shape.
pub fn strides(dims: &[usize]) -> Vec<usize> {
    let mut s = vec![1usize; dims.len()];
    for i in (0..dims.len().saturating_sub(1)).rev() {
        s[i] = s[i + 1] * dims[i + 1];
    }
    s
}

/// The level strides of a shape: `{2^j : 2^j < max(dims)}`, finest first.
/// Empty when every extent is ≤ 1 (nothing to decompose).
pub fn level_strides(dims: &[usize]) -> Vec<usize> {
    let max_dim = dims.iter().copied().max().unwrap_or(0);
    if max_dim <= 1 {
        return Vec::new();
    }
    let mut v = Vec::new();
    let mut s = 1usize;
    while s < max_dim {
        v.push(s);
        s *= 2;
    }
    v
}

/// Which point set of an axis pass to enumerate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PointSet {
    /// Fine nodes: `coord[axis] ≡ s (mod 2s)`.
    Fine,
    /// Coarse nodes: `coord[axis] ≡ 0 (mod 2s)` (the L2-correction targets).
    Coarse,
}

/// Enumerates the points of the `axis` pass at level stride `s`.
///
/// `f(flat_index, coord_along_axis)` is called in a deterministic order
/// (odometer, last axis fastest) — the same order on the compression and
/// reconstruction sides, and the order used to group level coefficients for
/// bitplane coding.
pub fn for_each_point(
    dims: &[usize],
    axis: usize,
    s: usize,
    set: PointSet,
    mut f: impl FnMut(usize, usize),
) {
    let nd = dims.len();
    debug_assert!(axis < nd);
    let st = strides(dims);
    let axis_start = match set {
        PointSet::Fine => s,
        PointSet::Coarse => 0,
    };
    if axis_start >= dims[axis] {
        return;
    }
    let mut coord = vec![0usize; nd];
    coord[axis] = axis_start;
    'outer: loop {
        let idx: usize = coord.iter().zip(&st).map(|(c, k)| c * k).sum();
        f(idx, coord[axis]);

        // advance odometer, last axis fastest
        let mut a = nd;
        loop {
            if a == 0 {
                break 'outer;
            }
            a -= 1;
            let step = if a == axis {
                2 * s
            } else if a < axis {
                s
            } else {
                2 * s
            };
            coord[a] += step;
            if coord[a] < dims[a] {
                break;
            }
            coord[a] = if a == axis { axis_start } else { 0 };
        }
    }
}

/// Enumerates the fine set of the `axis` pass at stride `s` as runs along
/// the last axis, in [`for_each_point`]'s order: `f(first, len)` once per
/// run, whose points are the flat indices `first + 2s·k` for `k < len`
/// (along the last axis every pass steps by `2s`: it is either the active
/// axis or one not yet refined).
pub fn for_each_pass_row(dims: &[usize], axis: usize, s: usize, mut f: impl FnMut(usize, usize)) {
    let last = dims.len() - 1;
    if s >= dims[axis] {
        return;
    }
    let st = strides(dims);
    let start = if axis == last { s } else { 0 };
    let len = (dims[last] - 1 - start) / (2 * s) + 1;
    // odometer over the outer axes
    let mut coord = vec![0usize; last];
    if axis < last {
        coord[axis] = s;
    }
    'rows: loop {
        let base: usize = coord.iter().zip(&st).map(|(c, k)| c * k).sum();
        f(base + start, len);
        let mut a = last;
        loop {
            if a == 0 {
                break 'rows;
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

/// [`for_each_pass_row`] over every axis pass of the level at stride `s`:
/// the level's coefficients in coefficient order, run by run.
pub fn for_each_level_row(dims: &[usize], s: usize, mut f: impl FnMut(usize, usize)) {
    for axis in 0..dims.len() {
        for_each_pass_row(dims, axis, s, &mut f);
    }
}

/// Enumerates the *lines* of an axis pass at stride `s`: calls
/// `f(base_flat_index)` once per line, where a line is the set of points
/// sharing all non-axis coordinates (axes before the active one on the
/// `s`-grid, after it on the `2s`-grid). Walk the line from `base` with the
/// axis element stride.
pub fn for_each_line(dims: &[usize], axis: usize, s: usize, mut f: impl FnMut(usize)) {
    let nd = dims.len();
    let st = strides(dims);
    let mut coord = vec![0usize; nd];
    'outer: loop {
        let idx: usize = coord.iter().zip(&st).map(|(c, k)| c * k).sum();
        f(idx);
        let mut a = nd;
        loop {
            if a == 0 {
                break 'outer;
            }
            a -= 1;
            if a == axis {
                continue; // the line direction is not enumerated
            }
            let step = if a < axis { s } else { 2 * s };
            coord[a] += step;
            if coord[a] < dims[a] {
                break;
            }
            coord[a] = 0;
        }
        if nd == 1 {
            break; // single line in 1-D
        }
    }
}

/// Number of fine nodes introduced by the full level step at stride `s`
/// (union over all axis passes) — the size of the level's coefficient group.
pub fn level_coefficient_count(dims: &[usize], s: usize) -> usize {
    let mut count = 0usize;
    for axis in 0..dims.len() {
        if s >= dims[axis] {
            continue;
        }
        let fine_axis = count_grid(dims[axis], s, true);
        let mut prod = fine_axis;
        for (a, &d) in dims.iter().enumerate() {
            if a == axis {
                continue;
            }
            let stride = if a < axis { s } else { 2 * s };
            prod *= count_grid(d, stride, false);
        }
        count += prod;
    }
    count
}

/// Number of grid coordinates in `[0, dim)`: multiples of `2s` offset by `s`
/// (fine) or multiples of `stride` (coarse, pass `s=stride`).
fn count_grid(dim: usize, s: usize, fine: bool) -> usize {
    if fine {
        if s >= dim {
            0
        } else {
            (dim - 1 - s) / (2 * s) + 1
        }
    } else {
        (dim - 1) / s + 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn level_strides_examples() {
        assert_eq!(level_strides(&[1]), Vec::<usize>::new());
        assert_eq!(level_strides(&[2]), vec![1]);
        assert_eq!(level_strides(&[5]), vec![1, 2, 4]);
        assert_eq!(level_strides(&[64]), vec![1, 2, 4, 8, 16, 32]);
        assert_eq!(level_strides(&[65]), vec![1, 2, 4, 8, 16, 32, 64]);
        assert_eq!(level_strides(&[3, 9]), vec![1, 2, 4, 8]);
    }

    #[test]
    fn level_rows_visit_the_points_in_point_order() {
        for dims in [
            vec![1usize],
            vec![2],
            vec![17],
            vec![5, 1],
            vec![1, 6],
            vec![7, 5],
            vec![4, 3, 7],
            vec![1, 9, 2],
            vec![8, 9, 10],
        ] {
            for &s in &level_strides(&dims) {
                let mut want = Vec::new();
                for axis in 0..dims.len() {
                    for_each_point(&dims, axis, s, PointSet::Fine, |idx, _| want.push(idx));
                }
                let mut got = Vec::new();
                for_each_level_row(&dims, s, |first, len| {
                    got.extend((0..len).map(|k| first + 2 * s * k));
                });
                assert_eq!(got, want, "dims {dims:?} s={s}");
            }
        }
    }

    /// The union of all (level, axis) fine sets plus the origin must tile the
    /// whole array exactly once.
    fn assert_partition(dims: &[usize]) {
        let n: usize = dims.iter().product();
        let mut seen = vec![0u32; n];
        seen[0] += 1; // root
        for &s in &level_strides(dims) {
            for axis in 0..dims.len() {
                for_each_point(dims, axis, s, PointSet::Fine, |idx, _| {
                    seen[idx] += 1;
                });
            }
        }
        for (i, &c) in seen.iter().enumerate() {
            assert_eq!(c, 1, "dims {dims:?}: index {i} covered {c}×");
        }
    }

    #[test]
    fn fine_sets_partition_the_array() {
        for dims in [
            vec![1],
            vec![2],
            vec![3],
            vec![17],
            vec![64],
            vec![65],
            vec![5, 9],
            vec![16, 16],
            vec![7, 1],
            vec![4, 3, 7],
            vec![8, 8, 8],
            vec![2, 5, 3],
        ] {
            assert_partition(&dims);
        }
    }

    #[test]
    fn level_coefficient_count_matches_enumeration() {
        for dims in [vec![17], vec![5, 9], vec![4, 3, 7], vec![8, 8, 8]] {
            for &s in &level_strides(&dims) {
                let mut n = 0usize;
                for axis in 0..dims.len() {
                    for_each_point(&dims, axis, s, PointSet::Fine, |_, _| n += 1);
                }
                assert_eq!(n, level_coefficient_count(&dims, s), "dims {dims:?} s={s}");
            }
        }
    }

    #[test]
    fn total_coefficients_plus_root_equals_n() {
        for dims in [vec![100], vec![13, 22], vec![9, 9, 9]] {
            let n: usize = dims.iter().product();
            let total: usize = level_strides(&dims)
                .iter()
                .map(|&s| level_coefficient_count(&dims, s))
                .sum();
            assert_eq!(total + 1, n, "dims {dims:?}");
        }
    }

    #[test]
    fn coarse_enumeration_covers_2s_grid() {
        let dims = [8usize];
        let mut got = Vec::new();
        for_each_point(&dims, 0, 2, PointSet::Coarse, |idx, c| {
            got.push((idx, c));
        });
        assert_eq!(got, vec![(0, 0), (4, 4)]);
    }

    #[test]
    fn lines_enumerate_each_line_once_2d() {
        // axis 1 pass at s=2 on a 5×9 grid: lines indexed by coord0 ∈ {0,2,4}
        let dims = [5usize, 9];
        let mut bases = HashSet::new();
        for_each_line(&dims, 1, 2, |base| {
            assert!(bases.insert(base), "line {base} repeated");
        });
        assert_eq!(bases, HashSet::from([0usize, 18, 36]));
    }

    #[test]
    fn lines_axis0_pass_use_2s_on_later_axes() {
        // axis 0 pass at s=2 on a 5×9 grid: lines indexed by coord1 ∈ {0,4,8}
        let dims = [5usize, 9];
        let mut bases = Vec::new();
        for_each_line(&dims, 0, 2, |base| bases.push(base));
        assert_eq!(bases, vec![0, 4, 8]);
    }

    #[test]
    fn one_dimensional_single_line() {
        let mut count = 0;
        for_each_line(&[33], 0, 4, |base| {
            assert_eq!(base, 0);
            count += 1;
        });
        assert_eq!(count, 1);
    }

    #[test]
    fn fine_points_order_is_deterministic() {
        let dims = [4usize, 5];
        let mut a = Vec::new();
        let mut b = Vec::new();
        for_each_point(&dims, 0, 1, PointSet::Fine, |i, _| a.push(i));
        for_each_point(&dims, 0, 1, PointSet::Fine, |i, _| b.push(i));
        assert_eq!(a, b);
        assert!(!a.is_empty());
    }
}
