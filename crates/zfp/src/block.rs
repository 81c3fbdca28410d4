//! Partitioning of 1/2/3-D arrays into 4^d blocks.
//!
//! Like ZFP, the codec operates on fixed 4×…×4 blocks so that the
//! decorrelating transform and the bitplane coder see a bounded, cache-sized
//! working set. Arrays whose dimensions are not multiples of 4 are padded by
//! replicating the last valid sample along each axis (clamp-to-edge), which
//! keeps padded lanes as smooth as the data and therefore cheap to code; the
//! scatter pass simply skips them on reconstruction.

/// Block side length along every axis.
pub const SIDE: usize = 4;

/// Geometry of the block grid covering an array.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BlockGrid {
    /// Array shape (1–3 dims).
    pub dims: Vec<usize>,
    /// Number of blocks along each axis (`ceil(dim / 4)`).
    pub blocks: Vec<usize>,
}

impl BlockGrid {
    /// Builds the grid for an array shape.
    ///
    /// # Panics
    /// If `dims` is empty or longer than 3 (the workspace supports 1–3-D
    /// Cartesian grids, like the rest of the PQR substrates).
    pub fn new(dims: &[usize]) -> Self {
        assert!(
            !dims.is_empty() && dims.len() <= 3,
            "block grids support 1-3 dims, got {dims:?}"
        );
        Self {
            dims: dims.to_vec(),
            blocks: dims.iter().map(|&d| d.div_ceil(SIDE)).collect(),
        }
    }

    /// Number of dimensions.
    pub fn ndims(&self) -> usize {
        self.dims.len()
    }

    /// Total number of blocks.
    pub fn num_blocks(&self) -> usize {
        self.blocks.iter().product()
    }

    /// Samples per block (`4^ndims`).
    pub fn block_len(&self) -> usize {
        SIDE.pow(self.ndims() as u32)
    }

    /// Number of array elements.
    pub fn num_elements(&self) -> usize {
        self.dims.iter().product()
    }

    /// Row-major strides of the array.
    fn strides(&self) -> [usize; 3] {
        let mut s = [0usize; 3];
        let nd = self.ndims();
        let mut acc = 1usize;
        for a in (0..nd).rev() {
            s[a] = acc;
            acc *= self.dims[a];
        }
        s
    }

    /// Block coordinates of block index `b` (row-major over `self.blocks`).
    fn block_coord(&self, b: usize) -> [usize; 3] {
        let nd = self.ndims();
        let mut c = [0usize; 3];
        let mut rem = b;
        for a in (0..nd).rev() {
            c[a] = rem % self.blocks[a];
            rem /= self.blocks[a];
        }
        c
    }

    /// Copies block `b` out of `data` into `out` (length [`block_len`]),
    /// replicating edge samples into padded lanes.
    ///
    /// [`block_len`]: BlockGrid::block_len
    pub fn gather(&self, data: &[f64], b: usize, out: &mut [f64]) {
        debug_assert_eq!(data.len(), self.num_elements());
        debug_assert_eq!(out.len(), self.block_len());
        let nd = self.ndims();
        let strides = self.strides();
        let bc = self.block_coord(b);
        // local (i,j,k) within the block, row-major over `nd` axes of SIDE
        for (local, slot) in out.iter_mut().enumerate() {
            let mut rem = local;
            let mut idx = 0usize;
            for a in (0..nd).rev() {
                let l = rem % SIDE;
                rem /= SIDE;
                // clamp-to-edge padding
                let g = (bc[a] * SIDE + l).min(self.dims[a] - 1);
                idx += g * strides[a];
            }
            *slot = data[idx];
        }
    }

    /// Writes block `b` from `vals` back into `data`, skipping padded lanes.
    pub fn scatter(&self, data: &mut [f64], b: usize, vals: &[f64]) {
        debug_assert_eq!(data.len(), self.num_elements());
        self.scatter_at(data, 0, b, vals);
    }

    /// [`BlockGrid::scatter`] into a window of the array: `data` holds the
    /// elements `offset..offset + data.len()`, and block `b` must lie inside
    /// it. The block goes in as rows of up to [`SIDE`] values along the last
    /// axis, each clipped at the array's edge.
    pub fn scatter_at(&self, data: &mut [f64], offset: usize, b: usize, vals: &[f64]) {
        debug_assert_eq!(vals.len(), self.block_len());
        let nd = self.ndims();
        let strides = self.strides();
        let bc = self.block_coord(b);
        // the block's extent and stride along each axis, the missing leading
        // axes of a 1-D or 2-D array read as extent 1
        let (mut extent, mut stride) = ([1usize; 3], [0usize; 3]);
        let mut start = 0usize;
        for a in 0..nd {
            let k = 3 - nd + a;
            let origin = bc[a] * SIDE;
            extent[k] = SIDE.min(self.dims[a] - origin);
            stride[k] = strides[a];
            start += origin * strides[a];
        }
        let start = start - offset;
        let run = extent[2];
        for i in 0..extent[0] {
            for j in 0..extent[1] {
                let at = start + i * stride[0] + j * stride[1];
                let v = (i * SIDE + j) * SIDE;
                data[at..at + run].copy_from_slice(&vals[v..v + run]);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grid_counts() {
        let g = BlockGrid::new(&[9]);
        assert_eq!(g.blocks, vec![3]);
        assert_eq!(g.block_len(), 4);
        let g = BlockGrid::new(&[8, 5]);
        assert_eq!(g.blocks, vec![2, 2]);
        assert_eq!(g.block_len(), 16);
        let g = BlockGrid::new(&[4, 4, 4]);
        assert_eq!(g.num_blocks(), 1);
        assert_eq!(g.block_len(), 64);
    }

    #[test]
    fn gather_scatter_roundtrip_exact_multiple() {
        let g = BlockGrid::new(&[8, 4]);
        let data: Vec<f64> = (0..32).map(|i| i as f64).collect();
        let mut out = vec![0.0; g.num_elements()];
        let mut blk = vec![0.0; g.block_len()];
        for b in 0..g.num_blocks() {
            g.gather(&data, b, &mut blk);
            g.scatter(&mut out, b, &blk);
        }
        assert_eq!(out, data);
    }

    #[test]
    fn gather_scatter_roundtrip_with_padding() {
        for dims in [vec![7], vec![5, 6], vec![3, 5, 2]] {
            let g = BlockGrid::new(&dims);
            let n = g.num_elements();
            let data: Vec<f64> = (0..n).map(|i| (i as f64).sin()).collect();
            let mut out = vec![f64::NAN; n];
            let mut blk = vec![0.0; g.block_len()];
            for b in 0..g.num_blocks() {
                g.gather(&data, b, &mut blk);
                g.scatter(&mut out, b, &blk);
            }
            assert_eq!(out, data, "dims {dims:?}");
        }
    }

    /// The per-element scatter: each lane's array index by a div/mod walk
    /// over the axes — the oracle the row scatter is held to.
    fn scatter_per_element(g: &BlockGrid, data: &mut [f64], b: usize, vals: &[f64]) {
        let nd = g.ndims();
        let strides = g.strides();
        let bc = g.block_coord(b);
        for (local, &v) in vals.iter().enumerate() {
            let mut rem = local;
            let mut idx = 0usize;
            let mut padded = false;
            for a in (0..nd).rev() {
                let l = rem % SIDE;
                rem /= SIDE;
                let g_a = bc[a] * SIDE + l;
                if g_a >= g.dims[a] {
                    padded = true;
                    break;
                }
                idx += g_a * strides[a];
            }
            if !padded {
                data[idx] = v;
            }
        }
    }

    #[test]
    fn row_scatter_matches_the_per_element_oracle() {
        for dims in [
            vec![1],
            vec![13],
            vec![4, 4],
            vec![5, 6],
            vec![9, 2],
            vec![3, 5, 2],
            vec![7, 9, 10],
            vec![1, 6, 5],
            vec![8, 4, 12],
        ] {
            let g = BlockGrid::new(&dims);
            let n = g.num_elements();
            let mut rows = vec![f64::NAN; n];
            let mut oracle = vec![f64::NAN; n];
            for b in 0..g.num_blocks() {
                // distinct values per (block, lane), padded lanes included
                let vals: Vec<f64> = (0..g.block_len())
                    .map(|l| (b * g.block_len() + l) as f64)
                    .collect();
                g.scatter(&mut rows, b, &vals);
                scatter_per_element(&g, &mut oracle, b, &vals);
            }
            assert_eq!(
                rows.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                oracle.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                "dims {dims:?}"
            );
            assert!(rows.iter().all(|v| !v.is_nan()), "dims {dims:?}");
            // a window of whole outer block rows takes the same values
            let inner: usize = dims[1..].iter().product();
            let rows_per_block = (SIDE * inner).min(n);
            let per_outer: usize = g.blocks[1..].iter().product();
            for (row, first) in (0..n).step_by(rows_per_block).enumerate() {
                let end = (first + rows_per_block).min(n);
                let mut window = vec![f64::NAN; end - first];
                for b in row * per_outer..(row + 1) * per_outer {
                    let vals: Vec<f64> = (0..g.block_len())
                        .map(|l| (b * g.block_len() + l) as f64)
                        .collect();
                    g.scatter_at(&mut window, first, b, &vals);
                }
                assert_eq!(window, oracle[first..end], "dims {dims:?} row {row}");
            }
        }
    }

    #[test]
    fn padding_replicates_edge_values() {
        // 1-D length 5: second block is [data[4], data[4], data[4], data[4]]
        let g = BlockGrid::new(&[5]);
        let data = vec![1.0, 2.0, 3.0, 4.0, 9.0];
        let mut blk = vec![0.0; 4];
        g.gather(&data, 1, &mut blk);
        assert_eq!(blk, vec![9.0, 9.0, 9.0, 9.0]);
    }

    #[test]
    fn block_order_is_row_major() {
        let g = BlockGrid::new(&[4, 8]);
        let data: Vec<f64> = (0..32).map(|i| i as f64).collect();
        let mut blk = vec![0.0; 16];
        // block 1 covers columns 4..8 of all 4 rows
        g.gather(&data, 1, &mut blk);
        assert_eq!(blk[0], 4.0);
        assert_eq!(blk[4], 12.0);
    }

    #[test]
    #[should_panic(expected = "1-3 dims")]
    fn four_dims_rejected() {
        BlockGrid::new(&[2, 2, 2, 2]);
    }
}
