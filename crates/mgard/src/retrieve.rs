//! Progressive retrieval: greedy bitplane fetching under an L∞ target.
//!
//! The reader tracks, per level, how many planes it has fetched and the
//! resulting coefficient truncation bound; the guaranteed reconstruction
//! bound is the basis-specific model of [`crate::error_est`]. Planes are
//! fetched in one fixed order, [`plane_order`]: each step takes the next
//! plane of the level whose *current error contribution* is largest — the
//! schedule that decreases the modeled bound fastest per fetched plane
//! (coarse levels hold few coefficients, so their planes are cheap and
//! fetched deep; exactly how PMGARD behaves). A refinement request takes
//! that order's next planes until the bound it reaches is ≤ the target.

use crate::bitplane::{DecodedPlane, LevelDecoder, PlaneDecoder};
use crate::error_est::{level_weight, recon_bound};
use crate::hierarchy::level_strides;
use crate::refactor::{MgardMeta, MgardStream};
use crate::transform::{recompose, scatter_tiles, Basis};
use pqr_util::error::Result;

/// The order every reader consumes a stream's planes in, computed from
/// metadata alone: the start bound (no plane consumed) and each
/// `(level, plane, bound after it)` push, down to the last stored plane.
/// From zero planes, each step takes the next plane of the level whose
/// next plane removes the most modeled error (the first such level on a
/// tie). The bound model reads per-level consumed-plane counts only
/// (`truncation_error` over the metadata exponents), so the bound after a
/// step is exactly what [`MgardCursor::guaranteed_bound`] reports once
/// that prefix is pushed. This is the one place the order is written.
pub fn plane_order(meta: &MgardMeta) -> (f64, Vec<(usize, u32, f64)>) {
    use crate::bitplane::truncation_error;
    let (basis, dims, levels) = (meta.basis(), meta.dims(), meta.levels());
    let weights: Vec<f64> = (0..levels.len())
        .map(|l| level_weight(basis, dims, l))
        .collect();
    // `recon_bound`'s sum, term for term, over the precomputed weights
    let bound = |errs: &[f64]| -> f64 { weights.iter().zip(errs).map(|(w, e)| w * e).sum() };
    let mut planes = vec![0u32; levels.len()];
    let mut errs: Vec<f64> = levels
        .iter()
        .map(|l| truncation_error(l.exponent, 0))
        .collect();
    let start = bound(&errs);
    let mut out = Vec::with_capacity(meta.total_planes());
    loop {
        let mut best: Option<(usize, f64)> = None;
        for (l, lm) in levels.iter().enumerate() {
            if planes[l] >= lm.num_planes {
                continue;
            }
            let contribution = weights[l] * errs[l];
            match best {
                Some((_, c)) if c >= contribution => {}
                _ => best = Some((l, contribution)),
            }
        }
        let Some((l, _)) = best else {
            return (start, out);
        };
        let plane = planes[l];
        planes[l] += 1;
        errs[l] = truncation_error(levels[l].exponent, planes[l]);
        out.push((l, plane, bound(&errs)));
    }
}

/// Push-based progressive decoder over [`MgardMeta`].
///
/// A cursor holds only the stream's *metadata* plus decode state — it never
/// sees where the plane payloads live. The owner takes `(level, plane)`
/// pushes in [`plane_order`], fetches those bytes from wherever the stream
/// is stored (memory, a file range, a remote store), and pushes them in
/// with [`MgardCursor::push_plane`]. The borrowing [`MgardReader`] and the
/// fragment-addressed backend in `pqr-progressive` both consume that one
/// order, so the refinement schedule and the error model cannot drift
/// between local and remote paths.
#[derive(Debug, Clone)]
pub struct MgardCursor {
    meta: MgardMeta,
    decoders: Vec<LevelDecoder>,
}

impl MgardCursor {
    /// Creates a cursor at zero consumed planes.
    pub fn new(meta: MgardMeta) -> Self {
        let decoders = meta
            .levels()
            .iter()
            .map(|l| LevelDecoder::new(l.exponent, l.count))
            .collect();
        Self { meta, decoders }
    }

    /// The metadata this cursor decodes against.
    pub fn meta(&self) -> &MgardMeta {
        &self.meta
    }

    /// The guaranteed L∞ bound of [`MgardCursor::reconstruct`] at the
    /// current state (the basis-specific model — what the QoI machinery
    /// consumes as the primary-data ε).
    pub fn guaranteed_bound(&self) -> f64 {
        let errs: Vec<f64> = self.decoders.iter().map(|d| d.error_bound()).collect();
        recon_bound(self.meta.basis(), self.meta.dims(), &errs)
    }

    /// True when every plane of every level has been consumed.
    pub fn fully_fetched(&self) -> bool {
        self.decoders
            .iter()
            .zip(self.meta.levels())
            .all(|(d, l)| d.planes_read() >= l.num_planes)
    }

    /// Planes consumed so far, per level — the resumable progress marker.
    pub fn planes_read(&self) -> Vec<u32> {
        self.decoders.iter().map(|d| d.planes_read()).collect()
    }

    /// Consumes the next plane of `level` (planes must arrive in MSB-first
    /// order per level; the plane index is implicit in the decode state).
    pub fn push_plane(&mut self, level: usize, bytes: &[u8]) -> Result<()> {
        self.check_level(level)?;
        let plane = self.decoders[level].plane_decoder().decode(bytes)?;
        self.apply_plane(level, plane)
    }

    /// Each level's plane decoder (see [`LevelDecoder::plane_decoder`]),
    /// for decoding off the cursor's thread.
    pub fn plane_decoders(&self) -> Vec<PlaneDecoder> {
        self.decoders
            .iter()
            .map(LevelDecoder::plane_decoder)
            .collect()
    }

    /// Takes the next plane of `level`, decoded by that level's
    /// [`MgardCursor::plane_decoders`] entry.
    pub fn apply_plane(&mut self, level: usize, plane: DecodedPlane) -> Result<()> {
        self.check_level(level)?;
        self.decoders[level].apply_plane(plane)
    }

    /// Planes consumed so far of `level`.
    pub fn level_planes_read(&self, level: usize) -> u32 {
        self.decoders[level].planes_read()
    }

    /// `level` exists and has a plane left.
    fn check_level(&self, level: usize) -> Result<()> {
        let Some(lm) = self.meta.levels().get(level) else {
            return Err(pqr_util::error::PqrError::InvalidRequest(format!(
                "level {level} out of range ({} levels)",
                self.meta.num_levels()
            )));
        };
        if self.decoders[level].planes_read() >= lm.num_planes {
            return Err(pqr_util::error::PqrError::InvalidRequest(format!(
                "level {level} already fully fetched"
            )));
        }
        Ok(())
    }

    /// Folds every level's newly pushed planes into its magnitudes (see
    /// [`LevelDecoder::fold`]), so the next reconstruction reads each level
    /// once. Reconstructions are the same with or without it.
    pub fn fold(&mut self) {
        for d in &mut self.decoders {
            d.fold();
        }
    }

    /// Recomposes the data representation from the planes consumed so far.
    pub fn reconstruct(&self) -> Vec<f64> {
        let mut v = Vec::new();
        self.reconstruct_into(&mut v);
        v
    }

    /// [`MgardCursor::reconstruct`] into a caller-provided (pooled) buffer:
    /// each level is written straight from its decoder into its positions,
    /// run by run along the last axis, then one serial recompose runs.
    /// Reusing `out` across refinement rounds removes the per-round
    /// full-field allocation. Returns the number of recompose passes
    /// executed.
    pub fn reconstruct_into(&self, out: &mut Vec<f64>) -> u64 {
        let dims = self.meta.dims();
        let n: usize = dims.iter().product();
        out.clear();
        out.resize(n, 0.0);
        if n == 0 {
            return 0;
        }
        out[0] = self.meta.root();
        for (l, &s) in level_strides(dims).iter().enumerate() {
            let dec = &self.decoders[l];
            scatter_tiles(out, dims, s, |c, tile| dec.tile_values(c, tile));
        }
        recompose(out, dims, self.meta.basis())
    }

    /// Progression in **resolution** (the other PMGARD axis, §II): drops the
    /// `drop_finest` finest levels entirely and reconstructs on the coarse
    /// subgrid of stride `2^drop_finest` (coordinates that are multiples of
    /// the stride). Returns `(coarse_data, coarse_dims)`.
    ///
    /// The returned values are the multilevel reconstruction restricted to
    /// the coarse grid — downsampling in the hierarchy, not in index space —
    /// so a precision-progressive reader can later upgrade the same bytes
    /// to full resolution (the PMGARD "both progressions" property).
    pub fn reconstruct_at_resolution(&self, drop_finest: usize) -> (Vec<f64>, Vec<usize>) {
        let mut out = Vec::new();
        let coarse_dims = self.reconstruct_at_resolution_into(drop_finest, &mut out);
        (out, coarse_dims)
    }

    /// [`MgardCursor::reconstruct_at_resolution`] into a caller-provided
    /// buffer. The multilevel hierarchy is self-similar, so the coarse view
    /// is recomposed **directly on the coarse grid**: the kept levels'
    /// strides scale down by `2^drop`, which preserves every per-axis grid
    /// count (`ceil(d/2^k) = (d-1)/2^k + 1`). No full-resolution scratch
    /// buffer and no sampling pass — and the values are bit-identical to
    /// recomposing in full and sampling the subgrid, because a dropped
    /// level's interpolation pass writes only non-subgrid points and its
    /// correction solves an all-zero load (an exact no-op on the coarse
    /// nodes). Returns the coarse dims.
    pub fn reconstruct_at_resolution_into(
        &self,
        drop_finest: usize,
        out: &mut Vec<f64>,
    ) -> Vec<usize> {
        let dims = self.meta.dims();
        let n: usize = dims.iter().product();
        if n == 0 {
            out.clear();
            return dims.to_vec();
        }
        let levels = level_strides(dims);
        let drop = drop_finest.min(levels.len());
        let stride = 1usize << drop;
        let coarse_dims: Vec<usize> = dims.iter().map(|&d| d.div_ceil(stride)).collect();
        out.clear();
        out.resize(coarse_dims.iter().product(), 0.0);
        out[0] = self.meta.root();
        for (l, &s) in levels.iter().enumerate().skip(drop) {
            let dec = &self.decoders[l];
            scatter_tiles(out, &coarse_dims, s >> drop, |c, tile| {
                dec.tile_values(c, tile)
            });
        }
        recompose(out, &coarse_dims, self.meta.basis());
        coarse_dims
    }

    /// The basis of the underlying stream.
    pub fn basis(&self) -> Basis {
        self.meta.basis()
    }
}

/// Progressive reader over an [`MgardStream`]: an [`MgardCursor`] whose
/// plane fetches are served from the borrowed, fully resident stream.
///
/// Created via [`MgardStream::reader`]. Byte accounting starts at the size
/// of the stream's serialized metadata (a remote retrieval always moves the
/// metadata fragment).
#[derive(Debug, Clone)]
pub struct MgardReader<'a> {
    stream: &'a MgardStream,
    cursor: MgardCursor,
    /// The stream's [`plane_order`] pushes.
    order: Vec<(usize, u32, f64)>,
    /// How many of `order` the cursor has consumed.
    consumed: usize,
    fetched: usize,
}

impl<'a> MgardReader<'a> {
    pub(crate) fn new(stream: &'a MgardStream) -> Self {
        let meta = stream.meta();
        Self {
            stream,
            fetched: meta.to_bytes().len(),
            order: plane_order(&meta).1,
            consumed: 0,
            cursor: MgardCursor::new(meta),
        }
    }

    /// The guaranteed L∞ bound of [`MgardReader::reconstruct`] at the
    /// current fetch state (the basis-specific model — this is what the QoI
    /// machinery consumes as the primary-data ε).
    pub fn guaranteed_bound(&self) -> f64 {
        self.cursor.guaranteed_bound()
    }

    /// Total bytes this reader has "moved" (metadata + fetched planes).
    pub fn total_fetched(&self) -> usize {
        self.fetched
    }

    /// True when every plane of every level has been fetched.
    pub fn fully_fetched(&self) -> bool {
        self.cursor.fully_fetched()
    }

    /// How many next pushes of the plane order a refinement to `eb` takes:
    /// none when the bound already holds, else through the first push
    /// whose bound after it is ≤ `eb`, or every remaining one.
    fn cut(&self, eb: f64) -> usize {
        let rest = &self.order[self.consumed..];
        if self.cursor.guaranteed_bound() <= eb {
            return 0;
        }
        rest.iter()
            .position(|&(_, _, after)| after <= eb)
            .map_or(rest.len(), |i| i + 1)
    }

    /// Serves at most `limit` pushes of the cut towards `eb` from the
    /// resident stream. Returns the newly fetched bytes.
    fn consume(&mut self, eb: f64, limit: usize) -> Result<usize> {
        let before = self.fetched;
        for _ in 0..self.cut(eb).min(limit) {
            let (l, p, _) = self.order[self.consumed];
            let seg = &self.stream.levels[l].planes[p as usize];
            self.cursor.push_plane(l, seg)?;
            self.fetched += seg.len();
            self.consumed += 1;
        }
        self.cursor.fold();
        Ok(self.fetched - before)
    }

    /// Fetches planes (greedy, largest-contribution level first) until the
    /// guaranteed bound is ≤ `eb` or the stream is exhausted. Returns the
    /// number of newly fetched bytes.
    ///
    /// The request may end with `guaranteed_bound() > eb` only if the stream
    /// is fully fetched (near-lossless floor) — Definition 1's "or a
    /// full-fidelity representation is retrieved".
    pub fn refine_to(&mut self, eb: f64) -> Result<usize> {
        self.consume(eb, usize::MAX)
    }

    /// Planes consumed so far, per level — the reader's resumable progress
    /// marker.
    pub fn planes_read(&self) -> Vec<u32> {
        self.cursor.planes_read()
    }

    /// Fetches `k` more planes in greedy order regardless of a target —
    /// used by benches exploring fixed-budget retrieval.
    pub fn fetch_planes(&mut self, k: usize) -> Result<usize> {
        self.consume(f64::NEG_INFINITY, k)
    }

    /// Recomposes the data representation from the planes fetched so far.
    pub fn reconstruct(&self) -> Vec<f64> {
        self.cursor.reconstruct()
    }

    /// [`MgardCursor::reconstruct_into`]: pooled-buffer reconstruction
    /// (bit-identical to [`MgardReader::reconstruct`]). Returns the number
    /// of recompose passes executed.
    pub fn reconstruct_into(&self, out: &mut Vec<f64>) -> u64 {
        self.cursor.reconstruct_into(out)
    }

    /// Progression in **resolution** — see
    /// [`MgardCursor::reconstruct_at_resolution`].
    pub fn reconstruct_at_resolution(&self, drop_finest: usize) -> (Vec<f64>, Vec<usize>) {
        self.cursor.reconstruct_at_resolution(drop_finest)
    }

    /// The basis of the underlying stream.
    pub fn basis(&self) -> Basis {
        self.cursor.basis()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::refactor::{MgardMeta, MgardRefactorer};
    use pqr_util::stats::max_abs_diff;

    fn field(n: usize) -> Vec<f64> {
        (0..n)
            .map(|i| {
                let x = i as f64 / n as f64;
                (x * 9.0).sin() * 4.0 + (x * 31.0).cos() + 6.0 * x
            })
            .collect()
    }

    #[test]
    fn refine_meets_requested_bounds_and_real_error_below_guarantee() {
        let data = field(2000);
        for basis in [Basis::Hierarchical, Basis::Orthogonal] {
            let stream = MgardRefactorer::new(basis)
                .refactor(&data, &[2000])
                .unwrap();
            let mut reader = stream.reader();
            for eb in [1e-1, 1e-3, 1e-5, 1e-8] {
                reader.refine_to(eb).unwrap();
                assert!(
                    reader.guaranteed_bound() <= eb,
                    "{basis:?} eb={eb}: bound {}",
                    reader.guaranteed_bound()
                );
                let recon = reader.reconstruct();
                let real = max_abs_diff(&data, &recon);
                assert!(
                    real <= reader.guaranteed_bound(),
                    "{basis:?} eb={eb}: real {real} > guarantee {}",
                    reader.guaranteed_bound()
                );
            }
        }
    }

    #[test]
    fn progressive_fetching_is_incremental() {
        let data = field(4096);
        let stream = MgardRefactorer::default().refactor(&data, &[4096]).unwrap();
        let mut reader = stream.reader();
        let b1 = reader.refine_to(1e-2).unwrap();
        let t1 = reader.total_fetched();
        let b2 = reader.refine_to(1e-6).unwrap();
        let t2 = reader.total_fetched();
        assert!(b1 > 0 && b2 > 0);
        assert_eq!(t2, t1 + b2, "byte accounting must be cumulative");
        // re-requesting an already-satisfied bound fetches nothing
        assert_eq!(reader.refine_to(1e-4).unwrap(), 0);
    }

    #[test]
    fn hb_fetches_fewer_bytes_than_ob_for_same_target() {
        // The headline claim behind PMGARD-HB (Fig. 3): the tight estimator
        // stops earlier for the same guaranteed tolerance.
        let data = field(4096);
        let hb = MgardRefactorer::new(Basis::Hierarchical)
            .refactor(&data, &[4096])
            .unwrap();
        let ob = MgardRefactorer::new(Basis::Orthogonal)
            .refactor(&data, &[4096])
            .unwrap();
        let mut rh = hb.reader();
        let mut ro = ob.reader();
        rh.refine_to(1e-5).unwrap();
        ro.refine_to(1e-5).unwrap();
        assert!(
            rh.total_fetched() < ro.total_fetched(),
            "HB {} !< OB {}",
            rh.total_fetched(),
            ro.total_fetched()
        );
    }

    #[test]
    fn ob_real_error_far_below_estimate() {
        // the over-retrieval gap of Fig. 3
        let data = field(4096);
        let stream = MgardRefactorer::new(Basis::Orthogonal)
            .refactor(&data, &[4096])
            .unwrap();
        let mut reader = stream.reader();
        reader.refine_to(1e-4).unwrap();
        let real = max_abs_diff(&data, &reader.reconstruct());
        let est = reader.guaranteed_bound();
        assert!(real < est / 5.0, "real {real} vs est {est}: gap too small");
    }

    #[test]
    fn exhausting_the_stream_reaches_near_lossless() {
        let data = field(600);
        let stream = MgardRefactorer::default().refactor(&data, &[600]).unwrap();
        let mut reader = stream.reader();
        reader.refine_to(0.0).unwrap(); // impossible target → fetch everything
        assert!(reader.fully_fetched());
        let real = max_abs_diff(&data, &reader.reconstruct());
        let range = 12.0;
        assert!(real < 1e-14 * range, "residual {real}");
    }

    #[test]
    fn initial_state_counts_metadata_only() {
        let data = field(128);
        let stream = MgardRefactorer::default().refactor(&data, &[128]).unwrap();
        let reader = stream.reader();
        assert_eq!(reader.total_fetched(), stream.meta().to_bytes().len());
        assert!(reader.guaranteed_bound().is_finite());
    }

    #[test]
    fn fetch_planes_budget_mode() {
        let data = field(1024);
        let stream = MgardRefactorer::default().refactor(&data, &[1024]).unwrap();
        let mut reader = stream.reader();
        let before = reader.guaranteed_bound();
        reader.fetch_planes(5).unwrap();
        assert!(reader.guaranteed_bound() < before);
    }

    #[test]
    fn multidimensional_retrieval() {
        let data = field(32 * 20);
        let stream = MgardRefactorer::new(Basis::Hierarchical)
            .refactor(&data, &[32, 20])
            .unwrap();
        let mut reader = stream.reader();
        reader.refine_to(1e-4).unwrap();
        let recon = reader.reconstruct();
        let real = max_abs_diff(&data, &recon);
        assert!(real <= reader.guaranteed_bound());
        assert!(reader.guaranteed_bound() <= 1e-4);
    }

    #[test]
    fn resolution_progression_samples_coarse_grid() {
        let data = field(257);
        let stream = MgardRefactorer::default().refactor(&data, &[257]).unwrap();
        let mut reader = stream.reader();
        reader.refine_to(1e-10).unwrap();

        // drop 0 levels = full resolution
        let (full, dims0) = reader.reconstruct_at_resolution(0);
        assert_eq!(dims0, vec![257]);
        assert_eq!(full.len(), 257);
        assert!(max_abs_diff(&data, &full) <= reader.guaranteed_bound());

        // drop 3 levels = stride-8 subgrid; values close to the original at
        // those grid points (smooth field ⇒ dropped fine coefficients are
        // small)
        let (coarse, dims3) = reader.reconstruct_at_resolution(3);
        assert_eq!(dims3, vec![33]);
        assert_eq!(coarse.len(), 33);
        let sampled: Vec<f64> = (0..257).step_by(8).map(|i| data[i]).collect();
        let err = max_abs_diff(&sampled, &coarse);
        let range = 12.0;
        assert!(err < 0.05 * range, "coarse error {err}");
    }

    #[test]
    fn resolution_progression_2d_dims() {
        let data = field(20 * 13);
        let stream = MgardRefactorer::default()
            .refactor(&data, &[20, 13])
            .unwrap();
        let mut reader = stream.reader();
        reader.refine_to(1e-8).unwrap();
        let (coarse, dims) = reader.reconstruct_at_resolution(1);
        assert_eq!(dims, vec![10, 7]);
        assert_eq!(coarse.len(), 70);
        // spot-check the (2, 4) coarse point == full recon at (4, 8)
        let full = reader.reconstruct();
        let c = coarse[2 * 7 + 4];
        let f = full[4 * 13 + 8];
        assert!((c - f).abs() < 0.2, "coarse {c} vs full {f}");
    }

    /// A cursor on the scalar reference decoders.
    fn scalar_cursor(meta: MgardMeta) -> MgardCursor {
        let decoders = meta
            .levels()
            .iter()
            .map(|l| LevelDecoder::new_scalar(l.exponent, l.count))
            .collect();
        MgardCursor { meta, decoders }
    }

    /// The per-point reference scatter: each level's coefficient vector
    /// written through [`for_each_point`]'s odometer, then recomposed.
    fn pointwise_reconstruct(cursor: &MgardCursor) -> Vec<f64> {
        use crate::hierarchy::{for_each_point, PointSet};
        let dims = cursor.meta.dims();
        let mut v = vec![0.0f64; dims.iter().product()];
        if v.is_empty() {
            return v;
        }
        v[0] = cursor.meta.root();
        for (l, &s) in level_strides(dims).iter().enumerate() {
            let mut coeffs = cursor.decoders[l].coefficients().into_iter();
            for axis in 0..dims.len() {
                for_each_point(dims, axis, s, PointSet::Fine, |idx, _| {
                    v[idx] = coeffs.next().unwrap();
                });
            }
        }
        crate::transform::recompose(&mut v, dims, cursor.meta.basis());
        v
    }

    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    /// Every read of `word` equals, bit for bit, the same read of the
    /// scalar-decoder cursor `oracle` at the same progress.
    fn assert_reads_match(word: &MgardCursor, oracle: &MgardCursor, drop: usize, case: &str) {
        assert_eq!(word.planes_read(), oracle.planes_read(), "{case}");
        // a dirty pooled buffer of the wrong size must not leak through
        let mut got = vec![1.23f64; 7];
        let passes = word.reconstruct_into(&mut got);
        let mut want = Vec::new();
        assert_eq!(passes, oracle.reconstruct_into(&mut want), "{case}");
        assert_eq!(bits(&got), bits(&want), "{case}: reconstruct_into");
        assert_eq!(
            bits(&got),
            bits(&pointwise_reconstruct(oracle)),
            "{case}: row scatter"
        );
        let mut coarse = vec![-4.5f64; 3];
        let dims = word.reconstruct_at_resolution_into(drop, &mut coarse);
        let (want, want_dims) = oracle.reconstruct_at_resolution(drop);
        assert_eq!(dims, want_dims, "{case}");
        assert_eq!(bits(&coarse), bits(&want), "{case}: resolution drop={drop}");
        for (l, (dw, ds)) in word.decoders.iter().zip(&oracle.decoders).enumerate() {
            assert_eq!(
                bits(&dw.coefficients()),
                bits(&ds.coefficients()),
                "{case} level {l}"
            );
            let n = ds.coefficients().len();
            for j in [0, 1, 63, 64, n / 2, n.saturating_sub(1)] {
                if j < n {
                    assert_eq!(
                        dw.coefficient(j).to_bits(),
                        ds.coefficient(j).to_bits(),
                        "{case} level {l} coefficient {j}"
                    );
                }
            }
        }
    }

    /// Plane counts a push step takes: none, fewer than the transpose
    /// cut-off, exactly it, beyond it, and a whole level.
    fn arb_push() -> impl proptest::strategy::Strategy<Value = usize> {
        use crate::bitplane::TRANSPOSE_MIN_PLANES as CUT;
        use proptest::prelude::*;
        prop_oneof![Just(0usize), 1..CUT, Just(CUT), CUT + 1..60, Just(60usize)]
    }

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::ProptestConfig::with_cases(40))]

        #[test]
        fn fold_and_row_scatter_match_the_scalar_oracle(
            rank in 1usize..=3,
            d0 in 1usize..40,
            d1 in 1usize..12,
            d2 in 1usize..7,
            hb in proptest::bool::ANY,
            constant in 0usize..8,
            seed in 0usize..10_000,
            schedule in proptest::collection::vec(
                (0usize..16, arb_push(), proptest::bool::ANY, 0usize..4),
                1..10,
            ),
        ) {
            let dims = match rank {
                1 => vec![d0 * d1],
                2 => vec![d0, d1],
                _ => vec![d0, d1, d2],
            };
            let n: usize = dims.iter().product();
            let basis = if hb { Basis::Hierarchical } else { Basis::Orthogonal };
            // one case in eight is constant: every level all-zero
            let data: Vec<f64> = if constant == 0 {
                vec![2.5; n]
            } else {
                field(n + seed)[seed..].to_vec()
            };
            let stream = MgardRefactorer::new(basis).refactor(&data, &dims).unwrap();
            let mut word = MgardCursor::new(stream.meta());
            let mut oracle = scalar_cursor(stream.meta());
            assert_reads_match(&word, &oracle, 0, "fresh");
            let nlev = stream.levels.len().max(1);
            for (step, &(level, push, fold, drop)) in schedule.iter().enumerate() {
                let l = level % nlev;
                if let Some(lev) = stream.levels.get(l) {
                    let from = word.planes_read()[l] as usize;
                    for seg in lev.planes.iter().skip(from).take(push) {
                        word.push_plane(l, seg).unwrap();
                        oracle.push_plane(l, seg).unwrap();
                    }
                }
                let case = format!("{dims:?} {basis:?} step {step}");
                assert_reads_match(&word, &oracle, drop, &format!("{case} pending"));
                if fold {
                    word.fold();
                    assert_reads_match(&word, &oracle, drop, &format!("{case} folded"));
                }
            }
            // and at full depth, folded or not
            for (l, lev) in stream.levels.iter().enumerate() {
                let from = word.planes_read()[l] as usize;
                for seg in &lev.planes[from..] {
                    word.push_plane(l, seg).unwrap();
                    oracle.push_plane(l, seg).unwrap();
                }
            }
            assert_reads_match(&word, &oracle, 1, "all planes pending");
            word.fold();
            assert_reads_match(&word, &oracle, 1, "all planes folded");
        }
    }

    /// The pre-optimization resolution path: zero the dropped levels,
    /// recompose at *full* resolution, sample the subgrid. The direct
    /// coarse-grid recompose must reproduce it bit for bit.
    fn resolution_oracle(cursor: &MgardCursor, drop_finest: usize) -> (Vec<f64>, Vec<usize>) {
        let dims = cursor.meta.dims();
        let n: usize = dims.iter().product();
        let levels = level_strides(dims);
        let drop = drop_finest.min(levels.len());
        let mut v = vec![0.0f64; n];
        v[0] = cursor.meta.root();
        for (l, &s) in levels.iter().enumerate() {
            if l >= drop {
                crate::transform::scatter_level(
                    &mut v,
                    dims,
                    s,
                    &cursor.decoders[l].coefficients(),
                );
            }
        }
        crate::transform::recompose(&mut v, dims, cursor.meta.basis());
        let stride = 1usize << drop;
        let coarse_dims: Vec<usize> = dims.iter().map(|&d| d.div_ceil(stride)).collect();
        let full_strides = crate::hierarchy::strides(dims);
        let mut out = Vec::with_capacity(coarse_dims.iter().product());
        let mut coord = vec![0usize; dims.len()];
        'outer: loop {
            let idx: usize = coord
                .iter()
                .zip(&full_strides)
                .map(|(c, k)| c * stride * k)
                .sum();
            out.push(v[idx]);
            let mut a = dims.len();
            loop {
                if a == 0 {
                    break 'outer;
                }
                a -= 1;
                coord[a] += 1;
                if coord[a] < coarse_dims[a] {
                    break;
                }
                coord[a] = 0;
            }
        }
        (out, coarse_dims)
    }

    #[test]
    fn coarse_grid_resolution_matches_full_recompose_sampling() {
        let data = field(257);
        for basis in [Basis::Hierarchical, Basis::Orthogonal] {
            let stream = MgardRefactorer::new(basis).refactor(&data, &[257]).unwrap();
            let mut reader = stream.reader();
            reader.refine_to(1e-8).unwrap();
            for drop in [0usize, 1, 3] {
                let (coarse, dims) = reader.reconstruct_at_resolution(drop);
                let (want, want_dims) = resolution_oracle(&reader.cursor, drop);
                assert_eq!(dims, want_dims, "{basis:?} drop={drop}");
                assert_eq!(coarse, want, "{basis:?} drop={drop}");
            }
            // drop=0 equals the plain full reconstruction exactly
            let (full_view, _) = reader.reconstruct_at_resolution(0);
            assert_eq!(full_view, reader.reconstruct(), "{basis:?}");
        }
        // and in 2-D, where the subgrid strides differ per axis
        let data2 = field(20 * 13);
        for basis in [Basis::Hierarchical, Basis::Orthogonal] {
            let stream2 = MgardRefactorer::new(basis)
                .refactor(&data2, &[20, 13])
                .unwrap();
            let mut r2 = stream2.reader();
            r2.refine_to(1e-8).unwrap();
            for drop in [1usize, 2] {
                let (coarse2, dims2) = r2.reconstruct_at_resolution(drop);
                let (want2, want_dims2) = resolution_oracle(&r2.cursor, drop);
                assert_eq!(dims2, want_dims2, "{basis:?} drop={drop}");
                assert_eq!(coarse2, want2, "{basis:?} drop={drop}");
            }
        }
    }

    #[test]
    fn dropping_all_levels_leaves_root_interpolation() {
        let data = field(64);
        let stream = MgardRefactorer::default().refactor(&data, &[64]).unwrap();
        let reader = stream.reader();
        let (coarse, dims) = reader.reconstruct_at_resolution(99);
        assert_eq!(dims, vec![1]);
        assert_eq!(coarse.len(), 1);
    }

    #[test]
    fn bitrate_decreases_smoothly_with_looser_bounds() {
        // PMGARD's linear-ish rate curve (no snapshot staircases): fetched
        // bytes should strictly grow as bounds tighten, with many distinct
        // sizes (not two or three plateaus).
        let data = field(8192);
        let stream = MgardRefactorer::default().refactor(&data, &[8192]).unwrap();
        let mut sizes = Vec::new();
        for i in 1..=20 {
            let eb = 0.1 * (2.0f64).powi(-i);
            let mut reader = stream.reader();
            reader.refine_to(eb).unwrap();
            sizes.push(reader.total_fetched());
        }
        let distinct: std::collections::BTreeSet<_> = sizes.iter().collect();
        assert!(
            distinct.len() >= 12,
            "only {} distinct sizes",
            distinct.len()
        );
        for w in sizes.windows(2) {
            assert!(w[1] >= w[0]);
        }
    }

    /// The greedy walk the plane order is defined by: the `(level, plane,
    /// bound after it)` pushes that bring the bound from the per-level
    /// state `planes` to at most `eb`, each step taking the level whose
    /// next plane removes the most modeled error.
    fn walk(meta: &MgardMeta, planes: &[u32], eb: f64) -> Vec<(usize, usize, f64)> {
        use crate::bitplane::truncation_error;
        let basis = meta.basis();
        let dims = meta.dims();
        let levels = meta.levels();
        let mut planes = planes.to_vec();
        let mut errs: Vec<f64> = levels
            .iter()
            .zip(&planes)
            .map(|(l, &p)| truncation_error(l.exponent, p))
            .collect();
        let mut out = Vec::new();
        while recon_bound(basis, dims, &errs) > eb {
            let mut best: Option<(usize, f64)> = None;
            for (l, lm) in levels.iter().enumerate() {
                if planes[l] >= lm.num_planes {
                    continue;
                }
                let contribution = level_weight(basis, dims, l) * errs[l];
                match best {
                    Some((_, c)) if c >= contribution => {}
                    _ => best = Some((l, contribution)),
                }
            }
            let Some((l, _)) = best else {
                break; // exhausted
            };
            let plane = planes[l] as usize;
            planes[l] += 1;
            errs[l] = truncation_error(levels[l].exponent, planes[l]);
            out.push((l, plane, recon_bound(basis, dims, &errs)));
        }
        out
    }

    fn step_bits(steps: &[(usize, usize, f64)]) -> Vec<(usize, usize, u64)> {
        steps.iter().map(|&(l, p, b)| (l, p, b.to_bits())).collect()
    }

    #[test]
    fn plane_order_is_the_greedy_walk_from_every_prefix() {
        // 1-D, 2-D and 3-D; a 1-D field linear but for one finest-level
        // spike, whose coarser hierarchical levels are all zero (no
        // planes); and a zero-extent shape with no level at all
        let spiked: Vec<f64> = (0..17)
            .map(|i| i as f64 + f64::from(i == 3) * 5.0)
            .collect();
        let cases = [
            (vec![600], field(600)),
            (vec![20, 13], field(260)),
            (vec![9, 6, 5], field(270)),
            (vec![17], spiked),
            (vec![2, 0, 0], Vec::new()),
        ];
        let mut zero_level = false;
        for (dims, data) in &cases {
            for basis in [Basis::Hierarchical, Basis::Orthogonal] {
                let case = format!("{dims:?} {basis:?}");
                let stream = MgardRefactorer::new(basis).refactor(data, dims).unwrap();
                let meta = stream.meta();
                zero_level |= meta.levels().iter().any(|l| l.num_planes == 0);
                let (start, order) = plane_order(&meta);
                let order: Vec<(usize, usize, f64)> =
                    order.iter().map(|&(l, p, b)| (l, p as usize, b)).collect();
                let mut reader = stream.reader();
                assert_eq!(
                    start.to_bits(),
                    reader.guaranteed_bound().to_bits(),
                    "{case}"
                );
                let zeros = vec![0; meta.num_levels()];
                let full = walk(&meta, &zeros, f64::NEG_INFINITY);
                assert_eq!(step_bits(&order), step_bits(&full), "{case}");
                assert_eq!(order.len(), meta.total_planes(), "{case}");
                // 0.5·start down to ~1.5e-8·start, and below every floor
                let series: Vec<f64> = (1..25)
                    .map(|i| start * 0.5f64.powi(i))
                    .chain([0.0])
                    .collect();
                for k in 0..=order.len() {
                    for &eb in &series {
                        let want = walk(&meta, &reader.planes_read(), eb);
                        let cut = &order[k..k + reader.cut(eb)];
                        assert_eq!(step_bits(cut), step_bits(&want), "{case} k={k} eb={eb}");
                    }
                    reader.fetch_planes(1).unwrap();
                }
                assert!(reader.fully_fetched(), "{case}");
            }
        }
        assert!(zero_level, "no case has an all-zero level");
    }
}
