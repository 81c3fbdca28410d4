//! Progressive retrieval: greedy bitplane fetching under an L∞ target.
//!
//! The reader tracks, per level, how many planes it has fetched and the
//! resulting coefficient truncation bound; the guaranteed reconstruction
//! bound is the basis-specific model of [`crate::error_est`]. A refinement
//! request fetches one plane at a time from the level whose *current error
//! contribution* is largest — the schedule that decreases the modeled bound
//! fastest per fetched plane (coarse levels hold few coefficients, so their
//! planes are cheap and fetched deep; exactly how PMGARD behaves).

use crate::bitplane::LevelDecoder;
use crate::error_est::{level_weight, recon_bound};
use crate::hierarchy::level_strides;
use crate::refactor::{MgardMeta, MgardStream};
use crate::transform::{recompose_with_workers, scatter_level, Basis};
use pqr_util::error::Result;

/// Push-based progressive decoder over [`MgardMeta`].
///
/// A cursor holds only the stream's *metadata* plus decode state — it never
/// sees where the plane payloads live. The owner asks [`MgardCursor::front`]
/// which `(level, plane)` pushes the greedy schedule wants, fetches those
/// bytes from wherever the stream is stored (memory, a file range, a remote
/// store), and pushes them in with [`MgardCursor::push_plane`]. The
/// borrowing [`MgardReader`] and the fragment-addressed backend in
/// `pqr-progressive` both consume that one walk, so the refinement schedule
/// and the error model cannot drift between local and remote paths.
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

    /// The `(level, plane, bound after it)` pushes the greedy schedule will
    /// perform, in order, to bring [`MgardCursor::guaranteed_bound`] to at
    /// most `eb` — each step takes the level whose next plane removes the
    /// most modeled error — computed without consuming anything. The bound
    /// model is a function of per-level consumed-plane counts only
    /// (`truncation_error` over the metadata exponents), so the prediction
    /// matches the fetch-and-push path exactly; this is the one place the
    /// walk is written, and every consumer (planning, refinement, the
    /// shared store's front cache) reads it. With `eb = 0.0` it is the full
    /// remaining front down to the representation floor, of which every
    /// tighter target's front is a prefix.
    pub fn front(&self, eb: f64) -> Vec<(usize, usize, f64)> {
        use crate::bitplane::truncation_error;
        let basis = self.meta.basis();
        let dims = self.meta.dims();
        let levels = self.meta.levels();
        let mut planes: Vec<u32> = self.planes_read();
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

    /// Consumes the next plane of `level` (planes must arrive in MSB-first
    /// order per level; the plane index is implicit in the decode state).
    pub fn push_plane(&mut self, level: usize, bytes: &[u8]) -> Result<()> {
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
        self.decoders[level].push_plane(bytes)
    }

    /// Recomposes the data representation from the planes consumed so far.
    pub fn reconstruct(&self) -> Vec<f64> {
        let mut v = Vec::new();
        self.reconstruct_into(&mut v, 1);
        v
    }

    /// [`MgardCursor::reconstruct`] into a caller-provided (pooled) buffer,
    /// with the recompose passes fanned across `workers` threads — the
    /// result is bit-identical at every worker count (see
    /// [`crate::transform::recompose_with_workers`]). Reusing `out` across
    /// refinement rounds removes the per-round full-field allocation.
    /// Returns the number of recompose passes executed.
    pub fn reconstruct_into(&self, out: &mut Vec<f64>, workers: usize) -> u64 {
        let dims = self.meta.dims();
        let n: usize = dims.iter().product();
        out.clear();
        out.resize(n, 0.0);
        if n == 0 {
            return 0;
        }
        out[0] = self.meta.root();
        for (l, &s) in level_strides(dims).iter().enumerate() {
            scatter_level(out, dims, s, &self.decoders[l].coefficients());
        }
        recompose_with_workers(out, dims, self.meta.basis(), workers)
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
        let coarse_dims = self.reconstruct_at_resolution_into(drop_finest, &mut out, 1);
        (out, coarse_dims)
    }

    /// [`MgardCursor::reconstruct_at_resolution`] into a caller-provided
    /// buffer with `workers`-way recompose. The multilevel hierarchy is
    /// self-similar, so the coarse view is recomposed **directly on the
    /// coarse grid**: the kept levels' strides scale down by `2^drop`, which
    /// preserves every per-axis grid count (`ceil(d/2^k) = (d-1)/2^k + 1`).
    /// No full-resolution scratch buffer and no sampling pass — and the
    /// values are bit-identical to recomposing in full and sampling the
    /// subgrid, because a dropped level's interpolation pass writes only
    /// non-subgrid points and its correction solves an all-zero load (an
    /// exact no-op on the coarse nodes). Returns the coarse dims.
    pub fn reconstruct_at_resolution_into(
        &self,
        drop_finest: usize,
        out: &mut Vec<f64>,
        workers: usize,
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
            scatter_level(
                out,
                &coarse_dims,
                s >> drop,
                &self.decoders[l].coefficients(),
            );
        }
        recompose_with_workers(out, &coarse_dims, self.meta.basis(), workers);
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
    fetched: usize,
}

impl<'a> MgardReader<'a> {
    pub(crate) fn new(stream: &'a MgardStream) -> Self {
        let meta = stream.meta();
        Self {
            stream,
            fetched: meta.to_bytes().len(),
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

    /// Serves the first `limit` pushes of the cursor's front towards `eb`
    /// from the resident stream. Returns the newly fetched bytes.
    fn consume(&mut self, eb: f64, limit: usize) -> Result<usize> {
        let before = self.fetched;
        for (l, p, _) in self.cursor.front(eb).into_iter().take(limit) {
            let seg = &self.stream.levels[l].planes[p];
            self.cursor.push_plane(l, seg)?;
            self.fetched += seg.len();
        }
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

    /// [`MgardCursor::reconstruct_into`]: pooled-buffer, `workers`-way
    /// reconstruction (bit-identical to [`MgardReader::reconstruct`]).
    /// Returns the number of recompose passes executed.
    pub fn reconstruct_into(&self, out: &mut Vec<f64>, workers: usize) -> u64 {
        self.cursor.reconstruct_into(out, workers)
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
    use crate::refactor::MgardRefactorer;
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

    #[test]
    fn reconstruct_into_pooled_and_parallel_bit_identical() {
        let data = field(20_000);
        let stream = MgardRefactorer::new(Basis::Orthogonal)
            .refactor(&data, &[20_000])
            .unwrap();
        let mut reader = stream.reader();
        reader.refine_to(1e-6).unwrap();
        let serial = reader.reconstruct();
        // dirty pooled buffer of the wrong size must not leak through
        let mut buf = vec![1.23f64; 7];
        for workers in [1usize, 2, 4] {
            let passes = reader.reconstruct_into(&mut buf, workers);
            assert!(passes > 0);
            assert_eq!(buf, serial, "workers={workers}");
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
                scatter_level(&mut v, dims, s, &cursor.decoders[l].coefficients());
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

    #[test]
    fn front_plans_without_advancing_and_predicts_the_bound_it_reaches() {
        let data = field(600);
        for basis in [Basis::Hierarchical, Basis::Orthogonal] {
            let stream = MgardRefactorer::new(basis).refactor(&data, &[600]).unwrap();
            let mut reader = stream.reader();
            for eb in [1.0, 1e-2, 1e-5, 1e-9, 0.0] {
                let front = reader.cursor.front(eb);
                assert_eq!(front, reader.cursor.front(eb), "{basis:?} eb={eb}");
                // every tighter target's front extends this one
                let full = reader.cursor.front(0.0);
                assert_eq!(front[..], full[..front.len()], "{basis:?} eb={eb}");
                reader.refine_to(eb).unwrap();
                if let Some(&(_, _, after)) = front.last() {
                    assert_eq!(
                        after.to_bits(),
                        reader.guaranteed_bound().to_bits(),
                        "{basis:?} eb={eb}"
                    );
                }
                assert!(reader.cursor.front(eb).is_empty(), "{basis:?} eb={eb}");
            }
            assert!(reader.fully_fetched());
        }
    }
}
