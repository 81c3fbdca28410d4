//! Named multi-field datasets and their refactoring.
//!
//! A [`Dataset`] holds the original fields (archive-side only); refactoring
//! it writes the archive's serialized container — in memory
//! ([`Dataset::refactor`], an [`InMemorySource`]) or to a file
//! ([`Dataset::refactor_to_path`]) — carrying, per field, the progressive
//! fragments plus the metadata the retrieval side needs: field value ranges
//! (for relative primary-data bounds, Algorithm 3) and — computed once at
//! refactor time, when the original data is still available — the value
//! ranges of registered QoIs (for relative QoI tolerances, §III-C).

use crate::fragstore::{
    container_bytes, write_container_streaming, FieldEntry, FragmentInfo, InMemorySource, Manifest,
};
use crate::mask::ZeroMask;
use crate::refactored::{default_snapshot_bounds, RefactoredField, Scheme};
use pqr_qoi::program::{Columns, Pass};
use pqr_qoi::{QoiExpr, QoiProgram};
use pqr_util::error::{PqrError, Result};

/// A dataset of equally-shaped named fields (the archive side's view).
#[derive(Debug, Clone)]
pub struct Dataset {
    dims: Vec<usize>,
    names: Vec<String>,
    fields: Vec<Vec<f64>>,
}

impl Dataset {
    /// An empty dataset of the given shape.
    pub fn new(dims: &[usize]) -> Self {
        Self {
            dims: dims.to_vec(),
            names: Vec::new(),
            fields: Vec::new(),
        }
    }

    /// Adds a field; its length must match the dataset shape.
    pub fn add_field(&mut self, name: &str, data: Vec<f64>) -> Result<usize> {
        let n: usize = self.dims.iter().product();
        if data.len() != n {
            return Err(PqrError::ShapeMismatch(format!(
                "field '{name}' has {} elements, dataset shape {:?} = {n}",
                data.len(),
                self.dims
            )));
        }
        self.names.push(name.to_string());
        self.fields.push(data);
        Ok(self.fields.len() - 1)
    }

    /// Shape shared by every field.
    pub fn dims(&self) -> &[usize] {
        &self.dims
    }

    /// Number of fields (`nv` in the paper's notation).
    pub fn num_fields(&self) -> usize {
        self.fields.len()
    }

    /// Elements per field (`ne`).
    pub fn num_elements(&self) -> usize {
        self.dims.iter().product()
    }

    /// Field index by name.
    pub fn field_index(&self, name: &str) -> Option<usize> {
        self.names.iter().position(|n| n == name)
    }

    /// Field data by index.
    pub fn field(&self, i: usize) -> &[f64] {
        &self.fields[i]
    }

    /// Field name by index.
    pub fn field_name(&self, i: usize) -> &str {
        &self.names[i]
    }

    /// Evaluates a QoI over the whole dataset (archive side: original data
    /// is available) and returns its value range — the denominator of the
    /// paper's relative QoI error metric.
    pub fn qoi_range(&self, qoi: &QoiExpr) -> Result<f64> {
        let arity = qoi.arity();
        if arity > self.num_fields() {
            return Err(PqrError::ShapeMismatch(format!(
                "QoI reads variable {} but dataset has {} fields",
                arity - 1,
                self.num_fields()
            )));
        }
        let ne = self.num_elements();
        if ne == 0 {
            return Ok(0.0);
        }
        // one full-domain evaluation per registered QoI at archive-build
        // time — worth the parallel min/max reduction on large volumes
        let program = QoiProgram::compile(&[qoi]);
        let cols = self.columns();
        let data = Columns::new(&cols);
        let (lo, hi) = pqr_util::par::par_chunk_reduce(
            ne,
            pqr_util::par::worker_count(),
            (f64::INFINITY, f64::NEG_INFINITY),
            |start, end| {
                let mut lo = f64::INFINITY;
                let mut hi = f64::NEG_INFINITY;
                program.for_each_block(&data, start..end, Pass::Values, |block| {
                    for &v in block.values(0).1 {
                        if v.is_finite() {
                            lo = lo.min(v);
                            hi = hi.max(v);
                        }
                    }
                });
                (lo, hi)
            },
            |a, b| (a.0.min(b.0), a.1.max(b.1)),
        );
        if lo > hi {
            return Ok(0.0);
        }
        Ok(hi - lo)
    }

    /// True QoI values over the dataset (evaluation on original data) —
    /// used by the harnesses to measure *actual* QoI errors.
    pub fn qoi_values(&self, qoi: &QoiExpr) -> Vec<f64> {
        let program = QoiProgram::compile(&[qoi]);
        let cols = self.columns();
        let data = Columns::new(&cols);
        let mut out = vec![0.0f64; self.num_elements()];
        pqr_util::par::par_chunk_fill(&mut out, pqr_util::par::worker_count(), |start, chunk| {
            program.fill_values(&data, start, chunk)
        });
        out
    }

    /// The fields as the per-variable slices a compiled QoI reads.
    fn columns(&self) -> Vec<&[f64]> {
        self.fields.iter().map(Vec::as_slice).collect()
    }

    /// Builds the zero-outlier mask over the given fields (§V-A): a point is
    /// masked when *all* listed fields are exactly zero there.
    pub fn zero_mask(&self, field_indices: &[usize]) -> ZeroMask {
        let ne = self.num_elements();
        let mut bits = vec![false; ne];
        for (j, slot) in bits.iter_mut().enumerate() {
            *slot = !field_indices.is_empty()
                && field_indices.iter().all(|&i| self.fields[i][j] == 0.0);
        }
        ZeroMask::new(field_indices.to_vec(), bits)
    }

    /// Refactors every field under `scheme` with the default snapshot-bound
    /// ladder, into a container in memory.
    pub fn refactor(&self, scheme: Scheme) -> Result<InMemorySource> {
        self.refactor_with_bounds(scheme, &default_snapshot_bounds())
    }

    /// Refactors with an explicit relative-bound ladder (Algorithm 1), into
    /// a container in memory with no mask and no application metadata.
    pub fn refactor_with_bounds(
        &self,
        scheme: Scheme,
        rel_bounds: &[f64],
    ) -> Result<InMemorySource> {
        self.refactor_in_memory(scheme, rel_bounds, None, &[], 0)
    }

    /// Refactors into a container in memory, returned as the
    /// [`InMemorySource`] every retrieval reads it through: the in-memory
    /// counterpart of [`Dataset::refactor_to_path`], with its mask and
    /// application-metadata arguments.
    ///
    /// Fields are independent, so they refactor in parallel — Algorithm 1's
    /// loop is embarrassingly parallel and refactoring dominates archive-side
    /// cost (Table IV). Each field encodes on one thread, so at most
    /// [`field_workers`]`(workers, ..)` fields encode at once (`0` resolves to
    /// [`pqr_util::par::worker_count`]). The fields are encoded before the
    /// container is written, so its directory is theirs and the payloads
    /// follow it with no slack. The bytes are identical at every worker
    /// count.
    pub fn refactor_in_memory(
        &self,
        scheme: Scheme,
        rel_bounds: &[f64],
        mask_fields: Option<&[usize]>,
        app_meta: &[u8],
        workers: usize,
    ) -> Result<InMemorySource> {
        let workers = field_workers(workers, self.fields.len());
        let fields = pqr_util::par::par_dynamic(self.fields.len(), workers, |i| {
            RefactoredField::refactor_with_bounds(scheme, &self.fields[i], &self.dims, rel_bounds)
        })
        .into_iter()
        .collect::<Result<Vec<_>>>()?;
        let mask = mask_fields.map(|idx| self.zero_mask(idx));
        InMemorySource::new(container_bytes(
            &self.dims,
            &self.names,
            &fields,
            mask.as_ref(),
            app_meta,
        ))
    }

    /// Refactors and **streams** the archive to `path`: with `overlap_io`,
    /// finished fields' fragments go to disk while later fields are still
    /// encoding. `mask_fields` builds and embeds the
    /// zero-outlier mask; `app_meta` is stored verbatim. The on-disk
    /// container is byte-identical for every `workers` / `overlap_io`
    /// combination. Returns the total bytes written; on error the partial
    /// file is removed.
    #[allow(clippy::too_many_arguments)]
    pub fn refactor_to_path(
        &self,
        scheme: Scheme,
        rel_bounds: &[f64],
        mask_fields: Option<&[usize]>,
        app_meta: &[u8],
        path: impl AsRef<std::path::Path>,
        workers: usize,
        overlap_io: bool,
    ) -> Result<u64> {
        let path = path.as_ref();
        let ceiling = crate::backend::max_fragments(scheme, &self.dims, rel_bounds.len());
        let skeleton = Manifest {
            dims: self.dims.clone(),
            fields: self
                .names
                .iter()
                .map(|name| FieldEntry {
                    name: name.clone(),
                    scheme,
                    range: 0.0,
                    max_abs: 0.0,
                    fragments: vec![FragmentInfo::default(); ceiling],
                })
                .collect(),
            mask: mask_fields.map(|idx| self.zero_mask(idx)),
            app_meta: app_meta.to_vec(),
        };
        let res = std::fs::File::create(path)
            .map_err(|e| {
                PqrError::InvalidRequest(format!("cannot create '{}': {e}", path.display()))
            })
            .and_then(|mut file| {
                write_container_streaming(
                    &mut file,
                    &skeleton,
                    field_workers(workers, self.fields.len()),
                    overlap_io,
                    |i| {
                        RefactoredField::refactor_with_bounds(
                            scheme,
                            &self.fields[i],
                            &self.dims,
                            rel_bounds,
                        )
                    },
                )
            });
        if res.is_err() {
            let _ = std::fs::remove_file(path);
        }
        res
    }
}

/// The encode threads a worker budget of `total` yields over `nfields`
/// fields: one field per thread, so the budget clamps to the field count.
/// `total == 0` resolves to [`pqr_util::par::worker_count`].
pub fn field_workers(total: usize, nfields: usize) -> usize {
    let total = if total == 0 {
        pqr_util::par::worker_count()
    } else {
        total
    };
    total.clamp(1, nfields.max(1))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fragstore::FragmentSource;
    use pqr_qoi::library::velocity_magnitude;
    use pqr_util::stats;

    fn small_dataset() -> Dataset {
        let n = 200;
        let mut ds = Dataset::new(&[n]);
        for c in 0..3usize {
            let f: Vec<f64> = (0..n)
                .map(|i| ((i + c * 31) as f64 * 0.05).sin() + 1.5)
                .collect();
            ds.add_field(["Vx", "Vy", "Vz"][c], f).unwrap();
        }
        ds
    }

    fn bytes(src: &InMemorySource) -> Vec<u8> {
        let mut out = Vec::new();
        src.copy_to(&mut out).unwrap();
        out
    }

    #[test]
    fn parallel_refactor_is_deterministic() {
        // the per-field parallel loop must be bit-identical to whatever a
        // serial pass would produce — archives are content-addressed in
        // practice and any nondeterminism would break dedup and the tests
        // comparing reader byte counts
        let ds = small_dataset();
        for scheme in [Scheme::Psz3Delta, Scheme::PmgardHb, Scheme::Pzfp] {
            let at = |workers| {
                let src = ds
                    .refactor_in_memory(scheme, &[1e-1, 1e-3], Some(&[0]), b"m", workers)
                    .unwrap();
                bytes(&src)
            };
            assert_eq!(at(1), at(8), "{}", scheme.name());
        }
    }

    #[test]
    fn add_field_validates_shape() {
        let mut ds = Dataset::new(&[10]);
        assert!(ds.add_field("bad", vec![0.0; 7]).is_err());
        assert_eq!(ds.add_field("ok", vec![0.0; 10]).unwrap(), 0);
        assert_eq!(ds.num_fields(), 1);
        assert_eq!(ds.field_index("ok"), Some(0));
        assert_eq!(ds.field_index("nope"), None);
    }

    #[test]
    fn qoi_range_matches_direct_computation() {
        let ds = small_dataset();
        let q = velocity_magnitude(0, 3);
        let vals = ds.qoi_values(&q);
        let direct = stats::value_range(&vals);
        assert!((ds.qoi_range(&q).unwrap() - direct).abs() < 1e-12);
    }

    #[test]
    fn qoi_range_rejects_arity_overflow() {
        let ds = small_dataset();
        let q = velocity_magnitude(0, 5); // needs 5 fields, dataset has 3
        assert!(ds.qoi_range(&q).is_err());
    }

    #[test]
    fn zero_mask_flags_all_zero_points() {
        let mut ds = Dataset::new(&[4]);
        ds.add_field("a", vec![0.0, 1.0, 0.0, 0.0]).unwrap();
        ds.add_field("b", vec![0.0, 0.0, 2.0, 0.0]).unwrap();
        let m = ds.zero_mask(&[0, 1]);
        assert!(m.is_masked(0));
        assert!(!m.is_masked(1));
        assert!(!m.is_masked(2));
        assert!(m.is_masked(3));
        assert_eq!(m.masked_count(), 2);
    }

    #[test]
    fn refactor_preserves_names_and_shapes() {
        let ds = small_dataset();
        let src = ds
            .refactor_with_bounds(Scheme::PmgardHb, &[1e-1, 1e-2])
            .unwrap();
        let m = src.manifest().unwrap();
        assert_eq!(m.num_fields(), 3);
        assert_eq!(m.fields[2].name, "Vz");
        assert_eq!(m.field_index("Vy"), Some(1));
        assert_eq!(m.dims, [200]);
        assert!(m.total_payload_bytes() > 0);
        assert_eq!(m.raw_bytes(), 3 * 200 * 8);
        assert!(m.mask.is_none() && m.app_meta.is_empty());
    }

    #[test]
    fn empty_dataset_qoi_range_zero() {
        let ds = Dataset::new(&[0]);
        let q = QoiExpr::var(0);
        // arity 1 > 0 fields → error, not a panic
        assert!(ds.qoi_range(&q).is_err());
    }

    #[test]
    fn refactored_dataset_serialization_roundtrip() {
        // the in-memory container, copied out and parsed again, is the
        // same archive: mask and metadata included, byte for byte
        let ds = small_dataset();
        let src = ds
            .refactor_in_memory(Scheme::Psz3Delta, &[1e-1, 1e-3], Some(&[0, 1, 2]), b"m", 0)
            .unwrap();
        let out = bytes(&src);
        let back = InMemorySource::new(out.clone()).unwrap();
        assert_eq!(back.manifest().unwrap(), src.manifest().unwrap());
        assert_eq!(
            back.manifest().unwrap().mask,
            Some(ds.zero_mask(&[0, 1, 2]))
        );
        assert_eq!(bytes(&back), out);
        assert!(InMemorySource::new(out[..30].to_vec()).is_err());
    }

    #[test]
    fn streaming_refactor_is_schedule_invariant_and_readable() {
        // every (workers, overlap) schedule must produce the same bytes,
        // and the padded-directory file must load back identically
        let ds = small_dataset();
        let dir = std::env::temp_dir().join("pqr_field_streaming_test");
        std::fs::create_dir_all(&dir).unwrap();
        for scheme in [Scheme::Psz3, Scheme::PmgardOb, Scheme::Pzfp] {
            let mut reference: Option<Vec<u8>> = None;
            for (workers, overlap) in [(1, false), (1, true), (4, false), (4, true)] {
                let path = dir.join(format!("{}_{workers}_{overlap}.pqr", scheme.name()));
                ds.refactor_to_path(
                    scheme,
                    &[1e-1, 1e-3],
                    Some(&[0, 1]),
                    b"meta",
                    &path,
                    workers,
                    overlap,
                )
                .unwrap();
                let bytes = std::fs::read(&path).unwrap();
                match &reference {
                    None => reference = Some(bytes),
                    Some(r) => assert_eq!(
                        r,
                        &bytes,
                        "{} workers={workers} overlap={overlap}",
                        scheme.name()
                    ),
                }
                std::fs::remove_file(&path).unwrap();
            }
            // the streamed container parses and holds what the in-memory
            // path holds; only its directory's offsets differ (the slack)
            let path = dir.join(format!("{}_load.pqr", scheme.name()));
            ds.refactor_to_path(
                scheme,
                &[1e-1, 1e-3],
                Some(&[0, 1]),
                b"meta",
                &path,
                2,
                true,
            )
            .unwrap();
            let file = InMemorySource::new(std::fs::read(&path).unwrap()).unwrap();
            let memory = ds
                .refactor_in_memory(scheme, &[1e-1, 1e-3], Some(&[0, 1]), b"meta", 2)
                .unwrap();
            let strip = |src: &InMemorySource| {
                let mut m = src.manifest().unwrap();
                for f in &mut m.fields {
                    f.fragments.iter_mut().for_each(|x| x.offset = 0);
                }
                m
            };
            assert_eq!(strip(&file), strip(&memory));
            let ids = (0..ds.num_fields()).flat_map(|i| {
                let n = memory.manifest().unwrap().fields[i].fragments.len();
                (0..n).map(move |k| crate::fragstore::FragmentId {
                    field: i as u32,
                    index: k as u32,
                })
            });
            for id in ids {
                assert_eq!(file.fetch(id).unwrap(), memory.fetch(id).unwrap());
            }
            std::fs::remove_file(&path).unwrap();
        }
    }
}
