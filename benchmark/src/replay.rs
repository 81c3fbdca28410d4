//! The staged replay: after a traced op, its constituent layer calls are
//! issued again on the same data, one layer at a time, under `replay.*`
//! spans. This is what the benchmark can see from outside the library
//! until spans exist inside it: the calls are the ones `execute` makes,
//! but issued back to back, without the engine's overlap of I/O and
//! decode, so their sum is an attribution, not a partition.

use crate::stats::median;
use crate::trace::{Tracer, NONE};
use crate::workloads::{Acc, Layers};
use pqr_mgard::bitplane::{encode_level, LevelDecoder};
use pqr_mgard::transform::{decompose_with_workers, recompose_with_workers, Basis};
use pqr_mgard::MgardMeta;
use pqr_progressive::fragstore::{FragmentId, FragmentSource, InMemorySource};
use pqr_progressive::refactored::{FieldReader, Scheme};
use pqr_sz::predictor::traverse;
use pqr_sz::quantizer::{Quantized, Quantizer, ESCAPE};
use pqr_sz::{SzCompressor, SzConfig};
use pqr_util::byteio::ByteReader;
use pqr_util::error::Result;
use pqr_util::par::worker_count;
use pqr_util::{huffman, rle};
use pqr_zfp::{ZfpCursor, ZfpMeta, ZfpRefactorer};
use std::hint::black_box;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

/// The archive file read into memory once, so replayed readers measure
/// decode and recompose without file I/O.
pub fn preload(path: &Path) -> Result<Arc<dyn FragmentSource>> {
    let bytes = std::fs::read(path).map_err(|e| {
        pqr_util::error::PqrError::InvalidRequest(format!("cannot read '{}': {e}", path.display()))
    })?;
    Ok(Arc::new(InMemorySource::new(bytes)?))
}

/// One `FieldReader` per field over a preloaded source: the readers a
/// session's engine owns, driven from outside.
pub struct ReaderReplay {
    readers: Vec<FieldReader>,
}

impl ReaderReplay {
    pub fn open(source: &Arc<dyn FragmentSource>) -> Result<Self> {
        let manifest = source.manifest()?;
        let readers = (0..manifest.num_fields())
            .map(|f| {
                let mut r = FieldReader::open(Arc::clone(source), &manifest, f)?;
                r.set_workers(worker_count());
                Ok(r)
            })
            .collect::<Result<_>>()?;
        Ok(Self { readers })
    }

    /// Refines every field to the bound the op reached
    /// (`PlanReport::field_bounds`) under one `replay.reader.refine` span,
    /// and adds time, rebuild time and decoded fragments to `acc`.
    pub fn refine(&mut self, tr: &Tracer, acc: &mut Acc, op: u32, bounds: &[f64]) -> Result<()> {
        let before: (u64, u64) = self.counters();
        let open = tr.open("replay.reader.refine", NONE, op);
        for (reader, &bound) in self.readers.iter_mut().zip(bounds) {
            if bound.is_finite() {
                reader.refine_to(bound)?;
            }
        }
        acc.refine_s += tr.close(open);
        let after = self.counters();
        acc.reconstruct_s += (after.0 - before.0) as f64 / 1e9;
        acc.fragments_decoded += after.1 - before.1;
        Ok(())
    }

    fn counters(&self) -> (u64, u64) {
        self.readers.iter().fold((0, 0), |a, r| {
            (a.0 + r.reconstruct_nanos(), a.1 + r.fragments_decoded())
        })
    }
}

/// Median seconds per call of `f` over at least three calls and at most
/// `budget_s` seconds, each call under a span called `name`.
fn timed(tr: &Tracer, name: &'static str, budget_s: f64, mut f: impl FnMut()) -> f64 {
    let begin = Instant::now();
    let mut times = Vec::new();
    while times.len() < 3 || (begin.elapsed().as_secs_f64() < budget_s && times.len() < 200) {
        let open = tr.open(name, NONE, NONE);
        f();
        times.push(tr.close(open));
    }
    median(&times)
}

/// Fragments `from..from + count` of field 0.
fn field0(source: &dyn FragmentSource, from: u32, count: u32) -> Result<Vec<Arc<Vec<u8>>>> {
    let ids: Vec<FragmentId> = (from..from + count)
        .map(|index| FragmentId { field: 0, index })
        .collect();
    source.read_many(&ids)
}

/// The kernel half of the staged replay, once per workload: for every
/// archive the workload reads or writes, the kernels of that archive's
/// scheme, on the streams the archive itself stores for field 0 (decode
/// side) and on the raw field 0 it was built from (encode side). A scheme
/// the workload does not use is not run and its rows read 0. Throughputs
/// are MB of raw f64 (or of stream) per second.
pub fn kernels(
    tr: &Tracer,
    layers: &mut Layers,
    field: &[f64],
    dims: &[usize],
    archives: &[(Scheme, Arc<dyn FragmentSource>)],
    budget_s: f64,
) -> Result<()> {
    let count = |scheme: &Scheme| match scheme {
        Scheme::Pzfp => 2,
        Scheme::Psz3Delta => 4,
        _ => 6,
    };
    let share = budget_s / archives.iter().map(|(s, _)| count(s)).sum::<usize>().max(1) as f64;
    for (scheme, source) in archives {
        match scheme {
            Scheme::Pzfp => zfp_kernels(tr, layers, field, dims, source.as_ref(), share)?,
            Scheme::Psz3Delta => sz_kernels(tr, layers, field, dims, source.as_ref(), share)?,
            _ => mgard_kernels(tr, layers, field, dims, source.as_ref(), share)?,
        }
    }
    Ok(())
}

/// `mgard.transform` on the workload's grid at the engine's worker count;
/// `mgard.bitplane` and `util.rle` on the finest level's plane segments as
/// the archive stores them (fragments 1..: level-major, finest first).
fn mgard_kernels(
    tr: &Tracer,
    layers: &mut Layers,
    field: &[f64],
    dims: &[usize],
    source: &dyn FragmentSource,
    share: f64,
) -> Result<()> {
    let workers = worker_count();
    let mut coeffs = field.to_vec();
    let decompose_s = timed(tr, "replay.mgard.transform.decompose", share, || {
        coeffs.copy_from_slice(field);
        black_box(decompose_with_workers(
            &mut coeffs,
            dims,
            Basis::Hierarchical,
            workers,
        ));
    });
    let decomposed = coeffs.clone();
    let recompose_s = timed(tr, "replay.mgard.transform.recompose", share, || {
        coeffs.copy_from_slice(&decomposed);
        black_box(recompose_with_workers(
            &mut coeffs,
            dims,
            Basis::Hierarchical,
            workers,
        ));
    });
    layers.set("mgard.transform.decompose_s", decompose_s);
    layers.set("mgard.transform.recompose_s", recompose_s);

    let meta = MgardMeta::from_bytes(&source.fetch(FragmentId { field: 0, index: 0 })?)?;
    let finest = &meta.levels()[0];
    let planes = field0(source, 1, finest.num_planes)?;
    let level_mb = (finest.count * 8) as f64 / 1e6;
    let mut level = Vec::new();
    let decode_s = timed(tr, "replay.mgard.bitplane.decode", share, || {
        let mut d = LevelDecoder::new(finest.exponent, finest.count);
        for p in &planes {
            d.push_plane(p).expect("a plane the set-up gate decoded");
        }
        level = d.coefficients();
    });
    let encode_s = timed(tr, "replay.mgard.bitplane.encode", share, || {
        black_box(encode_level(&level));
    });
    layers.set("mgard.bitplane.decode_mb_s", level_mb / decode_s);
    layers.set("mgard.bitplane.encode_mb_s", level_mb / encode_s);

    // the magnitude-bit stream of each of those planes
    let n = finest.count;
    let blobs: Vec<&[u8]> = planes
        .iter()
        .map(|seg| {
            let mut r = ByteReader::new(seg);
            let len = r.get_u32()? as usize;
            r.get_raw(len)
        })
        .collect::<Result<_>>()?;
    let planes_mb = (blobs.len() * n.div_ceil(8)) as f64 / 1e6;
    let mut words: Vec<Vec<u64>> = Vec::new();
    let rle_decode_s = timed(tr, "replay.util.rle.decode", share, || {
        words = blobs
            .iter()
            .map(|b| rle::decode_bits_auto_words(b, n).expect("a plane the set-up gate decoded"))
            .collect();
    });
    let rle_encode_s = timed(tr, "replay.util.rle.encode", share, || {
        for w in &words {
            black_box(rle::encode_bits_auto_words(w, n));
        }
    });
    layers.set("util.rle.decode_mb_s", planes_mb / rle_decode_s);
    layers.set("util.rle.encode_mb_s", planes_mb / rle_encode_s);
    Ok(())
}

/// `zfp`: every plane the archive stores pushed and the field rebuilt; the
/// raw field refactored.
fn zfp_kernels(
    tr: &Tracer,
    layers: &mut Layers,
    field: &[f64],
    dims: &[usize],
    source: &dyn FragmentSource,
    share: f64,
) -> Result<()> {
    let raw_mb = (field.len() * 8) as f64 / 1e6;
    let meta = ZfpMeta::from_bytes(&source.fetch(FragmentId { field: 0, index: 0 })?)?;
    let planes = field0(source, 1, meta.num_planes())?;
    let mut rebuilt = Vec::new();
    let decode_s = timed(tr, "replay.zfp.decode", share, || {
        let mut cursor = ZfpCursor::new(meta.clone());
        for p in &planes {
            cursor
                .push_plane(p)
                .expect("a plane the set-up gate decoded");
        }
        cursor.reconstruct_into(&mut rebuilt, worker_count());
        black_box(&rebuilt);
    });
    let refactorer = ZfpRefactorer::new();
    let encode_s = timed(tr, "replay.zfp.encode", share, || {
        black_box(
            refactorer
                .refactor(field, dims)
                .expect("zfp refactor of a generated field"),
        );
    });
    layers.set("zfp.decode_mb_s", raw_mb / decode_s);
    layers.set("zfp.encode_mb_s", raw_mb / encode_s);
    Ok(())
}

/// `sz` on the archive's first snapshot (fragment 0, which compresses the
/// raw field at the bound its directory entry carries); `util.huffman` on
/// the symbol stream that snapshot entropy-codes, produced as
/// `SzCompressor::compress` produces it.
fn sz_kernels(
    tr: &Tracer,
    layers: &mut Layers,
    field: &[f64],
    dims: &[usize],
    source: &dyn FragmentSource,
    share: f64,
) -> Result<()> {
    let raw_mb = (field.len() * 8) as f64 / 1e6;
    let id = FragmentId { field: 0, index: 0 };
    let eb = source.manifest()?.fragment(id)?.eb_abs;
    let snapshot = source.fetch(id)?;
    let cfg = SzConfig::default();
    let sz = SzCompressor::new(cfg);
    let decompress_s = timed(tr, "replay.sz.decompress", share, || {
        black_box(
            sz.decompress(&snapshot)
                .expect("a snapshot the set-up gate decoded"),
        );
    });
    let compress_s = timed(tr, "replay.sz.compress", share, || {
        black_box(
            sz.compress(field, dims, eb)
                .expect("sz compress of a generated field"),
        );
    });
    layers.set("sz.decompress_mb_s", raw_mb / decompress_s);
    layers.set("sz.compress_mb_s", raw_mb / compress_s);

    let quantizer = Quantizer::new(eb, cfg.quant_radius);
    let mut symbols = Vec::with_capacity(field.len());
    let mut recon = vec![0.0; field.len()];
    traverse(
        cfg.predictor,
        dims,
        &mut recon,
        |i, predicted| match quantizer.quantize(field[i], predicted) {
            Quantized::Code { symbol, recon } => {
                symbols.push(symbol);
                recon
            }
            Quantized::Escape => {
                symbols.push(ESCAPE);
                field[i]
            }
        },
    );
    let symbols_mb = (symbols.len() * 4) as f64 / 1e6;
    let mut blob = Vec::new();
    let encode_s = timed(tr, "replay.util.huffman.encode", share, || {
        blob = huffman::encode(&symbols, quantizer.alphabet()).expect("symbols below alphabet");
    });
    let decode_s = timed(tr, "replay.util.huffman.decode", share, || {
        black_box(huffman::decode(&blob).expect("a blob this process encoded"));
    });
    layers.set("util.huffman.encode_mb_s", symbols_mb / encode_s);
    layers.set("util.huffman.decode_mb_s", symbols_mb / decode_s);
    Ok(())
}
