//! The 96-worker block retrieval pipeline of §VI-D.
//!
//! Each worker claims a block, runs the QoI-preserving retrieval engine on
//! it (deciding how many fragment bytes that block needs for the requested
//! tolerance), and the fetched bytes ride the shared simulated pipe. The
//! result decomposes total time exactly as Fig. 9 does:
//!
//! ```text
//! total = retrieval (real, wall-clock, parallel) + transfer (simulated)
//! ```

use crate::network::NetworkModel;
use pqr_progressive::engine::{EngineConfig, QoiSpec, RetrievalEngine};
use pqr_progressive::fragstore::FragmentSource;
use pqr_util::error::Result;
use pqr_util::par::par_dynamic;
use pqr_util::timer::Stopwatch;
use std::sync::Arc;

/// Pipeline configuration.
#[derive(Debug, Clone, Copy)]
pub struct PipelineConfig {
    /// Worker count (paper: 96, one per block).
    pub workers: usize,
    /// The simulated pipe.
    pub network: NetworkModel,
    /// Retrieval engine knobs.
    pub engine: EngineConfig,
}

impl Default for PipelineConfig {
    fn default() -> Self {
        Self {
            workers: 96,
            network: NetworkModel::globus_mcc_to_anvil(),
            engine: EngineConfig {
                // blocks are the parallel unit — nested scan/decode threads
                // would oversubscribe and distort per-block timings
                workers: 1,
                ..EngineConfig::default()
            },
        }
    }
}

/// Per-block outcome.
#[derive(Debug, Clone, Default)]
pub struct BlockResult {
    /// Bytes this block's retrieval fetched.
    pub bytes: usize,
    /// Whether every QoI tolerance was met.
    pub satisfied: bool,
    /// Max estimated QoI error (first spec).
    pub max_est_error: f64,
    /// Engine iterations used.
    pub iterations: usize,
    /// Measured compute seconds for this block's retrieval.
    pub secs: f64,
}

/// Whole-pipeline outcome (one Fig. 9 data point).
#[derive(Debug, Clone)]
pub struct PipelineResult {
    /// Per-block outcomes.
    pub blocks: Vec<BlockResult>,
    /// Total fetched bytes across blocks.
    pub total_bytes: usize,
    /// Measured wall-clock retrieval time (parallel section), seconds.
    pub retrieval_secs: f64,
    /// Simulated wire time for the fetched bytes, seconds.
    pub transfer_secs: f64,
}

impl PipelineResult {
    /// Total end-to-end time (the paper's "data transfer time") using the
    /// *measured* parallel section on this machine.
    pub fn total_secs(&self) -> f64 {
        self.retrieval_secs + self.transfer_secs
    }

    /// Retrieval makespan on a machine with `workers` real cores, scheduled
    /// LPT (longest block first) from the measured per-block times.
    ///
    /// The paper runs 96 blocks on 96 physical cores; a laptop runs them
    /// oversubscribed, so the measured wall time overstates the paper's
    /// setup by ~(96 / local cores). This reconstruction is what Fig. 9
    /// should be compared against.
    pub fn makespan_secs(&self, workers: usize) -> f64 {
        let workers = workers.max(1);
        let mut times: Vec<f64> = self.blocks.iter().map(|b| b.secs).collect();
        times.sort_by(|a, b| b.total_cmp(a));
        let mut loads = vec![0.0f64; workers];
        for t in times {
            // assign to the least-loaded worker
            let (idx, _) = loads
                .iter()
                .enumerate()
                .min_by(|a, b| a.1.total_cmp(b.1))
                .expect("non-empty loads");
            loads[idx] += t;
        }
        loads.iter().copied().fold(0.0, f64::max)
    }

    /// End-to-end time with the retrieval makespan reconstructed for
    /// `workers` physical cores (the Fig. 9 configuration).
    pub fn total_secs_at(&self, workers: usize) -> f64 {
        self.makespan_secs(workers) + self.transfer_secs
    }

    /// True when every block met its tolerances.
    pub fn all_satisfied(&self) -> bool {
        self.blocks.iter().all(|b| b.satisfied)
    }
}

/// Runs the QoI-preserving retrieval on every block and charges the
/// fetched bytes to the simulated network.
///
/// Each block is a [`FragmentSource`] — its serialized container, in
/// memory or on file; the engine refines through it on the same code path
/// as every archive, so the source's own
/// [`SourceStats`](pqr_progressive::fragstore::SourceStats) count the
/// fetches and round trips. `specs_for_block` produces the QoI requests
/// for a given block index (ranges differ per block, so specs are
/// per-block).
pub fn run_pipeline(
    blocks: &[Arc<dyn FragmentSource>],
    cfg: &PipelineConfig,
    specs_for_block: impl Fn(usize) -> Vec<QoiSpec> + Sync,
) -> Result<PipelineResult> {
    let nblocks = blocks.len();
    // Run at most one thread per physical core: oversubscribing (96 logical
    // workers on a laptop) would contaminate the per-block wall times that
    // makespan_secs() reconstructs from. Fetched bytes are independent of
    // the worker count.
    let threads = cfg.workers.min(pqr_util::par::worker_count());
    let sw = Stopwatch::started();
    let blocks: Vec<BlockResult> = par_dynamic(nblocks, threads, |i| {
        let t0 = std::time::Instant::now();
        let specs = specs_for_block(i);
        let mut engine = match RetrievalEngine::from_source(Arc::clone(&blocks[i]), cfg.engine) {
            Ok(e) => e,
            Err(_) => return BlockResult::default(),
        };
        match engine.retrieve(&specs) {
            Ok(report) => BlockResult {
                bytes: report.total_fetched,
                satisfied: report.satisfied,
                max_est_error: report.targets.first().map_or(0.0, |t| t.max_est_error),
                iterations: report.iterations,
                secs: t0.elapsed().as_secs_f64(),
            },
            Err(_) => BlockResult::default(),
        }
    });
    let retrieval_secs = sw.secs();
    let total_bytes: usize = blocks.iter().map(|b| b.bytes).sum();
    // The wire model charges per-request overhead per *block*, not per
    // fragment: a block's fragment fetches are decided in one retrieval
    // pass and ride one pipelined bulk request, Globus-style (the paper's
    // §VI-D setup). A source's `SourceStats::read_ops` counts the finer
    // source-side round trips — engines batch each refinement round
    // through `read_many`, so it sits between the block count and the
    // fragment count.
    let transfer_secs = cfg.network.transfer_secs(total_bytes, nblocks);
    Ok(PipelineResult {
        blocks,
        total_bytes,
        retrieval_secs,
        transfer_secs,
    })
}

/// The Fig. 9 baseline: moving `fields` of each block's raw
/// (uncompressed) fields, sized from the block manifests.
pub fn baseline_transfer_secs(
    blocks: &[Arc<dyn FragmentSource>],
    cfg: &PipelineConfig,
    fields: usize,
) -> Result<f64> {
    let mut bytes = 0;
    for block in blocks {
        let m = block.manifest()?;
        bytes += m.raw_bytes() * fields / m.num_fields().max(1);
    }
    Ok(cfg.network.transfer_secs(bytes, blocks.len()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use pqr_datagen::ge::{self, GeConfig};
    use pqr_progressive::field::Dataset;
    use pqr_progressive::fragstore::{InMemorySource, SourceStats};
    use pqr_progressive::refactored::Scheme;
    use pqr_qoi::library::velocity_magnitude;

    /// Builds small GE-large-like blocks: per-block containers of the
    /// refactored velocity fields with their zero mask, plus per-block VTOT
    /// ranges.
    fn build_blocks(
        blocks: usize,
        scheme: Scheme,
        mean_block_len: usize,
    ) -> (Vec<Vec<u8>>, Vec<f64>) {
        let cfg = GeConfig {
            blocks,
            mean_block_len,
            wall_fraction: 0.02,
            seed: 1234,
        };
        let raw = ge::generate(&cfg);
        let mut ranges = Vec::with_capacity(blocks);
        let refactored = raw
            .iter()
            .map(|b| {
                let mut ds = Dataset::new(&b.dims);
                for name in ["VelocityX", "VelocityY", "VelocityZ"] {
                    ds.add_field(name, b.field(name).unwrap().to_vec()).unwrap();
                }
                ranges.push(ds.qoi_range(&velocity_magnitude(0, 3)).unwrap());
                let ladder = [1e-1, 1e-2, 1e-3, 1e-4, 1e-5, 1e-6];
                let src = ds.refactor_in_memory(scheme, &ladder, Some(&[0, 1, 2]), &[], 0);
                let mut bytes = Vec::new();
                src.unwrap().copy_to(&mut bytes).unwrap();
                bytes
            })
            .collect();
        (refactored, ranges)
    }

    /// Each block served from its serialized container, so every source
    /// tallies its fetches, bytes and round trips.
    fn in_memory(blocks: &[Vec<u8>]) -> Vec<Arc<dyn FragmentSource>> {
        blocks
            .iter()
            .map(|b| Arc::new(InMemorySource::new(b.clone()).unwrap()) as Arc<dyn FragmentSource>)
            .collect()
    }

    /// The sum of every block source's tallies.
    fn total_stats(sources: &[Arc<dyn FragmentSource>]) -> SourceStats {
        sources.iter().map(|s| s.stats()).sum()
    }

    /// Engine-counted bytes that never ride the fragment path: the mask is
    /// manifest metadata, charged by the engine but not fetched by id.
    fn mask_bytes(sources: &[Arc<dyn FragmentSource>]) -> usize {
        let mask = |s: &Arc<dyn FragmentSource>| s.manifest().unwrap().mask;
        sources
            .iter()
            .map(|s| mask(s).map_or(0, |m| m.storage_bytes()))
            .sum()
    }

    /// One VTOT target per block at relative tolerance `tol`.
    fn vtot(ranges: &[f64], tol: f64) -> impl Fn(usize) -> Vec<QoiSpec> + Sync + '_ {
        move |i| {
            vec![QoiSpec::with_range(
                "VTOT",
                velocity_magnitude(0, 3),
                tol,
                ranges[i],
            )]
        }
    }

    fn with_workers(workers: usize) -> PipelineConfig {
        PipelineConfig {
            workers,
            ..Default::default()
        }
    }

    #[test]
    fn pipeline_meets_tolerances_and_counts_bytes() {
        let (blocks, ranges) = build_blocks(8, Scheme::PmgardHb, 500);
        let sources = in_memory(&blocks);
        let result = run_pipeline(&sources, &with_workers(4), vtot(&ranges, 1e-3)).unwrap();
        assert!(result.all_satisfied());
        assert_eq!(result.blocks.len(), 8);
        // every non-mask byte the engines counted went through the block
        // sources; batched rounds keep round trips well below the
        // per-fragment count but above one per block (metadata + rounds)
        let c = total_stats(&sources);
        assert_eq!(
            result.total_bytes,
            c.fetched_bytes as usize + mask_bytes(&sources)
        );
        assert!(
            c.read_ops as usize > blocks.len(),
            "metadata + round batches"
        );
        assert!(
            c.read_ops < c.fetches,
            "batching must collapse round trips below fragment count"
        );
        assert!(result.transfer_secs > 0.0);
        assert!(result.total_secs() >= result.transfer_secs);
    }

    #[test]
    fn tighter_tolerance_more_bytes_more_time() {
        let (blocks, ranges) = build_blocks(6, Scheme::PmgardHb, 500);
        let sources = in_memory(&blocks);
        let loose = run_pipeline(&sources, &with_workers(3), vtot(&ranges, 1e-1)).unwrap();
        let tight = run_pipeline(&sources, &with_workers(3), vtot(&ranges, 1e-5)).unwrap();
        assert!(tight.total_bytes > loose.total_bytes);
        assert!(tight.transfer_secs > loose.transfer_secs);
    }

    #[test]
    fn progressive_beats_baseline_at_tolerable_error() {
        // the paper's headline: 2.02× at τ = 1e-5 on 2.2M-point blocks. At
        // test scale, fixed per-plane metadata is a visible fraction, so the
        // blocks here are bigger than the other tests' and the assertion is
        // a plain byte/time win (the 2× factor is exercised by the fig9
        // harness at realistic sizes).
        let (blocks, ranges) = build_blocks(6, Scheme::PmgardHb, 4000);
        let sources = in_memory(&blocks);
        let cfg = PipelineConfig {
            workers: 4,
            network: crate::NetworkModel::wan_slow(),
            ..Default::default()
        };
        let result = run_pipeline(&sources, &cfg, vtot(&ranges, 1e-5)).unwrap();
        assert!(result.all_satisfied());
        let raw: usize = sources
            .iter()
            .map(|s| s.manifest().unwrap().raw_bytes())
            .sum();
        assert!(
            result.total_bytes < raw,
            "progressive {} B !< raw {} B",
            result.total_bytes,
            raw
        );
        let baseline = baseline_transfer_secs(&sources, &cfg, 3).unwrap();
        assert!(
            result.transfer_secs < baseline,
            "progressive {} s !< baseline {} s",
            result.transfer_secs,
            baseline
        );
    }

    #[test]
    fn makespan_reconstruction_sane() {
        let (blocks, ranges) = build_blocks(8, Scheme::PmgardHb, 500);
        let result =
            run_pipeline(&in_memory(&blocks), &with_workers(2), vtot(&ranges, 1e-3)).unwrap();
        let sum: f64 = result.blocks.iter().map(|b| b.secs).sum();
        let max: f64 = result.blocks.iter().map(|b| b.secs).fold(0.0, f64::max);
        // one worker per block → makespan = slowest block
        let m96 = result.makespan_secs(96);
        assert!((m96 - max).abs() < 1e-12);
        // single worker → makespan = total work
        let m1 = result.makespan_secs(1);
        assert!((m1 - sum).abs() < 1e-9);
        // more workers never slower
        assert!(result.makespan_secs(4) <= m1 + 1e-12);
        assert!(result.total_secs_at(96) <= result.total_secs() + 1e-9);
    }

    #[test]
    fn pipeline_works_over_pzfp_blocks() {
        // the representation extension slots into the distributed path too
        let (blocks, ranges) = build_blocks(6, Scheme::Pzfp, 500);
        let sources = in_memory(&blocks);
        let result = run_pipeline(&sources, &with_workers(3), vtot(&ranges, 1e-3)).unwrap();
        assert!(result.all_satisfied());
        assert_eq!(
            result.total_bytes,
            total_stats(&sources).fetched_bytes as usize + mask_bytes(&sources)
        );
        // still far below moving the raw blocks
        let raw: usize = sources
            .iter()
            .map(|s| s.manifest().unwrap().raw_bytes())
            .sum();
        assert!(result.total_bytes < raw / 2);
    }

    #[test]
    fn worker_count_does_not_change_bytes() {
        let (blocks, ranges) = build_blocks(6, Scheme::Psz3Delta, 500);
        let run = |workers| {
            run_pipeline(
                &in_memory(&blocks),
                &with_workers(workers),
                vtot(&ranges, 1e-4),
            )
            .unwrap()
            .total_bytes
        };
        assert_eq!(run(1), run(6));
    }
}
