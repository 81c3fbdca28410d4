//! What the five workloads share: the run context, the closed-loop
//! driver, the span-recording fragment source, and the accumulator that
//! turns traced ops and their staged replays into per-layer metrics.

pub mod cold_deep;
pub mod ingest;
pub mod serve_warm;
pub mod store_paged;
pub mod sweep_qoi;

use crate::clock;
use crate::data::truth_ok;
use crate::stats::{self, Op};
use crate::trace::{self, Tracer, NONE};
use pqr_core::{Archive, RetrievalRequest, Session};
use pqr_progressive::engine::QoiSpec;
use pqr_progressive::fragstore::{FileSource, FragmentId, FragmentSource, Manifest, SourceStats};
use pqr_progressive::plan::PlanReport;
use pqr_util::error::Result;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Timed ops a workload is sized to reach in one run of `spec::RUN_SECONDS`
/// on the recording box, so at least twelve samples lie beyond the reported
/// p90. The loop is bounded by time alone; a run that fell short says so.
pub const MIN_TIMED_OPS: usize = 120;

pub struct Ctx {
    pub seed: u64,
    pub seconds: f64,
    /// `--trace 1`: time an untraced stretch, then a traced one with
    /// staged replays, then the kernel replays.
    pub traced: bool,
    pub tracer: Arc<Tracer>,
    /// Scratch directory for archives, inside the checkout.
    pub tmp: PathBuf,
    /// Closed-loop clients the workload drives (`spec::Workload::clients`).
    pub clients: usize,
}

impl Ctx {
    /// The timed loop of a one-client workload: the untraced stretch, then
    /// on the traced run the tracer goes on for the traced stretch.
    pub fn run_stretches(&self, out: &mut Outcome, mut op: impl FnMut(usize) -> (bool, u8)) {
        out.ops = closed_loop(self.untraced_stretch(), out.cycle, &mut op);
        if self.traced {
            self.tracer.set_enabled(true);
            out.traced_ops = closed_loop(self.traced_stretch(), out.cycle, &mut op);
        }
    }

    /// The archive the ops read. The untraced run goes through
    /// `Archive::open` itself; the traced process wraps the same
    /// `FileSource` in a [`SpanSource`] to see its reads.
    pub fn open_archive(&self, path: &Path, counters: &Arc<ReadCounters>) -> Result<Archive> {
        if self.traced {
            Archive::from_fragment_source(SpanSource::new(
                FileSource::open(path)?,
                &self.tracer,
                counters,
            ))
        } else {
            Archive::open(path)
        }
    }

    /// `open` → `session()` under `core.open` / `core.session` spans; the
    /// session span is the cause of the metadata reads it makes.
    pub fn open_session(
        &self,
        acc: &mut Acc,
        (parent, op): (u32, u32),
        path: &Path,
        counters: &Arc<ReadCounters>,
    ) -> Result<(Archive, Session)> {
        let tr = &self.tracer;
        let open = tr.open("core.open", parent, op);
        let archive = self.open_archive(path, counters);
        acc.open_s += tr.close(open);
        let archive = archive?;
        let sess = tr.open("core.session", parent, op);
        tr.set_cause(sess.id(), op);
        let session = archive.session();
        tr.set_cause(NONE, NONE);
        acc.session_s += tr.close(sess);
        Ok((archive, session?))
    }

    /// Seconds of the untraced stretch.
    pub fn untraced_stretch(&self) -> f64 {
        if self.traced {
            self.seconds * 0.3
        } else {
            self.seconds
        }
    }

    /// Seconds of the traced stretch, replays included.
    pub fn traced_stretch(&self) -> f64 {
        self.seconds * 0.4
    }

    /// Seconds the kernel replays may take.
    pub fn kernel_budget(&self) -> f64 {
        self.seconds * 0.3
    }
}

/// What a workload hands back.
#[derive(Default)]
pub struct Outcome {
    /// The untraced timed ops, in completion order.
    pub ops: Vec<Op>,
    /// Ops per cycle (segments hold whole cycles).
    pub cycle: usize,
    /// The traced stretch (`--trace 1` only). These ops' own times include
    /// the staged replay that follows each; `root` names the span that
    /// covers the op alone.
    pub traced_ops: Vec<Op>,
    pub root: &'static str,
    /// Warm-up ops and gate checks: attempted, failed.
    pub untimed: (u64, u64),
    pub bytes_per_raw_byte: f64,
    pub layers: Layers,
}

/// Per-layer metric values by name; names not in `spec::PER_LAYER` are a
/// bug and stop the run.
#[derive(Default)]
pub struct Layers(pub BTreeMap<&'static str, f64>);

impl Layers {
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.0.insert(name, value);
    }
}

/// Runs whole cycles of `op` back to back — each starts when the previous
/// one returns — until `seconds` have passed; at least one cycle.
/// `op(i)` returns whether op `i` passed its checks and which variant ran.
/// Times are on the process's clock ([`clock::now`]).
pub fn closed_loop(seconds: f64, cycle: usize, mut op: impl FnMut(usize) -> (bool, u8)) -> Vec<Op> {
    let begin = clock::now();
    let mut ops = Vec::new();
    while ops.is_empty() || clock::now() - begin < seconds {
        for _ in 0..cycle {
            let start = clock::now();
            let (ok, variant) = op(ops.len());
            ops.push(Op {
                start,
                end: clock::now(),
                ok,
                variant,
            });
        }
    }
    ops
}

/// [`closed_loop`] on `clients` threads at once, each with its own `op`
/// state; the merged ops come back in completion order.
pub fn closed_loop_clients<F>(seconds: f64, clients: Vec<F>) -> Vec<Op>
where
    F: FnMut(usize) -> (bool, u8) + Send,
{
    let mut ops: Vec<Op> = std::thread::scope(|s| {
        let handles: Vec<_> = clients
            .into_iter()
            .map(|op| s.spawn(move || closed_loop(seconds, 1, op)))
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("a client thread panicked"))
            .collect()
    });
    ops.sort_by(|a, b| a.end.total_cmp(&b.end));
    ops
}

/// Median latency of `ops`, seconds.
pub fn p50(ops: &[Op]) -> f64 {
    stats::percentile(
        &stats::sorted(ops.iter().map(|o| o.end - o.start).collect()),
        50.0,
    )
}

/// Tallies of a [`SpanSource`].
#[derive(Default)]
pub struct ReadCounters {
    pub calls: AtomicU64,
    pub fragments: AtomicU64,
    pub bytes: AtomicU64,
}

/// A [`FragmentSource`] that records a `fragstore.read` span and counts
/// fragments and bytes around every read of the source it wraps — handed
/// to `Archive::from_fragment_source`, so the time is measured in situ,
/// inside `execute`. Records only while the tracer is enabled.
pub struct SpanSource<S> {
    inner: S,
    tracer: Arc<Tracer>,
    counters: Arc<ReadCounters>,
}

impl<S: FragmentSource> SpanSource<S> {
    pub fn new(inner: S, tracer: &Arc<Tracer>, counters: &Arc<ReadCounters>) -> Self {
        Self {
            inner,
            tracer: Arc::clone(tracer),
            counters: Arc::clone(counters),
        }
    }

    fn record(&self, payloads: &[Arc<Vec<u8>>]) {
        if self.tracer.enabled() {
            let bytes: usize = payloads.iter().map(|p| p.len()).sum();
            self.counters.calls.fetch_add(1, Ordering::Relaxed);
            self.counters
                .fragments
                .fetch_add(payloads.len() as u64, Ordering::Relaxed);
            self.counters
                .bytes
                .fetch_add(bytes as u64, Ordering::Relaxed);
        }
    }
}

impl<S: FragmentSource> FragmentSource for SpanSource<S> {
    fn manifest(&self) -> Result<Manifest> {
        self.inner.manifest()
    }

    fn fetch(&self, id: FragmentId) -> Result<Arc<Vec<u8>>> {
        let open = self.tracer.open_caused("fragstore.read");
        let out = self.inner.fetch(id);
        self.tracer.close(open);
        if let Ok(p) = &out {
            self.record(std::slice::from_ref(p));
        }
        out
    }

    fn read_many(&self, ids: &[FragmentId]) -> Result<Vec<Arc<Vec<u8>>>> {
        let open = self.tracer.open_caused("fragstore.read");
        let out = self.inner.read_many(ids);
        self.tracer.close(open);
        if let Ok(p) = &out {
            self.record(p);
        }
        out
    }

    fn stats(&self) -> SourceStats {
        self.inner.stats()
    }
}

/// Sums over the traced ops of one workload; [`Acc::emit`] turns them into
/// per-op means under the per-layer metric names.
#[derive(Default)]
pub struct Acc {
    pub ops: u64,
    pub open_s: f64,
    pub session_s: f64,
    pub plan_s: f64,
    pub execute_s: f64,
    pub codec_s: f64,
    pub scan_s: f64,
    /// Σ iterations × scan time: what the estimator cost inside execute.
    pub estimate_s: f64,
    pub iterations: u64,
    pub qoi_values_s: f64,
    /// Σ points × targets scanned by the replayed scans.
    pub scanned: f64,
    pub refine_s: f64,
    pub reconstruct_s: f64,
    pub fragments_decoded: u64,
    pub recompose_passes: u64,
    pub recon_cache_hits: u64,
}

impl Acc {
    /// Adds another client's sums.
    pub fn merge(&mut self, o: &Acc) {
        self.ops += o.ops;
        self.open_s += o.open_s;
        self.session_s += o.session_s;
        self.plan_s += o.plan_s;
        self.execute_s += o.execute_s;
        self.codec_s += o.codec_s;
        self.scan_s += o.scan_s;
        self.estimate_s += o.estimate_s;
        self.iterations += o.iterations;
        self.qoi_values_s += o.qoi_values_s;
        self.scanned += o.scanned;
        self.refine_s += o.refine_s;
        self.reconstruct_s += o.reconstruct_s;
        self.fragments_decoded += o.fragments_decoded;
        self.recompose_passes += o.recompose_passes;
        self.recon_cache_hits += o.recon_cache_hits;
    }

    /// Writes the `core`, `engine`, `reader` and `trace` rows. `read_s` is
    /// the in-situ fragment read time to count as attributed.
    pub fn emit(&self, layers: &mut Layers, read_s: f64) {
        let n = self.ops.max(1) as f64;
        layers.set("core.open_s", self.open_s / n);
        layers.set("core.session_s", self.session_s / n);
        layers.set("core.plan_s", self.plan_s / n);
        layers.set("core.execute_s", self.execute_s / n);
        layers.set("core.request_codec_s", self.codec_s / n);
        layers.set("engine.scan_s", self.scan_s / n);
        layers.set("engine.iterations", self.iterations as f64 / n);
        layers.set("engine.qoi_values_s", self.qoi_values_s / n);
        layers.set(
            "qoi.scan_ns_per_point",
            self.scan_s * 1e9 / self.scanned.max(1.0),
        );
        layers.set("reader.refine_s", self.refine_s / n);
        layers.set("reader.reconstruct_s", self.reconstruct_s / n);
        layers.set(
            "reader.decode_s",
            (self.refine_s - self.reconstruct_s).max(0.0) / n,
        );
        layers.set(
            "reader.fragments_decoded",
            self.fragments_decoded as f64 / n,
        );
        layers.set("reader.recompose_passes", self.recompose_passes as f64 / n);
        layers.set("reader.recon_cache_hits", self.recon_cache_hits as f64 / n);
        let execute = self.execute_s.max(1e-12);
        let attributed = read_s + self.refine_s + self.estimate_s;
        layers.set("engine.estimate_share", self.estimate_s / execute);
        layers.set("trace.attributed_fraction", attributed / execute);
        layers.set(
            "core.execute_unattributed_s",
            (self.execute_s - attributed).max(0.0) / n,
        );
    }
}

/// Plans (traced only: `execute` plans again itself) and executes `request`
/// under `core.plan` / `core.execute` spans, adding both to `acc`. While
/// `execute` runs its span is published as the cause of fragment reads when
/// `publish` is set (one client only; see [`Tracer::set_cause`]).
pub fn traced_execute(
    tr: &Tracer,
    acc: &mut Acc,
    (parent, op): (u32, u32),
    session: &mut Session,
    request: &RetrievalRequest,
    publish: bool,
) -> Result<PlanReport> {
    if tr.enabled() {
        let plan = tr.open("core.plan", parent, op);
        let planned = session.plan(request);
        acc.plan_s += tr.close(plan);
        planned?;
    }
    let exec = tr.open("core.execute", parent, op);
    if publish {
        tr.set_cause(exec.id(), op);
    }
    let report = session.execute(request);
    if publish {
        tr.set_cause(NONE, NONE);
    }
    acc.execute_s += tr.close(exec);
    let report = report?;
    if tr.enabled() {
        acc.ops += 1;
        acc.iterations += report.iterations as u64;
        acc.recompose_passes += report.recompose_passes;
        acc.recon_cache_hits += report.recon_cache_hits;
    }
    Ok(report)
}

/// The set-up gate on one executed request: every target's derived values
/// against the raw fields, `max|truth − derived| ≤ max_est_error ≤
/// tol_abs`. Returns `(checks, failures)`.
pub fn check_targets(
    session: &Session,
    report: &PlanReport,
    truths: &BTreeMap<String, Vec<f64>>,
) -> Result<(u64, u64)> {
    let mut failed = 0;
    for t in &report.targets {
        let derived = session.qoi_values(&t.name)?;
        let ok = t.satisfied && truth_ok(&truths[&t.name], &derived, t.max_est_error, t.tol_abs);
        failed += u64::from(!ok);
    }
    Ok((report.targets.len() as u64, failed))
}

/// The engine half of the staged replay: after an op, one
/// `scan_qois` at the bounds the op reached (Alg. 2's estimator pass — the
/// engine ran `iterations` of them), one `qoi_values`, and the request's
/// wire codec round trip.
pub fn replay_engine(
    tr: &Tracer,
    acc: &mut Acc,
    op: u32,
    session: &mut Session,
    archive: &Archive,
    request: &RetrievalRequest,
    report: &PlanReport,
) -> Result<()> {
    if !tr.enabled() {
        return Ok(());
    }
    let specs: Vec<QoiSpec> = request
        .targets()
        .iter()
        .map(|t| archive.spec(&t.name, t.tolerance))
        .collect::<Result<_>>()?;
    let points = session.engine().manifest().num_elements();
    let scan = tr.open("replay.engine.scan", NONE, op);
    std::hint::black_box(session.engine().scan_qois(&specs, &report.field_bounds));
    let scan_s = tr.close(scan);
    acc.scan_s += scan_s;
    acc.estimate_s += scan_s * report.iterations as f64;
    acc.scanned += (points * specs.len()) as f64;

    let values = tr.open("replay.engine.qoi_values", NONE, op);
    std::hint::black_box(session.qoi_values(&request.targets()[0].name)?);
    acc.qoi_values_s += tr.close(values);

    let codec = tr.open("replay.core.request_codec", NONE, op);
    std::hint::black_box(RetrievalRequest::from_wire_bytes(&request.to_wire_bytes())?);
    acc.codec_s += tr.close(codec);
    Ok(())
}

/// In-situ read time that lay inside `core.execute` spans, seconds: each
/// execute span's duration minus its self time.
pub fn read_s_inside_execute(spans: &[trace::Span]) -> f64 {
    spans
        .iter()
        .zip(trace::self_times(spans))
        .filter(|(s, _)| s.name == "core.execute")
        .map(|(s, own)| (s.end - s.start - own) as f64 / 1e9)
        .fold(0.0, |a, b| a + b)
}

/// Writes the `fragstore.*` rows as per-op means over `ops` traced ops.
pub fn emit_reads(layers: &mut Layers, spans: &[trace::Span], c: &ReadCounters, ops: usize) {
    let n = ops.max(1) as f64;
    layers.set(
        "fragstore.read_s",
        trace::total_s(spans, "fragstore.read") / n,
    );
    layers.set(
        "fragstore.read_ops",
        c.calls.load(Ordering::Relaxed) as f64 / n,
    );
    layers.set(
        "fragstore.fragments",
        c.fragments.load(Ordering::Relaxed) as f64 / n,
    );
    layers.set(
        "fragstore.bytes",
        c.bytes.load(Ordering::Relaxed) as f64 / n,
    );
}

/// Writes `scheme.<name>.op_s_p50` for a workload that cycles the schemes.
pub fn emit_scheme_p50(layers: &mut Layers, ops: &[Op]) {
    const NAMES: [&str; 3] = [
        "scheme.pmgard-hb.op_s_p50",
        "scheme.pzfp.op_s_p50",
        "scheme.psz3-delta.op_s_p50",
    ];
    for (v, name) in NAMES.iter().enumerate() {
        let of: Vec<Op> = ops
            .iter()
            .filter(|o| usize::from(o.variant) == v)
            .copied()
            .collect();
        layers.set(name, p50(&of));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn closed_loop_runs_whole_cycles_until_the_time_is_up() {
        // no time to speak of: one whole cycle all the same
        let ops = closed_loop(0.0, 3, |i| (i % 2 == 0, (i % 3) as u8));
        assert_eq!(ops.len(), 3);
        assert_eq!(ops[1].variant, 1);
        assert!(ops[0].ok && !ops[1].ok);
        // 20 ms of 2 ms ops in cycles of three: some whole cycles
        let ops = closed_loop(0.02, 3, |_| {
            std::thread::sleep(std::time::Duration::from_millis(2));
            (true, 0)
        });
        assert!(ops.len() >= 6 && ops.len() % 3 == 0, "{} ops", ops.len());
        assert!(ops.windows(2).all(|w| w[0].end <= w[1].start));
    }

    #[test]
    fn client_threads_run_side_by_side_and_merge_by_completion() {
        let clients: Vec<_> = (0..2u8)
            .map(|k| {
                move |_i: usize| {
                    std::thread::sleep(std::time::Duration::from_millis(1));
                    (true, k)
                }
            })
            .collect();
        let ops = closed_loop_clients(0.01, clients);
        for k in 0..2u8 {
            assert!(ops.iter().filter(|o| o.variant == k).count() >= 3);
        }
        assert!(ops.windows(2).all(|w| w[0].end <= w[1].end));
    }

    #[test]
    fn execute_read_time_is_the_covered_part_only() {
        let span = |name, start, end, parent| trace::Span {
            name,
            start,
            end,
            parent,
            op: 0,
        };
        let spans = vec![
            span("core.execute", 0, 1_000, NONE),
            span("fragstore.read", 100, 300, 0),
            span("fragstore.read", 200, 400, 0),
            span("core.session", 2_000, 3_000, NONE),
            span("fragstore.read", 2_100, 2_200, 3),
        ];
        assert!((read_s_inside_execute(&spans) - 300e-9).abs() < 1e-15);
    }
}
