//! `store_paged`: scripts sharing one in-process `DatasetService` whose
//! decoded-state budget is an eighth of the working set, so the pager
//! evicts and plan replay rehydrates all the time. Two client threads,
//! closed loop; every op opens a new service session and asks for one
//! per-field x² QoI at a PRNG-chosen tolerance.

use super::{
    check_targets, closed_loop_clients, emit_reads, replay_engine, traced_execute, Acc, Ctx,
    Layers, Outcome, ReadCounters,
};
use crate::data::{mix, report_ok, Data};
use crate::replay;
use crate::trace::{self, NONE};
use pqr_core::{Archive, DatasetService, RetrievalRequest};
use pqr_progressive::pager::StoreBudget;
use pqr_progressive::refactored::Scheme;
use pqr_progressive::store::{ProgressStore, StoreStats};
use pqr_util::error::Result;
use rand::rngs::StdRng;
use rand::Rng;
use std::path::PathBuf;
use std::sync::{Arc, Mutex};

pub const TOLERANCES: [f64; 3] = [1e-2, 1e-4, 1e-7];
/// Untimed ops per client before the timed loop.
const WARM_OPS: usize = 10;

struct Setup {
    data: Data,
    path: PathBuf,
    /// Peak resident bytes of an unbounded store that served the deepest
    /// request of every field: the working set.
    working_set: u64,
    archive: Archive,
    budget: Arc<StoreBudget>,
    service: DatasetService,
    /// The per-field x² QoI names, in field order.
    qois: Vec<String>,
}

/// One op: a new session on the shared service, one QoI, one tolerance.
fn request(qois: &[String], mix: &mut StdRng) -> (usize, RetrievalRequest) {
    let field = mix.gen_range(0..qois.len());
    let tol = TOLERANCES[mix.gen_range(0..TOLERANCES.len())];
    (field, RetrievalRequest::new().qoi(&qois[field], tol))
}

fn setup(ctx: &Ctx, counters: &Arc<ReadCounters>) -> Result<(Setup, u64, u64)> {
    let data = Data::ge(ctx.seed);
    let path = ctx.tmp.join("store_ge.pqrx");
    data.builder(Scheme::PmgardHb)
        .build_to_path(&path, 0, true)?;
    let qois: Vec<String> = data.qois[6..].iter().map(|(n, _)| n.clone()).collect();

    // working-set probe: eviction off, the budget still tracks the peak
    let probe = Arc::new(StoreBudget::unbounded());
    let service = Archive::open(&path)?.service_with_budget(Arc::clone(&probe))?;
    let deepest = TOLERANCES[TOLERANCES.len() - 1];
    let mut failed = 0;
    for q in &qois {
        let report = service
            .session()?
            .execute(&RetrievalRequest::new().qoi(q, deepest))?;
        failed += u64::from(!report_ok(&report));
    }
    let working_set = probe.peak_resident_bytes();
    drop(service);

    let archive = ctx.open_archive(&path, counters)?;
    let budget = Arc::new(StoreBudget::with_limit(working_set / 8));
    let service = archive.service_with_budget(Arc::clone(&budget))?;
    for client in 0..ctx.clients {
        let mut mix = mix(ctx.seed, 100 + client as u64);
        for _ in 0..WARM_OPS {
            let (_, req) = request(&qois, &mut mix);
            failed += u64::from(!report_ok(&service.session()?.execute(&req)?));
        }
    }
    let attempted = (qois.len() + ctx.clients * WARM_OPS) as u64;
    let setup = Setup {
        data,
        path,
        working_set,
        archive,
        budget,
        service,
        qois,
    };
    Ok((setup, attempted, failed))
}

/// The gate: every (QoI, tolerance) shape through the paged service,
/// against the raw fields.
fn gate(s: &Setup) -> Result<(u64, u64)> {
    let truths = s.data.truths();
    let (mut checks, mut failed) = (0, 0);
    for q in &s.qois {
        for tol in TOLERANCES {
            let mut session = s.service.session()?;
            let report = session.execute(&RetrievalRequest::new().qoi(q, tol))?;
            let (c, f) = check_targets(&session, &report, &truths)?;
            checks += c;
            failed += f;
        }
    }
    Ok((checks, failed))
}

/// Writes the `store.*` and `pager.*` rows from the store's own counters
/// over the traced stretch.
pub fn emit_store(layers: &mut Layers, before: &StoreStats, after: &StoreStats, peak: u64) {
    let d = |f: fn(&StoreStats) -> u64| (f(after) - f(before)) as f64;
    let decoded = d(|s| s.fragments_decoded);
    let reuses = d(|s| s.refine_reuses);
    let rehydrated = d(|s| s.rehydration_decodes);
    layers.set("store.fragments_decoded", decoded);
    layers.set("store.refine_reuses", reuses);
    layers.set(
        "store.reuse_ratio",
        reuses / (reuses + d(|s| s.refine_advances)).max(1.0),
    );
    layers.set("store.epoch_short_circuits", d(|s| s.epoch_short_circuits));
    layers.set("store.plan_front_hits", d(|s| s.plan_front_hits));
    layers.set("store.plan_front_misses", d(|s| s.plan_front_misses));
    layers.set("pager.evictions", d(|s| s.evictions));
    layers.set("pager.rehydration_decodes", rehydrated);
    layers.set("pager.rehydration_bytes", d(|s| s.rehydration_bytes));
    layers.set("pager.peak_resident_bytes", peak as f64);
    layers.set(
        "pager.rehydration_share",
        rehydrated / (rehydrated + decoded).max(1.0),
    );
}

pub fn run(ctx: &Ctx) -> Result<Outcome> {
    let clients = ctx.clients;
    let mut out = Outcome {
        cycle: 1,
        root: "op",
        ..Outcome::default()
    };
    let counters = Arc::new(ReadCounters::default());
    let (s, warm_ops, warm_failed) = setup(ctx, &counters)?;
    let (checks, failed) = gate(&s)?;
    out.untimed = (warm_ops + checks, warm_failed + failed);

    let tr = &ctx.tracer;
    let acc = Mutex::new(Acc::default());
    // (field, bound reached) of every traced op, for the store replay
    let reached = Mutex::new(Vec::<(usize, f64)>::new());
    let make_clients = |stretch: u64| -> Vec<_> {
        (0..clients)
            .map(|client| {
                let mut mix = mix(ctx.seed, stretch * 10 + client as u64);
                let (s, acc, reached) = (&s, &acc, &reached);
                move |i: usize| {
                    let (field, req) = request(&s.qois, &mut mix);
                    let id = (i * clients + client) as u32;
                    let mut mine = Acc::default();
                    let result = (|| -> Result<bool> {
                        let root = tr.open("op", NONE, id);
                        let sess = tr.open("core.session", root.id(), id);
                        let session = s.service.session();
                        mine.session_s += tr.close(sess);
                        let mut session = session?;
                        // two clients share the source: a read has no one cause
                        let report = traced_execute(
                            tr,
                            &mut mine,
                            (root.id(), id),
                            &mut session,
                            &req,
                            false,
                        )?;
                        tr.close(root);
                        if tr.enabled() {
                            replay_engine(
                                tr,
                                &mut mine,
                                id,
                                &mut session,
                                &s.archive,
                                &req,
                                &report,
                            )?;
                            reached
                                .lock()
                                .expect("a client panicked")
                                .push((field, report.field_bounds[field]));
                        }
                        Ok(report_ok(&report))
                    })();
                    if tr.enabled() {
                        acc.lock().expect("a client panicked").merge(&mine);
                    }
                    let ok = result.unwrap_or_else(|e| {
                        eprintln!("store_paged: client {client} op {i} failed: {e}");
                        false
                    });
                    (ok, 0)
                }
            })
            .collect()
    };

    let fetched_before = s.service.source_stats().fetched_bytes;
    out.ops = closed_loop_clients(ctx.untraced_stretch(), make_clients(0));
    // per op: source bytes the timed loop fetched (rehydration re-reads
    // included) over ops × raw size
    let fetched = s.service.source_stats().fetched_bytes - fetched_before;
    out.bytes_per_raw_byte = fetched as f64 / out.ops.len().max(1) as f64 / s.data.raw_bytes();

    if ctx.traced {
        let stats_before = s.service.store_stats();
        tr.set_enabled(true);
        // half the stretch: the store replay below costs about as much again
        out.traced_ops = closed_loop_clients(ctx.traced_stretch() * 0.5, make_clients(1));
        let stats_after = s.service.store_stats();
        emit_store(
            &mut out.layers,
            &stats_before,
            &stats_after,
            s.budget.peak_resident_bytes(),
        );

        // staged replay of the store layer: the same (field, bound) series,
        // one call at a time, through a store over a preloaded source under
        // the same budget — it evicts and rehydrates as the live one does
        let mut acc = acc.into_inner().expect("a client panicked");
        let replay_budget = Arc::new(StoreBudget::with_limit(s.working_set / 8));
        let preloaded = replay::preload(&s.path)?;
        let store = ProgressStore::open_with(Arc::clone(&preloaded), replay_budget)?;
        let nanos_before = store.stats().reconstruct_nanos;
        for (field, bound) in reached.into_inner().expect("a client panicked") {
            let open = tr.open("replay.store.refine", NONE, NONE);
            store.refine_to(field, bound)?;
            acc.refine_s += tr.close(open);
        }
        let replayed = store.stats();
        acc.reconstruct_s = (replayed.reconstruct_nanos - nanos_before) as f64 / 1e9;
        acc.fragments_decoded = (stats_after.fragments_decoded + stats_after.rehydration_decodes)
            - (stats_before.fragments_decoded + stats_before.rehydration_decodes);
        let spans = tr.snapshot();
        acc.emit(&mut out.layers, trace::total_s(&spans, "fragstore.read"));
        out.layers
            .set("store.refine_s", acc.refine_s / acc.ops.max(1) as f64);
        emit_reads(&mut out.layers, &spans, &counters, out.traced_ops.len());
        let (_, field) = &s.data.raw.fields[0];
        replay::kernels(
            tr,
            &mut out.layers,
            field,
            &s.data.raw.dims,
            &[(Scheme::PmgardHb, preloaded)],
            ctx.kernel_budget(),
        )?;
    }
    std::fs::remove_file(&s.path).ok();
    Ok(out)
}
