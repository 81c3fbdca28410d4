//! `serve_warm`: scripts talking to `pqr serve`, each waiting for its reply
//! before sending the next request. Two socket clients, closed loop, one
//! persistent connection (and so one server-side session) each, against an
//! in-process server with the default configuration over a store that fits
//! and is warm: the op is wire + admission + coalescing window + plan + one
//! estimator scan.

use super::store_paged::emit_store;
use super::{
    closed_loop_clients, emit_reads, p50, replay_engine, traced_execute, Acc, Ctx, Outcome,
    ReadCounters,
};
use crate::data::{mix, remote_ok, truth_ok, Data};
use crate::replay;
use crate::stats::{median, percentile, sorted};
use crate::trace::{self, NONE};
use pqr_core::{Archive, RetrievalRequest};
use pqr_progressive::pager::StoreBudget;
use pqr_progressive::refactored::Scheme;
use pqr_progressive::store::ProgressStore;
use pqr_serve::{Registry, Reply, ServeClient, Server, ServerConfig};
use pqr_util::error::{PqrError, Result};
use rand::rngs::StdRng;
use rand::Rng;
use std::path::PathBuf;
use std::sync::{Arc, Mutex};

const DATASET: &str = "ge";
pub const TOLERANCES: [f64; 6] = [1e-1, 1e-2, 1e-3, 1e-4, 1e-5, 1e-6];
/// Untimed PRNG-chosen retrieves per client, after the deepest request of
/// every QoI has warmed the store.
const WARM_OPS: usize = 20;
/// `stats` frames timed for `serve.rtt_s`.
const RTT_FRAMES: usize = 200;

struct Setup {
    data: Data,
    path: PathBuf,
    budget: Arc<StoreBudget>,
    server: Server,
    clients: Vec<ServeClient>,
    /// The six GE QoI names.
    qois: Vec<String>,
}

fn request(qois: &[String], (q, t): (usize, usize)) -> RetrievalRequest {
    RetrievalRequest::new().qoi(&qois[q], TOLERANCES[t])
}

fn draw(qois: &[String], mix: &mut StdRng) -> (usize, usize) {
    (
        mix.gen_range(0..qois.len()),
        mix.gen_range(0..TOLERANCES.len()),
    )
}

/// A reply that must have been served: a shed counts as a failed op.
fn served<T>(reply: Reply<T>) -> Result<T> {
    match reply {
        Reply::Ok(v) => Ok(v),
        Reply::Busy { reason, .. } => Err(PqrError::InvalidRequest(format!("shed: {reason}"))),
    }
}

fn setup(ctx: &Ctx, counters: &Arc<ReadCounters>) -> Result<(Setup, u64, u64)> {
    let n_clients = ctx.clients;
    let data = Data::ge(ctx.seed);
    let path = ctx.tmp.join("serve_ge.pqrx");
    data.builder(Scheme::PmgardHb)
        .build_to_path(&path, 0, true)?;
    let qois: Vec<String> = data.qois[..6].iter().map(|(n, _)| n.clone()).collect();

    let archive = ctx.open_archive(&path, counters)?;
    let budget = Arc::new(StoreBudget::unbounded());
    let mut registry = Registry::with_budget(Arc::clone(&budget));
    registry.register(DATASET, archive)?;
    let server = Server::start("127.0.0.1:0", registry, ServerConfig::default())?;

    let mut clients = Vec::new();
    for _ in 0..n_clients {
        let mut c = ServeClient::connect(server.local_addr())?;
        served(c.open(DATASET)?)?;
        clients.push(c);
    }
    let mut failed = 0;
    let deepest = TOLERANCES.len() - 1;
    for q in 0..qois.len() {
        let reply = clients[q % n_clients].retrieve(&request(&qois, (q, deepest)), &[], false)?;
        failed += u64::from(!served(reply).is_ok_and(|r| remote_ok(&r)));
    }
    for (k, c) in clients.iter_mut().enumerate() {
        let mut mix = mix(ctx.seed, 100 + k as u64);
        for _ in 0..WARM_OPS {
            let reply = c.retrieve(&request(&qois, draw(&qois, &mut mix)), &[], false)?;
            failed += u64::from(!served(reply).is_ok_and(|r| remote_ok(&r)));
        }
    }
    let attempted = (qois.len() + n_clients * WARM_OPS) as u64;
    let setup = Setup {
        data,
        path,
        budget,
        server,
        clients,
        qois,
    };
    Ok((setup, attempted, failed))
}

fn teardown(s: Setup) {
    for c in s.clients {
        c.close().ok();
    }
    s.server.shutdown();
}

/// The gate: every (QoI, tolerance) shape over the wire with its derived
/// values, against the raw fields.
fn gate(s: &mut Setup) -> Result<(u64, u64)> {
    let truths = s.data.truths();
    let (mut checks, mut failed) = (0, 0);
    for q in 0..s.qois.len() {
        for t in 0..TOLERANCES.len() {
            let name = s.qois[q].as_str();
            let reply = s.clients[0].retrieve(&request(&s.qois, (q, t)), &[name], false)?;
            let report = served(reply)?;
            let target = &report.targets[0];
            checks += 1;
            failed += u64::from(
                !(target.satisfied
                    && report.values.get(name).is_some_and(|derived| {
                        truth_ok(&truths[name], derived, target.max_est_error, target.tol_abs)
                    })),
            );
        }
    }
    Ok((checks, failed))
}

/// What the client closures of one stretch share.
struct Shared<'a> {
    ctx: &'a Ctx,
    qois: &'a [String],
    n_clients: usize,
    /// What the traced replies said about their own execution.
    served: Mutex<Acc>,
    queue_waits: Mutex<Vec<f64>>,
    /// The `(QoI, tolerance)` picks each client sent while traced.
    asked: Mutex<Vec<Vec<(usize, usize)>>>,
}

/// One closed-loop op closure per connection.
fn client_ops<'a>(
    clients: &'a mut [ServeClient],
    sh: &'a Shared<'a>,
    stretch: u64,
) -> Vec<impl FnMut(usize) -> (bool, u8) + Send + 'a> {
    let tr = &sh.ctx.tracer;
    clients
        .iter_mut()
        .enumerate()
        .map(|(k, client)| {
            let mut mix = mix(sh.ctx.seed, stretch * 10 + k as u64);
            move |i: usize| {
                let pick = draw(sh.qois, &mut mix);
                let req = request(sh.qois, pick);
                let open = tr.open("serve.retrieve", NONE, (i * sh.n_clients + k) as u32);
                let reply = client.retrieve(&req, &[], false);
                tr.close(open);
                let report = match reply.and_then(served) {
                    Ok(r) => r,
                    Err(e) => {
                        eprintln!("serve_warm: client {k} op {i} failed: {e}");
                        return (false, 0);
                    }
                };
                if tr.enabled() {
                    let mut a = sh.served.lock().expect("a client panicked");
                    a.iterations += report.iterations;
                    a.recompose_passes += report.recompose_passes;
                    a.recon_cache_hits += report.recon_cache_hits;
                    a.fragments_decoded += report.store_fragments_decoded;
                    drop(a);
                    sh.queue_waits
                        .lock()
                        .expect("a client panicked")
                        .push(report.queue_wait_ms as f64 / 1e3);
                    sh.asked.lock().expect("a client panicked")[k].push(pick);
                }
                (remote_ok(&report), 0)
            }
        })
        .collect()
}

pub fn run(ctx: &Ctx) -> Result<Outcome> {
    let n_clients = ctx.clients;
    let mut out = Outcome {
        cycle: 1,
        root: "serve.retrieve",
        ..Outcome::default()
    };
    let counters = Arc::new(ReadCounters::default());
    let (mut s, warm_ops, warm_failed) = setup(ctx, &counters)?;
    let (checks, failed) = gate(&mut s)?;
    out.untimed = (warm_ops + checks, warm_failed + failed);

    let tr = &ctx.tracer;
    let shared = Shared {
        ctx,
        qois: &s.qois,
        n_clients,
        served: Mutex::new(Acc::default()),
        queue_waits: Mutex::new(Vec::new()),
        asked: Mutex::new(vec![Vec::new(); n_clients]),
    };
    let qois = &s.qois;

    out.ops = closed_loop_clients(
        ctx.untraced_stretch(),
        client_ops(&mut s.clients, &shared, 0),
    );
    // per run, warm-up included: everything the server read from the
    // archive since it started, over the raw size — the timed loop should
    // add nothing to it
    let fetched = s.server.stats().datasets[0].source.fetched_bytes;
    out.bytes_per_raw_byte = fetched as f64 / s.data.raw_bytes();

    if ctx.traced {
        let before = s.server.stats();
        tr.set_enabled(true);
        // half the stretch: the in-process replay below costs as much again
        out.traced_ops = closed_loop_clients(
            ctx.traced_stretch() * 0.5,
            client_ops(&mut s.clients, &shared, 1),
        );
        let after = s.server.stats();
        let l = &mut out.layers;
        emit_store(
            l,
            &before.datasets[0].store,
            &after.datasets[0].store,
            s.budget.peak_resident_bytes(),
        );
        let d = |f: fn(&pqr_serve::StatsSnapshot) -> u64| (f(&after) - f(&before)) as f64;
        l.set("serve.coalesced_rounds", d(|s| s.coalesced_rounds));
        l.set("serve.coalesced_requests", d(|s| s.coalesced_requests));
        l.set("serve.coalesce_fallbacks", d(|s| s.coalesce_fallbacks));
        l.set("serve.shed_busy", d(|s| s.shed_busy));
        l.set("serve.wire_bytes_in", d(|s| s.bytes_in));
        l.set("serve.wire_bytes_out", d(|s| s.bytes_out));
        let Shared {
            served: served_acc,
            queue_waits,
            asked,
            ..
        } = shared;
        let waits = sorted(queue_waits.into_inner().expect("a client panicked"));
        l.set("serve.queue_wait_s_p50", percentile(&waits, 50.0));
        l.set(
            "serve.queue_wait_s_max",
            waits.last().copied().unwrap_or(0.0),
        );

        // the wire floor: a stats frame there and back
        let mut rtts = Vec::with_capacity(RTT_FRAMES);
        for _ in 0..RTT_FRAMES {
            let open = tr.open("serve.stats_rtt", NONE, NONE);
            served(s.clients[0].stats()?)?;
            rtts.push(tr.close(open));
        }
        l.set("serve.rtt_s", median(&rtts));

        // staged replay: the same request sequences through in-process
        // sessions (one per client, as the server keeps one per connection)
        // on a warm service of its own, then the store calls they imply
        let archive = Archive::open(&s.path)?;
        let service = archive.service_with_budget(Arc::new(StoreBudget::unbounded()))?;
        let preloaded = replay::preload(&s.path)?;
        let store =
            ProgressStore::open_with(Arc::clone(&preloaded), Arc::new(StoreBudget::unbounded()))?;
        let deepest = TOLERANCES.len() - 1;
        let mut warm = service.session()?;
        for q in 0..qois.len() {
            let report = warm.execute(&request(qois, (q, deepest)))?;
            for (f, b) in report.field_bounds.iter().enumerate() {
                if b.is_finite() {
                    store.refine_to(f, *b)?;
                }
            }
        }
        let mut acc = Acc::default();
        let mut in_process = Vec::new();
        let nanos_before = store.stats().reconstruct_nanos;
        for (k, sequence) in asked
            .into_inner()
            .expect("a client panicked")
            .iter()
            .enumerate()
        {
            let mut session = service.session()?;
            for (i, pick) in sequence.iter().enumerate() {
                let req = request(qois, *pick);
                let id = (i * n_clients + k) as u32;
                let execute_before = acc.execute_s;
                let report = traced_execute(tr, &mut acc, (NONE, id), &mut session, &req, false)?;
                in_process.push(acc.execute_s - execute_before);
                replay_engine(tr, &mut acc, id, &mut session, &archive, &req, &report)?;
                let open = tr.open("replay.store.refine", NONE, id);
                for &f in &report.targets[0].fields {
                    store.refine_to(f, report.field_bounds[f])?;
                }
                acc.refine_s += tr.close(open);
            }
        }
        acc.reconstruct_s = (store.stats().reconstruct_nanos - nanos_before) as f64 / 1e9;
        // counts come from the served replies, times from the replay
        let served_acc = served_acc.into_inner().expect("a client panicked");
        acc.iterations = served_acc.iterations;
        acc.recompose_passes = served_acc.recompose_passes;
        acc.recon_cache_hits = served_acc.recon_cache_hits;
        acc.fragments_decoded = served_acc.fragments_decoded;
        let spans = tr.snapshot();
        acc.emit(l, trace::total_s(&spans, "fragstore.read"));
        l.set("store.refine_s", acc.refine_s / acc.ops.max(1) as f64);
        let execute_p50 = percentile(&sorted(in_process), 50.0);
        l.set("serve.overhead_s", p50(&out.traced_ops) - execute_p50);
        emit_reads(l, &spans, &counters, out.traced_ops.len());
        let (_, field) = &s.data.raw.fields[0];
        replay::kernels(
            tr,
            l,
            field,
            &s.data.raw.dims,
            &[(Scheme::PmgardHb, preloaded)],
            ctx.kernel_budget(),
        )?;
    }
    let path = s.path.clone();
    teardown(s);
    std::fs::remove_file(path).ok();
    Ok(out)
}
