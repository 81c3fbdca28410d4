//! `sweep_qoi`: the paper's §VI protocol — one analyst refining τ step by
//! step on one session, six derived QoIs per request. One client, closed
//! loop; a cycle is one 20-step sweep on a fresh session (step 0 opens the
//! archive and the session, and its latency includes that).

use super::{
    check_targets, emit_reads, read_s_inside_execute, replay_engine, traced_execute, Acc, Ctx,
    Outcome, ReadCounters,
};
use crate::data::{report_ok, Data};
use crate::replay::{self, ReaderReplay};
use crate::trace::NONE;
use pqr_core::{Archive, RetrievalRequest, Session};
use pqr_progressive::refactored::Scheme;
use pqr_util::error::Result;
use std::path::PathBuf;
use std::sync::Arc;

pub const STEPS: usize = 20;
/// Untimed steps of the set-up's warm-up session.
const WARM_STEPS: usize = 5;

/// Step `i` of the paper's series τᵢ = 0.1·2⁻ⁱ, all six GE QoIs.
fn request(step: usize) -> RetrievalRequest {
    let tol = 0.1 * 0.5f64.powi(step as i32);
    pqr_qoi::ge::all()
        .iter()
        .fold(RetrievalRequest::new(), |r, (name, _)| r.qoi(name, tol))
}

struct Setup {
    data: Data,
    path: PathBuf,
}

fn setup(ctx: &Ctx) -> Result<(Setup, u64, u64)> {
    let data = Data::ge(ctx.seed);
    let path = ctx.tmp.join("sweep_ge.pqrx");
    data.builder(Scheme::PmgardHb)
        .build_to_path(&path, 0, true)?;
    let mut session = Archive::open(&path)?.session()?;
    let mut failed = 0;
    for step in 0..WARM_STEPS {
        failed += u64::from(!report_ok(&session.execute(&request(step))?));
    }
    Ok((Setup { data, path }, WARM_STEPS as u64, failed))
}

/// The gate: one whole sweep, every target of every step against the raw
/// fields.
fn gate(s: &Setup) -> Result<(u64, u64)> {
    let truths = s.data.truths();
    let mut session = Archive::open(&s.path)?.session()?;
    let (mut checks, mut failed) = (0, 0);
    for step in 0..STEPS {
        let report = session.execute(&request(step))?;
        let (c, f) = check_targets(&session, &report, &truths)?;
        checks += c;
        failed += f;
    }
    Ok((checks, failed))
}

pub fn run(ctx: &Ctx) -> Result<Outcome> {
    let mut out = Outcome {
        cycle: STEPS,
        root: "op",
        ..Outcome::default()
    };
    let (s, warm_ops, warm_failed) = setup(ctx)?;
    let (checks, failed) = gate(&s)?;
    out.untimed = (warm_ops + checks, warm_failed + failed);

    let requests: Vec<RetrievalRequest> = (0..STEPS).map(request).collect();
    let tr = &ctx.tracer;
    let counters = Arc::new(ReadCounters::default());
    let preloaded = if ctx.traced {
        Some(replay::preload(&s.path)?)
    } else {
        None
    };
    let mut acc = Acc::default();
    // the sweep's archive, session and replayed readers, replaced at step 0
    let mut live: Option<(Archive, Session, Option<ReaderReplay>)> = None;
    let mut sweep_bytes = Vec::new();
    let mut op = |i: usize| -> Result<(bool, u8)> {
        let step = i % STEPS;
        let id = i as u32;
        let root = tr.open("op", NONE, id);
        if step == 0 {
            let (archive, session) =
                ctx.open_session(&mut acc, (root.id(), id), &s.path, &counters)?;
            let readers = match (&preloaded, tr.enabled()) {
                (Some(src), true) => Some(ReaderReplay::open(src)?),
                _ => None,
            };
            live = Some((archive, session, readers));
        }
        let (archive, session, readers) = live.as_mut().expect("step 0 opened the sweep");
        let req = &requests[step];
        let report = traced_execute(tr, &mut acc, (root.id(), id), session, req, true)?;
        tr.close(root);
        if step == STEPS - 1 {
            sweep_bytes.push(archive.source_stats().fetched_bytes as f64);
        }
        if let Some(readers) = readers {
            replay_engine(tr, &mut acc, id, session, archive, req, &report)?;
            readers.refine(tr, &mut acc, id, &report.field_bounds)?;
        }
        Ok((report_ok(&report), 0))
    };
    ctx.run_stretches(&mut out, |i| {
        op(i).unwrap_or_else(|e| {
            eprintln!("sweep_qoi: op {i} failed: {e}");
            (false, 0)
        })
    });
    // per sweep: source bytes the twenty steps fetched over the raw size
    out.bytes_per_raw_byte =
        sweep_bytes.iter().sum::<f64>() / sweep_bytes.len().max(1) as f64 / s.data.raw_bytes();

    if ctx.traced {
        let spans = tr.snapshot();
        acc.emit(&mut out.layers, read_s_inside_execute(&spans));
        emit_reads(&mut out.layers, &spans, &counters, out.traced_ops.len());
        let (_, field) = &s.data.raw.fields[0];
        let archives: Vec<_> = preloaded
            .map(|p| (Scheme::PmgardHb, p))
            .into_iter()
            .collect();
        replay::kernels(
            tr,
            &mut out.layers,
            field,
            &s.data.raw.dims,
            &archives,
            ctx.kernel_budget(),
        )?;
    }
    std::fs::remove_file(&s.path).ok();
    Ok(out)
}
