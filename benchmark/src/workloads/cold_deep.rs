//! `cold_deep`: an analyst opens an archive file and asks for three QoIs at
//! a deep tolerance, every time from nothing. One client, closed loop; op
//! `i` uses scheme `i % 3`, so a cycle is three ops.

use super::{
    check_targets, emit_reads, emit_scheme_p50, read_s_inside_execute, replay_engine,
    traced_execute, Acc, Ctx, Outcome, ReadCounters,
};
use crate::data::{report_ok, Data, HURR_DIMS, SCHEMES};
use crate::replay::{self, ReaderReplay};
use crate::trace::NONE;
use pqr_core::{Archive, RetrievalRequest};
use pqr_progressive::fragstore::FragmentSource;
use pqr_util::error::Result;
use std::path::PathBuf;
use std::sync::Arc;

const TOLERANCE: f64 = 1e-9;
const QOIS: [&str; 3] = ["U_sq", "V_sq", "W_sq"];

fn request() -> RetrievalRequest {
    QOIS.iter()
        .fold(RetrievalRequest::new(), |r, q| r.qoi(q, TOLERANCE))
}

struct Setup {
    data: Data,
    paths: Vec<PathBuf>,
}

/// Set-up: generate `D-hurr`, write the three archives, run one
/// warm-up op per scheme.
fn setup(ctx: &Ctx) -> Result<(Setup, u64, u64)> {
    let data = Data::hurricane(ctx.seed, HURR_DIMS);
    let mut paths = Vec::new();
    for (scheme, name) in SCHEMES {
        let path = ctx.tmp.join(format!("cold_{name}.pqrx"));
        data.builder(scheme).build_to_path(&path, 0, true)?;
        paths.push(path);
    }
    let mut failed = 0;
    for path in &paths {
        let archive = Archive::open(path)?;
        failed += u64::from(!report_ok(&archive.session()?.execute(&request())?));
    }
    Ok((Setup { data, paths }, SCHEMES.len() as u64, failed))
}

/// The gate: per scheme, the derived values of every target against the
/// raw fields. Returns `(checks, failures)`.
fn gate(s: &Setup) -> Result<(u64, u64)> {
    let truths = s.data.truths();
    let (mut checks, mut failed) = (0, 0);
    for path in &s.paths {
        let mut session = Archive::open(path)?.session()?;
        let report = session.execute(&request())?;
        let (c, f) = check_targets(&session, &report, &truths)?;
        checks += c;
        failed += f;
    }
    Ok((checks, failed))
}

pub fn run(ctx: &Ctx) -> Result<Outcome> {
    let mut out = Outcome {
        cycle: SCHEMES.len(),
        root: "op",
        ..Outcome::default()
    };
    let (s, warm_ops, warm_failed) = setup(ctx)?;
    let (checks, failed) = gate(&s)?;
    out.untimed = (warm_ops + checks, warm_failed + failed);

    let req = request();
    let tr = &ctx.tracer;
    let counters = Arc::new(ReadCounters::default());
    let preloaded: Vec<Arc<dyn FragmentSource>> = if ctx.traced {
        s.paths
            .iter()
            .map(|p| replay::preload(p))
            .collect::<Result<_>>()?
    } else {
        Vec::new()
    };
    let mut acc = Acc::default();
    let mut fetched = Vec::new();
    let mut op = |i: usize| -> Result<(bool, u8)> {
        let v = i % SCHEMES.len();
        let id = i as u32;
        let root = tr.open("op", NONE, id);
        let (archive, mut session) =
            ctx.open_session(&mut acc, (root.id(), id), &s.paths[v], &counters)?;
        let report = traced_execute(tr, &mut acc, (root.id(), id), &mut session, &req, true)?;
        tr.close(root);
        fetched.push(archive.source_stats().fetched_bytes as f64);
        if tr.enabled() {
            replay_engine(tr, &mut acc, id, &mut session, &archive, &req, &report)?;
            ReaderReplay::open(&preloaded[v])?.refine(tr, &mut acc, id, &report.field_bounds)?;
        }
        Ok((report_ok(&report), v as u8))
    };
    ctx.run_stretches(&mut out, |i| {
        op(i).unwrap_or_else(|e| {
            eprintln!("cold_deep: op {i} failed: {e}");
            (false, (i % SCHEMES.len()) as u8)
        })
    });
    // per op: source bytes one cold retrieve fetched over the raw size
    // (whole cycles, so every scheme weighs the same)
    out.bytes_per_raw_byte =
        fetched.iter().sum::<f64>() / fetched.len().max(1) as f64 / s.data.raw_bytes();

    if ctx.traced {
        let spans = tr.snapshot();
        acc.emit(&mut out.layers, read_s_inside_execute(&spans));
        emit_reads(&mut out.layers, &spans, &counters, out.traced_ops.len());
        emit_scheme_p50(&mut out.layers, &out.ops);
        let (_, field) = &s.data.raw.fields[0];
        let archives: Vec<_> = SCHEMES.iter().map(|(s, _)| *s).zip(preloaded).collect();
        replay::kernels(
            tr,
            &mut out.layers,
            field,
            &s.data.raw.dims,
            &archives,
            ctx.kernel_budget(),
        )?;
    }
    for p in &s.paths {
        std::fs::remove_file(p).ok();
    }
    Ok(out)
}
