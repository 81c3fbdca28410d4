//! `ingest`: whoever writes the data. One client, closed loop; op `i`
//! refactors the small hurricane set under scheme `i % 3` and streams the
//! archive to a file. After timing, each scheme's last archive is reopened
//! and retrieved against the raw fields.

use super::{check_targets, emit_scheme_p50, Acc, Ctx, Outcome};
use crate::data::{Data, HURR_S_DIMS, SCHEMES};
use crate::replay;
use crate::trace::NONE;
use pqr_core::{Archive, RetrievalRequest};
use pqr_progressive::refactored::RefactoredField;
use pqr_util::error::Result;
use std::path::PathBuf;

/// Depth of the untimed read-back check.
const CHECK_TOLERANCE: f64 = 1e-6;

fn path_of(ctx: &Ctx, variant: usize) -> PathBuf {
    ctx.tmp.join(format!("ingest_{}.pqrx", SCHEMES[variant].1))
}

/// Set-up: generate `D-hurr-s` and build once per scheme.
fn setup(ctx: &Ctx) -> Result<(Data, u64, u64)> {
    let data = Data::hurricane(ctx.seed, HURR_S_DIMS);
    for (v, (scheme, _)) in SCHEMES.iter().enumerate() {
        data.builder(*scheme)
            .build_to_path(path_of(ctx, v), 0, true)?;
    }
    Ok((data, SCHEMES.len() as u64, 0))
}

/// The gate: what the timed loop wrote last, read back at 1e-6 against the
/// raw fields, every registered QoI.
fn gate(ctx: &Ctx, data: &Data) -> Result<(u64, u64)> {
    let truths = data.truths();
    let request = data.qois.iter().fold(RetrievalRequest::new(), |r, (q, _)| {
        r.qoi(q, CHECK_TOLERANCE)
    });
    let (mut checks, mut failed) = (0, 0);
    for v in 0..SCHEMES.len() {
        let mut session = Archive::open(path_of(ctx, v))?.session()?;
        let report = session.execute(&request)?;
        let (c, f) = check_targets(&session, &report, &truths)?;
        checks += c;
        failed += f;
    }
    Ok((checks, failed))
}

pub fn run(ctx: &Ctx) -> Result<Outcome> {
    let mut out = Outcome {
        cycle: SCHEMES.len(),
        root: "core.build_to_path",
        ..Outcome::default()
    };
    let (data, warm_ops, warm_failed) = setup(ctx)?;
    out.untimed = (warm_ops, warm_failed);

    let tr = &ctx.tracer;
    let mut acc = Acc::default();
    let mut written = Vec::new();
    ctx.run_stretches(&mut out, |i| {
        let v = i % SCHEMES.len();
        let id = i as u32;
        // the builder takes the fields by value; the copy (well under 1% of
        // the cheapest build) is inside the op's latency, outside its span
        let builder = data.builder(SCHEMES[v].0);
        let open = tr.open("core.build_to_path", NONE, id);
        let result = builder.build_to_path(path_of(ctx, v), 0, true);
        acc.execute_s += tr.close(open);
        if tr.enabled() {
            acc.ops += 1;
            // staged replay: the progressive layer's per-field encode, the
            // call `build_to_path` fans out, one field at a time
            let open = tr.open("replay.progressive.refactor", NONE, id);
            for (_, field) in &data.raw.fields {
                std::hint::black_box(
                    RefactoredField::refactor(SCHEMES[v].0, field, &data.raw.dims).ok(),
                );
            }
            acc.refine_s += tr.close(open);
        }
        match result {
            Ok(bytes) => {
                written.push(bytes as f64);
                (true, v as u8)
            }
            Err(e) => {
                eprintln!("ingest: op {i} failed: {e}");
                (false, v as u8)
            }
        }
    });
    // per op: archive bytes written over the raw size
    out.bytes_per_raw_byte =
        written.iter().sum::<f64>() / written.len().max(1) as f64 / data.raw_bytes();
    let (checks, failed) = gate(ctx, &data)?;
    out.untimed.0 += checks;
    out.untimed.1 += failed;

    if ctx.traced {
        // on this workload the op's entry point is `build_to_path`: it is
        // what `core.execute_s` holds, and the replayed per-field refactor
        // is the attributed part (the rest: QoI ranges, container, writer)
        let n = acc.ops.max(1) as f64;
        let l = &mut out.layers;
        l.set("core.execute_s", acc.execute_s / n);
        l.set(
            "trace.attributed_fraction",
            acc.refine_s / acc.execute_s.max(1e-12),
        );
        l.set(
            "core.execute_unattributed_s",
            (acc.execute_s - acc.refine_s).max(0.0) / n,
        );
        emit_scheme_p50(l, &out.ops);
        let (_, field) = &data.raw.fields[0];
        // the archives the timed loop wrote last
        let archives = (0..SCHEMES.len())
            .map(|v| Ok((SCHEMES[v].0, replay::preload(&path_of(ctx, v))?)))
            .collect::<Result<Vec<_>>>()?;
        replay::kernels(tr, l, field, &data.raw.dims, &archives, ctx.kernel_budget())?;
    }
    for v in 0..SCHEMES.len() {
        std::fs::remove_file(path_of(ctx, v)).ok();
    }
    Ok(out)
}
