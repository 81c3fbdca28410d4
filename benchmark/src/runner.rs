//! Running workloads: one in this process (the form the driver calls), or
//! all five as child processes, one at a time, into a result file.

use crate::clock::{self, Sampler, Unstolen};
use crate::json::{self, obj, Json};
use crate::stats::{percentile, samples_beyond, segment_throughput, sorted, Op};
use crate::trace::{self, Tracer};
use crate::workloads::{self, Ctx, Outcome};
use crate::{flags, host, spec};
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::sync::Arc;

/// Where results, traces and scratch archives go: inside the checkout,
/// ignored by git.
fn out_dir() -> Result<PathBuf, String> {
    if !Path::new("benchmark/Cargo.toml").is_file() {
        return Err("run from the repository root (no benchmark/Cargo.toml here)".into());
    }
    let dir = PathBuf::from("benchmark/out");
    std::fs::create_dir_all(&dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    Ok(dir)
}

fn parse<T: std::str::FromStr>(flag: &str, value: &str) -> Result<T, String> {
    value
        .parse()
        .map_err(|_| format!("bad value '{value}' for --{flag}"))
}

fn metric(value: f64, unit: &str) -> Json {
    obj([("value", value.into()), ("unit", unit.into())])
}

/// Runs one workload in this process. Prints every metric by name and
/// unit, then a `detail` line, then — last — the result object the
/// driver reads. `Ok(true)` whenever a result was printed: failed checks
/// are reported in it (`correct`, `failed`), not by the exit code.
pub fn one(args: &[String]) -> Result<bool, String> {
    clock::now(); // the process clock starts here: `setup_s` counts from it
    let (mut name, mut seed, mut seconds, mut traced) =
        (None, 1u64, spec::RUN_SECONDS as f64, false);
    for (flag, value) in flags(args)? {
        match flag {
            "workload" => name = Some(value),
            "seed" => seed = parse(flag, value)?,
            "seconds" => seconds = parse(flag, value)?,
            "trace" => traced = parse::<u8>(flag, value)? != 0,
            _ => return Err(format!("unknown flag --{flag}")),
        }
    }
    let name = name.ok_or("--workload is required")?;
    let workload = spec::workload(name).ok_or_else(|| format!("unknown workload '{name}'"))?;
    if !(seconds > 0.0 && seconds <= 60.0) {
        return Err(format!("--seconds {seconds} is outside 0..=60"));
    }
    let nproc = host::nproc();
    if workload.clients > nproc {
        // more load generators than cores measures the scheduler
        return Err(format!(
            "{name} drives {} closed-loop clients but this machine has {nproc} core(s); refusing",
            workload.clients
        ));
    }
    let out = out_dir()?;
    let tmp = out.join(format!("tmp-{}", std::process::id()));
    std::fs::create_dir_all(&tmp).map_err(|e| format!("cannot create {}: {e}", tmp.display()))?;
    let ctx = Ctx {
        seed,
        seconds,
        traced,
        tracer: Arc::new(Tracer::new()),
        tmp: tmp.clone(),
        clients: workload.clients,
    };

    let sampler = Sampler::start();
    let before = host::proc_stat();
    let result = match name {
        "cold_deep" => workloads::cold_deep::run(&ctx),
        "sweep_qoi" => workloads::sweep_qoi::run(&ctx),
        "store_paged" => workloads::store_paged::run(&ctx),
        "serve_warm" => workloads::serve_warm::run(&ctx),
        "ingest" => workloads::ingest::run(&ctx),
        _ => unreachable!("spec::workload knew the name"),
    };
    let after = host::proc_stat();
    let unstolen = sampler.finish();
    std::fs::remove_dir_all(&tmp).ok();
    let outcome = result.map_err(|e| format!("{name}: set-up failed: {e}"))?;

    let spans = ctx.tracer.snapshot();
    if traced {
        let path = out.join(format!("trace-{name}.json"));
        std::fs::write(&path, trace::to_json(name, &spans).pretty())
            .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    }
    let report = Report::new(&outcome);
    if !traced && report.timed_ops < workloads::MIN_TIMED_OPS {
        eprintln!(
            "# {name}: {} timed ops in {seconds} s, fewer than the {} it is sized for; \
             fewer than twelve samples lie beyond its p90",
            report.timed_ops,
            workloads::MIN_TIMED_OPS
        );
    }
    // what the same run reads on the wall clock, and how much of the timed
    // loop the hypervisor took: for the reader, never judged
    let wall = Times::of(&outcome, |t| t);
    let loop_span = outcome
        .ops
        .iter()
        .fold((f64::INFINITY, 0.0f64), |(b, e), op| {
            (b.min(op.start), e.max(op.end))
        });
    let loop_stolen = unstolen.stolen_share(loop_span.0, loop_span.1);
    let metrics = if traced {
        report.per_layer(outcome, &before, &after, &spans)?
    } else {
        report.end_to_end(&outcome, &unstolen)
    };

    for (k, v) in &metrics {
        let (value, unit) = (v.get("value").and_then(Json::as_f64), v.get("unit"));
        println!(
            "{name:<12} {k:<34} {:>16.6} {}",
            value.unwrap_or(f64::NAN),
            unit.and_then(Json::as_str).unwrap_or("")
        );
    }
    let detail = obj([
        ("workload", name.into()),
        ("seed", seed.into()),
        ("seconds", seconds.into()),
        ("trace", traced.into()),
        ("clients", workload.clients.into()),
        ("timed_ops", report.timed_ops.into()),
        ("traced_ops", report.traced_ops.into()),
        (
            "samples_beyond_p90",
            samples_beyond(report.timed_ops, 90.0).into(),
        ),
        ("untimed_checks", report.untimed.into()),
        ("wall.setup_s", wall.setup_s.into()),
        ("wall.ops_per_s", wall.ops_per_s.into()),
        ("wall.op_s_p50", wall.op_s_p50.into()),
        ("wall.op_s_p90", wall.op_s_p90.into()),
        ("timed_loop_stolen_share", loop_stolen.into()),
        ("host.nproc", nproc.into()),
        (
            "host.steal_fraction",
            after.steal_fraction_since(&before).into(),
        ),
        ("host.threads_spawned", after.spawned_since(&before).into()),
        ("wall_s", clock::now().into()),
    ]);
    println!("detail {}", detail.compact());
    let line = obj([
        ("correct", (report.failed == 0).into()),
        ("attempted", report.attempted.into()),
        ("failed", report.failed.into()),
        ("metrics", Json::Obj(metrics)),
    ]);
    println!("{}", line.compact());
    Ok(true)
}

/// The four time metrics of an untraced run, on the clock `at` maps the
/// process clock to.
struct Times {
    setup_s: f64,
    ops_per_s: f64,
    op_s_p50: f64,
    op_s_p90: f64,
}

impl Times {
    fn of(o: &Outcome, at: impl Fn(f64) -> f64) -> Self {
        let ops: Vec<Op> = o
            .ops
            .iter()
            .map(|op| Op {
                start: at(op.start),
                end: at(op.end),
                ..*op
            })
            .collect();
        let lat = sorted(ops.iter().map(|op| op.end - op.start).collect());
        let first_op = ops.iter().map(|op| op.start).fold(f64::INFINITY, f64::min);
        Self {
            // the process clock starts at 0 when `one` is entered
            setup_s: first_op - at(0.0),
            ops_per_s: segment_throughput(&ops, o.cycle),
            op_s_p50: percentile(&lat, 50.0),
            op_s_p90: percentile(&lat, 90.0),
        }
    }
}

/// Counts of one finished workload.
struct Report {
    timed_ops: usize,
    traced_ops: usize,
    untimed: u64,
    attempted: u64,
    failed: u64,
}

impl Report {
    fn new(o: &Outcome) -> Self {
        let loops = o.ops.iter().chain(&o.traced_ops);
        let failed = loops.clone().filter(|op| !op.ok).count() as u64 + o.untimed.1;
        Self {
            timed_ops: o.ops.len(),
            traced_ops: o.traced_ops.len(),
            untimed: o.untimed.0,
            attempted: loops.count() as u64 + o.untimed.0,
            failed,
        }
    }

    fn end_to_end(&self, o: &Outcome, unstolen: &Unstolen) -> Vec<(String, Json)> {
        let times = Times::of(o, |t| unstolen.at(t));
        let values = [
            ("setup_s", times.setup_s),
            ("ops_per_s", times.ops_per_s),
            ("op_s_p50", times.op_s_p50),
            ("op_s_p90", times.op_s_p90),
            (
                "passed_fraction",
                1.0 - self.failed as f64 / self.attempted.max(1) as f64,
            ),
            ("bytes_per_raw_byte", o.bytes_per_raw_byte),
            ("peak_rss_mb", host::peak_rss_mb()),
        ];
        spec::END_TO_END
            .iter()
            .map(|m| {
                let (_, v) = values
                    .iter()
                    .find(|(n, _)| *n == m.name)
                    .expect("every end-to-end metric has a value");
                (m.name.to_string(), metric(*v, m.unit))
            })
            .collect()
    }

    fn per_layer(
        &self,
        mut o: Outcome,
        before: &host::ProcStat,
        after: &host::ProcStat,
        spans: &[trace::Span],
    ) -> Result<Vec<(String, Json)>, String> {
        // the same op, spans on over spans off: median root span of the
        // traced stretch over median latency of the untraced one
        let traced = sorted(
            spans
                .iter()
                .filter(|s| s.name == o.root)
                .map(|s| (s.end - s.start) as f64 / 1e9)
                .collect(),
        );
        let l = &mut o.layers;
        l.set(
            "trace.overhead",
            percentile(&traced, 50.0) / workloads::p50(&o.ops).max(1e-12),
        );
        l.set("trace.timed_ops", self.timed_ops as f64);
        l.set("trace.traced_ops", self.traced_ops as f64);
        l.set("trace.spans", spans.len() as f64);
        l.set("host.nproc", host::nproc() as f64);
        l.set("host.steal_fraction", after.steal_fraction_since(before));
        l.set("host.threads_spawned", after.spawned_since(before) as f64);
        if let Some(stray) =
            l.0.keys()
                .find(|k| !spec::PER_LAYER.iter().any(|m| m.name == **k))
        {
            return Err(format!("metric '{stray}' is not in the per-layer table"));
        }
        // every per-layer metric is printed on every workload; a layer the
        // workload never enters reads 0
        Ok(spec::PER_LAYER
            .iter()
            .map(|m| {
                let v = l.0.get(m.name).copied().unwrap_or(0.0);
                (m.name.to_string(), metric(v, m.unit))
            })
            .collect())
    }
}

/// The runs of a result file written earlier, to add to — refused unless
/// the file was written by the same mode, seed, seconds, commit, compiler
/// and core count, so that one file never mixes two kinds of run.
fn earlier_runs(text: &str, header: &[(&str, Json)]) -> Result<Vec<Json>, String> {
    let file = json::parse(text)?;
    for (key, value) in header {
        if file.get(key) != Some(value) {
            return Err(format!(
                "its \"{key}\" is not this run's; choose another --out or remove it"
            ));
        }
    }
    Ok(file
        .get("runs")
        .and_then(Json::as_arr)
        .ok_or("it has no \"runs\"")?
        .to_vec())
}

/// Runs every workload as a child process of this binary, one at a time,
/// `--repeat` times over, and writes the result file. `Ok(false)` when any
/// child failed a check or could not run.
pub fn all(args: &[String], traced: bool) -> Result<bool, String> {
    let (mut seed, mut seconds, mut repeat, mut out) =
        (1u64, spec::RUN_SECONDS as f64, 1usize, None);
    for (flag, value) in flags(args)? {
        match flag {
            "seed" => seed = parse(flag, value)?,
            "seconds" => seconds = parse(flag, value)?,
            "repeat" => repeat = parse(flag, value)?,
            "out" => out = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown flag --{flag}")),
        }
    }
    let mode = if traced { "trace" } else { "run" };
    let path = match out {
        Some(p) => p,
        None => out_dir()?.join(format!("{mode}-seed{seed}.json")),
    };
    let exe = std::env::current_exe().map_err(|e| format!("cannot find this binary: {e}"))?;
    let before = host::proc_stat();
    let mut clean = true;
    let header = [
        ("schema", Json::from("pqr-benchmark/1")),
        ("mode", mode.into()),
        ("seed", seed.into()),
        ("seconds", seconds.into()),
        ("commit", host::commit().into()),
        ("rustc", host::rustc_version().into()),
        ("host.nproc", host::nproc().into()),
    ];
    // a file that is already there gets the new runs added to it, so that
    // two sides of a comparison can be measured turn and turn about
    let mut runs = match std::fs::read_to_string(&path) {
        Ok(text) => earlier_runs(&text, &header).map_err(|e| format!("{}: {e}", path.display()))?,
        Err(_) => Vec::new(),
    };
    for r in 0..repeat {
        let mut workloads = Vec::new();
        for w in &spec::WORKLOADS {
            eprintln!(
                "# {mode} {}/{repeat}: {} (seed {seed}, {seconds} s)",
                r + 1,
                w.name
            );
            let child = Command::new(&exe)
                .args(["--workload", w.name])
                .args(["--seed", &seed.to_string()])
                .args(["--seconds", &seconds.to_string()])
                .args(["--trace", if traced { "1" } else { "0" }])
                .stdin(Stdio::null())
                .stderr(Stdio::inherit())
                .output()
                .map_err(|e| format!("cannot start {}: {e}", w.name))?;
            let stdout = String::from_utf8_lossy(&child.stdout);
            let mut lines: Vec<&str> = stdout.lines().collect();
            let result = lines.pop().and_then(|l| json::parse(l).ok());
            let detail = lines
                .pop()
                .and_then(|l| l.strip_prefix("detail "))
                .and_then(|l| json::parse(l).ok());
            for l in &lines {
                println!("{l}");
            }
            let (Some(result), Some(detail), true) = (result, detail, child.status.success())
            else {
                eprintln!("# {} did not produce a result ({})", w.name, child.status);
                clean = false;
                continue;
            };
            let failed = result.get("failed").and_then(Json::as_f64).unwrap_or(1.0);
            if failed > 0.0 {
                eprintln!("# {}: {failed} of its checks failed", w.name);
                clean = false;
            }
            workloads.push((
                w.name.to_string(),
                obj([("detail", detail), ("result", result)]),
            ));
        }
        runs.push(Json::Obj(workloads));
    }
    let after = host::proc_stat();
    let mut fields = header.to_vec();
    fields.extend([
        (
            "host.steal_fraction",
            after.steal_fraction_since(&before).into(),
        ),
        ("claim", Json::Null),
    ]);
    if traced {
        let table = spec::SHOULD_MOVE.iter();
        let table = table.map(|(layer, moves)| (layer.to_string(), Json::from(*moves)));
        fields.push(("should_move", Json::Obj(table.collect())));
    }
    fields.push(("runs", Json::Arr(runs)));
    let file = Json::Obj(
        fields
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    );
    std::fs::write(&path, file.pretty())
        .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    eprintln!("# wrote {}", path.display());
    Ok(clean)
}
