//! `pqr` — command-line front end for the progressive QoI retrieval library.
//!
//! Workflows:
//!
//! ```sh
//! # archive raw little-endian f64 field files into a progressive archive
//! pqr refactor --out data.pqr --scheme pmgard-hb \
//!     --field Vx:vx.f64 --field Vy:vy.f64 --field Vz:vz.f64 \
//!     --qoi 'VTOT=sqrt(x0^2+x1^2+x2^2)' --mask Vx,Vy,Vz
//!
//! # inspect an archive
//! pqr info data.pqr
//!
//! # retrieve a QoI at a relative tolerance; writes the derived values
//! pqr retrieve data.pqr --qoi VTOT --tol 1e-5 --out vtot.f64
//!
//! # the same request spelt NAME=TOL, which also takes several targets:
//! # targets sharing fields fetch them once
//! pqr retrieve data.pqr --qoi VTOT=1e-5 --qoi KE=1e-4
//! ```
//!
//! Fields are raw little-endian `f64` streams (the exchange format of most
//! scientific tooling); QoI expressions use the `pqr_qoi::parse` grammar
//! with `x<i>` referring to the i-th `--field` in order.

use pqr::prelude::*;
use pqr::qoi::parse::parse;
use std::fs;
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("refactor") => cmd_refactor(&args[1..]),
        Some("info") => cmd_info(&args[1..]),
        Some("retrieve") => cmd_retrieve(&args[1..]),
        Some("serve") => cmd_serve(&args[1..]),
        Some("client") => cmd_client(&args[1..]),
        Some("help") | Some("--help") | Some("-h") | None => {
            print_usage();
            Ok(())
        }
        Some(other) => Err(PqrError::InvalidRequest(format!(
            "unknown command '{other}' (try `pqr help`)"
        ))),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("pqr: {e}");
            ExitCode::FAILURE
        }
    }
}

fn print_usage() {
    eprintln!(
        "pqr — error-controlled progressive retrieval under derivable QoIs

USAGE:
  pqr refactor --out <archive> [--scheme S] [--mask f1,f2,..]
               [--workers N] [--overlap-io on|off]
               (--field NAME:PATH)... (--qoi 'NAME=EXPR')...
               (encodes one field per worker, N at once, and, with overlap on,
               streams finished fields to disk while the rest encode;
               prints an encode-throughput line)
  pqr info <archive>
  pqr retrieve <archive> ((--qoi NAME=TOL)... | --qoi NAME --tol REL)
               [--budget BYTES] [--estimator E] [--workers N]
               [--resume PROGRESS] [--save-progress PROGRESS]
               [--out PATH] [--field NAME --out-field PATH]
               (one batched request: QoIs sharing fields fetch them once;
               prints the per-target report table and shared-fragment
               savings; --out writes a lone target's derived values)
  pqr serve --listen ADDR (--dataset NAME=ARCHIVE)...
               [--workers N] [--queue N] [--permits N]
               [--busy-wait MS] [--retry-after MS]
               [--byte-budget BYTES] [--time-budget MS]
               [--store-budget BYTES] [--coalesce on|off]
               [--coalesce-window MS] [--coalesce-batch N]
               (serves the registered archives over TCP; all clients of a
               dataset share its decode store; --store-budget caps decoded
               store state across ALL datasets — k/m/g suffixes, 0 =
               unbounded, unset defers to PQR_STORE_BUDGET — evicting cold
               fields to their progress markers and rehydrating them
               bit-identically on demand; --coalesce (default on) groups
               concurrently arriving retrieves of one dataset into union
               rounds executed once under a single decode permit, with
               --coalesce-window ms of gathering and early close at
               --coalesce-batch requests; prints the bound address,
               runs until a client sends `--shutdown`)
  pqr client ADDR --dataset NAME (--qoi NAME=TOL)...
               [--budget BYTES] [--values NAME [--out PATH]]
               [--resume PROGRESS] [--save-progress PROGRESS]
               [--retries N]
  pqr client ADDR --stats | --shutdown
               (one retrieve per invocation; Busy sheds retry per the
               server's hint up to --retries times)

ESTIMATORS: paper (default) | exact-sqrt | interval
WORKERS:    worker threads (0 = the PQR_THREADS env default) — decode
            threads per refinement round on retrieve, encode threads on
            refactor; refactor's --overlap-io (on by default) streams
            finished fields to disk while the rest encode
PROGRESS:   a small progress file; --resume continues a previous retrieval
            incrementally, --save-progress records where this one stopped

SCHEMES: psz3 | psz3-delta | pmgard | pmgard-hb (default) | pzfp
FIELDS:  raw little-endian f64 files (.f32 extension reads/writes single precision)
EXPRS:   pqr_qoi::parse grammar; x0, x1, … index the --field list"
    );
}

/// One subcommand's arguments: `--flag value` pairs (possibly repeated),
/// valueless switches, and the first token that is neither.
struct Flags<'a> {
    args: &'a [String],
    positional: Option<&'a str>,
}

impl<'a> Flags<'a> {
    /// Checks `args` against the flags `pqr cmd` declares (space-separated):
    /// each of `valued` takes the next token as its value, each of
    /// `switches` takes none, and any other `--…` token is an error rather
    /// than silently ignored.
    fn parse(cmd: &str, args: &'a [String], valued: &str, switches: &str) -> Result<Self> {
        let declared = |list: &str, arg: &str| list.split_whitespace().any(|f| f == arg);
        let mut positional = None;
        let mut tokens = args.iter().map(String::as_str);
        while let Some(arg) = tokens.next() {
            if declared(valued, arg) {
                tokens.next();
            } else if !arg.starts_with("--") {
                positional = positional.or(Some(arg));
            } else if !declared(switches, arg) {
                return Err(PqrError::InvalidRequest(format!(
                    "unknown flag '{arg}' for `pqr {cmd}` (try `pqr help`)"
                )));
            }
        }
        Ok(Self { args, positional })
    }

    fn get(&self, flag: &str) -> Option<&'a str> {
        self.args
            .windows(2)
            .find(|w| w[0] == flag)
            .map(|w| w[1].as_str())
    }

    fn get_all(&self, flag: &str) -> Vec<&'a str> {
        self.args
            .windows(2)
            .filter(|w| w[0] == flag)
            .map(|w| w[1].as_str())
            .collect()
    }
}

/// Reads a raw little-endian float file. A `.f32` extension selects
/// single precision (widened to f64 — the paper's §VI notes the method
/// "directly applies to single-precision floating-point data"); anything
/// else is read as f64.
fn read_float_file(path: &str) -> Result<Vec<f64>> {
    let bytes = fs::read(path)
        .map_err(|e| PqrError::InvalidRequest(format!("cannot read '{path}': {e}")))?;
    if path.ends_with(".f32") {
        if !bytes.len().is_multiple_of(4) {
            return Err(PqrError::CorruptStream(format!(
                "'{path}' is not a multiple of 4 bytes"
            )));
        }
        return Ok(bytes
            .chunks_exact(4)
            .map(|c| f64::from(f32::from_le_bytes(c.try_into().unwrap())))
            .collect());
    }
    if !bytes.len().is_multiple_of(8) {
        return Err(PqrError::CorruptStream(format!(
            "'{path}' is not a multiple of 8 bytes"
        )));
    }
    Ok(bytes
        .chunks_exact(8)
        .map(|c| f64::from_le_bytes(c.try_into().unwrap()))
        .collect())
}

/// Writes a raw little-endian float file; a `.f32` extension narrows to
/// single precision.
fn write_float_file(path: &str, data: &[f64]) -> Result<()> {
    let bytes = if path.ends_with(".f32") {
        let mut b = Vec::with_capacity(data.len() * 4);
        for v in data {
            b.extend_from_slice(&(*v as f32).to_le_bytes());
        }
        b
    } else {
        let mut b = Vec::with_capacity(data.len() * 8);
        for v in data {
            b.extend_from_slice(&v.to_le_bytes());
        }
        b
    };
    fs::write(path, bytes)
        .map_err(|e| PqrError::InvalidRequest(format!("cannot write '{path}': {e}")))
}

fn parse_scheme(s: &str) -> Result<Scheme> {
    match s {
        "psz3" => Ok(Scheme::Psz3),
        "psz3-delta" => Ok(Scheme::Psz3Delta),
        "pmgard" => Ok(Scheme::PmgardOb),
        "pmgard-hb" => Ok(Scheme::PmgardHb),
        "pzfp" => Ok(Scheme::Pzfp),
        other => Err(PqrError::InvalidRequest(format!(
            "unknown scheme '{other}'"
        ))),
    }
}

/// The flags `pqr refactor` takes, each with a value.
const REFACTOR_FLAGS: &str = "--out --scheme --field --qoi --mask --workers --overlap-io";

fn cmd_refactor(args: &[String]) -> Result<()> {
    let flags = Flags::parse("refactor", args, REFACTOR_FLAGS, "")?;
    let out = flags
        .get("--out")
        .ok_or_else(|| PqrError::InvalidRequest("refactor needs --out".into()))?;
    let scheme = parse_scheme(flags.get("--scheme").unwrap_or("pmgard-hb"))?;

    // fields: NAME:PATH, all must agree in length
    let field_specs = flags.get_all("--field");
    if field_specs.is_empty() {
        return Err(PqrError::InvalidRequest("need at least one --field".into()));
    }
    let mut fields = Vec::new();
    for spec in &field_specs {
        let (name, path) = spec.split_once(':').ok_or_else(|| {
            PqrError::InvalidRequest(format!("--field wants NAME:PATH, got '{spec}'"))
        })?;
        fields.push((name.to_string(), read_float_file(path)?));
    }
    let n = fields[0].1.len();
    let mut builder = ArchiveBuilder::new(&[n]).scheme(scheme);
    for (name, data) in &fields {
        builder = builder.field(name, data.clone());
    }

    for spec in flags.get_all("--qoi") {
        let (name, text) = spec.split_once('=').ok_or_else(|| {
            PqrError::InvalidRequest(format!("--qoi wants NAME=EXPR, got '{spec}'"))
        })?;
        builder = builder.qoi(name, parse(text)?);
    }
    if let Some(mask_fields) = flags.get("--mask") {
        let names: Vec<&str> = mask_fields.split(',').collect();
        builder = builder.mask(&names);
    }
    // encode knobs: worker budget (0 = PQR_THREADS default) and whether
    // finished fields stream to disk while later fields still encode
    let workers = match flags.get("--workers") {
        Some(w) => w
            .parse()
            .map_err(|_| PqrError::InvalidRequest(format!("bad --workers '{w}' (want a count)")))?,
        None => 0,
    };
    let overlap_io = match flags.get("--overlap-io") {
        Some(o) => parse_bool("--overlap-io", o)?,
        None => true,
    };

    let raw_bytes = field_specs.len() * n * 8;
    let start = std::time::Instant::now();
    let written = builder.build_to_path(out, workers, overlap_io)?;
    let secs = start.elapsed().as_secs_f64().max(1e-9);
    eprintln!(
        "archived {} fields × {} points → {} ({} B, raw {} B)",
        field_specs.len(),
        n,
        out,
        written,
        raw_bytes
    );
    eprintln!(
        "encode: {:.1} fields/s, {:.1} MB/s raw in {:.1} ms ({} workers, overlap {})",
        field_specs.len() as f64 / secs,
        raw_bytes as f64 / 1e6 / secs,
        secs * 1e3,
        // one field per encoder thread: what ran, not what was asked for
        pqr::progressive::field::field_workers(workers, field_specs.len()),
        if overlap_io { "on" } else { "off" },
    );
    Ok(())
}

/// Opens an archive **lazily**: only the manifest is read here; retrieval
/// fetches fragment byte ranges on demand. Returns the archive and its
/// on-disk size (for the partial-read report).
fn load_archive(flags: &Flags<'_>) -> Result<(Archive, u64)> {
    let path = flags
        .positional
        .ok_or_else(|| PqrError::InvalidRequest("missing archive path".into()))?;
    let size = fs::metadata(path)
        .map_err(|e| PqrError::InvalidRequest(format!("cannot stat '{path}': {e}")))?
        .len();
    Ok((Archive::open(path)?, size))
}

fn cmd_info(args: &[String]) -> Result<()> {
    let flags = Flags::parse("info", args, "", "")?;
    let (archive, file_size) = load_archive(&flags)?;
    // everything `info` prints comes from the manifest — no payload
    // fragment is touched
    let manifest = archive.manifest()?;
    println!("shape: {:?}", manifest.dims);
    println!("fields ({}):", manifest.num_fields());
    for f in &manifest.fields {
        println!(
            "  {:<16} {:<12} range {:.6e}  {} fragments, {} B",
            f.name,
            f.scheme.name(),
            f.range,
            f.fragments.len(),
            f.total_bytes()
        );
    }
    println!(
        "mask: {}",
        manifest
            .mask
            .as_ref()
            .map_or("none".to_string(), |m| format!(
                "{} of {} points",
                m.masked_count(),
                m.len()
            ))
    );
    println!("qois ({}):", archive.qoi_names().len());
    for name in archive.qoi_names() {
        println!(
            "  {:<16} range {:.6e}  {}",
            name,
            archive.qoi_range(name).unwrap_or(0.0),
            archive.qoi_expr(name).unwrap()
        );
    }
    println!(
        "archived {} B ({} B payload), raw {} B ({:.2}x)",
        file_size,
        manifest.total_payload_bytes(),
        manifest.raw_bytes(),
        manifest.raw_bytes() as f64 / file_size.max(1) as f64
    );
    Ok(())
}

/// Parses an on/off-style boolean flag value.
fn parse_bool(flag: &str, s: &str) -> Result<bool> {
    match s {
        "on" | "true" | "1" | "yes" => Ok(true),
        "off" | "false" | "0" | "no" => Ok(false),
        other => Err(PqrError::InvalidRequest(format!(
            "bad {flag} value '{other}' (want on|off)"
        ))),
    }
}

/// Builds the retrieval engine configuration from the shared retrieve
/// flags: `--estimator` and `--workers` (fields refined and scan chunks
/// run at once; 0 = the `PQR_THREADS` env default).
fn engine_config_from_flags(flags: &Flags<'_>) -> Result<EngineConfig> {
    let mut cfg = EngineConfig::default();
    if let Some(est) = flags.get("--estimator") {
        cfg.bound_config = parse_estimator(est)?;
    }
    if let Some(w) = flags.get("--workers") {
        cfg.workers = w
            .parse()
            .map_err(|_| PqrError::InvalidRequest(format!("bad --workers '{w}' (want a count)")))?;
    }
    Ok(cfg)
}

fn parse_estimator(s: &str) -> Result<BoundConfig> {
    match s {
        "paper" => Ok(BoundConfig::default()),
        "exact-sqrt" => Ok(BoundConfig {
            sqrt_mode: SqrtMode::Exact,
            ..Default::default()
        }),
        "interval" => Ok(BoundConfig {
            estimator: Estimator::Interval,
            ..Default::default()
        }),
        other => Err(PqrError::InvalidRequest(format!(
            "unknown estimator '{other}' (paper | exact-sqrt | interval)"
        ))),
    }
}

/// The flags `pqr retrieve` takes (either spelling), each with a value.
const RETRIEVE_FLAGS: &str =
    "--qoi --tol --estimator --workers --budget --resume --save-progress --out --field --out-field";

/// `pqr retrieve` — one `RetrievalRequest` from either spelling (see
/// [`retrieve_request`]), so targets sharing fields fetch those fields'
/// fragments once. Prints the per-target report table plus the
/// shared-fragment savings and read-op lines.
fn cmd_retrieve(args: &[String]) -> Result<()> {
    let flags = Flags::parse("retrieve", args, RETRIEVE_FLAGS, "")?;
    let request = retrieve_request(&flags)?;
    if request.targets().len() > 1 && flags.get("--out").is_some() {
        return Err(PqrError::InvalidRequest(
            "--out is ambiguous with several targets; use \
             --field NAME --out-field PATH for a reconstruction, or one \
             target (--qoi NAME=TOL --out PATH) for derived QoI values"
                .into(),
        ));
    }
    let (mut archive, file_size) = load_archive(&flags)?;
    archive.set_engine_config(engine_config_from_flags(&flags)?);
    let mut session = match flags.get("--resume") {
        Some(path) => {
            let progress = fs::read(path)
                .map_err(|e| PqrError::InvalidRequest(format!("cannot read '{path}': {e}")))?;
            archive.resume_session(&progress)?
        }
        None => archive.session()?,
    };
    let report = session.execute(&request)?;

    println!(
        "{:<16} {:>11} {:>12} {:>5} {:>12}",
        "target", "tol(abs)", "est err", "ok", "bytes"
    );
    for t in &report.targets {
        println!(
            "{:<16} {:>11.3e} {:>12.3e} {:>5} {:>12}",
            t.name,
            t.tol_abs,
            t.max_est_error,
            if t.satisfied { "yes" } else { "NO" },
            t.bytes
        );
    }
    println!(
        "shared fragments saved {} B across {} targets; fetched {} B total ({} new) in {} rounds, {} estimated",
        report.shared_bytes_saved,
        report.targets.len(),
        report.total_fetched,
        report.bytes_fetched,
        report.iterations,
        report.iterations as u64 - report.estimate_reuses
    );
    let stats = archive.source_stats();
    eprintln!(
        "disk: {} read ops for {} fragments, {} B of the {} B archive ({:.1}%)",
        stats.read_ops,
        stats.fetches,
        stats.fetched_bytes,
        file_size,
        100.0 * stats.fetched_bytes as f64 / file_size.max(1) as f64
    );
    if let Some(path) = flags.get("--save-progress") {
        fs::write(path, session.save_progress())
            .map_err(|e| PqrError::InvalidRequest(format!("cannot write '{path}': {e}")))?;
        eprintln!("saved retrieval progress → {path}");
    }
    if !report.satisfied {
        return Err(PqrError::UnboundableQoi(if report.budget_exhausted {
            "byte budget exhausted before every target certified".into()
        } else {
            "representation exhausted before every target certified".into()
        }));
    }
    if let Some(out) = flags.get("--out") {
        write_float_file(out, &session.qoi_values(&request.targets()[0].name)?)?;
        eprintln!("wrote derived QoI values → {out}");
    }
    if let (Some(field), Some(path)) = (flags.get("--field"), flags.get("--out-field")) {
        write_float_file(path, session.reconstruction(field)?)?;
        eprintln!("wrote reconstructed field '{field}' → {path}");
    }
    Ok(())
}

/// The request `pqr retrieve` names: one `--qoi NAME` with `--tol REL`, or
/// one or more `--qoi NAME=TOL` — one spelling, never both — plus the
/// optional `--budget`.
fn retrieve_request(flags: &Flags<'_>) -> Result<RetrievalRequest> {
    let mut request = RetrievalRequest::new();
    match (flags.get_all("--qoi").as_slice(), flags.get("--tol")) {
        (&[name], Some(tol)) if !name.contains('=') => {
            let tol = tol
                .parse()
                .map_err(|_| PqrError::InvalidRequest("bad --tol".into()))?;
            request = request.qoi(name, tol);
        }
        (specs, None) if !specs.is_empty() && specs.iter().all(|s| s.contains('=')) => {
            for spec in specs {
                let (name, tol) = spec.split_once('=').expect("checked by the match");
                let tol = tol.parse().map_err(|_| {
                    PqrError::InvalidRequest(format!("bad tolerance in --qoi '{spec}'"))
                })?;
                request = request.qoi(name, tol);
            }
        }
        _ => {
            return Err(PqrError::InvalidRequest(
                "retrieve wants one --qoi NAME with --tol REL, or one or more \
                 --qoi NAME=TOL; mixing the two spellings is ambiguous"
                    .into(),
            ))
        }
    }
    if let Some(budget) = parse_u64_flag(flags, "--budget")? {
        request = request.byte_budget(budget as usize);
    }
    Ok(request)
}

fn parse_u64_flag(flags: &Flags<'_>, flag: &str) -> Result<Option<u64>> {
    flags
        .get(flag)
        .map(|v| {
            v.parse()
                .map_err(|_| PqrError::InvalidRequest(format!("bad {flag} '{v}' (want a number)")))
        })
        .transpose()
}

/// The flags `pqr serve` takes, each with a value.
const SERVE_FLAGS: &str = "--listen --dataset --store-budget --workers --queue --permits \
    --busy-wait --retry-after --byte-budget --time-budget --coalesce --coalesce-window \
    --coalesce-batch";

/// `pqr serve` — a multi-tenant TCP server over the registered archives.
/// Archives are opened lazily; every client session of one dataset shares
/// its decode store. Runs until a client sends a `shutdown` frame
/// (`pqr client ADDR --shutdown`), then prints the final stats summary.
fn cmd_serve(args: &[String]) -> Result<()> {
    use pqr::serve::{Registry, Server, ServerConfig};
    let flags = Flags::parse("serve", args, SERVE_FLAGS, "")?;
    let listen = flags
        .get("--listen")
        .ok_or_else(|| PqrError::InvalidRequest("serve needs --listen ADDR".into()))?;
    let dataset_specs = flags.get_all("--dataset");
    if dataset_specs.is_empty() {
        return Err(PqrError::InvalidRequest(
            "serve needs at least one --dataset NAME=ARCHIVE".into(),
        ));
    }
    // --store-budget BYTES (k/m/g suffixes; 0 = unbounded) caps decoded
    // store state *across all datasets*: one shared budget, global
    // eviction pressure. Unset defers to PQR_STORE_BUDGET / unbounded.
    let mut registry = match flags.get("--store-budget") {
        Some(text) => {
            let limit = pqr::progressive::pager::parse_budget(text)?;
            Registry::with_budget(std::sync::Arc::new(
                pqr::progressive::pager::StoreBudget::with_limit(limit),
            ))
        }
        None => Registry::new(),
    };
    for spec in &dataset_specs {
        let (name, path) = spec.split_once('=').ok_or_else(|| {
            PqrError::InvalidRequest(format!("--dataset wants NAME=ARCHIVE, got '{spec}'"))
        })?;
        registry.register(name, Archive::open(path)?)?;
        eprintln!("registered dataset '{name}' ← {path}");
    }

    let mut config = ServerConfig::default();
    if let Some(v) = parse_u64_flag(&flags, "--workers")? {
        config.workers = v as usize;
    }
    if let Some(v) = parse_u64_flag(&flags, "--queue")? {
        config.pending_queue = v as usize;
    }
    if let Some(v) = parse_u64_flag(&flags, "--permits")? {
        config.decode_permits = v as usize;
    }
    if let Some(v) = parse_u64_flag(&flags, "--busy-wait")? {
        config.busy_wait_ms = v;
    }
    if let Some(v) = parse_u64_flag(&flags, "--retry-after")? {
        config.retry_after_ms = v;
    }
    if let Some(v) = parse_u64_flag(&flags, "--byte-budget")? {
        config.client_byte_budget = Some(v as usize);
    }
    if let Some(v) = parse_u64_flag(&flags, "--time-budget")? {
        config.client_time_budget_ms = Some(v);
    }
    if let Some(v) = flags.get("--coalesce") {
        config.coalesce = match v {
            "on" => true,
            "off" => false,
            other => {
                return Err(PqrError::InvalidRequest(format!(
                    "--coalesce takes on|off, got '{other}'"
                )))
            }
        };
    }
    if let Some(v) = parse_u64_flag(&flags, "--coalesce-window")? {
        config.coalesce_window_ms = v;
    }
    if let Some(v) = parse_u64_flag(&flags, "--coalesce-batch")? {
        config.coalesce_min_batch = v as usize;
    }

    let server = Server::start(listen, registry, config)?;
    // scripts parse this line to learn the ephemeral port — keep it stable
    println!("pqr-serve listening on {}", server.local_addr());
    use std::io::Write as _;
    std::io::stdout().flush().ok();

    let snap = server.wait();
    eprintln!(
        "pqr-serve done: {} connections, {} retrieves, {} errors, \
         shed {} admission / {} busy, {} B in / {} B out",
        snap.connections,
        snap.retrieves,
        snap.errors,
        snap.shed_admission,
        snap.shed_busy,
        snap.bytes_in,
        snap.bytes_out
    );
    Ok(())
}

/// The flags `pqr client` takes with a value (`--stats` and `--shutdown`
/// take none).
const CLIENT_FLAGS: &str =
    "--dataset --qoi --budget --values --out --resume --save-progress --retries";

/// `pqr client` — one protocol exchange with a `pqr serve` endpoint:
/// retrieve (with Busy retries per the server's hint), `--stats`, or
/// `--shutdown`.
fn cmd_client(args: &[String]) -> Result<()> {
    use pqr::serve::{Reply, ServeClient};
    let flags = Flags::parse("client", args, CLIENT_FLAGS, "--stats --shutdown")?;
    let addr = flags
        .positional
        .ok_or_else(|| PqrError::InvalidRequest("client needs the server ADDR".into()))?;
    let mut client = ServeClient::connect(addr)?;
    client.set_io_timeout(Some(std::time::Duration::from_secs(120)))?;

    if flags.args.iter().any(|a| a == "--shutdown") {
        client.shutdown_server()?;
        eprintln!("server at {addr} acknowledged shutdown");
        return Ok(());
    }
    if flags.args.iter().any(|a| a == "--stats") {
        let stats = client.stats()?.expect_ok("stats");
        println!(
            "connections {}  requests {}  retrieves {}  errors {}",
            stats.connections, stats.requests, stats.retrieves, stats.errors
        );
        println!(
            "shed: admission {}  busy {}   disconnects mid-request {}",
            stats.shed_admission, stats.shed_busy, stats.disconnects_mid_request
        );
        println!(
            "wire: {} B in  {} B out   queue wait {} ms total, {} ms max",
            stats.bytes_in, stats.bytes_out, stats.queue_wait_ms_total, stats.queue_wait_ms_max
        );
        println!(
            "coalesce: {} rounds  {} requests  {} fallbacks   service {} ms total",
            stats.coalesced_rounds,
            stats.coalesced_requests,
            stats.coalesce_fallbacks,
            stats.service_ms_total
        );
        for d in &stats.datasets {
            println!(
                "dataset {:<16} decoded {}  advances {}  reuses {}  adoptions {}  source {} B",
                d.name,
                d.store.fragments_decoded,
                d.store.refine_advances,
                d.store.refine_reuses,
                d.store.adoptions,
                d.source.fetched_bytes
            );
            println!(
                "  memory: resident {} B / budget {}  evictions {}  rehydrated {} frags / {} B",
                d.store.resident_bytes,
                if d.store.budget_bytes == 0 {
                    "unbounded".to_string()
                } else {
                    format!("{} B", d.store.budget_bytes)
                },
                d.store.evictions,
                d.store.rehydration_decodes,
                d.store.rehydration_bytes
            );
            println!(
                "  reconstruct: {} recompose passes  {} cache hits  {} ms rebuilding",
                d.store.recompose_passes,
                d.store.recon_cache_hits,
                d.store.reconstruct_nanos / 1_000_000
            );
        }
        client.close()?;
        return Ok(());
    }

    let dataset = flags
        .get("--dataset")
        .ok_or_else(|| PqrError::InvalidRequest("client needs --dataset NAME".into()))?;
    let qoi_flags = flags.get_all("--qoi");
    if qoi_flags.is_empty() || qoi_flags.iter().any(|s| !s.contains('=')) {
        return Err(PqrError::InvalidRequest(
            "client wants one or more --qoi NAME=TOL targets".into(),
        ));
    }
    let mut request = RetrievalRequest::new();
    for spec in &qoi_flags {
        let (name, tol_text) = spec.split_once('=').expect("checked above");
        let tol: f64 = tol_text
            .parse()
            .map_err(|_| PqrError::InvalidRequest(format!("bad tolerance in --qoi '{spec}'")))?;
        request = request.qoi(name, tol);
    }
    if let Some(budget) = parse_u64_flag(&flags, "--budget")? {
        request = request.byte_budget(budget as usize);
    }
    let retries = parse_u64_flag(&flags, "--retries")?.unwrap_or(5);

    let info = match flags.get("--resume") {
        Some(path) => {
            let progress = fs::read(path)
                .map_err(|e| PqrError::InvalidRequest(format!("cannot read '{path}': {e}")))?;
            client.resume(dataset, &progress)?
        }
        None => client.open(dataset)?,
    };
    let info = info.expect_ok("open");
    eprintln!(
        "opened '{dataset}': shape {:?}, {} fields, QoIs {:?}",
        info.dims,
        info.fields.len(),
        info.qois
    );

    let want_values: Vec<&str> = flags.get_all("--values");
    let save_progress = flags.get("--save-progress").is_some();
    let mut attempt = 0u64;
    let report = loop {
        match client.retrieve(&request, &want_values, save_progress)? {
            Reply::Ok(report) => break report,
            Reply::Busy {
                retry_after_ms,
                reason,
            } => {
                attempt += 1;
                if attempt > retries {
                    return Err(PqrError::InvalidRequest(format!(
                        "server still busy after {retries} retries ({reason})"
                    )));
                }
                eprintln!("server busy ({reason}); retrying in {retry_after_ms} ms");
                std::thread::sleep(std::time::Duration::from_millis(retry_after_ms));
            }
        }
    };

    println!(
        "{:<16} {:>11} {:>12} {:>5} {:>12}",
        "target", "tol(abs)", "est err", "ok", "bytes"
    );
    for t in &report.targets {
        println!(
            "{:<16} {:>11.3e} {:>12.3e} {:>5} {:>12}",
            t.name,
            t.tol_abs,
            t.max_est_error,
            if t.satisfied { "yes" } else { "NO" },
            t.bytes
        );
    }
    println!(
        "satisfied: {}  fetched {} B ({} new)  {} rounds  queue wait {} ms  \
         store decoded {} / reused {}",
        report.satisfied,
        report.total_fetched,
        report.bytes_fetched,
        report.iterations,
        report.queue_wait_ms,
        report.store_fragments_decoded,
        report.store_refine_reuses
    );
    println!(
        "reconstruct: {} recompose passes  {} cache hits  {} ms rebuilding",
        report.recompose_passes, report.recon_cache_hits, report.reconstruct_ms
    );
    if report.budget_exhausted {
        eprintln!("byte budget exhausted — the bounds above are the achieved partials");
    }
    if let Some(path) = flags.get("--save-progress") {
        let blob = report
            .progress
            .as_ref()
            .ok_or_else(|| PqrError::CorruptStream("server sent no progress blob".into()))?;
        fs::write(path, blob)
            .map_err(|e| PqrError::InvalidRequest(format!("cannot write '{path}': {e}")))?;
        eprintln!("saved retrieval progress → {path}");
    }
    if let Some(out) = flags.get("--out") {
        let name = want_values.first().ok_or_else(|| {
            PqrError::InvalidRequest("--out needs --values NAME to pick the QoI".into())
        })?;
        let values = report.values.get(*name).ok_or_else(|| {
            PqrError::CorruptStream(format!("server sent no values for '{name}'"))
        })?;
        write_float_file(out, values)?;
        eprintln!("wrote derived QoI values → {out}");
    }
    client.close()?;
    if !report.satisfied && !report.budget_exhausted {
        return Err(PqrError::UnboundableQoi(
            "representation exhausted before every target certified".into(),
        ));
    }
    Ok(())
}
