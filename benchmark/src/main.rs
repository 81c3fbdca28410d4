//! The repo's benchmark: five workloads over the whole retrieve chain,
//! measured from outside the library. See `benchmark/README.md`.
//!
//! ```text
//! pqr-benchmark --workload W --seed N --seconds S --trace 0|1   one workload, this process
//! pqr-benchmark run   [--seed N] [--seconds S] [--repeat R] [--out FILE]   adds to a FILE that exists
//! pqr-benchmark trace [--seed N] [--seconds S] [--repeat R] [--out FILE]
//! pqr-benchmark compare A.json B.json
//! pqr-benchmark manifest                                        prints BENCHMARK.json
//! ```

mod clock;
mod compare;
mod data;
mod host;
mod json;
mod replay;
mod runner;
mod spec;
mod stats;
mod trace;
mod workloads;

use std::process::ExitCode;

const USAGE: &str = "usage, from the repository root:
  cargo run --release --manifest-path benchmark/Cargo.toml -- <command>
commands:
  --workload <name> --seed <n> --seconds <s> --trace <0|1>   run one workload in this process
  run   [--seed n] [--seconds s] [--repeat r] [--out file]   all five workloads, one child process each; adds to a file that exists
  trace [--seed n] [--seconds s] [--repeat r] [--out file]   the same with spans and staged replays
  compare <A.json> <B.json>                                  judge B against A by the benchmark's bounds
  manifest                                                   print BENCHMARK.json
workloads: cold_deep sweep_qoi store_paged serve_warm ingest";

/// `--flag value` pairs; anything else is an error.
fn flags(args: &[String]) -> Result<Vec<(&str, &str)>, String> {
    let mut out = Vec::new();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let name = flag
            .strip_prefix("--")
            .ok_or_else(|| format!("unexpected argument '{flag}'"))?;
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        out.push((name, value.as_str()));
    }
    Ok(out)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.first().map(String::as_str) {
        Some("run") => runner::all(&args[1..], false),
        Some("trace") => runner::all(&args[1..], true),
        Some("compare") => compare::main(&args[1..]),
        Some("manifest") => {
            print!("{}", spec::manifest().pretty());
            Ok(true)
        }
        Some(first) if first.starts_with("--") => runner::one(&args),
        _ => Err(USAGE.to_string()),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(message) => {
            eprintln!("{message}");
            ExitCode::from(2)
        }
    }
}
