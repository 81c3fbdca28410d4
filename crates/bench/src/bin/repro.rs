//! Reproduces the paper's tables and figures as tab-separated series.
//!
//! ```text
//! cargo run --release -p pqr-bench --bin repro -- <section>... [--no-mask]
//! ```
//!
//! A section is `fig2` … `fig9`, `table3`, `table4` or `ablation`; `all`
//! runs every section once. `--no-mask` runs Fig. 4 without the velocity
//! zero mask. `PQR_SCALE` (a float ≥ 1/32, default 1) grows every dataset
//! toward paper scale; a smaller or unparsable scale prints the usage.

use pqr_bench::sections::{self, MIN_SCALE, SECTIONS};
use pqr_bench::Tsv;

fn usage() -> ! {
    eprintln!(
        "usage: repro <section>... [--no-mask]\n  sections: {} | all\n  PQR_SCALE=<float ≥ {MIN_SCALE}> grows every dataset",
        SECTIONS.join(" ")
    );
    std::process::exit(2);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let no_mask = args.iter().any(|a| a == "--no-mask");
    let mut names = Vec::new();
    for arg in args.iter().filter(|a| *a != "--no-mask") {
        match arg.as_str() {
            "all" => names.extend(SECTIONS),
            name if SECTIONS.contains(&name) => names.push(name),
            _ => usage(),
        }
    }
    if names.is_empty() {
        usage();
    }
    let scale = match std::env::var("PQR_SCALE") {
        Ok(s) => match s.parse::<f64>() {
            Ok(scale) if scale >= MIN_SCALE => scale,
            _ => usage(),
        },
        Err(_) => 1.0,
    };
    let mut stdout = std::io::stdout().lock();
    let mut t = Tsv::new(&mut stdout);
    for name in names {
        sections::run(name, scale, no_mask, &mut t);
    }
}
