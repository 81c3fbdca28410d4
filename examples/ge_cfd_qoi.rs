//! GE CFD workflow: all six Eq. (1)–(6) QoIs with per-QoI tolerances.
//!
//! Mirrors the paper's motivating scenario (§III-A): a turbomachinery CFD
//! dataset with five fields is archived once; different post-hoc analyses
//! later request different QoIs at different fidelities, and each request
//! moves only the bytes its tolerance requires.
//!
//! ```sh
//! cargo run --release --example ge_cfd_qoi
//! ```

use pqr::datagen::ge::{self, GeConfig};
use pqr::prelude::*;

fn main() -> Result<()> {
    // Synthetic GE-small stand-in (see pqr-datagen docs for what's preserved).
    let blocks = ge::generate(&GeConfig::small().with_block_len(600));
    let data = ge::concat(&blocks);
    println!(
        "GE-small stand-in: {} blocks, {} points/field, 5 fields",
        blocks.len(),
        data.num_elements()
    );

    let mut builder = ArchiveBuilder::new(&data.dims);
    for (name, field) in &data.fields {
        builder = builder.field(name, field.clone());
    }
    // register all six paper QoIs; mask the zero-velocity wall nodes
    for (name, expr) in ge_qoi::all() {
        builder = builder.qoi(name, expr);
    }
    let archive = builder
        .mask(&["VelocityX", "VelocityY", "VelocityZ"])
        .scheme(Scheme::PmgardHb)
        .build()?;

    // Analysis 1: a visual inspection only needs Mach to 1e-3.
    let mut session = archive.session()?;
    let r = session.execute(&RetrievalRequest::new().qoi("Mach", 1e-3))?;
    println!(
        "\nMach @ 1e-3   → {:>9} B fetched (bitrate {:.2}), estimated err {:.2e}",
        r.total_fetched, r.bitrate, r.targets[0].max_est_error
    );

    // Analysis 2: the solver-validation pass wants total pressure tight.
    let r = session.execute(&RetrievalRequest::new().qoi("PT", 1e-5))?;
    println!(
        "PT   @ 1e-5   → {:>9} B fetched (bitrate {:.2}), estimated err {:.2e}",
        r.total_fetched, r.bitrate, r.targets[0].max_est_error
    );

    // Analysis 3: everything at once, production fidelity.
    let all: Vec<(&str, f64)> = vec![
        ("VTOT", 1e-5),
        ("T", 1e-5),
        ("C", 1e-5),
        ("Mach", 1e-5),
        ("PT", 1e-4),
        ("mu", 1e-5),
    ];
    let request = all
        .iter()
        .fold(RetrievalRequest::new(), |r, (n, t)| r.qoi(n, *t));
    let r = session.execute(&request)?;
    println!(
        "all 6 QoIs    → {:>9} B fetched (bitrate {:.2}), satisfied: {}",
        r.total_fetched, r.bitrate, r.satisfied
    );

    // Verify the guarantee against ground truth for every QoI.
    println!(
        "\n{:>6} {:>14} {:>14} {:>12}",
        "QoI", "actual rel", "estimated rel", "tolerance"
    );
    for (i, (name, _)) in all.iter().enumerate() {
        let expr = archive.qoi_expr(name).unwrap();
        let range = archive.qoi_range(name).unwrap();
        let mut truth = Vec::new();
        {
            let mut x = vec![0.0; 5];
            for j in 0..data.num_elements() {
                for (f, (_, fd)) in data.fields.iter().enumerate() {
                    x[f] = fd[j];
                }
                truth.push(expr.eval(&x));
            }
        }
        let derived = session.qoi_values(name)?;
        let actual = stats::max_abs_diff(&truth, &derived) / range;
        let est = r.targets[i].max_est_error / range;
        println!(
            "{:>6} {:>14.3e} {:>14.3e} {:>12.0e}",
            name, actual, est, all[i].1
        );
        assert!(actual <= est + 1e-15, "{name}: guarantee violated");
    }
    println!("\nall QoI errors within their guarantees ✓");
    Ok(())
}
