//! Custom QoIs from text: the expression grammar in action.
//!
//! Analyses rarely want to write Rust to describe a quantity of interest;
//! this example archives a 2-field dataset and retrieves three QoIs parsed
//! from strings, including the paper's decomposition trick for fractional
//! powers (`u^1.5 = sqrt(u^3)`).
//!
//! ```sh
//! cargo run --release --example custom_qoi
//! ```

use pqr::prelude::*;
use pqr::qoi::parse::parse;

fn main() -> Result<()> {
    let n = 50_000;
    // density and temperature fields
    let rho: Vec<f64> = (0..n)
        .map(|i| 1.2 + 0.1 * (i as f64 * 0.003).sin())
        .collect();
    let temp: Vec<f64> = (0..n)
        .map(|i| 300.0 + 20.0 * (i as f64 * 0.001).cos())
        .collect();

    // QoIs straight from text — x0 = rho, x1 = T
    let qois = [
        ("ideal_gas_p", "287.1 * x0 * x1"),
        (
            "sutherland",
            "1.716e-5 * sqrt((x1 / 273.15)^3) * 383.55 / (x1 + 110.4)",
        ),
        ("buoyancy", "9.81 * (1.2 - x0) / 1.2"),
    ];

    let mut builder = ArchiveBuilder::new(&[n])
        .field("rho", rho.clone())
        .field("T", temp.clone());
    for (name, text) in qois {
        let expr = parse(text)?;
        println!("{name}: {expr}");
        builder = builder.qoi(name, expr);
    }
    let archive = builder.scheme(Scheme::PmgardHb).build()?;

    let mut session = archive.session()?;
    println!(
        "\n{:>12} {:>10} {:>12} {:>12}",
        "qoi", "tol", "bytes", "est err"
    );
    for (name, _) in qois {
        let r = session.execute(&RetrievalRequest::new().qoi(name, 1e-5))?;
        assert!(r.satisfied);
        println!(
            "{:>12} {:>10.0e} {:>12} {:>12.2e}",
            name, 1e-5, r.total_fetched, r.targets[0].max_est_error
        );
    }

    // verify one against ground truth computed directly
    let truth: Vec<f64> = rho.iter().zip(&temp).map(|(r, t)| 287.1 * r * t).collect();
    let derived = session.qoi_values("ideal_gas_p")?;
    let rel = stats::rel_linf(&truth, &derived);
    println!("\nideal_gas_p actual relative error: {rel:.2e} (≤ 1e-5 guaranteed)");
    assert!(rel <= 1e-5);
    Ok(())
}
