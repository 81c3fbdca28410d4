//! Quickstart: archive a field, retrieve it under a QoI tolerance.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use pqr::prelude::*;

fn main() -> Result<()> {
    // A smooth synthetic field standing in for simulation output.
    let n = 100_000;
    let temperature: Vec<f64> = (0..n)
        .map(|i| {
            let x = i as f64 / n as f64;
            300.0 + 25.0 * (x * 9.0).sin() + 4.0 * (x * 71.0).cos()
        })
        .collect();

    // Archive side: refactor once, register the QoI the analysis derives.
    // Here the analysis consumes 1/T (a radical QoI, Theorem 3).
    let archive = ArchiveBuilder::new(&[n])
        .field("T", temperature.clone())
        .qoi("invT", QoiExpr::var(0).radical(0.0))
        .scheme(Scheme::PmgardHb)
        .build()?;
    let manifest = archive.manifest()?;

    println!(
        "archived {} points: {} B (raw {} B)",
        n,
        manifest.total_payload_bytes(),
        manifest.raw_bytes()
    );

    // Retrieval side: progressively tighter requests reuse earlier bytes.
    let mut session = archive.session()?;
    println!(
        "\n{:>10} {:>12} {:>14} {:>12}",
        "tol(rel)", "satisfied", "bytes so far", "bitrate"
    );
    for tol in [1e-2, 1e-4, 1e-6] {
        let report = session.execute(&RetrievalRequest::new().qoi("invT", tol))?;
        println!(
            "{:>10.0e} {:>12} {:>14} {:>12.3}",
            tol, report.satisfied, report.total_fetched, report.bitrate
        );
    }

    // The guarantee: actual QoI error ≤ estimated ≤ tolerance.
    let truth: Vec<f64> = temperature.iter().map(|t| 1.0 / t).collect();
    let derived = session.qoi_values("invT")?;
    let actual = stats::max_abs_diff(&truth, &derived);
    let range = stats::value_range(&truth);
    println!(
        "\nactual relative QoI error: {:.3e} (tolerance was 1e-6)",
        actual / range
    );
    assert!(actual / range <= 1e-6);

    // And we moved far fewer bytes than the raw field.
    let saved = 100.0 * (1.0 - session.total_fetched() as f64 / manifest.raw_bytes() as f64);
    println!(
        "moved {} B — {:.1}% less than raw",
        session.total_fetched(),
        saved
    );

    // Several QoIs deriving from the same field? Batch them in one
    // request: T is fetched once for both targets, each certified
    // separately in the per-target report.
    let archive = ArchiveBuilder::new(&[n])
        .field("T", temperature)
        .qoi("invT", QoiExpr::var(0).radical(0.0))
        .qoi("lnT", QoiExpr::var(0).ln())
        .scheme(Scheme::PmgardHb)
        .build()?;
    let mut session = archive.session()?;
    let report = session.execute(&RetrievalRequest::new().qoi("invT", 1e-5).qoi("lnT", 1e-4))?;
    println!("\nbatched multi-QoI request (invT @ 1e-5, lnT @ 1e-4):");
    for t in &report.targets {
        println!(
            "  {:<6} satisfied={} est err {:.3e} (tol {:.3e})",
            t.name, t.satisfied, t.max_est_error, t.tol_abs
        );
    }
    println!(
        "  shared-fragment savings: {} B (T scheduled once for both targets)",
        report.shared_bytes_saved
    );
    assert!(report.satisfied);
    Ok(())
}
