//! Extension operators (ln/exp) and the interval-arithmetic estimator.
//!
//! The paper's §IV-D argues the derivable-QoI theory "can extend to new
//! operators with derivable error control"; this example exercises that
//! extensibility end to end on a combustion-flavoured workload: an
//! Arrhenius-style reaction rate `c · e^{−Ea/T}` (exp ∘ radical — *not*
//! expressible with Table II alone) and a log-concentration `ln(1 + c)`,
//! both written as plain text the way an analysis config would carry them.
//! The same requests are then served by the generic interval-arithmetic
//! estimator to show the two machineries honour the same guarantee.
//!
//! ```sh
//! cargo run --release --example arrhenius_extension
//! ```

use pqr::prelude::*;
use pqr::qoi::parse::parse;

fn main() -> Result<()> {
    // Synthetic flame-front fields: temperature (x0) and a species
    // concentration (x1).
    let n = 60_000;
    let temperature: Vec<f64> = (0..n)
        .map(|i| {
            let x = i as f64 / n as f64;
            // a front at x = 0.4: cold reactants → hot products
            900.0 + 1100.0 / (1.0 + (-40.0 * (x - 0.4)).exp()) + 30.0 * (x * 130.0).sin()
        })
        .collect();
    let concentration: Vec<f64> = (0..n)
        .map(|i| {
            let x = i as f64 / n as f64;
            // reactant consumed across the front
            0.12 * (1.0 - 1.0 / (1.0 + (-40.0 * (x - 0.4)).exp())) + 0.01 * (x * 57.0).cos().abs()
        })
        .collect();

    // radical(x0, 0) is 1/T (Theorem 3), so the Arrhenius exponent −Ea/T
    // composes as exp(0 − Ea·(1/T)) with Ea = 2000 K.
    let rate = parse("x1 * exp(0 - 2000 * radical(x0, 0))")?;
    let log_c = parse("ln(poly(x1, 1, 1))")?; // ln(1 + c)
    println!("parsed rate  = {rate}");
    println!("parsed log_c = {log_c}");

    let build = |engine: EngineConfig| -> Result<Archive> {
        ArchiveBuilder::new(&[n])
            .field("T", temperature.clone())
            .field("c", concentration.clone())
            .qoi("rate", rate.clone())
            .qoi("log_c", log_c.clone())
            .engine_config(engine)
            .build()
    };

    let estimators = [
        ("theorem (§IV + ln/exp)", EngineConfig::default()),
        (
            "interval arithmetic",
            EngineConfig {
                bound_config: BoundConfig {
                    estimator: pqr::qoi::bounds::Estimator::Interval,
                    ..Default::default()
                },
                ..Default::default()
            },
        ),
    ];

    for (label, cfg) in estimators {
        let archive = build(cfg)?;
        let mut session = archive.session()?;
        let report =
            session.execute(&RetrievalRequest::new().qoi("rate", 1e-5).qoi("log_c", 1e-5))?;
        println!(
            "\n{label}: satisfied={} bitrate={:.3} ({} B fetched)",
            report.satisfied, report.bitrate, report.total_fetched
        );
        assert!(report.satisfied);

        // Verify the guarantee against ground truth for both QoIs.
        for (name, expr) in [("rate", &rate), ("log_c", &log_c)] {
            let truth: Vec<f64> = temperature
                .iter()
                .zip(&concentration)
                .map(|(&t, &c)| expr.eval(&[t, c]))
                .collect();
            let derived = session.qoi_values(name)?;
            let actual = stats::max_abs_diff(&truth, &derived);
            let range = stats::value_range(&truth);
            println!(
                "  {name}: actual relative error {:.3e} ≤ 1e-5",
                actual / range
            );
            assert!(actual / range <= 1e-5);
        }
    }

    println!("\nboth estimators honour the guarantee on operators beyond Table II");
    Ok(())
}
