//! S3D combustion: molar-concentration product QoIs on flame-front data.
//!
//! The paper's S3D experiment (§VI-A) preserves products `xᵢ·xⱼ` of species
//! concentrations — the intermediates of reaction rates of progress, e.g.
//! `x₁x₃` for `H + O₂ ⇌ O + OH`. This example archives the 8-species
//! stand-in and retrieves all four Fig. 6 products at tight tolerances.
//!
//! ```sh
//! cargo run --release --example s3d_combustion
//! ```

use pqr::datagen::s3d::{self, S3dConfig, FIELD_NAMES, PRODUCT_PAIRS};
use pqr::prelude::*;

fn main() -> Result<()> {
    let cfg = S3dConfig::small();
    let data = s3d::generate(&cfg);
    println!(
        "S3D stand-in: {:?} grid, {} species",
        data.dims,
        data.fields.len()
    );

    let mut builder = ArchiveBuilder::new(&data.dims).scheme(Scheme::Psz3Delta);
    for (name, field) in &data.fields {
        builder = builder.field(name, field.clone());
    }
    let mut names = Vec::new();
    for (a, b) in PRODUCT_PAIRS {
        let name = format!("{}*{}", FIELD_NAMES[a], FIELD_NAMES[b]);
        builder = builder.qoi(&name, species_product(a, b));
        names.push(name);
    }
    let archive = builder.build()?;

    let mut session = archive.session()?;
    println!(
        "\n{:>12} {:>10} {:>12} {:>10}",
        "product", "tol", "bytes", "est err"
    );
    for tol in [1e-3, 1e-6] {
        for name in &names {
            let r = session.execute(&RetrievalRequest::new().qoi(name, tol))?;
            assert!(r.satisfied);
            println!(
                "{:>12} {:>10.0e} {:>12} {:>10.2e}",
                name, tol, r.total_fetched, r.targets[0].max_est_error
            );
        }
    }

    // Spot-verify one product against ground truth.
    let (a, b) = PRODUCT_PAIRS[0];
    let truth: Vec<f64> = data.fields[a]
        .1
        .iter()
        .zip(&data.fields[b].1)
        .map(|(x, y)| x * y)
        .collect();
    let derived = session.qoi_values(&names[0])?;
    let rel = stats::rel_linf(&truth, &derived);
    println!(
        "\n{}: actual relative error {:.2e} (≤ 1e-6 guaranteed)",
        names[0], rel
    );
    assert!(rel <= 1e-6);

    // Beyond the products: the full rate of progress `k_f·x₁x₃ − k_r·x₄x₅`
    // for H + O₂ ⇌ O + OH, with Arrhenius rate constants over a temperature
    // field — the quantity the paper's intermediates feed into, expressible
    // here thanks to the exp extension operator (§IV-D).
    let n: usize = data.dims.iter().product();
    let h2 = &data.fields[0].1;
    let h2_max = h2.iter().cloned().fold(f64::MIN, f64::max);
    let temperature: Vec<f64> = h2
        .iter()
        .map(|&c| 800.0 + 1400.0 * (1.0 - c / h2_max)) // reactant-depleted ⇒ hot
        .collect();

    let mut rb = ArchiveBuilder::new(&data.dims).scheme(Scheme::PmgardHb);
    rb = rb.field("T", temperature.clone());
    for (name, field) in &data.fields {
        rb = rb.field(name, field.clone());
    }
    // vars: 0 = T, then the 8 species shifted by one. FIELD_NAMES has
    // H at 3 and O2 at 1 (reactants), O at 4 and OH at 5 (products).
    let rop = rate_of_progress(
        0,
        &[1 + 3, 1 + 1],
        &[1 + 4, 1 + 5],
        3.5e3,
        8000.0,
        1.2e3,
        4000.0,
    );
    let rop_archive = rb.qoi("rop", rop.clone()).build()?;
    let mut rop_session = rop_archive.session()?;
    let r = rop_session.execute(&RetrievalRequest::new().qoi("rop", 1e-5))?;
    assert!(r.satisfied);

    let mut inputs = vec![temperature];
    for (_, f) in &data.fields {
        inputs.push(f.clone());
    }
    let truth: Vec<f64> = (0..n)
        .map(|i| {
            let point: Vec<f64> = inputs.iter().map(|f| f[i]).collect();
            rop.eval(&point)
        })
        .collect();
    let derived = rop_session.qoi_values("rop")?;
    let rel = stats::rel_linf(&truth, &derived);
    println!(
        "rate of progress (H + O2 <=> O + OH): bitrate {:.3}, actual rel err {:.2e} (≤ 1e-5)",
        r.bitrate, rel
    );
    assert!(rel <= 1e-5);
    Ok(())
}
