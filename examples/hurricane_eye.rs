//! Progressive analysis of hurricane structure: how little data does each
//! question need?
//!
//! Three analyses of increasing demand run against the same archive; each
//! pays only its own bytes (the motivating scenario of §I — one archive,
//! many fidelities):
//!
//! 1. "Where is the eye?"             — coarse VTOT, τ = 5%
//! 2. "How strong is the eyewall?"    — peak wind within 0.5%
//! 3. "Full wind field for a model"   — VTOT within 1e-5
//!
//! ```sh
//! cargo run --release --example hurricane_eye
//! ```

use pqr::datagen::hurricane::{self, HurricaneConfig};
use pqr::prelude::*;

fn main() -> Result<()> {
    let cfg = HurricaneConfig {
        dims: [10, 96, 96],
        ..HurricaneConfig::small()
    };
    let raw = hurricane::generate(&cfg);
    let [nz, ny, nx] = cfg.dims;
    println!("Hurricane stand-in: {nz}×{ny}×{nx}, 3 wind components");

    let mut builder = ArchiveBuilder::new(&raw.dims).scheme(Scheme::PmgardHb);
    for (name, data) in &raw.fields {
        builder = builder.field(name, data.clone());
    }
    let archive = builder.qoi("VTOT", velocity_magnitude(0, 3)).build()?;
    let raw_bytes = archive.manifest()?.raw_bytes();

    let truth = {
        let u = raw.field("U").unwrap();
        let v = raw.field("V").unwrap();
        let w = raw.field("W").unwrap();
        (0..u.len())
            .map(|j| (u[j] * u[j] + v[j] * v[j] + w[j] * w[j]).sqrt())
            .collect::<Vec<_>>()
    };
    let surface = &truth[..ny * nx]; // z = 0 slab
    let true_peak = argmax(surface);
    println!(
        "ground truth: eyewall peak {:.1} m/s at (y={}, x={})\n",
        surface[true_peak],
        true_peak / nx,
        true_peak % nx
    );

    let mut session = archive.session()?;

    // 1. locate the eye at 5% tolerance
    let r = session.execute(&RetrievalRequest::new().qoi("VTOT", 5e-2))?;
    let approx = session.qoi_values("VTOT")?;
    let peak = argmax(&approx[..ny * nx]);
    println!(
        "Q1 locate eyewall   @ τ=5e-2 : {:>9} B ({:>5.1}% of raw) → peak at (y={}, x={})",
        r.total_fetched,
        100.0 * r.total_fetched as f64 / raw_bytes as f64,
        peak / nx,
        peak % nx
    );

    // 2. quantify the peak at 0.5%
    let r = session.execute(&RetrievalRequest::new().qoi("VTOT", 5e-3))?;
    let approx = session.qoi_values("VTOT")?;
    let peak_v = approx[argmax(&approx[..ny * nx])];
    println!(
        "Q2 peak intensity   @ τ=5e-3 : {:>9} B ({:>5.1}% of raw) → peak {:.1} m/s (true {:.1})",
        r.total_fetched,
        100.0 * r.total_fetched as f64 / raw_bytes as f64,
        peak_v,
        surface[true_peak]
    );

    // 3. model-grade field at 1e-5
    let r = session.execute(&RetrievalRequest::new().qoi("VTOT", 1e-5))?;
    let approx = session.qoi_values("VTOT")?;
    let worst = stats::max_abs_diff(&truth, &approx);
    println!(
        "Q3 model-grade field@ τ=1e-5 : {:>9} B ({:>5.1}% of raw) → max err {:.2e} (≤ {:.2e} guaranteed)",
        r.total_fetched,
        100.0 * r.total_fetched as f64 / raw_bytes as f64,
        worst,
        r.targets[0].max_est_error
    );
    assert!(worst <= r.targets[0].max_est_error);
    println!("\neach question paid only its increment — the archive was refactored once.");

    // 4. Region-of-interest follow-up: once the eye is located, a zoomed
    // analysis only needs the surrounding window. The PZFP representation
    // offers block-level random access: only the 4³ blocks under the window
    // are decoded, composing with whatever precision has been fetched.
    let u = raw.field("U").unwrap();
    let stream = ZfpRefactorer::new().refactor(u, &raw.dims)?;
    let mut zr = stream.reader();
    zr.refine_to(1e-3 * stats::value_range(u))?;
    let (py, px) = (true_peak / nx, true_peak % nx);
    let lo = [0, py.saturating_sub(8), px.saturating_sub(8)];
    let hi = [nz.min(4), (py + 8).min(ny), (px + 8).min(nx)];
    let window = zr.reconstruct_region(&lo, &hi)?;
    println!(
        "Q4 eye close-up (PZFP region {lo:?}..{hi:?}): {} samples decoded from {} fetched B, bound {:.2e}",
        window.len(),
        zr.total_fetched(),
        zr.guaranteed_bound()
    );
    // spot-check the window against the raw data under the global bound
    let mut worst = 0.0f64;
    let wdims: Vec<usize> = (0..3).map(|a| hi[a] - lo[a]).collect();
    for (k, &v) in window.iter().enumerate() {
        let c2 = k % wdims[2];
        let c1 = (k / wdims[2]) % wdims[1];
        let c0 = k / (wdims[1] * wdims[2]);
        let idx = (lo[0] + c0) * ny * nx + (lo[1] + c1) * nx + (lo[2] + c2);
        worst = worst.max((v - u[idx]).abs());
    }
    assert!(worst <= zr.guaranteed_bound());
    Ok(())
}

fn argmax(v: &[f64]) -> usize {
    v.iter()
        .enumerate()
        .max_by(|a, b| a.1.total_cmp(b.1))
        .map(|(i, _)| i)
        .unwrap_or(0)
}
