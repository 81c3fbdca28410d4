//! Datasets generated from `--seed`, their QoI registries, the raw truth
//! the replies are checked against, and the reply checks themselves. The
//! program under test receives only the generated fields.

use pqr_core::ArchiveBuilder;
use pqr_datagen::{ge, hurricane, RawDataset};
use pqr_progressive::plan::PlanReport;
use pqr_progressive::refactored::Scheme;
use pqr_qoi::library::velocity_magnitude;
use pqr_qoi::QoiExpr;
use pqr_serve::RemoteReport;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::BTreeMap;

/// The three representations the cycling workloads rotate through, with
/// the names their per-scheme metrics carry.
pub const SCHEMES: [(Scheme, &str); 3] = [
    (Scheme::PmgardHb, "pmgard-hb"),
    (Scheme::Pzfp, "pzfp"),
    (Scheme::Psz3Delta, "psz3-delta"),
];

/// Grid of `D-hurr` (cold_deep, 7.1 MB raw) and `D-hurr-s` (ingest,
/// 1.6 MB), and the mean block length of `D-ge` (200 blocks, ~120 k points ×
/// 5 fields, 4.8 MB): the shapes the issue that defined the benchmark fixed.
pub const HURR_DIMS: [usize; 3] = [32, 96, 96];
pub const HURR_S_DIMS: [usize; 3] = [16, 64, 64];
pub const GE_BLOCK_LEN: usize = 600;

pub struct Data {
    pub raw: RawDataset,
    pub qois: Vec<(String, QoiExpr)>,
    /// Fields under the zero-outlier mask (empty: no mask).
    mask: Vec<&'static str>,
}

impl Data {
    /// Hurricane wind fields: `U_sq`/`V_sq`/`W_sq` (x²) and `VTOT`.
    pub fn hurricane(seed: u64, dims: [usize; 3]) -> Self {
        let raw = hurricane::generate(&hurricane::HurricaneConfig {
            dims,
            seed,
            ..hurricane::HurricaneConfig::small()
        });
        let mut qois: Vec<(String, QoiExpr)> = ["U_sq", "V_sq", "W_sq"]
            .iter()
            .enumerate()
            .map(|(i, n)| (n.to_string(), QoiExpr::var(i).pow(2)))
            .collect();
        qois.push(("VTOT".into(), velocity_magnitude(0, 3)));
        Self {
            raw,
            qois,
            mask: Vec::new(),
        }
    }

    /// GE blocks concatenated: the six Eq. (1)–(6) QoIs plus one x² QoI
    /// per field (`<field>_sq`), velocity zero-mask on.
    pub fn ge(seed: u64) -> Self {
        let raw = ge::concat(&ge::generate(&ge::GeConfig {
            seed,
            ..ge::GeConfig::small().with_block_len(GE_BLOCK_LEN)
        }));
        let mut qois: Vec<(String, QoiExpr)> = pqr_qoi::ge::all()
            .into_iter()
            .map(|(n, e)| (n.to_string(), e))
            .collect();
        for (i, f) in ge::FIELD_NAMES.iter().enumerate() {
            qois.push((format!("{f}_sq"), QoiExpr::var(i).pow(2)));
        }
        Self {
            raw,
            qois,
            mask: ge::FIELD_NAMES[..3].to_vec(),
        }
    }

    /// Raw f64 bytes of the dataset — the denominator of
    /// `bytes_per_raw_byte`.
    pub fn raw_bytes(&self) -> f64 {
        self.raw.raw_bytes() as f64
    }

    /// A builder holding a copy of the fields, the registry and the mask.
    pub fn builder(&self, scheme: Scheme) -> ArchiveBuilder {
        let mut b = ArchiveBuilder::new(&self.raw.dims).scheme(scheme);
        for (name, data) in &self.raw.fields {
            b = b.field(name, data.clone());
        }
        for (name, expr) in &self.qois {
            b = b.qoi(name, expr.clone());
        }
        if !self.mask.is_empty() {
            b = b.mask(&self.mask);
        }
        b
    }

    /// Every registered QoI evaluated on the raw generated fields.
    pub fn truths(&self) -> BTreeMap<String, Vec<f64>> {
        let mut ds = pqr_progressive::field::Dataset::new(&self.raw.dims);
        for (name, data) in &self.raw.fields {
            ds.add_field(name, data.clone())
                .expect("generated fields share one shape");
        }
        self.qois
            .iter()
            .map(|(n, e)| (n.clone(), ds.qoi_values(e)))
            .collect()
    }
}

/// The per-reply check of the timed loop: every target satisfied and its
/// certified bound within the tolerance it was asked for.
pub fn report_ok(report: &PlanReport) -> bool {
    report.satisfied
        && report
            .targets
            .iter()
            .all(|t| t.satisfied && t.max_est_error <= t.tol_abs)
}

/// [`report_ok`] for a reply that crossed the wire.
pub fn remote_ok(report: &RemoteReport) -> bool {
    report.satisfied
        && report
            .targets
            .iter()
            .all(|t| t.satisfied && t.max_est_error <= t.tol_abs)
}

/// The set-up gate's check against ground truth:
/// `max|truth − derived| ≤ max_est_error ≤ tol_abs`.
pub fn truth_ok(truth: &[f64], derived: &[f64], max_est_error: f64, tol_abs: f64) -> bool {
    truth.len() == derived.len()
        && max_est_error <= tol_abs
        && truth
            .iter()
            .zip(derived)
            .all(|(t, d)| (t - d).abs() <= max_est_error)
}

/// The request-mix PRNG of one client in one stretch of a run: seeded from
/// `--seed` and a stream number, so every client of every run draws a
/// reproducible sequence of its own.
pub fn mix(seed: u64, stream: u64) -> StdRng {
    StdRng::seed_from_u64(seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ stream)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn truth_check_is_the_papers_inequality() {
        let truth = [1.0, 2.0, 3.0];
        assert!(truth_ok(&truth, &[1.0, 2.05, 3.0], 0.05, 0.1));
        // actual error above the certified bound
        assert!(!truth_ok(&truth, &[1.0, 2.2, 3.0], 0.05, 0.1));
        // certified bound above the tolerance
        assert!(!truth_ok(&truth, &[1.0, 2.0, 3.0], 0.2, 0.1));
        // a NaN anywhere fails
        assert!(!truth_ok(&truth, &[1.0, f64::NAN, 3.0], 0.05, 0.1));
        assert!(!truth_ok(&truth, &[1.0, 2.0], 0.05, 0.1));
    }

    #[test]
    fn the_mix_repeats_per_seed_and_differs_per_client() {
        use rand::Rng;
        let draw = |seed, stream| {
            let mut m = mix(seed, stream);
            (0..8).map(|_| m.gen_range(0..6usize)).collect::<Vec<_>>()
        };
        assert_eq!(draw(1, 0), draw(1, 0));
        assert_ne!(draw(1, 0), draw(1, 1));
        assert_ne!(draw(1, 0), draw(2, 0));
        assert!(draw(3, 0).iter().all(|&v| v < 6));
    }

    #[test]
    fn same_seed_same_fields() {
        let a = Data::hurricane(5, [4, 8, 8]);
        let b = Data::hurricane(5, [4, 8, 8]);
        let c = Data::hurricane(6, [4, 8, 8]);
        assert_eq!(a.raw.fields[0].1, b.raw.fields[0].1);
        assert_ne!(a.raw.fields[0].1, c.raw.fields[0].1);
        assert_eq!(a.raw_bytes(), (3 * 4 * 8 * 8 * 8) as f64);
        assert_eq!(a.truths().len(), 4);
    }
}
