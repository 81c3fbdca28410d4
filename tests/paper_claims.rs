//! Integration tests pinning the paper's qualitative claims — the "shape"
//! results the figures report, asserted at test scale.

use pqr::datagen::ge;
use pqr::prelude::*;

fn ge_dataset(points_per_block: usize, blocks: usize) -> Dataset {
    let raw_blocks = ge::generate(&ge::GeConfig {
        blocks,
        mean_block_len: points_per_block,
        wall_fraction: 0.03,
        seed: 42,
    });
    let raw = ge::concat(&raw_blocks);
    let mut ds = Dataset::new(&raw.dims);
    for (name, data) in &raw.fields {
        ds.add_field(name, data.clone()).unwrap();
    }
    ds
}

/// §V-B / Fig. 2: under a progressive request series PSZ3 moves the most
/// bytes (snapshot redundancy); PSZ3-delta and PMGARD-HB are leaner.
#[test]
fn psz3_redundancy_ordering() {
    let ds = ge_dataset(1500, 6);
    let ladder: Vec<f64> = (1..=10).map(|i| 10f64.powi(-i)).collect();
    let mut totals = std::collections::BTreeMap::new();
    for scheme in [Scheme::Psz3, Scheme::Psz3Delta, Scheme::PmgardHb] {
        let archive = ds.refactor_with_bounds(scheme, &ladder).unwrap();
        let field = archive.field(3); // Pressure
        let mut reader = field.reader();
        for i in 1..=20 {
            let eb = 0.1 * (2.0f64).powi(-i) * field.value_range();
            reader.refine_to(eb).unwrap();
        }
        totals.insert(scheme.name(), reader.total_fetched());
    }
    assert!(
        totals["PSZ3"] > totals["PSZ3-delta"],
        "PSZ3 {} !> delta {}",
        totals["PSZ3"],
        totals["PSZ3-delta"]
    );
}

/// §V-B / Fig. 3: the OB estimator over-retrieves; HB estimates track the
/// real error far more closely, so HB fetches fewer bytes for the same
/// guaranteed bound.
#[test]
fn hb_beats_ob_fig3() {
    let ds = ge_dataset(2000, 4);
    let hb = ds.refactor(Scheme::PmgardHb).unwrap();
    let ob = ds.refactor(Scheme::PmgardOb).unwrap();
    for f in 0..5 {
        let range = hb.field(f).value_range();
        let mut rh = hb.field(f).reader();
        let mut ro = ob.field(f).reader();
        let eb = 1e-5 * range;
        rh.refine_to(eb).unwrap();
        ro.refine_to(eb).unwrap();
        assert!(
            rh.total_fetched() < ro.total_fetched(),
            "field {f}: HB {} !< OB {}",
            rh.total_fetched(),
            ro.total_fetched()
        );
        // and OB's real error sits far below its guarantee (over-retrieval)
        let orig = ds.field(f);
        let real_ob = stats::max_abs_diff(orig, ro.data());
        assert!(real_ob < ro.guaranteed_bound() / 3.0);
    }
}

/// §VI-B / Fig. 4: estimated errors upper-bound actual errors for every GE
/// QoI over a full progressive tolerance sweep.
#[test]
fn fig4_estimates_dominate_actuals_over_sweep() {
    let ds = ge_dataset(800, 4);
    let mut archive = ds.refactor(Scheme::PmgardHb).unwrap();
    archive.set_mask(ds.zero_mask(&[0, 1, 2])).unwrap();
    for (name, expr) in ge_qoi::all() {
        let truth = ds.qoi_values(&expr);
        let range = ds.qoi_range(&expr).unwrap();
        let mut engine = RetrievalEngine::new(&archive, EngineConfig::default()).unwrap();
        for i in 0..=6 {
            let tol = 0.1 * (4.0f64).powi(-i);
            let spec = QoiSpec::with_range(name, expr.clone(), tol, range);
            let report = engine.retrieve(&[spec]).unwrap();
            assert!(report.satisfied, "{name} τ=0.1·4^-{i}");
            let derived = engine.qoi_values(&expr);
            let actual = stats::max_abs_diff(&truth, &derived);
            assert!(
                actual <= report.targets[0].max_est_error,
                "{name} τ step {i}: actual {actual} > est {}",
                report.targets[0].max_est_error
            );
        }
    }
}

/// §V-A: the mask eliminates the √-blow-up — with walls masked the VTOT
/// request is satisfiable, and the √ estimator ablation (exact supremum)
/// can bound it even without the mask.
#[test]
fn mask_vs_exact_sqrt_ablation() {
    let ds = ge_dataset(1200, 4); // contains exact-zero walls
    let archive = ds.refactor(Scheme::PmgardHb).unwrap();
    let spec = QoiSpec::relative("VTOT", velocity_magnitude(0, 3), 1e-3, &ds).unwrap();

    // paper-mode √ without mask: unboundable
    let mut cfg = EngineConfig {
        max_iterations: 6,
        max_tightenings: 32,
        ..Default::default()
    };
    let mut engine = RetrievalEngine::new(&archive, cfg).unwrap();
    let r = engine.retrieve(std::slice::from_ref(&spec)).unwrap();
    assert!(!r.satisfied, "paper √ should fail on unmasked zeros");

    // exact-supremum √ (ablation): bounded even without the mask
    cfg.bound_config = BoundConfig {
        sqrt_mode: SqrtMode::Exact,
        ..Default::default()
    };
    cfg.max_iterations = 64;
    cfg.max_tightenings = 512;
    let mut engine2 = RetrievalEngine::new(&archive, cfg).unwrap();
    let r2 = engine2.retrieve(std::slice::from_ref(&spec)).unwrap();
    assert!(
        r2.satisfied,
        "exact √ estimator should succeed without mask"
    );
    let truth = ds.qoi_values(&spec.expr);
    let derived = engine2.qoi_values(&spec.expr);
    assert!(stats::max_abs_diff(&truth, &derived) <= r2.targets[0].max_est_error);
}

/// Table IV shape: PMGARD-HB refactoring (one decomposition + bitplanes)
/// must not be drastically slower than the 18-snapshot PSZ3 ladder. (The
/// paper measures HB 3–4× *faster*; our SZ stand-in is quicker than the
/// real SZ3 so the two land close — strict ordering would be a flaky
/// timing assertion, the regression guard here is the 2× envelope.)
#[test]
fn refactor_time_ordering_table4() {
    let ds = ge_dataset(4000, 4);
    let ladder: Vec<f64> = (1..=18).map(|i| 10f64.powi(-i)).collect();
    let (_, t_hb) = pqr::util::timer::time_it(|| ds.refactor(Scheme::PmgardHb).unwrap());
    let (_, t_psz3) =
        pqr::util::timer::time_it(|| ds.refactor_with_bounds(Scheme::Psz3, &ladder).unwrap());
    assert!(
        t_hb < t_psz3 * 2.0,
        "PMGARD-HB refactor {t_hb}s vs PSZ3 {t_psz3}s — far outside envelope"
    );
}

/// Fig. 9's headline number at the wire level: pushing the τ=1e-5 retrieval
/// through the paper-calibrated Globus model instead of the raw fields is
/// ≥ 2× faster (the paper reports 2.02× end-to-end at paper scale, where
/// the wire dominates compute).
#[test]
fn fig9_wire_speedup_exceeds_two() {
    let ds = ge_dataset(20_000, 2);
    let mut vds = Dataset::new(ds.dims());
    for i in 0..3 {
        vds.add_field(ds.field_name(i), ds.field(i).to_vec())
            .unwrap();
    }
    let mut archive = vds.refactor(Scheme::PmgardHb).unwrap();
    archive.set_mask(vds.zero_mask(&[0, 1, 2])).unwrap();
    let spec = QoiSpec::relative("VTOT", velocity_magnitude(0, 3), 1e-5, &vds).unwrap();
    let mut engine = RetrievalEngine::new(&archive, EngineConfig::default()).unwrap();
    let r = engine.retrieve(&[spec]).unwrap();
    assert!(r.satisfied);

    // The paper's 2.02× is a byte-fraction argument evaluated in the
    // wire-dominated regime (4.67 GB, where throughput dwarfs the session
    // latency). Project the *measured fraction* to the paper's transfer
    // size and run both sides through the calibrated model.
    let fraction = r.total_fetched as f64 / archive.raw_bytes() as f64;
    assert!(fraction < 0.5, "fetched fraction {fraction:.3} too large");
    let net = NetworkModel::globus_mcc_to_anvil();
    let paper_raw = 4_670_000_000usize; // §VI-D raw subset
    let t_raw = net.transfer_secs(paper_raw, 1);
    // progressive retrieval moves several fragments; charge one request per
    // field plus one for metadata — generous to the baseline
    let t_prog = net.transfer_secs((paper_raw as f64 * fraction) as usize, 4);
    assert!(
        t_raw / t_prog >= 2.0,
        "wire speedup {:.2}x below the paper's 2.02x envelope",
        t_raw / t_prog
    );
}

/// Fig. 9's byte argument at test scale: the τ=1e-5 QoI retrieval moves
/// under half of the raw involved-field bytes.
#[test]
fn fig9_bytes_win() {
    let ds = ge_dataset(20_000, 2);
    // velocity fields only (the paper's 3-variable transfer subset)
    let mut vds = Dataset::new(ds.dims());
    for i in 0..3 {
        vds.add_field(ds.field_name(i), ds.field(i).to_vec())
            .unwrap();
    }
    let mut archive = vds.refactor(Scheme::PmgardHb).unwrap();
    archive.set_mask(vds.zero_mask(&[0, 1, 2])).unwrap();
    let spec = QoiSpec::relative("VTOT", velocity_magnitude(0, 3), 1e-5, &vds).unwrap();
    let mut engine = RetrievalEngine::new(&archive, EngineConfig::default()).unwrap();
    let r = engine.retrieve(&[spec]).unwrap();
    assert!(r.satisfied);
    let raw = archive.raw_bytes();
    assert!(
        r.total_fetched * 2 < raw,
        "{} B fetched vs raw {} B — less than 2x win",
        r.total_fetched,
        raw
    );
}
