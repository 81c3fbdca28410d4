//! Property-based tests of the SZ3 stand-in's contract: any data, any
//! shape, any positive error bound — reconstruction stays within `eb`
//! pointwise and the blob decodes to the exact same thing every time.

use pqr_sz::{SzCompressor, SzConfig};
use proptest::prelude::*;

fn arb_config() -> impl Strategy<Value = SzConfig> {
    prop_oneof![Just(SzConfig::default()), Just(SzConfig::interp_linear()),]
}

/// Mixed smooth + jumpy data: worst of both worlds for predictors.
fn arb_data() -> impl Strategy<Value = Vec<f64>> {
    proptest::collection::vec(-100.0..100.0f64, 1..400).prop_map(|mut v| {
        // overlay a smooth trend so both predictor paths are used
        for (i, x) in v.iter_mut().enumerate() {
            *x = 0.3 * *x + 10.0 * ((i as f64) * 0.1).sin();
        }
        v
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn roundtrip_within_bound_1d(
        data in arb_data(),
        cfg in arb_config(),
        eb_exp in -9..0i32,
    ) {
        let eb = 10f64.powi(eb_exp);
        let comp = SzCompressor::new(cfg);
        let n = data.len();
        let blob = comp.compress(&data, &[n], eb).unwrap();
        let (recon, dims) = comp.decompress(&blob).unwrap();
        prop_assert_eq!(dims, vec![n]);
        for (i, (a, b)) in data.iter().zip(&recon).enumerate() {
            prop_assert!((a - b).abs() <= eb, "idx {i}: |{a} - {b}| > {eb}");
        }
    }

    #[test]
    fn roundtrip_within_bound_nd(
        d0 in 1usize..12,
        d1 in 1usize..12,
        d2 in 1usize..8,
        cfg in arb_config(),
        seed in 0u64..1000,
    ) {
        let n = d0 * d1 * d2;
        let mut s = seed.wrapping_mul(0x9e3779b97f4a7c15) | 1;
        let data: Vec<f64> = (0..n)
            .map(|i| {
                s ^= s << 13;
                s ^= s >> 7;
                s ^= s << 17;
                (s as f64 / u64::MAX as f64) * 4.0 + ((i as f64) * 0.3).cos()
            })
            .collect();
        let eb = 1e-4;
        let comp = SzCompressor::new(cfg);
        let blob = comp.compress(&data, &[d0, d1, d2], eb).unwrap();
        let (recon, dims) = comp.decompress(&blob).unwrap();
        prop_assert_eq!(dims, vec![d0, d1, d2]);
        for (a, b) in data.iter().zip(&recon) {
            prop_assert!((a - b).abs() <= eb);
        }
    }

    #[test]
    fn decompression_is_deterministic(
        data in arb_data(),
        cfg in arb_config(),
    ) {
        let comp = SzCompressor::new(cfg);
        let n = data.len();
        let blob = comp.compress(&data, &[n], 1e-3).unwrap();
        let (r1, _) = comp.decompress(&blob).unwrap();
        let (r2, _) = comp.decompress(&blob).unwrap();
        prop_assert_eq!(r1, r2);
    }

    #[test]
    fn truncated_blobs_error_not_panic(
        data in proptest::collection::vec(-10.0..10.0f64, 16..64),
        cut in 1usize..40,
    ) {
        let comp = SzCompressor::default();
        let n = data.len();
        let blob = comp.compress(&data, &[n], 1e-3).unwrap();
        let cut = cut.min(blob.len().saturating_sub(1));
        // must not panic; Err or (rarely) a valid prefix parse are both fine
        let _ = comp.decompress(&blob[..cut]);
    }
}
