//! Property-based tests for the ZFP stand-in: the guaranteed bound must
//! dominate the real error for arbitrary data, shapes and fetch depths, and
//! every structural codec must roundtrip or fail cleanly.

use pqr_util::stats::max_abs_diff;
use pqr_zfp::{transform, ZfpCursor, ZfpMeta, ZfpRefactorer};
use proptest::prelude::*;

/// Arbitrary finite f64 fields with wildly mixed scales.
fn field_strategy(max_len: usize) -> impl Strategy<Value = Vec<f64>> {
    proptest::collection::vec(
        prop_oneof![
            // plain values
            -1e3f64..1e3,
            // tiny magnitudes (exercise per-block exponent spread)
            -1e-9f64..1e-9,
            // large magnitudes
            -1e12f64..1e12,
            // exact zeros (empty blocks)
            Just(0.0),
        ],
        1..max_len,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn guarantee_dominates_real_error_1d(data in field_strategy(600)) {
        let dims = vec![data.len()];
        let stream = ZfpRefactorer::new().refactor(&data, &dims).unwrap();
        let mut reader = stream.reader();
        // check at a few depths including exhaustion
        for _ in 0..6 {
            let real = max_abs_diff(&data, &reader.reconstruct());
            prop_assert!(
                real <= reader.guaranteed_bound(),
                "real {real} > bound {}", reader.guaranteed_bound()
            );
            reader.fetch_planes(11).unwrap();
        }
        reader.refine_to(0.0).unwrap();
        let real = max_abs_diff(&data, &reader.reconstruct());
        prop_assert!(real <= reader.guaranteed_bound());
    }

    #[test]
    fn guarantee_dominates_real_error_2d(
        rows in 1usize..20,
        cols in 1usize..20,
        seed in any::<u64>(),
    ) {
        let n = rows * cols;
        let mut s = seed | 1;
        let data: Vec<f64> = (0..n).map(|_| {
            s ^= s << 13; s ^= s >> 7; s ^= s << 17;
            ((s as f64 / u64::MAX as f64) - 0.5) * 2e4
        }).collect();
        let stream = ZfpRefactorer::new().refactor(&data, &[rows, cols]).unwrap();
        let mut reader = stream.reader();
        for eb in [1e2, 1e-2, 1e-8] {
            reader.refine_to(eb).unwrap();
            let real = max_abs_diff(&data, &reader.reconstruct());
            prop_assert!(real <= reader.guaranteed_bound());
            prop_assert!(reader.guaranteed_bound() <= eb || reader.fully_fetched());
        }
    }

    #[test]
    fn requested_bound_always_satisfied_or_exhausted(
        data in field_strategy(400),
        log_eb in -14.0f64..2.0,
    ) {
        let dims = vec![data.len()];
        let eb = 10f64.powf(log_eb);
        let stream = ZfpRefactorer::new().refactor(&data, &dims).unwrap();
        let mut reader = stream.reader();
        reader.refine_to(eb).unwrap();
        prop_assert!(reader.guaranteed_bound() <= eb || reader.fully_fetched());
        let real = max_abs_diff(&data, &reader.reconstruct());
        prop_assert!(real <= reader.guaranteed_bound());
    }

    #[test]
    fn metadata_roundtrips(data in field_strategy(300)) {
        // the stream's stored form is its metadata fragment plus its plane
        // payloads: a cursor over the re-parsed metadata, fed the payloads,
        // lands where the borrowed reader does
        let dims = vec![data.len()];
        let stream = ZfpRefactorer::new().refactor(&data, &dims).unwrap();
        let meta = ZfpMeta::from_bytes(&stream.meta().to_bytes()).unwrap();
        prop_assert_eq!(&meta, &stream.meta());
        let mut cursor = ZfpCursor::new(meta);
        let mut reader = stream.reader();
        reader.refine_to(1e-6).unwrap();
        for p in 0..reader.planes_read() as usize {
            cursor.push_plane(stream.plane(p).unwrap()).unwrap();
        }
        prop_assert_eq!(cursor.reconstruct(), reader.reconstruct());
    }

    #[test]
    fn hostile_metadata_never_panics(junk in proptest::collection::vec(any::<u8>(), 0..300)) {
        let _ = ZfpMeta::from_bytes(&junk);
        // junk with a valid magic prefix digs deeper into the parser
        let mut prefixed = b"PQZM".to_vec();
        prefixed.extend_from_slice(&junk);
        let _ = ZfpMeta::from_bytes(&prefixed);
    }

    #[test]
    fn transform_roundtrip_is_exact(
        vals in proptest::collection::vec((-1i64 << 52)..(1i64 << 52), 64),
        nd in 1usize..=3,
    ) {
        let len = 4usize.pow(nd as u32);
        let orig: Vec<i64> = vals[..len].to_vec();
        let mut blk = orig.clone();
        transform::forward(&mut blk, nd);
        transform::inverse(&mut blk, nd);
        prop_assert_eq!(blk, orig);
    }

    #[test]
    fn region_matches_full_reconstruction_window(
        rows in 1usize..24,
        cols in 1usize..24,
        seed in any::<u64>(),
        frac_lo in 0.0f64..0.8,
        frac_hi in 0.2f64..1.0,
        planes in 0usize..40,
    ) {
        let n = rows * cols;
        let mut s = seed | 1;
        let data: Vec<f64> = (0..n).map(|_| {
            s ^= s << 13; s ^= s >> 7; s ^= s << 17;
            ((s as f64 / u64::MAX as f64) - 0.5) * 100.0
        }).collect();
        let stream = ZfpRefactorer::new().refactor(&data, &[rows, cols]).unwrap();
        let mut reader = stream.reader();
        reader.fetch_planes(planes).unwrap();
        let full = reader.reconstruct();

        let lo = [
            ((rows as f64) * frac_lo.min(frac_hi)) as usize,
            ((cols as f64) * frac_lo.min(frac_hi)) as usize,
        ];
        let hi = [
            (((rows as f64) * frac_lo.max(frac_hi)) as usize).max(lo[0]).min(rows),
            (((cols as f64) * frac_lo.max(frac_hi)) as usize).max(lo[1]).min(cols),
        ];
        let region = reader.reconstruct_region(&lo, &hi).unwrap();
        let (wr, wc) = (hi[0] - lo[0], hi[1] - lo[1]);
        prop_assert_eq!(region.len(), wr * wc);
        for r in 0..wr {
            for c in 0..wc {
                prop_assert_eq!(
                    region[r * wc + c],
                    full[(lo[0] + r) * cols + (lo[1] + c)],
                    "window ({}, {})",
                    r,
                    c
                );
            }
        }
    }

    #[test]
    fn fetched_bytes_monotone_in_precision(data in field_strategy(500)) {
        let dims = vec![data.len()];
        let stream = ZfpRefactorer::new().refactor(&data, &dims).unwrap();
        let mut prev = 0usize;
        for i in 1..=12 {
            let eb = 10f64.powi(-i);
            let mut reader = stream.reader();
            reader.refine_to(eb).unwrap();
            prop_assert!(reader.total_fetched() >= prev);
            prev = reader.total_fetched();
        }
    }
}
