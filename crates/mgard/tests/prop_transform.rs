//! Property-based tests for the multilevel transform and the progressive
//! reader: exact invertibility on arbitrary shapes, and the guaranteed
//! bound dominating the real reconstruction error at arbitrary fetch depth.

use pqr_mgard::transform::{decompose, decompose_with_workers, recompose, recompose_with_workers};
use pqr_mgard::{Basis, MgardRefactorer};
use proptest::prelude::*;

fn arb_basis() -> impl Strategy<Value = Basis> {
    prop_oneof![Just(Basis::Hierarchical), Just(Basis::Orthogonal)]
}

fn data_for(n: usize, seed: u64) -> Vec<f64> {
    let mut s = seed.wrapping_mul(0x9e3779b97f4a7c15) | 1;
    (0..n)
        .map(|i| {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            (s as f64 / u64::MAX as f64 - 0.5) * 2.0 + ((i as f64) * 0.05).sin() * 3.0
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn decompose_recompose_identity_any_shape(
        d0 in 1usize..40,
        d1 in 1usize..16,
        basis in arb_basis(),
        seed in 0u64..10_000,
    ) {
        let dims = [d0, d1];
        let n = d0 * d1;
        let orig = data_for(n, seed);
        let mut v = orig.clone();
        decompose(&mut v, &dims, basis);
        recompose(&mut v, &dims, basis);
        for (a, b) in orig.iter().zip(&v) {
            prop_assert!((a - b).abs() < 1e-9, "{a} vs {b}");
        }
    }

    #[test]
    fn parallel_transform_bit_identical_any_shape(
        rank in 1usize..=3,
        d0 in 1usize..40,
        d1 in 1usize..24,
        d2 in 1usize..12,
        basis in arb_basis(),
        workers in 2usize..=4,
        seed in 0u64..10_000,
    ) {
        // the pencil-parallel passes must be *byte*-identical to the scalar
        // serial oracle on every shape, not merely close (the suite runs
        // under the PQR_THREADS={1,4} CI matrix; `workers` here exercises
        // the explicit fan-out independently of the env)
        let dims = match rank {
            1 => vec![d0 * d1],
            2 => vec![d0, d1],
            _ => vec![d0, d1, d2],
        };
        let n: usize = dims.iter().product();
        let orig = data_for(n, seed);
        let mut serial = orig.clone();
        decompose(&mut serial, &dims, basis);
        let mut par = orig.clone();
        decompose_with_workers(&mut par, &dims, basis, workers);
        prop_assert_eq!(&serial, &par);
        let mut rec_serial = serial.clone();
        recompose(&mut rec_serial, &dims, basis);
        let mut rec_par = serial.clone();
        recompose_with_workers(&mut rec_par, &dims, basis, workers);
        prop_assert_eq!(&rec_serial, &rec_par);
    }

    #[test]
    fn guaranteed_bound_dominates_real_error(
        n in 2usize..600,
        basis in arb_basis(),
        seed in 0u64..10_000,
        eb_exp in -10..-1i32,
    ) {
        let data = data_for(n, seed);
        let stream = MgardRefactorer::new(basis).refactor(&data, &[n]).unwrap();
        let mut reader = stream.reader();
        reader.refine_to(10f64.powi(eb_exp)).unwrap();
        let recon = reader.reconstruct();
        let bound = reader.guaranteed_bound();
        for (i, (a, b)) in data.iter().zip(&recon).enumerate() {
            prop_assert!(
                (a - b).abs() <= bound,
                "idx {i}: |{a} - {b}| = {} > bound {bound}",
                (a - b).abs()
            );
        }
    }

    #[test]
    fn partial_plane_fetch_bound_holds(
        n in 2usize..400,
        basis in arb_basis(),
        seed in 0u64..10_000,
        planes in 1usize..40,
    ) {
        // fetch an arbitrary plane budget instead of a target bound
        let data = data_for(n, seed);
        let stream = MgardRefactorer::new(basis).refactor(&data, &[n]).unwrap();
        let mut reader = stream.reader();
        reader.fetch_planes(planes).unwrap();
        let recon = reader.reconstruct();
        let bound = reader.guaranteed_bound();
        for (a, b) in data.iter().zip(&recon) {
            prop_assert!((a - b).abs() <= bound);
        }
    }

    #[test]
    fn metadata_roundtrip_any_input(
        n in 1usize..300,
        basis in arb_basis(),
        seed in 0u64..10_000,
    ) {
        // the stream's stored form is its metadata fragment plus its plane
        // payloads: a cursor over the re-parsed metadata, fed the payloads,
        // lands where the borrowed reader does
        let data = data_for(n, seed);
        let stream = MgardRefactorer::new(basis).refactor(&data, &[n]).unwrap();
        let meta = pqr_mgard::MgardMeta::from_bytes(&stream.meta().to_bytes()).unwrap();
        prop_assert_eq!(&meta, &stream.meta());
        let mut cursor = pqr_mgard::MgardCursor::new(meta.clone());
        let mut payloads = stream.plane_payloads();
        for (l, lm) in meta.levels().iter().enumerate() {
            for _ in 0..lm.num_planes {
                cursor.push_plane(l, payloads.next().unwrap()).unwrap();
            }
        }
        let mut reader = stream.reader();
        reader.refine_to(0.0).unwrap();
        prop_assert_eq!(cursor.reconstruct(), reader.reconstruct());
    }

    #[test]
    fn monotone_bound_with_more_planes(
        n in 16usize..400,
        seed in 0u64..10_000,
    ) {
        let data = data_for(n, seed);
        let stream = MgardRefactorer::default().refactor(&data, &[n]).unwrap();
        let mut reader = stream.reader();
        let mut last = reader.guaranteed_bound();
        for _ in 0..30 {
            reader.fetch_planes(1).unwrap();
            let b = reader.guaranteed_bound();
            prop_assert!(b <= last * (1.0 + 1e-12));
            last = b;
        }
    }
}

/// Shapes whose finest passes exceed the parallel-dispatch threshold, so the
/// slab/halo code path (not just the serial fallback) is what's compared.
#[test]
fn parallel_transform_bit_identical_large_shapes() {
    for dims in [vec![16_385usize], vec![129, 127], vec![33, 31, 35]] {
        let n: usize = dims.iter().product();
        let orig = data_for(n, 42);
        for basis in [Basis::Hierarchical, Basis::Orthogonal] {
            let mut serial = orig.clone();
            decompose(&mut serial, &dims, basis);
            for workers in [2usize, 4] {
                let mut par = orig.clone();
                decompose_with_workers(&mut par, &dims, basis, workers);
                assert_eq!(serial, par, "decompose {dims:?} {basis:?} w={workers}");
            }
            let mut rec_serial = serial.clone();
            recompose(&mut rec_serial, &dims, basis);
            for workers in [2usize, 4] {
                let mut rec_par = serial.clone();
                recompose_with_workers(&mut rec_par, &dims, basis, workers);
                assert_eq!(
                    rec_serial, rec_par,
                    "recompose {dims:?} {basis:?} w={workers}"
                );
            }
        }
    }
}
