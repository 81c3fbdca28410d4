//! Property tests of the parallel encode path: for random fields, schemes
//! and ladders, every (workers, overlap) refactor schedule — fields
//! encode in parallel, one per thread — must be
//! **byte-identical** to the serial reference — archives are
//! content-addressed in practice, so the write path may only change
//! wall-clock, never bytes — and the word-parallel kernels must match
//! their scalar oracles digit for digit.

use pqr_mgard::{Basis, MgardRefactorer};
use pqr_progressive::field::Dataset;
use pqr_progressive::refactored::Scheme;
use pqr_zfp::ZfpRefactorer;
use proptest::prelude::*;

fn arb_scheme() -> impl Strategy<Value = Scheme> {
    prop_oneof![
        Just(Scheme::Psz3),
        Just(Scheme::Psz3Delta),
        Just(Scheme::PmgardHb),
        Just(Scheme::PmgardOb),
        Just(Scheme::Pzfp),
    ]
}

fn make_dataset(n: usize, seed: u64) -> Dataset {
    let mut ds = Dataset::new(&[n]);
    let mut s = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
    for name in ["a", "b", "c"] {
        let field: Vec<f64> = (0..n)
            .map(|i| {
                s ^= s << 13;
                s ^= s >> 7;
                s ^= s << 17;
                (s as f64 / u64::MAX as f64 - 0.5) * 3.0 + ((i as f64) * 0.13).sin() * 6.0 + 11.0
            })
            .collect();
        ds.add_field(name, field).unwrap();
    }
    ds
}

fn unique_path(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join("pqr_prop_encode");
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(format!(
        "{tag}_{}_{}.pqrx",
        std::process::id(),
        std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .unwrap()
            .as_nanos()
    ))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The acceptance property of the parallel write path: resident
    /// refactors at any worker count and streamed archives under every
    /// (workers, overlap) schedule are byte-identical to the serial
    /// reference.
    #[test]
    fn prop_encode_equivalence(
        n in 96usize..400,
        seed in 0u64..1000,
        scheme in arb_scheme(),
    ) {
        let ds = make_dataset(n, seed);
        let bounds = [1e-1, 1e-3, 1e-5];

        // resident path: 8 workers ≡ 1 worker, field by field
        let serial = ds.refactor_with_workers(scheme, &bounds, 1).unwrap();
        let parallel = ds.refactor_with_workers(scheme, &bounds, 8).unwrap();
        for i in 0..ds.num_fields() {
            prop_assert_eq!(
                serial.field(i).to_bytes(),
                parallel.field(i).to_bytes(),
                "{} field {} differs at 8 workers", scheme.name(), i
            );
        }

        // streamed path: every schedule writes the same file
        let mut reference: Option<Vec<u8>> = None;
        for (workers, overlap) in [(1, false), (1, true), (8, false), (8, true)] {
            let path = unique_path(&format!("{}_{workers}_{overlap}", scheme.name()));
            ds.refactor_to_path(scheme, &bounds, Some(&[0, 1]), b"pe", &path, workers, overlap)
                .unwrap();
            let bytes = std::fs::read(&path).unwrap();
            std::fs::remove_file(&path).ok();
            match &reference {
                None => reference = Some(bytes),
                Some(r) => prop_assert_eq!(
                    r, &bytes,
                    "{} streamed archive differs at workers={} overlap={}",
                    scheme.name(), workers, overlap
                ),
            }
        }
    }

    /// The word-parallel mgard/zfp encoders match their scalar oracles
    /// digit for digit.
    #[test]
    fn word_encode_matches_scalar_oracle(
        n in 96usize..400,
        seed in 0u64..1000,
    ) {
        let ds = make_dataset(n, seed);
        let data = ds.field(0);

        for basis in [Basis::Hierarchical, Basis::Orthogonal] {
            let r = MgardRefactorer::new(basis);
            let oracle = r.refactor_scalar(data, &[n]).unwrap();
            let word = r.refactor(data, &[n]).unwrap();
            prop_assert_eq!(oracle.meta().to_bytes(), word.meta().to_bytes(), "mgard meta");
            prop_assert!(oracle.plane_payloads().eq(word.plane_payloads()), "mgard planes");
        }

        let r = ZfpRefactorer::new();
        let oracle = r.refactor_scalar(data, &[n]).unwrap();
        let word = r.refactor(data, &[n]).unwrap();
        prop_assert_eq!(oracle.meta().to_bytes(), word.meta().to_bytes(), "zfp meta");
        prop_assert!(oracle.plane_payloads().eq(word.plane_payloads()), "zfp planes");
    }
}
