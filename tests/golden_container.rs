//! Golden hashes of the PQRX container: the bytes `Archive::to_bytes` and
//! `ArchiveBuilder::build_to_path` produce for one small deterministic
//! dataset per scheme, recorded at the commit before the backend collapse
//! (PR 18). A refactor of the representation plumbing may not move a byte
//! of either layout; a deliberate format change re-records these. The two
//! snapshot schemes' rows were re-recorded when the SZ stream's Huffman
//! payload became four streams (SZ format version 2); the PMGARD and PZFP
//! rows still hold the first recording.

use pqr::prelude::*;

/// 64-bit FNV-1a.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Three 24×20 fields from an integer xorshift (no libm call, so the
/// values are the same bits on every platform), one with a zero run for
/// the mask.
fn builder(scheme: Scheme) -> ArchiveBuilder {
    let dims = [24usize, 20];
    let n = dims[0] * dims[1];
    let mut s = 0x9e37_79b9_7f4a_7c15u64;
    let mut field = |scale: f64, zeros: usize| -> Vec<f64> {
        (0..n)
            .map(|i| {
                s ^= s << 13;
                s ^= s >> 7;
                s ^= s << 17;
                if i < zeros {
                    0.0
                } else {
                    ((s >> 11) as f64 / (1u64 << 53) as f64 - 0.5) * scale + (i % 17) as f64
                }
            })
            .collect()
    };
    ArchiveBuilder::new(&dims)
        .field("Vx", field(8.0, 40))
        .field("Vy", field(3.0, 40))
        .field("P", field(0.25, 0))
        .qoi("V2", QoiExpr::var(0).pow(2).add(QoiExpr::var(1).pow(2)))
        .mask(&["Vx", "Vy"])
        .snapshot_bounds(&[1e-1, 1e-3, 1e-5])
        .scheme(scheme)
}

#[test]
fn container_bytes_match_the_recorded_hashes() {
    // (scheme, fnv1a(to_bytes), fnv1a(build_to_path file))
    let golden: [(Scheme, u64, u64); 5] = [
        (Scheme::Psz3, 0xd9e9444e6f798909, 0xd9e9444e6f798909),
        (Scheme::Psz3Delta, 0x582bd6e873a04137, 0x582bd6e873a04137),
        (Scheme::PmgardOb, 0xca2e259e0aad3229, 0xca2e259e0aad3229),
        (Scheme::PmgardHb, 0x57a07c171c1cdcb2, 0x57a07c171c1cdcb2),
        // the one scheme whose streamed directory is padded: its plane
        // count is data-dependent, below the writer's reservation
        (Scheme::Pzfp, 0x1170dfc7344a2c57, 0x9ec32c182fc45eb6),
    ];
    let dir = std::env::temp_dir().join("pqr_golden_container_test");
    std::fs::create_dir_all(&dir).unwrap();
    for (scheme, want_bytes, want_file) in golden {
        let resident = fnv1a(&builder(scheme).build().unwrap().to_bytes());
        let path = dir.join(format!("{}_{}.pqrx", scheme.name(), std::process::id()));
        builder(scheme).build_to_path(&path, 2, true).unwrap();
        let streamed = fnv1a(&std::fs::read(&path).unwrap());
        std::fs::remove_file(&path).ok();
        assert_eq!(
            (resident, streamed),
            (want_bytes, want_file),
            "{}: (to_bytes, build_to_path) = ({resident:#018x}, {streamed:#018x})",
            scheme.name()
        );
    }
}
