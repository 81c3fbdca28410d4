//! Property tests of the serve protocol's codecs:
//!
//! 1. Arbitrary [`RetrievalRequest`]s survive the wire **byte-identically**
//!    — `encode → decode → encode` is a fixed point, and every decoded
//!    field (tolerances included) is bit-equal to the original.
//! 2. The composite frame bodies ([`RetrieveBody`], [`RemoteReport`])
//!    round-trip exactly, values and progress blobs included.
//! 3. Hostile input fails at parse, cleanly: every strict prefix of a
//!    valid encoding errors (no partial successes), corrupted headers and
//!    absurd length prefixes are refused before any allocation (the
//!    `byteio::check_count` policy), and no input panics.
//! 4. Framing is chunk-size independent: frames reassemble byte-identically
//!    through a `FaultyStream` that rations reads.
//! 5. The stats and retrieve-reply layouts are pinned: fixed values encode
//!    to recorded bytes, so a reordered or added column fails even though
//!    it still round-trips.

use pqr_core::request::RetrievalRequest;
use pqr_progressive::fragstore::SourceStats;
use pqr_progressive::store::StoreStats;
use pqr_serve::client::{RemoteReport, RemoteTarget};
use pqr_serve::metrics::{DatasetStats, ServeCounters, StatsSnapshot};
use pqr_serve::wire::RetrieveBody;
use pqr_serve::FaultyStream;
use pqr_transfer::wire::{decode_header, read_frame, write_frame, MAX_FRAME_LEN};
use proptest::prelude::*;
use std::collections::BTreeMap;

const NAMES: [&str; 6] = ["V", "Vx2", "VxVy", "temperature", "σ_xx", "a b/c"];

/// Deterministic xorshift so a single u64 seed drives all the "free-form"
/// choices a request needs (names, regions, budgets).
fn xorshift(s: &mut u64) -> u64 {
    *s ^= *s << 13;
    *s ^= *s >> 7;
    *s ^= *s << 17;
    *s
}

fn arb_request(n_targets: usize, seed: u64, tol_exp: i32) -> RetrievalRequest {
    let mut s = seed.wrapping_mul(0x9e3779b97f4a7c15) | 1;
    let mut request = RetrievalRequest::new();
    for k in 0..n_targets {
        let name = NAMES[(xorshift(&mut s) as usize) % NAMES.len()];
        // tolerances spanning ~15 decades, exercised in both modes
        let mantissa = (xorshift(&mut s) % 9_000) as f64 / 1000.0 + 1.0;
        let tol = mantissa * 10f64.powi(tol_exp - k as i32);
        request = if xorshift(&mut s).is_multiple_of(2) {
            request.qoi(name, tol)
        } else {
            request.qoi_abs(name, tol)
        };
    }
    if xorshift(&mut s).is_multiple_of(3) {
        let lo = (xorshift(&mut s) % 1000) as usize;
        let hi = lo + 1 + (xorshift(&mut s) % 1000) as usize;
        request = request.region(lo, hi);
    }
    if xorshift(&mut s).is_multiple_of(3) {
        request = request.byte_budget((xorshift(&mut s) % (1 << 30)) as usize);
    }
    request
}

type Fingerprint = (
    Vec<(
        String,
        u64,
        pqr_core::request::ToleranceMode,
        Option<(usize, usize)>,
    )>,
    Option<usize>,
);

fn request_fingerprint(r: &RetrievalRequest) -> Fingerprint {
    let targets = r
        .targets()
        .iter()
        .map(|t| (t.name.clone(), t.tolerance.to_bits(), t.mode, t.region))
        .collect();
    (targets, r.budget())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn prop_request_roundtrip_is_byte_identical(
        n_targets in 1usize..6,
        seed in 0u64..10_000,
        tol_exp in -12i32..3,
    ) {
        let request = arb_request(n_targets, seed, tol_exp);
        let wire = request.to_wire_bytes();
        let decoded = RetrievalRequest::from_wire_bytes(&wire).unwrap();
        // the decoded request is field-for-field bit-equal...
        prop_assert_eq!(request_fingerprint(&request), request_fingerprint(&decoded));
        // ...and re-encoding is a byte-level fixed point
        prop_assert_eq!(wire, decoded.to_wire_bytes());
    }

    #[test]
    fn prop_every_strict_prefix_of_a_request_fails_to_parse(
        n_targets in 1usize..4,
        seed in 0u64..10_000,
    ) {
        let wire = arb_request(n_targets, seed, -4).to_wire_bytes();
        for cut in 0..wire.len() {
            prop_assert!(
                RetrievalRequest::from_wire_bytes(&wire[..cut]).is_err(),
                "prefix of length {} parsed", cut
            );
        }
    }

    #[test]
    fn prop_retrieve_body_roundtrips(
        n_targets in 1usize..5,
        seed in 0u64..10_000,
        n_values in 0usize..4,
        save_progress in proptest::bool::ANY,
    ) {
        let body = RetrieveBody {
            request: arb_request(n_targets, seed, -5),
            want_values: (0..n_values).map(|k| NAMES[k].to_string()).collect(),
            save_progress,
        };
        let decoded = RetrieveBody::from_bytes(&body.to_bytes()).unwrap();
        prop_assert_eq!(
            request_fingerprint(&body.request),
            request_fingerprint(&decoded.request)
        );
        prop_assert_eq!(body.want_values, decoded.want_values);
        prop_assert_eq!(body.save_progress, decoded.save_progress);
    }

    #[test]
    fn prop_remote_report_roundtrips(
        seed in 0u64..10_000,
        n_targets in 0usize..4,
        n_vals in 0usize..64,
        with_progress in proptest::bool::ANY,
        satisfied in proptest::bool::ANY,
    ) {
        let mut s = seed | 1;
        let values: Vec<f64> = (0..n_vals)
            .map(|_| (xorshift(&mut s) as f64 / u64::MAX as f64 - 0.5) * 1e6)
            .collect();
        let report = RemoteReport {
            satisfied,
            budget_exhausted: !satisfied,
            iterations: xorshift(&mut s) % 100,
            bytes_fetched: xorshift(&mut s),
            total_fetched: xorshift(&mut s),
            shared_bytes_saved: xorshift(&mut s) % (1 << 40),
            queue_wait_ms: xorshift(&mut s) % 10_000,
            store_fragments_decoded: xorshift(&mut s) % 1000,
            store_refine_reuses: xorshift(&mut s) % 1000,
            recompose_passes: xorshift(&mut s) % 10_000,
            recon_cache_hits: xorshift(&mut s) % 1000,
            reconstruct_ms: xorshift(&mut s) % 100_000,
            targets: (0..n_targets)
                .map(|k| RemoteTarget {
                    name: NAMES[k].to_string(),
                    satisfied: xorshift(&mut s).is_multiple_of(2),
                    tol_abs: 10f64.powi(-((xorshift(&mut s) % 12) as i32)),
                    max_est_error: (xorshift(&mut s) as f64) / 1e12,
                    bytes: xorshift(&mut s) % (1 << 33),
                })
                .collect(),
            values: BTreeMap::from([("V".to_string(), values)]),
            progress: with_progress.then(|| (0..(seed % 200) as u8).collect()),
        };
        prop_assert_eq!(RemoteReport::from_bytes(&report.to_bytes()).unwrap(), report);
    }

    #[test]
    fn prop_hostile_frame_headers_never_panic_and_never_over_allocate(
        bytes in proptest::collection::vec(any::<u8>(), 12),
    ) {
        let mut h = [0u8; 12];
        h.copy_from_slice(&bytes);
        // must never panic; an accepted header must be within policy
        if let Ok(header) = decode_header(&h) {
            prop_assert!(header.len as usize <= MAX_FRAME_LEN);
            prop_assert_eq!(&h[..4], pqr_transfer::wire::FRAME_MAGIC);
        }
    }

    #[test]
    fn prop_oversized_length_prefixes_are_refused(
        kind in 0u16..200,
        excess in 1u32..(1 << 10),
    ) {
        let mut h = [0u8; 12];
        h[..4].copy_from_slice(pqr_transfer::wire::FRAME_MAGIC);
        h[4..6].copy_from_slice(&pqr_transfer::wire::WIRE_VERSION.to_le_bytes());
        h[6..8].copy_from_slice(&kind.to_le_bytes());
        let len = (MAX_FRAME_LEN as u32).saturating_add(excess);
        h[8..12].copy_from_slice(&len.to_le_bytes());
        prop_assert!(decode_header(&h).is_err());
    }

    #[test]
    fn prop_hostile_request_bytes_never_panic(
        bytes in proptest::collection::vec(any::<u8>(), 0..256),
    ) {
        // any result is acceptable; panicking or aborting on allocation
        // is not (hostile counts are vetted before Vec::with_capacity)
        let _ = RetrievalRequest::from_wire_bytes(&bytes);
        let _ = RetrieveBody::from_bytes(&bytes);
        let _ = RemoteReport::from_bytes(&bytes);
    }

    #[test]
    fn prop_framing_is_chunk_size_independent(
        body in proptest::collection::vec(any::<u8>(), 0..2048),
        kind in 0u16..200,
        chunk in 1usize..7,
    ) {
        let mut encoded = Vec::new();
        write_frame(&mut encoded, kind, &body).unwrap();
        let mut rationed = FaultyStream::new(&encoded[..]).short_reads(chunk);
        let (got_kind, got_body, wire_bytes) = read_frame(&mut rationed).unwrap();
        prop_assert_eq!(got_kind, kind);
        prop_assert_eq!(got_body, body);
        prop_assert_eq!(wire_bytes, encoded.len());
    }
}

// ---------------------------------------------------------------------------
// Wire layout, pinned: fixed values must encode to the recorded bytes, so a
// reordered, added or dropped column fails here even though it round-trips.
// ---------------------------------------------------------------------------

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

/// A snapshot with every counter distinct and two dataset rows.
fn fixed_stats() -> StatsSnapshot {
    let row = |name: &str, k: u64| DatasetStats {
        name: name.into(),
        store: StoreStats {
            fragments_decoded: k + 1,
            refine_advances: k + 2,
            refine_reuses: k + 3,
            adoptions: k + 4,
            evictions: k + 5,
            rehydration_decodes: k + 6,
            rehydration_bytes: k + 7,
            snapshot_publishes: k + 8,
            epoch_short_circuits: k + 9,
            plan_front_hits: k + 10,
            plan_front_misses: k + 11,
            resident_bytes: k + 12,
            budget_bytes: k + 13,
            recompose_passes: k + 14,
            recon_cache_hits: k + 15,
            reconstruct_nanos: k + 16,
        },
        source: SourceStats {
            fetches: k + 17,
            fetched_bytes: k + 18,
            read_ops: k + 19,
        },
    };
    StatsSnapshot {
        counters: ServeCounters {
            connections: 1,
            requests: 2,
            retrieves: 3,
            errors: 4,
            shed_admission: 5,
            shed_busy: 6,
            bytes_in: 7,
            bytes_out: 8,
            queue_wait_ms_total: 9,
            queue_wait_ms_max: 10,
            disconnects_mid_request: 11,
            coalesced_rounds: 12,
            coalesced_requests: 13,
            coalesce_fallbacks: 14,
            service_ms_total: 15,
        },
        datasets: vec![row("ge", 0x100), row("s3d", 0x200)],
    }
}

fn fixed_report() -> RemoteReport {
    RemoteReport {
        satisfied: true,
        budget_exhausted: false,
        iterations: 1,
        bytes_fetched: 2,
        total_fetched: 3,
        shared_bytes_saved: 4,
        queue_wait_ms: 5,
        store_fragments_decoded: 6,
        store_refine_reuses: 7,
        recompose_passes: 8,
        recon_cache_hits: 9,
        reconstruct_ms: 10,
        targets: vec![RemoteTarget {
            name: "V".into(),
            satisfied: true,
            tol_abs: 0.5,
            max_est_error: 0.25,
            bytes: 11,
        }],
        values: BTreeMap::from([("V".to_string(), vec![1.0, -2.0])]),
        progress: Some(vec![0xab, 0xcd]),
    }
}

#[test]
fn stats_and_report_frames_keep_their_recorded_bytes() {
    // recorded before the counter sets moved to `pqr_util::tally!`
    let stats = concat!(
        "0100000000000000020000000000000003000000000000000400000000000000",
        "0500000000000000060000000000000007000000000000000800000000000000",
        "09000000000000000a000000000000000b000000000000000c00000000000000",
        "0d000000000000000e000000000000000f000000000000000200000000000000",
        "0200000000000000676501010000000000000201000000000000030100000000",
        "0000040100000000000005010000000000000601000000000000070100000000",
        "0000080100000000000009010000000000000a010000000000000b0100000000",
        "00000c010000000000000d010000000000000e010000000000000f0100000000",
        "0000100100000000000011010000000000001201000000000000130100000000",
        "0000030000000000000073336401020000000000000202000000000000030200",
        "0000000000040200000000000005020000000000000602000000000000070200",
        "0000000000080200000000000009020000000000000a020000000000000b0200",
        "00000000000c020000000000000d020000000000000e020000000000000f0200",
        "0000000000100200000000000011020000000000001202000000000000130200",
        "0000000000",
    );
    let report = concat!(
        "0100010000000000000002000000000000000300000000000000040000000000",
        "0000050000000000000006000000000000000700000000000000080000000000",
        "000009000000000000000a000000000000000100000000000000010000000000",
        "00005601000000000000e03f000000000000d03f0b0000000000000001000000",
        "000000000100000000000000560200000000000000000000000000f03f000000",
        "00000000c0010200000000000000abcd",
    );
    assert_eq!(hex(&fixed_stats().to_bytes()), stats);
    assert_eq!(hex(&fixed_report().to_bytes()), report);
    // and the recorded bytes decode to the fixed values
    let bytes = |h: &str| -> Vec<u8> {
        (0..h.len())
            .step_by(2)
            .map(|i| u8::from_str_radix(&h[i..i + 2], 16).unwrap())
            .collect()
    };
    assert_eq!(
        StatsSnapshot::from_bytes(&bytes(stats)).unwrap(),
        fixed_stats()
    );
    assert_eq!(
        RemoteReport::from_bytes(&bytes(report)).unwrap(),
        fixed_report()
    );
}
