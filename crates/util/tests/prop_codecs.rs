//! Property-based tests for the lossless codecs: any input, exact
//! roundtrips, no panics on hostile streams.

use pqr_util::bitio::{BitReader, BitWriter};
use pqr_util::{huffman, rle};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn byte_rle_roundtrip(data in proptest::collection::vec(any::<u8>(), 0..4096)) {
        let enc = rle::encode_bytes(&data);
        prop_assert_eq!(rle::decode_bytes(&enc).unwrap(), data);
    }

    #[test]
    fn byte_rle_roundtrip_runny(
        runs in proptest::collection::vec((any::<u8>(), 0usize..600), 0..20)
    ) {
        let mut data = Vec::new();
        for (b, len) in runs {
            data.extend(std::iter::repeat_n(b, len));
        }
        let enc = rle::encode_bytes(&data);
        prop_assert_eq!(rle::decode_bytes(&enc).unwrap(), data);
    }

    #[test]
    fn bit_rle_roundtrip(bits in proptest::collection::vec(any::<bool>(), 0..4096)) {
        let enc = rle::encode_bits_auto(&bits);
        prop_assert_eq!(rle::decode_bits_auto(&enc, bits.len()).unwrap(), bits);
    }

    #[test]
    fn huffman_roundtrip(
        syms in proptest::collection::vec(0u32..500, 0..4096),
    ) {
        let blob = huffman::encode(&syms, 500).unwrap();
        prop_assert_eq!(huffman::decode(&blob).unwrap(), syms);
    }

    #[test]
    fn huffman_skewed_roundtrip(
        zeros in 0usize..2000,
        tail in proptest::collection::vec(0u32..65536, 0..100),
    ) {
        let mut syms = vec![32768u32; zeros];
        syms.extend(tail);
        let blob = huffman::encode(&syms, 65536).unwrap();
        prop_assert_eq!(huffman::decode(&blob).unwrap(), syms);
    }

    #[test]
    fn bitio_roundtrip(values in proptest::collection::vec((any::<u64>(), 1u32..=64), 0..200)) {
        let mut w = BitWriter::new();
        for &(v, n) in &values {
            let masked = if n == 64 { v } else { v & ((1u64 << n) - 1) };
            w.put_bits(masked, n);
        }
        let bytes = w.finish();
        let mut r = BitReader::new(&bytes);
        for &(v, n) in &values {
            let masked = if n == 64 { v } else { v & ((1u64 << n) - 1) };
            prop_assert_eq!(r.get_bits(n), masked);
        }
    }

    #[test]
    fn hostile_streams_never_panic(
        junk in proptest::collection::vec(any::<u8>(), 0..512),
        jump in (0u32..300, 0u32..300, 0u32..300),
        count in 0u64..4096,
    ) {
        let _ = rle::decode_bytes(&junk);
        let _ = rle::decode_bits_auto(&junk, 100);
        let _ = huffman::decode(&junk);
        // four-stream arm: a valid length table (from the junk's own
        // symbols), then any count, a jump table and junk streams
        let symbols: Vec<u32> = junk.iter().map(|&b| u32::from(b % 37)).collect();
        let valid = huffman::encode(&symbols, 37).unwrap();
        let nruns = u32::from_le_bytes(valid[12..16].try_into().unwrap()) as usize;
        let mut blob = valid[..4].to_vec();
        blob.extend_from_slice(&count.to_le_bytes());
        blob.extend_from_slice(&valid[12..16 + 5 * nruns]);
        let mut payload: Vec<u8> = [jump.0, jump.1, jump.2]
            .iter()
            .flat_map(|l| l.to_le_bytes())
            .collect();
        payload.extend_from_slice(&junk);
        blob.extend_from_slice(&(payload.len() as u64).to_le_bytes());
        blob.extend_from_slice(&payload);
        let _ = huffman::decode(&blob);
    }
}
