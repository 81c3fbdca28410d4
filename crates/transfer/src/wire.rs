//! Length-prefixed binary framing over arbitrary byte streams.
//!
//! The serving layer (`pqr-serve`) and any future remote-store transport
//! share this codec: a fixed 12-byte header — magic `PQRW`, protocol
//! version, frame kind, body length — followed by the body. The header is
//! validated **before** the body is allocated, and the body length is
//! capped by [`MAX_FRAME_LEN`], so a hostile peer cannot drive a
//! multi-gigabyte preallocation with a forged length prefix (the same
//! policy as [`pqr_util::byteio::ByteReader::check_count`]).
//!
//! Framing is transport-agnostic: anything `io::Read + io::Write`
//! (a `TcpStream`, an in-memory pipe, a fault-injection wrapper) carries
//! frames, which is what lets the serve tests drive the exact production
//! codec through simulated failures.

use pqr_util::error::{PqrError, Result};
use std::io::{Read, Write};

/// Magic prefix of every frame.
pub const FRAME_MAGIC: &[u8; 4] = b"PQRW";
/// Protocol version this build speaks. Peers with a different version are
/// rejected at the first frame.
pub const WIRE_VERSION: u16 = 1;
/// Policy ceiling on a frame body: 64 MiB. Large enough for a full-field
/// value payload on the bench datasets, small enough that a forged length
/// prefix cannot exhaust memory.
pub const MAX_FRAME_LEN: usize = 64 << 20;
/// Bytes in the fixed frame header.
pub const HEADER_LEN: usize = 12;

/// A decoded frame header.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FrameHeader {
    /// Protocol version of the sender.
    pub version: u16,
    /// Frame kind discriminant (meaning assigned by the layer above).
    pub kind: u16,
    /// Body length in bytes.
    pub len: u32,
}

/// Encodes a header into its 12 wire bytes.
pub fn encode_header(kind: u16, len: usize) -> [u8; HEADER_LEN] {
    debug_assert!(len <= MAX_FRAME_LEN);
    let mut h = [0u8; HEADER_LEN];
    h[..4].copy_from_slice(FRAME_MAGIC);
    h[4..6].copy_from_slice(&WIRE_VERSION.to_le_bytes());
    h[6..8].copy_from_slice(&kind.to_le_bytes());
    h[8..12].copy_from_slice(&(len as u32).to_le_bytes());
    h
}

/// Parses and validates the 12 header bytes: magic, version, and the
/// [`MAX_FRAME_LEN`] body cap. All three fail with
/// [`PqrError::CorruptStream`] before any body allocation.
pub fn decode_header(h: &[u8; HEADER_LEN]) -> Result<FrameHeader> {
    if &h[..4] != FRAME_MAGIC {
        return Err(PqrError::CorruptStream(
            "bad frame magic (want PQRW)".into(),
        ));
    }
    let version = u16::from_le_bytes([h[4], h[5]]);
    if version != WIRE_VERSION {
        return Err(PqrError::CorruptStream(format!(
            "unsupported wire version {version} (this build speaks {WIRE_VERSION})"
        )));
    }
    let kind = u16::from_le_bytes([h[6], h[7]]);
    let len = u32::from_le_bytes([h[8], h[9], h[10], h[11]]);
    if len as usize > MAX_FRAME_LEN {
        return Err(PqrError::CorruptStream(format!(
            "frame length {len} exceeds the {MAX_FRAME_LEN} B policy cap"
        )));
    }
    Ok(FrameHeader { version, kind, len })
}

/// Writes one frame (header + body). Returns the total bytes written so
/// callers can tally wire traffic.
pub fn write_frame(w: &mut impl Write, kind: u16, body: &[u8]) -> Result<usize> {
    if body.len() > MAX_FRAME_LEN {
        return Err(PqrError::InvalidRequest(format!(
            "frame body {} B exceeds the {MAX_FRAME_LEN} B cap",
            body.len()
        )));
    }
    let header = encode_header(kind, body.len());
    w.write_all(&header).map_err(io_err)?;
    w.write_all(body).map_err(io_err)?;
    w.flush().map_err(io_err)?;
    Ok(HEADER_LEN + body.len())
}

/// Reads one frame. Returns `(kind, body, wire_bytes)`. The body is
/// allocated only after the header passes [`decode_header`], so truncated,
/// forged, or oversized frames fail cleanly first.
pub fn read_frame(r: &mut impl Read) -> Result<(u16, Vec<u8>, usize)> {
    let mut h = [0u8; HEADER_LEN];
    r.read_exact(&mut h).map_err(io_err)?;
    let header = decode_header(&h)?;
    let mut body = vec![0u8; header.len as usize];
    r.read_exact(&mut body).map_err(io_err)?;
    Ok((header.kind, body, HEADER_LEN + header.len as usize))
}

/// Maps transport failures into the workspace error type. Timeouts keep
/// their identity in the message so callers can distinguish a slow peer
/// (`WouldBlock`/`TimedOut` under socket read timeouts) from a dead one.
pub fn io_err(e: std::io::Error) -> PqrError {
    PqrError::CorruptStream(format!("io: {e} (kind {:?})", e.kind()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frame_roundtrip_over_a_buffer() {
        let mut buf = Vec::new();
        let wrote = write_frame(&mut buf, 7, b"hello frame").unwrap();
        assert_eq!(wrote, HEADER_LEN + 11);
        let mut cur = std::io::Cursor::new(buf);
        let (kind, body, read) = read_frame(&mut cur).unwrap();
        assert_eq!(kind, 7);
        assert_eq!(body, b"hello frame");
        assert_eq!(read, wrote);
    }

    #[test]
    fn empty_body_frames_are_legal() {
        let mut buf = Vec::new();
        write_frame(&mut buf, 4, b"").unwrap();
        let (kind, body, _) = read_frame(&mut std::io::Cursor::new(buf)).unwrap();
        assert_eq!(kind, 4);
        assert!(body.is_empty());
    }

    #[test]
    fn bad_magic_is_rejected_before_body_read() {
        let mut buf = encode_header(1, 4).to_vec();
        buf[..4].copy_from_slice(b"NOPE");
        buf.extend_from_slice(&[0; 4]);
        assert!(read_frame(&mut std::io::Cursor::new(buf)).is_err());
    }

    #[test]
    fn oversized_length_prefix_fails_without_allocating() {
        let mut h = encode_header(1, 0);
        h[8..12].copy_from_slice(&u32::MAX.to_le_bytes());
        let err = decode_header(&h).unwrap_err();
        assert!(matches!(err, PqrError::CorruptStream(_)));
    }

    #[test]
    fn wrong_version_is_rejected() {
        let mut h = encode_header(1, 0);
        h[4..6].copy_from_slice(&999u16.to_le_bytes());
        assert!(decode_header(&h).is_err());
    }

    #[test]
    fn truncated_body_is_an_error() {
        let mut buf = Vec::new();
        write_frame(&mut buf, 2, b"abcdef").unwrap();
        buf.truncate(buf.len() - 3);
        assert!(read_frame(&mut std::io::Cursor::new(buf)).is_err());
    }
}
