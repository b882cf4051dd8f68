//! The versioned record frame and the prefix-valid scanner.
//!
//! Every persisted file starts with an 8-byte header:
//!
//! ```text
//! [magic: 4 bytes][version: u32 LE]
//! ```
//!
//! where the magic names the file kind (WAL, checkpoint, spill segment,
//! directory header) so a misplaced file is rejected instead of
//! misparsed. After the header the file is a run of frames:
//!
//! ```text
//! [len: u32 LE][crc: u32 LE][payload: len bytes]
//! ```
//!
//! `crc` is CRC32-IEEE of the payload and `len` is its byte length,
//! capped at [`MAX_FRAME`]. The payload's leading 8 bytes are the
//! record's sequence number ([`Frame::seq`]); the rest is opaque to
//! this layer.
//!
//! [`scan`] implements the recovery contract: it returns every frame up
//! to — but not including — the first torn, truncated, or corrupt one,
//! and reports *why* it stopped. A crash can only damage the tail of an
//! append-only file, so the valid prefix is exactly the durable data.

use crate::crc::crc32;

/// Largest accepted payload (64 MiB). A length field above this is
/// treated as corruption, bounding allocations while scanning.
pub const MAX_FRAME: usize = 1 << 26;

/// Frame/file-format version stamped into every file header. Version
/// 4 drops a checkpoint stripe's per-market probe and revocation
/// indices. Version 3 encodes `u32`/`u64`/`usize` as canonical LEB128
/// varints ([`crate::codec`]), frames a spill segment as one chunked
/// section instead of a frame per record ([`crate::log`]), and lets a
/// checkpoint name the generation it *rotated to* as its replay floor;
/// version 2 made a key's epoch summary sparse. The frame envelope
/// itself has not changed since version 1. There is one decoder, so
/// files of any other version are refused by [`strip_header`].
pub const FORMAT_VERSION: u32 = 4;

/// Byte length of a file header (`magic ++ version`).
pub const HEADER_LEN: usize = 8;

/// Byte overhead of one frame on top of its payload (`len ++ crc`).
pub const FRAME_OVERHEAD: usize = 8;

/// File-kind magics. Distinct per kind so files cannot be confused.
pub mod magic {
    /// Directory header file.
    pub const DIR: [u8; 4] = *b"SLd1";
    /// Write-ahead log generation file.
    pub const WAL: [u8; 4] = *b"SLw1";
    /// Checkpoint file.
    pub const CHECKPOINT: [u8; 4] = *b"SLc1";
    /// Sealed spill segment.
    pub const SPILL: [u8; 4] = *b"SLs1";
    /// Clean-shutdown marker.
    pub const CLEAN: [u8; 4] = *b"SLk1";
}

/// A decoded frame: its sequence number and opaque body.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Frame {
    /// Monotone record sequence number (first 8 payload bytes).
    pub seq: u64,
    /// The payload after the sequence number.
    pub body: Vec<u8>,
}

/// Why a scan stopped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScanEnd {
    /// The file ended exactly on a frame boundary — nothing lost.
    Clean,
    /// The tail held fewer bytes than one frame header or its declared
    /// payload — a torn or truncated final write.
    Truncated,
    /// A frame's CRC did not match its payload.
    BadCrc,
    /// A frame declared a payload longer than [`MAX_FRAME`].
    OversizeLen,
    /// A frame's payload was too short to hold a sequence number.
    ShortPayload,
}

/// The outcome of scanning one file body.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScanResult {
    /// Every frame in the valid prefix, in file order.
    pub frames: Vec<Frame>,
    /// Why scanning stopped.
    pub end: ScanEnd,
    /// Byte offset (within the scanned body) where the valid prefix
    /// ends — the start of the first damaged frame, if any.
    pub valid_len: usize,
}

/// Appends the 8-byte file header for `kind` to `out`.
pub fn write_header(out: &mut Vec<u8>, kind: [u8; 4]) {
    out.extend_from_slice(&kind);
    out.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
}

/// Checks a file starts with the header for `kind` and returns the
/// body after it.
///
/// # Errors
///
/// Returns a static description when the file is too short, carries a
/// different magic, or any format version but [`FORMAT_VERSION`].
pub fn strip_header(bytes: &[u8], kind: [u8; 4]) -> Result<&[u8], &'static str> {
    if bytes.len() < HEADER_LEN {
        return Err("file shorter than header");
    }
    if bytes[..4] != kind {
        return Err("file magic mismatch");
    }
    let version = u32::from_le_bytes(bytes[4..8].try_into().expect("sized slice"));
    if version != FORMAT_VERSION {
        return Err("unsupported format version");
    }
    Ok(&bytes[HEADER_LEN..])
}

/// Appends one frame carrying `seq ++ body` to `out`.
pub fn write_frame(out: &mut Vec<u8>, seq: u64, body: &[u8]) {
    let payload_len = body.len() + 8;
    assert!(payload_len <= MAX_FRAME, "frame payload exceeds MAX_FRAME");
    out.extend_from_slice(&(payload_len as u32).to_le_bytes());
    // CRC backfilled once the payload is in place: this runs once per
    // appended record, so it must not allocate an intermediate payload.
    out.extend_from_slice(&[0u8; 4]);
    let payload_at = out.len();
    out.extend_from_slice(&seq.to_le_bytes());
    out.extend_from_slice(body);
    let crc = crc32(&out[payload_at..]).to_le_bytes();
    out[payload_at - 4..payload_at].copy_from_slice(&crc);
}

/// Scans a file body (header already stripped), returning its valid
/// frame prefix. Never fails: damage is reported via [`ScanResult::end`].
pub fn scan(body: &[u8]) -> ScanResult {
    let mut frames = Vec::new();
    let mut pos = 0usize;
    let end = loop {
        if pos == body.len() {
            break ScanEnd::Clean;
        }
        if body.len() - pos < FRAME_OVERHEAD {
            break ScanEnd::Truncated;
        }
        let len = u32::from_le_bytes(body[pos..pos + 4].try_into().expect("sized")) as usize;
        let crc = u32::from_le_bytes(body[pos + 4..pos + 8].try_into().expect("sized"));
        if len > MAX_FRAME {
            break ScanEnd::OversizeLen;
        }
        if body.len() - pos - FRAME_OVERHEAD < len {
            break ScanEnd::Truncated;
        }
        let payload = &body[pos + FRAME_OVERHEAD..pos + FRAME_OVERHEAD + len];
        if crc32(payload) != crc {
            break ScanEnd::BadCrc;
        }
        if payload.len() < 8 {
            break ScanEnd::ShortPayload;
        }
        let seq = u64::from_le_bytes(payload[..8].try_into().expect("sized"));
        frames.push(Frame {
            seq,
            body: payload[8..].to_vec(),
        });
        pos += FRAME_OVERHEAD + len;
    };
    ScanResult {
        frames,
        end,
        valid_len: pos,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn file_with(frames: &[(u64, &[u8])]) -> Vec<u8> {
        let mut out = Vec::new();
        write_header(&mut out, magic::WAL);
        for (seq, body) in frames {
            write_frame(&mut out, *seq, body);
        }
        out
    }

    #[test]
    fn clean_round_trip() {
        let file = file_with(&[(1, b"alpha"), (2, b""), (3, b"gamma")]);
        let body = strip_header(&file, magic::WAL).expect("header");
        let res = scan(body);
        assert_eq!(res.end, ScanEnd::Clean);
        assert_eq!(res.valid_len, body.len());
        assert_eq!(
            res.frames,
            vec![
                Frame {
                    seq: 1,
                    body: b"alpha".to_vec()
                },
                Frame {
                    seq: 2,
                    body: Vec::new()
                },
                Frame {
                    seq: 3,
                    body: b"gamma".to_vec()
                },
            ]
        );
    }

    #[test]
    fn header_is_checked() {
        let file = file_with(&[(1, b"x")]);
        assert!(strip_header(&file, magic::CHECKPOINT).is_err());
        assert!(strip_header(&file[..4], magic::WAL).is_err());
        let mut wrong_version = file.clone();
        wrong_version[4] = 0xFF;
        assert!(strip_header(&wrong_version, magic::WAL).is_err());
        // Version 1 stored epoch summaries dense, version 2 every
        // integer fixed-width and version 3 two per-market indices per
        // stripe; nothing decodes any of them.
        for old in [1u32, 2, 3] {
            let mut stale = file.clone();
            stale[4..8].copy_from_slice(&old.to_le_bytes());
            assert_eq!(
                strip_header(&stale, magic::WAL),
                Err("unsupported format version")
            );
        }
    }

    #[test]
    fn truncation_keeps_valid_prefix() {
        let file = file_with(&[(1, b"alpha"), (2, b"beta")]);
        let body = strip_header(&file, magic::WAL).expect("header");
        // Every proper prefix of the file recovers only whole frames.
        for cut in 0..body.len() {
            let res = scan(&body[..cut]);
            assert!(res.frames.len() <= 2);
            assert!(res.valid_len <= cut);
            if res.end == ScanEnd::Clean {
                assert_eq!(res.valid_len, cut);
            }
            for (i, frame) in res.frames.iter().enumerate() {
                assert_eq!(frame.seq, i as u64 + 1);
            }
        }
    }

    #[test]
    fn corruption_stops_the_scan() {
        let file = file_with(&[(1, b"alpha"), (2, b"beta"), (3, b"gamma")]);
        let body = strip_header(&file, magic::WAL).expect("header").to_vec();
        // Flip one byte inside the second frame's payload.
        let first_len = FRAME_OVERHEAD + 8 + 5;
        let mut damaged = body.clone();
        damaged[first_len + FRAME_OVERHEAD + 9] ^= 0x40;
        let res = scan(&damaged);
        assert_eq!(res.end, ScanEnd::BadCrc);
        assert_eq!(res.frames.len(), 1, "frames after the damage are dropped");
        assert_eq!(res.valid_len, first_len);
    }

    #[test]
    fn oversize_length_is_corruption() {
        let mut body = Vec::new();
        body.extend_from_slice(&(u32::MAX).to_le_bytes());
        body.extend_from_slice(&0u32.to_le_bytes());
        body.extend_from_slice(&[0; 32]);
        assert_eq!(scan(&body).end, ScanEnd::OversizeLen);
    }
}
