//! The one frame codec: how the mining journal, the shard store,
//! `schevo scrub` and the serve wire protocol delimit and checksum their
//! records.
//!
//! ```text
//! u32 payload_len (LE) | 20-byte SHA-1(payload) | payload
//! ```
//!
//! A payload is 1 to [`MAX_PAYLOAD`] bytes. Decoding fails closed: a
//! frame whose length is zero or over the cap, whose bytes run out, or
//! whose payload does not match its checksum is an error, and the caller
//! decides what that costs it (a journal stops replay, a shard cursor
//! dies, scrub resyncs, a connection drops). A clean end of input exactly
//! at a frame boundary is not an error ([`read_into`] returns
//! `Ok(false)`).
//!
//! The codec holds no failpoints: each caller keeps its own named checks
//! around the I/O it does.

use crate::sha1::sha1;
use std::io::Read;

/// Frame header size: u32 length + 20-byte SHA-1.
pub const HEADER_LEN: usize = 24;

/// Upper bound on one frame's payload. The largest paper-scale record or
/// study JSON is about three orders of magnitude smaller; anything bigger
/// is corruption or abuse, and rejecting it up front bounds the
/// allocation a hostile length field can force.
pub const MAX_PAYLOAD: usize = 1 << 26;

/// Why a frame could not be encoded, read or decoded.
#[derive(Debug)]
pub enum FrameError {
    /// Underlying transport failure.
    Io(std::io::Error),
    /// The input ended mid-frame.
    Torn {
        /// Bytes present of the torn segment (header or payload).
        got: usize,
        /// Bytes the segment needed.
        want: usize,
    },
    /// The length is zero or exceeds [`MAX_PAYLOAD`].
    BadLength(u64),
    /// The payload does not match its SHA-1 checksum.
    Checksum,
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::Io(e) => write!(f, "frame I/O: {e}"),
            FrameError::Torn { got, want } => write!(f, "truncated frame: {got} of {want} bytes"),
            FrameError::BadLength(len) => write!(f, "implausible frame length {len}"),
            FrameError::Checksum => write!(f, "frame checksum mismatch"),
        }
    }
}

impl std::error::Error for FrameError {}

impl From<std::io::Error> for FrameError {
    fn from(e: std::io::Error) -> FrameError {
        FrameError::Io(e)
    }
}

/// Total bytes one framed payload occupies: header plus payload.
pub fn frame_len(payload_len: usize) -> usize {
    HEADER_LEN + payload_len
}

/// The header that frames `payload`. Write it, then the payload.
pub fn header(payload: &[u8]) -> Result<[u8; HEADER_LEN], FrameError> {
    if payload.is_empty() || payload.len() > MAX_PAYLOAD {
        return Err(FrameError::BadLength(payload.len() as u64));
    }
    let mut head = [0u8; HEADER_LEN];
    head[..4].copy_from_slice(&(payload.len() as u32).to_le_bytes());
    head[4..].copy_from_slice(&sha1(payload).0);
    Ok(head)
}

/// The payload length a header announces, checked against the cap.
fn payload_len(head: &[u8; HEADER_LEN]) -> Result<usize, FrameError> {
    let len = u32::from_le_bytes([head[0], head[1], head[2], head[3]]) as usize;
    if len == 0 || len > MAX_PAYLOAD {
        return Err(FrameError::BadLength(len as u64));
    }
    Ok(len)
}

fn verify(head: &[u8; HEADER_LEN], payload: &[u8]) -> Result<(), FrameError> {
    if sha1(payload).0[..] != head[4..] {
        return Err(FrameError::Checksum);
    }
    Ok(())
}

/// Decode the frame at the start of `bytes` and return its verified
/// payload, which spans `bytes[HEADER_LEN..frame_len(payload.len())]`.
/// Bytes past the frame are ignored.
pub fn decode(bytes: &[u8]) -> Result<&[u8], FrameError> {
    let head: &[u8; HEADER_LEN] = bytes
        .get(..HEADER_LEN)
        .and_then(|h| h.try_into().ok())
        .ok_or(FrameError::Torn {
            got: bytes.len(),
            want: HEADER_LEN,
        })?;
    let len = payload_len(head)?;
    let payload = bytes
        .get(HEADER_LEN..frame_len(len))
        .ok_or(FrameError::Torn {
            got: bytes.len() - HEADER_LEN,
            want: len,
        })?;
    verify(head, payload)?;
    Ok(payload)
}

/// Read the next frame from `r` into `buf`, replacing its contents with
/// the verified payload. `buf` keeps its allocation across calls, so a
/// reader that reuses it allocates once per largest frame, not per frame.
///
/// Returns `Ok(false)` on a clean EOF before the first header byte. The
/// length is checked before `buf` grows, so a hostile length field cannot
/// force an allocation.
pub fn read_into<R: Read + ?Sized>(r: &mut R, buf: &mut Vec<u8>) -> Result<bool, FrameError> {
    let mut head = [0u8; HEADER_LEN];
    match fill(r, &mut head)? {
        0 => return Ok(false),
        HEADER_LEN => {}
        got => {
            return Err(FrameError::Torn {
                got,
                want: HEADER_LEN,
            })
        }
    }
    let len = payload_len(&head)?;
    buf.resize(len, 0);
    let got = fill(r, buf)?;
    if got < len {
        return Err(FrameError::Torn { got, want: len });
    }
    verify(&head, buf)?;
    Ok(true)
}

/// Read until `buf` is full or the input ends; returns the bytes read.
fn fill<R: Read + ?Sized>(r: &mut R, buf: &mut [u8]) -> Result<usize, FrameError> {
    let mut filled = 0usize;
    while filled < buf.len() {
        match r.read(&mut buf[filled..]) {
            Ok(0) => break,
            Ok(n) => filled += n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(FrameError::Io(e)),
        }
    }
    Ok(filled)
}
