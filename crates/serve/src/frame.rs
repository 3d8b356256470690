//! Wire framing for the serve protocol: every request and response is
//! one [`schevo_vcs::frame`] frame, the format the mining journal and
//! the shard store use on disk.
//!
//! Reads fail closed: a frame whose length is implausible or whose
//! checksum does not verify leaves no trustworthy next-frame boundary,
//! so the caller must drop the connection. A clean EOF exactly at a
//! frame boundary is not an error ([`read_frame`] returns `Ok(None)`).

use schevo_core::failpoint;
use schevo_vcs::frame;
use std::io::{Read, Write};

pub use schevo_vcs::frame::{frame_len, FrameError};

/// Write one framed payload and flush the transport.
///
/// Header and payload leave in one write: with a separate header write,
/// a TCP peer's delayed ACK held the payload back behind Nagle's
/// algorithm on every request.
pub fn write_frame<W: Write + ?Sized>(w: &mut W, payload: &[u8]) -> Result<(), FrameError> {
    let header = frame::header(payload)?;
    let mut bytes = Vec::with_capacity(header.len() + payload.len());
    bytes.extend_from_slice(&header);
    bytes.extend_from_slice(payload);
    // The failpoint fires before any bytes hit the transport, so an
    // absorbed transient fault cannot interleave a torn frame. Real
    // mid-write socket errors are not retried here — the peer's read
    // side has no way to resynchronize a half-sent frame.
    failpoint::retry_io(failpoint::RetryPolicy::default(), || {
        failpoint::check("serve.write")
    })?;
    w.write_all(&bytes)?;
    w.flush()?;
    Ok(())
}

/// Read the next verified payload, or `Ok(None)` on clean EOF at a
/// frame boundary.
pub fn read_frame<R: Read + ?Sized>(r: &mut R) -> Result<Option<Vec<u8>>, FrameError> {
    failpoint::retry_io(failpoint::RetryPolicy::default(), || {
        failpoint::check("serve.read")
    })?;
    let mut payload = Vec::new();
    Ok(frame::read_into(r, &mut payload)?.then_some(payload))
}
