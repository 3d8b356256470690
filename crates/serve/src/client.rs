//! A minimal blocking client for the serve protocol, used by the CLI's
//! client mode and the differential tests.
//!
//! Failure handling is layered: socket read/write timeouts turn a hung
//! peer into a typed transient error ([`ClientError::is_transient`]),
//! and [`retrying_roundtrip`] reconnects with capped deterministic
//! backoff across transient errors and `busy`/`draining` backpressure —
//! so a retry that straddles a server restart still lands, and serves
//! the identical bytes for the same store and options.

use crate::frame::{read_frame, write_frame, FrameError};
use crate::proto::{decode_response, encode_request, Request, Response};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::os::unix::net::UnixStream;
use std::time::Duration;

/// Why a client call failed.
#[derive(Debug)]
pub enum ClientError {
    /// Could not connect or the transport failed mid-call.
    Io(std::io::Error),
    /// The response frame was torn, oversize, or failed its checksum.
    Frame(FrameError),
    /// The payload was not a valid request or response.
    Proto(String),
    /// The server closed the connection instead of answering.
    Closed,
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "client I/O: {e}"),
            ClientError::Frame(e) => write!(f, "client framing: {e}"),
            ClientError::Proto(e) => write!(f, "client protocol: {e}"),
            ClientError::Closed => write!(f, "server closed the connection"),
        }
    }
}

impl std::error::Error for ClientError {}

impl ClientError {
    /// Whether retrying this failure against the same address can
    /// plausibly succeed: the server restarting (refused/reset/broken
    /// pipe, a Unix socket path briefly gone, the connection dropped
    /// mid-answer, a torn frame) or a socket timeout. Protocol and
    /// checksum errors are permanent — the peer is speaking garbage and
    /// retrying would re-read the same garbage.
    pub fn is_transient(&self) -> bool {
        match self {
            ClientError::Io(e) => io_transient(e),
            ClientError::Frame(FrameError::Io(e)) => io_transient(e),
            ClientError::Frame(FrameError::Torn { .. }) => true,
            ClientError::Frame(_) => false,
            ClientError::Proto(_) => false,
            ClientError::Closed => true,
        }
    }
}

fn io_transient(e: &std::io::Error) -> bool {
    use std::io::ErrorKind;
    matches!(
        e.kind(),
        ErrorKind::ConnectionRefused
            | ErrorKind::ConnectionReset
            | ErrorKind::ConnectionAborted
            | ErrorKind::BrokenPipe
            // A Unix socket path vanishes between unlink and rebind
            // while the server restarts.
            | ErrorKind::NotFound
            | ErrorKind::TimedOut
            | ErrorKind::WouldBlock
            | ErrorKind::Interrupted
    ) || schevo_core::transient_io(e)
}

impl From<std::io::Error> for ClientError {
    fn from(e: std::io::Error) -> ClientError {
        ClientError::Io(e)
    }
}

impl From<FrameError> for ClientError {
    fn from(e: FrameError) -> ClientError {
        ClientError::Frame(e)
    }
}

#[derive(Debug)]
enum Stream {
    Tcp(TcpStream),
    Unix(UnixStream),
}

impl Read for Stream {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        match self {
            Stream::Tcp(s) => s.read(buf),
            Stream::Unix(s) => s.read(buf),
        }
    }
}

impl Write for Stream {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        match self {
            Stream::Tcp(s) => s.write(buf),
            Stream::Unix(s) => s.write(buf),
        }
    }

    fn flush(&mut self) -> std::io::Result<()> {
        match self {
            Stream::Tcp(s) => s.flush(),
            Stream::Unix(s) => s.flush(),
        }
    }
}

/// One connection to a serve daemon; requests pipeline in order.
#[derive(Debug)]
pub struct Conn {
    stream: Stream,
}

/// Connect to `addr`: `unix:/path/to.sock` for a Unix socket, anything
/// else is a TCP address like `127.0.0.1:4000`.
pub fn connect(addr: &str) -> Result<Conn, ClientError> {
    connect_timeout(addr, None)
}

/// [`connect`] with a socket read/write timeout: a peer that accepts
/// the connection but never answers (or stalls mid-frame) surfaces as a
/// typed transient `TimedOut`/`WouldBlock` error instead of hanging the
/// client forever. `None` keeps the sockets fully blocking.
pub fn connect_timeout(addr: &str, timeout: Option<Duration>) -> Result<Conn, ClientError> {
    let stream = match addr.strip_prefix("unix:") {
        Some(path) => {
            let s = UnixStream::connect(path)?;
            s.set_read_timeout(timeout)?;
            s.set_write_timeout(timeout)?;
            Stream::Unix(s)
        }
        None => {
            let s = TcpStream::connect(addr)?;
            // Requests are single small frames; never hold one back.
            s.set_nodelay(true)?;
            s.set_read_timeout(timeout)?;
            s.set_write_timeout(timeout)?;
            Stream::Tcp(s)
        }
    };
    Ok(Conn { stream })
}

impl Conn {
    /// Send one request and block for its response.
    pub fn roundtrip(&mut self, request: &Request) -> Result<Response, ClientError> {
        let payload = encode_request(request).map_err(ClientError::Proto)?;
        write_frame(&mut self.stream, &payload)?;
        let Some(reply) = read_frame(&mut self.stream)? else {
            return Err(ClientError::Closed);
        };
        decode_response(&reply).map_err(ClientError::Proto)
    }
}

/// How [`retrying_roundtrip`] paces itself: `attempts` tries total,
/// deterministic exponential backoff `base · 2^n` capped at `cap`
/// between them (no jitter — retry timing is reproducible), and an
/// optional per-socket read/write `timeout`.
#[derive(Debug, Clone)]
pub struct RetrySpec {
    /// Total connection attempts (min 1).
    pub attempts: u32,
    /// Backoff before the second attempt; doubles each retry.
    pub base: Duration,
    /// Upper bound on a single backoff sleep.
    pub cap: Duration,
    /// Socket read/write timeout per attempt (`None` = blocking).
    pub timeout: Option<Duration>,
}

impl Default for RetrySpec {
    fn default() -> RetrySpec {
        RetrySpec {
            attempts: 8,
            base: Duration::from_millis(50),
            cap: Duration::from_secs(2),
            timeout: Some(Duration::from_secs(30)),
        }
    }
}

impl RetrySpec {
    /// The backoff sleep after failed attempt `n` (0-based):
    /// `min(base · 2^n, cap)`.
    pub fn delay(&self, n: u32) -> Duration {
        self.base.saturating_mul(1u32 << n.min(16)).min(self.cap)
    }
}

/// Send `request`, reconnecting and retrying with capped backoff across
/// transient transport errors and `busy`/`draining` backpressure.
///
/// Each attempt opens a fresh connection, so a retry sequence that
/// straddles a server restart succeeds once the new server binds — and,
/// because a served study is deterministic over the store, it returns
/// the identical bytes the pre-restart server would have. Permanent
/// errors (protocol garbage, checksum mismatch) surface immediately.
/// If every attempt was turned away with backpressure, the last
/// `busy`/`draining` response is returned so the caller sees the typed
/// status rather than a synthetic error.
pub fn retrying_roundtrip(
    addr: &str,
    request: &Request,
    spec: &RetrySpec,
) -> Result<Response, ClientError> {
    let attempts = spec.attempts.max(1);
    let mut last_error: Option<ClientError> = None;
    let mut last_backpressure: Option<Response> = None;
    for attempt in 0..attempts {
        if attempt > 0 {
            std::thread::sleep(spec.delay(attempt - 1));
        }
        let outcome = connect_timeout(addr, spec.timeout)
            .and_then(|mut conn| conn.roundtrip(request));
        match outcome {
            Ok(resp) if resp.status == "busy" || resp.status == "draining" => {
                last_backpressure = Some(resp);
            }
            Ok(resp) => return Ok(resp),
            Err(e) if e.is_transient() => last_error = Some(e),
            Err(e) => return Err(e),
        }
    }
    match last_backpressure {
        Some(resp) => Ok(resp),
        None => Err(last_error.unwrap_or(ClientError::Closed)),
    }
}
