//! # schevo-serve
//!
//! A long-lived study server: one warm [`MiningEngine`] configuration
//! over one open shard store, answering concurrent study requests on a
//! Unix or TCP socket with the same length-prefixed, SHA-1-checksummed
//! framing the journal and store use on disk.
//!
//! The server exists because re-mining a corpus for every study is the
//! dominant cost of interactive use. It keeps every mined outcome
//! resident across requests, keyed by the journal's candidate key (a
//! digest of all the outcome depends on, so reuse cannot change
//! results), replays untouched histories from the mining journal when a
//! corpus has been appended to, and degrades explicitly under load: a
//! bounded number of studies run in flight, everything beyond the bound
//! gets an immediate `busy` response.
//!
//! ```no_run
//! use schevo_serve::proto::Request;
//! # fn main() -> Result<(), schevo_serve::ClientError> {
//! let mut conn = schevo_serve::client::connect("127.0.0.1:4000")?;
//! let req = Request { op: "study".into(), ..Request::default() };
//! let resp = conn.roundtrip(&req)?;
//! assert_eq!(resp.status, "ok");
//! # Ok(())
//! # }
//! ```
//!
//! [`MiningEngine`]: schevo_pipeline::MiningEngine

#![warn(missing_docs)]
#![deny(clippy::undocumented_unsafe_blocks)]

pub mod client;
pub mod frame;
pub mod proto;
pub mod server;

pub use client::{connect, connect_timeout, retrying_roundtrip, ClientError, Conn, RetrySpec};
pub use frame::{read_frame, write_frame, FrameError};
pub use proto::{Request, Response};
pub use server::{install_drain_signals, Admitted, Listener, Server, ServerConfig};
