//! The request/response schema of the serve protocol: flat line-JSON
//! payloads inside checksummed frames (see [`crate::frame`]).
//!
//! Every field except `op`/`status` is optional, and unknown JSON keys
//! are ignored on decode, so the schema is forward-extensible: adding a
//! field never breaks an older peer. This shape is part of the stable
//! surface (see DESIGN.md).

use serde::{Deserialize, Serialize};

/// One client request.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct Request {
    /// Caller-chosen request id; the server generates `req-N` when
    /// absent. Results are queryable by id (`op: "result"`).
    pub id: Option<String>,
    /// What to do: `study`, `result`, `metrics`, `status`, `profile`,
    /// `shutdown`.
    pub op: String,
    /// `profile` op action: `start`, `stop`, or `status` (the default).
    pub profile: Option<String>,
    /// Mining worker threads (server default when absent).
    pub workers: Option<u64>,
    /// `Some(false)` mines every candidate afresh instead of reusing the
    /// server's resident outcomes; absent or `Some(true)` reuses them.
    pub cache: Option<bool>,
    /// Run this study durably against the server's journal, replaying
    /// already-mined histories and re-mining only new candidate keys.
    pub resume: Option<bool>,
    /// Per-request watchdog deadline in milliseconds. The study always
    /// completes; an overrun is reported in the response.
    pub deadline_ms: Option<u64>,
}

/// One server response.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct Response {
    /// The request id this answers (server-generated if the request had
    /// none).
    pub id: Option<String>,
    /// `ok`, `busy` (admission control rejected the study), or `error`.
    pub status: String,
    /// Human-readable failure description when `status` is `error`.
    pub error: Option<String>,
    /// The full study result JSON — byte-identical to the batch CLI's
    /// `study_results.json` for the same store and options.
    pub study_json: Option<String>,
    /// The per-request run manifest JSON.
    pub manifest_json: Option<String>,
    /// Prometheus exposition text (`op: "metrics"` only).
    pub metrics: Option<String>,
    /// Histories replayed from the journal instead of re-mined.
    pub replayed: Option<u64>,
    /// Histories mined fresh by this request.
    pub mined_fresh: Option<u64>,
    /// Stale journal records discarded (key no longer in the corpus).
    pub stale_discarded: Option<u64>,
    /// Histories quarantined by graceful degradation.
    pub quarantined: Option<u64>,
    /// How far the request overran its watchdog deadline, if it did.
    pub deadline_overrun_ms: Option<u64>,
    /// Studies currently in flight (`op: "status"`).
    pub inflight: Option<u64>,
    /// Studies served since startup (`op: "status"`).
    pub served: Option<u64>,
    /// Whether the sampling profiler is running (`op: "profile"`).
    pub profiling: Option<bool>,
    /// Collapsed-stack profile samples (`op: "profile"`, actions `stop`
    /// and `status`) — one `frame;frame count` line per distinct stack,
    /// ready for `flamegraph.pl` / speedscope.
    pub profile_stacks: Option<String>,
}

impl Response {
    /// An `ok` response carrying only the id.
    pub fn ok(id: Option<String>) -> Response {
        Response {
            id,
            status: "ok".to_string(),
            ..Response::default()
        }
    }

    /// The backpressure response: the server is at its in-flight limit
    /// and did not start the study. The client may retry later.
    pub fn busy(id: Option<String>) -> Response {
        Response {
            id,
            status: "busy".to_string(),
            ..Response::default()
        }
    }

    /// The drain response: the server is shutting down gracefully and
    /// no longer admits studies (existing results, metrics, and status
    /// stay queryable). The study was not started; a client should
    /// retry with backoff — the restarted server serves the identical
    /// bytes for the same store and options.
    pub fn draining(id: Option<String>) -> Response {
        Response {
            id,
            status: "draining".to_string(),
            ..Response::default()
        }
    }

    /// A typed error response.
    pub fn error(id: Option<String>, message: &str) -> Response {
        Response {
            id,
            status: "error".to_string(),
            error: Some(message.to_string()),
            ..Response::default()
        }
    }
}

/// Encode a request payload.
pub fn encode_request(req: &Request) -> Result<Vec<u8>, String> {
    serde_json::to_string(req)
        .map(String::into_bytes)
        .map_err(|e| format!("encode request: {e}"))
}

/// Decode a request payload.
pub fn decode_request(payload: &[u8]) -> Result<Request, String> {
    let text = std::str::from_utf8(payload).map_err(|e| format!("request not UTF-8: {e}"))?;
    serde_json::from_str(text).map_err(|e| format!("request not valid JSON: {e}"))
}

/// Encode a response payload.
pub fn encode_response(resp: &Response) -> Result<Vec<u8>, String> {
    serde_json::to_string(resp)
        .map(String::into_bytes)
        .map_err(|e| format!("encode response: {e}"))
}

/// Decode a response payload.
pub fn decode_response(payload: &[u8]) -> Result<Response, String> {
    let text = std::str::from_utf8(payload).map_err(|e| format!("response not UTF-8: {e}"))?;
    serde_json::from_str(text).map_err(|e| format!("response not valid JSON: {e}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_roundtrips() {
        let req = Request {
            id: Some("r1".to_string()),
            op: "study".to_string(),
            workers: Some(4),
            cache: Some(false),
            resume: Some(true),
            deadline_ms: Some(30_000),
            profile: None,
        };
        let bytes = encode_request(&req).expect("encode");
        assert_eq!(decode_request(&bytes).expect("decode"), req);
    }

    #[test]
    fn missing_optionals_default_to_none() {
        let req = decode_request(br#"{"op": "status"}"#).expect("decode");
        assert_eq!(req.op, "status");
        assert_eq!(req.id, None);
        assert_eq!(req.workers, None);
        assert_eq!(req.resume, None);
    }

    #[test]
    fn garbage_is_a_typed_decode_error() {
        assert!(decode_request(b"not json at all").is_err());
        assert!(decode_request(&[0xFF, 0xFE, 0x00]).is_err());
    }

    #[test]
    fn response_roundtrips() {
        let resp = Response {
            id: Some("r1".to_string()),
            status: "ok".to_string(),
            replayed: Some(120),
            mined_fresh: Some(6),
            ..Response::default()
        };
        let bytes = encode_response(&resp).expect("encode");
        assert_eq!(decode_response(&bytes).expect("decode"), resp);
    }
}
