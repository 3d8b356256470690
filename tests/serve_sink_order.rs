//! The post-response order of a served study, pinned exactly: the
//! response frame leaves first, and only then are the request's sinks
//! written (the per-request trace, the slow-log entry and the
//! request-log line), all while the study still holds its admission
//! slot. The stream below looks at the server at the moment the
//! response frame is written to it.

use schevo::corpus::store::generate_into_store;
use schevo::corpus::universe::UniverseConfig;
use schevo::serve::frame::{read_frame, write_frame};
use schevo::serve::proto::{decode_response, encode_request, Request};
use schevo::serve::{Server, ServerConfig};
use serde_json::Value;
use std::io::{Cursor, Read, Write};
use std::path::{Path, PathBuf};

/// What the stream saw while the response frame was being written.
#[derive(Debug, PartialEq)]
struct AtWrite {
    trace_exists: bool,
    slow_lines: usize,
    log_lines: usize,
    inflight: Option<u64>,
}

/// In-memory duplex that, on the first write (the response frame),
/// records the state of the server's sinks and asks it for `status`.
struct WatchingStream<'a> {
    server: &'a Server,
    input: Cursor<Vec<u8>>,
    output: Vec<u8>,
    trace: PathBuf,
    slow_log: PathBuf,
    request_log: PathBuf,
    at_write: Option<AtWrite>,
}

fn lines(path: &Path) -> usize {
    std::fs::read_to_string(path).map_or(0, |t| t.lines().count())
}

impl Read for WatchingStream<'_> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        self.input.read(buf)
    }
}

impl Write for WatchingStream<'_> {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        if self.at_write.is_none() {
            let (status, _) = self.server.dispatch(Request {
                op: "status".to_string(),
                ..Request::default()
            });
            self.at_write = Some(AtWrite {
                trace_exists: self.trace.exists(),
                slow_lines: lines(&self.slow_log),
                log_lines: lines(&self.request_log),
                inflight: status.inflight,
            });
        }
        self.output.write(buf)
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

#[test]
fn sinks_are_written_after_the_frame_while_the_slot_is_held() {
    let dir = std::env::temp_dir().join(format!("schevo_sink_order_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    generate_into_store(UniverseConfig::small(7, 40), &dir, 2).expect("tiny store");
    let request_log = dir.join("requests.jsonl");
    let trace_dir = dir.join("traces");
    let slow_log = dir.join("slow.jsonl");
    let mut config = ServerConfig::new(dir.clone());
    config.request_log = Some(request_log.clone());
    config.trace_dir = Some(trace_dir.clone());
    // Threshold 0: every served study is slow.
    config.slow_ms = Some(0);
    config.slow_log = Some(slow_log.clone());
    let server = Server::new(config).expect("server opens");

    let mut input = Vec::new();
    let payload = encode_request(&Request {
        id: Some("order-1".to_string()),
        op: "study".to_string(),
        ..Request::default()
    })
    .expect("encode");
    write_frame(&mut input, &payload).expect("frame");
    let mut stream = WatchingStream {
        server: &server,
        input: Cursor::new(input),
        output: Vec::new(),
        trace: trace_dir.join("order-1.trace.jsonl"),
        slow_log: slow_log.clone(),
        request_log: request_log.clone(),
        at_write: None,
    };
    assert!(!server.serve_stream(&mut stream), "no shutdown was requested");

    // When the frame was written, no sink had been written yet, and the
    // study was still in flight.
    assert_eq!(
        stream.at_write,
        Some(AtWrite {
            trace_exists: false,
            slow_lines: 0,
            log_lines: 0,
            inflight: Some(1),
        })
    );

    // After the call, every sink holds the study, and its slot is free.
    let mut out = Cursor::new(stream.output);
    let frame = read_frame(&mut out).expect("response frame").expect("present");
    let response = decode_response(&frame).expect("response decodes");
    assert_eq!(response.status, "ok");
    let manifest: Value =
        serde_json::from_str(response.manifest_json.as_deref().expect("manifest")).expect("json");
    let manifest_stages: Vec<(String, u64)> = manifest
        .get("stages")
        .and_then(Value::as_seq)
        .expect("manifest stages")
        .iter()
        .map(|s| {
            let name = s.get("name").and_then(Value::as_str).expect("stage name");
            let wall = s.get("wall_us").and_then(Value::as_u64).expect("stage wall");
            (name.to_string(), wall)
        })
        .collect();
    assert!(!manifest_stages.is_empty());

    let log = std::fs::read_to_string(&request_log).expect("request log");
    assert_eq!(log.lines().count(), 1, "{log}");
    let line: Value = serde_json::from_str(log.lines().next().expect("line")).expect("json");
    assert_eq!(line.get("id").and_then(Value::as_str), Some("order-1"));
    assert_eq!(line.get("status").and_then(Value::as_str), Some("ok"));
    let logged_stages: Vec<(String, u64)> = line
        .get("stages")
        .and_then(Value::as_seq)
        .expect("logged stages")
        .iter()
        .map(|pair| {
            let pair = pair.as_seq().expect("pair");
            (
                pair[0].as_str().expect("name").to_string(),
                pair[1].as_u64().expect("wall"),
            )
        })
        .collect();
    assert_eq!(logged_stages, manifest_stages, "the request log carries the manifest's stages");

    let trace = std::fs::read_to_string(trace_dir.join("order-1.trace.jsonl")).expect("trace");
    schevo::obs::validate::validate_trace_jsonl(&trace).expect("trace validates");
    let slow = std::fs::read_to_string(&slow_log).expect("slow log");
    assert_eq!(slow.lines().count(), 1, "{slow}");
    assert!(slow.contains("\"id\":\"order-1\""), "{slow}");

    let (status, _) = server.dispatch(Request {
        op: "status".to_string(),
        ..Request::default()
    });
    assert_eq!(status.inflight, Some(0), "the slot is released after the sinks");
    let _ = std::fs::remove_dir_all(&dir);
}
