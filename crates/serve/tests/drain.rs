//! Drain-safe serving: a draining server turns `study` requests away
//! with a typed response while results, metrics, and status stay
//! queryable; the accept loop exits once idle and flushes metrics; and
//! a client retrying with capped backoff straddles a restart and still
//! receives the identical study bytes.

use schevo_corpus::store::generate_into_store;
use schevo_corpus::universe::UniverseConfig;
use schevo_serve::proto::Request;
use schevo_serve::{connect_timeout, retrying_roundtrip, Listener, RetrySpec, Server, ServerConfig};
use std::net::TcpListener;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

fn fresh_store(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("schevo_drain_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    generate_into_store(UniverseConfig::small(7, 40), &dir, 2).expect("tiny store");
    dir
}

fn request(op: &str, id: Option<&str>) -> Request {
    Request {
        id: id.map(str::to_string),
        op: op.to_string(),
        ..Request::default()
    }
}

#[test]
fn draining_turns_studies_away_but_keeps_queries_alive() {
    let store = fresh_store("dispatch");
    let server = Server::new(ServerConfig::new(store)).expect("server opens");

    // A study served before the drain stays queryable by id afterwards.
    let (done, _) = server.dispatch(request("study", Some("before-drain")));
    assert_eq!(done.status, "ok");

    server.begin_drain();
    assert!(server.is_draining());

    let (turned_away, admitted) = server.dispatch(request("study", Some("during-drain")));
    assert_eq!(turned_away.status, "draining");
    assert!(admitted.is_none(), "a turned-away study holds no slot");
    assert!(turned_away.study_json.is_none(), "the study did not run");

    let (status, _) = server.dispatch(request("status", None));
    assert_eq!(status.status, "ok");
    let (metrics, _) = server.dispatch(request("metrics", None));
    assert_eq!(metrics.status, "ok");
    let (result, _) = server.dispatch(request("result", Some("before-drain")));
    assert_eq!(result.status, "ok");
    assert_eq!(result.study_json, done.study_json);
}

#[test]
fn serve_exits_on_drain_and_flushes_metrics() {
    let store = fresh_store("exit");
    let metrics_out = store.join("final_metrics.prom");
    let mut config = ServerConfig::new(store.clone());
    config.metrics_out = Some(metrics_out.clone());
    let server = Arc::new(Server::new(config).expect("server opens"));

    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr").to_string();
    let serving = {
        let server = Arc::clone(&server);
        std::thread::spawn(move || server.serve(Listener::Tcp(listener)))
    };

    // The server answers normally, then drains.
    let mut conn =
        connect_timeout(&addr, Some(Duration::from_secs(5))).expect("connect while serving");
    let status = conn.roundtrip(&request("status", None)).expect("status");
    assert_eq!(status.status, "ok");

    server.begin_drain();
    let start = Instant::now();
    serving
        .join()
        .expect("serve thread joins")
        .expect("serve exits cleanly");
    assert!(
        start.elapsed() < Duration::from_secs(2),
        "an idle drain exits promptly, not at the deadline"
    );

    let flushed = std::fs::read_to_string(&metrics_out).expect("metrics flushed on exit");
    assert!(
        flushed.contains("serve_requests"),
        "flushed snapshot holds serve counters: {flushed}"
    );
}

#[test]
fn retry_through_restart_returns_identical_bytes() {
    let store = fresh_store("restart");

    // First server: serve one study, then drain away.
    let server_a = Arc::new(Server::new(ServerConfig::new(store.clone())).expect("server a"));
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr").to_string();
    let serving_a = {
        let server = Arc::clone(&server_a);
        std::thread::spawn(move || server.serve(Listener::Tcp(listener)))
    };

    let spec = RetrySpec {
        attempts: 40,
        base: Duration::from_millis(10),
        cap: Duration::from_millis(100),
        timeout: Some(Duration::from_secs(10)),
    };
    let first = retrying_roundtrip(&addr, &request("study", Some("r1")), &spec).expect("study");
    assert_eq!(first.status, "ok");

    server_a.begin_drain();
    serving_a.join().expect("join").expect("clean exit");

    // While the address refuses connections, start the retry — then
    // bring up a fresh server on the same address mid-backoff.
    let handle = {
        let addr = addr.clone();
        let spec = spec.clone();
        std::thread::spawn(move || retrying_roundtrip(&addr, &request("study", Some("r1")), &spec))
    };
    std::thread::sleep(Duration::from_millis(50));
    let server_b = Arc::new(Server::new(ServerConfig::new(store)).expect("server b"));
    let listener = TcpListener::bind(&addr).expect("rebind same address");
    let serving_b = {
        let server = Arc::clone(&server_b);
        std::thread::spawn(move || server.serve(Listener::Tcp(listener)))
    };

    let second = handle
        .join()
        .expect("client thread joins")
        .expect("retry lands on the restarted server");
    assert_eq!(second.status, "ok");
    assert_eq!(
        second.study_json, first.study_json,
        "the restarted server serves byte-identical study results"
    );
    assert_eq!(second.manifest_json.is_some(), first.manifest_json.is_some());

    server_b.begin_drain();
    serving_b.join().expect("join").expect("clean exit");
}

#[test]
fn a_stalled_server_surfaces_as_a_typed_transient_timeout() {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr").to_string();
    // Accept and hold the connection without ever answering.
    let hold = std::thread::spawn(move || {
        let (stream, _) = listener.accept().expect("accept");
        std::thread::sleep(Duration::from_secs(3));
        drop(stream);
    });

    let mut conn =
        connect_timeout(&addr, Some(Duration::from_millis(100))).expect("connect succeeds");
    let err = conn
        .roundtrip(&request("status", None))
        .expect_err("a stalled read must time out");
    assert!(err.is_transient(), "socket timeout is transient: {err}");

    hold.join().expect("holder joins");
}
