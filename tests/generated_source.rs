//! The streamed corpus source (`GeneratedSource`): the corpus generated
//! on a producer thread while the caller mines it.
//!
//! - It yields the resident universe's candidates, field by field, the
//!   same funnel report, and the corpus digest of `corpus_digest` (and
//!   the `tests/corpus_pins.rs` pin).
//! - Dropping a stream early, even after its last candidate, stops the
//!   generator and ends the producer thread; the drop returns instead of
//!   hanging.
//! - `schevo study` without `--store-dir` streams, and its manifest
//!   carries the same `corpus_digest` as a store-backed run.

use schevo::obs::manifest::RunManifest;
use schevo::pipeline::{
    CandidateHistory, CandidateSource, GeneratedSource, SourceEvent, SourceSummary,
};
use schevo::prelude::*;
use schevo::vcs::history::WalkStrategy;
use std::process::Command;
use std::sync::mpsc;
use std::time::Duration;

fn drain(source: &dyn CandidateSource) -> (Vec<CandidateHistory>, SourceSummary) {
    let mut stream = source.stream(WalkStrategy::FirstParent);
    let mut candidates = Vec::new();
    while let Some(event) = stream.next_event() {
        match event {
            SourceEvent::Candidate(c) => candidates.push(c),
            SourceEvent::Corrupt(e) => panic!("clean corpus yielded corruption: {e}"),
        }
    }
    (candidates, stream.finish())
}

#[test]
fn streamed_source_equals_the_resident_universe() {
    for (config, pin) in [
        (
            UniverseConfig::small(2019, 10),
            Some("97e63349faa5910f7b15f5c3e144b1d15d2a80dc"),
        ),
        (UniverseConfig::small(7, 20), None),
    ] {
        let universe = generate(config);
        let (resident, resident_summary) = drain(&universe);
        let streamed_source = GeneratedSource::new(config);
        assert_eq!(
            streamed_source.size_hint(),
            Some(universe.expected.analyzed)
        );
        assert_eq!(streamed_source.produced(), None, "nothing streamed yet");
        let (streamed, streamed_summary) = drain(&streamed_source);

        assert_eq!(
            streamed_summary.funnel, resident_summary.funnel,
            "{config:?}"
        );
        assert_eq!(streamed.len(), resident.len(), "{config:?}");
        for (a, b) in resident.iter().zip(&streamed) {
            assert_eq!(a.name, b.name);
            assert_eq!(a.ddl_path, b.ddl_path, "{}", a.name);
            assert_eq!(a.pup_months, b.pup_months, "{}", a.name);
            assert_eq!(a.total_commits, b.total_commits, "{}", a.name);
            assert_eq!(a.versions.len(), b.versions.len(), "{}", a.name);
            for (va, vb) in a.versions.iter().zip(&b.versions) {
                assert_eq!(va.commit, vb.commit, "{}", a.name);
                assert_eq!(va.content, vb.content, "{}", a.name);
                assert_eq!(va.timestamp, vb.timestamp, "{}", a.name);
            }
        }
        let produced = streamed_source.produced().expect("drained stream reports");
        assert_eq!(
            produced.corpus_digest,
            corpus_digest(&universe),
            "{config:?}"
        );
        if let Some(pin) = pin {
            assert_eq!(produced.corpus_digest, pin);
        }
    }
}

#[test]
fn dropping_the_stream_early_stops_the_producer() {
    let config = UniverseConfig::small(2019, 10);
    let records = generate(config).expected.sql_collection;
    let (done_tx, done_rx) = mpsc::channel();
    // The drop runs on a helper thread so a hang fails the test instead
    // of stalling the suite.
    std::thread::spawn(move || {
        let source = GeneratedSource::new(config);
        let mut stream = source.stream(WalkStrategy::FirstParent);
        let first = stream.next_event();
        assert!(matches!(first, Some(SourceEvent::Candidate(_))));
        // `finish` closes the channel and joins the producer; its ledger
        // shows how far the generator got.
        let summary = stream.finish();
        let _ = done_tx.send((summary.funnel.sql_collection, source.produced()));
        // A plain drop after one candidate must return as well.
        let mut stream = source.stream(WalkStrategy::FirstParent);
        assert!(stream.next_event().is_some());
        drop(stream);
        let _ = done_tx.send((0, source.produced()));
    });
    let (assessed, produced) = done_rx
        .recv_timeout(Duration::from_secs(60))
        .expect("early finish returned");
    assert!(
        assessed < records / 10,
        "the generator stopped early: {assessed} of {records} records assessed"
    );
    assert_eq!(produced, None, "an early stop reports no digest");
    let (_, produced) = done_rx
        .recv_timeout(Duration::from_secs(60))
        .expect("early drop returned");
    assert_eq!(produced, None);
}

#[test]
fn finishing_after_the_last_candidate_stops_the_producer() {
    // Every survivor comes early in generation order; a stream finished
    // right after its last one must not generate the tail of light
    // records that follows.
    let config = UniverseConfig::small(2019, 10);
    let records = generate(config).expected.sql_collection;
    let (done_tx, done_rx) = mpsc::channel();
    std::thread::spawn(move || {
        let source = GeneratedSource::new(config);
        let survivors = source
            .size_hint()
            .expect("a generated source knows its size");
        let mut stream = source.stream(WalkStrategy::FirstParent);
        for _ in 0..survivors {
            assert!(matches!(
                stream.next_event(),
                Some(SourceEvent::Candidate(_))
            ));
        }
        let summary = stream.finish();
        let _ = done_tx.send((summary.funnel.sql_collection, source.produced()));
    });
    let (assessed, produced) = done_rx
        .recv_timeout(Duration::from_secs(60))
        .expect("finish after the last candidate returned");
    assert!(
        assessed < records,
        "the generator stopped early: {assessed} of {records} records assessed"
    );
    assert_eq!(produced, None, "an early stop reports no digest");
}

#[test]
fn cli_streamed_study_reports_the_store_digest() {
    let dir = std::env::temp_dir().join(format!("schevo_generated_source_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch dir");
    let run = |tag: &str, extra: &[&str]| -> RunManifest {
        let manifest = dir.join(format!("{tag}.json"));
        let out = Command::new(env!("CARGO_BIN_EXE_schevo"))
            .args(["study", "--seed", "2019", "--scale", "20", "--workers", "2"])
            .args(["--manifest-out", manifest.to_str().expect("utf8 path")])
            .args(extra)
            .output()
            .expect("binary runs");
        assert!(
            out.status.success(),
            "{}",
            String::from_utf8_lossy(&out.stderr)
        );
        RunManifest::from_json(&std::fs::read_to_string(&manifest).expect("manifest written"))
            .expect("manifest parses")
    };
    let streamed = run("streamed", &[]);
    let store_dir = dir.join("store");
    let stored = run(
        "stored",
        &["--store-dir", store_dir.to_str().expect("utf8 path")],
    );
    assert_eq!(streamed.corpus_digest.len(), 40);
    assert_eq!(streamed.corpus_digest, stored.corpus_digest);
    assert_eq!(
        streamed.corpus_digest,
        corpus_digest(&generate(UniverseConfig::small(2019, 20)))
    );
    let _ = std::fs::remove_dir_all(&dir);
}
