//! Property tests for the work-stealing miner: for *arbitrary* candidate
//! sets — valid histories, unparseable blobs, duplicated contents — and
//! arbitrary worker counts, with or without a warm outcome memo, a
//! [`MiningEngine`] pass over
//! a [`SliceSource`] mines every candidate, accounts for every recovery,
//! equals a plain serial fold of `mine_candidate`/`mine_extended` where
//! no version needed salvage, and is insensitive to its execution
//! configuration.

use proptest::prelude::*;
use schevo_core::errors::ErrorClass;
use schevo_core::heartbeat::REED_THRESHOLD;
use schevo_pipeline::extract::{mine_candidate, mine_extended};
use schevo_pipeline::funnel::CandidateHistory;
use schevo_pipeline::{MiningEngine, MiningOutput, SliceSource, StudyOptions, WarmCaches};
use schevo_vcs::history::FileVersion;
use schevo_vcs::sha1::sha1;
use schevo_vcs::timestamp::Timestamp;

/// A small pool of DDL blobs. Index 5 is deliberately unparseable
/// (unterminated string literal) so salvage is exercised, and
/// the pool is small so the same content recurs within and across
/// candidates.
fn blob(id: usize) -> &'static str {
    match id % 6 {
        0 => "CREATE TABLE a (x INT);",
        1 => "CREATE TABLE a (x INT, y INT);",
        2 => "CREATE TABLE a (x INT, y TEXT);\nCREATE TABLE b (z INT);",
        3 => "CREATE TABLE a (x BIGINT);\nCREATE TABLE b (z INT, w TEXT);",
        4 => "CREATE TABLE a (x INT, y INT, z INT);\nCREATE TABLE c (q INT);",
        _ => "CREATE TABLE t (a INT); '",
    }
}

fn candidate(idx: usize, blob_ids: Vec<usize>, pup_months: u64, total_commits: u64) -> CandidateHistory {
    let versions = blob_ids
        .iter()
        .enumerate()
        .map(|(i, &id)| {
            let content = blob(id).to_string();
            FileVersion {
                commit: sha1(format!("{idx}/{i}/{content}").as_bytes()),
                timestamp: Timestamp(i as i64 * 86_400 * 7),
                author: "dev".into(),
                message: format!("v{i}"),
                content: content.into(),
            }
        })
        .collect();
    CandidateHistory {
        name: format!("prop/p{idx}"),
        ddl_path: "schema.sql".into(),
        versions,
        pup_months,
        total_commits,
    }
}

fn candidates_strategy() -> impl Strategy<Value = Vec<CandidateHistory>> {
    prop::collection::vec(
        (
            prop::collection::vec(0usize..6, 1..6),
            1u64..40,
            1u64..300,
        ),
        0..12,
    )
    .prop_map(|specs| {
        specs
            .into_iter()
            .enumerate()
            .map(|(i, (ids, pup, commits))| candidate(i, ids, pup, commits))
            .collect()
    })
}

fn engine(workers: usize) -> MiningEngine {
    MiningEngine::new(StudyOptions {
        reed_threshold: Some(REED_THRESHOLD),
        workers,
        ..StudyOptions::default()
    })
}

fn mine(cands: &[CandidateHistory], workers: usize) -> MiningOutput {
    engine(workers)
        .mine(&SliceSource::new(cands))
        .expect("slice mining cannot fail without a journal")
}

/// The candidate with each run of byte-identical consecutive versions
/// collapsed to its first version.
fn dedupe(c: &CandidateHistory) -> CandidateHistory {
    let mut d = c.clone();
    d.versions.dedup_by(|later, kept| later.content == kept.content);
    d
}

/// The recoveries one candidate must report, as `(class, project,
/// version index)`: every dropped duplicate, then every salvaged
/// unparseable version, each at its index in the original history.
fn expected_recoveries(c: &CandidateHistory) -> Vec<(ErrorClass, String, Option<u64>)> {
    let mut duplicates = Vec::new();
    let mut salvaged = Vec::new();
    let mut kept: Option<&str> = None;
    for (i, v) in c.versions.iter().enumerate() {
        let at = Some(i as u64);
        if kept == Some(v.content.as_str()) {
            duplicates.push((ErrorClass::DuplicateVersion, c.name.clone(), at));
            continue;
        }
        kept = Some(&v.content);
        if v.content == blob(5) {
            salvaged.push((ErrorClass::Lex, c.name.clone(), at));
        }
    }
    duplicates.extend(salvaged);
    duplicates
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Every candidate is mined and none is quarantined; the recoveries
    /// are exactly the dropped duplicates plus the salvaged versions;
    /// and every candidate without a salvaged version equals the serial
    /// `mine_extended`/`mine_candidate` fold of its deduped history.
    #[test]
    fn engine_equals_serial_fold_on_deduped_candidates(
        cands in candidates_strategy(),
        workers in 1usize..9,
    ) {
        let out = mine(&cands, workers);
        prop_assert_eq!(out.mined.len(), cands.len());
        prop_assert!(out.quarantine.quarantined.is_empty());
        let recovered: Vec<_> = out
            .quarantine
            .recovered
            .iter()
            .map(|r| (r.error.class, r.error.project.clone(), r.error.version_index))
            .collect();
        let expected: Vec<_> = cands.iter().flat_map(expected_recoveries).collect();
        prop_assert_eq!(recovered, expected);
        for (c, m) in cands.iter().zip(&out.mined) {
            let d = dedupe(c);
            if d.versions.iter().any(|v| v.content == blob(5)) {
                continue;
            }
            let serial = mine_extended(&d, REED_THRESHOLD).expect("parseable history");
            prop_assert_eq!(m, &serial);
            prop_assert_eq!(Some(m.profile.clone()), mine_candidate(&d, REED_THRESHOLD));
        }
        prop_assert_eq!(out.exec.tasks, cands.len());
        prop_assert_eq!(out.exec.parse_hits, 0);
    }

    /// The mined records and the quarantine report are identical for
    /// every worker count, and for a second pass served from a warm
    /// memo the first pass filled: each equals the serial pass.
    #[test]
    fn engine_output_is_config_invariant(
        cands in candidates_strategy(),
        workers in 1usize..9,
        warm in any::<bool>(),
    ) {
        let baseline = mine(&cands, 1);
        let out = if warm {
            let memo = WarmCaches::new();
            let source = SliceSource::new(&cands);
            let fill = engine(workers).with_warm(&memo).mine(&source);
            fill.expect("slice mining cannot fail without a journal");
            let served = engine(workers).with_warm(&memo).mine(&source);
            served.expect("slice mining cannot fail without a journal")
        } else {
            mine(&cands, workers)
        };
        prop_assert_eq!(out.mined, baseline.mined);
        prop_assert_eq!(out.quarantine, baseline.quarantine);
    }
}
