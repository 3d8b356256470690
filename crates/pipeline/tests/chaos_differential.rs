//! Chaos differential harness for graceful-degradation mining: inject
//! every fault class of the `faultgen` catalog into a seeded universe and
//! prove that (a) the study always completes, (b) the clean-history
//! subset of the result is bit-identical to the uninjected run across
//! worker counts, (c) `--strict` fails with the
//! expected error class, and (d) degradation events are attributed only
//! to injected projects, with the right `ErrorClass`.
//!
//! Two fault classes are *healed upstream* of mining by design — the
//! history walk deduplicates consecutive identical blobs
//! (`DuplicateVersion`) and the funnel drops blank versions
//! (`EmptyVersion`) — so those recovery paths are exercised at the
//! candidate level, where `corrupt_versions` mutates extracted version
//! lists directly. Several others (`UnbalancedParens`,
//! `UnknownVendorClause`, `NonDdlNoise`, and often `TruncatedBlob`) are
//! absorbed *silently* by the tolerant parser: the damaged statement
//! degrades to `Statement::Other` and mining proceeds. The harness
//! therefore asserts conservation — every event it does see belongs to
//! an injected project and carries an allowed class — rather than
//! demanding one event per fault.

use rand::rngs::StdRng;
use rand::SeedableRng;
use schevo_core::errors::ErrorClass;
use schevo_corpus::faultgen::{corrupt_versions, inject, FaultClass, FaultPlan};
use schevo_corpus::universe::{generate, Universe, UniverseConfig};
use schevo_pipeline::extract::Mined;
use schevo_pipeline::funnel::{run_funnel, CandidateHistory};
use schevo_pipeline::quarantine::QuarantineReport;
use schevo_pipeline::study::{try_run_study_source, StudyOptions, StudyResult};
use schevo_pipeline::{MiningEngine, SliceSource};
use schevo_vcs::history::{FileVersion, WalkStrategy};
use schevo_vcs::sha1::Digest;
use schevo_vcs::timestamp::Timestamp;
use std::collections::BTreeMap;
use std::collections::BTreeSet;
use std::sync::OnceLock;

const SEED: u64 = 2019;
const SCALE: usize = 10;
const FAULT_SEED: u64 = 7;
const RATE: u32 = 20;

fn clean_universe() -> Universe {
    generate(UniverseConfig::small(SEED, SCALE))
}

/// The uninjected baseline study, computed once.
fn baseline() -> &'static StudyResult {
    static B: OnceLock<StudyResult> = OnceLock::new();
    B.get_or_init(|| {
        try_run_study_source(
            &clean_universe(),
            StudyOptions {
                workers: 1,
                ..StudyOptions::default()
            },
        )
        .expect("clean corpus")
    })
}

fn study_of(u: &Universe, workers: usize) -> StudyResult {
    try_run_study_source(
        u,
        StudyOptions {
            workers,
            ..StudyOptions::default()
        },
    )
    .expect("graceful study without a journal")
}

/// Worker counts: serial, contended, wide.
fn configs() -> Vec<usize> {
    let n = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(4);
    let mut grid = vec![1, 2];
    if !grid.contains(&n) {
        grid.push(n);
    }
    grid
}

fn profile_index(s: &StudyResult) -> BTreeMap<&str, &schevo_core::profile::EvolutionProfile> {
    s.profiles.iter().map(|p| (p.project.as_str(), p)).collect()
}

/// Every project the fault generator did NOT touch must come out of the
/// faulted study with a profile bit-identical to the clean baseline.
fn assert_clean_subset_identical(
    faulted: &StudyResult,
    injected: &BTreeSet<String>,
    label: &str,
) {
    let clean = profile_index(baseline());
    let dirty = profile_index(faulted);
    for (name, base_profile) in &clean {
        if injected.contains(*name) {
            continue;
        }
        let got = dirty.get(name).unwrap_or_else(|| {
            panic!("{label}: clean project {name} vanished from faulted study")
        });
        assert_eq!(
            *got, *base_profile,
            "{label}: clean project {name} profile diverged under fault injection"
        );
    }
}

/// Events may only name injected projects, and only with allowed classes.
fn assert_events_attributed(
    report: &QuarantineReport,
    injected: &BTreeSet<String>,
    allowed: &[ErrorClass],
    label: &str,
) {
    for r in &report.recovered {
        assert!(
            injected.contains(&r.error.project),
            "{label}: recovery names uninjected project {}",
            r.error.project
        );
        assert!(
            allowed.contains(&r.error.class),
            "{label}: recovery class {} not in allowed set",
            r.error.class
        );
    }
    for q in &report.quarantined {
        assert!(
            injected.contains(&q.error.project),
            "{label}: quarantine names uninjected project {}",
            q.error.project
        );
        assert!(
            allowed.contains(&q.error.class),
            "{label}: quarantine class {} not in allowed set",
            q.error.class
        );
    }
}

/// Which degradation classes a universe-level injection of each fault
/// class may legitimately produce. Silent absorption (empty set plus no
/// events) is legal for the classes the tolerant parser swallows.
fn allowed_classes(class: FaultClass) -> Vec<ErrorClass> {
    match class {
        // Truncation can cut inside a string/comment (lex error) or
        // mid-statement (silent statement drop).
        FaultClass::TruncatedBlob => vec![ErrorClass::Lex, ErrorClass::Syntax],
        // A missing `)` degrades the statement inside the strict parser;
        // no error ever surfaces.
        FaultClass::UnbalancedParens => vec![ErrorClass::Syntax],
        FaultClass::UnknownVendorClause => vec![],
        FaultClass::NonDdlNoise => vec![ErrorClass::Lex, ErrorClass::Syntax],
        // Guaranteed unterminated token.
        FaultClass::ByteFlip => vec![ErrorClass::Lex],
        FaultClass::NonMonotonicTimestamps => vec![ErrorClass::NonMonotonicTimestamps],
        // Healed by the history walk / funnel before mining.
        FaultClass::DuplicateVersion => vec![],
        FaultClass::EmptyVersion => vec![],
        // Valid DDL, just pathologically large: absorbed silently unless
        // a watchdog deadline is armed (deadline overruns are tested in
        // the exec/watchdog unit tests, not in this differential suite).
        FaultClass::SlowPath => vec![],
    }
}

#[test]
fn every_fault_class_completes_with_identical_clean_subset() {
    for class in FaultClass::ALL {
        let mut u = clean_universe();
        let faults = inject(&mut u, &FaultPlan::single(FAULT_SEED, RATE, class));
        assert!(
            !faults.is_empty(),
            "{class}: fault plan injected nothing at {RATE}%"
        );
        let injected: BTreeSet<String> = faults.iter().map(|f| f.project.clone()).collect();
        let allowed = allowed_classes(class);

        let mut runs: Vec<(String, StudyResult)> = Vec::new();
        for workers in configs() {
            let label = format!("{class} workers={workers}");
            let s = study_of(&u, workers);
            assert_clean_subset_identical(&s, &injected, &label);
            assert_events_attributed(&s.quarantine, &injected, &allowed, &label);
            runs.push((label, s));
        }
        // Faulted studies must still be deterministic across the grid:
        // same profiles, same funnel counts, same quarantine report.
        let (first_label, first) = &runs[0];
        for (label, other) in &runs[1..] {
            assert_eq!(
                first.report, other.report,
                "{first_label} vs {label}: funnel diverged under faults"
            );
            assert_eq!(
                first.profiles, other.profiles,
                "{first_label} vs {label}: profiles diverged under faults"
            );
            assert_eq!(
                first.quarantine, other.quarantine,
                "{first_label} vs {label}: quarantine report diverged"
            );
        }
    }
}

#[test]
fn byte_flip_always_surfaces_as_lex_recovery() {
    let mut u = clean_universe();
    let faults = inject(&mut u, &FaultPlan::single(FAULT_SEED, RATE, FaultClass::ByteFlip));
    let s = study_of(&u, 2);
    let events = s.quarantine.recovered.len() + s.quarantine.quarantined.len();
    assert!(
        events >= 1,
        "byte flips into {} projects produced no degradation events",
        faults.len()
    );
    for r in &s.quarantine.recovered {
        assert_eq!(r.error.class, ErrorClass::Lex);
        assert!(r.error.byte_offset.is_some(), "lex recovery lost its byte offset");
    }
}

#[test]
fn backwards_timestamps_always_surface_and_resort() {
    let mut u = clean_universe();
    inject(
        &mut u,
        &FaultPlan::single(FAULT_SEED, RATE, FaultClass::NonMonotonicTimestamps),
    );
    let s = study_of(&u, 2);
    assert!(
        s.quarantine
            .recovered
            .iter()
            .any(|r| r.error.class == ErrorClass::NonMonotonicTimestamps),
        "timestamp swap produced no NonMonotonicTimestamps recovery"
    );
    assert!(s.quarantine.quarantined.is_empty());
}

#[test]
fn strict_mode_fails_with_expected_error_class() {
    // NonMonotonicTimestamps is the one universe-level class guaranteed
    // to surface (FirstParent preserves commit order), so strict mode
    // must refuse the study with exactly that class.
    let mut u = clean_universe();
    inject(
        &mut u,
        &FaultPlan::single(FAULT_SEED, RATE, FaultClass::NonMonotonicTimestamps),
    );
    let err = try_run_study_source(
        &u,
        StudyOptions {
            workers: 2,
            strict: true,
            ..StudyOptions::default()
        },
    )
    .expect_err("strict study over a faulted universe must fail");
    assert_eq!(err.class, ErrorClass::NonMonotonicTimestamps);
    assert!(err.version_index.is_some(), "strict error lost version provenance");

    // Same story for the guaranteed lex class.
    let mut u = clean_universe();
    inject(&mut u, &FaultPlan::single(FAULT_SEED, RATE, FaultClass::ByteFlip));
    let err = try_run_study_source(
        &u,
        StudyOptions {
            workers: 1,
            strict: true,
            ..StudyOptions::default()
        },
    )
    .expect_err("strict study over lex-corrupted universe must fail");
    assert_eq!(err.class, ErrorClass::Lex);
}

#[test]
fn strict_mode_on_clean_universe_matches_graceful() {
    let u = clean_universe();
    let strict = try_run_study_source(
        &u,
        StudyOptions {
            workers: 2,
            strict: true,
            ..StudyOptions::default()
        },
    )
    .expect("clean universe must pass strict mode");
    assert!(strict.quarantine.is_clean());
    assert_eq!(strict.profiles, baseline().profiles);
    assert_eq!(strict.report, baseline().report);
    assert_eq!(strict.quarantine, baseline().quarantine);
}

#[test]
fn twenty_percent_mixed_fault_study_completes() {
    // The acceptance scenario: a fifth of the evolving projects damaged
    // with the full catalog cycling, and the study still completes with
    // an identical clean subset in every configuration.
    let mut u = clean_universe();
    let faults = inject(&mut u, &FaultPlan::all(FAULT_SEED, RATE));
    assert!(faults.len() >= 3, "expected several faults at scale {SCALE}");
    let injected: BTreeSet<String> = faults.iter().map(|f| f.project.clone()).collect();
    let all_classes: Vec<ErrorClass> = FaultClass::ALL
        .iter()
        .flat_map(|&c| allowed_classes(c))
        .collect();
    let mut prev: Option<StudyResult> = None;
    for workers in configs() {
        let label = format!("mixed workers={workers}");
        let s = study_of(&u, workers);
        assert_clean_subset_identical(&s, &injected, &label);
        assert_events_attributed(&s.quarantine, &injected, &all_classes, &label);
        if let Some(p) = &prev {
            assert_eq!(p.profiles, s.profiles, "{label}: profiles diverged");
            assert_eq!(p.quarantine, s.quarantine, "{label}: quarantine diverged");
        }
        prev = Some(s);
    }
}

// ---------------------------------------------------------------------
// Candidate-level injection: exercises the recovery paths that
// repository-level injection cannot reach (the history walk and funnel
// heal duplicates and blanks before mining sees them).
// ---------------------------------------------------------------------

fn ver(i: usize, month: u8, content: &str) -> FileVersion {
    FileVersion {
        commit: Digest([i as u8; 20]),
        timestamp: Timestamp::from_date(2018, month, 1),
        author: "chaos".into(),
        message: format!("v{i}"),
        content: content.into(),
    }
}

fn candidate(versions: Vec<FileVersion>) -> CandidateHistory {
    CandidateHistory {
        name: "chaos/crafted".into(),
        ddl_path: "schema.sql".into(),
        versions,
        pup_months: 12,
        total_commits: 40,
    }
}

fn mine_graceful(cands: &[CandidateHistory], workers: usize) -> (Vec<Mined>, QuarantineReport) {
    let out = MiningEngine::new(StudyOptions {
        reed_threshold: Some(schevo_core::heartbeat::REED_THRESHOLD),
        workers,
        ..StudyOptions::default()
    })
    .mine(&SliceSource::new(cands))
    .expect("graceful mining never aborts without a journal");
    (out.mined, out.quarantine)
}

fn mine_one(c: CandidateHistory) -> (usize, QuarantineReport) {
    let (mined, report) = mine_graceful(&[c], 1);
    (mined.len(), report)
}

const V0: &str = "CREATE TABLE users (id INT, name TEXT);";
const V1: &str = "CREATE TABLE users (id INT, name TEXT, email TEXT);";
const V2: &str = "CREATE TABLE users (id INT, name TEXT, email TEXT);\nCREATE TABLE posts (id INT);";

#[test]
fn candidate_duplicate_version_recovers_and_matches_dedup() {
    let mut dup = vec![ver(0, 1, V0), ver(1, 2, V1), ver(3, 4, V2)];
    let mut rng = StdRng::seed_from_u64(FAULT_SEED);
    let at = corrupt_versions(&mut dup, FaultClass::DuplicateVersion, &mut rng)
        .expect("duplicate injection applies");
    assert_eq!(dup.len(), 4);
    assert_eq!(dup[at + 1].content, dup[at].content);

    let (n, report) = mine_one(candidate(dup));
    assert_eq!(n, 1, "duplicate must not kill the candidate");
    assert_eq!(report.recovered.len(), 1);
    assert_eq!(report.recovered[0].error.class, ErrorClass::DuplicateVersion);

    // Recovery must reproduce the clean three-version mining result.
    let (clean_n, clean_report) =
        mine_one(candidate(vec![ver(0, 1, V0), ver(1, 2, V1), ver(3, 4, V2)]));
    assert_eq!(clean_n, 1);
    assert!(clean_report.is_clean());
}

#[test]
fn candidate_empty_version_recovers() {
    let mut vs = vec![ver(0, 1, V0), ver(1, 2, V1), ver(2, 3, V2)];
    let mut rng = StdRng::seed_from_u64(FAULT_SEED);
    corrupt_versions(&mut vs, FaultClass::EmptyVersion, &mut rng).expect("blanking applies");
    let (n, report) = mine_one(candidate(vs));
    assert_eq!(n, 1);
    assert_eq!(report.recovered.len(), 1);
    assert_eq!(report.recovered[0].error.class, ErrorClass::EmptyVersion);
}

#[test]
fn candidate_all_blank_is_quarantined_not_fatal() {
    let vs = vec![ver(0, 1, "\n\n"), ver(1, 2, "  \n")];
    let (n, report) = mine_one(candidate(vs));
    assert_eq!(n, 0);
    assert_eq!(report.quarantined.len(), 1);
    let q = &report.quarantined[0];
    assert_eq!(q.error.class, ErrorClass::EmptyVersion);
    assert_eq!(q.error.project, "chaos/crafted");
    assert!(!q.recovery_attempted, "nothing to parse, so no parse recovery was attempted");
    // The blank versions themselves were individually recovered first.
    assert_eq!(report.recovered.len(), 2);
}

#[test]
fn candidate_backwards_timestamps_resort_to_clean_result() {
    let mut vs = vec![ver(0, 1, V0), ver(1, 2, V1), ver(2, 3, V2)];
    let mut rng = StdRng::seed_from_u64(FAULT_SEED);
    corrupt_versions(&mut vs, FaultClass::NonMonotonicTimestamps, &mut rng)
        .expect("timestamp swap applies");
    assert!(
        vs.windows(2).any(|w| w[1].timestamp < w[0].timestamp),
        "injection failed to break monotonicity"
    );
    let (n, report) = mine_one(candidate(vs));
    assert_eq!(n, 1);
    assert_eq!(report.recovered.len(), 1);
    assert_eq!(
        report.recovered[0].error.class,
        ErrorClass::NonMonotonicTimestamps
    );
}

#[test]
fn candidate_unterminated_token_recovers_with_prefix() {
    // v1 carries a good statement followed by an unterminated block
    // comment: the lexer reports the error, the recovering parser keeps
    // the well-formed prefix, and mining continues.
    let damaged = format!("{V1}\n/* migration notes never closed");
    let vs = vec![ver(0, 1, V0), ver(1, 2, &damaged), ver(2, 3, V2)];
    let (n, report) = mine_one(candidate(vs));
    assert_eq!(n, 1);
    assert_eq!(report.recovered.len(), 1);
    let r = &report.recovered[0];
    assert_eq!(r.error.class, ErrorClass::Lex);
    assert_eq!(r.error.version_index, Some(1));
    assert!(r.error.byte_offset.is_some());
}

#[test]
fn candidate_unsalvageable_version_quarantines_whole_history() {
    // A version swallowed from byte zero by an unterminated string has
    // an empty salvage schema: the history is quarantined, with
    // provenance pointing at the damaged version.
    let vs = vec![ver(0, 1, V0), ver(1, 2, "'swallowed from the first byte")];
    let (n, report) = mine_one(candidate(vs));
    assert_eq!(n, 0);
    assert_eq!(report.quarantined.len(), 1);
    let q = &report.quarantined[0];
    assert_eq!(q.error.class, ErrorClass::Lex);
    assert_eq!(q.error.version_index, Some(1));
    assert!(q.recovery_attempted);
}

#[test]
fn candidate_injection_on_real_funnel_output_stays_ordered() {
    // Corrupt one real extracted candidate in the middle of the funnel
    // output; every other candidate must mine bit-identically and the
    // output order must be preserved.
    let u = clean_universe();
    let outcome = run_funnel(&u, WalkStrategy::FirstParent);
    let mut candidates = outcome.analyzed;
    assert!(candidates.len() >= 3, "scale {SCALE} funnel too small for this test");
    let victim = candidates.len() / 2;
    let victim_name = candidates[victim].name.clone();
    let mut rng = StdRng::seed_from_u64(FAULT_SEED);
    corrupt_versions(
        &mut candidates[victim].versions,
        FaultClass::DuplicateVersion,
        &mut rng,
    )
    .expect("duplicate injection applies to a real candidate");

    let (mined, report) = mine_graceful(&candidates, 4);
    assert_eq!(mined.len(), candidates.len(), "duplicate drop must not lose the candidate");
    assert_eq!(report.recovered.len(), 1);
    assert_eq!(report.recovered[0].error.project, victim_name);
    assert_eq!(report.recovered[0].error.class, ErrorClass::DuplicateVersion);
    // Order and content of everything else match the clean mining pass.
    let clean = run_funnel(&u, WalkStrategy::FirstParent).analyzed;
    let (clean_mined, clean_report) = mine_graceful(&clean, 4);
    assert!(clean_report.is_clean());
    for (a, b) in mined.iter().zip(clean_mined.iter()) {
        assert_eq!(a.profile, b.profile, "profile order or content changed");
    }
}

// ---------------------------------------------------------------------
// Byte-flipped pack entries: the reader must fail closed, never panic.
// ---------------------------------------------------------------------

#[test]
fn byte_flipped_packs_never_panic() {
    use schevo_vcs::pack::{read_pack, write_pack};
    use schevo_vcs::repo::{FileChange, Repository};

    let mut repo = Repository::new("chaos/pack");
    for (i, content) in [V0, V1, V2].iter().enumerate() {
        repo.commit(
            [FileChange::write("schema.sql", content.to_string())],
            "chaos",
            Timestamp::from_date(2018, 1 + i as u8, 1),
            &format!("v{i}"),
        )
        .expect("commit");
    }
    let pack = write_pack(&repo);
    assert!(read_pack(&pack).is_ok(), "clean pack must round-trip");

    // Flip every byte position to a handful of hostile values. Each
    // corrupted pack must either load (flip hit a don't-care byte) or
    // return a typed PackError — an abort/panic fails the whole test.
    let mut outcomes = [0usize; 2];
    for pos in 0..pack.len() {
        for val in [0x00, 0xff, pack[pos].wrapping_add(1)] {
            if val == pack[pos] {
                continue;
            }
            let mut bad = pack.clone();
            bad[pos] = val;
            match read_pack(&bad) {
                Ok(_) => outcomes[0] += 1,
                Err(_) => outcomes[1] += 1,
            }
        }
    }
    assert!(outcomes[1] > 0, "no flip was ever detected as corruption");
}

#[test]
fn truncated_packs_never_panic() {
    use schevo_vcs::pack::{read_pack, write_pack};
    use schevo_vcs::repo::{FileChange, Repository};

    let mut repo = Repository::new("chaos/pack-trunc");
    repo.commit(
        [FileChange::write("schema.sql", V0.to_string())],
        "chaos",
        Timestamp::from_date(2018, 1, 1),
        "v0",
    )
    .expect("commit");
    let pack = write_pack(&repo);
    for len in 0..pack.len() {
        assert!(
            read_pack(&pack[..len]).is_err(),
            "a pack cut to {len} of {} bytes must be rejected",
            pack.len()
        );
    }
}
