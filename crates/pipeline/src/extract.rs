//! Parallel measurement of funnel candidates: parse every version, diff
//! every transition, and build per-project evolution profiles.
//!
//! The mining tasks here run under [`crate::engine::MiningEngine`] on the
//! work-stealing executor of [`crate::exec`]: one task per candidate
//! history, stolen from a shared injector, with results reassembled in
//! candidate order so the output is identical for every worker count.

use crate::exec::{watchdog, StageTally};
use crate::funnel::CandidateHistory;
use crate::quarantine::{QuarantineRecord, RecoveryRecord};
use schevo_core::diff::{diff, SchemaDelta};
use schevo_core::errors::{ErrorClass, SchevoError};
use schevo_core::fk::{fk_profile, fk_profile_with, FkProfile};
use schevo_core::measures::measure_history_with;
use schevo_core::model::{CommitMeta, SchemaHistory, SchemaVersion};
use schevo_core::profile::{EvolutionProfile, ProjectContext};
use schevo_core::tables::{table_lives, table_lives_with, TableLife};
use schevo_ddl::HistoryParser;
use schevo_obs::stage;
use schevo_obs::trace::SpanGuard;
use serde::{Deserialize, Serialize};
use std::time::Duration;

/// Everything one mining pass produces for a project: the paper's profile
/// plus the two extension studies (foreign keys, table lives).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Mined {
    /// The paper's per-project profile.
    pub profile: EvolutionProfile,
    /// Foreign-key extension profile.
    pub fk: FkProfile,
    /// Table-level lives (Electrolysis extension).
    pub table_lives: Vec<TableLife>,
}

/// Mine one candidate into its profile.
///
/// Returns `None` when a version cannot be parsed at all (counted by the
/// caller; does not occur for the synthetic corpus but keeps the pipeline
/// total for arbitrary inputs).
pub fn mine_candidate(candidate: &CandidateHistory, reed_threshold: u64) -> Option<EvolutionProfile> {
    let history =
        SchemaHistory::from_file_versions(candidate.name.clone(), &candidate.versions).ok()?;
    Some(
        EvolutionProfile::with_threshold(&history, reed_threshold).with_context(ProjectContext {
            pup_months: candidate.pup_months,
            total_commits: candidate.total_commits,
        }),
    )
}

/// Mine one candidate into both its parsed history and profile.
pub fn mine_candidate_full(
    candidate: &CandidateHistory,
    reed_threshold: u64,
) -> Option<(SchemaHistory, EvolutionProfile)> {
    let history =
        SchemaHistory::from_file_versions(candidate.name.clone(), &candidate.versions).ok()?;
    let profile =
        EvolutionProfile::with_threshold(&history, reed_threshold).with_context(ProjectContext {
            pup_months: candidate.pup_months,
            total_commits: candidate.total_commits,
        });
    Some((history, profile))
}

/// Mine one candidate into its full [`Mined`] record (profile + extensions).
pub fn mine_extended(candidate: &CandidateHistory, reed_threshold: u64) -> Option<Mined> {
    let (history, profile) = mine_candidate_full(candidate, reed_threshold)?;
    Some(Mined {
        fk: fk_profile(&history),
        table_lives: table_lives(&history),
        profile,
    })
}

/// Diff and profile a parsed history: every transition diffed exactly
/// once, then fanned out to the measurement pass and both extension
/// studies. `clock` is the task's stage guard, open on `mine.parse`; it
/// moves on to `mine.diff` and `mine.measures` and closes here.
fn diff_and_profile(
    candidate: &CandidateHistory,
    history: SchemaHistory,
    reed_threshold: u64,
    tally: &mut StageTally,
    mut clock: SpanGuard,
) -> Mined {
    tally.parse_nanos += clock.next_stage("mine.diff");
    let deltas: Vec<SchemaDelta> = history
        .transitions()
        .map(|(_, old, new)| diff(&old.schema, &new.schema))
        .collect();
    tally.diff_nanos += clock.next_stage("mine.measures");

    let fk = fk_profile_with(&history, &deltas);
    let lives = table_lives_with(&history, &deltas);
    let measures = measure_history_with(&history, deltas);
    let profile = EvolutionProfile::from_measures(&history, &measures, reed_threshold)
        .with_context(ProjectContext {
            pup_months: candidate.pup_months,
            total_commits: candidate.total_commits,
        });
    tally.profile_nanos += clock.close();
    Mined {
        profile,
        fk,
        table_lives: lives,
    }
}

/// What graceful mining produced for one candidate. At most one of
/// `mined`/`quarantined` is `Some` semantics-wise: a quarantined
/// candidate yields no `Mined`. This is also the journal payload: the
/// write-ahead journal persists exactly one `MineOutcome` per candidate,
/// so replaying a journal reconstructs the pass without re-mining.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MineOutcome {
    /// The mined result, absent when the candidate was quarantined.
    pub mined: Option<Mined>,
    /// Version-level problems recovered in place, in detection order.
    pub recovered: Vec<RecoveryRecord>,
    /// The error that excluded the candidate, if any.
    pub quarantined: Option<QuarantineRecord>,
}

impl MineOutcome {
    pub(crate) fn quarantine(
        recovered: Vec<RecoveryRecord>,
        error: SchevoError,
        attempted: bool,
    ) -> Self {
        MineOutcome {
            mined: None,
            recovered,
            quarantined: Some(QuarantineRecord {
                error,
                recovery_attempted: attempted,
            }),
        }
    }
}

/// Mine one candidate with graceful degradation.
///
/// Stage 1 (sanitation): blank versions and identical consecutive
/// versions are dropped, backwards timestamps re-sorted — each event
/// recorded as a recovery. Stage 2 (parse): versions that fail the
/// strict parse are re-parsed with statement-level recovery; a version
/// whose salvage is an empty schema quarantines the whole history.
/// Stage 3 diffs and profiles the surviving versions. On a clean
/// candidate no stage changes anything, so the result equals
/// [`mine_extended`].
fn mine_task_graceful(
    candidate: &CandidateHistory,
    reed_threshold: u64,
    tally: &mut StageTally,
) -> MineOutcome {
    let name = candidate.name.as_str();
    let vs = &candidate.versions;
    let mut recovered = Vec::new();

    // Sanitation: choose which version indices survive.
    let mut keep: Vec<usize> = Vec::with_capacity(vs.len());
    for (i, v) in vs.iter().enumerate() {
        if v.content.trim().is_empty() {
            recovered.push(RecoveryRecord {
                error: SchevoError::version(
                    ErrorClass::EmptyVersion,
                    name,
                    i,
                    "blank version dropped",
                ),
                dropped_statements: 0,
            });
            continue;
        }
        if let Some(&prev) = keep.last() {
            if vs[prev].content == v.content {
                recovered.push(RecoveryRecord {
                    error: SchevoError::version(
                        ErrorClass::DuplicateVersion,
                        name,
                        i,
                        "byte-identical to previous version; dropped",
                    ),
                    dropped_statements: 0,
                });
                continue;
            }
        }
        keep.push(i);
    }
    if keep.is_empty() {
        return MineOutcome::quarantine(
            recovered,
            SchevoError::project(ErrorClass::EmptyVersion, name, "no usable versions"),
            false,
        );
    }
    if let Some(w) = keep
        .windows(2)
        .find(|w| vs[w[1]].timestamp < vs[w[0]].timestamp)
    {
        recovered.push(RecoveryRecord {
            error: SchevoError::version(
                ErrorClass::NonMonotonicTimestamps,
                name,
                w[1],
                "commit timestamps go backwards; history re-sorted by timestamp",
            ),
            dropped_statements: 0,
        });
        keep.sort_by_key(|&i| (vs[i].timestamp, i));
    }

    // Parse stage, with statement-level recovery on strict failure.
    let clock = stage!("mine.parse");
    let mut versions = Vec::with_capacity(keep.len());
    let mut parser = HistoryParser::new();
    for &i in &keep {
        let v = &vs[i];
        tally.parse_misses += 1;
        let schema = match parser.parse(&v.content) {
            Ok(s) => s,
            Err(e) => {
                let error = SchevoError::from_parse(name, i, &e);
                let salvage = schevo_ddl::parse_schema_recovering(&v.content);
                if salvage.schema.is_empty() {
                    tally.relexed_bytes += parser.relexed_bytes();
                    tally.parse_nanos += clock.close();
                    return MineOutcome::quarantine(recovered, error, true);
                }
                recovered.push(RecoveryRecord {
                    error,
                    dropped_statements: salvage.dropped_statements as u64,
                });
                salvage.schema
            }
        };
        versions.push(SchemaVersion {
            meta: CommitMeta {
                id: v.commit.to_hex(),
                timestamp: v.timestamp,
                author: v.author.clone(),
                message: v.message.clone(),
            },
            schema,
            source_len: v.content.len(),
        });
    }

    tally.relexed_bytes += parser.relexed_bytes();
    let history = SchemaHistory {
        project: candidate.name.clone(),
        versions,
    };
    let mined = diff_and_profile(candidate, history, reed_threshold, tally, clock);
    MineOutcome {
        mined: Some(mined),
        recovered,
        quarantined: None,
    }
}

/// One mining task: graceful mining under the soft watchdog. An overrun
/// is appended to the task's recovery list as a
/// [`ErrorClass::DeadlineExceeded`] event — deterministic in position
/// (always last), wall-clock-dependent in occurrence, which is why the
/// deadline defaults to off.
pub(crate) fn mine_task_watched(
    candidate: &CandidateHistory,
    reed_threshold: u64,
    deadline: Option<Duration>,
    tally: &mut StageTally,
) -> MineOutcome {
    let (mut outcome, overrun) =
        watchdog(deadline, || mine_task_graceful(candidate, reed_threshold, tally));
    if overrun.is_some() {
        let limit_ms = deadline.map(|d| d.as_millis()).unwrap_or(0);
        outcome.recovered.push(RecoveryRecord {
            error: SchevoError::project(
                ErrorClass::DeadlineExceeded,
                candidate.name.as_str(),
                format!("mining exceeded the soft watchdog deadline of {limit_ms}ms"),
            ),
            dropped_statements: 0,
        });
    }
    outcome
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{MiningEngine, MiningOutput};
    use crate::source::SliceSource;
    use crate::study::StudyOptions;
    use crate::funnel::{run_funnel, FunnelOutcome};
    use schevo_core::heartbeat::REED_THRESHOLD;
    use schevo_corpus::universe::{generate, UniverseConfig};
    use schevo_vcs::history::WalkStrategy;

    fn outcome() -> FunnelOutcome {
        let u = generate(UniverseConfig::small(11, 20));
        run_funnel(&u, WalkStrategy::FirstParent)
    }

    fn mine(candidates: &[CandidateHistory], workers: usize) -> MiningOutput {
        MiningEngine::new(StudyOptions {
            workers,
            ..StudyOptions::default()
        })
        .mine(&SliceSource::new(candidates))
        .expect("no journal, no error source")
    }

    #[test]
    fn parallel_equals_serial() {
        let o = outcome();
        let out = mine(&o.analyzed, 8);
        assert!(out.quarantine.is_clean());
        let par: Vec<_> = out.mined.iter().map(|m| m.profile.clone()).collect();
        let serial: Vec<_> = o
            .analyzed
            .iter()
            .filter_map(|c| mine_candidate(c, REED_THRESHOLD))
            .collect();
        assert_eq!(par, serial);
    }

    #[test]
    fn profiles_carry_context() {
        let o = outcome();
        let out = mine(&o.analyzed, 4);
        assert!(!out.mined.is_empty());
        for m in &out.mined {
            assert!(m.profile.context.is_some());
            assert!(m.profile.ddl_commit_share().unwrap() > 0.0);
        }
    }

    #[test]
    fn single_worker_path() {
        let o = outcome();
        let out = mine(&o.analyzed, 1);
        assert!(out.quarantine.is_clean());
        assert_eq!(out.mined.len(), o.analyzed.len());
    }

    #[test]
    fn unparseable_version_is_salvaged_and_recorded() {
        use schevo_vcs::history::FileVersion;
        use schevo_vcs::sha1::sha1;
        use schevo_vcs::timestamp::Timestamp;
        let bad = crate::funnel::CandidateHistory {
            name: "bad/project".into(),
            ddl_path: "s.sql".into(),
            versions: vec![FileVersion {
                commit: sha1(b"bad"),
                timestamp: Timestamp(0),
                author: "x".into(),
                message: "m".into(),
                content: "CREATE TABLE t (a INT); '".into(), // unterminated string
            }],
            pup_months: 1,
            total_commits: 1,
        };
        let out = mine(std::slice::from_ref(&bad), 2);
        assert_eq!(out.mined.len(), 1, "the salvaged table keeps the project");
        assert!(out.quarantine.quarantined.is_empty());
        assert_eq!(out.quarantine.recovered.len(), 1);
        let record = &out.quarantine.recovered[0];
        assert_eq!(record.error.class, ErrorClass::Lex);
        assert_eq!(record.error.version_index, Some(0));
    }
}
