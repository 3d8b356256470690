//! Ablations over the study's design choices: reed-threshold sensitivity,
//! history-walk strategy, and classification-rule order.

use crate::funnel::run_funnel;
use crate::study::{try_run_study_source, StudyOptions, StudyResult};
use schevo_core::errors::SchevoError;
use schevo_core::profile::EvolutionProfile;
use schevo_core::taxa::{classify, ProjectClass, Taxon, TaxonFeatures};
use schevo_corpus::universe::Universe;
use schevo_vcs::history::WalkStrategy;
use serde::{Deserialize, Serialize};

/// Taxa counts under one reed threshold.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ThresholdPoint {
    /// The reed threshold used.
    pub threshold: u64,
    /// Per-taxon counts in `Taxon::ALL` order.
    pub counts: [usize; 6],
}

/// How taxa populations shift when the reed threshold moves — the
/// sensitivity of the classification to the 85%-rule constant.
pub fn reed_threshold_sensitivity(
    universe: &Universe,
    thresholds: &[u64],
) -> Result<Vec<ThresholdPoint>, SchevoError> {
    thresholds
        .iter()
        .map(|&t| {
            let s = try_run_study_source(
                universe,
                StudyOptions {
                    reed_threshold: Some(t),
                    ..Default::default()
                },
            )?;
            Ok(ThresholdPoint {
                threshold: t,
                counts: taxa_counts(&s),
            })
        })
        .collect()
}

fn taxa_counts(s: &StudyResult) -> [usize; 6] {
    let mut counts = [0usize; 6];
    for (i, &t) in Taxon::ALL.iter().enumerate() {
        counts[i] = s.taxon_stats(t).count;
    }
    counts
}

/// Compare first-parent and full-DAG history walks: how many projects
/// change their version count or taxon.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct WalkComparison {
    /// Projects analyzed under both strategies.
    pub compared: usize,
    /// Projects whose version count differs.
    pub version_count_diffs: usize,
    /// Projects whose taxon differs.
    pub taxon_diffs: usize,
}

/// Run the walk-strategy ablation (the paper's §III-C git-nonlinearity
/// threat).
pub fn walk_strategy_comparison(universe: &Universe) -> WalkComparison {
    let fp = run_funnel(universe, WalkStrategy::FirstParent);
    let full = run_funnel(universe, WalkStrategy::FullDag);
    let mut cmp = WalkComparison::default();
    for a in &fp.analyzed {
        let Some(b) = full.analyzed.iter().find(|c| c.name == a.name) else {
            continue;
        };
        cmp.compared += 1;
        if a.versions.len() != b.versions.len() {
            cmp.version_count_diffs += 1;
        }
        let ta = crate::extract::mine_candidate(a, schevo_core::heartbeat::REED_THRESHOLD)
            .map(|p| p.class);
        let tb = crate::extract::mine_candidate(b, schevo_core::heartbeat::REED_THRESHOLD)
            .map(|p| p.class);
        if ta != tb {
            cmp.taxon_diffs += 1;
        }
    }
    cmp
}

/// Classify with the FS&Low rule *after* the activity split instead of
/// before it (rule-order ablation; DESIGN.md §4 argues the paper's order).
pub fn classify_alternate_order(f: TaxonFeatures) -> ProjectClass {
    if f.commits <= 1 {
        return ProjectClass::HistoryLess;
    }
    let taxon = if f.active_commits == 0 {
        Taxon::Frozen
    } else if f.active_commits <= 3 {
        if f.total_activity <= 10 {
            Taxon::AlmostFrozen
        } else {
            Taxon::FocusedShotFrozen
        }
    } else if f.total_activity < 90 {
        Taxon::Moderate
    } else if (4..=10).contains(&f.active_commits) && (1..=2).contains(&f.reeds) {
        Taxon::FocusedShotLow
    } else {
        Taxon::Active
    };
    ProjectClass::Taxon(taxon)
}

/// How many analyzed projects change taxon under the alternate rule order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct RuleOrderComparison {
    /// Total projects compared.
    pub compared: usize,
    /// Projects whose taxon changes under the alternate order.
    pub changed: usize,
    /// FS&Low population under the paper's order.
    pub fslow_paper: usize,
    /// FS&Low population under the alternate order.
    pub fslow_alternate: usize,
}

/// Run the rule-order ablation over already-mined profiles.
pub fn rule_order_comparison(profiles: &[EvolutionProfile]) -> RuleOrderComparison {
    let mut out = RuleOrderComparison::default();
    for p in profiles {
        let f = TaxonFeatures {
            commits: p.commits,
            active_commits: p.active_commits,
            total_activity: p.total_activity,
            reeds: p.reeds,
        };
        let paper = classify(f);
        let alt = classify_alternate_order(f);
        out.compared += 1;
        if paper != alt {
            out.changed += 1;
        }
        if paper == ProjectClass::Taxon(Taxon::FocusedShotLow) {
            out.fslow_paper += 1;
        }
        if alt == ProjectClass::Taxon(Taxon::FocusedShotLow) {
            out.fslow_alternate += 1;
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use schevo_corpus::universe::{generate, UniverseConfig};

    #[test]
    fn lower_threshold_creates_more_reeds_and_moves_projects() {
        let u = generate(UniverseConfig::small(21, 12));
        let points = reed_threshold_sensitivity(&u, &[6, 14, 30]).expect("clean corpus");
        assert_eq!(points.len(), 3);
        // At the canonical threshold, counts match ground truth.
        let canonical = points.iter().find(|p| p.threshold == 14).unwrap();
        assert_eq!(canonical.counts, {
            let mut c = [0usize; 6];
            c.copy_from_slice(&u.expected.taxa);
            c
        });
        // Moving the threshold changes populations of the reed-dependent
        // taxa (FS&Low trades with Moderate/Active).
        let low = points.iter().find(|p| p.threshold == 6).unwrap();
        let high = points.iter().find(|p| p.threshold == 30).unwrap();
        assert_ne!(low.counts, high.counts);
        // Total population is conserved at any threshold.
        for p in &points {
            assert_eq!(p.counts.iter().sum::<usize>(), u.expected.analyzed);
        }
    }

    #[test]
    fn walk_strategies_agree_on_linear_corpus() {
        // The synthetic corpus commits linearly, so the two walks agree —
        // the interesting content is that the machinery runs end to end.
        let u = generate(UniverseConfig::small(33, 16));
        let cmp = walk_strategy_comparison(&u);
        assert!(cmp.compared > 0);
        assert_eq!(cmp.version_count_diffs, 0);
        assert_eq!(cmp.taxon_diffs, 0);
    }

    #[test]
    fn rule_order_changes_fslow_population() {
        // A project with 4–10 active commits, 1–2 reeds and activity < 90
        // is FS&Low under the paper's order but Moderate under the
        // alternate order.
        let f = TaxonFeatures {
            commits: 10,
            active_commits: 6,
            total_activity: 60,
            reeds: 1,
        };
        assert_eq!(classify(f), ProjectClass::Taxon(Taxon::FocusedShotLow));
        assert_eq!(
            classify_alternate_order(f),
            ProjectClass::Taxon(Taxon::Moderate)
        );
    }

    #[test]
    fn rule_order_comparison_over_corpus() {
        let u = generate(UniverseConfig::small(21, 12));
        let s = try_run_study_source(&u, StudyOptions::default()).expect("clean corpus");
        let cmp = rule_order_comparison(&s.profiles);
        assert_eq!(cmp.compared, s.profiles.len());
        // The alternate order can only shrink FS&Low (low-activity members
        // drain into Moderate).
        assert!(cmp.fslow_alternate <= cmp.fslow_paper);
        assert_eq!(cmp.changed, cmp.fslow_paper - cmp.fslow_alternate);
    }
}
