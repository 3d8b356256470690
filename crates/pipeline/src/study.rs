//! The end-to-end study runner: funnel → mining → per-taxon statistics →
//! statistical battery → narrative percentages. The output contains every
//! number needed to regenerate the paper's tables and figures.

use crate::engine::MiningEngine;
use crate::exec::ExecStats;
use crate::funnel::FunnelReport;
use crate::journal::{DurabilityOptions, JournalSummary};
use crate::quarantine::QuarantineReport;
use crate::source::CandidateSource;
use schevo_core::errors::SchevoError;
use schevo_core::fk::{fk_corpus_stats, FkCorpusStats};
use schevo_core::heartbeat::{derive_reed_threshold, REED_THRESHOLD};
use schevo_core::tables::{electrolysis, fate_activity_table, ElectrolysisStats};
use schevo_core::profile::EvolutionProfile;
use schevo_core::shape::ShapeClass;
use schevo_core::taxa::{ProjectClass, Taxon};
use schevo_obs::scope;
use schevo_obs::{stage, ObsHooks};
use schevo_stats::describe::{percent_where, Summary};
use schevo_stats::kruskal::{kruskal_wallis, pairwise_kruskal, KruskalWallis, PairwiseMatrix};
use schevo_stats::quantile::Quartiles;
use schevo_stats::correlation::{spearman, Spearman};
use schevo_stats::shapiro::{shapiro_wilk, ShapiroWilk};
use schevo_vcs::history::WalkStrategy;
use serde::{Deserialize, Serialize};

/// Options of a study run.
#[derive(Debug, Clone)]
pub struct StudyOptions {
    /// How to linearize commit DAGs.
    pub strategy: WalkStrategy,
    /// Reed threshold for classification; `None` uses the paper's canonical
    /// value ([`REED_THRESHOLD`]).
    pub reed_threshold: Option<u64>,
    /// Mining worker threads.
    pub workers: usize,
    /// Strict mode: the mining pass still runs to the end, but if it
    /// recorded any degradation event the study returns an error instead
    /// of statistics — the first quarantine in candidate order, else the
    /// first recovery. With the default `false`, damaged histories are
    /// quarantined and the study completes on the clean subset.
    pub strict: bool,
    /// Durability layer: write-ahead mining journal, resume, crash
    /// injection, and the per-task watchdog deadline. The default is
    /// fully off and perturbs nothing.
    pub durability: DurabilityOptions,
    /// Observability hooks: metrics registry and progress heartbeat.
    /// The default is fully off; hooks only read what the run already
    /// computes, so results are bit-identical either way.
    pub obs: ObsHooks,
}

impl Default for StudyOptions {
    fn default() -> Self {
        StudyOptions {
            strategy: WalkStrategy::FirstParent,
            reed_threshold: None,
            workers: crate::exec::default_workers(),
            strict: false,
            durability: DurabilityOptions::default(),
            obs: ObsHooks::default(),
        }
    }
}

/// The Fig. 4 row block for one taxon.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TaxonStats {
    /// The taxon.
    pub taxon: Taxon,
    /// Population.
    pub count: usize,
    /// Schema Update Period (months).
    pub sup_months: Option<Summary>,
    /// Total activity (attributes).
    pub total_activity: Option<Summary>,
    /// Commits of the DDL file.
    pub commits: Option<Summary>,
    /// Active commits.
    pub active_commits: Option<Summary>,
    /// Reeds.
    pub reeds: Option<Summary>,
    /// Turf commits.
    pub turf: Option<Summary>,
    /// Table insertions.
    pub table_insertions: Option<Summary>,
    /// Table deletions.
    pub table_deletions: Option<Summary>,
    /// Tables at V0.
    pub tables_start: Option<Summary>,
    /// Tables at the last version.
    pub tables_end: Option<Summary>,
    /// Fig. 12/13: quartiles of total activity.
    pub activity_quartiles: Option<Quartiles>,
    /// Fig. 12/13: quartiles of active commits.
    pub active_commit_quartiles: Option<Quartiles>,
    /// Percent of projects with PUP > 24 months.
    pub pup_over_24_pct: f64,
    /// Percent of projects with PUP > 12 months.
    pub pup_over_12_pct: f64,
    /// Median share of repository commits touching the DDL file (%).
    pub ddl_share_median_pct: f64,
    /// Percent of projects per schema-line shape.
    pub shape_pct: Vec<(ShapeClass, f64)>,
}

/// The §V statistical battery.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct StatisticsBattery {
    /// Overall KW over total activity, all six taxa (df = 5, as reported).
    pub kw_activity: KruskalWallis,
    /// Overall KW over active commits, all six taxa.
    pub kw_active_commits: KruskalWallis,
    /// Pairwise KW p-values over activity, non-frozen taxa (Fig. 11 upper).
    pub pairwise_activity: PairwiseMatrix,
    /// Pairwise KW p-values over active commits (Fig. 11 lower).
    pub pairwise_active_commits: PairwiseMatrix,
    /// Shapiro–Wilk on total activity over the whole population.
    pub shapiro_activity: ShapiroWilk,
    /// Shapiro–Wilk on active commits over the whole population.
    pub shapiro_active_commits: ShapiroWilk,
    /// Spearman rank correlation between total activity and active commits
    /// over the analyzed population (the Fig. 10 cloud, quantified).
    pub activity_ac_spearman: Spearman,
}

/// The §IV/§VI narrative percentages.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Narrative {
    /// Rigid single-version projects as % of cloned (paper: 40%).
    pub rigid_pct_of_cloned: f64,
    /// Frozen as % of cloned (paper: 10%).
    pub frozen_pct_of_cloned: f64,
    /// Almost Frozen as % of cloned (paper: 20%).
    pub almost_frozen_pct_of_cloned: f64,
    /// Little-or-no change as % of cloned (paper: ~70%).
    pub little_or_none_pct_of_cloned: f64,
    /// Analyzed projects with 0–3 active commits (paper: 64%).
    pub zero_to_three_active_pct: f64,
    /// Analyzed projects with PUP > 24 months (paper: 65%).
    pub pup_over_24_pct: f64,
    /// Analyzed projects with PUP > 12 months (paper: 77%).
    pub pup_over_12_pct: f64,
    /// FS&Frozen projects whose single active commit keeps a flat schema
    /// line (paper: 36%).
    pub fsf_single_active_flat_pct: f64,
    /// FS&Frozen projects with a single step-up (paper: 52%).
    pub fsf_single_step_pct: f64,
    /// Moderate projects with a rising schema line (paper: 65%).
    pub moderate_rise_pct: f64,
    /// Moderate projects with a flat schema line (paper: 10%).
    pub moderate_flat_pct: f64,
}

/// Everything a study run produces.
#[derive(Debug)]
pub struct StudyResult {
    /// Funnel counts.
    pub report: FunnelReport,
    /// Profiles of the analyzed population, in funnel order.
    pub profiles: Vec<EvolutionProfile>,
    /// Per-taxon statistics, in `Taxon::ALL` order.
    pub taxa: Vec<TaxonStats>,
    /// The statistical battery.
    pub stats: StatisticsBattery,
    /// Reed threshold derived by the 85% rule from this corpus.
    pub derived_reed_threshold: u64,
    /// Reed threshold actually used for classification.
    pub used_reed_threshold: u64,
    /// Narrative percentages.
    pub narrative: Narrative,
    /// Degradation accounting: what the miner recovered from and what it
    /// quarantined (excluded from profiles). Empty on a clean corpus.
    pub quarantine: QuarantineReport,
    /// Foreign-key extension study (corpus aggregate).
    pub fk: FkCorpusStats,
    /// Table-level Electrolysis extension (pooled over all projects).
    pub electrolysis: ElectrolysisStats,
    /// χ² independence test of table fate (dead/survivor) vs activity
    /// (quiet/updated) over the pooled lives; `None` when a marginal is 0.
    pub fate_activity_chi2: Option<schevo_stats::Chi2Independence>,
    /// Executor observability: parse counters and per-stage timings of
    /// the mining pass. Timings vary with scheduling, and parse counts
    /// with a warm memo; everything else in this struct does not.
    pub exec: ExecStats,
    /// Journal accounting when a journal was configured: replayed vs
    /// freshly mined candidates, stale records discarded, tail
    /// corruption survived. `None` when journaling was off.
    pub journal: Option<JournalSummary>,
}

impl StudyResult {
    /// Profiles belonging to one taxon.
    pub fn profiles_of(&self, taxon: Taxon) -> Vec<&EvolutionProfile> {
        self.profiles
            .iter()
            .filter(|p| p.class == ProjectClass::Taxon(taxon))
            .collect()
    }

    /// The stats block of one taxon.
    pub fn taxon_stats(&self, taxon: Taxon) -> &TaxonStats {
        self.taxa
            .iter()
            .find(|t| t.taxon == taxon)
            .expect("all taxa present")
    }
}

fn summarize<F: Fn(&EvolutionProfile) -> u64>(
    profiles: &[&EvolutionProfile],
    f: F,
) -> Option<Summary> {
    Summary::of_counts(profiles.iter().map(|p| f(p)))
}

fn taxon_stats(taxon: Taxon, profiles: &[&EvolutionProfile]) -> TaxonStats {
    let activities: Vec<f64> = profiles.iter().map(|p| p.total_activity as f64).collect();
    let actives: Vec<f64> = profiles.iter().map(|p| p.active_commits as f64).collect();
    let shares: Vec<f64> = profiles
        .iter()
        .filter_map(|p| p.ddl_commit_share())
        .collect();
    let shapes = [
        ShapeClass::Flat,
        ShapeClass::SingleStepUp,
        ShapeClass::MultiStepRise,
        ShapeClass::Dropping,
        ShapeClass::Turbulent,
    ];
    TaxonStats {
        taxon,
        count: profiles.len(),
        sup_months: summarize(profiles, |p| p.sup_months),
        total_activity: summarize(profiles, |p| p.total_activity),
        commits: summarize(profiles, |p| p.commits),
        active_commits: summarize(profiles, |p| p.active_commits),
        reeds: summarize(profiles, |p| p.reeds),
        turf: summarize(profiles, |p| p.turf),
        table_insertions: summarize(profiles, |p| p.table_insertions),
        table_deletions: summarize(profiles, |p| p.table_deletions),
        tables_start: summarize(profiles, |p| p.tables_start),
        tables_end: summarize(profiles, |p| p.tables_end),
        activity_quartiles: Quartiles::of(&activities),
        active_commit_quartiles: Quartiles::of(&actives),
        pup_over_24_pct: percent_where(profiles, |p| {
            p.context.map(|c| c.pup_months > 24).unwrap_or(false)
        }),
        pup_over_12_pct: percent_where(profiles, |p| {
            p.context.map(|c| c.pup_months > 12).unwrap_or(false)
        }),
        ddl_share_median_pct: if shares.is_empty() {
            0.0
        } else {
            schevo_stats::median(&shares)
        },
        shape_pct: shapes
            .iter()
            .map(|&s| (s, percent_where(profiles, |p| p.shape == s)))
            .collect(),
    }
}

/// Fold the funnel's reject ledger into the metrics registry:
/// `funnel.reject.<reason>` counters for every drop stage, plus gauges
/// for the surviving populations.
fn record_funnel_rejects(reg: &schevo_obs::metrics::Registry, report: &FunnelReport) {
    let rejects = [
        ("not_in_libio", report.not_in_libio),
        ("forks", report.forks),
        ("zero_stars", report.zero_stars),
        ("one_contributor", report.one_contributor),
        ("excluded_paths", report.excluded_paths),
        ("multi_file", report.multi_file),
        ("zero_versions", report.zero_versions),
        ("empty_or_no_ct", report.empty_or_no_ct),
        ("rigid", report.rigid),
    ];
    for (reason, count) in rejects {
        reg.add(&format!("funnel.reject.{reason}"), count as u64);
    }
    reg.set_gauge("funnel.sql_collection", report.sql_collection as u64);
    reg.set_gauge("funnel.lib_io", report.lib_io as u64);
    reg.set_gauge("funnel.cloned", report.cloned as u64);
    reg.set_gauge("funnel.analyzed", report.analyzed as u64);
}

/// Map a study-aborting error to the CLI exit code contract: every
/// [`SchevoError`] that escapes a study run — strict-mode degradation,
/// journal failure — exits with code 3 (2 is flag misuse, 1 is I/O).
pub fn exit_code(_error: &SchevoError) -> i32 {
    3
}

/// Run the complete study over any [`CandidateSource`] — the in-memory
/// universe or a sharded on-disk store — with a fresh engine over
/// `options`. See [`MiningEngine::study`].
pub fn try_run_study_source(
    source: &dyn CandidateSource,
    options: StudyOptions,
) -> Result<StudyResult, SchevoError> {
    MiningEngine::new(options).study(source)
}

impl MiningEngine {
    /// Run the complete study over `source`: stream its candidates through
    /// [`MiningEngine::mine`], then run the statistical battery on the
    /// mined population. Output is byte-identical across backends, with
    /// or without a warm outcome memo.
    ///
    /// The `study.stage.{funnel,mine,stats}.nanos` gauges are stage-guard
    /// durations: funnel is the `source.read` span, mine is the
    /// `study.mine` span less `source.read`, stats is the `study.stats`
    /// span. The caller polls the source while the workers mine, so at 2
    /// or more workers the funnel stage absorbs the overlap and mine reads
    /// near 0; funnel + mine (the `study.mine` span) holds at any worker
    /// count. From a [`crate::source::GeneratedSource`], which funnels on
    /// its producer thread, funnel is the caller's wait for the next
    /// survivor.
    ///
    /// Errors come from [`MiningEngine::mine`] (an unusable journal) or, with [`StudyOptions::strict`] set, are the first
    /// degradation event the pass recorded.
    pub fn study(&self, source: &dyn CandidateSource) -> Result<StudyResult, SchevoError> {
        let options = self.options();
        let registry = options.obs.registry.clone();
        let registry = registry.as_deref();
        let strict = options.strict;
        let used_reed_threshold = options.reed_threshold.unwrap_or(REED_THRESHOLD);

        let _caller_lane = options.obs.trace.as_ref().map(|s| scope::install(s, 0));
        let mining = stage!("study.mine", candidates = source.size_hint().unwrap_or(0));
        let output = self.mine(source)?;
        let mine_nanos = mining.close();
        if let Some(reg) = registry {
            // The funnel runs inside the source, one record per step as
            // the stream is polled, on either backend; its stage wall time
            // is the `source.read` span.
            reg.set_gauge("study.stage.funnel.nanos", output.source_nanos);
            reg.set_gauge(
                "study.stage.mine.nanos",
                mine_nanos.saturating_sub(output.source_nanos),
            );
            record_funnel_rejects(reg, &output.funnel);
        }
        if strict {
            if let Some(e) = output.quarantine.first_error() {
                return Err(e.clone());
            }
        }
        let report = output.funnel;
        let mined = output.mined;
        let quarantine = output.quarantine;
        let exec = output.exec;
        let journal = output.journal;

        let stats_clock = stage!("study.stats");
        let fk_profiles: Vec<schevo_core::fk::FkProfile> = mined.iter().map(|m| m.fk).collect();
        let pooled_lives: Vec<schevo_core::tables::TableLife> = mined
            .iter()
            .flat_map(|m| m.table_lives.iter().cloned())
            .collect();
        let profiles: Vec<EvolutionProfile> = mined.into_iter().map(|m| m.profile).collect();

        // Reed-threshold derivation (§III-B): activities of single-active-commit
        // projects, 85% split.
        let single_ac: Vec<u64> = profiles
            .iter()
            .filter(|p| p.active_commits == 1)
            .map(|p| p.total_activity)
            .collect();
        let derived_reed_threshold = derive_reed_threshold(&single_ac);

        // Per-taxon stats.
        let taxa: Vec<TaxonStats> = Taxon::ALL
            .iter()
            .map(|&t| {
                let members: Vec<&EvolutionProfile> = profiles
                    .iter()
                    .filter(|p| p.class == ProjectClass::Taxon(t))
                    .collect();
                taxon_stats(t, &members)
            })
            .collect();

        // Statistical battery.
        let group = |t: Taxon, f: &dyn Fn(&EvolutionProfile) -> f64| -> Vec<f64> {
            profiles
                .iter()
                .filter(|p| p.class == ProjectClass::Taxon(t))
                .map(f)
                .collect()
        };
        let act = |p: &EvolutionProfile| p.total_activity as f64;
        let ac = |p: &EvolutionProfile| p.active_commits as f64;
        // Ablation thresholds can empty a taxon; KW runs over non-empty groups.
        let all_groups_act: Vec<Vec<f64>> = Taxon::ALL
            .iter()
            .map(|&t| group(t, &act))
            .filter(|g| !g.is_empty())
            .collect();
        let all_groups_ac: Vec<Vec<f64>> = Taxon::ALL
            .iter()
            .map(|&t| group(t, &ac))
            .filter(|g| !g.is_empty())
            .collect();
        let refs_act: Vec<&[f64]> = all_groups_act.iter().map(|g| g.as_slice()).collect();
        let refs_ac: Vec<&[f64]> = all_groups_ac.iter().map(|g| g.as_slice()).collect();
        let kw_activity = kruskal_wallis(&refs_act).expect("≥2 non-degenerate groups");
        let kw_active_commits = kruskal_wallis(&refs_ac).expect("≥2 non-degenerate groups");
        let labelled_act: Vec<(String, Vec<f64>)> = Taxon::NON_FROZEN
            .iter()
            .map(|&t| (t.short().to_string(), group(t, &act)))
            .filter(|(_, g)| !g.is_empty())
            .collect();
        let labelled_ac: Vec<(String, Vec<f64>)> = Taxon::NON_FROZEN
            .iter()
            .map(|&t| (t.short().to_string(), group(t, &ac)))
            .filter(|(_, g)| !g.is_empty())
            .collect();
        let pairwise_activity = pairwise_kruskal(&labelled_act).expect("pairwise activity");
        let pairwise_active_commits =
            pairwise_kruskal(&labelled_ac).expect("pairwise active commits");
        let all_act: Vec<f64> = profiles.iter().map(act).collect();
        let all_ac: Vec<f64> = profiles.iter().map(ac).collect();
        let shapiro_activity = shapiro_wilk(&all_act).expect("SW on activity");
        let shapiro_active_commits = shapiro_wilk(&all_ac).expect("SW on active commits");
        let activity_ac_spearman = spearman(&all_act, &all_ac).expect("Spearman on activity/AC");

        // Narrative percentages.
        let cloned = report.cloned.max(1) as f64;
        let count_of = |t: Taxon|

            profiles
                .iter()
                .filter(|p| p.class == ProjectClass::Taxon(t))
                .count() as f64;
        let frozen = count_of(Taxon::Frozen);
        let almost = count_of(Taxon::AlmostFrozen);
        let fsf: Vec<&EvolutionProfile> = profiles
            .iter()
            .filter(|p| p.class == ProjectClass::Taxon(Taxon::FocusedShotFrozen))
            .collect();
        let moderate: Vec<&EvolutionProfile> = profiles
            .iter()
            .filter(|p| p.class == ProjectClass::Taxon(Taxon::Moderate))
            .collect();
        let narrative = Narrative {
            rigid_pct_of_cloned: 100.0 * report.rigid as f64 / cloned,
            frozen_pct_of_cloned: 100.0 * frozen / cloned,
            almost_frozen_pct_of_cloned: 100.0 * almost / cloned,
            little_or_none_pct_of_cloned: 100.0 * (report.rigid as f64 + frozen + almost)
                / cloned,
            zero_to_three_active_pct: percent_where(&profiles, |p| p.active_commits <= 3),
            pup_over_24_pct: percent_where(&profiles, |p| {
                p.context.map(|c| c.pup_months > 24).unwrap_or(false)
            }),
            pup_over_12_pct: percent_where(&profiles, |p| {
                p.context.map(|c| c.pup_months > 12).unwrap_or(false)
            }),
            fsf_single_active_flat_pct: percent_where(&fsf, |p| {
                p.active_commits == 1 && p.shape == ShapeClass::Flat
            }),
            fsf_single_step_pct: percent_where(&fsf, |p| p.shape == ShapeClass::SingleStepUp),
            moderate_rise_pct: percent_where(&moderate, |p| p.shape.is_rise()),
            moderate_flat_pct: percent_where(&moderate, |p| p.shape == ShapeClass::Flat),
        };

        let fk = fk_corpus_stats(&fk_profiles);
        let electrolysis = electrolysis(&pooled_lives);
        let fate_activity_chi2 = {
            let ct = fate_activity_table(&pooled_lives);
            let rows: Vec<Vec<u64>> = ct.iter().map(|r| r.to_vec()).collect();
            schevo_stats::chi2_independence(&rows).ok()
        };
        let stats_nanos = stats_clock.close();
        if let Some(reg) = registry {
            reg.set_gauge("study.stage.stats.nanos", stats_nanos);
        }

        Ok(StudyResult {
            report,
            profiles,
            taxa,
            stats: StatisticsBattery {
                kw_activity,
                kw_active_commits,
                pairwise_activity,
                pairwise_active_commits,
                shapiro_activity,
                shapiro_active_commits,
                activity_ac_spearman,
            },
            derived_reed_threshold,
            used_reed_threshold,
            narrative,
            quarantine,
            fk,
            electrolysis,
            fate_activity_chi2,
            exec,
            journal,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use schevo_corpus::universe::{generate, UniverseConfig};

    fn small_study() -> StudyResult {
        let u = generate(UniverseConfig::small(2019, 8));
        try_run_study_source(&u, StudyOptions::default()).expect("clean corpus")
    }

    #[test]
    fn study_recovers_taxa_counts() {
        let u = generate(UniverseConfig::small(2019, 8));
        let s = try_run_study_source(&u, StudyOptions::default()).expect("clean corpus");
        assert!(s.quarantine.is_clean());
        for (i, &t) in Taxon::ALL.iter().enumerate() {
            assert_eq!(
                s.taxon_stats(t).count,
                u.expected.taxa[i],
                "{t:?} count mismatch"
            );
        }
        assert_eq!(s.profiles.len(), u.expected.analyzed);
    }

    #[test]
    fn overall_kw_is_significant_with_df5() {
        // At 1/8 scale the population is ~24 projects, so the attainable
        // significance is bounded (H ≤ n−1); the full-scale bound of the
        // paper (p < 2.2e-16) is asserted by the integration tests.
        let s = small_study();
        assert_eq!(s.stats.kw_activity.df, 5);
        assert!(s.stats.kw_activity.p_value < 0.01);
        assert_eq!(s.stats.kw_active_commits.df, 5);
        assert!(s.stats.kw_active_commits.p_value < 0.01);
    }

    #[test]
    fn activity_is_non_normal() {
        let s = small_study();
        assert!(s.stats.shapiro_activity.w < 0.7);
        assert!(s.stats.shapiro_activity.p_value < 0.01);
    }

    #[test]
    fn taxa_ordering_by_median_activity() {
        let s = small_study();
        let med = |t: Taxon| s.taxon_stats(t).total_activity.map(|x| x.median).unwrap_or(0.0);
        assert!(med(Taxon::AlmostFrozen) < med(Taxon::FocusedShotFrozen));
        assert!(med(Taxon::FocusedShotLow) > med(Taxon::Moderate));
        assert!(med(Taxon::Active) > med(Taxon::FocusedShotLow));
    }

    #[test]
    fn narrative_shapes_are_populated() {
        let s = small_study();
        assert!(s.narrative.rigid_pct_of_cloned > 30.0);
        assert!(s.narrative.little_or_none_pct_of_cloned > 55.0);
        assert!(s.narrative.zero_to_three_active_pct > 40.0);
        // Reed threshold derivation lands in the plausible band.
        assert!(
            (8..=25).contains(&s.derived_reed_threshold),
            "derived = {}",
            s.derived_reed_threshold
        );
        assert_eq!(s.used_reed_threshold, schevo_core::heartbeat::REED_THRESHOLD);
    }
}
