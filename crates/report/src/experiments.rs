//! Generation of EXPERIMENTS.md: paper-reported values vs. values measured
//! by running this reproduction, one section per table/figure.

use crate::figures::{
    extensions_table, fig04_table, fig10_scatter, fig11_matrix, fig12_quartiles, fig13_boxplot,
    funnel_table, narrative_table, ProjectSeries,
};
use crate::table::{fmt_p, TextTable};
use schevo_core::taxa::Taxon;
use schevo_corpus::exemplar::{all_exemplars, FigureTag};
use schevo_corpus::plan::calibration;
use schevo_pipeline::ablation::{RuleOrderComparison, ThresholdPoint, WalkComparison};
use schevo_pipeline::study::StudyResult;

/// Paper-reported taxon cardinalities.
const PAPER_COUNTS: [(Taxon, usize); 6] = [
    (Taxon::Frozen, 34),
    (Taxon::AlmostFrozen, 65),
    (Taxon::FocusedShotFrozen, 25),
    (Taxon::Moderate, 29),
    (Taxon::FocusedShotLow, 20),
    (Taxon::Active, 22),
];

/// Inputs for the experiments report beyond the study itself.
#[derive(Debug, Default)]
pub struct ExperimentExtras {
    /// Reed-threshold sensitivity points, if the ablation ran.
    pub threshold_points: Vec<ThresholdPoint>,
    /// Walk-strategy comparison, if it ran.
    pub walk: Option<WalkComparison>,
    /// Rule-order comparison, if it ran.
    pub rule_order: Option<RuleOrderComparison>,
    /// Fault-injection demonstration, if the chaos pass ran.
    pub fault_demo: Option<FaultDemo>,
    /// Crash/resume demonstration, if the durability pass ran.
    pub resume_demo: Option<ResumeDemo>,
    /// Observability demonstration, if the run was instrumented.
    pub obs_demo: Option<ObsDemo>,
    /// Scale-tier demonstration, if the sharded/streaming pass ran.
    pub scale_demo: Option<ScaleDemo>,
    /// Serve-daemon demonstration, if the concurrent-load pass ran.
    pub serve_demo: Option<ServeDemo>,
}

/// Measured outcome of the serve pass: a resident `schevo serve` daemon
/// under concurrent client load, then an append-aware incremental
/// re-mine over a grown store.
#[derive(Debug, Default)]
pub struct ServeDemo {
    /// Concurrent client connections driving the load phase.
    pub clients: usize,
    /// Total study requests served during the load phase.
    pub requests: u64,
    /// Wall clock of the load phase, seconds.
    pub wall_s: f64,
    /// Served study requests per second.
    pub requests_per_s: f64,
    /// Whether every served response was byte-identical to the batch
    /// CLI over the same store.
    pub outputs_identical: bool,
    /// Fresh mines of the warm (pre-append) journaled pass.
    pub baseline_mined: u64,
    /// Records appended to the store between the two journaled passes.
    pub appended: u64,
    /// Outcomes replayed from the journal on the post-append pass.
    pub replayed: u64,
    /// Candidates re-mined on the post-append pass.
    pub mined_fresh: u64,
    /// Appended histories quarantined (poisoned on purpose).
    pub quarantined: u64,
}

/// Measured outcome of the scale-tier pass: the same study driven
/// through the resident in-memory backend and the sharded on-disk
/// streaming backend, at paper scale and at a beyond-paper multiple.
#[derive(Debug, Default)]
pub struct ScaleDemo {
    /// The beyond-paper corpus multiplier measured.
    pub factor: usize,
    /// Shard count of the streaming store.
    pub shards: usize,
    /// Whether the sharded 1× run's stdout and `study_results.json`
    /// were byte-identical to the resident backend's.
    pub outputs_identical: bool,
    /// One row per backend × scale measurement.
    pub rows: Vec<ScaleRow>,
    /// The scaled streaming run's manifest (JSON).
    pub manifest_json: String,
}

/// One backend × scale measurement of the scale-tier pass.
#[derive(Debug, Default)]
pub struct ScaleRow {
    /// Backend label (`resident` / `streaming`).
    pub backend: String,
    /// Corpus scale multiplier of this run.
    pub factor: usize,
    /// Funnel survivors mined.
    pub analyzed: u64,
    /// Mining wall clock (the funnel and mine stages, i.e. the
    /// `study.mine` span), seconds.
    pub mine_s: f64,
    /// Mining throughput, projects per second.
    pub projects_per_s: f64,
    /// Peak RSS of the run's process, MB.
    pub peak_rss_mb: f64,
}

/// Measured outcome of an instrumented run: the run manifest, the
/// per-stage wall clock, and the per-task latency distributions captured
/// by the metrics registry.
#[derive(Debug, Default)]
pub struct ObsDemo {
    /// The rendered run manifest (JSON) of the instrumented study.
    pub manifest_json: String,
    /// `(stage, wall µs)` in pipeline order.
    pub stage_walls: Vec<(String, u64)>,
    /// Per-task latency distributions, one row per histogram.
    pub latencies: Vec<LatencyRow>,
    /// Whether an instrumented run's `study_results.json` was
    /// byte-identical to an uninstrumented run of the same study.
    pub outputs_identical: bool,
}

/// One latency histogram summarized for the appendix table.
#[derive(Debug, Default)]
pub struct LatencyRow {
    /// Metric name (e.g. `mine.task.parse_nanos`).
    pub metric: String,
    /// Observations recorded.
    pub count: u64,
    /// Mean latency in microseconds.
    pub mean_us: f64,
    /// Maximum latency in microseconds.
    pub max_us: f64,
}

/// Measured outcome of the kill-at-every-point crash/resume pass: one
/// full journaled mining run is cut at a spread of record boundaries,
/// resumed, and the resumed result compared against the golden run.
#[derive(Debug, Default)]
pub struct ResumeDemo {
    /// Candidates mined by the golden (uninterrupted) run.
    pub candidates: usize,
    /// Journal records committed by the golden run.
    pub total_records: u64,
    /// One measurement per simulated crash point.
    pub points: Vec<ResumePoint>,
    /// Whether every resumed run reproduced the golden result exactly.
    pub all_identical: bool,
}

/// One simulated crash: the journal truncated after `crash_after`
/// committed records, then the study resumed from it.
#[derive(Debug, Default)]
pub struct ResumePoint {
    /// Records surviving in the journal when the process "died".
    pub crash_after: u64,
    /// Outcomes replayed from the journal on resume.
    pub replayed: usize,
    /// Candidates re-mined from scratch on resume.
    pub mined_fresh: usize,
    /// Whether the resumed mining output matched the golden run exactly.
    pub identical: bool,
}

/// Measured outcome of a fault-injection pass over the study universe:
/// how much was damaged, how much the graceful miner recovered or
/// quarantined, and whether the untouched projects still produced
/// bit-identical profiles.
#[derive(Debug, Default)]
pub struct FaultDemo {
    /// Seed of the fault plan.
    pub fault_seed: u64,
    /// Percentage of evolving projects damaged.
    pub rate_percent: u32,
    /// Injected fault count per class label, catalog order.
    pub injected: Vec<(String, usize)>,
    /// (error-class label, recovered versions, quarantined histories),
    /// only classes with at least one event.
    pub class_counts: Vec<(String, usize, usize)>,
    /// Total version-level recoveries.
    pub recovered: usize,
    /// Total quarantined histories.
    pub quarantined: usize,
    /// Whether every non-injected project's profile was bit-identical
    /// to the uninjected study.
    pub clean_subset_identical: bool,
}

/// The static fault catalog: one row per corruption class, with the
/// degradation the mining layer is expected to exhibit.
const FAULT_CATALOG: [(&str, &str, &str); 9] = [
    (
        "truncated-blob",
        "tail of the stored blob cut off",
        "statement drop, or lex recovery when cut mid-token",
    ),
    (
        "unbalanced-parens",
        "closing parenthesis removed",
        "statement-level degradation (absorbed silently)",
    ),
    (
        "unknown-vendor-clause",
        "T-SQL GO / REPLICA IDENTITY / executable comments appended",
        "parsed as unmodelled statements (absorbed silently)",
    ),
    (
        "non-ddl-noise",
        "migration INSERT + merge-conflict markers spliced in",
        "unmodelled statements, occasionally lex recovery",
    ),
    (
        "byte-flip",
        "one byte replaced by a stray quote",
        "unterminated token: lex recovery or quarantine",
    ),
    (
        "non-monotonic-timestamps",
        "adjacent commit timestamps swapped",
        "recovery re-sorts the history",
    ),
    (
        "duplicate-version",
        "consecutive identical version inserted",
        "healed by the history walk; recovered if it reaches mining",
    ),
    (
        "empty-version",
        "version content blanked",
        "dropped by the funnel; recovered if it reaches mining",
    ),
    (
        "slow-path",
        "hundreds of bulk CREATE TABLE statements appended (vendor dump)",
        "valid DDL, absorbed silently; flagged only under --deadline-ms",
    ),
];

/// Compose the full EXPERIMENTS.md content from a (paper-scale) study.
pub fn experiments_markdown(study: &StudyResult, extras: &ExperimentExtras) -> String {
    let mut md = String::new();
    md.push_str("# EXPERIMENTS — paper vs. measured\n\n");
    md.push_str(
        "Every number below is measured by running the full pipeline \
         (synthetic universe → funnel → per-version parsing → diffs → \
         classification → statistics) with seed 2019 at paper scale. \
         Paper values come from ICDE 2021, Figs. 4/10/11/12/13 and §III–§VI. \
         The corpus is synthetic (see DESIGN.md substitutions), so the claim \
         checked here is *shape*: orderings, proportions, significance \
         patterns, and the published summary statistics the generators were \
         calibrated against.\n\n",
    );

    // Funnel.
    md.push_str("## Collection funnel (§III-A)\n\n```text\n");
    md.push_str(&funnel_table(&study.report));
    md.push_str("```\n\n");
    md.push_str(&format!(
        "Paper: 133,029 → 365 → 327 (−14 zero-version, −24 empty/no-CT) → −132 rigid → 195. \
         Measured: {} → {} → {} (−{}, −{}) → −{} → {}.\n\n",
        study.report.sql_collection,
        study.report.lib_io,
        study.report.cloned,
        study.report.zero_versions,
        study.report.empty_or_no_ct,
        study.report.rigid,
        study.report.analyzed
    ));

    // Taxa cardinalities.
    md.push_str("## Taxa cardinalities (Fig. 4 header / Fig. 3)\n\n```text\n");
    let mut t = TextTable::new(["taxon", "paper", "measured"]);
    for (taxon, paper) in PAPER_COUNTS {
        t.row([
            taxon.name().to_string(),
            paper.to_string(),
            study.taxon_stats(taxon).count.to_string(),
        ]);
    }
    md.push_str(&t.render());
    md.push_str("```\n\n");

    // Fig. 4.
    md.push_str("## Fig. 4 — measurements per taxon\n\nMeasured:\n\n```text\n");
    md.push_str(&fig04_table(study));
    md.push_str("```\n\nPaper medians for comparison (activity / active commits):\n\n```text\n");
    let mut t = TextTable::new(["taxon", "act.med (paper)", "act.med (ours)", "ac.med (paper)", "ac.med (ours)"]);
    for taxon in Taxon::ALL {
        let cal = calibration(taxon);
        let ts = study.taxon_stats(taxon);
        t.row([
            taxon.short().to_string(),
            cal.activity.map(|k| k[2].to_string()).unwrap_or("0".into()),
            ts.total_activity
                .map(|s| s.median.to_string())
                .unwrap_or("-".into()),
            cal.active_commits
                .map(|k| k[2].to_string())
                .unwrap_or("0".into()),
            ts.active_commits
                .map(|s| s.median.to_string())
                .unwrap_or("-".into()),
        ]);
    }
    md.push_str(&t.render());
    md.push_str("```\n\n");

    // Reed threshold.
    md.push_str("## Reed limit derivation (§III-B)\n\n");
    md.push_str(&format!(
        "Paper: 85% split of single-active-commit activities = **14**. \
         Measured: **{}** (used for classification: {}).\n\n",
        study.derived_reed_threshold, study.used_reed_threshold
    ));

    // Figures 1–9 exemplars.
    md.push_str("## Per-project figures (Figs. 1, 2, 5–9)\n\n");
    for (tag, project) in all_exemplars() {
        let series = ProjectSeries::mine(&project);
        md.push_str(&format!("### {}\n\n```text\n", tag.label()));
        let monthly = matches!(tag, FigureTag::Fig1A | FigureTag::Fig1B | FigureTag::Fig9);
        md.push_str(&series.render(monthly));
        md.push_str("```\n\n");
    }

    // Fig. 10.
    md.push_str("## Fig. 10 — activity × active commits scatter\n\n```text\n");
    md.push_str(&fig10_scatter(study));
    md.push_str("```\n\n");

    // Fig. 11 + §V.
    md.push_str("## Fig. 11 / §V — statistical battery\n\n```text\n");
    md.push_str(&fig11_matrix(study));
    md.push_str("```\n\n");
    md.push_str(&format!(
        "Paper: activity χ² = 178.22, active commits χ² = 175.27 (df = 5, both p < 2.2e-16); \
         Shapiro–Wilk W = 0.24386, p < 2.2e-16. \
         Measured: χ² = {:.2} / {:.2} (p {} / {}); W = {:.5} (p {}).\n\n",
        study.stats.kw_activity.statistic,
        study.stats.kw_active_commits.statistic,
        fmt_p(study.stats.kw_activity.p_value),
        fmt_p(study.stats.kw_active_commits.p_value),
        study.stats.shapiro_activity.w,
        fmt_p(study.stats.shapiro_activity.p_value),
    ));
    let mod_fsf = study
        .stats
        .pairwise_activity
        .get(Taxon::Moderate.short(), Taxon::FocusedShotFrozen.short());
    let mod_fsl = study
        .stats
        .pairwise_active_commits
        .get(Taxon::Moderate.short(), Taxon::FocusedShotLow.short());
    md.push_str(&format!(
        "Paper's two non-significant cells: Moderate~FS&Frozen on activity (0.7945) and \
         Moderate~FS&Low on active commits (0.2796). Measured: {} and {}.\n\n",
        mod_fsf.map(fmt_p).unwrap_or_else(|| "n/a".into()),
        mod_fsl.map(fmt_p).unwrap_or_else(|| "n/a".into()),
    ));
    let af_fsf = study
        .stats
        .pairwise_active_commits
        .get(Taxon::AlmostFrozen.short(), Taxon::FocusedShotFrozen.short());
    md.push_str(&format!(
        "Known calibration deviation: the Alm. Frozen~FS&Frozen active-commit cell is \
         borderline in the synthetic corpus (measured {}; it swings between ~0.002 and \
         ~0.11 across seeds), where the paper reports a significant separation.\n\n",
        af_fsf.map(fmt_p).unwrap_or_else(|| "n/a".into()),
    ));

    // Fig. 12 / 13.
    md.push_str("## Fig. 12 — quartiles\n\n```text\n");
    md.push_str(&fig12_quartiles(study));
    md.push_str("```\n\n## Fig. 13 — double box plot\n\n```text\n");
    md.push_str(&fig13_boxplot(study));
    md.push_str("```\n\n");

    // Narrative.
    md.push_str("## §IV/§VI narrative statistics\n\n```text\n");
    md.push_str(&narrative_table(study));
    md.push_str("```\n\n");

    // Extensions (§VI open paths).
    md.push_str("## Extensions — foreign keys & table-level lives (§VI open paths)\n\n```text\n");
    md.push_str(&extensions_table(study));
    md.push_str("```\n\n");

    // Ablations.
    if !extras.threshold_points.is_empty() || extras.walk.is_some() || extras.rule_order.is_some()
    {
        md.push_str("## Ablations\n\n");
    }
    if !extras.threshold_points.is_empty() {
        md.push_str("### Reed-threshold sensitivity\n\n```text\n");
        let mut t = TextTable::new([
            "threshold", "Frozen", "Alm.Frozen", "FS&Frozen", "Moderate", "FS&Low", "Active",
        ]);
        for p in &extras.threshold_points {
            let mut row = vec![p.threshold.to_string()];
            row.extend(p.counts.iter().map(|c| c.to_string()));
            t.row(row);
        }
        md.push_str(&t.render());
        md.push_str("```\n\n");
    }
    if let Some(w) = &extras.walk {
        md.push_str(&format!(
            "### History-walk strategy (git non-linearity threat, §III-C)\n\n\
             {} projects compared; {} differ in version count, {} differ in taxon \
             between first-parent and full-DAG walks.\n\n",
            w.compared, w.version_count_diffs, w.taxon_diffs
        ));
    }
    if let Some(r) = &extras.rule_order {
        md.push_str(&format!(
            "### Classification-rule order\n\n\
             Swapping the FS&Low rule behind the activity split moves {} of {} projects \
             (FS&Low population {} → {}), confirming the rule order resolved in DESIGN.md §4 \
             is load-bearing.\n\n",
            r.changed, r.compared, r.fslow_paper, r.fslow_alternate
        ));
    }
    if let Some(d) = &extras.fault_demo {
        md.push_str(&fault_appendix(d));
    }
    if let Some(d) = &extras.resume_demo {
        md.push_str(&resume_appendix(d));
    }
    if let Some(d) = &extras.obs_demo {
        md.push_str(&obs_appendix(d));
    }
    if let Some(d) = &extras.scale_demo {
        md.push_str(&scale_appendix(d));
    }
    if let Some(d) = &extras.serve_demo {
        md.push_str(&serve_appendix(d));
    }
    md
}

/// Keep the hand-written sections of an existing EXPERIMENTS.md: the
/// `generated` text, then `current` from its first `## ` heading that
/// `generated` does not emit. Regenerating then refreshes the measured
/// sections without dropping the appendices written after them.
pub fn splice_hand_written(generated: &str, current: &str) -> String {
    let emitted: Vec<&str> = generated.lines().filter(|l| l.starts_with("## ")).collect();
    let mut offset = 0;
    for line in current.split_inclusive('\n') {
        if line.starts_with("## ") && !emitted.contains(&line.trim_end()) {
            return format!("{}\n\n{}", generated.trim_end(), &current[offset..]);
        }
        offset += line.len();
    }
    generated.to_string()
}

/// The serve appendix: concurrent-load throughput and the append-aware
/// replayed-vs-re-mined split.
fn serve_appendix(d: &ServeDemo) -> String {
    let mut md = String::new();
    md.push_str("## Appendix — serving studies: a resident daemon under load\n\n");
    md.push_str(
        "`schevo serve` keeps one warm `MiningEngine` (shard store handle \
         plus a memo of mined outcomes keyed by the journal's candidate \
         key) resident and answers \
         study requests over a line-JSON protocol carried in \
         length-prefixed SHA-1-checksummed frames on a Unix or TCP \
         socket — the same framing the journal and shard store use on \
         disk. Admission control is explicit: at most `--max-inflight` \
         studies run concurrently and surplus requests get a typed `busy` \
         response instead of queueing; each request runs under the \
         executor's watchdog deadline. Results stay queryable by request \
         id, per-request CSV artifacts publish atomically, and a \
         `metrics` request returns the Prometheus exposition text.\n\n",
    );
    md.push_str(&format!(
        "Measured below: {} concurrent clients drove {} study requests \
         against one daemon in {:.2}s — **{:.1} requests/s**, every \
         response {} the batch CLI over the same store.\n\n",
        d.clients,
        d.requests,
        d.wall_s,
        d.requests_per_s,
        if d.outputs_identical {
            "byte-identical to"
        } else {
            "NOT identical to (regression!)"
        },
    ));
    md.push_str(&format!(
        "The daemon is append-aware: a journaled warm pass mined {} \
         candidates fresh; after `schevo append` grew the store by {} \
         record(s) (two of them poisoned), the next request replayed all \
         {} untouched outcomes from the journal and re-mined only the {} \
         appended candidate keys, quarantining the {} poisoned \
         histories under the graceful-degradation semantics above.\n\n\
         ```text\n",
        d.baseline_mined, d.appended, d.replayed, d.mined_fresh, d.quarantined,
    ));
    let mut t = TextTable::new(["pass", "replayed", "mined fresh", "quarantined"]);
    t.row([
        "warm (cold journal)".to_string(),
        "0".to_string(),
        d.baseline_mined.to_string(),
        "0".to_string(),
    ]);
    t.row([
        format!("after +{} append", d.appended),
        d.replayed.to_string(),
        d.mined_fresh.to_string(),
        d.quarantined.to_string(),
    ]);
    md.push_str(&t.render());
    md.push_str(
        "```\n\nThe concurrent differential (`tests/serve_differential.rs`), \
         the protocol fuzz suite (`crates/serve/tests/proptest_protocol.rs`) \
         and the append/kill-9 chaos pass (`tests/serve_chaos.rs`) pin these \
         behaviours across worker counts, memo use and client \
         concurrency.\n\n",
    );
    md
}

/// The scale-tier appendix: backend equivalence and the measured
/// resident-vs-streaming throughput/RSS table.
fn scale_appendix(d: &ScaleDemo) -> String {
    let mut md = String::new();
    md.push_str("## Appendix — scale tier: sharded store & streaming mining\n\n");
    md.push_str(&format!(
        "The corpus can live outside RAM: `--store-dir` generates the \
         universe straight into {} content-addressed pack shards \
         (length-prefixed, SHA-1-checksummed records) and the study \
         streams candidates from it through a bounded in-flight window, \
         so peak memory no longer grows with corpus size. At paper scale \
         the sharded backend's stdout and `study_results.json` were {} \
         the resident in-memory backend's. Measured below: both backends \
         at 1×, then the streaming backend at {}× paper scale (a corpus \
         the resident path is not expected to hold comfortably).\n\n```text\n",
        d.shards,
        if d.outputs_identical {
            "byte-identical to"
        } else {
            "NOT identical to (regression!)"
        },
        d.factor,
    ));
    let mut t = TextTable::new([
        "backend", "scale", "analyzed", "mine wall", "projects/s", "peak RSS",
    ]);
    for r in &d.rows {
        t.row([
            r.backend.clone(),
            format!("{}x", r.factor),
            r.analyzed.to_string(),
            format!("{:.2}s", r.mine_s),
            format!("{:.0}", r.projects_per_s),
            format!("{:.0} MB", r.peak_rss_mb),
        ]);
    }
    md.push_str(&t.render());
    md.push_str(&format!(
        "```\n\nRun manifest of the {}× streaming run:\n\n```json\n",
        d.factor
    ));
    md.push_str(&d.manifest_json);
    if !d.manifest_json.ends_with('\n') {
        md.push('\n');
    }
    md.push_str("```\n\n");
    md
}

/// The observability appendix: the instrumented run's manifest, its
/// stage walls, and the per-task latency table.
fn obs_appendix(d: &ObsDemo) -> String {
    let mut md = String::new();
    md.push_str("## Appendix — observability: tracing, metrics & the run manifest\n\n");
    md.push_str(
        "Every run can be instrumented without changing a single output \
         byte: `--trace-out` writes a Chrome-trace JSONL span timeline \
         (open it in Perfetto, or prepend `[` for `chrome://tracing`), \
         `--metrics-out` exports the metrics registry (counters, gauges, \
         log₂ latency histograms; `--metrics-format prom` switches to the \
         Prometheus text format), `--manifest-out` publishes a run manifest \
         tying the artifacts to the seed, flags, corpus digest, stage wall \
         times and journal/quarantine accounting, and `--progress` emits a \
         throttled per-stage heartbeat with an ETA on stderr. The study \
         reported above was itself run with the metrics registry attached; \
         everything published here came from that instrumented run.\n\n",
    );
    md.push_str(&format!(
        "An instrumented run's `study_results.json` was {} an \
         uninstrumented run of the same study (the traced-vs-untraced \
         differential in `tests/traced_differential.rs` pins this across \
         worker counts).\n\n",
        if d.outputs_identical {
            "byte-identical to"
        } else {
            "NOT identical to (regression!)"
        },
    ));
    md.push_str("Run manifest of the instrumented paper-scale study:\n\n```json\n");
    md.push_str(&d.manifest_json);
    if !d.manifest_json.ends_with('\n') {
        md.push('\n');
    }
    md.push_str("```\n\nStage wall clock:\n\n```text\n");
    let mut t = TextTable::new(["stage", "wall"]);
    for (stage, wall_us) in &d.stage_walls {
        t.row([stage.clone(), format!("{:.3}s", *wall_us as f64 / 1e6)]);
    }
    md.push_str(&t.render());
    md.push_str("```\n\nPer-task latency distributions (log₂ histograms):\n\n```text\n");
    let mut t = TextTable::new(["metric", "count", "mean", "max"]);
    if d.latencies.is_empty() {
        t.row(["(none)".to_string(), "0".to_string(), "-".to_string(), "-".to_string()]);
    }
    for row in &d.latencies {
        t.row([
            row.metric.clone(),
            row.count.to_string(),
            format!("{:.1}µs", row.mean_us),
            format!("{:.1}µs", row.max_us),
        ]);
    }
    md.push_str(&t.render());
    md.push_str("```\n\n");
    md
}

/// The crash/resume appendix: journal semantics and the measured
/// kill-at-every-point demonstration.
fn resume_appendix(d: &ResumeDemo) -> String {
    let mut md = String::new();
    md.push_str("## Appendix — crash safety & resume\n\n");
    md.push_str(
        "With `--journal`, every mined candidate outcome is committed to a \
         write-ahead journal (length-prefixed, SHA-1-checksummed records, \
         fsynced per append) before the study proceeds, and every artifact \
         is published via write-to-temp-then-rename. A killed run restarts \
         with `--resume`: the journal is replayed up to its last valid \
         record — a torn or bit-flipped tail degrades to the valid prefix — \
         and only candidates without a replayable outcome are re-mined. \
         Records are keyed by a content digest of the candidate history, so \
         a changed corpus silently invalidates stale records.\n\n",
    );
    md.push_str(&format!(
        "Measured below: one golden journaled run over {} candidates \
         ({} journal records), then the journal cut after every listed \
         commit count and the study resumed from the truncated file.\n\n\
         ```text\n",
        d.candidates, d.total_records
    ));
    let mut t = TextTable::new(["crash after", "replayed", "re-mined", "matches golden"]);
    for p in &d.points {
        t.row([
            p.crash_after.to_string(),
            p.replayed.to_string(),
            p.mined_fresh.to_string(),
            if p.identical { "yes" } else { "NO (regression!)" }.to_string(),
        ]);
    }
    md.push_str(&t.render());
    md.push_str(&format!(
        "```\n\nEvery resumed run {} the uninterrupted study. The \
         subprocess-level version of this demonstration — `--crash-after N` \
         aborting the real CLI after the Nth durable commit, resumed across \
         worker counts — is pinned by \
         `tests/crash_resume.rs`.\n\n",
        if d.all_identical {
            "reproduced byte-for-byte"
        } else {
            "FAILED to reproduce (regression!)"
        },
    ));
    md
}

/// The fault-injection appendix: catalog, quarantine semantics, and the
/// measured counts of the canonical chaos pass.
fn fault_appendix(d: &FaultDemo) -> String {
    let mut md = String::new();
    md.push_str("## Appendix — fault injection and graceful degradation\n\n");
    md.push_str(
        "Real mined histories contain damage the paper's pipeline never sees: \
         truncated blobs, unbalanced DDL, vendor-specific clauses, merge \
         debris, corrupted packs, and broken commit metadata. The mining \
         layer degrades gracefully instead of aborting: a damaged *version* \
         is repaired or dropped and recorded as a **recovery**; a history \
         with no usable versions left is **quarantined** — excluded from the \
         result with full provenance (error class, project, version index) — \
         and the study continues. `--strict` restores fail-fast behaviour. \
         The fault catalog:\n\n```text\n",
    );
    let mut t = TextTable::new(["class", "corruption", "expected degradation"]);
    for (class, what, outcome) in FAULT_CATALOG {
        t.row([class.to_string(), what.to_string(), outcome.to_string()]);
    }
    md.push_str(&t.render());
    md.push_str("```\n\n");
    let total_injected: usize = d.injected.iter().map(|(_, n)| n).sum();
    md.push_str(&format!(
        "Measured with the full catalog cycling over {}% of the evolving \
         projects (fault seed {}): **{} fault(s) injected, {} version(s) \
         recovered, {} history(ies) quarantined**, and the profiles of every \
         untouched project were {} to the uninjected study. Classes missing \
         from the event table were absorbed silently by the tolerant parser \
         or healed upstream by the history walk and funnel, as the catalog \
         predicts; the chaos differential suite \
         (`crates/pipeline/tests/chaos_differential.rs`) pins each class to \
         its expected behaviour.\n\n",
        d.rate_percent,
        d.fault_seed,
        total_injected,
        d.recovered,
        d.quarantined,
        if d.clean_subset_identical {
            "bit-identical"
        } else {
            "NOT identical (regression!)"
        },
    ));
    md.push_str("Injected faults by class:\n\n```text\n");
    let mut t = TextTable::new(["fault class", "injected"]);
    for (label, injected) in &d.injected {
        t.row([label.clone(), injected.to_string()]);
    }
    md.push_str(&t.render());
    md.push_str("```\n\nDegradation events by error class:\n\n```text\n");
    let mut t = TextTable::new(["error class", "recovered", "quarantined"]);
    if d.class_counts.is_empty() {
        t.row(["(none)".to_string(), "0".to_string(), "0".to_string()]);
    }
    for (label, r, q) in &d.class_counts {
        t.row([label.clone(), r.to_string(), q.to_string()]);
    }
    md.push_str(&t.render());
    md.push_str("```\n\n");
    md
}

#[cfg(test)]
mod tests {
    use super::*;
    use schevo_corpus::universe::{generate, UniverseConfig};
    use schevo_pipeline::study::{try_run_study_source, StudyOptions};

    #[test]
    fn splice_keeps_the_hand_written_tail() {
        let generated = "# E\n\n## Funnel\n\nnew\n\n## Appendix — serve\n\nnew\n\n";
        let current = "# E\n\n## Funnel\n\nold\n\n## Appendix — serve\n\nold\n\n\
                       ## Appendix — by hand\n\nkept\n\n## Funnel\n\nkept too\n";
        assert_eq!(
            splice_hand_written(generated, current),
            "# E\n\n## Funnel\n\nnew\n\n## Appendix — serve\n\nnew\n\n\
             ## Appendix — by hand\n\nkept\n\n## Funnel\n\nkept too\n"
        );
        // Nothing written by hand (or no file yet): the generated text.
        assert_eq!(splice_hand_written(generated, generated), generated);
        assert_eq!(splice_hand_written(generated, ""), generated);
    }

    #[test]
    fn markdown_contains_every_section() {
        let u = generate(UniverseConfig::small(2019, 12));
        let s = try_run_study_source(&u, StudyOptions::default()).expect("clean corpus");
        let md = experiments_markdown(&s, &ExperimentExtras::default());
        for section in [
            "# EXPERIMENTS",
            "## Collection funnel",
            "## Taxa cardinalities",
            "## Fig. 4",
            "## Reed limit",
            "Figure 2: reference example",
            "## Fig. 10",
            "## Fig. 11",
            "## Fig. 12",
            "## Fig. 13",
            "narrative statistics",
        ] {
            assert!(md.contains(section), "missing: {section}");
        }
    }

    #[test]
    fn markdown_includes_ablations_when_present() {
        let u = generate(UniverseConfig::small(7, 16));
        let s = try_run_study_source(&u, StudyOptions::default()).expect("clean corpus");
        let extras = ExperimentExtras {
            threshold_points: schevo_pipeline::ablation::reed_threshold_sensitivity(
                &u,
                &[10, 14],
            )
            .expect("clean corpus"),
            walk: Some(schevo_pipeline::ablation::walk_strategy_comparison(&u)),
            rule_order: Some(schevo_pipeline::ablation::rule_order_comparison(&s.profiles)),
            fault_demo: None,
            resume_demo: None,
            obs_demo: None,
            scale_demo: None,
            serve_demo: None,
        };
        let md = experiments_markdown(&s, &extras);
        assert!(md.contains("Reed-threshold sensitivity"));
        assert!(md.contains("History-walk strategy"));
        assert!(md.contains("Classification-rule order"));
    }

    #[test]
    fn markdown_includes_fault_appendix_when_present() {
        let u = generate(UniverseConfig::small(2019, 20));
        let s = try_run_study_source(&u, StudyOptions::default()).expect("clean corpus");
        let extras = ExperimentExtras {
            fault_demo: Some(FaultDemo {
                fault_seed: 7,
                rate_percent: 20,
                injected: vec![("byte-flip".into(), 2), ("empty-version".into(), 1)],
                class_counts: vec![("lex".into(), 2, 0)],
                recovered: 2,
                quarantined: 0,
                clean_subset_identical: true,
            }),
            ..Default::default()
        };
        let md = experiments_markdown(&s, &extras);
        assert!(md.contains("## Appendix — fault injection"));
        assert!(md.contains("non-monotonic-timestamps"));
        assert!(md.contains("3 fault(s) injected, 2 version(s) recovered"));
        assert!(md.contains("bit-identical"));
        // Absent demo, absent appendix.
        let md = experiments_markdown(&s, &ExperimentExtras::default());
        assert!(!md.contains("Appendix — fault injection"));
    }

    #[test]
    fn markdown_includes_obs_appendix_when_present() {
        let u = generate(UniverseConfig::small(2019, 20));
        let s = try_run_study_source(&u, StudyOptions::default()).expect("clean corpus");
        let extras = ExperimentExtras {
            obs_demo: Some(ObsDemo {
                manifest_json: "{\n  \"manifest_version\": 1\n}\n".to_string(),
                stage_walls: vec![("generate".into(), 1_500_000), ("mine".into(), 2_000_000)],
                latencies: vec![LatencyRow {
                    metric: "mine.task.parse_nanos".into(),
                    count: 195,
                    mean_us: 42.5,
                    max_us: 910.0,
                }],
                outputs_identical: true,
            }),
            ..Default::default()
        };
        let md = experiments_markdown(&s, &extras);
        assert!(md.contains("## Appendix — observability"));
        assert!(md.contains("\"manifest_version\": 1"));
        assert!(md.contains("mine.task.parse_nanos"));
        assert!(md.contains("byte-identical to"));
        assert!(!md.contains("regression!"));
        let md = experiments_markdown(&s, &ExperimentExtras::default());
        assert!(!md.contains("Appendix — observability"));
    }

    #[test]
    fn markdown_includes_scale_appendix_when_present() {
        let u = generate(UniverseConfig::small(2019, 20));
        let s = try_run_study_source(&u, StudyOptions::default()).expect("clean corpus");
        let extras = ExperimentExtras {
            scale_demo: Some(ScaleDemo {
                factor: 20,
                shards: 8,
                outputs_identical: true,
                rows: vec![
                    ScaleRow {
                        backend: "resident".into(),
                        factor: 1,
                        analyzed: 195,
                        mine_s: 4.2,
                        projects_per_s: 46.0,
                        peak_rss_mb: 310.0,
                    },
                    ScaleRow {
                        backend: "streaming".into(),
                        factor: 20,
                        analyzed: 3900,
                        mine_s: 90.0,
                        projects_per_s: 43.0,
                        peak_rss_mb: 120.0,
                    },
                ],
                manifest_json: "{\n  \"manifest_version\": 1\n}\n".to_string(),
            }),
            ..Default::default()
        };
        let md = experiments_markdown(&s, &extras);
        assert!(md.contains("## Appendix — scale tier"));
        assert!(md.contains("streaming"));
        assert!(md.contains("120 MB"));
        assert!(!md.contains("regression!"));
        let md = experiments_markdown(&s, &ExperimentExtras::default());
        assert!(!md.contains("Appendix — scale tier"));
    }

    #[test]
    fn markdown_includes_serve_appendix_when_present() {
        let u = generate(UniverseConfig::small(2019, 20));
        let s = try_run_study_source(&u, StudyOptions::default()).expect("clean corpus");
        let extras = ExperimentExtras {
            serve_demo: Some(ServeDemo {
                clients: 4,
                requests: 12,
                wall_s: 1.5,
                requests_per_s: 8.0,
                outputs_identical: true,
                baseline_mined: 48,
                appended: 6,
                replayed: 48,
                mined_fresh: 6,
                quarantined: 2,
            }),
            ..Default::default()
        };
        let md = experiments_markdown(&s, &extras);
        assert!(md.contains("## Appendix — serving studies"));
        assert!(md.contains("**8.0 requests/s**"));
        assert!(md.contains("replayed all 48 untouched outcomes"));
        assert!(!md.contains("regression!"));
        let md = experiments_markdown(&s, &ExperimentExtras::default());
        assert!(!md.contains("Appendix — serving studies"));
    }

    #[test]
    fn markdown_includes_resume_appendix_when_present() {
        let u = generate(UniverseConfig::small(2019, 20));
        let s = try_run_study_source(&u, StudyOptions::default()).expect("clean corpus");
        let extras = ExperimentExtras {
            resume_demo: Some(ResumeDemo {
                candidates: 12,
                total_records: 12,
                points: vec![
                    ResumePoint {
                        crash_after: 0,
                        replayed: 0,
                        mined_fresh: 12,
                        identical: true,
                    },
                    ResumePoint {
                        crash_after: 7,
                        replayed: 7,
                        mined_fresh: 5,
                        identical: true,
                    },
                ],
                all_identical: true,
            }),
            ..Default::default()
        };
        let md = experiments_markdown(&s, &extras);
        assert!(md.contains("## Appendix — crash safety & resume"));
        assert!(md.contains("reproduced byte-for-byte"));
        assert!(!md.contains("regression!"));
        let md = experiments_markdown(&s, &ExperimentExtras::default());
        assert!(!md.contains("Appendix — crash safety"));
    }
}
