//! One renderer per table/figure of the paper. Every renderer returns both
//! a human-readable text block and (where meaningful) a CSV data series, so
//! `schevo study` and the `full_study` example print the same rows the paper
//! reports.

use crate::chart::{line_chart, loglog_scatter, signed_bars};
use crate::csv::Csv;
use crate::table::{fmt_num, fmt_p, TextTable};
use schevo_core::measures::{measure_history, monthly_activity};
use schevo_core::tempo::{tempo, Tempo, IDLE_THRESHOLD_DAYS};
use schevo_core::model::SchemaHistory;
use schevo_core::taxa::{ProjectClass, Taxon};
use schevo_corpus::realize::GeneratedProject;
use schevo_pipeline::funnel::FunnelReport;
use schevo_pipeline::study::StudyResult;
use schevo_stats::describe::Summary;
use schevo_vcs::history::{file_history, WalkStrategy};

/// Mined series of one project, feeding the per-project figures.
#[derive(Debug)]
pub struct ProjectSeries {
    /// Project name.
    pub name: String,
    /// `(days since V0, tables, attributes)` per version.
    pub size_line: Vec<(i64, usize, usize)>,
    /// `(transition id, expansion, maintenance)` per transition.
    pub heartbeat: Vec<(usize, u64, u64)>,
    /// `(running month, expansion, maintenance)` aggregated.
    pub monthly: Vec<(i64, u64, u64)>,
    /// Tempo of the active commits (gaps, idleness, burstiness).
    pub tempo: Tempo,
}

impl ProjectSeries {
    /// Mine the series out of a generated project's repository.
    pub fn mine(project: &GeneratedProject) -> ProjectSeries {
        let versions = file_history(&project.repo, &project.ddl_path, WalkStrategy::FirstParent)
            .expect("extractable repository");
        let history = SchemaHistory::from_file_versions(project.plan.name.clone(), &versions)
            .expect("parseable history");
        ProjectSeries::from_history(&history)
    }

    /// Build the series from an already-parsed history.
    pub fn from_history(history: &SchemaHistory) -> ProjectSeries {
        let measures = measure_history(history);
        ProjectSeries {
            name: history.project.clone(),
            size_line: history.size_line(),
            heartbeat: measures
                .iter()
                .map(|m| (m.transition_id, m.expansion(), m.maintenance()))
                .collect(),
            monthly: monthly_activity(&measures),
            tempo: tempo(&measures, IDLE_THRESHOLD_DAYS),
        }
    }

    /// CSV of the schema-size line.
    pub fn size_csv(&self) -> Csv {
        let mut c = Csv::new(["days_since_v0", "tables", "attributes"]);
        for &(d, t, a) in &self.size_line {
            c.push_row([d.to_string(), t.to_string(), a.to_string()]);
        }
        c
    }

    /// CSV of the heartbeat.
    pub fn heartbeat_csv(&self) -> Csv {
        let mut c = Csv::new(["transition_id", "expansion", "maintenance"]);
        for &(i, e, m) in &self.heartbeat {
            c.push_row([i.to_string(), e.to_string(), m.to_string()]);
        }
        c
    }

    /// CSV of the per-month aggregation.
    pub fn monthly_csv(&self) -> Csv {
        let mut c = Csv::new(["month", "expansion", "maintenance"]);
        for &(m, e, x) in &self.monthly {
            c.push_row([m.to_string(), e.to_string(), x.to_string()]);
        }
        c
    }

    /// The full two-panel text figure: size line (left panel of the paper's
    /// figures) and heartbeat (right panel). `monthly` selects the Fig. 1/9
    /// style of monthly aggregation for the activity panel.
    pub fn render(&self, monthly: bool) -> String {
        let mut out = format!("── {} ──\n", self.name);
        out.push_str("schema size (#tables over days since V0):\n");
        let pts: Vec<(f64, f64)> = self
            .size_line
            .iter()
            .map(|&(d, t, _)| (d as f64, t as f64))
            .collect();
        out.push_str(&line_chart(&pts, 64, 10));
        if monthly {
            out.push_str("\nactivity per month (expansion ↑ / maintenance ↓):\n");
            let bars: Vec<(u64, u64)> = self.monthly.iter().map(|&(_, e, m)| (e, m)).collect();
            out.push_str(&signed_bars(&bars, 6));
        } else {
            out.push_str("\nheartbeat over transition id (expansion ↑ / maintenance ↓):\n");
            let bars: Vec<(u64, u64)> = self.heartbeat.iter().map(|&(_, e, m)| (e, m)).collect();
            out.push_str(&signed_bars(&bars, 6));
        }
        if self.tempo.active_commits >= 2 {
            out.push_str(&format!(
                "tempo: median gap {:.0}d, max gap {}d, {} idle period(s), burstiness {:+.2}\n",
                self.tempo.median_gap_days,
                self.tempo.max_gap_days,
                self.tempo.idle_periods,
                self.tempo.burstiness
            ));
        }
        out
    }
}

/// The funnel table of §III-A (data-collection counts).
pub fn funnel_table(report: &FunnelReport) -> String {
    let mut t = TextTable::new(["stage", "count"]);
    t.row(["SQL-Collection repositories", &report.sql_collection.to_string()]);
    t.row(["  − not in Libraries.io", &report.not_in_libio.to_string()]);
    t.row(["  − forks", &report.forks.to_string()]);
    t.row(["  − zero stars", &report.zero_stars.to_string()]);
    t.row(["  − single contributor", &report.one_contributor.to_string()]);
    t.row(["  − test/demo/example paths", &report.excluded_paths.to_string()]);
    t.row(["  − unresolvable multi-file", &report.multi_file.to_string()]);
    t.row(["Lib-io data set", &report.lib_io.to_string()]);
    t.row(["  − zero-version extractions", &report.zero_versions.to_string()]);
    t.row(["  − empty / no CREATE TABLE", &report.empty_or_no_ct.to_string()]);
    t.row(["cloned repositories", &report.cloned.to_string()]);
    t.row(["  − rigid (single version)", &report.rigid.to_string()]);
    t.row(["Schema_Evo_2019 (analyzed)", &report.analyzed.to_string()]);
    t.render()
}

/// Fault-tolerance accounting: degradation events by error class. Empty
/// corpora render a single "clean run" row so the table is always
/// well-formed.
pub fn quarantine_table(study: &StudyResult) -> String {
    let q = &study.quarantine;
    let mut t = TextTable::new(["error class", "recovered", "quarantined"]);
    if q.is_clean() {
        t.row(["(clean run)", "0", "0"]);
        return t.render();
    }
    for (class, rec, quar) in q.class_counts() {
        t.row([class.label(), &rec.to_string(), &quar.to_string()]);
    }
    t.row([
        "total",
        &q.recovered.len().to_string(),
        &q.quarantined.len().to_string(),
    ]);
    t.render()
}

/// Table I: the taxa definitions, verbatim from the classification tree.
pub fn table1_definitions() -> String {
    let mut t = TextTable::new(["taxon", "definition"]);
    t.row(["History-less", "only 1 commit of the .sql file (not studied)"]);
    t.row(["Frozen", "0 active commits, 0 activity"]);
    t.row(["Almost Frozen", "≤3 active commits, ≤10 updated attributes"]);
    t.row([
        "Focused Shot & Frozen",
        "≤3 active commits, >10 updated attributes",
    ]);
    t.row([
        "Focused Shot & Low",
        "4–10 active commits, 1–2 reeds",
    ]);
    t.row(["Moderate", "none of the rest, <90 updated attributes"]);
    t.row(["Active", "none of the rest, ≥90 updated attributes"]);
    t.render()
}

fn cell(s: &Option<Summary>, f: impl Fn(&Summary) -> f64) -> String {
    s.as_ref().map(|x| fmt_num(f(x))).unwrap_or_else(|| "-".into())
}

/// Accessor into a taxon's summary block (used by the Fig. 4 renderer).
type SummaryAccessor = fn(&schevo_pipeline::study::TaxonStats) -> &Option<Summary>;

/// Fig. 4: measurements per taxon (min / med / max / avg for ten measures).
pub fn fig04_table(study: &StudyResult) -> String {
    let mut out = String::new();
    let measures: [(&str, SummaryAccessor); 10] = [
        ("Sch. Upd. Period (months)", |t| &t.sup_months),
        ("Total Activity", |t| &t.total_activity),
        ("#Commits", |t| &t.commits),
        ("#Active Commits", |t| &t.active_commits),
        ("#Reeds", |t| &t.reeds),
        ("Turf commits", |t| &t.turf),
        ("Table Insertions", |t| &t.table_insertions),
        ("Table Deletions", |t| &t.table_deletions),
        ("#Tables@Start", |t| &t.tables_start),
        ("#Tables@End", |t| &t.tables_end),
    ];
    let mut header = vec!["measure".to_string(), "stat".to_string()];
    for taxon in Taxon::ALL {
        header.push(study.taxon_stats(taxon).taxon.short().to_string());
    }
    let mut t = TextTable::new(header);
    let mut counts = vec!["Count".to_string(), "".to_string()];
    for taxon in Taxon::ALL {
        counts.push(study.taxon_stats(taxon).count.to_string());
    }
    t.row(counts);
    for (label, get) in measures {
        for (stat, f) in [
            ("min", (|s: &Summary| s.min) as fn(&Summary) -> f64),
            ("med", |s| s.median),
            ("max", |s| s.max),
            ("avg", |s| s.mean),
        ] {
            let mut row = vec![
                if stat == "min" { label.to_string() } else { String::new() },
                stat.to_string(),
            ];
            for taxon in Taxon::ALL {
                row.push(cell(get(study.taxon_stats(taxon)), f));
            }
            t.row(row);
        }
    }
    out.push_str(&t.render());
    out
}

/// Fig. 4 as CSV (long format: taxon, measure, min, med, max, avg).
pub fn fig04_csv(study: &StudyResult) -> Csv {
    let mut c = Csv::new(["taxon", "measure", "min", "median", "max", "avg", "count"]);
    for taxon in Taxon::ALL {
        let ts = study.taxon_stats(taxon);
        let rows: [(&str, &Option<Summary>); 10] = [
            ("sup_months", &ts.sup_months),
            ("total_activity", &ts.total_activity),
            ("commits", &ts.commits),
            ("active_commits", &ts.active_commits),
            ("reeds", &ts.reeds),
            ("turf", &ts.turf),
            ("table_insertions", &ts.table_insertions),
            ("table_deletions", &ts.table_deletions),
            ("tables_start", &ts.tables_start),
            ("tables_end", &ts.tables_end),
        ];
        for (m, s) in rows {
            if let Some(s) = s {
                c.push_row([
                    taxon.short().to_string(),
                    m.to_string(),
                    fmt_num(s.min),
                    fmt_num(s.median),
                    fmt_num(s.max),
                    format!("{:.2}", s.mean),
                    ts.count.to_string(),
                ]);
            }
        }
    }
    c
}

fn taxon_glyph(t: Taxon) -> char {
    match t {
        Taxon::Frozen => 'z',
        Taxon::AlmostFrozen => 'a',
        Taxon::FocusedShotFrozen => 'f',
        Taxon::Moderate => 'm',
        Taxon::FocusedShotLow => 'L',
        Taxon::Active => 'A',
    }
}

/// Fig. 10: log-log scatter of activity (x) vs active commits (y), one
/// glyph per taxon (Frozen omitted — zero does not plot on log axes).
pub fn fig10_scatter(study: &StudyResult) -> String {
    let points: Vec<(f64, f64, char)> = study
        .profiles
        .iter()
        .filter_map(|p| match p.class {
            ProjectClass::Taxon(Taxon::Frozen) | ProjectClass::HistoryLess => None,
            ProjectClass::Taxon(t) => Some((
                p.total_activity as f64,
                p.active_commits as f64,
                taxon_glyph(t),
            )),
        })
        .collect();
    let mut out = String::from(
        "Fig. 10 — project profiles (a: almost frozen, f: FS&frozen, m: moderate, L: FS&low, A: active)\n",
    );
    out.push_str(&loglog_scatter(&points, 72, 20));
    out.push_str(&format!(
        "Spearman ρ(activity, active commits) = {:.3} (p {})\n",
        study.stats.activity_ac_spearman.rho,
        fmt_p(study.stats.activity_ac_spearman.p_value)
    ));
    out
}

/// Fig. 10 data as CSV.
pub fn fig10_csv(study: &StudyResult) -> Csv {
    let mut c = Csv::new(["project", "taxon", "total_activity", "active_commits"]);
    for p in &study.profiles {
        if let ProjectClass::Taxon(t) = p.class {
            c.push_row([
                p.project.clone(),
                t.short().to_string(),
                p.total_activity.to_string(),
                p.active_commits.to_string(),
            ]);
        }
    }
    c
}

/// Fig. 11: the pairwise Kruskal–Wallis matrix — lower-left triangle holds
/// active-commit p-values, upper-right holds activity p-values, exactly the
/// paper's layout.
pub fn fig11_matrix(study: &StudyResult) -> String {
    let labels = &study.stats.pairwise_activity.labels;
    let mut header = vec!["".to_string()];
    header.extend(labels.iter().cloned());
    let mut t = TextTable::new(header);
    for (i, row_label) in labels.iter().enumerate() {
        let mut row = vec![row_label.clone()];
        for j in 0..labels.len() {
            if i == j {
                row.push("—".to_string());
            } else if i < j {
                row.push(fmt_p(study.stats.pairwise_activity.p[i][j]));
            } else {
                row.push(fmt_p(study.stats.pairwise_active_commits.p[i][j]));
            }
        }
        t.row(row);
    }
    let mut out = String::from(
        "Fig. 11 — pairwise Kruskal–Wallis p-values (lower: active commits, upper: activity)\n",
    );
    out.push_str(&t.render());
    out.push_str(&format!(
        "\noverall: activity χ² = {:.2}, df = {}, p {}; active commits χ² = {:.2}, df = {}, p {}\n",
        study.stats.kw_activity.statistic,
        study.stats.kw_activity.df,
        fmt_p(study.stats.kw_activity.p_value),
        study.stats.kw_active_commits.statistic,
        study.stats.kw_active_commits.df,
        fmt_p(study.stats.kw_active_commits.p_value),
    ));
    out.push_str(&format!(
        "Shapiro–Wilk on activity: W = {:.5}, p {}\n",
        study.stats.shapiro_activity.w,
        fmt_p(study.stats.shapiro_activity.p_value),
    ));
    out
}

/// Fig. 12: quartiles of activity and active commits per (non-frozen) taxon.
pub fn fig12_quartiles(study: &StudyResult) -> String {
    let mut out = String::from("Fig. 12 — quartiles per taxon\n");
    for (title, pick) in [
        (
            "Active Commits",
            (|t: &schevo_pipeline::study::TaxonStats| t.active_commit_quartiles)
                as fn(&schevo_pipeline::study::TaxonStats) -> Option<schevo_stats::Quartiles>,
        ),
        ("Activity", |t| t.activity_quartiles),
    ] {
        let mut table = TextTable::new(["stat", "Alm. Frozen", "FS_Frozen", "Moderate", "FS_Low", "Active"]);
        for (label, get) in [
            ("MIN", (|q: &schevo_stats::Quartiles| q.min) as fn(&schevo_stats::Quartiles) -> f64),
            ("Q1", |q| q.q1),
            ("Q2", |q| q.q2),
            ("Q3", |q| q.q3),
            ("MAX", |q| q.max),
        ] {
            let mut row = vec![label.to_string()];
            for taxon in Taxon::NON_FROZEN {
                let q = pick(study.taxon_stats(taxon));
                row.push(q.map(|q| fmt_num(get(&q))).unwrap_or_else(|| "-".into()));
            }
            table.row(row);
        }
        out.push_str(&format!("\n{title}:\n"));
        out.push_str(&table.render());
    }
    out
}

/// Fig. 13: the double box plot data (Q1/Q2/Q3 boxes in the activity ×
/// active-commits plane, per taxon).
pub fn fig13_boxplot(study: &StudyResult) -> String {
    let mut out = String::from(
        "Fig. 13 — double box plot data (activity on x, active commits on y)\n",
    );
    let mut t = TextTable::new([
        "taxon", "act.min", "act.Q1", "act.Q2", "act.Q3", "act.max", "ac.min", "ac.Q1", "ac.Q2",
        "ac.Q3", "ac.max",
    ]);
    for taxon in Taxon::NON_FROZEN {
        let ts = study.taxon_stats(taxon);
        let (Some(a), Some(c)) = (ts.activity_quartiles, ts.active_commit_quartiles) else {
            continue;
        };
        t.row([
            taxon.short().to_string(),
            fmt_num(a.min),
            fmt_num(a.q1),
            fmt_num(a.q2),
            fmt_num(a.q3),
            fmt_num(a.max),
            fmt_num(c.min),
            fmt_num(c.q1),
            fmt_num(c.q2),
            fmt_num(c.q3),
            fmt_num(c.max),
        ]);
    }
    out.push_str(&t.render());
    out
}

/// The narrative block (§IV-B..F and §VI headline percentages).
pub fn narrative_table(study: &StudyResult) -> String {
    let n = &study.narrative;
    let mut t = TextTable::new(["statistic", "measured", "paper"]);
    let rows: [(&str, f64, &str); 11] = [
        ("rigid projects, % of cloned", n.rigid_pct_of_cloned, "40"),
        ("frozen, % of cloned", n.frozen_pct_of_cloned, "10"),
        ("almost frozen, % of cloned", n.almost_frozen_pct_of_cloned, "20"),
        ("little-or-no change, % of cloned", n.little_or_none_pct_of_cloned, "70"),
        ("0–3 active commits, % of analyzed", n.zero_to_three_active_pct, "64"),
        ("PUP > 24 months, % of analyzed", n.pup_over_24_pct, "65"),
        ("PUP > 12 months, % of analyzed", n.pup_over_12_pct, "77"),
        ("FS&F single active commit + flat line, %", n.fsf_single_active_flat_pct, "36"),
        ("FS&F single step-up, %", n.fsf_single_step_pct, "52"),
        ("Moderate rising line, %", n.moderate_rise_pct, "65"),
        ("Moderate flat line, %", n.moderate_flat_pct, "10"),
    ];
    for (label, v, paper) in rows {
        t.row([label.to_string(), format!("{v:.0}"), paper.to_string()]);
    }
    let mut out = String::from("Narrative statistics (measured vs. paper)\n");
    out.push_str(&t.render());
    out.push_str(&format!(
        "reed threshold: derived {} (paper: 14), used {}\n",
        study.derived_reed_threshold, study.used_reed_threshold
    ));
    out
}

/// The extension studies (§VI open paths): foreign-key treatment and
/// table-level Electrolysis statistics.
pub fn extensions_table(study: &StudyResult) -> String {
    let fk = &study.fk;
    let el = &study.electrolysis;
    let mut t = TextTable::new(["extension statistic", "value"]);
    t.row(["projects analyzed", &fk.projects.to_string()]);
    t.row(["projects ever declaring FKs", &fk.projects_with_fks.to_string()]);
    t.row([
        "median % of FK-bearing tables (FK users)",
        &format!("{:.0}", fk.median_fk_table_pct),
    ]);
    t.row(["dangling references (final versions)", &fk.dangling_total.to_string()]);
    t.row([
        "projects with dangling references",
        &fk.projects_with_dangling.to_string(),
    ]);
    t.row(["table lives observed", &el.tables.to_string()]);
    t.row(["  survivors", &el.survivors.to_string()]);
    t.row(["  dead", &el.dead.to_string()]);
    t.row([
        "survivor median duration (days)",
        &fmt_num(el.survivor_median_duration),
    ]);
    t.row([
        "dead median duration (days)",
        &fmt_num(el.dead_median_duration),
    ]);
    t.row(["dead tables that were quiet, %", &format!("{:.0}", el.dead_quiet_pct)]);
    t.row([
        "survivors with update activity, %",
        &format!("{:.0}", el.survivor_active_pct),
    ]);
    let mut out = String::from("Extension studies — foreign keys & table lives (§VI open paths)\n");
    out.push_str(&t.render());
    if let Some(chi2) = &study.fate_activity_chi2 {
        out.push_str(&format!(
            "fate × activity independence: χ² = {:.2}, df = {}, p {} — \
             dead/survivor fate and update activity are {}\n",
            chi2.statistic,
            chi2.df,
            fmt_p(chi2.p_value),
            if chi2.p_value < 0.05 { "dependent (Electrolysis)" } else { "independent" }
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use schevo_corpus::exemplar::{build, FigureTag};
    use schevo_corpus::universe::{generate, UniverseConfig};
    use schevo_pipeline::study::{try_run_study_source, StudyOptions};

    fn study() -> StudyResult {
        let u = generate(UniverseConfig::small(2019, 12));
        try_run_study_source(&u, StudyOptions::default()).expect("clean corpus")
    }

    #[test]
    fn project_series_renders_both_panels() {
        let p = build(FigureTag::Fig2);
        let s = ProjectSeries::mine(&p);
        let text = s.render(false);
        assert!(text.contains("builderscon/octav"));
        assert!(text.contains("schema size"));
        assert!(text.contains("heartbeat"));
        let monthly = s.render(true);
        assert!(monthly.contains("per month"));
        // CSVs carry every point.
        assert_eq!(s.size_csv().len(), s.size_line.len() + 1);
        assert_eq!(s.heartbeat_csv().len(), s.heartbeat.len() + 1);
        assert_eq!(s.monthly_csv().len(), s.monthly.len() + 1);
    }

    #[test]
    fn funnel_table_contains_all_stages() {
        let s = study();
        let text = funnel_table(&s.report);
        assert!(text.contains("SQL-Collection"));
        assert!(text.contains("Schema_Evo_2019"));
        assert!(text.contains(&s.report.analyzed.to_string()));
    }

    #[test]
    fn fig04_table_has_all_taxa_and_measures() {
        let s = study();
        let text = fig04_table(&s);
        for taxon in Taxon::ALL {
            assert!(text.contains(taxon.short()), "{taxon:?}");
        }
        assert!(text.contains("Total Activity"));
        assert!(text.contains("#Tables@End"));
        let csv = fig04_csv(&s);
        // 6 taxa × 10 measures + header (Frozen rows present too).
        assert_eq!(csv.len(), 61);
    }

    #[test]
    fn fig10_and_11_and_12_and_13_render() {
        let s = study();
        let f10 = fig10_scatter(&s);
        assert!(f10.contains('A'));
        let f11 = fig11_matrix(&s);
        assert!(f11.contains("overall"));
        assert!(f11.contains("Shapiro"));
        let f12 = fig12_quartiles(&s);
        assert!(f12.contains("Active Commits"));
        assert!(f12.contains("Q2"));
        let f13 = fig13_boxplot(&s);
        assert!(f13.contains("act.Q1"));
        let n = narrative_table(&s);
        assert!(n.contains("reed threshold"));
    }

    #[test]
    fn table1_lists_all_taxa() {
        let t = table1_definitions();
        assert!(t.contains("History-less"));
        assert!(t.contains("Focused Shot & Low"));
    }
}
