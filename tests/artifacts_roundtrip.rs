//! The CSV artifacts the study writes must be well-formed: header-consistent
//! column counts and numeric payloads that re-parse.

use schevo::prelude::*;
use schevo::report::{fig04_csv, fig10_csv};

fn parse_csv(text: &str) -> Vec<Vec<String>> {
    // The artifact CSVs quote only when needed; our data never embeds
    // commas, so a plain split is a faithful reader here.
    text.lines()
        .map(|l| l.split(',').map(str::to_string).collect())
        .collect()
}

#[test]
fn fig_csvs_are_rectangular_and_numeric() {
    let universe = generate(UniverseConfig::small(2019, 16));
    let study = try_run_study_source(&universe, StudyOptions::default()).expect("clean corpus");

    let f4 = fig04_csv(&study).render();
    let rows = parse_csv(&f4);
    let width = rows[0].len();
    assert_eq!(width, 7);
    for (i, r) in rows.iter().enumerate() {
        assert_eq!(r.len(), width, "row {i} ragged");
        if i > 0 {
            for cell in &r[2..] {
                assert!(
                    cell.parse::<f64>().is_ok(),
                    "row {i}: non-numeric cell {cell}"
                );
            }
        }
    }

    let f10 = fig10_csv(&study).render();
    let rows = parse_csv(&f10);
    assert_eq!(rows[0], vec!["project", "taxon", "total_activity", "active_commits"]);
    assert_eq!(rows.len() - 1, study.profiles.len());
    for r in &rows[1..] {
        assert!(r[2].parse::<u64>().is_ok());
        assert!(r[3].parse::<u64>().is_ok());
    }
}

#[test]
fn exemplar_series_csvs_reparse() {
    for (_, project) in schevo::corpus::exemplar::all_exemplars() {
        let series = schevo::report::ProjectSeries::mine(&project);
        for csv in [series.size_csv(), series.heartbeat_csv(), series.monthly_csv()] {
            let rows = parse_csv(&csv.render());
            let width = rows[0].len();
            for (i, r) in rows.iter().enumerate() {
                assert_eq!(r.len(), width, "{}: row {i} ragged", series.name);
                if i > 0 {
                    for cell in r {
                        assert!(cell.parse::<i64>().is_ok(), "{}: {cell}", series.name);
                    }
                }
            }
        }
    }
}
