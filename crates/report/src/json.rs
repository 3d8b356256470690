//! JSON export of study results — the machine-readable artifact
//! accompanying the text reports (the paper publishes its data as
//! spreadsheets; we publish JSON).

use schevo_pipeline::study::StudyResult;
use serde::Serialize;

/// The serializable summary of a study run.
#[derive(Debug, Serialize)]
pub struct StudyExport<'a> {
    /// Funnel stage counts.
    pub funnel: &'a schevo_pipeline::funnel::FunnelReport,
    /// Per-project profiles.
    pub profiles: &'a [schevo_core::profile::EvolutionProfile],
    /// Per-taxon statistics.
    pub taxa: &'a [schevo_pipeline::study::TaxonStats],
    /// Statistical battery.
    pub stats: &'a schevo_pipeline::study::StatisticsBattery,
    /// Derived and used reed thresholds.
    pub reed_thresholds: (u64, u64),
    /// Narrative percentages.
    pub narrative: &'a schevo_pipeline::study::Narrative,
}

/// Serialize a study to pretty JSON.
///
/// # Errors
///
/// Propagates `serde_json` errors (practically unreachable for this type).
pub fn study_to_json(study: &StudyResult) -> serde_json::Result<String> {
    let export = StudyExport {
        funnel: &study.report,
        profiles: &study.profiles,
        taxa: &study.taxa,
        stats: &study.stats,
        reed_thresholds: (study.derived_reed_threshold, study.used_reed_threshold),
        narrative: &study.narrative,
    };
    serde_json::to_string_pretty(&export)
}

#[cfg(test)]
mod tests {
    use super::*;
    use schevo_corpus::universe::{generate, UniverseConfig};
    use schevo_pipeline::study::{try_run_study_source, StudyOptions};

    #[test]
    fn exports_valid_json() {
        let u = generate(UniverseConfig::small(2019, 16));
        let s = try_run_study_source(&u, StudyOptions::default()).expect("clean corpus");
        let json = study_to_json(&s).unwrap();
        let value: serde_json::Value = serde_json::from_str(&json).unwrap();
        assert_eq!(
            value["funnel"]["analyzed"].as_u64().unwrap() as usize,
            s.report.analyzed
        );
        assert_eq!(
            value["profiles"].as_array().unwrap().len(),
            s.profiles.len()
        );
        assert!(value["stats"]["kw_activity"]["statistic"].as_f64().unwrap() > 0.0);
        assert_eq!(value["reed_thresholds"][1].as_u64().unwrap(), 14);
    }
}
