//! The resident universe streams its funnel survivors through the same
//! per-record funnel step as the shard store.
//!
//! - The stream is lazy: after the first candidate, only a prefix of the
//!   SQL-Collection has been assessed.
//! - A survivor the universe holds no repository for is quarantined as
//!   store corruption, as on disk; the study still completes.

use schevo::pipeline::{run_funnel, SourceEvent};
use schevo::prelude::*;

#[test]
fn universe_stream_assesses_records_lazily() {
    let u = generate(UniverseConfig::small(2019, 10));
    let mut stream = u.stream(WalkStrategy::FirstParent);
    let first = stream.next_event().expect("the universe has survivors");
    assert!(matches!(first, SourceEvent::Candidate(_)), "{first:?}");
    let funnel = stream.finish().funnel;
    assert_eq!(funnel.analyzed, 1);
    assert!(
        funnel.sql_collection < u.sql_collection.len(),
        "{} of {} records assessed before the first candidate",
        funnel.sql_collection,
        u.sql_collection.len()
    );
}

#[test]
fn survivor_without_repository_is_quarantined_not_fatal() {
    let mut u = generate(UniverseConfig::small(2019, 10));
    let analyzed = run_funnel(&u, WalkStrategy::FirstParent).analyzed;
    let missing = analyzed[analyzed.len() / 2].name.clone();
    assert!(u.materialized.remove(&missing).is_some());

    let outcome = run_funnel(&u, WalkStrategy::FirstParent);
    assert_eq!(outcome.analyzed.len(), analyzed.len() - 1);
    assert!(outcome.analyzed.iter().all(|c| c.name != missing));

    let result = MiningEngine::new(StudyOptions::default())
        .study(&u)
        .expect("an unmaterialized survivor is quarantined, not fatal");
    let quarantined: Vec<_> = result.quarantine.quarantined.iter().map(|q| &q.error).collect();
    assert_eq!(quarantined.len(), 1, "{quarantined:?}");
    assert_eq!(quarantined[0].project, missing);
    assert_eq!(quarantined[0].class, ErrorClass::StoreCorrupt);
    assert_eq!(result.report, outcome.report);
    assert_eq!(result.profiles.len(), analyzed.len() - 1);
}
