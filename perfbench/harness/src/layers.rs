//! One function per layer: each calls one crate's public entry point
//! and returns what the call produced plus the counts measured at that
//! boundary. The workloads and the traced run share these, so a layer
//! is timed the same way wherever it appears.

use schevo::core::diff::{diff, SchemaDelta};
use schevo::core::fk::fk_profile_with;
use schevo::core::heartbeat::REED_THRESHOLD;
use schevo::core::measures::measure_history_with;
use schevo::core::model::{CommitMeta, SchemaHistory, SchemaVersion};
use schevo::core::profile::{EvolutionProfile, ProjectContext};
use schevo::core::tables::table_lives_with;
use schevo::core::taxa::{ProjectClass, Taxon};
use schevo::corpus::store::{append_into_store, generate_into_store, ShardStore, StoreEvent};
use schevo::corpus::universe::{CorpusRecord, Universe, UniverseConfig};
use schevo::ddl::{parse_schema, Schema};
use schevo::pipeline::funnel::{assess_metadata, CandidateHistory};
use schevo::pipeline::journal::{DurabilityOptions, JournalRecord, JournalWriter};
use schevo::pipeline::{CandidateSource, SourceEvent, SourceSummary, StudyOptions, StudyResult};
use schevo::serve::proto::{decode_response, encode_request, encode_response, Request, Response};
use schevo::serve::{read_frame, write_frame};
use schevo::stats::{kruskal_wallis, pairwise_kruskal, shapiro_wilk, spearman};
use schevo::vcs::history::{file_history, WalkStrategy};
use schevo::vcs::repo::Repository;
use serde::value::Value;
use std::collections::BTreeMap;
use std::hint::black_box;
use std::path::Path;

/// Shards per store: the `schevo study --store-dir` default, so the
/// harness reads the same layout the daemon serves.
pub const SHARDS: usize = 8;
/// Appendix projects appended before each resume.
pub const APPENDIX: usize = 20;
const STRATEGY: WalkStrategy = WalkStrategy::FirstParent;

/// Counts measured at layer boundaries, by metric name.
pub type Counts = BTreeMap<&'static str, Value>;

/// The paper-scale universe of `seed`.
pub fn config(seed: u64) -> UniverseConfig {
    UniverseConfig::paper(seed)
}

/// Study options of every benchmark study: one worker, cache on, and
/// optionally a journal (`resume` replays it first).
pub fn options(journal: Option<(&Path, bool)>) -> StudyOptions {
    StudyOptions {
        workers: 1,
        durability: DurabilityOptions {
            journal: journal.map(|(p, _)| p.to_path_buf()),
            resume: journal.map(|(_, r)| r).unwrap_or(false),
            ..DurabilityOptions::default()
        },
        ..StudyOptions::default()
    }
}

pub fn err<E: std::fmt::Display>(what: &str) -> impl FnOnce(E) -> String + '_ {
    move |e| format!("{what}: {e}")
}

/// Generate the seed's universe straight into a store at `dir`.
pub fn build_store(seed: u64, dir: &Path) -> Result<(), String> {
    let _ = std::fs::remove_dir_all(dir);
    generate_into_store(config(seed), dir, SHARDS).map_err(err("generate store"))?;
    Ok(())
}

/// A full study over the store at `dir`, optionally journaled.
pub fn study_over_store(dir: &Path, journal: Option<(&Path, bool)>) -> Result<StudyResult, String> {
    let store = ShardStore::open(dir).map_err(err("open store"))?;
    schevo::try_run_study_source(&store, options(journal)).map_err(err("study"))
}

/// Copy every file of `src` into a fresh `dst` (stores are flat).
pub fn copy_dir(src: &Path, dst: &Path) -> Result<(), String> {
    let _ = std::fs::remove_dir_all(dst);
    std::fs::create_dir_all(dst).map_err(err("create dir"))?;
    for entry in std::fs::read_dir(src).map_err(err("read dir"))? {
        let entry = entry.map_err(err("read dir"))?;
        std::fs::copy(entry.path(), dst.join(entry.file_name())).map_err(err("copy"))?;
    }
    Ok(())
}

/// Lowercase hex SHA-1 of `bytes` (run.py compares against its own).
pub fn sha1_hex(bytes: &[u8]) -> String {
    schevo::vcs::sha1::sha1(bytes).to_hex()
}

/// A repository the funnel clones: materialized and past the metadata
/// filters, with its resolved DDL path.
pub struct ClonedRepo<R> {
    pub repo: R,
    pub path: String,
}

/// The clone set of a resident universe, in SQL-Collection order.
pub fn universe_clones(u: &Universe) -> Vec<ClonedRepo<&Repository>> {
    u.sql_collection
        .iter()
        .filter_map(|e| {
            let m = u.materialized.get(&e.repo_name)?;
            let path = assess_metadata(u.libio.get(&e.repo_name), &e.sql_paths).ok()?;
            Some(ClonedRepo {
                repo: m.repo(),
                path,
            })
        })
        .collect()
}

/// corpus: drain `ShardStore::stream().next_event()`. Keeps the
/// materialized records so the VCS walk can replay over them.
pub fn store_read(store: &ShardStore, counts: &mut Counts) -> Vec<ClonedRepo<Repository>> {
    let mut stream = store.stream();
    let mut materialized = Vec::new();
    while let Some(event) = stream.next_event() {
        if let StoreEvent::Record(r) = event {
            if let Some((repo, _, _)) = r.materialized {
                materialized.push((repo, r.libio, r.sql_paths));
            }
        }
    }
    let io = stream.io();
    counts.insert("corpus.store_bytes_read", Value::U64(io.bytes_read));
    counts.insert("corpus.store_records", Value::U64(io.records_read));
    materialized
        .into_iter()
        .filter_map(|(repo, libio, paths)| {
            let path = assess_metadata(libio.as_ref(), &paths).ok()?;
            Some(ClonedRepo { repo, path })
        })
        .collect()
}

/// corpus: `append_into_store`.
pub fn store_append(
    dir: &Path,
    records: &[CorpusRecord],
    counts: &mut Counts,
) -> Result<(), String> {
    let (_, io) = append_into_store(dir, records).map_err(err("append"))?;
    counts.insert("corpus.store_bytes_written", Value::U64(io.bytes_written));
    Ok(())
}

/// vcs: `history::file_history` for each clone's DDL path.
pub fn walk<R: std::borrow::Borrow<Repository>>(clones: &[ClonedRepo<R>], counts: &mut Counts) {
    let mut versions = 0u64;
    for c in clones {
        if let Ok(v) = file_history(c.repo.borrow(), &c.path, STRATEGY) {
            versions += v.len() as u64;
            black_box(v);
        }
    }
    counts.insert("vcs.walks", Value::U64(clones.len() as u64));
    counts.insert("vcs.versions", Value::U64(versions));
}

/// pipeline: drain `CandidateSource::stream`.
pub fn source_drain(
    source: &dyn CandidateSource,
) -> Result<(Vec<CandidateHistory>, SourceSummary), String> {
    let mut stream = source.stream(STRATEGY);
    let mut candidates = Vec::new();
    while let Some(event) = stream.next_event() {
        match event {
            SourceEvent::Candidate(c) => candidates.push(c),
            SourceEvent::Corrupt(e) => return Err(format!("source: {e}")),
        }
    }
    Ok((candidates, stream.finish()))
}

/// ddl: `parse_schema` over every version of every candidate.
pub fn parse(candidates: &[CandidateHistory], counts: &mut Counts) -> Vec<Vec<Schema>> {
    let (mut parses, mut bytes, mut errors) = (0u64, 0u64, 0u64);
    let parsed = candidates
        .iter()
        .map(|c| {
            c.versions
                .iter()
                .filter_map(|v| {
                    parses += 1;
                    bytes += v.content.len() as u64;
                    parse_schema(&v.content).map_err(|_| errors += 1).ok()
                })
                .collect()
        })
        .collect();
    counts.insert("ddl.parses", Value::U64(parses));
    counts.insert("ddl.bytes", Value::U64(bytes));
    counts.insert("ddl.parse_errors", Value::U64(errors));
    parsed
}

/// core: `diff::diff` on each pair of consecutive schemas.
pub fn diff_all(parsed: &[Vec<Schema>], counts: &mut Counts) -> Vec<Vec<SchemaDelta>> {
    let deltas: Vec<Vec<SchemaDelta>> = parsed
        .iter()
        .map(|s| s.windows(2).map(|w| diff(&w[0], &w[1])).collect())
        .collect();
    counts.insert(
        "core.diffs",
        Value::U64(deltas.iter().map(|d| d.len() as u64).sum()),
    );
    deltas
}

/// The schema histories the measures take, assembled from parsed
/// schemas (glue, not a layer: it only clones).
pub fn histories(candidates: &[CandidateHistory], parsed: &[Vec<Schema>]) -> Vec<SchemaHistory> {
    candidates
        .iter()
        .zip(parsed)
        .map(|(c, schemas)| SchemaHistory {
            project: c.name.clone(),
            versions: c
                .versions
                .iter()
                .zip(schemas)
                .map(|(v, s)| SchemaVersion {
                    meta: CommitMeta {
                        id: v.commit.to_hex(),
                        timestamp: v.timestamp,
                        author: v.author.clone(),
                        message: v.message.clone(),
                    },
                    schema: s.clone(),
                    source_len: v.content.len(),
                })
                .collect(),
        })
        .collect()
}

/// core: `fk_profile_with`, `table_lives_with`, `measure_history_with`
/// and `EvolutionProfile::from_measures`, per history.
pub fn measures(
    candidates: &[CandidateHistory],
    histories: &[SchemaHistory],
    deltas: Vec<Vec<SchemaDelta>>,
) -> Vec<EvolutionProfile> {
    candidates
        .iter()
        .zip(histories)
        .zip(deltas)
        .map(|((c, h), d)| {
            black_box(fk_profile_with(h, &d));
            black_box(table_lives_with(h, &d));
            let m = measure_history_with(h, d);
            EvolutionProfile::from_measures(h, &m, REED_THRESHOLD).with_context(ProjectContext {
                pup_months: c.pup_months,
                total_commits: c.total_commits,
            })
        })
        .collect()
}

/// stats: the §V battery over the mined profiles — overall and
/// pairwise Kruskal–Wallis, Shapiro–Wilk and Spearman, on the same
/// groups the study forms.
pub fn battery(profiles: &[EvolutionProfile]) {
    let act = |p: &EvolutionProfile| p.total_activity as f64;
    let ac = |p: &EvolutionProfile| p.active_commits as f64;
    let group = |t: Taxon, f: &dyn Fn(&EvolutionProfile) -> f64| -> Vec<f64> {
        profiles
            .iter()
            .filter(|p| p.class == ProjectClass::Taxon(t))
            .map(f)
            .collect()
    };
    for f in [&act as &dyn Fn(&EvolutionProfile) -> f64, &ac] {
        let groups: Vec<Vec<f64>> = Taxon::ALL
            .iter()
            .map(|&t| group(t, f))
            .filter(|g| !g.is_empty())
            .collect();
        let refs: Vec<&[f64]> = groups.iter().map(|g| g.as_slice()).collect();
        black_box(kruskal_wallis(&refs).ok());
        let labelled: Vec<(String, Vec<f64>)> = Taxon::NON_FROZEN
            .iter()
            .map(|&t| (t.short().to_string(), group(t, f)))
            .filter(|(_, g)| !g.is_empty())
            .collect();
        black_box(pairwise_kruskal(&labelled).ok());
        let all: Vec<f64> = profiles.iter().map(f).collect();
        black_box(shapiro_wilk(&all).ok());
    }
    let all_act: Vec<f64> = profiles.iter().map(act).collect();
    let all_ac: Vec<f64> = profiles.iter().map(ac).collect();
    black_box(spearman(&all_act, &all_ac).ok());
}

/// report: `study_to_json`.
pub fn json(study: &StudyResult, counts: &mut Counts) -> Result<String, String> {
    let json = schevo::report::study_to_json(study).map_err(err("study_to_json"))?;
    counts.insert("report.json_bytes", Value::U64(json.len() as u64));
    Ok(json)
}

/// report: every text figure the `study` command prints.
pub fn figures(study: &StudyResult) {
    use schevo::report::*;
    black_box(funnel_table(&study.report));
    black_box(fig04_table(study));
    black_box(fig10_scatter(study));
    black_box(fig11_matrix(study));
    black_box(fig12_quartiles(study));
    black_box(fig13_boxplot(study));
    black_box(narrative_table(study));
    black_box(extensions_table(study));
}

/// The framed `ok` response a daemon sends for `study_json` (server
/// work, prepared outside any client span).
pub fn response_frame(study_json: &str) -> Result<Vec<u8>, String> {
    let response = Response {
        id: Some("trace-1".to_string()),
        status: "ok".to_string(),
        study_json: Some(study_json.to_string()),
        ..Response::default()
    };
    let payload = encode_response(&response).map_err(err("encode_response"))?;
    let mut frame = Vec::new();
    write_frame(&mut frame, &payload).map_err(err("write_frame"))?;
    Ok(frame)
}

/// serve: the client side of one `study` exchange — `encode_request`,
/// `write_frame`, `read_frame`, `decode_response` — over memory.
pub fn wire(response_frame: &[u8], counts: &mut Counts) -> Result<(), String> {
    let request = Request {
        id: Some("trace-1".to_string()),
        op: "study".to_string(),
        cache: Some(true),
        ..Request::default()
    };
    let mut sent = Vec::new();
    let payload = encode_request(&request).map_err(err("encode_request"))?;
    write_frame(&mut sent, &payload).map_err(err("write_frame"))?;
    let reply = read_frame(&mut std::io::Cursor::new(response_frame))
        .map_err(err("read_frame"))?
        .ok_or("read_frame: empty")?;
    let response = decode_response(&reply).map_err(err("decode_response"))?;
    if response.status != "ok" {
        return Err(format!("wire: status {}", response.status));
    }
    counts.insert(
        "serve.wire_bytes",
        Value::U64((sent.len() + response_frame.len()) as u64),
    );
    black_box(response);
    Ok(())
}

/// pipeline: `JournalWriter::append` of each record, one fsynced
/// commit apiece.
pub fn journal_append(
    mut writer: JournalWriter,
    records: &[JournalRecord],
    counts: &mut Counts,
) -> Result<(), String> {
    for r in records {
        writer.append(r).map_err(err("journal append"))?;
    }
    counts.insert("pipeline.journal_commits", Value::U64(writer.commits()));
    Ok(())
}
