//! The reference study, the sizes behind perfbench/universes.json, and
//! the in-process append-resume workload. Each op is reported as
//! `{op, ms, status, sha1}`; run.py decides what counts as a failure.

use crate::layers::{self, err, sha1_hex, Counts, APPENDIX};
use crate::{obj, text, Flags};
use schevo::corpus::universe::{generate, generate_appendix, AppendixBatch, ExpectedCounts};
use schevo::pipeline::funnel::run_funnel;
use schevo::vcs::history::{file_history, WalkStrategy};
use serde::value::Value;
use std::time::{Duration, Instant};

fn op_record(
    op: &str,
    ms: f64,
    status: &str,
    body: Option<&str>,
    extra: Vec<(&str, Value)>,
) -> Value {
    let mut fields = vec![
        ("op", text(op)),
        ("ms", Value::F64(ms)),
        ("status", text(status)),
        (
            "sha1",
            body.map(|b| Value::Str(sha1_hex(b.as_bytes())))
                .unwrap_or(Value::Null),
        ),
    ];
    fields.extend(extra);
    obj(fields)
}

fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// The journal-free in-process study of the seed's universe — the same
/// path `schevo study --workers 1` takes.
pub fn cmd_reference(f: &Flags) -> Result<Value, String> {
    let seed: u64 = f.num("--seed")?;
    let out = f.path("--out")?;
    let universe = generate(layers::config(seed));
    let study =
        schevo::try_run_study_source(&universe, layers::options(None)).map_err(err("study"))?;
    let json = layers::json(&study, &mut Counts::new())?;
    std::fs::write(&out, json.as_bytes()).map_err(err("write reference"))?;
    Ok(obj(vec![("bytes", Value::U64(json.len() as u64))]))
}

/// The taxon counts the generator plans for the seed's universe
/// (`Universe.expected.taxa`), in `Taxon::ALL` order.
pub fn cmd_expected(f: &Flags) -> Result<Value, String> {
    let seed: u64 = f.num("--seed")?;
    let expected = ExpectedCounts::for_config(&layers::config(seed));
    Ok(obj(vec![(
        "taxa",
        Value::Seq(
            expected
                .taxa
                .iter()
                .map(|&n| Value::U64(n as u64))
                .collect(),
        ),
    )]))
}

/// The size of each seed's paper-scale corpus: the DDL versions the
/// funnel passes to mining and their bytes. Used to build the table of
/// universe seeds in perfbench/universes.json.
pub fn cmd_corpus_size(f: &Flags) -> Result<Value, String> {
    let from: u64 = f.num("--from")?;
    let to: u64 = f.num("--to")?;
    let mut rows = Vec::new();
    for seed in from..to {
        let universe = generate(layers::config(seed));
        let funnel = run_funnel(&universe, WalkStrategy::FirstParent);
        let versions: usize = funnel.analyzed.iter().map(|c| c.versions.len()).sum();
        let bytes: usize = funnel
            .analyzed
            .iter()
            .flat_map(|c| &c.versions)
            .map(|v| v.content.len())
            .sum();
        let row = obj(vec![
            ("seed", Value::U64(seed)),
            ("versions", Value::U64(versions as u64)),
            ("ddl_bytes", Value::U64(bytes as u64)),
        ]);
        eprintln!("{}", serde_json::to_string(&row).map_err(err("json"))?);
        rows.push(row);
    }
    Ok(Value::Seq(rows))
}

/// The appendix appended before each resume: batch `batch` of the
/// seed's appendix generator (perfbench/universes.json names it).
fn appendix(seed: u64, batch: u64) -> AppendixBatch {
    generate_appendix(layers::config(seed), batch, APPENDIX, 0)
}

/// Size of each of the seed's first `--batches` appendix batches: the
/// DDL versions of its projects, their bytes, and the bytes of its
/// largest project, which sets the resume's peak memory. Used to build
/// perfbench/universes.json.
pub fn cmd_appendix_size(f: &Flags) -> Result<Value, String> {
    let seed: u64 = f.num("--seed")?;
    let batches: u64 = f.num("--batches")?;
    let mut rows = Vec::new();
    for batch in 0..batches {
        let (mut versions, mut bytes, mut largest) = (0usize, 0usize, 0usize);
        for record in appendix(seed, batch).records {
            let (Some(body), Some(path)) = (&record.body, record.sql_paths.first()) else {
                continue;
            };
            let history = file_history(body.repo(), path, WalkStrategy::FirstParent)
                .map_err(err("appendix history"))?;
            let project: usize = history.iter().map(|v| v.content.len()).sum();
            versions += history.len();
            bytes += project;
            largest = largest.max(project);
        }
        rows.push(obj(vec![
            ("batch", Value::U64(batch)),
            ("versions", Value::U64(versions as u64)),
            ("ddl_bytes", Value::U64(bytes as u64)),
            ("largest_project_bytes", Value::U64(largest as u64)),
        ]));
    }
    Ok(Value::Seq(rows))
}

/// Set-up of append-resume in `dir`: build the store, prime a journal
/// with one durable study, generate the appendix, and compute the
/// journal-free reference study of the appended store. `append-run`
/// measures from the pristine store and journal this leaves in `dir`.
pub fn cmd_append_setup(f: &Flags) -> Result<Value, String> {
    let seed: u64 = f.num("--seed")?;
    let batch: u64 = f.num("--batch")?;
    let dir = f.path("--work")?;
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).map_err(err("create work dir"))?;
    let store = dir.join("pristine-store");
    layers::build_store(seed, &store)?;
    let primed = layers::study_over_store(&store, Some((&dir.join("pristine.journal"), false)))?;
    let appendix = appendix(seed, batch);
    let ref_store = dir.join("reference-store");
    layers::copy_dir(&store, &ref_store)?;
    layers::store_append(&ref_store, &appendix.records, &mut Counts::new())?;
    let reference = layers::study_over_store(&ref_store, None)?;
    let reference = layers::json(&reference, &mut Counts::new())?;
    let _ = std::fs::remove_dir_all(&ref_store);
    Ok(obj(vec![
        ("reference_sha1", Value::Str(sha1_hex(reference.as_bytes()))),
        ("primed_records", Value::U64(primed.profiles.len() as u64)),
    ]))
}

/// The measured append-resume loop over the fixture `append-setup` left
/// in `--work`, in a process of its own so its peak RSS is the ops'.
/// Before each op the pristine store and journal are restored (untimed);
/// the op appends the appendix, resumes the study over the store with
/// its journal, and serializes the result.
pub fn cmd_append_run(f: &Flags) -> Result<Value, String> {
    let seed: u64 = f.num("--seed")?;
    let batch: u64 = f.num("--batch")?;
    let seconds: f64 = f.num("--seconds")?;
    let dir = f.path("--work")?;
    let appendix = appendix(seed, batch);
    let (pristine_store, pristine_journal) =
        (dir.join("pristine-store"), dir.join("pristine.journal"));
    let (store, journal) = (dir.join("store"), dir.join("study.journal"));
    let rss_reset = schevo::obs::procinfo::reset_peak_rss();
    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(seconds);
    let mut ops = Vec::new();
    while ops.is_empty() || Instant::now() < deadline {
        layers::copy_dir(&pristine_store, &store)?;
        std::fs::copy(&pristine_journal, &journal).map_err(err("restore journal"))?;
        let t = Instant::now();
        let op = layers::store_append(&store, &appendix.records, &mut Counts::new())
            .and_then(|()| layers::study_over_store(&store, Some((&journal, true))))
            .and_then(|study| Ok((layers::json(&study, &mut Counts::new())?, study.journal)));
        let ms = ms_since(t);
        ops.push(match op {
            Ok((json, summary)) => {
                let (replayed, fresh) = summary
                    .map(|j| (j.replayed, j.mined_fresh))
                    .unwrap_or((0, 0));
                op_record(
                    "resume",
                    ms,
                    "ok",
                    Some(&json),
                    vec![
                        ("replayed", Value::U64(replayed as u64)),
                        ("mined_fresh", Value::U64(fresh as u64)),
                    ],
                )
            }
            Err(e) => op_record("resume", ms, &format!("error: {e}"), None, vec![]),
        });
    }
    Ok(obj(vec![
        ("loop_s", Value::F64(start.elapsed().as_secs_f64())),
        ("appended_records", Value::U64(APPENDIX as u64)),
        (
            "peak_rss_bytes",
            schevo::obs::procinfo::peak_rss_bytes()
                .map(Value::U64)
                .unwrap_or(Value::Null),
        ),
        ("peak_rss_of_ops_only", Value::Bool(rss_reset)),
        ("ops", Value::Seq(ops)),
    ]))
}
