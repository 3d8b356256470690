//! Reproduce the whole paper: generate the 133,029-record universe, run the
//! collection funnel down to the 195-project Schema_Evo_2019 data set, mine
//! and classify every project, run the statistical battery, render every
//! table/figure, and (with `--write`) regenerate EXPERIMENTS.md, keeping
//! its hand-written appendices.
//!
//! ```sh
//! cargo run --release --example full_study            # print everything
//! cargo run --release --example full_study -- --write # also write EXPERIMENTS.md
//! ```
//!
//! `--workers N` sets the mining worker count, for this process and the
//! scale pass's `schevo study` runs; it changes no output (the executor is
//! deterministic), only the wall time. The funnel feeds the workers as
//! they mine, so at 2 or more workers the funnel stage absorbs the
//! overlap and the manifest's mine stage reads near 0; the scale table's
//! mine wall is funnel + mine (the `study.mine` span), which holds at any
//! worker count.

use schevo::corpus::universe::Universe;
use schevo::pipeline::ablation::{
    reed_threshold_sensitivity, rule_order_comparison, walk_strategy_comparison,
};
use schevo::pipeline::journal::DurabilityOptions;
use schevo::prelude::*;
use schevo::obs::metrics::Registry;
use schevo::obs::{manifest, ObsHooks};
use schevo::report::experiments::{
    experiments_markdown, splice_hand_written, ExperimentExtras, FaultDemo, LatencyRow, ObsDemo,
    ResumeDemo, ResumePoint, ScaleDemo, ScaleRow, ServeDemo,
};
use schevo::report::{
    fig04_table, fig10_scatter, fig11_matrix, fig12_quartiles, fig13_boxplot, funnel_table,
    narrative_table, study_to_json, table1_definitions, write_atomic,
};
use std::path::Path;

fn main() {
    if let Err(e) = run() {
        eprintln!("full_study failed: {e}");
        std::process::exit(1);
    }
}

/// The value of flag `name` parsed as `T`; `None` when the flag is
/// absent. A value that does not parse is flag misuse, as in the `schevo`
/// CLI: warn naming the flag and the value, and exit 2 before any work.
fn parsed_flag<T: std::str::FromStr>(args: &[String], name: &str) -> Option<T> {
    let i = args.iter().position(|a| a == name)?;
    let value = args.get(i + 1)?;
    match value.parse() {
        Ok(v) => Some(v),
        Err(_) => {
            schevo::obs::events::warn("full_study", &format!("bad value `{value}` for `{name}`"));
            std::process::exit(2);
        }
    }
}

fn run() -> Result<(), Box<dyn std::error::Error>> {
    let args: Vec<String> = std::env::args().collect();
    let write = args.iter().any(|a| a == "--write");
    let workers: usize =
        parsed_flag(&args, "--workers").unwrap_or_else(|| StudyOptions::default().workers);
    let scale_factor: usize = parsed_flag(&args, "--scale-factor").unwrap_or(20);
    // The paper-scale run is itself instrumented: the registry's stage
    // walls and latency histograms feed the observability appendix, and
    // instrumentation is a no-op on every published byte.
    let registry = std::sync::Arc::new(Registry::new());
    let t0 = std::time::Instant::now();
    let generating = schevo::obs::stage!("study.generate");
    let universe = generate(UniverseConfig::paper(2019));
    let generate_nanos = generating.close();
    registry.set_gauge("study.stage.generate.nanos", generate_nanos);
    eprintln!("universe generated in {:?}", std::time::Duration::from_nanos(generate_nanos));
    let t1 = std::time::Instant::now();
    let study = try_run_study_source(
        &universe,
        StudyOptions {
            workers,
            obs: ObsHooks::with_registry(registry.clone()),
            ..StudyOptions::default()
        },
    )?;
    eprintln!(
        "study ran in {:?} ({} workers; {} versions parsed)",
        t1.elapsed(),
        study.exec.workers,
        study.exec.parse_misses,
    );
    eprintln!("{}", study.quarantine.summary());

    println!("=== Collection funnel (§III-A) ===\n{}", funnel_table(&study.report));
    println!("=== Table I ===\n{}", table1_definitions());
    println!("=== Fig. 4 ===\n{}", fig04_table(&study));
    println!("{}", fig10_scatter(&study));
    println!("{}", fig11_matrix(&study));
    println!("{}", fig12_quartiles(&study));
    println!("{}", fig13_boxplot(&study));
    println!("{}", narrative_table(&study));

    eprintln!("running ablations...");
    let mut extras = ExperimentExtras {
        threshold_points: reed_threshold_sensitivity(&universe, &[10, 14, 20])?,
        walk: Some(walk_strategy_comparison(&universe)),
        rule_order: Some(rule_order_comparison(&study.profiles)),
        fault_demo: None,
        resume_demo: None,
        obs_demo: None,
        scale_demo: None,
        serve_demo: None,
    };
    eprintln!("building observability appendix...");
    extras.obs_demo = Some(obs_demo(&universe, &study, &registry, workers, t0.elapsed())?);
    eprintln!("running chaos pass (fault injection)...");
    extras.fault_demo = Some(fault_demo(&study, workers));
    eprintln!("running durability pass (crash/resume)...");
    extras.resume_demo = Some(resume_demo(&universe, &study)?);
    eprintln!("running scale pass (sharded store, {scale_factor}x streaming)...");
    extras.scale_demo = scale_demo(scale_factor, 8, workers)?;
    eprintln!("running serve pass (resident daemon, concurrent clients)...");
    extras.serve_demo = serve_demo()?;
    if write {
        // The generator ends at the serve appendix; every section written
        // by hand after it is kept.
        let current = std::fs::read_to_string("EXPERIMENTS.md").unwrap_or_default();
        let md = splice_hand_written(&experiments_markdown(&study, &extras), &current);
        write_atomic(Path::new("EXPERIMENTS.md"), md.as_bytes())?;
        let json = study_to_json(&study)?;
        std::fs::create_dir_all("artifacts")?;
        write_atomic(Path::new("study_results.json"), json.as_bytes())?;
        // Per-figure CSV artifacts.
        write_atomic(
            Path::new("artifacts/fig04.csv"),
            schevo::report::fig04_csv(&study).render().as_bytes(),
        )?;
        write_atomic(
            Path::new("artifacts/fig10.csv"),
            schevo::report::fig10_csv(&study).render().as_bytes(),
        )?;
        for (tag, project) in schevo::corpus::exemplar::all_exemplars() {
            let series = schevo::report::ProjectSeries::mine(&project);
            let stem = format!("artifacts/{tag:?}").to_lowercase();
            write_atomic(
                Path::new(&format!("{stem}_size.csv")),
                series.size_csv().render().as_bytes(),
            )?;
            write_atomic(
                Path::new(&format!("{stem}_heartbeat.csv")),
                series.heartbeat_csv().render().as_bytes(),
            )?;
        }
        eprintln!("wrote EXPERIMENTS.md, study_results.json and artifacts/*.csv");
    } else {
        eprintln!("(pass --write to regenerate EXPERIMENTS.md)");
    }
    eprintln!("total {:?}", t0.elapsed());
    Ok(())
}

/// The observability pass for the EXPERIMENTS.md appendix: assemble the
/// run manifest and latency tables from the registry the paper-scale
/// study just ran with, and double-check on a small universe that a
/// fully instrumented run (tracer on, registry attached) serializes to
/// the same `study_results.json` bytes as a bare run.
fn obs_demo(
    universe: &Universe,
    study: &StudyResult,
    registry: &Registry,
    workers: usize,
    wall: std::time::Duration,
) -> Result<ObsDemo, Box<dyn std::error::Error>> {
    let snap = registry.snapshot();
    let m = manifest::RunManifest {
        manifest_version: manifest::MANIFEST_VERSION,
        command: "full_study".to_string(),
        seed: 2019,
        scale_divisor: 1,
        workers: workers as u64,
        strict: false,
        inject_faults_pct: None,
        fault_seed: None,
        deadline_ms: None,
        trace_out: None,
        metrics_out: None,
        corpus_digest: schevo::corpus::universe::corpus_digest(universe),
        wall_us: wall.as_micros() as u64,
        stages: manifest::stages_from_snapshot(&snap),
        quarantine: study.quarantine.manifest(),
        journal: None,
    };
    let stage_walls = manifest::stages_from_snapshot(&snap)
        .into_iter()
        .map(|s| (s.name, s.wall_us))
        .collect();
    let latencies = snap
        .histograms
        .iter()
        .filter(|(_, h)| h.count > 0)
        .map(|(name, h)| LatencyRow {
            metric: name.clone(),
            count: h.count,
            mean_us: h.sum as f64 / h.count as f64 / 1e3,
            max_us: h.max as f64 / 1e3,
        })
        .collect();
    // The differential: same small universe, once with the tracer running
    // and a registry attached, once bare.
    let small = generate(UniverseConfig::small(2019, 20));
    schevo::obs::trace::set_enabled(true);
    let traced = try_run_study_source(
        &small,
        StudyOptions {
            obs: ObsHooks::with_registry(std::sync::Arc::new(Registry::new())),
            ..StudyOptions::default()
        },
    )?;
    schevo::obs::trace::set_enabled(false);
    let events = schevo::obs::trace::drain();
    let bare = try_run_study_source(&small, StudyOptions::default())?;
    let outputs_identical =
        !events.is_empty() && study_to_json(&traced)? == study_to_json(&bare)?;
    Ok(ObsDemo {
        manifest_json: m.render(),
        stage_walls,
        latencies,
        outputs_identical,
    })
}

/// The durability pass for the EXPERIMENTS.md appendix: run one fully
/// journaled paper-scale study, cut the journal at a spread of record
/// boundaries (as a crash at that commit would leave it), resume from
/// each cut under alternating worker counts, and compare
/// every resumed result to the uninterrupted study.
fn resume_demo(
    universe: &Universe,
    golden: &StudyResult,
) -> Result<ResumeDemo, Box<dyn std::error::Error>> {
    use schevo::pipeline::journal::{replay_file, HEADER_LEN};
    let golden_json = study_to_json(golden)?;
    let dir = std::env::temp_dir();
    let golden_path = dir.join(format!("schevo_resume_demo_{}.wal", std::process::id()));
    let cut_path = dir.join(format!("schevo_resume_demo_cut_{}.wal", std::process::id()));
    let _ = std::fs::remove_file(&golden_path);
    let journaled = try_run_study_source(
        universe,
        StudyOptions {
            durability: DurabilityOptions {
                journal: Some(golden_path.clone()),
                ..DurabilityOptions::default()
            },
            ..StudyOptions::default()
        },
    )?;
    if study_to_json(&journaled)? != golden_json {
        return Err("journaled golden run diverged from the plain study".into());
    }
    let replay = replay_file(&golden_path)?;
    let bytes = std::fs::read(&golden_path)?;
    let n = replay.records.len();
    // Crash points: nothing committed, quartiles, and one-short-of-done.
    let mut cuts: Vec<usize> = vec![0, n / 4, n / 2, 3 * n / 4, n.saturating_sub(1)];
    cuts.dedup();
    let mut points = Vec::new();
    for (i, &k) in cuts.iter().enumerate() {
        let len = if k == 0 {
            HEADER_LEN as u64
        } else {
            replay.record_ends[k - 1]
        };
        write_atomic(&cut_path, &bytes[..len as usize])?;
        let resumed = try_run_study_source(
            universe,
            StudyOptions {
                workers: 1 + (i % 2),
                durability: DurabilityOptions {
                    journal: Some(cut_path.clone()),
                    resume: true,
                    ..DurabilityOptions::default()
                },
                ..StudyOptions::default()
            },
        )?;
        let summary = resumed
            .journal
            .as_ref()
            .ok_or("resumed study reported no journal summary")?;
        points.push(ResumePoint {
            crash_after: k as u64,
            replayed: summary.replayed,
            mined_fresh: summary.mined_fresh,
            identical: study_to_json(&resumed)? == golden_json,
        });
    }
    let _ = std::fs::remove_file(&golden_path);
    let _ = std::fs::remove_file(&cut_path);
    let all_identical = points.iter().all(|p| p.identical);
    Ok(ResumeDemo {
        candidates: golden.report.analyzed,
        total_records: n as u64,
        points,
        all_identical,
    })
}

/// One measured CLI run of the scale pass.
struct ScaleRun {
    stdout: Vec<u8>,
    results_json: Vec<u8>,
    analyzed: u64,
    mine_s: f64,
    rss_mb: f64,
    manifest_json: String,
}

/// The `schevo` CLI binary, expected next to this example's own
/// executable (`target/<profile>/examples/full_study` → `../schevo`).
fn cli_binary() -> Option<std::path::PathBuf> {
    let exe = std::env::current_exe().ok()?;
    let bin = exe.parent()?.parent()?.join("schevo");
    bin.exists().then_some(bin)
}

/// Run one `schevo study` subprocess and harvest its stdout,
/// `study_results.json`, metrics (peak RSS, mining wall, funnel gauge)
/// and manifest. Each run is a fresh process, so `process.peak_rss_bytes`
/// is that configuration's own high-water mark.
fn scale_run(
    bin: &Path,
    factor: usize,
    store: Option<(&Path, usize)>,
    workers: usize,
    tag: &str,
) -> Result<ScaleRun, Box<dyn std::error::Error>> {
    let dir = std::env::temp_dir().join(format!("schevo_scale_{}_{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir)?;
    let metrics = dir.join("metrics.json");
    let manifest = dir.join("manifest.json");
    let out_dir = dir.join("out");
    let mut cmd = std::process::Command::new(bin);
    cmd.args(["study", "--seed", "2019", "--workers", &workers.to_string()]);
    if factor > 1 {
        cmd.args(["--scale-factor", &factor.to_string()]);
    }
    if let Some((store_dir, shards)) = store {
        cmd.arg("--store-dir").arg(store_dir);
        cmd.args(["--shards", &shards.to_string()]);
    }
    cmd.arg("--metrics-out").arg(&metrics);
    cmd.arg("--manifest-out").arg(&manifest);
    cmd.arg("--out").arg(&out_dir);
    cmd.stderr(std::process::Stdio::null());
    let out = cmd.output()?;
    if !out.status.success() {
        return Err(format!("scale run `{tag}` failed with {:?}", out.status.code()).into());
    }
    let snapshot = std::fs::read_to_string(&metrics)?;
    let v: serde_json::Value = serde_json::from_str(&snapshot)?;
    let gauge = |name: &str| -> Option<u64> {
        v.get("gauges")?.as_seq()?.iter().find_map(|pair| {
            let pair = pair.as_seq()?;
            (pair.first()?.as_str()? == name).then(|| pair.get(1)?.as_u64())?
        })
    };
    let analyzed = gauge("funnel.analyzed").ok_or("metrics missing funnel.analyzed")?;
    // Funnel + mine, the `study.mine` span: at 2 or more workers the
    // funnel stage absorbs the time the caller polls it while workers mine.
    let funnel = gauge("study.stage.funnel.nanos").ok_or("metrics missing funnel stage")?;
    let mine = gauge("study.stage.mine.nanos").ok_or("metrics missing mine stage")?;
    let mine_s = (funnel + mine) as f64 / 1e9;
    let rss_mb =
        gauge("process.peak_rss_bytes").ok_or("metrics missing peak RSS")? as f64 / 1e6;
    let run = ScaleRun {
        stdout: out.stdout,
        results_json: std::fs::read(out_dir.join("study_results.json"))?,
        analyzed,
        mine_s,
        rss_mb,
        manifest_json: std::fs::read_to_string(&manifest)?,
    };
    let _ = std::fs::remove_dir_all(&dir);
    Ok(run)
}

/// The scale pass for the EXPERIMENTS.md appendix: prove the sharded
/// streaming backend byte-equivalent to the resident backend at paper
/// scale, then measure it at `factor`× paper scale — a corpus the
/// resident path would have to hold fully in RAM.
fn scale_demo(
    factor: usize,
    shards: usize,
    workers: usize,
) -> Result<Option<ScaleDemo>, Box<dyn std::error::Error>> {
    let Some(bin) = cli_binary() else {
        eprintln!("scale pass skipped: `schevo` binary not found next to this example");
        return Ok(None);
    };
    let stores = std::env::temp_dir().join(format!("schevo_scale_stores_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&stores);
    let resident = scale_run(&bin, 1, None, workers, "resident1x")?;
    let streaming1 = scale_run(&bin, 1, Some((&stores.join("s1"), shards)), workers, "stream1x")?;
    let outputs_identical = resident.stdout == streaming1.stdout
        && resident.results_json == streaming1.results_json;
    let streaming_n = scale_run(&bin, factor, Some((&stores.join("sN"), shards)), workers, "streamNx")?;
    let _ = std::fs::remove_dir_all(&stores);
    let row = |backend: &str, factor: usize, r: &ScaleRun| ScaleRow {
        backend: backend.to_string(),
        factor,
        analyzed: r.analyzed,
        mine_s: r.mine_s,
        projects_per_s: if r.mine_s > 0.0 { r.analyzed as f64 / r.mine_s } else { 0.0 },
        peak_rss_mb: r.rss_mb,
    };
    Ok(Some(ScaleDemo {
        factor,
        shards,
        outputs_identical,
        rows: vec![
            row("resident", 1, &resident),
            row("streaming", 1, &streaming1),
            row("streaming", factor, &streaming_n),
        ],
        manifest_json: streaming_n.manifest_json,
    }))
}

/// A serve daemon subprocess that dies with the demo even on error paths.
struct ServeDaemon {
    child: std::process::Child,
    addr: String,
}

impl ServeDaemon {
    fn spawn(bin: &Path, args: &[&str]) -> Result<ServeDaemon, Box<dyn std::error::Error>> {
        use std::io::BufRead;
        let mut child = std::process::Command::new(bin)
            .args(args)
            .stdout(std::process::Stdio::piped())
            .stderr(std::process::Stdio::null())
            .spawn()?;
        let stdout = child.stdout.take().ok_or("daemon stdout not piped")?;
        let mut lines = std::io::BufReader::new(stdout).lines();
        let addr = loop {
            let Some(line) = lines.next() else {
                let _ = child.kill();
                return Err("daemon exited before announcing its address".into());
            };
            if let Some(rest) = line?.strip_prefix("serve: listening on ") {
                break rest.trim().to_string();
            }
        };
        std::thread::spawn(move || for _ in lines {});
        Ok(ServeDaemon { child, addr })
    }

    fn study(&self, resume: bool) -> Result<schevo::serve::Response, Box<dyn std::error::Error>> {
        let mut conn = schevo::serve::connect(&self.addr)?;
        let response = conn.roundtrip(&schevo::serve::Request {
            op: "study".to_string(),
            resume: resume.then_some(true),
            ..Default::default()
        })?;
        if response.status != "ok" {
            return Err(format!("serve request failed: {:?}", response.error).into());
        }
        Ok(response)
    }
}

impl Drop for ServeDaemon {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// The serve pass for the EXPERIMENTS.md appendix: start a resident
/// daemon over a freshly generated store, drive it with concurrent
/// clients checking every response against the batch CLI, then grow the
/// store with `schevo append` (two histories poisoned) and measure the
/// journal-backed replayed-vs-re-mined split. Smoke scale: the pass
/// measures protocol and engine behaviour, not corpus size.
fn serve_demo() -> Result<Option<ServeDemo>, Box<dyn std::error::Error>> {
    let Some(bin) = cli_binary() else {
        eprintln!("serve pass skipped: `schevo` binary not found next to this example");
        return Ok(None);
    };
    let dir = std::env::temp_dir().join(format!("schevo_serve_demo_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir)?;
    let store = dir.join("store");
    let batch = dir.join("batch");
    let status = std::process::Command::new(&bin)
        .args(["study", "--seed", "2019", "--scale", "80"])
        .arg("--store-dir")
        .arg(&store)
        .arg("--out")
        .arg(&batch)
        .stdout(std::process::Stdio::null())
        .stderr(std::process::Stdio::null())
        .status()?;
    if !status.success() {
        return Err("serve pass: batch CLI run failed".into());
    }
    let golden = std::fs::read(batch.join("study_results.json"))?;
    let journal = dir.join("serve.wal");
    let daemon = ServeDaemon::spawn(
        &bin,
        &[
            "serve",
            "--store-dir",
            store.to_str().ok_or("non-utf8 temp dir")?,
            "--journal",
            journal.to_str().ok_or("non-utf8 temp dir")?,
        ],
    )?;

    // Warm journaled pass: everything mines fresh, the journal fills.
    let warm = daemon.study(true)?;
    let baseline_mined = warm.mined_fresh.ok_or("warm pass reported no journal counters")?;

    // Concurrent load, every response checked against the batch golden.
    const CLIENTS: usize = 4;
    const PER_CLIENT: usize = 3;
    let t = std::time::Instant::now();
    let handles: Vec<_> = (0..CLIENTS)
        .map(|_| {
            let addr = daemon.addr.clone();
            std::thread::spawn(move || -> Result<Vec<String>, String> {
                let mut served = Vec::new();
                for _ in 0..PER_CLIENT {
                    let mut conn = schevo::serve::connect(&addr).map_err(|e| e.to_string())?;
                    let r = conn
                        .roundtrip(&schevo::serve::Request {
                            op: "study".to_string(),
                            ..Default::default()
                        })
                        .map_err(|e| e.to_string())?;
                    if r.status != "ok" {
                        return Err(format!("load request failed: {:?}", r.error));
                    }
                    served.push(r.study_json.unwrap_or_default());
                }
                Ok(served)
            })
        })
        .collect();
    let mut outputs_identical = true;
    for handle in handles {
        let served = handle.join().map_err(|_| "load client panicked")??;
        for json in served {
            outputs_identical &= json.as_bytes() == &golden[..];
        }
    }
    let wall_s = t.elapsed().as_secs_f64();
    let requests = (CLIENTS * PER_CLIENT) as u64;

    // Grow the store (two appended histories poisoned) and re-mine.
    const APPENDED: u64 = 6;
    let append = std::process::Command::new(&bin)
        .args(["append", "--count", "6", "--corrupt", "2"])
        .arg("--store")
        .arg(&store)
        .stdout(std::process::Stdio::null())
        .stderr(std::process::Stdio::null())
        .status()?;
    if !append.success() {
        return Err("serve pass: append failed".into());
    }
    let after = daemon.study(true)?;
    let demo = ServeDemo {
        clients: CLIENTS,
        requests,
        wall_s,
        requests_per_s: if wall_s > 0.0 { requests as f64 / wall_s } else { 0.0 },
        outputs_identical,
        baseline_mined,
        appended: APPENDED,
        replayed: after.replayed.ok_or("post-append pass reported no journal counters")?,
        mined_fresh: after.mined_fresh.unwrap_or(0),
        quarantined: after.quarantined.unwrap_or(0),
    };
    let mut conn = schevo::serve::connect(&daemon.addr)?;
    let _ = conn.roundtrip(&schevo::serve::Request {
        op: "shutdown".to_string(),
        ..Default::default()
    });
    drop(daemon);
    let _ = std::fs::remove_dir_all(&dir);
    Ok(Some(demo))
}

/// The canonical chaos pass for the EXPERIMENTS.md appendix: damage 20%
/// of the evolving projects with the full fault catalog (fault seed 7),
/// re-run the study gracefully, and check the untouched projects against
/// the clean study.
fn fault_demo(clean: &StudyResult, workers: usize) -> FaultDemo {
    const FAULT_SEED: u64 = 7;
    const RATE: u32 = 20;
    let mut universe = generate(UniverseConfig::paper(2019));
    let plan = FaultPlan::all(FAULT_SEED, RATE);
    let faults = inject(&mut universe, &plan);
    let faulted = try_run_study_source(
        &universe,
        StudyOptions {
            workers,
            ..StudyOptions::default()
        },
    )
    .expect("graceful study without a journal");
    eprintln!(
        "chaos pass: {} fault(s) injected; {}",
        faults.len(),
        faulted.quarantine.summary()
    );
    let injected_projects: std::collections::BTreeSet<&str> =
        faults.iter().map(|f| f.project.as_str()).collect();
    let faulted_profiles: std::collections::BTreeMap<&str, _> = faulted
        .profiles
        .iter()
        .map(|p| (p.project.as_str(), p))
        .collect();
    let clean_subset_identical = clean
        .profiles
        .iter()
        .filter(|p| !injected_projects.contains(p.project.as_str()))
        .all(|p| faulted_profiles.get(p.project.as_str()) == Some(&p));
    let mut injected: Vec<(String, usize)> = Vec::new();
    for class in FaultClass::ALL {
        let n = faults.iter().filter(|f| f.class == class).count();
        injected.push((class.to_string(), n));
    }
    FaultDemo {
        fault_seed: FAULT_SEED,
        rate_percent: RATE,
        injected,
        class_counts: faulted
            .quarantine
            .class_counts()
            .into_iter()
            .map(|(c, r, q)| (c.to_string(), r, q))
            .collect(),
        recovered: faulted.quarantine.recovered.len(),
        quarantined: faulted.quarantine.quarantined.len(),
        clean_subset_identical,
    }
}
