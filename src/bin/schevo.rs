//! `schevo` — command-line front end for the schema-evolution study.
//!
//! ```text
//! schevo study [--seed N] [--scale D] [--scale-factor F] [--out DIR]
//!              [--store-dir DIR] [--shards N] [--workers N] [--strict]
//!              [--inject-faults PCT] [--fault-seed N]
//!              [--journal PATH] [--resume] [--crash-after N] [--deadline-ms N]
//!              [--trace-out PATH] [--metrics-out PATH] [--metrics-format json|prom]
//!              [--manifest-out PATH] [--progress] [--no-trace]
//!                                                   run the full study
//! schevo classify <commits> <active> <activity> <reeds>
//! schevo exemplars                                  print the figure exemplars
//! schevo export <owner/repo-seed> <out.pack>        generate + pack one project
//! schevo mine <in.pack> <ddl-path>                  mine a packed repository
//! schevo help
//! ```

use schevo::pipeline::GeneratedSource;
use schevo::prelude::*;
use schevo::report::{
    extensions_table, fig04_table, fig10_scatter, fig11_matrix, fig12_quartiles, fig13_boxplot,
    funnel_table, narrative_table, quarantine_table,
};

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    // Failpoints arm before any command I/O: the env pair first (so
    // black-box tests fault child processes without touching their
    // command lines), then explicit flags, which override the env.
    if let Err(e) = schevo::core::failpoint::init_from_env() {
        eprintln!("io-faults: {e}");
        std::process::exit(2);
    }
    let io_fault_seed: u64 = match take_flag_value(&mut args, "--io-fault-seed") {
        None => 0,
        Some(v) => match v.parse() {
            Ok(n) => n,
            Err(_) => {
                eprintln!("io-faults: bad --io-fault-seed `{v}` (want u64)");
                std::process::exit(2);
            }
        },
    };
    if let Some(spec) = take_flag_value(&mut args, "--io-faults") {
        if let Err(e) = schevo::core::failpoint::configure(&spec, io_fault_seed) {
            eprintln!("io-faults: {e}");
            std::process::exit(2);
        }
    }
    let code = match args.first().map(String::as_str) {
        Some("study") => cmd_study(&args[1..]),
        Some("classify") => cmd_classify(&args[1..]),
        Some("exemplars") => cmd_exemplars(),
        Some("export") => cmd_export(&args[1..]),
        Some("mine") => cmd_mine(&args[1..]),
        Some("serve") => cmd_serve(&args[1..]),
        Some("top") => cmd_top(&args[1..]),
        Some("append") => cmd_append(&args[1..]),
        Some("scrub") => cmd_scrub(&args[1..]),
        Some("help") | None => {
            print_help();
            0
        }
        Some(other) => {
            eprintln!("unknown command `{other}`\n");
            print_help();
            2
        }
    };
    // One line per injected fault, on stderr so stdout stays
    // byte-identical to a clean run. The determinism tests diff these
    // sequences across worker counts.
    for line in schevo::core::failpoint::fired_summary() {
        eprintln!("{line}");
    }
    std::process::exit(code);
}

/// Remove `name` and its value from `args`, returning the value. Global
/// flags are extracted before dispatch so positional subcommands
/// (`classify`, `export`, `mine`) never see them.
fn take_flag_value(args: &mut Vec<String>, name: &str) -> Option<String> {
    let i = args.iter().position(|a| a == name)?;
    let value = args.get(i + 1).cloned()?;
    args.drain(i..i + 2);
    Some(value)
}

fn print_help() {
    println!(
        "schevo — profiles of schema evolution in FOSS projects\n\n\
         USAGE:\n  \
         schevo study [--seed N] [--scale D] [--scale-factor F] [--out DIR]\n               \
         [--store-dir DIR] [--shards N]\n               \
         [--workers N] [--strict]\n               \
         [--inject-faults PCT] [--fault-seed N]\n               \
         [--journal PATH] [--resume]\n               \
         [--crash-after N] [--deadline-ms N]\n               \
         [--trace-out PATH] [--metrics-out PATH]\n               \
         [--metrics-format json|prom] [--manifest-out PATH]\n               \
         [--progress] [--no-trace]                   run the full study\n  \
         schevo classify <commits> <active> <activity> <reeds>\n  \
         schevo exemplars                                   print the figure exemplars\n  \
         schevo export <seed> <out.pack>                    generate + pack one project\n  \
         schevo mine <in.pack> <ddl-path>                   mine a packed repository\n  \
         schevo serve --store-dir DIR [--port N | --socket PATH]\n               \
         [--max-inflight N] [--workers N]\n               \
         [--journal PATH] [--deadline-ms N] [--artifacts DIR]\n               \
         [--drain-deadline-ms N] [--final-metrics PATH]\n               \
         [--request-log PATH] [--trace-dir DIR]\n               \
         [--slow-ms N --slow-log PATH]\n               \
         [--profile-interval-ms N]                          serve studies from a warm engine\n               \
         (profiler samples at 10 ms by default; 0 disables)\n  \
         schevo serve --connect ADDR --op study|result|metrics|status|profile|shutdown\n               \
         [--id ID] [--workers N] [--no-cache] [--resume]\n               \
         [--deadline-ms N] [--out FILE] [--repeat N]\n               \
         [--profile start|stop|status] [--stacks-out FILE]\n               \
         [--retries N] [--timeout-ms N]                     one client request\n  \
         schevo top --connect ADDR [--once] [--interval-ms N]\n               \
         [--count N] [--timeout-ms N]                       live RED/latency view of a daemon\n  \
         schevo append --store DIR --count N [--corrupt M] [--batch B]\n                                                    \
         append commits to a resident store\n  \
         schevo scrub --store DIR                           verify + repair a shard store\n  \
         schevo help\n\n\
         Every command accepts --io-faults \"site=kind[@trigger];...\" and\n\
         --io-fault-seed N (env: SCHEVO_IO_FAULTS / SCHEVO_IO_FAULT_SEED)\n\
         to inject deterministic I/O faults at named syscall sites; kinds\n\
         are enospc, eio, kill. Fired faults print on stderr.\n\n\
         Exit codes: 0 ok, 1 I/O failure, 2 flag misuse, 3 typed study error."
    );
}

/// Reject the first `--flag` in `args` that `command` does not read, so
/// a misspelt or removed flag is never silently dropped: warn and report
/// `true`, and the caller exits 2 (flag misuse). The global fault flags
/// are accepted everywhere.
fn unknown_flag(command: &str, args: &[String], known: &[&str]) -> bool {
    let global = ["--io-faults", "--io-fault-seed"];
    let Some(flag) = args.iter().find(|a| {
        a.starts_with("--") && !known.contains(&a.as_str()) && !global.contains(&a.as_str())
    }) else {
        return false;
    };
    schevo::obs::events::warn(command, &format!("unknown flag `{flag}`"));
    true
}

fn flag_value(args: &[String], name: &str) -> Option<String> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .cloned()
}

/// The value of flag `name` parsed as `T`; `None` when the flag is
/// absent. A value that does not parse is flag misuse, as an unknown
/// flag is: warn naming the flag and the value, and exit 2 at once
/// (every command reads its flags before it does any I/O).
fn parsed_flag<T: std::str::FromStr>(command: &str, args: &[String], name: &str) -> Option<T> {
    let value = flag_value(args, name)?;
    match value.parse() {
        Ok(v) => Some(v),
        Err(_) => {
            schevo::obs::events::warn(command, &format!("bad value `{value}` for `{name}`"));
            std::process::exit(2);
        }
    }
}

/// How `--metrics-out` serializes the registry snapshot.
enum MetricsFormat {
    Json,
    Prom,
}

fn cmd_study(args: &[String]) -> i32 {
    use schevo::obs::{events, manifest, metrics, progress, stage, trace};
    use std::sync::Arc;
    let known = [
        "--seed", "--scale", "--scale-factor", "--out", "--store-dir", "--shards",
        "--store-as-is", "--workers", "--strict", "--inject-faults", "--fault-seed",
        "--journal", "--resume", "--crash-after", "--deadline-ms", "--trace-out",
        "--metrics-out", "--metrics-format", "--manifest-out", "--progress", "--no-trace",
    ];
    if unknown_flag("study", args, &known) {
        return 2;
    }
    let seed: u64 = parsed_flag("study", args, "--seed").unwrap_or(2019);
    let scale: usize = parsed_flag("study", args, "--scale").unwrap_or(1);
    let workers: Option<usize> = parsed_flag("study", args, "--workers");
    let strict = args.iter().any(|a| a == "--strict");
    let inject_pct: u32 = parsed_flag("study", args, "--inject-faults").unwrap_or(0);
    let fault_seed: u64 = parsed_flag("study", args, "--fault-seed").unwrap_or(7);
    let journal = flag_value(args, "--journal").map(std::path::PathBuf::from);
    let resume = args.iter().any(|a| a == "--resume");
    let crash_after: Option<u64> = parsed_flag("study", args, "--crash-after");
    let deadline =
        parsed_flag("study", args, "--deadline-ms").map(std::time::Duration::from_millis);
    if journal.is_none() && (resume || crash_after.is_some()) {
        events::warn("study", "--resume and --crash-after require --journal PATH");
        return 2;
    }

    // --- storage backend flags ---
    let store_dir = flag_value(args, "--store-dir").map(std::path::PathBuf::from);
    let store_as_is = args.iter().any(|a| a == "--store-as-is");
    if store_as_is && store_dir.is_none() {
        events::warn("store", "--store-as-is requires --store-dir DIR");
        return 2;
    }
    let shards: usize = parsed_flag("study", args, "--shards").unwrap_or(8);
    if shards == 0 {
        events::warn("store", "--shards must be a positive integer");
        return 2;
    }
    if flag_value(args, "--shards").is_some() && store_dir.is_none() {
        events::warn("store", "--shards requires --store-dir DIR");
        return 2;
    }
    let scale_factor: usize = parsed_flag("study", args, "--scale-factor").unwrap_or(1).max(1);
    if inject_pct > 0 && store_dir.is_some() {
        events::warn(
            "store",
            "--inject-faults mutates a resident universe; drop --store-dir to use it",
        );
        return 2;
    }

    // A streamed corpus (no store, no injected faults) is generated on a
    // producer thread beside the miners, so by default that thread takes
    // one of the host's hardware threads.
    let streamed_source = store_dir.is_none() && inject_pct == 0;
    let workers = workers.unwrap_or_else(|| {
        let available = StudyOptions::default().workers;
        if streamed_source {
            available.saturating_sub(1).max(1)
        } else {
            available
        }
    });

    // --- observability flags ---
    let trace_out = flag_value(args, "--trace-out");
    let metrics_out = flag_value(args, "--metrics-out");
    let manifest_out = flag_value(args, "--manifest-out");
    let no_trace = args.iter().any(|a| a == "--no-trace");
    let progress_on = args.iter().any(|a| a == "--progress");
    let metrics_format = match flag_value(args, "--metrics-format").as_deref() {
        None => MetricsFormat::Json,
        Some("json") => MetricsFormat::Json,
        Some("prom") => MetricsFormat::Prom,
        Some(other) => {
            events::warn(
                "metrics",
                &format!("unknown --metrics-format `{other}` (expected `json` or `prom`)"),
            );
            return 2;
        }
    };
    if flag_value(args, "--metrics-format").is_some() && metrics_out.is_none() {
        events::warn("metrics", "--metrics-format requires --metrics-out PATH");
        return 2;
    }
    trace::set_enabled(trace_out.is_some() && !no_trace);
    // The run's wall clock: the manifest's `wall_us` is this span.
    let run = stage!("study.run", seed = seed, scale = scale);
    // The registry feeds both the metrics export and the manifest's
    // per-stage wall times, so either flag brings it up.
    let registry = if metrics_out.is_some() || manifest_out.is_some() {
        Some(Arc::new(metrics::Registry::new()))
    } else {
        None
    };
    let heartbeat = if progress_on {
        Some(Arc::new(progress::Progress::new()))
    } else {
        None
    };
    let obs = schevo::obs::ObsHooks {
        registry: registry.clone(),
        progress: heartbeat.clone(),
        ..schevo::obs::ObsHooks::default()
    };

    let journal_path = journal.clone();
    let durability = schevo::pipeline::journal::DurabilityOptions {
        journal,
        resume,
        crash_after,
        deadline,
    };
    let config = if scale <= 1 {
        UniverseConfig::paper(seed)
    } else {
        UniverseConfig::small(seed, scale)
    }
    .with_multiplier(scale_factor);
    // Without a store or injected faults the corpus is generated while it
    // is mined (`GeneratedSource`): its producer thread times generation
    // itself. The other backends are built before mining starts, under
    // this guard.
    let streamed = GeneratedSource::new(config);
    let generating = (store_dir.is_some() || inject_pct > 0).then(|| stage!("study.generate"));
    let mut universe: Option<Universe> = None;
    let store: Option<schevo::corpus::store::ShardStore> = if let Some(dir) = &store_dir {
        use schevo::corpus::store::{generate_into_store, ShardStore};
        // --store-as-is trusts whatever the store holds (e.g. a corpus
        // extended by `schevo append`) — no config check, no regeneration.
        if store_as_is {
            match ShardStore::open(dir) {
                Ok(s) => {
                    events::info(
                        "store",
                        &format!(
                            "using store at {} as-is ({} records, {} appended)",
                            dir.display(),
                            s.manifest().records,
                            s.manifest().appended_records()
                        ),
                    );
                    Some(s)
                }
                Err(e) => {
                    events::warn("store", &e.to_string());
                    return 1;
                }
            }
        } else {
        let reusable = ShardStore::open(dir)
            .ok()
            .filter(|s| s.manifest().matches(&config, shards));
        let opened = match reusable {
            Some(s) => {
                events::info(
                    "store",
                    &format!(
                        "reusing store at {} ({} shards, {} records)",
                        dir.display(),
                        s.manifest().shards,
                        s.manifest().records
                    ),
                );
                s
            }
            None => {
                if dir.join("MANIFEST.json").exists() {
                    events::info("store", "existing store does not match this config; regenerating");
                    if let Err(e) = std::fs::remove_dir_all(dir) {
                        events::warn("store", &format!("cannot clear {}: {e}", dir.display()));
                        return 1;
                    }
                }
                events::info(
                    "corpus",
                    &format!(
                        "generating universe into store (seed {seed}, scale {scale_factor}x/{scale}, {shards} shards)..."
                    ),
                );
                let (m, io) = match generate_into_store(config, dir, shards) {
                    Ok(r) => r,
                    Err(e) => {
                        events::warn("store", &e.to_string());
                        return 1;
                    }
                };
                if let Some(reg) = &registry {
                    reg.add("store.records_written", io.records_written);
                    reg.add("store.bytes_written", io.bytes_written);
                }
                events::info(
                    "store",
                    &format!(
                        "wrote {} records ({} bytes) into {shards} shard(s)",
                        m.records, io.bytes_written
                    ),
                );
                match ShardStore::open(dir) {
                    Ok(s) => s,
                    Err(e) => {
                        events::warn("store", &e.to_string());
                        return 1;
                    }
                }
            }
        };
        Some(opened)
        }
    } else if inject_pct > 0 {
        // `inject` picks its faults from the sorted names of every
        // evolving project, so a fault-injected corpus stays resident.
        events::info(
            "corpus",
            &format!("generating universe (seed {seed}, scale 1/{scale})..."),
        );
        let mut u = generate(config);
        let faults = inject(&mut u, &FaultPlan::all(fault_seed, inject_pct));
        events::info(
            "faults",
            &format!(
                "injected {} fault(s) into {inject_pct}% of evolving projects (fault seed {fault_seed})",
                faults.len()
            ),
        );
        universe = Some(u);
        None
    } else {
        events::info(
            "corpus",
            &format!("streaming universe (seed {seed}, scale 1/{scale})..."),
        );
        None
    };
    if let (Some(generating), Some(reg)) = (generating, &registry) {
        reg.set_gauge("study.stage.generate.nanos", generating.close());
    }
    let source: &dyn CandidateSource = match (&store, &universe) {
        (Some(s), _) => s,
        (None, Some(u)) => u,
        (None, None) => &streamed,
    };
    events::info(
        "study",
        &format!("running study ({workers} workers)..."),
    );
    let study = match try_run_study_source(
        source,
        StudyOptions {
            workers,
            strict,
            durability,
            obs,
            ..StudyOptions::default()
        },
    ) {
        Ok(study) => study,
        Err(e) => {
            events::warn("study", &format!("aborted: {e}"));
            return schevo::pipeline::exit_code(&e);
        }
    };
    let produced = streamed.produced();
    if let (Some(p), Some(reg)) = (&produced, &registry) {
        reg.set_gauge("study.stage.generate.nanos", p.generate_nanos);
    }
    if let Some(j) = &study.journal {
        events::info(
            "journal",
            &format!(
                "{} outcome(s) replayed, {} mined fresh, {} stale record(s) discarded",
                j.replayed, j.mined_fresh, j.stale_discarded
            ),
        );
        if let Some(c) = &j.corruption {
            events::warn("journal", &format!("corrupt tail truncated on resume: {c}"));
        }
    }
    let quarantine_summary = study.quarantine.summary();
    events::info(
        "quarantine",
        quarantine_summary.strip_prefix("quarantine: ").unwrap_or(&quarantine_summary),
    );
    events::info(
        "mine",
        &format!(
            "mined {} candidates in {:.2}s: {} versions parsed",
            study.exec.tasks,
            study.exec.wall_nanos as f64 / 1e9,
            study.exec.parse_misses,
        ),
    );
    println!("{}", funnel_table(&study.report));
    // Stdout stays byte-identical on clean runs (the black-box diff in
    // scripts/ci.sh depends on it); the table only appears under faults.
    if !study.quarantine.is_clean() {
        println!("{}", quarantine_table(&study));
    }
    println!("{}", fig04_table(&study));
    println!("{}", fig10_scatter(&study));
    println!("{}", fig11_matrix(&study));
    println!("{}", fig12_quartiles(&study));
    println!("{}", fig13_boxplot(&study));
    println!("{}", narrative_table(&study));
    println!("{}", extensions_table(&study));
    if let Some(dir) = flag_value(args, "--out") {
        if let Err(e) = std::fs::create_dir_all(&dir) {
            events::warn("study", &format!("cannot create {dir}: {e}"));
            return 1;
        }
        let json = match schevo::report::study_to_json(&study) {
            Ok(json) => json,
            Err(e) => {
                events::warn("study", &format!("cannot serialize study: {e}"));
                return 1;
            }
        };
        let path = format!("{dir}/study_results.json");
        if let Err(e) = schevo::report::write_atomic(std::path::Path::new(&path), json.as_bytes())
        {
            events::warn("study", &e.to_string());
            return 1;
        }
        events::info("study", &format!("wrote {path}"));
    }

    // --- observability artifacts (stdout is already fully written) ---
    // The run span closes before the trace drains, so the trace carries
    // the same wall the manifest reports.
    let wall_nanos = run.close();
    if let Some(reg) = &registry {
        // Sampled after mining so the gauge carries the run's high-water
        // mark; the scale-tier gate in scripts/ci.sh reads it.
        if let Some(rss) = schevo::obs::procinfo::peak_rss_bytes() {
            reg.set_gauge("process.peak_rss_bytes", rss);
        }
    }
    if let Some(path) = &trace_out {
        // Spans from every stage have been dropped by now; drain the
        // shards and publish. With --no-trace the file is still written
        // (empty), so callers can diff "traced vs untraced" trivially.
        let jsonl = trace::to_chrome_jsonl(&trace::drain());
        if let Err(e) = schevo::report::write_atomic(std::path::Path::new(path), jsonl.as_bytes()) {
            events::warn("trace", &e.to_string());
            return 1;
        }
        events::info("trace", &format!("wrote {path}"));
    }
    let snapshot = registry.as_ref().map(|r| r.snapshot());
    if let (Some(path), Some(snap)) = (&metrics_out, &snapshot) {
        let rendered = match metrics_format {
            MetricsFormat::Json => snap.to_json(),
            MetricsFormat::Prom => snap.to_prometheus(),
        };
        if let Err(e) =
            schevo::report::write_atomic(std::path::Path::new(path), rendered.as_bytes())
        {
            events::warn("metrics", &e.to_string());
            return 1;
        }
        events::info("metrics", &format!("wrote {path}"));
    }
    if let (Some(path), Some(snap)) = (&manifest_out, &snapshot) {
        let m = manifest::RunManifest {
            manifest_version: manifest::MANIFEST_VERSION,
            command: "study".to_string(),
            seed,
            scale_divisor: scale as u64,
            workers: workers as u64,
            strict,
            inject_faults_pct: (inject_pct > 0).then_some(inject_pct as u64),
            fault_seed: (inject_pct > 0).then_some(fault_seed),
            deadline_ms: deadline.map(|d| d.as_millis() as u64),
            trace_out: trace_out.clone(),
            metrics_out: metrics_out.clone(),
            corpus_digest: match (&store, &universe, &produced) {
                (Some(s), _, _) => s.manifest().corpus_digest.clone(),
                (_, Some(u), _) => schevo::corpus::universe::corpus_digest(u),
                (_, _, Some(p)) => p.corpus_digest.clone(),
                _ => String::new(),
            },
            wall_us: wall_nanos / 1_000,
            stages: manifest::stages_from_snapshot(snap),
            quarantine: study.quarantine.manifest(),
            journal: study
                .journal
                .as_ref()
                .zip(journal_path.as_deref())
                .map(|(j, path)| j.manifest(path)),
        };
        if let Err(e) =
            schevo::report::write_atomic(std::path::Path::new(path), m.render().as_bytes())
        {
            events::warn("manifest", &e.to_string());
            return 1;
        }
        events::info("manifest", &format!("wrote {path}"));
    }
    // Every artifact is written. Only a fault-injected study holds a
    // resident universe (the streamed corpus is freed record by record on
    // its producer thread). Dropping it would free its 132,664 lightweight
    // records, the Libraries.io map and 365 object stores one allocation
    // at a time: 102–116 ms at paper scale on a 2-vCPU Xeon, for memory the
    // process returns whole when it exits. It holds only memory (no file
    // handle, no buffered writer), so leak it, as clang's `-disable-free`
    // leaks the compiler's ASTs at exit. The early returns above still
    // drop it.
    std::mem::forget(universe);
    0
}

fn cmd_classify(args: &[String]) -> i32 {
    let nums: Vec<u64> = args.iter().filter_map(|a| a.parse().ok()).collect();
    let [commits, active, activity, reeds] = nums[..] else {
        eprintln!("usage: schevo classify <commits> <active> <activity> <reeds>");
        return 2;
    };
    let class = classify(TaxonFeatures {
        commits,
        active_commits: active,
        total_activity: activity,
        reeds,
    });
    match class.taxon() {
        Some(t) => println!("{t}"),
        None => println!("history-less (not studied)"),
    }
    0
}

fn cmd_exemplars() -> i32 {
    for (tag, project) in schevo::corpus::exemplar::all_exemplars() {
        let series = schevo::report::ProjectSeries::mine(&project);
        println!("{}\n{}", tag.label(), series.render(false));
    }
    0
}

fn cmd_export(args: &[String]) -> i32 {
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    let [seed, out] = args else {
        eprintln!("usage: schevo export <seed> <out.pack>");
        return 2;
    };
    let Ok(seed) = seed.parse::<u64>() else {
        eprintln!("seed must be a number");
        return 2;
    };
    let mut rng = StdRng::seed_from_u64(seed);
    let taxon = Taxon::ALL[(seed % 6) as usize];
    let plan = schevo::corpus::plan::plan_project(&mut rng, seed as usize, taxon);
    let project = schevo::corpus::realize::realize(&mut rng, &plan);
    let pack = schevo::vcs::pack::write_pack(&project.repo);
    if let Err(e) = schevo::report::write_atomic(std::path::Path::new(out), &pack) {
        eprintln!("{e}");
        return 1;
    }
    println!(
        "exported {} ({:?}, {} commits) to {out}; DDL at {}",
        plan.name, taxon, plan.commits, project.ddl_path
    );
    0
}

fn cmd_mine(args: &[String]) -> i32 {
    let [input, ddl_path] = args else {
        eprintln!("usage: schevo mine <in.pack> <ddl-path>");
        return 2;
    };
    let bytes = match std::fs::read(input) {
        Ok(b) => b,
        Err(e) => {
            eprintln!("cannot read {input}: {e}");
            return 1;
        }
    };
    let repo = match schevo::vcs::pack::read_pack(&bytes) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("cannot load pack: {e}");
            return 1;
        }
    };
    let versions = match file_history(&repo, ddl_path, WalkStrategy::FirstParent) {
        Ok(v) if !v.is_empty() => v,
        Ok(_) => {
            eprintln!("no versions of {ddl_path} in {}", repo.name);
            return 1;
        }
        Err(e) => {
            eprintln!("extraction failed: {e}");
            return 1;
        }
    };
    let history = match SchemaHistory::from_file_versions(repo.name.clone(), &versions) {
        Ok(h) => h,
        Err(e) => {
            eprintln!("parse failed: {e}");
            return 1;
        }
    };
    let profile = EvolutionProfile::of(&history);
    println!(
        "{}: {} commits ({} active), activity {} ({} expansion / {} maintenance), \
         {} reeds, SUP {} months",
        profile.project,
        profile.commits,
        profile.active_commits,
        profile.total_activity,
        profile.expansion,
        profile.maintenance,
        profile.reeds,
        profile.sup_months
    );
    println!(
        "taxon: {}",
        profile.class.taxon().map(|t| t.name()).unwrap_or("history-less")
    );
    let series = schevo::report::ProjectSeries::from_history(&history);
    println!("{}", series.render(false));
    0
}

fn cmd_serve(args: &[String]) -> i32 {
    if let Some(addr) = flag_value(args, "--connect") {
        return serve_client(&addr, args);
    }
    use schevo::obs::events;
    use schevo::serve::{Listener, Server, ServerConfig};
    use std::sync::Arc;
    let known = [
        "--store-dir", "--port", "--socket", "--max-inflight", "--workers", "--journal",
        "--crash-after", "--deadline-ms", "--artifacts", "--drain-deadline-ms",
        "--final-metrics", "--request-log", "--trace-dir", "--slow-ms", "--slow-log",
        "--profile-interval-ms",
    ];
    if unknown_flag("serve", args, &known) {
        return 2;
    }
    let Some(store_dir) = flag_value(args, "--store-dir") else {
        events::warn("serve", "serve needs --store-dir DIR (or --connect ADDR for client mode)");
        return 2;
    };
    let mut config = ServerConfig::new(std::path::PathBuf::from(store_dir));
    if let Some(n) = parsed_flag("serve", args, "--max-inflight") {
        config.max_inflight = n;
    }
    if let Some(n) = parsed_flag("serve", args, "--workers") {
        config.workers = n;
    }
    config.journal = flag_value(args, "--journal").map(std::path::PathBuf::from);
    config.crash_after = parsed_flag("serve", args, "--crash-after");
    config.deadline =
        parsed_flag("serve", args, "--deadline-ms").map(std::time::Duration::from_millis);
    config.artifacts_dir = flag_value(args, "--artifacts").map(std::path::PathBuf::from);
    if let Some(ms) = parsed_flag("serve", args, "--drain-deadline-ms") {
        config.drain_deadline = std::time::Duration::from_millis(ms);
    }
    config.metrics_out = flag_value(args, "--final-metrics").map(std::path::PathBuf::from);
    if config.crash_after.is_some() && config.journal.is_none() {
        events::warn("serve", "--crash-after requires --journal PATH");
        return 2;
    }
    // --- observability flags ---
    config.request_log = flag_value(args, "--request-log").map(std::path::PathBuf::from);
    config.trace_dir = flag_value(args, "--trace-dir").map(std::path::PathBuf::from);
    config.slow_ms = parsed_flag("serve", args, "--slow-ms");
    config.slow_log = flag_value(args, "--slow-log").map(std::path::PathBuf::from);
    if config.slow_ms.is_some() != config.slow_log.is_some() {
        events::warn("serve", "--slow-ms and --slow-log must be given together");
        return 2;
    }
    // The daemon profiles itself by default (10 ms wall-clock sampling);
    // `--profile-interval-ms 0` turns always-on profiling off (the
    // `profile` op can still start it at runtime).
    config.profile_interval_ms = parsed_flag("serve", args, "--profile-interval-ms").unwrap_or(10);
    let port: u16 = parsed_flag("serve", args, "--port").unwrap_or(0);
    let server = match Server::new(config) {
        Ok(s) => Arc::new(s),
        Err(e) => {
            events::warn("serve", &format!("cannot open store: {e}"));
            return 1;
        }
    };
    events::info(
        "serve",
        &format!(
            "store has {} records ({} appended)",
            server.store_manifest().records,
            server.store_manifest().appended_records()
        ),
    );
    let listener = if let Some(path) = flag_value(args, "--socket") {
        let _ = std::fs::remove_file(&path);
        match std::os::unix::net::UnixListener::bind(&path) {
            Ok(l) => {
                println!("serve: listening on unix:{path}");
                Listener::Unix(l)
            }
            Err(e) => {
                events::warn("serve", &format!("cannot bind {path}: {e}"));
                return 1;
            }
        }
    } else {
        match std::net::TcpListener::bind(("127.0.0.1", port)) {
            Ok(l) => {
                match l.local_addr() {
                    Ok(addr) => println!("serve: listening on {addr}"),
                    Err(e) => {
                        events::warn("serve", &format!("cannot read bound address: {e}"));
                        return 1;
                    }
                }
                Listener::Tcp(l)
            }
            Err(e) => {
                events::warn("serve", &format!("cannot bind 127.0.0.1:{port}: {e}"));
                return 1;
            }
        }
    };
    use std::io::Write as _;
    let _ = std::io::stdout().flush();
    // SIGINT/SIGTERM drain instead of killing, as a `shutdown` request
    // does: stop admitting studies, finish in-flight work and its sinks
    // (bounded by --drain-deadline-ms), flush the final metrics snapshot,
    // exit 0.
    schevo::serve::install_drain_signals();
    if let Err(e) = server.serve(listener) {
        events::warn("serve", &format!("accept loop failed: {e}"));
        return 1;
    }
    events::info("serve", "drained; exiting");
    0
}

fn serve_client(addr: &str, args: &[String]) -> i32 {
    use schevo::obs::events;
    use schevo::serve::proto::Request;
    let known = [
        "--connect", "--op", "--id", "--workers", "--no-cache", "--resume", "--deadline-ms",
        "--out", "--repeat", "--profile", "--stacks-out", "--retries", "--timeout-ms",
    ];
    if unknown_flag("serve", args, &known) {
        return 2;
    }
    let op = flag_value(args, "--op").unwrap_or_else(|| "status".to_string());
    let request = Request {
        id: flag_value(args, "--id"),
        op: op.clone(),
        profile: flag_value(args, "--profile"),
        workers: parsed_flag("serve", args, "--workers"),
        cache: args.iter().any(|a| a == "--no-cache").then_some(false),
        resume: args.iter().any(|a| a == "--resume").then_some(true),
        deadline_ms: parsed_flag("serve", args, "--deadline-ms"),
    };
    let retries: u32 = parsed_flag("serve", args, "--retries").unwrap_or(0);
    let timeout = parsed_flag("serve", args, "--timeout-ms").map(std::time::Duration::from_millis);
    let repeat: u32 = parsed_flag("serve", args, "--repeat").unwrap_or(1).max(1);
    let response = if repeat > 1 {
        // Warm-request timing: one connection, the same request N times,
        // per-request walls on stdout. The ci.sh serving-mode overhead
        // fence compares min walls across daemon configurations — min,
        // because the first request pays cold caches and the rest
        // measure the steady state the fence is about.
        let mut conn = match schevo::serve::connect_timeout(addr, timeout) {
            Ok(c) => c,
            Err(e) => {
                events::warn("serve", &format!("cannot connect to {addr}: {e}"));
                return 1;
            }
        };
        let mut last = None;
        let mut min_wall_us = u64::MAX;
        for i in 0..repeat {
            let started = std::time::Instant::now();
            match conn.roundtrip(&request) {
                Ok(r) => {
                    let wall_us = started.elapsed().as_micros() as u64;
                    min_wall_us = min_wall_us.min(wall_us);
                    println!("repeat: request {i} wall_us={wall_us} status={}", r.status);
                    last = Some(r);
                }
                Err(e) => {
                    events::warn("serve", &format!("request {i} failed: {e}"));
                    return 1;
                }
            }
        }
        println!("repeat: min_wall_us={min_wall_us}");
        match last {
            Some(r) => r,
            None => return 1,
        }
    } else if retries > 0 {
        // Reconnect-per-attempt with capped deterministic backoff: a
        // retry sequence that straddles a server restart still lands,
        // and `busy`/`draining` backpressure is retried, not fatal.
        let spec = schevo::serve::RetrySpec {
            attempts: retries + 1,
            timeout,
            ..schevo::serve::RetrySpec::default()
        };
        match schevo::serve::retrying_roundtrip(addr, &request, &spec) {
            Ok(r) => r,
            Err(e) => {
                events::warn("serve", &format!("request failed after {} attempts: {e}", retries + 1));
                return 1;
            }
        }
    } else {
        let mut conn = match schevo::serve::connect_timeout(addr, timeout) {
            Ok(c) => c,
            Err(e) => {
                events::warn("serve", &format!("cannot connect to {addr}: {e}"));
                return 1;
            }
        };
        match conn.roundtrip(&request) {
            Ok(r) => r,
            Err(e) => {
                events::warn("serve", &format!("request failed: {e}"));
                return 1;
            }
        }
    };
    // Request-id propagation self-check: a supplied id must echo back,
    // and any other op (the id is the query for `result`) must come back
    // with a server-minted id.
    if let Some(sent) = &request.id {
        if response.id.as_deref() != Some(sent.as_str()) {
            events::warn(
                "serve",
                &format!(
                    "request id `{sent}` did not echo (got {:?})",
                    response.id.as_deref()
                ),
            );
            return 1;
        }
    } else if op != "result" && response.id.is_none() {
        events::warn("serve", "server minted no request id");
        return 1;
    }
    match response.status.as_str() {
        "busy" => {
            events::warn("serve", "server is at its in-flight limit; retry later");
            3
        }
        "draining" => {
            events::warn("serve", "server is draining for shutdown; retry after restart");
            3
        }
        "error" => {
            events::warn(
                "serve",
                response.error.as_deref().unwrap_or("unknown server error"),
            );
            1
        }
        _ => {
            if let Some(overrun) = response.deadline_overrun_ms {
                events::warn("serve", &format!("request overran its deadline by {overrun} ms"));
            }
            if let (Some(r), Some(f)) = (response.replayed, response.mined_fresh) {
                events::info(
                    "serve",
                    &format!(
                        "{r} outcome(s) replayed, {f} mined fresh, {} stale discarded",
                        response.stale_discarded.unwrap_or(0)
                    ),
                );
            }
            if let Some(q) = response.quarantined {
                if q > 0 {
                    events::info("serve", &format!("{q} history(ies) quarantined"));
                }
            }
            if let Some(metrics) = &response.metrics {
                print!("{metrics}");
            }
            if let (Some(inflight), Some(served)) = (response.inflight, response.served) {
                println!("serve: {inflight} in flight, {served} served");
            }
            if let Some(profiling) = response.profiling {
                println!(
                    "profiler: {}",
                    if profiling { "running" } else { "stopped" }
                );
            }
            if let Some(stacks) = &response.profile_stacks {
                match flag_value(args, "--stacks-out") {
                    Some(path) => {
                        if let Err(e) = schevo::report::write_atomic(
                            std::path::Path::new(&path),
                            stacks.as_bytes(),
                        ) {
                            events::warn("serve", &e.to_string());
                            return 1;
                        }
                        events::info("serve", &format!("wrote {path}"));
                    }
                    None => print!("{stacks}"),
                }
            }
            if let Some(json) = &response.study_json {
                match flag_value(args, "--out") {
                    Some(path) => {
                        if let Err(e) = schevo::report::write_atomic(
                            std::path::Path::new(&path),
                            json.as_bytes(),
                        ) {
                            events::warn("serve", &e.to_string());
                            return 1;
                        }
                        events::info("serve", &format!("wrote {path}"));
                    }
                    None => print!("{json}"),
                }
            }
            if op == "shutdown" {
                events::info("serve", "server acknowledged shutdown");
            }
            0
        }
    }
}

/// Pull the plain `name value` samples out of a Prometheus exposition
/// (comments and labelled histogram buckets are skipped).
fn prom_samples(text: &str) -> std::collections::HashMap<String, u64> {
    let mut out = std::collections::HashMap::new();
    for line in text.lines() {
        if line.starts_with('#') || line.contains('{') {
            continue;
        }
        if let Some((name, value)) = line.split_once(' ') {
            if let Ok(v) = value.trim().parse::<u64>() {
                out.insert(name.to_string(), v);
            }
        }
    }
    out
}

/// One rendered frame of `schevo top`: in-flight/served plus the 1m/5m
/// sliding-window RED table, from one status and one metrics round-trip.
fn top_frame(conn: &mut schevo::serve::Conn, addr: &str, frame: u64) -> Result<String, String> {
    use schevo::serve::proto::Request;
    let status = conn
        .roundtrip(&Request {
            op: "status".to_string(),
            ..Request::default()
        })
        .map_err(|e| format!("status request failed: {e}"))?;
    let metrics = conn
        .roundtrip(&Request {
            op: "metrics".to_string(),
            ..Request::default()
        })
        .map_err(|e| format!("metrics request failed: {e}"))?;
    let samples = prom_samples(metrics.metrics.as_deref().unwrap_or(""));
    let mut out = format!(
        "schevo top — {addr} — frame {frame}\n  inflight {}   served {}   studies_ok {}   busy {}   errors {}\n",
        status.inflight.unwrap_or(0),
        status.served.unwrap_or(0),
        samples.get("serve_studies_ok").copied().unwrap_or(0),
        samples.get("serve_busy").copied().unwrap_or(0),
        samples.get("serve_study_errors").copied().unwrap_or(0),
    );
    out.push_str(&format!(
        "  {:<8}{:>10}{:>8}{:>10}{:>10}{:>10}{:>10}\n",
        "window", "requests", "errors", "p50_us", "p95_us", "p99_us", "max_us"
    ));
    for win in ["1m", "5m"] {
        let get = |suffix: &str| {
            samples
                .get(&format!("serve_red_{win}_{suffix}"))
                .copied()
                .unwrap_or(0)
        };
        out.push_str(&format!(
            "  {:<8}{:>10}{:>8}{:>10}{:>10}{:>10}{:>10}\n",
            win,
            get("requests"),
            get("errors"),
            get("p50_us"),
            get("p95_us"),
            get("p99_us"),
            get("max_us"),
        ));
    }
    Ok(out)
}

fn cmd_top(args: &[String]) -> i32 {
    use schevo::obs::events;
    let known = ["--connect", "--once", "--interval-ms", "--count", "--timeout-ms"];
    if unknown_flag("top", args, &known) {
        return 2;
    }
    let Some(addr) = flag_value(args, "--connect") else {
        events::warn("top", "top needs --connect ADDR");
        return 2;
    };
    let once = args.iter().any(|a| a == "--once");
    let interval_ms = parsed_flag("top", args, "--interval-ms").unwrap_or(1000);
    let interval = std::time::Duration::from_millis(interval_ms);
    let count = parsed_flag("top", args, "--count").unwrap_or(if once { 1 } else { u64::MAX });
    let timeout = parsed_flag("top", args, "--timeout-ms").map(std::time::Duration::from_millis);
    let mut conn = match schevo::serve::connect_timeout(&addr, timeout) {
        Ok(c) => c,
        Err(e) => {
            events::warn("top", &format!("cannot connect to {addr}: {e}"));
            return 1;
        }
    };
    for frame in 0..count {
        if frame > 0 {
            std::thread::sleep(interval);
        }
        match top_frame(&mut conn, &addr, frame) {
            Ok(rendered) => print!("{rendered}"),
            Err(e) => {
                events::warn("top", &e);
                return 1;
            }
        }
    }
    0
}

fn cmd_scrub(args: &[String]) -> i32 {
    use schevo::obs::events;
    if unknown_flag("scrub", args, &["--store"]) {
        return 2;
    }
    let Some(dir) = flag_value(args, "--store") else {
        events::warn("scrub", "scrub needs --store DIR");
        return 2;
    };
    let report = match schevo::corpus::scrub_store(std::path::Path::new(&dir)) {
        Ok(r) => r,
        Err(e) => {
            events::warn("scrub", &e.to_string());
            return 1;
        }
    };
    println!("{report}");
    if report.clean() {
        events::info("scrub", "store is clean; nothing rewritten");
    } else {
        events::info(
            "scrub",
            &format!(
                "repaired store: {} record(s) kept, {} lost to quarantine, {} resynced",
                report.kept, report.lost, report.resynced
            ),
        );
    }
    0
}

fn cmd_append(args: &[String]) -> i32 {
    use schevo::corpus::store::{append_into_store, ShardStore};
    use schevo::corpus::universe::generate_appendix;
    use schevo::obs::events;
    if unknown_flag("append", args, &["--store", "--count", "--corrupt", "--batch"]) {
        return 2;
    }
    let Some(dir) = flag_value(args, "--store") else {
        events::warn("append", "append needs --store DIR");
        return 2;
    };
    let dir = std::path::PathBuf::from(dir);
    let count: usize = parsed_flag("append", args, "--count").unwrap_or(6);
    let corrupt: usize = parsed_flag("append", args, "--corrupt").unwrap_or(0);
    let batch: u64 = parsed_flag("append", args, "--batch").unwrap_or(0);
    if corrupt > count {
        events::warn("append", "--corrupt cannot exceed --count");
        return 2;
    }
    let config = match ShardStore::open(&dir) {
        Ok(s) => s.manifest().config(),
        Err(e) => {
            events::warn("append", &format!("cannot open store: {e}"));
            return 1;
        }
    };
    let appendix = generate_appendix(config, batch, count, corrupt);
    let (manifest, io) = match append_into_store(&dir, &appendix.records) {
        Ok(r) => r,
        Err(e) => {
            events::warn("append", &e.to_string());
            return 1;
        }
    };
    events::info(
        "append",
        &format!(
            "appended {count} record(s) ({} bytes); store now {} records, {} appended",
            io.bytes_written,
            manifest.records,
            manifest.appended_records()
        ),
    );
    for name in &appendix.corrupted {
        events::info("append", &format!("corrupted every version of {name}"));
    }
    0
}
