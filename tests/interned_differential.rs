//! Black-box differential against the **pre-rewrite** golden outputs.
//!
//! The goldens under `tests/golden/` were captured from the seed binary
//! *before* the hot-path rewrite (arena ASTs, byte-level lexer, interned
//! diff symbols). The rewrite's contract is observational equivalence:
//! a full `schevo study` must still produce byte-identical stdout and
//! `study_results.json` — for every worker count, since interned
//! symbol ids depend on thread interleaving and must
//! never leak into any output. The checked-in `artifacts/*.csv` (also
//! seed-era bytes) are re-rendered in-process for the same reason.

use std::path::{Path, PathBuf};
use std::process::Command;

const SEED: &str = "2019";
const SCALE: &str = "20";

fn dir(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!(
        "schevo_interned_diff_{}_{tag}",
        std::process::id()
    ));
    std::fs::create_dir_all(&d).expect("create scratch dir");
    d
}

fn read(path: &Path) -> String {
    std::fs::read_to_string(path)
        .unwrap_or_else(|e| panic!("read {}: {e}", path.display()))
}

fn golden(name: &str) -> String {
    read(&Path::new(env!("CARGO_MANIFEST_DIR")).join(format!("tests/golden/{name}")))
}

#[test]
fn study_matches_pre_rewrite_golden_across_schedules() {
    let scratch = dir("matrix");
    let golden_stdout = golden("study_s2019_scale20.stdout.txt");
    let golden_json = golden("study_s2019_scale20_results.json");

    for workers in ["1", "2", "8"] {
        let tag = format!("w{workers}");
        let out_dir = scratch.join(format!("out-{tag}"));
        let out_str = out_dir.to_str().expect("utf8 path").to_string();
        let flags = [
            "study",
            "--seed",
            SEED,
            "--scale",
            SCALE,
            "--workers",
            workers,
            "--out",
            &out_str,
        ];
        let run = Command::new(env!("CARGO_BIN_EXE_schevo"))
            .args(flags)
            .output()
            .expect("binary runs");
        assert!(
            run.status.success(),
            "study ({tag}) failed: {}",
            String::from_utf8_lossy(&run.stderr)
        );
        assert_eq!(
            String::from_utf8_lossy(&run.stdout),
            golden_stdout,
            "stdout diverged from the pre-rewrite golden under {tag}"
        );
        assert_eq!(
            read(&out_dir.join("study_results.json")),
            golden_json,
            "study_results.json diverged from the pre-rewrite golden under {tag}"
        );
    }
    let _ = std::fs::remove_dir_all(&scratch);
}

#[test]
fn artifact_csvs_match_pre_rewrite_bytes() {
    // The repo-root `artifacts/*.csv` were committed from the seed
    // renderer; re-render them through the rewritten parse/diff stack.
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut checked = 0usize;
    for (tag, project) in schevo::corpus::exemplar::all_exemplars() {
        let series = schevo::report::ProjectSeries::mine(&project);
        let stem = format!("{tag:?}").to_lowercase();
        for (suffix, rendered) in [
            ("size", series.size_csv().render()),
            ("heartbeat", series.heartbeat_csv().render()),
        ] {
            let path = root.join(format!("artifacts/{stem}_{suffix}.csv"));
            assert_eq!(
                rendered,
                read(&path),
                "{} drifted from its pre-rewrite bytes",
                path.display()
            );
            checked += 1;
        }
    }
    assert_eq!(checked, 18, "artifact coverage shrank");
}
