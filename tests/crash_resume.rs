//! Black-box crash/resume chaos test: run the real `schevo` binary with
//! `--journal` + `--crash-after N` so it aborts after the Nth durable
//! journal commit, resume it with `--resume`, and require the resumed
//! run's stdout and `study_results.json` to be byte-identical to an
//! uninterrupted golden run — at *every* crash point, and across
//! worker counts that differ between the crashed and the resuming
//! process.

use std::path::{Path, PathBuf};
use std::process::Command;

const SEED: &str = "2019";
const SCALE: &str = "20";

/// A scratch directory of its own per test: tests run concurrently, and
/// two of them write a `golden/` and `full.wal` each.
fn dir(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!(
        "schevo_crash_resume_{tag}_{}",
        std::process::id()
    ));
    std::fs::create_dir_all(&d).expect("create scratch dir");
    d
}

/// Run `schevo study` at the fixed seed/scale with extra flags appended.
fn study(extra: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_schevo"))
        .args(["study", "--seed", SEED, "--scale", SCALE])
        .args(extra)
        .output()
        .expect("binary runs")
}

fn read_json(out_dir: &Path) -> Vec<u8> {
    std::fs::read(out_dir.join("study_results.json")).expect("study_results.json written")
}

/// Golden run (no journal) plus the journal of one full journaled pass,
/// which tells us how many commit points exist.
fn golden_and_commit_count(scratch: &Path) -> (Vec<u8>, Vec<u8>, u64) {
    let golden_dir = scratch.join("golden");
    let out = study(&[
        "--workers",
        "2",
        "--out",
        golden_dir.to_str().expect("utf-8 path"),
    ]);
    assert!(
        out.status.success(),
        "golden run failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let golden_json = read_json(&golden_dir);

    let full_journal = scratch.join("full.wal");
    let full = study(&["--journal", full_journal.to_str().expect("utf-8 path")]);
    assert!(full.status.success());
    assert_eq!(
        full.stdout, out.stdout,
        "journaling changed the study's stdout"
    );
    let journaled = schevo::pipeline::journal::replay_file(&full_journal)
        .expect("full journal readable");
    assert!(journaled.corruption.is_none(), "clean journal has no corruption");
    assert!(!journaled.records.is_empty(), "journal committed records");
    (out.stdout.clone(), golden_json, journaled.records.len() as u64)
}

#[test]
fn kill_at_every_commit_point_then_resume_matches_golden() {
    let scratch = dir("kill");
    let (golden_stdout, golden_json, commits) = golden_and_commit_count(&scratch);

    // Alternate worker counts between the crashed process and the
    // resuming one: resumption must be bit-identical regardless of which
    // configuration mined which half.
    let configs: [&[&str]; 2] = [&["--workers", "1"], &["--workers", "2"]];
    for n in 1..=commits {
        let journal = scratch.join(format!("crash_{n}.wal"));
        let journal = journal.to_str().expect("utf-8 path");
        let crash_cfg = configs[(n as usize) % configs.len()];
        let resume_cfg = configs[(n as usize + 1) % configs.len()];

        let crashed = study(
            &[crash_cfg, &["--journal", journal, "--crash-after", &n.to_string()][..]]
                .concat(),
        );
        assert!(
            !crashed.status.success(),
            "--crash-after {n} did not abort the process"
        );

        let out_dir = scratch.join(format!("resumed_{n}"));
        let resumed = study(
            &[
                resume_cfg,
                &[
                    "--journal",
                    journal,
                    "--resume",
                    "--out",
                    out_dir.to_str().expect("utf-8 path"),
                ][..],
            ]
            .concat(),
        );
        assert!(
            resumed.status.success(),
            "resume after crash point {n} failed: {}",
            String::from_utf8_lossy(&resumed.stderr)
        );
        let stderr = String::from_utf8_lossy(&resumed.stderr);
        assert!(
            stderr.contains(&format!("journal: {n} outcome(s) replayed")),
            "crash point {n}: resume did not replay {n} outcomes:\n{stderr}"
        );
        assert_eq!(
            resumed.stdout, golden_stdout,
            "crash point {n}: resumed stdout diverged from golden"
        );
        assert_eq!(
            read_json(&out_dir),
            golden_json,
            "crash point {n}: resumed study_results.json diverged from golden"
        );
    }
}

#[test]
fn resume_from_corrupt_tail_truncates_and_matches_golden() {
    let scratch = dir("torn");
    let (golden_stdout, golden_json, _) = golden_and_commit_count(&scratch);

    // Build a journal, then tear its last record the way a crash inside
    // a non-atomic write would.
    let journal = scratch.join("torn.wal");
    let journal_str = journal.to_str().expect("utf-8 path");
    let crashed = study(&["--journal", journal_str, "--crash-after", "4"]);
    assert!(!crashed.status.success());
    let mut bytes = std::fs::read(&journal).expect("journal exists after abort");
    bytes.truncate(bytes.len() - 7);
    std::fs::write(&journal, &bytes).expect("tear journal tail");

    let out_dir = scratch.join("resumed_torn");
    let resumed = study(&[
        "--journal",
        journal_str,
        "--resume",
        "--out",
        out_dir.to_str().expect("utf-8 path"),
    ]);
    assert!(
        resumed.status.success(),
        "resume from torn journal failed: {}",
        String::from_utf8_lossy(&resumed.stderr)
    );
    let stderr = String::from_utf8_lossy(&resumed.stderr);
    assert!(
        stderr.contains("corrupt tail truncated on resume"),
        "corruption not surfaced to the operator:\n{stderr}"
    );
    assert!(
        stderr.contains("journal: 3 outcome(s) replayed"),
        "torn record not discarded (expected 3 of 4 replayed):\n{stderr}"
    );
    assert_eq!(resumed.stdout, golden_stdout);
    assert_eq!(read_json(&out_dir), golden_json);
}

#[test]
fn crash_flags_without_journal_are_usage_errors() {
    let out = study(&["--resume"]);
    assert_eq!(out.status.code(), Some(2));
    let out = study(&["--crash-after", "1"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("require --journal"));
}
