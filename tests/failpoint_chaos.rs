//! Black-box failpoint chaos: drive the real `schevo` binary under
//! seeded `--io-faults` schedules and require the robustness contract —
//! every faulted run either completes byte-identical to a clean run
//! (transient faults absorbed by the retry loops) or fails with a typed
//! error and a clean exit code, after which retry or `--resume`
//! converges to the byte-identical golden result. Fault *sequences* are
//! part of the contract too: the same spec and seed fire the same
//! faults in the same order whatever the worker count, because every
//! durability site runs on the candidate-ordered caller thread (store
//! reads too: a reader thread reads ahead, the `store.read` check stays on
//! the caller).

use std::path::{Path, PathBuf};
use std::process::Command;

const SEED: &str = "2019";
const SCALE: &str = "20";

fn dir(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("schevo_fp_chaos_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    std::fs::create_dir_all(&d).expect("create scratch dir");
    d
}

fn study(extra: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_schevo"))
        .args(["study", "--seed", SEED, "--scale", SCALE])
        .args(extra)
        .output()
        .expect("binary runs")
}

fn fired_lines(stderr: &[u8]) -> Vec<String> {
    String::from_utf8_lossy(stderr)
        .lines()
        .filter(|l| l.starts_with("fault-fired:"))
        .map(str::to_string)
        .collect()
}

fn read_json(out_dir: &Path) -> Vec<u8> {
    std::fs::read(out_dir.join("study_results.json")).expect("study_results.json written")
}

/// A clean golden run: stdout + study_results.json.
fn golden(scratch: &Path) -> (Vec<u8>, Vec<u8>) {
    let out_dir = scratch.join("golden");
    let out = study(&["--out", out_dir.to_str().expect("utf-8 path")]);
    assert!(
        out.status.success(),
        "golden run failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    (out.stdout.clone(), read_json(&out_dir))
}

/// Same spec, same seed, different worker counts: the fired-fault
/// sequence on stderr is identical, the faults are absorbed by the
/// retry loops, and the study output stays byte-identical to golden.
#[test]
fn seeded_fault_sequences_are_identical_across_worker_counts() {
    let scratch = dir("workers");
    let (golden_stdout, golden_json) = golden(&scratch);

    let spec = "journal.fsync=eio@0.3;journal.append=eio@0.3";
    let mut sequences = Vec::new();
    for workers in ["1", "2", "8"] {
        let journal = scratch.join(format!("w{workers}.wal"));
        let out_dir = scratch.join(format!("out_w{workers}"));
        let out = study(&[
            "--workers",
            workers,
            "--journal",
            journal.to_str().expect("utf-8 path"),
            "--out",
            out_dir.to_str().expect("utf-8 path"),
            "--io-faults",
            spec,
            "--io-fault-seed",
            "42",
        ]);
        assert!(
            out.status.success(),
            "workers={workers}: transient faults must be absorbed: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        assert_eq!(
            out.stdout, golden_stdout,
            "workers={workers}: absorbed faults changed stdout"
        );
        assert_eq!(
            read_json(&out_dir),
            golden_json,
            "workers={workers}: absorbed faults changed study_results.json"
        );
        sequences.push(fired_lines(&out.stderr));
    }
    assert!(
        !sequences[0].is_empty(),
        "the seeded schedule must actually fire (raise the probabilities if the corpus shrank)"
    );
    assert_eq!(sequences[0], sequences[1], "1 vs 2 workers diverged");
    assert_eq!(sequences[1], sequences[2], "2 vs 8 workers diverged");
}

/// A persistent ENOSPC at a journal site is a typed failure with exit
/// code 3 and an intact journal prefix; re-running with `--resume` and
/// no faults converges to the byte-identical golden result.
#[test]
fn enospc_is_typed_and_resume_converges() {
    let scratch = dir("enospc");
    let (golden_stdout, golden_json) = golden(&scratch);

    let journal = scratch.join("enospc.wal");
    let journal_str = journal.to_str().expect("utf-8 path");
    let out = study(&["--journal", journal_str, "--io-faults", "journal.append=enospc@3+"]);
    assert_eq!(out.status.code(), Some(3), "typed study abort exits 3");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("No space left on device"),
        "the root cause is surfaced: {stderr}"
    );
    assert!(
        !fired_lines(&out.stderr).is_empty(),
        "the fired fault is reported: {stderr}"
    );

    // The journal holds an intact prefix — the failed append never tore
    // a frame — and replaying it converges to golden.
    let replayed = schevo::pipeline::journal::replay_file(&journal).expect("prefix readable");
    assert!(replayed.corruption.is_none(), "no torn frame after ENOSPC");

    let out_dir = scratch.join("resumed");
    let resumed = study(&[
        "--journal",
        journal_str,
        "--resume",
        "--out",
        out_dir.to_str().expect("utf-8 path"),
    ]);
    assert!(
        resumed.status.success(),
        "resume after ENOSPC failed: {}",
        String::from_utf8_lossy(&resumed.stderr)
    );
    assert_eq!(resumed.stdout, golden_stdout);
    assert_eq!(read_json(&out_dir), golden_json);
}

/// Kill the process at every durability failpoint (several hit indices
/// each): the survivor state is never torn, and `--resume` produces the
/// byte-identical golden result from whatever prefix survived.
#[test]
fn kill_at_every_failpoint_then_resume_matches_golden() {
    let scratch = dir("kill");
    let (golden_stdout, golden_json) = golden(&scratch);

    let mut cases: Vec<String> = vec!["journal.create=kill@0".to_string()];
    for site in ["journal.append", "journal.fsync"] {
        for hit in [0, 1, 5] {
            cases.push(format!("{site}=kill@{hit}"));
        }
    }
    for (i, spec) in cases.iter().enumerate() {
        let journal = scratch.join(format!("kill_{i}.wal"));
        let journal_str = journal.to_str().expect("utf-8 path");
        let killed = study(&["--journal", journal_str, "--io-faults", spec]);
        assert!(
            !killed.status.success(),
            "{spec}: the kill failpoint must abort the process"
        );

        // The kill fires before the guarded syscall, so the journal is
        // either absent, empty (killed before the header write), or an
        // intact frame prefix — never a torn frame.
        let journal_len = std::fs::metadata(&journal).map(|m| m.len()).unwrap_or(0);
        if journal_len > 0 {
            let replayed =
                schevo::pipeline::journal::replay_file(&journal).expect("prefix readable");
            assert!(
                replayed.corruption.is_none(),
                "{spec}: kill before the syscall left a torn frame"
            );
        }
        let out_dir = scratch.join(format!("resumed_{i}"));
        let resumed = study(&[
            "--journal",
            journal_str,
            "--resume",
            "--out",
            out_dir.to_str().expect("utf-8 path"),
        ]);
        assert!(
            resumed.status.success(),
            "{spec}: resume failed: {}",
            String::from_utf8_lossy(&resumed.stderr)
        );
        assert_eq!(
            resumed.stdout, golden_stdout,
            "{spec}: resumed stdout diverged from golden"
        );
        assert_eq!(
            read_json(&out_dir),
            golden_json,
            "{spec}: resumed study_results.json diverged from golden"
        );
    }
}

/// Faults during store generation are typed I/O failures (exit 1), and
/// no half-written store survives to poison the next run: the retry
/// after the fault clears regenerates and matches golden.
#[test]
fn store_generation_faults_fail_clean_and_retry_converges() {
    let scratch = dir("store");
    let (golden_stdout, golden_json) = golden(&scratch);

    let store = scratch.join("store");
    let store_str = store.to_str().expect("utf-8 path");
    let out = study(&["--store-dir", store_str, "--io-faults", "store.fsync=enospc@0+"]);
    assert_eq!(out.status.code(), Some(1), "store I/O failure exits 1");
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("No space left on device"),
        "root cause surfaced: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(
        !store.join("MANIFEST.json").exists(),
        "a failed generation must not publish a manifest"
    );

    let out_dir = scratch.join("retried");
    let retried = study(&[
        "--store-dir",
        store_str,
        "--out",
        out_dir.to_str().expect("utf-8 path"),
    ]);
    assert!(
        retried.status.success(),
        "retry after the fault cleared failed: {}",
        String::from_utf8_lossy(&retried.stderr)
    );
    assert_eq!(retried.stdout, golden_stdout);
    assert_eq!(read_json(&out_dir), golden_json);
}

fn sha1_hex(bytes: &[u8]) -> String {
    schevo::vcs::sha1::sha1(bytes).to_hex()
}

/// Store reads run on reader threads ahead of the merge, but the
/// `store.read` site is still checked on the calling thread, once per
/// frame in merge order: a transient schedule (absorbed) and permanent
/// ones (the shard fails closed and is quarantined) fire the same faults
/// and give the same stdout and `study_results.json` at 1, 2 and 8
/// workers and on a repeated run — the values the serial reader gave,
/// pinned as `(fired, SHA-1 of the fired lines, of stdout, of the json)`.
#[test]
fn store_read_faults_are_deterministic_through_the_read_ahead() {
    let scratch = dir("store_read");
    let (golden_stdout, golden_json) = golden(&scratch);
    let store = scratch.join("store");
    let store_str = store.to_str().expect("utf-8 path");
    let built = study(&["--store-dir", store_str]);
    assert!(
        built.status.success(),
        "{}",
        String::from_utf8_lossy(&built.stderr)
    );
    assert_eq!(
        built.stdout, golden_stdout,
        "the store-backed study equals golden"
    );
    let schedules = [
        (
            "store.read=eio@0.05",
            347,
            "be5abd5c21e9d618c0677746bf990d0361cd8d8d",
            "fa4310f339a306dc6606f632532d17b4d9d70ead",
            "66099d06b037ccb96f50bc613e50335d50e9c647",
        ),
        (
            "store.read=enospc@40",
            1,
            "bfd406bc623f911fe32139f79b0d74d331e7ecda",
            "0e4cd423399e0e6eaff0319115a7fcf771c1838e",
            "c04291a01bac2cd0832b168aa3bc8899dad4beed",
        ),
        (
            "store.read=enospc@3000",
            1,
            "bcc8d4f579e317941b343eb385002105d358f3ad",
            "043c91e7e98dbe8bce63d0a97f8cfe93a2b88019",
            "a250d10e30515b7b33d3683dab0f0cf8f7c73e13",
        ),
    ];
    for (spec, fired, fired_sha, stdout_sha, json_sha) in schedules {
        for (run, workers) in ["1", "2", "8", "2"].into_iter().enumerate() {
            let out_dir = scratch.join(format!("out_{run}"));
            let out = study(&[
                "--store-dir",
                store_str,
                "--workers",
                workers,
                "--out",
                out_dir.to_str().expect("utf-8 path"),
                "--io-faults",
                spec,
                "--io-fault-seed",
                "42",
            ]);
            assert!(
                out.status.success(),
                "{spec} at {workers} workers: {}",
                String::from_utf8_lossy(&out.stderr)
            );
            let lines = fired_lines(&out.stderr);
            let what = format!("{spec}, run {run} at {workers} workers");
            assert_eq!(lines.len(), fired, "{what}: faults fired");
            assert_eq!(
                sha1_hex(lines.join("\n").as_bytes()),
                fired_sha,
                "{what}: fired lines"
            );
            assert_eq!(sha1_hex(&out.stdout), stdout_sha, "{what}: stdout");
            assert_eq!(sha1_hex(&read_json(&out_dir)), json_sha, "{what}: json");
        }
    }
    // The transient schedule is absorbed: its pins are golden's.
    assert_eq!(sha1_hex(&golden_stdout), schedules[0].3);
    assert_eq!(sha1_hex(&golden_json), schedules[0].4);
}

/// The env pair arms children exactly like the flags, and the flags
/// override the env.
#[test]
fn env_arming_matches_flags_and_flags_win() {
    let scratch = dir("env");
    let journal = scratch.join("env.wal");
    let journal_str = journal.to_str().expect("utf-8 path");

    let via_env = Command::new(env!("CARGO_BIN_EXE_schevo"))
        .args(["study", "--seed", SEED, "--scale", SCALE, "--journal", journal_str])
        .env("SCHEVO_IO_FAULTS", "journal.append=enospc@0+")
        .output()
        .expect("binary runs");
    assert_eq!(via_env.status.code(), Some(3), "env-armed fault is typed");

    // The explicit flag replaces the env schedule entirely: an empty
    // spec disarms it and the run completes.
    let _ = std::fs::remove_file(&journal);
    let overridden = Command::new(env!("CARGO_BIN_EXE_schevo"))
        .args(["study", "--seed", SEED, "--scale", SCALE, "--journal", journal_str])
        .env("SCHEVO_IO_FAULTS", "journal.append=enospc@0+")
        .args(["--io-faults", ""])
        .output()
        .expect("binary runs");
    assert!(
        overridden.status.success(),
        "--io-faults \"\" must disarm the env schedule: {}",
        String::from_utf8_lossy(&overridden.stderr)
    );

    let bad = Command::new(env!("CARGO_BIN_EXE_schevo"))
        .args(["study", "--io-faults", "journal.append=frobnicate"])
        .output()
        .expect("binary runs");
    assert_eq!(bad.status.code(), Some(2), "grammar errors are flag misuse");
}
