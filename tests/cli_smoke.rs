//! Smoke tests for the `schevo` CLI binary (cargo builds it and exposes the
//! path via `CARGO_BIN_EXE_schevo`).

use std::process::Command;

fn schevo(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_schevo"))
        .args(args)
        .output()
        .expect("binary runs")
}

#[test]
fn classify_subcommand() {
    let out = schevo(&["classify", "10", "6", "71", "1"]);
    assert!(out.status.success());
    assert_eq!(
        String::from_utf8_lossy(&out.stdout).trim(),
        "Focused Shot & Low"
    );
    let out = schevo(&["classify", "1", "0", "0", "0"]);
    assert!(String::from_utf8_lossy(&out.stdout).contains("history-less"));
    // Wrong arity → usage error.
    let out = schevo(&["classify", "3"]);
    assert_eq!(out.status.code(), Some(2));
}

#[test]
fn export_then_mine_roundtrip() {
    let dir = std::env::temp_dir().join("schevo_cli_smoke");
    std::fs::create_dir_all(&dir).unwrap();
    let pack = dir.join("demo.pack");
    let pack_str = pack.to_str().unwrap();
    let out = schevo(&["export", "42", pack_str]);
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8_lossy(&out.stdout);
    // The export line names the DDL path; mine it back.
    let ddl_path = stdout
        .split("DDL at ")
        .nth(1)
        .expect("ddl path in output")
        .trim();
    let out = schevo(&["mine", pack_str, ddl_path]);
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let mined = String::from_utf8_lossy(&out.stdout);
    assert!(mined.contains("taxon:"), "{mined}");
    assert!(mined.contains("schema size"));
}

#[test]
fn mine_missing_file_fails_cleanly() {
    let out = schevo(&["mine", "/definitely/not/here.pack", "x.sql"]);
    assert_eq!(out.status.code(), Some(1));
    assert!(String::from_utf8_lossy(&out.stderr).contains("cannot read"));
}

#[test]
fn help_and_unknown_commands() {
    let out = schevo(&["help"]);
    assert!(out.status.success());
    assert!(String::from_utf8_lossy(&out.stdout).contains("USAGE"));
    let out = schevo(&["frobnicate"]);
    assert_eq!(out.status.code(), Some(2));
}

#[test]
fn unknown_flags_are_flag_misuse() {
    let cases: [&[&str]; 6] = [
        &["study", "--scale", "500", "--wrokers", "3"],
        &["serve", "--store-dir", "x", "--wrokers", "3"],
        &["serve", "--connect", "127.0.0.1:1", "--wrokers", "3"],
        &["top", "--connect", "127.0.0.1:1", "--wrokers", "3"],
        &["append", "--store", "x", "--wrokers", "3"],
        &["scrub", "--store", "x", "--wrokers", "3"],
    ];
    for args in cases {
        let out = schevo(args);
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains("unknown flag `--wrokers`"), "{args:?}: {stderr}");
    }
    // A flag the study no longer reads is rejected the same way; the
    // global fault flags stay accepted.
    let out = schevo(&["study", "--scale", "500", "--no-cache"]);
    assert_eq!(out.status.code(), Some(2));
    let out = schevo(&["study", "--scale", "500", "--io-fault-seed", "3"]);
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
}

#[test]
fn unparsable_flag_values_are_flag_misuse() {
    let cases: [(&[&str], &str); 4] = [
        (&["study", "--scale", "500", "--seed", "abc"], "bad value `abc` for `--seed`"),
        (&["study", "--scale", "500", "--workers", "zz"], "bad value `zz` for `--workers`"),
        (
            &["serve", "--connect", "127.0.0.1:1", "--retries", "x"],
            "bad value `x` for `--retries`",
        ),
        (&["append", "--store", "x", "--count", "x"], "bad value `x` for `--count`"),
    ];
    for (args, warning) in cases {
        let out = schevo(args);
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?}: nothing runs on a bad value");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains(warning), "{args:?}: {stderr}");
    }
}

#[test]
fn tiny_study_runs() {
    // 1/40 scale keeps this a smoke test, not a soak test.
    let out = schevo(&["study", "--seed", "7", "--scale", "40"]);
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("Schema_Evo_2019"));
    assert!(stdout.contains("Fig. 11"));
    assert!(stdout.contains("Extension studies"));
}
