//! Disabled failpoints cost nothing on the mining path because the mining
//! path reaches no failpoint site. Checked exactly rather than timed: with
//! every site in the source armed to fail on every hit, mining an in-memory
//! universe still succeeds and fires no fault. The failpoint registry is
//! process-global, so this test has a test binary of its own.

use schevo::core::failpoint;
use schevo::prelude::*;
use schevo::report::write_atomic;
use std::collections::BTreeSet;
use std::path::{Path, PathBuf};

fn rust_files(dir: &Path, out: &mut Vec<PathBuf>) {
    for entry in std::fs::read_dir(dir).expect("readable source dir") {
        let path = entry.expect("dir entry").path();
        if path.is_dir() {
            rust_files(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

/// Every site named by a `failpoint::check("…")` literal under `crates/*/src`.
fn failpoint_sites() -> BTreeSet<String> {
    const NEEDLE: &str = "failpoint::check(\"";
    let crates = Path::new(env!("CARGO_MANIFEST_DIR")).join("crates");
    let mut files = Vec::new();
    for krate in std::fs::read_dir(crates).expect("crates dir") {
        rust_files(&krate.expect("dir entry").path().join("src"), &mut files);
    }
    let mut sites = BTreeSet::new();
    for file in files {
        let text = std::fs::read_to_string(&file).expect("readable source");
        for (at, _) in text.match_indices(NEEDLE) {
            let rest = &text[at + NEEDLE.len()..];
            sites.insert(rest[..rest.find('"').expect("closed literal")].to_string());
        }
    }
    sites
}

#[test]
fn mining_reaches_no_failpoint_site() {
    let sites = failpoint_sites();
    assert!(
        sites.len() >= 16,
        "source scan found too few sites: {sites:?}"
    );
    let spec: Vec<String> = sites.iter().map(|s| format!("{s}=enospc@0+")).collect();
    failpoint::configure(&spec.join(";"), 0).expect("schedule parses");

    let universe = generate(UniverseConfig::small(2019, 20));
    let mined = MiningEngine::new(StudyOptions {
        workers: 1,
        ..StudyOptions::default()
    })
    .mine(&universe);
    let fired_while_mining = failpoint::fired();

    // Positive control: the same schedule does fail an artifact write.
    let dir = std::env::temp_dir().join(format!("schevo_fp_reach_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let written = write_atomic(&dir.join("artifact.json"), b"{}");
    failpoint::reset();
    let _ = std::fs::remove_dir_all(&dir);

    let mined = mined.expect("mining with every site armed");
    assert!(!mined.mined.is_empty());
    assert!(
        fired_while_mining.is_empty(),
        "mining hit {fired_while_mining:?}"
    );
    let err = written.expect_err("armed write_atomic must fail");
    assert_eq!(err.source.raw_os_error(), Some(28), "{err}");
}
