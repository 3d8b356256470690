//! Deterministic fault injection for realized universes.
//!
//! The paper's funnel exists because real FOSS corpora are full of
//! garbage: truncated dumps, vendor syntax, merge-conflict droppings,
//! histories whose timestamps go backwards. This module reproduces that
//! garbage on demand — seeded, with no wall-clock entropy — so the
//! chaos tests can prove the miner degrades gracefully instead of
//! dying. Each [`FaultClass`] mutates the extracted DDL history of a
//! chosen project and rebuilds its repository linearly, preserving all
//! commit metadata except the corruption itself.

use crate::realize::GeneratedProject;
use crate::universe::{MaterializedBody, Universe};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use schevo_vcs::history::{file_history, FileVersion, WalkStrategy};
use schevo_vcs::repo::{FileChange, Repository};
use serde::{Deserialize, Serialize};

/// One class of corruption the generator can inject.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum FaultClass {
    /// Cut a version's content mid-file (as if a clone or dump died).
    TruncatedBlob,
    /// Remove a closing parenthesis from a `CREATE TABLE` body.
    UnbalancedParens,
    /// Append vendor-specific clauses (T-SQL `GO`, MySQL executable
    /// partition comments, Postgres `REPLICA IDENTITY`).
    UnknownVendorClause,
    /// Interleave non-DDL noise: migration bookkeeping `INSERT`s and
    /// merge-conflict markers.
    NonDdlNoise,
    /// Overwrite one byte of a version with a hostile character
    /// (quote/backquote), typically unterminating a token.
    ByteFlip,
    /// Swap two adjacent commit timestamps so the history goes
    /// backwards in time.
    NonMonotonicTimestamps,
    /// Insert a byte-identical copy of a version next to itself.
    DuplicateVersion,
    /// Blank out a version's content entirely.
    EmptyVersion,
    /// Append a vendor-dump-style blowup of generated `CREATE TABLE`
    /// statements: perfectly valid DDL, but orders of magnitude more
    /// parse/diff work than any organic version — the pathological
    /// history the executor's watchdog deadline exists to flag.
    SlowPath,
}

impl FaultClass {
    /// Every fault class, in catalog order.
    pub const ALL: [FaultClass; 9] = [
        FaultClass::TruncatedBlob,
        FaultClass::UnbalancedParens,
        FaultClass::UnknownVendorClause,
        FaultClass::NonDdlNoise,
        FaultClass::ByteFlip,
        FaultClass::NonMonotonicTimestamps,
        FaultClass::DuplicateVersion,
        FaultClass::EmptyVersion,
        FaultClass::SlowPath,
    ];

    /// Short stable label used in reports and ground-truth listings.
    pub fn label(&self) -> &'static str {
        match self {
            FaultClass::TruncatedBlob => "truncated-blob",
            FaultClass::UnbalancedParens => "unbalanced-parens",
            FaultClass::UnknownVendorClause => "unknown-vendor-clause",
            FaultClass::NonDdlNoise => "non-ddl-noise",
            FaultClass::ByteFlip => "byte-flip",
            FaultClass::NonMonotonicTimestamps => "non-monotonic-timestamps",
            FaultClass::DuplicateVersion => "duplicate-version",
            FaultClass::EmptyVersion => "empty-version",
            FaultClass::SlowPath => "slow-path",
        }
    }
}

impl std::fmt::Display for FaultClass {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// What to inject: a seed (the only source of randomness), the fraction
/// of evolving projects to corrupt, and the classes to cycle through.
#[derive(Debug, Clone)]
pub struct FaultPlan {
    /// Seed for the injection RNG. Independent from the universe seed.
    pub seed: u64,
    /// Percentage (0–100) of evolving projects to corrupt.
    pub rate_percent: u32,
    /// Classes assigned round-robin to the selected projects.
    pub classes: Vec<FaultClass>,
}

impl FaultPlan {
    /// A plan cycling through the whole catalog.
    pub fn all(seed: u64, rate_percent: u32) -> Self {
        FaultPlan {
            seed,
            rate_percent,
            classes: FaultClass::ALL.to_vec(),
        }
    }

    /// A plan injecting a single class.
    pub fn single(seed: u64, rate_percent: u32, class: FaultClass) -> Self {
        FaultPlan {
            seed,
            rate_percent,
            classes: vec![class],
        }
    }
}

/// Ground truth for one injected fault.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct InjectedFault {
    /// `owner/repo` of the corrupted project.
    pub project: String,
    /// The class that was injected.
    pub class: FaultClass,
    /// Index (into the extracted version list) of the affected version.
    pub version_index: usize,
}

/// Corrupt a universe in place per `plan`, returning the ground truth of
/// what was injected, sorted by project name.
///
/// Only evolving (`Evo`) projects are eligible: noise projects never
/// reach the mining stage, so corrupting them would test nothing. A
/// selected project whose history cannot express the assigned class
/// (e.g. no parenthesis to unbalance) is skipped and reported in the
/// returned list only if actually corrupted.
pub fn inject(universe: &mut Universe, plan: &FaultPlan) -> Vec<InjectedFault> {
    let mut names: Vec<String> = universe
        .materialized
        .iter()
        .filter(|(_, r)| matches!(r.body, MaterializedBody::Evo(_)))
        .map(|(n, _)| n.clone())
        .collect();
    names.sort();
    if names.is_empty() || plan.rate_percent == 0 || plan.classes.is_empty() {
        return Vec::new();
    }
    let count = ((names.len() * plan.rate_percent as usize) / 100).max(1);
    let mut rng = StdRng::seed_from_u64(plan.seed);
    // Fisher–Yates over the sorted name list, then keep the first `count`
    // names re-sorted so class assignment is order-stable.
    let mut idx: Vec<usize> = (0..names.len()).collect();
    for i in (1..idx.len()).rev() {
        let j = rng.gen_range(0..=i);
        idx.swap(i, j);
    }
    let mut chosen: Vec<String> = idx[..count.min(idx.len())]
        .iter()
        .map(|&i| names[i].clone())
        .collect();
    chosen.sort();

    let mut faults = Vec::new();
    for (k, name) in chosen.iter().enumerate() {
        let class = plan.classes[k % plan.classes.len()];
        let Some(repo) = universe.materialized.get_mut(name) else {
            continue;
        };
        let MaterializedBody::Evo(project) = &mut repo.body else {
            continue;
        };
        if let Some(version_index) = corrupt_project(project, class, &mut rng) {
            faults.push(InjectedFault {
                project: name.clone(),
                class,
                version_index,
            });
        }
    }
    faults
}

/// Extract a project's DDL history, corrupt it, and rebuild the
/// repository as a linear chain with the same commit metadata. Returns
/// the affected version index, or `None` if the class was inapplicable.
fn corrupt_project(project: &mut GeneratedProject, class: FaultClass, rng: &mut StdRng) -> Option<usize> {
    let mut versions =
        file_history(&project.repo, &project.ddl_path, WalkStrategy::FirstParent).ok()?;
    let idx = corrupt_versions(&mut versions, class, rng)?;
    let mut repo = Repository::new(project.repo.name.clone());
    for v in &versions {
        let _ = repo.commit(
            [FileChange::write(&project.ddl_path, v.content.as_str())],
            &v.author,
            v.timestamp,
            &v.message,
        );
    }
    project.repo = repo;
    Some(idx)
}

/// Corrupt every version of `project`'s DDL history **except the
/// first** and rebuild the repository as a linear chain with the same
/// commit metadata. The intact first version keeps the history inside
/// the collection funnel (it still has a parseable `CREATE TABLE`); the
/// rest each get an unterminated quote at byte 0, so the whole version
/// is one hostile token — the strict parse fails, statement-level
/// salvage recovers nothing, and graceful mining must quarantine the
/// history. The append-aware chaos tests rely on that. Returns the
/// number of versions corrupted.
pub fn poison_history(project: &mut GeneratedProject) -> usize {
    let Ok(versions) = file_history(&project.repo, &project.ddl_path, WalkStrategy::FirstParent)
    else {
        return 0;
    };
    let mut corrupted = 0usize;
    let mut rebuilt = Vec::with_capacity(versions.len());
    for (i, mut v) in versions.into_iter().enumerate() {
        if i > 0 {
            v.content.to_mut().insert(0, '\'');
            corrupted += 1;
        }
        rebuilt.push(v);
    }
    let mut repo = Repository::new(project.repo.name.clone());
    for v in &rebuilt {
        let _ = repo.commit(
            [FileChange::write(&project.ddl_path, v.content.as_str())],
            &v.author,
            v.timestamp,
            &v.message,
        );
    }
    project.repo = repo;
    corrupted
}

/// Apply one corruption class to an extracted version list in place.
/// Returns the index of the affected version, or `None` when the list
/// cannot express the class (too short, nothing to unbalance, ...).
///
/// This is also usable directly on candidate-level version lists (the
/// funnel's extracted histories), which matters for `DuplicateVersion`:
/// at the repository level the history walk deduplicates identical
/// consecutive blobs, so that class only bites when injected after
/// extraction.
pub fn corrupt_versions(
    versions: &mut Vec<FileVersion>,
    class: FaultClass,
    rng: &mut StdRng,
) -> Option<usize> {
    if versions.is_empty() {
        return None;
    }
    match class {
        FaultClass::TruncatedBlob => {
            let i = pick(rng, versions, |v| v.content.len() >= 40)?;
            let content = versions[i].content.to_mut();
            let mut cut = content.len() * 3 / 5;
            while cut > 0 && !content.is_char_boundary(cut) {
                cut -= 1;
            }
            content.truncate(cut);
            Some(i)
        }
        FaultClass::UnbalancedParens => {
            let i = pick(rng, versions, |v| v.content.contains(')'))?;
            let content = versions[i].content.to_mut();
            let at = content.rfind(')')?;
            content.remove(at);
            Some(i)
        }
        FaultClass::UnknownVendorClause => {
            let i = pick(rng, versions, |_| true)?;
            versions[i].content.to_mut().push_str(
                "\nALTER TABLE ONLY audit_log REPLICA IDENTITY FULL;\n\
                 GO\n\
                 EXEC sp_addextendedproperty @name = N'MS_Description', @value = N'legacy';\n\
                 /*!50100 PARTITION BY RANGE (id) (PARTITION p0 VALUES LESS THAN (6)) */;\n",
            );
            Some(i)
        }
        FaultClass::NonDdlNoise => {
            let i = pick(rng, versions, |_| true)?;
            let content = versions[i].content.to_mut();
            let noise = "INSERT INTO schema_migrations (version) VALUES ('20190301120000');\n\
                         <<<<<<< HEAD\n-- local tweak\n=======\n-- upstream tweak\n\
                         >>>>>>> upstream/master\n";
            // Interleave after the first statement when possible.
            let at = content.find(';').map(|p| p + 1).unwrap_or(0);
            content.insert_str(at, &format!("\n{noise}"));
            Some(i)
        }
        FaultClass::ByteFlip => {
            let i = pick(rng, versions, |v| !v.content.is_empty())?;
            let mut bytes = versions[i].content.as_bytes().to_vec();
            // Hostile replacement: a quote character opens a string (or
            // backquoted identifier) that nothing terminates. Flipping
            // after the last existing quote guarantees the token runs to
            // EOF, so the fault is always *detectable* (lex error), which
            // the chaos tests rely on.
            let lo = bytes
                .iter()
                .rposition(|&b| b == b'\'' || b == b'`' || b == b'"')
                .map(|p| p + 1)
                .unwrap_or(0);
            let pos = if lo >= bytes.len() {
                bytes.len() - 1
            } else {
                rng.gen_range(lo..bytes.len())
            };
            let hostile = [b'\'', b'`'];
            bytes[pos] = hostile[rng.gen_range(0..hostile.len())];
            versions[i].content = String::from_utf8_lossy(&bytes).into_owned().into();
            Some(i)
        }
        FaultClass::NonMonotonicTimestamps => {
            if versions.len() < 2 {
                return None;
            }
            let eligible: Vec<usize> = (0..versions.len() - 1)
                .filter(|&i| versions[i].timestamp != versions[i + 1].timestamp)
                .collect();
            if eligible.is_empty() {
                return None;
            }
            let i = eligible[rng.gen_range(0..eligible.len())];
            let t = versions[i].timestamp;
            versions[i].timestamp = versions[i + 1].timestamp;
            versions[i + 1].timestamp = t;
            Some(i)
        }
        FaultClass::DuplicateVersion => {
            let i = rng.gen_range(0..versions.len());
            let dup = versions[i].clone();
            versions.insert(i + 1, dup);
            Some(i)
        }
        FaultClass::EmptyVersion => {
            let i = rng.gen_range(0..versions.len());
            versions[i].content = "\n\n".into();
            Some(i)
        }
        FaultClass::SlowPath => {
            use std::fmt::Write as _;
            let i = pick(rng, versions, |_| true)?;
            let tables = 300 + rng.gen_range(0..100);
            let mut blob = String::with_capacity(tables * 320);
            for t in 0..tables {
                let _ = write!(blob, "CREATE TABLE bulk_dump_{t:04} (");
                for c in 0..24 {
                    let _ = write!(blob, "c{c} INT, ");
                }
                blob.push_str("PRIMARY KEY (c0));\n");
            }
            let content = versions[i].content.to_mut();
            content.push('\n');
            content.push_str(&blob);
            Some(i)
        }
    }
}

/// Pick a uniformly random version index satisfying `eligible`.
fn pick<F: Fn(&FileVersion) -> bool>(
    rng: &mut StdRng,
    versions: &[FileVersion],
    eligible: F,
) -> Option<usize> {
    let candidates: Vec<usize> = (0..versions.len())
        .filter(|&i| eligible(&versions[i]))
        .collect();
    if candidates.is_empty() {
        return None;
    }
    Some(candidates[rng.gen_range(0..candidates.len())])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::universe::{generate, UniverseConfig};

    fn extracted(u: &Universe, name: &str) -> Vec<FileVersion> {
        let repo = &u.materialized[name];
        let MaterializedBody::Evo(p) = &repo.body else {
            panic!("not an evo project")
        };
        file_history(&p.repo, &p.ddl_path, WalkStrategy::FirstParent).unwrap()
    }

    #[test]
    fn injection_is_deterministic() {
        let mut a = generate(UniverseConfig::small(2019, 20));
        let mut b = generate(UniverseConfig::small(2019, 20));
        let fa = inject(&mut a, &FaultPlan::all(7, 20));
        let fb = inject(&mut b, &FaultPlan::all(7, 20));
        assert_eq!(fa, fb);
        assert!(!fa.is_empty());
        for (x, y) in fa.iter().zip(&fb) {
            assert_eq!(extracted(&a, &x.project), extracted(&b, &y.project));
        }
    }

    #[test]
    fn injection_changes_selected_histories() {
        let clean = generate(UniverseConfig::small(2019, 20));
        let mut dirty = generate(UniverseConfig::small(2019, 20));
        let faults = inject(&mut dirty, &FaultPlan::all(7, 20));
        assert!(!faults.is_empty());
        let mut visible = 0usize;
        for f in &faults {
            if extracted(&clean, &f.project) != extracted(&dirty, &f.project) {
                visible += 1;
            } else {
                // Only DuplicateVersion may be invisible at repo level:
                // the history walk deduplicates identical consecutive
                // blobs.
                assert_eq!(f.class, FaultClass::DuplicateVersion, "{}", f.project);
            }
        }
        assert!(visible > 0);
    }

    #[test]
    fn untouched_projects_are_bit_identical() {
        let clean = generate(UniverseConfig::small(2019, 20));
        let mut dirty = generate(UniverseConfig::small(2019, 20));
        let faults = inject(&mut dirty, &FaultPlan::all(7, 20));
        let hit: std::collections::HashSet<&str> =
            faults.iter().map(|f| f.project.as_str()).collect();
        for (name, repo) in &clean.materialized {
            if hit.contains(name.as_str()) {
                continue;
            }
            if let MaterializedBody::Evo(_) = repo.body {
                assert_eq!(extracted(&clean, name), extracted(&dirty, name), "{name}");
            }
        }
    }

    #[test]
    fn every_class_applies_to_a_plain_history() {
        let mut rng = StdRng::seed_from_u64(11);
        for class in FaultClass::ALL {
            let mut versions: Vec<FileVersion> = (0..4)
                .map(|i| FileVersion {
                    commit: schevo_vcs::sha1::Digest([i as u8; 20]),
                    timestamp: schevo_vcs::timestamp::Timestamp::from_date(2018, 1 + i as u8, 1),
                    author: "dev".into(),
                    message: format!("v{i}"),
                    content: format!(
                        "CREATE TABLE t{i} (id INT NOT NULL, name VARCHAR(255), PRIMARY KEY (id));"
                    )
                    .into(),
                })
                .collect();
            let before = versions.clone();
            let idx = corrupt_versions(&mut versions, class, &mut rng);
            assert!(idx.is_some(), "{class} did not apply");
            assert_ne!(before, versions, "{class} was a no-op");
        }
    }

    #[test]
    fn timestamps_go_backwards_after_injection() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut versions: Vec<FileVersion> = (0..5)
            .map(|i| FileVersion {
                commit: schevo_vcs::sha1::Digest([i as u8; 20]),
                timestamp: schevo_vcs::timestamp::Timestamp::from_date(2018, 1 + i as u8, 1),
                author: "dev".into(),
                message: format!("v{i}"),
                content: format!("CREATE TABLE t (c{i} INT);").into(),
            })
            .collect();
        corrupt_versions(&mut versions, FaultClass::NonMonotonicTimestamps, &mut rng).unwrap();
        assert!(
            versions.windows(2).any(|w| w[1].timestamp < w[0].timestamp),
            "no inversion produced"
        );
    }
}
