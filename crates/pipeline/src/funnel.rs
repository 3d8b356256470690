//! The data-collection funnel of §III-A:
//!
//! ```text
//! SQL-Collection (133,029 repos with .sql files)
//!   ⨝ Libraries.io  (original ∧ stars > 0 ∧ contributors > 1)
//!   − test/demo/example paths
//!   − unresolvable multi-file layouts  (vendor choice → MySQL)
//!   = Lib-io (365)
//!   − zero-version extractions (14)
//!   − empty files / no CREATE TABLE (24)
//!   = cloned (327)
//!   − rigid single-version projects (132)
//!   = Schema_Evo_2019 (195)
//! ```
//!
//! The funnel is written once, as the per-record step
//! [`FunnelReport::assess`] over a borrowed [`RecordView`]. Every caller
//! walks its records through that step one at a time: the resident
//! universe's and the shard store's candidate streams
//! ([`crate::source`]) and [`run_funnel`], which collects the survivors.

use schevo_core::errors::{ErrorClass, SchevoError};
use schevo_corpus::libio::{LibioMeta, LibioRecord};
use schevo_corpus::universe::{SqlCollectionEntry, Universe};
use schevo_vcs::history::{file_history, FileVersion, WalkStrategy};
use schevo_vcs::repo::Repository;
use serde::{Deserialize, Serialize};

/// Why a repository fell out of the funnel.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Exclusion {
    /// Not monitored by Libraries.io at all.
    NotInLibio,
    /// The repository is a fork.
    Fork,
    /// Zero stars.
    ZeroStars,
    /// At most one contributor.
    OneContributor,
    /// Every `.sql` path contains test/demo/example.
    ExcludedPath,
    /// Multiple `.sql` files that do not resolve to a single DDL file.
    MultiFile,
    /// The advertised path had no versions in the clone.
    ZeroVersions,
    /// All versions empty or without `CREATE TABLE`.
    EmptyOrNoCreateTable,
}

/// Per-stage counts of the funnel run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct FunnelReport {
    /// Size of the SQL-Collection.
    pub sql_collection: usize,
    /// Dropped: not in Libraries.io.
    pub not_in_libio: usize,
    /// Dropped: forks.
    pub forks: usize,
    /// Dropped: zero stars.
    pub zero_stars: usize,
    /// Dropped: single contributor.
    pub one_contributor: usize,
    /// Dropped: only test/demo/example paths.
    pub excluded_paths: usize,
    /// Dropped: unresolvable multi-file layouts.
    pub multi_file: usize,
    /// The Lib-io data set (candidates cloned).
    pub lib_io: usize,
    /// Dropped after cloning: zero versions.
    pub zero_versions: usize,
    /// Dropped after cloning: empty or CREATE-TABLE-free files.
    pub empty_or_no_ct: usize,
    /// Cloned survivors.
    pub cloned: usize,
    /// Set aside: rigid single-version projects.
    pub rigid: usize,
    /// The analyzed population (Schema_Evo_2019).
    pub analyzed: usize,
}

impl FunnelReport {
    /// Run one SQL-Collection record through the whole funnel and tally
    /// it: the Libraries.io join and metadata filters, path
    /// post-processing, the clone, the extraction, and the rigid split.
    /// Every backend feeds its records through here one at a time, so all
    /// of them produce identical reports.
    ///
    /// Returns the cloned survivor (`is_rigid` tells the split), `None`
    /// for a dropped record, or a [`ErrorClass::StoreCorrupt`] error for a
    /// record that passes the metadata filters but carries no repository
    /// to clone: an inconsistent corpus, counted into `sql_collection`
    /// only.
    pub(crate) fn assess<'a>(
        &mut self,
        record: RecordView<'a, impl FnOnce() -> Cloned<'a>>,
        strategy: WalkStrategy,
    ) -> Result<Option<CandidateHistory>, SchevoError> {
        self.sql_collection += 1;
        let path = match select(record.libio, record.sql_paths) {
            Ok(p) => p,
            Err(e) => {
                self.note_exclusion(e);
                return Ok(None);
            }
        };
        let Some((repo, pup_months, total_commits)) = (record.clone)() else {
            return Err(SchevoError::project(
                ErrorClass::StoreCorrupt,
                record.name,
                "record passed the funnel filters but carries no repository",
            ));
        };
        self.lib_io += 1;
        match assess_clone(record.name, repo, path, pup_months, total_commits, strategy) {
            Ok(candidate) => {
                self.note_candidate(candidate.is_rigid());
                Ok(Some(candidate))
            }
            Err(e) => {
                self.note_exclusion(e);
                Ok(None)
            }
        }
    }

    fn note_exclusion(&mut self, e: Exclusion) {
        match e {
            Exclusion::NotInLibio => self.not_in_libio += 1,
            Exclusion::Fork => self.forks += 1,
            Exclusion::ZeroStars => self.zero_stars += 1,
            Exclusion::OneContributor => self.one_contributor += 1,
            Exclusion::ExcludedPath => self.excluded_paths += 1,
            Exclusion::MultiFile => self.multi_file += 1,
            Exclusion::ZeroVersions => self.zero_versions += 1,
            Exclusion::EmptyOrNoCreateTable => self.empty_or_no_ct += 1,
        }
    }

    fn note_candidate(&mut self, rigid: bool) {
        self.cloned += 1;
        if rigid {
            self.rigid += 1;
        } else {
            self.analyzed += 1;
        }
    }
}

/// A cloned repository with its forge-reported `(PUP months, total
/// commits)`, absent for lightweight records.
pub(crate) type Cloned<'a> = Option<(&'a Repository, u64, u64)>;

/// A borrowed view of one SQL-Collection record, whichever backend holds
/// it: what [`FunnelReport::assess`] reads.
pub(crate) struct RecordView<'a, C> {
    /// `owner/repo`.
    pub name: &'a str,
    /// Paths of `.sql` files in the repository.
    pub sql_paths: &'a [String],
    /// Libraries.io metadata, absent for unmonitored repositories.
    pub libio: Option<LibioMeta>,
    /// Fetches the clone. Called only once the metadata filters pass, so
    /// the resident universe looks up a few hundred repositories by name,
    /// not every record.
    pub clone: C,
}

/// The view of `entry` in a resident universe: the Libraries.io join and
/// the materialized repository, both looked up by name.
pub(crate) fn resident_record<'a>(
    u: &'a Universe,
    entry: &'a SqlCollectionEntry,
) -> RecordView<'a, impl FnOnce() -> Cloned<'a>> {
    let libio = u.libio.get(&entry.repo_name);
    if let Some(m) = libio {
        debug_assert!(m.url.ends_with(&entry.repo_name), "join on URL too");
    }
    RecordView {
        name: &entry.repo_name,
        sql_paths: &entry.sql_paths,
        libio: libio.map(LibioRecord::meta),
        clone: move || {
            let m = u.materialized.get(&entry.repo_name)?;
            let (pup_months, total_commits) = m.reported_meta();
            Some((m.repo(), pup_months, total_commits))
        },
    }
}

/// A candidate that survived the funnel: its extracted DDL history plus
/// repository metadata.
#[derive(Debug, Clone, Default)]
pub struct CandidateHistory {
    /// `owner/repo`.
    pub name: String,
    /// The resolved DDL path.
    pub ddl_path: String,
    /// Extracted file versions (non-empty contents, oldest first).
    pub versions: Vec<FileVersion>,
    /// Project Update Period in months, from forge metadata.
    pub pup_months: u64,
    /// Total repository commits, from forge metadata.
    pub total_commits: u64,
}

impl CandidateHistory {
    /// Whether this candidate is rigid (single version).
    pub fn is_rigid(&self) -> bool {
        self.versions.len() == 1
    }
}

/// Funnel stages 1–3 (pre-clone): the Libraries.io join, the metadata
/// filters, and path post-processing. Returns the resolved DDL path of
/// a survivor — a record passing this step enters the Lib-io set.
pub fn assess_metadata(
    libio: Option<&LibioRecord>,
    sql_paths: &[String],
) -> Result<String, Exclusion> {
    select(libio.map(LibioRecord::meta), sql_paths).cloned()
}

/// [`assess_metadata`] over the fields it reads, borrowing the resolved
/// path: a record it drops costs no allocation.
fn select(libio: Option<LibioMeta>, sql_paths: &[String]) -> Result<&String, Exclusion> {
    let Some(meta) = libio else {
        return Err(Exclusion::NotInLibio);
    };
    if meta.is_fork {
        return Err(Exclusion::Fork);
    }
    if meta.stars == 0 {
        return Err(Exclusion::ZeroStars);
    }
    if meta.contributors <= 1 {
        return Err(Exclusion::OneContributor);
    }
    resolve_paths(sql_paths)
}

/// Whether `haystack` contains `needle` (lowercase ASCII), ignoring ASCII
/// case, as `haystack.to_ascii_lowercase().contains(needle)` would
/// decide without building the lowercased copy.
fn contains_ignore_ascii_case(haystack: &str, needle: &str) -> bool {
    haystack
        .as_bytes()
        .windows(needle.len())
        .any(|w| w.eq_ignore_ascii_case(needle.as_bytes()))
}

/// Resolve the candidate `.sql` paths of one repository to a single DDL
/// path, per the paper's post-processing rules.
fn resolve_paths(paths: &[String]) -> Result<&String, Exclusion> {
    let excluded =
        |p: &str| ["test", "demo", "example"].iter().any(|n| contains_ignore_ascii_case(p, n));
    let mut kept = paths.iter().filter(|p| !excluded(p));
    let Some(first) = kept.next() else {
        return Err(Exclusion::ExcludedPath);
    };
    if kept.clone().next().is_none() {
        return Ok(first);
    }
    // Multi-vendor resolution: exactly one MySQL file wins.
    let mut mysql = std::iter::once(first)
        .chain(kept)
        .filter(|p| contains_ignore_ascii_case(p, "mysql"));
    match (mysql.next(), mysql.next()) {
        (Some(only), None) => Ok(only),
        _ => Err(Exclusion::MultiFile),
    }
}

/// Funnel stage 5 (post-clone): extract the DDL history at `ddl_path`
/// from the cloned repository, dropping versions with blank content, and
/// build the candidate, or classify why the extraction fails.
fn assess_clone(
    name: &str,
    repo: &Repository,
    ddl_path: &str,
    pup_months: u64,
    total_commits: u64,
    strategy: WalkStrategy,
) -> Result<CandidateHistory, Exclusion> {
    let raw = file_history(repo, ddl_path, strategy).map_err(|_| Exclusion::ZeroVersions)?;
    // Distinguish "no file at all" from "only blank versions".
    let had_any = !raw.is_empty();
    let versions: Vec<FileVersion> = raw
        .into_iter()
        .filter(|v| !v.content.trim().is_empty())
        .collect();
    if versions.is_empty() {
        return Err(if had_any {
            Exclusion::EmptyOrNoCreateTable
        } else {
            Exclusion::ZeroVersions
        });
    }
    // The history must contain a CREATE TABLE somewhere: some version's
    // schema holds a table.
    if !versions
        .iter()
        .any(|v| schevo_ddl::declares_tables(&v.content))
    {
        return Err(Exclusion::EmptyOrNoCreateTable);
    }
    Ok(CandidateHistory {
        name: name.to_string(),
        ddl_path: ddl_path.to_string(),
        versions,
        pup_months,
        total_commits,
    })
}

/// The funnel's output: the report, the analyzed candidates, and the rigid
/// side-line.
#[derive(Debug)]
pub struct FunnelOutcome {
    /// Per-stage counts.
    pub report: FunnelReport,
    /// The Schema_Evo_2019 candidates (≥ 2 versions).
    pub analyzed: Vec<CandidateHistory>,
    /// Rigid single-version candidates (reported, not analyzed).
    pub rigid: Vec<CandidateHistory>,
}

/// Run the whole funnel over a universe. A survivor the universe holds
/// no repository for is left out of both `analyzed` and `rigid`.
pub fn run_funnel(universe: &Universe, strategy: WalkStrategy) -> FunnelOutcome {
    let mut report = FunnelReport::default();
    let mut analyzed = Vec::new();
    let mut rigid = Vec::new();
    for entry in &universe.sql_collection {
        if let Ok(Some(c)) = report.assess(resident_record(universe, entry), strategy) {
            if c.is_rigid() {
                rigid.push(c);
            } else {
                analyzed.push(c);
            }
        }
    }
    FunnelOutcome {
        report,
        analyzed,
        rigid,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use schevo_corpus::universe::{generate, UniverseConfig};

    /// `resolve_paths` with owned paths in and out.
    fn resolve(paths: &[&str]) -> Result<String, Exclusion> {
        let paths: Vec<String> = paths.iter().map(|p| p.to_string()).collect();
        resolve_paths(&paths).cloned()
    }

    #[test]
    fn resolve_single_clean_path() {
        assert_eq!(resolve(&["db/schema.sql"]), Ok("db/schema.sql".to_string()));
    }

    #[test]
    fn resolve_ignores_ascii_case() {
        // The lowercasing filter this search replaced, as the reference.
        fn lowercased(paths: &[&str]) -> Result<String, Exclusion> {
            let kept: Vec<&&str> = paths
                .iter()
                .filter(|p| {
                    let lower = p.to_ascii_lowercase();
                    !(lower.contains("test") || lower.contains("demo") || lower.contains("example"))
                })
                .collect();
            match kept.len() {
                0 => Err(Exclusion::ExcludedPath),
                1 => Ok(kept[0].to_string()),
                _ => {
                    let mysql: Vec<&&&str> = kept
                        .iter()
                        .filter(|p| p.to_ascii_lowercase().contains("mysql"))
                        .collect();
                    match mysql.len() {
                        1 => Ok(mysql[0].to_string()),
                        _ => Err(Exclusion::MultiFile),
                    }
                }
            }
        }
        let cases: [&[&str]; 8] = [
            &["Tests/Schema.SQL"],
            &["docs/EXAMPLE/x.sql"],
            &["Tests/Schema.SQL", "db/Schema.SQL"],
            &["sql/MySQL/a.sql", "sql/Postgres/a.sql"],
            &["sql/MySQL/a.sql", "sql/mysql/b.sql"],
            &["Tests/Schema.SQL", "sql/MySQL/a.sql", "docs/EXAMPLE/x.sql"],
            &["DeMo/x.sql", "db/s.sql", "sql/MySQL/a.sql"],
            &["tes/t.sql", "exampl/e.sql", "my/sql.sql"],
        ];
        for paths in cases {
            assert_eq!(resolve(paths), lowercased(paths), "{paths:?}");
        }
        assert_eq!(resolve(&["Tests/Schema.SQL"]), Err(Exclusion::ExcludedPath));
        assert_eq!(resolve(&["docs/EXAMPLE/x.sql"]), Err(Exclusion::ExcludedPath));
        assert_eq!(
            resolve(&["sql/MySQL/a.sql", "sql/Postgres/a.sql"]),
            Ok("sql/MySQL/a.sql".to_string())
        );
        assert_eq!(
            resolve(&["DeMo/x.sql", "db/s.sql", "sql/MySQL/a.sql"]),
            Ok("sql/MySQL/a.sql".to_string())
        );
        assert_eq!(resolve(&["tes/t.sql", "exampl/e.sql", "my/sql.sql"]), Err(Exclusion::MultiFile));
    }

    #[test]
    fn resolve_excluded_paths() {
        assert_eq!(
            resolve(&["test/schema.sql"]),
            Err(Exclusion::ExcludedPath)
        );
        assert_eq!(
            resolve(&["demo/x.sql", "examples/y.sql"]),
            Err(Exclusion::ExcludedPath)
        );
        // A clean path next to a test path resolves to the clean one.
        assert_eq!(
            resolve(&["test/schema.sql", "db/schema.sql"]),
            Ok("db/schema.sql".to_string())
        );
    }

    #[test]
    fn resolve_vendor_choice() {
        assert_eq!(
            resolve(&[
                "db/schema-mysql.sql",
                "db/schema-postgres.sql"
            ]),
            Ok("db/schema-mysql.sql".to_string())
        );
        // Two MySQL files do not resolve.
        assert_eq!(
            resolve(&["a/mysql.sql", "b/mysql.sql"]),
            Err(Exclusion::MultiFile)
        );
        // File-per-table layouts do not resolve.
        assert_eq!(
            resolve(&["t/a.sql", "t/b.sql", "t/c.sql"]),
            Err(Exclusion::MultiFile)
        );
    }

    #[test]
    fn funnel_counts_match_ground_truth_small_scale() {
        let u = generate(UniverseConfig::small(2019, 10));
        let outcome = run_funnel(&u, WalkStrategy::FirstParent);
        let r = outcome.report;
        assert_eq!(r.sql_collection, u.expected.sql_collection);
        assert_eq!(r.lib_io, u.expected.lib_io);
        assert_eq!(r.zero_versions, u.expected.zero_version);
        assert_eq!(r.empty_or_no_ct, u.expected.empty_or_no_ct);
        assert_eq!(r.cloned, u.expected.cloned);
        assert_eq!(r.rigid, u.expected.rigid);
        assert_eq!(r.analyzed, u.expected.analyzed);
        assert_eq!(outcome.analyzed.len(), r.analyzed);
        assert_eq!(outcome.rigid.len(), r.rigid);
        // Conservation: every record is accounted for exactly once.
        let dropped = r.not_in_libio
            + r.forks
            + r.zero_stars
            + r.one_contributor
            + r.excluded_paths
            + r.multi_file;
        assert_eq!(dropped + r.lib_io, r.sql_collection);
        assert_eq!(r.lib_io - r.zero_versions - r.empty_or_no_ct, r.cloned);
        assert_eq!(r.cloned - r.rigid, r.analyzed);
    }

    #[test]
    fn analyzed_candidates_have_multiple_versions() {
        let u = generate(UniverseConfig::small(5, 20));
        let outcome = run_funnel(&u, WalkStrategy::FirstParent);
        for c in &outcome.analyzed {
            assert!(c.versions.len() >= 2, "{}", c.name);
            assert!(c.total_commits >= c.versions.len() as u64);
        }
        for c in &outcome.rigid {
            assert_eq!(c.versions.len(), 1, "{}", c.name);
        }
    }
}
