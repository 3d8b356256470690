//! Generators for the project classes the collection funnel must *exclude*
//! (§III-A): rigid single-version projects, repositories whose metadata
//! doesn't match their clone, files without `CREATE TABLE`, empty files —
//! plus helpers producing the excluded-path and multi-file patterns.

use crate::names::{author_name, column_name, project_name, table_name};
use rand::Rng;
use schevo_core::taxa::Taxon;
use schevo_ddl::render::{render_schema_with, RenderOptions};
use schevo_ddl::schema::{Attribute, Schema, Table};
use schevo_ddl::types::DataType;
use schevo_vcs::repo::{FileChange, Repository};
use schevo_vcs::timestamp::Timestamp;

/// Why a materialized repository is expected to fall out of the funnel
/// (or, for `Rigid`, to be set aside as history-less).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, serde::Serialize, serde::Deserialize)]
pub enum NoiseKind {
    /// Exactly one version of the schema file (the 132 rigid projects —
    /// they survive cloning but are excluded from taxon analysis).
    Rigid,
    /// The metadata lists a `.sql` path that the cloned repository does not
    /// contain (the paper's 14 zero-version projects).
    ZeroVersion,
    /// The `.sql` file never contains a `CREATE TABLE` statement.
    NoCreateTable,
    /// The `.sql` file is empty in every version.
    EmptyFile,
}

/// A materialized repository destined for exclusion, with ground truth.
#[derive(Debug)]
pub struct NoiseProject {
    /// Why the funnel should drop or side-line it.
    pub kind: NoiseKind,
    /// The repository.
    pub repo: Repository,
    /// The `.sql` path the metadata advertises.
    pub ddl_path: String,
    /// Corpus index (drives naming/metadata).
    pub index: usize,
}

fn small_schema(rng: &mut impl Rng, tables: u64) -> Schema {
    let mut s = Schema::new();
    for t in 0..tables {
        let mut table = Table::new(table_name(t as usize));
        let arity = rng.gen_range(2..=7u64);
        for c in 0..arity {
            table.push_attribute(Attribute::new(
                column_name(c as usize),
                if c == 0 { DataType::int() } else { DataType::varchar(255) },
            ));
        }
        table.set_primary_key(vec![column_name(0)]);
        s.upsert_table(table);
    }
    s
}

fn base_ts(rng: &mut impl Rng) -> Timestamp {
    Timestamp::from_datetime(
        rng.gen_range(2012..=2017),
        rng.gen_range(1..=12) as u8,
        rng.gen_range(1..=28) as u8,
        9,
        0,
        0,
    )
}

/// A *rigid* project: the schema file is committed once and never again,
/// although the project itself keeps living (the paper stresses these are
/// not abandoned projects).
pub fn rigid_project(rng: &mut impl Rng, index: usize) -> NoiseProject {
    let name = project_name(index);
    let mut repo = Repository::new(name.clone());
    let t0 = base_ts(rng);
    let author = author_name(index, 0);
    repo.commit(
        [FileChange::write("README.md", format!("# {name}\n"))],
        &author,
        t0,
        "initial import",
    )
    .expect("bootstrap");
    let table_count = rng.gen_range(1..=8);
    let schema = small_schema(rng, table_count);
    let ddl_path = "db/schema.sql".to_string();
    repo.commit(
        [FileChange::write(&ddl_path, render_schema_with(&schema, &RenderOptions::default()))],
        &author,
        t0 + 86_400,
        "add schema",
    )
    .expect("schema commit");
    // The project stays active on other files for years.
    for k in 0..rng.gen_range(3..12) {
        repo.commit(
            [FileChange::write(format!("src/mod_{k}.c"), format!("// {k}\n"))],
            &author_name(index, 1),
            t0 + 86_400 * (30 + 60 * k as i64),
            "feature work",
        )
        .expect("feature commit");
    }
    NoiseProject {
        kind: NoiseKind::Rigid,
        repo,
        ddl_path,
        index,
    }
}

/// A repository whose advertised `.sql` path does not exist in the clone —
/// zero extracted versions.
pub fn zero_version_project(rng: &mut impl Rng, index: usize) -> NoiseProject {
    let name = project_name(index);
    let mut repo = Repository::new(name.clone());
    repo.commit(
        [FileChange::write("README.md", format!("# {name}\n"))],
        &author_name(index, 0),
        base_ts(rng),
        "initial import",
    )
    .expect("bootstrap");
    NoiseProject {
        kind: NoiseKind::ZeroVersion,
        repo,
        ddl_path: "db/schema.sql".to_string(),
        index,
    }
}

/// A `.sql` file with INSERT/SET noise but no `CREATE TABLE` — a seed or
/// migration fragment, not a schema.
pub fn no_create_table_project(rng: &mut impl Rng, index: usize) -> NoiseProject {
    let name = project_name(index);
    let mut repo = Repository::new(name.clone());
    let t0 = base_ts(rng);
    let ddl_path = "sql/seed.sql".to_string();
    for v in 0..rng.gen_range(1..=4) {
        let body = format!(
            "-- seed data rev {v}\nSET NAMES utf8;\nINSERT INTO users VALUES ({v}, 'u{v}');\n"
        );
        repo.commit(
            [FileChange::write(&ddl_path, body)],
            &author_name(index, v % 2),
            t0 + 86_400 * (v as i64 * 15 + 1),
            "update seeds",
        )
        .expect("seed commit");
    }
    NoiseProject {
        kind: NoiseKind::NoCreateTable,
        repo,
        ddl_path,
        index,
    }
}

/// A `.sql` file that is empty in every committed version.
pub fn empty_file_project(rng: &mut impl Rng, index: usize) -> NoiseProject {
    let name = project_name(index);
    let mut repo = Repository::new(name.clone());
    let t0 = base_ts(rng);
    let ddl_path = "db/schema.sql".to_string();
    repo.commit(
        [FileChange::write(&ddl_path, "")],
        &author_name(index, 0),
        t0,
        "placeholder schema",
    )
    .expect("placeholder commit");
    // One later commit re-adds whitespace, keeping the file logically empty.
    repo.commit(
        [FileChange::write(&ddl_path, "\n\n")],
        &author_name(index, 1),
        t0 + 86_400 * 10,
        "whitespace",
    )
    .expect("whitespace commit");
    NoiseProject {
        kind: NoiseKind::EmptyFile,
        repo,
        ddl_path,
        index,
    }
}

/// Attach a second-vendor sibling file to a realized project's repository:
/// `schema-postgres.sql` next to the MySQL DDL, committed at `when` (which
/// must postdate every existing commit to keep timestamps monotone). The
/// funnel must resolve the vendor choice to MySQL (§III-A).
pub fn add_postgres_sibling(repo: &mut Repository, mysql_path: &str, when: Timestamp) {
    let content = repo
        .read_file(mysql_path)
        .expect("repo readable")
        .expect("mysql DDL exists");
    // A postgres-flavoured copy: drop the engine clause, keep tables.
    let pg = content.replace(" ENGINE=InnoDB DEFAULT CHARSET=utf8", "");
    let sibling = mysql_path.replace("mysql", "postgres");
    repo.commit(
        [FileChange::write(sibling, pg)],
        "vendor-bot",
        when,
        "add postgres variant",
    )
    .expect("sibling commit");
}

/// Taxon counts of the paper's Schema_Evo_2019 data set.
pub const TAXON_COUNTS: [(Taxon, usize); 6] = [
    (Taxon::Frozen, 34),
    (Taxon::AlmostFrozen, 65),
    (Taxon::FocusedShotFrozen, 25),
    (Taxon::Moderate, 29),
    (Taxon::FocusedShotLow, 20),
    (Taxon::Active, 22),
];

/// The paper's funnel cardinalities.
pub mod funnel_counts {
    /// `.sql`-bearing repositories in the SQL-Collection.
    pub const SQL_COLLECTION: usize = 133_029;
    /// The Lib-io data set after joining and post-processing.
    pub const LIB_IO: usize = 365;
    /// Projects whose extraction yielded zero versions.
    pub const ZERO_VERSION: usize = 14;
    /// Projects with empty files or files without `CREATE TABLE`.
    pub const EMPTY_OR_NO_CT: usize = 24;
    /// Cloned repositories that survive to analysis.
    pub const CLONED: usize = 327;
    /// Rigid projects (single schema version).
    pub const RIGID: usize = 132;
    /// The final analyzed population.
    pub const SCHEMA_EVO_2019: usize = 195;
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use schevo_vcs::history::{file_history, WalkStrategy};

    #[test]
    fn rigid_has_exactly_one_version() {
        let mut rng = StdRng::seed_from_u64(4);
        let p = rigid_project(&mut rng, 1000);
        let h = file_history(&p.repo, &p.ddl_path, WalkStrategy::FirstParent).unwrap();
        assert_eq!(h.len(), 1);
        assert!(h[0].content.contains("CREATE TABLE"));
    }

    #[test]
    fn zero_version_has_no_file() {
        let mut rng = StdRng::seed_from_u64(4);
        let p = zero_version_project(&mut rng, 1001);
        let h = file_history(&p.repo, &p.ddl_path, WalkStrategy::FirstParent).unwrap();
        assert!(h.is_empty());
    }

    #[test]
    fn no_create_table_parses_to_empty_schema() {
        let mut rng = StdRng::seed_from_u64(4);
        let p = no_create_table_project(&mut rng, 1002);
        let h = file_history(&p.repo, &p.ddl_path, WalkStrategy::FirstParent).unwrap();
        assert!(!h.is_empty());
        for v in &h {
            let s = schevo_ddl::parse_schema(&v.content).unwrap();
            assert!(s.is_empty());
        }
    }

    #[test]
    fn empty_file_versions_are_blank() {
        let mut rng = StdRng::seed_from_u64(4);
        let p = empty_file_project(&mut rng, 1003);
        let h = file_history(&p.repo, &p.ddl_path, WalkStrategy::FirstParent).unwrap();
        assert_eq!(h.len(), 2);
        assert!(h.iter().all(|v| v.content.trim().is_empty()));
    }

    #[test]
    fn taxon_counts_sum_to_195() {
        let total: usize = TAXON_COUNTS.iter().map(|(_, n)| n).sum();
        assert_eq!(total, funnel_counts::SCHEMA_EVO_2019);
        assert_eq!(
            funnel_counts::LIB_IO
                - funnel_counts::ZERO_VERSION
                - funnel_counts::EMPTY_OR_NO_CT,
            funnel_counts::CLONED
        );
        assert_eq!(
            funnel_counts::CLONED - funnel_counts::RIGID,
            funnel_counts::SCHEMA_EVO_2019
        );
    }

    #[test]
    fn postgres_sibling_added() {
        use crate::plan::plan_project;
        use crate::realize::realize;
        let mut rng = StdRng::seed_from_u64(6);
        // index ≡ 3 mod 8 gives the vendor-specific MySQL layout.
        let plan = plan_project(&mut rng, 3, Taxon::AlmostFrozen);
        let mut project = realize(&mut rng, &plan);
        assert!(project.ddl_path.contains("mysql"));
        add_postgres_sibling(
            &mut project.repo,
            &project.ddl_path,
            Timestamp::from_date(2030, 1, 1),
        );
        let pg = project
            .repo
            .read_file("db/schema-postgres.sql")
            .unwrap()
            .expect("sibling exists");
        assert!(pg.contains("CREATE TABLE"));
        assert!(!pg.contains("ENGINE=InnoDB"));
    }
}
