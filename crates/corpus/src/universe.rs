//! Assembly of the full synthetic universe: the SQL-Collection, the
//! Libraries.io metadata, and the materialized repositories — everything
//! the collection funnel (in `schevo-pipeline`) consumes.
//!
//! The universe carries **ground truth**: which repository was generated
//! for which taxon or noise class. The funnel never reads the ground truth;
//! tests compare its output against it.

use crate::libio::{LibioMeta, LibioRecord};
use crate::noise::{
    add_postgres_sibling, empty_file_project, funnel_counts, no_create_table_project,
    rigid_project, zero_version_project, NoiseProject, TAXON_COUNTS,
};
use crate::plan::plan_project;
use crate::realize::{realize, GeneratedProject};
use rand::rngs::StdRng;
use rand::SeedableRng;
use schevo_core::taxa::Taxon;
use schevo_vcs::repo::Repository;
use schevo_vcs::sha1::Digest;
use std::collections::{BTreeMap, HashMap};
use std::ops::ControlFlow;

/// One record of the SQL-Collection: a repository known to contain `.sql`
/// files, with the file paths GitHub Activity reports for it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SqlCollectionEntry {
    /// `owner/repo`.
    pub repo_name: String,
    /// Paths of `.sql` files in the repository.
    pub sql_paths: Vec<String>,
}

/// Ground truth about a materialized repository.
#[derive(Debug)]
pub enum MaterializedBody {
    /// A schema-evolution project engineered for a taxon.
    Evo(Box<GeneratedProject>),
    /// A project destined for exclusion (or the rigid side-line).
    Noise(NoiseProject),
}

impl MaterializedBody {
    /// The underlying repository, whichever variant owns it.
    pub fn repo(&self) -> &Repository {
        match self {
            MaterializedBody::Evo(p) => &p.repo,
            MaterializedBody::Noise(n) => &n.repo,
        }
    }

    /// Forge-reported metadata the funnel attributes to this repository:
    /// `(PUP months, total commits)`. Noise projects report a fixed
    /// plausible placeholder — they are dropped or side-lined before the
    /// values matter, but the funnel still reads them off the forge.
    pub fn reported_meta(&self) -> (u64, u64) {
        match self {
            MaterializedBody::Evo(p) => (p.reported_pup_months, p.reported_total_commits),
            MaterializedBody::Noise(_) => (24, 100),
        }
    }
}

/// A materialized repository plus its advertised paths.
#[derive(Debug)]
pub struct MaterializedRepo {
    /// The repository and its ground truth.
    pub body: MaterializedBody,
    /// Paths advertised in the SQL-Collection for this repository.
    pub sql_paths: Vec<String>,
}

impl MaterializedRepo {
    /// The repository name.
    pub fn name(&self) -> &str {
        match &self.body {
            MaterializedBody::Evo(p) => &p.plan.name,
            MaterializedBody::Noise(n) => &n.repo.name,
        }
    }

    /// The underlying repository, whichever body owns it.
    pub fn repo(&self) -> &Repository {
        self.body.repo()
    }

    /// Forge-reported `(PUP months, total commits)`; see
    /// [`MaterializedBody::reported_meta`].
    pub fn reported_meta(&self) -> (u64, u64) {
        self.body.reported_meta()
    }
}

/// Configuration of universe generation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct UniverseConfig {
    /// RNG seed; the same seed reproduces the identical universe.
    pub seed: u64,
    /// Divisor applied to every cardinality (1 = the paper's full scale).
    pub scale_divisor: usize,
    /// Multiplier applied to every cardinality before the divisor
    /// (1 = the paper's full scale). Multipliers above 1 grow the corpus
    /// beyond the paper and are meant for the streaming store path —
    /// a 20× universe does not fit comfortably in RAM.
    pub scale_multiplier: usize,
}

impl UniverseConfig {
    /// The paper-scale universe (133,029 records, 365 materialized repos).
    pub fn paper(seed: u64) -> Self {
        UniverseConfig {
            seed,
            scale_divisor: 1,
            scale_multiplier: 1,
        }
    }

    /// A scaled-down universe for fast tests (counts divided by `divisor`).
    pub fn small(seed: u64, divisor: usize) -> Self {
        UniverseConfig {
            seed,
            scale_divisor: divisor.max(1),
            scale_multiplier: 1,
        }
    }

    /// A scaled-up universe (counts multiplied by `factor`), for
    /// beyond-paper-scale runs. Combine with the sharded store: the
    /// streaming generator never holds more than one record resident.
    pub fn scaled(seed: u64, factor: usize) -> Self {
        UniverseConfig {
            seed,
            scale_divisor: 1,
            scale_multiplier: factor.max(1),
        }
    }

    /// This config with a different multiplier.
    pub fn with_multiplier(mut self, factor: usize) -> Self {
        self.scale_multiplier = factor.max(1);
        self
    }
}

/// Expected cardinalities of a universe at a given scale.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExpectedCounts {
    /// SQL-Collection size.
    pub sql_collection: usize,
    /// Lib-io data set size (materialized repositories).
    pub lib_io: usize,
    /// Zero-version projects among the materialized.
    pub zero_version: usize,
    /// Empty-file + no-CREATE-TABLE projects.
    pub empty_or_no_ct: usize,
    /// Cloned survivors.
    pub cloned: usize,
    /// Rigid (single-version) projects.
    pub rigid: usize,
    /// Final analyzed population.
    pub analyzed: usize,
    /// Per-taxon counts, in `Taxon::ALL` order.
    pub taxa: [usize; 6],
}

impl ExpectedCounts {
    /// Scale the paper's counts by the config's multiplier and divisor.
    pub fn for_config(config: &UniverseConfig) -> ExpectedCounts {
        let d = config.scale_divisor;
        let m = config.scale_multiplier;
        let scale = |n: usize| (n.saturating_mul(m) / d).max(1);
        let taxa = [
            scale(TAXON_COUNTS[0].1),
            scale(TAXON_COUNTS[1].1),
            scale(TAXON_COUNTS[2].1),
            scale(TAXON_COUNTS[3].1),
            scale(TAXON_COUNTS[4].1),
            scale(TAXON_COUNTS[5].1),
        ];
        let analyzed: usize = taxa.iter().sum();
        let rigid = scale(funnel_counts::RIGID);
        let zero_version = scale(funnel_counts::ZERO_VERSION);
        let empty_or_no_ct = scale(funnel_counts::EMPTY_OR_NO_CT);
        let cloned = analyzed + rigid;
        let lib_io = cloned + zero_version + empty_or_no_ct;
        ExpectedCounts {
            sql_collection: scale(funnel_counts::SQL_COLLECTION),
            lib_io,
            zero_version,
            empty_or_no_ct,
            cloned,
            rigid,
            analyzed,
            taxa,
        }
    }
}

/// The synthetic universe.
#[derive(Debug)]
pub struct Universe {
    /// How the universe was generated.
    pub config: UniverseConfig,
    /// Expected cardinalities at this scale.
    pub expected: ExpectedCounts,
    /// The SQL-Collection (lightweight records, one per repository).
    pub sql_collection: Vec<SqlCollectionEntry>,
    /// Libraries.io metadata, keyed by repository name. Repositories not in
    /// the map are "not monitored by Libraries.io".
    pub libio: HashMap<String, LibioRecord>,
    /// Materialized repositories, keyed by repository name.
    pub materialized: HashMap<String, MaterializedRepo>,
}

/// Proportions of the lightweight exclusion classes at full scale. The
/// residual (SQL_COLLECTION − LIB_IO − the named classes) is "not monitored
/// by Libraries.io".
const FORK_COUNT: usize = 30_000;
const ZERO_STAR_COUNT: usize = 25_000;
const ONE_CONTRIB_COUNT: usize = 20_000;
const EXCLUDED_PATH_COUNT: usize = 10_000;
const MULTI_FILE_COUNT: usize = 7_664;

/// One record of the streaming generator: everything the corpus knows
/// about a repository, emitted exactly once, in SQL-Collection order.
/// Lightweight (never-materialized) records carry no body; materialized
/// records own theirs — after the sink returns, the generator keeps
/// nothing alive, which is what makes beyond-RAM scales possible.
#[derive(Debug)]
pub struct CorpusRecord {
    /// `owner/repo`.
    pub name: String,
    /// Paths advertised in the SQL-Collection for this repository.
    pub sql_paths: Vec<String>,
    /// Libraries.io metadata, absent for unmonitored repositories.
    pub libio: Option<LibioRecord>,
    /// The materialized repository, absent for lightweight records.
    pub body: Option<MaterializedBody>,
}

impl CorpusRecord {
    /// The record as a borrowed view.
    pub fn view(&self) -> RecordRef<'_> {
        RecordRef {
            name: &self.name,
            sql_paths: &self.sql_paths,
            libio: self.libio.as_ref().map(LibioRecord::meta),
            body: self.body.as_ref(),
        }
    }
}

/// A borrowed view of one corpus record: what the store writer frames
/// and the funnel reads.
#[derive(Debug, Clone, Copy)]
pub struct RecordRef<'a> {
    /// `owner/repo`.
    pub name: &'a str,
    /// Paths advertised in the SQL-Collection for this repository.
    pub sql_paths: &'a [String],
    /// Libraries.io metadata, absent for unmonitored repositories.
    pub libio: Option<LibioMeta>,
    /// The materialized repository, absent for lightweight records.
    pub body: Option<&'a MaterializedBody>,
}

/// One record as [`generate_records`] hands it out.
#[derive(Debug)]
pub enum Emitted<'a> {
    /// A lightweight record, borrowed from buffers the generator reuses
    /// for the next one: nothing is allocated for it. Its `body` is
    /// `None`.
    Light(RecordRef<'a>),
    /// A materialized record, handed over whole.
    Materialized(CorpusRecord),
}

impl Emitted<'_> {
    /// The record as a borrowed view.
    pub fn view(&self) -> RecordRef<'_> {
        match self {
            Emitted::Light(r) => *r,
            Emitted::Materialized(r) => r.view(),
        }
    }

    /// The owned record: exactly what the generator emitted, with a
    /// lightweight record's name, paths and Libraries.io entry copied out.
    pub fn into_record(self) -> CorpusRecord {
        match self {
            Emitted::Light(r) => CorpusRecord {
                name: r.name.to_string(),
                sql_paths: r.sql_paths.to_vec(),
                libio: r.libio.map(|m| {
                    LibioRecord::new(r.name, m.is_fork, m.stars, m.contributors)
                }),
                body: None,
            },
            Emitted::Materialized(r) => r,
        }
    }
}

/// Wrap one noise project into its corpus record. The libio draw happens
/// *after* the project is built — the RNG stream must match the original
/// monolithic generator call for call.
fn noise_record(noise: NoiseProject, rng: &mut StdRng) -> CorpusRecord {
    use rand::Rng;
    let name = noise.repo.name.clone();
    let paths = vec![noise.ddl_path.clone()];
    let libio =
        LibioRecord::new(name.clone(), false, rng.gen_range(1..200), rng.gen_range(2..20));
    CorpusRecord {
        name,
        sql_paths: paths,
        libio: Some(libio),
        body: Some(MaterializedBody::Noise(noise)),
    }
}

/// Drive the generator, handing each record to `emit` in SQL-Collection
/// order. This is the single source of truth for corpus content:
/// [`generate`] collects the records into an in-memory [`Universe`], the
/// sharded store writer streams them to disk, the pipeline's streamed
/// source funnels them on a producer thread, and all see the identical
/// record sequence because the RNG stream depends only on the config.
/// Lightweight records arrive as [`Emitted::Light`] views that live only
/// for their `emit` call; materialized ones as owned records. `emit`
/// returning [`ControlFlow::Break`] stops the generator there, before it
/// builds another record.
pub fn generate_records(
    config: UniverseConfig,
    emit: &mut dyn FnMut(Emitted<'_>) -> ControlFlow<()>,
) {
    let expected = ExpectedCounts::for_config(&config);
    let mut rng = StdRng::seed_from_u64(config.seed);
    let mut index = 0usize;
    let mut emitted = 0usize;
    macro_rules! next_index {
        () => {{
            let i = index;
            index += 1;
            i
        }};
    }
    macro_rules! send {
        ($record:expr) => {{
            emitted += 1;
            if emit($record).is_break() {
                return;
            }
        }};
    }

    // --- materialized evolution projects, per taxon ---
    for (slot, (taxon, _)) in TAXON_COUNTS.iter().enumerate() {
        for _ in 0..expected.taxa[slot] {
            let i = next_index!();
            let plan = plan_project(&mut rng, i, *taxon);
            let mut project = realize(&mut rng, &plan);
            let mut paths = vec![project.ddl_path.clone()];
            // Projects realized with a vendor-specific layout (index ≡ 3 mod
            // 8) carry a postgres sibling file: the funnel must resolve the
            // vendor choice to MySQL.
            if project.ddl_path.contains("mysql") {
                let when = last_timestamp_plus(&project, 3_600);
                add_postgres_sibling(&mut project.repo, &project.ddl_path, when);
                paths.push(project.ddl_path.replace("mysql", "postgres"));
            }
            let name = plan.name.clone();
            let libio =
                LibioRecord::new(name.clone(), false, plan.stars.max(1), plan.contributors.max(2));
            send!(Emitted::Materialized(CorpusRecord {
                name,
                sql_paths: paths,
                libio: Some(libio),
                body: Some(MaterializedBody::Evo(Box::new(project))),
            }));
        }
    }

    // --- materialized noise projects ---
    for _ in 0..expected.rigid {
        let n = rigid_project(&mut rng, next_index!());
        send!(Emitted::Materialized(noise_record(n, &mut rng)));
    }
    for _ in 0..expected.zero_version {
        let n = zero_version_project(&mut rng, next_index!());
        send!(Emitted::Materialized(noise_record(n, &mut rng)));
    }
    // Split the empty/no-CT bucket roughly 40/60.
    let empty_count = (expected.empty_or_no_ct * 2) / 5;
    for _ in 0..empty_count {
        let n = empty_file_project(&mut rng, next_index!());
        send!(Emitted::Materialized(noise_record(n, &mut rng)));
    }
    for _ in empty_count..expected.empty_or_no_ct {
        let n = no_create_table_project(&mut rng, next_index!());
        send!(Emitted::Materialized(noise_record(n, &mut rng)));
    }

    // --- lightweight excluded records ---
    // Each is a view over `name`, rewritten in place, and one of these
    // path lists, built once.
    use rand::Rng;
    let single = vec!["db/schema.sql".to_string()];
    // Test, demo and example layouts.
    let excluded = ["test/fixtures/schema.sql", "demo/demo_data.sql", "docs/example/schema.sql"]
        .map(|path| vec![path.to_string()]);
    let multi_file: [Vec<String>; 3] = [
        // File-per-table layouts.
        (0..4).map(|t| format!("sql/tables/table_{t}.sql")).collect(),
        // Incremental migrations.
        (0..5).map(|m| format!("migrations/{m:03}_step.sql")).collect(),
        // Vendor × language Cartesian products.
        ["sql/en/mysql", "sql/en/postgres", "sql/fr/mysql", "sql/fr/postgres"]
            .map(|dir| format!("{dir}/schema.sql"))
            .to_vec(),
    ];
    let mut name = String::new();
    macro_rules! send_light {
        ($paths:expr, $meta:expr) => {{
            let libio = $meta.map(|(is_fork, stars, contributors)| LibioMeta {
                is_fork,
                stars,
                contributors,
            });
            crate::names::write_project_name(&mut name, next_index!());
            send!(Emitted::Light(RecordRef {
                name: &name,
                sql_paths: $paths,
                libio,
                body: None,
            }));
        }};
    }
    let d = config.scale_divisor;
    let m = config.scale_multiplier;
    let scale = |n: usize| (n.saturating_mul(m) / d).max(1);
    for _ in 0..scale(FORK_COUNT) {
        send_light!(&single, Some((true, rng.gen_range(1..500), rng.gen_range(2..30))));
    }
    for _ in 0..scale(ZERO_STAR_COUNT) {
        send_light!(&single, Some((false, 0, rng.gen_range(2..30))));
    }
    for _ in 0..scale(ONE_CONTRIB_COUNT) {
        send_light!(&single, Some((false, rng.gen_range(1..500), 1)));
    }
    for k in 0..scale(EXCLUDED_PATH_COUNT) {
        let meta = (false, rng.gen_range(1..500), rng.gen_range(2..30));
        send_light!(&excluded[k % 3], Some(meta));
    }
    for k in 0..scale(MULTI_FILE_COUNT) {
        let meta = (false, rng.gen_range(1..500), rng.gen_range(2..30));
        send_light!(&multi_file[k % 3], Some(meta));
    }
    // Remainder: not monitored by Libraries.io at all.
    while emitted < expected.sql_collection {
        send_light!(&single, None::<(bool, u32, u32)>);
    }
}

/// Generate the universe, fully resident in memory.
pub fn generate(config: UniverseConfig) -> Universe {
    let _span = schevo_obs::span!(
        "corpus.generate",
        seed = config.seed,
        scale_divisor = config.scale_divisor
    );
    let expected = ExpectedCounts::for_config(&config);
    let mut sql_collection = Vec::with_capacity(expected.sql_collection);
    let mut libio = HashMap::new();
    let mut materialized: HashMap<String, MaterializedRepo> = HashMap::new();
    generate_records(config, &mut |emitted| {
        let record = emitted.into_record();
        if let Some(meta) = record.libio {
            libio.insert(record.name.clone(), meta);
        }
        if let Some(body) = record.body {
            materialized.insert(
                record.name.clone(),
                MaterializedRepo {
                    body,
                    sql_paths: record.sql_paths.clone(),
                },
            );
        }
        sql_collection.push(SqlCollectionEntry {
            repo_name: record.name,
            sql_paths: record.sql_paths,
        });
        ControlFlow::Continue(())
    });
    Universe {
        config,
        expected,
        sql_collection,
        libio,
        materialized,
    }
}

/// One deterministic batch of appendix projects, meant for
/// [`crate::store::append_into_store`]: fresh evolution histories that
/// arrive *after* a store was generated, plus the ground-truth names of
/// the ones whose every DDL version was corrupted.
#[derive(Debug)]
pub struct AppendixBatch {
    /// Records in emission order — all materialized evolution projects.
    pub records: Vec<CorpusRecord>,
    /// Names of the projects corrupted into guaranteed quarantine.
    pub corrupted: Vec<String>,
}

/// Generate `count` appendix projects for batch number `batch`, the
/// first `corrupt` of them with every DDL version byte-flip-corrupted
/// (always-detectable, so graceful mining must quarantine them).
///
/// Determinism and freshness: the RNG is seeded from `(config.seed,
/// batch)` only, and project indices come from a high per-batch range —
/// [`crate::names::project_name`] is injective over its index, so
/// appendix names never collide with the base corpus or other batches.
/// Indices step by 8 to stay clear of the vendor-specific layout
/// (index ≡ 3 mod 8), keeping every appendix record single-path.
pub fn generate_appendix(
    config: UniverseConfig,
    batch: u64,
    count: usize,
    corrupt: usize,
) -> AppendixBatch {
    use crate::faultgen::poison_history;
    // Taxa with ≥4 active commits: appendix histories must never be
    // rigid (single-version), or they would be excluded by the funnel
    // instead of mined/quarantined.
    const APPENDIX_TAXA: [Taxon; 3] = [Taxon::Moderate, Taxon::FocusedShotLow, Taxon::Active];
    let mut rng = StdRng::seed_from_u64(
        config
            .seed
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(batch)
            .wrapping_add(1),
    );
    let base = (1usize << 20).saturating_mul(batch as usize + 1);
    let mut records = Vec::with_capacity(count);
    let mut corrupted = Vec::with_capacity(corrupt.min(count));
    for k in 0..count {
        let taxon = APPENDIX_TAXA[k % APPENDIX_TAXA.len()];
        let plan = plan_project(&mut rng, base + k * 8, taxon);
        let mut project = realize(&mut rng, &plan);
        if k < corrupt {
            poison_history(&mut project);
            corrupted.push(plan.name.clone());
        }
        let paths = vec![project.ddl_path.clone()];
        let name = plan.name.clone();
        let libio =
            LibioRecord::new(name.clone(), false, plan.stars.max(1), plan.contributors.max(2));
        records.push(CorpusRecord {
            name,
            sql_paths: paths,
            libio: Some(libio),
            body: Some(MaterializedBody::Evo(Box::new(project))),
        });
    }
    AppendixBatch { records, corrupted }
}

/// Incremental builder of the corpus content digest, shared by the
/// in-memory [`corpus_digest`] and the sharded store writer so both
/// backends report the identical digest for the same config.
///
/// Per-repository contributions are keyed by name in a sorted map and
/// folded in name order at finalization, so insertion order does not
/// matter. Only materialized repositories contribute (branch tips commit
/// to the entire reachable object graph); the config's seed and scale
/// are hashed first. The multiplier is hashed only when it is not 1, so
/// digests of paper-scale and divided corpora are unchanged from
/// earlier releases.
#[derive(Debug, Default)]
pub struct CorpusDigester {
    parts: BTreeMap<String, Vec<u8>>,
}

impl CorpusDigester {
    /// An empty digester.
    pub fn new() -> CorpusDigester {
        CorpusDigester::default()
    }

    /// Record one materialized repository's contribution.
    pub fn add(&mut self, name: &str, sql_paths: &[String], repo: &Repository) {
        let mut tips: Vec<(&str, Digest)> = repo
            .branch_names()
            .filter_map(|branch| Some((branch, repo.branch_tip(branch)?)))
            .collect();
        tips.sort_unstable();
        self.add_tips(name, sql_paths, tips);
    }

    /// Record one materialized repository's contribution from its branch
    /// tips, given in branch-name order (as
    /// [`schevo_vcs::pack::verify_pack`] returns them): all the digest
    /// reads of a repository, so a verified pack need not be decoded.
    pub fn add_tips<'b>(
        &mut self,
        name: &str,
        sql_paths: &[String],
        tips: impl IntoIterator<Item = (&'b str, Digest)>,
    ) {
        let mut bytes = Vec::new();
        bytes.extend_from_slice(name.as_bytes());
        for path in sql_paths {
            bytes.extend_from_slice(path.as_bytes());
        }
        for (branch, tip) in tips {
            bytes.extend_from_slice(branch.as_bytes());
            bytes.extend_from_slice(&tip.0);
        }
        self.parts.insert(name.to_string(), bytes);
    }

    /// Fold the recorded contributions into the 40-hex digest.
    pub fn finalize(&self, config: &UniverseConfig) -> String {
        use schevo_vcs::sha1::Sha1;
        let mut hasher = Sha1::new();
        hasher.update(&config.seed.to_le_bytes());
        hasher.update(&(config.scale_divisor as u64).to_le_bytes());
        if config.scale_multiplier != 1 {
            hasher.update(&(config.scale_multiplier as u64).to_le_bytes());
        }
        for bytes in self.parts.values() {
            hasher.update(bytes);
        }
        hasher.finalize().to_hex()
    }
}

/// Content digest of a generated (and possibly fault-injected) corpus:
/// a 40-hex SHA-1 over the generation config plus, for every materialized
/// repository in name order, its advertised SQL paths and the tip of every
/// branch. Branch tips commit to the entire reachable object graph, so any
/// change to repository content — including rebuilds by the fault injector —
/// changes the digest, while re-generating with the same seed and scale
/// reproduces it exactly. Recorded in the run manifest to tie results to
/// the corpus they were mined from.
pub fn corpus_digest(universe: &Universe) -> String {
    let mut digester = CorpusDigester::new();
    for (name, repo) in &universe.materialized {
        digester.add(name, &repo.sql_paths, repo.repo());
    }
    digester.finalize(&universe.config)
}

/// A timestamp safely after every commit the realizer produced.
fn last_timestamp_plus(project: &GeneratedProject, secs: i64) -> schevo_vcs::timestamp::Timestamp {
    let (y, m, d) = project.plan.v0_date;
    let base = schevo_vcs::timestamp::Timestamp::from_datetime(y, m, d, 10, 0, 0);
    base + (project.plan.pup_months as i64 + 2) * 30 * 86_400 + secs
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::noise::NoiseKind;

    #[test]
    fn small_universe_counts_are_consistent() {
        let config = UniverseConfig::small(2019, 10);
        let u = generate(config);
        assert_eq!(u.sql_collection.len(), u.expected.sql_collection);
        assert_eq!(u.materialized.len(), u.expected.lib_io);
        // All materialized repos appear in the collection and in Libraries.io
        // with passing metadata.
        for name in u.materialized.keys() {
            assert!(u.sql_collection.iter().any(|e| &e.repo_name == name));
            assert!(u.libio[name].passes_selection());
        }
    }

    #[test]
    fn universe_is_deterministic() {
        let a = generate(UniverseConfig::small(7, 20));
        let b = generate(UniverseConfig::small(7, 20));
        assert_eq!(a.sql_collection.len(), b.sql_collection.len());
        let mut names_a: Vec<&String> = a.materialized.keys().collect();
        let mut names_b: Vec<&String> = b.materialized.keys().collect();
        names_a.sort();
        names_b.sort();
        assert_eq!(names_a, names_b);
    }

    #[test]
    fn ground_truth_taxa_counts() {
        let u = generate(UniverseConfig::small(3, 10));
        for (slot, (taxon, _)) in TAXON_COUNTS.iter().enumerate() {
            let n = u
                .materialized
                .values()
                .filter(|m| matches!(&m.body, MaterializedBody::Evo(p) if p.plan.taxon == *taxon))
                .count();
            assert_eq!(n, u.expected.taxa[slot], "{taxon:?}");
        }
        let rigid = u
            .materialized
            .values()
            .filter(|m| matches!(&m.body, MaterializedBody::Noise(n) if n.kind == NoiseKind::Rigid))
            .count();
        assert_eq!(rigid, u.expected.rigid);
    }

    #[test]
    fn corpus_digest_is_reproducible_and_seed_sensitive() {
        let a = corpus_digest(&generate(UniverseConfig::small(7, 20)));
        let b = corpus_digest(&generate(UniverseConfig::small(7, 20)));
        let c = corpus_digest(&generate(UniverseConfig::small(8, 20)));
        assert_eq!(a, b, "same config must reproduce the digest");
        assert_ne!(a, c, "different seed must change the digest");
        assert_eq!(a.len(), 40);
        assert!(a.bytes().all(|ch| ch.is_ascii_hexdigit()));
    }

    #[test]
    fn multi_vendor_projects_have_two_paths() {
        let u = generate(UniverseConfig::small(5, 5));
        let multi: Vec<&MaterializedRepo> = u
            .materialized
            .values()
            .filter(|m| m.sql_paths.len() == 2)
            .collect();
        assert!(!multi.is_empty(), "expected some multi-vendor projects");
        for m in multi {
            assert!(m.sql_paths.iter().any(|p| p.contains("mysql")));
            assert!(m.sql_paths.iter().any(|p| p.contains("postgres")));
        }
    }
}
