//! Materialize a [`ProjectPlan`] into an actual repository.
//!
//! The realizer maintains a live [`Schema`], applies each planned op,
//! renders the schema to real DDL text, and commits that text into a
//! [`Repository`] on the `schevo-vcs` substrate — interleaved with non-DDL
//! commits and wrapped in the project's README/source files. Everything the
//! mining pipeline later observes is recovered from these files by parsing,
//! never copied from the plan.

use crate::names::{author_name, column_name, project_domain, table_name};
use crate::plan::{ProjectPlan, SchemaOp};
use rand::Rng;
use schevo_ddl::render::{render_schema_into, render_table, RenderOptions};
use schevo_ddl::schema::{Attribute, Schema, Table};
use schevo_ddl::types::DataType;
use schevo_vcs::repo::{FileChange, Repository};
use schevo_vcs::timestamp::Timestamp;
use std::collections::{BTreeMap, HashMap};

/// A materialized project: the repository plus the metadata that GitHub /
/// Libraries.io would report about it.
#[derive(Debug)]
pub struct GeneratedProject {
    /// The plan this project realizes.
    pub plan: ProjectPlan,
    /// The repository with the full commit history.
    pub repo: Repository,
    /// Path of the DDL file within the repository.
    pub ddl_path: String,
    /// The project's domain label.
    pub domain: &'static str,
    /// Total repository commits, as the forge would report (includes
    /// commits not materialized individually; see DESIGN.md substitutions).
    pub reported_total_commits: u64,
    /// Project Update Period in months, as derivable from forge metadata.
    pub reported_pup_months: u64,
}

/// The type ring used for planned type changes; every adjacent pair is
/// logically different under [`DataType::logical_eq`].
fn type_ring() -> Vec<DataType> {
    vec![
        DataType::int(),
        DataType::from_name("BIGINT"),
        DataType::varchar(64),
        DataType::varchar(255),
        DataType::datetime(),
        DataType::decimal(10, 2),
    ]
}

fn next_type(current: &DataType, ring: &[DataType]) -> DataType {
    let idx = ring.iter().position(|t| t.logical_eq(current));
    match idx {
        Some(i) => ring[(i + 1) % ring.len()].clone(),
        None => ring[0].clone(),
    }
}

/// Live schema state during realization.
struct LiveSchema {
    schema: Schema,
    /// table name → its rendered `CREATE TABLE` text, kept until an op
    /// changes the table. Keyed by name, not by holding the table's `Arc`:
    /// a second owner would make every later `table_mut` copy the table.
    texts: HashMap<String, String>,
    /// plan table id → table name.
    names: BTreeMap<u64, String>,
    /// table name → next column counter.
    col_counters: BTreeMap<String, usize>,
    table_counter: usize,
    ring: Vec<DataType>,
}

impl LiveSchema {
    fn new() -> Self {
        LiveSchema {
            schema: Schema::new(),
            texts: HashMap::new(),
            names: BTreeMap::new(),
            col_counters: BTreeMap::new(),
            table_counter: 0,
            ring: type_ring(),
        }
    }

    fn create_table(&mut self, id: u64, arity: u64) {
        let name = table_name(self.table_counter);
        self.table_counter += 1;
        let mut table = Table::new(name.clone());
        for k in 0..arity {
            let ty = self.ring[(k as usize) % self.ring.len()].clone();
            let mut attr = Attribute::new(column_name(k as usize), ty);
            attr.not_null = k == 0;
            table.push_attribute(attr);
        }
        table.set_primary_key(vec![column_name(0)]);
        // Every third table (deterministically by id) declares a foreign key
        // from its second column to the first live table's key — FK changes
        // are not activity (§III-B), so this enriches the FK-extension study
        // without perturbing the planned profile. Dropping referenced tables
        // later leaves the FK dangling, reproducing the integrity-lapse
        // phenomenon the FK literature reports.
        if id % 3 == 1 && arity >= 2 {
            if let Some((_, target)) = self.names.iter().next() {
                table.push_foreign_key(schevo_ddl::schema::ForeignKey {
                    columns: vec![column_name(1)],
                    foreign_table: target.clone(),
                    foreign_columns: vec![column_name(0)],
                });
            }
        }
        self.schema.upsert_table(table);
        self.names.insert(id, name.clone());
        self.col_counters.insert(name, arity as usize);
    }

    /// Render the live schema with `opts`, reusing each unchanged table's
    /// text. `opts` must quote and close tables the same way for the whole
    /// realization; only the header and trailers may change.
    fn render(&mut self, opts: &RenderOptions, capacity: usize) -> String {
        let mut out = String::with_capacity(capacity);
        let texts = &mut self.texts;
        render_schema_into(&mut out, &self.schema, opts, |out, table| {
            match texts.get(&table.name) {
                Some(text) => out.push_str(text),
                None => {
                    let start = out.len();
                    render_table(out, table, opts);
                    texts.insert(table.name.clone(), out[start..].to_string());
                }
            }
        });
        out
    }

    fn apply(&mut self, op: &SchemaOp) {
        match *op {
            SchemaOp::CreateTable { id, arity } => self.create_table(id, arity),
            SchemaOp::InjectColumns { table, count } => {
                let name = self.names[&table].clone();
                self.texts.remove(&name);
                let counter = self.col_counters.get_mut(&name).expect("known table");
                let t = self.schema.table_mut(&name).expect("live table");
                for _ in 0..count {
                    let ty = self.ring[*counter % self.ring.len()].clone();
                    t.push_attribute(Attribute::new(column_name(*counter), ty));
                    *counter += 1;
                }
            }
            SchemaOp::DropTable { table } => {
                let name = self.names.remove(&table).expect("known table");
                self.texts.remove(&name);
                self.schema.remove_table(&name);
                self.col_counters.remove(&name);
            }
            SchemaOp::EjectColumns { table, count } => {
                let name = self.names[&table].clone();
                self.texts.remove(&name);
                let t = self.schema.table_mut(&name).expect("live table");
                for _ in 0..count {
                    let last = t
                        .attributes()
                        .last()
                        .expect("planner keeps ≥1 column")
                        .name
                        .clone();
                    t.remove_attribute(&last);
                }
            }
            SchemaOp::ChangeTypes { table, count } => {
                let name = self.names[&table].clone();
                self.texts.remove(&name);
                let t = self.schema.table_mut(&name).expect("live table");
                let targets: Vec<String> = t
                    .attributes()
                    .iter()
                    .take(count as usize)
                    .map(|a| a.name.clone())
                    .collect();
                for col in targets {
                    let attr = t.attribute_mut(&col).expect("existing column");
                    attr.data_type = next_type(&attr.data_type, &self.ring);
                }
            }
            SchemaOp::TogglePk { table, count } => {
                let name = self.names[&table].clone();
                self.texts.remove(&name);
                let t = self.schema.table_mut(&name).expect("live table");
                let targets: Vec<String> = t
                    .attributes()
                    .iter()
                    .take(count as usize)
                    .map(|a| a.name.clone())
                    .collect();
                let mut pk: Vec<String> = t.primary_key().to_vec();
                for col in targets {
                    if let Some(pos) = pk.iter().position(|c| c == &col) {
                        pk.remove(pos);
                    } else {
                        pk.push(col);
                    }
                }
                t.set_primary_key(pk);
            }
        }
    }
}

/// The DDL file layout for the `index`-th project. Index ≡ 3 (mod 8)
/// projects keep their schema in a vendor-specific `schema-mysql.sql` — the
/// layout that triggers the funnel's multi-vendor resolution rule.
pub fn ddl_path_for(index: usize, repo_name: &str) -> String {
    let stem = repo_name.split('/').next_back().unwrap_or("schema");
    match index % 8 {
        0 | 6 => "db/schema.sql".to_string(),
        1 | 4 => "sql/schema.sql".to_string(),
        2 | 5 => format!("database/{stem}.sql"),
        3 => "db/schema-mysql.sql".to_string(),
        _ => "schema.sql".to_string(),
    }
}

/// Materialize a plan into a repository.
///
/// The `rng` drives only cosmetic choices (noise text, author rotation);
/// every measured quantity is fixed by the plan.
pub fn realize<R: Rng>(rng: &mut R, plan: &ProjectPlan) -> GeneratedProject {
    let mut repo = Repository::new(plan.name.clone());
    let ddl_path = ddl_path_for(plan.index, &plan.name);
    let (y, m, d) = plan.v0_date;
    let v0 = Timestamp::from_datetime(y, m, d, 10, 0, 0);
    let mut seq: i64 = 0;
    let at = |day: i64, seq: &mut i64| {
        *seq += 1;
        v0 + day * 86_400 + *seq * 120
    };

    // Project bootstrap commits before the schema file appears, so PUP can
    // exceed SUP. A share of the PUP slack precedes V0.
    let sup_months = plan.sup_days / 30 + 1;
    let slack_months = plan.pup_months.saturating_sub(sup_months);
    let pre_months = (slack_months as f64 * rng.gen_range(0.2..0.6)).round() as i64;
    let post_months = slack_months as i64 - pre_months;
    let project_start_day = -pre_months * 30;
    repo.commit(
        [
            FileChange::write("README.md", format!("# {}\n\nA {} project.\n", plan.name, project_domain(plan.index))),
            FileChange::write("src/main.c", "int main(void) { return 0; }\n"),
        ],
        &author_name(plan.index, 0),
        at(project_start_day, &mut seq),
        "initial import",
    )
    .expect("bootstrap commit");

    // V0 of the schema file.
    let mut live = LiveSchema::new();
    for (i, &arity) in plan.start_arities.iter().enumerate() {
        live.create_table(i as u64, arity);
    }
    // Plan table ids for V0 tables are 0..tables_start in SimSchema order;
    // ids created later by compile_commit continue from tables_start — the
    // same numbering LiveSchema uses, because both consume ids in order.
    let mut render_opts = RenderOptions {
        header_comment: Some(format!("{} database schema\nrevision 0", plan.name)),
        ..Default::default()
    };
    let ddl = live.render(&render_opts, 0);
    // Each version is sized from the one before it, with room to grow.
    let mut ddl_len = ddl.len();
    repo.commit(
        [FileChange::write(&ddl_path, ddl)],
        &author_name(plan.index, 0),
        at(0, &mut seq),
        "add database schema",
    )
    .expect("V0 commit");

    // Post-V0 schedule.
    let mut revision = 0usize;
    for (i, commit) in plan.schedule.iter().enumerate() {
        let author = author_name(plan.index, i % plan.contributors.max(1) as usize);
        // Occasionally interleave an unrelated commit just before.
        if rng.gen_bool(0.35) {
            repo.commit(
                [FileChange::write(
                    format!("src/feature_{i}.c"),
                    format!("// feature {i}\n"),
                )],
                &author,
                at(commit.day, &mut seq),
                &format!("work on feature {i}"),
            )
            .expect("noise commit");
        }
        let message;
        if commit.ops.is_empty() {
            // Non-active commit: change comments, INSERT seeds or indexes —
            // content must change so a new file version registers, while the
            // logical schema stays identical.
            revision += 1;
            match rng.gen_range(0..3) {
                0 => {
                    render_opts.header_comment =
                        Some(format!("{} database schema\nrevision {revision}", plan.name));
                    message = format!("docs: update schema header (rev {revision})");
                }
                1 => {
                    render_opts.trailer_statements.push(format!(
                        "INSERT INTO settings VALUES ({revision}, 'seed-{revision}');"
                    ));
                    message = "chore: refresh seed data".to_string();
                }
                _ => {
                    render_opts.trailer_statements.push(format!(
                        "CREATE INDEX idx_auto_{revision} ON settings (id);"
                    ));
                    message = "perf: add index".to_string();
                }
            }
        } else {
            for op in &commit.ops {
                live.apply(op);
            }
            message = format!(
                "schema: {} expansion, {} maintenance",
                commit.expansion, commit.maintenance
            );
        }
        let ddl = live.render(&render_opts, ddl_len + ddl_len / 8);
        ddl_len = ddl.len();
        repo.commit(
            [FileChange::write(&ddl_path, ddl)],
            &author,
            at(commit.day, &mut seq),
            &message,
        )
        .expect("schedule commit");
    }

    // Post-SUP project commits, so the project outlives its schema window.
    let last_day = plan.schedule.last().map(|c| c.day).unwrap_or(0);
    if post_months > 0 {
        repo.commit(
            [FileChange::write("CHANGELOG.md", "## later releases\n")],
            &author_name(plan.index, 1),
            at(last_day + post_months * 30, &mut seq),
            "post-schema maintenance",
        )
        .expect("tail commit");
    }

    GeneratedProject {
        plan: plan.clone(),
        repo,
        ddl_path,
        domain: project_domain(plan.index),
        reported_total_commits: plan.total_commits,
        reported_pup_months: plan.pup_months,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::plan_project;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use schevo_core::model::SchemaHistory;
    use schevo_core::profile::EvolutionProfile;
    use schevo_core::taxa::{ProjectClass, Taxon};
    use schevo_vcs::history::{file_history, WalkStrategy};

    fn mine(p: &GeneratedProject) -> EvolutionProfile {
        let versions = file_history(&p.repo, &p.ddl_path, WalkStrategy::FirstParent).unwrap();
        let history = SchemaHistory::from_file_versions(p.plan.name.clone(), &versions).unwrap();
        EvolutionProfile::of(&history)
    }

    #[test]
    fn realized_project_recovers_planned_profile() {
        let mut rng = StdRng::seed_from_u64(77);
        for (i, taxon) in Taxon::ALL.iter().cycle().take(36).enumerate() {
            let plan = plan_project(&mut rng, i, *taxon);
            let project = realize(&mut rng, &plan);
            let profile = mine(&project);
            assert_eq!(profile.commits, plan.commits, "{}: commits", plan.name);
            assert_eq!(
                profile.active_commits, plan.active_commits,
                "{}: active commits",
                plan.name
            );
            assert_eq!(
                profile.total_activity, plan.activity,
                "{}: activity",
                plan.name
            );
            assert_eq!(profile.reeds, plan.reeds, "{}: reeds", plan.name);
            assert_eq!(
                profile.tables_start, plan.tables_start,
                "{}: tables at start",
                plan.name
            );
            assert_eq!(
                profile.class,
                ProjectClass::Taxon(*taxon),
                "{}: taxon",
                plan.name
            );
        }
    }

    #[test]
    fn v0_schema_renders_with_planned_arities() {
        let mut rng = StdRng::seed_from_u64(3);
        let plan = plan_project(&mut rng, 5, Taxon::Moderate);
        let project = realize(&mut rng, &plan);
        let versions =
            file_history(&project.repo, &project.ddl_path, WalkStrategy::FirstParent).unwrap();
        let v0 = schevo_ddl::parse_schema(&versions[0].content).unwrap();
        assert_eq!(v0.table_count() as u64, plan.tables_start);
        let total: u64 = plan.start_arities.iter().sum();
        assert_eq!(v0.attribute_count() as u64, total);
        for t in v0.tables() {
            assert!(!t.primary_key().is_empty(), "V0 tables carry PKs");
        }
    }

    #[test]
    fn sup_days_are_respected() {
        let mut rng = StdRng::seed_from_u64(8);
        let plan = plan_project(&mut rng, 2, Taxon::FocusedShotLow);
        let project = realize(&mut rng, &plan);
        let versions =
            file_history(&project.repo, &project.ddl_path, WalkStrategy::FirstParent).unwrap();
        let first = versions.first().unwrap().timestamp;
        let last = versions.last().unwrap().timestamp;
        let days = last.days_since(first);
        assert!(
            (days - plan.sup_days as i64).abs() <= 1,
            "sup {} vs planned {}",
            days,
            plan.sup_days
        );
    }

    #[test]
    fn realization_is_deterministic_given_seed() {
        let plan = {
            let mut rng = StdRng::seed_from_u64(123);
            plan_project(&mut rng, 1, Taxon::Active)
        };
        let a = {
            let mut rng = StdRng::seed_from_u64(9);
            realize(&mut rng, &plan)
        };
        let b = {
            let mut rng = StdRng::seed_from_u64(9);
            realize(&mut rng, &plan)
        };
        let ha = file_history(&a.repo, &a.ddl_path, WalkStrategy::FirstParent).unwrap();
        let hb = file_history(&b.repo, &b.ddl_path, WalkStrategy::FirstParent).unwrap();
        assert_eq!(ha.len(), hb.len());
        for (x, y) in ha.iter().zip(&hb) {
            assert_eq!(x.commit, y.commit);
        }
    }
}
