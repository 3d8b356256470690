//! Quickstart: parse two versions of a schema file, diff them, and profile
//! a tiny hand-made history.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use schevo::core::diff::diff;
use schevo::prelude::*;

fn main() {
    // --- 1. Parse DDL into logical schemas --------------------------------
    let v1 = parse_schema(
        r#"
        CREATE TABLE `users` (
          `id` int(11) NOT NULL AUTO_INCREMENT,
          `email` varchar(255) NOT NULL,
          PRIMARY KEY (`id`)
        ) ENGINE=InnoDB;
        "#,
    )
    .expect("v1 parses");
    let v2 = parse_schema(
        r#"
        -- rev 2: profiles split out, email widened
        CREATE TABLE `users` (
          `id` int(11) NOT NULL AUTO_INCREMENT,
          `email` varchar(512) NOT NULL,
          `created_at` datetime,
          PRIMARY KEY (`id`)
        ) ENGINE=InnoDB;
        CREATE TABLE `profiles` (
          `user_id` int(11) NOT NULL,
          `bio` text,
          PRIMARY KEY (`user_id`)
        ) ENGINE=InnoDB;
        INSERT INTO users VALUES (1, 'a@b.c', NULL);
        "#,
    )
    .expect("v2 parses");
    println!(
        "v1: {} tables / {} attributes;  v2: {} tables / {} attributes",
        v1.table_count(),
        v1.attribute_count(),
        v2.table_count(),
        v2.attribute_count()
    );

    // --- 2. Diff them at the attribute level ------------------------------
    let delta = diff(&v1, &v2);
    println!(
        "delta: +{} expansion ({} born with new tables, {} injected), \
         {} maintenance ({} type changes)",
        delta.expansion(),
        delta.born.len(),
        delta.injected.len(),
        delta.maintenance(),
        delta.type_changed.len()
    );

    // --- 3. The same through a repository history -------------------------
    let mut repo = Repository::new("quickstart/app");
    let mut day = 0;
    for (label, sql) in [
        ("v0", "CREATE TABLE users (id INT, email VARCHAR(255), PRIMARY KEY (id));"),
        ("add created_at", "CREATE TABLE users (id INT, email VARCHAR(255), created_at DATETIME, PRIMARY KEY (id));"),
        ("docs only", "-- now with docs\nCREATE TABLE users (id INT, email VARCHAR(255), created_at DATETIME, PRIMARY KEY (id));"),
        ("add profiles", "-- now with docs\nCREATE TABLE users (id INT, email VARCHAR(255), created_at DATETIME, PRIMARY KEY (id));\nCREATE TABLE profiles (user_id INT, bio TEXT);"),
    ] {
        repo.commit(
            [FileChange::write("db/schema.sql", sql)],
            "dev",
            Timestamp::from_date(2018, 1, 1) + day * 86_400,
            label,
        )
        .expect("commit");
        day += 45;
    }
    let versions = file_history(&repo, "db/schema.sql", WalkStrategy::FirstParent).expect("history");
    let history = SchemaHistory::from_file_versions("quickstart/app", &versions).expect("parses");
    let profile = EvolutionProfile::of(&history);
    println!(
        "history: {} commits, {} active, activity {}, taxon: {}",
        profile.commits,
        profile.active_commits,
        profile.total_activity,
        profile
            .class
            .taxon()
            .map(|t| t.name())
            .unwrap_or("history-less")
    );
    let series = ProjectSeries::from_history(&history);
    println!("\n{}", series.render(false));
}
