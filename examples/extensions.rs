//! The §VI "open paths" extensions over a full paper-scale study: the
//! treatment of foreign keys in FOSS projects, and table-level lives
//! (survivor vs. dead tables — the Electrolysis pattern).
//!
//! ```sh
//! cargo run --release --example extensions
//! ```

use schevo::prelude::*;
use schevo::report::extensions_table;

fn main() -> Result<(), SchevoError> {
    let t0 = std::time::Instant::now();
    let universe = generate(UniverseConfig::paper(2019));
    let study = try_run_study_source(&universe, StudyOptions::default())?;
    println!("{}", extensions_table(&study));
    println!(
        "fk: {} of {} projects declare FKs; {} projects end with dangling references",
        study.fk.projects_with_fks, study.fk.projects, study.fk.projects_with_dangling
    );
    println!(
        "electrolysis: {} tables pooled, survivors live {}d (median) vs dead {}d",
        study.electrolysis.tables,
        study.electrolysis.survivor_median_duration,
        study.electrolysis.dead_median_duration
    );
    eprintln!("total {:?}", t0.elapsed());
    Ok(())
}
