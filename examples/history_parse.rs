//! Time incremental history parsing against the stateless parser on the
//! paper-scale corpus (seed 2019): the funnel's candidate histories, each
//! version parsed once.
//!
//! ```sh
//! cargo run --release --example history_parse            # 7 rounds
//! cargo run --release --example history_parse -- 15      # 15 rounds
//! ```
//!
//! Two orders are timed, each as `parse_schema` per version against one
//! `HistoryParser` per sequence, interleaved round by round (minimum
//! reported):
//!
//! * **histories** — every candidate's versions oldest first, the order
//!   mining uses; this is where statements are reused.
//! * **no reuse** — the same histories with a comment naming the version
//!   written before every `;`, so no statement key (its text through its
//!   first `;`) repeats and nothing is reused. The gap is the memo's pure
//!   overhead.
//!
//! Both parsers' results are compared version by version before timing.

use schevo::ddl::{parse_schema, HistoryParser};
use schevo::pipeline::funnel::run_funnel;
use schevo::prelude::*;
use std::time::Instant;

fn main() {
    let rounds: usize = std::env::args()
        .nth(1)
        .map(|a| a.parse().expect("rounds must be a number"))
        .unwrap_or(7);
    let universe = generate(UniverseConfig::paper(2019));
    let funnel = run_funnel(&universe, WalkStrategy::FirstParent);
    let histories: Vec<Vec<&str>> = funnel
        .analyzed
        .iter()
        .map(|c| c.versions.iter().map(|v| v.content.as_str()).collect())
        .collect();
    let marked: Vec<Vec<String>> = histories
        .iter()
        .enumerate()
        .map(|(h, versions)| {
            (versions.iter().enumerate())
                .map(|(v, sql)| sql.replace(';', &format!("/*{h}.{v}*/;")))
                .collect()
        })
        .collect();
    let marked: Vec<Vec<&str>> = marked
        .iter()
        .map(|versions| versions.iter().map(String::as_str).collect())
        .collect();
    let (versions, bytes) = histories
        .iter()
        .flatten()
        .fold((0, 0), |(n, b), v| (n + 1, b + v.len()));
    println!(
        "{} histories, {versions} versions, {:.1} MB",
        histories.len(),
        bytes as f64 / 1e6
    );

    for (label, sequences) in [("histories", &histories), ("no reuse", &marked)] {
        let (mut statements, mut reused) = (0, 0);
        for seq in sequences {
            let mut parser = HistoryParser::new();
            for sql in seq {
                assert_eq!(
                    parser.parse(sql),
                    parse_schema(sql),
                    "{label}: parsers diverged"
                );
            }
            statements += parser.statements();
            reused += parser.reused();
        }
        let (mut stateless, mut incremental) = (f64::INFINITY, f64::INFINITY);
        for _ in 0..rounds {
            let t = Instant::now();
            for seq in sequences {
                for sql in seq {
                    std::hint::black_box(parse_schema(sql).ok());
                }
            }
            stateless = stateless.min(t.elapsed().as_secs_f64());
            let t = Instant::now();
            for seq in sequences {
                let mut parser = HistoryParser::new();
                for sql in seq {
                    std::hint::black_box(parser.parse(sql).ok());
                }
            }
            incremental = incremental.min(t.elapsed().as_secs_f64());
        }
        println!(
            "{label:>9}: {reused} of {statements} statements reused; parse_schema {:.3} s, \
             HistoryParser {:.3} s ({:+.1}%), min of {rounds}",
            stateless,
            incremental,
            (incremental / stateless - 1.0) * 100.0
        );
    }
}
