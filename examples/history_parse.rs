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
//!   written before every `;`, so no statement repeats and nothing is
//!   reused. The gap is the reuse machinery's pure overhead.
//!
//! Both parsers' results are compared version by version before timing.
//! For each order it also prints how many statements `HistoryParser`
//! reused by position (their tokens taken over from the previous version)
//! and by text, and the share of the bytes of versions 2..n it lexed again
//! rather than took over.
//!
//! Two more pairs isolate the layers under the parse and after it:
//!
//! * **lexing**, in both orders — `tokenize` on every version whole against
//!   `tokenize_edit`, which lexes each version as an edit of the previous
//!   one. Every version's tokens are compared first.
//! * **diff**, on the histories — `diff` of each pair of consecutive
//!   versions as `HistoryParser` returns them (most tables are the same
//!   `Arc`, which `diff` skips) against the same pairs with every table
//!   deep-copied, so none is shared. Both deltas are compared first.

use schevo::core::diff::diff;
use schevo::ddl::lexer::{tokenize, tokenize_edit};
use schevo::ddl::token::Token;
use schevo::ddl::{parse_schema, HistoryParser, Table};
use schevo::pipeline::funnel::run_funnel;
use schevo::prelude::*;
use std::sync::Arc;
use std::time::Instant;

/// Lex `sequences`, each version as an edit of the previous one when that
/// one lexed.
fn lex_incrementally(sequences: &[Vec<&str>], mut each: impl FnMut(&str, &[Token])) {
    for seq in sequences {
        let mut prev: Option<(&str, Vec<Token>)> = None;
        for &sql in seq {
            let tokens = match prev.take() {
                Some((p, tokens)) => tokenize_edit(p, tokens, sql),
                None => tokenize(sql),
            };
            prev = tokens.ok().map(|tokens| (sql, tokens));
            each(sql, prev.as_ref().map_or(&[], |(_, t)| t));
        }
    }
}

/// `schema` with every table in a fresh allocation, shared with nothing.
fn deep_copy(schema: &Schema) -> Schema {
    let mut copy = Schema::new();
    for t in schema.tables() {
        copy.upsert_table(Table::clone(t));
    }
    copy
}

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
    // Bytes of each version in a prefix or suffix it shares with the
    // previous one (not overlapping in either).
    let unchanged: usize = histories
        .iter()
        .flat_map(|seq| seq.windows(2))
        .map(|w| {
            let (a, b) = (w[0].as_bytes(), w[1].as_bytes());
            let prefix = a.iter().zip(b).take_while(|(x, y)| x == y).count();
            let room = a.len().min(b.len()) - prefix;
            let suffix = (a.iter().rev().zip(b.iter().rev()))
                .take(room)
                .take_while(|(x, y)| x == y)
                .count();
            prefix + suffix
        })
        .sum();
    let later: usize = histories
        .iter()
        .flat_map(|seq| &seq[1.min(seq.len())..])
        .map(|v| v.len())
        .sum();
    println!(
        "{} histories, {versions} versions, {:.1} MB; {:.1}% of the bytes of each \
         version after the first lie in a prefix or suffix shared with the previous one",
        histories.len(),
        bytes as f64 / 1e6,
        unchanged as f64 / later as f64 * 100.0
    );

    for (label, sequences) in [("histories", &histories), ("no reuse", &marked)] {
        let later: usize = (sequences.iter())
            .flat_map(|seq| &seq[1.min(seq.len())..])
            .map(|v| v.len())
            .sum();
        let (mut statements, mut reused, mut by_position, mut relexed) = (0, 0, 0, 0);
        for seq in sequences {
            let mut parser = HistoryParser::new();
            let mut first = None;
            for sql in seq {
                assert_eq!(
                    parser.parse(sql),
                    parse_schema(sql),
                    "{label}: parsers diverged"
                );
                first.get_or_insert(parser.relexed_bytes());
            }
            statements += parser.statements();
            reused += parser.reused();
            by_position += parser.reused_by_position();
            relexed += parser.relexed_bytes() - first.unwrap_or(0);
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
            "{label:>9}: {reused} of {statements} statements reused ({by_position} by position, \
             {} by text); parse_schema {:.3} s, HistoryParser {:.3} s ({:+.1}%), min of {rounds}",
            reused - by_position,
            stateless,
            incremental,
            (incremental / stateless - 1.0) * 100.0
        );
        println!(
            "{label:>9}: {:.1}% of the bytes of each version after the first lexed again \
             ({:.2} of {:.2} MB)",
            relexed as f64 / later as f64 * 100.0,
            relexed as f64 / 1e6,
            later as f64 / 1e6
        );

        lex_incrementally(sequences, |sql, tokens| {
            let whole = tokenize(sql).unwrap_or_default();
            assert!(tokens == whole, "{label}: incremental tokens diverged");
        });
        let (mut whole, mut edited) = (f64::INFINITY, f64::INFINITY);
        for _ in 0..rounds {
            let t = Instant::now();
            for sql in sequences.iter().flatten() {
                std::hint::black_box(tokenize(sql).ok());
            }
            whole = whole.min(t.elapsed().as_secs_f64());
            let t = Instant::now();
            lex_incrementally(sequences, |_, tokens| {
                std::hint::black_box(tokens);
            });
            edited = edited.min(t.elapsed().as_secs_f64());
        }
        println!(
            "{label:>9}: lexing whole {whole:.3} s, as edits {edited:.3} s ({:+.1}%), \
             min of {rounds}",
            (edited / whole - 1.0) * 100.0
        );
    }

    // Diff consecutive versions, tables shared as parsed and deep-copied.
    // Copies are made one history at a time, outside the timed spans, so
    // that only one history's copies are alive at once.
    let parsed: Vec<Vec<Schema>> = histories
        .iter()
        .map(|seq| {
            let mut parser = HistoryParser::new();
            seq.iter()
                .filter_map(|sql| parser.parse(sql).ok())
                .collect()
        })
        .collect();
    let (mut diffs, mut surviving, mut same_arc) = (0, 0, 0);
    for shared in &parsed {
        let copies: Vec<Schema> = shared.iter().map(deep_copy).collect();
        for (s, c) in shared.windows(2).zip(copies.windows(2)) {
            assert_eq!(
                diff(&s[0], &s[1]),
                diff(&c[0], &c[1]),
                "diff of deep copies diverged"
            );
            diffs += 1;
            for t in s[1].tables() {
                if let Some(old) = s[0].tables().iter().find(|o| o.name == t.name) {
                    surviving += 1;
                    same_arc += usize::from(Arc::ptr_eq(old, t));
                }
            }
        }
    }
    let (mut with_shared, mut without) = (f64::INFINITY, f64::INFINITY);
    for _ in 0..rounds {
        let (mut shared_s, mut copies_s) = (0.0, 0.0);
        for shared in &parsed {
            let copies: Vec<Schema> = shared.iter().map(deep_copy).collect();
            let t = Instant::now();
            for w in shared.windows(2) {
                std::hint::black_box(diff(&w[0], &w[1]));
            }
            shared_s += t.elapsed().as_secs_f64();
            let t = Instant::now();
            for w in copies.windows(2) {
                std::hint::black_box(diff(&w[0], &w[1]));
            }
            copies_s += t.elapsed().as_secs_f64();
        }
        with_shared = with_shared.min(shared_s);
        without = without.min(copies_s);
    }
    println!(
        "     diff: {diffs} transitions, {same_arc} of {surviving} surviving tables shared; \
         no table shared {without:.3} s, shared tables skipped {with_shared:.3} s ({:+.1}%), \
         min of {rounds}",
        (with_shared / without - 1.0) * 100.0
    );
}
