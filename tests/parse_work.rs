//! Exact work counts of incremental history parsing.
//!
//! `HistoryParser` lexes only the statements an edit touched and takes the
//! old tokens of every other statement over. These tests pin, on hand-built
//! shapes, exactly which bytes were lexed again
//! (`HistoryParser::relexed_bytes`) and how many statements were reused by
//! position, so a change that quietly lexes or parses more than the edit
//! shows up as a count, not as a timing.

use schevo::ddl::lexer::tokenize;
use schevo::ddl::{parse_schema, HistoryParser};

/// One `CREATE TABLE` statement as a dump writes it, `extra` columns added.
fn table(i: usize, extra: &[&str]) -> String {
    let mut cols = format!("\n  `id` int(11) NOT NULL,\n  `name{i}` varchar(40) DEFAULT NULL,");
    for c in extra {
        cols.push_str(&format!("\n  `{c}` text,"));
    }
    format!(
        "\n\nDROP TABLE IF EXISTS `t{i}`;\n/*!40101 SET character_set_client = utf8 */;\n\
         CREATE TABLE `t{i}` ({cols}\n  PRIMARY KEY (`id`)\n) ENGINE=InnoDB DEFAULT CHARSET=utf8;"
    )
}

/// A dump of `n` tables, table `i` given the columns `extra(i)` adds.
fn dump<'e>(n: usize, extra: impl Fn(usize) -> &'e [&'e str]) -> String {
    let mut sql = String::from("-- MySQL dump\nSET NAMES utf8;");
    for i in 0..n {
        sql.push_str(&table(i, extra(i)));
    }
    sql.push('\n');
    sql
}

/// The bytes of the `;`-terminated statement of `sql` whose text contains
/// `needle`: from right after the `;` before it through its own `;`.
fn statement_bytes(sql: &str, needle: &str) -> usize {
    let at = sql.find(needle).expect("needle present");
    let start = sql[..at].rfind(';').map_or(0, |i| i + 1);
    let end = at + sql[at..].find(';').expect("statement ends in `;`") + 1;
    end - start
}

/// Parse `versions` with one parser, checking each against `parse_schema`
/// and `tokenize`. Returns, per version after the first, the bytes lexed
/// again and the statements reused by position.
fn work(versions: &[&str]) -> Vec<(u64, u64)> {
    let mut parser = HistoryParser::new();
    let mut out = Vec::new();
    let (mut relexed, mut by_position) = (0, 0);
    for (i, sql) in versions.iter().enumerate() {
        assert_eq!(parser.parse(sql), parse_schema(sql), "version {i}");
        assert_eq!(
            parser.tokens(),
            tokenize(sql).unwrap().as_slice(),
            "version {i}"
        );
        if i > 0 {
            out.push((
                parser.relexed_bytes() - relexed,
                parser.reused_by_position() - by_position,
            ));
        } else {
            assert_eq!(
                parser.relexed_bytes(),
                sql.len() as u64,
                "the first is lexed whole"
            );
        }
        (relexed, by_position) = (parser.relexed_bytes(), parser.reused_by_position());
    }
    out
}

const NONE: &[&str] = &[];

/// Statements in a dump of `n` tables: the header's `SET`, then a `DROP`
/// and a `CREATE` per table (the `;` after an executable comment is no
/// statement).
fn statements(n: usize) -> u64 {
    1 + 2 * n as u64
}

#[test]
fn two_far_apart_column_edits_relex_only_their_two_statements() {
    let v1 = dump(40, |_| NONE);
    let v2 = dump(40, |i| if i == 3 || i == 30 { &["added"] } else { NONE });
    let expected =
        statement_bytes(&v2, "CREATE TABLE `t3`") + statement_bytes(&v2, "CREATE TABLE `t30`");
    assert_eq!(work(&[&v1, &v2]), [(expected as u64, statements(40) - 2)]);
    // Lexing the whole middle between the two edits would be far more.
    assert!(expected * 20 < v2.len());
}

#[test]
fn an_inserted_statement_is_the_only_one_lexed() {
    let v1 = dump(12, |_| NONE);
    let inserted = "\nINSERT INTO `t4` VALUES (1,'a;b');";
    let at = v1.find("\n\nDROP TABLE IF EXISTS `t5`").unwrap();
    let v2 = format!("{}{inserted}{}", &v1[..at], &v1[at..]);
    assert_eq!(work(&[&v1, &v2]), [(inserted.len() as u64, statements(12))]);
}

#[test]
fn a_deleted_statement_leaves_nothing_to_lex() {
    let v1 = dump(12, |_| NONE);
    let deleted = "\n\nDROP TABLE IF EXISTS `t5`;";
    let cut = v1.find(deleted).unwrap();
    let v2 = format!("{}{}", &v1[..cut], &v1[cut + deleted.len()..]);
    assert_eq!(work(&[&v1, &v2]), [(0, statements(12) - 1)]);
}

#[test]
fn edits_in_the_first_and_the_last_statement() {
    let v1 = dump(10, |_| NONE);
    let first = v1.replacen("SET NAMES utf8", "SET NAMES utf8mb4", 1);
    let expected = statement_bytes(&first, "SET NAMES");
    assert_eq!(
        work(&[&v1, &first]),
        [(expected as u64, statements(10) - 1)]
    );

    let last = dump(10, |i| if i == 9 { &["added"] } else { NONE });
    let expected = statement_bytes(&last, "CREATE TABLE `t9`");
    assert_eq!(work(&[&v1, &last]), [(expected as u64, statements(10) - 1)]);
}

#[test]
fn an_unchanged_version_lexes_nothing_and_reuses_everything() {
    let v1 = dump(8, |_| NONE);
    assert_eq!(work(&[&v1, &v1]), [(0, statements(8))]);
}
