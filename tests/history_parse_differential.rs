//! Differential battery for incremental history parsing.
//!
//! `HistoryParser` lexes each version as an edit of the one before it and
//! reuses the statements the two share. Its contract is that both are
//! unobservable: every version lexes to exactly `tokenize`'s tokens (which
//! the character-level `lexer::reference` also produces) and parses to
//! exactly what the stateless `parse_schema` oracle returns, `Ok` and `Err`
//! alike, whatever sequence came before. This file checks that over every
//! candidate of a small universe, over fault-injected corpora, over random
//! sequences in which each version is a byte-flipped, truncated or spliced
//! copy of the previous one, and over pinned shapes that a naive memo or a
//! naive incremental lexer gets wrong.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use schevo::corpus::faultgen::{corrupt_versions, inject, FaultClass, FaultPlan};
use schevo::corpus::universe::{generate, UniverseConfig};
use schevo::ddl::lexer::{reference, tokenize, tokenize_edit};
use schevo::ddl::{parse_schema, HistoryParser, Schema};
use schevo::pipeline::funnel::{run_funnel, CandidateHistory};
use schevo::vcs::history::WalkStrategy;

/// Why the tokens `parser` kept for `sql` (the version it just parsed)
/// differ from `tokenize`'s or the reference lexer's, if they do.
fn token_divergence(parser: &HistoryParser, sql: &str) -> Option<String> {
    let (slow, slow_err) = reference::tokenize_recovering(sql);
    let whole = tokenize(sql);
    let expected = match &whole {
        Ok(tokens) if slow_err.is_none() && *tokens == slow => tokens.as_slice(),
        Err(e)
            if slow_err.as_ref().map(|s| (s.span, s.to_string()))
                == Some((e.span, e.to_string())) =>
        {
            &[]
        }
        _ => {
            return Some(format!(
                "tokenize and the reference lexer disagree on {sql:?}"
            ))
        }
    };
    (parser.tokens() != expected).then(|| format!("tokens diverged from tokenize on {sql:?}"))
}

/// Parse `versions` in order with one `HistoryParser` and demand each
/// version's tokens and result equal the oracles'. Returns the parser's
/// `(statements, reused)`.
fn assert_matches_oracle<S: AsRef<str>>(versions: &[S], label: &str) -> (u64, u64) {
    let mut parser = HistoryParser::new();
    for (i, v) in versions.iter().enumerate() {
        let sql = v.as_ref();
        assert_eq!(
            parser.parse(sql),
            parse_schema(sql),
            "{label}: version {i} diverged from parse_schema on {sql:?}"
        );
        if let Some(why) = token_divergence(&parser, sql) {
            panic!("{label}: version {i}: {why}");
        }
    }
    (parser.statements(), parser.reused())
}

/// Lex `next` as an edit of `prev` and demand `tokenize`'s result, tokens
/// or error (message and offset) alike.
fn assert_edit_lexes_like_tokenize(prev: &str, next: &str) {
    let prev_tokens = tokenize(prev).expect("the previous version must lex");
    let edited = tokenize_edit(prev, prev_tokens, next);
    let whole = tokenize(next);
    assert_eq!(
        edited.as_ref().map_err(|e| (e.span, e.to_string())),
        whole.as_ref().map_err(|e| (e.span, e.to_string())),
        "edit {prev:?} -> {next:?} lexed differently"
    );
}

fn candidates(universe: &schevo::corpus::universe::Universe) -> Vec<CandidateHistory> {
    let outcome = run_funnel(universe, WalkStrategy::FirstParent);
    outcome.analyzed.into_iter().chain(outcome.rigid).collect()
}

fn check_candidates(candidates: &[CandidateHistory], label: &str) -> (u64, u64) {
    let (mut statements, mut reused) = (0, 0);
    for c in candidates {
        let texts: Vec<&str> = c.versions.iter().map(|v| v.content.as_str()).collect();
        let (s, r) = assert_matches_oracle(&texts, &format!("{label} {}", c.name));
        statements += s;
        reused += r;
    }
    (statements, reused)
}

#[test]
fn every_candidate_of_a_small_universe_matches_the_oracle() {
    let universe = generate(UniverseConfig::small(2019, 40));
    let candidates = candidates(&universe);
    assert!(candidates.len() > 3, "universe too small to be a test");
    let (statements, reused) = check_candidates(&candidates, "clean");
    // Consecutive versions share most statements; if nothing were reused
    // the memo would be dead code and this battery vacuous.
    assert!(
        reused * 2 > statements,
        "only {reused} of {statements} statements reused"
    );
}

#[test]
fn fault_injected_corpora_match_the_oracle() {
    let mut universe = generate(UniverseConfig::small(2019, 40));
    let faults = inject(&mut universe, &FaultPlan::all(7, 60));
    assert!(!faults.is_empty(), "fault plan injected nothing");
    let mut candidates = candidates(&universe);
    check_candidates(&candidates, "injected");

    // Some classes are healed before mining (the walk drops duplicate
    // blobs, the funnel blank ones), so corrupt extracted histories too.
    let mut rng = StdRng::seed_from_u64(11);
    for (i, c) in candidates.iter_mut().enumerate() {
        let class = FaultClass::ALL[i % FaultClass::ALL.len()];
        corrupt_versions(&mut c.versions, class, &mut rng);
    }
    check_candidates(&candidates, "corrupted");
}

// -- pinned shapes ---------------------------------------------------------

#[test]
fn degraded_create_that_looked_past_its_semicolon_is_not_reused() {
    // Version 1: the unbalanced default swallows the rest of the file, so
    // the CREATE degrades. Version 2 has the same text up to the first
    // `;`, but its parenthesis closes and the CREATE parses.
    let v1 = "CREATE TABLE t (a INT DEFAULT (1;";
    let v2 = "CREATE TABLE t (a INT DEFAULT (1; 2));";
    assert_eq!(parse_schema(v2).unwrap().table_count(), 1);
    assert_matches_oracle(&[v1, v2], "default");
    assert_matches_oracle(&[v2, v1, v2], "default, back and forth");

    let v1 = "CREATE TABLE t (a INT, CHECK (x;";
    let v2 = "CREATE TABLE t (a INT, CHECK (x; y));";
    assert_eq!(parse_schema(v2).unwrap().table_count(), 1);
    assert_matches_oracle(&[v1, v2], "check");
}

#[test]
fn stray_semicolons_and_unterminated_final_statements() {
    assert_matches_oracle(
        &[
            ";; CREATE TABLE a (x INT);;; CREATE TABLE b (y INT)",
            "CREATE TABLE a (x INT);; CREATE TABLE b (y INT);",
            ";;;",
            "CREATE TABLE a (x INT); CREATE TABLE b (y INT",
            "CREATE TABLE a (x INT); CREATE TABLE b (y INT, z INT)",
            "CREATE TABLE a (x INT)",
            "",
        ],
        "semicolons",
    );
}

#[test]
fn duplicate_create_keeps_first_position_with_last_definition() {
    let v1 = "CREATE TABLE t (a INT); CREATE TABLE u (b INT); CREATE TABLE t (a INT, c INT);";
    let v2 = "CREATE TABLE t (a INT); CREATE TABLE u (b INT); CREATE TABLE t (a INT, d INT);";
    let (_, reused) = assert_matches_oracle(&[v1, v2], "duplicate");
    assert_eq!(reused, 2);
    let s = parse_schema(v2).unwrap();
    assert_eq!(s.table_names().collect::<Vec<_>>(), ["t", "u"]);
    assert!(s.table("t").unwrap().attribute("d").is_some());
}

#[test]
fn drop_then_create_and_create_then_drop() {
    assert_matches_oracle(
        &[
            "DROP TABLE IF EXISTS t; CREATE TABLE t (a INT); CREATE TABLE u (b INT);",
            "DROP TABLE IF EXISTS t; CREATE TABLE t (a INT); CREATE TABLE u (b INT); DROP TABLE t;",
            "CREATE TABLE u (b INT); DROP TABLE t; CREATE TABLE t (a INT);",
            "DROP TABLE u; CREATE TABLE u (b INT); DROP TABLE t; CREATE TABLE t (a INT);",
        ],
        "drop/create",
    );
}

#[test]
fn alter_and_rename_on_reused_tables() {
    let (_, reused) = assert_matches_oracle(
        &[
            "CREATE TABLE t (a INT, b INT); CREATE TABLE u (c INT);",
            "CREATE TABLE t (a INT, b INT); CREATE TABLE u (c INT); \
             ALTER TABLE t ADD COLUMN z TEXT, DROP COLUMN b;",
            "CREATE TABLE t (a INT, b INT); CREATE TABLE u (c INT); \
             ALTER TABLE t ADD COLUMN z TEXT, DROP COLUMN b; ALTER TABLE u RENAME TO v;",
            "CREATE TABLE t (a INT, b INT); ALTER TABLE u RENAME TO v; CREATE TABLE u (c INT); \
             ALTER TABLE t ADD COLUMN z TEXT, DROP COLUMN b; ALTER TABLE t RENAME TO u;",
            "CREATE TABLE t (a INT, b INT); CREATE TABLE u (c INT); \
             ALTER TABLE t ADD COLUMN z TEXT, DROP COLUMN b;",
        ],
        "alter/rename",
    );
    assert!(reused >= 8, "reused only {reused}");
}

#[test]
fn temporary_tables_stay_excluded_when_reused() {
    assert_matches_oracle(
        &[
            "CREATE TEMPORARY TABLE tmp (a INT); CREATE TABLE t (a INT);",
            "CREATE TEMPORARY TABLE tmp (a INT); CREATE TABLE t (a INT); CREATE TABLE tmp (b INT);",
            "CREATE TABLE tmp (b INT); CREATE TEMPORARY TABLE tmp (a INT); CREATE TABLE t (a INT);",
        ],
        "temporary",
    );
}

#[test]
fn lex_error_then_clean_version() {
    let v1 = "CREATE TABLE t (a INT); CREATE TABLE u (b INT);";
    let v2 = "CREATE TABLE t (a INT); CREATE TABLE u (b INT); INSERT INTO t VALUES ('open";
    let v3 = "CREATE TABLE t (a INT); CREATE TABLE u (b INT, c INT);";
    assert!(parse_schema(v2).is_err());
    let (_, reused) = assert_matches_oracle(&[v1, v2, v3, v2, v2, v1], "lex error");
    assert!(reused > 0);
}

// -- lexing an edit --------------------------------------------------------

/// Pairs of consecutive versions that stress where lexing restarts and
/// where it takes the old tokens over.
const ADVERSARIAL_EDITS: &[(&str, &str)] = &[
    // An edit opens a block comment or a string that swallows the suffix,
    // and the next closes it again.
    (
        "CREATE TABLE a (x INT); CREATE TABLE b (y INT); CREATE TABLE c (z INT);",
        "CREATE TABLE a (x INT); /* CREATE TABLE b (y INT); CREATE TABLE c (z INT);",
    ),
    (
        "CREATE TABLE a (x INT); CREATE TABLE b (y INT); CREATE TABLE c (z INT);",
        "CREATE TABLE a (x INT); /* CREATE TABLE b (y INT); */ CREATE TABLE c (z INT);",
    ),
    (
        "CREATE TABLE a (x INT); CREATE TABLE b (y INT DEFAULT 'q'); CREATE TABLE c (z INT);",
        "CREATE TABLE a (x INT); CREATE TABLE b (y INT DEFAULT 'q); CREATE TABLE c (z INT);",
    ),
    (
        "INSERT INTO t VALUES (';'); CREATE TABLE a (x INT); CREATE TABLE b (y INT);",
        "INSERT INTO t VALUES ('); CREATE TABLE a (x INT'); CREATE TABLE b (y INT);",
    ),
    (
        "CREATE TABLE a (x INT); CREATE TABLE b (y INT);",
        "CREATE TABLE a (x INT); `CREATE TABLE b (y INT);",
    ),
    (
        "CREATE TABLE a (x INT); -- note\nCREATE TABLE b (y INT);",
        "CREATE TABLE a (x INT); -- note CREATE TABLE b (y INT);",
    ),
    // An edit inside a string literal that holds `;`s.
    (
        "INSERT INTO t VALUES ('a;b;c'); CREATE TABLE a (x INT); CREATE TABLE b (y INT);",
        "INSERT INTO t VALUES ('a;bb;c'); CREATE TABLE a (x INT); CREATE TABLE b (y INT);",
    ),
    (
        "CREATE TABLE a (x TEXT DEFAULT 'p;q'); CREATE TABLE b (y INT);",
        "CREATE TABLE a (x TEXT DEFAULT 'p;;q'); CREATE TABLE b (y INT);",
    ),
    // Edits at offset 0 and at the end.
    (
        "CREATE TABLE a (x INT); CREATE TABLE b (y INT);",
        "-- header\nCREATE TABLE a (x INT); CREATE TABLE b (y INT);",
    ),
    (
        "CREATE TABLE a (x INT); CREATE TABLE b (y INT);",
        "XCREATE TABLE a (x INT); CREATE TABLE b (y INT);",
    ),
    (
        "CREATE TABLE a (x INT); CREATE TABLE b (y INT);",
        "CREATE TABLE a (x INT); CREATE TABLE b (y INT); CREATE TABLE c (z INT);",
    ),
    (
        "CREATE TABLE a (x INT); CREATE TABLE b (y INT);",
        "CREATE TABLE a (x INT); CREATE TABLE b (y INT)",
    ),
    // Growing and shrinking by whole statements in the middle.
    (
        "CREATE TABLE a (x INT); CREATE TABLE c (z INT);",
        "CREATE TABLE a (x INT); CREATE TABLE b (y INT, w TEXT); CREATE TABLE c (z INT);",
    ),
    (
        "CREATE TABLE a (x INT); CREATE TABLE b (y INT, w TEXT); CREATE TABLE c (z INT);",
        "CREATE TABLE a (x INT); CREATE TABLE c (z INT);",
    ),
    // A multibyte character at the edit boundary, on either side.
    (
        "CREATE TABLE größe (ü INT); CREATE TABLE b (y INT);",
        "CREATE TABLE größe (ö INT); CREATE TABLE b (y INT);",
    ),
    (
        "CREATE TABLE a (x INT); CREATE TABLE ß (y INT);",
        "CREATE TABLE a (x INT); CREATE TABLE é (y INT);",
    ),
    (
        "CREATE TABLE a (x INT);é; CREATE TABLE b (y INT);",
        "CREATE TABLE a (x INT);本; CREATE TABLE b (y INT);",
    ),
    // An edit that removes, adds or moves a `;`.
    (
        "CREATE TABLE a (x INT); CREATE TABLE b (y INT); CREATE TABLE c (z INT);",
        "CREATE TABLE a (x INT) CREATE TABLE b (y INT); CREATE TABLE c (z INT);",
    ),
    (
        "CREATE TABLE a (x INT) CREATE TABLE b (y INT); CREATE TABLE c (z INT);",
        "CREATE TABLE a (x INT); CREATE TABLE b (y INT); CREATE TABLE c (z INT);",
    ),
    (
        "CREATE TABLE a (x INT); CREATE TABLE b (y INT); CREATE TABLE c (z INT);",
        "CREATE TABLE a (x INT) CREATE; TABLE b (y INT); CREATE TABLE c (z INT);",
    ),
    (";;;;", ";;;"),
    (";;;", ";;;;"),
    ("a;b;c;", "a;c;b;"),
    // A lex error in the changed region.
    (
        "CREATE TABLE a (x INT); CREATE TABLE b (y INT); CREATE TABLE c (z INT);",
        "CREATE TABLE a (x INT); CREATE TABLE b (y INT '); CREATE TABLE c (z INT);",
    ),
    (
        "CREATE TABLE a (x INT); CREATE TABLE b (y INT);",
        "CREATE TABLE a (x INT); [CREATE TABLE b (y INT);",
    ),
    // Numbers, `-` and `/` right before a `;`: the tokens whose lexing
    // looks ahead.
    ("SELECT 1e;SELECT 2;", "SELECT 1e;SELECT 3;"),
    ("SELECT 1e+;SELECT 2;", "SELECT 1e+;SELECT 3;"),
    ("SELECT 1 -;SELECT 2 /;", "SELECT 1 -;SELECT 2 /*;*/;"),
    // Identical and empty texts.
    ("CREATE TABLE a (x INT);", "CREATE TABLE a (x INT);"),
    ("CREATE TABLE a (x INT);\n", "CREATE TABLE a (x INT);\n"),
    ("", "CREATE TABLE a (x INT);"),
    ("CREATE TABLE a (x INT);", ""),
];

#[test]
fn adversarial_edits_lex_like_tokenize() {
    for (prev, next) in ADVERSARIAL_EDITS {
        for (a, b) in [(prev, next), (next, prev)] {
            if tokenize(a).is_ok() {
                assert_edit_lexes_like_tokenize(a, b);
            }
            assert_matches_oracle(&[a, b, a], "adversarial");
        }
    }
}

#[test]
fn lex_errors_keep_tokenize_message_and_offset() {
    let v1 = "CREATE TABLE a (x INT); CREATE TABLE b (y INT); CREATE TABLE c (z INT);";
    let v2 = "CREATE TABLE a (x INT); CREATE TABLE b (y INT /*); CREATE TABLE c (z INT);";
    let mut parser = HistoryParser::new();
    parser.parse(v1).unwrap();
    let err = parser.parse(v2).unwrap_err();
    let whole = tokenize(v2).unwrap_err();
    assert_eq!((err.span, err.to_string()), (whole.span, whole.to_string()));
    assert_eq!(err.span.start, v2.find("/*").unwrap());
    // A version that failed to lex leaves nothing to lex the next against.
    assert!(parser.tokens().is_empty());
    parser.parse(v1).unwrap();
    assert_eq!(parser.tokens(), tokenize(v1).unwrap().as_slice());
}

#[test]
fn old_tokens_are_taken_over_with_shifted_spans() {
    let v1 = "CREATE TABLE a (x INT); CREATE TABLE b (y INT);";
    let v2 = "CREATE TABLE a (x INT, w TEXT); CREATE TABLE b (y INT);";
    let edited = tokenize_edit(v1, tokenize(v1).unwrap(), v2).unwrap();
    let last = edited.last().unwrap();
    assert_eq!(last.span.start, v2.len() - 1);
    assert_eq!(edited, tokenize(v2).unwrap());
}

// -- copy-on-write and serialization ---------------------------------------

#[test]
fn alter_on_a_shared_table_leaves_the_previous_version_unchanged() {
    let v1 = "CREATE TABLE t (a INT); CREATE TABLE u (b INT);";
    let v2 = "CREATE TABLE t (a INT); CREATE TABLE u (b INT); ALTER TABLE t ADD COLUMN c INT;";
    let mut parser = HistoryParser::new();
    let s1 = parser.parse(v1).unwrap();
    let before = s1.clone();
    let s2 = parser.parse(v2).unwrap();
    assert_eq!(parser.reused(), 2, "v2 should reuse both CREATE TABLEs");
    assert_eq!(s1, before);
    assert_eq!(s1.table("t").unwrap().arity(), 1);
    assert_eq!(s2.table("t").unwrap().arity(), 2);
    assert_eq!(s2, parse_schema(v2).unwrap());

    // Mutating a clone through the public API is copy-on-write as well.
    let mut s3 = s2.clone();
    s3.table_mut("u").unwrap().remove_attribute("b");
    assert_eq!(s2.table("u").unwrap().arity(), 1);
    assert_eq!(s3.table("u").unwrap().arity(), 0);
}

/// A fixed schema's JSON, as serialized before tables became shared.
const FIXED_SCHEMA_JSON: &str = r#"{"tables":[{"name":"parent","attributes":[{"name":"id","data_type":{"family":"Int","params":[11],"values":[],"unsigned":false,"raw_name":"INT"},"not_null":true},{"name":"name","data_type":{"family":"Varchar","params":[40],"values":[],"unsigned":false,"raw_name":"VARCHAR"},"not_null":false}],"primary_key":["id"],"foreign_keys":[],"index":{"id":0,"name":1}},{"name":"child","attributes":[{"name":"id","data_type":{"family":"Int","params":[],"values":[],"unsigned":false,"raw_name":"INT"},"not_null":false},{"name":"parent_id","data_type":{"family":"Int","params":[],"values":[],"unsigned":false,"raw_name":"INT"},"not_null":false},{"name":"note","data_type":{"family":"Text","params":[],"values":[],"unsigned":false,"raw_name":"TEXT"},"not_null":false}],"primary_key":[],"foreign_keys":[{"columns":["parent_id"],"foreign_table":"parent","foreign_columns":["id"]}],"index":{"id":0,"note":2,"parent_id":1}}],"index":{"child":1,"parent":0}}"#;

#[test]
fn shared_tables_serialize_to_the_same_json() {
    let sql = "CREATE TABLE parent (id INT(11) NOT NULL, name VARCHAR(40), PRIMARY KEY (id));\
               CREATE TABLE child (id INT, parent_id INT, kind ENUM('a','b') NOT NULL, \
                 CONSTRAINT fk_p FOREIGN KEY (parent_id) REFERENCES parent (id));\
               CREATE TABLE gone (x INT);\
               ALTER TABLE child ADD COLUMN note TEXT, DROP COLUMN kind;\
               DROP TABLE gone;";
    let schema = parse_schema(sql).unwrap();
    let json = serde_json::to_string(&schema).unwrap();
    assert_eq!(json, FIXED_SCHEMA_JSON);
    let back: Schema = serde_json::from_str(&json).unwrap();
    assert_eq!(back, schema);
}

// -- random edit sequences -------------------------------------------------

/// Seed documents covering every statement kind the parser models, plus
/// comments, strings hiding `;`, noise statements and non-ASCII names.
const BASES: &[&str] = &[
    "-- schema\nDROP TABLE IF EXISTS users;\nCREATE TABLE users (\n  id INT(11) NOT NULL AUTO_INCREMENT,\n  \
     email VARCHAR(255) DEFAULT 'a;b',\n  PRIMARY KEY (id)\n) ENGINE=InnoDB;\n\
     CREATE TABLE posts (id INT, user_id INT, body TEXT, \
     CONSTRAINT fk FOREIGN KEY (user_id) REFERENCES users (id));\n\
     INSERT INTO users VALUES (1, 'x;y');\nCREATE TEMPORARY TABLE scratch (a INT);\n",
    "CREATE TABLE a (x INT, y DECIMAL(10,2) DEFAULT (0), CHECK (x > 0));\n\
     CREATE TABLE b (z ENUM('p','q') NOT NULL);\nALTER TABLE a ADD COLUMN w TEXT, DROP COLUMN y;\n\
     ALTER TABLE b RENAME TO c;\nDROP TABLE a;\nCREATE TABLE a (x INT);\n",
    "/* header */ SET NAMES utf8;\nCREATE TABLE `order` (`key` VARCHAR(64), value TEXT, \
     UNIQUE KEY uq (`key`));\nCREATE INDEX i ON `order` (value);\n\
     ALTER TABLE `order` MODIFY value MEDIUMTEXT NOT NULL, CHANGE `key` k VARCHAR(80);\n\
     CREATE TABLE t (ts TIMESTAMP DEFAULT CURRENT_TIMESTAMP ON UPDATE CURRENT_TIMESTAMP)",
    "# größen\nCREATE TABLE naïve (ü INT, `straße` TEXT DEFAULT 'ß;é', PRIMARY KEY (ü));\n\
     ALTER TABLE naïve ADD COLUMN ñ VARCHAR(8);\nDROP TABLE IF EXISTS ø;\n",
];

/// Characters a byte flip writes: statement and group delimiters, quote
/// and comment openers, and plain text.
const PALETTE: &[char] = &[
    ';', '(', ')', '\'', '"', '`', ',', ' ', 'x', '-', '/', '*', '\n', '#',
];

#[derive(Debug, Clone)]
enum Edit {
    /// Replace the character at a position with a palette character.
    Flip(usize, usize),
    /// Cut the text at a position.
    Truncate(usize),
    /// Copy a span of the text (or of a seed document) to a position.
    Splice(usize, usize, usize, Option<usize>),
    /// Delete a span.
    Delete(usize, usize),
    /// Keep the text as it is.
    Same,
}

fn edit() -> impl Strategy<Value = Edit> {
    let n = 0usize..4096;
    prop_oneof![
        4 => (n.clone(), 0usize..PALETTE.len()).prop_map(|(at, c)| Edit::Flip(at, c)),
        1 => n.clone().prop_map(Edit::Truncate),
        3 => (n.clone(), n.clone(), n.clone(), proptest::option::of(0usize..BASES.len()))
            .prop_map(|(at, from, len, base)| Edit::Splice(at, from, len % 200, base)),
        2 => (n.clone(), 0usize..80).prop_map(|(at, len)| Edit::Delete(at, len)),
        1 => Just(Edit::Same),
    ]
}

/// The largest char boundary of `s` at or before `at % (len + 1)`.
fn boundary(s: &str, at: usize) -> usize {
    let mut i = at % (s.len() + 1);
    while !s.is_char_boundary(i) {
        i -= 1;
    }
    i
}

fn apply(prev: &str, e: &Edit) -> String {
    let mut s = prev.to_string();
    match *e {
        Edit::Flip(at, c) => {
            let i = boundary(&s, at);
            if let Some(old) = s[i..].chars().next() {
                s.replace_range(i..i + old.len_utf8(), &PALETTE[c].to_string());
            }
        }
        Edit::Truncate(at) => s.truncate(boundary(prev, at)),
        Edit::Splice(at, from, len, base) => {
            let src = base.map_or(prev, |b| BASES[b]);
            let a = boundary(src, from);
            let b = boundary(src, a + len.min(src.len() - a));
            let piece = src[a..b.max(a)].to_string();
            s.insert_str(boundary(prev, at), &piece);
        }
        Edit::Delete(at, len) => {
            let a = boundary(prev, at);
            let b = boundary(prev, a + len.min(prev.len() - a));
            s.replace_range(a..b.max(a), "");
        }
        Edit::Same => {}
    }
    s
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn edited_sequences_match_the_oracle(
        base in 0usize..BASES.len(),
        edits in proptest::collection::vec(edit(), 1..12),
    ) {
        let mut versions = vec![BASES[base].to_string()];
        for e in &edits {
            let next = apply(versions.last().unwrap(), e);
            versions.push(next);
        }
        let mut parser = HistoryParser::new();
        for (i, sql) in versions.iter().enumerate() {
            prop_assert_eq!(
                parser.parse(sql),
                parse_schema(sql),
                "version {} of {:?} diverged on {:?}", i, edits, sql
            );
            if let Some(why) = token_divergence(&parser, sql) {
                prop_assert!(false, "version {} of {:?}: {}", i, edits, why);
            }
            if i > 0 {
                if let Ok(prev_tokens) = tokenize(&versions[i - 1]) {
                    let edited = tokenize_edit(&versions[i - 1], prev_tokens, sql);
                    prop_assert_eq!(
                        edited.map_err(|e| (e.span, e.to_string())),
                        tokenize(sql).map_err(|e| (e.span, e.to_string())),
                        "edit {} of {:?} lexed differently on {:?}", i, edits, sql
                    );
                }
            }
        }
    }
}

// -- edits at several sites ------------------------------------------------

/// One edit of a version changed at several sites: a byte-level edit inside
/// one statement, or a whole statement inserted, deleted or swapped with
/// the next.
#[derive(Debug, Clone)]
enum SiteEdit {
    Within(Edit),
    /// Insert a statement of a seed document (picked by the number).
    Insert(usize),
    Delete,
    Swap,
}

fn site_edit() -> impl Strategy<Value = SiteEdit> {
    prop_oneof![
        3 => edit().prop_map(SiteEdit::Within),
        1 => (0usize..64).prop_map(SiteEdit::Insert),
        1 => Just(SiteEdit::Delete),
        1 => Just(SiteEdit::Swap),
    ]
}

/// `s` cut after every `;`: its statements, the last one maybe without.
fn pieces(s: &str) -> Vec<String> {
    s.split_inclusive(';').map(str::to_string).collect()
}

/// Apply `edits` to `prev`, each at the statement its number picks; edits
/// that pick the same statement as an earlier one are dropped, so every
/// site is distinct. Sites are edited from the last back, so an insert or
/// a delete does not move the sites before it.
fn apply_at_sites(prev: &str, edits: &[(usize, SiteEdit)]) -> String {
    let mut parts = pieces(prev);
    let n = parts.len().max(1);
    let mut sites: Vec<(usize, &SiteEdit)> = edits.iter().map(|(at, e)| (at % n, e)).collect();
    sites.sort_by_key(|&(at, _)| std::cmp::Reverse(at));
    sites.dedup_by_key(|&mut (at, _)| at);
    for (at, e) in sites {
        if parts.is_empty() {
            parts.push(String::new());
        }
        match e {
            SiteEdit::Within(e) => parts[at] = apply(&parts[at], e),
            SiteEdit::Insert(k) => {
                let pool = pieces(BASES[k % BASES.len()]);
                parts.insert(at, pool[k / BASES.len() % pool.len()].clone());
            }
            SiteEdit::Delete => {
                parts.remove(at);
            }
            SiteEdit::Swap => {
                if at + 1 < parts.len() {
                    parts.swap(at, at + 1);
                }
            }
        }
    }
    parts.concat()
}

/// Check a sequence of versions: each parses like `parse_schema`, keeps
/// `tokenize`'s (and the reference lexer's) tokens, and lexes as an edit
/// of the one before like `tokenize`.
fn check_sequence(versions: &[String], what: &dyn std::fmt::Debug) -> Result<(), TestCaseError> {
    let mut parser = HistoryParser::new();
    for (i, sql) in versions.iter().enumerate() {
        prop_assert_eq!(
            parser.parse(sql),
            parse_schema(sql),
            "version {} of {:?} diverged on {:?}",
            i,
            what,
            sql
        );
        if let Some(why) = token_divergence(&parser, sql) {
            prop_assert!(false, "version {} of {:?}: {}", i, what, why);
        }
        if i > 0 {
            if let Ok(prev_tokens) = tokenize(&versions[i - 1]) {
                let edited = tokenize_edit(&versions[i - 1], prev_tokens, sql);
                prop_assert_eq!(
                    edited.map_err(|e| (e.span, e.to_string())),
                    tokenize(sql).map_err(|e| (e.span, e.to_string())),
                    "edit {} of {:?} lexed differently on {:?}",
                    i,
                    what,
                    sql
                );
            }
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn edits_at_several_sites_match_the_oracle(
        bases in proptest::collection::vec(0usize..BASES.len(), 1..4),
        steps in proptest::collection::vec(
            proptest::collection::vec((0usize..64, site_edit()), 2..4),
            1..8,
        ),
    ) {
        // Several seed documents back to back, so a version has enough
        // statements for far-apart sites.
        let first: String = bases.iter().map(|&b| BASES[b]).collect();
        let mut versions = vec![first];
        for edits in &steps {
            let next = apply_at_sites(versions.last().unwrap(), edits);
            versions.push(next);
        }
        check_sequence(&versions, &steps)?;
    }
}

// -- pinned shapes for resyncing at every `;` ------------------------------

/// Check `shapes`, each a pair of versions, in both directions and as
/// `a, b, a`.
fn check_shapes(shapes: &[(String, String)]) {
    for (a, b) in shapes {
        for (prev, next) in [(a, b), (b, a)] {
            if tokenize(prev).is_ok() {
                assert_edit_lexes_like_tokenize(prev, next);
            }
            assert_matches_oracle(&[prev, next, prev], "resync hazard");
        }
    }
}

/// `n` small tables, `t0` to `t{n-1}`.
fn tables(n: usize) -> Vec<String> {
    (0..n)
        .map(|i| format!("CREATE TABLE t{i} (a INT, b TEXT DEFAULT 'x');\n"))
        .collect()
}

#[test]
fn an_edit_opening_a_string_or_comment_swallows_later_semicolons() {
    let base = tables(8);
    let v1 = base.concat();
    let mut shapes = Vec::new();
    for opener in ["'", "/*", "\"", "`", "[", "-- "] {
        // Opened in table 1 and never closed on the same statement; a far
        // edit in table 6 as well, so there is a second site to resync at.
        let mut parts = base.clone();
        parts[1] = parts[1].replace("(a INT", &format!("(a INT {opener}"));
        parts[6] = parts[6].replace("b TEXT", "b MEDIUMTEXT");
        shapes.push((v1.clone(), parts.concat()));
        // Closed again three statements later.
        let closer = match opener {
            "/*" => "*/",
            "[" => "]",
            "-- " => "\n",
            q => q,
        };
        parts[4] = parts[4].replace("(a INT", &format!("(a INT {closer}"));
        shapes.push((v1.clone(), parts.concat()));
    }
    check_shapes(&shapes);
}

#[test]
fn two_identical_statements_one_deleted() {
    let same = "INSERT INTO t0 VALUES (1, 'a;b');\n";
    let mut parts = tables(6);
    parts.insert(2, same.to_string());
    parts.insert(4, same.to_string());
    let v1 = parts.concat();
    let mut shapes = Vec::new();
    for gone in [2, 4] {
        let mut fewer = parts.clone();
        fewer.remove(gone);
        shapes.push((v1.clone(), fewer.concat()));
        // And with an edit elsewhere too.
        fewer[0] = fewer[0].replace("a INT", "a BIGINT");
        shapes.push((v1.clone(), fewer.concat()));
    }
    // Identical CREATE TABLEs, one deleted: the duplicate keeps its first
    // position with its last definition.
    let mut dup = tables(5);
    dup.insert(1, dup[3].clone());
    let with_dup = dup.concat();
    for gone in [1, 4] {
        let mut fewer = dup.clone();
        fewer.remove(gone);
        shapes.push((with_dup.clone(), fewer.concat()));
    }
    check_shapes(&shapes);
}

#[test]
fn a_degraded_create_right_before_an_untouched_one() {
    // The unbalanced default makes the CREATE degrade and read past its
    // `;`, so it is never kept; the statement after it is untouched.
    let mut parts = tables(6);
    parts.insert(3, "CREATE TABLE bad (a INT DEFAULT (1;\n".to_string());
    let v1 = parts.concat();
    let mut shapes = Vec::new();
    for edited in [0, 2, 4, 6] {
        let mut next = parts.clone();
        next[edited] = next[edited].replace("b TEXT", "b TEXT, c INT");
        shapes.push((v1.clone(), next.concat()));
    }
    let mut healed = parts.clone();
    healed[3] = "CREATE TABLE bad (a INT DEFAULT (1));\n".to_string();
    shapes.push((v1.clone(), healed.concat()));
    check_shapes(&shapes);
}

#[test]
fn an_alter_after_an_edited_create() {
    let mut parts = tables(5);
    parts.push("ALTER TABLE t1 ADD COLUMN z INT, DROP COLUMN b;\n".to_string());
    parts.push("ALTER TABLE t3 RENAME TO t9;\n".to_string());
    parts.push("DROP TABLE t4;\n".to_string());
    let v1 = parts.concat();
    let mut shapes = Vec::new();
    for edited in [1, 3, 4] {
        let mut next = parts.clone();
        next[edited] = next[edited].replace("a INT", "a INT, y INT");
        shapes.push((v1.clone(), next.concat()));
        // Renamed, so the ALTER names a table that is gone.
        next[edited] = next[edited].replace(&format!("t{edited} "), &format!("u{edited} "));
        shapes.push((v1.clone(), next.concat()));
    }
    check_shapes(&shapes);
}
