//! The DDL renderer writes identifiers and key lists straight into its
//! output. The synthetic corpus is rendered by it, so the corpus digest and
//! every study byte depend on its exact output. This battery holds
//! `render_schema_with` byte-equal to the renderer it replaced, kept below
//! verbatim (it built each quoted identifier through `format!` and
//! `replace`, and each key list through a joined `Vec<String>`), across both
//! quoting styles, engine clauses, headers and trailers, identifiers holding
//! backquotes, tables without a primary key, and foreign keys with and
//! without referenced columns.
//!
//! One more case holds names longer than the inline limit of the name
//! type, multi-byte UTF-8 names and mixed-case type names byte-equal, from
//! parse through lowering, `diff`, render and serde, to what the model of
//! one `String` per name produced (`tests/golden/long_names.txt`, captured
//! from that model).

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use schevo::ddl::render::{render_schema_with, RenderOptions};
use schevo::ddl::schema::{Attribute, ForeignKey, Table};
use schevo::ddl::types::DataType;
use schevo::ddl::Schema;

/// The renderer as it was before it wrote identifiers in place (laid out
/// by rustfmt; the logic is unchanged).
mod formatted {
    use schevo::ddl::render::RenderOptions;
    use schevo::ddl::{Schema, Table};
    use std::fmt::Write;

    pub fn render_schema_with(schema: &Schema, opts: &RenderOptions) -> String {
        let mut out = String::new();
        if let Some(header) = &opts.header_comment {
            for line in header.lines() {
                let _ = writeln!(out, "-- {line}");
            }
            out.push('\n');
        }
        for table in schema.tables() {
            render_table(&mut out, table, opts);
            out.push('\n');
        }
        for stmt in &opts.trailer_statements {
            let _ = writeln!(out, "{stmt}");
        }
        out
    }

    fn quoted(name: &str, opts: &RenderOptions) -> String {
        if opts.backquote_identifiers {
            format!("`{}`", name.replace('`', "``"))
        } else {
            name.to_string()
        }
    }

    fn render_table(out: &mut String, table: &Table, opts: &RenderOptions) {
        let _ = writeln!(out, "CREATE TABLE {} (", quoted(&table.name, opts));
        let n = table.arity();
        let has_pk = !table.primary_key().is_empty();
        let fk_count = table.foreign_keys().len();
        for (i, attr) in table.attributes().iter().enumerate() {
            let _ = write!(out, "  {} {}", quoted(&attr.name, opts), attr.data_type);
            if attr.not_null {
                out.push_str(" NOT NULL");
            }
            if i + 1 < n || has_pk || fk_count > 0 {
                out.push(',');
            }
            out.push('\n');
        }
        if has_pk {
            let cols: Vec<String> = table
                .primary_key()
                .iter()
                .map(|c| quoted(c, opts))
                .collect();
            let _ = write!(out, "  PRIMARY KEY ({})", cols.join(", "));
            out.push_str(if fk_count > 0 { ",\n" } else { "\n" });
        }
        for (k, fk) in table.foreign_keys().iter().enumerate() {
            let cols: Vec<String> = fk.columns.iter().map(|c| quoted(c, opts)).collect();
            let _ = write!(
                out,
                "  FOREIGN KEY ({}) REFERENCES {}",
                cols.join(", "),
                quoted(&fk.foreign_table, opts)
            );
            if !fk.foreign_columns.is_empty() {
                let fcols: Vec<String> =
                    fk.foreign_columns.iter().map(|c| quoted(c, opts)).collect();
                let _ = write!(out, " ({})", fcols.join(", "));
            }
            out.push_str(if k + 1 < fk_count { ",\n" } else { "\n" });
        }
        if opts.engine_clause {
            let _ = writeln!(out, ") ENGINE=InnoDB DEFAULT CHARSET=utf8;");
        } else {
            let _ = writeln!(out, ");");
        }
    }
}

/// Names with backquotes in every position, doubled ones, non-ASCII text
/// and the empty name.
const NAMES: &[&str] = &[
    "id", "user_id", "`", "``", "a`b", "`lead", "trail`", "a``b", "größe", "本`表", "",
];

fn name(rng: &mut StdRng) -> String {
    NAMES[rng.gen_range(0..NAMES.len())].to_string()
}

fn data_type(rng: &mut StdRng) -> DataType {
    match rng.gen_range(0..5) {
        0 => DataType::int(),
        1 => DataType::varchar(255),
        2 => DataType::text(),
        3 => DataType::decimal(10, 2),
        _ => {
            let mut t = DataType::from_name("ENUM");
            t.values = vec!["a".into(), "it's".into()];
            t
        }
    }
}

fn names(rng: &mut StdRng, max: usize) -> Vec<String> {
    (0..rng.gen_range(0..=max)).map(|_| name(rng)).collect()
}

fn random_schema(rng: &mut StdRng) -> Schema {
    let mut schema = Schema::new();
    for t in 0..rng.gen_range(0..5) {
        let mut table = Table::new(format!("{}{t}", name(rng)));
        for _ in 0..rng.gen_range(0..5) {
            let mut attr = Attribute::new(name(rng), data_type(rng));
            attr.not_null = rng.gen_bool(0.5);
            table.push_attribute(attr);
        }
        // Empty half the time.
        if rng.gen_bool(0.5) {
            table.set_primary_key(names(rng, 3));
        }
        let cols: Vec<String> = table
            .attributes()
            .iter()
            .map(|a| a.name.to_string())
            .collect();
        for _ in 0..rng.gen_range(0..3) {
            if cols.is_empty() {
                break;
            }
            let columns = (0..rng.gen_range(1..3))
                .map(|_| cols[rng.gen_range(0..cols.len())].clone())
                .collect();
            table.push_foreign_key(ForeignKey {
                columns,
                foreign_table: name(rng),
                // With and without referenced columns.
                foreign_columns: names(rng, 2),
            });
        }
        schema.upsert_table(table);
    }
    schema
}

fn random_options(rng: &mut StdRng) -> RenderOptions {
    RenderOptions {
        backquote_identifiers: rng.gen_bool(0.5),
        engine_clause: rng.gen_bool(0.5),
        header_comment: rng
            .gen_bool(0.3)
            .then(|| "schema v3\nby `alice`".to_string()),
        trailer_statements: if rng.gen_bool(0.3) {
            vec!["INSERT INTO t VALUES (1);".into()]
        } else {
            Vec::new()
        },
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1024))]

    #[test]
    fn renderer_is_byte_identical_to_the_formatted_one(seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let schema = random_schema(&mut rng);
        let opts = random_options(&mut rng);
        prop_assert_eq!(
            render_schema_with(&schema, &opts),
            formatted::render_schema_with(&schema, &opts)
        );
    }
}

#[test]
fn both_quoting_styles_cover_backquotes_keys_and_foreign_columns() {
    let mut table = Table::new("a`b");
    table.push_attribute(Attribute::new("x`", DataType::int()));
    table.push_attribute(Attribute::new("y", DataType::text()));
    table.push_foreign_key(ForeignKey {
        columns: vec!["x`".into(), "y".into()],
        foreign_table: "p``q".into(),
        foreign_columns: vec![],
    });
    table.push_foreign_key(ForeignKey {
        columns: vec!["y".into()],
        foreign_table: "p".into(),
        foreign_columns: vec!["`id".into(), "k".into()],
    });
    let mut keyed = table.clone();
    keyed.set_primary_key(["x`", "y"]);
    let mut schema = Schema::new();
    schema.upsert_table(table);
    let mut keyed_schema = Schema::new();
    keyed_schema.upsert_table(keyed);
    for backquote in [true, false] {
        for engine in [true, false] {
            let opts = RenderOptions {
                backquote_identifiers: backquote,
                engine_clause: engine,
                ..Default::default()
            };
            for s in [&schema, &keyed_schema] {
                assert_eq!(
                    render_schema_with(s, &opts),
                    formatted::render_schema_with(s, &opts)
                );
            }
        }
    }
    let quoted = render_schema_with(&keyed_schema, &RenderOptions::default());
    assert!(quoted.starts_with("CREATE TABLE `a``b` (\n  `x``` INT,\n"));
    assert!(quoted.contains("  PRIMARY KEY (`x```, `y`),\n"));
    assert!(quoted.contains("REFERENCES `p````q`\n") || quoted.contains("REFERENCES `p````q`,\n"));
}

/// Two versions of a DDL file whose names and type names take every path
/// of the name type: identifiers and a user type name longer than the
/// inline limit, quoted names of multi-byte UTF-8 (some of them long too),
/// mixed-case type names and synonyms, four type parameters, and an
/// `ALTER TABLE` that renames, adds and drops by such names.
const LONG_NAME_VERSIONS: [&str; 2] = [
    "CREATE TABLE `customer_accounts_archive_2019` (\n\
       `identifier_longer_than_the_inline_limit` BigInt(20) UNSIGNED NOT NULL,\n\
       `größe_本表` VarChar(40),\n\
       `naïve_café_ünïcödé_名前_long` dOuBlE PrEcIsIoN,\n\
       note Character Varying(300),\n\
       payload an_extraordinarily_long_user_type_name(3,4,5,6),\n\
       PRIMARY KEY (`identifier_longer_than_the_inline_limit`, `größe_本表`)\n\
     ) ENGINE=InnoDB DEFAULT CHARSET=utf8mb4 COMMENT='名前';\n\
     CREATE TABLE `短い` (\n\
       id int,\n\
       `a_foreign_reference_column_name` INT,\n\
       FOREIGN KEY (`a_foreign_reference_column_name`) REFERENCES \
     `customer_accounts_archive_2019` (`identifier_longer_than_the_inline_limit`)\n\
     );\n",
    "CREATE TABLE `customer_accounts_archive_2019` (\n\
       `identifier_longer_than_the_inline_limit` BigInt(20) UNSIGNED NOT NULL,\n\
       `größe_本表` VarChar(80),\n\
       `naïve_café_ünïcödé_名前_long` Long VarChar,\n\
       payload an_extraordinarily_long_user_type_name(3,4,5,7),\n\
       PRIMARY KEY (`identifier_longer_than_the_inline_limit`)\n\
     ) ENGINE=InnoDB DEFAULT CHARSET=utf8mb4;\n\
     CREATE TABLE `短い` (\n\
       id int,\n\
       `a_foreign_reference_column_name` INT\n\
     );\n\
     ALTER TABLE `短い` ADD COLUMN `another_column_with_a_long_name_ß` MeDiUmTeXt, \
     DROP COLUMN id, RENAME TO `a_renamed_table_whose_name_is_long_äö`;\n",
];

/// What parse, lowering, `diff`, render and serde make of the two
/// versions, each as text: per version the rendered schema, its JSON and
/// its attributes; then the delta between them.
fn observe_long_names() -> Vec<String> {
    use schevo::core::diff::diff;
    use schevo::ddl::render::render_schema;
    use schevo::ddl::{parse_schema, HistoryParser, Schema};

    let mut seen = Vec::new();
    let mut history = HistoryParser::new();
    let mut schemas = Vec::new();
    for sql in LONG_NAME_VERSIONS {
        let schema = parse_schema(sql).expect("version parses");
        assert_eq!(
            history.parse(sql).as_ref(),
            Ok(&schema),
            "HistoryParser diverged"
        );
        seen.push(render_schema(&schema));
        let json = serde_json::to_string(&schema).expect("schema serializes");
        let back: Schema = serde_json::from_str(&json).expect("schema deserializes");
        assert_eq!(back, schema, "serde round trip");
        seen.push(json);
        for table in schema.tables() {
            seen.push(format!(
                "{}: {:?} key {:?}",
                table.name,
                table.attributes(),
                table.primary_key()
            ));
        }
        schemas.push(schema);
    }
    seen.push(format!("{:?}", diff(&schemas[0], &schemas[1])));
    seen
}

#[test]
fn long_and_non_ascii_names_keep_their_bytes() {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden/long_names.txt");
    let golden = std::fs::read_to_string(path).expect("golden observations");
    let seen: Vec<String> = observe_long_names()
        .iter()
        .map(|s| format!("{s:?}"))
        .collect();
    let golden: Vec<&str> = golden.lines().collect();
    assert_eq!(seen.len(), golden.len(), "observation count");
    for (i, (seen, golden)) in seen.iter().zip(golden).enumerate() {
        assert_eq!(seen, golden, "observation {i}");
    }
}
