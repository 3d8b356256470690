//! Canonical DDL rendering of a [`Schema`].
//!
//! The synthetic corpus materializes every schema version as actual SQL text
//! through this module, then commits that text into the VCS substrate — so
//! the mining pipeline parses *real* files, not in-memory objects. The
//! invariant `parse_schema(render(s)) == s` is property-tested.

use crate::schema::{Schema, Table};
use std::fmt::Write;

/// Options controlling rendered style, so that the corpus can imitate
/// different projects' dump styles (quoting, engine clauses, noise).
#[derive(Debug, Clone)]
pub struct RenderOptions {
    /// Quote identifiers with backquotes (MySQL dump style).
    pub backquote_identifiers: bool,
    /// Append `ENGINE=InnoDB DEFAULT CHARSET=utf8` to each table.
    pub engine_clause: bool,
    /// A banner comment placed at the top of the file (projects often keep a
    /// changelog header there; editing it is a classic non-active commit).
    pub header_comment: Option<String>,
    /// Extra non-DDL statements appended after the tables (INSERT seeds,
    /// index creations) — also non-active content.
    pub trailer_statements: Vec<String>,
}

impl Default for RenderOptions {
    fn default() -> Self {
        RenderOptions {
            backquote_identifiers: true,
            engine_clause: true,
            header_comment: None,
            trailer_statements: Vec::new(),
        }
    }
}

/// Render a schema to canonical DDL text with default options.
pub fn render_schema(schema: &Schema) -> String {
    render_schema_with(schema, &RenderOptions::default())
}

/// Render a schema to DDL text with explicit [`RenderOptions`].
pub fn render_schema_with(schema: &Schema, opts: &RenderOptions) -> String {
    let mut out = String::new();
    render_schema_into(&mut out, schema, opts, |out, table| render_table(out, table, opts));
    out
}

/// Append the file layout of `schema` to `out`: the header comment, each
/// table's text in file order, then the trailer statements. `table`
/// appends one table's text; [`render_schema_with`] passes
/// [`render_table`], and a caller that kept a table's text from an
/// earlier version (rendered with the same options) may append that
/// instead.
pub fn render_schema_into(
    out: &mut String,
    schema: &Schema,
    opts: &RenderOptions,
    mut table: impl FnMut(&mut String, &Table),
) {
    if let Some(header) = &opts.header_comment {
        for line in header.lines() {
            let _ = writeln!(out, "-- {line}");
        }
        out.push('\n');
    }
    for t in schema.tables() {
        table(out, t);
    }
    for stmt in &opts.trailer_statements {
        let _ = writeln!(out, "{stmt}");
    }
}

/// Append `name` to `out`, backquoted with any inner backquote doubled
/// when `opts` asks for quoting.
fn push_ident(out: &mut String, name: &str, opts: &RenderOptions) {
    if !opts.backquote_identifiers {
        out.push_str(name);
        return;
    }
    out.push('`');
    for (i, part) in name.split('`').enumerate() {
        if i > 0 {
            out.push_str("``");
        }
        out.push_str(part);
    }
    out.push('`');
}

/// Append `names` to `out` as a `, `-separated identifier list.
fn push_ident_list(out: &mut String, names: &[String], opts: &RenderOptions) {
    for (i, name) in names.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        push_ident(out, name, opts);
    }
}

/// Append one table's `CREATE TABLE` statement to `out`, followed by the
/// blank line that separates it from the next table. The text depends on
/// the table and on `opts`' quoting and engine clause only.
pub fn render_table(out: &mut String, table: &Table, opts: &RenderOptions) {
    out.push_str("CREATE TABLE ");
    push_ident(out, &table.name, opts);
    out.push_str(" (\n");
    let n = table.arity();
    let has_pk = !table.primary_key().is_empty();
    let fk_count = table.foreign_keys().len();
    for (i, attr) in table.attributes().iter().enumerate() {
        out.push_str("  ");
        push_ident(out, &attr.name, opts);
        let _ = write!(out, " {}", attr.data_type);
        if attr.not_null {
            out.push_str(" NOT NULL");
        }
        if i + 1 < n || has_pk || fk_count > 0 {
            out.push(',');
        }
        out.push('\n');
    }
    if has_pk {
        out.push_str("  PRIMARY KEY (");
        push_ident_list(out, table.primary_key(), opts);
        out.push(')');
        out.push_str(if fk_count > 0 { ",\n" } else { "\n" });
    }
    for (k, fk) in table.foreign_keys().iter().enumerate() {
        out.push_str("  FOREIGN KEY (");
        push_ident_list(out, &fk.columns, opts);
        out.push_str(") REFERENCES ");
        push_ident(out, &fk.foreign_table, opts);
        if !fk.foreign_columns.is_empty() {
            out.push_str(" (");
            push_ident_list(out, &fk.foreign_columns, opts);
            out.push(')');
        }
        out.push_str(if k + 1 < fk_count { ",\n" } else { "\n" });
    }
    if opts.engine_clause {
        out.push_str(") ENGINE=InnoDB DEFAULT CHARSET=utf8;\n\n");
    } else {
        out.push_str(");\n\n");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse_schema;
    use crate::schema::{Attribute, Table};
    use crate::types::DataType;

    fn sample_schema() -> Schema {
        let mut s = Schema::new();
        let mut t = Table::new("users");
        let mut id = Attribute::new("id", DataType::int());
        id.not_null = true;
        t.push_attribute(id);
        t.push_attribute(Attribute::new("email", DataType::varchar(255)));
        t.push_attribute(Attribute::new("bio", DataType::text()));
        t.set_primary_key(vec!["id".into()]);
        s.upsert_table(t);
        let mut o = Table::new("orders");
        o.push_attribute(Attribute::new("id", DataType::int()));
        o.push_attribute(Attribute::new("total", DataType::decimal(10, 2)));
        s.upsert_table(o);
        s
    }

    #[test]
    fn round_trip_preserves_schema() {
        let s = sample_schema();
        let sql = render_schema(&s);
        let parsed = parse_schema(&sql).unwrap();
        assert_eq!(parsed, s);
    }

    #[test]
    fn round_trip_without_backquotes() {
        let s = sample_schema();
        let opts = RenderOptions {
            backquote_identifiers: false,
            engine_clause: false,
            ..Default::default()
        };
        let sql = render_schema_with(&s, &opts);
        let parsed = parse_schema(&sql).unwrap();
        assert_eq!(parsed, s);
    }

    #[test]
    fn header_and_trailers_do_not_affect_parse() {
        let s = sample_schema();
        let opts = RenderOptions {
            header_comment: Some("schema v3\nupdated by alice".into()),
            trailer_statements: vec![
                "INSERT INTO users VALUES (1, 'a@b.c', NULL);".into(),
                "CREATE INDEX idx_email ON users (email);".into(),
            ],
            ..Default::default()
        };
        let sql = render_schema_with(&s, &opts);
        let parsed = parse_schema(&sql).unwrap();
        assert_eq!(parsed, s);
        assert!(sql.starts_with("-- schema v3"));
        assert!(sql.contains("INSERT INTO users"));
    }

    #[test]
    fn empty_schema_renders_to_comment_only() {
        let s = Schema::new();
        let sql = render_schema(&s);
        assert!(parse_schema(&sql).unwrap().is_empty());
    }

    #[test]
    fn foreign_keys_roundtrip() {
        use crate::schema::ForeignKey;
        let mut s = Schema::new();
        let mut parent = Table::new("parent");
        parent.push_attribute(Attribute::new("id", DataType::int()));
        parent.set_primary_key(vec!["id".into()]);
        s.upsert_table(parent);
        let mut child = Table::new("child");
        child.push_attribute(Attribute::new("id", DataType::int()));
        child.push_attribute(Attribute::new("pid", DataType::int()));
        child.push_attribute(Attribute::new("qid", DataType::int()));
        child.set_primary_key(vec!["id".into()]);
        child.push_foreign_key(ForeignKey {
            columns: vec!["pid".into()],
            foreign_table: "parent".into(),
            foreign_columns: vec!["id".into()],
        });
        child.push_foreign_key(ForeignKey {
            columns: vec!["qid".into()],
            foreign_table: "parent".into(),
            foreign_columns: vec![],
        });
        s.upsert_table(child);
        let sql = render_schema(&s);
        let parsed = parse_schema(&sql).unwrap();
        assert_eq!(parsed, s);
        // Also without backquotes/engine clause.
        let opts = RenderOptions {
            backquote_identifiers: false,
            engine_clause: false,
            ..Default::default()
        };
        let parsed = parse_schema(&render_schema_with(&s, &opts)).unwrap();
        assert_eq!(parsed, s);
    }

    #[test]
    fn fk_only_table_no_pk() {
        use crate::schema::ForeignKey;
        let mut s = Schema::new();
        let mut t = Table::new("link");
        t.push_attribute(Attribute::new("a", DataType::int()));
        t.push_foreign_key(ForeignKey {
            columns: vec!["a".into()],
            foreign_table: "other".into(),
            foreign_columns: vec!["id".into()],
        });
        s.upsert_table(t);
        let parsed = parse_schema(&render_schema(&s)).unwrap();
        assert_eq!(parsed, s);
    }

    #[test]
    fn backquote_escaping() {
        let mut s = Schema::new();
        let mut t = Table::new("odd`name");
        t.push_attribute(Attribute::new("a", DataType::int()));
        s.upsert_table(t);
        let sql = render_schema(&s);
        let parsed = parse_schema(&sql).unwrap();
        assert!(parsed.table("odd`name").is_some());
    }
}
