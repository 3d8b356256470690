//! Deterministic name vocabularies for synthetic projects, tables and
//! attributes.
//!
//! Names are generated from fixed word lists indexed by counters, so the
//! corpus is reproducible and human-readable (`task-queue-srv/schema.sql`
//! with tables like `user_account`, `audit_log`), which matters when
//! debugging a 365-project funnel.

/// Domains the paper lists as evidence of external validity (§III-C).
pub const DOMAINS: [&str; 10] = [
    "content-management",
    "iot-cloud",
    "task-management",
    "web-services",
    "messaging",
    "scientific-data",
    "web-store",
    "online-charging",
    "monitoring",
    "analytics",
];

const OWNERS: [&str; 24] = [
    "acmesoft", "bitforge", "cloudsmiths", "datafox", "evergreen", "fluxlab", "gridworks",
    "hexbyte", "ironclad", "jadecode", "kitehub", "lumen-io", "makerspace", "nightowl",
    "openrange", "pixelfarm", "quantum-leap", "redshift", "stackline", "tinkertoys",
    "umbrella-corp", "vortexsoft", "wavecrest", "zephyrware",
];

const PROJECT_STEMS: [&str; 30] = [
    "cms", "shop", "tracker", "queue", "forum", "wiki", "charging", "billing", "inventory",
    "ledger", "telemetry", "registry", "scheduler", "gateway", "harvest", "observatory",
    "judge", "pipeline", "mailer", "catalog", "booking", "survey", "helpdesk", "bridge",
    "archive", "metrics", "portal", "sensor", "market", "chat",
];

const TABLE_STEMS: [&str; 40] = [
    "user", "account", "session", "role", "permission", "product", "order", "order_item",
    "invoice", "payment", "category", "tag", "article", "comment", "attachment", "message",
    "channel", "device", "sensor", "reading", "alert", "task", "project", "milestone",
    "audit_log", "event", "subscription", "plan", "coupon", "shipment", "address", "review",
    "vote", "token", "setting", "report", "metric", "job", "queue_entry", "notification",
];

const COLUMN_STEMS: [&str; 36] = [
    "id", "name", "title", "description", "status", "kind", "email", "login", "password_hash",
    "created_at", "updated_at", "deleted_at", "amount", "price", "quantity", "total", "currency",
    "owner_id", "parent_id", "position", "priority", "body", "url", "ip_address", "user_agent",
    "score", "rating", "token", "expires_at", "started_at", "finished_at", "payload", "version",
    "flags", "notes", "checksum",
];

/// The `owner/repo` name of the i-th synthetic project.
pub fn project_name(index: usize) -> String {
    let mut name = String::new();
    write_project_name(&mut name, index);
    name
}

/// Overwrite `out` with [`project_name`]`(index)`, reusing its buffer.
pub fn write_project_name(out: &mut String, index: usize) {
    use std::fmt::Write as _;
    let owner = OWNERS[index % OWNERS.len()];
    let stem = PROJECT_STEMS[(index / OWNERS.len()) % PROJECT_STEMS.len()];
    let round = index / (OWNERS.len() * PROJECT_STEMS.len());
    out.clear();
    out.push_str(owner);
    out.push('/');
    out.push_str(stem);
    if round != 0 {
        let _ = write!(out, "{round}");
    }
}

/// The domain label of the i-th project.
pub fn project_domain(index: usize) -> &'static str {
    DOMAINS[index % DOMAINS.len()]
}

/// The name of the k-th table created in a project.
pub fn table_name(counter: usize) -> String {
    let stem = TABLE_STEMS[counter % TABLE_STEMS.len()];
    let round = counter / TABLE_STEMS.len();
    if round == 0 {
        stem.to_string()
    } else {
        format!("{stem}_{round}")
    }
}

/// The name of the k-th column created in a table.
pub fn column_name(counter: usize) -> String {
    let stem = COLUMN_STEMS[counter % COLUMN_STEMS.len()];
    let round = counter / COLUMN_STEMS.len();
    if round == 0 {
        stem.to_string()
    } else {
        format!("{stem}_{round}")
    }
}

/// An author name for the k-th contributor of a project.
pub fn author_name(project_index: usize, k: usize) -> String {
    const FIRST: [&str; 12] = [
        "alice", "bob", "carol", "dave", "erin", "frank", "grace", "heidi", "ivan", "judy",
        "mallory", "oscar",
    ];
    format!("{}-{}", FIRST[(project_index + k) % FIRST.len()], k)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn project_names_unique_over_corpus_scale() {
        let names: HashSet<String> = (0..2000).map(project_name).collect();
        assert_eq!(names.len(), 2000);
    }

    #[test]
    fn reused_buffer_writes_the_same_names() {
        let mut buf = "a longer leftover name".to_string();
        for i in [0, 7, 719, 720, 133_028] {
            write_project_name(&mut buf, i);
            assert_eq!(buf, project_name(i));
        }
        assert_eq!(project_name(0), "acmesoft/cms");
        assert_eq!(project_name(720), "acmesoft/cms1");
    }

    #[test]
    fn table_and_column_names_unique_per_counter() {
        let t: HashSet<String> = (0..500).map(table_name).collect();
        assert_eq!(t.len(), 500);
        let c: HashSet<String> = (0..500).map(column_name).collect();
        assert_eq!(c.len(), 500);
    }

    #[test]
    fn names_are_valid_sql_identifiers() {
        for i in 0..200 {
            let t = table_name(i);
            assert!(t
                .chars()
                .all(|ch| ch.is_ascii_lowercase() || ch.is_ascii_digit() || ch == '_'));
            let c = column_name(i);
            assert!(c
                .chars()
                .all(|ch| ch.is_ascii_lowercase() || ch.is_ascii_digit() || ch == '_'));
        }
    }

    #[test]
    fn deterministic() {
        assert_eq!(project_name(7), project_name(7));
        assert_eq!(table_name(3), table_name(3));
        assert_eq!(project_domain(4), project_domain(4));
        assert_eq!(author_name(2, 1), author_name(2, 1));
    }
}
