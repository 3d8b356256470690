//! Libraries.io-style project metadata, the join partner of the
//! SQL-Collection in the paper's data-collection step (§III-A).

use serde::{Deserialize, Serialize};

/// The Libraries.io fields the funnel's selection reads: plain values,
/// so a record that is dropped on them needs no allocation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LibioMeta {
    /// Whether the repository is a fork of another project.
    pub is_fork: bool,
    /// Star count.
    pub stars: u32,
    /// Number of contributors.
    pub contributors: u32,
}

/// Metadata for one repository, as the Libraries.io dump reports it.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct LibioRecord {
    /// `owner/repo` name, the join key with the SQL-Collection.
    pub repo_name: String,
    /// Project page URL (the paper joins on names *and* URLs).
    pub url: String,
    /// Whether the repository is a fork of another project.
    pub is_fork: bool,
    /// Star count.
    pub stars: u32,
    /// Number of contributors.
    pub contributors: u32,
}

impl LibioRecord {
    /// Build a record with the canonical URL for a repo name.
    pub fn new(repo_name: impl Into<String>, is_fork: bool, stars: u32, contributors: u32) -> Self {
        let repo_name = repo_name.into();
        let url = format!("https://github.example/{repo_name}");
        LibioRecord {
            repo_name,
            url,
            is_fork,
            stars,
            contributors,
        }
    }

    /// The fields the funnel's selection reads.
    pub fn meta(&self) -> LibioMeta {
        LibioMeta {
            is_fork: self.is_fork,
            stars: self.stars,
            contributors: self.contributors,
        }
    }

    /// The paper's selection predicate: original repository, more than 0
    /// stars, more than 1 contributor.
    pub fn passes_selection(&self) -> bool {
        !self.is_fork && self.stars > 0 && self.contributors > 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn selection_predicate() {
        assert!(LibioRecord::new("a/b", false, 5, 3).passes_selection());
        assert!(!LibioRecord::new("a/b", true, 5, 3).passes_selection(), "fork");
        assert!(!LibioRecord::new("a/b", false, 0, 3).passes_selection(), "0 stars");
        assert!(!LibioRecord::new("a/b", false, 5, 1).passes_selection(), "1 contributor");
        // Boundary: exactly 1 star and 2 contributors pass.
        assert!(LibioRecord::new("a/b", false, 1, 2).passes_selection());
    }

    #[test]
    fn url_derived_from_name() {
        let r = LibioRecord::new("acme/shop", false, 1, 2);
        assert!(r.url.ends_with("acme/shop"));
    }
}
