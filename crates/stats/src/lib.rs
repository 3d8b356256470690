//! # schevo-stats
//!
//! The statistics substrate of the schema-evolution study, implemented from
//! scratch: descriptive summaries, R type-7 quantiles, midranks,
//! tie-corrected Kruskal–Wallis with χ² p-values, Royston's Shapiro–Wilk
//! normality test, and the percentile-split thresholding that derives the
//! paper's "reed limit".
//!
//! Every procedure is validated against published reference values
//! (R / scipy / RFC test vectors) in its module tests.
//!
//! ## Example: the paper's §V sanity check, in miniature
//!
//! ```
//! use schevo_stats::kruskal::kruskal_wallis;
//!
//! // Activities of two fictional taxa.
//! let almost_frozen = [1.0, 2.0, 3.0, 3.0, 5.0];
//! let active = [112.0, 254.0, 548.0, 3485.0, 177.0];
//! let kw = kruskal_wallis(&[&almost_frozen, &active]).unwrap();
//! assert!(kw.p_value < 0.05, "the taxa differ significantly");
//! ```

#![warn(missing_docs)]

pub mod contingency;
pub mod correlation;
pub mod describe;
pub mod kruskal;
pub mod quantile;
pub mod rank;
pub mod shapiro;
pub mod special;
pub mod threshold;

pub use contingency::{chi2_independence, Chi2Independence, ContingencyError};
pub use correlation::{spearman, CorrelationError, Spearman};
pub use describe::{mean, percent_where, variance, Summary};
pub use kruskal::{kruskal_wallis, pairwise_kruskal, KruskalError, KruskalWallis, PairwiseMatrix};
pub use quantile::{median, quantile, Quartiles};
pub use rank::{midranks, tie_correction};
pub use shapiro::{shapiro_wilk, ShapiroError, ShapiroWilk};
pub use threshold::{percentile_split, reed_limit};
