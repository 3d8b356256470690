//! Percentile-split thresholding — the paper's derivation of the *reed
//! limit* (§III-B): take the activities of all single-active-commit
//! projects, sort them (a power-law-like distribution), and split at the
//! 85% limit. Commits with activity strictly above the threshold are
//! "reeds"; the rest are "turf".

use crate::quantile::quantile_sorted;

/// Split a sample at the `p`-th percentile, returning the split value
/// rounded *down* to an integer threshold (activity is measured in whole
/// attributes). Returns `None` for an empty sample.
pub fn percentile_split(values: &[f64], p: f64) -> Option<u64> {
    if values.is_empty() {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("NaN in sample"));
    Some(quantile_sorted(&sorted, p).floor() as u64)
}

/// The paper's reed-limit rule: the 85% split of single-commit activities.
pub fn reed_limit(single_commit_activities: &[f64]) -> Option<u64> {
    percentile_split(single_commit_activities, 0.85)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn split_of_uniform_1_to_100() {
        let v: Vec<f64> = (1..=100).map(|x| x as f64).collect();
        // type-7: h = 99*0.85 = 84.15 → 85.15 → floor 85
        assert_eq!(percentile_split(&v, 0.85), Some(85));
    }

    #[test]
    fn reed_limit_on_power_law_like_sample() {
        // Mostly small activities with a heavy tail; calibrated to split
        // near the paper's threshold of 14.
        let mut v = Vec::new();
        for i in 1..=85 {
            v.push(((i % 14) + 1) as f64); // 1..14
        }
        for i in 0..15 {
            v.push(20.0 + 25.0 * i as f64); // the long tail
        }
        let t = reed_limit(&v).unwrap();
        assert!((14..=20).contains(&t), "threshold = {t}");
    }

    #[test]
    fn empty_sample_is_none() {
        assert_eq!(percentile_split(&[], 0.85), None);
        assert_eq!(reed_limit(&[]), None);
    }
}
