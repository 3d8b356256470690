//! The statistics battery just inside its degenerate edges, against values
//! worked out by hand (not captured from this implementation):
//!
//! - Shapiro–Wilk at n = 3, where the p-value is exact:
//!   `p = 6/π · (asin √W − asin √(3/4))`, and W follows from the weights
//!   `(−√½, 0, √½)`;
//! - Kruskal–Wallis with every value tied but one, where the tie
//!   correction carries the whole statistic;
//! - type-7 quantiles of one and of two values.

use schevo::stats::{kruskal_wallis, median, quantile, shapiro_wilk, Quartiles};
use std::f64::consts::PI;

fn close(got: f64, want: f64, what: &str) {
    assert!(
        (got - want).abs() <= 1e-12 * want.abs().max(1.0),
        "{what}: got {got}, want {want}"
    );
}

/// The exact n = 3 Shapiro–Wilk p-value of `w`.
fn exact_p3(w: f64) -> f64 {
    6.0 / PI * (w.sqrt().asin() - 0.75f64.sqrt().asin())
}

#[test]
fn shapiro_wilk_at_three_is_exact() {
    // [1, 2, 4]: mean 7/3, squared deviations 42/9, and the weighted sum
    // √½·(4 − 1) squares to 9/2, so W = (9/2)/(42/9) = 27/28.
    let sw = shapiro_wilk(&[4.0, 1.0, 2.0]).expect("three distinct values");
    assert_eq!(sw.n, 3);
    close(sw.w, 27.0 / 28.0, "W of [1, 2, 4]");
    close(sw.p_value, exact_p3(27.0 / 28.0), "p of [1, 2, 4]");
    // asin √(3/4) = π/3, so the same p is 6/π · asin √(27/28) − 2.
    close(
        sw.p_value,
        6.0 / PI * (27.0f64 / 28.0).sqrt().asin() - 2.0,
        "p, π/3 form",
    );

    // Equal spacing is as normal as three points get: W = 1, p = 1.
    let sw = shapiro_wilk(&[1.0, 2.0, 3.0]).expect("three distinct values");
    close(sw.w, 1.0, "W of [1, 2, 3]");
    close(sw.p_value, 1.0, "p of [1, 2, 3]");

    // Two equal values and one apart reach the n = 3 minimum W = 3/4
    // (deviations 2/3, weighted sum √½ squaring to 1/2), where p = 0.
    let sw = shapiro_wilk(&[0.0, 0.0, 1.0]).expect("not all identical");
    close(sw.w, 0.75, "W of [0, 0, 1]");
    assert!(sw.p_value.abs() <= 1e-7, "p of [0, 0, 1]: {}", sw.p_value);
}

#[test]
fn kruskal_wallis_with_every_value_tied_but_one() {
    // Pooled [1, 1, 1, 2]: the three ties share rank 2, the 2 ranks 4.
    // Tie correction 1 − (3³ − 3)/(4³ − 4) = 3/5. Rank sums 4 and 6 give
    // H = 12/20 · (16/2 + 36/2) − 15 = 3/5, corrected to 1, and
    // P(χ²₁ > 1) = 2(1 − Φ(1)).
    let kw = kruskal_wallis(&[&[1.0, 1.0], &[1.0, 2.0]]).expect("not all tied");
    assert_eq!(kw.df, 1);
    close(kw.statistic, 1.0, "H of [1, 1] | [1, 2]");
    close(kw.p_value, 0.317_310_507_862_914_1, "p of [1, 1] | [1, 2]");

    // The lone value alone in its group: rank sums 6 and 4 give
    // H = 12/20 · (36/3 + 16/1) − 15 = 9/5, corrected to 3, and
    // P(χ²₁ > 3) = 2(1 − Φ(√3)).
    let kw = kruskal_wallis(&[&[1.0, 1.0, 1.0], &[2.0]]).expect("not all tied");
    close(kw.statistic, 3.0, "H of [1, 1, 1] | [2]");
    close(kw.p_value, 0.083_264_516_663_550_39, "p of [1, 1, 1] | [2]");

    // Three groups, rank sums 2, 2 and 6: H = 12/20 · 26 − 15 = 3/5,
    // corrected to 1, and P(χ²₂ > 1) = e^(−1/2).
    let kw = kruskal_wallis(&[&[5.0], &[5.0], &[5.0, 7.0]]).expect("not all tied");
    assert_eq!(kw.df, 2);
    close(kw.statistic, 1.0, "H of [5] | [5] | [5, 7]");
    close(kw.p_value, (-0.5f64).exp(), "p of [5] | [5] | [5, 7]");
}

#[test]
fn type7_quantiles_of_one_and_two_values() {
    for p in [0.0, 0.25, 0.5, 0.75, 1.0] {
        assert_eq!(quantile(&[3.5], p), 3.5, "one value at p = {p}");
        // h = p, so the quantile walks the segment from 2 to 10.
        close(quantile(&[10.0, 2.0], p), 2.0 + 8.0 * p, "two values");
    }
    assert_eq!(median(&[3.5]), 3.5);
    assert_eq!(median(&[10.0, 2.0]), 6.0);
    assert_eq!(
        Quartiles::of(&[10.0, 2.0]),
        Some(Quartiles {
            min: 2.0,
            q1: 4.0,
            q2: 6.0,
            q3: 8.0,
            max: 10.0
        })
    );
    let one = Quartiles::of(&[3.5]).expect("one value");
    assert_eq!(
        (one.min, one.q1, one.q2, one.q3, one.max),
        (3.5, 3.5, 3.5, 3.5, 3.5)
    );
    assert_eq!(one.iqr(), 0.0);
}
