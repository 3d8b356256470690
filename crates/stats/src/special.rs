//! Special functions: log-gamma, regularized incomplete gamma, error
//! function, normal and chi-squared distributions.
//!
//! Implemented from scratch (Lanczos approximation; series + Lentz continued
//! fraction for the incomplete gamma; Acklam's rational approximation for
//! the normal quantile) and validated in unit tests against reference values
//! from R/scipy.

/// Natural log of the gamma function, Lanczos approximation (g = 7, n = 9).
///
/// Accurate to ~1e-13 over the positive reals.
pub fn ln_gamma(x: f64) -> f64 {
    const COEFFS: [f64; 9] = [
        0.999_999_999_999_809_9,
        676.520_368_121_885_1,
        -1_259.139_216_722_402_8,
        771.323_428_777_653_1,
        -176.615_029_162_140_6,
        12.507_343_278_686_905,
        -0.138_571_095_265_720_12,
        9.984_369_578_019_572e-6,
        1.505_632_735_149_311_6e-7,
    ];
    if x < 0.5 {
        // Reflection formula.
        let pi = std::f64::consts::PI;
        return (pi / (pi * x).sin()).ln() - ln_gamma(1.0 - x);
    }
    let x = x - 1.0;
    let mut a = COEFFS[0];
    let t = x + 7.5;
    for (i, &c) in COEFFS.iter().enumerate().skip(1) {
        a += c / (x + i as f64);
    }
    0.5 * (2.0 * std::f64::consts::PI).ln() + (x + 0.5) * t.ln() - t + a.ln()
}

/// Regularized lower incomplete gamma `P(a, x) = γ(a,x) / Γ(a)`.
///
/// Uses the series expansion for `x < a + 1` and the continued fraction for
/// the complement otherwise (Numerical Recipes scheme).
pub fn gamma_p(a: f64, x: f64) -> f64 {
    if x <= 0.0 || a <= 0.0 {
        return if x <= 0.0 { 0.0 } else { 1.0 };
    }
    if x < a + 1.0 {
        gamma_p_series(a, x)
    } else {
        1.0 - gamma_q_cf(a, x)
    }
}

/// Regularized upper incomplete gamma `Q(a, x) = 1 - P(a, x)`.
pub fn gamma_q(a: f64, x: f64) -> f64 {
    if x <= 0.0 || a <= 0.0 {
        return if x <= 0.0 { 1.0 } else { 0.0 };
    }
    if x < a + 1.0 {
        1.0 - gamma_p_series(a, x)
    } else {
        gamma_q_cf(a, x)
    }
}

fn gamma_p_series(a: f64, x: f64) -> f64 {
    let mut term = 1.0 / a;
    let mut sum = term;
    let mut n = a;
    for _ in 0..500 {
        n += 1.0;
        term *= x / n;
        sum += term;
        if term.abs() < sum.abs() * 1e-16 {
            break;
        }
    }
    sum * (-x + a * x.ln() - ln_gamma(a)).exp()
}

fn gamma_q_cf(a: f64, x: f64) -> f64 {
    // Modified Lentz's method for the continued fraction representation.
    const TINY: f64 = 1e-300;
    let mut b = x + 1.0 - a;
    let mut c = 1.0 / TINY;
    let mut d = 1.0 / b;
    let mut h = d;
    for i in 1..500 {
        let an = -(i as f64) * (i as f64 - a);
        b += 2.0;
        d = an * d + b;
        if d.abs() < TINY {
            d = TINY;
        }
        c = b + an / c;
        if c.abs() < TINY {
            c = TINY;
        }
        d = 1.0 / d;
        let delta = d * c;
        h *= delta;
        if (delta - 1.0).abs() < 1e-16 {
            break;
        }
    }
    h * (-x + a * x.ln() - ln_gamma(a)).exp()
}

/// Complementary error function, via the incomplete gamma identity
/// `erfc(x) = Q(1/2, x²)` for `x ≥ 0`.
pub fn erfc(x: f64) -> f64 {
    if x < 0.0 {
        2.0 - erfc(-x)
    } else {
        gamma_q(0.5, x * x)
    }
}

/// Standard normal CDF `Φ(z)`.
pub fn normal_cdf(z: f64) -> f64 {
    0.5 * erfc(-z / std::f64::consts::SQRT_2)
}

/// Standard normal survival function `1 - Φ(z)`, accurate in the far tail.
pub fn normal_sf(z: f64) -> f64 {
    0.5 * erfc(z / std::f64::consts::SQRT_2)
}

/// Standard normal quantile `Φ⁻¹(p)` (Acklam's rational approximation,
/// |relative error| < 1.15e-9).
///
/// # Panics
///
/// Panics if `p` is outside `(0, 1)`.
pub fn normal_quantile(p: f64) -> f64 {
    assert!(p > 0.0 && p < 1.0, "normal_quantile requires 0 < p < 1");
    const A: [f64; 6] = [
        -3.969683028665376e+01,
        2.209460984245205e+02,
        -2.759285104469687e+02,
        1.38357751867269e+02,
        -3.066479806614716e+01,
        2.506628277459239e+00,
    ];
    const B: [f64; 5] = [
        -5.447609879822406e+01,
        1.615858368580409e+02,
        -1.556989798598866e+02,
        6.680131188771972e+01,
        -1.328068155288572e+01,
    ];
    const C: [f64; 6] = [
        -7.784894002430293e-03,
        -3.223964580411365e-01,
        -2.400758277161838e+00,
        -2.549732539343734e+00,
        4.374664141464968e+00,
        2.938163982698783e+00,
    ];
    const D: [f64; 4] = [
        7.784695709041462e-03,
        3.224671290700398e-01,
        2.445134137142996e+00,
        3.754408661907416e+00,
    ];
    const P_LOW: f64 = 0.02425;
    if p < P_LOW {
        let q = (-2.0 * p.ln()).sqrt();
        (((((C[0] * q + C[1]) * q + C[2]) * q + C[3]) * q + C[4]) * q + C[5])
            / ((((D[0] * q + D[1]) * q + D[2]) * q + D[3]) * q + 1.0)
    } else if p <= 1.0 - P_LOW {
        let q = p - 0.5;
        let r = q * q;
        (((((A[0] * r + A[1]) * r + A[2]) * r + A[3]) * r + A[4]) * r + A[5]) * q
            / (((((B[0] * r + B[1]) * r + B[2]) * r + B[3]) * r + B[4]) * r + 1.0)
    } else {
        let q = (-2.0 * (1.0 - p).ln()).sqrt();
        -(((((C[0] * q + C[1]) * q + C[2]) * q + C[3]) * q + C[4]) * q + C[5])
            / ((((D[0] * q + D[1]) * q + D[2]) * q + D[3]) * q + 1.0)
    }
}

/// Chi-squared survival function: `P(X > x)` for `X ~ χ²(df)`.
pub fn chi2_sf(x: f64, df: f64) -> f64 {
    if x <= 0.0 {
        return 1.0;
    }
    gamma_q(df / 2.0, x / 2.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn close(a: f64, b: f64, tol: f64) -> bool {
        (a - b).abs() <= tol * b.abs().max(1.0)
    }

    #[test]
    fn ln_gamma_known_values() {
        // Γ(1)=1, Γ(2)=1, Γ(5)=24, Γ(0.5)=√π.
        assert!(close(ln_gamma(1.0), 0.0, 1e-12));
        assert!(close(ln_gamma(2.0), 0.0, 1e-12));
        assert!(close(ln_gamma(5.0), 24.0f64.ln(), 1e-12));
        assert!(close(
            ln_gamma(0.5),
            std::f64::consts::PI.sqrt().ln(),
            1e-12
        ));
        // math.lgamma(10.3) = 13.48203678613836
        assert!(close(ln_gamma(10.3), 13.482_036_786_138_36, 1e-12));
    }

    #[test]
    fn gamma_p_q_complement() {
        for &(a, x) in &[(0.5, 0.3), (2.0, 2.0), (5.0, 1.0), (10.0, 20.0)] {
            assert!(close(gamma_p(a, x) + gamma_q(a, x), 1.0, 1e-12));
        }
    }

    #[test]
    fn gamma_p_reference_values() {
        // scipy.special.gammainc(2, 2) = 0.5939941502901618
        assert!(close(gamma_p(2.0, 2.0), 0.593_994_150_290_161_8, 1e-10));
        // scipy.special.gammainc(0.5, 0.5) = 0.6826894921370859
        assert!(close(gamma_p(0.5, 0.5), 0.682_689_492_137_085_9, 1e-10));
    }

    #[test]
    fn erfc_reference_values() {
        // erfc(1) = 1 - erf(1) = 0.1572992070502851
        assert!(close(erfc(1.0), 0.157_299_207_050_285_1, 1e-10));
        assert!(close(erfc(-1.0), 1.842_700_792_949_715, 1e-10));
        assert_eq!(erfc(0.0), 1.0);
        // erfc(2) = 0.004677734981063127
        assert!(close(erfc(2.0), 0.004_677_734_981_063_127, 1e-9));
    }

    #[test]
    fn normal_cdf_reference_values() {
        assert!(close(normal_cdf(0.0), 0.5, 1e-12));
        // Φ(1.96) = 0.9750021048517795
        assert!(close(normal_cdf(1.96), 0.975_002_104_851_779_5, 1e-9));
        // Tail: 1-Φ(6) = 9.865876450377018e-10
        assert!(close(normal_sf(6.0), 9.865_876_450_377_018e-10, 1e-6));
    }

    #[test]
    fn normal_quantile_inverts_cdf() {
        for &p in &[1e-8, 0.001, 0.025, 0.3, 0.5, 0.77, 0.975, 0.999, 1.0 - 1e-8] {
            let z = normal_quantile(p);
            assert!(
                close(normal_cdf(z), p, 1e-7),
                "p={p} z={z} cdf={}",
                normal_cdf(z)
            );
        }
        assert!(close(normal_quantile(0.975), 1.959_963_984_540_054, 1e-8));
    }

    #[test]
    #[should_panic(expected = "normal_quantile requires")]
    fn normal_quantile_rejects_out_of_range() {
        normal_quantile(0.0);
    }

    #[test]
    fn chi2_sf_reference_values() {
        // R: pchisq(3.841459, df=1, lower.tail=FALSE) = 0.05
        assert!(close(chi2_sf(3.841_458_820_694_124, 1.0), 0.05, 1e-9));
        // R: pchisq(11.0705, df=5, lower.tail=FALSE) = 0.05
        assert!(close(chi2_sf(11.070_497_693_516_35, 5.0), 0.05, 1e-9));
        // The paper's headline: chi2=178.22, df=5 → p < 2.2e-16.
        assert!(chi2_sf(178.22, 5.0) < 2.2e-16);
        assert!(chi2_sf(175.27, 5.0) < 2.2e-16);
        assert_eq!(chi2_sf(0.0, 3.0), 1.0);
        assert_eq!(chi2_sf(-1.0, 3.0), 1.0);
    }

    #[test]
    fn chi2_sf_is_monotone_in_x() {
        let mut prev = 1.0;
        for i in 1..100 {
            let p = chi2_sf(i as f64 * 0.5, 5.0);
            assert!(p <= prev);
            prev = p;
        }
    }
}
