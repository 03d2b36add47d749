//! Distribution test for the measurement-noise sampler `noise::gaussian`.
//!
//! One fixed-seed sample of 10⁶ draws is checked against the standard normal:
//! its first four moments, the mass in each tail beyond 3σ and 4σ, and the
//! Kolmogorov–Smirnov distance to Φ.  Every tolerance is derived from the
//! sampling distribution of its statistic at this sample size, so any correct
//! sampler passes and a sampler whose shape is off by a fraction of a
//! percent does not.

use std::sync::OnceLock;

use adasense_sensor::noise::gaussian;
use rand::rngs::StdRng;
use rand::SeedableRng;

const DRAWS: usize = 1_000_000;

/// Tolerances are this many standard errors of the statistic.
const Z: f64 = 5.0;

/// The sample, sorted ascending (sorting changes no statistic checked here
/// and gives the KS test its empirical CDF).
fn sample() -> &'static [f64] {
    static SAMPLE: OnceLock<Vec<f64>> = OnceLock::new();
    SAMPLE.get_or_init(|| {
        let mut rng = StdRng::seed_from_u64(2020);
        let mut values: Vec<f64> = (0..DRAWS).map(|_| gaussian(&mut rng)).collect();
        values.sort_by(f64::total_cmp);
        values
    })
}

/// Complementary error function (Numerical Recipes `erfcc`, a Chebyshev fit
/// with fractional error below 1.2 × 10⁻⁷ everywhere) — ample for the
/// tolerances below.
fn erfc(x: f64) -> f64 {
    let z = x.abs();
    let t = 1.0 / (1.0 + 0.5 * z);
    let poly = -1.265_512_23
        + t * (1.000_023_68
            + t * (0.374_091_96
                + t * (0.096_784_18
                    + t * (-0.186_288_06
                        + t * (0.278_868_07
                            + t * (-1.135_203_98
                                + t * (1.488_515_87 + t * (-0.822_152_23 + t * 0.170_872_77))))))));
    let tail = t * (-z * z + poly).exp();
    if x >= 0.0 {
        tail
    } else {
        2.0 - tail
    }
}

/// Standard normal CDF Φ.
fn phi(x: f64) -> f64 {
    0.5 * erfc(-x / std::f64::consts::SQRT_2)
}

/// Central moments 1–4 of the sample: (mean, variance, skewness, excess kurtosis).
fn moments(values: &[f64]) -> (f64, f64, f64, f64) {
    let n = values.len() as f64;
    let mean = values.iter().sum::<f64>() / n;
    let (mut m2, mut m3, mut m4) = (0.0, 0.0, 0.0);
    for &v in values {
        let d = v - mean;
        let d2 = d * d;
        m2 += d2;
        m3 += d2 * d;
        m4 += d2 * d2;
    }
    let (m2, m3, m4) = (m2 / n, m3 / n, m4 / n);
    (mean, m2, m3 / m2.powf(1.5), m4 / (m2 * m2) - 3.0)
}

#[test]
fn mean_and_variance_match_the_standard_normal() {
    let (mean, var, _, _) = moments(sample());
    let n = DRAWS as f64;
    let mean_tol = Z / n.sqrt();
    let var_tol = Z * (2.0 / n).sqrt();
    assert!(mean.abs() < mean_tol, "mean {mean} outside ±{mean_tol}");
    assert!((var - 1.0).abs() < var_tol, "variance {var} outside 1 ± {var_tol}");
}

#[test]
fn skewness_and_excess_kurtosis_match_the_standard_normal() {
    let (_, _, skew, kurt) = moments(sample());
    let n = DRAWS as f64;
    let skew_tol = Z * (6.0 / n).sqrt();
    let kurt_tol = Z * (24.0 / n).sqrt();
    assert!(skew.abs() < skew_tol, "skewness {skew} outside ±{skew_tol}");
    assert!(kurt.abs() < kurt_tol, "excess kurtosis {kurt} outside ±{kurt_tol}");
}

#[test]
fn mass_beyond_three_and_four_sigma_matches_phi() {
    let values = sample();
    let n = DRAWS as f64;
    for k in [3.0, 4.0] {
        // Each tail separately: a sampler that mirrors badly fails here even
        // when its two-sided mass is right.
        let p = 1.0 - phi(k);
        let expected = n * p;
        let tol = Z * (n * p * (1.0 - p)).sqrt();
        let upper = values.iter().filter(|&&v| v > k).count() as f64;
        let lower = values.iter().filter(|&&v| v < -k).count() as f64;
        for (side, count) in [("upper", upper), ("lower", lower)] {
            assert!(
                (count - expected).abs() < tol,
                "{side} tail beyond {k}σ: {count} draws, expected {expected:.1} ± {tol:.1}"
            );
        }
    }
}

#[test]
fn kolmogorov_smirnov_distance_to_phi_is_below_the_one_percent_critical_value() {
    let values = sample();
    let n = DRAWS as f64;
    let d = values
        .iter()
        .enumerate()
        .map(|(i, &v)| {
            let cdf = phi(v);
            (cdf - i as f64 / n).max((i + 1) as f64 / n - cdf)
        })
        .fold(0.0_f64, f64::max);
    // Asymptotic critical value of √n·D at α = 0.01.
    let critical = 1.6276 / n.sqrt();
    assert!(d < critical, "KS distance {d} ≥ 1% critical value {critical}");
}
