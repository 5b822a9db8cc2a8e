//! Goodness-of-fit checks for the hand-rolled samplers.
//!
//! The whole market rests on the noise having exactly the advertised law
//! (unbiasedness and Lemma 3 calibration), so the test suite validates the
//! samplers with a one-sample Kolmogorov–Smirnov test against the target
//! CDF — moment checks alone would miss shape errors like a Box–Muller
//! implementation bug that preserves variance.

/// One-sample Kolmogorov–Smirnov statistic `D_n = sup |F_n(x) − F(x)|`
/// of `samples` against the CDF `cdf`.
///
/// # Panics
/// Panics on an empty sample or a non-finite value.
pub fn ks_statistic(samples: &mut [f64], cdf: impl Fn(f64) -> f64) -> f64 {
    assert!(!samples.is_empty(), "need at least one sample");
    assert!(
        samples.iter().all(|x| x.is_finite()),
        "samples must be finite"
    );
    samples.sort_by(f64::total_cmp);
    let n = samples.len() as f64;
    let mut d: f64 = 0.0;
    for (i, &x) in samples.iter().enumerate() {
        let f = cdf(x);
        let lo = i as f64 / n;
        let hi = (i + 1) as f64 / n;
        d = d.max((f - lo).abs()).max((hi - f).abs());
    }
    d
}

/// Asymptotic KS critical value at significance `alpha ∈ {0.01, 0.05}`:
/// `c(α)/√n` with `c(0.05) ≈ 1.358`, `c(0.01) ≈ 1.628`.
///
/// # Panics
/// Panics for unsupported significance levels.
pub fn ks_critical(n: usize, alpha: f64) -> f64 {
    let c = if (alpha - 0.05).abs() < 1e-12 {
        1.358
    } else if (alpha - 0.01).abs() < 1e-12 {
        1.628
    } else {
        panic!("unsupported alpha {alpha}; use 0.05 or 0.01")
    };
    c / (n as f64).sqrt()
}

/// Standard normal CDF via the complementary error function
/// (Abramowitz–Stegun 7.1.26 polynomial, |error| < 1.5e-7).
pub fn normal_cdf(x: f64) -> f64 {
    0.5 * erfc(-x / std::f64::consts::SQRT_2)
}

/// Zero-mean Laplace CDF with scale `b`.
pub fn laplace_cdf(x: f64, b: f64) -> f64 {
    if x < 0.0 {
        0.5 * (x / b).exp()
    } else {
        1.0 - 0.5 * (-x / b).exp()
    }
}

/// Complementary error function (polynomial approximation; |ε| < 1.5e-7).
pub fn erfc(x: f64) -> f64 {
    let z = x.abs();
    let t = 1.0 / (1.0 + 0.5 * z);
    let tau = t
        * (-z * z - 1.26551223
            + t * (1.00002368
                + t * (0.37409196
                    + t * (0.09678418
                        + t * (-0.18628806
                            + t * (0.27886807
                                + t * (-1.13520398
                                    + t * (1.48851587 + t * (-0.82215223 + t * 0.17087277)))))))))
            .exp();
    if x >= 0.0 {
        tau
    } else {
        2.0 - tau
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{seeded_rng, Distribution, Laplace, Normal, StandardNormal, UniformRange};

    const N: usize = 20_000;

    #[test]
    fn erfc_reference_values() {
        // erfc(0) = 1; erfc(1) ≈ 0.157299; erfc(−1) ≈ 1.842701.
        assert!((erfc(0.0) - 1.0).abs() < 1e-7);
        assert!((erfc(1.0) - 0.157_299_2).abs() < 1e-6);
        assert!((erfc(-1.0) - 1.842_700_8).abs() < 1e-6);
        assert!((normal_cdf(0.0) - 0.5).abs() < 1e-6);
        assert!((normal_cdf(1.96) - 0.975).abs() < 1e-3);
    }

    /// The sampler every Gaussian in the workspace draws through, at
    /// n = 10⁶: the 1% critical value is then 1.6·10⁻³, fine enough to
    /// see a single mis-tabulated ziggurat layer.
    #[test]
    fn standard_normal_passes_ks() {
        const BIG: usize = 1_000_000;
        let mut rng = seeded_rng(201);
        let mut xs: Vec<f64> = (0..BIG).map(|_| StandardNormal.sample(&mut rng)).collect();
        let d = ks_statistic(&mut xs, normal_cdf);
        assert!(d < ks_critical(BIG, 0.01), "KS statistic {d}");
    }

    #[test]
    fn shifted_normal_passes_ks() {
        let mut rng = seeded_rng(202);
        let dist = Normal::new(2.0, 3.0);
        let mut xs: Vec<f64> = (0..N).map(|_| dist.sample(&mut rng)).collect();
        let d = ks_statistic(&mut xs, |x| normal_cdf((x - 2.0) / 3.0));
        assert!(d < ks_critical(N, 0.01), "KS statistic {d}");
    }

    #[test]
    fn laplace_passes_ks() {
        let mut rng = seeded_rng(203);
        let dist = Laplace::new(1.5);
        let mut xs: Vec<f64> = (0..N).map(|_| dist.sample(&mut rng)).collect();
        let d = ks_statistic(&mut xs, |x| laplace_cdf(x, 1.5));
        assert!(d < ks_critical(N, 0.01), "KS statistic {d}");
    }

    #[test]
    fn uniform_passes_ks() {
        let mut rng = seeded_rng(204);
        let dist = UniformRange::new(-2.0, 5.0);
        let mut xs: Vec<f64> = (0..N).map(|_| dist.sample(&mut rng)).collect();
        let d = ks_statistic(&mut xs, |x| ((x + 2.0) / 7.0).clamp(0.0, 1.0));
        assert!(d < ks_critical(N, 0.01), "KS statistic {d}");
    }

    /// The test has power: a wrong distribution fails decisively.
    #[test]
    fn ks_rejects_wrong_distribution() {
        let mut rng = seeded_rng(205);
        // Uniform samples tested against a normal CDF.
        let dist = UniformRange::new(-1.0, 1.0);
        let mut xs: Vec<f64> = (0..N).map(|_| dist.sample(&mut rng)).collect();
        let d = ks_statistic(&mut xs, normal_cdf);
        assert!(d > 10.0 * ks_critical(N, 0.01), "KS should reject, got {d}");
    }

    #[test]
    #[should_panic(expected = "at least one sample")]
    fn empty_sample_panics() {
        ks_statistic(&mut [], normal_cdf);
    }
}
