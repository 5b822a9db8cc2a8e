//! Error transforms: the monotone bijection `δ ↔ E[ε(ĥ_δ)]`.
//!
//! Theorem 4 shows that for any strictly convex test error `ε`, the expected
//! error of the Gaussian release is strictly increasing in the NCP δ, so an
//! *error-inverse* `φ` exists with `δ = φ(E[ε])` (Section 4.2). The broker
//! needs `φ` to run the market: buyers think in error units, the
//! arbitrage-free characterization (Theorem 6) lives in inverse-NCP units.
//!
//! Three implementations:
//!
//! * [`SquareLossTransform`] — the model-space square loss, where Lemma 3
//!   gives `E[ε_s] = δ` exactly (the identity transform);
//! * [`LinRegSquareTransform`] — analytic transform for the *data-space*
//!   square loss of linear regression: for `ε(h) = (1/2n)‖Xh − y‖²` and
//!   isotropic noise with per-coordinate variance `δ/d`,
//!   `E[ε(h* + w)] = ε(h*) + δ·tr(XᵀX)/(2nd)` — affine in δ, analytically
//!   invertible;
//! * [`EmpiricalTransform`] — the Monte-Carlo estimator used in Figure 6:
//!   sample many noisy models per grid δ, average the error, smooth with
//!   isotonic regression (the curve must be monotone by Theorem 4; sampling
//!   noise is projected away), invert by piecewise-linear interpolation.

use crate::lookup::SegmentIndex;
use crate::mechanism::NoiseMechanism;
use mbp_data::Dataset;
use mbp_linalg::Vector;
use mbp_ml::metrics::TestError;
use mbp_optim::isotonic::pava_non_decreasing;
use mbp_randx::{seeded_rng, SeedStream};

/// A monotone map between the NCP δ and the expected buyer-facing error.
pub trait ErrorTransform {
    /// `E[ε(ĥ_δ)]` as a function of `δ ≥ 0`.
    fn expected_error(&self, ncp: f64) -> f64;

    /// The error-inverse `φ`: the δ achieving expected error `err`.
    ///
    /// Returns `None` when `err` is unachievable — below the noiseless
    /// error floor `ε(h*)`, or above/outside the transform's modeled range.
    fn ncp_for_error(&self, err: f64) -> Option<f64>;

    /// Name for reports.
    fn name(&self) -> String;
}

/// Lemma 3: for the model-space square loss `ε_s(h) = ‖h − h*‖²`, the
/// expected error of any calibrated mechanism equals δ exactly.
#[derive(Debug, Clone, Copy, Default)]
pub struct SquareLossTransform;

impl ErrorTransform for SquareLossTransform {
    fn expected_error(&self, ncp: f64) -> f64 {
        ncp
    }

    fn ncp_for_error(&self, err: f64) -> Option<f64> {
        (err >= 0.0 && err.is_finite()).then_some(err)
    }

    fn name(&self) -> String {
        "identity (model-space square loss)".to_string()
    }
}

/// Analytic transform for linear regression's data-space square loss:
/// `E[ε] = ε(h*) + δ · tr(XᵀX)/(2nd)` on the evaluation split.
#[derive(Debug, Clone)]
pub struct LinRegSquareTransform {
    base: f64,
    slope: f64,
}

impl LinRegSquareTransform {
    /// Builds the transform for evaluation dataset `eval` and optimal model
    /// `h_star`.
    ///
    /// # Panics
    /// Panics on an empty evaluation set or dimension mismatch.
    pub fn new(eval: &Dataset, h_star: &Vector) -> Self {
        assert!(eval.n() > 0, "evaluation set is empty");
        assert_eq!(eval.d(), h_star.len(), "dimension mismatch");
        let base = TestError::SquareLoss.evaluate(h_star, eval);
        let slope = eval.x.gram_trace() / (2.0 * eval.n() as f64 * eval.d() as f64);
        LinRegSquareTransform { base, slope }
    }

    /// The noiseless error floor `ε(h*)`.
    pub fn base(&self) -> f64 {
        self.base
    }

    /// The per-δ error slope `tr(XᵀX)/(2nd)`.
    pub fn slope(&self) -> f64 {
        self.slope
    }
}

impl ErrorTransform for LinRegSquareTransform {
    fn expected_error(&self, ncp: f64) -> f64 {
        self.base + self.slope * ncp
    }

    fn ncp_for_error(&self, err: f64) -> Option<f64> {
        if !err.is_finite() || err < self.base - 1e-12 || self.slope <= 0.0 {
            return None;
        }
        Some(((err - self.base) / self.slope).max(0.0))
    }

    fn name(&self) -> String {
        "analytic linear-regression square loss".to_string()
    }
}

/// Second-order ("delta method") analytic transform for any twice-
/// differentiable test error: for isotropic noise with per-coordinate
/// variance `δ/d`,
///
/// ```text
/// E[ε(h* + w)] ≈ ε(h*) + (δ / 2d) · tr(∇²ε(h*))
/// ```
///
/// Exact for quadratic errors (it reproduces [`LinRegSquareTransform`]
/// bit-for-bit on linear regression) and a small-δ approximation
/// otherwise; [`DeltaMethodTransform::for_logistic`] reports the curvature
/// of the logistic loss at the optimum. Use [`EmpiricalTransform`] when δ
/// is large relative to the loss's curvature scale.
#[derive(Debug, Clone)]
pub struct DeltaMethodTransform {
    base: f64,
    slope: f64,
}

impl DeltaMethodTransform {
    /// Builds the transform from the noiseless error and the Hessian trace
    /// of the test error at `h*`, for a `d`-dimensional hypothesis space.
    ///
    /// # Panics
    /// Panics for non-finite inputs, negative trace, or `d == 0`.
    pub fn new(base: f64, hessian_trace: f64, d: usize) -> Self {
        assert!(d > 0, "dimension must be positive");
        assert!(
            base.is_finite() && base >= 0.0,
            "base error must be finite and >= 0"
        );
        assert!(
            hessian_trace.is_finite() && hessian_trace >= 0.0,
            "a convex error has non-negative Hessian trace"
        );
        DeltaMethodTransform {
            base,
            slope: hessian_trace / (2.0 * d as f64),
        }
    }

    /// Delta-method transform for linear regression's data-space square
    /// loss — exact (the loss is quadratic), and identical to
    /// [`LinRegSquareTransform`].
    pub fn for_linear_regression(eval: &Dataset, h_star: &Vector) -> Self {
        let base = TestError::SquareLoss.evaluate(h_star, eval);
        // Hessian of (1/2n)‖Xh − y‖² is XᵀX/n.
        let trace = eval.x.gram_trace() / eval.n().max(1) as f64;
        DeltaMethodTransform::new(base, trace, eval.d())
    }

    /// Delta-method transform for the logistic test loss:
    /// `tr(∇²ε) = (1/n) Σ σ(mᵢ)(1 − σ(mᵢ))·‖xᵢ‖²` at the optimum's margins.
    pub fn for_logistic(eval: &Dataset, h_star: &Vector) -> Self {
        let base = TestError::LogisticLoss.evaluate(h_star, eval);
        let n = eval.n().max(1) as f64;
        let mut trace = 0.0;
        for i in 0..eval.n() {
            let (x, y) = eval.example(i);
            let m: f64 = y * x
                .iter()
                .zip(h_star.as_slice())
                .map(|(a, b)| a * b)
                .sum::<f64>();
            let s = 1.0 / (1.0 + (-m).exp());
            let norm_sq: f64 = x.iter().map(|v| v * v).sum();
            trace += s * (1.0 - s) * norm_sq;
        }
        DeltaMethodTransform::new(base, trace / n, eval.d())
    }

    /// The noiseless error floor.
    pub fn base(&self) -> f64 {
        self.base
    }

    /// The per-δ slope `tr(∇²ε)/(2d)`.
    pub fn slope(&self) -> f64 {
        self.slope
    }
}

impl ErrorTransform for DeltaMethodTransform {
    fn expected_error(&self, ncp: f64) -> f64 {
        self.base + self.slope * ncp
    }

    fn ncp_for_error(&self, err: f64) -> Option<f64> {
        if !err.is_finite() || err < self.base - 1e-12 || self.slope <= 0.0 {
            return None;
        }
        Some(((err - self.base) / self.slope).max(0.0))
    }

    fn name(&self) -> String {
        "delta-method (second-order analytic)".to_string()
    }
}

/// Monte-Carlo estimate of the error curve on a δ grid (Figure 6's
/// methodology: "for each value of the NCP, we generate 2000 random models").
#[derive(Debug, Clone)]
pub struct EmpiricalTransform {
    /// Ascending NCP grid.
    ncps: Vec<f64>,
    /// Isotonic-smoothed expected error per grid point.
    errors: Vec<f64>,
    /// Segment lookup over `ncps` (forward interpolation).
    ncp_index: SegmentIndex,
    /// Segment lookup over `errors` (inverse interpolation;
    /// PAVA pooling can leave duplicate-adjacent errors, which the index
    /// resolves exactly like `partition_point`).
    err_index: SegmentIndex,
    error_kind: TestError,
}

impl EmpiricalTransform {
    /// Estimates the transform by releasing `replicas` noisy models per grid
    /// NCP through `mechanism` and averaging `error_kind` on `eval`.
    ///
    /// The averaged curve is projected to be non-decreasing (PAVA): by
    /// Theorem 4 the true curve is monotone for convex `ε`, and empirically
    /// so for the 0/1 loss (Figure 6, bottom row), so residual wiggle is
    /// Monte-Carlo noise.
    ///
    /// # Panics
    /// Panics when the grid is empty/not ascending or `replicas == 0`.
    pub fn estimate(
        mechanism: &dyn NoiseMechanism,
        h_star: &Vector,
        eval: &Dataset,
        error_kind: TestError,
        ncp_grid: &[f64],
        replicas: usize,
        seed: u64,
    ) -> Self {
        assert!(!ncp_grid.is_empty(), "NCP grid is empty");
        assert!(
            ncp_grid.windows(2).all(|w| w[0] < w[1]),
            "NCP grid must be strictly ascending"
        );
        assert!(ncp_grid.iter().all(|&d| d >= 0.0), "NCPs must be >= 0");
        assert!(replicas > 0, "need at least one replica");
        let mut seeds = SeedStream::new(seed);
        let raw: Vec<f64> = ncp_grid
            .iter()
            .map(|&ncp| {
                let mut rng = seeded_rng(seeds.next_seed());
                let mut acc = 0.0;
                for _ in 0..replicas {
                    let released = mechanism.perturb(h_star, ncp, &mut rng);
                    acc += error_kind.evaluate(&released, eval);
                }
                acc / replicas as f64
            })
            .collect();
        let weights = vec![1.0; raw.len()];
        let errors = pava_non_decreasing(&raw, &weights);
        EmpiricalTransform {
            ncps: ncp_grid.to_vec(),
            ncp_index: SegmentIndex::new(ncp_grid),
            err_index: SegmentIndex::new(&errors),
            errors,
            error_kind,
        }
    }

    /// The estimated `(δ, E[ε])` pairs.
    pub fn curve(&self) -> impl Iterator<Item = (f64, f64)> + '_ {
        self.ncps.iter().copied().zip(self.errors.iter().copied())
    }

    fn interp(&self, ncp: f64) -> f64 {
        let (Some(&e_first), Some(&e_last)) = (self.errors.first(), self.errors.last()) else {
            return 0.0;
        };
        let (Some(&d_first), Some(&d_last)) = (self.ncps.first(), self.ncps.last()) else {
            return e_first;
        };
        if ncp <= d_first {
            return e_first;
        }
        if ncp >= d_last {
            return e_last;
        }
        // Interior: the upper bound lands in [1, n-1] because ncp is
        // strictly between the endpoints; the fallbacks are unreachable
        // (and also absorb NaN, which the index sends to bound 0 exactly
        // like `partition_point`).
        let idx = self.ncp_index.upper_bound(&self.ncps, ncp);
        let i0 = idx.wrapping_sub(1);
        let (Some(&x0), Some(&x1)) = (self.ncps.get(i0), self.ncps.get(idx)) else {
            return e_last;
        };
        let (Some(&y0), Some(&y1)) = (self.errors.get(i0), self.errors.get(idx)) else {
            return e_last;
        };
        y0 + (y1 - y0) * (ncp - x0) / (x1 - x0)
    }
}

impl ErrorTransform for EmpiricalTransform {
    fn expected_error(&self, ncp: f64) -> f64 {
        self.interp(ncp)
    }

    fn ncp_for_error(&self, err: f64) -> Option<f64> {
        let (&e_first, &e_last) = (self.errors.first()?, self.errors.last()?);
        if !err.is_finite() || err < e_first - 1e-12 || err > e_last + 1e-12 {
            return None;
        }
        // Find the first segment whose upper endpoint reaches err (the
        // lower bound: first error ≥ err, exactly as the scan computed).
        let idx = self.err_index.lower_bound(&self.errors, err);
        if idx == 0 {
            return self.ncps.first().copied();
        }
        // idx ≥ 1 here, and the clamped upper index stays in bounds, so the
        // `?`s below are unreachable for the paired-by-construction vectors.
        let hi = idx.min(self.ncps.len().saturating_sub(1));
        let (&x0, &x1) = (self.ncps.get(idx - 1)?, self.ncps.get(hi)?);
        let (&y0, &y1) = (self.errors.get(idx - 1)?, self.errors.get(hi)?);
        if (y1 - y0).abs() < 1e-15 {
            // Flat segment (pooled by PAVA): every δ in it attains err;
            // return the cheapest-noise end (smaller δ ⇒ pricier model, so
            // the *largest* δ is the buyer-optimal choice).
            return Some(x1);
        }
        Some(x0 + (x1 - x0) * (err - y0) / (y1 - y0))
    }

    fn name(&self) -> String {
        format!("empirical ({})", self.error_kind.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mechanism::GaussianMechanism;
    use mbp_data::synth;
    use mbp_ml::train::ridge_closed_form;
    use mbp_randx::seeded_rng;

    #[test]
    fn identity_transform_roundtrips() {
        let t = SquareLossTransform;
        assert_eq!(t.expected_error(3.5), 3.5);
        assert_eq!(t.ncp_for_error(3.5), Some(3.5));
        assert_eq!(t.ncp_for_error(-1.0), None);
    }

    #[test]
    fn linreg_transform_matches_monte_carlo() {
        let mut rng = seeded_rng(91);
        let ds = synth::simulated1(2000, 6, 0.5, &mut rng);
        let h = ridge_closed_form(&ds, 0.0).unwrap();
        let t = LinRegSquareTransform::new(&ds, &h);
        // Monte-Carlo estimate at δ = 2.
        let mech = GaussianMechanism;
        let mut acc = 0.0;
        let reps = 4000;
        for _ in 0..reps {
            let released = mech.perturb(&h, 2.0, &mut rng);
            acc += TestError::SquareLoss.evaluate(&released, &ds);
        }
        let mc = acc / reps as f64;
        let analytic = t.expected_error(2.0);
        assert!(
            (mc - analytic).abs() < 0.05 * analytic,
            "MC {mc} vs analytic {analytic}"
        );
        // Inverse really inverts.
        let delta = t.ncp_for_error(analytic).unwrap();
        assert!((delta - 2.0).abs() < 1e-9);
        // Below the floor is unachievable.
        assert_eq!(t.ncp_for_error(t.base() * 0.5), None);
    }

    #[test]
    fn empirical_transform_monotone_and_invertible() {
        let mut rng = seeded_rng(92);
        let ds = synth::simulated2(800, 5, 0.9, &mut rng);
        let h = mbp_ml::train::newton_logistic(
            &mbp_ml::LogisticLoss::ridge(0.05),
            &ds,
            mbp_ml::train::TrainConfig::default(),
        )
        .weights;
        let grid: Vec<f64> = (1..=10).map(|i| i as f64 * 0.4).collect();
        let t = EmpiricalTransform::estimate(
            &GaussianMechanism,
            &h,
            &ds,
            TestError::LogisticLoss,
            &grid,
            300,
            123,
        );
        // Monotone non-decreasing by construction.
        let errs: Vec<f64> = t.curve().map(|(_, e)| e).collect();
        for w in errs.windows(2) {
            assert!(w[0] <= w[1] + 1e-12);
        }
        // Errors grow substantially over the grid.
        assert!(errs[errs.len() - 1] > errs[0] * 1.2, "{errs:?}");
        // Round-trip through the inverse at an interior error level.
        let target = (errs[0] + errs[errs.len() - 1]) / 2.0;
        let delta = t.ncp_for_error(target).unwrap();
        let back = t.expected_error(delta);
        assert!((back - target).abs() < 1e-9, "{back} vs {target}");
        // Out-of-range errors are rejected.
        assert_eq!(t.ncp_for_error(errs[0] - 0.1), None);
        assert_eq!(t.ncp_for_error(errs[errs.len() - 1] + 10.0), None);
    }

    #[test]
    fn empirical_zero_one_error_is_monotone() {
        let mut rng = seeded_rng(93);
        let ds = synth::simulated2(600, 4, 0.95, &mut rng);
        let h = mbp_ml::train::newton_logistic(
            &mbp_ml::LogisticLoss::ridge(0.05),
            &ds,
            mbp_ml::train::TrainConfig::default(),
        )
        .weights;
        let grid: Vec<f64> = (1..=8).map(|i| i as f64 * 0.5).collect();
        let t = EmpiricalTransform::estimate(
            &GaussianMechanism,
            &h,
            &ds,
            TestError::ZeroOne,
            &grid,
            400,
            321,
        );
        let errs: Vec<f64> = t.curve().map(|(_, e)| e).collect();
        // The paper's empirical finding (Figure 6 bottom row): even the
        // non-convex 0/1 error decreases as noise shrinks.
        assert!(errs[errs.len() - 1] >= errs[0], "{errs:?}");
    }

    #[test]
    fn delta_method_matches_linreg_analytic_exactly() {
        let mut rng = seeded_rng(94);
        let ds = synth::simulated1(800, 5, 0.4, &mut rng);
        let h = ridge_closed_form(&ds, 0.0).unwrap();
        let exact = LinRegSquareTransform::new(&ds, &h);
        let delta = DeltaMethodTransform::for_linear_regression(&ds, &h);
        assert!((exact.base() - delta.base()).abs() < 1e-12);
        let rel = (exact.slope() - delta.slope()).abs() / exact.slope();
        assert!(rel < 1e-12, "slope relative diff {rel}");
        let d1 = exact.ncp_for_error(exact.expected_error(3.0)).unwrap();
        let d2 = delta.ncp_for_error(delta.expected_error(3.0)).unwrap();
        assert!((d1 - d2).abs() < 1e-9);
    }

    #[test]
    fn delta_method_approximates_logistic_monte_carlo_for_small_ncp() {
        let mut rng = seeded_rng(95);
        let ds = synth::simulated2(1500, 5, 0.9, &mut rng);
        let h = mbp_ml::train::newton_logistic(
            &mbp_ml::LogisticLoss::ridge(1e-3),
            &ds,
            mbp_ml::train::TrainConfig::default(),
        )
        .weights;
        let delta = DeltaMethodTransform::for_logistic(&ds, &h);
        // Small δ: the quadratic approximation should track Monte Carlo.
        let ncp = 0.1 * h.norm2_squared();
        let mech = GaussianMechanism;
        let reps = 3000;
        let mut acc = 0.0;
        for _ in 0..reps {
            let released = mech.perturb(&h, ncp, &mut rng);
            acc += TestError::LogisticLoss.evaluate(&released, &ds);
        }
        let mc = acc / reps as f64;
        let analytic = delta.expected_error(ncp);
        let excess_mc = mc - delta.base();
        let excess_an = analytic - delta.base();
        assert!(
            (excess_mc - excess_an).abs() < 0.35 * excess_mc.max(1e-9),
            "MC excess {excess_mc} vs delta-method {excess_an}"
        );
    }

    #[test]
    fn delta_method_rejects_sub_floor_errors() {
        let t = DeltaMethodTransform::new(0.5, 2.0, 4);
        assert_eq!(t.ncp_for_error(0.4), None);
        let d = t.ncp_for_error(1.0).unwrap();
        assert!((t.expected_error(d) - 1.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "strictly ascending")]
    fn empirical_rejects_unsorted_grid() {
        let h = Vector::zeros(2);
        let ds = mbp_data::Dataset::new(mbp_linalg::Matrix::zeros(1, 2), Vector::zeros(1));
        EmpiricalTransform::estimate(
            &GaussianMechanism,
            &h,
            &ds,
            TestError::SquareLoss,
            &[2.0, 1.0],
            10,
            0,
        );
    }
}
