//! Arbitrage auditing: verifying — or breaking — pricing functions.
//!
//! Definition 3 (k-arbitrage): a buyer purchases `k` cheap noisy instances
//! at NCPs `δ₁..δ_k` and combines them (unbiasedly) into an instance at
//! least as accurate as a target `δ₀`, while paying less. For the Gaussian
//! mechanism, the optimal combination is inverse-variance weighting with
//! combined precision `1/δ = Σ 1/δᵢ` (precisions add), so arbitrage exists
//! iff some *cover* of the target precision is cheaper than the list price
//! (Theorem 5).
//!
//! Two auditors:
//!
//! * [`audit`] — searches a pricing function for monotonicity violations
//!   and cheap precision covers, reusing the unbounded covering-knapsack
//!   oracle on a quantized precision grid. A clean report is a certificate
//!   (up to quantization) of arbitrage-freeness over the grid; a violation
//!   comes with the explicit purchase list that realizes it.
//! * [`combine_inverse_variance`] — executes the attack on actual model
//!   instances, reproducing the estimator `ĥ = Σ (δ₀/δᵢ)·ĥᵢ` from the
//!   proof of Theorem 5. Tests use it to demonstrate that audited-broken
//!   prices lose real money.

use crate::pricing::PricingFunction;
use mbp_linalg::Vector;
use mbp_optim::knapsack::{CoverOracle, Item};

/// One concrete arbitrage opportunity found by [`audit`].
#[derive(Debug, Clone)]
pub struct ArbitrageFinding {
    /// Target precision `x₀ = 1/δ₀` the attacker wants.
    pub target_precision: f64,
    /// List price `p̄(x₀)`.
    pub list_price: f64,
    /// Total price of the attacking bundle.
    pub bundle_price: f64,
    /// The bundle: `(precision, multiplicity)` purchases whose combined
    /// precision covers the target.
    pub bundle: Vec<(f64, u64)>,
}

impl ArbitrageFinding {
    /// Attack margin `list_price − bundle_price` (> 0 by construction).
    pub fn margin(&self) -> f64 {
        self.list_price - self.bundle_price
    }
}

/// Report of a full audit.
#[derive(Debug, Clone, Default)]
pub struct AuditReport {
    /// Grid pairs where a higher precision is priced *lower* (violates
    /// error-monotonicity, Definition 2 / Figure 3).
    pub monotonicity_violations: Vec<(f64, f64)>,
    /// Cheap-cover opportunities (violate subadditivity, Definition 3).
    pub arbitrage: Vec<ArbitrageFinding>,
}

impl AuditReport {
    /// `true` when the audit found nothing.
    pub fn is_clean(&self) -> bool {
        self.monotonicity_violations.is_empty() && self.arbitrage.is_empty()
    }
}

/// Audits `pf` over `grid` (ascending positive precisions).
///
/// The grid is quantized to integers with `resolution` steps per smallest
/// grid gap, and the covering-knapsack oracle computes, for every grid
/// precision, the cheapest multiset of grid purchases whose precisions sum
/// to at least it. Any cover strictly cheaper than the list price (beyond
/// `tol`) is arbitrage.
///
/// Quantization is *sound*: bundle items round **down** and targets round
/// **up**, so every quantized cover corresponds to a genuine real-valued
/// cover (`Σ kᵢ·⌊xᵢs⌋ ≥ ⌈x₀s⌉ ⟹ Σ kᵢ·xᵢ ≥ x₀`). The price of soundness
/// is a little completeness: attacks that rely on margins thinner than one
/// quantization step can be missed — raise `resolution` to tighten.
///
/// ```
/// use mbp_core::arbitrage::audit;
/// use mbp_core::pricing::PricingFunction;
///
/// let grid: Vec<f64> = (1..=6).map(|i| i as f64).collect();
/// // Convex pricing (x²) is superadditive: two x=1 buys undercut x=2.
/// let broken = PricingFunction::from_points(
///     grid.clone(), grid.iter().map(|x| x * x).collect()).unwrap();
/// let report = audit(&broken, &grid, 10, 1e-9);
/// assert!(!report.is_clean());
/// let attack = &report.arbitrage[0];
/// assert!(attack.bundle_price < attack.list_price);
/// ```
///
/// # Panics
/// Panics when `grid` is empty, non-ascending, or non-positive.
pub fn audit(pf: &PricingFunction, grid: &[f64], resolution: u64, tol: f64) -> AuditReport {
    assert!(!grid.is_empty(), "audit grid is empty");
    assert!(
        grid.windows(2).all(|w| w[0] < w[1]) && grid[0] > 0.0,
        "audit grid must be positive ascending"
    );
    let mut report = AuditReport::default();

    // Monotonicity: prices must be non-decreasing along the grid.
    for w in grid.windows(2) {
        if pf.price_at(w[0]) > pf.price_at(w[1]) + tol {
            report.monotonicity_violations.push((w[0], w[1]));
        }
    }

    // Subadditivity via covering: quantize precisions (floor items so a
    // quantized bundle never over-states its real coverage).
    let min_gap = grid.windows(2).map(|w| w[1] - w[0]).fold(grid[0], f64::min);
    let scale = resolution as f64 / min_gap;
    let items: Vec<Item> = grid
        .iter()
        .map(|&x| Item::new(((x * scale).floor() as u64).max(1), pf.price_at(x)))
        .collect();
    let targets: Vec<u64> = grid.iter().map(|&x| (x * scale).ceil() as u64).collect();
    let horizon = targets.iter().copied().max().unwrap_or(1);
    let oracle = CoverOracle::build(&items, horizon);
    for (j, &x0) in grid.iter().enumerate() {
        let list = pf.price_at(x0);
        let mu = oracle.mu(targets[j]);
        if mu < list - tol {
            let bundle = oracle
                .witness(targets[j])
                .map(|w| {
                    w.into_iter()
                        .map(|(idx, k)| (grid[idx], k))
                        .collect::<Vec<_>>()
                })
                .unwrap_or_default();
            report.arbitrage.push(ArbitrageFinding {
                target_precision: x0,
                list_price: list,
                bundle_price: mu,
                bundle,
            });
        }
    }
    report
}

/// Executes the Theorem 5 attack: combines independently released model
/// instances `models[i]` bought at NCPs `ncps[i]` into the inverse-variance
/// weighted estimate with NCP `δ = 1/(Σ 1/δᵢ)`.
///
/// Returns `(combined model, combined ncp)`. The combination is unbiased
/// (the weights `(1/δᵢ)/Σ(1/δⱼ)` sum to 1) and, for the Gaussian mechanism,
/// attains the Cramér–Rao bound — no unbiased combination does better.
///
/// # Panics
/// Panics on empty input, length mismatch, or non-positive NCPs.
pub fn combine_inverse_variance(models: &[Vector], ncps: &[f64]) -> (Vector, f64) {
    assert!(!models.is_empty(), "no instances to combine");
    assert_eq!(models.len(), ncps.len(), "models and NCPs must align");
    assert!(
        ncps.iter().all(|&d| d > 0.0 && d.is_finite()),
        "NCPs must be positive"
    );
    let total_precision: f64 = ncps.iter().map(|d| 1.0 / d).sum();
    let mut out = Vector::zeros(models[0].len());
    for (m, &d) in models.iter().zip(ncps) {
        let weight = (1.0 / d) / total_precision;
        out.axpy(weight, m).expect("instances share a dimension");
    }
    (out, 1.0 / total_precision)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mechanism::{GaussianMechanism, NoiseMechanism};
    use mbp_randx::seeded_rng;

    fn grid() -> Vec<f64> {
        (1..=10).map(|i| i as f64).collect()
    }

    #[test]
    fn clean_linear_pricing_passes() {
        // p̄(x) = 3x is monotone and additive (hence subadditive).
        let g = grid();
        let prices: Vec<f64> = g.iter().map(|x| 3.0 * x).collect();
        let pf = PricingFunction::from_points(g.clone(), prices).unwrap();
        let report = audit(&pf, &g, 10, 1e-9);
        assert!(report.is_clean(), "{report:?}");
    }

    #[test]
    fn clean_concave_pricing_passes() {
        // √x is monotone and subadditive.
        let g = grid();
        let prices: Vec<f64> = g.iter().map(|x| x.sqrt() * 10.0).collect();
        let pf = PricingFunction::from_points(g.clone(), prices).unwrap();
        let report = audit(&pf, &g, 10, 1e-9);
        assert!(report.is_clean(), "{report:?}");
    }

    #[test]
    fn convex_pricing_is_arbitraged() {
        // p̄(x) = x² is superadditive: two x=1 purchases (price 1 + 1 = 2)
        // cover x = 2 (price 4).
        let g = grid();
        let prices: Vec<f64> = g.iter().map(|x| x * x).collect();
        let pf = PricingFunction::from_points(g.clone(), prices).unwrap();
        let report = audit(&pf, &g, 10, 1e-9);
        assert!(!report.arbitrage.is_empty());
        let f = &report.arbitrage[0];
        assert!(f.margin() > 0.0);
        assert!(!f.bundle.is_empty());
        // Bundle precisions really cover the target.
        let covered: f64 = f.bundle.iter().map(|&(x, k)| x * k as f64).sum();
        assert!(covered >= f.target_precision - 1e-9);
        // Bundle price really is the sum of list prices.
        let paid: f64 = f
            .bundle
            .iter()
            .map(|&(x, k)| pf.price_at(x) * k as f64)
            .sum();
        assert!((paid - f.bundle_price).abs() < 1e-9);
    }

    #[test]
    fn decreasing_pricing_flags_monotonicity() {
        let g = vec![1.0, 2.0, 3.0];
        let pf = PricingFunction::from_points(g.clone(), vec![9.0, 5.0, 6.0]).unwrap();
        let report = audit(&pf, &g, 10, 1e-9);
        assert_eq!(report.monotonicity_violations, vec![(1.0, 2.0)]);
    }

    #[test]
    fn combination_precisions_add() {
        let models = vec![Vector::from_vec(vec![2.0]), Vector::from_vec(vec![4.0])];
        let (combined, ncp) = combine_inverse_variance(&models, &[1.0, 1.0]);
        assert!((ncp - 0.5).abs() < 1e-12); // 1/(1+1)
        assert!((combined[0] - 3.0).abs() < 1e-12); // equal weights
    }

    #[test]
    fn combination_weights_by_precision() {
        let models = vec![Vector::from_vec(vec![0.0]), Vector::from_vec(vec![10.0])];
        // Second model is 9x more precise (δ smaller), so it dominates.
        let (combined, ncp) = combine_inverse_variance(&models, &[9.0, 1.0]);
        assert!((combined[0] - 9.0).abs() < 1e-12);
        assert!((ncp - 0.9).abs() < 1e-12); // 1/(1/9 + 1)
    }

    /// End-to-end Theorem 5 attack: buying two δ=2 Gaussian releases and
    /// averaging yields an instance with measured error ≈ δ=1.
    #[test]
    fn attack_on_gaussian_releases_achieves_combined_ncp() {
        let h = Vector::from_vec(vec![1.0, -2.0, 3.0, 0.5]);
        let mut rng = seeded_rng(55);
        let reps = 20_000;
        let mut err = 0.0;
        for _ in 0..reps {
            let m1 = GaussianMechanism.perturb(&h, 2.0, &mut rng);
            let m2 = GaussianMechanism.perturb(&h, 2.0, &mut rng);
            let (combined, ncp) = combine_inverse_variance(&[m1, m2], &[2.0, 2.0]);
            assert!((ncp - 1.0).abs() < 1e-12);
            err += combined.sub(&h).unwrap().norm2_squared();
        }
        err /= reps as f64;
        assert!((err - 1.0).abs() < 0.05, "measured error {err}, want 1.0");
    }

    #[test]
    #[should_panic(expected = "align")]
    fn combine_checks_lengths() {
        combine_inverse_variance(&[Vector::zeros(1)], &[1.0, 2.0]);
    }
}
